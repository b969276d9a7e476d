//! The serve plane's decisions: one frame queue and the serve-token
//! hand-off — with no threads and no sockets.
//!
//! [`crate::server`] runs one reader thread per connection; every
//! choice those threads make is a call into this module, so a test can
//! step the same calls on one thread and check what `hetmem-serve`
//! runs.
//!
//! * **Queue.** Every reader posts its frames on the one queue
//!   ([`Plane::post`]). Whoever holds the serve token takes the queue
//!   in ticks ([`Plane::next`]) and serves each tick's frames in
//!   arrival order.
//! * **Order.** One thread holds the token at a time and a tick takes
//!   the whole queue, so every connection's frames are served in the
//!   order it sent them.
//! * **Token.** A reader holding the token past its first tick has its
//!   own frames answered and wants relief; one reader may then stand by
//!   for the token, and the holder hands it over after its current
//!   tick. Both flags live in the queue, under its lock.
//!
//! Nothing is stranded: a poster and a releasing holder each re-check
//! the queue ([`Plane::has_work`]) after the token is free, and serve
//! it if they can take the token.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// The queued frames and the serve-token flags, kept under one lock.
struct Queue<F> {
    frames: VecDeque<F>,
    /// The token holder's own frames are answered.
    relief_wanted: bool,
    /// A reader waits for the token to relieve the holder.
    standby: bool,
}

/// A token holder's next move, from [`Plane::next`].
#[derive(Debug)]
pub enum Step<F> {
    /// Serve these frames as one tick.
    Tick(Vec<F>),
    /// Drop the token and return: a standby reader takes it over.
    HandOver,
    /// Drop the token, then re-check the queue: it was empty.
    Release,
}

/// One thread's turn holding the serve token.
#[derive(Debug)]
pub struct Turn {
    /// The holder's own frames are answered, so it wants relief.
    answered: bool,
    /// The holder took the token as the standby.
    standby: bool,
}

impl Turn {
    /// A turn by a connection's reader that has just posted its own
    /// frame, which its first tick answers; `standby` when it took the
    /// token as the holder's standby.
    pub fn reader(standby: bool) -> Turn {
        Turn { answered: false, standby }
    }
}

/// The admission queue in front of one broker.
pub struct Plane<F> {
    queue: Mutex<Queue<F>>,
}

impl<F> Default for Plane<F> {
    fn default() -> Self {
        let queue = Queue { frames: VecDeque::new(), relief_wanted: false, standby: false };
        Plane { queue: Mutex::new(queue) }
    }
}

impl<F> Plane<F> {
    fn queue(&self) -> MutexGuard<'_, Queue<F>> {
        self.queue.lock().expect("queue poisoned")
    }

    /// Queues `frame`. The caller then serves the queue if it can take
    /// the serve token.
    pub fn post(&self, frame: F) {
        self.queue().frames.push_back(frame);
    }

    /// Whether frames are queued.
    pub fn has_work(&self) -> bool {
        !self.queue().frames.is_empty()
    }

    /// A reader found the token taken. Returns whether it should wait
    /// for the token as the holder's standby: the holder wants relief
    /// and no other reader stands by.
    pub fn stand_by(&self) -> bool {
        let mut q = self.queue();
        let stand_by = q.relief_wanted && !q.standby;
        q.standby |= stand_by;
        stand_by
    }

    /// Whether a reader stands by for the token.
    #[cfg(test)]
    pub(crate) fn standing_by(&self) -> bool {
        self.queue().standby
    }

    /// The token holder's next move: the next tick is the whole queue.
    /// A reader past its first tick has its own frames answered: it
    /// hands the token to a standby if one waits, and otherwise wants
    /// relief.
    pub fn next(&self, turn: &mut Turn) -> Step<F> {
        let mut q = self.queue();
        if std::mem::take(&mut turn.standby) {
            q.standby = false;
        }
        if turn.answered {
            if q.standby {
                q.relief_wanted = false;
                return Step::HandOver;
            }
            q.relief_wanted = true;
        }
        if q.frames.is_empty() {
            q.relief_wanted = false;
            return Step::Release;
        }
        turn.answered = true;
        Step::Tick(q.frames.drain(..).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_relieves_a_holder_whose_own_frames_are_answered() {
        let plane = Plane::default();
        let tick = |step: Step<u64>| match step {
            Step::Tick(tick) => tick,
            other => panic!("expected a tick, got {other:?}"),
        };
        // A reader posts its frame and takes the token.
        plane.post(0);
        let mut holder = Turn::reader(false);
        assert_eq!(tick(plane.next(&mut holder)), [0]);
        // In its first tick the holder is serving its own frame: a
        // second reader goes back to reading.
        plane.post(1);
        assert!(!plane.stand_by());
        // Past it, the holder serves others and wants relief.
        assert_eq!(tick(plane.next(&mut holder)), [1]);
        plane.post(2);
        assert!(plane.stand_by(), "a reader stands by");
        assert!(!plane.stand_by(), "one standby at a time");
        assert!(matches!(plane.next(&mut holder), Step::HandOver));
        // The standby takes the token and serves what was posted.
        let mut standby = Turn::reader(true);
        assert_eq!(tick(plane.next(&mut standby)), [2]);
        assert!(matches!(plane.next(&mut standby), Step::Release));
        assert!(!plane.has_work());
    }
}
