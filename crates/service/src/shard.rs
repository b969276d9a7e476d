//! The serve plane's decisions: per-shard frame queues, ticks, merge
//! runs and the serve-token hand-off — with no threads and no sockets.
//!
//! [`crate::server`] runs one reader thread per connection; every
//! choice those threads make is a call into this module. The load sweep
//! and the tests step the same calls on one thread, so what they check
//! is what `hetmem-serve` runs.
//!
//! * **Queues.** A frame from connection `c` is posted on shard
//!   `c mod S`. Whoever holds a shard's serve token takes its queue in
//!   ticks ([`Plane::next`]) and serves each tick with
//!   [`Plane::serve_tick`].
//! * **Merge runs.** With `S > 1`, a run of consecutive `alloc` frames
//!   that agree on tenant, TTL, criterion, fallback, scope and
//!   initiator is admitted through one [`Broker::acquire_batch`]
//!   planning walk (`batch_coalesced` telemetry); every other `alloc`
//!   goes through [`Broker::acquire_with_ttl`]. One shard never merges,
//!   so `S = 1` is serial admission in arrival order.
//! * **Order.** A connection's frames all go to one shard, whose token
//!   one thread holds at a time, and a tick takes its whole queue: they
//!   are served in arrival order at every `S`.
//! * **Token.** A reader holding the token past its first tick has its
//!   own frames answered and wants relief; one reader may then stand by
//!   for the token, and the holder hands it over after its current
//!   tick. Both flags live in the queue, under its lock.
//!
//! Nothing is stranded: a poster and a releasing holder each re-check
//! the queue ([`Plane::has_work`]) after the token is free, and serve
//! it if they can take the token.

use crate::broker::{Broker, Lease};
use crate::tenant::TenantId;
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// What the plane needs to know about a queued frame.
pub trait Frame {
    /// The connection that sent the frame.
    fn conn(&self) -> u64;

    /// The admission an `alloc` frame asks for; `None` for any other
    /// frame, which the caller serves itself.
    fn admission(&self, broker: &Broker) -> Option<Admission>;
}

/// One admission as a merge run sees it.
#[derive(Debug, Clone)]
pub struct Admission {
    /// The tenant, or why it could not be resolved.
    pub tenant: Result<TenantId, ServiceError>,
    /// The request.
    pub req: AllocRequest,
    /// Per-request TTL override in epochs.
    pub ttl: Option<u64>,
}

impl Admission {
    /// Whether `next` may join a merge run this admission heads.
    fn merges_with(&self, next: &Admission) -> bool {
        self.tenant == next.tenant
            && self.ttl == next.ttl
            && self.req.get_criterion() == next.req.get_criterion()
            && self.req.get_fallback() == next.req.get_fallback()
            && self.req.scope() == next.req.scope()
            && self.req.get_initiator() == next.req.get_initiator()
    }
}

/// An in-process `alloc` frame, for callers that post admissions
/// without a socket (the load sweep, the tests).
#[derive(Debug, Clone)]
pub struct Ask {
    /// The connection it arrives on.
    pub conn: u64,
    /// The caller's tag, handed back with the outcome.
    pub tag: u64,
    /// The requesting tenant.
    pub tenant: TenantId,
    /// The request.
    pub req: AllocRequest,
    /// Per-request TTL override in epochs.
    pub ttl: Option<u64>,
}

impl Frame for Ask {
    fn conn(&self) -> u64 {
        self.conn
    }

    fn admission(&self, _: &Broker) -> Option<Admission> {
        Some(Admission { tenant: Ok(self.tenant), req: self.req.clone(), ttl: self.ttl })
    }
}

/// One shard's queue and the serve-token flags, kept under one lock.
struct Queue<F> {
    frames: VecDeque<F>,
    /// The token holder's own frames are answered.
    relief_wanted: bool,
    /// A reader waits for the token to relieve the holder.
    standby: bool,
}

impl<F> Default for Queue<F> {
    fn default() -> Self {
        Queue { frames: VecDeque::new(), relief_wanted: false, standby: false }
    }
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

/// One thread's turn holding a shard's serve token.
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

/// The shard queues in front of one broker.
pub struct Plane<F> {
    broker: Arc<Broker>,
    queues: Vec<Mutex<Queue<F>>>,
}

impl<F: Frame> Plane<F> {
    /// A plane of `shards` shards (`0` counts as `1`) over `broker`.
    /// Coalescing is on exactly when there is more than one shard.
    pub fn new(broker: Arc<Broker>, shards: u32) -> Plane<F> {
        let queues = (0..shards.max(1)).map(|_| Mutex::default()).collect();
        Plane { broker, queues }
    }

    /// The broker behind the plane.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    fn queue(&self, shard: usize) -> MutexGuard<'_, Queue<F>> {
        self.queues[shard].lock().expect("queue poisoned")
    }

    /// The shard connection `conn`'s frames go to: `conn mod S`.
    pub fn shard_of(&self, conn: u64) -> usize {
        (conn % self.queues.len() as u64) as usize
    }

    /// Queues `frame` on its connection's shard. The caller then serves
    /// that shard if it can take the shard's token.
    pub fn post(&self, frame: F) {
        self.queue(self.shard_of(frame.conn())).frames.push_back(frame);
    }

    /// Whether `shard` holds queued frames.
    pub fn has_work(&self, shard: usize) -> bool {
        !self.queue(shard).frames.is_empty()
    }

    /// A reader found `shard`'s token taken. Returns whether it should
    /// wait for the token as the holder's standby: the holder wants
    /// relief and no other reader stands by.
    pub fn stand_by(&self, shard: usize) -> bool {
        let mut q = self.queue(shard);
        let stand_by = q.relief_wanted && !q.standby;
        q.standby |= stand_by;
        stand_by
    }

    /// Whether a reader stands by for `shard`'s token.
    #[cfg(test)]
    pub(crate) fn standing_by(&self, shard: usize) -> bool {
        self.queue(shard).standby
    }

    /// The token holder's next move on `shard`: the next tick is the
    /// whole queue. A reader past its first tick has its own frames
    /// answered: it hands the token to a standby if one waits, and
    /// otherwise wants relief.
    pub fn next(&self, shard: usize, turn: &mut Turn) -> Step<F> {
        let mut q = self.queue(shard);
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

    /// Serves one tick's frames in arrival order on behalf of `shard`.
    /// With `S > 1` each merge run of two or more frames goes through
    /// one [`Broker::acquire_batch`] walk; every other `alloc` frame
    /// through [`Broker::acquire_with_ttl`]. `answer` receives each
    /// frame with its outcome, or with `None` for a frame that is not
    /// an `alloc`, which the caller serves itself.
    pub fn serve_tick(
        &self,
        shard: usize,
        tick: Vec<F>,
        mut answer: impl FnMut(F, Option<Result<Lease, ServiceError>>),
    ) {
        let coalesce = self.queues.len() > 1;
        let mut frames = tick
            .into_iter()
            .map(|frame| {
                let admission = frame.admission(&self.broker);
                (frame, admission)
            })
            .peekable();
        while let Some((frame, admission)) = frames.next() {
            let Some(head) = admission else {
                answer(frame, None);
                continue;
            };
            let mut run = vec![frame];
            let mut reqs = Vec::new();
            let merges = |(_, next): &(F, Option<Admission>)| {
                coalesce && next.as_ref().is_some_and(|n| head.merges_with(n))
            };
            while let Some((frame, Some(next))) = frames.next_if(merges) {
                run.push(frame);
                reqs.push(next.req);
            }
            let outcomes = match head.tenant {
                Err(e) => run.iter().map(|_| Err(e.clone())).collect(),
                Ok(tenant) if reqs.is_empty() => {
                    vec![self.broker.acquire_with_ttl(tenant, &head.req, head.ttl)]
                }
                Ok(tenant) => {
                    reqs.insert(0, head.req);
                    self.broker.acquire_batch(tenant, &reqs, head.ttl, shard as u32)
                }
            };
            for (frame, outcome) in run.into_iter().zip(outcomes) {
                answer(frame, Some(outcome));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::discovery;
    use hetmem_memsim::Machine;

    /// A bare frame from a connection.
    #[derive(Debug, PartialEq)]
    struct Bare(u64);

    impl Frame for Bare {
        fn conn(&self) -> u64 {
            self.0
        }

        fn admission(&self, _: &Broker) -> Option<Admission> {
            None
        }
    }

    #[test]
    fn a_reader_relieves_a_holder_whose_own_frames_are_answered() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Broker::new(machine, attrs, crate::ArbitrationPolicy::FairShare);
        let plane = Plane::new(Arc::new(broker), 1);
        let tick = |step: Step<Bare>| match step {
            Step::Tick(tick) => tick,
            other => panic!("expected a tick, got {other:?}"),
        };
        // A reader posts its frame and takes the token.
        plane.post(Bare(0));
        let mut holder = Turn::reader(false);
        assert_eq!(tick(plane.next(0, &mut holder)), [Bare(0)]);
        // In its first tick the holder is serving its own frame: a
        // second reader goes back to reading.
        plane.post(Bare(1));
        assert!(!plane.stand_by(0));
        // Past it, the holder serves others and wants relief.
        assert_eq!(tick(plane.next(0, &mut holder)), [Bare(1)]);
        plane.post(Bare(2));
        assert!(plane.stand_by(0), "a reader stands by");
        assert!(!plane.stand_by(0), "one standby per shard");
        assert!(matches!(plane.next(0, &mut holder), Step::HandOver));
        // The standby takes the token and serves what was posted.
        let mut standby = Turn::reader(true);
        assert_eq!(tick(plane.next(0, &mut standby)), [Bare(2)]);
        assert!(matches!(plane.next(0, &mut standby), Step::Release));
        assert!(!plane.has_work(0));
    }
}
