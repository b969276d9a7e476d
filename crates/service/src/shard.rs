//! The serve plane's decisions: per-shard frame queues, ticks, merge
//! runs, work stealing and the serve-token hand-off — with no threads
//! and no sockets.
//!
//! [`crate::server`] runs one reader thread per connection and, with
//! `S > 1` shards, one steal thread per shard; every choice those
//! threads make is a call into this module. The load sweep and the
//! tests step the same calls on one thread, so what they check is what
//! `hetmem-serve` runs.
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
//! * **Stealing.** An idle shard takes whole connections off the
//!   sibling with the most stealable frames ([`Plane::steal`],
//!   `shard_steal` telemetry) and hands them back when served.
//! * **Order.** A connection's frames are served in arrival order, by
//!   at most one thread at a time, at every `S`. Each queue records
//!   the connections in service: those in its current tick and those a
//!   thief holds. A steal takes every queued frame of the connections
//!   it picks and skips connections in service; a tick leaves queued
//!   the frames of a connection a thief holds.
//! * **Token.** A token holder whose own frames are answered — a
//!   reader past its first tick, or a thief re-checking its victim —
//!   wants relief; one reader may then stand by for the token, and the
//!   holder hands it over after its current tick. Both flags live in
//!   the queue, under its lock.
//!
//! Nothing is stranded: a poster, a releasing holder and a thief
//! handing connections back each re-check the queue
//! ([`Plane::has_work`]) after the token is free, and serve it if they
//! can take the token.

use crate::broker::{Broker, Lease};
use crate::tenant::TenantId;
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use hetmem_telemetry::{Event, ShardSteal};
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// Connections with frames in the tick being served.
    ticking: HashSet<u64>,
    /// Connections a thief holds.
    lent: HashSet<u64>,
    /// The token holder's own frames are answered.
    relief_wanted: bool,
    /// A reader waits for the token to relieve the holder.
    standby: bool,
}

impl<F> Default for Queue<F> {
    fn default() -> Self {
        Queue {
            frames: VecDeque::new(),
            ticking: HashSet::new(),
            lent: HashSet::new(),
            relief_wanted: false,
            standby: false,
        }
    }
}

impl<F: Frame> Queue<F> {
    /// Whether a tick could take a frame now: one of a connection no
    /// thief holds.
    fn servable(&self) -> bool {
        self.frames.iter().any(|f| !self.lent.contains(&f.conn()))
    }

    fn in_service(&self, conn: u64) -> bool {
        self.ticking.contains(&conn) || self.lent.contains(&conn)
    }

    /// Frames a steal could take now: those of connections not in
    /// service.
    fn stealable(&self) -> usize {
        self.frames.iter().filter(|f| !self.in_service(f.conn())).count()
    }

    /// Takes the next tick: every queued frame of a connection no thief
    /// holds, in arrival order. Their connections are in service until
    /// the next call.
    fn take_tick(&mut self) -> Vec<F> {
        self.ticking.clear();
        let tick: Vec<F> = if self.lent.is_empty() {
            self.frames.drain(..).collect()
        } else {
            let (tick, kept): (VecDeque<F>, _) =
                self.frames.drain(..).partition(|f| !self.lent.contains(&f.conn()));
            self.frames = kept;
            tick.into()
        };
        self.ticking.extend(tick.iter().map(F::conn));
        tick
    }

    /// Lends whole connections to a thief (see [`Plane::steal`]):
    /// every queued frame of the picked connections, in arrival order,
    /// and the connections, lent until [`Queue::hand_back`].
    fn lend(&mut self) -> (Vec<F>, Vec<u64>) {
        let mut queued: HashMap<u64, usize> = HashMap::new();
        for frame in self.frames.iter().filter(|f| !self.in_service(f.conn())) {
            *queued.entry(frame.conn()).or_default() += 1;
        }
        let stealable: usize = queued.values().sum();
        let mut conns = Vec::new();
        if stealable < 2 {
            return (Vec::new(), conns);
        }
        let mut taken = 0;
        for frame in self.frames.iter().rev() {
            if 2 * taken >= stealable {
                break;
            }
            if let Some(n) = queued.remove(&frame.conn()) {
                conns.push(frame.conn());
                taken += n;
            }
        }
        let picked: HashSet<u64> = conns.iter().copied().collect();
        let (stolen, kept): (VecDeque<F>, _) =
            self.frames.drain(..).partition(|f| picked.contains(&f.conn()));
        self.frames = kept;
        self.lent.extend(picked);
        (stolen.into(), conns)
    }

    /// Returns lent connections; their queued frames become servable.
    fn hand_back(&mut self, conns: &[u64]) {
        for conn in conns {
            self.lent.remove(conn);
        }
    }
}

/// A token holder's next move, from [`Plane::next`].
#[derive(Debug)]
pub enum Step<F> {
    /// Serve these frames as one tick.
    Tick(Vec<F>),
    /// Drop the token and return: a standby reader takes it over.
    HandOver,
    /// Drop the token, then re-check the queue: nothing is servable.
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

    /// A turn by a thief re-checking its victim: it has no frame of its
    /// own there, so it wants relief from its first step.
    pub fn thief() -> Turn {
        Turn { answered: true, standby: false }
    }
}

/// A thief's loan: connections taken off a victim shard.
#[derive(Debug)]
pub struct Loan<F> {
    /// The shard the connections belong to.
    pub victim: usize,
    /// Their queued frames, in arrival order.
    pub frames: Vec<F>,
    /// The lent connections, for [`Plane::hand_back`].
    pub conns: Vec<u64>,
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

    /// Whether `shard` holds frames a tick could take now.
    pub fn has_work(&self, shard: usize) -> bool {
        self.queue(shard).servable()
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

    /// The token holder's next move on `shard`. Ends the tick served
    /// last. A holder whose own frames are answered — a reader past its
    /// first tick, or a thief — hands the token to a standby if one
    /// waits, and otherwise wants relief.
    pub fn next(&self, shard: usize, turn: &mut Turn) -> Step<F> {
        let mut q = self.queue(shard);
        if std::mem::take(&mut turn.standby) {
            q.standby = false;
        }
        if turn.answered {
            if q.standby {
                q.ticking.clear();
                q.relief_wanted = false;
                return Step::HandOver;
            }
            q.relief_wanted = true;
        }
        let tick = q.take_tick();
        if tick.is_empty() {
            q.relief_wanted = false;
            return Step::Release;
        }
        turn.answered = true;
        Step::Tick(tick)
    }

    /// The steal choice for an idle `thief`: the sibling with the most
    /// stealable frames — those of connections not in service — lends
    /// whole connections, at least two frames' worth (the lowest index
    /// wins a tie). Walking back from that queue's tail, it picks
    /// connections not in service until they cover half its stealable
    /// frames, and lends every queued frame of each. Emits one
    /// `shard_steal` event per loan.
    pub fn steal(&self, thief: usize) -> Option<Loan<F>> {
        let mut best: Option<(usize, usize)> = None;
        for shard in (0..self.queues.len()).filter(|&s| s != thief) {
            let len = self.queue(shard).stealable();
            if len >= 2 && best.is_none_or(|(most, _)| len > most) {
                best = Some((len, shard));
            }
        }
        let (_, victim) = best?;
        let (frames, conns) = self.queue(victim).lend();
        if frames.is_empty() {
            // The victim's frames went into service since the scan.
            return None;
        }
        let sink = self.broker.sink_handle();
        if sink.enabled() {
            sink.emit(Event::ShardSteal(ShardSteal {
                broker: self.broker.id(),
                thief: thief as u32,
                victim: victim as u32,
                stolen: frames.len() as u64,
            }));
        }
        Some(Loan { victim, frames, conns })
    }

    /// Hands a loan's connections back to their shard. The thief then
    /// re-checks that shard the way a poster does.
    pub fn hand_back(&self, victim: usize, conns: &[u64]) {
        self.queue(victim).hand_back(conns);
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

    /// A bare frame: its connection and its place in the stream.
    #[derive(Debug, PartialEq)]
    struct Bare(u64, u32);

    impl Frame for Bare {
        fn conn(&self) -> u64 {
            self.0
        }

        fn admission(&self, _: &Broker) -> Option<Admission> {
            None
        }
    }

    /// Posts `conns` round-robin, `per_conn` frames each.
    fn queue(conns: &[u64], per_conn: u32) -> Queue<Bare> {
        let mut q = Queue::default();
        for seq in 0..per_conn {
            for &conn in conns {
                q.frames.push_back(Bare(conn, seq));
            }
        }
        q
    }

    #[test]
    fn a_steal_never_splits_a_connection() {
        let mut q = queue(&[1, 2, 3, 4, 5], 3);
        let (stolen, conns) = q.lend();
        assert!(!conns.is_empty());
        assert!(2 * stolen.len() >= 15, "half the stealable frames move: {}", stolen.len());
        for conn in &conns {
            let seqs: Vec<u32> = stolen.iter().filter(|f| f.0 == *conn).map(|f| f.1).collect();
            assert_eq!(seqs, [0, 1, 2], "connection {conn} moved whole and in order");
            assert!(q.frames.iter().all(|f| f.0 != *conn), "connection {conn} left frames");
        }
        // The victim's tick leaves a lent connection's later frames
        // queued until the thief hands it back.
        q.frames.push_back(Bare(conns[0], 3));
        assert!(q.take_tick().iter().all(|f| !conns.contains(&f.0)));
        assert_eq!(q.frames.iter().collect::<Vec<_>>(), [&Bare(conns[0], 3)]);
        assert!(!q.servable());
        q.hand_back(&conns);
        assert!(q.servable());
    }

    #[test]
    fn a_steal_never_takes_a_connection_in_service() {
        let mut q = queue(&[1, 2], 2);
        // Connections 1 and 2 are in the current tick; 2 pipelines
        // again and 3 arrives.
        assert_eq!(q.take_tick().len(), 4);
        q.frames.extend([Bare(2, 2), Bare(3, 0), Bare(2, 3), Bare(3, 1)]);
        assert_eq!(q.stealable(), 2);
        let (stolen, conns) = q.lend();
        assert_eq!(conns, [3]);
        assert_eq!(stolen, [Bare(3, 0), Bare(3, 1)]);
        // Connection 3 is now lent: a second thief finds nothing.
        q.frames.push_back(Bare(3, 2));
        assert_eq!(q.stealable(), 0);
        assert!(q.lend().0.is_empty());
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
        plane.post(Bare(0, 0));
        let mut holder = Turn::reader(false);
        assert_eq!(tick(plane.next(0, &mut holder)), [Bare(0, 0)]);
        // In its first tick the holder is serving its own frame: a
        // second reader goes back to reading.
        plane.post(Bare(1, 0));
        assert!(!plane.stand_by(0));
        // Past it, the holder serves others and wants relief.
        assert_eq!(tick(plane.next(0, &mut holder)), [Bare(1, 0)]);
        plane.post(Bare(2, 0));
        assert!(plane.stand_by(0), "a reader stands by");
        assert!(!plane.stand_by(0), "one standby per shard");
        assert!(matches!(plane.next(0, &mut holder), Step::HandOver));
        // The standby takes the token and serves what was posted.
        let mut standby = Turn::reader(true);
        assert_eq!(tick(plane.next(0, &mut standby)), [Bare(2, 0)]);
        assert!(matches!(plane.next(0, &mut standby), Step::Release));
        assert!(!plane.has_work(0));
        // A thief re-checking its victim has no frame of its own there:
        // a reader may stand by during its first tick.
        plane.post(Bare(3, 0));
        let mut thief = Turn::thief();
        assert_eq!(tick(plane.next(0, &mut thief)), [Bare(3, 0)]);
        plane.post(Bare(4, 0));
        assert!(plane.stand_by(0), "a reader stands by a thief");
        assert!(matches!(plane.next(0, &mut thief), Step::HandOver));
        let mut standby = Turn::reader(true);
        assert_eq!(tick(plane.next(0, &mut standby)), [Bare(4, 0)]);
        assert!(matches!(plane.next(0, &mut standby), Step::Release));
    }
}
