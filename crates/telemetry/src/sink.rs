//! The handle-based emission API: a cloneable [`TelemetrySink`] hands
//! each producing thread a [`ThreadWriter`] that owns one buffer of
//! events, and a [`Collector`] drains every buffer, accounting losses
//! exactly.
//!
//! The hot path is `sink.emit(event)` (or `writer.emit(event)` with an
//! explicit handle): stamp the event with a sink-wide **epoch** (an
//! atomic counter) and push it onto the calling thread's buffer, a
//! `Mutex`-guarded queue that only its writer and a draining collector
//! lock. A full buffer drops its oldest event. The epoch lets a
//! collector merge the per-thread streams back into one causally
//! ordered trace.
//!
//! A drain swaps each buffer for the collector's empty spare, so the
//! writer waits at most for that swap. The events a drain takes are
//! copied to every other live collector of the sink, so collectors are
//! independent observers.
//!
//! A dropped writer hands its buffer back to the sink, and the next
//! thread to register takes it over, so a process holds one buffer per
//! *live* emitting thread however many threads come and go. The buffer
//! keeps its label and its count of events written across owners, so
//! loss stays exact.

use crate::{Event, Summary};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default per-thread buffer capacity in events. A buffer retains
/// this many events between collector passes; see OPERATIONS.md for
/// tuning.
pub const DEFAULT_CAPACITY: usize = 256;

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

struct SinkShared {
    id: u64,
    enabled: bool,
    capacity: usize,
    epoch: AtomicU64,
    buffers: Mutex<Buffers>,
    inboxes: Mutex<Inboxes>,
}

/// Every buffer a sink ever registered, by label, plus the ones whose
/// writer was dropped, waiting for the next registering thread.
#[derive(Default)]
struct Buffers {
    all: Vec<Arc<Buffer>>,
    idle: Vec<Arc<Buffer>>,
}

/// One emitting thread's events, oldest first.
struct Buffer {
    /// The buffer's label (its registration order in the sink).
    thread: u64,
    pending: Mutex<Pending>,
}

#[derive(Default)]
struct Pending {
    events: VecDeque<CollectedEvent>,
    /// Events ever pushed, the dropped ones included.
    written: u64,
}

/// The events other collectors' drains took, waiting for each live
/// collector's next drain, by collector id.
#[derive(Default)]
struct Inboxes {
    next_id: u64,
    by_collector: BTreeMap<u64, Vec<CollectedEvent>>,
}

impl SinkShared {
    fn buffers(&self) -> MutexGuard<'_, Buffers> {
        self.buffers.lock().expect("sink buffers poisoned")
    }

    fn inboxes(&self) -> MutexGuard<'_, Inboxes> {
        self.inboxes.lock().expect("sink inboxes poisoned")
    }
}

impl Buffer {
    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().expect("telemetry buffer poisoned")
    }
}

/// Cloneable entry point for telemetry.
///
/// Producers either call [`TelemetrySink::emit`] directly (each thread
/// is transparently given its own buffer on first use) or take an
/// explicit [`ThreadWriter`] via [`TelemetrySink::writer`] for hot
/// loops. Consumers drain everything with a [`Collector`].
///
/// ```
/// use hetmem_telemetry::{AttrFallback, Event, TelemetrySink};
/// let sink = TelemetrySink::new();
/// sink.emit(Event::AttrFallback(AttrFallback { requested: 4, used: 2 }));
/// let mut collector = sink.collector();
/// let events = collector.drain_sorted();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].event.kind(), "attr_fallback");
/// ```
#[derive(Clone)]
pub struct TelemetrySink {
    shared: Arc<SinkShared>,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("enabled", &self.shared.enabled)
            .field("capacity", &self.shared.capacity)
            .field("buffers", &self.shared.buffers().all.len())
            .finish()
    }
}

impl Default for TelemetrySink {
    fn default() -> TelemetrySink {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// An enabled sink holding [`DEFAULT_CAPACITY`] events per thread.
    pub fn new() -> TelemetrySink {
        TelemetrySink::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled sink whose per-thread buffers hold `events` events
    /// (at least one). Larger buffers tolerate slower collectors before
    /// dropping.
    pub fn with_capacity(events: usize) -> TelemetrySink {
        TelemetrySink::build(true, events)
    }

    /// A disabled sink: `enabled()` is `false` and every emission is
    /// discarded. The default for every instrumented component.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink::build(false, 1)
    }

    fn build(enabled: bool, capacity: usize) -> TelemetrySink {
        TelemetrySink {
            shared: Arc::new(SinkShared {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                enabled,
                capacity: capacity.max(1),
                epoch: AtomicU64::new(0),
                buffers: Mutex::new(Buffers::default()),
                inboxes: Mutex::new(Inboxes::default()),
            }),
        }
    }

    /// Whether events are kept. Hot paths skip building events when
    /// this is `false`.
    pub fn enabled(&self) -> bool {
        self.shared.enabled
    }

    /// Takes over a buffer a dropped writer handed back, or registers a
    /// new one, and returns its owning writer.
    ///
    /// The writer is `Send` but neither `Sync` nor `Clone`: exactly
    /// one thread produces into each buffer at a time, so its lock is
    /// contended only by a draining collector.
    pub fn writer(&self) -> ThreadWriter {
        let buffer = self.shared.enabled.then(|| {
            let mut buffers = self.shared.buffers();
            buffers.idle.pop().unwrap_or_else(|| {
                let thread = buffers.all.len() as u64;
                let buffer = Arc::new(Buffer { thread, pending: Mutex::default() });
                buffers.all.push(buffer.clone());
                buffer
            })
        });
        ThreadWriter { shared: self.shared.clone(), buffer }
    }

    /// Emits one event from the calling thread, creating that thread's
    /// writer on first use. Equivalent to holding a [`ThreadWriter`]
    /// per thread, with the routing hidden — the right call shape for
    /// components that are themselves shared across threads.
    pub fn emit(&self, event: Event) {
        if !self.shared.enabled {
            return;
        }
        TLS_WRITERS.with(|writers| {
            let mut writers = writers.borrow_mut();
            let id = self.shared.id;
            if let Some(entry) = writers.iter_mut().find(|e| e.id == id) {
                entry.writer.emit(event);
                return;
            }
            // First emission from this thread into this sink: drop
            // writers that hold the last reference to their sink (every
            // other handle to it is gone), then register a new buffer.
            writers.retain(|e| Arc::strong_count(&e.writer.shared) > 1);
            let mut entry = TlsEntry { id, writer: self.writer() };
            entry.writer.emit(event);
            writers.push(entry);
        });
    }

    /// A collector over every buffer registered so far and every buffer
    /// registered later. Collectors are independent observers: each
    /// sees every event no collector had taken before it was created
    /// (modulo dropped events).
    pub fn collector(&self) -> Collector {
        let id = {
            let mut inboxes = self.shared.inboxes();
            let id = inboxes.next_id;
            inboxes.next_id += 1;
            inboxes.by_collector.insert(id, Vec::new());
            id
        };
        Collector { shared: self.shared.clone(), id, spare: VecDeque::new(), collected: Vec::new() }
    }
}

struct TlsEntry {
    id: u64,
    writer: ThreadWriter,
}

thread_local! {
    static TLS_WRITERS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// A single thread's handle into a [`TelemetrySink`]: owns one buffer.
/// Obtain via [`TelemetrySink::writer`] and keep it on the producing
/// thread; emission never waits on other producers. Dropping it hands
/// the buffer back to the sink for the next registering thread.
pub struct ThreadWriter {
    shared: Arc<SinkShared>,
    /// `None` for writers of a disabled sink.
    buffer: Option<Arc<Buffer>>,
}

impl ThreadWriter {
    /// Whether emissions are kept (mirrors the parent sink).
    pub fn enabled(&self) -> bool {
        self.buffer.is_some()
    }

    /// The label collectors report for this writer's buffer.
    pub fn thread(&self) -> u64 {
        self.buffer.as_ref().map_or(u64::MAX, |b| b.thread)
    }

    /// Emits one event: stamps it with the next sink epoch and appends
    /// it to this thread's buffer, dropping the oldest event if the
    /// collectors have fallen behind.
    pub fn emit(&mut self, event: Event) {
        let Some(buffer) = &self.buffer else { return };
        let epoch = self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        let event = CollectedEvent { epoch, thread: buffer.thread, event };
        let mut pending = buffer.pending();
        let dropped = if pending.events.len() >= self.shared.capacity {
            pending.events.pop_front()
        } else {
            None
        };
        pending.events.push_back(event);
        pending.written += 1;
        // Free the dropped event's heap parts after unlocking.
        drop(pending);
        drop(dropped);
    }
}

impl Drop for ThreadWriter {
    fn drop(&mut self) {
        // A poisoned registry just leaves the buffer unused: a
        // destructor must not panic.
        let Some(buffer) = self.buffer.take() else { return };
        if let Ok(mut buffers) = self.shared.buffers.lock() {
            buffers.idle.push(buffer);
        }
    }
}

/// One event as drained from a sink: the payload plus its sink-wide
/// epoch stamp and the label of the thread that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedEvent {
    /// Sink-wide emission order stamp.
    pub epoch: u64,
    /// Producing buffer's label (its registration order); threads that
    /// took over a dropped writer's buffer share its label.
    pub thread: u64,
    /// The event.
    pub event: Event,
}

/// Exact per-thread loss accounting for one collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadLoss {
    /// Producing buffer's label (see [`CollectedEvent::thread`]).
    pub thread: u64,
    /// Events the buffer's producers emitted into it.
    pub written: u64,
    /// Events this collector returned.
    pub collected: u64,
    /// `written - collected`: events dropped before a collector took
    /// them, taken by another collector before this one existed, or
    /// still sitting in the buffer. Exact once the producer is
    /// quiescent and the collector has drained (a final
    /// [`Collector::drain_sorted`] after the producing threads stop).
    pub lost: u64,
}

/// Drains the per-thread buffers of one sink. Create with
/// [`TelemetrySink::collector`]; call [`Collector::drain_sorted`]
/// periodically (or once, at the end of a run) and
/// [`Collector::loss`] for the per-thread accounting.
pub struct Collector {
    shared: Arc<SinkShared>,
    /// This collector's key in the sink's inboxes.
    id: u64,
    /// The empty queue swapped in for each buffer a drain takes.
    spare: VecDeque<CollectedEvent>,
    /// Per-buffer events returned by *this* collector, by label.
    collected: Vec<u64>,
}

impl Collector {
    /// Drains every event emitted since the last drain, merged across
    /// threads in epoch order. Dropped events are skipped and show up
    /// in [`Collector::loss`] instead.
    pub fn drain_sorted(&mut self) -> Vec<CollectedEvent> {
        // Drains run one at a time, under the inboxes, so every batch a
        // drain takes reaches the other collectors before a later batch
        // of the same buffer can be taken.
        let mut inboxes = self.shared.inboxes();
        let buffers: Vec<Arc<Buffer>> = self.shared.buffers().all.clone();
        let mut out =
            inboxes.by_collector.get_mut(&self.id).map(std::mem::take).unwrap_or_default();
        let handed = out.len();
        for buffer in &buffers {
            std::mem::swap(&mut buffer.pending().events, &mut self.spare);
            out.extend(self.spare.drain(..));
        }
        // A peer that does not drain keeps at most what the buffers
        // themselves could hold.
        let bound = self.shared.capacity * buffers.len();
        for (_, inbox) in inboxes.by_collector.iter_mut().filter(|(id, _)| **id != self.id) {
            inbox.extend_from_slice(&out[handed..]);
            let excess = inbox.len().saturating_sub(bound);
            inbox.drain(..excess);
        }
        drop(inboxes);
        self.collected.resize(buffers.len(), 0);
        for e in &out {
            self.collected[e.thread as usize] += 1;
        }
        out.sort_by_key(|e| e.epoch);
        out
    }

    /// Per-thread written/collected/lost counts as of the last drain.
    /// Exact when the producers are quiescent; see [`ThreadLoss`].
    pub fn loss(&self) -> Vec<ThreadLoss> {
        self.shared
            .buffers()
            .all
            .iter()
            .map(|buffer| {
                let written = buffer.pending().written;
                let collected = self.collected.get(buffer.thread as usize).copied().unwrap_or(0);
                ThreadLoss {
                    thread: buffer.thread,
                    written,
                    collected,
                    lost: written.saturating_sub(collected),
                }
            })
            .collect()
    }

    /// Drains the remaining events and folds everything this collector
    /// has seen into a [`Summary`], including the per-thread loss
    /// counts. Call after the producers are quiescent.
    pub fn summarize(&mut self) -> (Vec<CollectedEvent>, Summary) {
        let events = self.drain_sorted();
        let mut summary = Summary::default();
        for e in &events {
            summary.add(&e.event);
        }
        summary.apply_loss(&self.loss());
        (events, summary)
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // A poisoned registry keeps the inbox: a destructor must not
        // panic.
        if let Ok(mut inboxes) = self.shared.inboxes.lock() {
            inboxes.by_collector.remove(&self.id);
        }
    }
}

/// A background thread that periodically drains a sink and hands each
/// epoch-sorted batch to a callback (typically a JSONL trace writer).
/// Dropping it (or calling [`BackgroundCollector::finish`]) stops the
/// thread, performs a final drain, and flushes the tail — so a
/// panicking main thread still gets its trace.
pub struct BackgroundCollector {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<ThreadLoss>>>,
}

impl BackgroundCollector {
    /// Spawns a collector thread over `sink`, draining every
    /// `interval` and on shutdown.
    pub fn spawn(
        sink: &TelemetrySink,
        interval: std::time::Duration,
        mut on_batch: impl FnMut(Vec<CollectedEvent>) + Send + 'static,
    ) -> BackgroundCollector {
        let stop = Arc::new(AtomicBool::new(false));
        let mut collector = sink.collector();
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                loop {
                    let batch = collector.drain_sorted();
                    if !batch.is_empty() {
                        on_batch(batch);
                    }
                    if stop.load(Ordering::SeqCst) {
                        // One more pass picks up anything raced in
                        // between the drain above and the stop flag.
                        let tail = collector.drain_sorted();
                        if !tail.is_empty() {
                            on_batch(tail);
                        }
                        return collector.loss();
                    }
                    std::thread::sleep(interval);
                }
            })
        };
        BackgroundCollector { stop, handle: Some(handle) }
    }

    /// Stops the thread, drains the tail, and returns the final
    /// per-thread loss accounting.
    pub fn finish(mut self) -> Vec<ThreadLoss> {
        self.finish_inner().unwrap_or_default()
    }

    fn finish_inner(&mut self) -> Option<Vec<ThreadLoss>> {
        let handle = self.handle.take()?;
        self.stop.store(true, Ordering::SeqCst);
        handle.join().ok()
    }
}

impl Drop for BackgroundCollector {
    fn drop(&mut self) {
        let _ = self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrFallback, OccupancyGauge};
    use hetmem_topology::NodeId;

    fn gauge(n: u32) -> Event {
        Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(n),
            used: n as u64,
            high_water: n as u64,
            total: 100,
        })
    }

    #[test]
    fn disabled_sink_discards_everything() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.enabled());
        sink.emit(gauge(1));
        let mut w = sink.writer();
        assert!(!w.enabled());
        w.emit(gauge(2));
        assert!(sink.collector().drain_sorted().is_empty());
        assert!(sink.collector().loss().is_empty());
    }

    /// A thread's cached writer for a sink whose every other handle is
    /// gone is dropped at the thread's next first emission into another
    /// sink, and the sink with its buffers goes with it.
    #[test]
    fn the_thread_cache_lets_go_of_dropped_sinks() {
        let a = TelemetrySink::new();
        a.emit(gauge(0));
        let probe = Arc::downgrade(&a.shared);
        drop(a);
        assert!(probe.upgrade().is_some(), "the thread's cached writer holds the sink");
        let b = TelemetrySink::new();
        b.emit(gauge(1));
        assert!(probe.upgrade().is_none(), "the cache still holds a sink nobody else does");
    }

    #[test]
    fn writer_and_emit_share_one_epoch_order() {
        let sink = TelemetrySink::new();
        let mut w = sink.writer();
        w.emit(gauge(0));
        sink.emit(gauge(1));
        w.emit(gauge(2));
        let events = sink.collector().drain_sorted();
        let nodes: Vec<u32> = events
            .iter()
            .map(|e| match &e.event {
                Event::OccupancyGauge(g) => g.node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        // Two buffers: the explicit writer and the emit() thread writer.
        let epochs: Vec<u64> = events.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
    }

    #[test]
    fn collectors_are_independent_observers() {
        let sink = TelemetrySink::new();
        let mut w = sink.writer();
        w.emit(gauge(0));
        let mut a = sink.collector();
        let mut b = sink.collector();
        assert_eq!(a.drain_sorted().len(), 1);
        assert_eq!(b.drain_sorted().len(), 1);
        w.emit(gauge(1));
        assert_eq!(a.drain_sorted().len(), 1);
        assert_eq!(b.drain_sorted().len(), 1);
        assert_eq!(a.loss(), b.loss());
        assert_eq!(a.loss()[0].lost, 0);
    }

    #[test]
    fn loss_is_exact_when_collector_lags() {
        // A tiny buffer and a burst far beyond it: the writer drops
        // most of the stream, and written == collected + lost exactly.
        let sink = TelemetrySink::with_capacity(8);
        let mut w = sink.writer();
        let total = 10_000u64;
        for i in 0..total {
            w.emit(gauge((i % 7) as u32));
        }
        let mut collector = sink.collector();
        let events = collector.drain_sorted();
        let loss = collector.loss();
        assert_eq!(loss.len(), 1);
        assert_eq!(loss[0].written, total);
        assert_eq!(loss[0].collected, events.len() as u64);
        assert_eq!(loss[0].written, loss[0].collected + loss[0].lost);
        assert!(loss[0].lost > 0, "an 8-event buffer cannot hold 10k events");
        // The survivors are the newest events, in epoch order.
        assert_eq!(events.last().expect("tail").epoch, total - 1);
        assert!(events.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn summarize_folds_events_and_losses() {
        let sink = TelemetrySink::with_capacity(4);
        let mut w = sink.writer();
        for _ in 0..100 {
            w.emit(Event::AttrFallback(AttrFallback { requested: 4, used: 2 }));
        }
        let mut collector = sink.collector();
        let (events, summary) = collector.summarize();
        assert!(!events.is_empty());
        assert_eq!(summary.events_lost, 100 - events.len() as u64);
        assert_eq!(summary.lost_per_thread.get(&0), Some(&summary.events_lost));
    }

    #[test]
    fn background_collector_flushes_tail_on_drop() {
        let sink = TelemetrySink::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let bg = {
            let seen = seen.clone();
            BackgroundCollector::spawn(&sink, std::time::Duration::from_millis(1), move |batch| {
                seen.lock().expect("seen").extend(batch)
            })
        };
        let mut w = sink.writer();
        for i in 0..100 {
            w.emit(gauge(i));
        }
        let loss = bg.finish();
        assert_eq!(seen.lock().expect("seen").len(), 100);
        assert_eq!(loss.iter().map(|l| l.lost).sum::<u64>(), 0);
    }

    #[test]
    fn eight_producer_threads_merge_by_epoch() {
        let sink = TelemetrySink::with_capacity(1 << 12);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let mut w = sink.writer();
                std::thread::spawn(move || {
                    for i in 0..500 {
                        w.emit(gauge(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("producer");
        }
        let mut collector = sink.collector();
        let events = collector.drain_sorted();
        assert_eq!(events.len(), 8 * 500);
        assert!(events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        // Epochs are unique across threads (one shared counter).
        let mut epochs: Vec<u64> = events.iter().map(|e| e.epoch).collect();
        epochs.dedup();
        assert_eq!(epochs.len(), 8 * 500);
        for l in collector.loss() {
            assert_eq!(l.written, l.collected + l.lost);
            assert_eq!(l.lost, 0, "4096-event buffers hold 500 gauges easily");
        }
    }

    /// The gauge nodes of `events`, in order.
    fn nodes(events: &[CollectedEvent]) -> Vec<u32> {
        events
            .iter()
            .map(|e| match &e.event {
                Event::OccupancyGauge(g) => g.node.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn threads_that_come_and_go_reuse_one_buffer() {
        // Room for all 1000 events: the one shared buffer must not drop.
        let sink = TelemetrySink::with_capacity(1 << 11);
        for i in 0..1000 {
            let sink = sink.clone();
            std::thread::spawn(move || sink.emit(gauge(i))).join().expect("emitter");
        }
        let mut collector = sink.collector();
        let events = collector.drain_sorted();
        assert_eq!(nodes(&events), (0..1000).collect::<Vec<_>>(), "each event once, in order");
        assert!(events.windows(2).all(|w| w[0].epoch < w[1].epoch));
        let loss = collector.loss();
        assert!(loss.len() <= 2, "1000 short-lived threads registered {} buffers", loss.len());
        assert_eq!(loss.iter().map(|l| l.lost).sum::<u64>(), 0);
        assert_eq!(loss.iter().map(|l| l.written).sum::<u64>(), 1000);
    }

    #[test]
    fn a_collector_reads_on_across_a_buffer_changing_owner() {
        const THREADS: u32 = 100;
        const PER_THREAD: u32 = 20;
        // Big enough that nothing is dropped, so any lost or
        // repeated event is a hand-off bug, not a lagging collector.
        let sink = TelemetrySink::with_capacity(1 << 12);
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = {
            let mut collector = sink.collector();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::SeqCst) {
                    seen.extend(collector.drain_sorted());
                    std::thread::yield_now();
                }
                seen.extend(collector.drain_sorted());
                (seen, collector.loss())
            })
        };
        for t in 0..THREADS {
            let mut writer = sink.writer();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    writer.emit(gauge(t * PER_THREAD + i));
                }
            })
            .join()
            .expect("emitter");
        }
        stop.store(true, Ordering::SeqCst);
        let (mut seen, loss) = drainer.join().expect("drainer");
        seen.sort_by_key(|e| e.epoch);
        assert_eq!(nodes(&seen), (0..THREADS * PER_THREAD).collect::<Vec<_>>());
        assert_eq!(loss.len(), 1, "every writer took over the same buffer");
        assert_eq!(loss[0].written, (THREADS * PER_THREAD) as u64);
        assert_eq!(loss[0].lost, 0);
    }
}
