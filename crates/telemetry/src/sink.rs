//! The handle-based emission API: a cloneable [`TelemetrySink`] hands
//! each producing thread a [`ThreadWriter`] that owns a wait-free SPSC
//! race buffer ([`crate::ring`]), and a [`Collector`] drains every
//! ring, tolerating overwrite races and accounting losses exactly.
//!
//! The hot path is `sink.emit(event)` (or `writer.emit(event)` with an
//! explicit handle): encode the event into the compact varint form
//! ([`crate::compact`]) and append it to the calling thread's ring —
//! no lock, no syscall, no allocation beyond a reused scratch buffer.
//! Every event is stamped with a sink-wide **epoch** (an atomic
//! counter), so a collector can merge the per-thread streams back into
//! one causally ordered trace.
//!
//! A dropped writer hands its ring back to the sink, and the next
//! thread to register takes it over, so a process holds one ring per
//! *live* emitting thread however many threads come and go. The ring
//! keeps its slot, sequence numbers and counters across owners, so
//! collectors read on where they left off and loss stays exact.

use crate::compact::{decode_record, encode_record};
use crate::ring::Ring;
use crate::{Event, Summary};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Default per-thread ring capacity in 8-byte words (8 KiB). At ~4
/// words per compact event this retains roughly 250 events per thread
/// between collector passes; see OPERATIONS.md for tuning.
pub const DEFAULT_RING_WORDS: usize = 1024;

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

struct SinkShared {
    id: u64,
    enabled: bool,
    ring_words: usize,
    epoch: AtomicU64,
    rings: Mutex<Rings>,
}

/// Every ring a sink ever registered, by slot, plus the ones whose
/// writer was dropped, waiting for the next registering thread.
#[derive(Default)]
struct Rings {
    all: Vec<Arc<Ring>>,
    idle: Vec<Arc<Ring>>,
}

impl SinkShared {
    fn rings(&self) -> MutexGuard<'_, Rings> {
        self.rings.lock().expect("sink rings poisoned")
    }
}

/// Cloneable entry point for wait-free telemetry.
///
/// Producers either call [`TelemetrySink::emit`] directly (each thread
/// is transparently given its own ring on first use) or take an
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
            .field("ring_words", &self.shared.ring_words)
            .field("rings", &self.shared.rings().all.len())
            .finish()
    }
}

impl Default for TelemetrySink {
    fn default() -> TelemetrySink {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// An enabled sink with [`DEFAULT_RING_WORDS`] cells per thread.
    pub fn new() -> TelemetrySink {
        TelemetrySink::with_ring_words(DEFAULT_RING_WORDS)
    }

    /// An enabled sink whose per-thread rings hold `words` 8-byte
    /// cells (rounded up to a power of two). Larger rings tolerate
    /// slower collectors before overwriting.
    pub fn with_ring_words(words: usize) -> TelemetrySink {
        TelemetrySink::build(true, words)
    }

    /// A disabled sink: `enabled()` is `false` and every emission is
    /// discarded before encoding. The default for every instrumented
    /// component.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink::build(false, 8)
    }

    fn build(enabled: bool, words: usize) -> TelemetrySink {
        TelemetrySink {
            shared: Arc::new(SinkShared {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                enabled,
                ring_words: words,
                epoch: AtomicU64::new(0),
                rings: Mutex::new(Rings::default()),
            }),
        }
    }

    /// Whether events are kept. Hot paths skip building events when
    /// this is `false`.
    pub fn enabled(&self) -> bool {
        self.shared.enabled
    }

    /// Takes over a ring a dropped writer handed back, or registers a
    /// new one, and returns its owning writer.
    ///
    /// The writer is `Send` but neither `Sync` nor `Clone`: exactly
    /// one thread produces into each ring at a time, which is what
    /// makes the fast path wait-free.
    pub fn writer(&self) -> ThreadWriter {
        let ring = self.shared.enabled.then(|| {
            let mut rings = self.shared.rings();
            rings.idle.pop().unwrap_or_else(|| {
                let ring = Arc::new(Ring::new(self.shared.ring_words, rings.all.len() as u64));
                rings.all.push(ring.clone());
                ring
            })
        });
        ThreadWriter { shared: self.shared.clone(), ring, scratch: Vec::new() }
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
            // writers whose sinks are gone, then register a new ring.
            writers.retain(|e| e.probe.strong_count() > 0);
            let mut entry =
                TlsEntry { id, probe: Arc::downgrade(&self.shared), writer: self.writer() };
            entry.writer.emit(event);
            writers.push(entry);
        });
    }

    /// A collector over every ring registered so far and every ring
    /// registered later. Collectors are independent observers: each
    /// sees the full stream (modulo overwritten entries).
    pub fn collector(&self) -> Collector {
        Collector { shared: self.shared.clone(), read: Vec::new(), decoded: Vec::new(), corrupt: 0 }
    }
}

struct TlsEntry {
    id: u64,
    probe: Weak<SinkShared>,
    writer: ThreadWriter,
}

thread_local! {
    static TLS_WRITERS: RefCell<Vec<TlsEntry>> = const { RefCell::new(Vec::new()) };
}

/// A single thread's handle into a [`TelemetrySink`]: owns one SPSC
/// race buffer. Obtain via [`TelemetrySink::writer`] and keep it on
/// the producing thread; emission is wait-free and never blocks on
/// collectors or other producers. Dropping it hands the ring back to
/// the sink for the next registering thread.
pub struct ThreadWriter {
    shared: Arc<SinkShared>,
    /// `None` for writers of a disabled sink.
    ring: Option<Arc<Ring>>,
    scratch: Vec<u8>,
}

impl ThreadWriter {
    /// Whether emissions are kept (mirrors the parent sink).
    pub fn enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// The label collectors report for this writer's ring.
    pub fn thread(&self) -> u64 {
        self.ring.as_ref().map_or(u64::MAX, |r| r.thread())
    }

    /// Emits one event: stamps it with the next sink epoch, encodes it
    /// compactly, and appends it to this thread's ring, overwriting
    /// the oldest entries if the collector has fallen behind.
    pub fn emit(&mut self, event: Event) {
        let Some(ring) = &self.ring else { return };
        let epoch = self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        self.scratch.clear();
        encode_record(epoch, &event, &mut self.scratch);
        ring.push(&self.scratch);
    }
}

impl Drop for ThreadWriter {
    fn drop(&mut self) {
        // The sink's mutex orders this owner's last push before the
        // next owner's first. A poisoned registry just leaves the ring
        // unused: a destructor must not panic.
        let Some(ring) = self.ring.take() else { return };
        if let Ok(mut rings) = self.shared.rings.lock() {
            rings.idle.push(ring);
        }
    }
}

/// One event as drained from a sink: the payload plus its sink-wide
/// epoch stamp and the label of the thread that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedEvent {
    /// Sink-wide emission order stamp.
    pub epoch: u64,
    /// Producing ring's label (its registration order); threads that
    /// took over a dropped writer's ring share its label.
    pub thread: u64,
    /// The event.
    pub event: Event,
}

/// Exact per-thread loss accounting for one collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadLoss {
    /// Producing ring's label (see [`CollectedEvent::thread`]).
    pub thread: u64,
    /// Entries the ring's producers published into it.
    pub written: u64,
    /// Entries this collector decoded.
    pub collected: u64,
    /// `written - collected`: entries overwritten before this
    /// collector reached them, plus any still sitting unread in the
    /// ring. Exact once the producer is quiescent and the collector
    /// has drained (a final [`Collector::drain_sorted`] after the
    /// producing threads stop).
    pub lost: u64,
}

/// Drains the per-thread rings of one sink. Create with
/// [`TelemetrySink::collector`]; call [`Collector::drain_sorted`]
/// periodically (or once, at the end of a run) and
/// [`Collector::loss`] for the per-thread accounting.
pub struct Collector {
    shared: Arc<SinkShared>,
    /// Per-ring next read sequence number, parallel to the sink's
    /// ring registry.
    read: Vec<u64>,
    /// Per-ring entries decoded by *this* collector.
    decoded: Vec<u64>,
    corrupt: u64,
}

impl Collector {
    /// Drains every decodable event currently published, merged across
    /// threads in epoch order. Overwritten entries are skipped and
    /// show up in [`Collector::loss`] instead.
    pub fn drain_sorted(&mut self) -> Vec<CollectedEvent> {
        let rings: Vec<Arc<Ring>> = self.shared.rings().all.clone();
        self.read.resize(rings.len(), 0);
        self.decoded.resize(rings.len(), 0);
        let mut out = Vec::new();
        for (i, ring) in rings.iter().enumerate() {
            let thread = ring.thread();
            let mut corrupt = 0u64;
            let (next, decoded) =
                ring.read_from(self.read[i], |payload| match decode_record(payload) {
                    Ok((epoch, event)) => out.push(CollectedEvent { epoch, thread, event }),
                    Err(_) => corrupt += 1,
                });
            self.read[i] = next;
            self.decoded[i] += decoded - corrupt;
            self.corrupt += corrupt;
        }
        out.sort_by_key(|e| e.epoch);
        out
    }

    /// Per-thread written/collected/lost counts as of the last drain.
    /// Exact when the producers are quiescent; see [`ThreadLoss`].
    pub fn loss(&self) -> Vec<ThreadLoss> {
        let rings: Vec<Arc<Ring>> = self.shared.rings().all.clone();
        rings
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                let written = ring.written() + ring.oversize();
                let collected = self.decoded.get(i).copied().unwrap_or(0);
                ThreadLoss {
                    thread: ring.thread(),
                    written,
                    collected,
                    lost: written.saturating_sub(collected),
                }
            })
            .collect()
    }

    /// Events whose compact payload failed to decode — zero under the
    /// protocol; a nonzero count means a codec bug, not a race.
    pub fn corrupt(&self) -> u64 {
        self.corrupt
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
        // Two rings: the explicit writer and the emit() thread writer.
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
        // A tiny ring and a burst far beyond it: the writer overwrites
        // most of the stream, and written == collected + lost exactly.
        let sink = TelemetrySink::with_ring_words(32);
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
        assert!(loss[0].lost > 0, "a 32-word ring cannot hold 10k events");
        assert_eq!(collector.corrupt(), 0);
        // The survivors are the newest events, in epoch order.
        assert_eq!(events.last().expect("tail").epoch, total - 1);
        assert!(events.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn summarize_folds_events_and_losses() {
        let sink = TelemetrySink::with_ring_words(16);
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
        let sink = TelemetrySink::with_ring_words(1 << 14);
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
            assert_eq!(l.lost, 0, "16k-word rings hold 500 gauges easily");
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
    fn threads_that_come_and_go_reuse_one_ring() {
        // Room for all 1000 events: the one shared ring must not wrap.
        let sink = TelemetrySink::with_ring_words(1 << 13);
        for i in 0..1000 {
            let sink = sink.clone();
            std::thread::spawn(move || sink.emit(gauge(i))).join().expect("emitter");
        }
        let mut collector = sink.collector();
        let events = collector.drain_sorted();
        assert_eq!(nodes(&events), (0..1000).collect::<Vec<_>>(), "each event once, in order");
        assert!(events.windows(2).all(|w| w[0].epoch < w[1].epoch));
        let loss = collector.loss();
        assert!(loss.len() <= 2, "1000 short-lived threads registered {} rings", loss.len());
        assert_eq!(loss.iter().map(|l| l.lost).sum::<u64>(), 0);
        assert_eq!(loss.iter().map(|l| l.written).sum::<u64>(), 1000);
    }

    #[test]
    fn a_collector_reads_on_across_a_ring_changing_owner() {
        const THREADS: u32 = 100;
        const PER_THREAD: u32 = 20;
        // Big enough that nothing is overwritten, so any lost or
        // repeated event is a hand-off bug, not a lagging collector.
        let sink = TelemetrySink::with_ring_words(1 << 14);
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
        assert_eq!(loss.len(), 1, "every writer took over the same ring");
        assert_eq!(loss[0].written, (THREADS * PER_THREAD) as u64);
        assert_eq!(loss[0].lost, 0);
    }
}
