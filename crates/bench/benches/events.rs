//! Telemetry emission throughput: the retired mutex recorder path
//! against the wait-free `TelemetrySink`/`ThreadWriter` rings, at 1
//! and 8 producer threads.
//!
//! Emission must stay off the application's critical path, so the
//! number that matters is events/sec *at the emission call site*. The
//! mutex contender replicates what traced producers paid before the
//! redesign: a shared `Arc<JsonlWriter>` rendering every event to JSON
//! and appending it to a locked buffered file. The wait-free path is
//! what they pay now: a varint encode into the thread's own SPSC ring,
//! with a background collector doing the JSONL rendering off the hot
//! path (overwrite-tolerant, losses counted exactly). Results are
//! printed and persisted to `BENCH_telemetry.json`, a wall-clock area
//! that CI does not regenerate.

use hetmem_bench::perf::{self, BenchRecord};
use hetmem_telemetry::{BackgroundCollector, Event, JsonlWriter, OccupancyGauge, TelemetrySink};
use hetmem_topology::NodeId;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EVENTS_PER_THREAD: u64 = 100_000;
const RING_WORDS: usize = 1024;

fn sample_event(i: u64) -> Event {
    Event::OccupancyGauge(OccupancyGauge {
        node: NodeId((i % 8) as u32),
        used: i << 12,
        high_water: i << 12,
        total: 1 << 40,
    })
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetmem-events-bench-{}-{tag}.jsonl", std::process::id()))
}

/// Spawns `threads` producers, each running `EVENTS_PER_THREAD`
/// emissions of the closure built by `emitter`, and returns the
/// aggregate events/sec over the wall time from first spawn to last
/// join.
fn run_threads<E, F>(threads: u64, emitter: E) -> f64
where
    E: Fn(u64) -> F,
    F: FnMut(u64) + Send + 'static,
{
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut emit = emitter(t);
            std::thread::spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    emit(t * EVENTS_PER_THREAD + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread");
    }
    (threads * EVENTS_PER_THREAD) as f64 / start.elapsed().as_secs_f64()
}

/// The pre-redesign traced hot path: every producer renders JSON and
/// appends to one mutex-guarded buffered writer.
fn mutex_events_per_sec(threads: u64) -> f64 {
    let path = scratch_path("mutex");
    let writer = Arc::new(JsonlWriter::create(&path).expect("scratch trace file"));
    let rate = run_threads(threads, |_| {
        let writer = writer.clone();
        move |i| writer.write_event(&sample_event(i))
    });
    drop(writer);
    let _ = std::fs::remove_file(&path);
    rate
}

/// The redesigned hot path: each producer owns a `ThreadWriter` over
/// its SPSC ring; a background collector drains the rings into the
/// same JSONL form concurrently, off the emission path.
fn waitfree_events_per_sec(threads: u64) -> f64 {
    let path = scratch_path("waitfree");
    let writer = Arc::new(JsonlWriter::create(&path).expect("scratch trace file"));
    let sink = TelemetrySink::with_ring_words(RING_WORDS);
    let drain = writer.clone();
    let collector = BackgroundCollector::spawn(&sink, Duration::from_millis(1), move |batch| {
        for e in &batch {
            drain.write_event(&e.event);
        }
    });
    let rate = run_threads(threads, |_| {
        let mut w = sink.writer();
        move |i| w.emit(sample_event(i))
    });
    drop(collector);
    drop(writer);
    let _ = std::fs::remove_file(&path);
    rate
}

fn main() {
    println!("== Telemetry emission throughput (events/sec, higher is better) ==");
    println!("{:<10} {:>16} {:>16} {:>9}", "threads", "mutex+jsonl", "wait-free", "speedup");
    let mut records = Vec::new();
    let mut speedup_8 = 0.0;
    for threads in [1u64, 8] {
        // Warm up both paths once so thread spawn and first-touch
        // costs do not land inside a timed run.
        mutex_events_per_sec(threads);
        waitfree_events_per_sec(threads);
        let mutex = mutex_events_per_sec(threads);
        let waitfree = waitfree_events_per_sec(threads);
        let speedup = waitfree / mutex;
        if threads == 8 {
            speedup_8 = speedup;
        }
        println!("{threads:<10} {mutex:>16.0} {waitfree:>16.0} {speedup:>8.1}x");
        records.push(BenchRecord::new(
            "events",
            format!("events_per_sec_{threads}thread_mutex"),
            mutex,
            "events/s",
            0,
        ));
        records.push(BenchRecord::new(
            "events",
            format!("events_per_sec_{threads}thread_waitfree"),
            waitfree,
            "events/s",
            0,
        ));
    }
    records.push(BenchRecord::new("events", "speedup_8thread", speedup_8, "x", 0));
    match perf::emit("telemetry", &records) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("events bench: cannot write BENCH_telemetry.json: {e}");
            std::process::exit(1);
        }
    }
}
