//! Convergence properties of the online guidance subsystem.
//!
//! The sampling period is the central accuracy/overhead trade-off (see
//! PAPERS.md, Nonell et al. on PEBS-based tracking): shorter periods
//! give the `HotnessMap` more evidence per byte of traffic, so
//!
//! * hot-set accuracy on a steady workload is non-decreasing as the
//!   period shrinks;
//! * on the two-era tiering workload, the bandwidth gap between
//!   guidance and a perfect-information migration shrinks
//!   monotonically as the period shrinks;
//! * hysteresis plus the byte-window EWMA keep an alternating-hot
//!   workload from ping-ponging buffers between tiers;
//! * the whole loop is deterministic: two identical guided runs write
//!   byte-identical JSONL traces.

use hetmem::core::discovery;
use hetmem::guidance::{
    hot_set_accuracy, GuidanceEngine, GuidancePolicy, HotnessMap, Sampler, SamplerConfig,
};
use hetmem::memsim::{
    AccessEngine, AccessPattern, AllocPolicy, BufferAccess, Machine, MemoryManager, Phase, RegionId,
};
use hetmem::{Bitmap, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

const GIB: u64 = 1 << 30;
/// MCDRAM on knl_snc4_flat; node 0 is the matching DRAM.
const HBM: NodeId = NodeId(4);

fn knl() -> (Arc<hetmem::core::MemAttrs>, AccessEngine, MemoryManager) {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
    let engine = AccessEngine::new(machine.clone());
    let mm = MemoryManager::new(machine);
    (attrs, engine, mm)
}

fn read_phase(name: &str, reads: &[(RegionId, u64)]) -> Phase {
    Phase {
        name: name.into(),
        accesses: reads
            .iter()
            .map(|&(r, bytes)| BufferAccess::new(r, bytes, 0, AccessPattern::Sequential))
            .collect(),
        threads: 16,
        initiator: "0-15".parse::<Bitmap>().expect("cpuset"),
        compute_ns: 0.0,
    }
}

/// Steady skewed workload, hotness estimated from samples alone: the
/// mean hot-set accuracy must not degrade as the period shrinks, and
/// the finest period must classify (essentially) perfectly.
#[test]
fn hot_set_accuracy_non_decreasing_as_period_shrinks() {
    let (_, engine, mut mm) = knl();
    let a = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).expect("a");
    let b = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).expect("b");
    let c = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).expect("c");
    // Shares 0.60 / 0.28 / 0.12 with the hot cut at 0.25: `b` sits
    // close to the threshold, so sampling error shows up as
    // misclassification at coarse periods.
    let phase = read_phase(
        "steady",
        &[(a, 6 * GIB), (b, 2 * GIB + 800 * (1 << 20)), (c, GIB + 200 * (1 << 20))],
    );
    let report = engine.run_phase(&mm, &phase);
    let truth: BTreeMap<RegionId, f64> = [(a, 0.60), (b, 0.28), (c, 0.12)].into_iter().collect();

    let mut prev = -1.0;
    let mut last = 0.0;
    for period in [1 << 21, 1 << 19, 1 << 17, 1 << 15] {
        let mut sampler = Sampler::new(SamplerConfig { period, ..Default::default() });
        let mut map = HotnessMap::new(4 * GIB);
        let mut sum = 0.0;
        const INTERVALS: usize = 32;
        for _ in 0..INTERVALS {
            map.observe(&sampler.sample(&report));
            sum += hot_set_accuracy(&map, &truth, 0.25);
        }
        let mean = sum / INTERVALS as f64;
        assert!(mean >= prev - 1e-12, "period {period}: accuracy {mean} < coarser {prev}");
        prev = mean;
        last = mean;
    }
    assert!(last > 0.99, "finest period should classify cleanly, got {last}");
}

/// The two-era workload behind `scenarios/tiering.txt` /
/// `scenarios/guidance.txt`: `a` is hot first, then the working set
/// switches to `b`. A perfect-information run migrates exactly at the
/// era boundary; guidance has to *detect* the switch from samples, so
/// it lags — but the lag (the bandwidth gap) must shrink monotonically
/// as the sampling period shrinks, and every guided run must beat the
/// static placement.
#[test]
fn gap_to_perfect_tiering_shrinks_as_period_shrinks() {
    const ERA1: usize = 3;
    const ERA2: usize = 9;
    const PHASE_BYTES: u64 = 16 * GIB;

    let setup = |mm: &mut MemoryManager| {
        let a = mm.alloc(2 * GIB, AllocPolicy::Bind(HBM)).expect("a in MCDRAM");
        let b = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).expect("b in DRAM");
        (a, b)
    };
    let phases = |a: RegionId, b: RegionId| {
        let mut v = Vec::new();
        for i in 0..ERA1 {
            v.push(read_phase(&format!("era1.{i}"), &[(a, PHASE_BYTES)]));
        }
        for i in 0..ERA2 {
            v.push(read_phase(&format!("era2.{i}"), &[(b, PHASE_BYTES)]));
        }
        v
    };

    // Static placement: never moves anything.
    let static_ns = {
        let (_, engine, mut mm) = knl();
        let (a, b) = setup(&mut mm);
        phases(a, b).iter().map(|p| engine.run_phase(&mm, p).time_ns).sum::<f64>()
    };

    // Perfect information: swap the buffers exactly at the era
    // boundary, charging the migration cost.
    let perfect_ns = {
        let (_, engine, mut mm) = knl();
        let (a, b) = setup(&mut mm);
        let mut total = 0.0;
        for (i, phase) in phases(a, b).iter().enumerate() {
            if i == ERA1 {
                total += mm.migrate(a, NodeId(0)).expect("demote a").cost_ns;
                total += mm.migrate(b, HBM).expect("promote b").cost_ns;
            }
            total += engine.run_phase(&mm, phase).time_ns;
        }
        total
    };

    let mut prev_gap = f64::INFINITY;
    for period in [262_144, 65_536, 16_384] {
        let (attrs, engine, mut mm) = knl();
        let (a, b) = setup(&mut mm);
        let mut g = GuidanceEngine::new(
            attrs,
            GuidancePolicy::default(),
            SamplerConfig { period, ..Default::default() },
        );
        let mut total = 0.0;
        for phase in &phases(a, b) {
            total += g.run_phase(&engine, &mut mm, phase).time_ns();
        }
        assert!(
            total < static_ns,
            "period {period}: guided {total} ns should beat static {static_ns} ns"
        );
        let gap = total - perfect_ns;
        assert!(gap > 0.0, "guidance cannot beat perfect information");
        assert!(
            gap < prev_gap,
            "period {period}: gap {gap} ns did not shrink (coarser gap {prev_gap} ns)"
        );
        prev_gap = gap;
        // The working set did switch: guidance must have both promoted
        // `b` and demoted `a`.
        assert!(g.stats().promotions >= 1, "period {period}: no promotion");
        assert!(g.stats().demotions >= 1, "period {period}: no demotion");
    }
}

/// Alternating-hot workload: `a` and `b` take turns being 100% of the
/// traffic every phase. The byte-window EWMA never lets the idle
/// buffer's share decay below the cold threshold within one phase, and
/// hysteresis blocks back-to-back moves — so the engine must not
/// ping-pong the buffers between tiers.
#[test]
fn hysteresis_prevents_ping_pong_on_alternating_workload() {
    let (attrs, engine, mut mm) = knl();
    let a = mm.alloc(2 * GIB, AllocPolicy::Bind(HBM)).expect("a");
    let b = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).expect("b");
    let mut g = GuidanceEngine::new(attrs, GuidancePolicy::default(), SamplerConfig::default());
    for i in 0..8 {
        let hot = if i % 2 == 0 { a } else { b };
        g.run_phase(&engine, &mut mm, &read_phase(&format!("alt.{i}"), &[(hot, 16 * GIB)]));
    }
    let moves = g.stats().promotions + g.stats().demotions;
    assert!(moves <= 2, "alternating workload caused {moves} migrations (ping-pong)");
    // `a` must still hold its MCDRAM placement.
    let placed = mm.region(a).expect("a lives").bytes_on(HBM);
    assert_eq!(placed, 2 * GIB, "a was evicted by the alternating workload");
}

/// Two identical guided runs of `scenarios/guidance.txt` write
/// byte-identical JSONL traces: all sampling noise comes from a
/// fixed-seed generator, never from wall clock or map iteration order.
#[test]
fn guided_trace_runs_are_byte_identical() {
    use hetmem::scenario::{execute_with_options, parse, ExecOptions};
    use hetmem::telemetry::{JsonlWriter, TelemetrySink};

    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/guidance.txt"))
            .expect("scenario file");
    let scenario = parse(&text).expect("parses");

    let run = |tag: &str| {
        let path = std::env::temp_dir()
            .join(format!("hetmem-guidance-determinism-{}-{tag}.jsonl", std::process::id()));
        let writer = Arc::new(JsonlWriter::create(&path).expect("trace file"));
        let sink = TelemetrySink::with_capacity(1 << 14);
        execute_with_options(&scenario, sink.clone(), ExecOptions::default())
            .map(|_| ())
            .expect("executes");
        let mut collector = sink.collector();
        for e in collector.drain_sorted() {
            writer.write_event(&e.event);
        }
        assert!(collector.loss().iter().all(|l| l.lost == 0), "trace must be complete");
        writer.flush().expect("flush");
        let bytes = std::fs::read(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        bytes
    };

    let first = run("a");
    let second = run("b");
    assert!(!first.is_empty(), "trace must record events");
    assert_eq!(first, second, "guided traces diverged between identical runs");
    let text = String::from_utf8(first).expect("utf8 trace");
    assert!(text.contains("\"guidance_decision\""), "trace must include the engine's decisions");
}
