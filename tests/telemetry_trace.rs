//! Telemetry integration: the trace stream is a faithful record of
//! what the allocator and memory manager actually did.
//!
//! * the PartialSpill overflow path emits the exact fallback-hop /
//!   spill-split event sequence;
//! * a JSONL trace survives the write → parse round trip;
//! * the placement reconstructed from the trace alone matches the
//!   `MemoryManager`'s ground-truth region table after an arbitrary
//!   alloc/migrate/free history.

use hetmem::alloc::{AllocRequest, Fallback, HetAllocator};
use hetmem::core::{attr, discovery};
use hetmem::memsim::{Machine, MemoryManager};
use hetmem::telemetry::{
    read_jsonl, Event, FallbackMode, JsonlWriter, Scope, Summary, TelemetrySink,
};
use hetmem::{Bitmap, NodeId};
use std::sync::Arc;

const GIB: u64 = 1 << 30;

fn knl_with_sink() -> (HetAllocator, TelemetrySink) {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
    let mut alloc = HetAllocator::new(attrs, MemoryManager::new(machine));
    // Buffers sized so nothing in these histories is ever dropped —
    // the trace must be a complete record, not a sample.
    let sink = TelemetrySink::with_capacity(1 << 12);
    alloc.set_sink(sink.clone());
    (alloc, sink)
}

/// Drains every event the sink has seen, in emission (epoch) order.
fn drain(sink: &TelemetrySink) -> Vec<Event> {
    let mut collector = sink.collector();
    let events: Vec<Event> = collector.drain_sorted().into_iter().map(|e| e.event).collect();
    assert!(collector.loss().iter().all(|l| l.lost == 0), "test buffers must not drop");
    events
}

/// The §VII overflow: a bandwidth request larger than the MCDRAM under
/// PartialSpill must record one decision with the exact hop (MCDRAM
/// filled to capacity) and the exact split (MCDRAM head + DRAM tail).
#[test]
fn partial_spill_records_exact_hop_and_split_sequence() {
    let (mut alloc, sink) = knl_with_sink();
    let cluster: Bitmap = "0-15".parse().expect("cpuset");
    let hbm_avail = alloc.memory().available(NodeId(4));

    let id = alloc
        .alloc(
            &AllocRequest::new(hbm_avail + 2 * GIB)
                .criterion(attr::BANDWIDTH)
                .initiator(&cluster)
                .fallback(Fallback::PartialSpill)
                .label("overflow"),
        )
        .expect("spills to DRAM");

    let events = drain(&sink);
    // Occupancy gauges for the touched nodes come first (the memory
    // manager speaks before the allocator's verdict), the decision is
    // the final word.
    let gauges: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            Event::OccupancyGauge(g) => Some(g.node),
            _ => None,
        })
        .collect();
    assert_eq!(gauges, vec![NodeId(0), NodeId(4)], "one gauge per touched node, sorted");
    let Some(Event::AllocDecision(d)) = events.last() else {
        panic!("last event must be the decision, got {:?}", events.last());
    };
    assert_eq!(d.region, Some(id.0));
    assert_eq!(d.size, hbm_avail + 2 * GIB);
    assert_eq!(d.requested, attr::BANDWIDTH.0);
    assert_eq!(d.used, attr::BANDWIDTH.0);
    assert_eq!(d.scope, Scope::Local);
    assert_eq!(d.fallback, FallbackMode::PartialSpill);
    assert_eq!(d.candidates[0].node, NodeId(4), "MCDRAM ranked first for bandwidth");
    // Exactly one fallback hop: the MCDRAM that could not hold it all.
    assert_eq!(d.hops.len(), 1);
    assert_eq!(d.hops[0].node, NodeId(4));
    assert!(d.hops[0].reason.contains("spilled"), "hop reason: {}", d.hops[0].reason);
    // Exact spill split: MCDRAM filled to capacity, remainder on DRAM.
    assert_eq!(d.placement, vec![(NodeId(4), hbm_avail), (NodeId(0), 2 * GIB)]);
    assert!(d.error.is_none());
}

/// A strict-mode failure is also a recorded decision — with the error
/// and no placement.
#[test]
fn strict_failure_is_recorded() {
    let (mut alloc, sink) = knl_with_sink();
    let cluster: Bitmap = "0-15".parse().expect("cpuset");
    let hbm_avail = alloc.memory().available(NodeId(4));
    alloc
        .alloc(
            &AllocRequest::new(hbm_avail + GIB)
                .criterion(attr::BANDWIDTH)
                .initiator(&cluster)
                .fallback(Fallback::Strict),
        )
        .expect_err("does not fit strictly");
    let events = drain(&sink);
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::AllocDecision(d) => Some(d.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].region, None);
    assert!(decisions[0].placement.is_empty());
    assert!(decisions[0].error.is_some());
    let summary = Summary::from_events(&events);
    assert_eq!(summary.allocs, 0);
    assert_eq!(summary.alloc_failures, 1);
}

/// Full JSONL round trip through an actual file: every event written
/// by the recorder parses back identically.
#[test]
fn jsonl_file_round_trip_preserves_events() {
    let path = std::env::temp_dir().join("hetmem_telemetry_roundtrip.jsonl");
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
    let mut alloc = HetAllocator::new(attrs, MemoryManager::new(machine));
    let sink = TelemetrySink::with_capacity(1 << 12);
    alloc.set_sink(sink.clone());
    let writer = Arc::new(JsonlWriter::create(&path).expect("temp file"));
    // Mirror everything into the file by replaying the drained stream
    // afterwards; first drive a history through the allocator.
    let cluster: Bitmap = "0-15".parse().expect("cpuset");
    let keep = alloc
        .alloc(
            &AllocRequest::new(2 * GIB)
                .criterion(attr::BANDWIDTH)
                .initiator(&cluster)
                .fallback(Fallback::NextTarget)
                .label("keep"),
        )
        .expect("fits");
    let gone = alloc
        .alloc(
            &AllocRequest::new(GIB)
                .criterion(attr::LATENCY)
                .initiator(&cluster)
                .fallback(Fallback::NextTarget),
        )
        .expect("fits");
    alloc.migrate_to_best(keep, attr::CAPACITY, &cluster).expect("DRAM has room");
    alloc.free(gone);

    let original: Vec<Event> =
        sink.collector().drain_sorted().into_iter().map(|e| e.event).collect();
    for e in &original {
        writer.write_event(e);
    }
    writer.flush().expect("flush");

    let text = std::fs::read_to_string(&path).expect("trace written");
    let parsed = read_jsonl(&text).expect("parses");
    assert_eq!(parsed, original, "JSONL round trip must be lossless");
    let _ = std::fs::remove_file(&path);
}

/// Acceptance: placement derived from the trace alone equals the
/// memory manager's ground truth after allocs, a spill, a migration
/// and frees.
#[test]
fn trace_live_placement_matches_memory_manager() {
    let (mut alloc, sink) = knl_with_sink();
    let cluster: Bitmap = "0-15".parse().expect("cpuset");
    let hbm_avail = alloc.memory().available(NodeId(4));

    let spilled = alloc
        .alloc(
            &AllocRequest::new(hbm_avail + GIB)
                .criterion(attr::BANDWIDTH)
                .initiator(&cluster)
                .fallback(Fallback::PartialSpill),
        )
        .expect("spills");
    let small = alloc
        .alloc(
            &AllocRequest::new(GIB)
                .criterion(attr::LATENCY)
                .initiator(&cluster)
                .fallback(Fallback::NextTarget),
        )
        .expect("fits");
    let doomed = alloc
        .alloc(
            &AllocRequest::new(GIB)
                .criterion(attr::CAPACITY)
                .initiator(&cluster)
                .fallback(Fallback::NextTarget),
        )
        .expect("fits");
    alloc.free(spilled);
    // MCDRAM is free again: bring the latency buffer's successor there.
    alloc.migrate_to_best(small, attr::BANDWIDTH, &cluster).expect("MCDRAM free");
    alloc.free(doomed);

    let summary = Summary::from_events(&drain(&sink));
    // Same live-region set...
    let truth: std::collections::BTreeMap<u64, Vec<(NodeId, u64)>> =
        alloc.memory().regions().map(|r| (r.id.0, r.placement.clone())).collect();
    assert_eq!(summary.live, truth, "trace-reconstructed placement must match ground truth");
    // ...and same per-node byte totals.
    for node in [NodeId(0), NodeId(4)] {
        assert_eq!(summary.live_bytes_on(node), alloc.memory().used(node), "{node:?}");
    }
    // The summary render mentions the spill and the migration.
    let report = summary.render();
    assert!(report.contains("1 spilled"), "report:\n{report}");
    assert!(summary.migrations >= 1);
}

/// Satellite: the tiering daemon's automatic actions appear in the
/// trace as `TieringAction` events, one per migration it performed,
/// alongside the `Migration` events the memory manager emits.
#[test]
fn tiering_daemon_actions_are_traced() {
    use hetmem::alloc::tiering::{TieringAction, TieringDaemon, TieringPolicy};
    use hetmem::memsim::{AccessEngine, AccessPattern, BufferAccess, Phase};

    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
    let engine = AccessEngine::new(machine.clone());
    let mut alloc = HetAllocator::new(attrs, MemoryManager::new(machine));
    let sink = TelemetrySink::with_capacity(1 << 12);
    alloc.set_sink(sink.clone());
    let cluster: Bitmap = "0-15".parse().expect("cpuset");

    // `a` takes MCDRAM; `b` lands on DRAM. Two phases of `b`-only
    // traffic make `a` cold, so a rebalance swaps them.
    let mut ids = Vec::new();
    for name in ["a", "b"] {
        ids.push(
            alloc
                .alloc(
                    &AllocRequest::new(3 * GIB)
                        .criterion(attr::BANDWIDTH)
                        .initiator(&cluster)
                        .label(name),
                )
                .expect("fits"),
        );
    }
    let mut daemon = TieringDaemon::new(TieringPolicy::default());
    for i in 0..2 {
        let phase = Phase {
            name: format!("era2.{i}"),
            accesses: vec![BufferAccess::new(ids[1], 8 * GIB, 0, AccessPattern::Sequential)],
            threads: 16,
            initiator: cluster.clone(),
            compute_ns: 0.0,
        };
        daemon.observe(&engine.run_phase(alloc.memory(), &phase));
    }
    let actions = daemon.rebalance(&mut alloc, &cluster).expect("rebalances");
    assert_eq!(actions.len(), 2, "{actions:?}");

    let events = drain(&sink);
    let traced: Vec<(u64, bool, NodeId)> = events
        .iter()
        .filter_map(|e| match e {
            Event::TieringAction(t) => Some((t.region, t.promoted, t.to)),
            _ => None,
        })
        .collect();
    let expected: Vec<(u64, bool, NodeId)> = actions
        .iter()
        .map(|a| match a {
            TieringAction::Promoted { region, to, .. } => (region.0, true, *to),
            TieringAction::Demoted { region, to, .. } => (region.0, false, *to),
        })
        .collect();
    assert_eq!(traced, expected, "trace must mirror the daemon's actions");
    // The daemon's migrations also show up as Migration events, and
    // the summary counts both.
    let summary = Summary::from_events(&events);
    assert_eq!(summary.tiering_actions, 2);
    assert!(summary.migrations >= 2);
}
