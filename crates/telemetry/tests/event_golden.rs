//! Byte anchor for the trace codec: one event of each of the 23 kinds,
//! rendered and decoded against the committed `tests/golden/events.jsonl`,
//! one event per line in `EVENT_KINDS` order. Integers stay below 9e15;
//! the `f64` fields straddle the 9e15 boundary of the number rule.

use hetmem_telemetry::{
    read_jsonl, AllocDecision, AttrFallback, BatchCoalesced, BudgetExhausted, Candidate,
    ContentionStall, DigestMerged, Event, FallbackMode, FreeEvent, GuidanceDecision, Hop,
    HotPromoted, LeaseExpired, LeaseRevoked, Migration, NodeTrafficSample, OccupancyGauge,
    PhaseSpan, QuotaClamp, Reclaim, RetryExhausted, SampleRateChanged, Scope, ShardSteal,
    SpillForwarded, TenantAdmit, TierDegraded, TieringEvent, EVENT_KINDS,
};
use hetmem_topology::NodeId;

const GOLDEN: &str = include_str!("golden/events.jsonl");

/// Quotes, backslashes, the named escapes, other control characters
/// and non-ASCII text.
const TRICKY: &str = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f} é€😀";

fn events() -> Vec<Event> {
    vec![
        Event::AllocDecision(AllocDecision {
            region: Some(8_999_999_999_999_999),
            size: 3 << 30,
            requested: 4,
            used: 9,
            scope: Scope::Local,
            fallback: FallbackMode::PartialSpill,
            candidates: vec![
                Candidate { node: NodeId(4), value: 380_000 },
                Candidate { node: NodeId(0), value: 90_000 },
            ],
            hops: vec![Hop { node: NodeId(4), reason: TRICKY.into() }],
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            error: Some("insufficient capacity on node 0".into()),
        }),
        Event::AttrFallback(AttrFallback { requested: 4, used: 2 }),
        Event::Migration(Migration {
            region: 7,
            from: vec![(NodeId(0), 2 << 30)],
            to: NodeId(4),
            bytes_moved: 2 << 30,
            cost_ns: 9.0e15,
        }),
        Event::Free(FreeEvent { region: 0, placement: vec![] }),
        Event::PhaseSpan(PhaseSpan {
            name: TRICKY.into(),
            time_ns: 8_999_999_999_999_999.0,
            threads: 16,
            per_node: vec![
                NodeTrafficSample {
                    node: NodeId(0),
                    bytes_read: 123,
                    bytes_written: 456,
                    achieved_bw_mbps: 8123.5,
                },
                NodeTrafficSample {
                    node: NodeId(u32::MAX),
                    bytes_read: 0,
                    bytes_written: 8_999_999_999_999_999,
                    achieved_bw_mbps: 1e300,
                },
            ],
        }),
        Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(2),
            used: 5 << 30,
            high_water: 9 << 30,
            total: 768 << 30,
        }),
        Event::TieringAction(TieringEvent {
            region: 3,
            promoted: false,
            to: NodeId(0),
            cost_ns: 12_500.75,
        }),
        Event::GuidanceDecision(GuidanceDecision {
            interval: 42,
            region: 9,
            promoted: true,
            to: NodeId(4),
            estimated_hotness: 0.8125,
            actual_hotness: 0.1,
            cost_ns: 5e-324,
            period: 16384,
        }),
        Event::TenantAdmit(TenantAdmit {
            broker: 1,
            tenant: TRICKY.into(),
            lease: 11,
            size: 3 << 30,
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            clamped: true,
            fast_bytes: 1 << 30,
        }),
        Event::QuotaClamp(QuotaClamp {
            broker: 0,
            tenant: "stream".into(),
            node: NodeId(4),
            requested: 2 << 30,
            allowed: 512 << 20,
        }),
        Event::ContentionStall(ContentionStall {
            broker: 2,
            tenant: "graph500".into(),
            node: NodeId(4),
            stall_ns: 125_000.5,
            sharers: 3,
        }),
        Event::LeaseExpired(LeaseExpired {
            broker: 0,
            tenant: "stream".into(),
            lease: 12,
            ttl_epochs: 5,
        }),
        Event::LeaseRevoked(LeaseRevoked {
            broker: u32::MAX,
            tenant: "graph500".into(),
            lease: 11,
            reason: "disconnect".into(),
        }),
        Event::TierDegraded(TierDegraded { broker: 0, kind: "hbm".into(), degraded: true }),
        Event::RetryExhausted(RetryExhausted {
            tenant: String::new(),
            op: "alloc".into(),
            attempts: 4,
            last_error: TRICKY.into(),
        }),
        Event::Reclaim(Reclaim {
            broker: 1,
            tenant: "graph500".into(),
            lease: 11,
            bytes: 3 << 30,
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            reason: "revoked".into(),
        }),
        Event::SpillForwarded(SpillForwarded {
            broker: 1,
            origin: 0,
            tenant: "graph500".into(),
            size: 2 << 30,
            fast_bytes: 2 << 30,
            cost_ns: 84_000.0,
        }),
        Event::DigestMerged(DigestMerged { broker: 1, peer: 0, epoch: 16, applied: false }),
        Event::BatchCoalesced(BatchCoalesced {
            broker: 0,
            shard: 2,
            tenant: "stream".into(),
            merged: 4,
            bytes: 2 << 30,
        }),
        Event::ShardSteal(ShardSteal { broker: 1, thief: 0, victim: 3, stolen: 7 }),
        Event::SampleRateChanged(SampleRateChanged {
            broker: 0,
            tenant: "interactive".into(),
            old_period: 65536,
            new_period: 4096,
        }),
        Event::HotPromoted(HotPromoted {
            broker: 2,
            tenant: "interactive".into(),
            region: 9,
            to: NodeId(4),
            bytes: 1 << 30,
            cost_ns: 42_000.25,
        }),
        Event::BudgetExhausted(BudgetExhausted {
            broker: 0,
            epoch: 12,
            spent_ns: 95_000.0,
            budget_ns: 1.5e16,
            deferred: 3,
        }),
    ]
}

#[test]
fn one_event_per_kind_in_kind_order() {
    let kinds: Vec<&str> = events().iter().map(Event::kind).collect();
    assert_eq!(kinds, EVENT_KINDS);
}

#[test]
fn every_event_renders_byte_for_byte() {
    let rendered: String = events().iter().map(|e| e.to_json() + "\n").collect();
    for (i, (want, got)) in GOLDEN.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(got, want, "event {} ({}) differs", i + 1, EVENT_KINDS[i]);
    }
    assert_eq!(rendered, GOLDEN);
}

#[test]
fn every_golden_event_decodes_to_its_value() {
    assert_eq!(read_jsonl(GOLDEN).expect("golden parses"), events());
}
