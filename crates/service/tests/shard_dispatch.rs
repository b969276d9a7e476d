//! Shard-plane edge cases pinned as regression anchors. Each drives
//! the `shard::Plane` calls the server's threads make — post, tick,
//! merge runs — on one thread:
//!
//! * `shards = 1` is **bit-identical** to serving the same request
//!   stream straight through the broker — the plane must be a pure
//!   refactor at its degenerate point.
//! * (Property) Coalesced merge runs grant byte-for-byte what serial
//!   admission of the same stream grants — placements, spill shapes
//!   and node ledgers included, under every fallback mode and
//!   arbitration policy — because `Broker::acquire_batch` falls back
//!   to serial admission whenever a merge would change an outcome.
//! * A next-target batch whose total overflows the first candidate,
//!   though each request alone fits, is admitted serially.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery, AttrId};
use hetmem_memsim::Machine;
use hetmem_service::{
    shard::{Ask, Plane, Step, Turn},
    ArbitrationPolicy, Broker, Lease, Priority, ServiceError, TenantId, TenantSpec,
};
use hetmem_telemetry::{Collector, Event, TelemetrySink};
use proptest::prelude::*;
use std::sync::Arc;

const MIB: u64 = 1 << 20;
const GIB: u64 = 1 << 30;

fn knl_broker(policy: ArbitrationPolicy) -> Arc<Broker> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    Arc::new(Broker::new(machine, attrs, policy))
}

/// A KNL broker whose telemetry the returned collector reads.
fn traced_broker(policy: ArbitrationPolicy) -> (Arc<Broker>, Collector) {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let mut broker = Broker::new(machine, attrs, policy);
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let collector = sink.collector();
    broker.set_sink(sink);
    (Arc::new(broker), collector)
}

/// `(merged batches, merged requests)` in the telemetry drained from
/// `collector`.
fn plane_events(collector: &mut Collector) -> (u64, u64) {
    let mut counts = (0, 0);
    for record in collector.drain_sorted() {
        if let Event::BatchCoalesced(b) = record.event {
            counts.0 += 1;
            counts.1 += b.merged;
        }
    }
    counts
}

/// Takes and serves `shard`'s ticks until its queue is empty, as a
/// token holder does; returns each ask's tag and outcome in service
/// order.
fn serve(plane: &Plane<Ask>, shard: usize) -> Vec<(u64, Result<Lease, ServiceError>)> {
    let mut out = Vec::new();
    let mut turn = Turn::reader(false);
    while let Step::Tick(tick) = plane.next(shard, &mut turn) {
        plane.serve_tick(shard, tick, |ask, outcome| {
            out.push((ask.tag, outcome.expect("an ask is an alloc")));
        });
    }
    out
}

fn register(broker: &Broker, names: &[(&str, Priority)]) -> Vec<TenantId> {
    names
        .iter()
        .map(|(name, priority)| {
            broker.register(TenantSpec::new(*name).priority(*priority)).expect("register")
        })
        .collect()
}

/// The comparable footprint of one admission outcome.
#[allow(clippy::type_complexity)]
fn footprint(
    outcome: &Result<Lease, ServiceError>,
) -> Result<(u64, u64, Vec<(u32, u64)>), ServiceError> {
    match outcome {
        Ok(lease) => Ok((
            lease.size(),
            lease.fast_bytes(),
            lease.placement().iter().map(|(node, bytes)| (node.0, *bytes)).collect(),
        )),
        Err(e) => Err(e.clone()),
    }
}

/// A deterministic mixed request stream: varied sizes, both criteria,
/// both spill modes.
fn mixed_stream(rounds: usize, tenants: &[TenantId]) -> Vec<(TenantId, AllocRequest, Option<u64>)> {
    let mut stream = Vec::new();
    for round in 0..rounds {
        for (i, &tenant) in tenants.iter().enumerate() {
            let size = (1 + (round * 3 + i * 5) % 48) as u64 * MIB;
            let criterion = if (round + i) % 2 == 0 { attr::BANDWIDTH } else { attr::CAPACITY };
            let fallback =
                if (round + i) % 3 == 0 { Fallback::NextTarget } else { Fallback::PartialSpill };
            let ttl = if round % 4 == 3 { Some(8) } else { None };
            stream.push((
                tenant,
                AllocRequest::new(size).criterion(criterion).fallback(fallback),
                ttl,
            ));
        }
    }
    stream
}

#[test]
fn single_shard_plane_is_bit_identical_to_the_serial_broker() {
    let tenant_mix = [
        ("anchor-a", Priority::Latency),
        ("anchor-b", Priority::Normal),
        ("anchor-c", Priority::Batch),
    ];
    let (sharded, mut collector) = traced_broker(ArbitrationPolicy::FairShare);
    let serial = knl_broker(ArbitrationPolicy::FairShare);
    let sharded_tenants = register(&sharded, &tenant_mix);
    let serial_tenants = register(&serial, &tenant_mix);
    assert_eq!(sharded_tenants, serial_tenants, "registration order fixes tenant ids");

    let plane = Plane::new(sharded.clone(), 1);
    assert_eq!(plane.shards(), 1, "the default plane has one shard, so it never merges");

    let stream = mixed_stream(12, &sharded_tenants);
    // Drain in rounds (one per epoch) so the plane interleaves with
    // epoch advancement exactly like the serial loop does.
    let per_round = tenant_mix.len();
    let mut sharded_out = Vec::new();
    let mut serial_out = Vec::new();
    let mut tag = 0;
    for chunk in stream.chunks(per_round) {
        sharded.advance_epoch();
        serial.advance_epoch();
        for (tenant, req, ttl) in chunk {
            // One connection per tenant.
            let conn = tenant.0 as u64;
            plane.post(Ask { conn, tag, tenant: *tenant, req: req.clone(), ttl: *ttl });
            tag += 1;
        }
        for (tag, outcome) in serve(&plane, 0) {
            sharded_out.push((tag, footprint(&outcome)));
        }
        for (tenant, req, ttl) in chunk {
            serial_out.push(footprint(&serial.acquire_with_ttl(*tenant, req, *ttl)));
        }
    }

    assert_eq!(sharded_out.len(), serial_out.len());
    for (i, ((token, sharded_fp), serial_fp)) in
        sharded_out.iter().zip(serial_out.iter()).enumerate()
    {
        assert_eq!(*token, i as u64, "tokens come back in submit order");
        assert_eq!(sharded_fp, serial_fp, "request {i} diverged from the serial broker");
    }
    assert_eq!(plane_events(&mut collector), (0, 0), "one shard never merges");
    assert_eq!(sharded.node_usage(), serial.node_usage(), "node ledgers are bit-identical");
    assert_eq!(sharded.live_leases(), serial.live_leases());
    sharded.check_invariants().expect("sharded ledgers consistent");
    serial.check_invariants().expect("serial ledgers consistent");
}

#[test]
fn next_target_batches_that_overflow_the_first_candidate_run_serially() {
    let req = |bytes: u64| {
        AllocRequest::new(bytes).criterion(attr::BANDWIDTH).fallback(Fallback::NextTarget)
    };
    // One tenant, its first-ranked HBM node left with 96 MiB free.
    let setup = |policy| {
        let broker = knl_broker(policy);
        let tenant = register(&broker, &[("solo", Priority::Normal)])[0];
        let (node, used, total) = broker.node_usage()[4];
        let fill = broker.acquire(tenant, &req(total - used - 96 * MIB)).expect("fits");
        assert_eq!(fill.placement()[0].0, node, "the filler lands on the first candidate");
        (broker, tenant)
    };
    for policy in [ArbitrationPolicy::Fcfs, ArbitrationPolicy::FairShare] {
        let (coalesced, a) = setup(policy);
        let (serial, b) = setup(policy);
        // Two 64 MiB requests: their 128 MiB total skips node 4, but
        // the first one alone still fits there.
        let merged: Vec<_> = coalesced
            .acquire_batch(a, &[req(64 * MIB), req(64 * MIB)], None, 0)
            .iter()
            .map(footprint)
            .collect();
        let one_by_one: Vec<_> =
            (0..2).map(|_| footprint(&serial.acquire(b, &req(64 * MIB)))).collect();
        assert_eq!(merged, one_by_one, "{policy:?}: coalesced diverged from serial");
        let first = one_by_one[0].as_ref().expect("granted");
        assert_eq!(first.2, vec![(4, 64 * MIB)], "serial admission fills node 4 first");
        assert_eq!(coalesced.node_usage(), serial.node_usage());
    }
}

/// Strategy: a stream of MiB-aligned requests, grouped contiguously by
/// tenant so each tenant's requests form one merge run (each tenant
/// keeps one criterion and one fallback, so runs never split).
fn stream_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..3, 16u64..=256), 1..20).prop_map(|mut v| {
        v.sort_by_key(|&(tenant, _)| tenant);
        v
    })
}

/// Strategy: each tenant's fallback and the arbitration policy.
fn config_strategy() -> impl Strategy<Value = ([Fallback; 3], ArbitrationPolicy)> {
    const FALLBACKS: [Fallback; 3] =
        [Fallback::Strict, Fallback::NextTarget, Fallback::PartialSpill];
    const POLICIES: [ArbitrationPolicy; 3] =
        [ArbitrationPolicy::FairShare, ArbitrationPolicy::Fcfs, ArbitrationPolicy::StaticPartition];
    let fallbacks =
        (0usize..3, 0usize..3, 0usize..3).prop_map(|(a, b, c)| [a, b, c].map(|i| FALLBACKS[i]));
    (fallbacks, prop::sample::select(POLICIES.to_vec()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coalesced admission grants byte-for-byte what serial admission
    /// of the same stream grants, under real fast-tier contention, for
    /// every fallback mode and arbitration policy.
    #[test]
    fn coalesced_batches_match_serial_admission(
        stream in stream_strategy(),
        (fallbacks, policy) in config_strategy(),
    ) {
        check_coalesced_matches_serial(&stream, fallbacks, policy)?;
    }

    /// The same under fair-share with every tenant spilling — the
    /// configuration `hetmem-serve --shards N` load runs — pinned on
    /// every case rather than drawn one time in 81.
    #[test]
    fn coalesced_spilling_fair_share_batches_match_serial_admission(
        stream in stream_strategy(),
    ) {
        check_coalesced_matches_serial(
            &stream,
            [Fallback::PartialSpill; 3],
            ArbitrationPolicy::FairShare,
        )?;
    }
}

/// Serves `stream` through a coalescing shard plane (two shards, the
/// stream pipelined on one connection) and through serial admission
/// on twin brokers, and compares every outcome and ledger.
fn check_coalesced_matches_serial(
    stream: &[(usize, u64)],
    fallbacks: [Fallback; 3],
    policy: ArbitrationPolicy,
) -> Result<(), String> {
    let tenant_mix =
        [("co-a", Priority::Latency), ("co-b", Priority::Normal), ("co-c", Priority::Batch)];
    // Per-tenant criterion keeps every tenant's requests one merge run
    // (runs split on criterion otherwise).
    let criteria: [AttrId; 3] = [attr::BANDWIDTH, attr::CAPACITY, attr::BANDWIDTH];

    let (coalesced, mut collector) = traced_broker(policy);
    let serial = knl_broker(policy);
    let coalesced_tenants = register(&coalesced, &tenant_mix);
    let serial_tenants = register(&serial, &tenant_mix);
    prop_assert_eq!(&coalesced_tenants, &serial_tenants);

    // A hog squeezes the fast tier identically on both brokers so
    // the stream really contends: spills, clamps and the serial
    // fallback inside `acquire_batch` all get exercised.
    let hog_spec = ("hog", Priority::Batch);
    let hogs = (register(&coalesced, &[hog_spec])[0], register(&serial, &[hog_spec])[0]);
    let hog_req =
        AllocRequest::new(2 * GIB).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill);
    let mut hog_leases = Vec::new();
    for _ in 0..6 {
        let a = coalesced.acquire(hogs.0, &hog_req);
        let b = serial.acquire(hogs.1, &hog_req);
        prop_assert_eq!(footprint(&a), footprint(&b), "hog pre-fill diverged");
        if let (Ok(a), Ok(b)) = (a, b) {
            hog_leases.push((a, b));
        }
    }

    let plane = Plane::new(coalesced.clone(), 2);
    coalesced.advance_epoch();
    serial.advance_epoch();
    collector.drain_sorted();
    for (tag, &(tenant, mib)) in stream.iter().enumerate() {
        let req =
            AllocRequest::new(mib * MIB).criterion(criteria[tenant]).fallback(fallbacks[tenant]);
        let tenant = coalesced_tenants[tenant];
        plane.post(Ask { conn: 0, tag: tag as u64, tenant, req, ttl: None });
    }
    let coalesced_out: Vec<_> =
        serve(&plane, 0).into_iter().map(|(tag, outcome)| (tag, footprint(&outcome))).collect();
    let serial_out: Vec<_> = stream
        .iter()
        .map(|&(tenant, mib)| {
            let req = AllocRequest::new(mib * MIB)
                .criterion(criteria[tenant])
                .fallback(fallbacks[tenant]);
            footprint(&serial.acquire_with_ttl(serial_tenants[tenant], &req, None))
        })
        .collect();

    prop_assert_eq!(coalesced_out.len(), serial_out.len());
    for (i, ((tag, c), s)) in coalesced_out.iter().zip(serial_out.iter()).enumerate() {
        prop_assert_eq!(*tag, i as u64, "contiguous tenant runs preserve submit order");
        prop_assert_eq!(c, s, "request {} diverged under coalescing", i);
    }
    let (merged_batches, merged_requests) = plane_events(&mut collector);
    prop_assert!(merged_requests >= 2 * merged_batches, "merges are >= 2 requests each");
    prop_assert_eq!(
        coalesced.node_usage(),
        serial.node_usage(),
        "node ledgers diverged under coalescing"
    );
    coalesced.check_invariants().expect("coalesced ledgers consistent");
    serial.check_invariants().expect("serial ledgers consistent");
    Ok(())
}
