//! Codec and replay tests: proptest round-trips, rejection of
//! truncated/corrupted/newer-version input (typed errors, no panics),
//! and the end-to-end record → snapshot → restore → replay guarantee.

use super::*;
use hetmem_memsim::SplitMix64;
use hetmem_service::{BrokerState, LeaseEntry, StripeEntry, TenantEntry};
use proptest::prelude::*;

fn arb_kind(roll: u64) -> MemoryKind {
    match roll % 5 {
        0 => MemoryKind::Dram,
        1 => MemoryKind::Hbm,
        2 => MemoryKind::Nvdimm,
        3 => MemoryKind::NetworkAttached,
        _ => MemoryKind::GpuMemory,
    }
}

fn arb_policy(rng: &mut SplitMix64) -> AllocPolicy {
    let nodes = |rng: &mut SplitMix64| {
        (0..1 + rng.next_u64() % 3).map(|_| NodeId((rng.next_u64() % 8) as u32)).collect()
    };
    match rng.next_u64() % 5 {
        0 => AllocPolicy::Bind(NodeId((rng.next_u64() % 8) as u32)),
        1 => AllocPolicy::Preferred(NodeId((rng.next_u64() % 8) as u32)),
        2 => AllocPolicy::PreferredMany(nodes(rng)),
        3 => AllocPolicy::Interleave(nodes(rng)),
        _ => AllocPolicy::Exact(
            (0..rng.next_u64() % 3)
                .map(|_| (NodeId((rng.next_u64() % 8) as u32), rng.next_u64() % (1 << 34)))
                .collect(),
        ),
    }
}

/// A pseudo-random broker state. Decoding does not cross-validate
/// (that is [`Broker::restore`]'s job), so any well-formed value must
/// round-trip — including states no real broker would produce.
fn arb_state(seed: u64) -> BrokerState {
    let mut rng = SplitMix64::new(seed);
    let kinds = |rng: &mut SplitMix64| {
        let mut v: Vec<(MemoryKind, u64)> = (0..rng.next_u64() % 3)
            .map(|_| (arb_kind(rng.next_u64()), rng.next_u64() % (1 << 40)))
            .collect();
        v.sort();
        v.dedup_by_key(|e| e.0);
        v
    };
    let opt = |rng: &mut SplitMix64| {
        if rng.next_u64().is_multiple_of(2) {
            Some(rng.next_u64() % 1000)
        } else {
            None
        }
    };
    let tenants = (0..rng.next_u64() % 5)
        .map(|i| TenantEntry {
            id: i as u32,
            name: format!("tenant-{i}-{}", rng.next_u64() % 100),
            priority: match rng.next_u64() % 3 {
                0 => Priority::Latency,
                1 => Priority::Normal,
                _ => Priority::Batch,
            },
            quota: kinds(&mut rng),
            reserve: kinds(&mut rng),
            lease_ttl: opt(&mut rng),
            admits: rng.next_u64() % 1000,
            clamps: rng.next_u64() % 1000,
            stalls: rng.next_u64() % 1000,
        })
        .collect::<Vec<_>>();
    let leases = (0..rng.next_u64() % 6)
        .map(|i| LeaseEntry {
            id: i,
            tenant: (rng.next_u64() % 5) as u32,
            region: rng.next_u64() % 100,
            placement: (0..rng.next_u64() % 3)
                .map(|_| (NodeId((rng.next_u64() % 8) as u32), rng.next_u64() % (1 << 34)))
                .collect(),
            ttl: opt(&mut rng),
            expires_at: opt(&mut rng),
        })
        .collect::<Vec<_>>();
    let stripes = (0..rng.next_u64() % 8)
        .map(|i| StripeEntry {
            node: NodeId(i as u32),
            free: rng.next_u64() % (1 << 40),
            used_by: (0..rng.next_u64() % 3)
                .map(|j| (j as u32, rng.next_u64() % (1 << 34)))
                .collect(),
        })
        .collect::<Vec<_>>();
    let regions = (0..rng.next_u64() % 5)
        .map(|i| RegionState {
            id: i,
            size: rng.next_u64() % (1 << 40),
            placement: (0..rng.next_u64() % 3)
                .map(|_| (NodeId((rng.next_u64() % 8) as u32), rng.next_u64() % (1 << 34)))
                .collect(),
            policy: arb_policy(&mut rng),
        })
        .collect::<Vec<_>>();
    let mut degraded: Vec<MemoryKind> =
        (0..rng.next_u64() % 3).map(|_| arb_kind(rng.next_u64())).collect();
    degraded.sort();
    degraded.dedup();
    BrokerState {
        machine: format!("machine-{}", rng.next_u64() % 10),
        policy: match rng.next_u64() % 3 {
            0 => ArbitrationPolicy::FairShare,
            1 => ArbitrationPolicy::Fcfs,
            _ => ArbitrationPolicy::StaticPartition,
        },
        id: (rng.next_u64() % 8) as u32,
        epoch: rng.next_u64() % 10_000,
        next_tenant: (rng.next_u64() % 100) as u32,
        next_lease: rng.next_u64() % 10_000,
        stall_until: rng.next_u64() % 10_000,
        expired_total: rng.next_u64() % 1000,
        revoked_total: rng.next_u64() % 1000,
        reclaimed_bytes_total: rng.next_u64() % (1 << 44),
        degraded,
        tenants,
        leases,
        stripes,
        manager: ManagerState {
            regions,
            next_id: rng.next_u64() % 1000,
            high_water: (0..rng.next_u64() % 4)
                .map(|i| (NodeId(i as u32), rng.next_u64() % (1 << 40)))
                .collect(),
        },
    }
}

fn arb_snapshot(seed: u64) -> Snapshot {
    let mut rng = SplitMix64::new(seed ^ 0xfeed);
    let faults = if rng.next_u64().is_multiple_of(2) {
        Some(FaultPlan::seeded(seed, 100, 4, &[MemoryKind::Hbm, MemoryKind::Nvdimm]))
    } else {
        None
    };
    Snapshot { state: arb_state(seed), faults }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any well-formed snapshot round-trips exactly.
    #[test]
    fn snapshot_roundtrip(seed in any::<u64>()) {
        let snap = arb_snapshot(seed);
        let decoded = Snapshot::decode(&snap.encode()).expect("roundtrip");
        prop_assert_eq!(decoded, snap);
    }

    /// Every strict prefix of a valid snapshot is rejected with a
    /// typed error — never a panic, never a silent partial decode.
    #[test]
    fn truncated_snapshots_are_rejected(seed in any::<u64>(), cut in 0.0f64..1.0) {
        let bytes = arb_snapshot(seed).encode();
        let cut = (bytes.len() as f64 * cut) as usize;
        prop_assert!(cut < bytes.len());
        let result = Snapshot::decode(&bytes[..cut]);
        prop_assert!(
            matches!(
                result,
                Err(SnapshotError::Truncated(_))
                    | Err(SnapshotError::Corrupt(_))
                    | Err(SnapshotError::BadMagic { .. })
            ),
            "prefix of {cut}/{} bytes decoded to {result:?}",
            bytes.len()
        );
    }

    /// Flipping any byte never panics: the decoder either rejects the
    /// input with a typed error or produces some well-formed value.
    #[test]
    fn corrupted_snapshots_never_panic(seed in any::<u64>(), pos in 0.0f64..1.0, flip in 1u8..=255) {
        let mut bytes = arb_snapshot(seed).encode();
        let pos = (bytes.len() as f64 * pos) as usize % bytes.len();
        bytes[pos] ^= flip;
        let _ = Snapshot::decode(&bytes);
    }

    /// Wire logs round-trip too.
    #[test]
    fn wirelog_roundtrip(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let frames: Vec<WireFrame> = (0..rng.next_u64() % 8)
            .map(|i| match rng.next_u64() % 5 {
                0 => WireFrame::Request {
                    epoch: i,
                    json: format!("{{\"op\":\"heartbeat\",\"tenant\":\"t{i}\"}}"),
                },
                1 => WireFrame::TierFault {
                    epoch: i,
                    kind: arb_kind(rng.next_u64()),
                    degraded: rng.next_u64().is_multiple_of(2),
                },
                2 => WireFrame::AllocStall { epoch: i, epochs: rng.next_u64() % 9 },
                3 => WireFrame::Revoke { epoch: i, lease: rng.next_u64() },
                _ => WireFrame::Trailer {
                    epoch: i,
                    state: (0..rng.next_u64() % 40).map(|b| b as u8).collect(),
                    summary: format!("summary {i}"),
                },
            })
            .collect();
        let broker = fcfs_knl_broker();
        let decoded = WireLog::decode(&record_frames(&broker, &frames)).expect("roundtrip");
        let log = WireLog {
            machine: broker.machine().name().into(),
            policy: ArbitrationPolicy::Fcfs,
            frames,
        };
        prop_assert_eq!(decoded, log);
    }
}

/// A broker for the hand-built logs to name in their headers.
fn fcfs_knl_broker() -> Broker {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
    Broker::new(machine, attrs, ArbitrationPolicy::Fcfs)
}

/// The bytes the recorder writes for `frames`, in order, on a log of
/// `broker`.
fn record_frames(broker: &Broker, frames: &[WireFrame]) -> Vec<u8> {
    let mut recorder = WireLogWriter::new(Vec::new(), broker).expect("header");
    for frame in frames {
        recorder.append(frame).expect("frame");
    }
    recorder.out
}

/// Version 2 only added a frame tag, so a version-1 log still reads.
#[test]
fn version_1_logs_still_read() {
    let broker = fcfs_knl_broker();
    let frames = [
        WireFrame::Request { epoch: 0, json: "{\"op\":\"stats\"}".into() },
        WireFrame::AllocStall { epoch: 2, epochs: 3 },
    ];
    let mut bytes = record_frames(&broker, &frames);
    assert_eq!(bytes[WIRELOG_MAGIC.len()], WIRELOG_VERSION as u8);
    bytes[WIRELOG_MAGIC.len()] = 1;
    let log = WireLog::decode(&bytes).expect("a version-1 log decodes");
    assert_eq!(log.frames, frames);
}

#[test]
fn newer_versions_are_rejected() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u64(&mut bytes, SNAPSHOT_VERSION + 7);
    put_u64(&mut bytes, 0);
    assert_eq!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::UnsupportedVersion {
            found: SNAPSHOT_VERSION + 7,
            supported: SNAPSHOT_VERSION
        })
    );
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&WIRELOG_MAGIC);
    put_u64(&mut bytes, WIRELOG_VERSION + 3);
    assert_eq!(
        WireLog::decode(&bytes),
        Err(SnapshotError::UnsupportedVersion {
            found: WIRELOG_VERSION + 3,
            supported: WIRELOG_VERSION
        })
    );
}

#[test]
fn bad_magic_is_rejected() {
    assert_eq!(
        Snapshot::decode(b"NOPE----------------"),
        Err(SnapshotError::BadMagic { expected: "snapshot" })
    );
    assert_eq!(Snapshot::decode(b"HM"), Err(SnapshotError::BadMagic { expected: "snapshot" }));
    assert_eq!(
        WireLog::decode(b"HMSNxxxxxxxx"),
        Err(SnapshotError::BadMagic { expected: "wire log" })
    );
}

/// A reader must skip sections it does not know — that is what lets
/// a v1 reader open snapshots written by a v1.5 writer that appended
/// a new optional section.
#[test]
fn unknown_sections_are_skipped() {
    let snap = arb_snapshot(42);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u64(&mut bytes, SNAPSHOT_VERSION);
    put_u64(&mut bytes, 2 + snap.faults.is_some() as u64);
    // A future section this build knows nothing about.
    bytes.push(250);
    let future = b"from the future";
    put_u64(&mut bytes, future.len() as u64);
    bytes.extend_from_slice(future);
    // Then the sections we do understand, lifted from the canonical
    // encoding (skip its magic + version + count header).
    let canonical = snap.encode();
    let mut cur = Cursor::new(&canonical);
    cur.take(4).expect("magic");
    cur.u64().expect("version");
    cur.u64().expect("count");
    let rest = cur.take(cur.remaining()).expect("sections");
    bytes.extend_from_slice(rest);
    assert_eq!(Snapshot::decode(&bytes).expect("decodes"), snap);
}

#[test]
fn duplicate_state_sections_are_corrupt() {
    let snap = arb_snapshot(7);
    let canonical = snap.encode();
    let mut cur = Cursor::new(&canonical);
    cur.take(4).expect("magic");
    cur.u64().expect("version");
    let sections = cur.u64().expect("count");
    let rest = cur.take(cur.remaining()).expect("sections");
    // Repeat every section once more.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u64(&mut bytes, SNAPSHOT_VERSION);
    put_u64(&mut bytes, sections * 2);
    bytes.extend_from_slice(rest);
    bytes.extend_from_slice(rest);
    assert!(matches!(Snapshot::decode(&bytes), Err(SnapshotError::Corrupt(_))));
}

#[test]
fn harness_record_replay_verifies_byte_for_byte() {
    let outcome = chaos_record_replay(&HarnessConfig::default()).expect("harness");
    assert!(outcome.requests_recorded > 0, "{outcome:?}");
    assert_eq!(outcome.report.state_matched, Some(true), "{outcome:?}");
    assert_eq!(outcome.report.summary_matched, Some(true), "{outcome:?}");
    assert!(outcome.report.verified());
    assert!(outcome.report.events > 0, "replayed segment must emit telemetry");
}

/// The mid-chaos guarantee: a seed whose fault plan schedules faults
/// on both sides of the snapshot epoch still replays exactly. The
/// snapshot carries the degraded set and the plan cursor; the log
/// carries the post-snapshot transitions.
#[test]
fn mid_chaos_snapshots_replay_exactly() {
    let config = HarnessConfig { seed: 0x0dd5, epochs: 96, snapshot_at: 48, tenants: 4 };
    let plan = FaultPlan::seeded(
        config.seed,
        config.epochs,
        config.tenants as u64,
        &[MemoryKind::Hbm, MemoryKind::Dram],
    );
    assert!(
        plan.faults().iter().any(|f| f.epoch < config.snapshot_at)
            && plan.faults().iter().any(|f| f.epoch >= config.snapshot_at),
        "seed must schedule chaos on both sides of the snapshot: {plan:?}"
    );
    let outcome = chaos_record_replay(&config).expect("harness");
    assert!(outcome.report.verified(), "{outcome:?}");
}

#[test]
fn replay_rejects_backwards_logs() {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare);
    broker.advance_epoch();
    broker.advance_epoch();
    let snap = Snapshot::capture(&broker, None);
    let log = WireLog {
        machine: machine.name().into(),
        policy: ArbitrationPolicy::FairShare,
        frames: vec![WireFrame::AllocStall { epoch: 0, epochs: 1 }],
    };
    assert!(matches!(replay(&snap, &log, machine, attrs), Err(SnapshotError::Replay(_))));
}

#[test]
fn replay_without_trailer_is_unverified() {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare);
    let snap = Snapshot::capture(&broker, None);
    let log = WireLog {
        machine: machine.name().into(),
        policy: ArbitrationPolicy::FairShare,
        frames: vec![WireFrame::Request {
            epoch: 0,
            json: "{\"op\":\"register\",\"tenant\":\"a\",\"priority\":\"normal\"}".into(),
        }],
    };
    let report = replay(&snap, &log, machine, attrs).expect("replays");
    assert_eq!(report.state_matched, None);
    assert!(!report.verified());
    assert_eq!(report.requests, 1);
}

/// A decoded snapshot whose manager region does not place exactly its
/// size is refused with a typed error; before, the restored broker's
/// next migration of that region underflowed under the ledger lock.
#[test]
fn regions_that_do_not_place_their_size_are_refused() {
    use hetmem_alloc::{AllocRequest, Fallback};
    use hetmem_core::discovery;
    use hetmem_service::{ArbitrationPolicy, TenantSpec};
    use hetmem_topology::GIB;

    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("firmware"));
    let broker = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::Fcfs);
    let tenant = broker.register(TenantSpec::new("t")).expect("registers");
    let req = AllocRequest::new(GIB).fallback(Fallback::Strict);
    let _lease = broker.acquire(tenant, &req).expect("admitted");
    let snapshot = Snapshot::capture(&broker, None);
    let bytes = snapshot.encode();
    assert!(Snapshot::decode(&bytes).unwrap().restore(machine.clone(), attrs.clone()).is_ok());

    for size in [GIB / 2, 2 * GIB] {
        let mut bad = snapshot.clone();
        bad.state.manager.regions[0].size = size;
        let decoded = Snapshot::decode(&bad.encode()).expect("decodes");
        assert_eq!(decoded.state.manager.regions[0].size, size);
        match decoded.restore(machine.clone(), attrs.clone()) {
            Err(SnapshotError::Restore(why)) => assert!(why.contains("not its size"), "{why}"),
            other => panic!("size {size} restored: {:?}", other.map(|_| ())),
        }
    }
}
