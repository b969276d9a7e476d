use super::guidance::GuidedConfig;
use super::*;
use hetmem_alloc::Fallback;
use hetmem_core::discovery;
use hetmem_memsim::{AccessPattern, BufferAccess, PAGE_SIZE};
use hetmem_topology::{GIB, MIB};
use proptest::prelude::*;

fn knl_broker(policy: ArbitrationPolicy) -> Broker {
    knl_member(policy, false)
}

/// A KNL broker arbitrating every node, or a federation member
/// owning two DRAM and two MCDRAM nodes.
fn knl_member(policy: ArbitrationPolicy, sharded: bool) -> Broker {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    if !sharded {
        return Broker::new(machine, attrs, policy);
    }
    let shard: BTreeSet<NodeId> = [0, 1, 4, 5].into_iter().map(NodeId).collect();
    Broker::with_shard(machine, attrs, policy, 1, &shard)
}

fn bw_request(bytes: u64) -> AllocRequest {
    AllocRequest::new(bytes).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill)
}

/// The guarantee formula as admission evaluated it per request
/// before the registry snapshot precomputed it: a tenant's
/// reservation plus its weight-proportional share of the
/// unreserved tier, summed from the whole registry on every call.
fn reference_guarantee(
    broker: &Broker,
    registry: &Registry,
    id: TenantId,
    kind: MemoryKind,
) -> u64 {
    let capacity = broker.tier_capacity.get(&kind).copied().unwrap_or(0);
    let reserved: u64 =
        registry.iter().map(|(_, t)| t.reserve.get(&kind).copied().unwrap_or(0)).sum();
    let weights: u64 = registry.iter().map(|(_, t)| t.priority.weight()).sum();
    let Some(me) = registry.get(id) else {
        return 0;
    };
    let my_reserve = me.reserve.get(&kind).copied().unwrap_or(0);
    let unreserved = capacity.saturating_sub(reserved);
    let share = if weights == 0 {
        0
    } else {
        (unreserved as u128 * me.priority.weight() as u128 / weights as u128) as u64
    };
    my_reserve + share
}

/// Bytes each tenant holds on each node.
type NodeHoldings = BTreeMap<NodeId, BTreeMap<TenantId, u64>>;

/// The per-tenant shortfall loop admission ran before
/// [`Broker::tier_snapshots`]: every other tenant's guarantee and
/// holdings recomputed per candidate tier, O(tenants²), from
/// per-node holdings `held` rather than the ledger's tier rows.
fn reference_tier_snapshots(
    broker: &Broker,
    registry: &Registry,
    tenant: TenantId,
    ledger: &Ledger,
    held: &NodeHoldings,
    ranked: &[NodeId],
) -> BTreeMap<MemoryKind, TierSnapshot> {
    let tiers: BTreeSet<MemoryKind> = ranked.iter().map(|n| broker.node_kind[n]).collect();
    let tier_nodes = |kind: MemoryKind| {
        broker.node_kind.iter().filter(move |&(_, &k)| k == kind).map(|(&n, _)| n)
    };
    let tier_free =
        |kind: MemoryKind| tier_nodes(kind).map(|n| ledger.mm.available(n)).sum::<u64>();
    let tier_used_by = |kind: MemoryKind, who: TenantId| {
        tier_nodes(kind).filter_map(|n| held.get(&n)?.get(&who).copied()).sum::<u64>()
    };
    let mut snapshots = BTreeMap::new();
    for kind in tiers {
        let others_shortfall: u64 = registry
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| id != tenant)
            .map(|id| {
                reference_guarantee(broker, registry, id, kind)
                    .saturating_sub(tier_used_by(kind, id))
            })
            .sum();
        snapshots.insert(
            kind,
            TierSnapshot {
                free: tier_free(kind),
                used_by_requester: tier_used_by(kind, tenant),
                guarantee: reference_guarantee(broker, registry, tenant, kind),
                others_shortfall,
                quota: registry.get(tenant).expect("registered").quota.get(&kind).copied(),
            },
        );
    }
    snapshots
}

/// `TierSnapshot` fields in a comparable form.
type SnapshotFields = Vec<(MemoryKind, u64, u64, u64, u64, Option<u64>)>;

fn fields(snapshots: &BTreeMap<MemoryKind, TierSnapshot>) -> SnapshotFields {
    snapshots
        .iter()
        .map(|(&k, s)| (k, s.free, s.used_by_requester, s.guarantee, s.others_shortfall, s.quota))
        .collect()
}

const PRIORITIES: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Latency];
const POLICIES: [ArbitrationPolicy; 3] =
    [ArbitrationPolicy::FairShare, ArbitrationPolicy::Fcfs, ArbitrationPolicy::StaticPartition];

/// Registers one generated tenant: priority, and optional HBM/DRAM
/// reservation and quota in MiB (0 = none). Oversubscribing
/// reservations are refused, as they would be in service.
fn register_generated(
    broker: &Broker,
    i: usize,
    (p, reserve, quota, kind): (usize, u64, u64, bool),
) {
    let kind = if kind { MemoryKind::Hbm } else { MemoryKind::Dram };
    let mut spec = TenantSpec::new(format!("t{i}")).priority(PRIORITIES[p % 3]);
    if reserve > 0 {
        spec = spec.reserve(kind, reserve * MIB);
    }
    if quota > 0 {
        spec = spec.quota(kind, quota * MIB);
    }
    let _ = broker.register(spec);
}

/// Checks the snapshot path against the reference for one acquire
/// of `tenant`, under the same locks, then runs the acquire and
/// checks it against the plan the reference snapshots produce.
fn acquire_matches_reference(
    broker: &Broker,
    tenant: TenantId,
    req: &AllocRequest,
) -> Result<Option<Lease>, String> {
    let registry = broker.registry();
    let Some(me) = registry.index(tenant) else {
        return Err(format!("{tenant} not registered"));
    };
    let (_, ranked) = broker.rank_candidates(req).map_err(|e| e.to_string())?;
    let expected = {
        let held = broker.leases.lock().unwrap().held();
        let ledger = broker.ledger.lock().unwrap();
        let fast = broker.tier_snapshots(&registry, me, &ledger, &ranked);
        let reference =
            reference_tier_snapshots(broker, &registry, tenant, &ledger, &held, &ranked);
        prop_assert_eq!(fields(&fast), fields(&reference));
        let plan = |snapshots| {
            let mut policy = TierPolicy::new(broker.policy, &broker.node_kind, snapshots);
            broker.placer.plan(
                &PlanRequest {
                    size: req.size(),
                    mode: req.get_fallback().as_telemetry(),
                    page_quantize: false,
                },
                &ranked,
                |n| ledger.mm.available(n),
                &mut policy,
            )
        };
        let expected = plan(reference);
        prop_assert_eq!(plan(fast), expected.clone());
        expected
    };
    match broker.acquire(tenant, req) {
        Ok(lease) => {
            prop_assert!(expected.is_complete(), "granted an incomplete plan: {expected:?}");
            let planned: Vec<(NodeId, u64)> = expected
                .chunks
                .iter()
                .map(|&(n, b)| (n, b.div_ceil(PAGE_SIZE) * PAGE_SIZE))
                .filter(|&(_, b)| b > 0)
                .collect();
            prop_assert_eq!(lease.placement(), &planned[..]);
            Ok(Some(lease))
        }
        Err(ServiceError::Admission { requested, granted }) => {
            prop_assert!(!expected.is_complete(), "denied a complete plan: {expected:?}");
            prop_assert_eq!((requested, granted), (req.size(), req.size() - expected.shortfall));
            Ok(None)
        }
        // Page rounding can overflow a nearly-full node at commit;
        // that happens to the reference plan just the same.
        Err(ServiceError::Commit(_)) if expected.is_complete() => Ok(None),
        Err(e) => Err(format!("unexpected error {e}")),
    }
}

/// [`Broker::heartbeat`] as it ran before the lease table kept a
/// per-tenant view, a walk over every lease, applied to a copy of the
/// table: the renewed count and every lease's deadline afterwards.
fn reference_heartbeat(
    broker: &Broker,
    tenant: TenantId,
) -> Result<(u64, BTreeMap<LeaseId, Option<u64>>), ServiceError> {
    if broker.registry().index(tenant).is_none() {
        return Err(ServiceError::UnknownTenant(format!("{tenant}")));
    }
    let now = broker.epoch.load(Ordering::SeqCst);
    let mut records = broker.leases.lock().unwrap().records.clone();
    let mut renewed = 0;
    for record in records.values_mut() {
        if record.tenant == tenant {
            if let Some(t) = record.ttl {
                record.expires_at = Some(now.saturating_add(t));
                renewed += 1;
            }
        }
    }
    Ok((renewed, records.iter().map(|(&id, r)| (id, r.expires_at)).collect()))
}

/// The guided fold's region views as it built them before the
/// per-tenant view, a walk over every lease, each with its lease id.
fn reference_tenant_views(
    broker: &Broker,
    tenant: TenantId,
) -> Vec<(LeaseId, hetmem_guidance::RegionView)> {
    let leases = broker.leases.lock().unwrap();
    leases
        .records
        .iter()
        .filter(|(_, r)| r.tenant == tenant)
        .map(|(&id, r)| {
            let view = hetmem_guidance::RegionView {
                id: r.region,
                size: r.placement.iter().map(|&(_, b)| b).sum(),
                on_target: r
                    .placement
                    .iter()
                    .filter(|(n, _)| broker.node_kind.get(n) == Some(&broker.fast_kind))
                    .map(|&(_, b)| b)
                    .sum(),
            };
            (id, view)
        })
        .collect()
}

/// Heartbeats `tenant` and checks the renewed count and every live
/// lease's deadline against the reference walk.
fn heartbeat_matches_reference(broker: &Broker, tenant: TenantId) -> Result<(), String> {
    let expected = reference_heartbeat(broker, tenant);
    let renewed = broker.heartbeat(tenant);
    let (count, deadlines) = match (renewed, expected) {
        (Ok(renewed), Ok((count, deadlines))) => {
            prop_assert_eq!(renewed, count, "{} renewed", tenant);
            (count, deadlines)
        }
        (renewed, expected) => {
            prop_assert_eq!(renewed.err(), expected.err());
            return Ok(());
        }
    };
    prop_assert_eq!(broker.live_leases(), deadlines.len(), "{} leases renewed", count);
    for (id, deadline) in deadlines {
        prop_assert_eq!(broker.lease_deadline(id), deadline, "{}", id);
    }
    Ok(())
}

/// Every registered tenant's fold views (lease ids, regions, sizes,
/// fast bytes, order) equal the reference walk's.
fn views_match_reference(broker: &Broker) -> Result<(), String> {
    let registry = broker.registry();
    for (index, (tenant, _)) in registry.iter().enumerate() {
        let views = broker.tenant_views(index);
        let indexed: Vec<_> = views.ids.iter().copied().zip(views.views).collect();
        prop_assert_eq!(indexed, reference_tenant_views(broker, tenant), "{}", tenant);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random registries (1–64 tenants, mixed priorities, reserves
    /// and quotas) over random per-node free bytes and holdings: the
    /// precomputed snapshot path gives every tenant the reference
    /// snapshots.
    #[test]
    fn tier_snapshots_match_the_reference_on_random_holdings(
        tenants in prop::collection::vec((0usize..3, 0u64..2048, 0u64..4096, any::<bool>()), 1..65),
        holdings in prop::collection::vec((0usize..8, 0usize..70, 0u64..(4 * GIB)), 0..160),
        frees in prop::collection::vec(0u64..(8 * GIB), 8..9),
        policy in prop::sample::select(POLICIES.to_vec()),
        sharded in any::<bool>(),
    ) {
        let broker = knl_member(policy, sharded);
        for (i, &t) in tenants.iter().enumerate() {
            register_generated(&broker, i, t);
        }
        let mut ledger = broker.ledger.lock().unwrap();
        let nodes: Vec<NodeId> = broker.shard().into_iter().collect();
        // Holdings may name ids past the registry (a tenant that
        // registered after the snapshot was taken). Ids are issued in
        // order from 0, so a tenant's registry index is its id.
        let mut held = NodeHoldings::new();
        for &(node, tenant, bytes) in &holdings {
            let node = nodes[node % nodes.len()];
            ledger.settle(tenant, &[(node, bytes)], true);
            *held.entry(node).or_default().entry(TenantId(tenant as u32)).or_insert(0) += bytes;
        }
        // Free bytes are the manager's: a filler region takes each
        // node down to its drawn free bytes (modulo its capacity).
        for (&node, &free) in nodes.iter().zip(&frees) {
            let capacity = ledger.mm.available(node);
            let filler = capacity - free % (capacity + 1);
            if filler > 0 {
                ledger.mm.alloc(filler, AllocPolicy::Exact(vec![(node, filler)])).unwrap();
            }
        }
        let registry = broker.registry();
        for (me, (id, _)) in registry.iter().enumerate() {
            prop_assert_eq!(
                fields(&broker.tier_snapshots(&registry, me, &ledger, &nodes)),
                fields(&reference_tier_snapshots(&broker, &registry, id, &ledger, &held, &nodes)),
                "tenant {id}"
            );
        }
    }

    /// Interleaved register / acquire / release on a live broker
    /// (standalone or a federation member): every acquire sees the
    /// reference snapshots and grants what the reference plan does.
    #[test]
    fn acquire_outcomes_match_the_reference(
        ops in prop::collection::vec(
            (0u8..10, (0usize..3, 0u64..2048, 0u64..4096, any::<bool>()), 0usize..64, 1u64..4096, 0u8..4),
            1..120,
        ),
        policy in prop::sample::select(POLICIES.to_vec()),
        sharded in any::<bool>(),
    ) {
        let broker = knl_member(policy, sharded);
        let mut leases: Vec<Lease> = Vec::new();
        let mut registered = 0usize;
        for (op, spec, who, mib, shape) in ops {
            let tenants = broker.tenants();
            if op < 2 || tenants.is_empty() {
                register_generated(&broker, registered, spec);
                registered += 1;
            } else if op < 8 {
                let tenant = tenants[who % tenants.len()].id;
                let criterion = if shape & 1 == 0 { attr::BANDWIDTH } else { attr::CAPACITY };
                let fallback =
                    if shape & 2 == 0 { Fallback::PartialSpill } else { Fallback::NextTarget };
                let req = AllocRequest::new(mib * MIB).criterion(criterion).fallback(fallback);
                if let Some(lease) = acquire_matches_reference(&broker, tenant, &req)? {
                    leases.push(lease);
                }
            } else if !leases.is_empty() {
                let lease = leases.swap_remove(who % leases.len());
                broker.release(lease).expect("release");
            }
        }
        broker.check_invariants().map_err(|e| e.to_string())?;
        for lease in leases {
            broker.release(lease).expect("release");
        }
    }

    /// Every path that settles the ledger or the lease table,
    /// interleaved on a guided broker (standalone or a federation
    /// member): acquire, release, guided migration, served phases with
    /// the epoch turnover's expiry and fold, revocation, heartbeats,
    /// and a snapshot → restore round trip that carries on with the
    /// restored broker and heartbeats it. After every step the per-tier
    /// view and each node's manager use agree with the live leases,
    /// the lease table's per-tenant view with its records, and every
    /// tenant's fold views with the reference walk over every lease;
    /// each heartbeat renews what the reference walk renews.
    #[test]
    fn the_tier_view_follows_every_ledger_path(
        tenants in prop::collection::vec((0usize..3, 0u64..2048, 0u64..4096, any::<bool>()), 1..12),
        ops in prop::collection::vec((0u8..9, 0usize..64, 1u64..4096), 1..60),
        sharded in any::<bool>(),
    ) {
        let guided = GuidedConfig {
            policy: hetmem_guidance::GuidancePolicy { window_bytes: GIB, ..Default::default() },
            ..Default::default()
        };
        let mut broker = knl_member(ArbitrationPolicy::FairShare, sharded);
        broker.enable_guidance(guided);
        for (i, &t) in tenants.iter().enumerate() {
            register_generated(&broker, i, t);
        }
        let ids: Vec<TenantId> = broker.tenants().iter().map(|t| t.id).collect();
        let nodes: Vec<NodeId> = broker.shard().into_iter().collect();
        let mut leases: Vec<Lease> = Vec::new();
        for (op, who, mib) in ops {
            let tenant = ids[who % ids.len()];
            match op {
                0..=2 => {
                    let criterion = if op == 2 { attr::CAPACITY } else { attr::BANDWIDTH };
                    let req = AllocRequest::new(mib * MIB)
                        .criterion(criterion)
                        .fallback(Fallback::PartialSpill);
                    let ttl = Some(1 + mib % 4);
                    if let Ok(lease) = broker.acquire_with_ttl(tenant, &req, ttl) {
                        leases.push(lease);
                    }
                }
                // An expired lease is already gone: `UnknownLease`.
                3 if !leases.is_empty() => {
                    let _ = broker.release(leases.swap_remove(who % leases.len()));
                }
                4 if !leases.is_empty() => {
                    let _ = broker.revoke(leases.swap_remove(who % leases.len()).id(), "operator");
                }
                5 if !leases.is_empty() => {
                    let lease = leases[who % leases.len()].id();
                    let _ = broker.migrate_lease(lease, nodes[mib as usize % nodes.len()]);
                }
                6 => {
                    let live: Vec<BufferAccess> = leases
                        .iter()
                        .filter(|l| l.tenant() == tenant && broker.placement(l.id()).is_some())
                        .map(|l| {
                            BufferAccess::new(l.region(), 2 * l.size(), 0, AccessPattern::Sequential)
                        })
                        .collect();
                    if !live.is_empty() {
                        let phase = Phase {
                            name: "hot".into(),
                            accesses: live,
                            threads: 16,
                            initiator: "0-15".parse().expect("cpuset"),
                            compute_ns: 0.0,
                        };
                        broker.run_phase(tenant, &phase).map_err(|e| e.to_string())?;
                    }
                    // Expiry, then the guided fold.
                    broker.advance_epoch();
                }
                7 => {
                    let state = broker.snapshot_state();
                    let machine = broker.machine().clone();
                    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
                    let mut restored =
                        Broker::restore(machine, attrs, &state).map_err(|e| e.to_string())?;
                    prop_assert_eq!(restored.snapshot_state(), state);
                    restored.enable_guidance(guided);
                    broker = restored;
                    // The per-tenant view was rebuilt from the capture.
                    heartbeat_matches_reference(&broker, tenant)?;
                }
                8 => heartbeat_matches_reference(&broker, tenant)?,
                _ => {}
            }
            broker.check_invariants().map_err(|e| format!("after op {op}: {e}"))?;
            views_match_reference(&broker)?;
        }
        for lease in leases {
            let _ = broker.release(lease);
        }
        prop_assert_eq!(broker.live_leases(), 0);
        broker.check_invariants().map_err(|e| e.to_string())?;
    }
}

#[test]
fn registering_a_tenant_reshapes_every_guarantee_from_the_next_acquire() {
    // Two identical brokers with leases outstanding; one gains a
    // third tenant, and from the next acquire on every other
    // tenant plans against the smaller guarantees.
    let brokers =
        [knl_broker(ArbitrationPolicy::FairShare), knl_broker(ArbitrationPolicy::FairShare)];
    for broker in &brokers {
        let a = broker.register(TenantSpec::new("a")).expect("register");
        let b = broker.register(TenantSpec::new("b")).expect("register");
        // Both leases stay held for the rest of the test.
        let _ = broker.acquire(a, &bw_request(2 * GIB)).expect("admitted");
        let _ = broker.acquire(b, &bw_request(GIB)).expect("admitted");
    }
    let [before, after] = &brokers;
    let (a, b) = (TenantId(0), TenantId(1));
    let floors = |broker: &Broker| {
        let registry = broker.registry();
        registry.guarantees(MemoryKind::Hbm).to_vec()
    };
    let hbm = before.tier_capacity[&MemoryKind::Hbm];
    assert_eq!(floors(before), vec![hbm / 2, hbm / 2]);

    let c = after.register(TenantSpec::new("c").priority(Priority::Latency)).expect("register");
    let registry = after.registry();
    let reshaped = floors(after);
    for id in [a, b, c] {
        let floor = reshaped[registry.index(id).expect("registered")];
        assert_eq!(floor, reference_guarantee(after, &registry, id, MemoryKind::Hbm));
    }
    assert_eq!(reshaped[..2], [hbm / 4, hbm / 4], "weights 2:2:4 quarter a and b");

    // A hog request from `a` must now leave c's whole unclaimed
    // guarantee (hbm/2) free besides b's, which shrank by hbm/4:
    // it gets hbm/4 fewer fast bytes, up to page rounding.
    let hog = |broker: &Broker| broker.acquire(a, &bw_request(15 * GIB)).expect("spills");
    let (wide, narrow) = (hog(before), hog(after));
    let lost = wide.fast_bytes() - narrow.fast_bytes();
    assert!(lost.abs_diff(hbm / 4) <= 8 * PAGE_SIZE, "{wide:?} vs {narrow:?}");
    assert!(after.tenants().iter().any(|t| t.id == a && t.clamps > 0), "the hog is clamped");
    for (broker, lease) in [(before, wide), (after, narrow)] {
        broker.release(lease).expect("release");
        broker.check_invariants().expect("clean");
    }
}

#[test]
fn phase_over_an_expired_lease_is_refused_and_the_broker_keeps_serving() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t").lease_ttl(1)).expect("register");
    let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    let region = lease.region();
    std::mem::forget(lease);
    broker.advance_epoch(); // TTL 1: reclaimed
    assert_eq!(broker.live_leases(), 0);
    let phase = Phase {
        name: "stale".into(),
        accesses: vec![BufferAccess::new(region, GIB, 0, AccessPattern::Sequential)],
        threads: 16,
        initiator: "0-15".parse().expect("cpuset"),
        compute_ns: 0.0,
    };
    let err = broker.run_phase(t, &phase).expect_err("the region is gone");
    assert_eq!(err, ServiceError::UnknownRegion(region.0));
    assert_eq!(err.code(), "unknown_region");
    let next = broker.acquire(t, &bw_request(GIB)).expect("the broker still serves");
    broker.release(next).expect("release");
    broker.check_invariants().expect("clean");
}

#[test]
fn fast_tier_is_hbm_on_knl() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    assert_eq!(broker.fast_kind(), MemoryKind::Hbm);
}

#[test]
fn snapshot_state_roundtrips_through_restore() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let a = broker
        .register(TenantSpec::new("a").priority(Priority::Latency).lease_ttl(4))
        .expect("register");
    let b =
        broker.register(TenantSpec::new("b").quota(MemoryKind::Hbm, 2 * GIB)).expect("register");
    let r = broker
        .register(TenantSpec::new("r").priority(Priority::Batch).reserve(MemoryKind::Hbm, 4 * GIB))
        .expect("register");
    let la = broker.acquire(a, &bw_request(3 * GIB)).expect("admitted");
    let _lb = broker.acquire(b, &bw_request(4 * GIB)).expect("admitted");
    // Fair share clamps the hog: b's and r's unclaimed guarantees
    // stay free.
    let _hog = broker.acquire(a, &bw_request(12 * GIB)).expect("spills");
    let clamps = |broker: &Broker| broker.tenants()[a.0 as usize].clamps;
    assert!(clamps(&broker) > 0, "the hog is clamped");
    broker.advance_epoch();
    broker.advance_epoch();
    broker.set_tier_degraded(MemoryKind::Dram, true);
    broker.set_alloc_stall(3);

    let state = broker.snapshot_state();
    let machine = broker.machine().clone();
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let restored = Broker::restore(machine, attrs, &state).expect("restore");

    // The restored broker captures back to the identical state,
    // and behaves the same going forward.
    assert_eq!(restored.snapshot_state(), state);
    assert_eq!(restored.epoch(), broker.epoch());
    assert_eq!(restored.live_leases(), broker.live_leases());
    assert!(restored.tier_degraded(MemoryKind::Dram));
    assert!(matches!(restored.acquire(a, &bw_request(GIB)), Err(ServiceError::Stalled)));
    assert_eq!(
        restored.placement(la.id()).expect("lease survives"),
        broker.placement(la.id()).expect("lease alive")
    );
    // Lease ids continue from the snapshot's issue counter.
    for _ in 0..3 {
        restored.advance_epoch();
        broker.advance_epoch();
    }
    let fresh_r = restored.acquire(b, &bw_request(GIB)).expect("admitted");
    let fresh_o = broker.acquire(b, &bw_request(GIB)).expect("admitted");
    assert_eq!(fresh_r.id(), fresh_o.id());
    // The restored registry carries the same guarantees: the
    // reserving tenant and another clamped hog are granted alike.
    let before = clamps(&broker);
    for (tenant, bytes) in [(r, 4 * GIB), (a, 12 * GIB), (b, GIB)] {
        let grant = |broker: &Broker| {
            broker
                .acquire(tenant, &bw_request(bytes))
                .map(|l| (l.id(), l.size(), l.fast_bytes(), l.placement().to_vec()))
        };
        assert_eq!(grant(&restored), grant(&broker), "{tenant}");
    }
    assert!(clamps(&broker) > before, "the second hog is clamped too");
    assert_eq!(clamps(&restored), clamps(&broker));
    assert_eq!(restored.snapshot_state(), broker.snapshot_state());
}

#[test]
fn restore_rejects_inconsistent_state() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("a")).expect("register");
    let _lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    let state = broker.snapshot_state();
    let machine = broker.machine().clone();
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let restore = |s: &BrokerState| Broker::restore(machine.clone(), attrs.clone(), s);

    let mut bad = state.clone();
    bad.machine = "xeon-2lm".to_string();
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let mut bad = state.clone();
    bad.leases[0].tenant = 99;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let mut bad = state.clone();
    bad.leases[0].region = 99;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let mut bad = state.clone();
    bad.stripes[0].free += 1;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let mut bad = state.clone();
    bad.next_tenant = 0;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    // Holdings that disagree with the leases: a stripe charging more
    // than the tenant's leases hold there, a lease whose placement is
    // not its region's, and the same lease with its stripe shrunk to
    // match it.
    let charged = |s: &StripeEntry| !s.used_by.is_empty();
    let mut bad = state.clone();
    bad.stripes.iter_mut().find(|s| charged(s)).expect("a charged node").used_by[0].1 += 4096;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let mut bad = state.clone();
    bad.leases[0].placement[0].1 -= 4096;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    let node = bad.leases[0].placement[0].0;
    bad.stripes.iter_mut().find(|s| s.node == node).expect("the lease's node").used_by[0].1 -= 4096;
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    // A region no lease names: the lease and its stripe charges are
    // gone, but the manager still holds the region.
    let mut bad = state.clone();
    bad.leases.clear();
    for stripe in &mut bad.stripes {
        stripe.used_by.clear();
    }
    assert!(matches!(restore(&bad), Err(ServiceError::Snapshot(_))));

    assert!(restore(&state).is_ok());
}

#[test]
fn unknown_tenant_is_rejected() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let err = broker.acquire(TenantId(9), &bw_request(GIB)).unwrap_err();
    assert!(matches!(err, ServiceError::UnknownTenant(_)));
}

#[test]
fn duplicate_names_are_rejected() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    broker.register(TenantSpec::new("a")).expect("first");
    assert!(matches!(broker.register(TenantSpec::new("a")), Err(ServiceError::DuplicateTenant(_))));
}

#[test]
fn oversubscribed_reservations_are_rejected() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    broker.register(TenantSpec::new("a").reserve(MemoryKind::Hbm, 12 * GIB)).expect("fits");
    let err = broker.register(TenantSpec::new("b").reserve(MemoryKind::Hbm, 8 * GIB)).unwrap_err();
    assert!(matches!(err, ServiceError::Reservation { .. }));
}

#[test]
fn a_reservation_that_overflows_the_reserved_sum_is_refused() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    broker.register(TenantSpec::new("a").reserve(MemoryKind::Hbm, 256 * MIB)).expect("fits");
    let huge = u64::MAX - MIB;
    let err = broker.register(TenantSpec::new("b").reserve(MemoryKind::Hbm, huge)).unwrap_err();
    assert!(
        matches!(err, ServiceError::Reservation { requested, .. } if requested == huge),
        "{err:?}"
    );
    // The registry is not poisoned: the broker keeps registering and
    // admitting.
    let c = broker.register(TenantSpec::new("c")).expect("register");
    let lease = broker.acquire(c, &bw_request(GIB)).expect("admitted");
    broker.release(lease).expect("release");
    broker.check_invariants().expect("clean");
}

#[test]
fn fcfs_lets_one_tenant_take_the_whole_fast_tier() {
    let broker = knl_broker(ArbitrationPolicy::Fcfs);
    let hog = broker.register(TenantSpec::new("hog")).expect("register");
    let victim = broker.register(TenantSpec::new("victim")).expect("register");
    // KNL has ~15.3 GiB of HBM across four MCDRAM nodes.
    let lease = broker.acquire(hog, &bw_request(15 * GIB)).expect("admitted");
    assert!(lease.fast_bytes() >= 14 * GIB, "{lease:?}");
    // The victim now gets almost no fast bytes.
    let l2 = broker.acquire(victim, &bw_request(2 * GIB)).expect("spills to DRAM");
    assert!(l2.fast_bytes() < GIB, "{l2:?}");
    broker.release(lease).expect("release");
    broker.release(l2).expect("release");
    broker.check_invariants().expect("clean");
}

#[test]
fn fair_share_clamps_the_hog_and_protects_the_victim() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let hog = broker.register(TenantSpec::new("hog")).expect("register");
    let victim = broker.register(TenantSpec::new("victim")).expect("register");
    // Equal weights: each is guaranteed ~half the HBM tier. The
    // hog may not borrow the victim's unclaimed guarantee.
    let lease = broker.acquire(hog, &bw_request(15 * GIB)).expect("spills");
    let half_tier = broker.tier_capacity[&MemoryKind::Hbm] / 2;
    assert!(
        lease.fast_bytes() <= half_tier + GIB / 4,
        "hog took {} of guarantee {half_tier}",
        lease.fast_bytes()
    );
    // The victim's guarantee is still there.
    let l2 = broker.acquire(victim, &bw_request(6 * GIB)).expect("admitted");
    assert!(l2.fast_bytes() >= 6 * GIB - GIB / 4, "{l2:?}");
    broker.release(lease).expect("release");
    broker.release(l2).expect("release");
    broker.check_invariants().expect("clean");
}

#[test]
fn fair_share_borrows_when_tier_is_otherwise_idle() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let solo = broker.register(TenantSpec::new("solo")).expect("register");
    // A single registered tenant's shortfall set is empty, so it
    // may borrow the whole tier: work-conserving.
    let lease = broker.acquire(solo, &bw_request(14 * GIB)).expect("admitted");
    assert!(lease.fast_bytes() >= 14 * GIB, "{lease:?}");
    broker.release(lease).expect("release");
}

#[test]
fn static_partition_never_borrows() {
    let broker = knl_broker(ArbitrationPolicy::StaticPartition);
    let solo = broker.register(TenantSpec::new("solo")).expect("register");
    let lease = broker.acquire(solo, &bw_request(15 * GIB)).expect("spills");
    // Sole tenant, full weight — but a static partition of one is
    // still the whole tier, so compare against a second tenant.
    broker.release(lease).expect("release");
    let other = broker.register(TenantSpec::new("other")).expect("register");
    let _ = other;
    let half_tier = broker.tier_capacity[&MemoryKind::Hbm] / 2;
    let lease = broker.acquire(solo, &bw_request(15 * GIB)).expect("spills");
    assert!(lease.fast_bytes() <= half_tier + GIB / 4, "{lease:?}");
    broker.release(lease).expect("release");
    broker.check_invariants().expect("clean");
}

#[test]
fn quota_caps_even_an_idle_tier() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let capped =
        broker.register(TenantSpec::new("capped").quota(MemoryKind::Hbm, GIB)).expect("register");
    let lease = broker.acquire(capped, &bw_request(4 * GIB)).expect("spills");
    assert!(lease.fast_bytes() <= GIB, "{lease:?}");
    broker.release(lease).expect("release");
}

#[test]
fn strict_fallback_fails_rather_than_spill() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    let req = AllocRequest::new(40 * GIB).criterion(attr::BANDWIDTH).fallback(Fallback::Strict);
    let err = broker.acquire(t, &req).unwrap_err();
    assert!(matches!(err, ServiceError::Admission { .. }));
    assert_eq!(broker.live_leases(), 0);
    broker.check_invariants().expect("nothing committed");
}

#[test]
fn a_request_whose_size_fills_a_u64_is_refused() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    let outcome = broker.acquire(t, &bw_request(u64::MAX));
    assert!(
        matches!(outcome, Err(ServiceError::Admission { requested: u64::MAX, .. })),
        "{outcome:?}"
    );
    // The ledger is not poisoned: the broker keeps serving.
    let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    broker.release(lease).expect("release");
    broker.check_invariants().expect("nothing leaked");
}

#[test]
fn release_by_unknown_id_errors() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    assert!(matches!(broker.release_by_id(LeaseId(42)), Err(ServiceError::UnknownLease(42))));
}

#[test]
fn ttl_lease_expires_after_silence_and_quota_returns() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t").lease_ttl(3)).expect("register");
    let lease = broker.acquire(t, &bw_request(2 * GIB)).expect("admitted");
    let id = lease.id();
    std::mem::forget(lease); // the client "crashes" holding it
    assert_eq!(broker.lease_deadline(id), Some(3));
    broker.advance_epoch();
    broker.advance_epoch();
    assert_eq!(broker.live_leases(), 1, "not expired yet");
    broker.advance_epoch(); // epoch 3 == deadline: reclaimed
    assert_eq!(broker.live_leases(), 0, "expired within one TTL");
    let stats = broker.robustness();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.reclaimed_bytes, 2 * GIB);
    broker.check_invariants().expect("clean after reclaim");
    // The quota really is back: the full tier is free again.
    for (node, used, _) in broker.node_usage() {
        assert_eq!(used, 0, "{node:?} still charged");
    }
}

#[test]
fn renewal_and_heartbeat_keep_a_lease_alive() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t").lease_ttl(2)).expect("register");
    let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    let id = lease.id();
    for _ in 0..5 {
        broker.advance_epoch();
        assert_eq!(broker.renew(t, id).expect("renew"), Some(broker.epoch() + 2));
    }
    assert_eq!(broker.live_leases(), 1, "renewals held the lease");
    for _ in 0..5 {
        broker.advance_epoch();
        assert_eq!(broker.heartbeat(t).expect("heartbeat"), 1);
    }
    assert_eq!(broker.live_leases(), 1, "heartbeats held the lease");
    // Silence for a full TTL kills it.
    broker.advance_epoch();
    broker.advance_epoch();
    assert_eq!(broker.live_leases(), 0);
    std::mem::forget(lease);
}

#[test]
fn cross_tenant_renew_is_refused_and_immortal_renew_is_noop() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let a = broker.register(TenantSpec::new("a").lease_ttl(4)).expect("register");
    let b = broker.register(TenantSpec::new("b")).expect("register");
    let la = broker.acquire(a, &bw_request(GIB)).expect("admitted");
    assert!(matches!(broker.renew(b, la.id()), Err(ServiceError::UnknownLease(_))));
    let lb = broker.acquire(b, &bw_request(GIB)).expect("admitted");
    assert_eq!(broker.renew(b, lb.id()).expect("renew"), None, "no TTL, nothing to reset");
    broker.release(la).expect("release");
    broker.release(lb).expect("release");
}

#[test]
fn revoke_reclaims_immediately_with_counters() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    let id = lease.id();
    std::mem::forget(lease);
    broker.revoke(id, "disconnect").expect("revoke");
    assert_eq!(broker.live_leases(), 0);
    assert_eq!(broker.robustness().revoked, 1);
    assert!(matches!(broker.revoke(id, "again"), Err(ServiceError::UnknownLease(_))));
    broker.check_invariants().expect("clean");
}

#[test]
fn degraded_fast_tier_falls_back_to_dram_and_recovers() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    broker.set_tier_degraded(MemoryKind::Hbm, true);
    assert!(broker.tier_degraded(MemoryKind::Hbm));
    // Bandwidth request with spill: would land on MCDRAM, but the
    // degraded tier is last-resort now — DRAM takes it, nothing
    // hard-fails.
    let lease = broker.acquire(t, &bw_request(2 * GIB)).expect("ranked fallback, not failure");
    assert_eq!(lease.fast_bytes(), 0, "degraded HBM must not be used while DRAM has room");
    broker.set_tier_degraded(MemoryKind::Hbm, false);
    let l2 = broker.acquire(t, &bw_request(2 * GIB)).expect("admitted");
    assert_eq!(l2.fast_bytes(), 2 * GIB, "recovery restores the bandwidth ranking");
    broker.release(lease).expect("release");
    broker.release(l2).expect("release");
}

#[test]
fn fully_degraded_machine_still_serves() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    broker.set_tier_degraded(MemoryKind::Hbm, true);
    broker.set_tier_degraded(MemoryKind::Dram, true);
    let lease = broker.acquire(t, &bw_request(GIB)).expect("last resort still serves");
    assert_eq!(lease.size(), GIB);
    broker.release(lease).expect("release");
}

#[test]
fn alloc_stall_is_typed_and_transient() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    broker.set_alloc_stall(2);
    let err = broker.acquire(t, &bw_request(GIB)).unwrap_err();
    assert!(matches!(err, ServiceError::Stalled));
    assert!(err.is_transient());
    broker.advance_epoch();
    assert!(matches!(broker.acquire(t, &bw_request(GIB)), Err(ServiceError::Stalled)));
    broker.advance_epoch();
    let lease = broker.acquire(t, &bw_request(GIB)).expect("stall window closed");
    broker.release(lease).expect("release");
}

#[test]
fn lifecycle_events_flow_through_the_sink() {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
    let sink = TelemetrySink::new();
    broker.set_sink(sink.clone());
    let t = broker.register(TenantSpec::new("t").lease_ttl(1)).expect("register");
    broker.set_tier_degraded(MemoryKind::Hbm, true);
    broker.set_tier_degraded(MemoryKind::Hbm, true); // no duplicate event
    let l1 = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    std::mem::forget(l1);
    broker.advance_epoch(); // expires l1
    let l2 = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    broker.revoke(l2.id(), "disconnect").expect("revoke");
    std::mem::forget(l2);
    let events: Vec<Event> = sink.collector().drain_sorted().into_iter().map(|e| e.event).collect();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "tier_degraded").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "lease_expired").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "lease_revoked").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "reclaim").count(), 2);
}

#[test]
fn attr_fallback_emits_event_through_the_broker() {
    // Firmware discovery has no ReadBandwidth values; the engine
    // serves the request via Bandwidth and the broker must say so
    // — the single-tenant allocator always did, the broker's old
    // hand-copied ranking never did.
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
    let sink = TelemetrySink::new();
    broker.set_sink(sink.clone());
    let t = broker.register(TenantSpec::new("t")).expect("register");
    let req =
        AllocRequest::new(GIB).criterion(attr::READ_BANDWIDTH).fallback(Fallback::PartialSpill);
    let lease = broker.acquire(t, &req).expect("admitted");
    let mut collector = sink.collector();
    assert!(collector.drain_sorted().iter().any(|e| matches!(
        &e.event,
        Event::AttrFallback(a)
            if a.requested == attr::READ_BANDWIDTH.0 && a.used == attr::BANDWIDTH.0
    )));
    broker.release(lease).expect("release");
    // A direct Bandwidth request does not fall back.
    let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
    let fallbacks = collector
        .drain_sorted()
        .iter()
        .filter(|e| matches!(e.event, Event::AttrFallback(_)))
        .count();
    assert_eq!(fallbacks, 0, "no further fallback after the first drain");
    broker.release(lease).expect("release");
}

#[test]
fn empty_initiator_is_a_typed_error() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let t = broker.register(TenantSpec::new("t")).expect("register");
    // Cpus 100-120 don't exist on the 64-CPU KNL.
    let alien: hetmem_bitmap::Bitmap = "100-120".parse().expect("cpuset");
    let req = bw_request(GIB).initiator(&alien);
    let err = broker.acquire(t, &req).expect_err("empty initiator");
    assert_eq!(err, ServiceError::EmptyInitiator);
    assert_eq!(err.code(), "empty_initiator");
    assert!(!err.is_transient());
}

#[test]
fn contention_charges_only_when_node_is_saturated() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let a = broker.register(TenantSpec::new("a")).expect("register");
    let b = broker.register(TenantSpec::new("b")).expect("register");
    let node = NodeId(4);
    // 1 ms window on a ~89.6 GB/s MCDRAM node: capacity ~94 MB.
    let window = 1e6;
    // Light traffic from both: no stall.
    assert_eq!(broker.charge_traffic(a, &[(node, 1 << 20)], window), 0.0);
    assert_eq!(broker.charge_traffic(b, &[(node, 1 << 20)], window), 0.0);
    broker.advance_epoch();
    // Saturating traffic from a, then b walks into it.
    assert_eq!(broker.charge_traffic(a, &[(node, 200 << 20)], window), 0.0);
    let stall = broker.charge_traffic(b, &[(node, 200 << 20)], window);
    assert!(stall > 0.0, "co-located saturation must stall");
    assert!(stall <= window * MAX_CONTENTION_SLOWDOWN);
    // New epoch: the board forgets.
    broker.advance_epoch();
    assert_eq!(broker.charge_traffic(b, &[(node, 200 << 20)], window), 0.0);
}
