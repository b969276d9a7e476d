//! Cross-crate property-based tests: allocator/manager conservation
//! invariants, engine monotonicity, planner optimality.

use hetmem::alloc::planner::{plan, PlanOrder, PlannedAlloc};
use hetmem::alloc::{AllocRequest, Fallback, HetAllocator};
use hetmem::core::{attr, discovery};
use hetmem::memsim::{
    AccessEngine, AccessPattern, AllocPolicy, BufferAccess, Machine, MemoryManager, Phase,
    PAGE_SIZE,
};
use hetmem::telemetry::{
    AllocDecision, AttrFallback, BatchCoalesced, BudgetExhausted, Candidate, ContentionStall,
    DigestMerged, Event, FallbackMode, FreeEvent, GuidanceDecision, Hop, HotPromoted, LeaseExpired,
    LeaseRevoked, Migration, NodeTrafficSample, OccupancyGauge, PhaseSpan, QuotaClamp, Reclaim,
    RetryExhausted, SampleRateChanged, Scope, ShardSteal, SpillForwarded, TenantAdmit,
    TierDegraded, TieringEvent,
};
use hetmem::{Bitmap, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

fn knl() -> Arc<Machine> {
    Arc::new(Machine::knl_snc4_flat())
}

/// Arbitrary alloc/free scripts against the memory manager.
#[derive(Debug, Clone)]
enum Op {
    Alloc { size: u64, policy_sel: u8, node: u8 },
    Free { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..8 * 1024 * 1024 * 1024u64, 0u8..4, 0u8..8)
            .prop_map(|(size, policy_sel, node)| Op::Alloc { size, policy_sel, node }),
        (0usize..32).prop_map(|idx| Op::Free { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capacity conservation: after any alloc/free script, per-node
    /// used + available == usable capacity, regions never overlap
    /// books, and freeing everything restores the initial state.
    #[test]
    fn memory_manager_conserves_capacity(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let machine = knl();
        let mut mm = MemoryManager::new(machine.clone());
        let initial: Vec<u64> =
            machine.topology().node_ids().iter().map(|&n| mm.available(n)).collect();
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { size, policy_sel, node } => {
                    let node = NodeId(node as u32);
                    let policy = match policy_sel {
                        0 => AllocPolicy::Bind(node),
                        1 => AllocPolicy::Preferred(node),
                        2 => AllocPolicy::Interleave(vec![NodeId(0), NodeId(4)]),
                        _ => AllocPolicy::PreferredMany(vec![NodeId(4), node]),
                    };
                    if let Ok(id) = mm.alloc(size, policy) {
                        live.push(id);
                        // Placement covers exactly the rounded size.
                        let r = mm.region(id).expect("live");
                        let placed: u64 = r.placement.iter().map(|&(_, b)| b).sum();
                        prop_assert_eq!(placed, r.size);
                        prop_assert_eq!(r.size % PAGE_SIZE, 0);
                    }
                }
                Op::Free { idx } => {
                    if !live.is_empty() {
                        let id = live.remove(idx % live.len());
                        prop_assert!(mm.free(id));
                    }
                }
            }
            // Invariant: books balance on every node, at every step.
            for (&node, &init) in machine.topology().node_ids().iter().zip(&initial) {
                prop_assert_eq!(mm.available(node) + mm.used(node), init);
            }
        }
        for id in live {
            prop_assert!(mm.free(id));
        }
        for (&node, &init) in machine.topology().node_ids().iter().zip(&initial) {
            prop_assert_eq!(mm.available(node), init);
        }
    }

    /// Engine monotonicity: more traffic never takes less time, and
    /// time is always positive and finite.
    #[test]
    fn engine_time_monotone_in_traffic(
        base_mib in 64u64..4096,
        extra_mib in 0u64..4096,
        threads in 1usize..20,
        pattern_sel in 0u8..4,
    ) {
        let machine = Arc::new(Machine::xeon_1lm_no_snc());
        let engine = AccessEngine::new(machine.clone());
        let mut mm = MemoryManager::new(machine);
        let region = mm.alloc(8 << 30, AllocPolicy::Bind(NodeId(0))).expect("fits");
        let pattern = match pattern_sel {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided,
            2 => AccessPattern::Random,
            _ => AccessPattern::PointerChase,
        };
        let mk = |mib: u64| Phase {
            name: "p".into(),
            accesses: vec![BufferAccess::new(region, mib << 20, 0, pattern)],
            threads,
            initiator: "0-19".parse().expect("cpuset"),
            compute_ns: 0.0,
        };
        let t1 = engine.run_phase(&mm, &mk(base_mib)).time_ns;
        let t2 = engine.run_phase(&mm, &mk(base_mib + extra_mib)).time_ns;
        prop_assert!(t1.is_finite() && t1 > 0.0);
        prop_assert!(t2 >= t1 * 0.999, "time decreased: {t1} -> {t2}");
    }

    /// Faster memory never loses: the same phase on MCDRAM is never
    /// slower than on the KNL cluster DRAM for bandwidth-bound
    /// streams.
    #[test]
    fn hbm_never_loses_streaming(mib in 64u64..2048, threads in 4usize..16) {
        let machine = knl();
        let engine = AccessEngine::new(machine.clone());
        let mut mm = MemoryManager::new(machine);
        let dram = mm.alloc(3 << 30, AllocPolicy::Bind(NodeId(0))).expect("fits");
        let hbm = mm.alloc(3 << 30, AllocPolicy::Bind(NodeId(4))).expect("fits");
        let mk = |region| Phase {
            name: "stream".into(),
            accesses: vec![BufferAccess::new(region, mib << 20, (mib << 20) / 2, AccessPattern::Sequential)],
            threads,
            initiator: "0-15".parse().expect("cpuset"),
            compute_ns: 0.0,
        };
        let t_dram = engine.run_phase(&mm, &mk(dram)).time_ns;
        let t_hbm = engine.run_phase(&mm, &mk(hbm)).time_ns;
        prop_assert!(t_hbm <= t_dram * 1.001, "HBM slower: {t_hbm} vs {t_dram}");
    }

    /// Planner optimality: under priority order, the highest-priority
    /// request always gets the best target if it could fit there alone.
    #[test]
    fn priority_planner_serves_highest_first(
        sizes in prop::collection::vec(256u64..3000, 2..6),
        prios in prop::collection::vec(0i32..100, 2..6),
    ) {
        let machine = knl();
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
        let mut alloc = HetAllocator::new(attrs, MemoryManager::new(machine));
        let n = sizes.len().min(prios.len());
        let reqs: Vec<PlannedAlloc> = (0..n)
            .map(|i| PlannedAlloc {
                name: format!("b{i}"),
                size: sizes[i] << 20,
                criterion: attr::BANDWIDTH,
                priority: prios[i],
            })
            .collect();
        let cluster: Bitmap = "0-15".parse().expect("cpuset");
        let hbm_avail = alloc.memory().available(NodeId(4));
        let placed = plan(&mut alloc, &reqs, &cluster, PlanOrder::Priority).expect("fits");
        let top = (0..n).max_by_key(|&i| (prios[i], std::cmp::Reverse(i))).expect("nonempty");
        if (sizes[top] << 20) <= hbm_avail {
            prop_assert!(
                placed[top].got_best,
                "highest priority request (idx {top}) displaced: {:?}",
                placed[top].placement
            );
        }
    }

    /// mem_alloc never lies: the returned region's placement respects
    /// the fallback mode (strict ⇒ single best node; spill ⇒ ordered
    /// along the ranking).
    #[test]
    fn mem_alloc_respects_fallback_contract(mib in 1u64..6000) {
        let machine = knl();
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("discovery"));
        let mut alloc = HetAllocator::new(attrs, MemoryManager::new(machine));
        let cluster: Bitmap = "0-15".parse().expect("cpuset");
        let size = mib << 20;
        let cands = alloc.candidates(attr::BANDWIDTH, &cluster).expect("candidates");
        let strict = AllocRequest::new(size)
            .criterion(attr::BANDWIDTH)
            .initiator(&cluster)
            .fallback(Fallback::Strict);
        if let Ok(id) = alloc.alloc(&strict) {
            prop_assert_eq!(
                alloc.memory().region(id).expect("live").single_node(),
                Some(cands[0])
            );
            alloc.free(id);
        }
        let spill = AllocRequest::new(size)
            .criterion(attr::BANDWIDTH)
            .initiator(&cluster)
            .fallback(Fallback::PartialSpill);
        if let Ok(id) = alloc.alloc(&spill) {
            let region = alloc.memory().region(id).expect("live");
            // Placement order follows the candidate ranking.
            let order: Vec<usize> = region
                .placement
                .iter()
                .map(|(n, _)| cands.iter().position(|c| c == n).expect("candidate"))
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(order, sorted);
            alloc.free(id);
        }
    }
}

fn placement_strategy() -> impl Strategy<Value = Vec<(NodeId, u64)>> {
    prop::collection::vec((0u32..8, 0u64..(1 << 40)).prop_map(|(n, b)| (NodeId(n), b)), 0..4)
}

/// One strategy per [`Event`] variant, so the codec property below
/// exercises every kind and every field type (strings, options,
/// nested lists, `f64` values).
fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (
            (prop::option::of(any::<u64>()), 1u64..(1 << 40), 0u32..8, 0u32..8),
            (
                prop::sample::select(vec![Scope::Local, Scope::Any]),
                prop::sample::select(vec![
                    FallbackMode::Strict,
                    FallbackMode::NextTarget,
                    FallbackMode::PartialSpill,
                ]),
            ),
            prop::collection::vec(
                (0u32..8, any::<u64>()).prop_map(|(n, v)| Candidate { node: NodeId(n), value: v }),
                0..4,
            ),
            prop::collection::vec(
                (0u32..8, ".{0,12}").prop_map(|(n, reason)| Hop { node: NodeId(n), reason }),
                0..3,
            ),
            placement_strategy(),
            prop::option::of(".{1,16}"),
        )
            .prop_map(|(head, modes, candidates, hops, placement, error)| {
                let (region, size, requested, used) = head;
                let (scope, fallback) = modes;
                Event::AllocDecision(AllocDecision {
                    region,
                    size,
                    requested,
                    used,
                    scope,
                    fallback,
                    candidates,
                    hops,
                    placement,
                    error,
                })
            }),
        (0u32..8, 0u32..8)
            .prop_map(|(requested, used)| Event::AttrFallback(AttrFallback { requested, used })),
        (any::<u64>(), placement_strategy(), 0u32..8, any::<u64>(), any::<f64>()).prop_map(
            |(region, from, to, bytes_moved, cost)| Event::Migration(Migration {
                region,
                from,
                to: NodeId(to),
                bytes_moved,
                cost_ns: cost * 1e9,
            })
        ),
        (any::<u64>(), placement_strategy())
            .prop_map(|(region, placement)| Event::Free(FreeEvent { region, placement })),
        (
            ".{1,10}",
            any::<f64>(),
            1u64..64,
            prop::collection::vec(
                (0u32..8, any::<u64>(), any::<u64>(), any::<f64>()).prop_map(|(n, r, w, bw)| {
                    NodeTrafficSample {
                        node: NodeId(n),
                        bytes_read: r,
                        bytes_written: w,
                        achieved_bw_mbps: bw * 1e5,
                    }
                }),
                0..4,
            ),
        )
            .prop_map(|(name, t, threads, per_node)| {
                Event::PhaseSpan(PhaseSpan { name, time_ns: t * 1e9, threads, per_node })
            }),
        (0u32..8, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(node, used, high_water, total)| Event::OccupancyGauge(OccupancyGauge {
                node: NodeId(node),
                used,
                high_water,
                total,
            })
        ),
        (any::<u64>(), any::<bool>(), 0u32..8, any::<f64>()).prop_map(
            |(region, promoted, to, cost)| Event::TieringAction(TieringEvent {
                region,
                promoted,
                to: NodeId(to),
                cost_ns: cost * 1e9,
            })
        ),
        (
            (any::<u64>(), any::<u64>(), any::<bool>(), 0u32..8),
            (any::<f64>(), any::<f64>(), any::<f64>()),
            1u64..(1 << 22),
        )
            .prop_map(|(head, hotness, period)| {
                let (interval, region, promoted, to) = head;
                let (est, act, cost) = hotness;
                Event::GuidanceDecision(GuidanceDecision {
                    interval,
                    region,
                    promoted,
                    to: NodeId(to),
                    estimated_hotness: est,
                    actual_hotness: act,
                    cost_ns: cost * 1e9,
                    period,
                })
            }),
        (
            0u32..4,
            ".{1,10}",
            any::<u64>(),
            any::<u64>(),
            placement_strategy(),
            any::<bool>(),
            any::<u64>(),
        )
            .prop_map(|(broker, tenant, lease, size, placement, clamped, fast_bytes)| {
                Event::TenantAdmit(TenantAdmit {
                    broker,
                    tenant,
                    lease,
                    size,
                    placement,
                    clamped,
                    fast_bytes,
                })
            }),
        (0u32..4, ".{1,10}", 0u32..8, any::<u64>(), any::<u64>()).prop_map(
            |(broker, tenant, node, requested, allowed)| Event::QuotaClamp(QuotaClamp {
                broker,
                tenant,
                node: NodeId(node),
                requested,
                allowed,
            })
        ),
        (0u32..4, ".{1,10}", 0u32..8, any::<f64>(), 1u64..64).prop_map(
            |(broker, tenant, node, stall, sharers)| {
                Event::ContentionStall(ContentionStall {
                    broker,
                    tenant,
                    node: NodeId(node),
                    stall_ns: stall * 1e9,
                    sharers,
                })
            }
        ),
        (0u32..4, ".{1,10}", any::<u64>(), 1u64..100).prop_map(
            |(broker, tenant, lease, ttl_epochs)| {
                Event::LeaseExpired(LeaseExpired { broker, tenant, lease, ttl_epochs })
            }
        ),
        (0u32..4, ".{1,10}", any::<u64>(), ".{1,16}").prop_map(
            |(broker, tenant, lease, reason)| {
                Event::LeaseRevoked(LeaseRevoked { broker, tenant, lease, reason })
            }
        ),
        (0u32..4, ".{1,10}", any::<bool>()).prop_map(|(broker, kind, degraded)| {
            Event::TierDegraded(TierDegraded { broker, kind, degraded })
        }),
        (".{1,10}", ".{1,10}", 1u64..16, ".{1,16}").prop_map(
            |(tenant, op, attempts, last_error)| Event::RetryExhausted(RetryExhausted {
                tenant,
                op,
                attempts,
                last_error,
            })
        ),
        (0u32..4, ".{1,10}", any::<u64>(), any::<u64>(), placement_strategy(), ".{1,12}").prop_map(
            |(broker, tenant, lease, bytes, placement, reason)| {
                Event::Reclaim(Reclaim { broker, tenant, lease, bytes, placement, reason })
            }
        ),
        (0u32..4, 0u32..4, ".{1,10}", any::<u64>(), any::<u64>(), any::<f64>()).prop_map(
            |(broker, origin, tenant, size, fast_bytes, cost)| {
                Event::SpillForwarded(SpillForwarded {
                    broker,
                    origin,
                    tenant,
                    size,
                    fast_bytes,
                    cost_ns: cost * 1e6,
                })
            }
        ),
        (0u32..4, 0u32..4, any::<u64>(), any::<bool>()).prop_map(
            |(broker, peer, epoch, applied)| {
                Event::DigestMerged(DigestMerged { broker, peer, epoch, applied })
            }
        ),
        (0u32..4, 0u32..8, ".{1,10}", 2u64..64, any::<u64>()).prop_map(
            |(broker, shard, tenant, merged, bytes)| {
                Event::BatchCoalesced(BatchCoalesced { broker, shard, tenant, merged, bytes })
            }
        ),
        (0u32..4, 0u32..8, 0u32..8, 1u64..64).prop_map(|(broker, thief, victim, stolen)| {
            Event::ShardSteal(ShardSteal { broker, thief, victim, stolen })
        }),
        (0u32..4, ".{1,10}", 1u64..(1 << 20), 1u64..(1 << 20)).prop_map(
            |(broker, tenant, old_period, new_period)| {
                Event::SampleRateChanged(SampleRateChanged {
                    broker,
                    tenant,
                    old_period,
                    new_period,
                })
            }
        ),
        (0u32..4, ".{1,10}", any::<u64>(), 0u32..8, any::<u64>(), any::<f64>()).prop_map(
            |(broker, tenant, region, to, bytes, cost)| {
                Event::HotPromoted(HotPromoted {
                    broker,
                    tenant,
                    region,
                    to: NodeId(to),
                    bytes,
                    cost_ns: cost * 1e6,
                })
            }
        ),
        (0u32..4, any::<u64>(), any::<f64>(), any::<f64>(), 0u64..64).prop_map(
            |(broker, epoch, spent, budget, deferred)| {
                Event::BudgetExhausted(BudgetExhausted {
                    broker,
                    epoch,
                    spent_ns: spent * 1e6,
                    budget_ns: budget * 1e6,
                    deferred,
                })
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every event round-trips through its JSON trace line: integers
    /// exactly at every magnitude, `f64`s through their shortest
    /// round-trip spelling.
    #[test]
    fn jsonl_event_round_trips(event in event_strategy()) {
        let line = event.to_json();
        prop_assert_eq!(Event::from_json(&line).expect("decodes"), event, "{}", line);
    }
}
