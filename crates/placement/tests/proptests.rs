//! Property tests for the placement engine: every `PlacementPlan` is
//! capacity-safe, mode shapes hold (Strict/NextTarget single-node,
//! PartialSpill exact-or-shortfall), and admission policies bound what
//! a plan may take per tier.

use hetmem_core::discovery;
use hetmem_memsim::{Machine, PAGE_SIZE};
use hetmem_placement::{
    ArbitrationPolicy, FallbackMode, PlacementEngine, PlanFailure, PlanRequest, TierPolicy,
    TierSnapshot, Unconstrained,
};
use hetmem_topology::{MemoryKind, NodeId};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const GIB: u64 = 1 << 30;

fn engine() -> PlacementEngine {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("firmware attrs"));
    PlacementEngine::new(attrs)
}

fn mode(sel: u8) -> FallbackMode {
    match sel % 3 {
        0 => FallbackMode::Strict,
        1 => FallbackMode::NextTarget,
        _ => FallbackMode::PartialSpill,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// No plan ever takes more from a node than the caller's free
    /// view offers, every take is positive, no node repeats, and the
    /// chunks plus the shortfall always account for the whole
    /// (quantized) request.
    #[test]
    fn plans_are_capacity_safe(
        frees in prop::collection::vec(0u64..16 * GIB, 4),
        size in 0u64..48 * GIB,
        sel in 0u8..3,
        qsel in 0u8..2,
    ) {
        let quantize = qsel == 1;
        let eng = engine();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let free = |n: NodeId| frees[n.0 as usize];
        let req = PlanRequest { size, mode: mode(sel), page_quantize: quantize };
        let plan = eng.plan(&req, &candidates, free, &mut Unconstrained);
        let total =
            if quantize { size.div_ceil(PAGE_SIZE) * PAGE_SIZE } else { size };
        let mut seen = std::collections::BTreeSet::new();
        for &(n, bytes) in &plan.chunks {
            prop_assert!(bytes > 0, "zero-byte chunk on {n}");
            prop_assert!(bytes <= free(n), "{bytes} planned on {n} with {} free", free(n));
            prop_assert!(seen.insert(n), "node {n} planned twice");
        }
        let planned: u64 = plan.chunks.iter().map(|&(_, b)| b).sum();
        prop_assert_eq!(planned + plan.shortfall, total);
        prop_assert_eq!(plan.is_complete(), plan.failure.is_none());
        prop_assert!(plan.clamps.is_empty(), "Unconstrained never clamps");
    }

    /// Strict commits to the best candidate: exactly one chunk (whole
    /// request, on the first candidate) or an Insufficient failure on
    /// that same candidate, never a spill.
    #[test]
    fn strict_is_single_node_or_error(
        frees in prop::collection::vec(0u64..8 * GIB, 4),
        size in 1u64..16 * GIB,
    ) {
        let eng = engine();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let free = |n: NodeId| frees[n.0 as usize];
        let req = PlanRequest { size, mode: FallbackMode::Strict, page_quantize: true };
        let plan = eng.plan(&req, &candidates, free, &mut Unconstrained);
        let total = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if plan.is_complete() {
            prop_assert_eq!(plan.chunks.clone(), vec![(candidates[0], total)]);
            prop_assert!(plan.hops.is_empty());
        } else {
            prop_assert!(plan.chunks.is_empty());
            prop_assert_eq!(plan.shortfall, total);
            match plan.failure {
                Some(PlanFailure::Insufficient { node, requested, available }) => {
                    prop_assert_eq!(node, candidates[0]);
                    prop_assert_eq!(requested, total);
                    prop_assert_eq!(available, free(candidates[0]));
                }
                other => prop_assert!(false, "strict failure should be Insufficient: {other:?}"),
            }
            prop_assert_eq!(plan.hops.len(), 1);
        }
    }

    /// NextTarget never splits: the plan is one whole-request chunk on
    /// the first candidate that fits, with one hop per candidate
    /// skipped before it.
    #[test]
    fn next_target_is_single_node(
        frees in prop::collection::vec(0u64..8 * GIB, 4),
        size in 1u64..16 * GIB,
    ) {
        let eng = engine();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let free = |n: NodeId| frees[n.0 as usize];
        let req = PlanRequest { size, mode: FallbackMode::NextTarget, page_quantize: true };
        let plan = eng.plan(&req, &candidates, free, &mut Unconstrained);
        let total = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        prop_assert!(plan.chunks.len() <= 1);
        if plan.is_complete() {
            let (node, bytes) = plan.chunks[0];
            prop_assert_eq!(bytes, total);
            // The winner is the first candidate that fits; everything
            // ranked ahead of it became a hop.
            let winner_rank = candidates.iter().position(|&n| n == node).expect("candidate");
            prop_assert!(candidates[..winner_rank].iter().all(|&n| free(n) < total));
            prop_assert_eq!(plan.hops.len(), winner_rank);
        } else {
            prop_assert_eq!(plan.hops.len(), candidates.len());
            prop_assert!(candidates.iter().all(|&n| free(n) < total));
        }
    }

    /// PartialSpill either sums exactly to the request or reports the
    /// shortfall with an OutOfMemory failure over the whole set.
    #[test]
    fn spill_sums_exactly_or_reports_shortfall(
        frees in prop::collection::vec(0u64..8 * GIB, 4),
        size in 1u64..40 * GIB,
    ) {
        let eng = engine();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let free = |n: NodeId| frees[n.0 as usize];
        let req = PlanRequest { size, mode: FallbackMode::PartialSpill, page_quantize: true };
        let plan = eng.plan(&req, &candidates, free, &mut Unconstrained);
        let total = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let planned: u64 = plan.chunks.iter().map(|&(_, b)| b).sum();
        if plan.is_complete() {
            prop_assert_eq!(planned, total);
        } else {
            prop_assert_eq!(planned + plan.shortfall, total);
            match plan.failure {
                Some(PlanFailure::OutOfMemory { requested, available }) => {
                    prop_assert_eq!(requested, total);
                    prop_assert_eq!(available, frees.iter().sum::<u64>());
                }
                other => prop_assert!(false, "spill failure should be OutOfMemory: {other:?}"),
            }
        }
    }

    /// An admission quota is a hard per-tier ceiling: the bytes a plan
    /// takes on a tier never exceed the tier quota, clamps are
    /// recorded whenever policy (not capacity) was the binding limit.
    #[test]
    fn quota_bounds_per_tier_takes(
        frees in prop::collection::vec(0u64..8 * GIB, 4),
        size in 1u64..40 * GIB,
        quota in 0u64..4 * GIB,
        sel in 0u8..3,
    ) {
        let eng = engine();
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let free = |n: NodeId| frees[n.0 as usize];
        // Nodes 0-1 form the quota'd fast tier, 2-3 the open tier.
        let node_kind: BTreeMap<NodeId, MemoryKind> = candidates
            .iter()
            .map(|&n| (n, if n.0 < 2 { MemoryKind::Hbm } else { MemoryKind::Dram }))
            .collect();
        let tiers: BTreeMap<MemoryKind, TierSnapshot> = [
            (
                MemoryKind::Hbm,
                TierSnapshot { free: frees[0] + frees[1], quota: Some(quota), ..Default::default() },
            ),
            (
                MemoryKind::Dram,
                TierSnapshot { free: frees[2] + frees[3], ..Default::default() },
            ),
        ]
        .into_iter()
        .collect();
        let mut policy = TierPolicy::new(ArbitrationPolicy::Fcfs, &node_kind, tiers);
        let req = PlanRequest { size, mode: mode(sel), page_quantize: false };
        let plan = eng.plan(&req, &candidates, free, &mut policy);
        let fast_bytes: u64 = plan
            .chunks
            .iter()
            .filter(|&&(n, _)| node_kind[&n] == MemoryKind::Hbm)
            .map(|&(_, b)| b)
            .sum();
        prop_assert!(fast_bytes <= quota, "fast tier got {fast_bytes} with quota {quota}");
        for c in &plan.clamps {
            prop_assert!(c.allowed < c.requested.min(free(c.node)));
        }
    }
}
