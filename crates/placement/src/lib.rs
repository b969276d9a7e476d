//! The unified placement engine: every placement decision in the
//! workspace — the single-tenant allocator, the tiering daemon, the
//! online guidance loop, and the multi-tenant service broker — is
//! planned here, as pure side-effect-free computation, and only
//! *committed* by the caller (via `MemoryManager`, leases, or
//! migration requests).
//!
//! The paper's central claim is that one attribute machinery (ranking
//! by Bandwidth/Latency/Capacity with attribute and capacity fallback)
//! can drive every placement decision. This crate is that machinery,
//! factored out of its former copies:
//!
//! * [`FallbackChain`] — the §IV-B attribute-fallback walk ("for
//!   instance Bandwidth instead of Read Bandwidth"), ending at
//!   Capacity which always exists;
//! * [`RankedCandidates`] — a scope-aware ranking over the attribute
//!   registry, remembering which attribute was actually used (so every
//!   consumer can emit `AttrFallback` telemetry) and supporting
//!   degraded-tier demotion to last-resort rank;
//! * [`AdmissionPolicy`] — how many bytes the requester may take on a
//!   node: [`Unconstrained`] for the single-tenant allocator,
//!   [`TierPolicy`] for the broker's quota / fair-share /
//!   static-partition arbitration;
//! * [`PlacementEngine::plan`] — the one Strict / NextTarget /
//!   PartialSpill planning walk, producing a [`PlacementPlan`] that
//!   records per-hop reasons, quota clamps, and the shortfall, ready
//!   for telemetry and for committing.
//!
//! Planning never mutates anything: capacity comes in through a
//! caller-supplied `free(node)` view (the allocator's live
//! `MemoryManager`, or the broker's manager under its ledger lock), so
//! the broker can plan while holding its ledger and commit atomically.

#![warn(missing_docs)]

use hetmem_bitmap::Bitmap;
use hetmem_core::{attr, AttrError, AttrId, MemAttrs, TargetValue};
use hetmem_memsim::{AllocError, PAGE_SIZE};
use hetmem_telemetry::Hop;
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use hetmem_telemetry::{FallbackMode, Scope};

/// Why the engine could not produce a ranking.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// No target carries a value for the criterion even after
    /// attribute fallback — only possible when the initiator has no
    /// local targets, since Capacity always exists.
    NoCandidates,
    /// The request's initiator cpuset is empty after intersection with
    /// the machine cpuset: no CPU that could perform the accesses.
    EmptyInitiator,
    /// Attribute registry error.
    Attr(AttrError),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCandidates => write!(f, "no candidate target for criterion"),
            PlacementError::EmptyInitiator => {
                write!(f, "initiator cpuset is empty after machine intersection")
            }
            PlacementError::Attr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl From<AttrError> for PlacementError {
    fn from(e: AttrError) -> Self {
        PlacementError::Attr(e)
    }
}

/// The §IV-B attribute-fallback chain: "the allocator may also
/// fallback to other similar attributes, for instance Bandwidth
/// instead of Read Bandwidth", ending at Capacity which is always
/// available. At most three attributes, held inline; it derefs to
/// the slice of them in order.
#[derive(Debug, Clone, Copy)]
pub struct FallbackChain {
    ids: [AttrId; 3],
    len: usize,
}

impl FallbackChain {
    /// The attributes to try for `criterion`, in order.
    pub fn for_criterion(criterion: AttrId) -> FallbackChain {
        let mut chain = FallbackChain { ids: [criterion; 3], len: 1 };
        let mut push = |id| {
            chain.ids[chain.len] = id;
            chain.len += 1;
        };
        match criterion {
            attr::READ_BANDWIDTH | attr::WRITE_BANDWIDTH => push(attr::BANDWIDTH),
            attr::READ_LATENCY | attr::WRITE_LATENCY => push(attr::LATENCY),
            _ => {}
        }
        if criterion != attr::CAPACITY {
            push(attr::CAPACITY);
        }
        chain
    }
}

impl std::ops::Deref for FallbackChain {
    type Target = [AttrId];

    fn deref(&self) -> &[AttrId] {
        &self.ids[..self.len]
    }
}

/// Normalizes a request initiator: defaults to the whole machine,
/// intersects with the machine cpuset, and refuses cpusets that end up
/// empty — one rule for every consumer instead of per-caller variants.
pub fn normalize_initiator(
    requested: Option<&Bitmap>,
    machine_cpuset: &Bitmap,
) -> Result<Bitmap, PlacementError> {
    let mut cpus = match requested {
        Some(c) => c.clone(),
        None => machine_cpuset.clone(),
    };
    cpus.and_assign(machine_cpuset);
    if cpus.weight() == Some(0) {
        return Err(PlacementError::EmptyInitiator);
    }
    Ok(cpus)
}

/// A non-empty ranking produced by the attribute-fallback walk,
/// remembering the attribute actually used. It shares the registry's
/// memoized ranking rather than copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidates {
    requested: AttrId,
    used: AttrId,
    ranked: Arc<[TargetValue]>,
}

impl RankedCandidates {
    /// Builds a ranking from precomputed targets — the federation path
    /// ranks *peer brokers* by their gossiped capacity digests, mapping
    /// each (peer, tier) pair to a synthetic node id, then runs the
    /// ordinary planning walk over the result. `ranked` must be
    /// best-first; pass `used == requested` when no attribute fallback
    /// happened.
    pub fn from_ranking(
        requested: AttrId,
        used: AttrId,
        ranked: Vec<TargetValue>,
    ) -> RankedCandidates {
        RankedCandidates { requested, used, ranked: ranked.into() }
    }

    /// The attribute the caller asked for.
    pub fn requested(&self) -> AttrId {
        self.requested
    }

    /// The attribute the ranking actually used after fallback.
    pub fn used(&self) -> AttrId {
        self.used
    }

    /// Whether the chain substituted a similar attribute — consumers
    /// must emit `AttrFallback` telemetry when this is true.
    pub fn attr_fell_back(&self) -> bool {
        self.used != self.requested
    }

    /// The ranked targets, best first, with their attribute values.
    pub fn targets(&self) -> &[TargetValue] {
        &self.ranked
    }

    /// The ranked node order, best first.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.ranked.iter().map(|tv| tv.node).collect()
    }

    /// Graceful degradation: nodes for which `last_resort` holds drop
    /// to the back of the ranking (stable within each group), so
    /// requests fall back to healthy tiers instead of hard-failing,
    /// yet a fully-degraded machine still serves from what it has.
    /// The shared ranking is copied only when some node is demoted.
    pub fn demote_last_resort(&mut self, last_resort: impl Fn(NodeId) -> bool) {
        if !self.ranked.iter().any(|tv| last_resort(tv.node)) {
            return;
        }
        let (healthy, last): (Vec<TargetValue>, Vec<TargetValue>) =
            self.ranked.iter().partition(|tv| !last_resort(tv.node));
        self.ranked = healthy.into_iter().chain(last).collect();
    }
}

/// How many bytes the requester may place on each node, beyond raw
/// capacity. Implementations may track bytes already planned in this
/// walk (the engine reports every accepted chunk via
/// [`AdmissionPolicy::committed`]).
pub trait AdmissionPolicy {
    /// Upper bound on bytes the requester may take on `node` right
    /// now, `u64::MAX` for "capacity is the only limit".
    fn admissible(&mut self, node: NodeId) -> u64;

    /// Informs the policy that the plan reserved `bytes` on `node`.
    fn committed(&mut self, _node: NodeId, _bytes: u64) {}
}

/// The single-tenant allocator's policy: capacity is the only limit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unconstrained;

impl AdmissionPolicy for Unconstrained {
    fn admissible(&mut self, _node: NodeId) -> u64 {
        u64::MAX
    }
}

/// How a [`TierPolicy`] divides scarce fast memory between tenants —
/// the broker's arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Weighted fair share with work-conserving borrowing: every
    /// tenant is guaranteed its weight-proportional share of each
    /// tier (plus any explicit reservation); surplus beyond the
    /// unclaimed guarantees of others may be borrowed.
    #[default]
    FairShare,
    /// First come, first served: capacity (and quota) is the only
    /// test. This is what uncoordinated tenants calling the
    /// single-tenant allocator would get.
    Fcfs,
    /// Hard static partitioning by the same weighted shares, with no
    /// borrowing — predictable, but not work-conserving.
    StaticPartition,
}

impl ArbitrationPolicy {
    /// Stable lowercase name (CLI and report spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            ArbitrationPolicy::FairShare => "fair-share",
            ArbitrationPolicy::Fcfs => "fcfs",
            ArbitrationPolicy::StaticPartition => "static",
        }
    }

    /// Parses the spelling produced by [`ArbitrationPolicy::as_str`]
    /// (plus common aliases).
    pub fn from_str_opt(s: &str) -> Option<ArbitrationPolicy> {
        match s {
            "fair-share" | "fair" | "fairshare" => Some(ArbitrationPolicy::FairShare),
            "fcfs" => Some(ArbitrationPolicy::Fcfs),
            "static" | "static-partition" => Some(ArbitrationPolicy::StaticPartition),
            _ => None,
        }
    }
}

/// A consistent per-tier snapshot, taken by the caller under its own
/// locks. All values are static for the duration of one planning walk;
/// the policy only adds the bytes it planned itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierSnapshot {
    /// Free bytes on the tier.
    pub free: u64,
    /// Bytes the requester already holds on the tier.
    pub used_by_requester: u64,
    /// The requester's guaranteed floor on the tier (reservation plus
    /// weight-proportional share).
    pub guarantee: u64,
    /// Sum over other requesters of their unclaimed guarantees — the
    /// portion of the free tier that may not be borrowed.
    pub others_shortfall: u64,
    /// Hard per-tier cap for the requester, if any.
    pub quota: Option<u64>,
}

/// The broker's admission arithmetic — quota clamp plus the
/// fair-share / static-partition test — over caller-snapshotted tier
/// state.
#[derive(Debug, Clone)]
pub struct TierPolicy<'a> {
    mode: ArbitrationPolicy,
    node_kind: &'a BTreeMap<NodeId, MemoryKind>,
    tiers: BTreeMap<MemoryKind, TierSnapshot>,
    planned: BTreeMap<MemoryKind, u64>,
}

impl<'a> TierPolicy<'a> {
    /// A policy over the given snapshots. `node_kind` maps every
    /// candidate node to its tier; the policy borrows it, so a caller
    /// planning under a lock copies nothing.
    pub fn new(
        mode: ArbitrationPolicy,
        node_kind: &'a BTreeMap<NodeId, MemoryKind>,
        tiers: BTreeMap<MemoryKind, TierSnapshot>,
    ) -> TierPolicy<'a> {
        TierPolicy { mode, node_kind, tiers, planned: BTreeMap::new() }
    }
}

impl AdmissionPolicy for TierPolicy<'_> {
    fn admissible(&mut self, node: NodeId) -> u64 {
        let Some(kind) = self.node_kind.get(&node) else {
            return 0;
        };
        let Some(snap) = self.tiers.get(kind) else {
            return 0;
        };
        let already = self.planned.get(kind).copied().unwrap_or(0);
        let used_mine = snap.used_by_requester + already;
        let quota_head = snap.quota.map(|q| q.saturating_sub(used_mine)).unwrap_or(u64::MAX);
        let base = match self.mode {
            ArbitrationPolicy::Fcfs => u64::MAX,
            ArbitrationPolicy::StaticPartition => snap.guarantee.saturating_sub(used_mine),
            ArbitrationPolicy::FairShare => {
                let my_head = snap.guarantee.saturating_sub(used_mine);
                let free_t = snap.free.saturating_sub(already);
                let borrowable =
                    free_t.saturating_sub(snap.others_shortfall).saturating_sub(my_head);
                my_head.saturating_add(borrowable)
            }
        };
        base.min(quota_head)
    }

    fn committed(&mut self, node: NodeId, bytes: u64) {
        if let Some(&kind) = self.node_kind.get(&node) {
            *self.planned.entry(kind).or_insert(0) += bytes;
        }
    }
}

/// One admission clamp: the policy allowed fewer bytes on a node than
/// its capacity could have taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClampFact {
    /// The clamped node.
    pub node: NodeId,
    /// Bytes still wanted when the node was visited.
    pub requested: u64,
    /// Bytes the policy allowed there.
    pub allowed: u64,
}

/// Why a plan came up short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanFailure {
    /// Strict/NextTarget: the (last) candidate could not hold the
    /// whole request.
    Insufficient {
        /// The candidate that was tried last.
        node: NodeId,
        /// Bytes requested of it.
        requested: u64,
        /// Bytes it had free.
        available: u64,
    },
    /// PartialSpill: the whole candidate set could not absorb the
    /// request.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Free bytes summed over every candidate.
        available: u64,
    },
}

impl PlanFailure {
    /// The equivalent memory-manager error (same variants and display
    /// strings the commit path would have produced).
    pub fn to_alloc_error(&self) -> AllocError {
        match *self {
            PlanFailure::Insufficient { node, requested, available } => {
                AllocError::InsufficientCapacity { node, requested, available }
            }
            PlanFailure::OutOfMemory { requested, available } => {
                AllocError::OutOfMemory { requested, available }
            }
        }
    }
}

/// What to place and everything needed to explain it: per-node chunks
/// in ranking order, fallback hops with reasons, admission clamps, and
/// the shortfall when the request could not be fully planned.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Planned `(node, bytes)` chunks, best target first. Empty when
    /// nothing could be placed.
    pub chunks: Vec<(NodeId, u64)>,
    /// Candidates that were tried and could not take the allocation
    /// (whole-buffer modes), or that filled up / were skipped during a
    /// spill — ready for `AllocDecision` telemetry.
    pub hops: Vec<Hop>,
    /// Admission clamps recorded during the walk, in visit order.
    pub clamps: Vec<ClampFact>,
    /// Bytes that could not be planned (0 on success).
    pub shortfall: u64,
    /// The terminal failure, when the plan is incomplete.
    pub failure: Option<PlanFailure>,
}

impl PlacementPlan {
    /// Whether the whole request was planned.
    pub fn is_complete(&self) -> bool {
        self.shortfall == 0
    }
}

/// One planning request: how many bytes, which capacity-fallback mode,
/// and whether to plan in whole pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRequest {
    /// Bytes to place.
    pub size: u64,
    /// Capacity-fallback mode.
    pub mode: FallbackMode,
    /// Plan in whole pages, like the kernel-backed allocator rounds
    /// (`true` for the allocator committing via `Bind`-equivalent
    /// splits; `false` for the broker, whose ledgers track raw bytes
    /// and whose commit path rounds).
    pub page_quantize: bool,
}

/// The decision pipeline: ranking over an attribute registry plus the
/// shared planning walk. Stateless beyond the registry handle; cheap
/// to construct.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    attrs: Arc<MemAttrs>,
}

impl PlacementEngine {
    /// An engine ranking over `attrs`.
    pub fn new(attrs: Arc<MemAttrs>) -> PlacementEngine {
        PlacementEngine { attrs }
    }

    /// The attribute registry the engine ranks with.
    pub fn attrs(&self) -> &Arc<MemAttrs> {
        &self.attrs
    }

    /// Walks the attribute-fallback chain and returns the first
    /// non-empty ranking, remembering which attribute produced it.
    pub fn rank(
        &self,
        criterion: AttrId,
        initiator: &Bitmap,
        scope: Scope,
    ) -> Result<RankedCandidates, PlacementError> {
        for &id in FallbackChain::for_criterion(criterion).iter() {
            let ranked = match scope {
                Scope::Local => self.attrs.rank_local_targets(id, initiator)?,
                Scope::Any => self.attrs.rank_targets(id, initiator)?,
            };
            if !ranked.is_empty() {
                return Ok(RankedCandidates { requested: criterion, used: id, ranked });
            }
        }
        Err(PlacementError::NoCandidates)
    }

    /// The shared planning walk. Visits `candidates` best first,
    /// bounds every take by the caller's `free` view and by
    /// `policy.admissible`, and honors the fallback mode:
    ///
    /// * `Strict` — the best candidate takes the whole request or the
    ///   plan fails (one hop, one candidate visited);
    /// * `NextTarget` — the first candidate that can hold the whole
    ///   request takes it; earlier candidates become hops;
    /// * `PartialSpill` — candidates fill in ranking order (page
    ///   floor per take when `page_quantize`); a completed split
    ///   reconstructs the hop list (filled vs skipped) exactly as the
    ///   allocator's telemetry always reported it.
    ///
    /// Pure: nothing is reserved anywhere — the caller commits the
    /// returned chunks (or doesn't) under its own locks.
    pub fn plan(
        &self,
        req: &PlanRequest,
        candidates: &[NodeId],
        free: impl Fn(NodeId) -> u64,
        policy: &mut dyn AdmissionPolicy,
    ) -> PlacementPlan {
        let total =
            if req.page_quantize { req.size.div_ceil(PAGE_SIZE) * PAGE_SIZE } else { req.size };
        let mut chunks: Vec<(NodeId, u64)> = Vec::new();
        let mut hops: Vec<Hop> = Vec::new();
        let mut clamps: Vec<ClampFact> = Vec::new();
        let mut failure: Option<PlanFailure> = None;
        let mut remaining = total;
        for &node in candidates {
            if remaining == 0 {
                break;
            }
            let node_free = free(node);
            let policy_allowed = policy.admissible(node);
            let capacity_allowed = node_free.min(remaining);
            if policy_allowed < capacity_allowed {
                clamps.push(ClampFact { node, requested: remaining, allowed: policy_allowed });
            }
            match req.mode {
                FallbackMode::Strict | FallbackMode::NextTarget => {
                    let take = capacity_allowed.min(policy_allowed);
                    if take >= remaining {
                        chunks.push((node, remaining));
                        policy.committed(node, remaining);
                        remaining = 0;
                    } else {
                        let fail = PlanFailure::Insufficient {
                            node,
                            requested: remaining,
                            available: node_free,
                        };
                        hops.push(Hop { node, reason: fail.to_alloc_error().to_string() });
                        failure = Some(fail);
                    }
                    if req.mode == FallbackMode::Strict {
                        break;
                    }
                }
                FallbackMode::PartialSpill => {
                    let mut cap = capacity_allowed;
                    if req.page_quantize {
                        cap = cap / PAGE_SIZE * PAGE_SIZE;
                    }
                    let take = cap.min(policy_allowed);
                    if take > 0 {
                        chunks.push((node, take));
                        policy.committed(node, take);
                        remaining -= take;
                    }
                }
            }
        }
        if remaining == 0 {
            failure = None;
            if req.mode == FallbackMode::PartialSpill
                && !chunks.is_empty()
                && (chunks.len() > 1 || chunks[0].0 != candidates[0])
            {
                // Reconstruct the hops: every candidate before the
                // last node that took bytes either filled up (partial
                // contribution) or was already full (skipped).
                let last = chunks.last().expect("non-empty chunks").0;
                for &node in candidates {
                    if node == last {
                        break;
                    }
                    let reason = if chunks.iter().any(|&(n, _)| n == node) {
                        "filled to capacity; spilled remainder".to_string()
                    } else {
                        "full; skipped".to_string()
                    };
                    hops.push(Hop { node, reason });
                }
            }
        } else if req.mode == FallbackMode::PartialSpill {
            let available: u64 = candidates.iter().map(|&n| free(n)).sum();
            failure = Some(PlanFailure::OutOfMemory { requested: total, available });
        }
        PlacementPlan { chunks, hops, clamps, shortfall: remaining, failure }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::discovery;
    use hetmem_memsim::Machine;
    use hetmem_topology::GIB;

    fn knl_engine() -> (Arc<Machine>, PlacementEngine) {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).unwrap());
        (machine, PlacementEngine::new(attrs))
    }

    #[test]
    fn chain_substitutes_similar_attrs_and_ends_at_capacity() {
        assert_eq!(
            *FallbackChain::for_criterion(attr::READ_BANDWIDTH),
            [attr::READ_BANDWIDTH, attr::BANDWIDTH, attr::CAPACITY]
        );
        assert_eq!(
            *FallbackChain::for_criterion(attr::WRITE_LATENCY),
            [attr::WRITE_LATENCY, attr::LATENCY, attr::CAPACITY]
        );
        assert_eq!(*FallbackChain::for_criterion(attr::CAPACITY), [attr::CAPACITY]);
        assert_eq!(
            *FallbackChain::for_criterion(attr::BANDWIDTH),
            [attr::BANDWIDTH, attr::CAPACITY]
        );
    }

    #[test]
    fn rank_records_the_attribute_fallback() {
        let (_, engine) = knl_engine();
        let c0: Bitmap = "0-15".parse().unwrap();
        let ranking = engine.rank(attr::READ_BANDWIDTH, &c0, Scope::Local).unwrap();
        assert!(ranking.attr_fell_back());
        assert_eq!(ranking.requested(), attr::READ_BANDWIDTH);
        assert_eq!(ranking.used(), attr::BANDWIDTH);
        let direct = engine.rank(attr::BANDWIDTH, &c0, Scope::Local).unwrap();
        assert!(!direct.attr_fell_back());
        assert_eq!(direct.nodes(), ranking.nodes());
    }

    #[test]
    fn normalize_defaults_intersects_and_refuses_empty() {
        let machine: Bitmap = "0-63".parse().unwrap();
        assert_eq!(normalize_initiator(None, &machine).unwrap(), machine);
        let wide: Bitmap = "48-80".parse().unwrap();
        let clipped = normalize_initiator(Some(&wide), &machine).unwrap();
        assert_eq!(clipped, "48-63".parse().unwrap());
        let alien: Bitmap = "100-120".parse().unwrap();
        assert_eq!(
            normalize_initiator(Some(&alien), &machine),
            Err(PlacementError::EmptyInitiator)
        );
    }

    #[test]
    fn demotion_is_a_stable_partition() {
        let (_, engine) = knl_engine();
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut ranking = engine.rank(attr::BANDWIDTH, &c0, Scope::Local).unwrap();
        let before = ranking.nodes();
        ranking.demote_last_resort(|n| n == before[0]);
        let after = ranking.nodes();
        assert_eq!(after.last(), Some(&before[0]));
        assert_eq!(&after[..after.len() - 1], &before[1..]);
    }

    #[test]
    fn strict_plan_is_single_node_or_fails_with_hop() {
        let (_, engine) = knl_engine();
        let free = |n: NodeId| if n == NodeId(4) { 2 * GIB } else { 24 * GIB };
        let req = PlanRequest { size: GIB, mode: FallbackMode::Strict, page_quantize: true };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut Unconstrained);
        assert_eq!(plan.chunks, vec![(NodeId(4), GIB)]);
        assert!(plan.is_complete() && plan.hops.is_empty());

        let req = PlanRequest { size: 4 * GIB, mode: FallbackMode::Strict, page_quantize: true };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut Unconstrained);
        assert!(plan.chunks.is_empty());
        assert_eq!(plan.shortfall, 4 * GIB);
        assert_eq!(plan.hops.len(), 1);
        assert_eq!(
            plan.failure,
            Some(PlanFailure::Insufficient {
                node: NodeId(4),
                requested: 4 * GIB,
                available: 2 * GIB
            })
        );
    }

    #[test]
    fn next_target_walks_and_spill_splits() {
        let (_, engine) = knl_engine();
        let free = |n: NodeId| if n == NodeId(4) { 2 * GIB } else { 24 * GIB };
        let req =
            PlanRequest { size: 4 * GIB, mode: FallbackMode::NextTarget, page_quantize: true };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut Unconstrained);
        assert_eq!(plan.chunks, vec![(NodeId(0), 4 * GIB)]);
        assert_eq!(plan.hops.len(), 1, "the full MCDRAM is a hop");

        let req =
            PlanRequest { size: 4 * GIB, mode: FallbackMode::PartialSpill, page_quantize: true };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut Unconstrained);
        assert_eq!(plan.chunks, vec![(NodeId(4), 2 * GIB), (NodeId(0), 2 * GIB)]);
        assert_eq!(plan.hops.len(), 1);
        assert_eq!(plan.hops[0].node, NodeId(4));
        assert!(plan.hops[0].reason.contains("spilled"));
    }

    #[test]
    fn spill_failure_reports_total_available() {
        let (_, engine) = knl_engine();
        let free = |_: NodeId| GIB;
        let req =
            PlanRequest { size: 8 * GIB, mode: FallbackMode::PartialSpill, page_quantize: true };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut Unconstrained);
        assert_eq!(plan.shortfall, 6 * GIB);
        assert_eq!(
            plan.failure,
            Some(PlanFailure::OutOfMemory { requested: 8 * GIB, available: 2 * GIB })
        );
    }

    #[test]
    fn tier_policy_replays_fair_share_and_quota() {
        let node_kind: BTreeMap<NodeId, MemoryKind> =
            [(NodeId(4), MemoryKind::Hbm), (NodeId(0), MemoryKind::Dram)].into_iter().collect();
        let tiers: BTreeMap<MemoryKind, TierSnapshot> = [
            (
                MemoryKind::Hbm,
                TierSnapshot {
                    free: 4 * GIB,
                    used_by_requester: 0,
                    guarantee: 2 * GIB,
                    others_shortfall: 2 * GIB,
                    quota: None,
                },
            ),
            (
                MemoryKind::Dram,
                TierSnapshot {
                    free: 24 * GIB,
                    used_by_requester: 0,
                    guarantee: 12 * GIB,
                    others_shortfall: 12 * GIB,
                    quota: None,
                },
            ),
        ]
        .into_iter()
        .collect();
        let mut policy = TierPolicy::new(ArbitrationPolicy::FairShare, &node_kind, tiers.clone());
        // Guarantee 2 GiB, free 4 GiB, others' shortfall 2 GiB: may
        // take exactly the guarantee, nothing borrowable.
        assert_eq!(policy.admissible(NodeId(4)), 2 * GIB);
        policy.committed(NodeId(4), 2 * GIB);
        assert_eq!(policy.admissible(NodeId(4)), 0, "planned bytes consume the head");

        let mut capped = TierPolicy::new(
            ArbitrationPolicy::Fcfs,
            &node_kind,
            tiers
                .into_iter()
                .map(|(k, mut s)| {
                    s.quota = Some(GIB);
                    (k, s)
                })
                .collect(),
        );
        assert_eq!(capped.admissible(NodeId(4)), GIB, "quota caps even FCFS");
    }

    #[test]
    fn admission_clamps_are_recorded_in_visit_order() {
        let (_, engine) = knl_engine();
        let node_kind: BTreeMap<NodeId, MemoryKind> =
            [(NodeId(4), MemoryKind::Hbm), (NodeId(0), MemoryKind::Dram)].into_iter().collect();
        let tiers: BTreeMap<MemoryKind, TierSnapshot> = [
            (
                MemoryKind::Hbm,
                TierSnapshot { free: 8 * GIB, quota: Some(GIB), ..Default::default() },
            ),
            (MemoryKind::Dram, TierSnapshot { free: 24 * GIB, ..Default::default() }),
        ]
        .into_iter()
        .collect();
        let mut policy = TierPolicy::new(ArbitrationPolicy::Fcfs, &node_kind, tiers);
        let req =
            PlanRequest { size: 4 * GIB, mode: FallbackMode::PartialSpill, page_quantize: false };
        let free = |n: NodeId| if n == NodeId(4) { 8 * GIB } else { 24 * GIB };
        let plan = engine.plan(&req, &[NodeId(4), NodeId(0)], free, &mut policy);
        assert_eq!(plan.chunks, vec![(NodeId(4), GIB), (NodeId(0), 3 * GIB)]);
        assert_eq!(
            plan.clamps,
            vec![ClampFact { node: NodeId(4), requested: 4 * GIB, allowed: GIB }]
        );
        assert!(plan.is_complete());
    }
}
