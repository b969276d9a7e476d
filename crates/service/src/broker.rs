//! The allocation broker: one shared `MemoryManager` served to many
//! concurrent tenants behind per-NUMA-node lock striping.
//!
//! An [`AllocRequest`] goes through three stages:
//!
//! 1. **Ranking** — candidates come from the same attribute machinery
//!    the single-tenant allocator uses (local targets of the
//!    initiator ranked by the requested criterion, with the paper's
//!    attribute-fallback chain).
//! 2. **Admission** — the arbiter walks the ranking and decides how
//!    many bytes the tenant may take on each node under the active
//!    [`ArbitrationPolicy`]: quota clamp first, then the fair-share
//!    test, then ranked fallback to slower tiers. Denials emit
//!    `QuotaClamp` telemetry and never preempt existing leases.
//! 3. **Commit** — the plan is placed as one region with
//!    `AllocPolicy::Exact`, a [`Lease`] is issued, and the per-node
//!    ledgers are settled while the stripe locks are still held.
//!
//! Lock order is global and strict — lease table, then node stripes
//! in ascending node order, then the memory manager — so concurrent
//! clients can never deadlock. The tenant registry is not in that
//! order: it is an immutable snapshot shared as an `Arc` and swapped
//! whenever a tenant registers, so a request holds its lock only for
//! the instant it takes a reference, never while planning. (A
//! checkpoint holds it across the capture so no tenant registers
//! mid-capture; no path takes it while holding another broker lock.)
//!
//! Fair-share admission costs O(tenants) per candidate tier: the
//! snapshot carries every tenant's guarantee on every tier, and one
//! pass over a tier's locked stripes sums every tenant's holdings.

use crate::board::TrafficBoard;
use crate::tenant::{Priority, Registry, TenantId, TenantRecord, TenantSpec, TenantStats};
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use hetmem_core::{attr, MemAttrs};
use hetmem_memsim::{
    AccessEngine, AllocPolicy, Machine, ManagerState, MemoryManager, Phase, PhaseReport, RegionId,
};
use hetmem_placement::{
    normalize_initiator, PlacementEngine, PlacementError, PlanRequest, RankedCandidates, ShareMode,
    TierPolicy, TierSnapshot,
};
use hetmem_telemetry::{
    AttrFallback, BatchCoalesced, ContentionStall, Event, LeaseExpired, LeaseRevoked, QuotaClamp,
    Reclaim, TelemetrySink, TenantAdmit, TierDegraded,
};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

#[path = "guidance.rs"]
pub mod guidance;

/// How the arbiter divides scarce fast memory between tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbitrationPolicy {
    /// Weighted fair share with work-conserving borrowing: every
    /// tenant is guaranteed its weight-proportional share of each
    /// tier (plus any explicit reservation); surplus beyond the
    /// unclaimed guarantees of others may be borrowed.
    #[default]
    FairShare,
    /// First come, first served: capacity is the only test. This is
    /// what uncoordinated tenants calling the single-tenant allocator
    /// would get.
    Fcfs,
    /// Hard static partitioning by the same weighted shares, with no
    /// borrowing — predictable, but not work-conserving.
    StaticPartition,
}

impl ArbitrationPolicy {
    /// The placement-engine encoding of this policy.
    pub fn as_share_mode(self) -> ShareMode {
        match self {
            ArbitrationPolicy::FairShare => ShareMode::FairShare,
            ArbitrationPolicy::Fcfs => ShareMode::Fcfs,
            ArbitrationPolicy::StaticPartition => ShareMode::StaticPartition,
        }
    }

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

/// Maps a placement-engine ranking failure onto the wire error model.
fn ranking_error(e: PlacementError) -> ServiceError {
    match e {
        PlacementError::NoCandidates => ServiceError::Ranking("no candidate targets".into()),
        PlacementError::EmptyInitiator => ServiceError::EmptyInitiator,
        PlacementError::Attr(err) => ServiceError::Ranking(err.to_string()),
    }
}

/// Opaque lease handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

impl std::fmt::Display for LeaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lease#{}", self.0)
    }
}

/// A granted allocation. The lease is the unit of accounting: the
/// broker's ledgers charge its placement to the owning tenant until it
/// is returned via [`Broker::release`]. Dropping a lease without
/// releasing it leaks the memory (the concurrency smoke test asserts
/// servers never do).
#[must_use = "a lease holds real capacity; return it with Broker::release"]
#[derive(Debug)]
pub struct Lease {
    id: LeaseId,
    tenant: TenantId,
    region: hetmem_memsim::RegionId,
    size: u64,
    placement: Vec<(NodeId, u64)>,
    fast_bytes: u64,
}

impl Lease {
    /// The lease id (wire handle).
    pub fn id(&self) -> LeaseId {
        self.id
    }

    /// The owning tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The backing region in the shared memory manager.
    pub fn region(&self) -> hetmem_memsim::RegionId {
        self.region
    }

    /// Bytes granted (page-rounded).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Placement split `(node, bytes)`.
    pub fn placement(&self) -> &[(NodeId, u64)] {
        &self.placement
    }

    /// Bytes that landed on the machine's fast tier.
    pub fn fast_bytes(&self) -> u64 {
        self.fast_bytes
    }
}

/// Internal lease record (kept even after the `Lease` value moved to
/// the client).
#[derive(Debug, Clone)]
struct LeaseRecord {
    tenant: TenantId,
    region: hetmem_memsim::RegionId,
    placement: Vec<(NodeId, u64)>,
    /// The TTL the lease runs under, in epochs (`None` = immortal).
    ttl: Option<u64>,
    /// Epoch at which the lease expires unless renewed first.
    expires_at: Option<u64>,
}

/// Why a lease was reclaimed outside the normal release path.
#[derive(Debug, Clone)]
enum ReclaimCause {
    /// The TTL elapsed without a renewal.
    Expired { ttl: u64 },
    /// Explicit revocation (connection drop, operator, fault path).
    Revoked { reason: String },
}

/// Lifetime counters for the robustness layer, snapshotted by
/// [`Broker::robustness`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Leases that aged out without renewal.
    pub expired: u64,
    /// Leases revoked (disconnect, operator, fault).
    pub revoked: u64,
    /// Total bytes returned to the pool by expiry + revocation.
    pub reclaimed_bytes: u64,
}

/// Per-node ledger stripe: the admission-time source of truth for
/// free capacity and per-tenant holdings on one node.
#[derive(Debug, Default)]
struct NodeLedger {
    free: u64,
    used_by: BTreeMap<TenantId, u64>,
}

/// Locked ledger stripes by node.
type Stripes<'a> = BTreeMap<NodeId, MutexGuard<'a, NodeLedger>>;

/// One tenant's registration and lifetime counters inside a
/// [`BrokerState`] capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantEntry {
    /// Tenant id (`TenantId.0`).
    pub id: u32,
    /// Registered name (unique across the broker).
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Per-tier hard caps, sorted by kind.
    pub quota: Vec<(MemoryKind, u64)>,
    /// Per-tier guaranteed floors, sorted by kind.
    pub reserve: Vec<(MemoryKind, u64)>,
    /// Default lease TTL in epochs (`None` = immortal leases).
    pub lease_ttl: Option<u64>,
    /// Lifetime admitted-allocation count.
    pub admits: u64,
    /// Lifetime quota-clamp count.
    pub clamps: u64,
    /// Lifetime contention-stall count.
    pub stalls: u64,
}

/// One live lease inside a [`BrokerState`] capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseEntry {
    /// Lease id (`LeaseId.0`).
    pub id: u64,
    /// Holding tenant id.
    pub tenant: u32,
    /// Backing region id in the memory manager.
    pub region: u64,
    /// Placement split `(node, bytes)`.
    pub placement: Vec<(NodeId, u64)>,
    /// TTL the lease runs under, in epochs (`None` = immortal).
    pub ttl: Option<u64>,
    /// Epoch at which the lease expires unless renewed.
    pub expires_at: Option<u64>,
}

/// One per-node ledger stripe inside a [`BrokerState`] capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeEntry {
    /// The node this stripe accounts for.
    pub node: NodeId,
    /// Free bytes (always equal to the manager's view of the node).
    pub free: u64,
    /// Per-tenant holdings `(tenant id, bytes)`, sorted by tenant.
    pub used_by: Vec<(u32, u64)>,
}

/// A plain-data capture of every piece of mutable broker state, taken
/// at an epoch boundary by [`Broker::snapshot_state`] and turned back
/// into a live broker by [`Broker::restore`].
///
/// Deliberately *not* captured:
///
/// * the [`TrafficBoard`](crate::TrafficBoard) — its per-node offer
///   maps are lazily reset whenever a node is first touched in a new
///   epoch, so at an epoch boundary the board carries no state that
///   can influence future epochs;
/// * the telemetry sink — collectors re-attach after a restore;
/// * the guidance plane ([`Broker::enable_guidance`]) — record mode
///   refuses guided service, so no recorded run ever needs its
///   estimator state replayed; a restored broker starts unguided;
/// * everything derivable from the machine (node kinds, tier
///   capacities, the fast tier), which [`Broker::restore`] recomputes
///   via [`Broker::new`].
///
/// All vectors are sorted by id/node, so two equal broker states
/// always produce byte-identical encodings downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerState {
    /// Name of the machine the snapshot was captured on; restore
    /// refuses a mismatched machine.
    pub machine: String,
    /// Broker instance id (0 for a standalone broker). The shard
    /// itself is not stored separately — restore derives it from the
    /// stripe node set.
    pub id: u32,
    /// Active arbitration policy.
    pub policy: ArbitrationPolicy,
    /// Service epoch at capture time.
    pub epoch: u64,
    /// Next tenant id to issue.
    pub next_tenant: u32,
    /// Next lease id to issue.
    pub next_lease: u64,
    /// Epoch before which `acquire` returns `Stalled`.
    pub stall_until: u64,
    /// Lifetime expired-lease count.
    pub expired_total: u64,
    /// Lifetime revoked-lease count.
    pub revoked_total: u64,
    /// Lifetime bytes reclaimed by expiry + revocation.
    pub reclaimed_bytes_total: u64,
    /// Tiers currently marked degraded, sorted.
    pub degraded: Vec<MemoryKind>,
    /// Registered tenants, sorted by id.
    pub tenants: Vec<TenantEntry>,
    /// Live leases, sorted by id.
    pub leases: Vec<LeaseEntry>,
    /// Per-node ledgers, sorted by node.
    pub stripes: Vec<StripeEntry>,
    /// The shared memory manager's regions and counters.
    pub manager: ManagerState,
}

/// A phase executed through the broker, with contention feedback
/// applied.
#[derive(Debug)]
pub struct ServedPhase {
    /// The raw memsim report (isolated-run cost model).
    pub report: PhaseReport,
    /// Extra time charged because co-located tenants saturated nodes
    /// this phase touched, ns.
    pub stall_ns: f64,
}

impl ServedPhase {
    /// Total phase time including the contention stall, ns.
    pub fn time_ns(&self) -> f64 {
        self.report.time_ns + self.stall_ns
    }
}

/// Contention is capped: a node shared by arbitrarily many tenants
/// slows a phase by at most this factor of the contended window.
pub const MAX_CONTENTION_SLOWDOWN: f64 = 3.0;

/// The multi-tenant allocation broker.
pub struct Broker {
    /// Instance id: 0 for a standalone broker, the federation slot
    /// otherwise. Stamped on every broker-path telemetry event so
    /// merged federated traces stay attributable.
    id: u32,
    machine: Arc<Machine>,
    placer: PlacementEngine,
    policy: ArbitrationPolicy,
    sink: TelemetrySink,
    engine: AccessEngine,
    mm: Mutex<MemoryManager>,
    stripes: BTreeMap<NodeId, Mutex<NodeLedger>>,
    /// The current registry snapshot; `register` and `restore` swap in
    /// a new one, requests only clone the `Arc`.
    registry: RwLock<Arc<Registry>>,
    next_tenant: AtomicU32,
    leases: Mutex<BTreeMap<LeaseId, LeaseRecord>>,
    next_lease: AtomicU64,
    board: TrafficBoard,
    node_kind: BTreeMap<NodeId, MemoryKind>,
    tier_capacity: BTreeMap<MemoryKind, u64>,
    fast_kind: MemoryKind,
    /// The service clock: one epoch per dispatcher batch / load tick.
    /// Lease TTLs and fault windows are measured in epochs so every
    /// run is deterministic — no wall clock anywhere.
    epoch: AtomicU64,
    /// Tiers currently marked degraded: demoted to last-resort rank.
    degraded: Mutex<BTreeSet<MemoryKind>>,
    /// Epoch before which `acquire` returns `Stalled` (fault hook).
    stall_until: AtomicU64,
    expired_total: AtomicU64,
    revoked_total: AtomicU64,
    reclaimed_bytes_total: AtomicU64,
    /// Guided service mode: one adaptive [`hetmem_guidance::GuidancePlane`]
    /// per tenant plus the shared per-epoch migration budget. `None`
    /// (the default) keeps every legacy path untouched.
    guidance: Option<guidance::GuidanceState>,
}

impl Broker {
    /// A broker owning a fresh [`MemoryManager`] for `machine`,
    /// arbitrating under `policy`.
    pub fn new(machine: Arc<Machine>, attrs: Arc<MemAttrs>, policy: ArbitrationPolicy) -> Broker {
        let all: BTreeSet<NodeId> = machine.topology().node_ids().into_iter().collect();
        Broker::with_shard(machine, attrs, policy, 0, &all)
    }

    /// A federation member: broker `id` arbitrating only the NUMA
    /// nodes in `shard` (nodes outside the machine are ignored).
    /// Candidates outside the shard are filtered from every ranking,
    /// and tier share math sees only the shard's capacity, so disjoint
    /// shards never double-commit a node. `with_shard` over the full
    /// node set is exactly [`Broker::new`].
    pub fn with_shard(
        machine: Arc<Machine>,
        attrs: Arc<MemAttrs>,
        policy: ArbitrationPolicy,
        id: u32,
        shard: &BTreeSet<NodeId>,
    ) -> Broker {
        let mm = MemoryManager::new(machine.clone());
        let node_kind: BTreeMap<NodeId, MemoryKind> = machine
            .topology()
            .node_ids()
            .into_iter()
            .filter(|n| shard.contains(n))
            .map(|n| (n, machine.topology().node_kind(n).unwrap_or(MemoryKind::Dram)))
            .collect();
        let mut tier_capacity: BTreeMap<MemoryKind, u64> = BTreeMap::new();
        for (&node, &kind) in &node_kind {
            *tier_capacity.entry(kind).or_insert(0) += machine.usable_capacity(node);
        }
        let stripes = node_kind
            .keys()
            .map(|&n| {
                (n, Mutex::new(NodeLedger { free: mm.available(n), used_by: BTreeMap::new() }))
            })
            .collect();
        // The fast tier is whatever kind the bandwidth ranking puts
        // first — HBM on KNL, DRAM on an Optane Xeon. Attributes
        // decide, not hardcoded labels (§III-A). A shard takes the
        // best-ranked kind it actually owns.
        let fast_kind = attrs
            .rank_targets(attr::BANDWIDTH, machine.topology().machine_cpuset())
            .ok()
            .and_then(|ranked| ranked.iter().find_map(|tv| node_kind.get(&tv.node).copied()))
            .unwrap_or(MemoryKind::Dram);
        let board = TrafficBoard::new(node_kind.keys().copied());
        let registry = RwLock::new(Arc::new(Registry::build(Vec::new(), &tier_capacity)));
        Broker {
            id,
            engine: AccessEngine::new(machine.clone()),
            machine,
            placer: PlacementEngine::new(attrs),
            policy,
            sink: TelemetrySink::disabled(),
            mm: Mutex::new(mm),
            stripes,
            registry,
            next_tenant: AtomicU32::new(0),
            leases: Mutex::new(BTreeMap::new()),
            next_lease: AtomicU64::new(0),
            board,
            node_kind,
            tier_capacity,
            fast_kind,
            epoch: AtomicU64::new(0),
            degraded: Mutex::new(BTreeSet::new()),
            stall_until: AtomicU64::new(0),
            expired_total: AtomicU64::new(0),
            revoked_total: AtomicU64::new(0),
            reclaimed_bytes_total: AtomicU64::new(0),
            guidance: None,
        }
    }

    /// Streams broker telemetry (admits, clamps, stalls, plus the
    /// memory manager's occupancy/free events) into `sink`. Call
    /// before sharing the broker across threads; each thread that
    /// emits through the shared broker gets its own wait-free ring.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink.clone();
        self.engine.set_sink(sink.clone());
        self.mm.get_mut().expect("mm poisoned").set_sink(sink);
    }

    /// The machine being brokered.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// This broker's instance id (0 for a standalone broker).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The NUMA nodes this broker arbitrates — the whole machine for a
    /// standalone broker, the shard for a federation member.
    pub fn shard(&self) -> BTreeSet<NodeId> {
        self.node_kind.keys().copied().collect()
    }

    /// A point-in-time capacity digest of this broker's shard: per
    /// tier, the free bytes across the shard's stripes and whether the
    /// tier is currently degraded. Sorted by kind, so equal states
    /// digest identically. This is what federation gossip carries.
    pub fn capacity_digest(&self) -> Vec<(MemoryKind, u64, bool)> {
        let degraded = self.degraded.lock().expect("degraded poisoned").clone();
        let mut free: BTreeMap<MemoryKind, u64> =
            self.tier_capacity.keys().map(|&k| (k, 0)).collect();
        for (node, ledger) in &self.stripes {
            let kind = self.node_kind[node];
            *free.entry(kind).or_insert(0) += ledger.lock().expect("stripe poisoned").free;
        }
        free.into_iter().map(|(k, f)| (k, f, degraded.contains(&k))).collect()
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> ArbitrationPolicy {
        self.policy
    }

    /// The memory kind the bandwidth ranking puts first ("fast tier").
    pub fn fast_kind(&self) -> MemoryKind {
        self.fast_kind
    }

    /// Registers a tenant. Fails on duplicate names and on explicit
    /// reservations that oversubscribe a tier. Every tenant's
    /// guarantee changes with the registry, so this swaps in a new
    /// snapshot; requests already planning keep the one they loaded.
    pub fn register(&self, spec: TenantSpec) -> Result<TenantId, ServiceError> {
        let mut registry = self.registry.write().expect("registry poisoned");
        if registry.iter().any(|(_, t)| t.name == spec.get_name()) {
            return Err(ServiceError::DuplicateTenant(spec.get_name().to_string()));
        }
        for (&kind, &bytes) in spec.get_reserve() {
            let capacity = self.tier_capacity.get(&kind).copied().unwrap_or(0);
            let reserved: u64 =
                registry.iter().map(|(_, t)| t.reserve.get(&kind).copied().unwrap_or(0)).sum();
            if reserved + bytes > capacity {
                return Err(ServiceError::Reservation {
                    kind,
                    requested: bytes,
                    available: capacity.saturating_sub(reserved),
                });
            }
        }
        let id = TenantId(self.next_tenant.fetch_add(1, Ordering::Relaxed));
        *registry = Arc::new(registry.with(id, TenantRecord::new(&spec), &self.tier_capacity));
        Ok(id)
    }

    /// The current registry snapshot. The lock is held only to clone
    /// the `Arc`.
    fn registry(&self) -> Arc<Registry> {
        self.registry.read().expect("registry poisoned").clone()
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.registry().iter().find(|(_, t)| t.name == name).map(|(id, _)| id)
    }

    /// Ranks the candidate nodes for `req`: the attribute walk, then
    /// degraded tiers demoted to last resort, then nodes outside this
    /// broker's shard dropped. Returns the ranking (for its
    /// attribute-fallback facts) with the ranked nodes.
    fn rank_candidates(
        &self,
        req: &AllocRequest,
    ) -> Result<(RankedCandidates, Vec<NodeId>), ServiceError> {
        let initiator =
            normalize_initiator(req.get_initiator(), self.machine.topology().machine_cpuset())
                .map_err(ranking_error)?;
        let mut ranking = self
            .placer
            .rank(req.get_criterion(), &initiator, req.scope())
            .map_err(ranking_error)?;
        // Graceful degradation: nodes on degraded tiers drop to
        // last-resort rank (stable within each group), so requests
        // fall back to healthy tiers instead of hard-failing, yet a
        // fully-degraded machine still serves from what it has.
        {
            let degraded = self.degraded.lock().expect("degraded poisoned");
            if !degraded.is_empty() {
                ranking.demote_last_resort(|n| {
                    self.node_kind.get(&n).is_some_and(|k| degraded.contains(k))
                });
            }
        }
        // A federation member only places on its own shard; candidates
        // it does not own drop out here. An empty remainder falls
        // through to an `Admission` shortfall of the full size — the
        // residual the federation forwards to a peer.
        let ranked =
            ranking.nodes().into_iter().filter(|n| self.node_kind.contains_key(n)).collect();
        Ok((ranking, ranked))
    }

    /// Locks the stripe of every node sharing a tier with a candidate,
    /// in ascending node order (deadlock freedom), so tier-level share
    /// math sees a consistent snapshot.
    fn lock_tiers(&self, ranked: &[NodeId]) -> Stripes<'_> {
        let tiers: BTreeSet<MemoryKind> =
            ranked.iter().filter_map(|n| self.node_kind.get(n).copied()).collect();
        self.node_kind
            .iter()
            .filter(|(_, kind)| tiers.contains(kind))
            .map(|(&node, _)| (node, self.stripes[&node].lock().expect("stripe poisoned")))
            .collect()
    }

    /// Snapshots every tier the locked `stripes` cover for the tenant
    /// at index `me` of `registry`. One pass over the stripes sums the
    /// tier's free bytes and every tenant's holdings; the requester's
    /// own holdings, its guarantee and the other tenants' unclaimed
    /// guarantees then come from the registry's precomputed floors, so
    /// each tier costs O(tenants). The admission arithmetic itself
    /// (quota clamp, fair-share / static test) lives in the placement
    /// engine's `TierPolicy`.
    fn tier_snapshots(
        &self,
        registry: &Registry,
        me: usize,
        stripes: &Stripes<'_>,
    ) -> BTreeMap<MemoryKind, TierSnapshot> {
        let mut tiers: BTreeMap<MemoryKind, (u64, Vec<u64>)> = BTreeMap::new();
        for (node, ledger) in stripes {
            let (free, held) =
                tiers.entry(self.node_kind[node]).or_insert_with(|| (0, vec![0; registry.len()]));
            *free += ledger.free;
            for (&tenant, &bytes) in &ledger.used_by {
                // Holdings of a tenant registered after this snapshot
                // was taken do not count, as they never did.
                if let Some(i) = registry.index(tenant) {
                    held[i] += bytes;
                }
            }
        }
        let quota = &registry.record(me).quota;
        tiers
            .into_iter()
            .map(|(kind, (free, held))| {
                let floors = registry.guarantees(kind);
                let others_shortfall = floors
                    .iter()
                    .zip(&held)
                    .enumerate()
                    .filter(|&(i, _)| i != me)
                    .map(|(_, (&floor, &used))| floor.saturating_sub(used))
                    .sum();
                let snapshot = TierSnapshot {
                    free,
                    used_by_requester: held[me],
                    guarantee: floors[me],
                    others_shortfall,
                    quota: quota.get(&kind).copied(),
                };
                (kind, snapshot)
            })
            .collect()
    }

    /// Serves one allocation request for `tenant`. On success the
    /// returned [`Lease`] holds the placed bytes until
    /// [`Broker::release`]d (or until its TTL expires, when the tenant
    /// was registered with [`TenantSpec::lease_ttl`]); on failure
    /// nothing is committed.
    pub fn acquire(&self, tenant: TenantId, req: &AllocRequest) -> Result<Lease, ServiceError> {
        self.acquire_with_ttl(tenant, req, None)
    }

    /// [`Broker::acquire`] with an explicit per-request TTL override
    /// in epochs; `None` falls back to the tenant's default TTL. The
    /// lease expires `ttl` epochs after the grant unless a
    /// [`Broker::renew`] or [`Broker::heartbeat`] resets the clock.
    pub fn acquire_with_ttl(
        &self,
        tenant: TenantId,
        req: &AllocRequest,
        ttl: Option<u64>,
    ) -> Result<Lease, ServiceError> {
        // Fault hook: a stalled broker refuses allocations with a
        // typed transient error until the stall window closes.
        if self.epoch.load(Ordering::SeqCst) < self.stall_until.load(Ordering::SeqCst) {
            return Err(ServiceError::Stalled);
        }
        // The registry snapshot keeps share math stable for this
        // request without a lock or a copy.
        let registry = self.registry();
        let me = registry
            .index(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(format!("{tenant}")))?;
        let record = registry.record(me);
        let ttl = ttl.or(record.lease_ttl);
        let (ranking, ranked) = self.rank_candidates(req)?;
        if self.sink.enabled() && ranking.attr_fell_back() {
            self.sink.emit(Event::AttrFallback(AttrFallback {
                requested: ranking.requested().0,
                used: ranking.used().0,
            }));
        }
        let size = req.size();

        let mut guards = self.lock_tiers(&ranked);
        let snapshots = self.tier_snapshots(&registry, me, &guards);
        let mut admission =
            TierPolicy::new(self.policy.as_share_mode(), self.node_kind.clone(), snapshots);

        // Plan: the engine walks the ranking, asks the policy how much
        // is admissible on each node, and honors the fallback mode.
        // Ledger bytes are exact (the commit path rounds), so no page
        // quantization here.
        let plan = self.placer.plan(
            &PlanRequest { size, mode: req.get_fallback().as_telemetry(), page_quantize: false },
            &ranked,
            |n| guards[&n].free,
            &mut admission,
        );
        let clamps: Vec<QuotaClamp> = plan
            .clamps
            .iter()
            .map(|c| QuotaClamp {
                broker: self.id,
                tenant: record.name.clone(),
                node: c.node,
                requested: c.requested,
                allowed: c.allowed,
            })
            .collect();

        let emit_clamps = |broker: &Broker, clamps: &[QuotaClamp]| {
            if broker.sink.enabled() {
                for c in clamps {
                    broker.sink.emit(Event::QuotaClamp(c.clone()));
                }
            }
        };
        if !plan.is_complete() {
            emit_clamps(self, &clamps);
            record.clamps.fetch_add(clamps.len() as u64, Ordering::Relaxed);
            return Err(ServiceError::Admission {
                requested: size,
                granted: size - plan.shortfall,
            });
        }

        // Commit under the stripe locks; `Exact` cannot spill past
        // what the arbiter admitted.
        let (region, placement) = {
            let mut mm = self.mm.lock().expect("mm poisoned");
            let region = mm
                .alloc(size, AllocPolicy::Exact(plan.chunks.clone()))
                .map_err(|e| ServiceError::Commit(e.to_string()))?;
            let placement = mm.region(region).expect("fresh region").placement.clone();
            // Settle the ledgers to the manager's ground truth (page
            // rounding happens there) before the stripes unlock.
            for (node, guard) in guards.iter_mut() {
                guard.free = mm.available(*node);
            }
            for &(node, bytes) in &placement {
                if let Some(guard) = guards.get_mut(&node) {
                    *guard.used_by.entry(tenant).or_insert(0) += bytes;
                }
            }
            (region, placement)
        };
        drop(guards);

        let granted: u64 = placement.iter().map(|&(_, b)| b).sum();
        let fast_bytes: u64 = placement
            .iter()
            .filter(|(n, _)| self.node_kind.get(n) == Some(&self.fast_kind))
            .map(|&(_, b)| b)
            .sum();
        let id = LeaseId(self.next_lease.fetch_add(1, Ordering::Relaxed));
        let expires_at = ttl.map(|t| self.epoch.load(Ordering::SeqCst).saturating_add(t));
        self.leases.lock().expect("leases poisoned").insert(
            id,
            LeaseRecord { tenant, region, placement: placement.clone(), ttl, expires_at },
        );
        record.admits.fetch_add(1, Ordering::Relaxed);
        record.clamps.fetch_add(clamps.len() as u64, Ordering::Relaxed);
        emit_clamps(self, &clamps);
        if self.sink.enabled() {
            self.sink.emit(Event::TenantAdmit(TenantAdmit {
                broker: self.id,
                tenant: record.name.clone(),
                lease: id.0,
                size: granted,
                placement: placement.clone(),
                clamped: !clamps.is_empty(),
                fast_bytes,
            }));
        }
        Ok(Lease { id, tenant, region, size: granted, placement, fast_bytes })
    }

    /// Serves a same-tenant batch of admission requests, coalescing
    /// them into **one** ranking and planning walk when they agree on
    /// criterion, fallback, scope and initiator. The merged grant fans
    /// back out to the individual requests in arrival order, each
    /// committing its own region and lease, and one
    /// [`BatchCoalesced`] event records the merge.
    ///
    /// Coalescing is strictly an uncontended-path optimization: if the
    /// merged plan is incomplete or clamped anywhere — the regimes
    /// where fair-share arithmetic decides who gets what — the batch
    /// falls back to serial [`Broker::acquire_with_ttl`] calls, so
    /// arbitration outcomes under pressure are byte-for-byte those of
    /// the single-dispatcher path. `shard` only labels the telemetry.
    pub fn acquire_batch(
        &self,
        tenant: TenantId,
        reqs: &[AllocRequest],
        ttl: Option<u64>,
        shard: u32,
    ) -> Vec<Result<Lease, ServiceError>> {
        let mergeable = reqs.len() >= 2
            && reqs.windows(2).all(|w| {
                w[0].get_criterion() == w[1].get_criterion()
                    && w[0].get_fallback() == w[1].get_fallback()
                    && w[0].scope() == w[1].scope()
                    && w[0].get_initiator() == w[1].get_initiator()
            });
        if mergeable {
            if let Some(results) = self.try_acquire_coalesced(tenant, reqs, ttl, shard) {
                return results;
            }
        }
        reqs.iter().map(|r| self.acquire_with_ttl(tenant, r, ttl)).collect()
    }

    /// The coalesced fast path of [`Broker::acquire_batch`]: plans the
    /// batch total in one walk and splits the chunks back across the
    /// requests. Returns `None` whenever the clean merge does not
    /// apply (stall, unknown tenant, ranking error, incomplete or
    /// clamped plan) — the caller then runs the serial path, which
    /// owns all error reporting and contended arbitration.
    fn try_acquire_coalesced(
        &self,
        tenant: TenantId,
        reqs: &[AllocRequest],
        ttl: Option<u64>,
        shard: u32,
    ) -> Option<Vec<Result<Lease, ServiceError>>> {
        if self.epoch.load(Ordering::SeqCst) < self.stall_until.load(Ordering::SeqCst) {
            return None;
        }
        let registry = self.registry();
        let me = registry.index(tenant)?;
        let record = registry.record(me);
        let ttl = ttl.or(record.lease_ttl);
        let head = &reqs[0];
        let (ranking, ranked) = self.rank_candidates(head).ok()?;
        let total: u64 = reqs.iter().map(|r| r.size()).sum();

        let mut guards = self.lock_tiers(&ranked);
        let snapshots = self.tier_snapshots(&registry, me, &guards);
        let mut admission =
            TierPolicy::new(self.policy.as_share_mode(), self.node_kind.clone(), snapshots);
        let plan = self.placer.plan(
            &PlanRequest {
                size: total,
                mode: head.get_fallback().as_telemetry(),
                page_quantize: false,
            },
            &ranked,
            |n| guards[&n].free,
            &mut admission,
        );
        // Any shortfall or clamp means arbitration is deciding — that
        // must run through the serial path so the outcome is exactly
        // the single-dispatcher one.
        if !plan.is_complete() || !plan.clamps.is_empty() {
            return None;
        }

        // Fan the merged chunk walk back out across the requests in
        // arrival order: request i takes the next `size_i` bytes.
        let sizes: Vec<u64> = reqs.iter().map(|r| r.size()).collect();
        let splits = plan.split(&sizes)?;

        // Commit request by request under the stripe locks, settling
        // the ledgers after each grant exactly like the serial path.
        // Page rounding can exhaust a nearly-full node mid-batch; the
        // unplaced tail then reruns serially (below), which re-plans
        // against the settled ledgers.
        let mut committed: Vec<(RegionId, Vec<(NodeId, u64)>)> = Vec::new();
        {
            let mut mm = self.mm.lock().expect("mm poisoned");
            for (req, chunks) in reqs.iter().zip(&splits) {
                let Ok(region) = mm.alloc(req.size(), AllocPolicy::Exact(chunks.clone())) else {
                    break;
                };
                let placement = mm.region(region).expect("fresh region").placement.clone();
                for (node, guard) in guards.iter_mut() {
                    guard.free = mm.available(*node);
                }
                for &(node, bytes) in &placement {
                    if let Some(guard) = guards.get_mut(&node) {
                        *guard.used_by.entry(tenant).or_insert(0) += bytes;
                    }
                }
                committed.push((region, placement));
            }
        }
        drop(guards);
        if committed.len() < 2 {
            // The merge collapsed before it saved any planning work;
            // roll the stray grant back (ledgers included) and let the
            // serial path serve the whole batch from scratch.
            if let Some((region, placement)) = committed.pop() {
                self.settle_free(&LeaseRecord {
                    tenant,
                    region,
                    placement,
                    ttl: None,
                    expires_at: None,
                });
            }
            return None;
        }

        if self.sink.enabled() && ranking.attr_fell_back() {
            // One merged walk ⇒ one attribute substitution.
            self.sink.emit(Event::AttrFallback(AttrFallback {
                requested: ranking.requested().0,
                used: ranking.used().0,
            }));
        }
        let mut results: Vec<Result<Lease, ServiceError>> = Vec::with_capacity(reqs.len());
        for (region, placement) in &committed {
            let granted: u64 = placement.iter().map(|&(_, b)| b).sum();
            let fast_bytes: u64 = placement
                .iter()
                .filter(|(n, _)| self.node_kind.get(n) == Some(&self.fast_kind))
                .map(|&(_, b)| b)
                .sum();
            let id = LeaseId(self.next_lease.fetch_add(1, Ordering::Relaxed));
            let expires_at = ttl.map(|t| self.epoch.load(Ordering::SeqCst).saturating_add(t));
            self.leases.lock().expect("leases poisoned").insert(
                id,
                LeaseRecord {
                    tenant,
                    region: *region,
                    placement: placement.clone(),
                    ttl,
                    expires_at,
                },
            );
            record.admits.fetch_add(1, Ordering::Relaxed);
            if self.sink.enabled() {
                self.sink.emit(Event::TenantAdmit(TenantAdmit {
                    broker: self.id,
                    tenant: record.name.clone(),
                    lease: id.0,
                    size: granted,
                    placement: placement.clone(),
                    clamped: false,
                    fast_bytes,
                }));
            }
            results.push(Ok(Lease {
                id,
                tenant,
                region: *region,
                size: granted,
                placement: placement.clone(),
                fast_bytes,
            }));
        }
        if self.sink.enabled() {
            let bytes: u64 = committed.iter().flat_map(|(_, p)| p.iter()).map(|&(_, b)| b).sum();
            self.sink.emit(Event::BatchCoalesced(BatchCoalesced {
                broker: self.id,
                shard,
                tenant: record.name.clone(),
                merged: committed.len() as u64,
                bytes,
            }));
        }
        // Any tail the commit loop could not place reruns serially.
        for req in &reqs[committed.len()..] {
            results.push(self.acquire_with_ttl(tenant, req, ttl));
        }
        Some(results)
    }

    /// Returns a lease's capacity to the machine.
    pub fn release(&self, lease: Lease) -> Result<(), ServiceError> {
        self.release_by_id(lease.id)
    }

    /// [`Broker::release`] by wire handle (for remote clients that
    /// only hold the id).
    pub fn release_by_id(&self, id: LeaseId) -> Result<(), ServiceError> {
        let record = self
            .leases
            .lock()
            .expect("leases poisoned")
            .remove(&id)
            .ok_or(ServiceError::UnknownLease(id.0))?;
        self.settle_free(&record);
        Ok(())
    }

    /// Frees a removed lease record in the manager and settles the
    /// per-node ledgers to the manager's ground truth.
    fn settle_free(&self, record: &LeaseRecord) {
        {
            let nodes: BTreeSet<NodeId> = record.placement.iter().map(|&(n, _)| n).collect();
            let mut guards: Stripes<'_> = nodes
                .iter()
                .map(|&n| (n, self.stripes[&n].lock().expect("stripe poisoned")))
                .collect();
            let mut mm = self.mm.lock().expect("mm poisoned");
            mm.free(record.region);
            for (node, guard) in guards.iter_mut() {
                guard.free = mm.available(*node);
            }
            for &(node, bytes) in &record.placement {
                if let Some(guard) = guards.get_mut(&node) {
                    let used = guard.used_by.entry(record.tenant).or_insert(0);
                    *used = used.saturating_sub(bytes);
                    if *used == 0 {
                        guard.used_by.remove(&record.tenant);
                    }
                }
            }
        }
        // Outside the stripe/manager locks: the plane must stop
        // tracking a region whose id the manager may now reuse.
        self.guidance_forget(record.tenant, record.region);
    }

    /// Reclaims a lease outside the normal release path: frees its
    /// capacity, bumps the robustness counters, and emits
    /// `lease_expired`/`lease_revoked` plus `reclaim` telemetry.
    fn reclaim_lease(&self, id: LeaseId, cause: ReclaimCause) -> Result<(), ServiceError> {
        let record = self
            .leases
            .lock()
            .expect("leases poisoned")
            .remove(&id)
            .ok_or(ServiceError::UnknownLease(id.0))?;
        self.settle_free(&record);
        let bytes: u64 = record.placement.iter().map(|&(_, b)| b).sum();
        self.reclaimed_bytes_total.fetch_add(bytes, Ordering::Relaxed);
        match &cause {
            ReclaimCause::Expired { .. } => self.expired_total.fetch_add(1, Ordering::Relaxed),
            ReclaimCause::Revoked { .. } => self.revoked_total.fetch_add(1, Ordering::Relaxed),
        };
        if self.sink.enabled() {
            let tenant = self.registry().name(record.tenant);
            let reason = match &cause {
                ReclaimCause::Expired { ttl } => {
                    self.sink.emit(Event::LeaseExpired(LeaseExpired {
                        broker: self.id,
                        tenant: tenant.clone(),
                        lease: id.0,
                        ttl_epochs: *ttl,
                    }));
                    "expired".to_string()
                }
                ReclaimCause::Revoked { reason } => {
                    self.sink.emit(Event::LeaseRevoked(LeaseRevoked {
                        broker: self.id,
                        tenant: tenant.clone(),
                        lease: id.0,
                        reason: reason.clone(),
                    }));
                    "revoked".to_string()
                }
            };
            self.sink.emit(Event::Reclaim(Reclaim {
                broker: self.id,
                tenant,
                lease: id.0,
                bytes,
                placement: record.placement.clone(),
                reason,
            }));
        }
        Ok(())
    }

    /// Revokes a live lease (connection drop, operator action, fault
    /// injection) and reclaims its capacity immediately.
    pub fn revoke(&self, id: LeaseId, reason: &str) -> Result<(), ServiceError> {
        self.reclaim_lease(id, ReclaimCause::Revoked { reason: reason.to_string() })
    }

    /// Resets the TTL clock of one lease: the new expiry is the
    /// current epoch plus the lease's TTL. Returns the new expiry
    /// epoch, or `None` for an immortal lease (renewing it is a
    /// harmless no-op). Cross-tenant renewals are refused as
    /// [`ServiceError::UnknownLease`], mirroring `free`.
    pub fn renew(&self, tenant: TenantId, id: LeaseId) -> Result<Option<u64>, ServiceError> {
        let now = self.epoch.load(Ordering::SeqCst);
        let mut leases = self.leases.lock().expect("leases poisoned");
        let record = leases.get_mut(&id).ok_or(ServiceError::UnknownLease(id.0))?;
        if record.tenant != tenant {
            return Err(ServiceError::UnknownLease(id.0));
        }
        record.expires_at = record.ttl.map(|t| now.saturating_add(t));
        Ok(record.expires_at)
    }

    /// Renews every lease the tenant holds in one call — the wire
    /// heartbeat. Returns the number of leases whose clock was reset.
    pub fn heartbeat(&self, tenant: TenantId) -> Result<u64, ServiceError> {
        if self.registry().index(tenant).is_none() {
            return Err(ServiceError::UnknownTenant(format!("{tenant}")));
        }
        let now = self.epoch.load(Ordering::SeqCst);
        let mut renewed = 0;
        for record in self.leases.lock().expect("leases poisoned").values_mut() {
            if record.tenant == tenant {
                if let Some(t) = record.ttl {
                    record.expires_at = Some(now.saturating_add(t));
                    renewed += 1;
                }
            }
        }
        Ok(renewed)
    }

    /// Reclaims every lease whose TTL elapsed without a renewal.
    /// Called from [`Broker::advance_epoch`]; public so harnesses can
    /// force a sweep. Returns the number of leases reclaimed.
    pub fn expire_overdue(&self) -> usize {
        let now = self.epoch.load(Ordering::SeqCst);
        let overdue: Vec<(LeaseId, u64)> = self
            .leases
            .lock()
            .expect("leases poisoned")
            .iter()
            .filter(|(_, r)| r.expires_at.is_some_and(|at| at <= now))
            .map(|(&id, r)| (id, r.ttl.unwrap_or(0)))
            .collect();
        let mut reclaimed = 0;
        for (id, ttl) in overdue {
            // A concurrent release may have beaten us; that is fine.
            if self.reclaim_lease(id, ReclaimCause::Expired { ttl }).is_ok() {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Marks tier `kind` degraded or healthy. Degraded tiers are
    /// demoted to last-resort rank in every subsequent placement —
    /// ranked fallback instead of hard failure. Emits a
    /// `tier_degraded` event on every state change.
    pub fn set_tier_degraded(&self, kind: MemoryKind, degraded: bool) {
        let changed = {
            let mut set = self.degraded.lock().expect("degraded poisoned");
            if degraded {
                set.insert(kind)
            } else {
                set.remove(&kind)
            }
        };
        if changed && self.sink.enabled() {
            self.sink.emit(Event::TierDegraded(TierDegraded {
                broker: self.id,
                kind: crate::wire::kind_name(kind).to_string(),
                degraded,
            }));
        }
    }

    /// Whether tier `kind` is currently marked degraded.
    pub fn tier_degraded(&self, kind: MemoryKind) -> bool {
        self.degraded.lock().expect("degraded poisoned").contains(&kind)
    }

    /// Fault hook: refuse allocations with [`ServiceError::Stalled`]
    /// for the next `epochs` epochs.
    pub fn set_alloc_stall(&self, epochs: u64) {
        let until = self.epoch.load(Ordering::SeqCst).saturating_add(epochs);
        self.stall_until.store(until, Ordering::SeqCst);
    }

    /// The current service epoch (one per dispatcher batch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The expiry epoch of a live lease: `Some(epoch)` for a TTL'd
    /// lease, `None` when the lease is immortal or unknown.
    pub fn lease_deadline(&self, id: LeaseId) -> Option<u64> {
        self.leases.lock().expect("leases poisoned").get(&id).and_then(|r| r.expires_at)
    }

    /// Snapshot of the robustness counters.
    pub fn robustness(&self) -> RobustnessStats {
        RobustnessStats {
            expired: self.expired_total.load(Ordering::Relaxed),
            revoked: self.revoked_total.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes_total.load(Ordering::Relaxed),
        }
    }

    /// The sink the broker streams telemetry into (the server's
    /// dispatcher and the serve binary attach collectors to it).
    pub fn sink_handle(&self) -> TelemetrySink {
        self.sink.clone()
    }

    /// The placement of a live lease, if it exists.
    pub fn placement(&self, id: LeaseId) -> Option<Vec<(NodeId, u64)>> {
        self.leases.lock().expect("leases poisoned").get(&id).map(|r| r.placement.clone())
    }

    /// The tenant holding a live lease, if it exists (the wire layer
    /// uses this to refuse cross-tenant frees).
    pub fn lease_owner(&self, id: LeaseId) -> Option<TenantId> {
        self.leases.lock().expect("leases poisoned").get(&id).map(|r| r.tenant)
    }

    /// Number of live leases.
    pub fn live_leases(&self) -> usize {
        self.leases.lock().expect("leases poisoned").len()
    }

    /// Registers one dispatcher tick. With a single dispatch plane
    /// (the default) every tick opens the next contention epoch,
    /// advances the service clock, and reclaims any lease whose TTL
    /// elapsed without a renewal. With `S` planes
    /// ([`Broker::set_dispatch_planes`]) the epoch — and therefore
    /// TTL aging — advances once per round of `S` ticks, keeping
    /// contention windows and lease lifetimes one service round wide
    /// regardless of shard count.
    pub fn advance_epoch(&self) {
        if self.board.advance_epoch() {
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.expire_overdue();
            self.guided_fold();
        }
    }

    /// Tells the epoch clock how many dispatch planes (shard
    /// dispatchers) tick this broker per service round. The sharded
    /// server calls this at bind time; `hetmem-serve` style embedders
    /// driving [`Broker::advance_epoch`] from one loop never need to.
    pub fn set_dispatch_planes(&self, planes: u32) {
        self.board.set_planes(planes);
    }

    /// Posts one dispatch round's admission counts (`dispatched`
    /// served, `stolen` of them by work stealing) to the epoch's
    /// steal-rate meter. [`crate::ShardCore`] calls this per drain.
    pub fn note_shard_dispatch(&self, dispatched: u64, stolen: u64) {
        self.board.note_dispatch(dispatched, stolen);
    }

    /// The dispatch plane's steal rate over the last closed epoch.
    pub fn steal_rate(&self) -> f64 {
        self.board.steal_rate()
    }

    /// Whether work stealing has stayed at or above
    /// [`crate::STEAL_WARN_RATE`] for
    /// [`crate::STEAL_WARN_EPOCHS`] consecutive epochs —
    /// the operator signal that the shard assignment itself is
    /// imbalanced (`docs/OPERATIONS.md` §8).
    pub fn steal_warning(&self) -> bool {
        self.board.steal_warning()
    }

    /// Captures every piece of mutable broker state as plain data.
    /// Meant to be called at an epoch boundary (between dispatcher
    /// batches); the capture is internally consistent regardless, but
    /// only epoch-boundary captures are exactly replayable because the
    /// contention board resets per epoch.
    pub fn snapshot_state(&self) -> BrokerState {
        // Lock order: leases → stripes → manager, same as every other
        // broker path. The registry's read lock is held throughout so
        // no tenant registers mid-capture: every captured lease's
        // holder is in the capture.
        let registry = self.registry.read().expect("registry poisoned");
        let leases = self.leases.lock().expect("leases poisoned");
        let tenant_entries = registry
            .iter()
            .map(|(id, t)| TenantEntry {
                id: id.0,
                name: t.name.clone(),
                priority: t.priority,
                quota: t.quota.iter().map(|(&k, &v)| (k, v)).collect(),
                reserve: t.reserve.iter().map(|(&k, &v)| (k, v)).collect(),
                lease_ttl: t.lease_ttl,
                admits: t.admits.load(Ordering::Relaxed),
                clamps: t.clamps.load(Ordering::Relaxed),
                stalls: t.stalls.load(Ordering::Relaxed),
            })
            .collect();
        let lease_entries = leases
            .iter()
            .map(|(&id, r)| LeaseEntry {
                id: id.0,
                tenant: r.tenant.0,
                region: r.region.0,
                placement: r.placement.clone(),
                ttl: r.ttl,
                expires_at: r.expires_at,
            })
            .collect();
        let stripe_entries = self
            .stripes
            .iter()
            .map(|(&node, ledger)| {
                let l = ledger.lock().expect("stripe poisoned");
                StripeEntry {
                    node,
                    free: l.free,
                    used_by: l.used_by.iter().map(|(&t, &b)| (t.0, b)).collect(),
                }
            })
            .collect();
        let manager = self.mm.lock().expect("mm poisoned").capture();
        BrokerState {
            machine: self.machine.name().to_string(),
            id: self.id,
            policy: self.policy,
            epoch: self.epoch.load(Ordering::SeqCst),
            next_tenant: self.next_tenant.load(Ordering::SeqCst),
            next_lease: self.next_lease.load(Ordering::SeqCst),
            stall_until: self.stall_until.load(Ordering::SeqCst),
            expired_total: self.expired_total.load(Ordering::Relaxed),
            revoked_total: self.revoked_total.load(Ordering::Relaxed),
            reclaimed_bytes_total: self.reclaimed_bytes_total.load(Ordering::Relaxed),
            degraded: self.degraded.lock().expect("degraded poisoned").iter().copied().collect(),
            tenants: tenant_entries,
            leases: lease_entries,
            stripes: stripe_entries,
            manager,
        }
    }

    /// Reconstructs a live broker from a [`BrokerState`] capture.
    ///
    /// Every cross-reference is validated before anything is
    /// installed: the machine name must match, ids must precede their
    /// issue counters, leases must point at registered tenants and
    /// live manager regions, stripe free bytes must agree with the
    /// restored manager, and degraded kinds must exist on the machine.
    /// Violations return [`ServiceError::Snapshot`]; nothing panics on
    /// corrupt input. Telemetry starts disabled — call
    /// [`Broker::set_sink`] to re-attach collectors.
    pub fn restore(
        machine: Arc<Machine>,
        attrs: Arc<MemAttrs>,
        state: &BrokerState,
    ) -> Result<Broker, ServiceError> {
        let err = |why: String| ServiceError::Snapshot(why);
        if machine.name() != state.machine {
            return Err(err(format!(
                "snapshot captured on machine {:?}, not {:?}",
                state.machine,
                machine.name()
            )));
        }
        // The stripe set IS the shard: a standalone capture carries
        // every node, a federation member's capture only its own.
        let shard: BTreeSet<NodeId> = state.stripes.iter().map(|s| s.node).collect();
        let mut broker = Broker::with_shard(machine.clone(), attrs, state.policy, state.id, &shard);
        let mm = MemoryManager::restore(machine, &state.manager).map_err(|e| err(e.to_string()))?;

        let mut tenants: BTreeMap<TenantId, Arc<TenantRecord>> = BTreeMap::new();
        for t in &state.tenants {
            if t.id >= state.next_tenant {
                return Err(err(format!(
                    "tenant #{} at or past the issue counter {}",
                    t.id, state.next_tenant
                )));
            }
            let previous = tenants.insert(
                TenantId(t.id),
                Arc::new(TenantRecord {
                    name: t.name.clone(),
                    priority: t.priority,
                    quota: t.quota.iter().copied().collect(),
                    reserve: t.reserve.iter().copied().collect(),
                    lease_ttl: t.lease_ttl,
                    admits: AtomicU64::new(t.admits),
                    clamps: AtomicU64::new(t.clamps),
                    stalls: AtomicU64::new(t.stalls),
                }),
            );
            if previous.is_some() {
                return Err(err(format!("duplicate tenant #{}", t.id)));
            }
        }

        let mut leases: BTreeMap<LeaseId, LeaseRecord> = BTreeMap::new();
        for l in &state.leases {
            if l.id >= state.next_lease {
                return Err(err(format!(
                    "lease #{} at or past the issue counter {}",
                    l.id, state.next_lease
                )));
            }
            if !tenants.contains_key(&TenantId(l.tenant)) {
                return Err(err(format!("lease #{} held by unknown tenant #{}", l.id, l.tenant)));
            }
            if mm.region(RegionId(l.region)).is_none() {
                return Err(err(format!("lease #{} backed by unknown region #{}", l.id, l.region)));
            }
            let previous = leases.insert(
                LeaseId(l.id),
                LeaseRecord {
                    tenant: TenantId(l.tenant),
                    region: RegionId(l.region),
                    placement: l.placement.clone(),
                    ttl: l.ttl,
                    expires_at: l.expires_at,
                },
            );
            if previous.is_some() {
                return Err(err(format!("duplicate lease #{}", l.id)));
            }
        }

        if state.stripes.len() != broker.stripes.len() {
            return Err(err(format!(
                "snapshot carries {} node stripes, machine has {}",
                state.stripes.len(),
                broker.stripes.len()
            )));
        }
        for s in &state.stripes {
            let Some(ledger) = broker.stripes.get(&s.node) else {
                return Err(err(format!("stripe references unknown {}", s.node)));
            };
            let available = mm.available(s.node);
            if s.free != available {
                return Err(err(format!(
                    "stripe {} free bytes {} disagree with the manager's {}",
                    s.node, s.free, available
                )));
            }
            let mut used_by: BTreeMap<TenantId, u64> = BTreeMap::new();
            for &(tenant, bytes) in &s.used_by {
                if !tenants.contains_key(&TenantId(tenant)) {
                    return Err(err(format!(
                        "stripe {} charges unknown tenant #{}",
                        s.node, tenant
                    )));
                }
                if used_by.insert(TenantId(tenant), bytes).is_some() {
                    return Err(err(format!("stripe {} charges tenant #{} twice", s.node, tenant)));
                }
            }
            *ledger.lock().expect("stripe poisoned") = NodeLedger { free: s.free, used_by };
        }

        for &kind in &state.degraded {
            if !broker.tier_capacity.contains_key(&kind) {
                return Err(err(format!("degraded tier {kind:?} does not exist on the machine")));
            }
        }

        *broker.mm.get_mut().expect("mm poisoned") = mm;
        *broker.registry.get_mut().expect("registry poisoned") =
            Arc::new(Registry::build(tenants.into_iter().collect(), &broker.tier_capacity));
        *broker.leases.get_mut().expect("leases poisoned") = leases;
        *broker.degraded.get_mut().expect("degraded poisoned") =
            state.degraded.iter().copied().collect();
        broker.next_tenant = AtomicU32::new(state.next_tenant);
        broker.next_lease = AtomicU64::new(state.next_lease);
        broker.epoch = AtomicU64::new(state.epoch);
        broker.stall_until = AtomicU64::new(state.stall_until);
        broker.expired_total = AtomicU64::new(state.expired_total);
        broker.revoked_total = AtomicU64::new(state.revoked_total);
        broker.reclaimed_bytes_total = AtomicU64::new(state.reclaimed_bytes_total);
        Ok(broker)
    }

    /// Posts `traffic` (`(node, bytes)` pairs) by `tenant` for the
    /// current epoch and returns the stall charged, ns: when the
    /// combined offered bytes at a node exceed what its controller can
    /// drain in `window_ns`, everyone arriving at the saturated node
    /// is slowed proportionally (capped at [`MAX_CONTENTION_SLOWDOWN`]x
    /// the window). Emits a `ContentionStall` event per saturated node.
    pub fn charge_traffic(
        &self,
        tenant: TenantId,
        traffic: &[(NodeId, u64)],
        window_ns: f64,
    ) -> f64 {
        let mut stall_ns: f64 = 0.0;
        let mut stalled = 0u64;
        for &(node, bytes) in traffic {
            if bytes == 0 {
                continue;
            }
            let (others, sharers) = self.board.offer(node, tenant, bytes);
            if others == 0 {
                continue;
            }
            let timing = self.machine.timing(node);
            let capacity_bytes = timing.peak_read_bw_mbps * (1 << 20) as f64 * (window_ns / 1e9);
            let demand = (bytes + others) as f64;
            if demand <= capacity_bytes || capacity_bytes <= 0.0 {
                continue;
            }
            let over = (demand / capacity_bytes - 1.0).min(MAX_CONTENTION_SLOWDOWN);
            let node_stall = window_ns * over;
            stall_ns = stall_ns.max(node_stall);
            stalled += 1;
            if self.sink.enabled() {
                self.sink.emit(Event::ContentionStall(ContentionStall {
                    broker: self.id,
                    tenant: self.registry().name(tenant),
                    node,
                    stall_ns: node_stall,
                    sharers,
                }));
            }
        }
        if stalled > 0 {
            if let Some(t) = self.registry().get(tenant) {
                t.stalls.fetch_add(stalled, Ordering::Relaxed);
            }
        }
        stall_ns
    }

    /// Runs a memsim phase for `tenant` against the shared manager,
    /// then charges contention for the traffic it generated in the
    /// current epoch. A phase touching a region with no live
    /// allocation — its lease released, expired or revoked — is
    /// refused with [`ServiceError::UnknownRegion`] and runs nothing.
    pub fn run_phase(&self, tenant: TenantId, phase: &Phase) -> Result<ServedPhase, ServiceError> {
        if self.registry().index(tenant).is_none() {
            return Err(ServiceError::UnknownTenant(format!("{tenant}")));
        }
        let report = {
            let mm = self.mm.lock().expect("mm poisoned");
            // Checked under the same guard as the engine call: the
            // engine panics on a freed region, and a panic here would
            // poison the manager for every tenant.
            if let Some(gone) = phase.accesses.iter().find(|a| mm.region(a.region).is_none()) {
                return Err(ServiceError::UnknownRegion(gone.region.0));
            }
            self.engine.run_phase(&mm, phase)
        };
        let traffic: Vec<(NodeId, u64)> =
            report.per_node.iter().map(|(&n, t)| (n, t.bytes_read + t.bytes_written)).collect();
        let stall_ns = self.charge_traffic(tenant, &traffic, report.time_ns);
        self.feed_guidance(tenant, &report);
        Ok(ServedPhase { report, stall_ns })
    }

    /// Snapshot of every tenant's standing.
    pub fn tenants(&self) -> Vec<TenantStats> {
        let registry = self.registry();
        let mut held: BTreeMap<TenantId, BTreeMap<MemoryKind, u64>> = BTreeMap::new();
        for (&node, stripe) in &self.stripes {
            let kind = self.node_kind[&node];
            let guard = stripe.lock().expect("stripe poisoned");
            for (&tenant, &bytes) in &guard.used_by {
                *held.entry(tenant).or_default().entry(kind).or_insert(0) += bytes;
            }
        }
        registry
            .iter()
            .map(|(id, t)| TenantStats {
                id,
                name: t.name.clone(),
                priority: t.priority,
                held: held.remove(&id).unwrap_or_default(),
                admits: t.admits.load(Ordering::Relaxed),
                clamps: t.clamps.load(Ordering::Relaxed),
                stalls: t.stalls.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Per-node `(used, total)` according to the memory manager.
    pub fn node_usage(&self) -> Vec<(NodeId, u64, u64)> {
        let mm = self.mm.lock().expect("mm poisoned");
        self.node_kind.keys().map(|&n| (n, mm.used(n), self.machine.usable_capacity(n))).collect()
    }

    /// Cross-checks every ledger against the memory manager and the
    /// lease table. Intended for tests at quiescent points (no
    /// in-flight requests); returns a description of the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let leases = self.leases.lock().expect("leases poisoned").clone();
        let mut lease_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();
        for record in leases.values() {
            for &(node, bytes) in &record.placement {
                *lease_bytes.entry(node).or_insert(0) += bytes;
            }
        }
        let mut guards: Stripes<'_> = BTreeMap::new();
        for (&node, stripe) in &self.stripes {
            guards.insert(node, stripe.lock().expect("stripe poisoned"));
        }
        let mm = self.mm.lock().expect("mm poisoned");
        for (&node, guard) in &guards {
            let used = mm.used(node);
            let from_leases = lease_bytes.get(&node).copied().unwrap_or(0);
            if used != from_leases {
                return Err(format!(
                    "node {node:?}: manager reports {used} used but live leases hold {from_leases}"
                ));
            }
            if guard.free != mm.available(node) {
                return Err(format!(
                    "node {node:?}: stripe says {} free but manager says {}",
                    guard.free,
                    mm.available(node)
                ));
            }
            let ledger_used: u64 = guard.used_by.values().sum();
            if ledger_used != used {
                return Err(format!(
                    "node {node:?}: per-tenant ledger sums to {ledger_used}, manager says {used}"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("policy", &self.policy)
            .field("fast_kind", &self.fast_kind)
            .field("live_leases", &self.live_leases())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
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

    /// The per-tenant shortfall loop admission ran before
    /// [`Broker::tier_snapshots`]: every other tenant's guarantee and
    /// holdings recomputed per candidate tier, O(tenants²).
    fn reference_tier_snapshots(
        broker: &Broker,
        registry: &Registry,
        tenant: TenantId,
        guards: &Stripes<'_>,
    ) -> BTreeMap<MemoryKind, TierSnapshot> {
        let tiers: BTreeSet<MemoryKind> = guards.keys().map(|n| broker.node_kind[n]).collect();
        let tier_free = |kind: MemoryKind| {
            guards
                .iter()
                .filter(|(n, _)| broker.node_kind.get(n) == Some(&kind))
                .map(|(_, g)| g.free)
                .sum::<u64>()
        };
        let tier_used_by = |kind: MemoryKind, who: TenantId| {
            guards
                .iter()
                .filter(|(n, _)| broker.node_kind.get(n) == Some(&kind))
                .map(|(_, g)| g.used_by.get(&who).copied().unwrap_or(0))
                .sum::<u64>()
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
            .map(|(&k, s)| {
                (k, s.free, s.used_by_requester, s.guarantee, s.others_shortfall, s.quota)
            })
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
            let guards = broker.lock_tiers(&ranked);
            let fast = broker.tier_snapshots(&registry, me, &guards);
            let reference = reference_tier_snapshots(broker, &registry, tenant, &guards);
            prop_assert_eq!(fields(&fast), fields(&reference));
            let plan = |snapshots| {
                let mut policy = TierPolicy::new(
                    broker.policy.as_share_mode(),
                    broker.node_kind.clone(),
                    snapshots,
                );
                broker.placer.plan(
                    &PlanRequest {
                        size: req.size(),
                        mode: req.get_fallback().as_telemetry(),
                        page_quantize: false,
                    },
                    &ranked,
                    |n| guards[&n].free,
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
                prop_assert_eq!(
                    (requested, granted),
                    (req.size(), req.size() - expected.shortfall)
                );
                Ok(None)
            }
            // Page rounding can overflow a nearly-full node at commit;
            // that happens to the reference plan just the same.
            Err(ServiceError::Commit(_)) if expected.is_complete() => Ok(None),
            Err(e) => Err(format!("unexpected error {e}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random registries (1–64 tenants, mixed priorities, reserves
        /// and quotas) over random stripe holdings: the precomputed
        /// snapshot path gives every tenant the reference snapshots.
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
            // Holdings may name ids past the registry (a tenant that
            // registered after the snapshot was taken).
            let nodes: Vec<NodeId> = broker.stripes.keys().copied().collect();
            for &(node, tenant, bytes) in &holdings {
                let mut ledger = broker.stripes[&nodes[node % nodes.len()]].lock().unwrap();
                ledger.used_by.insert(TenantId(tenant as u32), bytes);
            }
            for (node, &free) in nodes.iter().zip(&frees) {
                broker.stripes[node].lock().unwrap().free = free;
            }
            let registry = broker.registry();
            let guards = broker.lock_tiers(&nodes);
            for (me, (id, _)) in registry.iter().enumerate() {
                prop_assert_eq!(
                    fields(&broker.tier_snapshots(&registry, me, &guards)),
                    fields(&reference_tier_snapshots(&broker, &registry, id, &guards)),
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
        let b = broker
            .register(TenantSpec::new("b").quota(MemoryKind::Hbm, 2 * GIB))
            .expect("register");
        let r = broker
            .register(
                TenantSpec::new("r").priority(Priority::Batch).reserve(MemoryKind::Hbm, 4 * GIB),
            )
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
        assert!(matches!(
            broker.register(TenantSpec::new("a")),
            Err(ServiceError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn oversubscribed_reservations_are_rejected() {
        let broker = knl_broker(ArbitrationPolicy::FairShare);
        broker.register(TenantSpec::new("a").reserve(MemoryKind::Hbm, 12 * GIB)).expect("fits");
        let err =
            broker.register(TenantSpec::new("b").reserve(MemoryKind::Hbm, 8 * GIB)).unwrap_err();
        assert!(matches!(err, ServiceError::Reservation { .. }));
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
        let capped = broker
            .register(TenantSpec::new("capped").quota(MemoryKind::Hbm, GIB))
            .expect("register");
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
        let events: Vec<Event> =
            sink.collector().drain_sorted().into_iter().map(|e| e.event).collect();
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
}
