//! The allocation broker: one shared `MemoryManager` served to many
//! concurrent tenants behind one ledger lock.
//!
//! Every admission runs through one pipeline,
//! [`Broker::acquire_with_ttl`]:
//!
//! 1. **Ranking** — candidates come from the same attribute machinery
//!    the single-tenant allocator uses (local targets of the
//!    initiator ranked by the requested criterion, with the paper's
//!    attribute-fallback chain).
//! 2. **Admission** — under the ledger lock, the arbiter walks the
//!    ranking and decides how many bytes the tenant may take on each
//!    node under the active [`ArbitrationPolicy`]: quota clamp first,
//!    then the fair-share test, then ranked fallback to slower tiers.
//!    Denials emit `QuotaClamp` telemetry and never preempt existing
//!    leases.
//! 3. **Commit** — still under the lock, the request is placed as one
//!    region with `AllocPolicy::Exact` and charged to the tenant's
//!    holdings; its [`Lease`] is issued once the lock is released.
//!
//! The ledger is one mutex over the memory manager and every tenant's
//! holdings; free bytes are the manager's own. Every
//! attribute ranking spans every tier of the modelled machines, so
//! per-node locks would all be taken on every request anyway. A
//! waiter retries the lock briefly before it parks, since its critical
//! sections are shorter than a wake-up. Lock order is lease table,
//! then ledger, so concurrent clients can never deadlock. The tenant
//! registry is not in that order: it is an immutable snapshot shared
//! as an `Arc` and swapped whenever a tenant registers, so a request
//! holds its lock only for the instant it takes a reference, never
//! while planning. (A checkpoint holds it across the capture so no
//! tenant registers mid-capture; no path takes it while holding
//! another broker lock.)
//!
//! Fair-share admission costs O(tenants) per candidate tier, with no
//! lookup per holding: the registry snapshot carries every tenant's
//! guarantee on every tier, and the ledger keeps every tenant's bytes
//! on every tier in one array by registry index. One pass over a
//! tier's floors and holdings gives the other tenants' unclaimed
//! guarantees. What each tenant holds on each node is summed from the
//! lease table when a capture or a check needs it. On
//! tier-contention (32 tenants, two admitting threads, KNL) an
//! admission holds the ledger about 3.5 µs, 1 µs of it for the
//! snapshots.

use crate::board::TrafficBoard;
use crate::tenant::{Priority, Registry, TenantId, TenantRecord, TenantSpec, TenantStats};
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use hetmem_core::{attr, MemAttrs};
use hetmem_memsim::{
    AccessEngine, AllocPolicy, Machine, ManagerState, MemoryManager, Phase, PhaseReport, RegionId,
};
use hetmem_placement::{
    normalize_initiator, ArbitrationPolicy, PlacementEngine, PlacementError, PlanRequest,
    RankedCandidates, TierPolicy, TierSnapshot,
};
use hetmem_telemetry::{
    AttrFallback, ContentionStall, Event, LeaseExpired, LeaseRevoked, QuotaClamp, Reclaim,
    TelemetrySink, TenantAdmit, TierDegraded,
};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};

#[path = "guidance.rs"]
pub mod guidance;

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
    /// The tenant's registry index, fixed for the broker's lifetime.
    index: usize,
    region: hetmem_memsim::RegionId,
    placement: Vec<(NodeId, u64)>,
    /// The TTL the lease runs under, in epochs (`None` = immortal).
    ttl: Option<u64>,
    /// Epoch at which the lease expires unless renewed first.
    expires_at: Option<u64>,
}

/// The live leases, in two views: every record by lease id, and each
/// tenant's lease ids in ascending order by registry index. Only
/// [`LeaseTable::insert`] and [`LeaseTable::remove`] add or drop a
/// lease, and they keep both views in step. A heartbeat and the guided
/// fold read one tenant's ids; only expiry, capture, restore and
/// `check_invariants` walk every lease.
#[derive(Debug, Default)]
struct LeaseTable {
    records: BTreeMap<LeaseId, LeaseRecord>,
    /// Live lease ids by registry index, ascending. Registration only
    /// appends, so an index names one tenant for the broker's lifetime;
    /// the row grows when a tenant is first granted a lease, and a
    /// tenant past its end holds none.
    by_tenant: Vec<Vec<LeaseId>>,
}

impl LeaseTable {
    /// Adds a lease under `id`, listed under `record.index`. An id
    /// already live is refused and nothing changes.
    fn insert(&mut self, id: LeaseId, record: LeaseRecord) -> bool {
        let index = record.index;
        let std::collections::btree_map::Entry::Vacant(slot) = self.records.entry(id) else {
            return false;
        };
        slot.insert(record);
        if self.by_tenant.len() <= index {
            self.by_tenant.resize_with(index + 1, Vec::new);
        }
        let ids = &mut self.by_tenant[index];
        // Ids are issued in order, so this is nearly always the end.
        let at = ids.partition_point(|&other| other < id);
        ids.insert(at, id);
        true
    }

    /// Removes a live lease from both views.
    fn remove(&mut self, id: LeaseId) -> Option<LeaseRecord> {
        let record = self.records.remove(&id)?;
        let ids = &mut self.by_tenant[record.index];
        let at = ids.binary_search(&id).expect("a live lease is listed under its tenant");
        ids.remove(at);
        Some(record)
    }

    /// The live lease ids of the tenant at registry index `index`,
    /// ascending.
    fn of(&self, index: usize) -> &[LeaseId] {
        self.by_tenant.get(index).map_or(&[], Vec::as_slice)
    }

    /// Resets the TTL clock of every lease of the tenant at `index` to
    /// `now`; returns how many run under a TTL.
    fn renew_tenant(&mut self, index: usize, now: u64) -> u64 {
        let mut renewed = 0;
        for id in self.by_tenant.get(index).map_or(&[][..], Vec::as_slice) {
            let record = self.records.get_mut(id).expect("a listed lease is live");
            if let Some(t) = record.ttl {
                record.expires_at = Some(now.saturating_add(t));
                renewed += 1;
            }
        }
        renewed
    }

    /// Bytes the live leases hold on each node, by holder. Empty
    /// chunks are skipped and sums saturate, so a corrupt capture's
    /// leases disagree with its stripes instead of overflowing.
    fn held(&self) -> BTreeMap<NodeId, BTreeMap<TenantId, u64>> {
        let mut held: BTreeMap<NodeId, BTreeMap<TenantId, u64>> = BTreeMap::new();
        for record in self.records.values() {
            for &(node, bytes) in record.placement.iter().filter(|&&(_, b)| b > 0) {
                let sum = held.entry(node).or_default().entry(record.tenant).or_insert(0);
                *sum = sum.saturating_add(bytes);
            }
        }
        held
    }

    /// Holds the per-tenant view to the records: every live lease is
    /// listed exactly once, under its record's index, each row is
    /// ascending, and nothing else is listed.
    fn check(&self) -> Result<(), String> {
        let mut listed = 0;
        for (index, ids) in self.by_tenant.iter().enumerate() {
            if let Some(pair) = ids.windows(2).find(|pair| pair[0] >= pair[1]) {
                return Err(format!("tenant index {index} lists {} before {}", pair[0], pair[1]));
            }
            for id in ids {
                match self.records.get(id) {
                    Some(record) if record.index == index => {}
                    Some(record) => {
                        return Err(format!(
                            "{id} is listed under tenant index {index}, its record under {}",
                            record.index
                        ))
                    }
                    None => return Err(format!("tenant index {index} lists {id}, not live")),
                }
            }
            listed += ids.len();
        }
        if listed != self.records.len() {
            return Err(format!("{listed} leases listed by tenant, {} live", self.records.len()));
        }
        Ok(())
    }
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

/// The memory manager and every tenant's holdings per tier, behind
/// one lock. Free bytes are the manager's own (`mm.available`), so
/// there is no cached copy to keep in sync. The tier rows, by registry
/// index, are what admission reads; only [`Ledger::settle`] writes
/// them. Per-node holdings are not kept: [`LeaseTable::held`] sums
/// them from the live leases.
struct Ledger {
    mm: MemoryManager,
    /// The shard's tiers, sorted by kind.
    tiers: Vec<TierHoldings>,
}

/// One tier of the shard: its nodes, and the bytes each tenant holds
/// across them.
struct TierHoldings {
    kind: MemoryKind,
    nodes: Vec<NodeId>,
    /// Bytes held, by registry index. Registration only appends, so an
    /// index names one tenant for the broker's lifetime; the row grows
    /// when a tenant is first charged, and a tenant past its end holds
    /// nothing.
    by_tenant: Vec<u64>,
}

impl TierHoldings {
    /// Bytes the tenant at registry index `index` holds on the tier.
    fn of(&self, index: usize) -> u64 {
        self.by_tenant.get(index).copied().unwrap_or(0)
    }

    fn settle(&mut self, index: usize, bytes: u64, charge: bool) {
        if self.by_tenant.len() <= index {
            self.by_tenant.resize(index + 1, 0);
        }
        let used = &mut self.by_tenant[index];
        *used = if charge { *used + bytes } else { used.saturating_sub(bytes) };
    }
}

impl Ledger {
    /// A ledger over `mm` with nothing held on the nodes of `node_kind`.
    fn new(mm: MemoryManager, node_kind: &BTreeMap<NodeId, MemoryKind>) -> Ledger {
        let mut tiers: Vec<TierHoldings> = Vec::new();
        for (&node, &kind) in node_kind {
            match tiers.iter_mut().find(|t| t.kind == kind) {
                Some(tier) => tier.nodes.push(node),
                None => tiers.push(TierHoldings { kind, nodes: vec![node], by_tenant: Vec::new() }),
            }
        }
        tiers.sort_by_key(|t| t.kind);
        Ledger { mm, tiers }
    }

    /// Charges `placement` to the tenant at registry index `index`, or
    /// discharges it when `charge` is false. Nodes outside the shard
    /// are ignored.
    fn settle(&mut self, index: usize, placement: &[(NodeId, u64)], charge: bool) {
        for &(node, bytes) in placement {
            if let Some(tier) = self.tiers.iter_mut().find(|t| t.nodes.contains(&node)) {
                tier.settle(index, bytes, charge);
            }
        }
    }
}

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

/// One node of the broker's ledger inside a [`BrokerState`] capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeEntry {
    /// The node this entry accounts for.
    pub node: NodeId,
    /// Free bytes, as the manager reports them (restore checks them
    /// against the restored manager).
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
    /// `stripes` node set.
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

/// How often [`Broker::ledger`] retries a held ledger lock before the
/// thread parks. On tier-contention (two admitting threads, 2-vCPU KVM
/// guest, five alternating 10 s pairs) a plain `lock()` gives 128–137k
/// acquires/s at a 5.2–5.8 µs median and a 15–17 µs p90; 400 retries
/// give 193–204k/s at 4.4–4.6 µs and 6.2–6.4 µs. With the longer
/// critical sections before the per-tier view, 50 retries still parked
/// on a share of requests and 1600 performed like 400.
const LEDGER_SPINS: u32 = 400;

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
    ledger: Mutex<Ledger>,
    /// The current registry snapshot; `register` and `restore` swap in
    /// a new one, requests only clone the `Arc`.
    registry: RwLock<Arc<Registry>>,
    next_tenant: AtomicU32,
    leases: Mutex<LeaseTable>,
    next_lease: AtomicU64,
    board: TrafficBoard,
    node_kind: BTreeMap<NodeId, MemoryKind>,
    tier_capacity: BTreeMap<MemoryKind, u64>,
    fast_kind: MemoryKind,
    /// The service clock: one epoch per served tick / load tick.
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
        let ledger = Ledger::new(MemoryManager::new(machine.clone()), &node_kind);
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
            ledger: Mutex::new(ledger),
            registry,
            next_tenant: AtomicU32::new(0),
            leases: Mutex::new(LeaseTable::default()),
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
    /// emits through the shared broker gets its own buffer.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink.clone();
        self.engine.set_sink(sink.clone());
        self.ledger.get_mut().expect("ledger poisoned").mm.set_sink(sink);
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
    /// tier, the free bytes across the shard's nodes and whether the
    /// tier is currently degraded. Sorted by kind, so equal states
    /// digest identically. This is what federation gossip carries.
    pub fn capacity_digest(&self) -> Vec<(MemoryKind, u64, bool)> {
        let degraded = self.degraded.lock().expect("degraded poisoned").clone();
        let mut free: BTreeMap<MemoryKind, u64> =
            self.tier_capacity.keys().map(|&k| (k, 0)).collect();
        let ledger = self.ledger();
        for (node, kind) in &self.node_kind {
            *free.entry(*kind).or_insert(0) += ledger.mm.available(*node);
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
            // `bytes` is an unchecked wire value: a sum that overflows
            // oversubscribes the tier too.
            if reserved.checked_add(bytes).is_none_or(|total| total > capacity) {
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

    /// Locks the ledger. Its critical sections take a few
    /// microseconds, less than waking a parked thread takes on a
    /// virtualised host, so a waiter retries for a while before it
    /// parks; otherwise two threads admitting at once hand the lock
    /// over through a wake-up on most requests.
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        for _ in 0..LEDGER_SPINS {
            match self.ledger.try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::WouldBlock) => std::hint::spin_loop(),
                Err(TryLockError::Poisoned(_)) => break,
            }
        }
        self.ledger.lock().expect("ledger poisoned")
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
        let ranked = ranking
            .targets()
            .iter()
            .map(|tv| tv.node)
            .filter(|n| self.node_kind.contains_key(n))
            .collect();
        Ok((ranking, ranked))
    }

    /// Snapshots every tier holding a node of `ranked` for the tenant
    /// at index `me` of `registry`, from the ledger's per-tier view
    /// alone: the tier's free bytes from its nodes, the requester's
    /// holding by index, and the other tenants' unclaimed guarantees as
    /// one pass over the registry's precomputed floors and the tier's
    /// holdings. Each tier costs O(tenants) with no lookup per holding:
    /// about 1 µs for both KNL tiers and 32 tenants.
    /// The admission arithmetic itself (quota clamp, fair-share /
    /// static test) lives in the placement engine's `TierPolicy`.
    fn tier_snapshots(
        &self,
        registry: &Registry,
        me: usize,
        ledger: &Ledger,
        ranked: &[NodeId],
    ) -> BTreeMap<MemoryKind, TierSnapshot> {
        let quota = &registry.record(me).quota;
        ledger
            .tiers
            .iter()
            .filter(|tier| ranked.iter().any(|n| tier.nodes.contains(n)))
            .map(|tier| {
                let floors = registry.guarantees(tier.kind);
                // Tenants registered after this registry snapshot sit
                // past the end of `floors`: their holdings do not
                // count, as they never did.
                let shortfall: u64 = floors
                    .iter()
                    .zip(tier.by_tenant.iter().chain(std::iter::repeat(&0)))
                    .map(|(&floor, &used)| floor.saturating_sub(used))
                    .sum();
                let mine = tier.of(me);
                let snapshot = TierSnapshot {
                    free: tier.nodes.iter().map(|&n| ledger.mm.available(n)).sum(),
                    used_by_requester: mine,
                    guarantee: floors[me],
                    others_shortfall: shortfall - floors[me].saturating_sub(mine),
                    quota: quota.get(&tier.kind).copied(),
                };
                (tier.kind, snapshot)
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
    ///
    /// This is the admission pipeline: stall check, registry snapshot
    /// and ranking; then, under the ledger lock, the tier snapshots,
    /// the planning walk and an `Exact` commit of the plan's chunks;
    /// the lease is issued and the clamps and the admission reported
    /// after the lock is released.
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
        let Some(me) = registry.index(tenant) else {
            return Err(ServiceError::UnknownTenant(format!("{tenant}")));
        };
        let record = registry.record(me);
        let (ranking, ranked) = self.rank_candidates(req)?;
        let size = req.size();
        let mode = req.get_fallback().as_telemetry();

        let mut ledger = self.ledger();
        let snapshots = self.tier_snapshots(&registry, me, &ledger, &ranked);
        let mut admission = TierPolicy::new(self.policy, &self.node_kind, snapshots);
        // Plan: the engine walks the ranking, asks the policy how much
        // is admissible on each node, and honors the fallback mode.
        // Ledger bytes are exact (the commit path rounds), so no page
        // quantization here.
        let plan = self.placer.plan(
            &PlanRequest { size, mode, page_quantize: false },
            &ranked,
            |n| ledger.mm.available(n),
            &mut admission,
        );
        if self.sink.enabled() && ranking.attr_fell_back() {
            self.sink.emit(Event::AttrFallback(AttrFallback {
                requested: ranking.requested().0,
                used: ranking.used().0,
            }));
        }
        // Commit under the ledger lock; `Exact` cannot spill past what
        // the arbiter admitted. A short plan commits nothing.
        let grant = if plan.is_complete() {
            let region = ledger
                .mm
                .alloc(size, AllocPolicy::Exact(plan.chunks))
                .map_err(|e| ServiceError::Commit(e.to_string()))?;
            let placement = ledger.mm.region(region).expect("fresh region").placement.clone();
            ledger.settle(me, &placement, true);
            Some((region, placement))
        } else {
            None
        };
        drop(ledger);

        record.clamps.fetch_add(plan.clamps.len() as u64, Ordering::Relaxed);
        if self.sink.enabled() {
            for c in &plan.clamps {
                self.sink.emit(Event::QuotaClamp(QuotaClamp {
                    broker: self.id,
                    tenant: record.name.clone(),
                    node: c.node,
                    requested: c.requested,
                    allowed: c.allowed,
                }));
            }
        }
        let Some((region, placement)) = grant else {
            return Err(ServiceError::Admission {
                requested: size,
                granted: size - plan.shortfall,
            });
        };

        let lease_ttl = ttl.or(record.lease_ttl);
        let expires_at = lease_ttl.map(|t| self.epoch.load(Ordering::SeqCst).saturating_add(t));
        let size: u64 = placement.iter().map(|&(_, b)| b).sum();
        let fast_bytes: u64 = placement
            .iter()
            .filter(|(n, _)| self.node_kind.get(n) == Some(&self.fast_kind))
            .map(|&(_, b)| b)
            .sum();
        let id = LeaseId(self.next_lease.fetch_add(1, Ordering::Relaxed));
        let fresh = self.leases.lock().expect("leases poisoned").insert(
            id,
            LeaseRecord {
                tenant,
                index: me,
                region,
                placement: placement.clone(),
                ttl: lease_ttl,
                expires_at,
            },
        );
        debug_assert!(fresh, "lease ids are issued once");
        record.admits.fetch_add(1, Ordering::Relaxed);
        if self.sink.enabled() {
            self.sink.emit(Event::TenantAdmit(TenantAdmit {
                broker: self.id,
                tenant: record.name.clone(),
                lease: id.0,
                size,
                placement: placement.clone(),
                clamped: !plan.clamps.is_empty(),
                fast_bytes,
            }));
        }
        Ok(Lease { id, tenant, region, size, placement, fast_bytes })
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
            .remove(id)
            .ok_or(ServiceError::UnknownLease(id.0))?;
        self.settle_free(&record);
        Ok(())
    }

    /// Frees a removed lease record in the manager and discharges it
    /// from the ledger.
    fn settle_free(&self, record: &LeaseRecord) {
        {
            let mut ledger = self.ledger();
            ledger.mm.free(record.region);
            ledger.settle(record.index, &record.placement, false);
        }
        // Outside the ledger lock: the plane must stop tracking a
        // region whose id the manager may now reuse.
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
            .remove(id)
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
        let record = leases.records.get_mut(&id).ok_or(ServiceError::UnknownLease(id.0))?;
        if record.tenant != tenant {
            return Err(ServiceError::UnknownLease(id.0));
        }
        record.expires_at = record.ttl.map(|t| now.saturating_add(t));
        Ok(record.expires_at)
    }

    /// Renews every lease the tenant holds in one call — the wire
    /// heartbeat. Returns the number of leases whose clock was reset.
    /// Visits only the tenant's own leases.
    pub fn heartbeat(&self, tenant: TenantId) -> Result<u64, ServiceError> {
        let Some(index) = self.registry().index(tenant) else {
            return Err(ServiceError::UnknownTenant(format!("{tenant}")));
        };
        let now = self.epoch.load(Ordering::SeqCst);
        Ok(self.leases.lock().expect("leases poisoned").renew_tenant(index, now))
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
            .records
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

    /// The current service epoch (one per served tick).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The expiry epoch of a live lease: `Some(epoch)` for a TTL'd
    /// lease, `None` when the lease is immortal or unknown.
    pub fn lease_deadline(&self, id: LeaseId) -> Option<u64> {
        self.leases.lock().expect("leases poisoned").records.get(&id).and_then(|r| r.expires_at)
    }

    /// Snapshot of the robustness counters.
    pub fn robustness(&self) -> RobustnessStats {
        RobustnessStats {
            expired: self.expired_total.load(Ordering::Relaxed),
            revoked: self.revoked_total.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes_total.load(Ordering::Relaxed),
        }
    }

    /// The sink the broker streams telemetry into (the serve binary
    /// attaches a collector to it).
    pub fn sink_handle(&self) -> TelemetrySink {
        self.sink.clone()
    }

    /// The placement of a live lease, if it exists.
    pub fn placement(&self, id: LeaseId) -> Option<Vec<(NodeId, u64)>> {
        self.leases.lock().expect("leases poisoned").records.get(&id).map(|r| r.placement.clone())
    }

    /// The tenant holding a live lease, if it exists (the wire layer
    /// uses this to refuse cross-tenant frees).
    pub fn lease_owner(&self, id: LeaseId) -> Option<TenantId> {
        self.leases.lock().expect("leases poisoned").records.get(&id).map(|r| r.tenant)
    }

    /// Number of live leases.
    pub fn live_leases(&self) -> usize {
        self.leases.lock().expect("leases poisoned").records.len()
    }

    /// Registers one served tick: opens the next contention epoch,
    /// advances the service clock, and reclaims any lease whose TTL
    /// elapsed without a renewal.
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.expire_overdue();
        self.guided_fold();
    }

    /// Captures every piece of mutable broker state as plain data.
    /// A capture restores exactly only at an epoch boundary (between
    /// served ticks), with no request in flight: an admission between
    /// its commit and its lease insert is charged in the ledger but
    /// missing from the lease table, and [`Broker::restore`] refuses
    /// such a capture. The contention board resets per epoch and is not
    /// captured.
    pub fn snapshot_state(&self) -> BrokerState {
        // Lock order: leases → ledger, same as every other broker path.
        // The registry's read lock is held throughout so no tenant
        // registers mid-capture: every captured lease's holder is in
        // the capture.
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
            .records
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
        let held = leases.held();
        let ledger = self.ledger();
        let stripe_entries = self
            .node_kind
            .keys()
            .map(|&node| StripeEntry {
                node,
                free: ledger.mm.available(node),
                used_by: held.get(&node).into_iter().flatten().map(|(t, &b)| (t.0, b)).collect(),
            })
            .collect();
        let manager = ledger.mm.capture();
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
    /// live manager regions with the same placement, per-node free
    /// bytes must agree with the restored manager, each node's
    /// per-tenant holdings must equal what that tenant's live leases
    /// hold there, the manager must use exactly what the live leases
    /// hold on each node (no region without a lease), and degraded
    /// kinds must exist on the machine.
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
        // The captured node set IS the shard: a standalone capture
        // carries every node, a federation member's capture only its
        // own.
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
        let registry = Registry::build(tenants.into_iter().collect(), &broker.tier_capacity);

        let mut leases = LeaseTable::default();
        for l in &state.leases {
            if l.id >= state.next_lease {
                return Err(err(format!(
                    "lease #{} at or past the issue counter {}",
                    l.id, state.next_lease
                )));
            }
            let Some(index) = registry.index(TenantId(l.tenant)) else {
                return Err(err(format!("lease #{} held by unknown tenant #{}", l.id, l.tenant)));
            };
            let Some(region) = mm.region(RegionId(l.region)) else {
                return Err(err(format!("lease #{} backed by unknown region #{}", l.id, l.region)));
            };
            if region.placement != l.placement {
                return Err(err(format!(
                    "lease #{} placement disagrees with region #{}",
                    l.id, l.region
                )));
            }
            let fresh = leases.insert(
                LeaseId(l.id),
                LeaseRecord {
                    tenant: TenantId(l.tenant),
                    index,
                    region: RegionId(l.region),
                    placement: l.placement.clone(),
                    ttl: l.ttl,
                    expires_at: l.expires_at,
                },
            );
            if !fresh {
                return Err(err(format!("duplicate lease #{}", l.id)));
            }
        }

        // The shard is the stripes' node set, so equal counts also
        // refuse a repeated stripe and one naming a node off the machine.
        if state.stripes.len() != broker.node_kind.len() {
            return Err(err(format!(
                "snapshot carries {} node stripes, machine has {}",
                state.stripes.len(),
                broker.node_kind.len()
            )));
        }
        // Each stripe must charge exactly what the live leases hold on
        // its node, by tenant in id order, and the manager must use
        // exactly their sum there.
        let held = leases.held();
        for s in &state.stripes {
            let available = mm.available(s.node);
            if s.free != available {
                return Err(err(format!(
                    "stripe {} free bytes {} disagree with the manager's {}",
                    s.node, s.free, available
                )));
            }
            let leased: Vec<(u32, u64)> =
                held.get(&s.node).into_iter().flatten().map(|(t, &b)| (t.0, b)).collect();
            if s.used_by != leased {
                return Err(err(format!(
                    "stripe {} per-tenant holdings disagree with the live leases",
                    s.node
                )));
            }
            let used = mm.used(s.node);
            let total = leased.iter().fold(0u64, |sum, &(_, b)| sum.saturating_add(b));
            if used != total {
                return Err(err(format!(
                    "stripe {} manager use {used} disagrees with the live leases' {total}",
                    s.node
                )));
            }
        }
        // Checked above: every lease charges a known tenant, and each
        // node's sums are bounded by the manager's use.
        let mut ledger = Ledger::new(mm, &broker.node_kind);
        for record in leases.records.values() {
            ledger.settle(record.index, &record.placement, true);
        }

        for &kind in &state.degraded {
            if !broker.tier_capacity.contains_key(&kind) {
                return Err(err(format!("degraded tier {kind:?} does not exist on the machine")));
            }
        }

        *broker.ledger.get_mut().expect("ledger poisoned") = ledger;
        *broker.registry.get_mut().expect("registry poisoned") = Arc::new(registry);
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
        let epoch = self.epoch();
        let mut stall_ns: f64 = 0.0;
        let mut stalled = 0u64;
        for &(node, bytes) in traffic {
            if bytes == 0 {
                continue;
            }
            let (others, sharers) = self.board.offer(node, tenant, bytes, epoch);
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
            let ledger = self.ledger();
            // Checked under the same guard as the engine call: the
            // engine panics on a freed region, and a panic here would
            // poison the ledger for every tenant.
            let mm = &ledger.mm;
            if let Some(gone) = phase.accesses.iter().find(|a| mm.region(a.region).is_none()) {
                return Err(ServiceError::UnknownRegion(gone.region.0));
            }
            self.engine.run_phase(mm, phase)
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
        let held: Vec<BTreeMap<MemoryKind, u64>> = {
            let ledger = self.ledger();
            (0..registry.len())
                .map(|i| {
                    ledger
                        .tiers
                        .iter()
                        .map(|tier| (tier.kind, tier.of(i)))
                        .filter(|&(_, bytes)| bytes > 0)
                        .collect()
                })
                .collect()
        };
        registry
            .iter()
            .zip(held)
            .map(|((id, t), held)| TenantStats {
                id,
                name: t.name.clone(),
                priority: t.priority,
                held,
                admits: t.admits.load(Ordering::Relaxed),
                clamps: t.clamps.load(Ordering::Relaxed),
                stalls: t.stalls.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Per-node `(used, total)` according to the memory manager.
    pub fn node_usage(&self) -> Vec<(NodeId, u64, u64)> {
        let ledger = self.ledger();
        self.node_kind
            .keys()
            .map(|&n| (n, ledger.mm.used(n), self.machine.usable_capacity(n)))
            .collect()
    }

    /// Cross-checks the per-tier holdings and each node's manager use
    /// against the live leases, and the lease table's per-tenant view
    /// against its records. Intended for tests at quiescent points (no
    /// in-flight requests); returns a description of the first
    /// violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Taken before the lease table: the registry lock is never
        // taken while another broker lock is held.
        let registry = self.registry();
        let mut lease_tiers: BTreeMap<(MemoryKind, usize), u64> = BTreeMap::new();
        let leases = self.leases.lock().expect("leases poisoned");
        leases.check()?;
        for (id, record) in &leases.records {
            let Some(index) = registry.index(record.tenant) else {
                return Err(format!("a live lease is held by unknown {}", record.tenant));
            };
            if record.index != index {
                return Err(format!(
                    "{id} records index {} for {}, registered at {index}",
                    record.index, record.tenant
                ));
            }
            for &(node, bytes) in &record.placement {
                if let Some(&kind) = self.node_kind.get(&node) {
                    *lease_tiers.entry((kind, index)).or_insert(0) += bytes;
                }
            }
        }
        let held = leases.held();
        let ledger = self.ledger();
        for tier in &ledger.tiers {
            for i in 0..tier.by_tenant.len().max(registry.len()) {
                let from_leases = lease_tiers.get(&(tier.kind, i)).copied().unwrap_or(0);
                if tier.of(i) != from_leases {
                    return Err(format!(
                        "{:?} tier: tenant at index {i} holds {} but its live leases hold \
                         {from_leases}",
                        tier.kind,
                        tier.of(i)
                    ));
                }
            }
        }
        for &node in self.node_kind.keys() {
            let used = ledger.mm.used(node);
            let from_leases: u64 = held.get(&node).into_iter().flat_map(|h| h.values()).sum();
            if used != from_leases {
                return Err(format!(
                    "node {node:?}: manager reports {used} used but live leases hold {from_leases}"
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
mod tests;
