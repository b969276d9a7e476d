//! Capacity accounting, NUMA allocation policies and migration.
//!
//! Models the OS view of memory: every allocation becomes a *region*
//! placed on one or more NUMA nodes at page granularity, under a policy
//! mirroring Linux `set_mempolicy`/`mbind` semantics — including the
//! quirk from the paper's footnote 21: the kernel's *preferred* policy
//! only spills to nodes with a **higher index** than the preferred one,
//! which is why "prefer MCDRAM, fall back to DRAM" is impossible on KNL
//! (MCDRAM nodes are numbered last) and why the paper's allocator does
//! its own explicit fallback instead.

use crate::machine::{Machine, NodeRow};
use crate::PAGE_SIZE;
use hetmem_telemetry as telemetry;
use hetmem_telemetry::TelemetrySink;
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Handle to an allocated region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// Allocation policies, mirroring Linux NUMA memory policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Strict binding: fail if the node cannot hold the whole region.
    Bind(NodeId),
    /// Linux `MPOL_PREFERRED`: fill the node, spill the rest — but only
    /// onto nodes with a **higher OS index** (footnote 21 quirk).
    Preferred(NodeId),
    /// Explicit ordered fallback with partial spill, at page
    /// granularity. This is the mechanism the paper's heterogeneous
    /// allocator builds on top of the ranking.
    PreferredMany(Vec<NodeId>),
    /// Round-robin page interleave across the given nodes; nodes that
    /// fill up drop out of the rotation.
    Interleave(Vec<NodeId>),
    /// An exact, externally decided split: place precisely these
    /// `(node, bytes)` chunks, each rounded up to whole pages, in
    /// order. This is how an arbiter (e.g. the multi-tenant broker)
    /// commits a placement it already admitted — no kernel-side
    /// spilling may second-guess it.
    Exact(Vec<(NodeId, u64)>),
}

/// Why an allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Strict bind: the node lacks capacity.
    InsufficientCapacity {
        /// The node that could not hold the region.
        node: NodeId,
        /// Bytes requested.
        requested: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// No combination of permitted nodes can hold the region.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available across all permitted nodes.
        available: u64,
    },
    /// A policy referenced a node that does not exist.
    InvalidNode(NodeId),
    /// A policy carried an empty node list.
    EmptyNodeList,
    /// The region was never allocated or is already freed.
    UnknownRegion(RegionId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InsufficientCapacity { node, requested, available } => {
                write!(f, "cannot bind {requested} bytes to {node}: only {available} available")
            }
            AllocError::OutOfMemory { requested, available } => {
                write!(f, "out of memory: {requested} requested, {available} available")
            }
            AllocError::InvalidNode(n) => write!(f, "unknown NUMA node {n}"),
            AllocError::EmptyNodeList => write!(f, "policy with empty node list"),
            AllocError::UnknownRegion(id) => write!(f, "region #{} has no live allocation", id.0),
        }
    }
}

impl std::error::Error for AllocError {}

/// An allocated region: ordered per-node chunks covering `size` bytes.
#[derive(Debug, Clone)]
pub struct Region {
    /// The region handle.
    pub id: RegionId,
    /// Requested size in bytes.
    pub size: u64,
    /// Ordered placement: virtual-address-ordered chunks and the node
    /// backing each.
    pub placement: Vec<(NodeId, u64)>,
    /// The policy the region was allocated under.
    pub policy: AllocPolicy,
}

impl Region {
    /// Bytes of this region on `node`.
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.placement.iter().filter(|(n, _)| *n == node).map(|(_, b)| b).sum()
    }

    /// True when the whole region lives on a single node.
    pub fn single_node(&self) -> Option<NodeId> {
        match self.placement.as_slice() {
            [(n, _)] => Some(*n),
            _ => None,
        }
    }
}

/// Plain-data image of one live [`Region`], as captured by
/// [`MemoryManager::capture`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionState {
    /// The region id.
    pub id: u64,
    /// Requested size in bytes.
    pub size: u64,
    /// Ordered per-node placement chunks.
    pub placement: Vec<(NodeId, u64)>,
    /// The policy the region was allocated under.
    pub policy: AllocPolicy,
}

/// Plain-data image of a whole [`MemoryManager`] at one instant:
/// every live region, the id counter, and the per-node high-water
/// marks. Free capacity is *derived* on restore (usable capacity minus
/// the placements), so a state that oversubscribes a node cannot be
/// reinstated silently. The `hetmem-snapshot` crate serializes this
/// struct into its checkpoint files.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManagerState {
    /// Live regions in id order.
    pub regions: Vec<RegionState>,
    /// The next region id to hand out.
    pub next_id: u64,
    /// Per-node high-water marks, in node order.
    pub high_water: Vec<(NodeId, u64)>,
}

/// Why a captured [`ManagerState`] could not be reinstated onto a
/// machine (see [`MemoryManager::restore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError(String);

impl RestoreError {
    fn new(msg: impl Into<String>) -> RestoreError {
        RestoreError(msg.into())
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "manager restore: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Outcome of a migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Bytes actually moved (bytes already on the target don't move).
    pub bytes_moved: u64,
    /// Modelled cost: per-page kernel overhead plus copy time.
    pub cost_ns: f64,
}

/// The simulated OS memory manager for one machine.
///
/// Free bytes and high-water marks are kept per node *slot* (the
/// machine's node rows, in OS-index order), so a commit or a free
/// updates them in place.
#[derive(Clone)]
pub struct MemoryManager {
    machine: Arc<Machine>,
    free: Vec<u64>,
    regions: BTreeMap<RegionId, Region>,
    next_id: u64,
    /// `None` until a gauge or a restore first touches the node, so
    /// [`MemoryManager::capture`] lists exactly the touched nodes.
    high_water: Vec<Option<u64>>,
    sink: TelemetrySink,
}

impl std::fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = self.machine.node_rows();
        let free = rows.iter().map(|r| r.id).zip(&self.free);
        f.debug_struct("MemoryManager")
            .field("free", &free.collect::<BTreeMap<_, _>>())
            .field("regions", &self.regions.len())
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

/// Per-page kernel overhead for `move_pages` (the paper cites [23]:
/// migration "is quite expensive in operating systems").
const MIGRATE_PAGE_OVERHEAD_NS: f64 = 1_200.0;

impl MemoryManager {
    /// Creates a manager with every node's usable capacity free.
    pub fn new(machine: Arc<Machine>) -> Self {
        let free = machine.node_rows().iter().map(NodeRow::usable).collect();
        let high_water = vec![None; machine.node_rows().len()];
        MemoryManager {
            machine,
            free,
            regions: BTreeMap::new(),
            next_id: 0,
            high_water,
            sink: TelemetrySink::disabled(),
        }
    }

    /// The machine this manager operates on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Routes capacity events (occupancy gauges, migrations, frees)
    /// into `sink`. The default is a disabled sink.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// The sink capacity events go to.
    pub fn sink(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Highest used-bytes watermark seen on `node` since creation.
    pub fn high_water(&self, node: NodeId) -> u64 {
        self.machine.slot(node).and_then(|s| self.high_water[s]).unwrap_or(0)
    }

    /// Updates watermarks and emits an occupancy gauge for each node
    /// whose allocation changed (`touched`), in node order.
    fn gauge(&mut self, touched: impl Fn(NodeId) -> bool) {
        for (slot, row) in self.machine.node_rows().iter().enumerate() {
            if !touched(row.id) {
                continue;
            }
            let total = row.usable();
            let used = total - self.free[slot];
            let hw = self.high_water[slot].unwrap_or(0).max(used);
            self.high_water[slot] = Some(hw);
            if self.sink.enabled() {
                self.sink.emit(telemetry::Event::OccupancyGauge(telemetry::OccupancyGauge {
                    node: row.id,
                    used,
                    high_water: hw,
                    total,
                }));
            }
        }
    }

    /// The slot of a node a policy names.
    fn slot(&self, node: NodeId) -> Result<usize, AllocError> {
        self.machine.slot(node).ok_or(AllocError::InvalidNode(node))
    }

    /// Free bytes on `node`.
    pub fn available(&self, node: NodeId) -> u64 {
        self.machine.slot(node).map_or(0, |s| self.free[s])
    }

    /// Used bytes on `node` (excluding the OS reservation).
    pub fn used(&self, node: NodeId) -> u64 {
        self.machine.usable_capacity(node) - self.available(node)
    }

    /// Looks up a live region.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(&id)
    }

    /// All live regions.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Validates a policy node list and deduplicates it, preserving
    /// order — Linux nodemasks are sets, and a repeated node must not
    /// double-count its capacity.
    fn check_nodes(&self, nodes: &[NodeId]) -> Result<Vec<NodeId>, AllocError> {
        if nodes.is_empty() {
            return Err(AllocError::EmptyNodeList);
        }
        let mut deduped = Vec::with_capacity(nodes.len());
        for &n in nodes {
            self.slot(n)?;
            if !deduped.contains(&n) {
                deduped.push(n);
            }
        }
        Ok(deduped)
    }

    /// Allocates `size` bytes under `policy`. Sizes are rounded up to
    /// whole pages, like a real kernel.
    pub fn alloc(&mut self, size: u64, policy: AllocPolicy) -> Result<RegionId, AllocError> {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let placement = match &policy {
            AllocPolicy::Bind(node) => {
                let avail = self.free[self.slot(*node)?];
                if avail < size {
                    return Err(AllocError::InsufficientCapacity {
                        node: *node,
                        requested: size,
                        available: avail,
                    });
                }
                vec![(*node, size)]
            }
            AllocPolicy::Preferred(node) => {
                self.slot(*node)?;
                // Linux quirk: spill only to higher-index nodes.
                let mut order = vec![*node];
                let rows = self.machine.node_rows();
                order.extend(rows.iter().map(|r| r.id).filter(|n| n.0 > node.0));
                self.fill_in_order(size, &order)?
            }
            AllocPolicy::PreferredMany(order) => {
                let order = self.check_nodes(order)?;
                self.fill_in_order(size, &order)?
            }
            AllocPolicy::Interleave(nodes) => {
                let nodes = self.check_nodes(nodes)?;
                self.interleave(size, &nodes)?
            }
            AllocPolicy::Exact(chunks) => self.exact(chunks)?,
        };
        // Exact splits define their own total (chunk-wise rounding).
        let size = if matches!(policy, AllocPolicy::Exact(_)) {
            placement.iter().map(|&(_, b)| b).sum()
        } else {
            size
        };
        for &(node, bytes) in &placement {
            let slot = self.slot(node).expect("validated node");
            self.free[slot] -= bytes;
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        self.gauge(|n| placement.iter().any(|&(m, _)| m == n));
        self.regions.insert(id, Region { id, size, placement, policy });
        Ok(id)
    }

    /// Places an exact split: each chunk rounded up to whole pages, in
    /// order, zero-byte chunks dropped. Every chunk's node must exist;
    /// the first node (in node order) whose total need exceeds its free
    /// bytes fails the whole commit.
    fn exact(&self, chunks: &[(NodeId, u64)]) -> Result<Vec<(NodeId, u64)>, AllocError> {
        if chunks.is_empty() {
            return Err(AllocError::EmptyNodeList);
        }
        for &(node, _) in chunks {
            self.slot(node)?;
        }
        let pages = |bytes: u64| bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        // (node, need, available) of the lowest node that is short.
        let mut short: Option<(NodeId, u64, u64)> = None;
        for (i, &(node, _)) in chunks.iter().enumerate() {
            if chunks[..i].iter().any(|&(n, _)| n == node) {
                continue;
            }
            let need: u64 =
                chunks.iter().filter(|&&(n, _)| n == node).map(|&(_, b)| pages(b)).sum();
            let available = self.available(node);
            if available < need && short.is_none_or(|(lowest, ..)| node < lowest) {
                short = Some((node, need, available));
            }
        }
        if let Some((node, requested, available)) = short {
            return Err(AllocError::InsufficientCapacity { node, requested, available });
        }
        let mut placement = Vec::with_capacity(chunks.len());
        placement.extend(chunks.iter().map(|&(n, b)| (n, pages(b))).filter(|&(_, b)| b > 0));
        Ok(placement)
    }

    fn fill_in_order(&self, size: u64, order: &[NodeId]) -> Result<Vec<(NodeId, u64)>, AllocError> {
        let mut remaining = size;
        let mut placement = Vec::new();
        for &node in order {
            if remaining == 0 {
                break;
            }
            let take = self.available(node).min(remaining) / PAGE_SIZE * PAGE_SIZE;
            if take > 0 {
                placement.push((node, take));
                remaining -= take;
            }
        }
        if remaining > 0 {
            let available: u64 = order.iter().map(|&n| self.available(n)).sum();
            return Err(AllocError::OutOfMemory { requested: size, available });
        }
        Ok(placement)
    }

    fn interleave(&self, size: u64, nodes: &[NodeId]) -> Result<Vec<(NodeId, u64)>, AllocError> {
        let pages = size / PAGE_SIZE;
        let mut left: Vec<(NodeId, u64)> =
            nodes.iter().map(|&n| (n, self.available(n) / PAGE_SIZE)).collect();
        let mut counts: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut placed = 0;
        // Round-robin whole rounds at a time for efficiency.
        while placed < pages {
            left.retain(|(_, cap)| *cap > 0);
            if left.is_empty() {
                let available: u64 = nodes.iter().map(|&n| self.available(n)).sum();
                return Err(AllocError::OutOfMemory { requested: size, available });
            }
            let min_cap = left.iter().map(|(_, c)| *c).min().expect("non-empty");
            let per_node = ((pages - placed) / left.len() as u64).max(1).min(min_cap);
            for (node, cap) in &mut left {
                let take = per_node.min(pages - placed);
                if take == 0 {
                    break;
                }
                *counts.entry(*node).or_insert(0) += take;
                *cap -= take;
                placed += take;
            }
        }
        Ok(counts.into_iter().map(|(n, p)| (n, p * PAGE_SIZE)).collect())
    }

    /// Frees a region, returning its capacity to the nodes.
    pub fn free(&mut self, id: RegionId) -> bool {
        match self.regions.remove(&id) {
            Some(region) => {
                for &(node, bytes) in &region.placement {
                    let slot = self.slot(node).expect("placement node exists");
                    self.free[slot] += bytes;
                }
                if self.sink.enabled() {
                    self.sink.emit(telemetry::Event::Free(telemetry::FreeEvent {
                        region: id.0,
                        placement: region.placement.clone(),
                    }));
                }
                self.gauge(|n| region.placement.iter().any(|&(m, _)| m == n));
                true
            }
            None => false,
        }
    }

    /// Migrates a region so it is entirely on `target` (strict), like
    /// `migrate_pages`. Returns the modelled cost; fails without side
    /// effects if the target can't take the extra bytes.
    pub fn migrate(&mut self, id: RegionId, target: NodeId) -> Result<MigrationReport, AllocError> {
        let target_slot = self.slot(target)?;
        let region = self.regions.get(&id).ok_or(AllocError::UnknownRegion(id))?;
        let already = region.bytes_on(target);
        let to_move = region.size - already;
        let avail = self.available(target);
        if avail < to_move {
            return Err(AllocError::InsufficientCapacity {
                node: target,
                requested: to_move,
                available: avail,
            });
        }
        // Cost: per-page kernel work plus the copy, limited by the
        // slower of source-read and target-write bandwidth.
        let mut cost_ns = 0.0;
        let old_placement = region.placement.clone();
        for (src, bytes) in &old_placement {
            if *src == target {
                continue;
            }
            let pages = bytes / PAGE_SIZE;
            let src_bw = self.machine.timing(*src).peak_read_bw_mbps;
            let dst_bw = self.machine.timing(target).peak_write_bw_mbps;
            let copy_bw = src_bw.min(dst_bw);
            cost_ns += pages as f64 * MIGRATE_PAGE_OVERHEAD_NS
                + crate::ns_for_bytes(*bytes as f64, copy_bw);
        }
        // Apply: return old chunks, take from target.
        for &(src, bytes) in &old_placement {
            let slot = self.slot(src).expect("placement node");
            self.free[slot] += bytes;
        }
        self.free[target_slot] -= region.size;
        let region = self.regions.get_mut(&id).expect("checked above");
        region.placement = vec![(target, region.size)];
        if self.sink.enabled() {
            self.sink.emit(telemetry::Event::Migration(telemetry::Migration {
                region: id.0,
                from: old_placement.clone(),
                to: target,
                bytes_moved: to_move,
                cost_ns,
            }));
        }
        self.gauge(|n| n == target || old_placement.iter().any(|&(m, _)| m == n));
        Ok(MigrationReport { bytes_moved: to_move, cost_ns })
    }

    /// Sum of free bytes across all nodes.
    pub fn total_available(&self) -> u64 {
        self.free.iter().sum()
    }

    /// Captures the manager's full mutable state as plain data. The
    /// telemetry sink is *not* part of the state — a restored manager
    /// starts with a disabled sink.
    pub fn capture(&self) -> ManagerState {
        ManagerState {
            regions: self
                .regions
                .values()
                .map(|r| RegionState {
                    id: r.id.0,
                    size: r.size,
                    placement: r.placement.clone(),
                    policy: r.policy.clone(),
                })
                .collect(),
            next_id: self.next_id,
            high_water: self
                .machine
                .node_rows()
                .iter()
                .zip(&self.high_water)
                .filter_map(|(row, hw)| hw.map(|hw| (row.id, hw)))
                .collect(),
        }
    }

    /// Reinstates a captured state onto `machine`. Free capacity is
    /// recomputed from the placements; a state whose regions reference
    /// unknown nodes, oversubscribe a node, place other than exactly
    /// their size, reuse a region id, or use an id at or past
    /// `next_id` is rejected with a typed error and no manager is
    /// built.
    pub fn restore(machine: Arc<Machine>, state: &ManagerState) -> Result<Self, RestoreError> {
        let mut mm = MemoryManager::new(machine);
        for r in &state.regions {
            if r.id >= state.next_id {
                return Err(RestoreError::new(format!(
                    "region #{} is at or past next_id {}",
                    r.id, state.next_id
                )));
            }
            for &(node, bytes) in &r.placement {
                let slot = mm.machine.slot(node).ok_or_else(|| {
                    RestoreError::new(format!("region #{} references unknown {node}", r.id))
                })?;
                let free = &mut mm.free[slot];
                *free = free.checked_sub(bytes).ok_or_else(|| {
                    RestoreError::new(format!("region #{} oversubscribes {node}", r.id))
                })?;
            }
            // Every live region places exactly its size (`migrate`
            // relies on it), whatever its policy. The chunks fit their
            // nodes, so their sum cannot overflow.
            let placed: u64 = r.placement.iter().map(|&(_, b)| b).sum();
            if placed != r.size {
                return Err(RestoreError::new(format!(
                    "region #{} places {placed} bytes, not its size {}",
                    r.id, r.size
                )));
            }
            let id = RegionId(r.id);
            let region = Region {
                id,
                size: r.size,
                placement: r.placement.clone(),
                policy: r.policy.clone(),
            };
            if mm.regions.insert(id, region).is_some() {
                return Err(RestoreError::new(format!("duplicate region #{}", r.id)));
            }
        }
        mm.next_id = state.next_id;
        for &(node, hw) in &state.high_water {
            let slot = mm
                .machine
                .slot(node)
                .ok_or_else(|| RestoreError::new(format!("high-water mark for unknown {node}")))?;
            mm.high_water[slot] = Some(hw);
        }
        Ok(mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_topology::GIB;

    fn manager() -> MemoryManager {
        MemoryManager::new(Arc::new(Machine::knl_snc4_flat()))
    }

    #[test]
    fn exact_places_the_given_split() {
        let mut mm = manager();
        let split = vec![(NodeId(4), GIB), (NodeId(0), 2 * GIB + 1)];
        let id = mm.alloc(3 * GIB + 1, AllocPolicy::Exact(split)).unwrap();
        let region = mm.region(id).unwrap();
        assert_eq!(region.bytes_on(NodeId(4)), GIB);
        // The odd chunk rounds up to a whole page.
        assert_eq!(region.bytes_on(NodeId(0)), 2 * GIB + PAGE_SIZE);
        assert_eq!(region.size, 3 * GIB + PAGE_SIZE);

        // Over-capacity chunks are rejected before any mutation.
        let before = mm.available(NodeId(4));
        let err = mm.alloc(64 * GIB, AllocPolicy::Exact(vec![(NodeId(4), 64 * GIB)])).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientCapacity { node: NodeId(4), .. }));
        assert_eq!(mm.available(NodeId(4)), before);
        assert!(matches!(
            mm.alloc(0, AllocPolicy::Exact(vec![])).unwrap_err(),
            AllocError::EmptyNodeList
        ));
    }

    #[test]
    fn bind_respects_capacity() {
        let mut mm = manager();
        // MCDRAM node 4 has ~3.8 GiB usable.
        let id = mm.alloc(3 * GIB, AllocPolicy::Bind(NodeId(4))).unwrap();
        assert_eq!(mm.region(id).unwrap().single_node(), Some(NodeId(4)));
        let err = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(4))).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientCapacity { node: NodeId(4), .. }));
        // Free and retry.
        assert!(mm.free(id));
        assert!(mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(4))).is_ok());
    }

    #[test]
    fn size_rounds_to_pages() {
        let mut mm = manager();
        let before = mm.available(NodeId(0));
        let id = mm.alloc(1, AllocPolicy::Bind(NodeId(0))).unwrap();
        assert_eq!(before - mm.available(NodeId(0)), PAGE_SIZE);
        assert_eq!(mm.region(id).unwrap().size, PAGE_SIZE);
    }

    #[test]
    fn preferred_spills_only_to_higher_indexes() {
        let mut mm = manager();
        // Fill DRAM node 0 almost completely.
        let avail0 = mm.available(NodeId(0));
        mm.alloc(avail0 - GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        // Preferred(0) for 3 GiB: 1 GiB on node 0, spill to node 1.
        let id = mm.alloc(3 * GIB, AllocPolicy::Preferred(NodeId(0))).unwrap();
        let r = mm.region(id).unwrap();
        assert_eq!(r.bytes_on(NodeId(0)), GIB);
        assert_eq!(r.bytes_on(NodeId(1)), 2 * GIB);
    }

    #[test]
    fn preferred_mcdram_cannot_fall_back_to_dram() {
        // Footnote 21: MCDRAM is node 7 (highest index), so Preferred
        // can only spill to... nothing on this machine.
        let mut mm = manager();
        let avail = mm.available(NodeId(7));
        let err = mm.alloc(avail + GIB, AllocPolicy::Preferred(NodeId(7))).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        // Whereas the explicit ordered fallback handles it fine.
        let id =
            mm.alloc(avail + GIB, AllocPolicy::PreferredMany(vec![NodeId(7), NodeId(3)])).unwrap();
        let r = mm.region(id).unwrap();
        assert_eq!(r.bytes_on(NodeId(7)), avail);
        assert_eq!(r.bytes_on(NodeId(3)), GIB);
    }

    #[test]
    fn interleave_spreads_pages() {
        let mut mm = manager();
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let id = mm.alloc(4 * GIB, AllocPolicy::Interleave(nodes.clone())).unwrap();
        let r = mm.region(id).unwrap();
        for n in nodes {
            assert_eq!(r.bytes_on(n), GIB);
        }
    }

    #[test]
    fn interleave_drops_full_nodes() {
        let mut mm = manager();
        // Nearly fill MCDRAM node 4.
        let avail4 = mm.available(NodeId(4));
        mm.alloc(avail4 - GIB, AllocPolicy::Bind(NodeId(4))).unwrap();
        let id = mm.alloc(6 * GIB, AllocPolicy::Interleave(vec![NodeId(4), NodeId(0)])).unwrap();
        let r = mm.region(id).unwrap();
        assert_eq!(r.bytes_on(NodeId(4)), GIB);
        assert_eq!(r.bytes_on(NodeId(0)), 5 * GIB);
    }

    #[test]
    fn interleave_oom_when_all_full() {
        let mut mm = manager();
        let a4 = mm.available(NodeId(4));
        let a5 = mm.available(NodeId(5));
        let err = mm
            .alloc(a4 + a5 + GIB, AllocPolicy::Interleave(vec![NodeId(4), NodeId(5)]))
            .unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn failed_alloc_has_no_side_effects() {
        let mut mm = manager();
        let snapshot: Vec<u64> =
            mm.machine.topology().node_ids().iter().map(|&n| mm.available(n)).collect();
        let _ = mm.alloc(10_000 * GIB, AllocPolicy::PreferredMany(vec![NodeId(0)])).unwrap_err();
        let after: Vec<u64> =
            mm.machine.topology().node_ids().iter().map(|&n| mm.available(n)).collect();
        assert_eq!(snapshot, after);
    }

    #[test]
    fn migration_moves_and_costs() {
        let mut mm = manager();
        let id = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let before0 = mm.available(NodeId(0));
        let report = mm.migrate(id, NodeId(4)).unwrap();
        assert_eq!(report.bytes_moved, 2 * GIB);
        assert!(report.cost_ns > 0.0);
        assert_eq!(mm.available(NodeId(0)), before0 + 2 * GIB);
        assert_eq!(mm.region(id).unwrap().single_node(), Some(NodeId(4)));
        // Page overhead dominates: ≥ pages × overhead.
        let pages = (2 * GIB / PAGE_SIZE) as f64;
        assert!(report.cost_ns >= pages * 1_200.0);
    }

    #[test]
    fn migration_to_full_node_fails_cleanly() {
        let mut mm = manager();
        let big = mm.alloc(10 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let err = mm.migrate(big, NodeId(4)).unwrap_err();
        assert!(matches!(err, AllocError::InsufficientCapacity { node: NodeId(4), .. }));
        // Region untouched.
        assert_eq!(mm.region(big).unwrap().single_node(), Some(NodeId(0)));
    }

    #[test]
    fn migrating_a_dead_region_names_the_region() {
        let mut mm = manager();
        let id = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        assert!(mm.free(id));
        assert_eq!(mm.migrate(id, NodeId(4)).unwrap_err(), AllocError::UnknownRegion(id));
        let never = RegionId(id.0 + 100);
        assert_eq!(mm.migrate(never, NodeId(4)).unwrap_err(), AllocError::UnknownRegion(never));
        // A bad target is still a node error, live region or not.
        assert_eq!(mm.migrate(id, NodeId(99)).unwrap_err(), AllocError::InvalidNode(NodeId(99)));
    }

    #[test]
    fn migrate_noop_when_already_there() {
        let mut mm = manager();
        let id = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let report = mm.migrate(id, NodeId(0)).unwrap();
        assert_eq!(report.bytes_moved, 0);
    }

    #[test]
    fn double_free_returns_false() {
        let mut mm = manager();
        let id = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        assert!(mm.free(id));
        assert!(!mm.free(id));
    }

    #[test]
    fn duplicate_nodes_in_policy_count_once() {
        // Regression: PreferredMany(vec![n, n]) must not double-count
        // the node's capacity (caught by the workspace proptests).
        let mut mm = manager();
        let avail = mm.available(NodeId(4));
        let err = mm
            .alloc(avail * 2, AllocPolicy::PreferredMany(vec![NodeId(4), NodeId(4)]))
            .unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
        let id = mm.alloc(avail, AllocPolicy::PreferredMany(vec![NodeId(4), NodeId(4)])).unwrap();
        assert_eq!(mm.region(id).unwrap().bytes_on(NodeId(4)), avail);
        assert_eq!(mm.available(NodeId(4)), 0);
        // Interleave with duplicates likewise counts once.
        mm.free(id);
        let id =
            mm.alloc(GIB, AllocPolicy::Interleave(vec![NodeId(0), NodeId(0), NodeId(1)])).unwrap();
        let r = mm.region(id).unwrap();
        assert_eq!(r.bytes_on(NodeId(0)), GIB / 2);
        assert_eq!(r.bytes_on(NodeId(1)), GIB / 2);
    }

    #[test]
    fn telemetry_tracks_capacity_lifecycle() {
        use hetmem_telemetry::Event;
        let mut mm = manager();
        let sink = TelemetrySink::new();
        mm.set_sink(sink.clone());
        let id = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        mm.migrate(id, NodeId(4)).unwrap();
        mm.free(id);
        let events: Vec<Event> =
            sink.collector().drain_sorted().into_iter().map(|e| e.event).collect();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Migration(m) if m.region == id.0 && m.to == NodeId(4) && m.bytes_moved == 2 * GIB
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Free(f) if f.region == id.0 && f.placement == vec![(NodeId(4), 2 * GIB)]
        )));
        // Gauges: node 0 rose to 2 GiB then drained; high water sticks.
        assert_eq!(mm.used(NodeId(0)), 0);
        assert_eq!(mm.high_water(NodeId(0)), 2 * GIB);
        assert_eq!(mm.high_water(NodeId(4)), 2 * GIB);
        let last_gauge0 = events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::OccupancyGauge(g) if g.node == NodeId(0) => Some(*g),
                _ => None,
            })
            .expect("node 0 gauges");
        assert_eq!(last_gauge0.used, 0);
        assert_eq!(last_gauge0.high_water, 2 * GIB);
    }

    #[test]
    fn capture_restore_roundtrips_and_validates() {
        let mut mm = manager();
        let a = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(4))).unwrap();
        let b = mm.alloc(3 * GIB, AllocPolicy::PreferredMany(vec![NodeId(0), NodeId(1)])).unwrap();
        mm.free(a);
        let state = mm.capture();
        let back = MemoryManager::restore(mm.machine().clone(), &state).expect("restores");
        assert_eq!(back.capture(), state, "capture/restore round-trips");
        for &n in &mm.machine().topology().node_ids() {
            assert_eq!(back.available(n), mm.available(n), "free bytes agree on {n}");
            assert_eq!(back.high_water(n), mm.high_water(n), "high water agrees on {n}");
        }
        // The restored manager keeps allocating where the original
        // left off: region ids never collide with live ones.
        let mut back = back;
        let c = back.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        assert!(c > b, "fresh ids continue past the restored counter");

        // Corrupted states are rejected, not applied.
        let mut bad = state.clone();
        bad.regions[0].placement = vec![(NodeId(99), GIB)];
        let err = MemoryManager::restore(mm.machine().clone(), &bad).unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
        let mut bad = state.clone();
        bad.regions[0].placement = vec![(NodeId(4), 1 << 50)];
        let err = MemoryManager::restore(mm.machine().clone(), &bad).unwrap_err();
        assert!(err.to_string().contains("oversubscribes"), "{err}");
        let mut bad = state.clone();
        bad.next_id = 0;
        assert!(MemoryManager::restore(mm.machine().clone(), &bad).is_err());
        let mut bad = state.clone();
        let dup = bad.regions[0].clone();
        bad.regions.push(dup);
        let err = MemoryManager::restore(mm.machine().clone(), &bad).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn every_live_region_places_exactly_its_size() {
        // `restore` refuses any other region, so every policy and a
        // migration must leave captures it accepts.
        let mut mm = manager();
        let size = 3 * GIB + 1;
        let ids = [
            mm.alloc(size, AllocPolicy::Bind(NodeId(1))).unwrap(),
            mm.alloc(size + 2 * GIB, AllocPolicy::Preferred(NodeId(4))).unwrap(),
            mm.alloc(size + 2 * GIB, AllocPolicy::PreferredMany(vec![NodeId(6), NodeId(2)]))
                .unwrap(),
            mm.alloc(size, AllocPolicy::Interleave(vec![NodeId(0), NodeId(5), NodeId(0)])).unwrap(),
            mm.alloc(size, AllocPolicy::Exact(vec![(NodeId(7), 5), (NodeId(3), GIB)])).unwrap(),
            mm.alloc(size, AllocPolicy::Interleave(vec![NodeId(2), NodeId(3)])).unwrap(),
        ];
        mm.migrate(ids[5], NodeId(0)).unwrap();
        // The spills and the interleave really did split their regions.
        for id in &ids[1..4] {
            assert!(mm.region(*id).unwrap().placement.len() > 1);
        }
        for region in mm.regions() {
            let placed: u64 = region.placement.iter().map(|&(_, b)| b).sum();
            assert_eq!(placed, region.size, "{:?}", region.policy);
        }
        let state = mm.capture();
        let back = MemoryManager::restore(mm.machine().clone(), &state).expect("restores");
        assert_eq!(back.capture(), state);
    }

    #[test]
    fn restore_refuses_a_region_that_does_not_place_its_size() {
        let machine = manager().machine().clone();
        let state = |size, placed| ManagerState {
            regions: vec![RegionState {
                id: 0,
                size,
                placement: vec![(NodeId(0), placed)],
                policy: AllocPolicy::Bind(NodeId(0)),
            }],
            next_id: 1,
            high_water: vec![],
        };
        assert!(MemoryManager::restore(machine.clone(), &state(GIB, GIB)).is_ok());
        // Too many bytes, then too few. Accepted, either would reach
        // `migrate`'s `size - already`.
        for (size, placed) in [(GIB, 2 * GIB), (2 * GIB, GIB)] {
            let err = MemoryManager::restore(machine.clone(), &state(size, placed)).unwrap_err();
            assert!(err.to_string().contains("not its size"), "{err}");
        }
    }

    #[test]
    fn invalid_node_rejected() {
        let mut mm = manager();
        assert!(matches!(
            mm.alloc(GIB, AllocPolicy::Bind(NodeId(99))),
            Err(AllocError::InvalidNode(NodeId(99)))
        ));
        assert!(matches!(
            mm.alloc(GIB, AllocPolicy::PreferredMany(vec![])),
            Err(AllocError::EmptyNodeList)
        ));
    }
}
