//! The attribute registry and its query API.

use hetmem_bitmap::Bitmap;
use hetmem_topology::{LocalityFlags, NodeId, ObjectType, Topology};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, PoisonError, RwLock};

/// Identifier of a memory attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// Predefined attribute ids, numbered like hwloc 2.x.
pub mod attr {
    use super::AttrId;

    /// Node capacity in bytes (computed from the topology; no
    /// initiator). Higher is better.
    pub const CAPACITY: AttrId = AttrId(0);
    /// Number of PUs in the node's locality (computed; no initiator).
    /// Lower is better — fewer sharers means closer memory.
    pub const LOCALITY: AttrId = AttrId(1);
    /// Access bandwidth in MiB/s, per initiator. Higher is better.
    pub const BANDWIDTH: AttrId = AttrId(2);
    /// Access latency in ns, per initiator. Lower is better.
    pub const LATENCY: AttrId = AttrId(3);
    /// Read bandwidth in MiB/s.
    pub const READ_BANDWIDTH: AttrId = AttrId(4);
    /// Write bandwidth in MiB/s.
    pub const WRITE_BANDWIDTH: AttrId = AttrId(5);
    /// Read latency in ns.
    pub const READ_LATENCY: AttrId = AttrId(6);
    /// Write latency in ns.
    pub const WRITE_LATENCY: AttrId = AttrId(7);
    /// First id available for custom attributes.
    pub const FIRST_CUSTOM: AttrId = AttrId(8);
}

/// Behavioural flags of an attribute (hwloc's
/// `hwloc_memattr_flag_e`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrFlags {
    /// True when larger values are better (bandwidth, capacity); false
    /// when smaller values are better (latency, locality).
    pub higher_is_best: bool,
    /// True when values depend on the accessing initiator.
    pub need_initiator: bool,
}

/// One attribute's definition.
#[derive(Debug, Clone)]
struct AttrDef {
    name: String,
    flags: AttrFlags,
}

/// A stored value: optional initiator plus the value.
#[derive(Debug, Clone)]
struct StoredValue {
    initiator: Option<Bitmap>,
    value: u64,
}

/// A `(target, value)` pair returned by ranking queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetValue {
    /// The memory target.
    pub node: NodeId,
    /// The attribute value for the query's initiator.
    pub value: u64,
}

/// Errors from the attributes API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrError {
    /// The attribute id is not registered.
    UnknownAttr(AttrId),
    /// An attribute with this name already exists.
    DuplicateName(String),
    /// The attribute needs an initiator but none matched / none given.
    NeedInitiator,
    /// Capacity/Locality are computed from the topology, not settable.
    ReadOnly(AttrId),
    /// The target node does not exist in the topology.
    UnknownTarget(NodeId),
}

impl std::fmt::Display for AttrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrError::UnknownAttr(id) => write!(f, "unknown attribute #{}", id.0),
            AttrError::DuplicateName(n) => write!(f, "attribute {n:?} already registered"),
            AttrError::NeedInitiator => write!(f, "attribute requires an initiator"),
            AttrError::ReadOnly(id) => write!(f, "attribute #{} is computed, not settable", id.0),
            AttrError::UnknownTarget(n) => write!(f, "unknown target {n}"),
        }
    }
}

impl std::error::Error for AttrError {}

/// Most distinct `(attribute, initiator, scope)` rankings one
/// [`MemAttrs`] keeps. Past it, rankings are computed and not stored.
/// A run asks for a handful: 2 to 5 on each benchmark workload.
pub const RANK_MEMO_KEYS: usize = 256;

/// Which targets a memoized ranking covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RankScope {
    /// Every target with a value ([`MemAttrs::rank_targets`]).
    Any,
    /// The initiator's local branch ([`MemAttrs::rank_local_targets`]).
    Local,
}

/// The memoized rankings of one `(attribute, scope)`, by initiator.
type ByInitiator = HashMap<Bitmap, Arc<[TargetValue]>>;

/// Rankings already computed, keyed by `(attribute, scope)` and then
/// by initiator, so a hit looks up a borrowed `&Bitmap`. A clone
/// starts empty.
#[derive(Default)]
struct RankMemo(RwLock<HashMap<(AttrId, RankScope), ByInitiator>>);

impl Clone for RankMemo {
    fn clone(&self) -> Self {
        RankMemo::default()
    }
}

// The memo only ever holds finished rankings, so a lock poisoned by a
// panicking thread still guards valid data: recover the guard.
impl RankMemo {
    fn get(&self, id: AttrId, scope: RankScope, initiator: &Bitmap) -> Option<Arc<[TargetValue]>> {
        let memo = self.0.read().unwrap_or_else(PoisonError::into_inner);
        memo.get(&(id, scope))?.get(initiator).cloned()
    }

    fn insert(
        &self,
        id: AttrId,
        scope: RankScope,
        initiator: &Bitmap,
        ranked: &Arc<[TargetValue]>,
    ) {
        let mut memo = self.0.write().unwrap_or_else(PoisonError::into_inner);
        if memo.values().map(HashMap::len).sum::<usize>() < RANK_MEMO_KEYS {
            memo.entry((id, scope)).or_default().insert(initiator.clone(), ranked.clone());
        }
    }

    fn clear(&mut self) {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
    }
}

/// The memory attributes registry for one topology.
///
/// Performance values are stored per `(attribute, target, initiator)`.
/// Initiator matching on queries is widest-inclusion-first: a stored
/// value applies to a query initiator when the stored cpuset
/// **includes** the query (your threads run inside the measured
/// domain); if nothing includes it, an **intersecting** entry is used.
/// This lets a thread pinned to 2 cores use the value measured "from
/// Package L#0".
#[derive(Clone)]
pub struct MemAttrs {
    topology: Arc<Topology>,
    defs: BTreeMap<AttrId, AttrDef>,
    values: BTreeMap<(AttrId, NodeId), Vec<StoredValue>>,
    next_custom: u32,
    rankings: RankMemo,
}

impl std::fmt::Debug for MemAttrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemAttrs")
            .field("topology", &self.topology)
            .field("defs", &self.defs)
            .field("values", &self.values)
            .field("next_custom", &self.next_custom)
            .finish()
    }
}

impl MemAttrs {
    /// Creates the registry with the 8 predefined attributes.
    pub fn new(topology: Arc<Topology>) -> Self {
        let mut defs = BTreeMap::new();
        let mut def = |id: AttrId, name: &str, higher: bool, initiator: bool| {
            defs.insert(
                id,
                AttrDef {
                    name: name.to_string(),
                    flags: AttrFlags { higher_is_best: higher, need_initiator: initiator },
                },
            );
        };
        def(attr::CAPACITY, "Capacity", true, false);
        def(attr::LOCALITY, "Locality", false, false);
        def(attr::BANDWIDTH, "Bandwidth", true, true);
        def(attr::LATENCY, "Latency", false, true);
        def(attr::READ_BANDWIDTH, "ReadBandwidth", true, true);
        def(attr::WRITE_BANDWIDTH, "WriteBandwidth", true, true);
        def(attr::READ_LATENCY, "ReadLatency", false, true);
        def(attr::WRITE_LATENCY, "WriteLatency", false, true);
        MemAttrs {
            topology,
            defs,
            values: BTreeMap::new(),
            next_custom: attr::FIRST_CUSTOM.0,
            rankings: RankMemo::default(),
        }
    }

    /// The topology this registry describes.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Registers a custom attribute (paper §IV: "The API also lets
    /// users create attributes for metrics characterizing memories
    /// under specific circumstances", e.g. a STREAM-Triad metric).
    pub fn register(&mut self, name: &str, flags: AttrFlags) -> Result<AttrId, AttrError> {
        if self.defs.values().any(|d| d.name == name) {
            return Err(AttrError::DuplicateName(name.to_string()));
        }
        let id = AttrId(self.next_custom);
        self.next_custom += 1;
        self.defs.insert(id, AttrDef { name: name.to_string(), flags });
        self.rankings.clear();
        Ok(id)
    }

    /// Finds an attribute by name.
    pub fn by_name(&self, name: &str) -> Option<AttrId> {
        self.defs.iter().find(|(_, d)| d.name == name).map(|(&id, _)| id)
    }

    /// The attribute's name.
    pub fn name(&self, id: AttrId) -> Result<&str, AttrError> {
        self.defs.get(&id).map(|d| d.name.as_str()).ok_or(AttrError::UnknownAttr(id))
    }

    /// The attribute's flags.
    pub fn flags(&self, id: AttrId) -> Result<AttrFlags, AttrError> {
        self.defs.get(&id).map(|d| d.flags).ok_or(AttrError::UnknownAttr(id))
    }

    /// All registered attribute ids, predefined first.
    pub fn attributes(&self) -> Vec<AttrId> {
        self.defs.keys().copied().collect()
    }

    /// Sets the value of `id` for `target` (and `initiator`, when the
    /// attribute needs one). Overwrites an entry with the same
    /// initiator, and forgets every memoized ranking.
    pub fn set_value(
        &mut self,
        id: AttrId,
        target: NodeId,
        initiator: Option<&Bitmap>,
        value: u64,
    ) -> Result<(), AttrError> {
        let def = self.defs.get(&id).ok_or(AttrError::UnknownAttr(id))?;
        if id == attr::CAPACITY || id == attr::LOCALITY {
            return Err(AttrError::ReadOnly(id));
        }
        if def.flags.need_initiator && initiator.is_none() {
            return Err(AttrError::NeedInitiator);
        }
        if self.topology.numa_by_os_index(target).is_none() {
            return Err(AttrError::UnknownTarget(target));
        }
        let slot = self.values.entry((id, target)).or_default();
        let initiator = initiator.cloned();
        if let Some(existing) = slot.iter_mut().find(|s| s.initiator == initiator) {
            existing.value = value;
        } else {
            slot.push(StoredValue { initiator, value });
        }
        self.rankings.clear();
        Ok(())
    }

    /// The value of `id` for `target` as seen from `initiator`
    /// (ignored for initiator-less attributes). Mirrors
    /// `hwloc_memattr_get_value`.
    pub fn get_value(
        &self,
        id: AttrId,
        target: NodeId,
        initiator: Option<&Bitmap>,
    ) -> Result<Option<u64>, AttrError> {
        let def = self.defs.get(&id).ok_or(AttrError::UnknownAttr(id))?;
        // Computed attributes.
        if id == attr::CAPACITY {
            return Ok(self.topology.node_capacity(target));
        }
        if id == attr::LOCALITY {
            return Ok(self
                .topology
                .numa_by_os_index(target)
                .map(|o| o.cpuset.weight().unwrap_or(0) as u64));
        }
        let Some(stored) = self.values.get(&(id, target)) else {
            return Ok(None);
        };
        if !def.flags.need_initiator {
            return Ok(stored.first().map(|s| s.value));
        }
        let Some(query) = initiator else {
            return Err(AttrError::NeedInitiator);
        };
        // Inclusion first: the query runs inside the measured domain.
        let included = stored
            .iter()
            .filter(|s| s.initiator.as_ref().is_some_and(|i| i.includes(query)))
            .min_by_key(|s| s.initiator.as_ref().and_then(|i| i.weight()).unwrap_or(usize::MAX));
        if let Some(s) = included {
            return Ok(Some(s.value));
        }
        // Fall back to any intersecting entry.
        Ok(stored
            .iter()
            .find(|s| s.initiator.as_ref().is_some_and(|i| i.intersects(query)))
            .map(|s| s.value))
    }

    /// All targets with a value for `id` from `initiator`, ranked
    /// best-first (ties broken by node id). This powers the paper's
    /// allocator fallback: "the allocator can easily fallback to next
    /// ones according to the ranking for this attribute".
    ///
    /// Attribute values do not change once discovery is done, so the
    /// ranking is memoized: the first query for an `(id, initiator)`
    /// pair computes it, and later queries share that slice. A
    /// [`MemAttrs::set_value`] or [`MemAttrs::register`] forgets every
    /// memoized ranking, and a clone starts with none. A registry keeps
    /// at most [`RANK_MEMO_KEYS`] rankings; past that it computes each
    /// new query afresh.
    pub fn rank_targets(
        &self,
        id: AttrId,
        initiator: &Bitmap,
    ) -> Result<Arc<[TargetValue]>, AttrError> {
        self.ranking(id, initiator, RankScope::Any)
    }

    /// The memoized ranking for `(id, initiator, scope)`, computed on
    /// a miss.
    fn ranking(
        &self,
        id: AttrId,
        initiator: &Bitmap,
        scope: RankScope,
    ) -> Result<Arc<[TargetValue]>, AttrError> {
        if let Some(ranked) = self.rankings.get(id, scope, initiator) {
            return Ok(ranked);
        }
        let mut ranked = self.compute_ranking(id, initiator)?;
        if scope == RankScope::Local {
            let local = self.topology.local_numa_nodes(initiator, LocalityFlags::branch());
            ranked.retain(|tv| local.iter().any(|o| o.os_index == tv.node.0));
        }
        let ranked: Arc<[TargetValue]> = ranked.into();
        self.rankings.insert(id, scope, initiator, &ranked);
        Ok(ranked)
    }

    /// Every target with a value for `id` from `initiator`, best first.
    fn compute_ranking(
        &self,
        id: AttrId,
        initiator: &Bitmap,
    ) -> Result<Vec<TargetValue>, AttrError> {
        let def = self.defs.get(&id).ok_or(AttrError::UnknownAttr(id))?;
        let mut out = Vec::new();
        for node in self.topology.node_ids() {
            if let Some(value) = self.get_value(id, node, Some(initiator))? {
                out.push(TargetValue { node, value });
            }
        }
        if def.flags.higher_is_best {
            out.sort_by(|a, b| b.value.cmp(&a.value).then(a.node.cmp(&b.node)));
        } else {
            out.sort_by(|a, b| a.value.cmp(&b.value).then(a.node.cmp(&b.node)));
        }
        Ok(out)
    }

    /// The best target for `id` from `initiator`
    /// (`hwloc_memattr_get_best_target`).
    pub fn get_best_target(&self, id: AttrId, initiator: &Bitmap) -> Option<(NodeId, u64)> {
        self.rank_targets(id, initiator).ok()?.first().map(|tv| (tv.node, tv.value))
    }

    /// The best initiator for accessing `target` under `id`
    /// (`hwloc_memattr_get_best_initiator`). Among tied initiators the
    /// first one stored wins, whichever way the attribute is best.
    pub fn get_best_initiator(&self, id: AttrId, target: NodeId) -> Option<(Bitmap, u64)> {
        let def = self.defs.get(&id)?;
        if !def.flags.need_initiator {
            return None;
        }
        let stored = self.values.get(&(id, target))?;
        let candidates = stored.iter().filter_map(|s| s.initiator.clone().map(|i| (i, s.value)));
        // `min_by_key` keeps the first of equal keys; `max_by_key`
        // would keep the last.
        if def.flags.higher_is_best {
            candidates.min_by_key(|&(_, v)| std::cmp::Reverse(v))
        } else {
            candidates.min_by_key(|&(_, v)| v)
        }
    }

    /// All initiators that have a value for `(id, target)`.
    pub fn initiators(&self, id: AttrId, target: NodeId) -> Vec<(Bitmap, u64)> {
        self.values
            .get(&(id, target))
            .map(|stored| {
                stored.iter().filter_map(|s| s.initiator.clone().map(|i| (i, s.value))).collect()
            })
            .unwrap_or_default()
    }

    /// All targets carrying any value for `id` (plus all NUMA nodes
    /// for computed attributes).
    pub fn targets(&self, id: AttrId) -> Vec<NodeId> {
        if id == attr::CAPACITY || id == attr::LOCALITY {
            return self.topology.node_ids();
        }
        let mut v: Vec<NodeId> =
            self.values.keys().filter(|(a, _)| *a == id).map(|&(_, n)| n).collect();
        v.sort();
        v
    }

    /// Convenience for allocators: the local targets of `initiator`
    /// (branch locality), ranked by `id`. This is the two-step
    /// selection the paper describes — "an application usually first
    /// selects the targets that are local to the core(s) where it runs
    /// (NUMA Affinity), and then compares their values for some
    /// attributes (Memory Kind Affinity)".
    ///
    /// Memoized like [`MemAttrs::rank_targets`], under its own key: the
    /// first query for an `(id, initiator)` pair computes the ranking
    /// and later queries share it, until a `set_value` or `register`.
    pub fn rank_local_targets(
        &self,
        id: AttrId,
        initiator: &Bitmap,
    ) -> Result<Arc<[TargetValue]>, AttrError> {
        self.ranking(id, initiator, RankScope::Local)
    }

    /// Number of NUMA nodes known to the topology.
    pub fn node_count(&self) -> usize {
        self.topology.count(ObjectType::NumaNode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_topology::platforms;

    fn knl_attrs() -> MemAttrs {
        let topo = Arc::new(platforms::knl_snc4_flat());
        let mut a = MemAttrs::new(topo);
        // Cluster 0: DRAM node 0, MCDRAM node 4.
        let c0: Bitmap = "0-15".parse().unwrap();
        a.set_value(attr::BANDWIDTH, NodeId(0), Some(&c0), 23_040).unwrap();
        a.set_value(attr::BANDWIDTH, NodeId(4), Some(&c0), 89_600).unwrap();
        a.set_value(attr::LATENCY, NodeId(0), Some(&c0), 130).unwrap();
        a.set_value(attr::LATENCY, NodeId(4), Some(&c0), 135).unwrap();
        a
    }

    #[test]
    fn predefined_attributes_exist() {
        let a = knl_attrs();
        assert_eq!(a.name(attr::CAPACITY).unwrap(), "Capacity");
        assert_eq!(a.name(attr::LATENCY).unwrap(), "Latency");
        assert!(a.flags(attr::BANDWIDTH).unwrap().higher_is_best);
        assert!(!a.flags(attr::LATENCY).unwrap().higher_is_best);
        assert!(!a.flags(attr::CAPACITY).unwrap().need_initiator);
        assert_eq!(a.by_name("ReadBandwidth"), Some(attr::READ_BANDWIDTH));
        assert_eq!(a.by_name("nope"), None);
        assert_eq!(a.attributes().len(), 8);
    }

    #[test]
    fn capacity_is_computed_and_readonly() {
        let mut a = knl_attrs();
        let cap = a.get_value(attr::CAPACITY, NodeId(0), None).unwrap().unwrap();
        assert_eq!(cap, 24 * hetmem_topology::GIB);
        assert_eq!(
            a.set_value(attr::CAPACITY, NodeId(0), None, 1),
            Err(AttrError::ReadOnly(attr::CAPACITY))
        );
    }

    #[test]
    fn locality_counts_pus() {
        let a = knl_attrs();
        // Each cluster node is local to 16 PUs.
        assert_eq!(a.get_value(attr::LOCALITY, NodeId(0), None).unwrap(), Some(16));
    }

    #[test]
    fn best_target_by_bandwidth_is_mcdram() {
        let a = knl_attrs();
        let c0: Bitmap = "0-15".parse().unwrap();
        let (node, v) = a.get_best_target(attr::BANDWIDTH, &c0).unwrap();
        assert_eq!(node, NodeId(4));
        assert_eq!(v, 89_600);
        // Latency prefers DRAM (130 < 135).
        let (node, _) = a.get_best_target(attr::LATENCY, &c0).unwrap();
        assert_eq!(node, NodeId(0));
    }

    #[test]
    fn initiator_inclusion_matching() {
        let a = knl_attrs();
        // A thread pinned on 2 cores of cluster 0 still sees the
        // cluster-level value.
        let two: Bitmap = "3-4".parse().unwrap();
        let v = a.get_value(attr::BANDWIDTH, NodeId(4), Some(&two)).unwrap();
        assert_eq!(v, Some(89_600));
        // An initiator on cluster 1 has no value for node 4 (local-only
        // discovery) — inclusion fails, intersection fails.
        let c1: Bitmap = "16-31".parse().unwrap();
        assert_eq!(a.get_value(attr::BANDWIDTH, NodeId(4), Some(&c1)).unwrap(), None);
    }

    #[test]
    fn smallest_including_initiator_wins() {
        let topo = Arc::new(platforms::xeon_1lm());
        let mut a = MemAttrs::new(topo);
        let group0: Bitmap = "0-9".parse().unwrap();
        let package0: Bitmap = "0-19".parse().unwrap();
        // Package-level and group-level entries both stored.
        a.set_value(attr::LATENCY, NodeId(0), Some(&package0), 40).unwrap();
        a.set_value(attr::LATENCY, NodeId(0), Some(&group0), 26).unwrap();
        let pinned: Bitmap = "2".parse().unwrap();
        // The group value (more specific) is preferred.
        assert_eq!(a.get_value(attr::LATENCY, NodeId(0), Some(&pinned)).unwrap(), Some(26));
    }

    #[test]
    fn intersect_fallback_when_query_straddles() {
        let a = knl_attrs();
        // Query spanning clusters 0 and 1 is not included in cluster 0,
        // but intersects it.
        let wide: Bitmap = "0-31".parse().unwrap();
        assert_eq!(a.get_value(attr::BANDWIDTH, NodeId(4), Some(&wide)).unwrap(), Some(89_600));
    }

    #[test]
    fn missing_initiator_is_error() {
        let a = knl_attrs();
        assert_eq!(a.get_value(attr::BANDWIDTH, NodeId(0), None), Err(AttrError::NeedInitiator));
    }

    #[test]
    fn rank_targets_orders_correctly() {
        let a = knl_attrs();
        let c0: Bitmap = "0-15".parse().unwrap();
        let bw = a.rank_targets(attr::BANDWIDTH, &c0).unwrap();
        assert_eq!(bw[0].node, NodeId(4));
        assert_eq!(bw[1].node, NodeId(0));
        let lat = a.rank_targets(attr::LATENCY, &c0).unwrap();
        assert_eq!(lat[0].node, NodeId(0));
        // Capacity ranking covers all 8 nodes; DRAMs (24GB) first.
        let cap = a.rank_targets(attr::CAPACITY, &c0).unwrap();
        assert_eq!(cap.len(), 8);
        assert_eq!(cap[0].node, NodeId(0));
        assert_eq!(cap[0].value, 24 * hetmem_topology::GIB);
    }

    #[test]
    fn rank_local_targets_filters_by_branch() {
        let a = knl_attrs();
        let c0: Bitmap = "0-15".parse().unwrap();
        let local = a.rank_local_targets(attr::CAPACITY, &c0).unwrap();
        // Only the cluster's own DRAM + MCDRAM are local.
        assert_eq!(local.len(), 2);
        assert_eq!(local[0].node, NodeId(0));
        assert_eq!(local[1].node, NodeId(4));
    }

    #[test]
    fn best_initiator() {
        let topo = Arc::new(platforms::knl_snc4_flat());
        let mut a = MemAttrs::new(topo);
        let c0: Bitmap = "0-15".parse().unwrap();
        let c1: Bitmap = "16-31".parse().unwrap();
        a.set_value(attr::LATENCY, NodeId(0), Some(&c0), 130).unwrap();
        a.set_value(attr::LATENCY, NodeId(0), Some(&c1), 180).unwrap();
        let (ini, v) = a.get_best_initiator(attr::LATENCY, NodeId(0)).unwrap();
        assert_eq!(ini, c0);
        assert_eq!(v, 130);
        // No initiators for computed attributes.
        assert!(a.get_best_initiator(attr::CAPACITY, NodeId(0)).is_none());
    }

    #[test]
    fn tied_best_initiators_resolve_to_the_first_stored() {
        // With the full matrix, package-attached DRAM is equally close
        // to every SNC cluster of its package, on both attributes: node
        // 0 of the fictitious platform, nodes 2, 5, 8 and 11 of the
        // four-socket Xeon.
        use hetmem_memsim::Machine;
        let cases = [(Machine::fictitious(), vec![0]), (Machine::xeon_4s_snc(), vec![2, 5, 8, 11])];
        for (machine, nodes) in cases {
            let a = crate::discovery::from_firmware(&Arc::new(machine), false).unwrap();
            for node in nodes.into_iter().map(NodeId) {
                for id in [attr::BANDWIDTH, attr::LATENCY] {
                    let stored = a.initiators(id, node);
                    let best = a.get_best_initiator(id, node).unwrap();
                    let tied: Vec<_> = stored.iter().filter(|(_, v)| *v == best.1).collect();
                    assert!(tied.len() > 1, "{node} #{}: no tie in {stored:?}", id.0);
                    assert_eq!(&best, tied[0], "{node} #{}", id.0);
                }
            }
        }
        let c = crate::discovery::from_firmware(&Arc::new(Machine::fictitious()), false).unwrap();
        let first: Bitmap = "0-3".parse().unwrap();
        for id in [attr::BANDWIDTH, attr::LATENCY] {
            assert_eq!(c.get_best_initiator(id, NodeId(0)).unwrap().0, first, "#{}", id.0);
        }
    }

    #[test]
    fn custom_attribute_roundtrip() {
        let mut a = knl_attrs();
        let triad = a
            .register("StreamTriad", AttrFlags { higher_is_best: true, need_initiator: true })
            .unwrap();
        assert!(triad >= attr::FIRST_CUSTOM);
        let c0: Bitmap = "0-15".parse().unwrap();
        a.set_value(triad, NodeId(4), Some(&c0), 90_000).unwrap();
        a.set_value(triad, NodeId(0), Some(&c0), 29_000).unwrap();
        assert_eq!(a.get_best_target(triad, &c0).unwrap().0, NodeId(4));
        assert_eq!(a.by_name("StreamTriad"), Some(triad));
        // Duplicate names rejected.
        assert!(matches!(
            a.register("StreamTriad", AttrFlags { higher_is_best: true, need_initiator: true }),
            Err(AttrError::DuplicateName(_))
        ));
    }

    #[test]
    fn set_value_overwrites_same_initiator() {
        let mut a = knl_attrs();
        let c0: Bitmap = "0-15".parse().unwrap();
        a.set_value(attr::LATENCY, NodeId(0), Some(&c0), 99).unwrap();
        assert_eq!(a.get_value(attr::LATENCY, NodeId(0), Some(&c0)).unwrap(), Some(99));
        let stored = a.initiators(attr::LATENCY, NodeId(0));
        assert_eq!(stored.len(), 1);
    }

    #[test]
    fn unknown_ids_and_targets_rejected() {
        let mut a = knl_attrs();
        let c0: Bitmap = "0-15".parse().unwrap();
        assert!(matches!(
            a.get_value(AttrId(77), NodeId(0), Some(&c0)),
            Err(AttrError::UnknownAttr(_))
        ));
        assert!(matches!(
            a.set_value(attr::LATENCY, NodeId(42), Some(&c0), 1),
            Err(AttrError::UnknownTarget(_))
        ));
    }

    #[test]
    fn targets_lists_nodes_with_values() {
        let a = knl_attrs();
        assert_eq!(a.targets(attr::BANDWIDTH), vec![NodeId(0), NodeId(4)]);
        assert_eq!(a.targets(attr::CAPACITY).len(), 8);
        assert!(a.targets(attr::READ_BANDWIDTH).is_empty());
    }
}
