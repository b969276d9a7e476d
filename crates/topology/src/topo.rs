//! The finished, immutable topology and its query API.

use crate::distances::DistancesMatrix;
use crate::object::{ObjId, Object};
use crate::types::{MemoryKind, ObjectType};
use crate::NodeId;
use hetmem_bitmap::Bitmap;

/// An immutable hardware topology (hwloc's `hwloc_topology_t`).
#[derive(Debug, Clone)]
pub struct Topology {
    objects: Vec<Object>,
    root: ObjId,
    distances: Vec<DistancesMatrix>,
    /// The NUMA node objects in OS-index order, so node queries read
    /// this index instead of scanning the whole arena.
    numa: Vec<ObjId>,
}

impl Topology {
    /// The one constructor: every builder and the importer finish
    /// here, so the NUMA index always matches the arena. The builder
    /// has already rejected duplicate NUMA OS indexes.
    pub(crate) fn from_parts(objects: Vec<Object>, root: ObjId) -> Self {
        let mut numa: Vec<ObjId> =
            objects.iter().filter(|o| o.obj_type == ObjectType::NumaNode).map(|o| o.id).collect();
        numa.sort_by_key(|id| objects[id.index()].os_index);
        Topology { objects, root, distances: Vec::new(), numa }
    }

    /// The NUMA node objects in OS-index order.
    pub(crate) fn numa_nodes(&self) -> impl Iterator<Item = &Object> {
        self.numa.iter().map(|id| &self.objects[id.index()])
    }

    /// The root Machine object.
    pub fn root(&self) -> ObjId {
        self.root
    }

    /// Accesses an object by handle.
    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id.index()]
    }

    /// Total number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the topology holds only the root machine.
    pub fn is_empty(&self) -> bool {
        self.objects.len() <= 1
    }

    /// Iterates over all objects in arena order.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.iter()
    }

    /// Iterates over all objects of one type, in logical-index order.
    pub fn objects_of_type(&self, t: ObjectType) -> impl Iterator<Item = &Object> {
        let mut v: Vec<&Object> = self.objects.iter().filter(move |o| o.obj_type == t).collect();
        v.sort_by_key(|o| o.logical_index);
        v.into_iter()
    }

    /// Number of objects of one type.
    pub fn count(&self, t: ObjectType) -> usize {
        if t == ObjectType::NumaNode {
            return self.numa.len();
        }
        self.objects.iter().filter(|o| o.obj_type == t).count()
    }

    /// Finds an object by type and logical index (hwloc's
    /// `hwloc_get_obj_by_type`).
    pub fn object_by_type_and_logical(&self, t: ObjectType, l: u32) -> Option<&Object> {
        self.objects.iter().find(|o| o.obj_type == t && o.logical_index == l)
    }

    /// Finds the PU with a given OS index.
    pub fn pu_by_os_index(&self, os: u32) -> Option<ObjId> {
        self.objects.iter().find(|o| o.obj_type == ObjectType::Pu && o.os_index == os).map(|o| o.id)
    }

    /// Finds the NUMA node object with a given OS index.
    pub fn numa_by_os_index(&self, node: NodeId) -> Option<&Object> {
        let at = self.numa.binary_search_by_key(&node.0, |id| self.objects[id.index()].os_index);
        at.ok().map(|i| &self.objects[self.numa[i].index()])
    }

    /// All NUMA node ids in OS-index order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.numa_nodes().map(|o| NodeId(o.os_index)).collect()
    }

    /// The cpuset of an object (clone-free borrow).
    pub fn cpuset(&self, id: ObjId) -> &Bitmap {
        &self.objects[id.index()].cpuset
    }

    /// The full machine cpuset.
    pub fn machine_cpuset(&self) -> &Bitmap {
        &self.objects[self.root.index()].cpuset
    }

    /// Ground-truth kind of a NUMA node (display/verification only).
    pub fn node_kind(&self, node: NodeId) -> Option<MemoryKind> {
        self.numa_by_os_index(node).and_then(|o| o.attrs.as_numa()).map(|n| n.kind)
    }

    /// Capacity of a NUMA node in bytes.
    pub fn node_capacity(&self, node: NodeId) -> Option<u64> {
        self.numa_by_os_index(node).map(|o| o.local_memory())
    }

    /// Total memory across all NUMA nodes.
    pub fn total_memory(&self) -> u64 {
        self.numa_nodes().map(|o| o.local_memory()).sum()
    }

    /// Walks ancestors of `id` up to the root.
    pub fn ancestors(&self, id: ObjId) -> impl Iterator<Item = &Object> {
        let mut cur = self.objects[id.index()].parent;
        std::iter::from_fn(move || {
            let p = cur?;
            cur = self.objects[p.index()].parent;
            Some(&self.objects[p.index()])
        })
    }

    /// First ancestor of the given type (e.g. the Package containing a
    /// PU).
    pub fn ancestor_of_type(&self, id: ObjId, t: ObjectType) -> Option<&Object> {
        self.ancestors(id).find(|o| o.obj_type == t)
    }

    /// The memory-side cache directly in front of a NUMA node, if any:
    /// the node's parent when that parent is a `MemCache`.
    pub fn memory_side_cache_of(&self, node: NodeId) -> Option<&Object> {
        let obj = self.numa_by_os_index(node)?;
        let parent = obj.parent?;
        let p = &self.objects[parent.index()];
        (p.obj_type == ObjectType::MemCache).then_some(p)
    }

    /// Largest object whose cpuset is included in `set` (hwloc's
    /// `hwloc_get_first_largest_obj_inside_cpuset`, simplified to one).
    pub fn largest_object_inside(&self, set: &Bitmap) -> Option<&Object> {
        fn rec<'t>(topo: &'t Topology, id: ObjId, set: &Bitmap) -> Option<&'t Object> {
            let obj = topo.object(id);
            if !obj.cpuset.intersects(set) {
                return None;
            }
            if set.includes(&obj.cpuset) && !obj.cpuset.is_zero() {
                return Some(obj);
            }
            for &c in &obj.children {
                if let Some(found) = rec(topo, c, set) {
                    return Some(found);
                }
            }
            None
        }
        rec(self, self.root, set)
    }

    /// Registers a distances matrix (e.g. NUMA latency distances).
    pub fn add_distances(&mut self, d: DistancesMatrix) {
        self.distances.push(d);
    }

    /// Registered distances matrices.
    pub fn distances(&self) -> &[DistancesMatrix] {
        &self.distances
    }

    /// Depth-first iterator over the whole tree (normal children first,
    /// then memory children, matching render order).
    pub fn depth_first(&self) -> Vec<ObjId> {
        let mut out = Vec::with_capacity(self.objects.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            let obj = &self.objects[id.index()];
            let mut next: Vec<ObjId> =
                Vec::with_capacity(obj.children.len() + obj.memory_children.len());
            next.extend(obj.memory_children.iter().copied());
            next.extend(obj.children.iter().copied());
            for &n in next.iter().rev() {
                stack.push(n);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopologyBuilder, GIB};

    fn two_socket() -> Topology {
        let mut b = TopologyBuilder::new("two-socket");
        let root = b.root();
        for _ in 0..2 {
            let pkg = b.package(root);
            b.numa(pkg, 16 * GIB, MemoryKind::Dram);
            b.numa(pkg, 128 * GIB, MemoryKind::Nvdimm);
            b.cores(pkg, 4);
        }
        b.finish().unwrap()
    }

    #[test]
    fn counts() {
        let t = two_socket();
        assert_eq!(t.count(ObjectType::Package), 2);
        assert_eq!(t.count(ObjectType::NumaNode), 4);
        assert_eq!(t.count(ObjectType::Pu), 8);
        assert_eq!(t.node_ids().len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn node_lookup_and_kind() {
        let t = two_socket();
        assert_eq!(t.node_kind(NodeId(0)), Some(MemoryKind::Dram));
        assert_eq!(t.node_kind(NodeId(1)), Some(MemoryKind::Nvdimm));
        assert_eq!(t.node_capacity(NodeId(1)), Some(128 * GIB));
        assert_eq!(t.node_kind(NodeId(99)), None);
        assert_eq!(t.total_memory(), 2 * (16 + 128) * GIB);
    }

    #[test]
    fn ancestor_walk() {
        let t = two_socket();
        let pu = t.pu_by_os_index(5).unwrap();
        let pkg = t.ancestor_of_type(pu, ObjectType::Package).unwrap();
        assert_eq!(pkg.logical_index, 1);
        assert_eq!(t.ancestor_of_type(pu, ObjectType::Machine).unwrap().id, t.root());
    }

    #[test]
    fn largest_inside_cpuset() {
        let t = two_socket();
        // PUs 4-7 are exactly package 1.
        let set: Bitmap = "4-7".parse().unwrap();
        let obj = t.largest_object_inside(&set).unwrap();
        assert_eq!(obj.obj_type, ObjectType::Package);
        assert_eq!(obj.logical_index, 1);
        // A single PU.
        let one: Bitmap = "3".parse().unwrap();
        let obj = t.largest_object_inside(&one).unwrap();
        assert_eq!(obj.obj_type, ObjectType::Core);
        // Disjoint set.
        let none: Bitmap = "100".parse().unwrap();
        assert!(t.largest_object_inside(&none).is_none());
    }

    #[test]
    fn depth_first_covers_everything() {
        let t = two_socket();
        let order = t.depth_first();
        assert_eq!(order.len(), t.len());
        assert_eq!(order[0], t.root());
    }
}
