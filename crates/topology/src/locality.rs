//! Local NUMA node queries.
//!
//! Reproduces `hwloc_get_local_numanode_objs()` (Fig. 4 of the paper):
//! given an *initiator* (a CPU set), return the NUMA nodes whose locality
//! matches. By default only nodes whose locality cpuset is exactly the
//! initiator are returned; flags widen the match the same way hwloc's
//! `HWLOC_LOCAL_NUMANODE_FLAG_{LARGER,SMALLER,INTERSECT,ALL}_LOCALITY`
//! do.

use crate::object::Object;
use crate::topo::Topology;
use hetmem_bitmap::Bitmap;

/// Which NUMA nodes count as "local" to an initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalityFlags {
    /// Also match nodes whose locality is **larger** than the initiator
    /// (e.g. a package-attached NVDIMM seen from one SNC cluster).
    pub larger: bool,
    /// Also match nodes whose locality is **smaller** than the initiator
    /// (e.g. cluster-attached HBMs seen from a whole package).
    pub smaller: bool,
    /// Also match nodes whose locality merely **intersects** the
    /// initiator.
    pub intersect: bool,
    /// Match **all** nodes regardless of locality.
    pub all: bool,
}

impl LocalityFlags {
    /// Exact-locality match only (hwloc default).
    pub fn exact() -> Self {
        LocalityFlags::default()
    }

    /// Exact + larger localities. This is what a typical thread-level
    /// allocator wants: everything reachable without leaving the local
    /// branch of the hierarchy.
    pub fn larger() -> Self {
        LocalityFlags { larger: true, ..Default::default() }
    }

    /// Exact + smaller localities.
    pub fn smaller() -> Self {
        LocalityFlags { smaller: true, ..Default::default() }
    }

    /// Exact + larger + smaller: the whole local branch. This mirrors
    /// how the paper's use case selects candidate targets for a set of
    /// cores ("first selects the targets that are local to the core(s)
    /// where it runs").
    pub fn branch() -> Self {
        LocalityFlags { larger: true, smaller: true, ..Default::default() }
    }

    /// Any intersecting locality.
    pub fn intersecting() -> Self {
        LocalityFlags { intersect: true, ..Default::default() }
    }

    /// Every NUMA node of the machine.
    pub fn all() -> Self {
        LocalityFlags { all: true, ..Default::default() }
    }
}

impl Topology {
    /// Returns the NUMA nodes local to `initiator` under `flags`, in
    /// OS-index order.
    ///
    /// Mirrors `hwloc_get_local_numanode_objs()`.
    pub fn local_numa_nodes(&self, initiator: &Bitmap, flags: LocalityFlags) -> Vec<&Object> {
        self.numa_nodes()
            .filter(|o| {
                if flags.all {
                    return true;
                }
                let loc = &o.cpuset;
                let exact = loc == initiator;
                let larger = flags.larger && loc.includes(initiator) && loc != initiator;
                let smaller = flags.smaller && initiator.includes(loc) && loc != initiator;
                let inter = flags.intersect && loc.intersects(initiator);
                exact || larger || smaller || inter
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use crate::types::ObjectType;
    use crate::NodeId;

    /// On the fictitious Fig. 3 platform, each package has DRAM+NVDIMM at
    /// package locality and an HBM per SNC cluster.
    #[test]
    fn exact_locality_from_cluster() {
        let t = platforms::fictitious();
        let cluster = t.object_by_type_and_logical(ObjectType::Group, 0).unwrap();
        let local = t.local_numa_nodes(&cluster.cpuset, LocalityFlags::exact());
        // Only the HBM has exactly cluster locality.
        assert_eq!(local.len(), 1);
        assert_eq!(t.node_kind(NodeId(local[0].os_index)), Some(crate::MemoryKind::Hbm));
    }

    #[test]
    fn larger_locality_sees_package_and_machine_memory() {
        let t = platforms::fictitious();
        let cluster = t.object_by_type_and_logical(ObjectType::Group, 0).unwrap();
        let local = t.local_numa_nodes(&cluster.cpuset, LocalityFlags::larger());
        // HBM (exact) + DRAM + NVDIMM (package) + NAM (machine) = 4,
        // matching the paper's "4 local NUMA nodes to allocate from".
        assert_eq!(local.len(), 4);
    }

    #[test]
    fn smaller_locality_from_package() {
        let t = platforms::fictitious();
        let pkg = t.object_by_type_and_logical(ObjectType::Package, 0).unwrap();
        let exact = t.local_numa_nodes(&pkg.cpuset, LocalityFlags::exact());
        assert_eq!(exact.len(), 2); // DRAM + NVDIMM
        let with_smaller = t.local_numa_nodes(&pkg.cpuset, LocalityFlags::smaller());
        assert_eq!(with_smaller.len(), 4); // + 2 cluster HBMs
    }

    #[test]
    fn all_flag_returns_everything() {
        let t = platforms::fictitious();
        let pkg = t.object_by_type_and_logical(ObjectType::Package, 0).unwrap();
        let all = t.local_numa_nodes(&pkg.cpuset, LocalityFlags::all());
        assert_eq!(all.len(), t.count(ObjectType::NumaNode));
    }

    #[test]
    fn intersect_matches_overlap() {
        let t = platforms::fictitious();
        // A set straddling both packages intersects everything.
        let machine = t.machine_cpuset().clone();
        let inter = t.local_numa_nodes(&machine, LocalityFlags::intersecting());
        assert_eq!(inter.len(), t.count(ObjectType::NumaNode));
    }

    #[test]
    fn results_sorted_by_os_index() {
        let t = platforms::fictitious();
        let pkg = t.object_by_type_and_logical(ObjectType::Package, 1).unwrap();
        let nodes = t.local_numa_nodes(&pkg.cpuset, LocalityFlags::branch());
        let idx: Vec<u32> = nodes.iter().map(|o| o.os_index).collect();
        let mut sorted = idx.clone();
        sorted.sort();
        assert_eq!(idx, sorted);
    }
}
