//! The topology's NUMA index against a scan of the whole object arena,
//! on every platform builder, every machine preset and an
//! export/import round trip.

use hetmem::memsim::Machine;
use hetmem::topology::{platforms, LocalityFlags, NodeId, ObjectType, Topology, GIB};
use hetmem::Bitmap;

fn numa_scan(topo: &Topology) -> impl Iterator<Item = &hetmem::topology::Object> {
    topo.objects().filter(|o| o.obj_type == ObjectType::NumaNode)
}

/// `hwloc_get_local_numanode_objs` as a filter over the whole arena.
fn local_scan(topo: &Topology, initiator: &Bitmap, flags: LocalityFlags) -> Vec<u32> {
    let mut out: Vec<u32> = numa_scan(topo)
        .filter(|o| {
            let loc = &o.cpuset;
            flags.all
                || loc == initiator
                || (flags.larger && loc.includes(initiator) && loc != initiator)
                || (flags.smaller && initiator.includes(loc) && loc != initiator)
                || (flags.intersect && loc.intersects(initiator))
        })
        .map(|o| o.os_index)
        .collect();
    out.sort();
    out
}

fn check(name: &str, topo: &Topology) {
    let mut ids: Vec<NodeId> = numa_scan(topo).map(|o| NodeId(o.os_index)).collect();
    ids.sort();
    assert_eq!(topo.node_ids(), ids, "{name}: node_ids");
    assert_eq!(topo.count(ObjectType::NumaNode), ids.len(), "{name}: count");

    let last = ids.last().map_or(0, |n| n.0);
    let probes = (0..=last + 2).map(NodeId).chain([NodeId(u32::MAX)]);
    for node in probes {
        let scanned = numa_scan(topo).find(|o| o.os_index == node.0);
        assert_eq!(
            topo.numa_by_os_index(node).map(|o| o.id),
            scanned.map(|o| o.id),
            "{name}: numa_by_os_index({node})"
        );
        assert_eq!(
            topo.node_capacity(node),
            scanned.map(|o| o.local_memory()),
            "{name}: node_capacity({node})"
        );
        assert_eq!(
            topo.node_kind(node),
            scanned.and_then(|o| o.attrs.as_numa()).map(|n| n.kind),
            "{name}: node_kind({node})"
        );
    }

    let presets = [
        LocalityFlags::exact(),
        LocalityFlags::larger(),
        LocalityFlags::smaller(),
        LocalityFlags::branch(),
        LocalityFlags::intersecting(),
        LocalityFlags::all(),
    ];
    let initiators: Vec<Bitmap> =
        [ObjectType::Pu, ObjectType::Core, ObjectType::Package, ObjectType::NumaNode]
            .into_iter()
            .flat_map(|t| topo.objects_of_type(t).map(|o| o.cpuset.clone()))
            .collect();
    for initiator in &initiators {
        for flags in presets {
            let indexed: Vec<u32> =
                topo.local_numa_nodes(initiator, flags).iter().map(|o| o.os_index).collect();
            assert_eq!(
                indexed,
                local_scan(topo, initiator, flags),
                "{name}: local_numa_nodes({initiator}, {flags:?})"
            );
        }
    }
}

#[test]
fn every_platform_builder_indexes_its_numa_nodes() {
    let builders: [(&str, Topology); 12] = [
        ("knl_snc4_hybrid50", platforms::knl_snc4_hybrid50()),
        ("knl_snc4_flat", platforms::knl_snc4_flat()),
        ("knl_quadrant_cache", platforms::knl_quadrant_cache()),
        ("xeon_1lm", platforms::xeon_1lm()),
        ("xeon_1lm_no_snc", platforms::xeon_1lm_no_snc()),
        ("xeon_2lm", platforms::xeon_2lm()),
        ("fictitious", platforms::fictitious()),
        ("xeon_4s_snc", platforms::xeon_4s_snc()),
        ("homogeneous", platforms::homogeneous(3, 4, 16 * GIB)),
        ("power9_gpu", platforms::power9_gpu()),
        ("fugaku_like", platforms::fugaku_like()),
        ("homogeneous_1", platforms::homogeneous(1, 2, GIB)),
    ];
    for (name, topo) in &builders {
        check(name, topo);
        let imported = Topology::import(&topo.export()).expect("round trip");
        check(&format!("{name} (imported)"), &imported);
    }
}

#[test]
fn every_machine_preset_indexes_its_numa_nodes() {
    let presets = [
        Machine::xeon_1lm_no_snc(),
        Machine::xeon_1lm_snc(),
        Machine::xeon_2lm(),
        Machine::knl_snc4_flat(),
        Machine::knl_quadrant_cache(),
        Machine::xeon_4s_snc(),
        Machine::fictitious(),
        Machine::homogeneous(2, 4, 8 * GIB),
        Machine::power9_gpu(),
        Machine::fugaku_like(),
    ];
    for machine in &presets {
        check(machine.name(), machine.topology());
    }
}
