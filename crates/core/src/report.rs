//! `lstopo --memattrs`-style reporting (the paper's Fig. 5).

use crate::attrs::{attr, AttrId, MemAttrs};
use hetmem_topology::ObjectType;
use std::fmt::Write;

/// Finds the hwloc-style name of the object whose cpuset equals the
/// initiator's (e.g. `Group0 L#0`, `Package L#1`), falling back to the
/// raw cpuset.
fn initiator_label(attrs: &MemAttrs, cpus: &hetmem_bitmap::Bitmap) -> String {
    let topo = attrs.topology();
    for t in [
        ObjectType::Machine,
        ObjectType::Package,
        ObjectType::Group,
        ObjectType::Core,
        ObjectType::Pu,
    ] {
        for obj in topo.objects_of_type(t) {
            if &obj.cpuset == cpus {
                return format!("{} L#{}", t.short_name(), obj.logical_index);
            }
        }
    }
    format!("cpuset {cpus}")
}

/// Renders the registry in the format of `lstopo --memattrs`
/// (Fig. 5): one block per attribute, one line per target (and per
/// initiator for performance attributes).
pub fn render_memattrs(attrs: &MemAttrs) -> String {
    render(attrs, attrs.attributes())
}

/// Renders only the attributes the paper's Fig. 5 shows (Capacity,
/// Bandwidth, Latency), for a side-by-side comparison.
pub fn render_fig5(attrs: &MemAttrs) -> String {
    render(attrs, [attr::CAPACITY, attr::BANDWIDTH, attr::LATENCY])
}

/// One `lstopo --memattrs` block per attribute of `ids`, in order.
fn render(attrs: &MemAttrs, ids: impl IntoIterator<Item = AttrId>) -> String {
    let mut out = String::new();
    let topo = attrs.topology();
    for id in ids {
        let name = attrs.name(id).expect("rendered attribute exists");
        writeln!(out, "Memory attribute #{} name '{}'", id.0, name).unwrap();
        let flags = attrs.flags(id).expect("rendered attribute exists");
        for node in attrs.targets(id) {
            let logical = topo.numa_by_os_index(node).map(|o| o.logical_index).unwrap_or(node.0);
            if flags.need_initiator {
                for (ini, value) in attrs.initiators(id, node) {
                    writeln!(
                        out,
                        "  NUMANode L#{} = {} from {}",
                        logical,
                        value,
                        initiator_label(attrs, &ini)
                    )
                    .unwrap();
                }
            } else if let Ok(Some(value)) = attrs.get_value(id, node, None) {
                writeln!(out, "  NUMANode L#{} = {}", logical, value).unwrap();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::discovery;
    use hetmem_memsim::Machine;
    use std::sync::Arc;

    #[test]
    fn fig5_shape_on_xeon() {
        let machine = Arc::new(Machine::xeon_1lm_snc());
        let attrs = discovery::from_firmware(&machine, true).unwrap();
        let out = super::render_fig5(&attrs);
        // The Fig. 5 landmarks.
        assert!(out.contains("Memory attribute #0 name 'Capacity'"));
        assert!(out.contains("Memory attribute #2 name 'Bandwidth'"));
        assert!(out.contains("Memory attribute #3 name 'Latency'"));
        assert!(out.contains("= 131072 from Group0 L#0"));
        assert!(out.contains("= 78644 from Package L#0"));
        assert!(out.contains("= 26 from Group0 L#0"));
        assert!(out.contains("= 77 from Package L#1"));
        // Six NUMA nodes listed under Bandwidth.
        assert_eq!(out.matches("from ").count(), 12); // 6 nodes × 2 attrs
    }

    #[test]
    fn full_render_includes_capacity_values() {
        let machine = Arc::new(Machine::xeon_1lm_snc());
        let attrs = discovery::from_firmware(&machine, true).unwrap();
        let out = super::render_memattrs(&attrs);
        // 96 GiB and 768 GiB in bytes, as in Fig. 5.
        assert!(out.contains(&(96u64 * 1024 * 1024 * 1024).to_string()));
        assert!(out.contains(&(768u64 * 1024 * 1024 * 1024).to_string()));
    }
}
