//! Shared helpers for the reproduction harness.
//!
//! The binaries `repro_tables` and `repro_figures` regenerate every
//! table and figure of the paper's evaluation; the Criterion benches
//! under `benches/` measure the library itself on the same scenarios.

use hetmem_alloc::HetAllocator;
use hetmem_core::{discovery, MemAttrs};
use hetmem_memsim::{AccessEngine, Machine, MemoryManager};
use std::sync::Arc;

pub mod guided_load;
pub mod load;
pub mod perf;

/// A ready-to-run experiment context for one machine.
pub struct Ctx {
    /// The simulated machine.
    pub machine: Arc<Machine>,
    /// The attribute registry (firmware discovery, local-only).
    pub attrs: Arc<MemAttrs>,
    /// The phase engine.
    pub engine: AccessEngine,
}

impl Ctx {
    /// Builds the context with firmware-discovered attributes.
    pub fn new(machine: Machine) -> Self {
        let machine = Arc::new(machine);
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("firmware discovery"));
        let engine = AccessEngine::new(machine.clone());
        Ctx { machine, attrs, engine }
    }

    /// A fresh allocator (fresh capacity) over this machine.
    pub fn allocator(&self) -> HetAllocator {
        HetAllocator::new(self.attrs.clone(), MemoryManager::new(self.machine.clone()))
    }

    /// The paper's Xeon (§VI): dual Cascade Lake 6230, SNC off, 1LM.
    pub fn xeon() -> Self {
        Ctx::new(Machine::xeon_1lm_no_snc())
    }

    /// The paper's KNL (§VI): Xeon Phi 7230, SNC-4 Flat.
    pub fn knl() -> Self {
        Ctx::new(Machine::knl_snc4_flat())
    }
}

/// Formats a TEPS value the way Table II prints it (TEPS e+8).
pub fn teps_e8(teps: f64) -> String {
    format!("{:.3}", teps / 1e8)
}

/// Formats GiB like the Table II "Graph Size" column (decimal GB).
pub fn gb(bytes: u64) -> String {
    format!("{:.2} GB", bytes as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contexts_build() {
        let x = Ctx::xeon();
        assert_eq!(x.machine.topology().node_ids().len(), 4);
        let k = Ctx::knl();
        assert_eq!(k.machine.topology().node_ids().len(), 8);
        let mut a = k.allocator();
        let req = hetmem_alloc::AllocRequest::new(1 << 20)
            .criterion(hetmem_core::attr::BANDWIDTH)
            .initiator(&"0-15".parse().unwrap())
            .fallback(hetmem_alloc::Fallback::NextTarget);
        assert!(a.alloc(&req).is_ok());
    }

    #[test]
    fn formatting() {
        assert_eq!(teps_e8(3.423e8), "3.423");
        assert_eq!(gb(2_147_483_648), "2.15 GB");
    }
}
