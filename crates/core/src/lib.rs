//! The memory performance attributes API — the paper's contribution.
//!
//! This crate reproduces the hwloc 2.3 `memattrs` extension presented
//! in *"Using Performance Attributes for Managing Heterogeneous Memory
//! in HPC Applications"* (Goglin & Rubio Proaño, PDSEC 2022):
//!
//! * memory **targets** (NUMA nodes) are characterized by a set of
//!   **attributes** — Capacity, Locality, Bandwidth, Latency, their
//!   Read/Write variants, and user-registered custom metrics;
//! * performance attributes are valued per **initiator** (a CPU set
//!   performing the accesses), since the same HBM is fast from its own
//!   cluster and slower from across the package;
//! * queries mirror Fig. 4 of the paper: [`MemAttrs::get_value`],
//!   [`MemAttrs::get_best_target`], [`MemAttrs::get_best_initiator`],
//!   plus the locality query `Topology::local_numa_nodes`
//!   (re-exported);
//! * values are **discovered** either natively from firmware tables
//!   ([`discovery`] decodes the simulated ACPI SRAT/HMAT binaries and
//!   applies the Linux local-accesses-only reduction) or fed by
//!   external benchmarks (`hetmem-membench`), matching Table I.
//!
//! The key design point reproduced from the paper: applications
//! **never name a memory technology**. They say "I want the target
//! with the best `Latency` from these cores" and get DRAM on a
//! DRAM+NVDIMM Xeon or either memory on a KNL — code stays portable.
//!
//! # Example
//!
//! ```
//! use hetmem_core::{attr, discovery};
//! use hetmem_memsim::Machine;
//! use std::sync::Arc;
//!
//! let machine = Arc::new(Machine::knl_snc4_flat());
//! let attrs = discovery::from_firmware(&machine, true).unwrap();
//!
//! // From cluster 0's cores, MCDRAM wins on bandwidth...
//! let cluster0 = "0-15".parse().unwrap();
//! let (best_bw, _) = attrs.get_best_target(attr::BANDWIDTH, &cluster0).unwrap();
//! assert_eq!(machine.topology().node_kind(best_bw).unwrap().subtype(), "HBM");
//!
//! // ...but DRAM wins on capacity, with no technology name anywhere.
//! let (best_cap, _) = attrs.get_best_target(attr::CAPACITY, &cluster0).unwrap();
//! assert_eq!(machine.topology().node_kind(best_cap).unwrap().subtype(), "DRAM");
//! ```

#![warn(missing_docs)]
mod attrs;
pub mod discovery;
mod error;
mod report;

pub use attrs::{attr, AttrError, AttrFlags, AttrId, MemAttrs, TargetValue, RANK_MEMO_KEYS};
pub use error::HetMemError;
pub use report::{render_fig5, render_memattrs};

pub use hetmem_topology::{LocalityFlags, NodeId, Topology};
