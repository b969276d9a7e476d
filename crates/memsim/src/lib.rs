//! Analytic simulator of heterogeneous NUMA memory systems.
//!
//! The paper evaluates on two physical machines (a dual Xeon Cascade
//! Lake 6230 with Optane NVDIMMs and a Xeon Phi 7230 in SNC-4 Flat
//! mode). This crate replaces that hardware with a deterministic
//! analytic model — the substitution is sound because the paper's
//! claims are about *orderings and crossovers* (which memory is best
//! for which access pattern, where capacity forces fallback), not
//! absolute GB/s; see DESIGN.md §2.
//!
//! The pieces:
//!
//! * [`NodeTiming`] — per-NUMA-node hardware parameters: idle and
//!   loaded latency, peak read/write bandwidth, per-thread bandwidth
//!   cap, and the Optane *AIT-cache* footprint effect (device
//!   bandwidth collapses once the working set exceeds the on-DIMM
//!   address-indirection cache coverage — this reproduces the paper's
//!   Table IIa drop at 34 GB and Table IIIa NVDIMM 31.6 → 10.5 GB/s).
//! * [`Machine`] — a [`hetmem_topology::Topology`] plus timings plus
//!   datasheet (HMAT) values; constructors calibrated for the paper's
//!   machines.
//! * [`MemoryManager`] — capacity accounting and NUMA allocation
//!   policies (bind / preferred / interleave / local), page-granular,
//!   with Linux's preferred-fallback quirk (paper footnote 21) and
//!   migration with a realistic cost model.
//! * [`AccessEngine`] — costs *kernel phases*: given per-buffer access
//!   descriptors (bytes, pattern, concurrency) it computes phase time
//!   as the max of bandwidth terms (per node, shared) and latency
//!   terms (per access chain), with LLC filtering and loaded-latency
//!   inflation, and reports per-buffer/per-node counters that the
//!   profiler crate turns into VTune-style summaries.
//!
//! Everything is deterministic: no wall-clock timing anywhere.

#![warn(missing_docs)]
mod engine;
mod fault;
mod machine;
mod memory;
#[cfg(test)]
mod reference;
mod timing;

pub use engine::{
    AccessEngine, AccessPattern, BufferAccess, BufferStats, NodeTraffic, Phase, PhaseReport, LINE,
};
pub use fault::{Fault, FaultKind, FaultPlan, SplitMix64};
pub use machine::{AccessAdjust, Machine};
pub use memory::{
    AllocError, AllocPolicy, ManagerState, MemoryManager, MigrationReport, Region, RegionId,
    RegionState, RestoreError,
};
pub use timing::{MemSideCacheTiming, NodeTiming};

/// Simulated page size (4 KiB, like Linux).
pub const PAGE_SIZE: u64 = 4096;

/// Converts MiB/s and bytes to nanoseconds.
pub(crate) fn ns_for_bytes(bytes: f64, bw_mibps: f64) -> f64 {
    if bw_mibps <= 0.0 {
        return f64::INFINITY;
    }
    bytes * 1e9 / (bw_mibps * 1024.0 * 1024.0)
}
