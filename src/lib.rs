//! # hetmem — performance attributes for heterogeneous memory
//!
//! Umbrella crate re-exporting the whole workspace: a reproduction of
//! *"Using Performance Attributes for Managing Heterogeneous Memory in
//! HPC Applications"* (Goglin & Rubio Proaño, PDSEC/IPDPS-W 2022).
//!
//! See the README for the architecture tour; in short:
//!
//! * [`topology`] — hwloc-style object tree and the paper's platforms;
//! * [`hmat`] — simulated ACPI SRAT/HMAT firmware tables;
//! * [`memsim`] — the deterministic memory-system simulator replacing
//!   the paper's physical machines;
//! * [`core`] — the memory-attributes API (the contribution);
//! * [`membench`] — STREAM/lmbench/multichase-style benchmarks that
//!   feed measured attribute values;
//! * [`placement`] — the unified placement engine: attribute-fallback
//!   ranking, admission policies, and the Strict/NextTarget/
//!   PartialSpill planning walk shared by the allocator, tiering,
//!   guidance, and the service broker;
//! * [`alloc`] — the heterogeneous allocator `mem_alloc(.., attribute)`
//!   plus the baselines it is compared against;
//! * [`guidance`] — online access sampling (PEBS-style) feeding an
//!   automatic mid-phase promotion/demotion engine;
//! * [`profile`] — the VTune-like memory-access profiler;
//! * [`apps`] — Graph500 BFS, STREAM, SpMV and a two-phase migration
//!   workload;
//! * [`scenario`] — a text DSL to drive custom workloads through the
//!   whole stack without recompiling (`hetmem-run`);
//! * [`service`] — a multi-tenant allocation broker with fair-share
//!   arbitration, a JSONL wire protocol (`hetmem-serve`) and
//!   contention feedback between co-located tenants;
//! * [`snapshot`] — versioned broker checkpoints, crash-safe wire-log
//!   recording (`hetmem-serve --record/--restore`), and byte-for-byte
//!   deterministic replay (`hetmem-replay`);
//! * [`telemetry`] — allocation-decision events, per-thread
//!   [`TelemetrySink`]/[`ThreadWriter`] buffers with loss-accounted
//!   collection, JSONL traces, and the per-run placement report behind
//!   `--trace`.

#![warn(missing_docs)]
pub use hetmem_alloc as alloc;
pub use hetmem_apps as apps;
pub use hetmem_bitmap as bitmap;
pub use hetmem_core as core;
pub use hetmem_federation as federation;
pub use hetmem_guidance as guidance;
pub use hetmem_hmat as hmat;
pub use hetmem_membench as membench;
pub use hetmem_memsim as memsim;
pub use hetmem_placement as placement;
pub use hetmem_profile as profile;
pub use hetmem_scenario as scenario;
pub use hetmem_service as service;
pub use hetmem_snapshot as snapshot;
pub use hetmem_telemetry as telemetry;
pub use hetmem_topology as topology;

pub use hetmem_bitmap::Bitmap;
pub use hetmem_core::{attr, AttrFlags, AttrId, LocalityFlags, MemAttrs, NodeId};
pub use hetmem_memsim::Machine;
pub use hetmem_placement::{
    AdmissionPolicy, FallbackChain, PlacementEngine, PlacementPlan, RankedCandidates,
};
pub use hetmem_telemetry::{
    BackgroundCollector, CollectedEvent, Collector, TelemetrySink, ThreadLoss, ThreadWriter,
};
