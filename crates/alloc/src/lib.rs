//! The heterogeneous memory allocator (§IV-B of the paper).
//!
//! The paper's allocator "may be summarized with a single function
//! `mem_alloc(..., attribute)` which allocates on the best local
//! memory target for the specified attribute, for instance Bandwidth,
//! Latency or Capacity". This crate reproduces it around a single
//! entry point, [`HetAllocator::alloc`], driven by an [`AllocRequest`]
//! built with a fluent builder:
//!
//! ```
//! # use hetmem_alloc::{AllocRequest, Fallback, HetAllocator, Machine};
//! # use hetmem_core::{attr, discovery};
//! # use hetmem_memsim::MemoryManager;
//! # use std::sync::Arc;
//! # let machine = Arc::new(Machine::knl_snc4_flat());
//! # let attrs = Arc::new(discovery::from_firmware(&machine, true).unwrap());
//! # let mut a = HetAllocator::new(attrs, MemoryManager::new(machine));
//! # let cpuset = "0-15".parse().unwrap();
//! let req = AllocRequest::new(1 << 30)
//!     .criterion(attr::LATENCY)
//!     .initiator(&cpuset)
//!     .fallback(Fallback::PartialSpill);
//! let buf = a.alloc(&req).unwrap();
//! # assert!(a.free(buf));
//! ```
//!
//! * the allocator ranks the initiator's **local** targets by the
//!   requested attribute (via `hetmem-core`) and allocates on the best
//!   one ([`AllocRequest::any_locality`] widens the ranking to remote
//!   targets, the paper's §VIII escape hatch);
//! * if the best target is full, it **falls back along the ranking**
//!   ([`Fallback::NextTarget`] retries whole buffers on the next
//!   target, [`Fallback::PartialSpill`] splits at page granularity,
//!   [`Fallback::Strict`] fails — all three appear in the paper's
//!   experiments);
//! * if the attribute has no values on this platform, it falls back to
//!   a **similar attribute** ("for instance Bandwidth instead of Read
//!   Bandwidth") and ultimately to Capacity, which always exists;
//! * the key portability property: the request names a *requirement*
//!   (Latency), never a *technology* (HBM). The same call returns DRAM
//!   on a DRAM+NVDIMM Xeon and can return either memory on KNL.
//!
//! Every decision is observable: when the memory manager carries an
//! enabled `hetmem_telemetry::TelemetrySink` (see
//! [`HetAllocator::set_sink`]),
//! each allocation emits an `AllocDecision` event with the ranked
//! candidates, every fallback hop and the final placement split, and
//! attribute substitutions emit `AttrFallback` events.
//!
//! The [`baselines`] module implements what the paper compares
//! against — a memkind-style hardwired-kind API, AutoHBW size
//! thresholds, and whole-process binding — and [`planner`] implements
//! the §VII capacity-conflict discussion (FCFS vs priority ordering,
//! plus migration).

#![warn(missing_docs)]
pub mod baselines;
pub mod omp;
pub mod planner;
pub mod tiering;

use hetmem_bitmap::Bitmap;
use hetmem_core::{attr, AttrError, AttrId, HetMemError, MemAttrs};
use hetmem_memsim::{AllocError, AllocPolicy, MemoryManager, MigrationReport, RegionId};
use hetmem_placement::{
    normalize_initiator, PlacementEngine, PlacementError, PlanRequest, Unconstrained,
};
use hetmem_telemetry as telemetry;
use hetmem_telemetry::TelemetrySink;
use hetmem_topology::NodeId;
use std::sync::Arc;

pub use hetmem_memsim::Machine;
pub use hetmem_telemetry::Scope;

/// What to do when the best target cannot hold the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fallback {
    /// Fail — used by experiments that must measure a single memory.
    Strict,
    /// Try the next target in the ranking with the whole buffer
    /// (paper: "entirely allocated on slower memories").
    #[default]
    NextTarget,
    /// Fill targets in ranking order at page granularity
    /// (paper: "or at least partially").
    PartialSpill,
}

impl Fallback {
    /// The telemetry (and placement-engine) encoding of this mode.
    pub fn as_telemetry(self) -> telemetry::FallbackMode {
        match self {
            Fallback::Strict => telemetry::FallbackMode::Strict,
            Fallback::NextTarget => telemetry::FallbackMode::NextTarget,
            Fallback::PartialSpill => telemetry::FallbackMode::PartialSpill,
        }
    }
}

/// Allocation failure from the heterogeneous allocator.
#[derive(Debug, Clone, PartialEq)]
pub enum HetAllocError {
    /// No target carries a value for the criterion (even after
    /// attribute fallback) — should not happen since Capacity always
    /// exists, unless the initiator has no local nodes.
    NoCandidates,
    /// The underlying OS allocation failed.
    Os(AllocError),
    /// Attribute registry error.
    Attr(AttrError),
    /// The request's initiator cpuset is empty after intersection with
    /// the machine cpuset: no CPU could perform the accesses.
    EmptyInitiator,
}

impl std::fmt::Display for HetAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HetAllocError::NoCandidates => write!(f, "no candidate target for criterion"),
            HetAllocError::Os(e) => write!(f, "allocation failed: {e}"),
            HetAllocError::Attr(e) => write!(f, "attribute error: {e}"),
            HetAllocError::EmptyInitiator => {
                write!(f, "initiator cpuset is empty after machine intersection")
            }
        }
    }
}

impl std::error::Error for HetAllocError {}

impl From<AllocError> for HetAllocError {
    fn from(e: AllocError) -> Self {
        HetAllocError::Os(e)
    }
}

impl From<AttrError> for HetAllocError {
    fn from(e: AttrError) -> Self {
        HetAllocError::Attr(e)
    }
}

impl From<PlacementError> for HetAllocError {
    fn from(e: PlacementError) -> Self {
        match e {
            PlacementError::NoCandidates => HetAllocError::NoCandidates,
            PlacementError::EmptyInitiator => HetAllocError::EmptyInitiator,
            PlacementError::Attr(e) => HetAllocError::Attr(e),
        }
    }
}

impl From<HetAllocError> for HetMemError {
    fn from(e: HetAllocError) -> Self {
        match e {
            HetAllocError::NoCandidates => HetMemError::NoCandidates,
            HetAllocError::Os(e) => HetMemError::Os(e),
            HetAllocError::Attr(e) => HetMemError::Attr(e),
            HetAllocError::EmptyInitiator => HetMemError::EmptyInitiator,
        }
    }
}

/// A fully described allocation request: what to allocate, by which
/// criterion, from where, and how to degrade under capacity pressure.
///
/// Only the size is mandatory. The defaults mirror the paper's
/// baseline behaviour: rank by Capacity (always available), consider
/// the whole machine as the initiator, retry whole buffers down the
/// ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocRequest {
    size: u64,
    criterion: AttrId,
    initiator: Option<Bitmap>,
    fallback: Fallback,
    any_locality: bool,
    label: Option<String>,
}

impl AllocRequest {
    /// A request for `size` bytes with default criterion (Capacity),
    /// whole-machine initiator, and [`Fallback::NextTarget`].
    pub fn new(size: u64) -> AllocRequest {
        AllocRequest {
            size,
            criterion: attr::CAPACITY,
            initiator: None,
            fallback: Fallback::default(),
            any_locality: false,
            label: None,
        }
    }

    /// Ranks targets by this attribute (e.g. `attr::LATENCY`).
    pub fn criterion(mut self, criterion: AttrId) -> AllocRequest {
        self.criterion = criterion;
        self
    }

    /// The cpuset performing the accesses; scopes the ranking to its
    /// local targets (unless [`Self::any_locality`] is set) and
    /// selects the per-initiator attribute values.
    pub fn initiator(mut self, cpuset: &Bitmap) -> AllocRequest {
        self.initiator = Some(cpuset.clone());
        self
    }

    /// Capacity-pressure behaviour (default [`Fallback::NextTarget`]).
    pub fn fallback(mut self, fallback: Fallback) -> AllocRequest {
        self.fallback = fallback;
        self
    }

    /// Ranks **all** targets, local or remote — the §VIII scenario
    /// where a remote DRAM may beat the local NVDIMM once local DRAM
    /// is full. Only meaningful with attribute sources covering remote
    /// pairs (benchmarks, or full-matrix HMAT).
    pub fn any_locality(mut self) -> AllocRequest {
        self.any_locality = true;
        self
    }

    /// A display label for traces and reports.
    pub fn label(mut self, label: impl Into<String>) -> AllocRequest {
        self.label = Some(label.into());
        self
    }

    /// Requested bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The ranking attribute.
    pub fn get_criterion(&self) -> AttrId {
        self.criterion
    }

    /// The initiator, if one was set.
    pub fn get_initiator(&self) -> Option<&Bitmap> {
        self.initiator.as_ref()
    }

    /// The fallback mode.
    pub fn get_fallback(&self) -> Fallback {
        self.fallback
    }

    /// The locality scope the ranking will use.
    pub fn scope(&self) -> Scope {
        if self.any_locality {
            Scope::Any
        } else {
            Scope::Local
        }
    }

    /// The display label, if one was set.
    pub fn get_label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

/// The heterogeneous allocator: a thin plan-then-commit adapter over
/// the [`hetmem_placement`] engine (which decides) and the OS memory
/// manager (which commits).
pub struct HetAllocator {
    engine: PlacementEngine,
    mm: MemoryManager,
}

impl HetAllocator {
    /// Creates an allocator over a machine's memory, driven by the
    /// given attribute registry (from firmware discovery or
    /// benchmarking).
    pub fn new(attrs: Arc<MemAttrs>, mm: MemoryManager) -> Self {
        HetAllocator { engine: PlacementEngine::new(attrs), mm }
    }

    /// The attribute registry in use.
    pub fn attrs(&self) -> &Arc<MemAttrs> {
        self.engine.attrs()
    }

    /// The placement engine making this allocator's decisions.
    pub fn engine(&self) -> &PlacementEngine {
        &self.engine
    }

    /// The underlying memory manager (to run phases against).
    pub fn memory(&self) -> &MemoryManager {
        &self.mm
    }

    /// Mutable access to the memory manager.
    pub fn memory_mut(&mut self) -> &mut MemoryManager {
        &mut self.mm
    }

    /// Routes allocation decisions (and the memory manager's capacity
    /// events) into `sink`.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.mm.set_sink(sink);
    }

    /// The ranked candidate targets for a criterion and initiator
    /// under the given locality scope, after attribute fallback — the
    /// engine's ranking with this allocator's initiator normalization.
    pub fn candidates_scoped(
        &self,
        criterion: AttrId,
        initiator: &Bitmap,
        scope: Scope,
    ) -> Result<Vec<NodeId>, HetAllocError> {
        let cpus =
            normalize_initiator(Some(initiator), self.mm.machine().topology().machine_cpuset())?;
        Ok(self.engine.rank(criterion, &cpus, scope)?.nodes())
    }

    /// [`Self::candidates_scoped`] over the initiator's local targets
    /// (the paper's default).
    pub fn candidates(
        &self,
        criterion: AttrId,
        initiator: &Bitmap,
    ) -> Result<Vec<NodeId>, HetAllocError> {
        self.candidates_scoped(criterion, initiator, Scope::Local)
    }

    /// [`Self::candidates_scoped`] over **all** targets, local or not.
    pub fn candidates_any(
        &self,
        criterion: AttrId,
        initiator: &Bitmap,
    ) -> Result<Vec<NodeId>, HetAllocError> {
        self.candidates_scoped(criterion, initiator, Scope::Any)
    }

    /// The single allocation entry point: plans `req.size()` bytes via
    /// the placement engine (attribute fallback, ranking, the
    /// Strict/NextTarget/PartialSpill capacity walk) and commits the
    /// plan through the memory manager, emitting a telemetry
    /// `AllocDecision` that explains the outcome.
    pub fn alloc(&mut self, req: &AllocRequest) -> Result<RegionId, HetAllocError> {
        let scope = req.scope();
        let tracing = self.mm.sink().enabled();

        let trace_failure = |mm: &MemoryManager, e: &HetAllocError| {
            if tracing {
                mm.sink().emit(telemetry::Event::AllocDecision(telemetry::AllocDecision {
                    region: None,
                    size: req.size,
                    requested: req.criterion.0,
                    used: req.criterion.0,
                    scope,
                    fallback: req.fallback.as_telemetry(),
                    candidates: vec![],
                    hops: vec![],
                    placement: vec![],
                    error: Some(e.to_string()),
                }));
            }
        };

        let initiator = match normalize_initiator(
            req.initiator.as_ref(),
            self.mm.machine().topology().machine_cpuset(),
        ) {
            Ok(cpus) => cpus,
            Err(e) => {
                let e = HetAllocError::from(e);
                trace_failure(&self.mm, &e);
                return Err(e);
            }
        };
        let ranking = match self.engine.rank(req.criterion, &initiator, scope) {
            Ok(r) => r,
            Err(e) => {
                let e = HetAllocError::from(e);
                trace_failure(&self.mm, &e);
                return Err(e);
            }
        };
        if tracing && ranking.attr_fell_back() {
            self.mm.sink().emit(telemetry::Event::AttrFallback(telemetry::AttrFallback {
                requested: ranking.requested().0,
                used: ranking.used().0,
            }));
        }
        let candidates = ranking.nodes();

        let mut plan = self.engine.plan(
            &PlanRequest { size: req.size, mode: req.fallback.as_telemetry(), page_quantize: true },
            &candidates,
            |n| self.mm.available(n),
            &mut Unconstrained,
        );
        let result: Result<RegionId, HetAllocError> = if plan.is_complete() {
            // A zero-byte request plans no chunks; commit it as a bind
            // to the best target, as the whole-buffer path always did.
            let policy = if plan.chunks.is_empty() {
                AllocPolicy::Bind(candidates[0])
            } else {
                // Only the hops are read after the commit.
                AllocPolicy::Exact(std::mem::take(&mut plan.chunks))
            };
            self.mm.alloc(req.size, policy).map_err(HetAllocError::Os)
        } else {
            Err(HetAllocError::Os(
                plan.failure.as_ref().expect("incomplete plans carry a failure").to_alloc_error(),
            ))
        };

        if tracing {
            let (region, placement, error) = match &result {
                Ok(id) => (
                    Some(id.0),
                    self.mm.region(*id).expect("just allocated").placement.clone(),
                    None,
                ),
                Err(e) => (None, vec![], Some(e.to_string())),
            };
            self.mm.sink().emit(telemetry::Event::AllocDecision(telemetry::AllocDecision {
                region,
                size: req.size,
                requested: ranking.requested().0,
                used: ranking.used().0,
                scope,
                fallback: req.fallback.as_telemetry(),
                candidates: ranking
                    .targets()
                    .iter()
                    .map(|tv| telemetry::Candidate { node: tv.node, value: tv.value })
                    .collect(),
                hops: plan.hops,
                placement,
                error,
            }));
        }
        result
    }

    /// Frees a buffer.
    pub fn free(&mut self, id: RegionId) -> bool {
        self.mm.free(id)
    }

    /// Migrates a buffer to the current best target for `criterion`
    /// (§VII: "Memory migration could be a solution to avoid capacity
    /// issues when important buffers are not used during the same
    /// application phase").
    pub fn migrate_to_best(
        &mut self,
        id: RegionId,
        criterion: AttrId,
        initiator: &Bitmap,
    ) -> Result<(NodeId, MigrationReport), HetAllocError> {
        let candidates = self.candidates(criterion, initiator)?;
        let mut last_err = None;
        for &node in &candidates {
            match self.mm.migrate(id, node) {
                Ok(report) => return Ok((node, report)),
                // No other target can revive a dead region.
                Err(e @ AllocError::UnknownRegion(_)) => return Err(HetAllocError::Os(e)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.map(HetAllocError::Os).unwrap_or(HetAllocError::NoCandidates))
    }

    /// The node the best-ranked candidate resolves to right now —
    /// what Table III prints as "Best Target".
    pub fn best_target(&self, criterion: AttrId, initiator: &Bitmap) -> Option<NodeId> {
        self.candidates(criterion, initiator).ok().map(|c| c[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::discovery;
    use hetmem_telemetry::Event;
    use hetmem_topology::{MemoryKind, GIB};

    fn knl_allocator() -> HetAllocator {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).unwrap());
        let mm = MemoryManager::new(machine);
        HetAllocator::new(attrs, mm)
    }

    fn xeon_allocator() -> HetAllocator {
        let machine = Arc::new(Machine::xeon_1lm_no_snc());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).unwrap());
        let mm = MemoryManager::new(machine);
        HetAllocator::new(attrs, mm)
    }

    fn kind_of(a: &HetAllocator, id: RegionId) -> MemoryKind {
        let node = a.memory().region(id).unwrap().single_node().unwrap();
        a.memory().machine().topology().node_kind(node).unwrap()
    }

    fn req(size: u64, criterion: AttrId, initiator: &Bitmap, fallback: Fallback) -> AllocRequest {
        AllocRequest::new(size).criterion(criterion).initiator(initiator).fallback(fallback)
    }

    #[test]
    fn same_code_portable_across_machines() {
        // The paper's headline: request *Latency*, get the right
        // memory everywhere without naming a technology.
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let id = knl.alloc(&req(GIB, attr::LATENCY, &c0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&knl, id), MemoryKind::Dram); // DRAM ≈ HBM, DRAM ranked first

        let pkg0: Bitmap = "0-19".parse().unwrap();
        let mut xeon = xeon_allocator();
        let id = xeon.alloc(&req(GIB, attr::LATENCY, &pkg0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&xeon, id), MemoryKind::Dram); // not NVDIMM
    }

    #[test]
    fn bandwidth_criterion_picks_hbm_on_knl_only() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let id = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&knl, id), MemoryKind::Hbm);

        // On the Xeon the very same request lands on DRAM — "our
        // approach is more portable since it may for instance return
        // DRAM on a platform with DRAM and NVDIMMs but no HBM".
        let pkg0: Bitmap = "0-19".parse().unwrap();
        let mut xeon = xeon_allocator();
        let id = xeon.alloc(&req(GIB, attr::BANDWIDTH, &pkg0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&xeon, id), MemoryKind::Dram);
    }

    #[test]
    fn capacity_criterion_picks_biggest() {
        let pkg0: Bitmap = "0-19".parse().unwrap();
        let mut xeon = xeon_allocator();
        // Capacity is the builder default — no .criterion() call.
        let id = xeon.alloc(&AllocRequest::new(GIB).initiator(&pkg0)).unwrap();
        assert_eq!(kind_of(&xeon, id), MemoryKind::Nvdimm);
    }

    #[test]
    fn ranked_fallback_when_best_is_full() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        // Fill MCDRAM.
        let hbm_avail = knl.memory().available(NodeId(4));
        let hog = knl.alloc(&req(hbm_avail, attr::BANDWIDTH, &c0, Fallback::Strict)).unwrap();
        assert_eq!(kind_of(&knl, hog), MemoryKind::Hbm);
        // Bandwidth request now falls back to the cluster DRAM.
        let id = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&knl, id), MemoryKind::Dram);
        // Strict instead fails.
        let err = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::Strict)).unwrap_err();
        assert!(matches!(err, HetAllocError::Os(AllocError::InsufficientCapacity { .. })));
    }

    #[test]
    fn partial_spill_splits_across_ranking() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let hbm_avail = knl.memory().available(NodeId(4));
        // Ask for more than MCDRAM holds, spillable.
        let id = knl
            .alloc(&req(hbm_avail + 2 * GIB, attr::BANDWIDTH, &c0, Fallback::PartialSpill))
            .unwrap();
        let region = knl.memory().region(id).unwrap();
        assert_eq!(region.bytes_on(NodeId(4)), hbm_avail);
        assert_eq!(region.bytes_on(NodeId(0)), 2 * GIB);
    }

    #[test]
    fn attribute_fallback_read_bw_to_bw() {
        // Firmware discovery provides no ReadBandwidth values; the
        // allocator silently uses Bandwidth instead.
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        assert!(knl.attrs().targets(attr::READ_BANDWIDTH).is_empty());
        let id = knl.alloc(&req(GIB, attr::READ_BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&knl, id), MemoryKind::Hbm);
    }

    #[test]
    fn capacity_always_available_as_last_resort() {
        // A registry with no performance values at all (e.g. no HMAT,
        // no benchmarks): any criterion degrades to Capacity.
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(MemAttrs::new(Arc::new(machine.topology().clone())));
        let mm = MemoryManager::new(machine);
        let mut a = HetAllocator::new(attrs, mm);
        let c0: Bitmap = "0-15".parse().unwrap();
        let id = a.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        // Capacity ranking puts the 24 GB DRAM first.
        assert_eq!(kind_of(&a, id), MemoryKind::Dram);
    }

    #[test]
    fn best_target_reporting() {
        let pkg0: Bitmap = "0-19".parse().unwrap();
        let xeon = xeon_allocator();
        let topo_kind = |n: NodeId| xeon.memory().machine().topology().node_kind(n).unwrap();
        assert_eq!(topo_kind(xeon.best_target(attr::LATENCY, &pkg0).unwrap()), MemoryKind::Dram);
        assert_eq!(topo_kind(xeon.best_target(attr::CAPACITY, &pkg0).unwrap()), MemoryKind::Nvdimm);
    }

    #[test]
    fn migrate_to_best_after_pressure_clears() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let hbm_avail = knl.memory().available(NodeId(4));
        let hog = knl.alloc(&req(hbm_avail, attr::BANDWIDTH, &c0, Fallback::Strict)).unwrap();
        // Bandwidth-sensitive buffer lands on DRAM (fallback).
        let buf = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&knl, buf), MemoryKind::Dram);
        // Phase ends, the hog goes away; migrate to the freed MCDRAM.
        knl.free(hog);
        let (node, report) = knl.migrate_to_best(buf, attr::BANDWIDTH, &c0).unwrap();
        assert_eq!(knl.memory().machine().topology().node_kind(node), Some(MemoryKind::Hbm));
        assert_eq!(report.bytes_moved, GIB);
        assert!(report.cost_ns > 0.0);
        assert_eq!(kind_of(&knl, buf), MemoryKind::Hbm);
    }

    #[test]
    fn migrating_a_freed_buffer_reports_the_region() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let buf = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        assert!(knl.free(buf));
        let err = knl.migrate_to_best(buf, attr::BANDWIDTH, &c0).unwrap_err();
        assert_eq!(err, HetAllocError::Os(AllocError::UnknownRegion(buf)));
    }

    #[test]
    fn initiator_scopes_candidates_to_local_branch() {
        let mut knl = knl_allocator();
        let c1: Bitmap = "16-31".parse().unwrap(); // cluster 1
        let cands = knl.candidates(attr::BANDWIDTH, &c1).unwrap();
        // Only cluster 1's DRAM (1) and MCDRAM (5).
        assert_eq!(cands, vec![NodeId(5), NodeId(1)]);
        let id = knl.alloc(&req(GIB, attr::BANDWIDTH, &c1, Fallback::NextTarget)).unwrap();
        assert_eq!(knl.memory().region(id).unwrap().single_node(), Some(NodeId(5)));
    }

    #[test]
    fn works_with_benchmark_fed_attrs_too() {
        let machine = Arc::new(Machine::xeon_1lm_no_snc());
        let attrs = Arc::new(
            hetmem_membench::feed_attrs(&machine, &hetmem_membench::BenchOptions::default())
                .unwrap(),
        );
        let mm = MemoryManager::new(machine);
        let mut a = HetAllocator::new(attrs, mm);
        let pkg0: Bitmap = "0-19".parse().unwrap();
        let id = a.alloc(&req(GIB, attr::LATENCY, &pkg0, Fallback::NextTarget)).unwrap();
        assert_eq!(kind_of(&a, id), MemoryKind::Dram);
    }

    #[test]
    fn default_initiator_is_whole_machine() {
        let mut knl = knl_allocator();
        let id = knl.alloc(&AllocRequest::new(GIB).criterion(attr::BANDWIDTH)).unwrap();
        // All four MCDRAMs are local to the machine cpuset; the
        // best-ranked one wins.
        assert_eq!(kind_of(&knl, id), MemoryKind::Hbm);
    }

    #[test]
    fn candidates_scoped_folds_both_paths() {
        let knl = knl_allocator();
        let c1: Bitmap = "16-31".parse().unwrap();
        assert_eq!(
            knl.candidates_scoped(attr::BANDWIDTH, &c1, Scope::Local).unwrap(),
            knl.candidates(attr::BANDWIDTH, &c1).unwrap()
        );
        assert_eq!(
            knl.candidates_scoped(attr::CAPACITY, &c1, Scope::Any).unwrap(),
            knl.candidates_any(attr::CAPACITY, &c1).unwrap()
        );
        // Any-scope capacity ranking sees every node, not just local.
        let any = knl.candidates_any(attr::CAPACITY, &c1).unwrap();
        let local = knl.candidates(attr::CAPACITY, &c1).unwrap();
        assert!(any.len() > local.len());
    }

    #[test]
    fn alloc_decision_records_hops_and_split() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let sink = TelemetrySink::new();
        knl.set_sink(sink.clone());
        let hbm_avail = knl.memory().available(NodeId(4));
        let id = knl
            .alloc(&req(hbm_avail + 2 * GIB, attr::BANDWIDTH, &c0, Fallback::PartialSpill))
            .unwrap();
        let decisions: Vec<_> = sink
            .collector()
            .drain_sorted()
            .into_iter()
            .filter_map(|e| match e.event {
                Event::AllocDecision(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.region, Some(id.0));
        assert_eq!(d.requested, attr::BANDWIDTH.0);
        assert_eq!(d.used, attr::BANDWIDTH.0);
        assert_eq!(d.fallback, telemetry::FallbackMode::PartialSpill);
        assert_eq!(d.candidates.first().map(|c| c.node), Some(NodeId(4)));
        assert_eq!(d.hops.len(), 1);
        assert_eq!(d.hops[0].node, NodeId(4));
        assert_eq!(d.placement, vec![(NodeId(4), hbm_avail), (NodeId(0), 2 * GIB)]);
        assert!(d.error.is_none());
    }

    #[test]
    fn attr_fallback_emits_event() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let sink = TelemetrySink::new();
        knl.set_sink(sink.clone());
        knl.alloc(&req(GIB, attr::READ_BANDWIDTH, &c0, Fallback::NextTarget)).unwrap();
        let events: Vec<Event> =
            sink.collector().drain_sorted().into_iter().map(|e| e.event).collect();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::AttrFallback(a)
                if a.requested == attr::READ_BANDWIDTH.0 && a.used == attr::BANDWIDTH.0
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::AllocDecision(d)
                if d.requested == attr::READ_BANDWIDTH.0 && d.used == attr::BANDWIDTH.0
        )));
    }

    #[test]
    fn empty_initiator_is_a_typed_error() {
        let mut knl = knl_allocator();
        // Cpus 100-120 don't exist on the 64-CPU KNL: after machine
        // intersection the initiator is empty, and the allocator must
        // say so rather than return an empty ranking.
        let alien: Bitmap = "100-120".parse().unwrap();
        let err = knl.alloc(&req(GIB, attr::BANDWIDTH, &alien, Fallback::NextTarget)).unwrap_err();
        assert_eq!(err, HetAllocError::EmptyInitiator);
        let err = knl.candidates(attr::BANDWIDTH, &alien).unwrap_err();
        assert_eq!(err, HetAllocError::EmptyInitiator);
        let unified: HetMemError = err.into();
        assert_eq!(unified, HetMemError::EmptyInitiator);
        assert!(unified.to_string().contains("initiator cpuset is empty"));
    }

    #[test]
    fn het_alloc_error_converts_to_hetmem_error() {
        let c0: Bitmap = "0-15".parse().unwrap();
        let mut knl = knl_allocator();
        let hbm_avail = knl.memory().available(NodeId(4));
        knl.alloc(&req(hbm_avail, attr::BANDWIDTH, &c0, Fallback::Strict)).unwrap();
        let err = knl.alloc(&req(GIB, attr::BANDWIDTH, &c0, Fallback::Strict)).unwrap_err();
        let unified: HetMemError = err.into();
        assert!(matches!(unified, HetMemError::Os(AllocError::InsufficientCapacity { .. })));
        assert_eq!(HetMemError::from(HetAllocError::NoCandidates), HetMemError::NoCandidates);
    }
}
