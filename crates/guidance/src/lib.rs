//! Online guidance: automatic migrations from imperfect sampled data.
//!
//! The paper's attribute API answers *where* a buffer should live, but
//! leaves open *when* an application (or runtime) learns that a
//! buffer's behaviour changed. Production heterogeneous-memory
//! runtimes answer it with hardware access sampling — Intel PEBS / AMD
//! IBS profiles feeding object-level placement decisions, as in the
//! object-migration literature the paper cites (Olson et al.'s MemBrain
//! and the RTHMS/Intel memkind line of work). This crate reproduces
//! that loop on top of the simulator:
//!
//! * [`Sampler`] turns ground-truth phase traffic into a *sampled*
//!   profile — deterministic, noisy, and with a modelled runtime
//!   overhead proportional to the number of samples taken;
//! * [`HotnessMap`] folds batches into an EWMA estimate of each
//!   region's traffic share, never consulting ground truth;
//! * [`GuidanceEngine`] slices phases into sampling intervals (a
//!   PEBS-buffer drain every `period × samples_per_interval`
//!   accesses), and at each boundary promotes regions whose estimated
//!   share crossed `hot_share` onto the best local target for the
//!   configured attribute — typically [`attr::BANDWIDTH`]'s MCDRAM —
//!   and demotes ones that faded below `cold_share`, with hysteresis
//!   and capacity checks, paying the simulator's full migration cost.
//!
//! The sampling period is the central trade-off: short periods see an
//! era change within a fraction of a phase but cost more overhead;
//! long periods are nearly free but react late. `repro_tables
//! --guidance` tabulates exactly that against static placement,
//! phase-boundary tiering and perfect-information placement.

#![warn(missing_docs)]

mod hotness;
pub mod plane;
mod sampler;

pub use hotness::{hot_set_accuracy, HotnessMap};
pub use plane::{AdaptiveConfig, GuidancePlane, MigrationBudget, ObserveOutcome, RegionView};
pub use sampler::{AccessSample, SampleBatch, Sampler, SamplerConfig};

use hetmem_bitmap::Bitmap;
use hetmem_core::{attr, AttrId, MemAttrs};
use hetmem_memsim::{AccessEngine, MemoryManager, Phase, PhaseReport, RegionId, LINE};
use hetmem_placement::{PlacementEngine, Scope};
use hetmem_telemetry::{Event, TelemetrySink};
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Policy knobs for the guidance loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidancePolicy {
    /// Attribute whose best local target hot regions are promoted to.
    pub criterion: AttrId,
    /// Samples accumulated before the "PEBS buffer" drains and the
    /// engine re-plans; together with the sampling period this sets
    /// how many intervals a phase is sliced into.
    pub samples_per_interval: u64,
    /// Upper bound on intervals per phase (bounds slicing cost).
    pub max_intervals: usize,
    /// Minimum intervals between two migrations of the same region.
    pub hysteresis: u64,
    /// Estimated traffic share at or above which a region is hot.
    pub hot_share: f64,
    /// Estimated traffic share below which a region is cold.
    pub cold_share: f64,
    /// Decay window of the hotness EWMA, in bytes of traffic.
    pub window_bytes: u64,
}

impl Default for GuidancePolicy {
    fn default() -> Self {
        GuidancePolicy {
            criterion: attr::BANDWIDTH,
            samples_per_interval: 512,
            max_intervals: 256,
            hysteresis: 2,
            hot_share: 0.25,
            cold_share: 0.10,
            window_bytes: 8 << 30,
        }
    }
}

/// One migration the engine decided on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidanceAction {
    /// The migrated region.
    pub region: RegionId,
    /// Destination node.
    pub to: NodeId,
    /// `true` for a promotion onto the hot target, `false` for a
    /// demotion off it.
    pub promoted: bool,
    /// Modelled migration cost, ns.
    pub cost_ns: f64,
    /// The sampled hotness estimate that triggered the move.
    pub estimated_hotness: f64,
    /// The region's ground-truth traffic share in the same interval
    /// (for judging the estimate; the engine never acts on it).
    pub actual_hotness: f64,
}

/// What guidance did during one phase.
#[derive(Debug, Clone)]
pub struct GuidanceReport {
    /// Phase name.
    pub name: String,
    /// Sampling intervals the phase was sliced into.
    pub intervals: usize,
    /// Application time: the sum of the slices' modelled times, ns.
    pub app_ns: f64,
    /// Modelled sampling overhead, ns.
    pub overhead_ns: f64,
    /// Modelled migration cost, ns.
    pub migration_ns: f64,
    /// Migrations performed, in order.
    pub actions: Vec<GuidanceAction>,
    /// Hot-set accuracy after each interval (estimate vs. ground
    /// truth, Jaccard).
    pub accuracy: Vec<f64>,
    /// The per-slice reports from the access engine.
    pub slices: Vec<PhaseReport>,
}

impl GuidanceReport {
    /// Total wall time including sampling overhead and migrations, ns.
    pub fn time_ns(&self) -> f64 {
        self.app_ns + self.overhead_ns + self.migration_ns
    }
}

/// Lifetime counters across all phases an engine has guided.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GuidanceStats {
    /// Sampling intervals run.
    pub intervals: u64,
    /// Promotions performed.
    pub promotions: u64,
    /// Demotions performed.
    pub demotions: u64,
    /// Total migration cost, ns.
    pub migration_ns: f64,
    /// Total sampling overhead, ns.
    pub overhead_ns: f64,
    /// Sum of per-interval hot-set accuracies (for the mean).
    pub accuracy_sum: f64,
}

impl GuidanceStats {
    /// Mean hot-set accuracy over all intervals, `1.0` if none ran.
    pub fn mean_accuracy(&self) -> f64 {
        if self.intervals == 0 {
            1.0
        } else {
            self.accuracy_sum / self.intervals as f64
        }
    }
}

/// The online guidance engine — now a thin adapter binding a
/// [`GuidancePlane`] (sampling, hotness, hysteresis, candidate
/// selection) to one scenario's `MemoryManager`. Target selection is
/// delegated to the shared [`hetmem_placement::PlacementEngine`], so
/// guidance ranks memories exactly the way the allocator and the
/// service broker do (same attribute-fallback chain, same locality
/// scoping). The service broker embeds the same plane per tenant; this
/// adapter exists so standalone scenarios keep their one-call API.
pub struct GuidanceEngine {
    placer: PlacementEngine,
    plane: GuidancePlane,
    sink: TelemetrySink,
    // Per-phase scratch, harvested by `run_phase`.
    actions: Vec<GuidanceAction>,
    accuracy: Vec<f64>,
    overhead_ns: f64,
    migration_ns: f64,
}

impl GuidanceEngine {
    /// Creates an engine over the machine's attributes, with the
    /// legacy fixed sampling rate.
    pub fn new(attrs: Arc<MemAttrs>, policy: GuidancePolicy, sampler: SamplerConfig) -> Self {
        GuidanceEngine {
            placer: PlacementEngine::new(attrs),
            plane: GuidancePlane::new(policy, sampler),
            sink: TelemetrySink::disabled(),
            actions: Vec::new(),
            accuracy: Vec::new(),
            overhead_ns: 0.0,
            migration_ns: 0.0,
        }
    }

    /// Routes [`Event::GuidanceDecision`] events to `sink`.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// The policy the engine runs with.
    pub fn policy(&self) -> &GuidancePolicy {
        self.plane.policy()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &GuidanceStats {
        self.plane.stats()
    }

    /// The current hotness estimates.
    pub fn hotness(&self) -> &HotnessMap {
        self.plane.hotness()
    }

    /// The underlying feedback plane.
    pub fn plane(&self) -> &GuidancePlane {
        &self.plane
    }

    /// How many sampling intervals `phase` will be sliced into: one
    /// per expected "PEBS buffer" drain (`period ×
    /// samples_per_interval` accesses), at least 1, at most
    /// `max_intervals`. Shorter periods fill the buffer faster and so
    /// react to behaviour changes earlier in the phase.
    pub fn intervals_for(&self, phase: &Phase) -> usize {
        let accesses: u64 =
            phase.accesses.iter().map(|a| (a.bytes_read + a.bytes_written) / LINE).sum();
        let per_interval = self.plane.period().max(1) * self.policy().samples_per_interval;
        let n = (accesses / per_interval.max(1)) as usize;
        n.clamp(1, self.policy().max_intervals)
    }

    /// Runs one phase under guidance: slices it into sampling
    /// intervals, samples each slice, updates hotness, and migrates at
    /// interval boundaries. Migration and sampling costs are charged
    /// to the report, not silently dropped.
    pub fn run_phase(
        &mut self,
        engine: &AccessEngine,
        mm: &mut MemoryManager,
        phase: &Phase,
    ) -> GuidanceReport {
        let n = self.intervals_for(phase);
        self.actions.clear();
        self.accuracy.clear();
        self.overhead_ns = 0.0;
        self.migration_ns = 0.0;
        let initiator = phase.initiator.clone();
        let slices = engine.run_phase_sliced(mm, phase, n, |mm, report, _idx| {
            self.on_interval(mm, report, &initiator);
        });
        let app_ns: f64 = slices.iter().map(|s| s.time_ns).sum();
        GuidanceReport {
            name: phase.name.clone(),
            intervals: n,
            app_ns,
            overhead_ns: self.overhead_ns,
            migration_ns: self.migration_ns,
            actions: std::mem::take(&mut self.actions),
            accuracy: std::mem::take(&mut self.accuracy),
            slices,
        }
    }

    /// Drops a freed region from the hotness and hysteresis state.
    pub fn forget(&mut self, region: RegionId) {
        self.plane.forget(region);
    }

    fn on_interval(&mut self, mm: &mut MemoryManager, report: &PhaseReport, initiator: &Bitmap) {
        let outcome = self.plane.observe(report);
        self.overhead_ns += outcome.overhead_ns;

        let truth = truth_shares(report);
        let acc = hot_set_accuracy(self.plane.hotness(), &truth, self.policy().hot_share);
        self.accuracy.push(acc);
        self.plane.note_accuracy(acc);

        let Ok(ranking) = self.placer.rank(self.policy().criterion, initiator, Scope::Local) else {
            return;
        };
        let Some(hot_target) = ranking.targets().first().map(|tv| tv.node) else {
            return;
        };
        let capacity_order: Vec<NodeId> = self
            .placer
            .rank(attr::CAPACITY, initiator, Scope::Local)
            .map(|r| r.nodes())
            .unwrap_or_default();

        // Demotions first: free the hot target before filling it.
        let views = plane::region_views(mm.regions(), hot_target);
        for (region, share) in self.plane.plan(&views, false) {
            let Some(to) = capacity_order
                .iter()
                .copied()
                .find(|&node| node != hot_target && self.fits(mm, region, node))
            else {
                continue;
            };
            self.execute(mm, region, to, false, share, truth.get(&region).copied().unwrap_or(0.0));
        }
        // Re-view after the demotions: promotions see the freed target.
        let views = plane::region_views(mm.regions(), hot_target);
        for (region, share) in self.plane.plan(&views, true) {
            if !self.fits(mm, region, hot_target) {
                continue;
            }
            self.execute(
                mm,
                region,
                hot_target,
                true,
                share,
                truth.get(&region).copied().unwrap_or(0.0),
            );
        }
    }

    fn fits(&self, mm: &MemoryManager, region: RegionId, node: NodeId) -> bool {
        mm.region(region).map(|r| mm.available(node) >= r.size - r.bytes_on(node)).unwrap_or(false)
    }

    fn execute(
        &mut self,
        mm: &mut MemoryManager,
        region: RegionId,
        to: NodeId,
        promoted: bool,
        estimated: f64,
        actual: f64,
    ) {
        let Ok(report) = mm.migrate(region, to) else {
            return;
        };
        self.plane.record_move(region, promoted, report.cost_ns);
        self.migration_ns += report.cost_ns;
        self.actions.push(GuidanceAction {
            region,
            to,
            promoted,
            cost_ns: report.cost_ns,
            estimated_hotness: estimated,
            actual_hotness: actual,
        });
        if self.sink.enabled() {
            self.sink.emit(Event::GuidanceDecision(hetmem_telemetry::GuidanceDecision {
                interval: self.plane.interval(),
                region: region.0,
                promoted,
                to,
                estimated_hotness: estimated,
                actual_hotness: actual,
                cost_ns: report.cost_ns,
                period: self.plane.period(),
            }));
        }
    }
}

/// Ground-truth traffic shares of one interval, from the simulator's
/// per-buffer counters.
fn truth_shares(report: &PhaseReport) -> BTreeMap<RegionId, f64> {
    let mut bytes: BTreeMap<RegionId, u64> = BTreeMap::new();
    for buf in &report.buffers {
        *bytes.entry(buf.region).or_insert(0) += (buf.loads + buf.stores) * LINE;
    }
    let total: u64 = bytes.values().sum();
    if total == 0 {
        return BTreeMap::new();
    }
    bytes.into_iter().map(|(r, b)| (r, b as f64 / total as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem_core::discovery;
    use hetmem_memsim::{AccessPattern, AllocPolicy, BufferAccess, Machine};
    use hetmem_topology::GIB;

    fn setup() -> (Arc<MemAttrs>, AccessEngine, MemoryManager) {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).unwrap());
        let engine = AccessEngine::new(machine.clone());
        let mm = MemoryManager::new(machine);
        (attrs, engine, mm)
    }

    fn read_phase(name: &str, region: RegionId, bytes: u64) -> Phase {
        Phase {
            name: name.into(),
            accesses: vec![BufferAccess::new(region, bytes, 0, AccessPattern::Sequential)],
            threads: 16,
            initiator: "0-15".parse().unwrap(),
            compute_ns: 0.0,
        }
    }

    #[test]
    fn intervals_scale_with_period() {
        let (attrs, _, mut mm) = setup();
        let r = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let phase = read_phase("p", r, 16 * GIB);
        let n_of = |period| {
            let cfg = SamplerConfig { period, ..Default::default() };
            GuidanceEngine::new(attrs.clone(), GuidancePolicy::default(), cfg).intervals_for(&phase)
        };
        // 16 GiB = 2^28 accesses; 512 samples per interval.
        assert_eq!(n_of(131072), 4);
        assert_eq!(n_of(32768), 16);
        assert_eq!(n_of(8192), 64);
        // Clamped at both ends.
        assert_eq!(n_of(u64::MAX / 1024), 1);
        assert_eq!(n_of(1), 256);
    }

    #[test]
    fn engine_promotes_hot_and_demotes_stale() {
        let (attrs, engine, mut mm) = setup();
        let sink = TelemetrySink::new();
        let a = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let b = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let mut g = GuidanceEngine::new(attrs, GuidancePolicy::default(), SamplerConfig::default());
        g.set_sink(sink.clone());

        // Era 1: only `a` is touched. Guidance must move it to MCDRAM.
        let mcdram = NodeId(4);
        for i in 0..3 {
            g.run_phase(&engine, &mut mm, &read_phase(&format!("era1.{i}"), a, 16 * GIB));
        }
        assert_eq!(mm.region(a).unwrap().bytes_on(mcdram), 2 * GIB, "a not promoted");

        // Era 2: the workload switches to `b`; `a` fades below the
        // cold threshold and must make room, `b` gets promoted.
        for i in 0..6 {
            g.run_phase(&engine, &mut mm, &read_phase(&format!("era2.{i}"), b, 16 * GIB));
        }
        assert_eq!(mm.region(b).unwrap().bytes_on(mcdram), 2 * GIB, "b not promoted");
        assert_eq!(mm.region(a).unwrap().bytes_on(mcdram), 0, "a not demoted");

        let stats = g.stats();
        assert!(stats.promotions >= 2 && stats.demotions >= 1, "{stats:?}");
        assert!(stats.mean_accuracy() > 0.5);
        let decisions = sink
            .collector()
            .drain_sorted()
            .iter()
            .filter(|e| matches!(e.event, Event::GuidanceDecision(_)))
            .count() as u64;
        assert_eq!(decisions, stats.promotions + stats.demotions);
    }

    #[test]
    fn forget_clears_state() {
        let (attrs, engine, mut mm) = setup();
        let a = mm.alloc(GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let mut g = GuidanceEngine::new(attrs, GuidancePolicy::default(), SamplerConfig::default());
        g.run_phase(&engine, &mut mm, &read_phase("p", a, 8 * GIB));
        assert!(g.hotness().share(a) > 0.0);
        g.forget(a);
        assert_eq!(g.hotness().share(a), 0.0);
    }
}
