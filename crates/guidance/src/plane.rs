//! The embeddable per-tenant guidance plane.
//!
//! [`GuidancePlane`] is the reusable core split out of
//! [`GuidanceEngine`](crate::GuidanceEngine): a tenant-scoped sampler
//! feeding the EWMA [`HotnessMap`], hysteresis bookkeeping, and the
//! promote/demote candidate selection — everything *except* target
//! ranking (which stays with the shared `hetmem-placement` walk) and
//! migration execution (which belongs to whoever owns the memory:
//! the scenario engine or the service broker's lease table).
//!
//! Two additions over the legacy engine, both following the
//! PEBS-at-scale literature (Roca Nonell et al.) and Olson et al.'s
//! online-guidance runtime:
//!
//! * [`AdaptiveConfig`] turns on an *adaptive sample rate*: the period
//!   backs off exponentially while the estimated hot set is stable
//!   (sampling a steady workload is wasted overhead) and bursts back
//!   to the minimum period the moment the hot set changes (a phase
//!   change is exactly when stale estimates are most expensive).
//!   Without it the plane never touches the sampler's period and the
//!   RNG stream is bit-identical to the legacy engine's.
//! * [`MigrationBudget`] caps the modelled migration cost spent per
//!   epoch, so a broker folding many tenants' hotness into arbitration
//!   batches moves under a bound instead of thrashing.

use crate::hotness::HotnessMap;
use crate::sampler::{Sampler, SamplerConfig};
use crate::{GuidancePolicy, GuidanceStats};
use hetmem_memsim::{PhaseReport, RegionId};
use hetmem_topology::NodeId;
use std::collections::BTreeMap;

/// Adaptive sample-rate policy: exponential back-off while the hot set
/// is stable, burst to `min_period` on a detected phase change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Floor of the sampling period — the burst rate after a phase
    /// change (smaller = denser sampling).
    pub min_period: u64,
    /// Ceiling the period backs off toward while estimates are stable.
    pub max_period: u64,
    /// Multiplier applied to the period per stable interval.
    pub backoff: u64,
    /// Intervals the period is held at the burst rate after a phase
    /// change before back-off resumes.
    pub burst_intervals: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { min_period: 4096, max_period: 262_144, backoff: 2, burst_intervals: 4 }
    }
}

#[derive(Debug)]
struct AdaptiveState {
    cfg: AdaptiveConfig,
    /// Hot set after the previous interval; a symmetric difference is
    /// the phase-change detector.
    last_hot: Vec<RegionId>,
    burst_left: u64,
}

/// What one [`GuidancePlane::observe`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserveOutcome {
    /// Modelled sampling overhead of the interval, ns.
    pub overhead_ns: f64,
    /// `(old, new)` when the adaptive controller changed the sampling
    /// period this interval.
    pub rate_change: Option<(u64, u64)>,
}

/// A caller-provided view of one region, as the plane's planner needs
/// it: identity, size, and how many bytes already sit on the hot
/// target. The scenario engine builds these from `MemoryManager`
/// regions; the broker builds them from its lease table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionView {
    /// The region.
    pub id: RegionId,
    /// Total size, bytes.
    pub size: u64,
    /// Bytes currently placed on the hot target node.
    pub on_target: u64,
}

/// A per-epoch cap on modelled migration cost. The broker resets it at
/// each epoch turnover and charges every planned move against it;
/// moves that would exceed the cap are deferred to a later epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationBudget {
    budget_ns: f64,
    spent_ns: f64,
    deferred: u64,
}

impl MigrationBudget {
    /// A budget allowing `budget_ns` of migration cost per epoch.
    pub fn new(budget_ns: f64) -> Self {
        MigrationBudget { budget_ns, spent_ns: 0.0, deferred: 0 }
    }

    /// Starts a new epoch: spent and deferred counters reset.
    pub fn reset(&mut self) {
        self.spent_ns = 0.0;
        self.deferred = 0;
    }

    /// Charges `cost_ns` if it fits under the cap; otherwise counts
    /// the move as deferred and returns `false`.
    pub fn try_charge(&mut self, cost_ns: f64) -> bool {
        if self.spent_ns + cost_ns <= self.budget_ns {
            self.spent_ns += cost_ns;
            true
        } else {
            self.deferred += 1;
            false
        }
    }

    /// Charges `cost_ns` unconditionally. For callers that only learn
    /// a move's true cost after executing it (the broker's fold): gate
    /// on [`MigrationBudget::remaining_ns`] first, charge the actual
    /// cost after — the spend can then overshoot the cap by at most
    /// one move.
    pub fn charge(&mut self, cost_ns: f64) {
        self.spent_ns += cost_ns;
    }

    /// Counts one move deferred without attempting a charge (the cap
    /// was already known to be reached).
    pub fn defer(&mut self) {
        self.deferred += 1;
    }

    /// The per-epoch cap, ns.
    pub fn budget_ns(&self) -> f64 {
        self.budget_ns
    }

    /// Cost charged this epoch, ns.
    pub fn spent_ns(&self) -> f64 {
        self.spent_ns
    }

    /// Moves deferred this epoch because they would exceed the cap.
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Budget left this epoch, ns.
    pub fn remaining_ns(&self) -> f64 {
        (self.budget_ns - self.spent_ns).max(0.0)
    }
}

/// The tenant-scoped feedback core: sampler → EWMA hotness →
/// promote/demote candidates, with hysteresis and an optional adaptive
/// sample rate. One plane tracks one tenant's (or one scenario's)
/// regions; it never touches memory itself.
#[derive(Debug)]
pub struct GuidancePlane {
    policy: GuidancePolicy,
    sampler: Sampler,
    hotness: HotnessMap,
    adaptive: Option<AdaptiveState>,
    /// Intervals since each region last migrated (absent = never).
    since_move: BTreeMap<RegionId, u64>,
    interval: u64,
    stats: GuidanceStats,
}

impl GuidancePlane {
    /// A fixed-rate plane — byte-for-byte the legacy engine's
    /// sampling behaviour.
    pub fn new(policy: GuidancePolicy, sampler: SamplerConfig) -> Self {
        GuidancePlane {
            hotness: HotnessMap::new(policy.window_bytes),
            policy,
            sampler: Sampler::new(sampler),
            adaptive: None,
            since_move: BTreeMap::new(),
            interval: 0,
            stats: GuidanceStats::default(),
        }
    }

    /// An adaptive-rate plane. The sampler starts at
    /// `sampler.period` clamped into the adaptive window.
    pub fn adaptive(
        policy: GuidancePolicy,
        sampler: SamplerConfig,
        adaptive: AdaptiveConfig,
    ) -> Self {
        let mut plane = GuidancePlane::new(policy, sampler);
        let start =
            plane.sampler.config().period.clamp(adaptive.min_period.max(1), adaptive.max_period);
        plane.sampler.set_period(start);
        plane.adaptive = Some(AdaptiveState { cfg: adaptive, last_hot: Vec::new(), burst_left: 0 });
        plane
    }

    /// Folds one interval's traffic into the hotness estimate:
    /// advances the interval clock and hysteresis counters, samples
    /// the report, observes the batch, and (when adaptive) retunes the
    /// sampling period against hot-set stability.
    pub fn observe(&mut self, report: &PhaseReport) -> ObserveOutcome {
        self.interval += 1;
        self.stats.intervals += 1;
        for v in self.since_move.values_mut() {
            *v += 1;
        }

        let batch = self.sampler.sample(report);
        let overhead_ns = batch.overhead_ns;
        self.stats.overhead_ns += overhead_ns;
        self.hotness.observe(&batch);

        let mut rate_change = None;
        if let Some(ad) = &mut self.adaptive {
            let hot = self.hotness.hot_set(self.policy.hot_share);
            let old = self.sampler.config().period;
            let new = if hot != ad.last_hot {
                // Phase change: burst to the densest rate and hold it.
                ad.burst_left = ad.cfg.burst_intervals;
                ad.cfg.min_period.max(1)
            } else if ad.burst_left > 0 {
                ad.burst_left -= 1;
                old
            } else {
                old.saturating_mul(ad.cfg.backoff.max(1)).min(ad.cfg.max_period)
            };
            ad.last_hot = hot;
            if new != old {
                self.sampler.set_period(new);
                rate_change = Some((old, new));
            }
        }
        ObserveOutcome { overhead_ns, rate_change }
    }

    /// Candidate moves over the caller's region views: promotions
    /// (`hot == true`) are regions whose estimated share crossed
    /// `hot_share` and that are not already fully on the hot target;
    /// demotions are regions below `cold_share` still holding bytes
    /// there, gated on estimator warm-up. Hysteresis filters both.
    /// Returned pairs keep the order of `regions` and carry the
    /// estimated share that triggered them.
    pub fn plan(&self, regions: &[RegionView], hot: bool) -> Vec<(RegionId, f64)> {
        regions
            .iter()
            .filter_map(|r| {
                let share = self.hotness.share(r.id);
                let movable =
                    self.since_move.get(&r.id).is_none_or(|&s| s >= self.policy.hysteresis);
                // Demotions wait for the estimator to warm up: before a
                // full window of traffic has been observed every share
                // is still ramping from zero, and a busy region would
                // read as "cold".
                let warmed = self.hotness.observed_bytes() >= self.policy.window_bytes;
                let wanted = if hot {
                    share >= self.policy.hot_share && r.on_target < r.size
                } else {
                    share < self.policy.cold_share && r.on_target > 0 && warmed
                };
                (wanted && movable).then_some((r.id, share))
            })
            .collect()
    }

    /// Records an executed migration: resets the region's hysteresis
    /// clock and folds the cost into the lifetime counters.
    pub fn record_move(&mut self, region: RegionId, promoted: bool, cost_ns: f64) {
        self.since_move.insert(region, 0);
        self.stats.migration_ns += cost_ns;
        if promoted {
            self.stats.promotions += 1;
        } else {
            self.stats.demotions += 1;
        }
    }

    /// Folds one interval's hot-set accuracy sample into the lifetime
    /// mean (the plane never computes it itself — ground truth belongs
    /// to callers that have it).
    pub fn note_accuracy(&mut self, accuracy: f64) {
        self.stats.accuracy_sum += accuracy;
    }

    /// Drops a freed region from the hotness and hysteresis state.
    pub fn forget(&mut self, region: RegionId) {
        self.hotness.forget(region);
        self.since_move.remove(&region);
    }

    /// The policy the plane runs with.
    pub fn policy(&self) -> &GuidancePolicy {
        &self.policy
    }

    /// The current hotness estimates.
    pub fn hotness(&self) -> &HotnessMap {
        &self.hotness
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &GuidanceStats {
        &self.stats
    }

    /// Intervals observed so far.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The sampler's current period (changes over time when adaptive).
    pub fn period(&self) -> u64 {
        self.sampler.config().period
    }

    /// Total modelled sampling overhead so far, ns (the `Stats` wire
    /// frame reports this per tenant when guidance is on).
    pub fn overhead_ns(&self) -> f64 {
        self.stats.overhead_ns
    }
}

/// Builds the [`RegionView`]s the plane's planner needs from any
/// region iterator, in iteration order.
pub fn region_views<'a, I>(regions: I, hot_target: NodeId) -> Vec<RegionView>
where
    I: Iterator<Item = &'a hetmem_memsim::Region>,
{
    regions
        .map(|r| RegionView { id: r.id, size: r.size, on_target: r.bytes_on(hot_target) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use hetmem_memsim::{
        AccessEngine, AccessPattern, AllocPolicy, BufferAccess, Machine, MemoryManager, Phase,
    };
    use hetmem_topology::{NodeId, GIB};
    use std::sync::Arc;

    fn report(region: RegionId, mm: &MemoryManager, engine: &AccessEngine) -> PhaseReport {
        let phase = Phase {
            name: "p".into(),
            accesses: vec![BufferAccess::new(region, 4 * GIB, 0, AccessPattern::Sequential)],
            threads: 16,
            initiator: "0-15".parse().unwrap(),
            compute_ns: 0.0,
        };
        engine.run_phase(mm, &phase)
    }

    fn setup() -> (AccessEngine, MemoryManager, RegionId, RegionId) {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let engine = AccessEngine::new(machine.clone());
        let mut mm = MemoryManager::new(machine);
        let a = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        let b = mm.alloc(2 * GIB, AllocPolicy::Bind(NodeId(0))).unwrap();
        (engine, mm, a, b)
    }

    #[test]
    fn fixed_rate_plane_never_changes_period() {
        let (engine, mm, a, _) = setup();
        let rep = report(a, &mm, &engine);
        let mut plane = GuidancePlane::new(GuidancePolicy::default(), SamplerConfig::default());
        for _ in 0..8 {
            let out = plane.observe(&rep);
            assert_eq!(out.rate_change, None);
        }
        assert_eq!(plane.period(), SamplerConfig::default().period);
    }

    #[test]
    fn adaptive_plane_backs_off_while_stable_and_bursts_on_change() {
        let (engine, mm, a, b) = setup();
        let cfg = AdaptiveConfig { min_period: 4096, max_period: 262_144, ..Default::default() };
        let mut plane = GuidancePlane::adaptive(
            GuidancePolicy::default(),
            SamplerConfig { period: 8192, ..Default::default() },
            cfg,
        );
        // Steady traffic on `a`: the hot set settles on {a} and the
        // period backs off toward the ceiling.
        let rep_a = report(a, &mm, &engine);
        for _ in 0..16 {
            plane.observe(&rep_a);
        }
        assert_eq!(plane.period(), cfg.max_period, "stable workload must back off");

        // The workload flips to `b`: the hot-set change must burst the
        // period back to the floor.
        let rep_b = report(b, &mm, &engine);
        let mut burst = None;
        for _ in 0..8 {
            if let Some(change) = plane.observe(&rep_b).rate_change {
                burst = Some(change);
                break;
            }
        }
        let (old, new) = burst.expect("phase change must retune the sampler");
        assert_eq!(new, cfg.min_period);
        assert!(old > new);
        // And the burst holds for `burst_intervals` before backing off.
        for _ in 0..cfg.burst_intervals {
            assert_eq!(plane.observe(&rep_b).rate_change, None);
        }
    }

    #[test]
    fn budget_caps_and_counts_deferrals() {
        let mut budget = MigrationBudget::new(100.0);
        assert!(budget.try_charge(60.0));
        assert!(budget.try_charge(40.0));
        assert!(!budget.try_charge(0.1));
        assert_eq!(budget.deferred(), 1);
        assert_eq!(budget.spent_ns(), 100.0);
        assert_eq!(budget.remaining_ns(), 0.0);
        budget.reset();
        assert_eq!(budget.deferred(), 0);
        assert!(budget.try_charge(100.0));
        budget.charge(7.5);
        assert_eq!(budget.spent_ns(), 107.5);
        budget.defer();
        assert_eq!(budget.deferred(), 1);
    }

    #[test]
    fn plan_respects_hysteresis_and_warmup() {
        let (engine, mm, a, _) = setup();
        let rep = report(a, &mm, &engine);
        let policy = GuidancePolicy { window_bytes: 1 << 30, ..Default::default() };
        let mut plane = GuidancePlane::new(policy, SamplerConfig::default());
        for _ in 0..4 {
            plane.observe(&rep);
        }
        let views = [RegionView { id: a, size: 2 * GIB, on_target: 0 }];
        let promote = plane.plan(&views, true);
        assert_eq!(promote.len(), 1, "hot region off target must be a promotion candidate");
        plane.record_move(a, true, 10.0);
        assert!(plane.plan(&views, true).is_empty(), "hysteresis must gate a fresh mover");
        assert_eq!(plane.stats().promotions, 1);
    }
}
