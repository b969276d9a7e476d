//! The broker-embedded guidance plane: one [`GuidancePlane`] per
//! tenant, folded into arbitration at every epoch turnover.
//!
//! The standalone [`hetmem_guidance::GuidanceEngine`] guides one
//! scenario against its own `MemoryManager`. The broker serves many
//! tenants against one manager, so it embeds the same reusable core
//! per tenant instead:
//!
//! * every [`Broker::run_phase`](super::Broker::run_phase) feeds the
//!   calling tenant's plane (creating it on first traffic) — the
//!   adaptive sampler backs off while that tenant's hot set is stable
//!   and bursts on its phase changes, emitting `sample_rate_changed`;
//! * every epoch turnover runs [`Broker::guided_fold`] — demotions for
//!   all tenants first (freeing the fast tier), then promotions in
//!   priority order, so hot regions of higher-priority tenants win
//!   fast-tier capacity. Targets come from the shared
//!   `hetmem-placement` ranking walk, exactly like admission.
//! * all moves in one fold are charged against a single shared
//!   [`MigrationBudget`]; once the cap is reached further candidates
//!   are deferred to a later epoch and one `budget_exhausted` event
//!   reports the spend.
//!
//! Guidance state deliberately lives with the broker, not with the
//! serve plane: the plane only carries requests, and a fold happens
//! exactly once per epoch, at its boundary. It is also *not* captured by
//! [`BrokerState`](super::BrokerState) — record mode refuses guided
//! service, so replay never needs it.

use super::{Broker, LeaseId};
use crate::tenant::TenantId;
use hetmem_core::attr;
use hetmem_guidance::{
    AdaptiveConfig, GuidancePlane, GuidancePolicy, GuidanceStats, MigrationBudget, RegionView,
    SamplerConfig,
};
use hetmem_memsim::{PhaseReport, RegionId};
use hetmem_placement::Scope;
use hetmem_telemetry::{BudgetExhausted, Event, HotPromoted, SampleRateChanged};
use hetmem_topology::NodeId;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Configuration of the broker's guided service mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidedConfig {
    /// Shared guidance policy every tenant plane runs with.
    pub policy: GuidancePolicy,
    /// Sampler seed/period/cost; each tenant's plane gets its own
    /// sampler (same seed — tenants are independent streams).
    pub sampler: SamplerConfig,
    /// The adaptive sample-rate controller (back-off/burst window).
    pub adaptive: AdaptiveConfig,
    /// Per-epoch cap on modelled migration cost across all tenants,
    /// ns. The fold stops moving once the cap is reached and defers
    /// the rest.
    pub budget_ns: f64,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            policy: GuidancePolicy::default(),
            sampler: SamplerConfig::default(),
            adaptive: AdaptiveConfig::default(),
            budget_ns: 2.0e9,
        }
    }
}

/// Everything guided mode adds to a broker: the per-tenant planes and
/// the shared per-epoch budget.
#[derive(Debug)]
pub(crate) struct GuidanceState {
    cfg: GuidedConfig,
    planes: Mutex<BTreeMap<TenantId, GuidancePlane>>,
    budget: Mutex<MigrationBudget>,
}

impl Broker {
    /// Turns on guided service. Call before the broker is shared,
    /// like [`Broker::set_sink`]. Planes are created lazily, on each
    /// tenant's first served phase.
    pub fn enable_guidance(&mut self, cfg: GuidedConfig) {
        self.guidance = Some(GuidanceState {
            planes: Mutex::new(BTreeMap::new()),
            budget: Mutex::new(MigrationBudget::new(cfg.budget_ns)),
            cfg,
        });
    }

    /// Whether guided service is on.
    pub fn guided(&self) -> bool {
        self.guidance.is_some()
    }

    /// The per-epoch migration budget cap, ns, when guided.
    pub fn guided_budget_ns(&self) -> Option<f64> {
        self.guidance.as_ref().map(|g| g.cfg.budget_ns)
    }

    /// Per-tenant modelled sampling overhead, ns, when guided — the
    /// `guided` section of the `stats` wire frame. Tenants appear in
    /// id order; tenants that never ran a phase have no plane and no
    /// entry.
    pub fn guided_overhead(&self) -> Option<Vec<(String, f64)>> {
        let g = self.guidance.as_ref()?;
        let registry = self.registry();
        let planes = g.planes.lock().expect("guidance planes poisoned");
        Some(planes.iter().map(|(&t, p)| (registry.name(t), p.overhead_ns())).collect())
    }

    /// Per-tenant lifetime guidance counters, when guided (harnesses
    /// gate overhead and move counts on these).
    pub fn guided_stats(&self) -> Option<Vec<(String, GuidanceStats)>> {
        let g = self.guidance.as_ref()?;
        let registry = self.registry();
        let planes = g.planes.lock().expect("guidance planes poisoned");
        Some(planes.iter().map(|(&t, p)| (registry.name(t), *p.stats())).collect())
    }

    /// Feeds one served phase into the calling tenant's plane and
    /// emits `sample_rate_changed` when the adaptive controller
    /// retuned. No-op when guidance is off.
    pub(crate) fn feed_guidance(&self, tenant: TenantId, report: &PhaseReport) {
        let Some(g) = &self.guidance else { return };
        let outcome = {
            let mut planes = g.planes.lock().expect("guidance planes poisoned");
            let plane = planes.entry(tenant).or_insert_with(|| {
                GuidancePlane::adaptive(g.cfg.policy, g.cfg.sampler, g.cfg.adaptive)
            });
            plane.observe(report)
        };
        if let Some((old_period, new_period)) = outcome.rate_change {
            if self.sink.enabled() {
                self.sink.emit(Event::SampleRateChanged(SampleRateChanged {
                    broker: self.id,
                    tenant: self.registry().name(tenant),
                    old_period,
                    new_period,
                }));
            }
        }
    }

    /// Drops a freed region from its tenant's plane. Called with no
    /// other broker lock held.
    pub(crate) fn guidance_forget(&self, tenant: TenantId, region: RegionId) {
        if let Some(g) = &self.guidance {
            if let Some(plane) = g.planes.lock().expect("guidance planes poisoned").get_mut(&tenant)
            {
                plane.forget(region);
            }
        }
    }

    /// The epoch-turnover fold: batches every tenant's promote/demote
    /// candidates under the shared [`MigrationBudget`]. Demotions run
    /// first for all tenants (they free the hot tier), then promotions
    /// in descending priority order, so hot regions of
    /// higher-priority tenants win fast-tier capacity. No-op when
    /// guidance is off or no tenant has run a phase yet.
    pub(crate) fn guided_fold(&self) {
        let Some(g) = &self.guidance else { return };
        // Loaded before any guidance lock: the registry lock is never
        // taken while another broker lock is held.
        let registry = self.registry();
        let mut planes = g.planes.lock().expect("guidance planes poisoned");
        if planes.is_empty() {
            return;
        }
        let mut budget = g.budget.lock().expect("guidance budget poisoned");
        budget.reset();

        // Targets come from the same attribute walk admission uses,
        // scoped to the whole machine (the fold serves every tenant,
        // not one initiator).
        let initiator = self.machine.topology().machine_cpuset();
        let Ok(ranking) = self.placer.rank(g.cfg.policy.criterion, initiator, Scope::Local) else {
            return;
        };
        // Promotion targets: every fast-tier node this broker owns, in
        // criterion rank order — one 4 GiB HBM node must not cap how
        // many tenants the fold can serve.
        let fast_order: Vec<NodeId> = ranking
            .targets()
            .iter()
            .map(|tv| tv.node)
            .filter(|n| self.node_kind.get(n) == Some(&self.fast_kind))
            .collect();
        if fast_order.is_empty() {
            return;
        }
        // Demotion targets: capacity-ranked nodes off the fast tier.
        let capacity_order: Vec<NodeId> = self
            .placer
            .rank(attr::CAPACITY, initiator, Scope::Local)
            .map(|r| r.nodes())
            .unwrap_or_default()
            .into_iter()
            .filter(|n| self.node_kind.get(n).is_some_and(|&kind| kind != self.fast_kind))
            .collect();

        // Demotions first, every tenant: free the hot tier before the
        // promotions below compete for it. A tenant registered after
        // `registry` was loaded has no views until the next fold.
        for (&tenant, plane) in planes.iter_mut() {
            let Some(index) = registry.index(tenant) else { continue };
            let views = self.tenant_views(index);
            for (lease, region) in views.planned(plane, false) {
                if budget.remaining_ns() <= 0.0 {
                    budget.defer();
                    continue;
                }
                // First capacity-ranked node that takes the region
                // wins; a full node fails the migrate cleanly.
                for &to in &capacity_order {
                    if let Some((cost_ns, _)) = self.migrate_lease(lease, to) {
                        budget.charge(cost_ns);
                        plane.record_move(region, false, cost_ns);
                        break;
                    }
                }
            }
        }

        // Promotions in descending priority (ties by tenant id).
        let mut order: Vec<TenantId> = planes.keys().copied().collect();
        order.sort_by_key(|&t| {
            (Reverse(registry.get(t).map(|s| s.priority.weight()).unwrap_or(0)), t.0)
        });
        for tenant in order {
            let Some(index) = registry.index(tenant) else { continue };
            let plane = planes.get_mut(&tenant).expect("plane listed");
            let views = self.tenant_views(index);
            for (lease, region) in views.planned(plane, true) {
                if budget.remaining_ns() <= 0.0 {
                    budget.defer();
                    continue;
                }
                // Best-ranked fast node that takes the whole region
                // wins; full nodes fail the migrate cleanly.
                let Some((to, cost_ns, bytes)) = fast_order
                    .iter()
                    .find_map(|&to| self.migrate_lease(lease, to).map(|(c, b)| (to, c, b)))
                else {
                    continue;
                };
                budget.charge(cost_ns);
                plane.record_move(region, true, cost_ns);
                if self.sink.enabled() {
                    self.sink.emit(Event::HotPromoted(HotPromoted {
                        broker: self.id,
                        tenant: registry.name(tenant),
                        region: region.0,
                        to,
                        bytes,
                        cost_ns,
                    }));
                }
            }
        }

        if budget.deferred() > 0 && self.sink.enabled() {
            self.sink.emit(Event::BudgetExhausted(BudgetExhausted {
                broker: self.id,
                epoch: self.epoch.load(Ordering::SeqCst),
                spent_ns: budget.spent_ns(),
                budget_ns: budget.budget_ns(),
                deferred: budget.deferred(),
            }));
        }
    }

    /// The plane's view of the regions of the tenant at registry index
    /// `index`, read from its lease ids (lease order — deterministic).
    /// `on_target` counts bytes anywhere on the fast tier, so a region
    /// promoted to any fast node stops being a promotion candidate.
    pub(super) fn tenant_views(&self, index: usize) -> TenantViews {
        let leases = self.leases.lock().expect("leases poisoned");
        let ids = leases.of(index).to_vec();
        let views = ids
            .iter()
            .map(|&id| {
                let r = &leases.records[&id];
                RegionView {
                    id: r.region,
                    size: r.placement.iter().map(|&(_, b)| b).sum(),
                    on_target: r
                        .placement
                        .iter()
                        .filter(|(n, _)| self.node_kind.get(n) == Some(&self.fast_kind))
                        .map(|&(_, b)| b)
                        .sum(),
                }
            })
            .collect();
        TenantViews { ids, views }
    }

    /// Migrates lease `id`'s region to `target` and moves its holdings
    /// in the ledger, atomically with the lease record's placement
    /// update (a concurrent renewal serialises on the lease table and
    /// can never observe a placement the fold already moved away
    /// from). Returns `(cost_ns, bytes_moved)`, or `None` when the
    /// lease is gone or the target cannot take its region (the failed
    /// migrate has no side effects).
    pub(super) fn migrate_lease(&self, id: LeaseId, target: NodeId) -> Option<(f64, u64)> {
        if !self.node_kind.contains_key(&target) {
            return None;
        }
        // Lock order: leases → ledger, the broker's global order.
        let mut leases = self.leases.lock().expect("leases poisoned");
        let record = leases.records.get_mut(&id)?;
        let mut ledger = self.ledger();
        let report = ledger.mm.migrate(record.region, target).ok()?;
        let placement = ledger.mm.region(record.region)?.placement.clone();
        ledger.settle(record.index, &record.placement, false);
        ledger.settle(record.index, &placement, true);
        record.placement = placement;
        Some((report.cost_ns, report.bytes_moved))
    }
}

/// One tenant's region views, each with the lease backing it.
pub(super) struct TenantViews {
    pub(super) ids: Vec<LeaseId>,
    pub(super) views: Vec<RegionView>,
}

impl TenantViews {
    /// The plane's candidate moves as `(lease, region)` pairs. The plan
    /// keeps the order of the views, so one pass pairs them up.
    fn planned(&self, plane: &GuidancePlane, hot: bool) -> Vec<(LeaseId, RegionId)> {
        let mut views = self.ids.iter().zip(&self.views);
        plane
            .plan(&self.views, hot)
            .into_iter()
            .filter_map(|(region, _share)| {
                views.find(|(_, v)| v.id == region).map(|(&lease, _)| (lease, region))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ArbitrationPolicy, Lease, LeaseId};
    use super::*;
    use crate::tenant::{Priority, TenantSpec};
    use hetmem_alloc::{AllocRequest, Fallback};
    use hetmem_core::discovery;
    use hetmem_memsim::{AccessPattern, BufferAccess, Machine, Phase};
    use hetmem_telemetry::TelemetrySink;
    use hetmem_topology::GIB;
    use std::sync::Arc;

    fn guided_broker(cfg: GuidedConfig) -> Broker {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
        broker.enable_guidance(cfg);
        broker
    }

    fn small_window() -> GuidedConfig {
        GuidedConfig {
            policy: GuidancePolicy { window_bytes: 1 << 30, ..Default::default() },
            ..Default::default()
        }
    }

    fn phase(region: RegionId, bytes: u64) -> Phase {
        Phase {
            name: "p".into(),
            accesses: vec![BufferAccess::new(region, bytes, 0, AccessPattern::Sequential)],
            threads: 16,
            initiator: "0-15".parse().unwrap(),
            compute_ns: 0.0,
        }
    }

    fn bw_request(bytes: u64) -> AllocRequest {
        AllocRequest::new(bytes).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill)
    }

    fn fast_bytes(broker: &Broker, lease: LeaseId) -> u64 {
        let fast = broker.fast_kind();
        broker
            .placement(lease)
            .expect("lease alive")
            .iter()
            .filter(|&&(n, _)| broker.machine().topology().node_kind(n) == Some(fast))
            .map(|&(_, b)| b)
            .sum()
    }

    /// A batch hog captures the fast tier before a latency tenant
    /// arrives, then shifts its working set to a second region so its
    /// big lease goes cold. Returns `(hog, hot, hog_big, hog_alt,
    /// hot_lease)`.
    fn hog_scenario(broker: &Broker) -> (TenantId, TenantId, Lease, Lease, Lease) {
        let hog =
            broker.register(TenantSpec::new("hog").priority(Priority::Batch)).expect("register");
        // Alone on the machine, work-conserving fair share lets the
        // hog borrow the whole fast tier.
        let big = broker.acquire(hog, &bw_request(14 * GIB)).expect("admitted");
        let alt = broker.acquire(hog, &bw_request(2 * GIB)).expect("admitted");
        let hot =
            broker.register(TenantSpec::new("hot").priority(Priority::Latency)).expect("register");
        let hot_lease = broker.acquire(hot, &bw_request(2 * GIB)).expect("admitted");
        assert!(
            fast_bytes(broker, hot_lease.id()) < hot_lease.size(),
            "the latency tenant must start at least partly off the fast tier"
        );
        (hog, hot, big, alt, hot_lease)
    }

    fn run_eras(
        broker: &Broker,
        scenario: &(TenantId, TenantId, Lease, Lease, Lease),
        era1: usize,
        era2: usize,
    ) {
        let (hog, hot, big, alt, hot_lease) = scenario;
        for _ in 0..era1 {
            broker.run_phase(*hog, &phase(big.region(), 2 * GIB)).expect("phase");
            broker.run_phase(*hot, &phase(hot_lease.region(), 2 * GIB)).expect("phase");
            broker.advance_epoch();
        }
        // Era 2: the hog's working set shifts — its big lease goes
        // cold in its own plane and becomes a demotion candidate.
        for _ in 0..era2 {
            broker.run_phase(*hog, &phase(alt.region(), 2 * GIB)).expect("phase");
            broker.run_phase(*hot, &phase(hot_lease.region(), 2 * GIB)).expect("phase");
            broker.advance_epoch();
        }
    }

    #[test]
    fn fold_demotes_cold_hog_and_promotes_hot_tenant() {
        let broker = guided_broker(small_window());
        let scenario = hog_scenario(&broker);
        run_eras(&broker, &scenario, 8, 16);
        let (_, _, big, _, hot_lease) = &scenario;
        assert_eq!(
            fast_bytes(&broker, hot_lease.id()),
            hot_lease.size(),
            "fold must promote the hot latency tenant into the fast tier"
        );
        assert_eq!(
            fast_bytes(&broker, big.id()),
            0,
            "the hog's cold lease must be demoted off the fast tier"
        );
        broker.check_invariants().expect("ledgers stay consistent");
        let stats = broker.guided_stats().expect("guided");
        let promotions: u64 = stats.iter().map(|(_, s)| s.promotions).sum();
        let demotions: u64 = stats.iter().map(|(_, s)| s.demotions).sum();
        assert!(promotions >= 1, "expected at least one promotion, stats: {stats:?}");
        assert!(demotions >= 1, "expected at least one demotion, stats: {stats:?}");
    }

    #[test]
    fn budget_defers_moves_and_emits_exhaustion() {
        let mut cfg = small_window();
        // Practically nothing: the first move per epoch exhausts it,
        // everything else defers to later epochs.
        cfg.budget_ns = 1.0;
        let mut broker = guided_broker(cfg);
        let sink = TelemetrySink::new();
        let mut collector = sink.collector();
        broker.set_sink(sink);
        let scenario = hog_scenario(&broker);
        run_eras(&broker, &scenario, 8, 16);
        let hot_lease = &scenario.4;
        let events = collector.drain_sorted();
        assert!(
            events.iter().any(|e| matches!(&e.event, Event::BudgetExhausted(x) if x.deferred > 0)),
            "a near-zero budget must defer moves and say so"
        );
        // Deferral is not denial: the promotion lands in a later epoch.
        assert_eq!(fast_bytes(&broker, hot_lease.id()), hot_lease.size());
        assert!(events
            .iter()
            .any(|e| matches!(&e.event, Event::HotPromoted(p) if p.tenant == "hot")));
        broker.check_invariants().expect("ledgers stay consistent");
    }

    #[test]
    fn renewal_during_fold_tracks_migrated_placement() {
        let broker = guided_broker(small_window());
        let (hog, hot, big, alt, hot_lease) = hog_scenario(&broker);
        for era2 in [false, true] {
            for _ in 0..12 {
                let hog_region = if era2 { alt.region() } else { big.region() };
                broker.run_phase(hog, &phase(hog_region, 2 * GIB)).expect("phase");
                broker.run_phase(hot, &phase(hot_lease.region(), 2 * GIB)).expect("phase");
                broker.advance_epoch();
                // A renewal right after the fold must see the lease's
                // post-migration placement — never a region the batch
                // just moved away from.
                broker.renew(hot, hot_lease.id()).expect("renew");
                broker.check_invariants().expect("ledgers stay consistent");
            }
        }
        assert_eq!(fast_bytes(&broker, hot_lease.id()), hot_lease.size());
    }

    #[test]
    fn adaptive_sampler_emits_rate_changes_per_tenant() {
        let mut broker = guided_broker(small_window());
        let sink = TelemetrySink::new();
        let mut collector = sink.collector();
        broker.set_sink(sink);
        let t = broker.register(TenantSpec::new("steady")).expect("register");
        let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
        for _ in 0..12 {
            broker.run_phase(t, &phase(lease.region(), 2 * GIB)).expect("phase");
            broker.advance_epoch();
        }
        let events = collector.drain_sorted();
        assert!(
            events.iter().any(|e| matches!(
                &e.event,
                Event::SampleRateChanged(c) if c.tenant == "steady" && c.new_period > c.old_period
            )),
            "a steady tenant's sampler must back off (and say so)"
        );
        let overhead = broker.guided_overhead().expect("guided");
        assert_eq!(overhead.len(), 1);
        assert_eq!(overhead[0].0, "steady");
        assert!(overhead[0].1 > 0.0);
    }

    #[test]
    fn released_regions_are_forgotten_by_the_plane() {
        let broker = guided_broker(small_window());
        let t = broker.register(TenantSpec::new("t")).expect("register");
        let lease = broker.acquire(t, &bw_request(GIB)).expect("admitted");
        broker.run_phase(t, &phase(lease.region(), 2 * GIB)).expect("phase");
        broker.release(lease).expect("release");
        broker.advance_epoch();
        broker.check_invariants().expect("ledgers stay consistent");
        let stats = broker.guided_stats().expect("guided");
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.promotions + stats[0].1.demotions, 0);
    }

    #[test]
    fn unguided_broker_reports_no_guided_state() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
        assert!(!broker.guided());
        assert_eq!(broker.guided_overhead(), None);
        assert_eq!(broker.guided_budget_ns(), None);
    }
}
