//! Folds an event stream into a per-run placement report.

use crate::{attr_name, Event};
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Occupancy statistics for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyStats {
    /// Bytes allocated at the end of the run.
    pub used: u64,
    /// Highest used-bytes sample seen.
    pub high_water: u64,
    /// Usable capacity.
    pub total: u64,
}

/// One phase as aggregated from [`crate::PhaseSpan`] events.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSample {
    /// Phase name.
    pub name: String,
    /// Modelled wall time, ns.
    pub time_ns: f64,
    /// Bytes touched per node (read + written).
    pub bytes_per_node: BTreeMap<NodeId, u64>,
}

/// Aggregated view of one run's telemetry.
///
/// Feed events in order via [`Summary::add`] (or build from a
/// collector or a parsed JSONL trace); the summary tracks allocation counts and
/// bytes per target, fallback activity, migrations, per-node occupancy
/// high-water marks, phases, and the *live placement map* — region →
/// per-node byte split — maintained through allocs, migrations and
/// frees. The live map is what integration tests diff against the
/// `MemoryManager`'s ground truth.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Successful allocations.
    pub allocs: u64,
    /// Failed allocations.
    pub alloc_failures: u64,
    /// Bytes placed per node, cumulative over all allocations.
    pub bytes_per_node: BTreeMap<NodeId, u64>,
    /// Allocations that spilled across more than one node.
    pub spills: u64,
    /// Total capacity-fallback hops (targets tried and rejected).
    pub fallback_hops: u64,
    /// Attribute substitutions, `(requested, used)` → count.
    pub attr_fallbacks: BTreeMap<(u32, u32), u64>,
    /// Migrations seen.
    pub migrations: u64,
    /// Bytes moved by migrations.
    pub migrated_bytes: u64,
    /// Tiering-daemon actions seen (each also emits a migration).
    pub tiering_actions: u64,
    /// Online-guidance actions seen (each also emits a migration).
    pub guidance_actions: u64,
    /// Frees seen.
    pub frees: u64,
    /// Broker admissions (multi-tenant service).
    pub tenant_admits: u64,
    /// Fair-share denials the arbiter issued.
    pub quota_clamps: u64,
    /// Contention stalls charged to tenants.
    pub contention_stalls: u64,
    /// Total contention time charged, ns.
    pub contention_stall_ns: f64,
    /// Broker admissions split by broker instance id. Holds only key 0
    /// for a standalone broker; a federated trace attributes each
    /// admission to the shard that granted it.
    pub admits_per_broker: BTreeMap<u32, u64>,
    /// Residual allocations served for a peer broker (federation
    /// cross-broker spill).
    pub spill_forwards: u64,
    /// Bytes granted through spill forwards.
    pub spill_forward_bytes: u64,
    /// Total modelled forwarding cost across spill forwards, ns.
    pub spill_forward_ns: f64,
    /// Peer capacity digests merged into federation boards.
    pub digest_merges: u64,
    /// Coalesced admission batches planned in one placement walk.
    pub batches_coalesced: u64,
    /// Individual requests covered by those coalesced batches.
    pub coalesced_requests: u64,
    /// Work-stealing grabs between shards.
    pub shard_steals: u64,
    /// Individual queued requests moved by those steals.
    pub stolen_requests: u64,
    /// Adaptive-sampler period retunes (back-offs and bursts).
    pub sample_rate_changes: u64,
    /// Hot regions promoted by the broker's guided epoch fold.
    pub hot_promotions: u64,
    /// Epoch folds that ran out of migration budget.
    pub budget_exhaustions: u64,
    /// Moves deferred past exhausted budgets, cumulative.
    pub deferred_moves: u64,
    /// Per-node occupancy, latest and high-water.
    pub occupancy: BTreeMap<NodeId, OccupancyStats>,
    /// Phases in arrival order.
    pub phases: Vec<PhaseSample>,
    /// Live region placement: region id → `(node, bytes)` split.
    pub live: BTreeMap<u64, Vec<(NodeId, u64)>>,
    /// Events emitted but not collected: dropped from a full
    /// per-thread buffer before a collector took them. A nonzero count
    /// means every other total above is a lower bound.
    pub events_lost: u64,
    /// [`Summary::events_lost`] split by producing buffer's label, as
    /// reported by [`crate::Collector::loss`].
    pub lost_per_thread: BTreeMap<u64, u64>,
}

impl Summary {
    /// Folds one event into the aggregate.
    pub fn add(&mut self, event: &Event) {
        match event {
            Event::AllocDecision(d) => {
                self.fallback_hops += d.hops.len() as u64;
                if d.error.is_some() || d.region.is_none() {
                    self.alloc_failures += 1;
                } else {
                    self.allocs += 1;
                    if d.placement.len() > 1 {
                        self.spills += 1;
                    }
                    for &(node, bytes) in &d.placement {
                        *self.bytes_per_node.entry(node).or_default() += bytes;
                    }
                    if let Some(region) = d.region {
                        self.live.insert(region, d.placement.clone());
                    }
                }
                if d.used != d.requested {
                    *self.attr_fallbacks.entry((d.requested, d.used)).or_default() += 1;
                }
            }
            Event::AttrFallback(a) => {
                // Counted via AllocDecision when one follows; a bare
                // AttrFallback (e.g. from candidates()) counts here.
                *self.attr_fallbacks.entry((a.requested, a.used)).or_default() += 1;
            }
            Event::Migration(m) => {
                self.migrations += 1;
                self.migrated_bytes += m.bytes_moved;
                let total: u64 = m.from.iter().map(|&(_, b)| b).sum();
                self.live.insert(m.region, vec![(m.to, total)]);
            }
            Event::Free(f) => {
                self.frees += 1;
                self.live.remove(&f.region);
            }
            Event::PhaseSpan(p) => {
                let mut bytes = BTreeMap::new();
                for t in &p.per_node {
                    *bytes.entry(t.node).or_default() += t.bytes_read + t.bytes_written;
                }
                self.phases.push(PhaseSample {
                    name: p.name.clone(),
                    time_ns: p.time_ns,
                    bytes_per_node: bytes,
                });
            }
            Event::OccupancyGauge(g) => {
                let s = self.occupancy.entry(g.node).or_default();
                s.used = g.used;
                s.high_water = s.high_water.max(g.high_water);
                s.total = g.total;
            }
            Event::TieringAction(_) => self.tiering_actions += 1,
            Event::GuidanceDecision(_) => self.guidance_actions += 1,
            Event::TenantAdmit(t) => {
                self.tenant_admits += 1;
                *self.admits_per_broker.entry(t.broker).or_default() += 1;
            }
            Event::QuotaClamp(_) => self.quota_clamps += 1,
            Event::ContentionStall(c) => {
                self.contention_stalls += 1;
                self.contention_stall_ns += c.stall_ns;
            }
            Event::SpillForwarded(s) => {
                self.spill_forwards += 1;
                self.spill_forward_bytes += s.size;
                self.spill_forward_ns += s.cost_ns;
            }
            Event::DigestMerged(_) => self.digest_merges += 1,
            Event::BatchCoalesced(b) => {
                self.batches_coalesced += 1;
                self.coalesced_requests += b.merged;
            }
            Event::ShardSteal(s) => {
                self.shard_steals += 1;
                self.stolen_requests += s.stolen;
            }
            Event::SampleRateChanged(_) => self.sample_rate_changes += 1,
            Event::HotPromoted(_) => self.hot_promotions += 1,
            Event::BudgetExhausted(b) => {
                self.budget_exhaustions += 1;
                self.deferred_moves += b.deferred;
            }
            Event::LeaseExpired(_)
            | Event::LeaseRevoked(_)
            | Event::TierDegraded(_)
            | Event::RetryExhausted(_)
            | Event::Reclaim(_) => {}
        }
    }

    /// Builds a summary from a slice of events.
    pub fn from_events(events: &[Event]) -> Summary {
        let mut s = Summary::default();
        for e in events {
            s.add(e);
        }
        s
    }

    /// Folds a collector's per-thread loss accounting into the
    /// summary, so downstream readers see exactly how much of the
    /// stream the totals are missing.
    pub fn apply_loss(&mut self, losses: &[crate::ThreadLoss]) {
        for l in losses {
            if l.lost > 0 {
                self.events_lost += l.lost;
                *self.lost_per_thread.entry(l.thread).or_default() += l.lost;
            }
        }
    }

    /// Live bytes currently placed on `node` according to the trace.
    pub fn live_bytes_on(&self, node: NodeId) -> u64 {
        self.live
            .values()
            .flat_map(|split| split.iter())
            .filter(|&&(n, _)| n == node)
            .map(|&(_, b)| b)
            .sum()
    }

    /// Renders the human-readable placement report printed by the
    /// repro binaries alongside a `--trace` file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "placement report");
        let _ = writeln!(
            out,
            "  allocations: {} ok, {} failed, {} spilled, {} fallback hops",
            self.allocs, self.alloc_failures, self.spills, self.fallback_hops
        );
        for (node, bytes) in &self.bytes_per_node {
            let _ = writeln!(out, "    node {}: {} allocated", node.0, fmt_bytes(*bytes));
        }
        if !self.attr_fallbacks.is_empty() {
            let _ = writeln!(out, "  attribute fallbacks:");
            for (&(req, used), count) in &self.attr_fallbacks {
                let _ = writeln!(out, "    {} -> {}: {count}x", attr_name(req), attr_name(used));
            }
        }
        if self.migrations > 0 {
            let _ = writeln!(
                out,
                "  migrations: {} moving {}",
                self.migrations,
                fmt_bytes(self.migrated_bytes)
            );
        }
        if self.tenant_admits + self.quota_clamps + self.contention_stalls > 0 {
            let _ = writeln!(
                out,
                "  service: {} admissions, {} quota clamps, {} contention stalls ({:.3} ms)",
                self.tenant_admits,
                self.quota_clamps,
                self.contention_stalls,
                self.contention_stall_ns / 1e6
            );
        }
        // Per-broker attribution only matters (and only renders) when
        // a non-default broker id appears, so standalone reports are
        // byte-identical to the pre-federation format.
        if self.admits_per_broker.keys().any(|&b| b != 0) {
            let split = self
                .admits_per_broker
                .iter()
                .map(|(b, n)| format!("broker {b}: {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "    admissions by broker: {split}");
        }
        if self.spill_forwards + self.digest_merges > 0 {
            let _ = writeln!(
                out,
                "  federation: {} spill forwards ({}, {:.3} ms), {} digest merges",
                self.spill_forwards,
                fmt_bytes(self.spill_forward_bytes),
                self.spill_forward_ns / 1e6,
                self.digest_merges
            );
        }
        if self.batches_coalesced + self.shard_steals > 0 {
            let _ = writeln!(
                out,
                "  shards: {} coalesced batches covering {} requests, {} steals moving {} requests",
                self.batches_coalesced,
                self.coalesced_requests,
                self.shard_steals,
                self.stolen_requests
            );
        }
        if self.sample_rate_changes + self.hot_promotions + self.budget_exhaustions > 0 {
            let _ = writeln!(
                out,
                "  guided service: {} hot promotions, {} sampler retunes, \
                 {} budget exhaustions deferring {} moves",
                self.hot_promotions,
                self.sample_rate_changes,
                self.budget_exhaustions,
                self.deferred_moves
            );
        }
        if self.tiering_actions + self.guidance_actions > 0 {
            let _ = writeln!(
                out,
                "  automatic actions: {} tiering, {} guidance",
                self.tiering_actions, self.guidance_actions
            );
        }
        if !self.occupancy.is_empty() {
            let _ = writeln!(out, "  occupancy (high water / total):");
            for (node, s) in &self.occupancy {
                let pct =
                    if s.total > 0 { 100.0 * s.high_water as f64 / s.total as f64 } else { 0.0 };
                let _ = writeln!(
                    out,
                    "    node {}: {} / {} ({pct:.1}%)",
                    node.0,
                    fmt_bytes(s.high_water),
                    fmt_bytes(s.total)
                );
            }
        }
        if self.events_lost > 0 {
            let threads = self
                .lost_per_thread
                .iter()
                .map(|(t, n)| format!("thread {t}: {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  events lost: {} (counts above are lower bounds{}{})",
                self.events_lost,
                if threads.is_empty() { "" } else { "; " },
                threads
            );
        }
        if !self.phases.is_empty() {
            let _ = writeln!(out, "  phases:");
            for p in &self.phases {
                let touched: u64 = p.bytes_per_node.values().sum();
                let _ = writeln!(
                    out,
                    "    {}: {:.3} ms, {} touched across {} node(s)",
                    p.name,
                    p.time_ns / 1e6,
                    fmt_bytes(touched),
                    p.bytes_per_node.len()
                );
            }
        }
        out
    }
}

fn fmt_bytes(b: u64) -> String {
    const GIB: u64 = 1 << 30;
    const MIB: u64 = 1 << 20;
    const KIB: u64 = 1 << 10;
    if b >= GIB {
        format!("{:.2} GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.2} MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.2} KiB", b as f64 / KIB as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AllocDecision, AttrFallback, Candidate, FallbackMode, FreeEvent, Hop, Migration,
        OccupancyGauge, Scope,
    };

    fn decision(region: u64, placement: Vec<(NodeId, u64)>, hops: usize) -> Event {
        Event::AllocDecision(AllocDecision {
            region: Some(region),
            size: placement.iter().map(|&(_, b)| b).sum(),
            requested: 2,
            used: 2,
            scope: Scope::Local,
            fallback: FallbackMode::PartialSpill,
            candidates: vec![Candidate { node: NodeId(4), value: 380_000 }],
            hops: (0..hops)
                .map(|i| Hop { node: NodeId(i as u32), reason: "full".into() })
                .collect(),
            placement,
            error: None,
        })
    }

    #[test]
    fn live_placement_tracks_alloc_migrate_free() {
        let mut s = Summary::default();
        s.add(&decision(1, vec![(NodeId(4), 100), (NodeId(0), 50)], 1));
        s.add(&decision(2, vec![(NodeId(0), 30)], 0));
        assert_eq!(s.live_bytes_on(NodeId(4)), 100);
        assert_eq!(s.live_bytes_on(NodeId(0)), 80);
        assert_eq!(s.spills, 1);
        assert_eq!(s.fallback_hops, 1);

        s.add(&Event::Migration(Migration {
            region: 1,
            from: vec![(NodeId(4), 100), (NodeId(0), 50)],
            to: NodeId(4),
            bytes_moved: 50,
            cost_ns: 10.0,
        }));
        assert_eq!(s.live_bytes_on(NodeId(4)), 150);
        assert_eq!(s.live_bytes_on(NodeId(0)), 30);

        s.add(&Event::Free(FreeEvent { region: 1, placement: vec![(NodeId(4), 150)] }));
        assert_eq!(s.live_bytes_on(NodeId(4)), 0);
        assert_eq!(s.live_bytes_on(NodeId(0)), 30);
        assert_eq!(s.frees, 1);
        assert_eq!(s.migrations, 1);
        assert_eq!(s.migrated_bytes, 50);
    }

    #[test]
    fn failures_and_attr_fallbacks_counted() {
        let mut s = Summary::default();
        s.add(&Event::AllocDecision(AllocDecision {
            region: None,
            size: 10,
            requested: 4,
            used: 2,
            scope: Scope::Local,
            fallback: FallbackMode::Strict,
            candidates: vec![],
            hops: vec![],
            placement: vec![],
            error: Some("no candidates".into()),
        }));
        s.add(&Event::AttrFallback(AttrFallback { requested: 6, used: 3 }));
        assert_eq!(s.alloc_failures, 1);
        assert_eq!(s.allocs, 0);
        assert_eq!(s.attr_fallbacks.get(&(4, 2)), Some(&1));
        assert_eq!(s.attr_fallbacks.get(&(6, 3)), Some(&1));
    }

    #[test]
    fn occupancy_keeps_high_water_across_samples() {
        let mut s = Summary::default();
        for (used, hw) in [(10u64, 10u64), (50, 50), (20, 50)] {
            s.add(&Event::OccupancyGauge(OccupancyGauge {
                node: NodeId(1),
                used,
                high_water: hw,
                total: 100,
            }));
        }
        let o = s.occupancy[&NodeId(1)];
        assert_eq!(o.used, 20);
        assert_eq!(o.high_water, 50);
        assert_eq!(o.total, 100);
    }

    #[test]
    fn federation_counters_aggregate_and_render() {
        use crate::{DigestMerged, SpillForwarded, TenantAdmit};
        let mut s = Summary::default();
        for (broker, lease) in [(0u32, 1u64), (1, 2), (1, 3)] {
            s.add(&Event::TenantAdmit(TenantAdmit {
                broker,
                tenant: "graph500".into(),
                lease,
                size: 1 << 20,
                placement: vec![(NodeId(0), 1 << 20)],
                clamped: false,
                fast_bytes: 0,
            }));
        }
        s.add(&Event::SpillForwarded(SpillForwarded {
            broker: 1,
            origin: 0,
            tenant: "graph500".into(),
            size: 2 << 20,
            fast_bytes: 2 << 20,
            cost_ns: 2e6,
        }));
        s.add(&Event::DigestMerged(DigestMerged { broker: 0, peer: 1, epoch: 4, applied: true }));
        assert_eq!(s.tenant_admits, 3);
        assert_eq!(s.admits_per_broker[&0], 1);
        assert_eq!(s.admits_per_broker[&1], 2);
        assert_eq!(s.spill_forwards, 1);
        assert_eq!(s.spill_forward_bytes, 2 << 20);
        assert_eq!(s.digest_merges, 1);
        let text = s.render();
        assert!(text.contains("admissions by broker: broker 0: 1, broker 1: 2"), "{text}");
        assert!(text.contains("1 spill forwards"), "{text}");
        assert!(text.contains("1 digest merges"), "{text}");
    }

    #[test]
    fn shard_counters_aggregate_and_render() {
        use crate::{BatchCoalesced, ShardSteal};
        let mut s = Summary::default();
        s.add(&Event::BatchCoalesced(BatchCoalesced {
            broker: 0,
            shard: 1,
            tenant: "stream".into(),
            merged: 4,
            bytes: 4 << 20,
        }));
        s.add(&Event::BatchCoalesced(BatchCoalesced {
            broker: 0,
            shard: 0,
            tenant: "graph500".into(),
            merged: 2,
            bytes: 2 << 20,
        }));
        s.add(&Event::ShardSteal(ShardSteal { broker: 0, thief: 1, victim: 0, stolen: 3 }));
        assert_eq!(s.batches_coalesced, 2);
        assert_eq!(s.coalesced_requests, 6);
        assert_eq!(s.shard_steals, 1);
        assert_eq!(s.stolen_requests, 3);
        let text = s.render();
        assert!(
            text.contains("2 coalesced batches covering 6 requests, 1 steals moving 3 requests"),
            "{text}"
        );
    }

    #[test]
    fn guided_counters_aggregate_and_render() {
        use crate::{BudgetExhausted, HotPromoted, SampleRateChanged};
        let mut s = Summary::default();
        s.add(&Event::SampleRateChanged(SampleRateChanged {
            broker: 0,
            tenant: "interactive".into(),
            old_period: 65536,
            new_period: 4096,
        }));
        s.add(&Event::HotPromoted(HotPromoted {
            broker: 0,
            tenant: "interactive".into(),
            region: 7,
            to: NodeId(4),
            bytes: 1 << 30,
            cost_ns: 5e4,
        }));
        s.add(&Event::BudgetExhausted(BudgetExhausted {
            broker: 0,
            epoch: 3,
            spent_ns: 9e4,
            budget_ns: 1e5,
            deferred: 2,
        }));
        assert_eq!(s.sample_rate_changes, 1);
        assert_eq!(s.hot_promotions, 1);
        assert_eq!(s.budget_exhaustions, 1);
        assert_eq!(s.deferred_moves, 2);
        let text = s.render();
        assert!(
            text.contains("1 hot promotions, 1 sampler retunes, 1 budget exhaustions"),
            "{text}"
        );
        // An unguided run must not grow the line (render stability).
        assert!(!Summary::default().render().contains("guided service"));
    }

    #[test]
    fn standalone_render_omits_federation_lines() {
        use crate::TenantAdmit;
        let mut s = Summary::default();
        s.add(&Event::TenantAdmit(TenantAdmit {
            broker: 0,
            tenant: "stream".into(),
            lease: 1,
            size: 1 << 20,
            placement: vec![(NodeId(0), 1 << 20)],
            clamped: false,
            fast_bytes: 0,
        }));
        let text = s.render();
        assert!(!text.contains("admissions by broker"), "{text}");
        assert!(!text.contains("federation"), "{text}");
    }

    #[test]
    fn render_mentions_key_facts() {
        let mut s = Summary::default();
        s.add(&decision(1, vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)], 2));
        let text = s.render();
        assert!(text.contains("1 ok"));
        assert!(text.contains("1 spilled"));
        assert!(text.contains("2 fallback hops"));
        assert!(text.contains("node 4: 1.00 GiB"));
        assert!(text.contains("node 0: 2.00 GiB"));
    }
}
