//! Deterministic tenant-mix sweep for the broker's guided service.
//!
//! [`run_guided_load`] replays a two-era KNL workload through a real
//! [`Broker`] with guidance on or off and measures where the traffic
//! actually landed. One batch-class hog arrives first and — fair
//! share being work-conserving — borrows the entire 16 GiB MCDRAM
//! tier for a 14 GiB resident lease plus a 2 GiB alternate; the
//! latency-class tenants that register next start wholly off the fast
//! tier. In era one the hog streams over its resident lease; in era
//! two its working set shifts to the alternate, so the resident lease
//! goes cold *in the hog's own guidance plane*. An unguided broker
//! never revisits placement and the latency tenants stay on DRAM for
//! the whole run; a guided broker's epoch fold demotes the cold
//! resident lease and promotes the hot tenants into the freed
//! MCDRAM, priority first.
//!
//! The headline metric is the traffic-weighted fast-tier byte
//! fraction — every phase's per-node read+write bytes from the memsim
//! report, split by memory kind — over the whole run and over era two
//! alone (the window where adaptation can pay). Sampling overhead is
//! the planes' own modelled cost against total modelled phase time,
//! so the "bounded overhead" claim is checked, not asserted.
//! Everything is seeded-schedule deterministic and wall-clock-free:
//! the same config produces the same report on any machine, and
//! `repro_tables --guided-service` persists the sweep into
//! `BENCH_guided.json`, which CI regenerates byte for byte.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, MemAttrs};
use hetmem_memsim::{AccessPattern, BufferAccess, Machine, Phase, PhaseReport, RegionId};
use hetmem_service::{
    ArbitrationPolicy, Broker, GuidedConfig, Lease, Priority, TenantId, TenantSpec,
};
use hetmem_topology::GIB;
use std::sync::Arc;

/// One guided-service sweep point.
#[derive(Debug, Clone)]
pub struct GuidedLoadConfig {
    /// Latency-class tenants competing for the fast tier the hog
    /// captured (each holds a 2 GiB lease).
    pub hot_tenants: u32,
    /// Run with the guidance plane folded into the broker.
    pub guided: bool,
    /// Arbitration policy under test.
    pub policy: ArbitrationPolicy,
    /// Epochs the hog spends on its resident lease.
    pub era1: u32,
    /// Epochs after the hog's working set shifts to the alternate.
    pub era2: u32,
    /// Tag for the emitted bench records; the schedule itself is
    /// deterministic and does not consume it.
    pub seed: u64,
}

/// Bytes each tenant streams over its lease per epoch.
const PHASE_BYTES: u64 = 2 * GIB;

/// The canonical sweep point: a 16 GiB-resident hog against
/// `hot_tenants` latency tenants on the KNL, eight epochs before the
/// shift and sixteen after (the guided fold needs a hotness window of
/// cold traffic before it trusts a demotion).
pub fn knl_guided_load(
    hot_tenants: u32,
    guided: bool,
    policy: ArbitrationPolicy,
) -> GuidedLoadConfig {
    GuidedLoadConfig { hot_tenants, guided, policy, era1: 8, era2: 16, seed: 0x6d1d }
}

/// Result of one sweep point. `PartialEq` so determinism tests can
/// compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidedLoadReport {
    /// Latency tenants this run mixed against the hog.
    pub hot_tenants: u32,
    /// Whether guidance was on.
    pub guided: bool,
    /// Traffic-weighted fast-tier byte fraction, whole run.
    pub fast_frac: f64,
    /// Fast-tier byte fraction over era two only.
    pub era2_fast_frac: f64,
    /// Era-two fast-tier fraction of the latency tenants' traffic
    /// alone — the cohort guidance exists to rescue.
    pub hot_era2_fast_frac: f64,
    /// Promotions the folds executed (0 when unguided).
    pub promotions: u64,
    /// Demotions the folds executed (0 when unguided).
    pub demotions: u64,
    /// Total modelled sampling overhead across all planes, ns.
    pub overhead_ns: f64,
    /// Total modelled phase time (contention stalls included), ns.
    pub total_ns: f64,
}

impl GuidedLoadReport {
    /// Sampling overhead as a fraction of total modelled phase time.
    pub fn overhead_frac(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.overhead_ns / self.total_ns
        }
    }
}

/// Fast-tier and total bytes one phase report moved, by the machine's
/// node kinds.
fn phase_traffic(machine: &Machine, broker: &Broker, report: &PhaseReport) -> (u64, u64) {
    let fast = broker.fast_kind();
    let mut fast_bytes = 0;
    let mut total = 0;
    for (&node, t) in &report.per_node {
        let bytes = t.bytes_read + t.bytes_written;
        total += bytes;
        if machine.topology().node_kind(node) == Some(fast) {
            fast_bytes += bytes;
        }
    }
    (fast_bytes, total)
}

/// Runs one sweep point. All broker work (admission, epoch folds,
/// migrations) is real; the phase times come from the memsim cost
/// model, so the report is bit-identical across reruns.
pub fn run_guided_load(
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
    cfg: &GuidedLoadConfig,
) -> GuidedLoadReport {
    let mut broker = Broker::new(machine.clone(), attrs, cfg.policy);
    if cfg.guided {
        // The default policy, with a hotness window sized to the
        // per-epoch traffic so an era shift is trusted within a few
        // folds rather than tens.
        let mut gcfg = GuidedConfig::default();
        gcfg.policy.window_bytes = 1 << 30;
        broker.enable_guidance(gcfg);
    }
    let bw_request = |bytes: u64| {
        AllocRequest::new(bytes).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill)
    };
    let phase = |region: RegionId| Phase {
        name: "p".into(),
        accesses: vec![BufferAccess::new(region, PHASE_BYTES, 0, AccessPattern::Sequential)],
        threads: 16,
        initiator: "0-15".parse().expect("cpuset"),
        compute_ns: 0.0,
    };

    // The hog arrives alone and captures the whole fast tier.
    let hog =
        broker.register(TenantSpec::new("hog").priority(Priority::Batch)).expect("hog registers");
    let big = broker.acquire(hog, &bw_request(14 * GIB)).expect("hog resident lease");
    let alt = broker.acquire(hog, &bw_request(2 * GIB)).expect("hog alternate lease");
    let mut hot: Vec<(TenantId, Lease)> = (0..cfg.hot_tenants)
        .map(|i| {
            let t = broker
                .register(TenantSpec::new(format!("hot{i}")).priority(Priority::Latency))
                .expect("hot tenant registers");
            let lease = broker.acquire(t, &bw_request(2 * GIB)).expect("hot tenant admitted");
            (t, lease)
        })
        .collect();

    let (mut fast_bytes, mut total_bytes) = (0u64, 0u64);
    let (mut era2_fast, mut era2_total) = (0u64, 0u64);
    let (mut hot2_fast, mut hot2_total) = (0u64, 0u64);
    let mut total_ns = 0.0;
    for epoch in 0..cfg.era1 + cfg.era2 {
        let era2 = epoch >= cfg.era1;
        let hog_region = if era2 { alt.region() } else { big.region() };
        let served = broker.run_phase(hog, &phase(hog_region)).expect("hog phase");
        total_ns += served.time_ns();
        let (f, t) = phase_traffic(&machine, &broker, &served.report);
        fast_bytes += f;
        total_bytes += t;
        if era2 {
            era2_fast += f;
            era2_total += t;
        }
        for (tenant, lease) in &hot {
            let served = broker.run_phase(*tenant, &phase(lease.region())).expect("hot phase");
            total_ns += served.time_ns();
            let (f, t) = phase_traffic(&machine, &broker, &served.report);
            fast_bytes += f;
            total_bytes += t;
            if era2 {
                era2_fast += f;
                era2_total += t;
                hot2_fast += f;
                hot2_total += t;
            }
        }
        broker.advance_epoch();
    }

    broker.check_invariants().expect("broker consistent after guided sweep");
    let (mut promotions, mut demotions, mut overhead_ns) = (0u64, 0u64, 0.0);
    if let Some(stats) = broker.guided_stats() {
        for (_, s) in stats {
            promotions += s.promotions;
            demotions += s.demotions;
            overhead_ns += s.overhead_ns;
        }
    }
    for (_, lease) in hot.drain(..) {
        broker.release(lease).expect("hot lease releases");
    }
    broker.release(alt).expect("alt releases");
    broker.release(big).expect("big releases");

    let frac = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    GuidedLoadReport {
        hot_tenants: cfg.hot_tenants,
        guided: cfg.guided,
        fast_frac: frac(fast_bytes, total_bytes),
        era2_fast_frac: frac(era2_fast, era2_total),
        hot_era2_fast_frac: frac(hot2_fast, hot2_total),
        promotions,
        demotions,
        overhead_ns,
        total_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    #[test]
    fn same_config_same_report() {
        let ctx = Ctx::knl();
        let cfg = knl_guided_load(2, true, ArbitrationPolicy::FairShare);
        let a = run_guided_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        let b = run_guided_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        assert_eq!(a, b, "guided sweep points are bit-identical across reruns");
    }

    #[test]
    fn guidance_rescues_the_latency_cohort_at_bounded_overhead() {
        let ctx = Ctx::knl();
        for mix in [1, 4] {
            let guided = run_guided_load(
                ctx.machine.clone(),
                ctx.attrs.clone(),
                &knl_guided_load(mix, true, ArbitrationPolicy::FairShare),
            );
            let unguided = run_guided_load(
                ctx.machine.clone(),
                ctx.attrs.clone(),
                &knl_guided_load(mix, false, ArbitrationPolicy::FairShare),
            );
            assert!(
                guided.era2_fast_frac > unguided.era2_fast_frac,
                "mix {mix}: guided era-2 fast fraction {:.3} must beat unguided {:.3}",
                guided.era2_fast_frac,
                unguided.era2_fast_frac
            );
            assert!(
                guided.hot_era2_fast_frac > unguided.hot_era2_fast_frac,
                "mix {mix}: the latency cohort must gain fast-tier traffic"
            );
            assert!(guided.promotions >= mix as u64, "every latency tenant promotes");
            assert!(guided.demotions >= 1, "the hog's cold lease demotes");
            assert!(
                guided.overhead_frac() < 0.01,
                "mix {mix}: sampling overhead {:.4} must stay under 1%",
                guided.overhead_frac()
            );
            assert_eq!(unguided.promotions, 0, "unguided brokers never migrate");
        }
    }
}
