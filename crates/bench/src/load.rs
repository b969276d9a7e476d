//! Closed-loop multi-tenant load generator for the allocation broker.
//!
//! A population of synthetic clients drives a [`Broker`] through
//! think → allocate → hold → release cycles on a virtual tick clock.
//! Everything is deterministic: sizes, hold times and think times come
//! from a seeded [`SmallRng`], and the report holds outcomes only
//! (admits, denials, fast-tier bytes, clamps, simulated-memory stall
//! time), so the same seed always reproduces the same report. How fast
//! the broker serves is for a wall-clock benchmark to measure.
//!
//! The interesting output is the *aggregate fast-tier hit rate*: the
//! fraction of admitted bytes that landed on the machine's fast tier.
//! Under FCFS a single long-holding bandwidth hog captures the tier
//! and every later tenant eats DRAM; fair-share clamps the hog to its
//! weighted guarantee and the high-turnover latency tenants keep
//! hitting fast memory.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{AttrId, MemAttrs};
use hetmem_memsim::{FaultKind, FaultPlan, Machine};
use hetmem_service::{
    ArbitrationPolicy, Broker, Lease, Priority, ServiceError, TenantId, TenantSpec,
};
use hetmem_telemetry::{Event, RetryExhausted, TelemetrySink};
use hetmem_topology::MemoryKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One synthetic tenant population.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Tenant name (also the registration name on the broker).
    pub name: String,
    /// Priority class, which sets the fair-share weight.
    pub priority: Priority,
    /// Number of closed-loop clients cycling under this tenant.
    pub clients: u32,
    /// Inclusive request-size range in MiB.
    pub size_mib: (u64, u64),
    /// Inclusive hold duration range in ticks.
    pub hold_ticks: (u32, u32),
    /// Inclusive think-time range in ticks between release and the
    /// next request.
    pub think_ticks: (u32, u32),
    /// Ranking criterion for every request.
    pub criterion: AttrId,
    /// Fallback mode for every request.
    pub fallback: Fallback,
}

/// A complete load-harness configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Arbitration policy under test.
    pub policy: ArbitrationPolicy,
    /// The tenant populations.
    pub tenants: Vec<TenantProfile>,
    /// Number of virtual ticks to simulate.
    pub ticks: u32,
    /// Virtual duration of one tick (one service batch window).
    pub tick_ns: f64,
    /// RNG seed; same seed, same config, same report.
    pub seed: u64,
}

/// Per-tenant roll-up of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Tenant name.
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests denied outright.
    pub denied: u64,
    /// Admitted bytes that landed on the fast tier.
    pub fast_bytes: u64,
    /// Total admitted bytes.
    pub total_bytes: u64,
    /// Quota/fair-share clamps suffered.
    pub clamps: u64,
    /// Contention stalls charged.
    pub stalls: u64,
}

impl TenantLoad {
    /// Fraction of this tenant's admitted bytes on the fast tier.
    pub fn fast_hit(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.fast_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Aggregate result of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// The policy that produced this report.
    pub policy: ArbitrationPolicy,
    /// Requests admitted across all tenants.
    pub admitted: u64,
    /// Requests denied across all tenants.
    pub denied: u64,
    /// Admitted bytes that landed on the fast tier.
    pub fast_bytes: u64,
    /// Total admitted bytes.
    pub total_bytes: u64,
    /// Quota/fair-share clamps across all tenants.
    pub clamps: u64,
    /// Total contention stall time charged across all tenants.
    pub stall_ns: f64,
    /// Per-tenant breakdown, in profile order.
    pub per_tenant: Vec<TenantLoad>,
    /// Fault-injection roll-up; `None` for plain (chaos-free) runs.
    pub chaos: Option<ChaosStats>,
}

impl LoadReport {
    /// Aggregate fast-tier hit rate: fast bytes over admitted bytes.
    pub fn fast_hit(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.fast_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Chaos-mode add-ons to a [`LoadConfig`]: a fault schedule, a default
/// lease TTL so abandoned capacity is reclaimed, and a retry budget
/// for stalled allocations.
#[derive(Clone)]
pub struct ChaosConfig {
    /// The fault schedule, in tick epochs.
    pub plan: FaultPlan,
    /// Default lease TTL in epochs for every tenant; leases of dead or
    /// silent clients are reclaimed within one TTL.
    pub lease_ttl: Option<u64>,
    /// Attempts per allocation (first try included) before a stalled
    /// request is abandoned as `retry_exhausted`.
    pub retry_attempts: u32,
    /// Telemetry sink for the broker's lifecycle events and the
    /// harness's `retry_exhausted` events.
    pub sink: Option<TelemetrySink>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig { plan: FaultPlan::new(), lease_ttl: None, retry_attempts: 4, sink: None }
    }
}

impl ChaosConfig {
    fn enabled(&self) -> bool {
        !self.plan.is_empty() || self.lease_ttl.is_some()
    }
}

/// What the fault injection did to one load run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Faults fired from the plan.
    pub faults_injected: u64,
    /// Tier-degradation faults.
    pub degradations: u64,
    /// Clients killed.
    pub drops: u64,
    /// Clients slowed.
    pub slowdowns: u64,
    /// Allocation-stall faults.
    pub stalls_injected: u64,
    /// Allocations retried after a stall.
    pub stall_retries: u64,
    /// Allocations abandoned after the retry budget ran out.
    pub retry_exhausted: u64,
    /// Requests denied while the machine still had enough total free
    /// capacity under a spill fallback — the graceful-degradation
    /// failure the broker must avoid.
    pub hard_failures: u64,
    /// Leases reclaimed by TTL expiry.
    pub expired: u64,
    /// Leases reclaimed by revocation.
    pub revoked: u64,
    /// Bytes returned by expiry and revocation together.
    pub reclaimed_bytes: u64,
}

/// Inclusive uniform draw without `gen_range` (the offline `rand`
/// stub only provides `gen`).
pub(crate) fn draw(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    let span = hi - lo + 1;
    lo + ((rng.gen::<f64>() * span as f64) as u64).min(span - 1)
}

enum ClientState {
    Thinking { until: u32 },
    Holding { lease: Lease, until: u32 },
}

struct Client {
    tenant: TenantId,
    profile: usize,
    state: ClientState,
    /// Killed by a `ClientDrop` fault; never acts again and never
    /// releases what it holds.
    dead: bool,
    /// Paused by a `SlowClient` fault until this tick: no renewals, no
    /// new requests.
    slow_until: u32,
    /// Stall retries already burned on the current request.
    attempts: u32,
}

/// Runs one closed-loop load simulation against a fresh broker.
///
/// Each tick is one service batch: the epoch advances, releases are
/// settled, due clients issue their next request in a fixed
/// deterministic order, and holding clients charge their traffic to
/// the contention board.
pub fn run_load(machine: Arc<Machine>, attrs: Arc<MemAttrs>, cfg: &LoadConfig) -> LoadReport {
    run_load_chaos(machine, attrs, cfg, &ChaosConfig::default())
}

/// Total free bytes across every node, from the broker's ledger.
fn total_free(broker: &Broker) -> u64 {
    broker.node_usage().iter().map(|&(_, used, total)| total.saturating_sub(used)).sum()
}

/// [`run_load`] with fault injection: before each tick the due faults
/// of `chaos.plan` fire (tiers degrade and later recover, clients die
/// or go silent, the allocator stalls), live clients renew their
/// TTL'd leases every tick, and stalled allocations retry with a
/// bounded budget. Deterministic: the same config and plan always
/// produce the same report, including the chaos roll-up.
pub fn run_load_chaos(
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
    cfg: &LoadConfig,
    chaos: &ChaosConfig,
) -> LoadReport {
    let mut broker = Broker::new(machine, attrs, cfg.policy);
    if let Some(sink) = &chaos.sink {
        broker.set_sink(sink.clone());
    }
    let broker = broker;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut clients = Vec::new();
    let mut tallies: Vec<(u64, u64, u64, u64)> = Vec::new(); // admitted, denied, fast, total
    for (i, profile) in cfg.tenants.iter().enumerate() {
        let mut spec = TenantSpec::new(&profile.name).priority(profile.priority);
        if let Some(ttl) = chaos.lease_ttl {
            spec = spec.lease_ttl(ttl);
        }
        let id = broker.register(spec).expect("load tenants register");
        tallies.push((0, 0, 0, 0));
        for _ in 0..profile.clients {
            // Stagger first arrivals a little so ties are not an
            // artifact of declaration order alone.
            let until = draw(&mut rng, 0, profile.think_ticks.1 as u64) as u32;
            clients.push(Client {
                tenant: id,
                profile: i,
                state: ClientState::Thinking { until },
                dead: false,
                slow_until: 0,
                attempts: 0,
            });
        }
    }

    let mut chaos_stats = ChaosStats::default();
    // (restore_tick, tier) entries for degradations still in force.
    let mut restores: Vec<(u32, MemoryKind)> = Vec::new();
    let mut stall_ns = 0.0;
    for tick in 0..cfg.ticks {
        broker.advance_epoch();
        for (restore_at, kind) in &restores {
            if *restore_at == tick {
                broker.set_tier_degraded(*kind, false);
            }
        }
        restores.retain(|&(restore_at, _)| restore_at > tick);
        for fault in chaos.plan.at(tick as u64) {
            chaos_stats.faults_injected += 1;
            match &fault.kind {
                FaultKind::TierDegraded { kind, epochs } => {
                    broker.set_tier_degraded(*kind, true);
                    restores.push((tick.saturating_add(*epochs as u32), *kind));
                    chaos_stats.degradations += 1;
                }
                FaultKind::ClientDrop { victim } => {
                    let idx = (*victim as usize) % clients.len();
                    if !clients[idx].dead {
                        clients[idx].dead = true;
                        chaos_stats.drops += 1;
                    }
                }
                FaultKind::SlowClient { victim, epochs } => {
                    let idx = (*victim as usize) % clients.len();
                    clients[idx].slow_until = tick.saturating_add(*epochs as u32);
                    chaos_stats.slowdowns += 1;
                }
                FaultKind::AllocStall { epochs } => {
                    broker.set_alloc_stall(*epochs);
                    chaos_stats.stalls_injected += 1;
                }
            }
        }
        for client in &mut clients {
            if client.dead || tick < client.slow_until {
                // Dead and silent clients neither renew nor request;
                // their TTL'd leases age out and get reclaimed.
                continue;
            }
            let profile = &cfg.tenants[client.profile];
            match &mut client.state {
                ClientState::Holding { until, .. } if tick >= *until => {
                    let ClientState::Holding { lease, .. } = std::mem::replace(
                        &mut client.state,
                        ClientState::Thinking {
                            until: tick
                                + 1
                                + draw(
                                    &mut rng,
                                    profile.think_ticks.0 as u64,
                                    profile.think_ticks.1 as u64,
                                ) as u32,
                        },
                    ) else {
                        unreachable!()
                    };
                    // A lease that expired during a silent stretch is
                    // already reclaimed; that release just misses.
                    let _ = broker.release(lease);
                }
                ClientState::Holding { lease, .. } => {
                    // The per-tick heartbeat; a miss means the lease
                    // expired while this client was silent.
                    if chaos.lease_ttl.is_some() && broker.renew(client.tenant, lease.id()).is_err()
                    {
                        client.state = ClientState::Thinking { until: tick + 1 };
                        continue;
                    }
                    // Touch the whole lease once per tick.
                    stall_ns +=
                        broker.charge_traffic(client.tenant, lease.placement(), cfg.tick_ns);
                }
                ClientState::Thinking { until } if tick >= *until => {
                    let size = draw(&mut rng, profile.size_mib.0, profile.size_mib.1) << 20;
                    let req = AllocRequest::new(size)
                        .criterion(profile.criterion)
                        .fallback(profile.fallback)
                        .any_locality();
                    match broker.acquire(client.tenant, &req) {
                        Ok(lease) => {
                            client.attempts = 0;
                            let t = &mut tallies[client.profile];
                            t.0 += 1;
                            t.2 += lease.fast_bytes();
                            t.3 += lease.size();
                            let hold = draw(
                                &mut rng,
                                profile.hold_ticks.0 as u64,
                                profile.hold_ticks.1 as u64,
                            ) as u32;
                            client.state = ClientState::Holding { lease, until: tick + 1 + hold };
                        }
                        Err(ServiceError::Stalled) => {
                            client.attempts += 1;
                            if client.attempts >= chaos.retry_attempts.max(1) {
                                chaos_stats.retry_exhausted += 1;
                                if let Some(sink) = &chaos.sink {
                                    sink.emit(Event::RetryExhausted(RetryExhausted {
                                        tenant: profile.name.clone(),
                                        op: "alloc".into(),
                                        attempts: client.attempts as u64,
                                        last_error: ServiceError::Stalled.to_string(),
                                    }));
                                }
                                client.attempts = 0;
                                let think = draw(
                                    &mut rng,
                                    profile.think_ticks.0 as u64,
                                    profile.think_ticks.1 as u64,
                                ) as u32;
                                client.state = ClientState::Thinking { until: tick + 1 + think };
                            } else {
                                // Capped exponential backoff on the
                                // tick clock: 1, 2, 4, 8, 8, ... ticks.
                                chaos_stats.stall_retries += 1;
                                let delay = 1u32 << (client.attempts - 1).min(3);
                                client.state = ClientState::Thinking { until: tick + delay };
                            }
                        }
                        Err(ServiceError::Admission { .. }) => {
                            client.attempts = 0;
                            if profile.fallback == Fallback::PartialSpill
                                && total_free(&broker) >= size
                            {
                                // Denied despite enough total free
                                // capacity: a hard failure the
                                // degradation machinery should prevent.
                                chaos_stats.hard_failures += 1;
                            }
                            tallies[client.profile].1 += 1;
                            let think = draw(
                                &mut rng,
                                profile.think_ticks.0 as u64,
                                profile.think_ticks.1 as u64,
                            ) as u32;
                            client.state = ClientState::Thinking { until: tick + 1 + think };
                        }
                        Err(e) => panic!("load harness misconfigured: {e}"),
                    }
                }
                ClientState::Thinking { .. } => {}
            }
        }
    }
    // Drain so the broker ends quiescent (and invariants can be
    // checked by callers). Dead clients' unexpired leases are revoked
    // the way a supervisor would on teardown.
    for client in clients {
        if let ClientState::Holding { lease, .. } = client.state {
            if client.dead {
                let _ = broker.revoke(lease.id(), "teardown");
            } else {
                let _ = broker.release(lease);
            }
        }
    }
    broker.check_invariants().expect("broker consistent after load run");

    let stats = broker.tenants();
    let per_tenant: Vec<TenantLoad> = cfg
        .tenants
        .iter()
        .zip(&tallies)
        .map(|(profile, &(admitted, denied, fast, total))| {
            let s =
                stats.iter().find(|s| s.name == profile.name).expect("registered tenant has stats");
            TenantLoad {
                name: profile.name.clone(),
                priority: profile.priority,
                admitted,
                denied,
                fast_bytes: fast,
                total_bytes: total,
                clamps: s.clamps,
                stalls: s.stalls,
            }
        })
        .collect();
    let chaos_rollup = chaos.enabled().then(|| {
        let r = broker.robustness();
        chaos_stats.expired = r.expired;
        chaos_stats.revoked = r.revoked;
        chaos_stats.reclaimed_bytes = r.reclaimed_bytes;
        chaos_stats
    });
    LoadReport {
        policy: cfg.policy,
        admitted: per_tenant.iter().map(|t| t.admitted).sum(),
        denied: per_tenant.iter().map(|t| t.denied).sum(),
        fast_bytes: per_tenant.iter().map(|t| t.fast_bytes).sum(),
        total_bytes: per_tenant.iter().map(|t| t.total_bytes).sum(),
        clamps: per_tenant.iter().map(|t| t.clamps).sum(),
        stall_ns,
        per_tenant,
        chaos: chaos_rollup,
    }
}

/// The canonical contention workload used by `repro_tables --service`:
/// one long-holding bandwidth hog (a resident batch service) against
/// three interactive latency tenants with small, high-turnover
/// bandwidth requests, on the KNL's ~15 GiB MCDRAM tier.
pub fn knl_contention(policy: ArbitrationPolicy) -> LoadConfig {
    use hetmem_core::attr;
    // The hog's 6 GiB ask fits inside its cross-tier fair-share
    // guarantee (~1.2 GiB of MCDRAM + ~5.4 GiB of DRAM), so every
    // policy admits it — fair-share and static just clamp its MCDRAM
    // slice, while FCFS hands it 40% of the fast tier outright.
    let mut tenants = vec![TenantProfile {
        name: "hog".into(),
        priority: Priority::Batch,
        clients: 1,
        size_mib: (6 * 1024, 6 * 1024),
        hold_ticks: (10_000, 10_000), // never releases within the run
        think_ticks: (0, 0),
        criterion: attr::BANDWIDTH,
        fallback: Fallback::PartialSpill,
    }];
    for name in ["interactive-a", "interactive-b", "interactive-c"] {
        tenants.push(TenantProfile {
            name: name.into(),
            priority: Priority::Latency,
            clients: 5,
            size_mib: (512, 1536),
            hold_ticks: (2, 6),
            think_ticks: (1, 3),
            criterion: attr::BANDWIDTH,
            fallback: Fallback::PartialSpill,
        });
    }
    LoadConfig { policy, tenants, ticks: 240, tick_ns: 1e6, seed: 0x5e1f_1e55 }
}

/// The canonical chaos workload for `repro_tables --chaos`: the KNL
/// contention mix plus a seeded fault plan hammering the MCDRAM tier,
/// an 8-epoch lease TTL, and a 5-attempt retry budget.
pub fn knl_chaos(policy: ArbitrationPolicy, seed: u64) -> (LoadConfig, ChaosConfig) {
    let cfg = knl_contention(policy);
    let clients: u64 = cfg.tenants.iter().map(|t| t.clients as u64).sum();
    let plan = FaultPlan::seeded(seed, cfg.ticks as u64, clients, &[MemoryKind::Hbm]);
    let chaos = ChaosConfig { plan, lease_ttl: Some(8), retry_attempts: 5, sink: None };
    (cfg, chaos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    #[test]
    fn same_seed_same_report() {
        let ctx = Ctx::knl();
        let cfg = knl_contention(ArbitrationPolicy::FairShare);
        let a = run_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        let b = run_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_same_seed_same_report() {
        let ctx = Ctx::knl();
        let (cfg, chaos) = knl_chaos(ArbitrationPolicy::FairShare, 0xc4a0);
        let a = run_load_chaos(ctx.machine.clone(), ctx.attrs.clone(), &cfg, &chaos);
        let b = run_load_chaos(ctx.machine.clone(), ctx.attrs.clone(), &cfg, &chaos);
        assert_eq!(a, b, "chaos runs are bit-identical across reruns");
        assert!(a.chaos.is_some(), "chaos runs report a chaos roll-up");
    }

    #[test]
    fn chaos_reclaims_abandoned_capacity_and_never_hard_fails() {
        let ctx = Ctx::knl();
        let sink = TelemetrySink::with_ring_words(1 << 18);
        let (cfg, mut chaos) = knl_chaos(ArbitrationPolicy::FairShare, 0xc4a0);
        chaos.sink = Some(sink.clone());
        let report = run_load_chaos(ctx.machine.clone(), ctx.attrs.clone(), &cfg, &chaos);
        let stats = report.chaos.expect("chaos roll-up");
        assert!(stats.degradations > 0, "plan degrades the fast tier: {stats:?}");
        assert!(stats.drops > 0, "plan kills at least one client: {stats:?}");
        assert!(stats.expired > 0, "abandoned leases age out within a TTL: {stats:?}");
        assert!(stats.reclaimed_bytes > 0, "reclaim returns real capacity: {stats:?}");
        assert_eq!(
            stats.hard_failures, 0,
            "no request hard-fails while the machine has capacity: {stats:?}"
        );
        // The lifecycle is observable in the trace, not just counters.
        let events = sink.collector().drain_sorted();
        for kind in ["tier_degraded", "reclaim", "lease_expired"] {
            assert!(
                events.iter().any(|e| e.event.kind() == kind),
                "trace lacks {kind} events ({} events total)",
                events.len()
            );
        }
        // Work still got done under chaos.
        assert!(report.admitted > 0);
    }

    #[test]
    fn fair_share_beats_fcfs_on_aggregate_fast_tier_hit_rate() {
        let ctx = Ctx::knl();
        let fair = run_load(
            ctx.machine.clone(),
            ctx.attrs.clone(),
            &knl_contention(ArbitrationPolicy::FairShare),
        );
        let fcfs = run_load(
            ctx.machine.clone(),
            ctx.attrs.clone(),
            &knl_contention(ArbitrationPolicy::Fcfs),
        );
        assert!(
            fair.fast_hit() > fcfs.fast_hit() + 0.10,
            "fair-share {:.3} should clearly beat fcfs {:.3}",
            fair.fast_hit(),
            fcfs.fast_hit()
        );
        // The hog is the one paying for it: admitted but clamped off
        // the fast tier under fair-share, unclamped under FCFS.
        assert!(fair.per_tenant[0].admitted > 0);
        assert!(fair.per_tenant[0].clamps > 0);
        assert!(fair.per_tenant[0].fast_hit() < fcfs.per_tenant[0].fast_hit());
        assert_eq!(fcfs.per_tenant[0].clamps, 0);
        // And the interactive tenants get their fast tier back.
        for t in &fair.per_tenant[1..] {
            let twin = fcfs.per_tenant.iter().find(|f| f.name == t.name).expect("same tenants");
            assert!(
                t.fast_hit() > twin.fast_hit(),
                "{}: fair {:.3} <= fcfs {:.3}",
                t.name,
                t.fast_hit(),
                twin.fast_hit()
            );
        }
    }
}
