//! Deterministic sweep of the sharded serve plane.
//!
//! [`run_shard_load`] posts a seeded request stream onto a
//! [`Plane`] — the module whose calls `hetmem-serve`'s threads make —
//! with one connection per tenant, so connection `t` routes to shard
//! `t mod S`. Each round, every shard serves its queue through the
//! plane's merge runs, all on one thread. The report holds outcomes
//! only: admits, denials, fast-tier hit rate, clamps and merge runs.
//! Admission is real — every request goes through the broker's
//! ranking, fair-share arbitration and commit path — so the numbers
//! are facts, and the same config produces the same report on any
//! machine. The sweep has no clock: how fast a sharded daemon serves
//! is for a wall-clock benchmark to measure.

use crate::load::draw;
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, MemAttrs};
use hetmem_memsim::Machine;
use hetmem_service::shard::{Ask, Plane, Step, Turn};
use hetmem_service::{ArbitrationPolicy, Broker, Lease, Priority, ServiceError, TenantSpec};
use hetmem_telemetry::{Event, TelemetrySink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One sharded-plane sweep point.
#[derive(Debug, Clone)]
pub struct ShardLoadConfig {
    /// Dispatch shards; coalescing is on when there are two or more.
    pub shards: u32,
    /// Arbitration policy under test.
    pub policy: ArbitrationPolicy,
    /// Rounds simulated; each opens one epoch.
    pub ticks: u32,
    /// Requests posted per round.
    pub arrivals_per_tick: u32,
    /// Rounds a granted lease is held before release.
    pub hold_ticks: u32,
    /// Inclusive request-size range in MiB.
    pub size_mib: (u64, u64),
    /// RNG seed; same seed, same config, same report.
    pub seed: u64,
}

/// Result of one sweep point. `PartialEq` so determinism tests can
/// compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoadReport {
    /// Shard count.
    pub shards: u32,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests denied.
    pub denied: u64,
    /// Aggregate fast-tier hit rate (admitted bytes).
    pub fast_hit: f64,
    /// Fair-share / quota clamps across all tenants.
    pub clamps: u64,
    /// `batch_coalesced` events the broker emitted.
    pub merged_batches: u64,
    /// Requests covered by those merges.
    pub merged_requests: u64,
}

/// The canonical KNL sweep point: eight even fair-share tenants (four
/// latency-class, four batch-class) whose steady-state footprint
/// oversubscribes the ~16 GiB MCDRAM tier about 2×, so placement
/// spills and the fast tier is genuinely contended. The tenant count
/// is a multiple of every swept shard count, so the shards are evenly
/// loaded and the fast-hit parity across `S` is the plane's, not a
/// skew artifact. `shards == 1` is serial admission, the baseline the
/// parity is anchored to.
pub fn knl_shard_load(shards: u32) -> ShardLoadConfig {
    ShardLoadConfig {
        shards,
        policy: ArbitrationPolicy::FairShare,
        ticks: 16,
        arrivals_per_tick: 1024,
        hold_ticks: 2,
        size_mib: (8, 24),
        seed: 0x5aa2_d10a,
    }
}

/// Runs one sweep point. See the module docs; the broker work
/// (registration, ranking, arbitration, commit, release) is real and
/// single-threaded-deterministic.
pub fn run_shard_load(
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
    cfg: &ShardLoadConfig,
) -> ShardLoadReport {
    const TENANTS: u32 = 8;
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let mut collector = sink.collector();
    let mut broker = Broker::new(machine, attrs, cfg.policy);
    broker.set_sink(sink);
    let mut tenants = Vec::new();
    for i in 0..TENANTS {
        let priority = if i % 2 == 0 { Priority::Latency } else { Priority::Batch };
        let id = broker
            .register(TenantSpec::new(format!("shard-t{i}")).priority(priority))
            .expect("sweep tenants register");
        tenants.push(id);
    }
    let broker = Arc::new(broker);
    let plane = Plane::new(broker.clone(), cfg.shards);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut ledger: Vec<(u32, Lease)> = Vec::new();
    let (mut admitted, mut denied) = (0u64, 0u64);
    let (mut fast_bytes, mut total_bytes) = (0u64, 0u64);
    let (mut merged_batches, mut merged_requests) = (0u64, 0u64);

    for tick in 0..cfg.ticks {
        broker.advance_epoch();
        let mut keep = Vec::new();
        for (due, lease) in ledger.drain(..) {
            if due <= tick {
                broker.release(lease).expect("sweep leases release");
            } else {
                keep.push((due, lease));
            }
        }
        ledger = keep;

        for k in 0..cfg.arrivals_per_tick {
            let tenant = tenants[(k % TENANTS) as usize];
            let size = draw(&mut rng, cfg.size_mib.0, cfg.size_mib.1) << 20;
            let req = AllocRequest::new(size)
                .criterion(attr::BANDWIDTH)
                .fallback(Fallback::PartialSpill)
                .any_locality();
            plane.post(Ask { conn: tenant.0 as u64, tag: 0, tenant, req, ttl: None });
        }

        let mut outcomes = Vec::new();
        for shard in 0..plane.shards() {
            let mut turn = Turn::reader(false);
            while let Step::Tick(frames) = plane.next(shard, &mut turn) {
                plane.serve_tick(shard, frames, |_, outcome| outcomes.push(outcome));
            }
        }
        for outcome in outcomes {
            match outcome.expect("an ask is an alloc") {
                Ok(lease) => {
                    admitted += 1;
                    fast_bytes += lease.fast_bytes();
                    total_bytes += lease.size();
                    ledger.push((tick + cfg.hold_ticks, lease));
                }
                Err(ServiceError::Admission { .. }) => denied += 1,
                Err(e) => panic!("shard sweep misconfigured: {e}"),
            }
        }
        for record in collector.drain_sorted() {
            if let Event::BatchCoalesced(bc) = &record.event {
                merged_batches += 1;
                merged_requests += bc.merged;
            }
        }
    }

    for (_, lease) in ledger {
        broker.release(lease).expect("sweep leases release");
    }
    broker.check_invariants().expect("broker consistent after shard sweep");
    ShardLoadReport {
        shards: cfg.shards,
        admitted,
        denied,
        fast_hit: if total_bytes == 0 { 0.0 } else { fast_bytes as f64 / total_bytes as f64 },
        clamps: broker.tenants().iter().map(|t| t.clamps).sum(),
        merged_batches,
        merged_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    #[test]
    fn same_seed_same_report() {
        let ctx = Ctx::knl();
        let cfg = knl_shard_load(4);
        let a = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        let b = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        assert_eq!(a, b, "shard sweep points are bit-identical across reruns");
    }

    #[test]
    fn sharding_keeps_fairness_and_merges_only_runs() {
        let ctx = Ctx::knl();
        let baseline = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &knl_shard_load(1));
        for shards in [2, 4, 8] {
            let r = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &knl_shard_load(shards));
            assert!(
                (r.fast_hit - baseline.fast_hit).abs() <= 0.01,
                "{shards}-shard fast hit {:.4} drifted over 1pp from baseline {:.4}",
                r.fast_hit,
                baseline.fast_hit
            );
            // Tenants arrive interleaved, so a shard's queue holds runs
            // of one tenant only when it serves one tenant: at S = 8.
            if shards == 8 {
                assert!(r.merged_batches > 0, "coalescing fired at {shards} shards");
            } else {
                assert_eq!(r.merged_batches, 0, "no same-tenant runs at {shards} shards");
            }
        }
    }
}
