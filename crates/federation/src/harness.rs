//! A federated record/replay harness: drives a federation through a
//! seeded workload (allocations that spill across brokers, renewals,
//! frees, heartbeats, gossip every epoch), recording every issued
//! request into per-broker wire logs, then replays **each broker's
//! log independently** against the pristine federated snapshot and
//! checks every broker's final state and telemetry summary byte for
//! byte (`docs/PROTOCOL.md` §8.5).

use crate::{FederatedLease, Federation, FederationConfig};
use hetmem_alloc::Fallback;
use hetmem_core::{attr, discovery};
use hetmem_memsim::{Machine, SplitMix64};
use hetmem_service::{ArbitrationPolicy, Priority};
use hetmem_snapshot::{replay, FederatedSnapshot, ReplayReport, Snapshot, SnapshotError, WireLog};
use hetmem_telemetry::{Collector, Event};
use std::sync::Arc;

const MIB: u64 = 1 << 20;

/// Knobs for [`federated_record_replay`].
#[derive(Debug, Clone)]
pub struct FederatedHarnessConfig {
    /// Seed for the request stream.
    pub seed: u64,
    /// Run length in epochs.
    pub epochs: u64,
    /// Synthetic tenant count.
    pub tenants: u32,
    /// Member broker count.
    pub members: u32,
    /// Whether shortfalls spill to peers.
    pub spill: bool,
    /// When true every allocation homes on broker 0 (saturating its
    /// shard so shortfalls — and spills — actually happen); when
    /// false tenants home round-robin across members.
    pub skew: bool,
}

impl Default for FederatedHarnessConfig {
    fn default() -> FederatedHarnessConfig {
        FederatedHarnessConfig {
            seed: 0xfed0,
            epochs: 32,
            tenants: 4,
            members: 2,
            spill: true,
            skew: true,
        }
    }
}

/// What one federated harness run produced.
#[derive(Debug, Clone)]
pub struct FederatedOutcome {
    /// Encoded federated snapshot size, bytes.
    pub snapshot_bytes: u64,
    /// Encoded per-broker wire-log sizes, bytes.
    pub log_bytes: Vec<u64>,
    /// Request frames recorded across all logs.
    pub requests_recorded: u64,
    /// Bytes requested by the workload (denied requests included).
    pub requested_bytes: u64,
    /// Bytes actually granted (all parts of all leases).
    pub granted_bytes: u64,
    /// Of those, bytes that landed on a fast tier.
    pub fast_bytes: u64,
    /// Allocations that committed a remote part.
    pub spills: u64,
    /// Summed modelled forwarding cost of those spills, ns.
    pub spill_cost_ns: f64,
    /// Digest merges applied across all gossip rounds.
    pub digest_merges: u64,
    /// Per-broker replay reports, broker id order.
    pub reports: Vec<ReplayReport>,
}

impl FederatedOutcome {
    /// Whether every broker's replay matched byte for byte.
    pub fn verified(&self) -> bool {
        !self.reports.is_empty() && self.reports.iter().all(|r| r.verified())
    }

    /// Aggregate fast-tier hit rate: fast bytes granted over bytes
    /// requested, so denied allocations count against the rate and
    /// spill's recovered grants count for it.
    pub fn fast_fraction(&self) -> f64 {
        if self.requested_bytes == 0 {
            return 0.0;
        }
        self.fast_bytes as f64 / self.requested_bytes as f64
    }
}

/// Runs the full federated record → replay cycle in one process and
/// returns the verdicts. Deterministic in `config`.
pub fn federated_record_replay(
    config: &FederatedHarnessConfig,
) -> Result<FederatedOutcome, SnapshotError> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(
        discovery::from_firmware(&machine, true)
            .map_err(|e| SnapshotError::Restore(e.to_string()))?,
    );
    let fed = Federation::new(
        machine.clone(),
        attrs.clone(),
        &FederationConfig {
            members: config.members,
            policy: ArbitrationPolicy::FairShare,
            spill: config.spill,
            record: true,
        },
    );
    // The snapshot is the pristine federation — everything after it,
    // registrations included, is on the logs.
    let snapshot = FederatedSnapshot::capture(fed.brokers());
    // Each member's spill forwards, read beside its recorder.
    let mut spill_events: Vec<Collector> =
        fed.brokers().iter().map(|b| b.sink_handle().collector()).collect();

    let tenant_name = |i: u32| format!("tenant{i}");
    for i in 0..config.tenants {
        let priority = match i % 3 {
            0 => Priority::Latency,
            1 => Priority::Normal,
            _ => Priority::Batch,
        };
        fed.register(&tenant_name(i), priority)
            .map_err(|e| SnapshotError::Restore(e.to_string()))?;
    }

    let mut rng = SplitMix64::new(config.seed ^ 0x9e3779b97f4a7c15);
    let mut held: Vec<Vec<FederatedLease>> = vec![Vec::new(); config.tenants as usize];
    let mut requested_bytes = 0u64;
    let mut granted_bytes = 0u64;
    let mut fast_bytes = 0u64;
    let mut digest_merges = 0u64;

    for _epoch in 0..config.epochs {
        digest_merges += fed.gossip();
        for i in 0..config.tenants {
            let roll = rng.next_u64();
            let home = if config.skew { 0 } else { i % config.members.max(1) };
            match roll % 5 {
                0 | 1 => {
                    let size = (1 + roll % 8) * 1536 * MIB;
                    let criterion =
                        if roll.is_multiple_of(2) { attr::BANDWIDTH } else { attr::LATENCY };
                    requested_bytes += size;
                    // Denials record and replay like any other frame;
                    // only grants change the aggregate.
                    if let Ok(lease) = fed.acquire(
                        home,
                        &tenant_name(i),
                        size,
                        criterion,
                        Fallback::PartialSpill,
                        Some("fed-buf"),
                        Some(3 + roll % 6),
                    ) {
                        granted_bytes += lease.size();
                        fast_bytes += lease.fast_bytes();
                        held[i as usize].push(lease);
                    }
                }
                2 => {
                    if let Some(lease) = held[i as usize].pop() {
                        let _ = fed.free(lease);
                    }
                }
                3 => {
                    let _ = fed.heartbeat(&tenant_name(i));
                }
                _ => {
                    if let Some(lease) = held[i as usize].last() {
                        let _ = fed.renew(lease);
                    }
                }
            }
        }
        fed.advance_epoch();
        // Expired leases are gone broker-side; forget handles whose
        // parts all vanished so renewals target live leases. (Frames
        // against expired ids would replay identically — this keeps
        // the stream realistic, like the single-broker harness.)
        for leases in held.iter_mut() {
            leases.retain(|l| {
                l.parts.iter().any(|p| {
                    fed.broker(p.broker).placement(hetmem_service::LeaseId(p.lease)).is_some()
                })
            });
        }
    }

    // Spill totals sum broker by broker, each in emission order:
    // `BENCH_federation.json` records the f64 sum to the bit.
    let mut spills = 0u64;
    let mut spill_cost_ns = 0.0f64;
    for collector in &mut spill_events {
        for e in collector.drain_sorted() {
            if let Event::SpillForwarded(s) = e.event {
                spills += 1;
                spill_cost_ns += s.cost_ns;
            }
        }
    }
    // Each log closes with its broker's final state and the telemetry
    // summary of its own sink.
    let logs = fed.finish_logs()?;

    // Round-trip the snapshot through its codec, then replay every
    // broker's log independently.
    let snapshot_bytes = snapshot.encode();
    let snapshot = FederatedSnapshot::decode(&snapshot_bytes)?;
    let mut log_bytes = Vec::new();
    let mut requests_recorded = 0u64;
    let mut reports = Vec::new();
    for (state, bytes) in snapshot.states.iter().zip(&logs) {
        let log = WireLog::decode(bytes)?;
        log_bytes.push(bytes.len() as u64);
        let single = Snapshot { state: state.clone(), faults: None };
        let report = replay(&single, &log, machine.clone(), attrs.clone())?;
        // Replay re-executes every recorded request once.
        requests_recorded += report.requests;
        reports.push(report);
    }
    Ok(FederatedOutcome {
        snapshot_bytes: snapshot_bytes.len() as u64,
        log_bytes,
        requests_recorded,
        requested_bytes,
        granted_bytes,
        fast_bytes,
        spills,
        spill_cost_ns,
        digest_merges,
        reports,
    })
}
