//! An in-process record/replay harness: drives a broker through a
//! seeded chaos workload over the wire-request vocabulary, snapshots
//! it mid-run, records the rest as a wire log, then replays the log
//! against the restored snapshot and checks the outcome byte for
//! byte. `repro_tables --replay` and the integration tests use this
//! to prove service-plane replayability without sockets.

use crate::{replay, ReplayReport, Snapshot, SnapshotError, WireFrame, WireLog};
use hetmem_core::{attr, discovery};
use hetmem_memsim::{FaultKind, FaultPlan, Machine, SplitMix64};
use hetmem_service::server::serve;
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, Priority};
use hetmem_telemetry::{Summary, TelemetrySink};
use hetmem_topology::MemoryKind;
use std::sync::Arc;

/// Knobs for [`chaos_record_replay`]. The defaults run 48 epochs of
/// four tenants on the paper's KNL machine, snapshotting at epoch 24
/// — deep inside whatever chaos the seed schedules.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Seed for both the request stream and the fault plan.
    pub seed: u64,
    /// Total run length in epochs.
    pub epochs: u64,
    /// Epoch boundary to snapshot at (must be `< epochs`).
    pub snapshot_at: u64,
    /// Synthetic tenant count.
    pub tenants: u32,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig { seed: 0xc4a0, epochs: 48, snapshot_at: 24, tenants: 4 }
    }
}

/// What one harness run produced.
#[derive(Debug, Clone)]
pub struct HarnessOutcome {
    /// Encoded snapshot size, bytes.
    pub snapshot_bytes: u64,
    /// Encoded wire-log size, bytes.
    pub log_bytes: u64,
    /// Frames recorded (requests + control + trailer).
    pub frames: u64,
    /// Request frames recorded.
    pub requests_recorded: u64,
    /// The replay's report, including the byte-for-byte verdicts.
    pub report: ReplayReport,
}

const MIB: u64 = 1 << 20;

/// Runs the full record → snapshot → restore → replay cycle in one
/// process and returns the verdicts. Deterministic in `config`.
pub fn chaos_record_replay(config: &HarnessConfig) -> Result<HarnessOutcome, SnapshotError> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(
        discovery::from_firmware(&machine, true)
            .map_err(|e| SnapshotError::Restore(e.to_string()))?,
    );
    let mut broker = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare);
    let sink = TelemetrySink::with_ring_words(1 << 18);
    let mut collector = sink.collector();
    broker.set_sink(sink);

    let plan = FaultPlan::seeded(
        config.seed,
        config.epochs,
        config.tenants as u64,
        &[MemoryKind::Hbm, MemoryKind::Dram],
    );
    let mut rng = SplitMix64::new(config.seed ^ 0x9e3779b97f4a7c15);
    let tenant_name = |i: u32| format!("tenant{i}");

    // Register the population up front (epoch 0, pre-snapshot).
    for i in 0..config.tenants {
        let priority = match i % 3 {
            0 => Priority::Latency,
            1 => Priority::Normal,
            _ => Priority::Batch,
        };
        serve(
            &broker,
            Request::Register {
                tenant: tenant_name(i),
                priority,
                quota: Vec::new(),
                reserve: Vec::new(),
            },
        );
    }

    let mut held: Vec<Vec<u64>> = vec![Vec::new(); config.tenants as usize];
    // Open tier-degradation windows: (close_epoch, kind).
    let mut open_windows: Vec<(u64, MemoryKind)> = Vec::new();
    let mut snapshot: Option<Snapshot> = None;
    let mut log = WireLog::new(machine.name(), ArbitrationPolicy::FairShare);
    let mut requests_recorded = 0u64;

    for epoch in 0..config.epochs {
        debug_assert_eq!(broker.epoch(), epoch);
        if epoch == config.snapshot_at {
            // Epoch boundary: discard the pre-snapshot telemetry so
            // the recorded summary covers exactly the replayed
            // segment, then capture.
            collector.drain_sorted();
            snapshot = Some(Snapshot::capture(&broker, Some(plan.clone())));
        }
        let recording = snapshot.is_some();

        // Close tier windows that expire at this epoch, then apply
        // this epoch's scheduled faults — both as control events.
        for &(_, kind) in open_windows.iter().filter(|&&(close, _)| close == epoch) {
            broker.set_tier_degraded(kind, false);
            if recording {
                log.frames.push(WireFrame::TierFault { epoch, kind, degraded: false });
            }
        }
        open_windows.retain(|&(close, _)| close != epoch);
        let mut drops: Vec<u32> = Vec::new();
        for fault in plan.at(epoch) {
            match fault.kind {
                FaultKind::TierDegraded { kind, epochs } => {
                    broker.set_tier_degraded(kind, true);
                    if recording {
                        log.frames.push(WireFrame::TierFault { epoch, kind, degraded: true });
                    }
                    open_windows.push((epoch.saturating_add(epochs.max(1)), kind));
                }
                FaultKind::AllocStall { epochs } => {
                    broker.set_alloc_stall(epochs);
                    if recording {
                        log.frames.push(WireFrame::AllocStall { epoch, epochs });
                    }
                }
                // A dropped client frees everything it holds (the
                // server would revoke on disconnect; over the
                // recordable vocabulary an explicit free stream is
                // the equivalent state transition).
                FaultKind::ClientDrop { victim } => {
                    drops.push((victim % config.tenants as u64) as u32);
                }
                // Slow clients only stop renewing; the request stream
                // below simply skips them, which needs no control
                // frame — the absence of requests IS the fault.
                FaultKind::SlowClient { .. } => {}
            }
        }
        let issue = |request: Request, log: &mut WireLog, recorded: &mut u64| -> Response {
            if recording {
                log.frames.push(WireFrame::Request { epoch, json: request.to_json() });
                *recorded += 1;
            }
            serve(&broker, request)
        };
        for victim in drops {
            for lease in std::mem::take(&mut held[victim as usize]) {
                issue(
                    Request::Free { tenant: tenant_name(victim), lease },
                    &mut log,
                    &mut requests_recorded,
                );
            }
        }

        // The seeded request stream: each tenant rolls one die per
        // epoch. What matters for replay is only what was *recorded*;
        // how the stream was generated never needs re-deriving.
        for i in 0..config.tenants {
            let roll = rng.next_u64();
            match roll % 5 {
                0 | 1 => {
                    let size = (1 + roll % 8) * 384 * MIB;
                    let criterion =
                        if roll.is_multiple_of(2) { attr::BANDWIDTH } else { attr::LATENCY };
                    let response = issue(
                        Request::Alloc {
                            tenant: tenant_name(i),
                            size,
                            criterion,
                            fallback: hetmem_alloc::Fallback::PartialSpill,
                            label: Some(format!("buf-{epoch}-{i}")),
                            ttl: Some(3 + roll % 6),
                        },
                        &mut log,
                        &mut requests_recorded,
                    );
                    if let Response::Granted { lease, .. } = response {
                        held[i as usize].push(lease);
                    }
                }
                2 => {
                    if let Some(lease) = held[i as usize].pop() {
                        issue(
                            Request::Free { tenant: tenant_name(i), lease },
                            &mut log,
                            &mut requests_recorded,
                        );
                    }
                }
                3 => {
                    issue(
                        Request::Heartbeat { tenant: tenant_name(i) },
                        &mut log,
                        &mut requests_recorded,
                    );
                }
                _ => {}
            }
        }
        broker.advance_epoch();
        // Leases the broker expired are gone; forget our handles so a
        // later free does not target a reclaimed id. (Freeing an
        // expired id would replay identically — this just keeps the
        // stream realistic.)
        for leases in held.iter_mut() {
            leases.retain(|&id| broker.placement(hetmem_service::LeaseId(id)).is_some());
        }
    }

    let snapshot = snapshot
        .ok_or_else(|| SnapshotError::Replay("snapshot epoch never reached".to_string()))?;
    let events: Vec<_> = collector.drain_sorted().into_iter().map(|e| e.event).collect();
    let summary = Summary::from_events(&events).render();
    let mut state = Vec::new();
    crate::encode_state(&broker.snapshot_state(), &mut state);
    log.frames.push(WireFrame::Trailer { epoch: broker.epoch(), state, summary });

    // Round-trip both artifacts through their codecs, then replay.
    let snapshot_bytes = snapshot.encode();
    let log_bytes = log.encode();
    let snapshot = Snapshot::decode(&snapshot_bytes)?;
    let log = WireLog::decode(&log_bytes)?;
    let report = replay(&snapshot, &log, machine, attrs)?;
    Ok(HarnessOutcome {
        snapshot_bytes: snapshot_bytes.len() as u64,
        log_bytes: log_bytes.len() as u64,
        frames: log.frames.len() as u64,
        requests_recorded,
        report,
    })
}
