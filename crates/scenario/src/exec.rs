//! Executes a parsed scenario against the simulator.

use crate::parse::{Command, Discovery, Scenario};
use hetmem_alloc::{AllocRequest, HetAllocator};
use hetmem_bitmap::Bitmap;
use hetmem_core::MemAttrs;
use hetmem_federation::{FederatedLease, Federation, FederationConfig};
use hetmem_guidance::{GuidanceEngine, GuidancePolicy, GuidanceStats, SamplerConfig};
use hetmem_memsim::{AccessEngine, BufferAccess, Machine, MemoryManager, Phase, RegionId};
use hetmem_profile::Profiler;
use hetmem_service::wire::Request;
use hetmem_service::{Broker, LeaseId, RobustnessStats, TenantId, TenantSpec, TenantStats};
use hetmem_snapshot::{FederatedSnapshot, Snapshot, WireFrame, WireLog};
use hetmem_telemetry::{Summary, TelemetrySink};
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Execution failure. Statement-level failures carry the 1-based
/// source line of the statement that caused them and the buffer name
/// involved, so `hetmem-run` can point at the scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The `machine` statement named an unknown platform.
    UnknownMachine(String),
    /// The initiator cpuset failed to parse.
    BadInitiator(String),
    /// Attribute discovery failed.
    Discovery(String),
    /// An allocation (or an operation reported through one, like a
    /// failed rebalance) failed.
    Alloc {
        /// Buffer name.
        name: String,
        /// Source line of the failing statement.
        line: usize,
        /// The underlying failure.
        message: String,
    },
    /// An explicit `migrate` failed.
    Migrate {
        /// Buffer name.
        name: String,
        /// Source line of the failing statement.
        line: usize,
        /// The underlying failure.
        message: String,
    },
    /// A statement referenced an unknown buffer.
    UnknownBuffer {
        /// The name that did not resolve.
        name: String,
        /// Source line of the failing statement.
        line: usize,
    },
    /// A `serve`/`tenant` statement was misused, or the broker refused
    /// an operation in served mode.
    Service {
        /// The tenant, buffer, or statement name involved.
        name: String,
        /// Source line of the failing statement.
        line: usize,
        /// The underlying failure.
        message: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownMachine(m) => {
                write!(f, "unknown machine {m:?} (known: {})", Machine::platform_names())
            }
            ExecError::BadInitiator(e) => write!(f, "bad initiator cpuset: {e}"),
            ExecError::Discovery(e) => write!(f, "discovery failed: {e}"),
            ExecError::Alloc { name, line, message } => {
                write!(f, "line {line}: alloc {name:?} failed: {message}")
            }
            ExecError::Migrate { name, line, message } => {
                write!(f, "line {line}: migrate {name:?} failed: {message}")
            }
            ExecError::UnknownBuffer { name, line } => {
                write!(f, "line {line}: unknown buffer {name:?}")
            }
            ExecError::Service { name, line, message } => {
                write!(f, "line {line}: service {name:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One executed phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase name.
    pub name: String,
    /// Time, ns. For guided phases this includes sampling overhead
    /// and mid-phase migration costs.
    pub time_ns: f64,
    /// Aggregate achieved bandwidth, MiB/s.
    pub bw_mbps: f64,
}

/// Knobs for [`execute_with_options`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Enable online guidance for every phase, as if the scenario
    /// started with `guidance <period> <criterion>`. A `guidance`
    /// statement inside the scenario replaces these settings.
    pub guidance: Option<(u64, hetmem_core::AttrId)>,
    /// Record the served request stream as a `hetmem-snapshot` wire
    /// log (the `--record` backend of `hetmem-run`). The scenario must
    /// run in served mode with the full-machine initiator, and may not
    /// contain phases or `global` allocations — only state transitions
    /// expressible over the wire protocol replay byte-for-byte. With a
    /// `snapshot` stanza, recording starts at the checkpoint so the
    /// log continues exactly where the snapshot leaves off; without
    /// one it starts at `serve`. The finished log (trailer included)
    /// is returned in [`ScenarioReport::wire_log`].
    pub record: bool,
}

/// The full scenario outcome.
pub struct ScenarioReport {
    /// Per-phase results, in execution order.
    pub phases: Vec<PhaseOutcome>,
    /// Migration costs paid, ns, in order (explicit `migrate` and
    /// daemon rebalances combined; guided mid-phase migrations are
    /// inside their phase's time instead).
    pub migrations_ns: Vec<f64>,
    /// Actions the tiering daemon took across `rebalance` statements.
    pub tiering_actions: Vec<hetmem_alloc::tiering::TieringAction>,
    /// Lifetime counters of the guidance engine, when one ran.
    pub guidance: Option<GuidanceStats>,
    /// Final placement of each live buffer.
    pub final_placements: Vec<(String, Vec<(NodeId, u64)>)>,
    /// The profiler, loaded with every phase (for summaries/objects).
    pub profiler: Profiler,
    /// Total simulated time (phases + migrations), ns.
    pub total_ns: f64,
    /// Per-tenant standing when the scenario ran in served mode
    /// (`serve` statement); empty otherwise.
    pub tenants: Vec<TenantStats>,
    /// Lease-lifecycle counters (expirations, revocations, reclaimed
    /// bytes) when the scenario ran in served mode; `None` otherwise.
    pub robustness: Option<RobustnessStats>,
    /// The recorded wire log when [`ExecOptions::record`] was set,
    /// ending in a trailer with the final broker state and the
    /// telemetry summary of the recorded segment; `None` otherwise.
    pub wire_log: Option<WireLog>,
    /// Federation counters when the scenario ran under a `federate`
    /// statement; `None` otherwise.
    pub federation: Option<FederationSummary>,
}

/// What a federated scenario run did, beyond the per-buffer results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationSummary {
    /// Member broker count.
    pub members: u32,
    /// Leases that committed at least one remote part.
    pub spilled_leases: u64,
    /// Digest merges applied across all gossip rounds.
    pub digest_merges: u64,
    /// Fast-tier bytes across every granted lease part.
    pub fast_bytes: u64,
    /// Total bytes granted across every lease part.
    pub granted_bytes: u64,
}

/// Runs a scenario; deterministic like everything else.
pub fn execute(scenario: &Scenario) -> Result<ScenarioReport, ExecError> {
    execute_with_sink(scenario, TelemetrySink::disabled())
}

/// [`execute`] with every allocation decision, migration, phase span
/// and occupancy change streamed into `sink` (the `--trace` backend
/// of `hetmem-run`).
pub fn execute_with_sink(
    scenario: &Scenario,
    sink: TelemetrySink,
) -> Result<ScenarioReport, ExecError> {
    execute_with_options(scenario, sink, ExecOptions::default())
}

/// [`execute_with_sink`] with extra execution options (the
/// `--guidance` backend of `hetmem-run`).
pub fn execute_with_options(
    scenario: &Scenario,
    sink: TelemetrySink,
    options: ExecOptions,
) -> Result<ScenarioReport, ExecError> {
    let machine = Machine::by_name(&scenario.machine)
        .ok_or_else(|| ExecError::UnknownMachine(scenario.machine.clone()))?;
    let machine = Arc::new(machine);
    let mut initiator: Bitmap = scenario
        .initiator
        .parse()
        .map_err(|e: hetmem_bitmap::ParseBitmapError| ExecError::BadInitiator(e.to_string()))?;
    // Clamp an unbounded initiator to the machine's PUs.
    initiator.and_assign(machine.topology().machine_cpuset());

    let attrs: Arc<MemAttrs> = match scenario.discovery {
        Discovery::Firmware => Arc::new(
            hetmem_core::discovery::from_firmware(&machine, true)
                .map_err(|e| ExecError::Discovery(e.to_string()))?,
        ),
        Discovery::Benchmarks => Arc::new(
            hetmem_membench::feed_attrs(
                &machine,
                &hetmem_membench::BenchOptions { include_remote: true, ..Default::default() },
            )
            .map_err(|e| ExecError::Discovery(e.to_string()))?,
        ),
    };
    let mut engine = AccessEngine::new(machine.clone());
    engine.set_sink(sink.clone());
    let mut allocator = HetAllocator::new(attrs.clone(), MemoryManager::new(machine.clone()));
    allocator.set_sink(sink.clone());
    let mut profiler = Profiler::new(machine.clone());

    let make_guidance = |period: u64, criterion: hetmem_core::AttrId| {
        let mut g = GuidanceEngine::new(
            attrs.clone(),
            GuidancePolicy { criterion, ..Default::default() },
            SamplerConfig { period, ..Default::default() },
        );
        g.set_sink(sink.clone());
        g
    };
    let mut guidance: Option<GuidanceEngine> =
        options.guidance.map(|(period, criterion)| make_guidance(period, criterion));

    // Served mode (`serve` statement): allocations and phases go
    // through the multi-tenant broker instead of the single-tenant
    // allocator. One scenario is one service tick — phases stay in
    // one contention epoch, so tenants touching the same node charge
    // each other stalls.
    let mut broker: Option<Broker> = None;
    // Federated mode (`federate` statement): N shard brokers instead
    // of one. Tenants home round-robin in registration order; leases
    // may span brokers.
    let mut federation: Option<Federation> = None;
    let mut fed_homes: BTreeMap<String, u32> = BTreeMap::new();
    let mut fed_leases: BTreeMap<String, FederatedLease> = BTreeMap::new();
    let mut current_home: Option<(String, u32)> = None;
    let mut fed_spilled = 0u64;
    let mut fed_merges = 0u64;
    let mut fed_granted = 0u64;
    let mut fed_fast = 0u64;
    let mut tenant_ids: BTreeMap<String, TenantId> = BTreeMap::new();
    let mut current_tenant: Option<(String, TenantId)> = None;
    let mut lease_ids: BTreeMap<String, LeaseId> = BTreeMap::new();
    // Which tenant owns each served buffer, for synthesizing `free`
    // frames in record mode.
    let mut lease_owners: BTreeMap<String, String> = BTreeMap::new();

    // Record mode (`--record`): frames accumulate here and the
    // telemetry collector captures exactly the recorded segment's
    // events for the trailer summary. With a `snapshot` stanza,
    // `recording` flips on at the checkpoint.
    let has_snapshot_stanza =
        scenario.commands.iter().any(|s| matches!(s.cmd, Command::Snapshot { .. }));
    let mut wire_log: Option<WireLog> = None;
    let mut rec_collector = if options.record { Some(sink.collector()) } else { None };
    let mut recording = false;

    let mut buffers: BTreeMap<String, RegionId> = BTreeMap::new();
    let mut phases = Vec::new();
    let mut migrations_ns = Vec::new();
    let mut tiering_actions = Vec::new();
    let mut daemon =
        hetmem_alloc::tiering::TieringDaemon::new(hetmem_alloc::tiering::TieringPolicy::default());

    for stmt in &scenario.commands {
        let line = stmt.line;
        match &stmt.cmd {
            Command::Serve { policy, guided, budget_ms } => {
                let misuse = |message: &str| ExecError::Service {
                    name: "serve".into(),
                    line,
                    message: message.into(),
                };
                if broker.is_some() {
                    return Err(misuse("serve given twice"));
                }
                if federation.is_some() {
                    return Err(misuse("serve and federate are mutually exclusive"));
                }
                if !buffers.is_empty() {
                    return Err(misuse("serve must come before the first alloc"));
                }
                if guidance.is_some() {
                    return Err(misuse("guidance and served mode are mutually exclusive"));
                }
                if options.record && initiator != *machine.topology().machine_cpuset() {
                    return Err(misuse(
                        "record mode needs the full-machine initiator (replayed requests \
                         place against the whole machine)",
                    ));
                }
                if options.record && *guided {
                    return Err(misuse(
                        "recording cannot capture guided service (guided=on): the \
                         guidance plane is an online estimator, not replayable history",
                    ));
                }
                let mut b = Broker::new(machine.clone(), attrs.clone(), *policy);
                b.set_sink(sink.clone());
                if *guided {
                    let mut cfg = hetmem_service::GuidedConfig::default();
                    if let Some(ms) = budget_ms {
                        cfg.budget_ns = *ms as f64 * 1.0e6;
                    }
                    b.enable_guidance(cfg);
                }
                broker = Some(b);
                if options.record {
                    wire_log = Some(WireLog::new(machine.name(), *policy));
                    recording = !has_snapshot_stanza;
                }
            }
            Command::Federate { members, spill, policy } => {
                let misuse = |message: &str| ExecError::Service {
                    name: "federate".into(),
                    line,
                    message: message.into(),
                };
                if federation.is_some() {
                    return Err(misuse("federate given twice"));
                }
                if broker.is_some() {
                    return Err(misuse("serve and federate are mutually exclusive"));
                }
                if !buffers.is_empty() {
                    return Err(misuse("federate must come before the first alloc"));
                }
                if guidance.is_some() {
                    return Err(misuse("guidance and federated mode are mutually exclusive"));
                }
                if options.record {
                    return Err(misuse(
                        "federated scenarios cannot be recorded by hetmem-run (--record \
                         drives one wire log; the federation harness records per-broker \
                         logs instead)",
                    ));
                }
                let mut fed = Federation::new(
                    machine.clone(),
                    attrs.clone(),
                    &FederationConfig {
                        members: *members,
                        policy: *policy,
                        spill: *spill,
                        record: false,
                    },
                );
                fed.set_federation_sink(sink.clone());
                federation = Some(fed);
            }
            Command::Tenant { name, priority } => {
                if let Some(fed) = federation.as_ref() {
                    let home = match fed_homes.get(name) {
                        Some(&home) => home,
                        None => {
                            let home = fed_homes.len() as u32 % fed.members();
                            fed.register(name, *priority).map_err(|e| ExecError::Service {
                                name: name.clone(),
                                line,
                                message: e.to_string(),
                            })?;
                            fed_homes.insert(name.clone(), home);
                            home
                        }
                    };
                    current_home = Some((name.clone(), home));
                    continue;
                }
                let Some(broker) = broker.as_ref() else {
                    return Err(ExecError::Service {
                        name: name.clone(),
                        line,
                        message: "tenant needs served mode (put `serve` first)".into(),
                    });
                };
                let id = match tenant_ids.get(name) {
                    Some(&id) => id,
                    None => {
                        let id = broker
                            .register(TenantSpec::new(name.clone()).priority(*priority))
                            .map_err(|e| ExecError::Service {
                                name: name.clone(),
                                line,
                                message: e.to_string(),
                            })?;
                        tenant_ids.insert(name.clone(), id);
                        if recording {
                            if let Some(log) = wire_log.as_mut() {
                                log.frames.push(WireFrame::Request {
                                    epoch: broker.epoch(),
                                    json: Request::Register {
                                        tenant: name.clone(),
                                        priority: *priority,
                                        quota: Vec::new(),
                                        reserve: Vec::new(),
                                    }
                                    .to_json(),
                                });
                            }
                        }
                        id
                    }
                };
                current_tenant = Some((name.clone(), id));
            }
            Command::Alloc { name, size, criterion, fallback, global, ttl } => {
                let mut req = AllocRequest::new(*size)
                    .criterion(*criterion)
                    .initiator(&initiator)
                    .fallback(*fallback)
                    .label(name.clone());
                if *global {
                    req = req.any_locality();
                }
                if let Some(fed) = federation.as_ref() {
                    let Some((tenant_name, home)) = current_home.as_ref() else {
                        return Err(ExecError::Service {
                            name: name.clone(),
                            line,
                            message: "no tenant selected (put a `tenant` statement first)".into(),
                        });
                    };
                    if *global {
                        return Err(ExecError::Service {
                            name: name.clone(),
                            line,
                            message: "global allocations are not federated (digest ranking \
                                      serves whole-machine locality only)"
                                .into(),
                        });
                    }
                    let lease = fed
                        .acquire(*home, tenant_name, *size, *criterion, *fallback, Some(name), *ttl)
                        .map_err(|e| ExecError::Service {
                            name: name.clone(),
                            line,
                            message: e.to_string(),
                        })?;
                    fed_spilled += lease.spilled(*home) as u64;
                    fed_granted += lease.size();
                    fed_fast += lease.fast_bytes();
                    fed_leases.insert(name.clone(), lease);
                    continue;
                }
                if let Some(broker) = broker.as_ref() {
                    let Some((tenant_name, tenant)) = current_tenant.as_ref() else {
                        return Err(ExecError::Service {
                            name: name.clone(),
                            line,
                            message: "no tenant selected (put a `tenant` statement first)".into(),
                        });
                    };
                    if recording && *global {
                        return Err(ExecError::Service {
                            name: name.clone(),
                            line,
                            message: "global allocations cannot be recorded (the wire \
                                      protocol serves whole-machine locality only)"
                                .into(),
                        });
                    }
                    let lease = broker.acquire_with_ttl(*tenant, &req, *ttl).map_err(|e| {
                        ExecError::Service { name: name.clone(), line, message: e.to_string() }
                    })?;
                    buffers.insert(name.clone(), lease.region());
                    lease_ids.insert(name.clone(), lease.id());
                    lease_owners.insert(name.clone(), tenant_name.clone());
                    if recording {
                        if let Some(log) = wire_log.as_mut() {
                            log.frames.push(WireFrame::Request {
                                epoch: broker.epoch(),
                                json: Request::Alloc {
                                    tenant: tenant_name.clone(),
                                    size: *size,
                                    criterion: *criterion,
                                    fallback: *fallback,
                                    label: Some(name.clone()),
                                    ttl: *ttl,
                                }
                                .to_json(),
                            });
                        }
                    }
                } else {
                    if ttl.is_some() {
                        return Err(ExecError::Service {
                            name: name.clone(),
                            line,
                            message: "ttl= needs served mode (put `serve` first)".into(),
                        });
                    }
                    let result = allocator.alloc(&req);
                    let id = result.map_err(|e| ExecError::Alloc {
                        name: name.clone(),
                        line,
                        message: e.to_string(),
                    })?;
                    profiler.track(allocator.memory(), id, name, *size);
                    buffers.insert(name.clone(), id);
                }
            }
            Command::Free(name) => {
                if let Some(fed) = federation.as_ref() {
                    let lease = fed_leases
                        .remove(name)
                        .ok_or_else(|| ExecError::UnknownBuffer { name: name.clone(), line })?;
                    fed.free(lease).map_err(|e| ExecError::Service {
                        name: name.clone(),
                        line,
                        message: e.to_string(),
                    })?;
                    continue;
                }
                if let Some(broker) = broker.as_ref() {
                    let lease = lease_ids
                        .remove(name)
                        .ok_or_else(|| ExecError::UnknownBuffer { name: name.clone(), line })?;
                    buffers.remove(name);
                    let owner = lease_owners.remove(name);
                    broker.release_by_id(lease).map_err(|e| ExecError::Service {
                        name: name.clone(),
                        line,
                        message: e.to_string(),
                    })?;
                    if recording {
                        if let (Some(log), Some(owner)) = (wire_log.as_mut(), owner) {
                            log.frames.push(WireFrame::Request {
                                epoch: broker.epoch(),
                                json: Request::Free { tenant: owner, lease: lease.0 }.to_json(),
                            });
                        }
                    }
                    continue;
                }
                let id = buffers
                    .remove(name)
                    .ok_or_else(|| ExecError::UnknownBuffer { name: name.clone(), line })?;
                allocator.free(id);
                daemon.forget(id);
                if let Some(g) = guidance.as_mut() {
                    g.forget(id);
                }
            }
            Command::Migrate { name, criterion } => {
                if federation.is_some() {
                    return Err(ExecError::Service {
                        name: name.clone(),
                        line,
                        message: "migrate is not available in federated mode (leases are \
                                  pinned)"
                            .into(),
                    });
                }
                if broker.is_some() {
                    return Err(ExecError::Service {
                        name: name.clone(),
                        line,
                        message: "migrate is not available in served mode (leases are pinned)"
                            .into(),
                    });
                }
                let id = *buffers
                    .get(name)
                    .ok_or_else(|| ExecError::UnknownBuffer { name: name.clone(), line })?;
                let (_, report) =
                    allocator.migrate_to_best(id, *criterion, &initiator).map_err(|e| {
                        ExecError::Migrate { name: name.clone(), line, message: e.to_string() }
                    })?;
                migrations_ns.push(report.cost_ns);
            }
            Command::Phase(spec) => {
                if federation.is_some() {
                    return Err(ExecError::Service {
                        name: spec.name.clone(),
                        line,
                        message: "phases are not federated (traffic charging spans one \
                                  broker; use served mode for phases)"
                            .into(),
                    });
                }
                let mut accesses = Vec::with_capacity(spec.accesses.len());
                for a in &spec.accesses {
                    let id = *buffers
                        .get(&a.buffer)
                        .ok_or_else(|| ExecError::UnknownBuffer { name: a.buffer.clone(), line })?;
                    accesses.push(BufferAccess {
                        region: id,
                        bytes_read: a.bytes_read,
                        bytes_written: a.bytes_written,
                        pattern: a.pattern,
                        hot_fraction: a.hot_fraction,
                    });
                }
                let phase = Phase {
                    name: spec.name.clone(),
                    accesses,
                    threads: scenario.threads,
                    initiator: initiator.clone(),
                    compute_ns: spec.compute_ns,
                };
                if let Some(broker) = broker.as_ref() {
                    if options.record {
                        return Err(ExecError::Service {
                            name: spec.name.clone(),
                            line,
                            message: "phases cannot be recorded (--record covers the \
                                      service plane only)"
                                .into(),
                        });
                    }
                    let Some((tenant_name, tenant)) = current_tenant.as_ref() else {
                        return Err(ExecError::Service {
                            name: spec.name.clone(),
                            line,
                            message: "no tenant selected (put a `tenant` statement first)".into(),
                        });
                    };
                    let served =
                        broker.run_phase(*tenant, &phase).map_err(|e| ExecError::Service {
                            name: tenant_name.clone(),
                            line,
                            message: e.to_string(),
                        })?;
                    let time_ns = served.time_ns();
                    let bytes: u64 = served
                        .report
                        .per_node
                        .values()
                        .map(|t| t.bytes_read + t.bytes_written)
                        .sum();
                    phases.push(PhaseOutcome {
                        name: spec.name.clone(),
                        time_ns,
                        bw_mbps: if time_ns > 0.0 {
                            bytes as f64 / (1 << 20) as f64 / (time_ns / 1e9)
                        } else {
                            0.0
                        },
                    });
                    profiler.record(served.report);
                    continue;
                }
                if let Some(g) = guidance.as_mut() {
                    let report = g.run_phase(&engine, allocator.memory_mut(), &phase);
                    let bytes: u64 = report.slices.iter().map(|s| s.total_bytes()).sum();
                    let time_ns = report.time_ns();
                    phases.push(PhaseOutcome {
                        name: spec.name.clone(),
                        time_ns,
                        bw_mbps: if time_ns > 0.0 {
                            bytes as f64 / (1 << 20) as f64 / (time_ns / 1e9)
                        } else {
                            0.0
                        },
                    });
                    for slice in report.slices {
                        daemon.observe(&slice);
                        profiler.record(slice);
                    }
                } else {
                    let report = engine.run_phase(allocator.memory(), &phase);
                    phases.push(PhaseOutcome {
                        name: spec.name.clone(),
                        time_ns: report.time_ns,
                        bw_mbps: report.total_bw_mbps(),
                    });
                    daemon.observe(&report);
                    profiler.record(report);
                }
            }
            Command::Rebalance { criterion } => {
                if federation.is_some() {
                    return Err(ExecError::Service {
                        name: "rebalance".into(),
                        line,
                        message: "rebalance is not available in federated mode".into(),
                    });
                }
                if broker.is_some() {
                    return Err(ExecError::Service {
                        name: "rebalance".into(),
                        line,
                        message: "rebalance is not available in served mode".into(),
                    });
                }
                let actions = daemon
                    .rebalance_with_criterion(&mut allocator, &initiator, *criterion)
                    .map_err(|e| ExecError::Alloc {
                        name: "rebalance".into(),
                        line,
                        message: e.to_string(),
                    })?;
                for a in &actions {
                    let cost = match a {
                        hetmem_alloc::tiering::TieringAction::Promoted { cost_ns, .. }
                        | hetmem_alloc::tiering::TieringAction::Demoted { cost_ns, .. } => *cost_ns,
                    };
                    migrations_ns.push(cost);
                }
                tiering_actions.extend(actions);
            }
            Command::Guidance { period, criterion } => {
                if federation.is_some() {
                    return Err(ExecError::Service {
                        name: "guidance".into(),
                        line,
                        message: "guidance and federated mode are mutually exclusive".into(),
                    });
                }
                if broker.is_some() {
                    return Err(ExecError::Service {
                        name: "guidance".into(),
                        line,
                        message: "guidance and served mode are mutually exclusive".into(),
                    });
                }
                guidance = Some(make_guidance(*period, *criterion));
            }
            Command::Fault { kind, degraded } => {
                if let Some(fed) = federation.as_ref() {
                    // A tier fault hits the machine, not one shard:
                    // every member degrades (or restores) its slice.
                    for member in fed.brokers() {
                        member.set_tier_degraded(*kind, *degraded);
                    }
                    continue;
                }
                let Some(broker) = broker.as_ref() else {
                    return Err(ExecError::Service {
                        name: "fault".into(),
                        line,
                        message: "fault needs served mode (put `serve` first)".into(),
                    });
                };
                broker.set_tier_degraded(*kind, *degraded);
                if recording {
                    if let Some(log) = wire_log.as_mut() {
                        log.frames.push(WireFrame::TierFault {
                            epoch: broker.epoch(),
                            kind: *kind,
                            degraded: *degraded,
                        });
                    }
                }
            }
            Command::Tick { epochs } => {
                if let Some(fed) = federation.as_ref() {
                    // Gossip once per epoch so digests stay at most
                    // one tick stale, then advance every member in
                    // lockstep (TTL sweeps included).
                    for _ in 0..*epochs {
                        fed_merges += fed.gossip();
                        fed.advance_epoch();
                    }
                    fed_leases.retain(|_, lease| {
                        lease
                            .parts
                            .iter()
                            .any(|p| fed.broker(p.broker).placement(LeaseId(p.lease)).is_some())
                    });
                    continue;
                }
                let Some(broker) = broker.as_ref() else {
                    return Err(ExecError::Service {
                        name: "tick".into(),
                        line,
                        message: "tick needs served mode (put `serve` first)".into(),
                    });
                };
                for _ in 0..*epochs {
                    broker.advance_epoch();
                }
                // Forget buffers whose lease the sweep reclaimed, so a
                // later phase reports "unknown buffer" instead of
                // touching a freed region.
                lease_ids.retain(|name, id| {
                    let live = broker.placement(*id).is_some();
                    if !live {
                        buffers.remove(name);
                        lease_owners.remove(name);
                    }
                    live
                });
            }
            Command::Snapshot { epoch, file } => {
                if let Some(fed) = federation.as_ref() {
                    let current = fed.epoch();
                    if *epoch < current {
                        return Err(ExecError::Service {
                            name: file.clone(),
                            line,
                            message: format!(
                                "snapshot epoch {epoch} is in the past (clock is at {current})"
                            ),
                        });
                    }
                    for _ in current..*epoch {
                        fed_merges += fed.gossip();
                        fed.advance_epoch();
                    }
                    fed_leases.retain(|_, lease| {
                        lease
                            .parts
                            .iter()
                            .any(|p| fed.broker(p.broker).placement(LeaseId(p.lease)).is_some())
                    });
                    let snap = FederatedSnapshot::capture(fed.brokers());
                    snap.write_file(std::path::Path::new(file)).map_err(|e| {
                        ExecError::Service { name: file.clone(), line, message: e.to_string() }
                    })?;
                    continue;
                }
                let Some(broker) = broker.as_ref() else {
                    return Err(ExecError::Service {
                        name: "snapshot".into(),
                        line,
                        message: "snapshot needs served mode (put `serve` first)".into(),
                    });
                };
                let current = broker.epoch();
                if *epoch < current {
                    return Err(ExecError::Service {
                        name: file.clone(),
                        line,
                        message: format!(
                            "snapshot epoch {epoch} is in the past (clock is at {current})"
                        ),
                    });
                }
                for _ in current..*epoch {
                    broker.advance_epoch();
                }
                lease_ids.retain(|name, id| {
                    let live = broker.placement(*id).is_some();
                    if !live {
                        buffers.remove(name);
                        lease_owners.remove(name);
                    }
                    live
                });
                if options.record {
                    // Recording (re)starts at the checkpoint: the log
                    // pairs with this snapshot, and the trailer summary
                    // covers exactly the events after this boundary.
                    if let Some(c) = rec_collector.as_mut() {
                        c.drain_sorted();
                    }
                    if let Some(log) = wire_log.as_mut() {
                        log.frames.clear();
                    }
                    recording = true;
                }
                let snap = Snapshot::capture(broker, None);
                snap.write_file(std::path::Path::new(file)).map_err(|e| ExecError::Service {
                    name: file.clone(),
                    line,
                    message: e.to_string(),
                })?;
            }
        }
    }

    if options.record && broker.is_none() {
        // Point at the first statement: recording covers the whole
        // run, so the `serve` belongs before everything else.
        let line = scenario.commands.first().map_or(0, |s| s.line);
        return Err(ExecError::Service {
            name: "record".into(),
            line,
            message: "--record needs a served scenario (add a `serve` statement)".into(),
        });
    }
    if let (Some(log), Some(broker), Some(collector)) =
        (wire_log.as_mut(), broker.as_ref(), rec_collector.as_mut())
    {
        let events: Vec<_> = collector.drain_sorted().into_iter().map(|e| e.event).collect();
        let summary = Summary::from_events(&events).render();
        let mut state = Vec::new();
        hetmem_snapshot::encode_state(&broker.snapshot_state(), &mut state);
        log.frames.push(WireFrame::Trailer { epoch: broker.epoch(), state, summary });
    }

    if let Some(fed) = federation.as_ref() {
        let final_placements = fed_leases
            .iter()
            .map(|(name, lease)| {
                let mut placement = Vec::new();
                for part in &lease.parts {
                    placement.extend(
                        fed.broker(part.broker).placement(LeaseId(part.lease)).unwrap_or_default(),
                    );
                }
                (name.clone(), placement)
            })
            .collect();
        let total_ns =
            phases.iter().map(|p| p.time_ns).sum::<f64>() + migrations_ns.iter().sum::<f64>();
        return Ok(ScenarioReport {
            phases,
            migrations_ns,
            final_placements,
            profiler,
            total_ns,
            tiering_actions,
            guidance: None,
            robustness: None,
            tenants: Vec::new(),
            wire_log: None,
            federation: Some(FederationSummary {
                members: fed.members(),
                spilled_leases: fed_spilled,
                digest_merges: fed_merges,
                fast_bytes: fed_fast,
                granted_bytes: fed_granted,
            }),
        });
    }
    let final_placements = match &broker {
        Some(broker) => lease_ids
            .iter()
            .map(|(name, &id)| (name.clone(), broker.placement(id).unwrap_or_default()))
            .collect(),
        None => buffers
            .iter()
            .map(|(name, &id)| {
                (
                    name.clone(),
                    allocator.memory().region(id).map(|r| r.placement.clone()).unwrap_or_default(),
                )
            })
            .collect(),
    };
    let total_ns =
        phases.iter().map(|p| p.time_ns).sum::<f64>() + migrations_ns.iter().sum::<f64>();
    Ok(ScenarioReport {
        phases,
        migrations_ns,
        final_placements,
        profiler,
        total_ns,
        tiering_actions,
        guidance: guidance.map(|g| *g.stats()),
        robustness: broker.as_ref().map(|b| b.robustness()),
        tenants: broker.map(|b| b.tenants()).unwrap_or_default(),
        wire_log,
        federation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const CONFLICT: &str = r#"
machine knl-flat
initiator 0-15
threads 16
alloc hot 3GiB bandwidth spill
alloc cold 3GiB bandwidth spill
phase p1
  read hot 12GiB seq
  write hot 6GiB seq
end
free cold
migrate hot bandwidth
phase p2
  read hot 12GiB seq
  write hot 6GiB seq
end
"#;

    #[test]
    fn conflict_scenario_runs_and_migration_helps() {
        let s = parse(CONFLICT).expect("valid");
        let r = execute(&s).expect("runs");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.migrations_ns.len(), 1);
        // hot spilled in p1 (cold grabbed MCDRAM first? no — hot first).
        // hot got MCDRAM first, so p1 is already fast; cold spilled.
        // After free+migrate the second phase is at least as fast.
        assert!(r.phases[1].time_ns <= r.phases[0].time_ns * 1.01);
        assert_eq!(r.final_placements.len(), 1);
        assert_eq!(r.final_placements[0].0, "hot");
        assert!(r.guidance.is_none());
    }

    #[test]
    fn unknown_machine_and_buffer_errors() {
        let s = parse("machine nope\n").expect("parses");
        assert!(matches!(execute(&s), Err(ExecError::UnknownMachine(_))));

        let s = parse("machine knl-flat\nfree ghost\n").expect("parses");
        match execute(&s) {
            Err(ExecError::UnknownBuffer { name, line }) => {
                assert_eq!(name, "ghost");
                assert_eq!(line, 2);
            }
            other => panic!("expected unknown buffer, got {:?}", other.map(|_| ())),
        }

        let s = parse("machine knl-flat\nphase p\n  read ghost 1GiB seq\nend\n").expect("parses");
        match execute(&s) {
            // The phase statement starts on line 2.
            Err(ExecError::UnknownBuffer { name, line }) => {
                assert_eq!(name, "ghost");
                assert_eq!(line, 2);
            }
            other => panic!("expected unknown buffer, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn alloc_failure_is_reported() {
        let s = parse("machine knl-flat\ninitiator 0-15\nalloc big 100GiB latency strict\n")
            .expect("parses");
        match execute(&s) {
            Err(ExecError::Alloc { name, line, .. }) => {
                assert_eq!(name, "big");
                assert_eq!(line, 3);
            }
            other => panic!("expected alloc failure, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn error_display_points_at_source_line() {
        let s = parse("machine knl-flat\n\nfree ghost\n").expect("parses");
        let e = execute(&s).map(|_| ()).expect_err("unknown buffer");
        let text = e.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("ghost"), "{text}");
    }

    #[test]
    fn benchmark_discovery_scenario() {
        let s = parse(
            "machine xeon\ninitiator 0-19\nthreads 20\ndiscover benchmarks\n\
             alloc x 1GiB latency\nphase p\n  read x 4GiB random\nend\n",
        )
        .expect("parses");
        let r = execute(&s).expect("runs");
        assert_eq!(r.phases.len(), 1);
        assert!(r.total_ns > 0.0);
        // Latency criterion on the Xeon = DRAM node 0.
        assert_eq!(r.final_placements[0].1[0].0, NodeId(0));
    }

    #[test]
    fn profiler_is_populated() {
        let s = parse(
            "machine xeon\ninitiator 0-19\nthreads 20\nalloc a 8GiB capacity\n\
             phase chase\n  read a 8GiB chase\nend\n",
        )
        .expect("parses");
        let r = execute(&s).expect("runs");
        let summary = r.profiler.summary();
        assert_eq!(summary.sensitivity, hetmem_profile::Sensitivity::Latency);
        let objects = r.profiler.object_report();
        assert_eq!(objects.len(), 1);
        assert_eq!(objects[0].site, "a");
    }

    #[test]
    fn unbounded_initiator_is_clamped() {
        let s = parse("machine knl-flat\nalloc a 1GiB capacity\n").expect("parses");
        let r = execute(&s).expect("runs");
        assert_eq!(r.final_placements.len(), 1);
    }

    const SERVED: &str = r#"
machine knl-flat
initiator 0-15
threads 16
serve

tenant graph latency
alloc frontier 512MiB bandwidth spill
phase bfs
  read frontier 8GiB random
end

tenant stream batch
alloc vectors 14GiB bandwidth spill
phase triad
  read vectors 8GiB seq
  write vectors 4GiB seq
end

free vectors
free frontier
"#;

    #[test]
    fn served_scenario_arbitrates_between_tenants() {
        let s = parse(SERVED).expect("valid");
        let r = execute(&s).expect("runs");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.tenants.len(), 2, "both tenants registered");
        let graph = r.tenants.iter().find(|t| t.name == "graph").expect("graph");
        let stream = r.tenants.iter().find(|t| t.name == "stream").expect("stream");
        assert_eq!(graph.admits, 1);
        assert_eq!(stream.admits, 1);
        // The batch tenant asked for nearly the whole HBM tier under
        // fair share with a latency tenant present: it got clamped.
        assert!(stream.clamps > 0, "{stream:?}");
        // Everything was freed; placements of freed leases are gone.
        assert!(r.final_placements.is_empty());
        assert!(r.total_ns > 0.0);
    }

    #[test]
    fn served_mode_misuse_errors_carry_line_and_name() {
        // serve after an alloc.
        let s = parse("machine knl-flat\nalloc a 1GiB capacity\nserve\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, .. }) => {
                assert_eq!(name, "serve");
                assert_eq!(line, 3);
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // tenant without serve.
        let s = parse("machine knl-flat\ntenant graph\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "graph");
                assert_eq!(line, 2);
                assert!(message.contains("serve"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // alloc in served mode before any tenant.
        let s = parse("machine knl-flat\nserve\nalloc a 1GiB capacity\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, .. }) => {
                assert_eq!(name, "a");
                assert_eq!(line, 3);
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // migrate is refused in served mode.
        let s = parse(
            "machine knl-flat\nserve\ntenant t\nalloc a 1GiB capacity\nmigrate a bandwidth\n",
        )
        .expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, .. }) => {
                assert_eq!(name, "a");
                assert_eq!(line, 5);
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // The display format points at the source line (PR 2 style).
        let e = execute(&parse("machine knl-flat\n\ntenant x\n").expect("parses"))
            .map(|_| ())
            .expect_err("needs serve");
        let text = e.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("\"x\""), "{text}");
    }

    const CHAOS: &str = r#"
machine knl-flat
initiator 0-15
threads 16
serve fair-share

tenant app latency
fault degrade hbm
alloc resilient 2GiB bandwidth spill ttl=4
phase degraded
  read resilient 4GiB seq
end

fault restore hbm
alloc fresh 2GiB bandwidth spill
phase recovered
  read fresh 8GiB seq
end

tick 4
free fresh
"#;

    #[test]
    fn chaos_scenario_degrades_expires_and_recovers() {
        let s = parse(CHAOS).expect("valid");
        let r = execute(&s).expect("runs");
        assert_eq!(r.phases.len(), 2);
        // The degraded tier was avoided: the first phase ran from DRAM
        // and the post-restore phase from MCDRAM, so it is faster per
        // byte moved (it moved 2x the bytes in less than 2x the time).
        assert!(
            r.phases[1].bw_mbps > r.phases[0].bw_mbps,
            "recovered {} <= degraded {}",
            r.phases[1].bw_mbps,
            r.phases[0].bw_mbps
        );
        // Four silent ticks outlived the ttl=4 lease: reclaimed.
        let rob = r.robustness.expect("served mode");
        assert_eq!(rob.expired, 1, "{rob:?}");
        assert!(rob.reclaimed_bytes >= 2 << 30, "{rob:?}");
        // `fresh` was freed explicitly and `resilient` expired, so no
        // live placements remain.
        assert!(r.final_placements.is_empty(), "{:?}", r.final_placements);
    }

    #[test]
    fn shipped_chaos_scenario_runs() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/chaos.txt"
        ))
        .expect("scenarios/chaos.txt");
        let r = execute(&parse(&text).expect("parses")).expect("runs");
        assert_eq!(r.phases.len(), 2);
        let rob = r.robustness.expect("served mode");
        assert_eq!(rob.expired, 1, "{rob:?}");
    }

    #[test]
    fn shipped_replay_chaos_scenario_records_and_replays_byte_for_byte() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/replay_chaos.txt"
        ))
        .expect("scenarios/replay_chaos.txt");
        // The shipped stanza writes a fixed path; the test writes one
        // of its own and removes it, so two runs never share the file.
        let snap_path =
            std::env::temp_dir().join(format!("hetmem-replay-chaos-{}.snap", std::process::id()));
        let text = text.replace("/tmp/replay_chaos.snap", &snap_path.display().to_string());
        let s = parse(&text).expect("parses");
        let sink = TelemetrySink::with_ring_words(1 << 18);
        let r = execute_with_options(&s, sink, ExecOptions { record: true, ..Default::default() })
            .expect("runs");
        let log = r.wire_log.expect("recorded");
        assert!(
            matches!(log.frames.last(), Some(WireFrame::Trailer { .. })),
            "log ends in a trailer"
        );
        // The shipped stanza checkpoints at epoch 6, mid-degradation.
        let snap = hetmem_snapshot::Snapshot::read_file(&snap_path)
            .expect("snapshot written by the stanza");
        let _ = std::fs::remove_file(&snap_path);
        assert_eq!(snap.state.epoch, 6);
        assert!(
            snap.state.degraded.contains(&hetmem_topology::MemoryKind::Hbm),
            "checkpoint taken while HBM is degraded: {:?}",
            snap.state.degraded
        );
        assert!(!snap.state.leases.is_empty(), "leases in flight at the checkpoint");
        let machine = Arc::new(Machine::by_name("knl-flat").expect("machine"));
        let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
        let report = hetmem_snapshot::replay(&snap, &log, machine, attrs).expect("replays");
        assert!(report.requests > 0, "{report:?}");
        assert!(report.control_frames > 0, "{report:?}");
        assert_eq!(report.state_matched, Some(true), "{report:?}");
        assert_eq!(report.summary_matched, Some(true), "{report:?}");
    }

    #[test]
    fn snapshot_stanza_writes_a_restorable_checkpoint() {
        let path = std::env::temp_dir().join("hetmem_snapshot_stanza_test.snap");
        let s = parse(&format!(
            "machine knl-flat\nserve\ntenant t latency\nalloc a 1GiB bandwidth spill\n\
             snapshot epoch=3 file={}\ntick 2\n",
            path.display()
        ))
        .expect("parses");
        execute(&s).expect("runs");
        let snap = hetmem_snapshot::Snapshot::read_file(&path).expect("written");
        assert_eq!(snap.state.epoch, 3);
        assert_eq!(snap.state.tenants.len(), 1);
        assert_eq!(snap.state.leases.len(), 1);
        let machine = Arc::new(Machine::by_name("knl-flat").expect("machine"));
        let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = snap.restore(machine, attrs).expect("restores");
        assert_eq!(broker.epoch(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_mode_refuses_unreplayable_statements() {
        let opts = ExecOptions { record: true, ..Default::default() };
        let sink = || TelemetrySink::with_ring_words(1 << 12);
        // Phases cannot be recorded.
        let s = parse(
            "machine knl-flat\nserve\ntenant t\nalloc a 1GiB capacity\n\
             phase p\n  read a 1GiB seq\nend\n",
        )
        .expect("parses");
        match execute_with_options(&s, sink(), opts) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "p");
                assert_eq!(line, 5);
                assert!(message.contains("service plane"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // Global allocations cannot be recorded.
        let s = parse("machine knl-flat\nserve\ntenant t\nalloc a 1GiB latency next global\n")
            .expect("parses");
        match execute_with_options(&s, sink(), opts) {
            Err(ExecError::Service { name, message, .. }) => {
                assert_eq!(name, "a");
                assert!(message.contains("global"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // A restricted initiator is refused at `serve` (wire clients
        // always place against the whole machine).
        let s = parse("machine knl-flat\ninitiator 0-3\nserve\n").expect("parses");
        match execute_with_options(&s, sink(), opts) {
            Err(ExecError::Service { name, message, .. }) => {
                assert_eq!(name, "serve");
                assert!(message.contains("initiator"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // Recording needs a served scenario at all.
        let s = parse("machine knl-flat\nalloc a 1GiB capacity\n").expect("parses");
        match execute_with_options(&s, sink(), opts) {
            Err(ExecError::Service { name, message, .. }) => {
                assert_eq!(name, "record");
                assert!(message.contains("serve"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // Guided service cannot be recorded: the plane's estimator
        // state is not replayable history.
        let s = parse("machine knl-flat\nserve guided=on\n").expect("parses");
        match execute_with_options(&s, sink(), opts) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "serve");
                assert_eq!(line, 2);
                assert!(message.contains("guided"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn guided_serve_runs_and_reports_sampling_overhead() {
        let s = parse(
            "machine knl-flat\ninitiator 0-15\nthreads 16\n\
             serve fair-share guided=on budget=5\n\
             tenant app latency\nalloc a 1GiB bandwidth spill\n\
             phase p\n  read a 2GiB seq\nend\ntick\n",
        )
        .expect("parses");
        let r = execute_with_sink(&s, TelemetrySink::with_ring_words(1 << 12)).expect("runs");
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.tenants.len(), 1);
    }

    #[test]
    fn snapshot_stanza_misuse_errors() {
        // Needs served mode.
        let s = parse("machine knl-flat\nsnapshot epoch=1 file=/tmp/x.snap\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "snapshot");
                assert_eq!(line, 2);
                assert!(message.contains("serve"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        // The checkpoint epoch cannot be in the past.
        let s = parse("machine knl-flat\nserve\ntick 4\nsnapshot epoch=2 file=/tmp/x.snap\n")
            .expect("parses");
        match execute(&s) {
            Err(ExecError::Service { line, message, .. }) => {
                assert_eq!(line, 4);
                assert!(message.contains("past"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn expired_buffers_are_forgotten_by_tick() {
        // Referencing an expired lease reports unknown buffer, not a
        // panic or a stale-region access.
        let s = parse(
            "machine knl-flat\nserve\ntenant t\nalloc a 1GiB capacity ttl=1\ntick 2\nfree a\n",
        )
        .expect("parses");
        match execute(&s) {
            Err(ExecError::UnknownBuffer { name, line }) => {
                assert_eq!(name, "a");
                assert_eq!(line, 6);
            }
            other => panic!("expected unknown buffer, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn chaos_statements_need_served_mode() {
        let s = parse("machine knl-flat\nfault degrade hbm\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "fault");
                assert_eq!(line, 2);
                assert!(message.contains("serve"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        let s = parse("machine knl-flat\ntick 3\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, .. }) => {
                assert_eq!(name, "tick");
                assert_eq!(line, 2);
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
        let s = parse("machine knl-flat\nalloc a 1GiB capacity ttl=2\n").expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "a");
                assert_eq!(line, 2);
                assert!(message.contains("ttl"), "{message}");
            }
            other => panic!("expected service error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn served_admission_failure_reports_the_buffer() {
        // Strict fallback for more than the whole fast tier: denied.
        let s =
            parse("machine knl-flat\nserve\ntenant greedy\nalloc huge 40GiB bandwidth strict\n")
                .expect("parses");
        match execute(&s) {
            Err(ExecError::Service { name, line, message }) => {
                assert_eq!(name, "huge");
                assert_eq!(line, 4);
                assert!(message.contains("admission"), "{message}");
            }
            other => panic!("expected admission failure, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn guidance_statement_speeds_up_era_change() {
        // `a` wins MCDRAM; `b` falls back to DRAM entirely. The era
        // change is only profitable if guidance reacts well before the
        // six DRAM-speed phases are over.
        let mut base = String::from(
            "machine knl-flat
initiator 0-15
threads 16
alloc a 2GiB bandwidth
alloc b 2GiB bandwidth
phase era1
  read a 16GiB seq
end
",
        );
        for i in 0..9 {
            base.push_str(&format!("phase era2{i}\n  read b 16GiB seq\nend\n"));
        }
        let guided = format!("guidance 32768 bandwidth\n{base}");
        let plain = execute(&parse(&base).expect("valid")).expect("runs");
        let with_g = execute(&parse(&guided).expect("valid")).expect("runs");
        let stats = with_g.guidance.expect("guidance ran");
        assert!(stats.promotions >= 1, "{stats:?}");
        assert!(stats.intervals > 4);
        // Guidance notices the era change and beats the static run.
        assert!(
            with_g.total_ns < plain.total_ns,
            "guided {} vs static {}",
            with_g.total_ns,
            plain.total_ns
        );
    }

    #[test]
    fn shipped_federation_scenario_spills_across_brokers() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/federation.txt"
        ))
        .expect("scenarios/federation.txt");
        let r = execute(&parse(&text).expect("parses")).expect("runs");
        let fed = r.federation.expect("federated mode");
        assert_eq!(fed.members, 2);
        assert!(fed.spilled_leases >= 1, "{fed:?}");
        assert!(fed.digest_merges >= 2, "{fed:?}");
        assert!(fed.fast_bytes > 0 && fed.fast_bytes <= fed.granted_bytes, "{fed:?}");
        // The surviving lease is the spilled one, spanning both
        // shards: broker 0 owns the even nodes, broker 1 the odd.
        let (name, placement) = &r.final_placements[0];
        assert_eq!(name, "spilled");
        assert!(placement.iter().any(|(n, _)| n.0 % 2 == 0), "{placement:?}");
        assert!(placement.iter().any(|(n, _)| n.0 % 2 == 1), "{placement:?}");
    }

    #[test]
    fn federated_mode_misuse_errors_carry_line_and_name() {
        for (src, line, needle) in [
            // serve and federate are mutually exclusive, both ways.
            ("machine knl-flat\nserve\nfederate brokers=2\n", 3, "exclusive"),
            ("machine knl-flat\nfederate brokers=2\nserve\n", 3, "exclusive"),
            ("machine knl-flat\nfederate brokers=2\nfederate brokers=2\n", 3, "twice"),
            // federate after an alloc.
            ("machine knl-flat\nalloc a 1GiB capacity\nfederate brokers=2\n", 3, "first alloc"),
            // phases and migration stay single-broker features.
            (
                "machine knl-flat\nfederate brokers=2\ntenant t\nphase p\n  compute 1ms\nend\n",
                4,
                "not federated",
            ),
            (
                "machine knl-flat\nfederate brokers=2\ntenant t\nalloc a 1GiB capacity\nmigrate a bandwidth\n",
                5,
                "federated",
            ),
        ] {
            match execute(&parse(src).expect("parses")) {
                Err(ExecError::Service { line: l, message, .. }) => {
                    assert_eq!(l, line, "{src}");
                    assert!(message.contains(needle), "{src}: {message}");
                }
                other => panic!("{src}: expected service error, got {:?}", other.map(|_| ())),
            }
        }
        // --record refuses federated scenarios, naming the federate
        // statement's source line (the recorder drives one wire log).
        let s = parse("machine knl-flat\nfederate brokers=2\n").expect("parses");
        let e = execute_with_options(
            &s,
            TelemetrySink::disabled(),
            ExecOptions { record: true, ..Default::default() },
        )
        .map(|_| ())
        .expect_err("record refused");
        let text = e.to_string();
        assert!(text.contains("line 2"), "{text}");
        assert!(text.contains("recorded"), "{text}");
    }
}
