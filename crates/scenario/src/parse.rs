//! Parser for the scenario DSL.
//!
//! Line-oriented; `#` starts a comment. Grammar (one statement per
//! line):
//!
//! ```text
//! machine <platform>
//! initiator <cpuset>              # hwloc list format, e.g. 0-15
//! threads <n>
//! discover firmware|benchmarks    # attribute source (default firmware)
//!
//! alloc <name> <size> <criterion> [strict|next|spill] [global] [ttl=<n>]
//! free <name>
//! migrate <name> <criterion>
//! rebalance [criterion]           # run the tiering daemon (default bandwidth)
//! guidance <period> [criterion]   # sample every <period> accesses and let the
//!                                 # online engine migrate mid-phase
//!
//! serve [fair-share|fcfs|static] # switch to broker-backed multi-tenant
//!                                 # mode (before the first alloc)
//! federate brokers=<n> [spill=on|off] [fair-share|fcfs|static]
//!                                 # switch to a federation of n shard
//!                                 # brokers instead of one (tenants
//!                                 # home round-robin; shortfalls
//!                                 # spill to peers)
//! tenant <name> [latency|normal|batch]  # select (and register on first
//!                                 # use) the tenant owning what follows
//! fault degrade|restore <tier>    # mark a tier degraded/healthy
//!                                 # (dram|hbm|nvdimm|nam|gpu; served mode)
//! tick [n]                        # advance the service clock n epochs
//!                                 # (default 1; TTLs expire; served mode)
//! snapshot epoch=<n> file=<path>  # advance to epoch n and write a
//!                                 # broker checkpoint there (served
//!                                 # mode; see hetmem-snapshot)
//!
//! phase <name>
//!   read  <buffer> <size> seq|strided|random|chase [hot=<0..1>]
//!   write <buffer> <size> seq|strided|random|chase [hot=<0..1>]
//!   compute <duration>            # e.g. 5ms, 300us, 2s
//! end
//! ```
//!
//! Sizes accept `B`, `KiB`, `MiB`, `GiB` suffixes (and bare bytes);
//! criteria are `bandwidth`, `latency`, `capacity`, `readbandwidth`,
//! `writebandwidth`, `readlatency`, `writelatency`.

use hetmem_alloc::Fallback;
use hetmem_core::{attr, AttrId};
use hetmem_memsim::AccessPattern;
use hetmem_service::{ArbitrationPolicy, Priority};
use hetmem_topology::MemoryKind;

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One access line inside a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessSpec {
    /// Buffer name.
    pub buffer: String,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Pattern.
    pub pattern: AccessPattern,
    /// Fraction of the buffer that is hot (working set), 0..=1.
    pub hot_fraction: f64,
}

/// A phase block.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name.
    pub name: String,
    /// Accesses.
    pub accesses: Vec<AccessSpec>,
    /// Pure compute, ns.
    pub compute_ns: f64,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `alloc name size criterion fallback [global] [ttl=n]`.
    Alloc {
        /// Buffer name.
        name: String,
        /// Bytes.
        size: u64,
        /// Attribute criterion.
        criterion: AttrId,
        /// Fallback mode.
        fallback: Fallback,
        /// Rank all targets (remote included) instead of local only —
        /// the §VIII mode; needs `discover benchmarks`.
        global: bool,
        /// Lease TTL in epochs (`ttl=<n>`; served mode only — the
        /// lease is reclaimed after `n` silent `tick`s).
        ttl: Option<u64>,
    },
    /// `free name`.
    Free(String),
    /// `migrate name criterion`.
    Migrate {
        /// Buffer name.
        name: String,
        /// Attribute criterion for the new placement.
        criterion: AttrId,
    },
    /// A `phase ... end` block.
    Phase(PhaseSpec),
    /// `rebalance [criterion]`: run the tiering daemon.
    Rebalance {
        /// The hot-tier criterion.
        criterion: AttrId,
    },
    /// `guidance <period> [criterion]`: enable the online guidance
    /// engine for all following phases.
    Guidance {
        /// Sampling period, accesses per sample.
        period: u64,
        /// Attribute whose best local target hot regions move to.
        criterion: AttrId,
    },
    /// `serve [policy] [guided=on|off] [budget=N]`: switch execution
    /// to broker-backed multi-tenant mode; all following allocations go
    /// through the arbiter (must appear before the first `alloc`).
    /// `guided=on` embeds one adaptive guidance plane per tenant;
    /// `budget=N` caps each epoch's migration batch at N milliseconds
    /// of modelled move cost (requires `guided=on`).
    Serve {
        /// The arbitration policy (default fair-share).
        policy: ArbitrationPolicy,
        /// Whether guided service (per-tenant guidance planes) is on.
        guided: bool,
        /// Per-epoch migration budget in milliseconds of modelled move
        /// cost; `None` keeps [`hetmem_service::GuidedConfig`]'s
        /// default.
        budget_ms: Option<u64>,
    },
    /// `federate brokers=<n> [spill=on|off] [policy]`: switch
    /// execution to a federation of `n` shard brokers instead of a
    /// single broker (mutually exclusive with `serve`; before the
    /// first `alloc`). Tenants home round-robin across members in
    /// registration order; with spill on (the default), shortfalling
    /// placements forward their residual to the best-ranked peer.
    Federate {
        /// Member broker count (≥ 1).
        members: u32,
        /// Whether shortfalls spill to peers.
        spill: bool,
        /// The arbitration policy every member runs (default
        /// fair-share).
        policy: ArbitrationPolicy,
    },
    /// `tenant <name> [priority]`: select — registering on first use —
    /// the tenant that owns the following statements (served mode
    /// only).
    Tenant {
        /// Tenant name.
        name: String,
        /// Priority class (default normal; only applied at
        /// registration).
        priority: Priority,
    },
    /// `fault degrade <tier>` / `fault restore <tier>`: mark a memory
    /// tier degraded or healthy again (served mode only — the broker
    /// demotes degraded tiers to last resort).
    Fault {
        /// The affected tier.
        kind: MemoryKind,
        /// `true` for `degrade`, `false` for `restore`.
        degraded: bool,
    },
    /// `tick [n]`: advance the broker's epoch clock `n` times (served
    /// mode only). Leases whose TTL elapses without a renewal are
    /// reclaimed during the sweep.
    Tick {
        /// Epochs to advance (at least 1).
        epochs: u64,
    },
    /// `snapshot epoch=<n> file=<path>`: advance the broker to epoch
    /// `n` (an error if the clock is already past it) and write a
    /// `hetmem-snapshot` checkpoint of the full broker state to
    /// `path` (served mode only). Under `hetmem-run --record`, wire
    /// logging starts at this boundary so the log continues exactly
    /// where the checkpoint leaves off.
    Snapshot {
        /// The epoch boundary to checkpoint at.
        epoch: u64,
        /// Output path for the snapshot file.
        file: String,
    },
}

/// One statement with the source line it came from (for error
/// reporting by the executor).
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// 1-based line in the scenario text (`phase` blocks report the
    /// line of the `phase` keyword).
    pub line: usize,
    /// The parsed statement.
    pub cmd: Command,
}

/// Which attribute source to discover with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Discovery {
    /// ACPI SRAT/HMAT (local-only, like Linux).
    #[default]
    Firmware,
    /// Benchmark the full matrix.
    Benchmarks,
}

/// A parsed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Platform name (resolved by [`hetmem_memsim::Machine::by_name`]).
    pub machine: String,
    /// Initiator cpuset in hwloc list format.
    pub initiator: String,
    /// Worker threads.
    pub threads: usize,
    /// Attribute source.
    pub discovery: Discovery,
    /// The statements, in order.
    pub commands: Vec<Stmt>,
}

fn parse_size(tok: &str, line: usize) -> Result<u64, ParseError> {
    let err = |m: String| ParseError { line, message: m };
    let lower = tok.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("gib") {
        (n, 1u64 << 30)
    } else if let Some(n) = lower.strip_suffix("mib") {
        (n, 1u64 << 20)
    } else if let Some(n) = lower.strip_suffix("kib") {
        (n, 1u64 << 10)
    } else if let Some(n) = lower.strip_suffix('b') {
        (n, 1)
    } else {
        (lower.as_str(), 1)
    };
    let v: f64 = num.parse().map_err(|_| err(format!("bad size {tok:?}")))?;
    if v < 0.0 {
        return Err(err(format!("negative size {tok:?}")));
    }
    Ok((v * mult as f64) as u64)
}

fn parse_duration_ns(tok: &str, line: usize) -> Result<f64, ParseError> {
    let err = |m: String| ParseError { line, message: m };
    let lower = tok.to_ascii_lowercase();
    let (num, mult) = if let Some(n) = lower.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = lower.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = lower.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = lower.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(err(format!("duration {tok:?} needs a unit (ns/us/ms/s)")));
    };
    let v: f64 = num.parse().map_err(|_| err(format!("bad duration {tok:?}")))?;
    Ok(v * mult)
}

fn parse_criterion(tok: &str, line: usize) -> Result<AttrId, ParseError> {
    Ok(match tok.to_ascii_lowercase().as_str() {
        "bandwidth" => attr::BANDWIDTH,
        "latency" => attr::LATENCY,
        "capacity" => attr::CAPACITY,
        "locality" => attr::LOCALITY,
        "readbandwidth" => attr::READ_BANDWIDTH,
        "writebandwidth" => attr::WRITE_BANDWIDTH,
        "readlatency" => attr::READ_LATENCY,
        "writelatency" => attr::WRITE_LATENCY,
        other => return Err(ParseError { line, message: format!("unknown criterion {other:?}") }),
    })
}

fn parse_tier(tok: &str, line: usize) -> Result<MemoryKind, ParseError> {
    Ok(match tok.to_ascii_lowercase().as_str() {
        "dram" | "ddr" => MemoryKind::Dram,
        "hbm" | "mcdram" => MemoryKind::Hbm,
        "nvdimm" | "optane" | "pmem" => MemoryKind::Nvdimm,
        "nam" | "network" => MemoryKind::NetworkAttached,
        "gpu" => MemoryKind::GpuMemory,
        other => {
            return Err(ParseError {
                line,
                message: format!("unknown tier {other:?} (dram|hbm|nvdimm|nam|gpu)"),
            })
        }
    })
}

fn parse_pattern(tok: &str, line: usize) -> Result<AccessPattern, ParseError> {
    Ok(match tok.to_ascii_lowercase().as_str() {
        "seq" | "sequential" => AccessPattern::Sequential,
        "strided" => AccessPattern::Strided,
        "random" => AccessPattern::Random,
        "chase" | "pointerchase" => AccessPattern::PointerChase,
        other => return Err(ParseError { line, message: format!("unknown pattern {other:?}") }),
    })
}

/// Parses a scenario file.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut machine = None;
    let mut initiator = None;
    let mut threads = None;
    let mut discovery = Discovery::default();
    let mut commands = Vec::new();
    let mut current_phase: Option<(usize, PhaseSpec)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let err = |m: String| ParseError { line, message: m };
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let toks: Vec<&str> = content.split_whitespace().collect();
        let kw = toks[0].to_ascii_lowercase();

        if let Some((_, phase)) = current_phase.as_mut() {
            match kw.as_str() {
                "read" | "write" => {
                    if !(4..=5).contains(&toks.len()) {
                        return Err(err(format!(
                            "{kw} needs: {kw} <buffer> <size> <pattern> [hot=<f>]"
                        )));
                    }
                    let bytes = parse_size(toks[2], line)?;
                    let pattern = parse_pattern(toks[3], line)?;
                    let hot_fraction = match toks.get(4) {
                        None => 1.0,
                        Some(tok) => {
                            let v: f64 = tok
                                .strip_prefix("hot=")
                                .ok_or_else(|| err(format!("unknown option {tok:?}")))?
                                .parse()
                                .map_err(|_| err(format!("bad hot= value {tok:?}")))?;
                            if !(0.0..=1.0).contains(&v) {
                                return Err(err(format!("hot= out of range in {tok:?}")));
                            }
                            v
                        }
                    };
                    let (r, w) = if kw == "read" { (bytes, 0) } else { (0, bytes) };
                    phase.accesses.push(AccessSpec {
                        buffer: toks[1].to_string(),
                        bytes_read: r,
                        bytes_written: w,
                        pattern,
                        hot_fraction,
                    });
                }
                "compute" => {
                    if toks.len() != 2 {
                        return Err(err("compute needs a duration".into()));
                    }
                    phase.compute_ns += parse_duration_ns(toks[1], line)?;
                }
                "end" => {
                    let (start, phase) = current_phase.take().expect("in phase");
                    commands.push(Stmt { line: start, cmd: Command::Phase(phase) });
                }
                other => {
                    return Err(err(format!("unexpected {other:?} inside phase (missing end?)")))
                }
            }
            continue;
        }

        match kw.as_str() {
            "machine" => {
                if toks.len() != 2 {
                    return Err(err("machine needs a platform name".into()));
                }
                machine = Some(toks[1].to_string());
            }
            "initiator" => {
                if toks.len() != 2 {
                    return Err(err("initiator needs a cpuset".into()));
                }
                initiator = Some(toks[1].to_string());
            }
            "threads" => {
                if toks.len() != 2 {
                    return Err(err("threads needs a count".into()));
                }
                threads =
                    Some(toks[1].parse().map_err(|_| err(format!("bad count {:?}", toks[1])))?);
            }
            "discover" => {
                discovery = match toks.get(1).copied() {
                    Some("firmware") => Discovery::Firmware,
                    Some("benchmarks") => Discovery::Benchmarks,
                    other => {
                        return Err(err(format!("discover firmware|benchmarks, got {other:?}")))
                    }
                };
            }
            "alloc" => {
                if !(4..=7).contains(&toks.len()) {
                    return Err(err("alloc needs: alloc <name> <size> <criterion> \
                         [strict|next|spill] [global] [ttl=<n>]"
                        .into()));
                }
                let mut fallback = Fallback::NextTarget;
                let mut global = false;
                let mut ttl = None;
                for &tok in &toks[4..] {
                    match tok {
                        "next" => fallback = Fallback::NextTarget,
                        "strict" => fallback = Fallback::Strict,
                        "spill" => fallback = Fallback::PartialSpill,
                        "global" => global = true,
                        other => match other.strip_prefix("ttl=") {
                            Some(n) => {
                                let n: u64 = n
                                    .parse()
                                    .map_err(|_| err(format!("bad ttl= value {other:?}")))?;
                                if n == 0 {
                                    return Err(err("ttl= must be at least 1 epoch".into()));
                                }
                                ttl = Some(n);
                            }
                            None => return Err(err(format!("unknown alloc option {other:?}"))),
                        },
                    }
                }
                commands.push(Stmt {
                    line,
                    cmd: Command::Alloc {
                        name: toks[1].to_string(),
                        size: parse_size(toks[2], line)?,
                        criterion: parse_criterion(toks[3], line)?,
                        fallback,
                        global,
                        ttl,
                    },
                });
            }
            "free" => {
                if toks.len() != 2 {
                    return Err(err("free needs a buffer name".into()));
                }
                commands.push(Stmt { line, cmd: Command::Free(toks[1].to_string()) });
            }
            "migrate" => {
                if toks.len() != 3 {
                    return Err(err("migrate needs: migrate <name> <criterion>".into()));
                }
                commands.push(Stmt {
                    line,
                    cmd: Command::Migrate {
                        name: toks[1].to_string(),
                        criterion: parse_criterion(toks[2], line)?,
                    },
                });
            }
            "rebalance" => {
                let criterion = match toks.get(1) {
                    Some(tok) => parse_criterion(tok, line)?,
                    None => attr::BANDWIDTH,
                };
                commands.push(Stmt { line, cmd: Command::Rebalance { criterion } });
            }
            "guidance" => {
                if !(2..=3).contains(&toks.len()) {
                    return Err(err("guidance needs: guidance <period> [criterion]".into()));
                }
                let period: u64 = toks[1]
                    .parse()
                    .map_err(|_| err(format!("bad sampling period {:?}", toks[1])))?;
                if period == 0 {
                    return Err(err("sampling period must be at least 1".into()));
                }
                let criterion = match toks.get(2) {
                    Some(tok) => parse_criterion(tok, line)?,
                    None => attr::BANDWIDTH,
                };
                commands.push(Stmt { line, cmd: Command::Guidance { period, criterion } });
            }
            "serve" => {
                let mut policy = None;
                let mut guided = false;
                let mut budget_ms = None;
                for &tok in &toks[1..] {
                    if let Some(v) = tok.strip_prefix("guided=") {
                        guided = match v {
                            "on" => true,
                            "off" => false,
                            _ => return Err(err(format!("bad guided= value {tok:?} (on|off)"))),
                        };
                    } else if let Some(n) = tok.strip_prefix("budget=") {
                        let ms: u64 =
                            n.parse().map_err(|_| err(format!("bad budget= value {tok:?}")))?;
                        if ms == 0 {
                            return Err(err("serve budget= must be at least 1 ms".into()));
                        }
                        budget_ms = Some(ms);
                    } else if let Some(p) = ArbitrationPolicy::from_str_opt(tok) {
                        if policy.replace(p).is_some() {
                            return Err(err("serve takes at most one policy name".into()));
                        }
                    } else {
                        return Err(err(format!(
                            "unknown serve argument {tok:?} \
                             (fair-share|fcfs|static, guided=on|off, budget=N)"
                        )));
                    }
                }
                if budget_ms.is_some() && !guided {
                    return Err(err("serve budget= requires guided=on".into()));
                }
                commands.push(Stmt {
                    line,
                    cmd: Command::Serve {
                        policy: policy.unwrap_or(ArbitrationPolicy::FairShare),
                        guided,
                        budget_ms,
                    },
                });
            }
            "federate" => {
                let mut members = None;
                let mut spill = true;
                let mut policy = ArbitrationPolicy::FairShare;
                for &tok in &toks[1..] {
                    if let Some(n) = tok.strip_prefix("brokers=") {
                        let n: u32 =
                            n.parse().map_err(|_| err(format!("bad brokers= value {tok:?}")))?;
                        if n == 0 {
                            return Err(err("federate needs at least 1 broker".into()));
                        }
                        members = Some(n);
                    } else if let Some(v) = tok.strip_prefix("spill=") {
                        spill = match v {
                            "on" => true,
                            "off" => false,
                            _ => return Err(err(format!("bad spill= value {tok:?} (on|off)"))),
                        };
                    } else if let Some(p) = ArbitrationPolicy::from_str_opt(tok) {
                        policy = p;
                    } else {
                        return Err(err(format!("unknown federate option {tok:?}")));
                    }
                }
                let Some(members) = members else {
                    return Err(err(
                        "federate needs: federate brokers=<n> [spill=on|off] [policy]".into(),
                    ));
                };
                commands.push(Stmt { line, cmd: Command::Federate { members, spill, policy } });
            }
            "tenant" => {
                if !(2..=3).contains(&toks.len()) {
                    return Err(err("tenant needs: tenant <name> [latency|normal|batch]".into()));
                }
                let name = toks[1].to_string();
                let priority = match toks.get(2) {
                    Some(tok) => Priority::from_str_opt(tok).ok_or_else(|| {
                        err(format!(
                            "unknown priority {tok:?} for tenant {name:?} (latency|normal|batch)"
                        ))
                    })?,
                    None => Priority::Normal,
                };
                commands.push(Stmt { line, cmd: Command::Tenant { name, priority } });
            }
            "fault" => {
                if toks.len() != 3 {
                    return Err(err("fault needs: fault degrade|restore <tier>".into()));
                }
                let degraded = match toks[1].to_ascii_lowercase().as_str() {
                    "degrade" => true,
                    "restore" => false,
                    other => return Err(err(format!("fault action {other:?} (degrade|restore)"))),
                };
                let kind = parse_tier(toks[2], line)?;
                commands.push(Stmt { line, cmd: Command::Fault { kind, degraded } });
            }
            "tick" => {
                if toks.len() > 2 {
                    return Err(err("tick takes at most an epoch count".into()));
                }
                let epochs: u64 = match toks.get(1) {
                    Some(tok) => {
                        tok.parse().map_err(|_| err(format!("bad epoch count {tok:?}")))?
                    }
                    None => 1,
                };
                if epochs == 0 {
                    return Err(err("tick needs at least 1 epoch".into()));
                }
                commands.push(Stmt { line, cmd: Command::Tick { epochs } });
            }
            "snapshot" => {
                let mut epoch = None;
                let mut file = None;
                for &tok in &toks[1..] {
                    if let Some(n) = tok.strip_prefix("epoch=") {
                        epoch =
                            Some(n.parse().map_err(|_| err(format!("bad epoch= value {tok:?}")))?);
                    } else if let Some(path) = tok.strip_prefix("file=") {
                        file = Some(path.to_string());
                    } else {
                        return Err(err(format!("unknown snapshot option {tok:?}")));
                    }
                }
                let (Some(epoch), Some(file)) = (epoch, file) else {
                    return Err(err("snapshot needs: snapshot epoch=<n> file=<path>".into()));
                };
                commands.push(Stmt { line, cmd: Command::Snapshot { epoch, file } });
            }
            "phase" => {
                if toks.len() != 2 {
                    return Err(err("phase needs a name".into()));
                }
                current_phase = Some((
                    line,
                    PhaseSpec { name: toks[1].to_string(), accesses: Vec::new(), compute_ns: 0.0 },
                ));
            }
            "end" => return Err(err("end outside a phase".into())),
            other => return Err(err(format!("unknown statement {other:?}"))),
        }
    }

    if current_phase.is_some() {
        return Err(ParseError {
            line: text.lines().count(),
            message: "unterminated phase".into(),
        });
    }
    Ok(Scenario {
        machine: machine.ok_or(ParseError { line: 0, message: "missing machine".into() })?,
        initiator: initiator.unwrap_or_else(|| "0-".to_string()),
        threads: threads.unwrap_or(1),
        discovery,
        commands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
machine knl-flat
initiator 0-15
threads 16
alloc hot 3GiB bandwidth spill
alloc bulk 10GiB capacity
phase traverse
  read hot 12GiB seq
  read bulk 2GiB random
  compute 5ms
end
free hot
migrate bulk bandwidth
"#;

    #[test]
    fn parses_sample() {
        let s = parse(SAMPLE).expect("valid");
        assert_eq!(s.machine, "knl-flat");
        assert_eq!(s.initiator, "0-15");
        assert_eq!(s.threads, 16);
        assert_eq!(s.commands.len(), 5);
        match &s.commands[0].cmd {
            Command::Alloc { name, size, criterion, fallback, global, ttl } => {
                assert_eq!(name, "hot");
                assert_eq!(*size, 3 << 30);
                assert_eq!(*criterion, attr::BANDWIDTH);
                assert_eq!(*fallback, Fallback::PartialSpill);
                assert!(!global);
                assert_eq!(*ttl, None);
            }
            other => panic!("expected alloc, got {other:?}"),
        }
        match &s.commands[2].cmd {
            Command::Phase(p) => {
                assert_eq!(p.name, "traverse");
                assert_eq!(p.accesses.len(), 2);
                assert_eq!(p.accesses[0].bytes_read, 12 << 30);
                assert_eq!(p.accesses[1].pattern, AccessPattern::Random);
                assert_eq!(p.accesses[0].hot_fraction, 1.0);
                assert!((p.compute_ns - 5e6).abs() < 1e-9);
            }
            other => panic!("expected phase, got {other:?}"),
        }
        assert_eq!(s.commands[3].cmd, Command::Free("hot".into()));
    }

    #[test]
    fn statements_carry_source_lines() {
        let s = parse(SAMPLE).expect("valid");
        // Lines of: alloc hot, alloc bulk, phase traverse, free, migrate.
        let lines: Vec<usize> = s.commands.iter().map(|c| c.line).collect();
        assert_eq!(lines, vec![6, 7, 8, 13, 14]);
    }

    #[test]
    fn guidance_statement() {
        let s = parse(
            "machine knl-flat
guidance 32768
guidance 8192 latency
",
        )
        .expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Guidance { period: 32768, criterion: attr::BANDWIDTH }
        );
        assert_eq!(s.commands[1].cmd, Command::Guidance { period: 8192, criterion: attr::LATENCY });
        assert!(parse("machine m\nguidance\n").is_err());
        assert!(parse("machine m\nguidance 0\n").is_err());
        assert!(parse("machine m\nguidance many\n").is_err());
        assert!(parse("machine m\nguidance 4096 bogus\n").is_err());
    }

    #[test]
    fn sizes_and_durations() {
        assert_eq!(parse_size("512MiB", 1).unwrap(), 512 << 20);
        assert_eq!(parse_size("2KiB", 1).unwrap(), 2048);
        assert_eq!(parse_size("1.5GiB", 1).unwrap(), 3 << 29);
        assert_eq!(parse_size("4096", 1).unwrap(), 4096);
        assert_eq!(parse_size("64B", 1).unwrap(), 64);
        assert!(parse_size("xx", 1).is_err());
        assert!((parse_duration_ns("2s", 1).unwrap() - 2e9).abs() < 1.0);
        assert!((parse_duration_ns("300us", 1).unwrap() - 3e5).abs() < 1e-9);
        assert!(parse_duration_ns("5", 1).is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "machine knl-flat\nallocate x 1GiB bandwidth\n";
        let e = parse(bad).expect_err("bad keyword");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown statement"));

        let e = parse("machine knl-flat\nphase p\n  read a 1GiB seq\n").expect_err("no end");
        assert!(e.message.contains("unterminated"));

        let e = parse("alloc x 1GiB bandwidth\n").expect_err("no machine");
        assert!(e.message.contains("missing machine"));

        let e = parse("machine m\nphase p\n  alloc y 1GiB latency\nend\n")
            .expect_err("alloc inside phase");
        assert!(e.message.contains("inside phase"));
    }

    #[test]
    fn hot_fraction_option() {
        let s = parse(
            "machine xeon
phase p
  read a 1GiB random hot=0.25
end
",
        )
        .expect("valid");
        match &s.commands[0].cmd {
            Command::Phase(p) => assert_eq!(p.accesses[0].hot_fraction, 0.25),
            other => panic!("expected phase, got {other:?}"),
        }
        assert!(parse(
            "machine m
phase p
  read a 1GiB random hot=2
end
"
        )
        .is_err());
        assert!(parse(
            "machine m
phase p
  read a 1GiB random bogus
end
"
        )
        .is_err());
    }

    #[test]
    fn rebalance_statement() {
        let s = parse(
            "machine knl-flat
rebalance
rebalance latency
",
        )
        .expect("valid");
        assert_eq!(s.commands[0].cmd, Command::Rebalance { criterion: attr::BANDWIDTH });
        assert_eq!(s.commands[1].cmd, Command::Rebalance { criterion: attr::LATENCY });
        assert!(parse(
            "machine m
rebalance bogus
"
        )
        .is_err());
    }

    #[test]
    fn global_alloc_option() {
        let s = parse(
            "machine xeon-4s
alloc w 1GiB latency next global
",
        )
        .expect("valid");
        match &s.commands[0].cmd {
            Command::Alloc { global, fallback, .. } => {
                assert!(*global);
                assert_eq!(*fallback, Fallback::NextTarget);
            }
            other => panic!("expected alloc, got {other:?}"),
        }
        assert!(parse(
            "machine m
alloc w 1GiB latency bogus
"
        )
        .is_err());
    }

    #[test]
    fn serve_and_tenant_statements() {
        let s = parse(
            "machine knl-flat
serve
tenant graph latency
alloc frontier 1GiB bandwidth spill
tenant stream batch
serve fcfs
",
        )
        .expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Serve { policy: ArbitrationPolicy::FairShare, guided: false, budget_ms: None }
        );
        assert_eq!(
            s.commands[1].cmd,
            Command::Tenant { name: "graph".into(), priority: Priority::Latency }
        );
        assert_eq!(
            s.commands[3].cmd,
            Command::Tenant { name: "stream".into(), priority: Priority::Batch }
        );
        assert_eq!(
            s.commands[4].cmd,
            Command::Serve { policy: ArbitrationPolicy::Fcfs, guided: false, budget_ms: None }
        );
        // Default priority is normal.
        let s = parse("machine m\ntenant t\n").expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Tenant { name: "t".into(), priority: Priority::Normal }
        );
    }

    #[test]
    fn serve_and_tenant_parse_errors_carry_line_and_name() {
        let e = parse("machine knl-flat\n\ntenant graph urgent\n").expect_err("bad priority");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("urgent"), "{e}");
        assert!(e.message.contains("graph"), "{e}");
        assert!(e.to_string().contains("line 3"), "{e}");

        let e = parse("machine m\nserve lottery\n").expect_err("bad policy");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("lottery"), "{e}");

        let e = parse("machine m\ntenant\n").expect_err("missing name");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("tenant needs"), "{e}");

        let e = parse("machine m\nserve fcfs extra\n").expect_err("too many args");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn serve_refuses_a_shards_argument() {
        let e = parse("machine m\nserve shards=2\n").expect_err("no shards argument");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown serve argument \"shards=2\""), "{e}");

        let e = parse("machine m\nserve fcfs static\n").expect_err("two policies");
        assert!(e.message.contains("at most one policy"), "{e}");
    }

    #[test]
    fn serve_guided_arguments() {
        let s = parse("machine knl-flat\nserve guided=on budget=5\n").expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Serve {
                policy: ArbitrationPolicy::FairShare,
                guided: true,
                budget_ms: Some(5),
            }
        );
        // guided=off is accepted and equals the default.
        let s = parse("machine knl-flat\nserve fcfs guided=off\n").expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Serve { policy: ArbitrationPolicy::Fcfs, guided: false, budget_ms: None }
        );

        let e = parse("machine m\nserve guided=maybe\n").expect_err("bad value");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("guided="), "{e}");

        let e = parse("machine m\nserve guided=on budget=0\n").expect_err("zero budget");
        assert!(e.message.contains("at least 1 ms"), "{e}");

        let e = parse("machine m\nserve budget=5\n").expect_err("budget without guided");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("requires guided=on"), "{e}");
    }

    #[test]
    fn fault_and_tick_statements() {
        let s = parse(
            "machine knl-flat
serve
fault degrade hbm
tick
tick 4
fault restore mcdram
",
        )
        .expect("valid");
        assert_eq!(s.commands[1].cmd, Command::Fault { kind: MemoryKind::Hbm, degraded: true });
        assert_eq!(s.commands[2].cmd, Command::Tick { epochs: 1 });
        assert_eq!(s.commands[3].cmd, Command::Tick { epochs: 4 });
        // mcdram is an alias for the HBM tier; restore clears the flag.
        assert_eq!(s.commands[4].cmd, Command::Fault { kind: MemoryKind::Hbm, degraded: false });

        let e = parse("machine m\nfault degrade floppy\n").expect_err("bad tier");
        assert_eq!(e.line, 2);
        assert!(e.message.contains("floppy"), "{e}");
        let e = parse("machine m\nfault explode hbm\n").expect_err("bad action");
        assert!(e.message.contains("degrade|restore"), "{e}");
        assert!(parse("machine m\nfault degrade\n").is_err());
        assert!(parse("machine m\ntick 0\n").is_err());
        assert!(parse("machine m\ntick soon\n").is_err());
        assert!(parse("machine m\ntick 2 3\n").is_err());
    }

    #[test]
    fn snapshot_statement() {
        let s =
            parse("machine knl-flat\nserve\nsnapshot epoch=6 file=/tmp/brk.snap\n").expect("valid");
        assert_eq!(s.commands[1].cmd, Command::Snapshot { epoch: 6, file: "/tmp/brk.snap".into() });
        // Options are order-independent.
        let s = parse("machine m\nsnapshot file=x.snap epoch=0\n").expect("valid");
        assert_eq!(s.commands[0].cmd, Command::Snapshot { epoch: 0, file: "x.snap".into() });

        let e = parse("machine m\nsnapshot epoch=6\n").expect_err("missing file");
        assert!(e.message.contains("snapshot needs"), "{e}");
        let e = parse("machine m\nsnapshot file=x.snap\n").expect_err("missing epoch");
        assert!(e.message.contains("snapshot needs"), "{e}");
        let e = parse("machine m\nsnapshot epoch=soon file=x\n").expect_err("bad epoch");
        assert!(e.message.contains("epoch="), "{e}");
        let e = parse("machine m\nsnapshot epoch=1 file=x verbose\n").expect_err("bad option");
        assert!(e.message.contains("verbose"), "{e}");
    }

    #[test]
    fn federate_statement() {
        let s = parse("machine knl-flat\nfederate brokers=2\n").expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Federate { members: 2, spill: true, policy: ArbitrationPolicy::FairShare }
        );
        let s = parse("machine knl-flat\nfederate spill=off brokers=4 fcfs\n").expect("valid");
        assert_eq!(
            s.commands[0].cmd,
            Command::Federate { members: 4, spill: false, policy: ArbitrationPolicy::Fcfs }
        );
        let e = parse("machine m\nfederate\n").expect_err("missing brokers");
        assert!(e.message.contains("federate needs"), "{e}");
        let e = parse("machine m\nfederate brokers=0\n").expect_err("zero brokers");
        assert!(e.message.contains("at least 1"), "{e}");
        let e = parse("machine m\nfederate brokers=two\n").expect_err("bad count");
        assert!(e.message.contains("brokers="), "{e}");
        let e = parse("machine m\nfederate brokers=2 spill=maybe\n").expect_err("bad spill");
        assert!(e.message.contains("spill="), "{e}");
        let e = parse("machine m\nfederate brokers=2 verbose\n").expect_err("bad option");
        assert!(e.message.contains("verbose"), "{e}");
    }

    #[test]
    fn alloc_ttl_option() {
        let s = parse("machine knl-flat\nserve\ntenant t\nalloc a 1GiB bandwidth spill ttl=6\n")
            .expect("valid");
        match &s.commands[2].cmd {
            Command::Alloc { ttl, fallback, .. } => {
                assert_eq!(*ttl, Some(6));
                assert_eq!(*fallback, Fallback::PartialSpill);
            }
            other => panic!("expected alloc, got {other:?}"),
        }
        let e = parse("machine m\nalloc a 1GiB bandwidth ttl=0\n").expect_err("zero ttl");
        assert!(e.message.contains("at least 1"), "{e}");
        assert!(parse("machine m\nalloc a 1GiB bandwidth ttl=many\n").is_err());
        assert!(parse("machine m\nalloc a 1GiB bandwidth ttl\n").is_err());
    }

    #[test]
    fn defaults() {
        let s = parse("machine xeon\n").expect("minimal");
        assert_eq!(s.initiator, "0-");
        assert_eq!(s.threads, 1);
        assert_eq!(s.discovery, Discovery::Firmware);
        let s = parse("machine xeon\ndiscover benchmarks\n").expect("valid");
        assert_eq!(s.discovery, Discovery::Benchmarks);
    }
}
