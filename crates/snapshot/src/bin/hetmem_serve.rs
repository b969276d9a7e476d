//! The broker daemon:
//! `hetmem-serve <machine> [--policy fair-share|fcfs|static] [--addr <addr>]
//! [--guided] [--trace <out.jsonl>] [--record <out.hmwl>]
//! [--restore <in.snap>]`.
//!
//! Binds a JSONL socket (default `tcp:127.0.0.1:7474`; use
//! `unix:/path.sock` for a Unix socket) and serves allocation requests
//! against a simulated machine until killed. See
//! `hetmem_service::wire` for the request vocabulary. An unknown
//! option or a second machine name exits 2 before anything is bound.
//!
//! Each connection's thread posts its requests on the one admission
//! queue and serves the queue itself while it holds the serve token
//! (docs/OPERATIONS.md §8).
//!
//! `--guided` turns on guided service: one adaptive guidance plane
//! per tenant feeding per-epoch promote/demote batches under the
//! default migration budget (`hetmem_service::GuidedConfig`). Guided
//! state is an online estimator, not replayable history, so
//! `--guided` refuses to combine with `--record`.
//!
//! `--record` appends every accepted request frame, stamped with its
//! arrival epoch, to a wire log that `hetmem-replay` can re-execute.
//! `--restore` boots the broker from a snapshot written by
//! `hetmem-run`'s `snapshot` stanza (or any [`hetmem_snapshot`]
//! producer) instead of from scratch; the snapshot must have been
//! taken on the same machine model, and its arbitration policy wins
//! over `--policy`.

use hetmem_core::discovery;
use hetmem_memsim::Machine;
use hetmem_service::server::{RequestRecorder, Server};
use hetmem_service::{ArbitrationPolicy, Broker};
use hetmem_snapshot::{Snapshot, WireLogWriter};
use hetmem_telemetry::{BackgroundCollector, JsonlWriter, TelemetrySink};
use std::sync::Arc;

const DEFAULT_ADDR: &str = "tcp:127.0.0.1:7474";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut machine_name = None;
    let mut policy = ArbitrationPolicy::FairShare;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut trace: Option<String> = None;
    let mut record: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut guided = false;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--policy" => {
                let Some(p) = iter.next().and_then(|p| ArbitrationPolicy::from_str_opt(p)) else {
                    eprintln!("hetmem-serve: --policy needs fair-share, fcfs, or static");
                    std::process::exit(2);
                };
                policy = p;
            }
            "--addr" => {
                let Some(a) = iter.next() else {
                    eprintln!("hetmem-serve: --addr needs an address");
                    std::process::exit(2);
                };
                addr = a.clone();
            }
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-serve: --trace needs a file argument");
                    std::process::exit(2);
                };
                trace = Some(path.clone());
            }
            "--record" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-serve: --record needs a file argument");
                    std::process::exit(2);
                };
                record = Some(path.clone());
            }
            "--restore" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-serve: --restore needs a file argument");
                    std::process::exit(2);
                };
                restore = Some(path.clone());
            }
            "--guided" => guided = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: hetmem-serve <machine> [--policy fair-share|fcfs|static] \
                     [--addr tcp:host:port|unix:/path.sock] [--guided] \
                     [--trace <out.jsonl>] [--record <out.hmwl>] [--restore <in.snap>]"
                );
                eprintln!("machines: {}", Machine::platform_names());
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("hetmem-serve: unknown option {other:?} (try --help)");
                std::process::exit(2);
            }
            other => {
                if let Some(first) = machine_name.replace(other.to_string()) {
                    eprintln!(
                        "hetmem-serve: one machine name, not both {first:?} and {other:?} \
                         (try --help)"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(machine_name) = machine_name else {
        eprintln!("hetmem-serve: no machine name (try --help)");
        std::process::exit(2);
    };
    let Some(machine) = Machine::by_name(&machine_name) else {
        eprintln!("hetmem-serve: unknown machine {machine_name:?} (try --help)");
        std::process::exit(2);
    };
    let machine = Arc::new(machine);
    // Wire-log and snapshot headers carry the machine's internal name
    // (hetmem-replay resolves either form).
    let machine_internal = machine.name().to_string();
    let attrs = match discovery::from_firmware(&machine, true) {
        Ok(attrs) => Arc::new(attrs),
        Err(e) => {
            eprintln!("hetmem-serve: attribute discovery failed: {e}");
            std::process::exit(1);
        }
    };
    let mut broker = match &restore {
        Some(path) => {
            let snapshot = match Snapshot::read_file(std::path::Path::new(path)) {
                Ok(snap) => snap,
                Err(e) => {
                    eprintln!("hetmem-serve: {path}: {e}");
                    std::process::exit(1);
                }
            };
            match snapshot.restore(machine, attrs) {
                Ok(broker) => {
                    println!(
                        "hetmem-serve: restored epoch {} from {path} ({} tenants, {} leases)",
                        snapshot.state.epoch,
                        snapshot.state.tenants.len(),
                        snapshot.state.leases.len()
                    );
                    policy = snapshot.state.policy;
                    broker
                }
                Err(e) => {
                    eprintln!("hetmem-serve: {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Broker::new(machine, attrs, policy),
    };
    if guided {
        // Guided state is an online estimator; the wire log cannot
        // replay it (the DSL's record mode refuses `guided=on` for
        // the same reason).
        if record.is_some() {
            eprintln!("hetmem-serve: --guided cannot be combined with --record");
            std::process::exit(2);
        }
        broker.enable_guidance(hetmem_service::GuidedConfig::default());
    }
    let mut _trace_collector: Option<BackgroundCollector> = None;
    if let Some(path) = &trace {
        match JsonlWriter::create(path) {
            Ok(w) => {
                let sink = TelemetrySink::new();
                broker.set_sink(sink.clone());
                let w = Arc::new(w);
                // A panicking thread (one serving a tick included) must not
                // take the buffered trace tail with it: flush before
                // the default hook prints the backtrace. The collector
                // drains the rings on a short cadence and its Drop does
                // a final drain-and-flush if main itself unwinds.
                let hook_writer = w.clone();
                let default_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let _ = hook_writer.flush();
                    default_hook(info);
                }));
                _trace_collector = Some(BackgroundCollector::spawn(
                    &sink,
                    std::time::Duration::from_millis(200),
                    move |batch| {
                        for e in &batch {
                            w.write_event(&e.event);
                        }
                        let _ = w.flush();
                    },
                ));
            }
            Err(e) => {
                eprintln!("hetmem-serve: cannot create {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    // A killed daemon writes no trailer; hetmem-replay reports such
    // logs as UNVERIFIED but still re-executes them. Each frame is
    // flushed as it is accepted, so the log survives a crash. The
    // server calls the recorder under its own lock, in serve order, so
    // the closure owns the writer.
    let recorder: Option<RequestRecorder> = match &record {
        Some(path) => {
            let mut writer = match WireLogWriter::create(
                std::path::Path::new(path),
                machine_internal.as_str(),
                policy,
            ) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("hetmem-serve: cannot create {path}: {e}");
                    std::process::exit(1);
                }
            };
            Some(Box::new(move |epoch, request: &_| {
                if let Err(e) = writer.append_request(epoch, request) {
                    eprintln!("hetmem-serve: wire log write failed: {e}");
                }
            }))
        }
        None => None,
    };
    let server = match Server::bind_with(Arc::new(broker), &addr, recorder) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("hetmem-serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "hetmem-serve: {} under {} arbitration on {}{}",
        machine_name,
        policy.as_str(),
        server.local_addr(),
        if guided { " (guided)" } else { "" }
    );
    println!("fast tier: {:?}", server.broker().fast_kind());
    // The background collector owns the trace cadence; main just
    // parks. A killed daemon never runs destructors, which is why the
    // collector flushes the writer after every batch.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
