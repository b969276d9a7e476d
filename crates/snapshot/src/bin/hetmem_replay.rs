//! Trace-driven replay:
//! `hetmem-replay <wire-log> [--snapshot <file.snap>]`.
//!
//! Loads a wire log (and, for runs snapshotted mid-flight, the
//! snapshot it continues from), reconstructs the broker, re-executes
//! every recorded frame at its recorded epoch, and verifies the final
//! broker state and telemetry summary against the log's trailer byte
//! for byte. Exit status: 0 = replay verified (or the log has no
//! trailer — reported as UNVERIFIED), 1 = divergence, 2 = bad usage
//! (an unknown option or a second wire log among them, refused before
//! anything is read) or unreadable input.

use hetmem_core::discovery;
use hetmem_memsim::Machine;
use hetmem_service::Broker;
use hetmem_snapshot::{replay, Snapshot, WireLog};
use std::sync::Arc;

/// Resolves a log/snapshot machine header. Headers written by the
/// recording paths carry [`Machine::name`] (e.g. `knl-7230-snc4-flat`)
/// but the CLI platform names (`knl-flat`) are accepted too.
fn machine_by_header(name: &str) -> Option<Machine> {
    Machine::PLATFORMS
        .iter()
        .map(|(_, build)| build())
        .find(|m| m.name() == name)
        .or_else(|| Machine::by_name(name))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut log_path: Option<String> = None;
    let mut snap_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--snapshot" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-replay: --snapshot needs a file argument");
                    std::process::exit(2);
                };
                snap_path = Some(path.clone());
            }
            "--help" | "-h" => {
                eprintln!("usage: hetmem-replay <wire-log> [--snapshot <file.snap>]");
                eprintln!(
                    "replays a log recorded by `hetmem-serve --record` or `hetmem-run --record` \
                     and verifies the trailer byte for byte"
                );
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("hetmem-replay: unknown option {other:?} (try --help)");
                std::process::exit(2);
            }
            other => {
                if let Some(first) = log_path.replace(other.to_string()) {
                    eprintln!(
                        "hetmem-replay: one wire log, not both {first:?} and {other:?} \
                         (try --help)"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(log_path) = log_path else {
        eprintln!("hetmem-replay: no wire log given (try --help)");
        std::process::exit(2);
    };
    let log = match WireLog::read_file(std::path::Path::new(&log_path)) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("hetmem-replay: {log_path}: {e}");
            std::process::exit(2);
        }
    };
    let Some(machine) = machine_by_header(&log.machine) else {
        eprintln!("hetmem-replay: log names unknown machine {:?}", log.machine);
        std::process::exit(2);
    };
    let machine = Arc::new(machine);
    let attrs = match discovery::from_firmware(&machine, true) {
        Ok(attrs) => Arc::new(attrs),
        Err(e) => {
            eprintln!("hetmem-replay: attribute discovery failed: {e}");
            std::process::exit(2);
        }
    };
    // Without a snapshot the log is a from-scratch recording: the
    // starting point is a fresh broker on the log's machine/policy.
    let snapshot = match &snap_path {
        Some(path) => match Snapshot::read_file(std::path::Path::new(path)) {
            Ok(snap) => snap,
            Err(e) => {
                eprintln!("hetmem-replay: {path}: {e}");
                std::process::exit(2);
            }
        },
        None => Snapshot::capture(&Broker::new(machine.clone(), attrs.clone(), log.policy), None),
    };
    println!(
        "hetmem-replay: {} under {} arbitration, from epoch {} ({} frames)",
        log.machine,
        log.policy.as_str(),
        snapshot.state.epoch,
        log.frames.len()
    );
    let report = match replay(&snapshot, &log, machine, attrs) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("hetmem-replay: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "replayed {} requests, {} control frames, {} telemetry events, final epoch {}",
        report.requests, report.control_frames, report.events, report.final_epoch
    );
    match (report.state_matched, report.summary_matched) {
        (Some(true), Some(true)) => {
            println!("VERIFIED: final broker state and telemetry summary match byte for byte");
        }
        (None, _) | (_, None) => {
            debug_assert!(log.trailer().is_none());
            println!("UNVERIFIED: log has no trailer (recorder did not shut down cleanly)");
        }
        (state, summary) => {
            if state == Some(false) {
                eprintln!("DIVERGED: final broker state does not match the trailer");
            }
            if summary == Some(false) {
                eprintln!("DIVERGED: telemetry summary does not match the trailer");
                eprintln!("--- replayed summary ---\n{}", report.summary);
            }
            std::process::exit(1);
        }
    }
}
