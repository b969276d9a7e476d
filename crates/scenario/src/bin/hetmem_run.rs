//! CLI for the scenario DSL:
//! `hetmem-run <file> [--objects] [--timeline] [--trace <out.jsonl>] [--guidance [period]]
//! [--record <out.hmwl>]`.
//!
//! `--record` writes the served request stream as a `hetmem-snapshot`
//! wire log (trailer included) that `hetmem-replay` can re-execute and
//! verify; combine with a `snapshot` stanza in the scenario to
//! checkpoint mid-run.
//!
//! An unknown option or a second scenario file exits 2 with a usage
//! hint before anything is read.

use hetmem_scenario::{execute_with_options, parse, ExecOptions};
use hetmem_telemetry::{read_jsonl, BackgroundCollector, JsonlWriter, Summary, TelemetrySink};
use std::sync::Arc;

/// Default sampling period for `--guidance` without a value.
const DEFAULT_PERIOD: u64 = 32768;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut show_objects = false;
    let mut show_timeline = false;
    let mut trace: Option<String> = None;
    let mut record: Option<String> = None;
    let mut guidance: Option<u64> = None;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--objects" => show_objects = true,
            "--timeline" => show_timeline = true,
            "--trace" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-run: --trace needs a file argument");
                    std::process::exit(2);
                };
                trace = Some(path.clone());
            }
            "--record" => {
                let Some(path) = iter.next() else {
                    eprintln!("hetmem-run: --record needs a file argument");
                    std::process::exit(2);
                };
                record = Some(path.clone());
            }
            "--guidance" => {
                // The period is optional: only a number right after the
                // flag is taken as one.
                let period = match iter.peek().and_then(|p| p.parse::<u64>().ok()) {
                    Some(p) => {
                        iter.next();
                        p
                    }
                    None => DEFAULT_PERIOD,
                };
                if period == 0 {
                    eprintln!("hetmem-run: --guidance period must be at least 1");
                    std::process::exit(2);
                }
                guidance = Some(period);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: hetmem-run <scenario-file> [--objects] [--timeline] \
                     [--trace <out.jsonl>] [--guidance [period]] [--record <out.hmwl>]"
                );
                eprintln!(
                    "  --guidance: run every phase under the online sampling engine \
                     (default period {DEFAULT_PERIOD} accesses/sample)"
                );
                eprintln!(
                    "  --record: write the served request stream as a wire log for \
                     hetmem-replay (served scenarios without phases only)"
                );
                eprintln!("platforms: {}", hetmem_memsim::Machine::platform_names());
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("hetmem-run: unknown option {other:?} (try --help)");
                std::process::exit(2);
            }
            other => {
                if let Some(first) = file.replace(other.to_string()) {
                    eprintln!(
                        "hetmem-run: one scenario file, not both {first:?} and {other:?} \
                         (try --help)"
                    );
                    std::process::exit(2);
                }
            }
        }
    }
    let Some(file) = file else {
        eprintln!("hetmem-run: no scenario file (try --help)");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("hetmem-run: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let scenario = parse(&text).unwrap_or_else(|e| {
        eprintln!("hetmem-run: {file}: {e}");
        std::process::exit(1);
    });
    let options = ExecOptions {
        guidance: guidance.map(|period| (period, hetmem_core::attr::BANDWIDTH)),
        record: record.is_some(),
    };
    let result = match &trace {
        Some(path) => {
            let writer = JsonlWriter::create(path).unwrap_or_else(|e| {
                eprintln!("hetmem-run: cannot create {path}: {e}");
                std::process::exit(1);
            });
            let writer = Arc::new(writer);
            // Large rings plus a short drain cadence: a scenario trace
            // is expected to be complete, and any loss is reported.
            // Record mode sizes the ring like hetmem-replay does, so
            // overflow behavior cannot differ between the two sides.
            let words = if record.is_some() { 1 << 18 } else { 1 << 16 };
            let sink = TelemetrySink::with_ring_words(words);
            let collector = {
                let writer = writer.clone();
                BackgroundCollector::spawn(
                    &sink,
                    std::time::Duration::from_millis(5),
                    move |batch| {
                        for e in &batch {
                            writer.write_event(&e.event);
                        }
                    },
                )
            };
            let r = execute_with_options(&scenario, sink, options);
            let lost: u64 = collector.finish().iter().map(|l| l.lost).sum();
            if lost > 0 {
                eprintln!("hetmem-run: trace lost {lost} events (collector outpaced)");
            }
            let _ = writer.flush();
            r
        }
        None => {
            // Record mode needs a live sink even without --trace: the
            // trailer summary is computed from the recorded segment's
            // events (sized like hetmem-replay's sink).
            let sink = if record.is_some() {
                TelemetrySink::with_ring_words(1 << 18)
            } else {
                TelemetrySink::disabled()
            };
            execute_with_options(&scenario, sink, options)
        }
    };
    let report = result.unwrap_or_else(|e| {
        eprintln!("hetmem-run: {file}: {e}");
        std::process::exit(1);
    });
    if let (Some(path), Some(log)) = (&record, &report.wire_log) {
        if let Err(e) = log.write_file(std::path::Path::new(path)) {
            eprintln!("hetmem-run: cannot write wire log {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("record: {} frames -> {path}", log.frames.len());
    }

    println!("scenario: {file} on {}", scenario.machine);
    for p in &report.phases {
        println!(
            "  phase {:<16} {:>10.3} ms   {:>8.2} GiB/s",
            p.name,
            p.time_ns / 1e6,
            p.bw_mbps / 1024.0
        );
    }
    for (i, m) in report.migrations_ns.iter().enumerate() {
        println!("  migration #{i}: {:.3} ms", m / 1e6);
    }
    println!("  total: {:.3} ms", report.total_ns / 1e6);
    if let Some(g) = &report.guidance {
        println!(
            "  guidance: {} intervals, {} promotions, {} demotions, \
             {:.3} ms migrating, {:.3} ms sampling, {:.1}% hot-set accuracy",
            g.intervals,
            g.promotions,
            g.demotions,
            g.migration_ns / 1e6,
            g.overhead_ns / 1e6,
            g.mean_accuracy() * 100.0
        );
    }
    if let Some(fed) = &report.federation {
        println!(
            "  federation: {} brokers, {} spilled leases, {} digest merges, \
             {} MiB fast of {} MiB granted",
            fed.members,
            fed.spilled_leases,
            fed.digest_merges,
            fed.fast_bytes >> 20,
            fed.granted_bytes >> 20
        );
    }
    if !report.tenants.is_empty() {
        println!("tenants:");
        for t in &report.tenants {
            let held: u64 = t.held.values().sum();
            println!(
                "  {:<16} {:<8} {} admits, {} clamps, {} stalls, {} MiB held",
                t.name,
                t.priority.as_str(),
                t.admits,
                t.clamps,
                t.stalls,
                held >> 20
            );
        }
    }
    if !report.final_placements.is_empty() {
        println!("final placements:");
        for (name, placement) in &report.final_placements {
            let spots: Vec<String> =
                placement.iter().map(|(n, b)| format!("{n}:{}MiB", b >> 20)).collect();
            println!("  {name:<16} {}", spots.join(" + "));
        }
    }
    println!();
    print!("{}", report.profiler.render_summary());
    if show_objects {
        println!();
        print!("{}", report.profiler.render_objects());
    }
    if show_timeline {
        println!();
        print!("{}", report.profiler.render_timeline());
    }
    if let Some(path) = &trace {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        match read_jsonl(&text) {
            Ok(events) => {
                println!();
                print!("{}", Summary::from_events(&events).render());
                eprintln!("trace: {} events -> {path}", events.len());
            }
            Err(e) => eprintln!("hetmem-run: trace readback failed: {e}"),
        }
    }
}
