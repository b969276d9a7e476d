//! Wall-clock benchmark of the hetmem request paths.
//!
//! ```text
//! perfbench --workload <lease-churn|tier-contention|paper-apps> --seed <n>
//!           --seconds <n> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! A run builds its inputs from the seed, sets up several times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! the program's outputs, and prints a human-readable report followed
//! by one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics, and the spans of the run
//! are written to `.perfbench/spans-<workload>.jsonl`. The exit code is
//! non-zero when a correctness check fails.
//!
//! `--self-check` runs every workload briefly in both modes and checks
//! that every metric is printed with its unit and every check passes.

mod common;
mod layers;
mod lease_churn;
mod paper_apps;
mod tier_contention;
mod trace;

use common::{Opts, Outcome};
use std::path::PathBuf;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["lease-churn", "tier-contention", "paper-apps"];

/// End-to-end metrics, measured with tracing off.
const E2E: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("alloc_p50_us", "us"),
    ("alloc_p90_us", "us"),
    ("granted_frac", "frac"),
    ("fast_hit_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run.
const LAYERS: [(&str, &str); 36] = [
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.parse_us", "us"),
    ("wire.render_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("server.rtt_us", "us"),
    ("server.connect_us", "us"),
    ("server.transport_us", "us"),
    ("server.fds_per_conn", "count"),
    ("broker.acquire_us", "us"),
    ("broker.acquire_p99_us", "us"),
    ("broker.release_us", "us"),
    ("broker.heartbeat_us", "us"),
    ("broker.run_phase_us", "us"),
    ("broker.epoch_us", "us"),
    ("broker.serve_alloc_us", "us"),
    ("broker.stats_us", "us"),
    ("broker.admit_ratio", "frac"),
    ("broker.clamps", "count"),
    ("broker.expired", "count"),
    ("broker.revoked", "count"),
    ("placement.rank_us", "us"),
    ("memsim.commit_us", "us"),
    ("memsim.run_phase_us", "us"),
    ("alloc.free_us", "us"),
    ("apps.graph500_us", "us"),
    ("apps.stream_us", "us"),
    ("core.discovery_ms", "ms"),
    ("telemetry.events", "count"),
    ("telemetry.events_lost", "count"),
    ("telemetry.drain_us", "us"),
    ("telemetry.overhead_frac", "frac"),
    ("guidance.promotions", "count"),
    ("guidance.demotions", "count"),
    ("guidance.overhead_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Output directory for spans and sockets, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         perfbench --self-check",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-check") {
        std::process::exit(self_check());
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let opts = Opts {
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let outcome = run(&workload, &opts);
    report(&workload, &opts, &outcome);
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

fn run(workload: &str, opts: &Opts) -> Outcome {
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    match workload {
        "lease-churn" => lease_churn::run(opts),
        "tier-contention" => tier_contention::run(opts),
        "paper-apps" => paper_apps::run(opts),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Writes the traced run's spans next to the checkout's other outputs.
pub fn write_spans(tr: &mut trace::Tracer, opts: &Opts, workload: &str) {
    let path = opts.out_dir.join(format!("spans-{workload}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => println!(
            "spans: {} written to {} ({} over the cap not kept)",
            tr.spans().len(),
            path.display(),
            tr.dropped()
        ),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}

fn report(workload: &str, opts: &Opts, o: &Outcome) {
    println!(
        "perfbench {workload} seed={} seconds={} trace={}",
        opts.seed,
        opts.window.as_secs_f64(),
        opts.trace as u8
    );
    for (name, (value, unit)) in &o.metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    for (name, value) in &o.extra {
        println!("  {name:<26} {value}");
    }
    for c in &o.checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        if c.ok || c.detail.is_empty() {
            println!("  [{mark}] {}", c.name);
        } else {
            println!("  [{mark}] {}: {}", c.name, c.detail);
        }
    }
    println!("{}", json_line(o));
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed_total(),
        metrics.join(", ")
    )
}

/// Short runs of every workload in both modes: every listed metric
/// present with its unit and a finite value (positive for timings),
/// every check passing, and
/// each metric named in `BENCHMARK.json` when that file is present.
fn self_check() -> i32 {
    let manifest = std::fs::read_to_string("BENCHMARK.json").ok();
    let mut problems = Vec::new();
    if let Some(text) = &manifest {
        for (name, _) in E2E.iter().chain(LAYERS.iter()) {
            if !text.contains(&format!("\"name\": \"{name}\"")) {
                problems.push(format!("BENCHMARK.json does not list {name}"));
            }
        }
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Opts {
                seed: 7,
                window: Duration::from_secs(1),
                trace,
                out_dir: PathBuf::from(OUT_DIR),
            };
            let o = run(workload, &opts);
            report(workload, &opts, &o);
            let spec: &[(&str, &str)] = if trace { &LAYERS } else { &E2E };
            for (name, unit) in spec {
                // Every timing was measured, so none may read 0.
                let timed = matches!(*unit, "s" | "ms" | "us");
                match o.metrics.get(name) {
                    Some((v, u)) if u == unit && v.is_finite() && (!timed || *v > 0.0) => {}
                    other => problems.push(format!("{workload} trace={trace}: {name} {other:?}")),
                }
            }
            if o.metrics.len() != spec.len() {
                problems.push(format!("{workload} trace={trace}: {} metrics", o.metrics.len()));
            }
            for c in o.checks.iter().filter(|c| !c.ok) {
                problems.push(format!("{workload} trace={trace}: {} ({})", c.name, c.detail));
            }
            if o.failed_total() != 0 {
                problems.push(format!("{workload} trace={trace}: {} failed", o.failed_total()));
            }
        }
    }
    if problems.is_empty() {
        println!("self-check: ok");
        0
    } else {
        for p in &problems {
            println!("self-check: {p}");
        }
        1
    }
}
