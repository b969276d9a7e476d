//! Regenerates every table of the paper's evaluation.
//!
//! ```text
//! repro_tables [--table1|--table2a|--table2b|--table3a|--table3b|--table4|--portability|--capacity|--section8|--migration|--guidance|--service|--chaos|--replay|--federation|--guided-service|--all]
//!              [--trace <out.jsonl>]
//! repro_tables --check-bench <BENCH_*.json>...
//! ```
//!
//! At most one area runs (`--all`, the default, runs every one in
//! order); an unknown area, a second area or a stray argument exits 2
//! with the usage line before anything runs.
//!
//! `--trace` streams every allocation decision, migration and
//! occupancy change of the capacity-conflict demo to a JSONL file and
//! prints the aggregated placement report. With `--chaos` it instead
//! captures the fault sweep's lifecycle events (`tier_degraded`,
//! `lease_expired`, `reclaim`, ...).
//!
//! The `--capacity`, `--guidance`, `--service`, `--chaos`, `--replay`,
//! `--federation` and `--guided-service` runs also persist
//! their key numbers as `BENCH_<area>.json` at the repo root (schema:
//! `docs/bench_schema.json`). `--check-bench` validates files against
//! the schema, and refuses a rate unit (`ops`, or any unit ending in
//! `/s`) outside the wall-clock areas listed in
//! `perf::MACHINE_DEPENDENT_AREAS`: every other area is a
//! deterministic model, and a rate needs a clock.
//!
//! `--replay` drives the `hetmem-snapshot` record → snapshot → restore
//! → replay harness and exits non-zero unless every replay reproduces
//! the recording byte for byte.
//!
//! `--federation` sweeps broker counts × spill on/off through the
//! `hetmem-federation` record/replay harness; it exits non-zero unless
//! reruns are bit-identical, every broker's independent replay
//! verifies, and cross-broker spill lifts the aggregate fast-tier hit
//! rate at two or more broker counts.
//!
//! `--guided-service` sweeps {1, 2, 4} latency tenants against a
//! fast-tier hog with the broker's guidance plane on and off, under
//! fair-share and FCFS arbitration; it exits non-zero unless reruns
//! are bit-identical, guided fair-share beats unguided fair-share on
//! the era-two fast-tier traffic fraction at every mix, and sampling
//! overhead stays under 1% of modelled phase time.

use hetmem_alloc::planner::{plan, PlanOrder, PlannedAlloc};
use hetmem_alloc::{baselines, Fallback};
use hetmem_apps::graph500::{self, Graph500Config};
use hetmem_apps::stream::{self, StreamConfig};
use hetmem_apps::Placement;
use hetmem_bench::perf::BenchRecord;
use hetmem_bench::{gb, teps_e8, Ctx};
use hetmem_core::attr;
use hetmem_profile::Profiler;
use hetmem_topology::{MemoryKind, NodeId, GIB};

/// Exits 2 after naming what was wrong with the arguments, followed by
/// the usage line over the names of every area.
fn usage_error(why: &str, areas: &[&str]) -> ! {
    eprintln!("repro_tables: {why}");
    eprintln!("usage: repro_tables [{}|--all] [--trace <out.jsonl>]", areas.join("|"));
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--check-bench") {
        std::process::exit(check_bench_cmd(&args[1..]));
    }
    let trace = match args.iter().position(|a| a == "--trace") {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("repro_tables: --trace needs a file argument");
            std::process::exit(2);
        }
        None => None,
    };
    let trace = trace.as_deref();
    // Every area, in the order `--all` runs them.
    let areas: [(&str, &dyn Fn()); 16] = [
        ("--table1", &table1),
        ("--table2a", &table2a),
        ("--table2b", &table2b),
        ("--table3a", &table3a),
        ("--table3b", &table3b),
        ("--table4", &table4),
        ("--portability", &portability),
        ("--capacity", &|| capacity(trace)),
        ("--section8", &section8),
        ("--migration", &migration),
        ("--guidance", &guidance),
        ("--service", &service),
        ("--chaos", &|| chaos(trace)),
        ("--replay", &replay_determinism),
        ("--federation", &federation),
        ("--guided-service", &guided_service),
    ];
    let names: Vec<&str> = areas.iter().map(|&(name, _)| name).collect();
    let mut chosen: Option<&str> = None;
    for a in &args {
        if a != "--all" && !names.contains(&a.as_str()) {
            if a.starts_with('-') {
                usage_error(&format!("unknown area {a:?}"), &names);
            }
            usage_error(&format!("stray argument {a:?}"), &names);
        }
        if let Some(first) = chosen.replace(a) {
            usage_error(&format!("one area, not both {first:?} and {a:?}"), &names);
        }
    }
    let chosen = chosen.unwrap_or("--all");
    for (name, run) in areas {
        if chosen == "--all" || chosen == name {
            run();
        }
    }
}

/// `--check-bench <files...>`: validates `BENCH_*.json` files against
/// the committed schema constraints. Returns the process exit code.
fn check_bench_cmd(args: &[String]) -> i32 {
    use hetmem_bench::perf;
    if args.is_empty() {
        eprintln!("usage: repro_tables --check-bench <BENCH_*.json>...");
        return 2;
    }
    let mut failed = false;
    for path in args {
        let path_ref = std::path::Path::new(path);
        match perf::load(path_ref).and_then(|r| perf::check_rates(path_ref, &r).map(|()| r)) {
            Ok(records) => println!("{path}: ok ({} records)", records.len()),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        1
    } else {
        0
    }
}

/// Persists one table's key numbers as `BENCH_<area>.json`.
fn emit_bench(area: &str, records: &[hetmem_bench::perf::BenchRecord]) {
    match hetmem_bench::perf::emit(area, records) {
        Ok(path) => println!("bench: wrote {}", path.display()),
        Err(e) => eprintln!("repro_tables: cannot write BENCH_{area}.json: {e}"),
    }
}

/// Table I: status of memory attributes (native discovery vs external
/// sources), demonstrated live on the Xeon.
fn table1() {
    println!("== Table I: status of memory attributes in the registry ==");
    let ctx = Ctx::xeon();
    let firmware = ctx.attrs.clone();
    let benched = hetmem_membench::feed_attrs(
        &ctx.machine,
        &hetmem_membench::BenchOptions { read_write_variants: true, ..Default::default() },
    )
    .expect("benchmark discovery");
    let future = hetmem_core::discovery::from_firmware_with_options(&ctx.machine, true, true)
        .expect("rw firmware discovery");
    println!(
        "{:<18} {:>14} {:>18} {:>14}",
        "Attribute", "Native (HMAT)", "Native (future fw)", "Benchmarks"
    );
    for (name, id) in [
        ("Capacity", attr::CAPACITY),
        ("Locality", attr::LOCALITY),
        ("Bandwidth", attr::BANDWIDTH),
        ("Latency", attr::LATENCY),
        ("ReadBandwidth", attr::READ_BANDWIDTH),
        ("WriteBandwidth", attr::WRITE_BANDWIDTH),
        ("ReadLatency", attr::READ_LATENCY),
        ("WriteLatency", attr::WRITE_LATENCY),
    ] {
        let have = |a: &hetmem_core::MemAttrs| {
            if a.targets(id).is_empty() {
                "-"
            } else {
                "supported"
            }
        };
        println!(
            "{:<18} {:>14} {:>18} {:>14}",
            name,
            have(&firmware),
            have(&future),
            have(&benched)
        );
    }
    println!("{:<18} {:>14} {:>18} {:>14}", "Custom metrics", "-", "-", "user-specified");
    println!();
}

/// Table IIa: Graph500 on the Xeon, DRAM vs NVDIMM, scales 26–30.
fn table2a() {
    println!("== Table IIa: Graph500 TEPSe+8, Xeon (16 ranks, 1 socket) ==");
    println!("{:<12} {:>8} {:>8}", "Graph Size", "DRAM", "NVDIMM");
    let ctx = Ctx::xeon();
    for scale in 26..=30 {
        let cfg = Graph500Config::xeon_paper(scale);
        let mut row = vec![gb(cfg.params.graph_bytes())];
        for node in [NodeId(0), NodeId(2)] {
            let mut alloc = ctx.allocator();
            let res = graph500::run(&mut alloc, &ctx.engine, &cfg, &Placement::BindAll(node), None);
            row.push(match res {
                Ok(r) => teps_e8(r.teps_harmonic),
                Err(_) => "-".to_string(),
            });
        }
        println!("{:<12} {:>8} {:>8}", row[0], row[1], row[2]);
    }
    println!();
}

/// Table IIb: Graph500 on the KNL cluster, HBM vs DRAM, scales 26–27.
fn table2b() {
    println!("== Table IIb: Graph500 TEPSe+8, KNL (16 ranks, 1 SNC cluster) ==");
    println!("{:<12} {:>8} {:>8}", "Graph Size", "HBM", "DRAM");
    let ctx = Ctx::knl();
    for scale in 26..=27 {
        let cfg = Graph500Config::knl_paper(scale);
        let mut row = vec![gb(cfg.params.graph_bytes())];
        for node in [NodeId(4), NodeId(0)] {
            let mut alloc = ctx.allocator();
            // numactl --preferred: a 4.29 GB graph can still "run on
            // HBM" with 4 GB of MCDRAM by spilling (footnote 21: the
            // spill goes to higher-index nodes, i.e. other MCDRAMs).
            let res =
                graph500::run(&mut alloc, &ctx.engine, &cfg, &Placement::PreferAll(node), None);
            row.push(match res {
                Ok(r) => teps_e8(r.teps_harmonic),
                Err(_) => "-".to_string(),
            });
        }
        println!("{:<12} {:>8} {:>8}", row[0], row[1], row[2]);
    }
    println!();
}

fn kind_label(ctx: &Ctx, node: NodeId) -> &'static str {
    match ctx.machine.topology().node_kind(node) {
        Some(MemoryKind::Dram) => "DRAM",
        Some(MemoryKind::Hbm) => "HBM",
        Some(MemoryKind::Nvdimm) => "NVDIMM",
        Some(MemoryKind::NetworkAttached) => "NAM",
        Some(MemoryKind::GpuMemory) => "GPU",
        None => "?",
    }
}

/// Table IIIa: STREAM Triad on the Xeon by optimized criterion.
fn table3a() {
    println!("== Table IIIa: STREAM Triad GB/s, Xeon (20 threads) ==");
    println!(
        "{:<10} {:>11} {:>9} {:>9} {:>9}",
        "Criteria", "Best Target", "22.4GiB", "89.4GiB", "223.5GiB"
    );
    let ctx = Ctx::xeon();
    let sizes = [22.4, 89.4, 223.5];
    let rows: [(&str, hetmem_core::AttrId, Fallback); 2] = [
        ("Capacity", attr::CAPACITY, Fallback::PartialSpill),
        ("Latency", attr::LATENCY, Fallback::Strict),
    ];
    for (name, a, fb) in rows {
        let alloc = ctx.allocator();
        let best = alloc.best_target(a, &"0-19".parse().unwrap()).expect("candidates");
        let mut cells = Vec::new();
        for s in sizes {
            let mut alloc = ctx.allocator();
            let cfg = StreamConfig::xeon_paper((s * GIB as f64) as u64);
            let res = stream::run(
                &mut alloc,
                &ctx.engine,
                &cfg,
                &Placement::Criterion { attr: a, fallback: fb },
                None,
            );
            cells.push(match res {
                Ok(r) => format!("{:.2}", r.triad_gibps),
                Err(_) => "-".to_string(),
            });
        }
        println!(
            "{:<10} {:>11} {:>9} {:>9} {:>9}",
            name,
            kind_label(&ctx, best),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!();
}

/// Table IIIb: STREAM Triad on the KNL cluster by optimized criterion.
fn table3b() {
    println!("== Table IIIb: STREAM Triad GB/s, KNL (16 threads, 1 cluster) ==");
    println!(
        "{:<10} {:>11} {:>9} {:>9} {:>9}",
        "Criteria", "Best Target", "1.1GiB", "3.4GiB", "17.9GiB"
    );
    let ctx = Ctx::knl();
    let sizes = [1.1, 3.4, 17.9];
    let rows: [(&str, hetmem_core::AttrId, Fallback); 2] = [
        ("Bandwidth", attr::BANDWIDTH, Fallback::PartialSpill),
        ("Latency", attr::LATENCY, Fallback::Strict),
    ];
    for (name, a, fb) in rows {
        let alloc = ctx.allocator();
        let best = alloc.best_target(a, &"0-15".parse().unwrap()).expect("candidates");
        let mut cells = Vec::new();
        for s in sizes {
            let mut alloc = ctx.allocator();
            let cfg = StreamConfig::knl_paper((s * GIB as f64) as u64);
            let res = stream::run(
                &mut alloc,
                &ctx.engine,
                &cfg,
                &Placement::Criterion { attr: a, fallback: fb },
                None,
            );
            cells.push(match res {
                Ok(r) => format!("{:.2}", r.triad_gibps),
                Err(_) => "-".to_string(),
            });
        }
        println!(
            "{:<10} {:>11} {:>9} {:>9} {:>9}",
            name,
            kind_label(&ctx, best),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    println!();
}

/// Table IV: the profiler's execution summary for Graph500 and STREAM
/// on DRAM vs NVDIMM.
fn table4() {
    println!("== Table IV: profiler summary, Xeon ==");
    println!(
        "{:<14} {:<8} {:>11} {:>11} {:>14} {:>14}",
        "Application", "Target", "DRAM Bound", "PMem Bound", "DRAM BW Bound", "PMem BW Bound"
    );
    let ctx = Ctx::xeon();
    let runs: [(&str, NodeId); 2] = [("DRAM", NodeId(0)), ("NVDIMM", NodeId(2))];
    for (target, node) in runs {
        let mut alloc = ctx.allocator();
        let mut prof = Profiler::new(ctx.machine.clone());
        graph500::run(
            &mut alloc,
            &ctx.engine,
            &Graph500Config::xeon_paper(27),
            &Placement::BindAll(node),
            Some(&mut prof),
        )
        .expect("graph500 fits");
        let s = prof.summary();
        println!(
            "{:<14} {:<8} {:>10.1}% {:>10.1}% {:>13.1}% {:>13.1}%",
            "Graph500",
            target,
            s.bound(MemoryKind::Dram),
            s.bound(MemoryKind::Nvdimm),
            s.bw_bound(MemoryKind::Dram),
            s.bw_bound(MemoryKind::Nvdimm)
        );
    }
    for (target, node) in runs {
        let mut alloc = ctx.allocator();
        let mut prof = Profiler::new(ctx.machine.clone());
        stream::run(
            &mut alloc,
            &ctx.engine,
            &StreamConfig::xeon_paper(22 * GIB),
            &Placement::BindAll(node),
            Some(&mut prof),
        )
        .expect("stream fits");
        let s = prof.summary();
        println!(
            "{:<14} {:<8} {:>10.1}% {:>10.1}% {:>13.1}% {:>13.1}%",
            "STREAM Triad",
            target,
            s.bound(MemoryKind::Dram),
            s.bound(MemoryKind::Nvdimm),
            s.bw_bound(MemoryKind::Dram),
            s.bw_bound(MemoryKind::Nvdimm)
        );
    }
    println!();
}

/// §VI-A: the same attribute-annotated code vs manual tuning vs
/// hardwired-kind APIs, on both machines.
fn portability() {
    println!("== Portability: one code path, two machines (Graph500, latency criterion) ==");
    println!(
        "{:<10} {:>16} {:>16} {:>18}",
        "Machine", "Manual best", "Attr(Latency)", "memkind hbw_malloc"
    );
    for (label, ctx, cfg, manual_node) in [
        ("Xeon", Ctx::xeon(), Graph500Config::xeon_paper(26), NodeId(0)),
        ("KNL", Ctx::knl(), Graph500Config::knl_paper(26), NodeId(0)),
    ] {
        let mut alloc = ctx.allocator();
        let manual =
            graph500::run(&mut alloc, &ctx.engine, &cfg, &Placement::BindAll(manual_node), None)
                .expect("manual placement fits");
        let mut alloc = ctx.allocator();
        let portable = graph500::run(
            &mut alloc,
            &ctx.engine,
            &cfg,
            &Placement::Criterion { attr: attr::LATENCY, fallback: Fallback::NextTarget },
            None,
        )
        .expect("criterion placement fits");
        let mut alloc = ctx.allocator();
        let hardwired = graph500::run(
            &mut alloc,
            &ctx.engine,
            &cfg,
            &Placement::HardwiredKind(baselines::Kind::HighBandwidth),
            None,
        );
        println!(
            "{:<10} {:>16} {:>16} {:>18}",
            label,
            teps_e8(manual.teps_harmonic),
            teps_e8(portable.teps_harmonic),
            match hardwired {
                Ok(r) => teps_e8(r.teps_harmonic),
                Err(_) => "FAILS (no HBM)".to_string(),
            }
        );
    }
    println!();
}

/// §VII: when does migration at a phase boundary pay off?
fn migration() {
    use hetmem_apps::multiphase::{run, MultiPhaseConfig, Strategy};
    println!("== SVII: phase-boundary migration ablation (KNL, two 3GiB bandwidth buffers) ==");
    println!(
        "{:<16} {:>12} {:>14} {:>12}",
        "passes/phase", "static ms", "priority ms", "migrate ms"
    );
    let ctx = Ctx::knl();
    for passes in [1u32, 4, 16, 64] {
        let cfg = MultiPhaseConfig {
            buffer_bytes: 3 * GIB,
            phase1_passes: passes,
            phase2_passes: passes,
            threads: 16,
            initiator: "0-15".parse().expect("cpuset"),
        };
        let mut row = Vec::new();
        for strategy in [Strategy::Static, Strategy::PriorityStatic, Strategy::Migrate] {
            let mut alloc = ctx.allocator();
            let r = run(&mut alloc, &ctx.engine, &cfg, strategy).expect("fits");
            row.push(r.total_ns() / 1e6);
        }
        println!(
            "{:<16} {:>12.1} {:>14.1} {:>12.1}{}",
            passes,
            row[0],
            row[1],
            row[2],
            if row[2] < row[0] { "  <- migration wins" } else { "" }
        );
    }
    println!("  => \"avoided unless the application behavior changes significantly\" (SVII)");
    println!();
}

/// §VIII: on a 4-socket machine, when the local DRAM is full, is the
/// local NVDIMM or a remote DRAM the better latency target? With
/// full-matrix benchmark attributes the ranking answers directly.
fn section8() {
    use hetmem_memsim::{AccessPattern, AllocPolicy, BufferAccess, MemoryManager, Phase};
    println!("== SVIII: local DRAM full on a 4-socket Xeon — NVDIMM or another DRAM? ==");
    let machine = std::sync::Arc::new(hetmem_memsim::Machine::xeon_4s_snc());
    let attrs = std::sync::Arc::new(
        hetmem_membench::feed_attrs(
            &machine,
            &hetmem_membench::BenchOptions {
                include_remote: true,
                read_write_variants: false,
                loaded_latency: false,
            },
        )
        .expect("benchmark discovery"),
    );
    let engine = hetmem_memsim::AccessEngine::new(machine.clone());
    let mut alloc = hetmem_alloc::HetAllocator::new(attrs, MemoryManager::new(machine.clone()));
    let g0: hetmem_bitmap::Bitmap = "0-9".parse().expect("cpuset");
    let avail = alloc.memory().available(NodeId(0));
    alloc.memory_mut().alloc(avail, AllocPolicy::Bind(NodeId(0))).expect("hog");
    println!("local SNC DRAM (node 0) filled; allocating a latency-critical 2 GiB buffer:");
    let latency_2g = hetmem_alloc::AllocRequest::new(2 << 30)
        .criterion(attr::LATENCY)
        .initiator(&g0)
        .fallback(Fallback::NextTarget);
    let local = alloc.alloc(&latency_2g).expect("local fallback");
    let global = alloc.alloc(&latency_2g.clone().any_locality()).expect("global fallback");
    let mk = |region| Phase {
        name: "irregular".into(),
        accesses: vec![BufferAccess::new(region, 1 << 30, 0, AccessPattern::Random)],
        threads: 10,
        initiator: g0.clone(),
        compute_ns: 0.0,
    };
    for (label, id) in [("local-only knowledge ", local), ("full-matrix knowledge", global)] {
        let node = alloc.memory().region(id).expect("live").single_node().expect("one");
        let t = engine.run_phase(alloc.memory(), &mk(id)).time_ns;
        println!(
            "  {label} -> {node} [{}]  irregular phase: {:.1} ms",
            machine.topology().node_kind(node).expect("known").subtype(),
            t / 1e6
        );
    }
    println!("  => another DRAM beats the local NVDIMM for latency-bound buffers");
    println!();
}

/// Multi-tenant service sweep: the closed-loop load harness drives
/// the allocation broker with one resident bandwidth hog and three
/// interactive latency tenants, under each arbitration policy.
fn service() {
    use hetmem_bench::load::{knl_contention, run_load};
    use hetmem_service::ArbitrationPolicy;
    println!(
        "== Multi-tenant service: 1 resident hog + 3 interactive tenants on the KNL MCDRAM =="
    );
    println!(
        "{:<12} {:>8} {:>7} {:>9} {:>7} {:>10}",
        "policy", "admitted", "denied", "fast-hit", "clamps", "stall ms"
    );
    let ctx = Ctx::knl();
    let mut reports = Vec::new();
    for policy in
        [ArbitrationPolicy::FairShare, ArbitrationPolicy::Fcfs, ArbitrationPolicy::StaticPartition]
    {
        let r = run_load(ctx.machine.clone(), ctx.attrs.clone(), &knl_contention(policy));
        println!(
            "{:<12} {:>8} {:>7} {:>8.1}% {:>7} {:>10.1}",
            policy.as_str(),
            r.admitted,
            r.denied,
            r.fast_hit() * 100.0,
            r.clamps,
            r.stall_ns / 1e6
        );
        reports.push(r);
    }
    println!("per-tenant fast-tier hit rate:");
    println!(
        "{:<16} {:<8} {:>11} {:>11} {:>11}",
        "tenant", "class", "fair-share", "fcfs", "static"
    );
    for i in 0..reports[0].per_tenant.len() {
        println!(
            "{:<16} {:<8} {:>10.1}% {:>10.1}% {:>10.1}%",
            reports[0].per_tenant[i].name,
            reports[0].per_tenant[i].priority.as_str(),
            reports[0].per_tenant[i].fast_hit() * 100.0,
            reports[1].per_tenant[i].fast_hit() * 100.0,
            reports[2].per_tenant[i].fast_hit() * 100.0,
        );
    }
    let (fair, fcfs) = (&reports[0], &reports[1]);
    println!(
        "  => fair-share {} FCFS on aggregate fast-tier hit rate ({:.1}% vs {:.1}%)",
        if fair.fast_hit() > fcfs.fast_hit() { "beats" } else { "does NOT beat" },
        fair.fast_hit() * 100.0,
        fcfs.fast_hit() * 100.0
    );
    let mut records = Vec::new();
    for (policy, r) in
        [ArbitrationPolicy::FairShare, ArbitrationPolicy::Fcfs, ArbitrationPolicy::StaticPartition]
            .iter()
            .zip(&reports)
    {
        let p = policy.as_str();
        records.extend([
            BenchRecord::new("service_load", format!("{p}_fast_hit"), r.fast_hit(), "frac", 0),
            BenchRecord::new(
                "service_load",
                format!("{p}_admitted"),
                r.admitted as f64,
                "count",
                0,
            ),
        ]);
    }
    emit_bench("service", &records);
    println!();
}

/// Seeded fault sweep: the contention workload under injected tier
/// degradations, client drops, silent clients and allocation stalls.
/// Each seed is run twice to prove the sweep is bit-identical, and the
/// key robustness claims are checked: capacity abandoned by dead or
/// silent clients is reclaimed within one lease TTL, and no request
/// hard-fails while the machine still has capacity.
fn chaos(trace: Option<&str>) {
    use hetmem_bench::load::{knl_chaos, run_load_chaos};
    use hetmem_service::ArbitrationPolicy;
    use hetmem_telemetry::{JsonlWriter, TelemetrySink};
    use std::sync::Arc;
    println!("== Chaos: seeded fault sweep over the multi-tenant broker (KNL, fair-share) ==");
    println!(
        "{:<8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>11} {:>10} {:>10}",
        "seed",
        "faults",
        "degrade",
        "drops",
        "slow",
        "stalls",
        "retries",
        "expired",
        "revoked",
        "reclaimed",
        "hard-fail",
        "admitted"
    );
    let ctx = Ctx::knl();
    let writer: Option<Arc<JsonlWriter>> = trace.map(|path| {
        Arc::new(JsonlWriter::create(path).unwrap_or_else(|e| {
            eprintln!("repro_tables: cannot create {path}: {e}");
            std::process::exit(1);
        }))
    });
    let mut identical = true;
    let mut survived = true;
    let mut records = Vec::new();
    for seed in [0xc4a0u64, 0x0dd5, 0xfa57] {
        let (cfg, mut chaos) = knl_chaos(ArbitrationPolicy::FairShare, seed);
        let baseline = run_load_chaos(ctx.machine.clone(), ctx.attrs.clone(), &cfg, &chaos);
        // The recorded rerun must match the silent one bit for bit —
        // telemetry must never perturb the simulation.
        let sink = writer.as_ref().map(|_| TelemetrySink::with_capacity(1 << 16));
        chaos.sink = sink.clone();
        let rerun = run_load_chaos(ctx.machine.clone(), ctx.attrs.clone(), &cfg, &chaos);
        identical &= baseline == rerun;
        if let (Some(w), Some(sink)) = (&writer, &sink) {
            for e in sink.collector().drain_sorted() {
                w.write_event(&e.event);
            }
        }
        let s = baseline.chaos.as_ref().expect("chaos roll-up");
        survived &= s.hard_failures == 0;
        println!(
            "{:<8} {:>7} {:>7} {:>6} {:>6} {:>7} {:>8} {:>8} {:>8} {:>8}MiB {:>10} {:>10}",
            format!("{seed:#06x}"),
            s.faults_injected,
            s.degradations,
            s.drops,
            s.slowdowns,
            s.stalls_injected,
            s.stall_retries,
            s.expired,
            s.revoked,
            s.reclaimed_bytes >> 20,
            s.hard_failures,
            baseline.admitted
        );
        records.extend([
            BenchRecord::new("chaos_sweep", "admitted", baseline.admitted as f64, "count", seed),
            BenchRecord::new(
                "chaos_sweep",
                "reclaimed_mib",
                (s.reclaimed_bytes >> 20) as f64,
                "count",
                seed,
            ),
        ]);
    }
    emit_bench("chaos", &records);
    println!(
        "  => reruns bit-identical: {}; graceful degradation (no hard failures): {}",
        if identical { "yes" } else { "NO" },
        if survived { "yes" } else { "NO" }
    );
    if let (Some(w), Some(path)) = (&writer, trace) {
        let _ = w.flush();
        let text = std::fs::read_to_string(path).unwrap_or_default();
        match hetmem_telemetry::read_jsonl(&text) {
            Ok(events) => {
                let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
                println!(
                    "trace: {} events -> {path} (tier_degraded {}, lease_expired {}, \
                     lease_revoked {}, reclaim {}, retry_exhausted {})",
                    events.len(),
                    count("tier_degraded"),
                    count("lease_expired"),
                    count("lease_revoked"),
                    count("reclaim"),
                    count("retry_exhausted")
                );
            }
            Err(e) => eprintln!("repro_tables: trace readback failed: {e}"),
        }
    }
    println!();
}

/// `--replay`: the snapshot/wire-log determinism drill. Records a
/// seeded chaos run, checkpoints it mid-flight, restores the snapshot
/// into a fresh broker, re-executes the recorded tail and demands the
/// final state and telemetry summary match byte for byte. Every
/// number here is deterministic in the seed (sizes and counts, no
/// wall clock), so `BENCH_snapshot.json` is regression-gated on all
/// machines.
fn replay_determinism() {
    use hetmem_snapshot::{chaos_record_replay, HarnessConfig};
    println!("== Replay: record -> snapshot -> restore -> replay determinism (KNL, fair-share) ==");
    println!(
        "{:<8} {:>7} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8} {:>9}",
        "seed", "epochs", "snap@", "requests", "frames", "snap(B)", "log(B)", "events", "verified"
    );
    let mut records = Vec::new();
    let mut all_verified = true;
    for (seed, epochs, snapshot_at) in [(0xc4a0u64, 48, 24), (0x0dd5, 96, 60)] {
        let cfg = HarnessConfig { seed, epochs, snapshot_at, tenants: 4 };
        let out = chaos_record_replay(&cfg).unwrap_or_else(|e| {
            eprintln!("repro_tables: replay harness failed: {e}");
            std::process::exit(1);
        });
        let verified = out.report.verified();
        all_verified &= verified;
        println!(
            "{:<8} {:>7} {:>6} {:>9} {:>7} {:>9} {:>9} {:>8} {:>9}",
            format!("{seed:#06x}"),
            epochs,
            snapshot_at,
            out.requests_recorded,
            out.frames,
            out.snapshot_bytes,
            out.log_bytes,
            out.report.events,
            if verified { "yes" } else { "NO" }
        );
        records.extend([
            BenchRecord::new(
                "record_replay",
                "snapshot_bytes",
                out.snapshot_bytes as f64,
                "count",
                seed,
            ),
            BenchRecord::new(
                "record_replay",
                "wire_log_bytes",
                out.log_bytes as f64,
                "count",
                seed,
            ),
            BenchRecord::new("record_replay", "frames", out.frames as f64, "count", seed),
            BenchRecord::new(
                "record_replay",
                "requests",
                out.requests_recorded as f64,
                "count",
                seed,
            ),
            BenchRecord::new(
                "record_replay",
                "replayed_events",
                out.report.events as f64,
                "count",
                seed,
            ),
            BenchRecord::new(
                "record_replay",
                "verified",
                if verified { 1.0 } else { 0.0 },
                "count",
                seed,
            ),
        ]);
    }
    emit_bench("snapshot", &records);
    println!(
        "  => replays byte-identical (state + summary): {}",
        if all_verified { "yes" } else { "NO" }
    );
    println!();
    if !all_verified {
        std::process::exit(1);
    }
}

/// `--federation`: broker counts × spill on/off through the federated
/// record/replay harness (KNL shards, skewed load on broker 0). Every
/// configuration runs twice to prove bit-identical reruns, every
/// broker's log replays independently against the pristine federated
/// snapshot, and cross-broker spill must lift the aggregate fast-tier
/// hit rate at two or more broker counts. All numbers are modelled
/// (no wall clock), so `BENCH_federation.json` is regression-gated on
/// all machines.
fn federation() {
    use hetmem_federation::harness::{federated_record_replay, FederatedHarnessConfig};
    println!("== Federation: cross-broker spill sweep (KNL shards, skewed load) ==");
    println!(
        "{:<8} {:<6} {:>9} {:>10} {:>9} {:>7} {:>8} {:>11} {:>9}",
        "brokers",
        "spill",
        "requests",
        "granted",
        "fast-hit",
        "spills",
        "merges",
        "spill ns/op",
        "verified"
    );
    // Deterministic fingerprint of one run; reruns must match exactly.
    let fingerprint = |o: &hetmem_federation::harness::FederatedOutcome| {
        (
            o.snapshot_bytes,
            o.log_bytes.clone(),
            o.requests_recorded,
            o.requested_bytes,
            o.granted_bytes,
            o.fast_bytes,
            o.spills,
            o.spill_cost_ns.to_bits(),
            o.digest_merges,
        )
    };
    let mut records = Vec::new();
    let mut identical = true;
    let mut all_verified = true;
    let mut spill_wins = 0u32;
    for members in [1u32, 2, 4] {
        let mut fractions = [0.0f64; 2];
        for spill in [false, true] {
            let cfg = FederatedHarnessConfig { members, spill, ..Default::default() };
            let run = |cfg: &FederatedHarnessConfig| {
                federated_record_replay(cfg).unwrap_or_else(|e| {
                    eprintln!("repro_tables: federation harness failed: {e}");
                    std::process::exit(1);
                })
            };
            let out = run(&cfg);
            identical &= fingerprint(&out) == fingerprint(&run(&cfg));
            let verified = out.verified();
            all_verified &= verified;
            fractions[spill as usize] = out.fast_fraction();
            println!(
                "{:<8} {:<6} {:>9} {:>7}MiB {:>8.1}% {:>7} {:>8} {:>11.0} {:>9}",
                members,
                if spill { "on" } else { "off" },
                out.requests_recorded,
                out.granted_bytes >> 20,
                out.fast_fraction() * 100.0,
                out.spills,
                out.digest_merges,
                if out.spills > 0 { out.spill_cost_ns / out.spills as f64 } else { 0.0 },
                if verified { "yes" } else { "NO" }
            );
            let tag = format!("fed{members}_spill_{}", if spill { "on" } else { "off" });
            records.push(BenchRecord::new(
                "federation_sweep",
                format!("{tag}_fast_hit"),
                out.fast_fraction(),
                "frac",
                cfg.seed,
            ));
            if spill {
                records.extend([
                    BenchRecord::new(
                        "federation_sweep",
                        format!("{tag}_spills"),
                        out.spills as f64,
                        "count",
                        cfg.seed,
                    ),
                    BenchRecord::new(
                        "federation_sweep",
                        format!("{tag}_requests"),
                        out.requests_recorded as f64,
                        "count",
                        cfg.seed,
                    ),
                ]);
                if out.spills > 0 {
                    records.push(BenchRecord::new(
                        "federation_sweep",
                        format!("{tag}_forward_ns"),
                        out.spill_cost_ns / out.spills as f64,
                        "ns",
                        cfg.seed,
                    ));
                }
            }
        }
        spill_wins += (fractions[1] > fractions[0]) as u32;
    }
    emit_bench("federation", &records);
    println!(
        "  => reruns bit-identical: {}; per-broker replays verified: {}; \
         spill lifts aggregate fast-tier hit rate at {spill_wins}/3 broker counts",
        if identical { "yes" } else { "NO" },
        if all_verified { "yes" } else { "NO" }
    );
    println!();
    if !identical || !all_verified || spill_wins < 2 {
        std::process::exit(1);
    }
}

/// Guided service: the tenant-mix sweep behind the broker's fused
/// guidance plane. A batch hog captures the whole KNL MCDRAM before
/// {1, 2, 4} latency tenants arrive; after eight epochs the hog's
/// working set shifts and its resident lease goes cold. Guided
/// brokers demote it and promote the latency cohort at the epoch
/// folds; unguided brokers never revisit placement. All numbers are
/// modelled traffic fractions and move counts (no wall clock), so
/// `BENCH_guided.json` is regression-gated on all machines. Exits
/// non-zero unless reruns are bit-identical, guided fair-share beats
/// unguided fair-share on the era-two fast-tier fraction at every
/// mix, and every guided run's sampling overhead stays under 1% of
/// modelled phase time.
fn guided_service() {
    use hetmem_bench::guided_load::{knl_guided_load, run_guided_load};
    use hetmem_service::ArbitrationPolicy;
    let ctx = Ctx::knl();
    println!("== Guided service: hog + latency-cohort mix sweep (KNL, 16 GiB MCDRAM) ==");
    println!(
        "{:<5} {:<12} {:<9} {:>9} {:>10} {:>10} {:>7} {:>7} {:>9}",
        "mix", "policy", "guided", "fast-hit", "era2-hit", "hot-era2", "promo", "demo", "overhead"
    );
    let mut records = Vec::new();
    let mut identical = true;
    let mut guided_wins = true;
    let mut bounded = true;
    for mix in [1u32, 2, 4] {
        for policy in [ArbitrationPolicy::FairShare, ArbitrationPolicy::Fcfs] {
            let mut era2 = [0.0f64; 2];
            for guided in [false, true] {
                let cfg = knl_guided_load(mix, guided, policy);
                let report = run_guided_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
                identical &=
                    report == run_guided_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
                era2[guided as usize] = report.era2_fast_frac;
                if guided {
                    bounded &= report.overhead_frac() < 0.01;
                }
                println!(
                    "{:<5} {:<12} {:<9} {:>8.1}% {:>9.1}% {:>9.1}% {:>7} {:>7} {:>8.3}%",
                    mix,
                    policy.as_str(),
                    if guided { "on" } else { "off" },
                    report.fast_frac * 100.0,
                    report.era2_fast_frac * 100.0,
                    report.hot_era2_fast_frac * 100.0,
                    report.promotions,
                    report.demotions,
                    report.overhead_frac() * 100.0
                );
                let tag = format!(
                    "m{mix}_{}_{}",
                    policy.as_str().replace('-', "_"),
                    if guided { "guided" } else { "unguided" }
                );
                records.extend([
                    BenchRecord::new(
                        "guided_sweep",
                        format!("{tag}_fast_hit"),
                        report.fast_frac,
                        "frac",
                        cfg.seed,
                    ),
                    BenchRecord::new(
                        "guided_sweep",
                        format!("{tag}_era2_fast_hit"),
                        report.era2_fast_frac,
                        "frac",
                        cfg.seed,
                    ),
                ]);
                if guided {
                    records.extend([
                        BenchRecord::new(
                            "guided_sweep",
                            format!("{tag}_promotions"),
                            report.promotions as f64,
                            "count",
                            cfg.seed,
                        ),
                        BenchRecord::new(
                            "guided_sweep",
                            format!("{tag}_overhead_ns"),
                            report.overhead_ns,
                            "ns",
                            cfg.seed,
                        ),
                    ]);
                }
            }
            if policy == ArbitrationPolicy::FairShare {
                guided_wins &= era2[1] > era2[0];
            }
        }
    }
    emit_bench("guided", &records);
    println!(
        "  => reruns bit-identical: {}; guided fair-share beats unguided at every mix: {}; \
         sampling overhead under 1%: {}",
        if identical { "yes" } else { "NO" },
        if guided_wins { "yes" } else { "NO" },
        if bounded { "yes" } else { "NO" }
    );
    println!();
    if !identical || !guided_wins || !bounded {
        std::process::exit(1);
    }
}

/// Wall-clock cost of the simulator itself on the KNL: one Table
/// IIb-shaped phase (Graph500 scale 26: four buffers spilled over
/// MCDRAM and DRAM by bandwidth, 16 ranks on cluster 0-15), and an
/// `Exact` commit of a two-node split plus its free.
fn memsim_costs(ctx: &Ctx) -> Vec<BenchRecord> {
    use hetmem_alloc::AllocRequest;
    use hetmem_memsim::{AccessPattern, AllocPolicy, BufferAccess, Phase};
    const REPS: u32 = 256;
    let initiator: hetmem_bitmap::Bitmap = "0-15".parse().unwrap();
    let mut alloc = ctx.allocator();
    let v = 1u64 << 26;
    let mut buffer = |bytes: u64| {
        let req = AllocRequest::new(bytes)
            .criterion(attr::BANDWIDTH)
            .initiator(&initiator)
            .fallback(Fallback::PartialSpill);
        alloc.alloc(&req).expect("fits the KNL")
    };
    let (csr, pred, visited, queues) =
        (buffer(26 * v), buffer(8 * v), buffer(v / 4), buffer(4 * v));
    // Edge factor 16; each BFS examines 1.9 edges per input edge.
    let edges = 16.0 * v as f64;
    let examined = edges * 1.9;
    let random_bytes = examined * 0.4 * hetmem_memsim::LINE as f64;
    let phase = Phase {
        name: "bfs".into(),
        accesses: vec![
            BufferAccess::new(csr, (examined * 8.0) as u64, 0, AccessPattern::Random),
            BufferAccess::new(pred, (random_bytes * 0.8) as u64, 8 * v, AccessPattern::Random),
            BufferAccess::new(visited, (random_bytes * 0.2) as u64, v / 8, AccessPattern::Random),
            BufferAccess::new(queues, 8 * v, 8 * v, AccessPattern::Sequential),
        ],
        threads: 16,
        initiator: initiator.clone(),
        compute_ns: 340.0 * edges / 16.0,
    };
    let start = std::time::Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(ctx.engine.run_phase(alloc.memory(), &phase));
    }
    let run_phase = start.elapsed().as_nanos() as f64 / REPS as f64;

    let mm = alloc.memory_mut();
    let split = [(NodeId(4), GIB / 4), (NodeId(0), GIB / 4)];
    let start = std::time::Instant::now();
    for _ in 0..REPS {
        let id = mm.alloc(GIB / 2, AllocPolicy::Exact(split.to_vec())).expect("fits");
        mm.free(id);
    }
    let commit = start.elapsed().as_nanos() as f64 / REPS as f64;
    vec![
        BenchRecord::new("memsim", "run_phase_table2b_knl", run_phase, "ns", 0),
        BenchRecord::new("memsim", "commit_free_exact", commit, "ns", 0),
    ]
}

/// Wall-clock cost of the wire codec on a served `mem_alloc`: the
/// `alloc` request frame and its `granted` reply, each rendered to its
/// JSON line and parsed back, as lease-churn's clients and server do.
fn wire_costs() -> Vec<BenchRecord> {
    use hetmem_service::wire::{Request, Response};
    use std::hint::black_box;
    const REPS: u32 = 4096;
    let time = |round_trip: &dyn Fn()| {
        let start = std::time::Instant::now();
        for _ in 0..REPS {
            round_trip();
        }
        start.elapsed().as_nanos() as f64 / REPS as f64
    };
    let alloc = Request::Alloc {
        tenant: "tenant-3".into(),
        size: 48 << 20,
        criterion: attr::BANDWIDTH,
        fallback: Fallback::NextTarget,
        label: None,
        ttl: None,
    };
    let granted = Response::Granted {
        lease: 123_456,
        size: 48 << 20,
        placement: vec![(NodeId(4), 48 << 20)],
        fast_bytes: 48 << 20,
    };
    let alloc_ns = time(&|| {
        black_box(Request::from_json(&black_box(&alloc).to_json()).expect("parses"));
    });
    let granted_ns = time(&|| {
        black_box(Response::from_json(&black_box(&granted).to_json()).expect("parses"));
    });
    vec![
        BenchRecord::new("wire", "alloc_render_parse", alloc_ns, "ns", 0),
        BenchRecord::new("wire", "granted_render_parse", granted_ns, "ns", 0),
    ]
}

/// Wall-clock cost of one fair-share admission and its release, as
/// tier-contention's load threads issue them: a 64–512 MiB bandwidth
/// request with partial spill on a 32-tenant KNL broker whose tenants
/// hold bytes on every node. One thread and no telemetry, so the
/// figure is the broker's own path: ranking, tier snapshots, planning
/// walk, commit and lease bookkeeping.
fn service_costs(ctx: &Ctx) -> Vec<BenchRecord> {
    use hetmem_alloc::AllocRequest;
    use hetmem_service::{ArbitrationPolicy, Broker, Priority, TenantSpec};
    use hetmem_topology::MIB;
    const TENANTS: usize = 32;
    const REPS: u32 = 4096;
    let broker = Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare);
    let priorities = [Priority::Batch, Priority::Normal, Priority::Latency];
    let tenants: Vec<_> = (0..TENANTS)
        .map(|i| {
            let spec = TenantSpec::new(format!("t{i}")).priority(priorities[i % 3]);
            broker.register(spec).expect("register")
        })
        .collect();
    // Each tenant fills from its own SNC-4 cluster: MCDRAM first, then
    // that cluster's DRAM, so every node carries holdings.
    let held: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let req = AllocRequest::new(256 * MIB)
                .criterion(attr::BANDWIDTH)
                .initiator(&hetmem_apps::pinned_cpus(16 * (i % 4), 16))
                .fallback(Fallback::PartialSpill);
            broker.acquire(t, &req).expect("fits")
        })
        .collect();
    assert!(broker.node_usage().iter().all(|&(_, used, _)| used > 0), "a node holds nothing");
    let req = |i: u32| {
        AllocRequest::new((64 + u64::from(i % 8) * 64) * MIB)
            .criterion(attr::BANDWIDTH)
            .fallback(Fallback::PartialSpill)
    };
    let start = std::time::Instant::now();
    for i in 0..REPS {
        let lease = broker
            .acquire_with_ttl(tenants[i as usize % TENANTS], &req(i), None)
            .expect("admitted");
        broker.release(lease).expect("release");
    }
    let admit_release = start.elapsed().as_nanos() as f64 / REPS as f64;
    for lease in held {
        broker.release(lease).expect("release");
    }
    broker.check_invariants().expect("broker consistent");
    vec![BenchRecord::new("service", "admit_release_32", admit_release, "ns", 0)]
}

/// Wall-clock cost of one epoch turnover as tier-contention runs it:
/// `advance_epoch` (expiry and the guided fold) plus one `heartbeat`
/// per tenant, on a guided 32-tenant KNL fair-share broker whose
/// tenants each hold four leases (64–256 MiB, bandwidth, partial
/// spill from the tenant's SNC-4 cluster, 16-epoch TTL) and have run
/// one phase over them, so every tenant has a guidance plane. The
/// first epochs' moves settle before the clock starts. One thread and
/// no telemetry.
fn epoch_turnover_cost(ctx: &Ctx) -> BenchRecord {
    use hetmem_alloc::AllocRequest;
    use hetmem_memsim::{AccessPattern, BufferAccess, Phase};
    use hetmem_service::{ArbitrationPolicy, Broker, GuidedConfig, Priority, TenantSpec};
    use hetmem_topology::MIB;
    const TENANTS: u64 = 32;
    const LEASES: u64 = 4;
    const WARMUP: u32 = 8;
    const REPS: u32 = 256;
    let mut broker =
        Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare);
    broker.enable_guidance(GuidedConfig::default());
    let priorities = [Priority::Batch, Priority::Normal, Priority::Latency];
    let tenants: Vec<_> = (0..TENANTS)
        .map(|i| {
            let spec =
                TenantSpec::new(format!("t{i}")).priority(priorities[i as usize % 3]).lease_ttl(16);
            broker.register(spec).expect("register")
        })
        .collect();
    let mut held = Vec::new();
    for (i, &tenant) in (0..).zip(&tenants) {
        // Each tenant fills from its own SNC-4 cluster.
        let cpus = hetmem_apps::pinned_cpus(16 * (i as usize % 4), 16);
        let leases: Vec<_> = (0..LEASES)
            .map(|k| {
                let req = AllocRequest::new((64 + (i * LEASES + k) % 4 * 64) * MIB)
                    .criterion(attr::BANDWIDTH)
                    .initiator(&cpus)
                    .fallback(Fallback::PartialSpill);
                broker.acquire(tenant, &req).expect("fits")
            })
            .collect();
        let phase = Phase {
            name: "turnover".into(),
            accesses: leases
                .iter()
                .map(|l| BufferAccess::new(l.region(), l.size(), 0, AccessPattern::Sequential))
                .collect(),
            threads: 16,
            initiator: cpus,
            compute_ns: 0.0,
        };
        broker.run_phase(tenant, &phase).expect("phase");
        held.extend(leases);
    }
    let turnover = || {
        broker.advance_epoch();
        for &t in &tenants {
            std::hint::black_box(broker.heartbeat(t).expect("heartbeat"));
        }
    };
    for _ in 0..WARMUP {
        turnover();
    }
    let start = std::time::Instant::now();
    for _ in 0..REPS {
        turnover();
    }
    let ns = start.elapsed().as_nanos() as f64 / REPS as f64;
    assert_eq!(broker.live_leases(), held.len(), "heartbeats keep every lease");
    broker.check_invariants().expect("broker consistent");
    for lease in held {
        broker.release(lease).expect("release");
    }
    BenchRecord::new("service", "epoch_turnover_32", ns, "ns", 0)
}

/// §VII: capacity conflicts — FCFS vs priorities on the KNL MCDRAM.
fn capacity(trace: Option<&str>) {
    use hetmem_telemetry::{JsonlWriter, Summary, TelemetrySink};
    use std::sync::Arc;
    println!("== Capacity conflicts (SVII): two 3GiB bandwidth buffers on a ~3.8GiB MCDRAM ==");
    let writer: Option<Arc<JsonlWriter>> = trace.map(|path| {
        Arc::new(JsonlWriter::create(path).unwrap_or_else(|e| {
            eprintln!("repro_tables: cannot create {path}: {e}");
            std::process::exit(1);
        }))
    });
    let sink = if writer.is_some() {
        TelemetrySink::with_capacity(1 << 14)
    } else {
        TelemetrySink::disabled()
    };
    let ctx = Ctx::knl();
    let reqs = vec![
        PlannedAlloc {
            name: "scratch (cold)".into(),
            size: 3 * GIB,
            criterion: attr::BANDWIDTH,
            priority: 1,
        },
        PlannedAlloc {
            name: "stream arrays (hot)".into(),
            size: 3 * GIB,
            criterion: attr::BANDWIDTH,
            priority: 10,
        },
    ];
    for order in [PlanOrder::Fcfs, PlanOrder::Priority] {
        let mut alloc = ctx.allocator();
        alloc.set_sink(sink.clone());
        let placed = plan(&mut alloc, &reqs, &"0-15".parse().unwrap(), order).expect("plan fits");
        println!("{order:?} order:");
        for p in &placed {
            let where_: Vec<String> = p
                .placement
                .iter()
                .map(|&(n, b)| format!("{}:{:.1}GiB", kind_label(&ctx, n), b as f64 / GIB as f64))
                .collect();
            println!(
                "  {:<22} -> {:<28} best-target={}",
                p.name,
                where_.join(" + "),
                if p.got_best { "yes" } else { "no" }
            );
        }
    }
    // Migration epilogue: free the cold buffer, migrate the hot one.
    let mut alloc = ctx.allocator();
    alloc.set_sink(sink.clone());
    let placed =
        plan(&mut alloc, &reqs, &"0-15".parse().unwrap(), PlanOrder::Fcfs).expect("plan fits");
    let hot = placed[1].region;
    alloc.free(placed[0].region);
    let (node, report) = alloc
        .migrate_to_best(hot, attr::BANDWIDTH, &"0-15".parse().unwrap())
        .expect("migration target available");
    println!(
        "after phase change: migrated hot buffer to {} ({} MiB moved, {:.2} ms)",
        kind_label(&ctx, node),
        report.bytes_moved / (1024 * 1024),
        report.cost_ns / 1e6
    );
    // Wall-clock cost of the management layer itself: the planner walk
    // over both orders, and a strict attribute allocation round-trip.
    let mut records = Vec::new();
    for order in [PlanOrder::Fcfs, PlanOrder::Priority] {
        const REPS: u32 = 32;
        let mut total = std::time::Duration::ZERO;
        for _ in 0..REPS {
            let mut alloc = ctx.allocator();
            let start = std::time::Instant::now();
            let placed =
                plan(&mut alloc, &reqs, &"0-15".parse().unwrap(), order).expect("plan fits");
            total += start.elapsed();
            std::hint::black_box(placed);
        }
        records.push(BenchRecord::new(
            "capacity_plan",
            format!("plan_{}", format!("{order:?}").to_lowercase()),
            total.as_nanos() as f64 / REPS as f64,
            "ns",
            0,
        ));
    }
    {
        use hetmem_alloc::AllocRequest;
        const REPS: u32 = 256;
        let mut alloc = ctx.allocator();
        let req = AllocRequest::new(GIB)
            .criterion(attr::BANDWIDTH)
            .initiator(&"0-15".parse().unwrap())
            .fallback(Fallback::Strict);
        let start = std::time::Instant::now();
        for _ in 0..REPS {
            let id = alloc.alloc(&req).expect("fits");
            alloc.free(id);
        }
        records.push(BenchRecord::new(
            "capacity_plan",
            "alloc_free_strict",
            start.elapsed().as_nanos() as f64 / REPS as f64,
            "ns",
            0,
        ));
    }
    records.extend(memsim_costs(&ctx));
    records.extend(wire_costs());
    records.extend(service_costs(&ctx));
    records.push(epoch_turnover_cost(&ctx));
    emit_bench("alloc", &records);
    if let (Some(w), Some(path)) = (&writer, trace) {
        let mut collector = sink.collector();
        for e in collector.drain_sorted() {
            w.write_event(&e.event);
        }
        let _ = w.flush();
        let lost: u64 = collector.loss().iter().map(|l| l.lost).sum();
        if lost > 0 {
            eprintln!("repro_tables: trace lost {lost} events");
        }
        let text = std::fs::read_to_string(path).unwrap_or_default();
        match hetmem_telemetry::read_jsonl(&text) {
            Ok(events) => {
                print!("{}", Summary::from_events(&events).render());
                println!("trace: {} events -> {path}", events.len());
            }
            Err(e) => eprintln!("repro_tables: trace readback failed: {e}"),
        }
    }
    println!();
}

/// Online guidance table: a two-era KNL workload (2 GiB buffers `a`
/// and `b`, 16 GiB of sequential traffic per phase; the working set
/// switches from `a` to `b` after three phases) placed by four
/// strategies. Static placement never reacts; the phase-boundary
/// tiering daemon reacts after whole cold phases; the online guidance
/// engine reacts mid-phase from sampled hotness, sooner (and at more
/// overhead) the shorter the sampling period; perfect information
/// migrates exactly at the era boundary.
fn guidance() {
    use hetmem_alloc::tiering::{TieringDaemon, TieringPolicy};
    use hetmem_alloc::AllocRequest;
    use hetmem_guidance::{GuidanceEngine, GuidancePolicy, SamplerConfig};
    use hetmem_memsim::{AccessPattern, BufferAccess, Phase, RegionId};

    const PHASE_BYTES: u64 = 16 * GIB;
    const ERA1: usize = 3;
    const ERA2: usize = 9;

    println!("== Online guidance: reacting to an era change from sampled hotness (KNL) ==");
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "strategy", "total ms", "GB/s", "migrations", "hot-set acc", "overhead"
    );

    let ctx = Ctx::knl();
    let initiator: hetmem_bitmap::Bitmap = "0-15".parse().expect("cpuset");
    let total_bytes = ((ERA1 + ERA2) as u64 * PHASE_BYTES) as f64;

    let setup = |ctx: &Ctx| {
        let mut alloc = ctx.allocator();
        let a = alloc
            .alloc(&AllocRequest::new(2 * GIB).criterion(attr::BANDWIDTH).initiator(&initiator))
            .expect("alloc a");
        let b = alloc
            .alloc(&AllocRequest::new(2 * GIB).criterion(attr::BANDWIDTH).initiator(&initiator))
            .expect("alloc b");
        (alloc, a, b)
    };
    let phase = |name: String, region: RegionId| Phase {
        name,
        accesses: vec![BufferAccess::new(region, PHASE_BYTES, 0, AccessPattern::Sequential)],
        threads: 16,
        initiator: initiator.clone(),
        compute_ns: 0.0,
    };
    let schedule = |a: RegionId, b: RegionId| -> Vec<Phase> {
        (0..ERA1)
            .map(|i| phase(format!("era1.{i}"), a))
            .chain((0..ERA2).map(|i| phase(format!("era2.{i}"), b)))
            .collect()
    };
    let row = |label: &str, total_ns: f64, migrations: u64, acc: Option<f64>, overhead_ns: f64| {
        println!(
            "{:<26} {:>10.1} {:>12.2} {:>12} {:>12} {:>9.2}%",
            label,
            total_ns / 1e6,
            total_bytes / total_ns, // bytes/ns = GB/s (decimal)
            migrations,
            acc.map_or_else(|| "-".to_string(), |a| format!("{:.1}%", a * 100.0)),
            100.0 * overhead_ns / total_ns
        );
        total_ns
    };

    // Static: initial bandwidth placement, never revisited.
    let (alloc, a, b) = setup(&ctx);
    let mut static_ns = 0.0;
    for p in schedule(a, b) {
        static_ns += ctx.engine.run_phase(alloc.memory(), &p).time_ns;
    }
    row("static", static_ns, 0, None, 0.0);

    // Phase-boundary tiering: observe + rebalance between phases.
    let (mut alloc, a, b) = setup(&ctx);
    let mut daemon = TieringDaemon::new(TieringPolicy::default());
    let mut tiering_ns = 0.0;
    let mut tiering_moves = 0;
    for p in schedule(a, b) {
        let report = ctx.engine.run_phase(alloc.memory(), &p);
        tiering_ns += report.time_ns;
        daemon.observe(&report);
        for action in daemon
            .rebalance_with_criterion(&mut alloc, &initiator, attr::BANDWIDTH)
            .expect("rebalance")
        {
            use hetmem_alloc::tiering::TieringAction::*;
            let (Promoted { cost_ns, .. } | Demoted { cost_ns, .. }) = action;
            tiering_ns += cost_ns;
            tiering_moves += 1;
        }
    }
    let tiering_total = row("tiering (phase boundary)", tiering_ns, tiering_moves, None, 0.0);

    // Online guidance at decreasing sampling periods.
    let mut guided_totals = Vec::new();
    for period in [262_144u64, 65_536, 16_384] {
        let (mut alloc, a, b) = setup(&ctx);
        let mut g = GuidanceEngine::new(
            ctx.attrs.clone(),
            GuidancePolicy::default(),
            SamplerConfig { period, ..Default::default() },
        );
        let mut total_ns = 0.0;
        for p in schedule(a, b) {
            total_ns += g.run_phase(&ctx.engine, alloc.memory_mut(), &p).time_ns();
        }
        let stats = g.stats();
        guided_totals.push(row(
            &format!("guidance (period {period})"),
            total_ns,
            stats.promotions + stats.demotions,
            Some(stats.mean_accuracy()),
            stats.overhead_ns,
        ));
    }

    // Perfect information: migrate both exactly at the era boundary.
    let (mut alloc, a, b) = setup(&ctx);
    let mut perfect_ns = 0.0;
    for (i, p) in schedule(a, b).into_iter().enumerate() {
        if i == ERA1 {
            let dram = alloc.memory().region(b).expect("b").placement[0].0;
            perfect_ns += alloc.memory_mut().migrate(a, dram).expect("demote a").cost_ns;
            let mcdram = NodeId(4);
            perfect_ns += alloc.memory_mut().migrate(b, mcdram).expect("promote b").cost_ns;
        }
        perfect_ns += ctx.engine.run_phase(alloc.memory(), &p).time_ns;
    }
    let perfect_total = row("perfect information", perfect_ns, 2, None, 0.0);

    let monotone = guided_totals.windows(2).all(|w| w[1] <= w[0]);
    let beats_tiering = guided_totals.iter().all(|&t| t <= tiering_total);
    println!(
        "  => guidance {} phase-boundary tiering; gap to perfect information {} as the period shrinks",
        if beats_tiering { "beats" } else { "does NOT beat" },
        if monotone { "shrinks monotonically" } else { "is NOT monotone" }
    );
    let mut records = vec![
        BenchRecord::new("guidance_eras", "static_total", static_ns, "ns", 0),
        BenchRecord::new("guidance_eras", "tiering_total", tiering_total, "ns", 0),
        BenchRecord::new("guidance_eras", "perfect_total", perfect_total, "ns", 0),
    ];
    for (period, &total) in [262_144u64, 65_536, 16_384].iter().zip(&guided_totals) {
        records.push(BenchRecord::new(
            "guidance_eras",
            format!("guided_total_period_{period}"),
            total,
            "ns",
            0,
        ));
    }
    let best = guided_totals.iter().cloned().fold(f64::INFINITY, f64::min);
    records.push(BenchRecord::new("guidance_eras", "speedup_vs_static", static_ns / best, "x", 0));
    emit_bench("guidance", &records);
    println!();
}
