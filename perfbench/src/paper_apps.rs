//! `paper-apps`: the paper's own unserved library path (core + alloc +
//! memsim engine + apps), one thread, no service, wire or telemetry.
//!
//! Set-up runs firmware discovery for the paper's Xeon (DRAM+NVDIMM)
//! and KNL (DRAM+MCDRAM). The load repeats the application runs behind
//! Tables IIa, IIb, IIIa and IIIb with the configurations and
//! placements of `repro_tables`, in a seeded order. Each run takes a
//! fresh `HetAllocator`, makes the attribute-ranked `alloc` calls for
//! the application's buffers (the paper's `mem_alloc(size, attribute)`)
//! and frees them, then runs the modelled phases in
//! `apps::{graph500,stream}::run`, which allocate and free again.

use crate::common::{median_secs, peak_rss_mib, ratio, scaled, Ctx, Opts, Outcome, Rng, Window};
use crate::layers::{self, frames_from, AllocInput, Counts};
use crate::trace::Tracer;
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_apps::graph500::{self, Graph500Config};
use hetmem_apps::stream::{self, StreamConfig};
use hetmem_apps::{AppError, Placement};
use hetmem_bitmap::Bitmap;
use hetmem_core::{attr, AttrId, NodeId};
use hetmem_topology::GIB;
use std::time::Instant;

const KNL: usize = 0;
const XEON: usize = 1;
const SETUPS: usize = 7;
/// Ordered passes over every table cell in each set-up's warm-up.
const WARMUP_PASSES: usize = 60;
const MAX_INPUTS: usize = 5000;

#[derive(Debug, Clone)]
enum App {
    Graph500 { scale: u32, placement: Placement },
    Stream { gib: f64 },
}

/// One cell of a paper table and the value EXPERIMENTS.md prints for it
/// (`None`: the blank cell, whose allocation must fail).
#[derive(Debug, Clone)]
struct Cell {
    label: String,
    ctx: usize,
    app: App,
    /// The attribute and fallback of the ranked allocations.
    criterion: AttrId,
    fallback: Fallback,
    expect: Option<&'static str>,
}

/// One STREAM row: criterion, fallback and the printed value per size.
type StreamRow = (AttrId, Fallback, [Option<&'static str>; 3]);

fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    let g500 = |label: String, ctx, scale, placement, criterion, expect| Cell {
        label,
        ctx,
        app: App::Graph500 { scale, placement },
        criterion,
        fallback: Fallback::PartialSpill,
        expect: Some(expect),
    };
    // Table IIa: Graph500 TEPS e+8 on the Xeon, bound to DRAM / NVDIMM.
    let dram = ["3.240", "3.158", "3.081", "3.021", "2.971"];
    let nvdimm = ["1.827", "1.751", "1.682", "1.644", "0.890"];
    for (i, scale) in (26..=30).enumerate() {
        let bind = |n| Placement::BindAll(NodeId(n));
        v.push(g500(format!("IIa s{scale} DRAM"), XEON, scale, bind(0), attr::LATENCY, dram[i]));
        v.push(g500(
            format!("IIa s{scale} NVDIMM"),
            XEON,
            scale,
            bind(2),
            attr::CAPACITY,
            nvdimm[i],
        ));
    }
    // Table IIb: Graph500 on the KNL cluster, preferring HBM / DRAM.
    let hbm = ["0.443", "0.440"];
    let kdram = ["0.444", "0.442"];
    for (i, scale) in (26..=27).enumerate() {
        let prefer = |n| Placement::PreferAll(NodeId(n));
        v.push(g500(format!("IIb s{scale} HBM"), KNL, scale, prefer(4), attr::BANDWIDTH, hbm[i]));
        v.push(g500(format!("IIb s{scale} DRAM"), KNL, scale, prefer(0), attr::LATENCY, kdram[i]));
    }
    // Tables IIIa/IIIb: STREAM Triad GB/s by optimized criterion.
    let stream_rows: [(&str, usize, [f64; 3], [StreamRow; 2]); 2] = [
        (
            "IIIa",
            XEON,
            [22.4, 89.4, 223.5],
            [
                (
                    attr::CAPACITY,
                    Fallback::PartialSpill,
                    [Some("32.57"), Some("10.10"), Some("10.10")],
                ),
                (attr::LATENCY, Fallback::Strict, [Some("76.71"), Some("76.78"), None]),
            ],
        ),
        (
            "IIIb",
            KNL,
            [1.1, 3.4, 17.9],
            [
                (
                    attr::BANDWIDTH,
                    Fallback::PartialSpill,
                    [Some("87.49"), Some("89.17"), Some("44.00")],
                ),
                (attr::LATENCY, Fallback::Strict, [Some("29.72"), Some("29.91"), None]),
            ],
        ),
    ];
    for (table, ctx, sizes, rows) in stream_rows {
        for (criterion, fallback, expects) in rows {
            for (gib, expect) in sizes.into_iter().zip(expects) {
                v.push(Cell {
                    label: format!(
                        "{table} {} {gib} GiB",
                        hetmem_service::wire::criterion_name(criterion)
                    ),
                    ctx,
                    app: App::Stream { gib },
                    criterion,
                    fallback,
                    expect,
                });
            }
        }
    }
    v
}

fn graph500_config(ctx: usize, scale: u32) -> Graph500Config {
    if ctx == XEON {
        Graph500Config::xeon_paper(scale)
    } else {
        Graph500Config::knl_paper(scale)
    }
}

fn stream_config(ctx: usize, gib: f64) -> StreamConfig {
    let total = (gib * GIB as f64) as u64;
    if ctx == XEON {
        StreamConfig::xeon_paper(total)
    } else {
        StreamConfig::knl_paper(total)
    }
}

/// The application's buffer sizes and pinned cpuset.
fn buffers(cell: &Cell) -> (Vec<u64>, Bitmap) {
    match &cell.app {
        App::Graph500 { scale, .. } => {
            let cfg = graph500_config(cell.ctx, *scale);
            let v = cfg.params.vertices();
            (vec![26 * v, 8 * v, (v / 4).max(4096), 4 * v], cfg.cpus())
        }
        App::Stream { gib } => {
            let cfg = stream_config(cell.ctx, *gib);
            (vec![cfg.total_bytes / 3; 3], cfg.cpus())
        }
    }
}

#[derive(Default)]
struct Stats {
    runs: u64,
    granted_runs: u64,
    allocs: u64,
    granted_allocs: u64,
    failed: u64,
    granted_bytes: u64,
    fast_bytes: u64,
    win: Window,
    inputs: Vec<AllocInput>,
    errors: Vec<String>,
}

impl Stats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

fn run_cell(ctxs: &[Ctx], cell: &Cell, st: &mut Stats, tr: &mut Tracer, capture: bool) {
    let ctx = &ctxs[cell.ctx];
    let req_id = st.runs;
    let root = tr.id();
    let t_root = Instant::now();
    let mut alloc = ctx.allocator();
    let (sizes, cpus) = buffers(cell);
    let mut regions = Vec::new();
    let mut all_granted = true;
    for size in sizes {
        let req = AllocRequest::new(size)
            .criterion(cell.criterion)
            .initiator(&cpus)
            .fallback(cell.fallback);
        st.allocs += 1;
        let t0 = Instant::now();
        let r = alloc.alloc(&req);
        let t1 = Instant::now();
        st.win.latency(t1, t1 - t0);
        tr.leaf("alloc.alloc", Some(root), req_id, t0, t1);
        let placement = match r {
            Ok(id) => {
                regions.push(id);
                alloc.memory().region(id).expect("fresh region").placement.clone()
            }
            Err(_) => Vec::new(),
        };
        st.granted_bytes += placement.iter().map(|&(_, b)| b).sum::<u64>();
        st.fast_bytes += ctx.fast_bytes(&placement);
        let granted = !placement.is_empty();
        st.granted_allocs += granted as u64;
        if capture && st.inputs.len() < MAX_INPUTS {
            st.inputs.push(AllocInput {
                ctx: cell.ctx,
                tenant: 0,
                size,
                criterion: cell.criterion,
                fallback: cell.fallback,
                placement,
            });
        }
        if !granted {
            all_granted = false;
            break;
        }
    }
    for id in regions {
        tr.time("alloc.free", Some(root), req_id, || alloc.free(id));
    }
    st.runs += 1;
    st.granted_runs += all_granted as u64;

    let result: Result<String, AppError> = match &cell.app {
        App::Graph500 { scale, placement } => {
            let cfg = graph500_config(cell.ctx, *scale);
            tr.time("apps.graph500", Some(root), req_id, || {
                graph500::run(&mut alloc, &ctx.engine, &cfg, placement, None)
            })
            .map(|r| format!("{:.3}", r.teps_harmonic / 1e8))
        }
        App::Stream { gib } => {
            let cfg = stream_config(cell.ctx, *gib);
            let placement = Placement::Criterion { attr: cell.criterion, fallback: cell.fallback };
            tr.time("apps.stream", Some(root), req_id, || {
                stream::run(&mut alloc, &ctx.engine, &cfg, &placement, None)
            })
            .map(|r| format!("{:.2}", r.triad_gibps))
        }
    };
    let matches = match (cell.expect, &result) {
        (Some(want), Ok(got)) => got == want,
        (None, Err(AppError::Alloc(_))) => true,
        _ => false,
    };
    if !matches {
        st.fail(format!("{}: got {result:?}, EXPERIMENTS.md has {:?}", cell.label, cell.expect));
    }
    if all_granted != cell.expect.is_some() {
        st.fail(format!("{}: ranked allocation granted={all_granted}", cell.label));
    }
    let done = Instant::now();
    st.win.op(done);
    tr.push(root, "app.run", None, req_id, t_root, done);
}

/// Runs cells in a freshly shuffled order per pass until `deadline`
/// (or [`WARMUP_PASSES`] ordered passes when `deadline` is `None`).
fn drive(
    ctxs: &[Ctx],
    cells: &[Cell],
    rng: &mut Rng,
    deadline: Option<Instant>,
    tr: &mut Tracer,
    capture: bool,
    win: Window,
) -> Stats {
    let mut st = Stats { win, ..Stats::default() };
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let Some(deadline) = deadline else {
        for _ in 0..WARMUP_PASSES {
            for cell in cells {
                run_cell(ctxs, cell, &mut st, tr, capture);
            }
        }
        return st;
    };
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            if Instant::now() >= deadline {
                return st;
            }
            run_cell(ctxs, &cells[i], &mut st, tr, capture);
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(opts.seed);
    let origin = Instant::now();
    let cells = cells();
    let mut tr = Tracer::new(false, origin, 1);

    let mut setups = Vec::new();
    let mut ctxs = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        ctxs = vec![Ctx::knl(), Ctx::xeon()];
        let warm = drive(&ctxs, &cells, &mut rng, None, &mut tr, false, Window::default());
        setups.push(scaled(t0.elapsed()));
        out.check(
            "warm-up pass reproduces every table cell",
            warm.failed == 0,
            warm.errors.join("; "),
        );
    }

    let start = Instant::now();
    let end = start + opts.window;
    let (st, rates) = if opts.trace {
        let mid = start + opts.window / 2;
        let mut first =
            drive(&ctxs, &cells, &mut rng, Some(mid), &mut tr, false, Window::default());
        let untraced = first.runs as f64 / start.elapsed().as_secs_f64();
        tr.set_enabled(true);
        let t_mid = Instant::now();
        let second = drive(&ctxs, &cells, &mut rng, Some(end), &mut tr, true, Window::default());
        let traced = second.runs as f64 / t_mid.elapsed().as_secs_f64();
        first.failed += second.failed;
        first.errors.extend(second.errors);
        first.inputs = second.inputs;
        first.allocs += second.allocs;
        first.granted_allocs += second.granted_allocs;
        first.runs += second.runs;
        (first, Some((untraced, traced)))
    } else {
        let win = Window::new(start, opts.window);
        let steal = win.sample_steal();
        let mut st = drive(&ctxs, &cells, &mut rng, Some(end), &mut tr, false, win);
        st.win.set_steal(steal.join().expect("steal sampler"));
        (st, None)
    };
    let elapsed = start.elapsed().as_secs_f64();
    out.attempted = st.runs.max(1);
    out.failed = st.failed;
    out.check(
        "every TEPS and GB/s value matches EXPERIMENTS.md; blank cells fail to allocate",
        st.failed == 0,
        st.errors.join("; "),
    );

    if let Some((untraced, traced)) = rates {
        let counts = Counts {
            admits: st.granted_allocs,
            attempts: st.allocs,
            trace_overhead: 1.0 - ratio(traced, untraced),
            ..Counts::default()
        };
        // The replays record into a tracer of their own, so the live
        // tracer's span cap does not cut them off.
        let mut all = Tracer::new(true, origin, 0);
        all.absorb(tr);
        let frames = frames_from(&st.inputs, &ctxs);
        out.metrics = layers::measure(&mut all, opts, &ctxs, &frames, &st.inputs, 1, counts);
        crate::write_spans(&mut all, opts, "paper-apps");
    } else {
        out.set("setup_s", median_secs(&setups), "s");
        out.set("ops_per_s", st.win.ops_per_s(), "ops/s");
        out.set("alloc_p50_us", st.win.latency_us(50.0), "us");
        out.set("alloc_p90_us", st.win.latency_us(90.0), "us");
        out.note("alloc_p99_us", format!("{:.2} us", st.win.latency_us(99.0)));
        out.note("app runs per second, whole window", st.runs as f64 / elapsed);
        out.set("granted_frac", ratio(st.granted_runs as f64, st.runs as f64), "frac");
        out.set("fast_hit_frac", ratio(st.fast_bytes as f64, st.granted_bytes as f64), "frac");
        out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    out.note("alloc samples", st.win.samples());
    out.note("unscaled", st.win.unscaled());
    out.note("slices", st.win.slices());
    out.note("error_frac", ratio(out.failed_total() as f64, out.attempted as f64));
    out.note("denied_frac", ratio((st.allocs - st.granted_allocs) as f64, st.allocs as f64));
    out.note("fds_per_conn", "n/a (no connections)");
    out
}
