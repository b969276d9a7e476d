//! `lease-churn`: the served request path (wire + server + broker).
//!
//! An in-process `Server` on a unix socket in the default
//! `hetmem-serve` shape (KNL SNC-4 flat, fair-share, one dispatcher,
//! telemetry off) with eight tenants registered over the wire. Two
//! closed-loop clients cycle `alloc` (1–64 MiB, bandwidth,
//! `next_target`) → `free`, with a `renew` every 4th alloc, a
//! `heartbeat` every 16th and a `stats` every 64th. Every
//! [`CHURN_EVERY`] grants a client drops its connection while holding
//! the lease (a job ending) and reconnects (a new job starting), which
//! runs accept and disconnect revocation. The fast tier never fills, so
//! every grant is single-node and unclamped.

use crate::common::{
    median_secs, open_fds, peak_rss_mib, ratio, scaled, Ctx, Opts, Outcome, Rng, Window,
};
use crate::layers::{self, AllocInput, Counts};
use crate::trace::Tracer;
use hetmem_alloc::Fallback;
use hetmem_core::attr;
use hetmem_service::server::{Client, Server};
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, Priority};
use hetmem_topology::MIB;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
const CLIENTS: u64 = 2;
/// Grants per connection before the client drops it holding a lease.
const CHURN_EVERY: u64 = 256;
/// Warm-up cycles per client in each set-up.
const WARMUP_CYCLES: u64 = 600;
const SETUPS: usize = 7;
/// Frames each client keeps for the wire/serve replay.
const MAX_FRAMES: usize = 10_000;

#[derive(Default)]
struct Stats {
    requests: u64,
    allocs: u64,
    granted: u64,
    denied: u64,
    failed: u64,
    granted_bytes: u64,
    fast_bytes: u64,
    conns: u64,
    dropped_with_lease: u64,
    win: Window,
    frames: Vec<(Request, Response)>,
    errors: Vec<String>,
}

impl Stats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn absorb(&mut self, o: Stats) {
        self.requests += o.requests;
        self.allocs += o.allocs;
        self.granted += o.granted;
        self.denied += o.denied;
        self.failed += o.failed;
        self.granted_bytes += o.granted_bytes;
        self.fast_bytes += o.fast_bytes;
        self.conns += o.conns;
        self.dropped_with_lease += o.dropped_with_lease;
        self.win.absorb(o.win);
        self.frames.extend(o.frames);
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// One closed-loop client: its connection, input stream and spans.
struct Worker {
    addr: String,
    tenants: Vec<String>,
    client: Client,
    rng: Rng,
    grants: u64,
    tracer: Tracer,
    next_req: u64,
    capture: bool,
}

impl Worker {
    /// One blocking call; transport failures reconnect.
    fn call(
        &mut self,
        st: &mut Stats,
        req: &Request,
        span: &'static str,
        root: u64,
        req_id: u64,
    ) -> Option<Response> {
        let t0 = Instant::now();
        let r = self.client.call(req);
        let t1 = Instant::now();
        self.tracer.leaf(span, Some(root), req_id, t0, t1);
        st.requests += 1;
        st.win.op(t1);
        if matches!(req, Request::Alloc { .. }) {
            st.win.latency(t1, t1 - t0);
        }
        match r {
            Ok(resp) => {
                if self.capture && st.frames.len() < MAX_FRAMES {
                    st.frames.push((req.clone(), resp.clone()));
                }
                Some(resp)
            }
            Err(e) => {
                st.fail(format!("{} transport error: {e}", req.op()));
                if let Ok(c) = Client::connect(&self.addr) {
                    self.client = c;
                }
                None
            }
        }
    }

    /// alloc → (renew) → free, or alloc → drop the connection.
    fn cycle(&mut self, st: &mut Stats) {
        let req_id = self.next_req;
        self.next_req += 1;
        let root = self.tracer.id();
        let t_root = Instant::now();
        let tenant =
            self.tenants[(self.rng.next_u64() % self.tenants.len() as u64) as usize].clone();
        let size = self.rng.range(1, 64) * MIB;
        st.allocs += 1;
        let alloc = Request::Alloc {
            tenant: tenant.clone(),
            size,
            criterion: attr::BANDWIDTH,
            fallback: Fallback::NextTarget,
            label: None,
            ttl: None,
        };
        let lease = match self.call(st, &alloc, "server.call.alloc", root, req_id) {
            Some(Response::Granted { lease, size: granted, placement, fast_bytes }) => {
                let sum: u64 = placement.iter().map(|&(_, b)| b).sum();
                if sum != granted || granted < size || placement.len() != 1 {
                    st.fail(format!("lease {lease}: {placement:?} for a {size}-byte request"));
                }
                st.granted += 1;
                st.granted_bytes += granted;
                st.fast_bytes += fast_bytes;
                Some(lease)
            }
            Some(Response::Error { code, .. }) if code == "admission" => {
                st.denied += 1;
                None
            }
            Some(other) => {
                st.fail(format!("alloc answered {other:?}"));
                None
            }
            None => None,
        };
        if let Some(lease) = lease {
            self.grants += 1;
            if self.grants % CHURN_EVERY == 0 {
                // The job ends holding its lease; the server must
                // revoke it. A new job connects.
                st.dropped_with_lease += 1;
                let t0 = Instant::now();
                match Client::connect(&self.addr) {
                    Ok(c) => self.client = c,
                    Err(e) => st.fail(format!("reconnect: {e}")),
                }
                self.tracer.leaf("server.connect", Some(root), req_id, t0, Instant::now());
                st.conns += 1;
                self.tracer.push(root, "client.cycle", None, req_id, t_root, Instant::now());
                return;
            }
            if st.allocs % 4 == 0 {
                let renew = Request::Renew { tenant: tenant.clone(), lease };
                match self.call(st, &renew, "server.call.renew", root, req_id) {
                    Some(Response::Renewed { lease: l, .. }) if l == lease => {}
                    Some(other) => st.fail(format!("renew answered {other:?}")),
                    None => {}
                }
            }
            let free = Request::Free { tenant: tenant.clone(), lease };
            match self.call(st, &free, "server.call.free", root, req_id) {
                Some(Response::Freed) | None => {}
                Some(other) => st.fail(format!("free answered {other:?}")),
            }
        }
        if st.allocs % 16 == 0 {
            let hb = Request::Heartbeat { tenant };
            match self.call(st, &hb, "server.call.heartbeat", root, req_id) {
                Some(Response::HeartbeatAck { .. }) | None => {}
                Some(other) => st.fail(format!("heartbeat answered {other:?}")),
            }
        }
        if st.allocs % 64 == 0 {
            match self.call(st, &Request::Stats, "server.call.stats", root, req_id) {
                Some(Response::Stats { .. }) | None => {}
                Some(other) => st.fail(format!("stats answered {other:?}")),
            }
        }
        self.tracer.push(root, "client.cycle", None, req_id, t_root, Instant::now());
    }
}

enum Until {
    Deadline(Instant),
    Cycles(u64),
}

/// Runs every worker on its own thread until `until`, accounting the
/// measured part in `win`.
fn drive(workers: Vec<Worker>, until: &Until, win: &Window) -> Vec<(Worker, Stats)> {
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                s.spawn(move || {
                    let mut st = Stats { win: win.clone(), ..Stats::default() };
                    let mut n = 0u64;
                    loop {
                        match until {
                            Until::Deadline(t) if Instant::now() >= *t => break,
                            Until::Cycles(c) if n >= *c => break,
                            _ => {}
                        }
                        w.cycle(&mut st);
                        n += 1;
                    }
                    (w, st)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

fn split(results: Vec<(Worker, Stats)>) -> (Vec<Worker>, Stats) {
    let mut total = Stats::default();
    let workers = results
        .into_iter()
        .map(|(w, st)| {
            total.absorb(st);
            w
        })
        .collect();
    (workers, total)
}

/// Polls until the broker holds `target` live leases (revocations of
/// dropped connections land asynchronously).
fn quiesce(broker: &Broker, target: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if broker.live_leases() == target {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

struct Live {
    ctx: Ctx,
    broker: Arc<Broker>,
    server: Server,
    workers: Vec<Worker>,
    tenants: Vec<String>,
}

fn setup(opts: &Opts, index: usize, rng: &Rng, origin: Instant, out: &mut Outcome) -> Live {
    let ctx = Ctx::knl();
    let broker =
        Arc::new(Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare));
    // One socket per set-up: a retiring server unblocks its accept loop
    // by dialing its own address, which must not reach its successor.
    let sock = opts.out_dir.join(format!("lease-churn-{}-{index}.sock", std::process::id()));
    let server =
        Server::bind(broker.clone(), &format!("unix:{}", sock.display())).expect("bind server");
    let addr = server.local_addr().to_string();
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("t{i}")).collect();
    let mut admin = Client::connect(&addr).expect("connect");
    let refused: Vec<String> = tenants
        .iter()
        .filter_map(|name| {
            let resp = admin.call(&Request::Register {
                tenant: name.clone(),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            });
            (!matches!(resp, Ok(Response::Registered { .. }))).then(|| format!("{name}: {resp:?}"))
        })
        .collect();
    out.check("tenants register over the wire", refused.is_empty(), refused.join("; "));
    let workers = (0..CLIENTS)
        .map(|k| Worker {
            addr: addr.clone(),
            tenants: tenants.clone(),
            client: Client::connect(&addr).expect("connect"),
            rng: rng.fork(k),
            grants: 0,
            tracer: Tracer::new(false, origin, k + 1),
            next_req: k << 40,
            capture: false,
        })
        .collect();
    let (workers, warm) = split(drive(workers, &Until::Cycles(WARMUP_CYCLES), &Window::default()));
    out.check("warm-up requests all succeed", warm.failed == 0, warm.errors.join("; "));
    out.check("warm-up revocations settle", quiesce(&broker, 0), "live leases after warm-up");
    Live { ctx, broker, server, workers, tenants }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let rng = Rng::new(opts.seed);
    let origin = Instant::now();

    // Several full set-ups; the last one serves the measured window.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let l = setup(opts, i, &rng.fork(1000 + i as u64), origin, &mut out);
        setups.push(scaled(t0.elapsed()));
        live = Some(l);
    }
    let Live { ctx, broker, mut server, workers, tenants } = live.expect("set up");

    let fd0 = open_fds();
    let live0 = broker.live_leases();
    let revoked0 = broker.robustness().revoked;
    let start = Instant::now();
    let end = start + opts.window;
    let (workers, mut st, untraced_ops) = if opts.trace {
        let mid = start + opts.window / 2;
        let (mut workers, first) = split(drive(workers, &Until::Deadline(mid), &Window::default()));
        let first_rate = first.requests as f64 / mid.duration_since(start).as_secs_f64();
        for w in &mut workers {
            w.tracer.set_enabled(true);
            w.capture = true;
        }
        let t_mid = Instant::now();
        let (workers, second) = split(drive(workers, &Until::Deadline(end), &Window::default()));
        let second_rate = second.requests as f64 / t_mid.elapsed().as_secs_f64();
        let mut total = first;
        total.absorb(second);
        (workers, total, Some((first_rate, second_rate)))
    } else {
        let win = Window::new(start, opts.window);
        let steal = win.sample_steal();
        let (workers, mut st) = split(drive(workers, &Until::Deadline(end), &win));
        st.win.set_steal(steal.join().expect("steal sampler"));
        (workers, st, None)
    };
    let elapsed = start.elapsed().as_secs_f64();

    let settled = quiesce(&broker, live0);
    let fd1 = open_fds();
    let revoked = broker.robustness().revoked - revoked0;
    out.check("every reply parses and answers its op", st.failed == 0, st.errors.join("; "));
    out.check(
        "every grant is freed or revoked on disconnect",
        settled && revoked == st.dropped_with_lease,
        format!(
            "live leases {} (before {live0}), revoked {revoked} of {} dropped",
            broker.live_leases(),
            st.dropped_with_lease
        ),
    );
    let inv = broker.check_invariants();
    out.check("broker invariants at quiescence", inv.is_ok(), inv.err().unwrap_or_default());
    let fds_per_conn = ratio(fd1.saturating_sub(fd0) as f64, st.conns as f64);

    out.attempted = st.requests.max(1);
    out.failed = st.failed;
    if let Some((untraced, traced)) = untraced_ops {
        let mut tr = Tracer::new(true, origin, 0);
        let mut counts = Counts {
            admits: st.granted,
            attempts: st.allocs,
            revoked,
            trace_overhead: 1.0 - ratio(traced, untraced),
            fds_per_conn: Some(fds_per_conn),
            ..Counts::default()
        };
        counts.clamps = broker.tenants().iter().map(|t| t.clamps).sum();
        counts.expired = broker.robustness().expired;
        for w in workers {
            tr.absorb(w.tracer);
        }
        let frames = std::mem::take(&mut st.frames);
        let inputs = inputs_from(&frames, &tenants);
        server.shutdown();
        out.metrics = layers::measure(&mut tr, opts, &[ctx], &frames, &inputs, TENANTS, counts);
        crate::write_spans(&mut tr, opts, "lease-churn");
    } else {
        drop(workers);
        server.shutdown();
        out.set("setup_s", median_secs(&setups), "s");
        out.set("ops_per_s", st.win.ops_per_s(), "ops/s");
        out.set("alloc_p50_us", st.win.latency_us(50.0), "us");
        out.set("alloc_p90_us", st.win.latency_us(90.0), "us");
        out.note("alloc_p99_us", format!("{:.2} us", st.win.latency_us(99.0)));
        out.set("granted_frac", ratio(st.granted as f64, st.allocs as f64), "frac");
        out.set("fast_hit_frac", ratio(st.fast_bytes as f64, st.granted_bytes as f64), "frac");
        out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    out.note("alloc samples", st.win.samples());
    out.note("unscaled", st.win.unscaled());
    out.note("slices", st.win.slices());
    out.note("requests per second, whole window", st.requests as f64 / elapsed);
    out.note("error_frac", ratio(out.failed_total() as f64, out.attempted as f64));
    out.note("denied_frac", ratio(st.denied as f64, st.allocs as f64));
    out.note("fds_per_conn", format!("{fds_per_conn:.4} ({} connections)", st.conns));
    out
}

/// Replay inputs from the captured alloc frames and their grants.
fn inputs_from(frames: &[(Request, Response)], tenants: &[String]) -> Vec<AllocInput> {
    frames
        .iter()
        .filter_map(|(req, resp)| match req {
            Request::Alloc { tenant, size, criterion, fallback, .. } => Some(AllocInput {
                ctx: 0,
                tenant: tenants.iter().position(|t| t == tenant).unwrap_or(0),
                size: *size,
                criterion: *criterion,
                fallback: *fallback,
                placement: match resp {
                    Response::Granted { placement, .. } => placement.clone(),
                    _ => Vec::new(),
                },
            }),
            _ => None,
        })
        .collect()
}
