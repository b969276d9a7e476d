//! `tier-contention`: in-process arbitration (broker + placement +
//! memsim + telemetry + guidance), no wire.
//!
//! A fair-share `Broker` on KNL SNC-4 flat with 32 tenants of mixed
//! priority; every 8th reserves 256 MiB of HBM and leases run under a
//! 16-epoch TTL. Guided mode is on and a `TelemetrySink` drains through
//! a `BackgroundCollector` (the `hetmem-serve --guided --trace` shape
//! minus the socket). Two threads each own 16 tenants and call
//! `acquire_with_ttl` (64–512 MiB, bandwidth, `partial_spill`), holding
//! at most four leases per tenant and releasing the oldest; every 16
//! operations a thread runs a phase over one tenant's live leases.
//! Each thread heartbeats its tenants once per epoch, and thread 0
//! advances the epoch every 64 of its operations once both threads have
//! heartbeated the current one; the advance runs expiry and the guided
//! fold. The fast tier is oversubscribed.

use crate::common::{median_secs, peak_rss_mib, ratio, scaled, Ctx, Opts, Outcome, Rng, Window};
use crate::layers::{self, frames_from, AllocInput, Counts};
use crate::trace::Tracer;
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::attr;
use hetmem_memsim::{AccessPattern, BufferAccess, Phase};
use hetmem_service::{
    ArbitrationPolicy, Broker, GuidedConfig, Lease, Priority, ServiceError, TenantId, TenantSpec,
};
use hetmem_telemetry::{BackgroundCollector, TelemetrySink};
use hetmem_topology::{MemoryKind, MIB};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 32;
const THREADS: usize = 2;
const MAX_HELD: usize = 4;
const PHASE_EVERY: u64 = 16;
const EPOCH_EVERY: u64 = 64;
const TTL_EPOCHS: u64 = 16;
const SETUPS: usize = 7;
/// Warm-up runs at least this many operations per thread, and until
/// every owned tenant has run a phase (so its guidance plane exists).
const WARMUP_MIN_OPS: u64 = 512;
const WARMUP_MAX_OPS: u64 = 8192;
/// Allocation inputs each thread keeps for the layer replay.
const MAX_INPUTS: usize = 5000;
const PRIORITIES: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Latency];

#[derive(Default)]
struct Stats {
    attempts: u64,
    granted: u64,
    denied: u64,
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

    fn absorb(&mut self, o: Stats) {
        self.attempts += o.attempts;
        self.granted += o.granted;
        self.denied += o.denied;
        self.failed += o.failed;
        self.granted_bytes += o.granted_bytes;
        self.fast_bytes += o.fast_bytes;
        self.win.absorb(o.win);
        self.inputs.extend(o.inputs);
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

struct Owned {
    /// Global tenant index, broker id, live leases (oldest first).
    index: usize,
    id: TenantId,
    held: VecDeque<Lease>,
    phased: bool,
}

/// One load thread and the tenants it owns.
struct Owner {
    /// Thread 0 also advances the epoch.
    index: usize,
    /// Per thread, the last epoch in which it heartbeated its tenants.
    /// The epoch only advances once every thread has heartbeated the
    /// current one, so a descheduled thread cannot miss sixteen epochs
    /// and lose its leases to expiry.
    beats: Arc<Vec<AtomicU64>>,
    tenants: Vec<Owned>,
    rng: Rng,
    ops: u64,
    phases: u64,
    last_epoch: u64,
    /// Modelled phase time served so far, ns.
    phase_ns: f64,
    tracer: Tracer,
    capture: bool,
}

impl Owner {
    fn step(&mut self, broker: &Broker, st: &mut Stats) {
        let req_id = (self.index as u64) << 40 | self.ops;
        let root = self.tracer.id();
        let t_root = Instant::now();
        // Heartbeat every owned tenant once per epoch, so no lease
        // ages out under load.
        let epoch = broker.epoch();
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            for t in &self.tenants {
                let r = self
                    .tracer
                    .time("broker.heartbeat", Some(root), req_id, || broker.heartbeat(t.id));
                if let Err(e) = r {
                    st.fail(format!("heartbeat: {e}"));
                }
            }
            self.beats[self.index].store(epoch, Ordering::SeqCst);
        }

        let slot = (self.rng.next_u64() % self.tenants.len() as u64) as usize;
        let size = self.rng.range(64, 512) * MIB;
        let req =
            AllocRequest::new(size).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill);
        st.attempts += 1;
        let id = self.tenants[slot].id;
        let t0 = Instant::now();
        let r = broker.acquire_with_ttl(id, &req, None);
        let t1 = Instant::now();
        st.win.op(t1);
        st.win.latency(t1, t1 - t0);
        self.tracer.leaf("broker.acquire", Some(root), req_id, t0, t1);
        let mut placement = Vec::new();
        match r {
            Ok(lease) => {
                let sum: u64 = lease.placement().iter().map(|&(_, b)| b).sum();
                if sum != lease.size() || lease.size() < size {
                    st.fail(format!(
                        "{}: placement sums to {sum}, size {}",
                        lease.id(),
                        lease.size()
                    ));
                }
                st.granted += 1;
                st.granted_bytes += lease.size();
                st.fast_bytes += lease.fast_bytes();
                if self.capture {
                    placement = lease.placement().to_vec();
                }
                let held = &mut self.tenants[slot].held;
                held.push_back(lease);
                if held.len() > MAX_HELD {
                    let old = held.pop_front().expect("held lease");
                    let r = self
                        .tracer
                        .time("broker.release", Some(root), req_id, || broker.release(old));
                    if let Err(e) = r {
                        st.fail(format!("release: {e}"));
                    }
                }
            }
            Err(ServiceError::Admission { .. }) => st.denied += 1,
            Err(e) => st.fail(format!("acquire: {e}")),
        }
        if self.capture && st.inputs.len() < MAX_INPUTS {
            st.inputs.push(AllocInput {
                ctx: 0,
                tenant: self.tenants[slot].index,
                size,
                criterion: attr::BANDWIDTH,
                fallback: Fallback::PartialSpill,
                placement,
            });
        }

        self.ops += 1;
        if self.ops % PHASE_EVERY == 0 {
            let slot = (self.phases % self.tenants.len() as u64) as usize;
            self.phases += 1;
            self.phase(broker, slot, st, root, req_id);
        }
        if self.index == 0 && self.ops % EPOCH_EVERY == 0 {
            let now = broker.epoch();
            if self.beats.iter().all(|b| b.load(Ordering::SeqCst) >= now) {
                self.tracer.time("broker.epoch", Some(root), req_id, || broker.advance_epoch());
            }
        }
        self.tracer.push(root, "client.op", None, req_id, t_root, Instant::now());
    }

    /// Runs a phase over the tenant's live leases only: a phase over an
    /// expired lease's region panics inside the engine while the
    /// broker's manager lock is held, which poisons the broker.
    fn phase(&mut self, broker: &Broker, slot: usize, st: &mut Stats, root: u64, req_id: u64) {
        let t = &mut self.tenants[slot];
        let before = t.held.len();
        t.held.retain(|l| broker.lease_deadline(l.id()).is_some());
        if t.held.len() != before {
            st.fail(format!("{} lease(s) expired despite heartbeats", before - t.held.len()));
        }
        if t.held.is_empty() {
            return;
        }
        let phase = Phase {
            name: "tier-contention".into(),
            accesses: t
                .held
                .iter()
                .map(|l| BufferAccess::new(l.region(), l.size(), 0, AccessPattern::Sequential))
                .collect(),
            threads: 16,
            initiator: hetmem_apps::pinned_cpus(0, 16),
            compute_ns: 0.0,
        };
        let id = t.id;
        match self
            .tracer
            .time("broker.run_phase", Some(root), req_id, || broker.run_phase(id, &phase))
        {
            Ok(served) => self.phase_ns += served.time_ns(),
            Err(e) => st.fail(format!("run_phase: {e}")),
        }
        self.tenants[slot].phased = true;
    }

    fn warm(&self) -> bool {
        self.ops >= WARMUP_MAX_OPS
            || (self.ops >= WARMUP_MIN_OPS && self.tenants.iter().all(|t| t.phased))
    }
}

enum Until {
    Deadline(Instant),
    Warm,
}

/// Runs every owner on its own thread until `until`, accounting the
/// measured part in `win`.
fn drive(broker: &Broker, owners: Vec<Owner>, until: &Until, win: &Window) -> (Vec<Owner>, Stats) {
    let results: Vec<(Owner, Stats)> = std::thread::scope(|s| {
        let handles: Vec<_> = owners
            .into_iter()
            .map(|mut o| {
                s.spawn(move || {
                    let mut st = Stats { win: win.clone(), ..Stats::default() };
                    loop {
                        let done = match until {
                            Until::Deadline(t) => Instant::now() >= *t,
                            Until::Warm => o.warm(),
                        };
                        if done {
                            break;
                        }
                        o.step(broker, &mut st);
                    }
                    (o, st)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut total = Stats::default();
    let owners = results
        .into_iter()
        .map(|(o, st)| {
            total.absorb(st);
            o
        })
        .collect();
    (owners, total)
}

struct Live {
    ctx: Ctx,
    broker: Arc<Broker>,
    collector: Option<BackgroundCollector>,
    events: Arc<AtomicU64>,
    owners: Vec<Owner>,
}

fn setup(telemetry: bool, rng: &Rng, origin: Instant, out: &mut Outcome) -> Live {
    let ctx = Ctx::knl();
    let sink = if telemetry { TelemetrySink::new() } else { TelemetrySink::disabled() };
    let mut broker =
        Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare);
    broker.set_sink(sink.clone());
    broker.enable_guidance(GuidedConfig::default());
    let broker = Arc::new(broker);
    let events = Arc::new(AtomicU64::new(0));
    let collector = telemetry.then(|| {
        let events = events.clone();
        BackgroundCollector::spawn(&sink, Duration::from_millis(1), move |batch| {
            events.fetch_add(batch.len() as u64, Ordering::Relaxed);
        })
    });
    let beats: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(broker.epoch())).collect();
    let beats = Arc::new(beats);
    let mut owners: Vec<Owner> = (0..THREADS)
        .map(|k| Owner {
            index: k,
            beats: beats.clone(),
            tenants: Vec::new(),
            rng: rng.fork(k as u64),
            ops: 0,
            phases: 0,
            last_epoch: broker.epoch(),
            phase_ns: 0.0,
            tracer: Tracer::new(false, origin, k as u64 + 1),
            capture: false,
        })
        .collect();
    for i in 0..TENANTS {
        let mut spec = TenantSpec::new(format!("t{i}"))
            .priority(PRIORITIES[i % PRIORITIES.len()])
            .lease_ttl(TTL_EPOCHS);
        if i % 8 == 0 {
            spec = spec.reserve(MemoryKind::Hbm, 256 * MIB);
        }
        let id = broker.register(spec).expect("register tenant");
        owners[i * THREADS / TENANTS].tenants.push(Owned {
            index: i,
            id,
            held: VecDeque::new(),
            phased: false,
        });
    }
    let (owners, warm) = drive(&broker, owners, &Until::Warm, &Window::default());
    out.check("warm-up operations all succeed", warm.failed == 0, warm.errors.join("; "));
    let planes = broker.guided_stats().map_or(0, |s| s.len());
    out.check(
        "warm-up created every tenant's guidance plane",
        planes == TENANTS,
        format!("{planes} of {TENANTS} planes"),
    );
    Live { ctx, broker, collector, events, owners }
}

/// Quiescent checks, then returns every lease and stops the collector.
/// Returns the events the collector lost.
fn teardown(live: &mut Live, out: &mut Outcome) -> u64 {
    let inv = live.broker.check_invariants();
    out.check("broker invariants after the run", inv.is_ok(), inv.err().unwrap_or_default());
    let expired = live.broker.robustness().expired;
    out.check("no lease expired under heartbeats", expired == 0, format!("{expired} expired"));
    let mut release_errors = 0;
    for o in &mut live.owners {
        for t in &mut o.tenants {
            for lease in t.held.drain(..) {
                release_errors += live.broker.release(lease).is_err() as u64;
            }
        }
    }
    let left = live.broker.live_leases();
    out.check(
        "every lease returns",
        release_errors == 0 && left == 0,
        format!("{release_errors} release errors, {left} live leases"),
    );
    let inv = live.broker.check_invariants();
    out.check("broker invariants once drained", inv.is_ok(), inv.err().unwrap_or_default());
    live.collector.take().map_or(0, |c| c.finish().iter().map(|l| l.lost).sum())
}

fn set_tracing(owners: &mut [Owner], on: bool) {
    for o in owners {
        o.tracer.set_enabled(on);
        o.capture = on;
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let rng = Rng::new(opts.seed);
    let origin = Instant::now();

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let l = setup(true, &rng.fork(1000 + i as u64), origin, &mut out);
        setups.push(scaled(t0.elapsed()));
        if let Some(mut old) = live.replace(l) {
            teardown(&mut old, &mut out);
        }
    }
    let mut live = live.expect("set up");

    let start = Instant::now();
    if !opts.trace {
        let win = Window::new(start, opts.window);
        let steal = win.sample_steal();
        let owners = std::mem::take(&mut live.owners);
        let (owners, mut st) =
            drive(&live.broker, owners, &Until::Deadline(start + opts.window), &win);
        st.win.set_steal(steal.join().expect("steal sampler"));
        let elapsed = start.elapsed().as_secs_f64();
        live.owners = owners;
        finish_checks(&mut out, &st);
        teardown(&mut live, &mut out);
        out.set("setup_s", median_secs(&setups), "s");
        out.set("ops_per_s", st.win.ops_per_s(), "ops/s");
        out.set("alloc_p50_us", st.win.latency_us(50.0), "us");
        out.set("alloc_p90_us", st.win.latency_us(90.0), "us");
        out.note("alloc_p99_us", format!("{:.2} us", st.win.latency_us(99.0)));
        out.note("acquires per second, whole window", st.attempts as f64 / elapsed);
        out.set("granted_frac", ratio(st.granted as f64, st.attempts as f64), "frac");
        out.set("fast_hit_frac", ratio(st.fast_bytes as f64, st.granted_bytes as f64), "frac");
        out.set("peak_rss_mib", peak_rss_mib(), "MiB");
        notes(&mut out, &st);
        return out;
    }

    // Traced run: sink on untraced, sink on traced, then sink off
    // untraced on a fresh broker — each a third of the window.
    let third = opts.window / 3;
    let timed = |live: &mut Live, traced: bool| {
        set_tracing(&mut live.owners, traced);
        let t0 = Instant::now();
        let (owners, st) = drive(
            &live.broker,
            std::mem::take(&mut live.owners),
            &Until::Deadline(t0 + third),
            &Window::default(),
        );
        live.owners = owners;
        let rate = st.attempts as f64 / t0.elapsed().as_secs_f64();
        (st, rate)
    };
    let (mut st, sink_on) = timed(&mut live, false);
    let (traced, traced_rate) = timed(&mut live, true);
    st.absorb(traced);
    let guided = live.broker.guided_stats().unwrap_or_default();
    let phase_ns: f64 = live.owners.iter().map(|o| o.phase_ns).sum();
    let mut counts = Counts {
        admits: st.granted,
        attempts: st.attempts,
        clamps: live.broker.tenants().iter().map(|t| t.clamps).sum(),
        expired: live.broker.robustness().expired,
        revoked: live.broker.robustness().revoked,
        promotions: guided.iter().map(|(_, s)| s.promotions).sum(),
        demotions: guided.iter().map(|(_, s)| s.demotions).sum(),
        guidance_overhead: ratio(guided.iter().map(|(_, s)| s.overhead_ns).sum(), phase_ns),
        trace_overhead: 1.0 - ratio(traced_rate, sink_on),
        ..Counts::default()
    };
    finish_checks(&mut out, &st);
    counts.events_lost = teardown(&mut live, &mut out);
    counts.events = live.events.load(Ordering::Relaxed);

    let mut off = setup(false, &rng.fork(2000), origin, &mut out);
    let (off_st, sink_off) = timed(&mut off, false);
    finish_checks(&mut out, &off_st);
    teardown(&mut off, &mut out);
    counts.telemetry_overhead = 1.0 - ratio(sink_on, sink_off);

    let mut tr = Tracer::new(true, origin, 0);
    for o in std::mem::take(&mut live.owners) {
        tr.absorb(o.tracer);
    }
    let ctxs = [live.ctx];
    let frames = frames_from(&st.inputs, &ctxs);
    out.metrics = layers::measure(&mut tr, opts, &ctxs, &frames, &st.inputs, TENANTS, counts);
    crate::write_spans(&mut tr, opts, "tier-contention");
    notes(&mut out, &st);
    out
}

fn finish_checks(out: &mut Outcome, st: &Stats) {
    out.attempted += st.attempts;
    out.failed += st.failed;
    out.check(
        "every grant's placement sums to its size; no unexpected errors",
        st.failed == 0,
        st.errors.join("; "),
    );
}

fn notes(out: &mut Outcome, st: &Stats) {
    out.note("alloc samples", st.win.samples());
    out.note("unscaled", st.win.unscaled());
    out.note("slices", st.win.slices());
    out.note("error_frac", ratio(out.failed_total() as f64, out.attempted.max(1) as f64));
    out.note("denied_frac", ratio(st.denied as f64, st.attempts as f64));
    out.note("fds_per_conn", "n/a (no connections)");
}
