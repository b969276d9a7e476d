//! Per-layer measurement for the traced run.
//!
//! A workload's traced window records spans around the calls it makes
//! itself (client round trips, broker calls, allocator and app calls).
//! Calls that happen inside the server, or in layers the workload never
//! reaches directly, are timed afterwards by replaying the inputs the
//! workload captured against twins: fresh brokers, memory managers and
//! placement engines built from the same machine. Twin spans of a call
//! the workload also makes live are named `twin.<name>`, and the live
//! spans win when both exist.

use crate::common::{ratio, Ctx, Metrics, Opts, Samples};
use crate::trace::Tracer;
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_apps::graph500::{self, Graph500Config};
use hetmem_apps::stream::{self, StreamConfig};
use hetmem_apps::Placement;
use hetmem_core::{attr, AttrId, NodeId};
use hetmem_memsim::{AccessPattern, AllocPolicy, BufferAccess, MemoryManager, Phase, RegionId};
use hetmem_placement::{PlacementEngine, Scope};
use hetmem_service::server::{serve, Client, Server};
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, Lease, Priority};
use hetmem_telemetry::TelemetrySink;
use hetmem_topology::GIB;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Inputs replayed per layer, at most.
const REPLAY_MAX: usize = 4000;

/// One allocation a workload made, as replay input.
#[derive(Debug, Clone)]
pub struct AllocInput {
    /// Index of the machine context it ran on.
    pub ctx: usize,
    /// Index of the requesting tenant.
    pub tenant: usize,
    pub size: u64,
    pub criterion: AttrId,
    pub fallback: Fallback,
    /// The granted placement; empty when the request was refused.
    pub placement: Vec<(NodeId, u64)>,
}

impl AllocInput {
    fn tenant_name(&self) -> String {
        format!("t{}", self.tenant)
    }

    fn request(&self) -> AllocRequest {
        AllocRequest::new(self.size).criterion(self.criterion).fallback(self.fallback)
    }

    /// The wire frame a client would send for this allocation.
    pub fn frame(&self) -> Request {
        Request::Alloc {
            tenant: self.tenant_name(),
            size: self.size,
            criterion: self.criterion,
            fallback: self.fallback,
            label: None,
            ttl: None,
        }
    }

    /// The wire frame the server would answer with.
    pub fn reply(&self, lease: u64, ctx: &Ctx) -> Response {
        if self.placement.is_empty() {
            return Response::Error { code: "admission".into(), error: "refused".into() };
        }
        Response::Granted {
            lease,
            size: self.placement.iter().map(|&(_, b)| b).sum(),
            placement: self.placement.clone(),
            fast_bytes: ctx.fast_bytes(&self.placement),
        }
    }
}

/// Counts and ratios a workload measured itself; everything else is
/// derived from spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub admits: u64,
    pub attempts: u64,
    pub clamps: u64,
    pub expired: u64,
    pub revoked: u64,
    pub events: u64,
    pub events_lost: u64,
    pub telemetry_overhead: f64,
    pub promotions: u64,
    pub demotions: u64,
    pub guidance_overhead: f64,
    pub trace_overhead: f64,
    /// Server fds left per connection opened; `None` when the workload
    /// opened no connections (the server probe then measures it).
    pub fds_per_conn: Option<f64>,
}

/// Frames synthesized from allocation inputs, for workloads that never
/// speak the wire protocol themselves.
pub fn frames_from(inputs: &[AllocInput], ctxs: &[Ctx]) -> Vec<(Request, Response)> {
    inputs
        .iter()
        .take(REPLAY_MAX)
        .enumerate()
        .map(|(i, inp)| (inp.frame(), inp.reply(i as u64, &ctxs[inp.ctx])))
        .collect()
}

/// Runs every replay and probe, then turns spans and counts into the
/// per-layer metrics.
pub fn measure(
    tr: &mut Tracer,
    opts: &Opts,
    ctxs: &[Ctx],
    frames: &[(Request, Response)],
    inputs: &[AllocInput],
    tenants: usize,
    mut counts: Counts,
) -> Metrics {
    for ctx in ctxs {
        tr.leaf("core.discovery", None, 0, ctx.discovery.0, ctx.discovery.1);
    }
    let frame_bytes = wire(tr, frames);
    let inputs = &inputs[..inputs.len().min(REPLAY_MAX)];
    let home: Vec<&AllocInput> = inputs.iter().filter(|i| i.ctx == 0).collect();
    twin_broker(tr, &ctxs[0], &home, tenants);
    rank(tr, ctxs, inputs);
    commit(tr, ctxs, inputs);
    engine_phases(tr, ctxs, inputs);
    telemetry_drain(tr, &ctxs[0], &home, tenants);
    if tr.samples("server.call.alloc").len() == 0 {
        let fds = server_probe(tr, opts, &ctxs[0], &home, tenants);
        counts.fds_per_conn.get_or_insert(fds);
    }
    if tr.samples("apps.stream").len() == 0 {
        apps_probe(tr, &ctxs[0]);
    }
    metrics(tr, frame_bytes, &counts)
}

/// Times the four codec calls of each frame; returns the mean bytes a
/// round trip puts on the wire (both frames, newlines included).
fn wire(tr: &mut Tracer, frames: &[(Request, Response)]) -> f64 {
    let mut bytes = Samples::default();
    for (i, (req, resp)) in frames.iter().take(REPLAY_MAX).enumerate() {
        let i = i as u64;
        let line = tr.time("wire.encode", None, i, || req.to_json());
        let parsed = tr.time("wire.parse", None, i, || Request::from_json(&line));
        debug_assert_eq!(parsed.as_ref().ok(), Some(req));
        let reply = tr.time("wire.render", None, i, || resp.to_json());
        let decoded = tr.time("wire.decode", None, i, || Response::from_json(&reply));
        debug_assert!(decoded.is_ok());
        bytes.push_us((line.len() + reply.len() + 2) as f64);
    }
    bytes.mean()
}

fn register_twin(broker: &Broker, tenants: usize) {
    for t in 0..tenants {
        let resp = serve(
            broker,
            Request::Register {
                tenant: format!("t{t}"),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            },
        );
        assert!(matches!(resp, Response::Registered { .. }), "twin registration: {resp:?}");
    }
}

fn phase_over(regions: &[(RegionId, u64)], ctx: &Ctx) -> Phase {
    Phase {
        name: "replay".into(),
        accesses: regions
            .iter()
            .map(|&(r, bytes)| BufferAccess::new(r, bytes, 0, AccessPattern::Sequential))
            .collect(),
        threads: 16,
        initiator: ctx.machine.topology().machine_cpuset().clone(),
        compute_ns: 0.0,
    }
}

/// Server-side broker calls on a twin: the wire `serve` entry point
/// for allocs and stats, then the direct broker API.
fn twin_broker(tr: &mut Tracer, ctx: &Ctx, inputs: &[&AllocInput], tenants: usize) {
    let broker = Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare);
    register_twin(&broker, tenants);
    for (i, inp) in inputs.iter().enumerate() {
        let i = i as u64;
        let frame = inp.frame();
        let resp = tr.time("broker.serve_alloc", None, i, || serve(&broker, frame));
        if let Response::Granted { lease, .. } = resp {
            let freed = serve(&broker, Request::Free { tenant: inp.tenant_name(), lease });
            assert_eq!(freed, Response::Freed, "twin free");
        }
        if i % 16 == 0 {
            tr.time("broker.stats", None, i, || serve(&broker, Request::Stats));
        }
    }

    let ids: Vec<_> =
        (0..tenants).map(|t| broker.tenant_id(&format!("t{t}")).expect("twin tenant")).collect();
    let mut held: Vec<VecDeque<Lease>> = (0..tenants).map(|_| VecDeque::new()).collect();
    for (i, inp) in inputs.iter().enumerate() {
        let (t, req) = (inp.tenant, inp.request());
        let i = i as u64;
        let granted =
            tr.time("twin.broker.acquire", None, i, || broker.acquire_with_ttl(ids[t], &req, None));
        if let Ok(lease) = granted {
            held[t].push_back(lease);
        }
        if held[t].len() > 4 {
            let old = held[t].pop_front().expect("held lease");
            tr.time("twin.broker.release", None, i, || broker.release(old)).expect("twin release");
        }
        if i % 16 == 15 && !held[t].is_empty() {
            let regions: Vec<_> = held[t].iter().map(|l| (l.region(), l.size())).collect();
            let phase = phase_over(&regions, ctx);
            tr.time("twin.broker.run_phase", None, i, || broker.run_phase(ids[t], &phase))
                .expect("twin phase");
            tr.time("twin.broker.heartbeat", None, i, || broker.heartbeat(ids[t]))
                .expect("twin heartbeat");
        }
        if i % 64 == 63 {
            tr.time("twin.broker.epoch", None, i, || broker.advance_epoch());
        }
    }
    for lease in held.into_iter().flatten() {
        broker.release(lease).expect("twin release");
    }
    broker.check_invariants().expect("twin broker consistent");
}

fn rank(tr: &mut Tracer, ctxs: &[Ctx], inputs: &[AllocInput]) {
    let engines: Vec<PlacementEngine> =
        ctxs.iter().map(|c| PlacementEngine::new(c.attrs.clone())).collect();
    for (i, inp) in inputs.iter().enumerate() {
        let cpus = ctxs[inp.ctx].machine.topology().machine_cpuset();
        let ranked = tr.time("placement.rank", None, i as u64, || {
            engines[inp.ctx].rank(inp.criterion, cpus, Scope::Local)
        });
        assert!(ranked.is_ok(), "replayed ranking failed");
    }
}

/// `MemoryManager::alloc` with the granted `Exact` split, then `free`.
fn commit(tr: &mut Tracer, ctxs: &[Ctx], inputs: &[AllocInput]) {
    let mut mms: Vec<MemoryManager> =
        ctxs.iter().map(|c| MemoryManager::new(c.machine.clone())).collect();
    for (i, inp) in inputs.iter().enumerate().filter(|(_, i)| !i.placement.is_empty()) {
        let size: u64 = inp.placement.iter().map(|&(_, b)| b).sum();
        let policy = AllocPolicy::Exact(inp.placement.clone());
        let mm = &mut mms[inp.ctx];
        let ok = tr.time("memsim.commit", None, i as u64, || match mm.alloc(size, policy) {
            Ok(id) => mm.free(id),
            Err(_) => false,
        });
        assert!(ok, "replayed commit failed");
    }
}

/// `AccessEngine::run_phase` over a rolling window of the granted
/// placements, at most four regions per phase.
fn engine_phases(tr: &mut Tracer, ctxs: &[Ctx], inputs: &[AllocInput]) {
    let mut mms: Vec<MemoryManager> =
        ctxs.iter().map(|c| MemoryManager::new(c.machine.clone())).collect();
    let mut live: Vec<VecDeque<(RegionId, u64)>> = ctxs.iter().map(|_| VecDeque::new()).collect();
    for (i, inp) in inputs.iter().enumerate().filter(|(_, i)| !i.placement.is_empty()) {
        let (c, mm) = (inp.ctx, &mut mms[inp.ctx]);
        let size: u64 = inp.placement.iter().map(|&(_, b)| b).sum();
        if let Ok(id) = mm.alloc(size, AllocPolicy::Exact(inp.placement.clone())) {
            live[c].push_back((id, size));
        }
        if live[c].len() > 4 {
            let (old, _) = live[c].pop_front().expect("live region");
            mm.free(old);
        }
        let regions: Vec<_> = live[c].iter().copied().collect();
        let phase = phase_over(&regions, &ctxs[c]);
        let mm = &mms[c];
        tr.time("memsim.run_phase", None, i as u64, || ctxs[c].engine.run_phase(mm, &phase));
    }
}

/// One collector drain per 64 broker operations on a sink-on twin.
fn telemetry_drain(tr: &mut Tracer, ctx: &Ctx, inputs: &[&AllocInput], tenants: usize) {
    let sink = TelemetrySink::new();
    let mut broker =
        Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare);
    broker.set_sink(sink.clone());
    register_twin(&broker, tenants);
    let mut collector = sink.collector();
    for (i, chunk) in inputs.chunks(64).take(16).enumerate() {
        for inp in chunk {
            let id = broker.tenant_id(&inp.tenant_name()).expect("twin tenant");
            if let Ok(lease) = broker.acquire(id, &inp.request()) {
                broker.release(lease).expect("twin release");
            }
        }
        tr.time("twin.telemetry.drain", None, i as u64, || collector.drain_sorted());
    }
}

/// A twin server on a unix socket, for workloads that open no
/// connections: alloc round trips, reconnects, and the server fds left
/// behind per connection.
fn server_probe(
    tr: &mut Tracer,
    opts: &Opts,
    ctx: &Ctx,
    inputs: &[&AllocInput],
    tenants: usize,
) -> f64 {
    const CALLS: usize = 1000;
    const RECONNECT_EVERY: usize = 50;
    let broker =
        Arc::new(Broker::new(ctx.machine.clone(), ctx.attrs.clone(), ArbitrationPolicy::FairShare));
    let sock = opts.out_dir.join(format!("probe-{}.sock", std::process::id()));
    let mut server =
        Server::bind(broker.clone(), &format!("unix:{}", sock.display())).expect("probe bind");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("probe connect");
    for t in 0..tenants {
        let resp = client
            .call(&Request::Register {
                tenant: format!("t{t}"),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            })
            .expect("probe register");
        assert!(matches!(resp, Response::Registered { .. }), "probe register: {resp:?}");
    }
    let fd0 = crate::common::open_fds();
    let mut conns = 0u64;
    for (i, inp) in inputs.iter().cycle().take(CALLS.min(inputs.len() * 8)).enumerate() {
        let frame = inp.frame();
        let resp = tr.time("twin.server.call.alloc", None, i as u64, || client.call(&frame));
        if let Ok(Response::Granted { lease, .. }) = resp {
            let freed = client.call(&Request::Free { tenant: inp.tenant_name(), lease });
            assert!(matches!(freed, Ok(Response::Freed)), "probe free: {freed:?}");
        }
        if i % RECONNECT_EVERY == RECONNECT_EVERY - 1 {
            client = tr
                .time("twin.server.connect", None, i as u64, || Client::connect(&addr))
                .expect("probe reconnect");
            conns += 1;
        }
    }
    // Let the readers of the dropped connections see their hang-ups.
    std::thread::sleep(Duration::from_millis(50));
    let fd1 = crate::common::open_fds();
    drop(client);
    server.shutdown();
    ratio(fd1.saturating_sub(fd0) as f64, conns as f64)
}

/// One Table IIb Graph500 run and one Table IIIb STREAM run per round,
/// plus an attribute-ranked alloc/free, on fresh KNL allocators.
fn apps_probe(tr: &mut Tracer, knl: &Ctx) {
    let cpus = hetmem_apps::pinned_cpus(0, 16);
    for round in 0..8u64 {
        let mut alloc = knl.allocator();
        let cfg = StreamConfig::knl_paper((3.4 * GIB as f64) as u64);
        let placement =
            Placement::Criterion { attr: attr::BANDWIDTH, fallback: Fallback::PartialSpill };
        tr.time("twin.apps.stream", None, round, || {
            stream::run(&mut alloc, &knl.engine, &cfg, &placement, None)
        })
        .expect("probe stream");
        let cfg = Graph500Config::knl_paper(26);
        tr.time("twin.apps.graph500", None, round, || {
            graph500::run(&mut alloc, &knl.engine, &cfg, &Placement::PreferAll(NodeId(4)), None)
        })
        .expect("probe graph500");
        let req = AllocRequest::new(GIB)
            .criterion(attr::BANDWIDTH)
            .initiator(&cpus)
            .fallback(Fallback::PartialSpill);
        let id = alloc.alloc(&req).expect("probe alloc");
        tr.time("twin.alloc.free", None, round, || alloc.free(id));
    }
}

/// Every per-layer metric, by its name in BENCHMARK.json.
fn metrics(tr: &Tracer, frame_bytes: f64, c: &Counts) -> Metrics {
    let mut m = Metrics::new();
    let med = |name: &str| tr.layer(name).median();
    let encode = med("wire.encode");
    let parse = med("wire.parse");
    let render = med("wire.render");
    let decode = med("wire.decode");
    let serve_alloc = med("broker.serve_alloc");
    let rtt = med("server.call.alloc");
    let acquire = tr.layer("broker.acquire");
    m.insert("wire.encode_us", (encode, "us"));
    m.insert("wire.decode_us", (decode, "us"));
    m.insert("wire.parse_us", (parse, "us"));
    m.insert("wire.render_us", (render, "us"));
    m.insert("wire.frame_bytes", (frame_bytes, "bytes"));
    m.insert("server.rtt_us", (rtt, "us"));
    m.insert("server.connect_us", (med("server.connect"), "us"));
    m.insert("server.transport_us", (rtt - (encode + parse + serve_alloc + render + decode), "us"));
    m.insert("server.fds_per_conn", (c.fds_per_conn.unwrap_or(0.0), "count"));
    m.insert("broker.acquire_us", (acquire.median(), "us"));
    m.insert("broker.acquire_p99_us", (acquire.percentile(99.0), "us"));
    m.insert("broker.release_us", (med("broker.release"), "us"));
    m.insert("broker.heartbeat_us", (med("broker.heartbeat"), "us"));
    m.insert("broker.run_phase_us", (med("broker.run_phase"), "us"));
    m.insert("broker.epoch_us", (med("broker.epoch"), "us"));
    m.insert("broker.serve_alloc_us", (serve_alloc, "us"));
    m.insert("broker.stats_us", (med("broker.stats"), "us"));
    m.insert("broker.admit_ratio", (ratio(c.admits as f64, c.attempts as f64), "frac"));
    m.insert("broker.clamps", (c.clamps as f64, "count"));
    m.insert("broker.expired", (c.expired as f64, "count"));
    m.insert("broker.revoked", (c.revoked as f64, "count"));
    m.insert("placement.rank_us", (med("placement.rank"), "us"));
    m.insert("memsim.commit_us", (med("memsim.commit"), "us"));
    m.insert("memsim.run_phase_us", (med("memsim.run_phase"), "us"));
    m.insert("alloc.free_us", (med("alloc.free"), "us"));
    m.insert("apps.graph500_us", (med("apps.graph500"), "us"));
    m.insert("apps.stream_us", (med("apps.stream"), "us"));
    m.insert("core.discovery_ms", (med("core.discovery") / 1e3, "ms"));
    m.insert("telemetry.events", (c.events as f64, "count"));
    m.insert("telemetry.events_lost", (c.events_lost as f64, "count"));
    m.insert("telemetry.drain_us", (med("telemetry.drain"), "us"));
    m.insert("telemetry.overhead_frac", (c.telemetry_overhead, "frac"));
    m.insert("guidance.promotions", (c.promotions as f64, "count"));
    m.insert("guidance.demotions", (c.demotions as f64, "count"));
    m.insert("guidance.overhead_frac", (c.guidance_overhead, "frac"));
    m.insert("trace.overhead_frac", (c.trace_overhead, "frac"));
    m
}
