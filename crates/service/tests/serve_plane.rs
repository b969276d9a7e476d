//! Socket tests of the serve plane: readers serve the one admission
//! queue themselves, so a client that waits for each reply gets the
//! same grants as serial admission on a twin broker, a pipelined burst
//! must be answered in order, several pipelining clients must leave
//! the broker clean, a client that never reads must not freeze the
//! queue — and the telemetry rings those short-lived reader threads
//! emit into must be reused, not piled up.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery};
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server, WRITE_TIMEOUT},
    wire::{Request, Response},
    ArbitrationPolicy, Broker, Priority, TenantId, TenantSpec,
};
use hetmem_telemetry::TelemetrySink;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn knl_broker(sink: TelemetrySink) -> Arc<Broker> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
    broker.set_sink(sink);
    Arc::new(broker)
}

/// A raw connection, so a test can write several frames at once.
struct Line {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Line {
    fn open(addr: &str) -> Line {
        let hostport = addr.strip_prefix("tcp:").expect("tcp address");
        let stream = TcpStream::connect(hostport).expect("connect");
        // A stranded frame fails the read instead of hanging the test.
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("deadline");
        Line { writer: stream.try_clone().expect("clone"), reader: BufReader::new(stream) }
    }

    /// Writes every frame with one `write_all`.
    fn send(&mut self, frames: &[Request]) {
        let burst: String = frames.iter().map(|f| f.to_json() + "\n").collect();
        self.writer.write_all(burst.as_bytes()).expect("write");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Response::from_json(line.trim_end()).expect("parse"),
            other => panic!("no reply: {other:?}"),
        }
    }

    fn call(&mut self, request: Request) -> Response {
        self.send(&[request]);
        self.recv()
    }
}

fn register(tenant: &str) -> Request {
    Request::Register {
        tenant: tenant.into(),
        priority: Priority::Normal,
        quota: vec![],
        reserve: vec![],
    }
}

fn alloc(tenant: &str, size: u64) -> Request {
    Request::Alloc {
        tenant: tenant.into(),
        size,
        criterion: attr::BANDWIDTH,
        fallback: Fallback::PartialSpill,
        label: None,
        ttl: None,
    }
}

fn free(tenant: &str, lease: u64) -> Request {
    Request::Free { tenant: tenant.into(), lease }
}

fn granted(resp: Response) -> u64 {
    match resp {
        Response::Granted { lease, .. } => lease,
        other => panic!("expected a grant, got {other:?}"),
    }
}

/// Waits for `revoked` disconnect revocations to finish. A revocation
/// drops its lease first and bumps the revoked count last, so the
/// count, not the live lease total, says when the broker is quiet.
fn settle(server: &Server, revoked: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.broker().robustness().revoked < revoked && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A deterministic mixed request stream: varied sizes, both criteria,
/// both spill modes, every fourth round with a TTL.
fn mixed_stream(rounds: usize, tenants: &[TenantId]) -> Vec<(TenantId, AllocRequest, Option<u64>)> {
    let mut stream = Vec::new();
    for round in 0..rounds {
        for (i, &tenant) in tenants.iter().enumerate() {
            let size = ((1 + (round * 3 + i * 5) % 48) as u64) << 20;
            let criterion = if (round + i) % 2 == 0 { attr::BANDWIDTH } else { attr::CAPACITY };
            let fallback =
                if (round + i) % 3 == 0 { Fallback::NextTarget } else { Fallback::PartialSpill };
            let ttl = if round % 4 == 3 { Some(8) } else { None };
            stream.push((
                tenant,
                AllocRequest::new(size).criterion(criterion).fallback(fallback),
                ttl,
            ));
        }
    }
    stream
}

#[test]
fn the_served_plane_is_bit_identical_to_the_serial_broker() {
    let tenant_mix = [
        ("anchor-a", Priority::Latency),
        ("anchor-b", Priority::Normal),
        ("anchor-c", Priority::Batch),
    ];
    let mut server =
        Server::bind(knl_broker(TelemetrySink::disabled()), "tcp:127.0.0.1:0").expect("bind");
    let served = server.broker().clone();
    let serial = knl_broker(TelemetrySink::disabled());
    let register = |broker: &Broker| -> Vec<TenantId> {
        tenant_mix
            .iter()
            .map(|&(name, priority)| {
                broker.register(TenantSpec::new(name).priority(priority)).expect("register")
            })
            .collect()
    };
    let tenants = register(&served);
    assert_eq!(tenants, register(&serial), "registration order fixes tenant ids");

    // A client that waits for each reply makes one tick, so one epoch,
    // per request: the twin advances one epoch before each of its own.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (i, (tenant, req, ttl)) in mixed_stream(12, &tenants).into_iter().enumerate() {
        let resp = client
            .call(&Request::Alloc {
                tenant: tenant_mix[tenant.0 as usize].0.into(),
                size: req.size(),
                criterion: req.get_criterion(),
                fallback: req.get_fallback(),
                label: None,
                ttl,
            })
            .expect("answered");
        serial.advance_epoch();
        let want = match serial.acquire_with_ttl(tenant, &req, ttl) {
            Ok(lease) => Response::Granted {
                lease: lease.id().0,
                size: lease.size(),
                placement: lease.placement().to_vec(),
                fast_bytes: lease.fast_bytes(),
            },
            Err(e) => Response::from_error(&e),
        };
        assert_eq!(resp, want, "request {i} diverged from the serial broker");
    }
    assert_eq!(served.epoch(), serial.epoch(), "one tick per request");
    assert_eq!(served.node_usage(), serial.node_usage(), "node ledgers are bit-identical");
    assert_eq!(served.live_leases(), serial.live_leases());
    served.check_invariants().expect("served ledgers consistent");
    serial.check_invariants().expect("serial ledgers consistent");
    drop(client);
    server.shutdown();
}

#[test]
fn a_pipelined_burst_is_answered_in_order() {
    let broker = knl_broker(TelemetrySink::disabled());
    let mut server = Server::bind(broker, "tcp:127.0.0.1:0").expect("bind");
    let mut frames = vec![register("t")];
    // A fresh broker numbers its leases from 0, so each free can name
    // the grant just before it.
    for lease in 0..31 {
        frames.push(alloc("t", 1 << 20));
        frames.push(free("t", lease));
    }
    frames.push(Request::Stats);
    assert_eq!(frames.len(), 64);
    let mut line = Line::open(server.local_addr());
    line.send(&frames);
    for (i, frame) in frames.iter().enumerate() {
        let resp = line.recv();
        match (frame, &resp) {
            (Request::Register { .. }, Response::Registered { .. }) => {}
            (Request::Alloc { .. }, Response::Granted { lease, .. }) => {
                assert_eq!(*lease, (i as u64 - 1) / 2, "reply {i} out of order")
            }
            (Request::Free { .. }, Response::Freed) => {}
            (Request::Stats, Response::Stats { .. }) => {}
            _ => panic!("reply {i} to {frame:?} is {resp:?}"),
        }
    }
    assert_eq!(server.broker().live_leases(), 0);
    server.broker().check_invariants().expect("clean");
    server.shutdown();
}

#[test]
fn a_server_settles_clean_under_mixed_pipelining_clients() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 40;
    const PIPELINED: u64 = 8;
    // Rings large enough that nothing is overwritten before the drain
    // at the end.
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let broker = knl_broker(sink.clone());
    let mut server = Server::bind(broker, "tcp:127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let mut admin = Line::open(&addr);
    for c in 0..CLIENTS {
        let resp = admin.call(register(&format!("t{c}")));
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }
    drop(admin);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let tenant = format!("t{c}");
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut line = Line::open(&addr);
                let mut dropped = 0u64;
                for round in 0..ROUNDS {
                    // Serial alloc/free pairs.
                    for k in 0..2 {
                        let lease = granted(line.call(alloc(&tenant, (k + 1) << 20)));
                        assert_eq!(line.call(free(&tenant, lease)), Response::Freed);
                    }
                    // Same-tenant allocs of distinct sizes pipelined in
                    // one write, so one tick can take several: the
                    // grants must come back in request order.
                    let sizes: Vec<u64> = (1..=PIPELINED).map(|k| k << 20).collect();
                    line.send(&sizes.iter().map(|&size| alloc(&tenant, size)).collect::<Vec<_>>());
                    let mut leases = Vec::new();
                    for &want in &sizes {
                        match line.recv() {
                            Response::Granted { lease, size, .. } => {
                                assert_eq!(size, want, "round {round}: grant out of order");
                                leases.push(lease);
                            }
                            other => panic!("expected a grant, got {other:?}"),
                        }
                    }
                    // Each free pipelined twice: in order, the repeat
                    // finds its lease already gone.
                    let frees: Vec<Request> =
                        leases.iter().flat_map(|&l| [free(&tenant, l), free(&tenant, l)]).collect();
                    line.send(&frees);
                    for _ in &leases {
                        assert_eq!(
                            line.recv(),
                            Response::Freed,
                            "round {round}: free out of order"
                        );
                        match line.recv() {
                            Response::Error { code, .. } => assert_eq!(code, "unknown_lease"),
                            other => panic!("round {round}: repeat free answered {other:?}"),
                        }
                    }
                    // Every other round hangs up holding a lease.
                    let lease = granted(line.call(alloc(&tenant, 2 << 20)));
                    if round % 2 == 0 {
                        assert_eq!(line.call(free(&tenant, lease)), Response::Freed);
                    } else {
                        dropped += 1;
                    }
                    line = Line::open(&addr);
                }
                dropped
            })
        })
        .collect();
    let dropped: u64 = threads.into_iter().map(|t| t.join().expect("client")).sum();

    settle(&server, dropped);
    let broker = server.broker();
    broker.check_invariants().expect("clean at quiescence");
    assert_eq!(broker.live_leases(), 0, "every dropped lease is revoked");
    assert_eq!(dropped, CLIENTS as u64 * ROUNDS / 2);
    assert_eq!(broker.robustness().revoked, dropped);
    server.shutdown();

    let mut collector = sink.collector();
    collector.drain_sorted();
    let loss = collector.loss();
    assert_eq!(loss.iter().map(|l| l.lost).sum::<u64>(), 0, "{loss:?}");
    // Over a hundred connections came and went; their readers handed
    // their rings on, so the count tracks the emitting threads alive
    // at once (clients and readers still exiting).
    assert!(loss.len() <= CLIENTS + 2 + 6, "{} rings", loss.len());
}

#[test]
fn a_client_that_never_reads_does_not_freeze_the_queue() {
    let broker = knl_broker(TelemetrySink::disabled());
    let mut server = Server::bind(broker, "tcp:127.0.0.1:0").expect("bind");
    // One client writes 1 MiB of `stats` frames and never reads its
    // replies. The write blocks once the server stops reading it, so
    // it runs on a thread of its own; it ends when the server cuts the
    // connection off.
    let mut mute = Line::open(server.local_addr());
    let flood = std::thread::spawn(move || {
        let frame = Request::Stats.to_json() + "\n";
        let burst = frame.repeat((1 << 20) / frame.len());
        let _ = mute.writer.write_all(burst.as_bytes());
        mute
    });
    // Let the replies fill both socket buffers, so the serving thread
    // is blocked writing to the mute client.
    std::thread::sleep(Duration::from_millis(500));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_deadline(Some(Duration::from_secs(10))).expect("deadline");
    let start = Instant::now();
    let resp = client.call(&Request::Stats).expect("answered despite the mute client");
    let waited = start.elapsed();
    assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
    assert!(
        waited < WRITE_TIMEOUT + Duration::from_secs(2),
        "waited {waited:?} behind a client that never reads"
    );
    server.shutdown();
    drop(flood.join().expect("flood"));
}
