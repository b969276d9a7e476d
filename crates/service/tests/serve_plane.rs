//! Socket tests of the serve plane: readers serve their own shard's
//! ticks, so a pipelined burst on one shard must be answered in order,
//! several clients on a sharded, coalescing server must leave the
//! broker clean — and the telemetry rings those short-lived reader
//! threads emit into must be reused, not piled up.

use hetmem_alloc::Fallback;
use hetmem_core::{attr, discovery};
use hetmem_memsim::Machine;
use hetmem_service::{
    server::Server,
    wire::{Request, Response},
    ArbitrationPolicy, Broker, Priority, ShardConfig,
};
use hetmem_telemetry::{Event, TelemetrySink};
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

#[test]
fn one_shard_answers_a_pipelined_burst_in_order() {
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
            (Request::Stats, Response::Stats { shards, .. }) => assert_eq!(*shards, 1),
            _ => panic!("reply {i} to {frame:?} is {resp:?}"),
        }
    }
    assert_eq!(server.broker().live_leases(), 0);
    server.broker().check_invariants().expect("clean");
    server.shutdown();
}

#[test]
fn a_sharded_coalescing_server_settles_clean_under_mixed_clients() {
    const CLIENTS: usize = 4;
    const ROUNDS: u64 = 20;
    const PIPELINED: usize = 4;
    // Rings large enough that nothing is overwritten before the drain
    // at the end.
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let config = ShardConfig { shards: 2, coalesce: true, ..ShardConfig::default() };
    let broker = knl_broker(sink.clone());
    let mut server = Server::bind_sharded(broker, "tcp:127.0.0.1:0", None, config).expect("bind");
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
                    // Same-tenant allocs pipelined in one write, so a
                    // tick can coalesce them; then their frees, also
                    // pipelined. A sharded server may answer these out
                    // of order, so they are interchangeable.
                    line.send(&vec![alloc(&tenant, 1 << 20); PIPELINED]);
                    let leases: Vec<u64> = (0..PIPELINED).map(|_| granted(line.recv())).collect();
                    let frees: Vec<Request> = leases.iter().map(|&l| free(&tenant, l)).collect();
                    line.send(&frees);
                    for _ in 0..PIPELINED {
                        assert_eq!(line.recv(), Response::Freed);
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
    let events = collector.drain_sorted();
    let loss = collector.loss();
    assert_eq!(loss.iter().map(|l| l.lost).sum::<u64>(), 0, "{loss:?}");
    // Over a hundred connections came and went; their readers handed
    // their rings on, so the count tracks the emitting threads alive
    // at once (clients, steal threads, readers still exiting).
    assert!(loss.len() <= CLIENTS + 2 + 6, "{} rings", loss.len());
    assert!(
        events.iter().any(|e| matches!(e.event, Event::BatchCoalesced(_))),
        "pipelined same-tenant allocs never shared a planning walk"
    );
}
