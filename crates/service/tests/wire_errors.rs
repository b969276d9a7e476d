//! Wire error-path tests: hostile and unlucky peers — malformed
//! frames, oversized payloads, mid-frame disconnects, double releases
//! — must get typed errors (or a clean revocation), never a panic in
//! the thread serving them, and must not leak capacity.

use hetmem_core::attr;
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server, MAX_FRAME},
    wire::{Request, Response},
    ArbitrationPolicy, Broker, Priority,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn serve_knl() -> Server {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(hetmem_core::discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
    Server::bind(broker, "tcp:127.0.0.1:0").expect("bind")
}

/// Dials the server's TCP address with a raw socket, bypassing the
/// typed client, so tests can write garbage.
fn raw_dial(server: &Server) -> (BufReader<TcpStream>, TcpStream) {
    let hostport = server.local_addr().strip_prefix("tcp:").expect("tcp server");
    let stream = TcpStream::connect(hostport).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (reader, stream)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    Response::from_json(line.trim_end()).expect("parse response")
}

fn error_code(resp: &Response) -> &str {
    match resp {
        Response::Error { code, .. } => code,
        other => panic!("expected an error response, got {other:?}"),
    }
}

#[test]
fn malformed_frames_get_typed_wire_errors_and_the_conn_survives() {
    let mut server = serve_knl();
    let (mut reader, mut writer) = raw_dial(&server);

    // Not JSON at all.
    writer.write_all(b"this is not json\n").expect("write");
    assert_eq!(error_code(&read_response(&mut reader)), "wire");

    // JSON, but an unknown operation.
    writer.write_all(b"{\"op\":\"teleport\"}\n").expect("write");
    assert_eq!(error_code(&read_response(&mut reader)), "wire");

    // A known op with a missing field.
    writer.write_all(b"{\"op\":\"alloc\"}\n").expect("write");
    assert_eq!(error_code(&read_response(&mut reader)), "wire");

    // Not even UTF-8.
    writer.write_all(&[0xff, 0xfe, 0x80, b'\n']).expect("write");
    assert_eq!(error_code(&read_response(&mut reader)), "wire");

    // The server is alive and the same connection still works.
    writer.write_all(format!("{}\n", Request::Stats.to_json()).as_bytes()).expect("write");
    assert!(matches!(read_response(&mut reader), Response::Stats { .. }));
    server.shutdown();
}

#[test]
fn oversized_payload_is_rejected_and_the_next_frame_is_served() {
    let mut server = serve_knl();
    let (mut reader, mut writer) = raw_dial(&server);

    // One giant line: an error comes back and the tail is discarded.
    let mut frame = vec![b'x'; MAX_FRAME + 100];
    frame.push(b'\n');
    writer.write_all(&frame).expect("write");
    let resp = read_response(&mut reader);
    assert_eq!(error_code(&resp), "wire");
    match &resp {
        Response::Error { error, .. } => assert!(error.contains("exceeds"), "{error}"),
        _ => unreachable!(),
    }

    // The connection resynchronised on the newline: a well-formed
    // request on the same socket is served normally.
    writer.write_all(format!("{}\n", Request::Stats.to_json()).as_bytes()).expect("write");
    assert!(matches!(read_response(&mut reader), Response::Stats { .. }));
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_revokes_leases_and_reclaims_quota() {
    let mut server = serve_knl();
    let (mut reader, mut writer) = raw_dial(&server);

    let register = Request::Register {
        tenant: "doomed".into(),
        priority: Priority::Normal,
        quota: vec![],
        reserve: vec![],
    };
    writer.write_all(format!("{}\n", register.to_json()).as_bytes()).expect("write");
    assert!(matches!(read_response(&mut reader), Response::Registered { .. }));

    let alloc = Request::Alloc {
        tenant: "doomed".into(),
        size: 256 << 20,
        criterion: attr::BANDWIDTH,
        fallback: hetmem_alloc::Fallback::PartialSpill,
        label: None,
        ttl: None,
    };
    writer.write_all(format!("{}\n", alloc.to_json()).as_bytes()).expect("write");
    assert!(matches!(read_response(&mut reader), Response::Granted { .. }));
    assert_eq!(server.broker().live_leases(), 1);

    // The peer dies mid-frame: half a request, no newline, then gone.
    writer.write_all(b"{\"op\":\"allo").expect("write");
    drop(writer);
    drop(reader);

    // The reader notices the hangup and the next tick revokes the
    // connection's leases; poll briefly since this is asynchronous.
    // A revocation drops the lease first and settles the ledger and
    // bumps the revoked count last, so wait on the count.
    for _ in 0..200 {
        if server.broker().robustness().revoked > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server.broker().live_leases(), 0, "disconnect did not revoke the lease");
    assert!(server.broker().robustness().revoked >= 1);
    assert!(server.broker().robustness().reclaimed_bytes >= 256 << 20);
    // The quota really is back: every node is fully available again.
    for (node, used, _) in server.broker().node_usage() {
        assert_eq!(used, 0, "{node:?} still has bytes charged");
    }
    server.broker().check_invariants().expect("ledgers clean after revocation");
    server.shutdown();
}

#[test]
fn double_release_is_a_typed_error_not_a_panic() {
    let mut server = serve_knl();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .call(&Request::Register {
            tenant: "t".into(),
            priority: Priority::Normal,
            quota: vec![],
            reserve: vec![],
        })
        .expect("register");
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let resp = client
        .call(&Request::Alloc {
            tenant: "t".into(),
            size: 64 << 20,
            criterion: attr::BANDWIDTH,
            fallback: hetmem_alloc::Fallback::PartialSpill,
            label: None,
            ttl: None,
        })
        .expect("alloc");
    let Response::Granted { lease, .. } = resp else {
        panic!("expected grant, got {resp:?}");
    };

    let free = Request::Free { tenant: "t".into(), lease };
    assert!(matches!(client.call(&free).expect("first free"), Response::Freed));
    let resp = client.call(&free).expect("second free still answers");
    assert_eq!(error_code(&resp), "unknown_lease");

    // A free for a lease that never existed is the same typed error.
    let resp = client
        .call(&Request::Free { tenant: "t".into(), lease: 424242 })
        .expect("bogus free answers");
    assert_eq!(error_code(&resp), "unknown_lease");

    // The server survived both; stats flow normally.
    let resp = client.call(&Request::Stats).expect("stats");
    assert!(matches!(resp, Response::Stats { .. }));
    assert_eq!(server.broker().live_leases(), 0);
    server.broker().check_invariants().expect("clean");
    server.shutdown();
}

#[test]
fn cross_tenant_free_is_refused_without_leaking() {
    let mut server = serve_knl();
    let mut owner = Client::connect(server.local_addr()).expect("connect");
    let mut thief = Client::connect(server.local_addr()).expect("connect");
    for (client, name) in [(&mut owner, "owner"), (&mut thief, "thief")] {
        let resp = client
            .call(&Request::Register {
                tenant: name.into(),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            })
            .expect("register");
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }
    let resp = owner
        .call(&Request::Alloc {
            tenant: "owner".into(),
            size: 32 << 20,
            criterion: attr::BANDWIDTH,
            fallback: hetmem_alloc::Fallback::PartialSpill,
            label: None,
            ttl: None,
        })
        .expect("alloc");
    let Response::Granted { lease, .. } = resp else {
        panic!("expected grant, got {resp:?}");
    };
    // The other tenant cannot free what it does not hold.
    let resp =
        thief.call(&Request::Free { tenant: "thief".into(), lease }).expect("refused free answers");
    assert_eq!(error_code(&resp), "unknown_lease");
    assert_eq!(server.broker().live_leases(), 1, "the lease survived the theft attempt");
    // The rightful owner still can.
    let resp = owner.call(&Request::Free { tenant: "owner".into(), lease }).expect("free");
    assert!(matches!(resp, Response::Freed));
    assert_eq!(server.broker().live_leases(), 0);
    server.shutdown();
}
