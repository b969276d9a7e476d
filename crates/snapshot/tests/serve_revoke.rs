//! A served broker's wire log carries the revocations the server makes
//! outside any request, so it replays to the live broker's state.

use hetmem_alloc::Fallback;
use hetmem_core::{attr, discovery};
use hetmem_memsim::Machine;
use hetmem_service::server::{Client, Recorded, ServeRecorder, Server};
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, Priority};
use hetmem_snapshot::{encode_state, replay, Snapshot, WireLog, WireLogWriter};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registers `tenant` and gives it one 1 MiB lease, without a TTL.
fn register_and_alloc(client: &mut Client, tenant: &str) {
    let register = Request::Register {
        tenant: tenant.into(),
        priority: Priority::Normal,
        quota: Vec::new(),
        reserve: Vec::new(),
    };
    let resp = client.call(&register).expect("register");
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let alloc = Request::Alloc {
        tenant: tenant.into(),
        size: 1 << 20,
        criterion: attr::BANDWIDTH,
        fallback: Fallback::PartialSpill,
        label: None,
        ttl: None,
    };
    let resp = client.call(&alloc).expect("alloc");
    assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
}

#[test]
fn a_hang_up_revocation_replays_from_the_log() {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare);
    let start = Snapshot::capture(&broker, None);
    let path =
        std::env::temp_dir().join(format!("hetmem-serve-revoke-{}.hmwl", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).expect("log file"));
    let mut log = WireLogWriter::new(file, &broker).expect("log header");
    let recorder: ServeRecorder = Box::new(move |epoch, recorded: Recorded<'_>| {
        match recorded {
            Recorded::Request(request) => log.request(epoch, request),
            Recorded::Revoke(lease) => log.revoke(epoch, lease),
        }
        .expect("log write");
    });
    let mut server =
        Server::bind_with(Arc::new(broker), "tcp:127.0.0.1:0", Some(recorder)).expect("bind");
    let live = server.broker().clone();

    // A hangs up holding a lease: the server revokes it outside any
    // request.
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    register_and_alloc(&mut a, "a");
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    while live.live_leases() > 0 {
        assert!(Instant::now() < deadline, "a's lease was never revoked");
        std::thread::sleep(Duration::from_millis(5));
    }
    // B's frames follow the revocation in the log.
    let mut b = Client::connect(server.local_addr()).expect("connect b");
    register_and_alloc(&mut b, "b");
    server.shutdown();
    assert_eq!(live.robustness().revoked, 1);

    let log = WireLog::read_file(&path).expect("log decodes");
    let _ = std::fs::remove_file(&path);
    assert!(log.trailer().is_none(), "a served log has no trailer");
    let report = replay(&start, &log, machine, attrs).expect("replays");
    let mut expected = Vec::new();
    encode_state(&live.snapshot_state(), &mut expected);
    assert!(report.state_bytes == expected, "the replay ends in another state: {report:?}");
}
