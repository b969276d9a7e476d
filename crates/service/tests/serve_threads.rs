//! The daemon's thread budget: at any shard count a server runs one
//! accept thread and one reader per open connection, and no other.
//! The test is alone in its binary, so no other test's threads are
//! counted.

#![cfg(target_os = "linux")]

use hetmem_core::discovery;
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server},
    wire::{Request, Response},
    ArbitrationPolicy, Broker,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn a_server_runs_one_accept_thread_and_one_reader_per_connection() {
    const CONNS: usize = 3;
    let idle = threads();
    for shards in [1, 4] {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
        let mut server =
            Server::bind_sharded(broker, "tcp:127.0.0.1:0", None, shards).expect("bind");
        let mut clients: Vec<Client> =
            (0..CONNS).map(|_| Client::connect(server.local_addr()).expect("connect")).collect();
        // An answered frame means its connection's reader is running.
        for client in &mut clients {
            let resp = client.call(&Request::Stats).expect("stats");
            assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        }
        assert_eq!(threads(), idle + 1 + CONNS, "{shards} shard(s)");
        drop(clients);
        server.shutdown();
        // Readers exit on their own once their connections close.
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads() > idle {
            assert!(Instant::now() < deadline, "{} threads outlived the server", threads() - idle);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
