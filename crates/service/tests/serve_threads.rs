//! The daemon's thread budget: a server runs one accept thread and one
//! reader per open connection, and no other, and shutdown joins them
//! all. The test is alone in its binary, so no
//! other test's threads are counted.

#![cfg(target_os = "linux")]

use hetmem_core::discovery;
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server},
    wire::{Request, Response},
    ArbitrationPolicy, Broker,
};
use std::sync::Arc;

/// The kernel's `PF_EXITING` task flag: set as a thread starts to
/// exit, before a `join` on it can return.
const PF_EXITING: u64 = 0x4;

/// Threads of this process that are not exiting. A joined thread can
/// stay listed for milliseconds until the kernel reaps it, but it is
/// already flagged exiting, so it does not count.
fn threads() -> usize {
    let live = |tid: &std::fs::DirEntry| {
        // A thread reaped since the listing has no stat to read.
        let Ok(stat) = std::fs::read_to_string(tid.path().join("stat")) else { return false };
        // After the parenthesised name: state, ppid, pgrp, session,
        // tty_nr, tpgid, flags (proc(5)).
        let rest = &stat[stat.rfind(')').expect("stat name") + 1..];
        let flags: u64 = rest.split_whitespace().nth(6).expect("flags").parse().expect("flags");
        flags & PF_EXITING == 0
    };
    std::fs::read_dir("/proc/self/task").expect("procfs").flatten().filter(live).count()
}

#[test]
fn a_server_runs_one_accept_thread_and_one_reader_per_connection() {
    const CONNS: usize = 3;
    let idle = threads();
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
    let mut server = Server::bind(broker, "tcp:127.0.0.1:0").expect("bind");
    let mut clients: Vec<Client> =
        (0..CONNS).map(|_| Client::connect(server.local_addr()).expect("connect")).collect();
    // An answered frame means its connection's reader is running.
    for client in &mut clients {
        let resp = client.call(&Request::Stats).expect("stats");
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
    }
    assert_eq!(threads(), idle + 1 + CONNS);
    // Shutdown cuts the connections still open and joins their
    // readers: no server thread outlives the call.
    server.shutdown();
    assert_eq!(threads(), idle, "threads outlived the server");
    drop(clients);
}
