//! Connection churn must not leak file descriptors: 200 clients each
//! connect to an in-process unix-socket `Server`, take one lease and
//! hang up, and the process's open-fd count settles back to where it
//! started. This file holds a single test so no other test opens or
//! closes descriptors while it counts them.

use hetmem_alloc::Fallback;
use hetmem_core::{attr, discovery};
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server},
    wire::{Request, Response},
    ArbitrationPolicy, Broker, TenantSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn connection_churn_leaves_the_fd_count_flat() {
    const CYCLES: usize = 200;
    const SLACK: usize = 4;
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
    broker.register(TenantSpec::new("churn")).expect("register");
    let path = std::env::temp_dir().join(format!("hetmem-churn-{}.sock", std::process::id()));
    let mut server = Server::bind(broker, &format!("unix:{}", path.display())).expect("bind");
    let baseline = open_fds();

    for _ in 0..CYCLES {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let resp = client
            .call(&Request::Alloc {
                tenant: "churn".into(),
                size: 1 << 20,
                criterion: attr::BANDWIDTH,
                fallback: Fallback::PartialSpill,
                label: None,
                ttl: None,
            })
            .expect("alloc");
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        drop(client);
    }

    // Readers revoke and exit asynchronously; give both a
    // moment to catch up with the last hang-ups.
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let fds = open_fds();
        let idle = server.broker().live_leases() == 0;
        if (idle && fds <= baseline + SLACK) || Instant::now() > deadline {
            break fds;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(server.broker().live_leases(), 0, "every hang-up revokes its lease");
    assert!(
        settled <= baseline + SLACK,
        "{CYCLES} connect/alloc/drop cycles left {settled} fds open, {baseline} before"
    );
    server.broker().check_invariants().expect("clean");
    server.shutdown();
}
