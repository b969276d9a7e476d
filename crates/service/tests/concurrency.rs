//! Concurrency smoke tests: many client threads hammering one broker
//! (directly and over the socket), then ledger invariants are
//! cross-checked and no lease may be leaked.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery};
use hetmem_guidance::GuidancePolicy;
use hetmem_memsim::{AccessPattern, BufferAccess, Machine, Phase};
use hetmem_service::{
    server::{Client, Server},
    wire::{Request, Response},
    ArbitrationPolicy, Broker, GuidedConfig, Lease, Priority, ServiceError, TenantSpec,
};
use hetmem_topology::MemoryKind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn knl_broker(policy: ArbitrationPolicy) -> Arc<Broker> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    Arc::new(Broker::new(machine, attrs, policy))
}

#[test]
fn threads_hammering_the_broker_leave_consistent_ledgers() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let tenants: Vec<_> = (0..THREADS)
        .map(|i| {
            let priority = match i % 3 {
                0 => Priority::Latency,
                1 => Priority::Normal,
                _ => Priority::Batch,
            };
            broker
                .register(TenantSpec::new(format!("worker-{i}")).priority(priority))
                .expect("register")
        })
        .collect();

    let handles: Vec<_> = tenants
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                let mut admitted = 0u64;
                for round in 0..ROUNDS {
                    // Vary size and criterion per thread and round so
                    // the interleavings cover spill paths and both
                    // tiers; sizes stay small enough that fair share
                    // never denies anyone outright.
                    let size = (1 + (i + round) % 7) as u64 * (1 << 20);
                    let criterion =
                        if (i + round) % 2 == 0 { attr::BANDWIDTH } else { attr::CAPACITY };
                    let req = AllocRequest::new(size)
                        .criterion(criterion)
                        .fallback(Fallback::PartialSpill);
                    let lease = broker.acquire(tenant, &req).expect("admitted");
                    assert_eq!(lease.size(), size, "MiB sizes are page-multiples");
                    admitted += 1;
                    held.push(lease);
                    // Free roughly half as we go to churn the ledgers.
                    if round % 2 == 1 {
                        let lease = held.swap_remove(round % held.len());
                        broker.release(lease).expect("release");
                    }
                }
                for lease in held {
                    broker.release(lease).expect("release");
                }
                admitted
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    assert_eq!(total, (THREADS * ROUNDS) as u64, "every request was admitted");
    assert_eq!(broker.live_leases(), 0, "no leaked leases");
    broker.check_invariants().expect("ledgers, manager and lease table agree");
    // Everything freed: every node is fully available again.
    for (node, used, _) in broker.node_usage() {
        assert_eq!(used, 0, "{node:?} still has bytes charged");
    }
}

#[test]
fn quota_clamps_hold_under_concurrency() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    // Each tenant is capped at 64 MiB of HBM; with 6 threads racing,
    // no interleaving may ever let one exceed its cap.
    const CAP: u64 = 64 << 20;
    let tenants: Vec<_> = (0..6)
        .map(|i| {
            broker
                .register(TenantSpec::new(format!("capped-{i}")).quota(MemoryKind::Hbm, CAP))
                .expect("register")
        })
        .collect();
    let handles: Vec<_> = tenants
        .into_iter()
        .map(|tenant| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..30 {
                    let req = AllocRequest::new(8 << 20)
                        .criterion(attr::BANDWIDTH)
                        .fallback(Fallback::PartialSpill);
                    held.push(broker.acquire(tenant, &req).expect("spills past the cap"));
                }
                let fast: u64 = held.iter().map(|l| l.fast_bytes()).sum();
                assert!(fast <= CAP, "tenant exceeded its HBM quota: {fast} > {CAP}");
                for lease in held {
                    broker.release(lease).expect("release");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    assert_eq!(broker.live_leases(), 0);
    broker.check_invariants().expect("clean");
}

#[test]
fn concurrent_wire_clients_round_trip_cleanly() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    let mut server = Server::bind(broker, "tcp:127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let name = format!("client-{i}");
                let mut client = Client::connect(&addr).expect("connect");
                let resp = client
                    .call(&Request::Register {
                        tenant: name.clone(),
                        priority: Priority::Normal,
                        quota: vec![],
                        reserve: vec![],
                    })
                    .expect("register");
                assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
                let mut leases = Vec::new();
                for round in 0..20 {
                    let resp = client
                        .call(&Request::Alloc {
                            tenant: name.clone(),
                            size: (1 + round % 5) << 20,
                            criterion: attr::BANDWIDTH,
                            fallback: Fallback::PartialSpill,
                            label: None,
                            ttl: None,
                        })
                        .expect("alloc");
                    let Response::Granted { lease, .. } = resp else {
                        panic!("expected grant, got {resp:?}");
                    };
                    leases.push(lease);
                }
                for lease in leases {
                    let resp =
                        client.call(&Request::Free { tenant: name.clone(), lease }).expect("free");
                    assert!(matches!(resp, Response::Freed), "{resp:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    assert_eq!(server.broker().live_leases(), 0, "no leaked leases");
    server.broker().check_invariants().expect("clean");
    let stats = server.broker().tenants();
    assert_eq!(stats.len(), 6);
    assert!(stats.iter().all(|t| t.admits == 20), "{stats:?}");
    server.shutdown();
}

/// Worker threads mix single and coalesced acquires (some TTL'd),
/// releases and phases over their own leases on a guided fair-share
/// broker, while another thread keeps closing epochs — expiring leases
/// and running the guided fold's migrations. Whatever the
/// interleaving, every lease ends released or reclaimed and the
/// ledger, manager and lease table agree.
#[test]
fn guided_batches_phases_and_folds_interleave_cleanly() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 60;
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
    broker.enable_guidance(GuidedConfig {
        policy: GuidancePolicy { window_bytes: 1 << 30, ..Default::default() },
        ..Default::default()
    });
    let broker = Arc::new(broker);
    let tenants: Vec<_> = (0..THREADS)
        .map(|i| {
            let priority = [Priority::Latency, Priority::Normal, Priority::Batch][i % 3];
            broker
                .register(TenantSpec::new(format!("guided-{i}")).priority(priority))
                .expect("register")
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    // Epochs closed so far. The workers start only after the first one
    // and each waits halfway for one more, so epochs close while they
    // run however the threads are scheduled.
    let closed = Arc::new(AtomicU64::new(0));
    let epochs = {
        let (broker, done, closed) = (broker.clone(), done.clone(), closed.clone());
        std::thread::spawn(move || {
            let mut epochs = 0u64;
            while !done.load(Ordering::SeqCst) {
                broker.advance_epoch();
                epochs += 1;
                closed.store(epochs, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(200));
            }
            epochs
        })
    };
    let wait_past = move |closed: &AtomicU64, n: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while closed.load(Ordering::SeqCst) <= n {
            assert!(std::time::Instant::now() < deadline, "no epoch closed past {n}");
            std::thread::sleep(Duration::from_micros(50));
        }
    };
    wait_past(&closed, 0);
    let phases_run = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = tenants
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            let (broker, phases_run, closed) = (broker.clone(), phases_run.clone(), closed.clone());
            std::thread::spawn(move || {
                let started = closed.load(Ordering::SeqCst);
                let req = |mib: usize| {
                    AllocRequest::new((mib as u64) << 20)
                        .criterion(attr::BANDWIDTH)
                        .fallback(Fallback::PartialSpill)
                };
                // A lease may expire under us: releasing it then finds
                // it gone, and a phase over its region is refused.
                let release = |lease: Lease| match broker.release(lease) {
                    Ok(()) | Err(ServiceError::UnknownLease(_)) => {}
                    Err(e) => panic!("release failed: {e}"),
                };
                let mut held: Vec<Lease> = Vec::new();
                for round in 0..ROUNDS {
                    if round == ROUNDS / 2 {
                        wait_past(&closed, started);
                    }
                    let ttl = if (i + round) % 3 == 0 { Some(2) } else { None };
                    let mib = 4 + (i * 7 + round * 5) % 29;
                    if round % 4 == 0 {
                        for mib in [mib, mib + 3] {
                            held.push(
                                broker.acquire_with_ttl(tenant, &req(mib), ttl).expect("admitted"),
                            );
                        }
                    } else {
                        held.push(
                            broker.acquire_with_ttl(tenant, &req(mib), ttl).expect("admitted"),
                        );
                    }
                    for lease in held.iter().rev().take(2) {
                        let phase = Phase {
                            name: format!("w{i}-r{round}"),
                            accesses: vec![BufferAccess::new(
                                lease.region(),
                                4 * lease.size(),
                                0,
                                AccessPattern::Sequential,
                            )],
                            threads: 16,
                            initiator: "0-15".parse().expect("cpuset"),
                            compute_ns: 0.0,
                        };
                        match broker.run_phase(tenant, &phase) {
                            Ok(_) => {
                                phases_run.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServiceError::UnknownRegion(_)) => {}
                            Err(e) => panic!("phase failed: {e}"),
                        }
                    }
                    if round % 2 == 1 {
                        release(held.swap_remove(round % held.len()));
                    }
                }
                held.into_iter().for_each(release);
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }
    done.store(true, Ordering::SeqCst);
    let epochs = epochs.join().expect("epoch thread");

    assert!(epochs > 0, "epochs closed while the workers ran");
    assert!(phases_run.load(Ordering::Relaxed) > 0, "phases ran");
    assert!(!broker.guided_stats().expect("guided").is_empty(), "the fold had planes to run");
    broker.check_invariants().expect("ledger, manager and lease table agree");
    assert_eq!(broker.live_leases(), 0, "every lease was released or reclaimed");
    for (node, used, _) in broker.node_usage() {
        assert_eq!(used, 0, "{node:?} still has bytes charged");
    }
}
