//! Byte anchor for the wire codecs: one frame of every `Request` and
//! `Response` variant, rendered and decoded against the committed
//! `tests/golden/frames.jsonl`. The file lists the requests first, then
//! the responses, one frame per line. Integers stay below 9e15, where
//! every renderer the protocol has had agrees.

use hetmem_alloc::Fallback;
use hetmem_core::attr;
use hetmem_service::wire::{Request, Response};
use hetmem_service::{Priority, ServiceError, TenantId, TenantStats};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden/frames.jsonl");

/// A name with every class of character the string writer treats
/// differently: quotes, backslashes, the named escapes, other control
/// characters, and non-ASCII text.
const TRICKY: &str = "q\"b\\s/n\nr\rt\tc\u{1}\u{1f}\u{7f} é€😀";

fn requests() -> Vec<Request> {
    vec![
        Request::Register {
            tenant: "stream".into(),
            priority: Priority::Batch,
            quota: vec![(MemoryKind::Hbm, 1 << 30)],
            reserve: vec![(MemoryKind::Dram, 256 << 20)],
        },
        Request::Register {
            tenant: TRICKY.into(),
            priority: Priority::Latency,
            quota: vec![
                (MemoryKind::Dram, 0),
                (MemoryKind::Hbm, 8_999_999_999_999_999),
                (MemoryKind::Nvdimm, 1),
                (MemoryKind::NetworkAttached, 4096),
                (MemoryKind::GpuMemory, 16 << 30),
            ],
            reserve: vec![],
        },
        Request::Register {
            tenant: String::new(),
            priority: Priority::Normal,
            quota: vec![],
            reserve: vec![],
        },
        Request::Alloc {
            tenant: "stream".into(),
            size: 4096,
            criterion: attr::BANDWIDTH,
            fallback: Fallback::PartialSpill,
            label: Some("a".into()),
            ttl: Some(5),
        },
        Request::Alloc {
            tenant: TRICKY.into(),
            size: 8_999_999_999_999_999,
            criterion: attr::LATENCY,
            fallback: Fallback::Strict,
            label: Some(TRICKY.into()),
            ttl: None,
        },
        Request::Alloc {
            tenant: "graph500".into(),
            size: 0,
            criterion: attr::READ_BANDWIDTH,
            fallback: Fallback::NextTarget,
            label: None,
            ttl: Some(0),
        },
        Request::Alloc {
            tenant: "graph500".into(),
            size: 1 << 20,
            criterion: attr::WRITE_LATENCY,
            fallback: Fallback::NextTarget,
            label: None,
            ttl: None,
        },
        Request::Renew { tenant: "stream".into(), lease: 0 },
        Request::Renew { tenant: TRICKY.into(), lease: 8_999_999_999_999_999 },
        Request::Heartbeat { tenant: "stream".into() },
        Request::Free { tenant: "stream".into(), lease: 17 },
        Request::Stats,
        Request::Forward {
            origin: 4_294_967_295,
            tenant: "stream".into(),
            size: 4096,
            criterion: attr::LATENCY,
            fallback: Fallback::NextTarget,
            label: Some("spill".into()),
            ttl: Some(3),
        },
        Request::Forward {
            origin: 0,
            tenant: TRICKY.into(),
            size: 1,
            criterion: attr::CAPACITY,
            fallback: Fallback::Strict,
            label: None,
            ttl: None,
        },
        Request::Digest,
    ]
}

fn responses() -> Vec<Response> {
    let mut held = BTreeMap::new();
    held.insert(MemoryKind::Dram, 0);
    held.insert(MemoryKind::Hbm, 3 << 30);
    vec![
        Response::Registered { tenant_id: 0 },
        Response::Registered { tenant_id: u32::MAX },
        Response::Granted {
            lease: 42,
            size: 3 << 30,
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            fast_bytes: 1 << 30,
        },
        Response::Granted { lease: 0, size: 0, placement: vec![], fast_bytes: 0 },
        Response::Granted {
            lease: 8_999_999_999_999_999,
            size: 8_999_999_999_999_999,
            placement: (0..8).map(|n| (NodeId(n), (n as u64) << 28)).collect(),
            fast_bytes: 8_999_999_999_999_999,
        },
        Response::Renewed { lease: 9, expires_at: Some(17) },
        Response::Renewed { lease: 2, expires_at: None },
        Response::HeartbeatAck { renewed: 3 },
        Response::Freed,
        Response::Stats {
            tenants: vec![
                TenantStats {
                    id: TenantId(3),
                    name: TRICKY.into(),
                    priority: Priority::Latency,
                    held,
                    admits: 2,
                    clamps: 1,
                    stalls: 0,
                },
                TenantStats {
                    id: TenantId(u32::MAX),
                    name: "idle".into(),
                    priority: Priority::Batch,
                    held: BTreeMap::new(),
                    admits: 8_999_999_999_999_999,
                    clamps: 0,
                    stalls: 7,
                },
            ],
            nodes: vec![(NodeId(0), 0, 96 << 30), (NodeId(4), 4096, 4 << 30)],
            guided: None,
        },
        Response::Stats {
            tenants: vec![],
            nodes: vec![],
            guided: Some(vec![
                ("graph".into(), 1536.0),
                (TRICKY.into(), 0.1),
                ("big".into(), 9.0e15),
                ("edge".into(), 8_999_999_999_999_999.0),
                ("tiny".into(), 5e-324),
            ]),
        },
        Response::Stats { tenants: vec![], nodes: vec![], guided: Some(vec![]) },
        Response::Digest {
            broker: 2,
            epoch: 14,
            tiers: vec![(MemoryKind::Dram, 96 << 30, false), (MemoryKind::Hbm, 4 << 30, true)],
        },
        Response::Digest { broker: u32::MAX, epoch: 0, tiers: vec![] },
        Response::Error { code: "admission".into(), error: TRICKY.into() },
        Response::from_error(&ServiceError::UnknownLease(4)),
        Response::from_error(&ServiceError::Wire("trace parse error: missing field \"op\"".into())),
    ]
}

fn render_all() -> String {
    let reqs = requests().iter().map(|r| r.to_json() + "\n").collect::<String>();
    reqs + &responses().iter().map(|r| r.to_json() + "\n").collect::<String>()
}

#[test]
fn every_frame_renders_byte_for_byte() {
    let rendered = render_all();
    for (i, (want, got)) in GOLDEN.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(got, want, "frame {} differs", i + 1);
    }
    assert_eq!(rendered.lines().count(), GOLDEN.lines().count(), "frame count");
    assert_eq!(rendered, GOLDEN);
}

#[test]
fn every_golden_frame_decodes_to_its_value() {
    let (reqs, resps) = (requests(), responses());
    let mut lines = GOLDEN.lines();
    for req in reqs {
        let line = lines.next().expect("a request line");
        assert_eq!(Request::from_json(line).expect(line), req, "{line}");
    }
    for resp in resps {
        let line = lines.next().expect("a response line");
        assert_eq!(Response::from_json(line).expect(line), resp, "{line}");
    }
    assert_eq!(lines.next(), None, "no extra frames");
}
