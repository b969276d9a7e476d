//! The tree-based wire codecs that the borrowed reader and direct
//! writer replaced, kept verbatim as test-only references, and the
//! tests that hold the new codecs to them: renders must match byte for
//! byte, and decodes must agree on every `Ok` value and on where a
//! `wire` error falls.

use super::*;
use hetmem_telemetry::json::ParseError;
use tree::{parse, JsonValue};

#[path = "../../../telemetry/src/json/mutate.rs"]
mod mutate;
#[path = "../../../telemetry/src/json/tree.rs"]
mod tree;

/// The replaced tree codec, under names that do not shadow the new one.
pub(super) trait Reference: Sized {
    /// The tree renderer's line.
    fn ref_to_json(&self) -> String;
    /// The tree decoder's reading of `line`.
    fn ref_from_json(line: &str) -> Result<Self, ServiceError>;
}

impl Reference for Request {
    /// Renders the request as one JSON line (no trailing newline).
    fn ref_to_json(&self) -> String {
        let kinds = |pairs: &[(MemoryKind, u64)]| {
            JsonValue::Array(
                pairs
                    .iter()
                    .map(|&(k, b)| {
                        JsonValue::Array(vec![
                            JsonValue::str(kind_name(k)),
                            JsonValue::num(b as f64),
                        ])
                    })
                    .collect(),
            )
        };
        let fields = match self {
            Request::Register { tenant, priority, quota, reserve } => vec![
                ("op".into(), JsonValue::str("register")),
                ("tenant".into(), JsonValue::str(tenant)),
                ("priority".into(), JsonValue::str(priority.as_str())),
                ("quota".into(), kinds(quota)),
                ("reserve".into(), kinds(reserve)),
            ],
            Request::Alloc { tenant, size, criterion, fallback, label, ttl } => {
                let mut f = vec![
                    ("op".into(), JsonValue::str("alloc")),
                    ("tenant".into(), JsonValue::str(tenant)),
                    ("size".into(), JsonValue::num(*size as f64)),
                    ("criterion".into(), JsonValue::str(criterion_name(*criterion))),
                    ("fallback".into(), JsonValue::str(fallback_name(*fallback))),
                ];
                if let Some(label) = label {
                    f.push(("label".into(), JsonValue::str(label)));
                }
                if let Some(ttl) = ttl {
                    f.push(("ttl".into(), JsonValue::num(*ttl as f64)));
                }
                f
            }
            Request::Renew { tenant, lease } => vec![
                ("op".into(), JsonValue::str("renew")),
                ("tenant".into(), JsonValue::str(tenant)),
                ("lease".into(), JsonValue::num(*lease as f64)),
            ],
            Request::Heartbeat { tenant } => vec![
                ("op".into(), JsonValue::str("heartbeat")),
                ("tenant".into(), JsonValue::str(tenant)),
            ],
            Request::Free { tenant, lease } => vec![
                ("op".into(), JsonValue::str("free")),
                ("tenant".into(), JsonValue::str(tenant)),
                ("lease".into(), JsonValue::num(*lease as f64)),
            ],
            Request::Stats => vec![("op".into(), JsonValue::str("stats"))],
            Request::Forward { origin, tenant, size, criterion, fallback, label, ttl } => {
                let mut f = vec![
                    ("op".into(), JsonValue::str("forward")),
                    ("origin".into(), JsonValue::num(*origin as f64)),
                    ("tenant".into(), JsonValue::str(tenant)),
                    ("size".into(), JsonValue::num(*size as f64)),
                    ("criterion".into(), JsonValue::str(criterion_name(*criterion))),
                    ("fallback".into(), JsonValue::str(fallback_name(*fallback))),
                ];
                if let Some(label) = label {
                    f.push(("label".into(), JsonValue::str(label)));
                }
                if let Some(ttl) = ttl {
                    f.push(("ttl".into(), JsonValue::num(*ttl as f64)));
                }
                f
            }
            Request::Digest => vec![("op".into(), JsonValue::str("digest"))],
        };
        JsonValue::Object(fields).render()
    }

    /// Parses one request line.
    fn ref_from_json(line: &str) -> Result<Request, ServiceError> {
        let bad = |m: String| ServiceError::Wire(m);
        let v = parse(line).map_err(|e| bad(e.to_string()))?;
        let op = v.get("op").and_then(|o| o.string()).map_err(|e| bad(e.to_string()))?;
        let tenant = |v: &JsonValue| {
            v.get("tenant").and_then(|t| t.string()).map_err(|e| bad(e.to_string()))
        };
        let kinds = |v: &JsonValue, key: &str| -> Result<Vec<(MemoryKind, u64)>, ServiceError> {
            let Ok(field) = v.get(key) else {
                return Ok(Vec::new());
            };
            let items = field.array().map_err(|e| bad(e.to_string()))?;
            items
                .iter()
                .map(|pair| {
                    let pair = pair.array().map_err(|e| bad(e.to_string()))?;
                    if pair.len() != 2 {
                        return Err(bad(format!("{key} entries are [kind, bytes] pairs")));
                    }
                    let name = pair[0].string().map_err(|e| bad(e.to_string()))?;
                    let kind = kind_from_name(&name)
                        .ok_or_else(|| bad(format!("unknown memory kind {name:?}")))?;
                    let bytes = pair[1].u64().map_err(|e| bad(e.to_string()))?;
                    Ok((kind, bytes))
                })
                .collect()
        };
        match op.as_str() {
            "register" => {
                let priority = match v.get("priority") {
                    Ok(p) => {
                        let name = p.string().map_err(|e| bad(e.to_string()))?;
                        Priority::from_str_opt(&name)
                            .ok_or_else(|| bad(format!("unknown priority {name:?}")))?
                    }
                    Err(_) => Priority::default(),
                };
                Ok(Request::Register {
                    tenant: tenant(&v)?,
                    priority,
                    quota: kinds(&v, "quota")?,
                    reserve: kinds(&v, "reserve")?,
                })
            }
            "alloc" => {
                let size = v.get("size").and_then(|s| s.u64()).map_err(|e| bad(e.to_string()))?;
                let criterion = match v.get("criterion") {
                    Ok(c) => {
                        let name = c.string().map_err(|e| bad(e.to_string()))?;
                        criterion_from_name(&name)
                            .ok_or_else(|| bad(format!("unknown criterion {name:?}")))?
                    }
                    Err(_) => attr::CAPACITY,
                };
                let fallback = match v.get("fallback") {
                    Ok(fb) => {
                        let name = fb.string().map_err(|e| bad(e.to_string()))?;
                        fallback_from_name(&name)
                            .ok_or_else(|| bad(format!("unknown fallback {name:?}")))?
                    }
                    Err(_) => Fallback::NextTarget,
                };
                let label = v.get("label").and_then(|l| l.string()).ok();
                let ttl = match v.get("ttl") {
                    Ok(t) => Some(t.u64().map_err(|e| bad(e.to_string()))?),
                    Err(_) => None,
                };
                Ok(Request::Alloc { tenant: tenant(&v)?, size, criterion, fallback, label, ttl })
            }
            "renew" => {
                let lease = v.get("lease").and_then(|l| l.u64()).map_err(|e| bad(e.to_string()))?;
                Ok(Request::Renew { tenant: tenant(&v)?, lease })
            }
            "heartbeat" => Ok(Request::Heartbeat { tenant: tenant(&v)? }),
            "free" => {
                let lease = v.get("lease").and_then(|l| l.u64()).map_err(|e| bad(e.to_string()))?;
                Ok(Request::Free { tenant: tenant(&v)?, lease })
            }
            "stats" => Ok(Request::Stats),
            "forward" => {
                let origin =
                    v.get("origin").and_then(|o| o.u64()).map_err(|e| bad(e.to_string()))? as u32;
                let size = v.get("size").and_then(|s| s.u64()).map_err(|e| bad(e.to_string()))?;
                let criterion = match v.get("criterion") {
                    Ok(c) => {
                        let name = c.string().map_err(|e| bad(e.to_string()))?;
                        criterion_from_name(&name)
                            .ok_or_else(|| bad(format!("unknown criterion {name:?}")))?
                    }
                    Err(_) => attr::CAPACITY,
                };
                let fallback = match v.get("fallback") {
                    Ok(fb) => {
                        let name = fb.string().map_err(|e| bad(e.to_string()))?;
                        fallback_from_name(&name)
                            .ok_or_else(|| bad(format!("unknown fallback {name:?}")))?
                    }
                    Err(_) => Fallback::NextTarget,
                };
                let label = v.get("label").and_then(|l| l.string()).ok();
                let ttl = match v.get("ttl") {
                    Ok(t) => Some(t.u64().map_err(|e| bad(e.to_string()))?),
                    Err(_) => None,
                };
                Ok(Request::Forward {
                    origin,
                    tenant: tenant(&v)?,
                    size,
                    criterion,
                    fallback,
                    label,
                    ttl,
                })
            }
            "digest" => Ok(Request::Digest),
            other => Err(bad(format!("unknown op {other:?}"))),
        }
    }
}

impl Reference for Response {
    /// Renders the response as one JSON line (no trailing newline).
    fn ref_to_json(&self) -> String {
        let fields = match self {
            Response::Registered { tenant_id } => vec![
                ("ok".into(), JsonValue::num(1.0)),
                ("tenant_id".into(), JsonValue::num(*tenant_id as f64)),
            ],
            Response::Granted { lease, size, placement, fast_bytes } => vec![
                ("ok".into(), JsonValue::num(1.0)),
                ("lease".into(), JsonValue::num(*lease as f64)),
                ("size".into(), JsonValue::num(*size as f64)),
                (
                    "placement".into(),
                    JsonValue::Array(
                        placement
                            .iter()
                            .map(|&(n, b)| {
                                JsonValue::Array(vec![
                                    JsonValue::num(n.0 as f64),
                                    JsonValue::num(b as f64),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("fast_bytes".into(), JsonValue::num(*fast_bytes as f64)),
            ],
            Response::Renewed { lease, expires_at } => vec![
                ("ok".into(), JsonValue::num(1.0)),
                ("lease".into(), JsonValue::num(*lease as f64)),
                (
                    "expires_at".into(),
                    match expires_at {
                        Some(e) => JsonValue::num(*e as f64),
                        None => JsonValue::Null,
                    },
                ),
            ],
            Response::HeartbeatAck { renewed } => vec![
                ("ok".into(), JsonValue::num(1.0)),
                ("renewed".into(), JsonValue::num(*renewed as f64)),
            ],
            Response::Freed => vec![("ok".into(), JsonValue::num(1.0))],
            Response::Stats { tenants, nodes, shards, guided } => {
                let mut fields = vec![
                    ("ok".into(), JsonValue::num(1.0)),
                    ("shards".into(), JsonValue::num(*shards as f64)),
                ];
                if let Some(guided) = guided {
                    fields.push((
                        "guided".into(),
                        JsonValue::Array(
                            guided
                                .iter()
                                .map(|(name, overhead_ns)| {
                                    JsonValue::Array(vec![
                                        JsonValue::str(name),
                                        JsonValue::num(*overhead_ns),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                fields.push((
                    "tenants".into(),
                    JsonValue::Array(
                        tenants
                            .iter()
                            .map(|t| {
                                JsonValue::Object(vec![
                                    ("id".into(), JsonValue::num(t.id.0 as f64)),
                                    ("name".into(), JsonValue::str(&t.name)),
                                    ("priority".into(), JsonValue::str(t.priority.as_str())),
                                    (
                                        "held".into(),
                                        JsonValue::Array(
                                            t.held
                                                .iter()
                                                .map(|(&k, &b)| {
                                                    JsonValue::Array(vec![
                                                        JsonValue::str(kind_name(k)),
                                                        JsonValue::num(b as f64),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    ("admits".into(), JsonValue::num(t.admits as f64)),
                                    ("clamps".into(), JsonValue::num(t.clamps as f64)),
                                    ("stalls".into(), JsonValue::num(t.stalls as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields.push((
                    "nodes".into(),
                    JsonValue::Array(
                        nodes
                            .iter()
                            .map(|&(n, used, total)| {
                                JsonValue::Array(vec![
                                    JsonValue::num(n.0 as f64),
                                    JsonValue::num(used as f64),
                                    JsonValue::num(total as f64),
                                ])
                            })
                            .collect(),
                    ),
                ));
                fields
            }
            Response::Digest { broker, epoch, tiers } => vec![
                ("ok".into(), JsonValue::num(1.0)),
                ("broker".into(), JsonValue::num(*broker as f64)),
                ("epoch".into(), JsonValue::num(*epoch as f64)),
                (
                    "tiers".into(),
                    JsonValue::Array(
                        tiers
                            .iter()
                            .map(|&(k, free, degraded)| {
                                JsonValue::Array(vec![
                                    JsonValue::str(kind_name(k)),
                                    JsonValue::num(free as f64),
                                    JsonValue::num(if degraded { 1.0 } else { 0.0 }),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
            Response::Error { code, error } => vec![
                ("ok".into(), JsonValue::num(0.0)),
                ("code".into(), JsonValue::str(code)),
                ("error".into(), JsonValue::str(error)),
            ],
        };
        JsonValue::Object(fields).render()
    }

    /// Parses one response line.
    fn ref_from_json(line: &str) -> Result<Response, ServiceError> {
        let bad = |m: String| ServiceError::Wire(m);
        let v = parse(line).map_err(|e| bad(e.to_string()))?;
        let ok = v.get("ok").and_then(|o| o.u64()).map_err(|e| bad(e.to_string()))?;
        if ok == 0 {
            let error = v.get("error").and_then(|e| e.string()).map_err(|e| bad(e.to_string()))?;
            let code = v.get("code").and_then(|c| c.string()).unwrap_or_default();
            return Ok(Response::Error { code, error });
        }
        if let Ok(placement) = v.get("placement") {
            let lease = v.get("lease").and_then(|l| l.u64()).map_err(|e| bad(e.to_string()))?;
            let size = v.get("size").and_then(|s| s.u64()).map_err(|e| bad(e.to_string()))?;
            let placement = placement
                .array()
                .map_err(|e| bad(e.to_string()))?
                .iter()
                .map(|pair| {
                    let pair = pair.array().map_err(|e| bad(e.to_string()))?;
                    if pair.len() != 2 {
                        return Err(bad("placement entries are [node, bytes] pairs".into()));
                    }
                    let node = pair[0].u64().map_err(|e| bad(e.to_string()))?;
                    let bytes = pair[1].u64().map_err(|e| bad(e.to_string()))?;
                    Ok((NodeId(node as u32), bytes))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let fast_bytes =
                v.get("fast_bytes").and_then(|b| b.u64()).map_err(|e| bad(e.to_string()))?;
            return Ok(Response::Granted { lease, size, placement, fast_bytes });
        }
        if let Ok(expiry) = v.get("expires_at") {
            let lease = v.get("lease").and_then(|l| l.u64()).map_err(|e| bad(e.to_string()))?;
            let expires_at = match expiry {
                JsonValue::Null => None,
                other => Some(other.u64().map_err(|e| bad(e.to_string()))?),
            };
            return Ok(Response::Renewed { lease, expires_at });
        }
        if let Ok(renewed) = v.get("renewed").and_then(|r| r.u64()) {
            return Ok(Response::HeartbeatAck { renewed });
        }
        if let Ok(tenant_id) = v.get("tenant_id").and_then(|t| t.u64()) {
            return Ok(Response::Registered { tenant_id: tenant_id as u32 });
        }
        if let Ok(tiers) = v.get("tiers") {
            let broker =
                v.get("broker").and_then(|b| b.u64()).map_err(|e| bad(e.to_string()))? as u32;
            let epoch = v.get("epoch").and_then(|e| e.u64()).map_err(|e| bad(e.to_string()))?;
            let tiers = tiers
                .array()
                .map_err(|e| bad(e.to_string()))?
                .iter()
                .map(|row| {
                    let row = row.array().map_err(|e| bad(e.to_string()))?;
                    if row.len() != 3 {
                        return Err(bad("tier entries are [kind, free, degraded] rows".into()));
                    }
                    let name = row[0].string().map_err(|e| bad(e.to_string()))?;
                    let kind = kind_from_name(&name)
                        .ok_or_else(|| bad(format!("unknown kind {name:?}")))?;
                    let free = row[1].u64().map_err(|e| bad(e.to_string()))?;
                    let degraded = row[2].u64().map_err(|e| bad(e.to_string()))? != 0;
                    Ok((kind, free, degraded))
                })
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(Response::Digest { broker, epoch, tiers });
        }
        if let Ok(tenants) = v.get("tenants") {
            let tenants = tenants
                .array()
                .map_err(|e| bad(e.to_string()))?
                .iter()
                .map(|t| {
                    let held = t
                        .get("held")
                        .map_err(|e| bad(e.to_string()))?
                        .array()
                        .map_err(|e| bad(e.to_string()))?
                        .iter()
                        .map(|pair| {
                            let pair = pair.array().map_err(|e| bad(e.to_string()))?;
                            let name = pair[0].string().map_err(|e| bad(e.to_string()))?;
                            let kind = kind_from_name(&name)
                                .ok_or_else(|| bad(format!("unknown kind {name:?}")))?;
                            let bytes = pair[1].u64().map_err(|e| bad(e.to_string()))?;
                            Ok((kind, bytes))
                        })
                        .collect::<Result<_, ServiceError>>()?;
                    let priority_name = t
                        .get("priority")
                        .and_then(|p| p.string())
                        .map_err(|e| bad(e.to_string()))?;
                    Ok(crate::TenantStats {
                        id: crate::TenantId(
                            t.get("id").and_then(|i| i.u64()).map_err(|e| bad(e.to_string()))?
                                as u32,
                        ),
                        name: t
                            .get("name")
                            .and_then(|n| n.string())
                            .map_err(|e| bad(e.to_string()))?,
                        priority: Priority::from_str_opt(&priority_name)
                            .ok_or_else(|| bad(format!("unknown priority {priority_name:?}")))?,
                        held,
                        admits: t
                            .get("admits")
                            .and_then(|a| a.u64())
                            .map_err(|e| bad(e.to_string()))?,
                        clamps: t
                            .get("clamps")
                            .and_then(|c| c.u64())
                            .map_err(|e| bad(e.to_string()))?,
                        stalls: t
                            .get("stalls")
                            .and_then(|s| s.u64())
                            .map_err(|e| bad(e.to_string()))?,
                    })
                })
                .collect::<Result<Vec<_>, ServiceError>>()?;
            let nodes = v
                .get("nodes")
                .map_err(|e| bad(e.to_string()))?
                .array()
                .map_err(|e| bad(e.to_string()))?
                .iter()
                .map(|triple| {
                    let triple = triple.array().map_err(|e| bad(e.to_string()))?;
                    if triple.len() != 3 {
                        return Err(bad("node entries are [node, used, total] triples".into()));
                    }
                    Ok((
                        NodeId(triple[0].u64().map_err(|e| bad(e.to_string()))? as u32),
                        triple[1].u64().map_err(|e| bad(e.to_string()))?,
                        triple[2].u64().map_err(|e| bad(e.to_string()))?,
                    ))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let shards = v.get("shards").and_then(|s| s.u64()).map(|s| s as u32).unwrap_or(1);
            // Absent `guided` field (an unguided or older broker)
            // parses as guidance off.
            let guided = match v.get("guided") {
                Err(_) => None,
                Ok(entries) => Some(
                    entries
                        .array()
                        .map_err(|e| bad(e.to_string()))?
                        .iter()
                        .map(|pair| {
                            let pair = pair.array().map_err(|e| bad(e.to_string()))?;
                            if pair.len() != 2 {
                                return Err(bad(
                                    "guided entries are [tenant, overhead_ns] pairs".into()
                                ));
                            }
                            let name = pair[0].string().map_err(|e| bad(e.to_string()))?;
                            let overhead_ns = pair[1].f64().map_err(|e| bad(e.to_string()))?;
                            Ok((name, overhead_ns))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                ),
            };
            return Ok(Response::Stats { tenants, nodes, shards, guided });
        }
        Ok(Response::Freed)
    }
}

mod tests {
    use super::*;
    use crate::TenantId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Characters the string writer treats differently: quotes,
    /// backslashes, the named escapes, other control characters and
    /// non-ASCII text.
    fn name() -> impl Strategy<Value = String> {
        let chars = vec![
            'a', 'z', '_', '-', ' ', '/', '0', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}',
            '\u{7f}', 'é', '€', '😀',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..10)
            .prop_map(|c| c.into_iter().collect())
    }

    /// Integers from 0 to 9e15 − 1, both ends included, with small
    /// values as likely as large ones.
    fn int() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(8_999_999_999_999_999u64),
            0u64..64,
            0u64..9_000_000_000_000_000
        ]
    }

    fn kind() -> impl Strategy<Value = MemoryKind> {
        prop::sample::select(vec![
            MemoryKind::Dram,
            MemoryKind::Hbm,
            MemoryKind::Nvdimm,
            MemoryKind::NetworkAttached,
            MemoryKind::GpuMemory,
        ])
    }

    fn criterion() -> impl Strategy<Value = AttrId> {
        prop::sample::select(vec![
            attr::BANDWIDTH,
            attr::LATENCY,
            attr::CAPACITY,
            attr::LOCALITY,
            attr::READ_BANDWIDTH,
            attr::WRITE_BANDWIDTH,
            attr::READ_LATENCY,
            attr::WRITE_LATENCY,
        ])
    }

    fn fallback() -> impl Strategy<Value = Fallback> {
        prop::sample::select(vec![Fallback::Strict, Fallback::NextTarget, Fallback::PartialSpill])
    }

    fn priority() -> impl Strategy<Value = Priority> {
        prop::sample::select(vec![Priority::Latency, Priority::Normal, Priority::Batch])
    }

    fn kinds() -> impl Strategy<Value = Vec<(MemoryKind, u64)>> {
        prop::collection::vec((kind(), int()), 0..4)
    }

    fn request() -> impl Strategy<Value = Request> {
        let alloc = || {
            (
                name(),
                int(),
                criterion(),
                fallback(),
                prop::option::of(name()),
                prop::option::of(int()),
            )
        };
        prop_oneof![
            (name(), priority(), kinds(), kinds()).prop_map(
                |(tenant, priority, quota, reserve)| {
                    Request::Register { tenant, priority, quota, reserve }
                }
            ),
            alloc().prop_map(|(tenant, size, criterion, fallback, label, ttl)| {
                Request::Alloc { tenant, size, criterion, fallback, label, ttl }
            }),
            (name(), int()).prop_map(|(tenant, lease)| Request::Renew { tenant, lease }),
            name().prop_map(|tenant| Request::Heartbeat { tenant }),
            (name(), int()).prop_map(|(tenant, lease)| Request::Free { tenant, lease }),
            Just(Request::Stats),
            (any::<u32>(), alloc()).prop_map(|(origin, a)| {
                let (tenant, size, criterion, fallback, label, ttl) = a;
                Request::Forward { origin, tenant, size, criterion, fallback, label, ttl }
            }),
            Just(Request::Digest),
        ]
    }

    /// An `f64` that is integral or not, below or past 9e15.
    fn overhead() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<f64>().prop_map(|x| x * 1e4),
            int().prop_map(|n| n as f64),
            Just(9.0e15),
            Just(1.5e16),
        ]
    }

    fn tenant_stats() -> impl Strategy<Value = TenantStats> {
        (any::<u32>(), name(), priority(), kinds(), (int(), int(), int())).prop_map(
            |(id, name, priority, held, (admits, clamps, stalls))| TenantStats {
                id: TenantId(id),
                name,
                priority,
                held: held.into_iter().collect::<BTreeMap<_, _>>(),
                admits,
                clamps,
                stalls,
            },
        )
    }

    fn response() -> impl Strategy<Value = Response> {
        let node = || any::<u32>().prop_map(NodeId);
        prop_oneof![
            any::<u32>().prop_map(|tenant_id| Response::Registered { tenant_id }),
            (int(), int(), prop::collection::vec((node(), int()), 0..9), int()).prop_map(
                |(lease, size, placement, fast_bytes)| Response::Granted {
                    lease,
                    size,
                    placement,
                    fast_bytes,
                }
            ),
            (int(), prop::option::of(int()))
                .prop_map(|(lease, expires_at)| Response::Renewed { lease, expires_at }),
            int().prop_map(|renewed| Response::HeartbeatAck { renewed }),
            Just(Response::Freed),
            (
                prop::collection::vec(tenant_stats(), 0..3),
                prop::collection::vec((node(), int(), int()), 0..3),
                any::<u32>(),
                prop::option::of(prop::collection::vec((name(), overhead()), 0..3)),
            )
                .prop_map(|(tenants, nodes, shards, guided)| Response::Stats {
                    tenants,
                    nodes,
                    shards,
                    guided,
                }),
            (any::<u32>(), int(), prop::collection::vec((kind(), int(), any::<bool>()), 0..4))
                .prop_map(|(broker, epoch, tiers)| Response::Digest { broker, epoch, tiers }),
            (name(), name()).prop_map(|(code, error)| Response::Error { code, error }),
        ]
    }

    /// The reference indexes the two cells of a stats `held` pair
    /// without checking its length, so a shorter pair panics it; the
    /// decoder refuses such a pair with a `wire` error instead
    /// (`a_short_held_pair_is_refused`). Lines holding one are left out
    /// of the comparison.
    fn short_held_pair(line: &str) -> bool {
        let Ok(v) = tree::parse(line) else { return false };
        let Ok(tenants) = v.get("tenants").and_then(|t| t.array().map(<[_]>::to_vec)) else {
            return false;
        };
        tenants.iter().any(|t| {
            t.get("held")
                .and_then(|h| h.array().map(<[_]>::to_vec))
                .is_ok_and(|held| held.iter().any(|p| p.array().is_ok_and(|p| p.len() < 2)))
        })
    }

    /// Decodes every mutation of `line` with both codecs: they must
    /// agree on each `Ok` value and on where a `wire` error falls.
    fn agree<T>(line: &str, decode: fn(&str) -> Result<T, ServiceError>) -> Result<(), String>
    where
        T: Reference + PartialEq + std::fmt::Debug,
    {
        for m in std::iter::once(line.to_string()).chain(mutate::mutations(line)) {
            if short_held_pair(&m) {
                continue;
            }
            match (decode(&m), T::ref_from_json(&m)) {
                (Ok(new), Ok(old)) if new == old => {}
                (Err(ServiceError::Wire(_)), Err(ServiceError::Wire(_))) => {}
                // The integer rule: a reordered or retyped cell can put
                // a value past `u32::MAX` into a node id, which the
                // reference truncated and the decoder refuses.
                (Err(ServiceError::Wire(e)), Ok(_)) if e.ends_with("is out of range") => {}
                // Only the bare `{"ok":1}` is a `freed`: the reference
                // answers any `ok` frame it cannot place `freed` (the
                // one value that renders as that bare frame), which the
                // decoder refuses.
                (Err(ServiceError::Wire(_)), Ok(old)) if old.ref_to_json() == r#"{"ok":1}"# => {}
                (new, old) => return Err(format!("{m}\n  new: {new:?}\n  reference: {old:?}")),
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn requests_render_as_the_reference_does(req in request()) {
            prop_assert_eq!(req.to_json(), req.ref_to_json());
        }

        #[test]
        fn responses_render_as_the_reference_does(resp in response()) {
            prop_assert_eq!(resp.to_json(), resp.ref_to_json());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn request_decoding_agrees_with_the_reference(req in request()) {
            agree(&req.ref_to_json(), Request::from_json)?;
        }

        #[test]
        fn response_decoding_agrees_with_the_reference(resp in response()) {
            agree(&resp.ref_to_json(), Response::from_json)?;
        }
    }
}
