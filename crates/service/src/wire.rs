//! The JSONL wire protocol: one JSON object per line in each
//! direction, speaking the same hand-rolled dialect as the telemetry
//! trace format ([`hetmem_telemetry::json`]) — no external
//! dependencies, deterministic rendering.
//!
//! Requests:
//!
//! ```json
//! {"op":"register","tenant":"stream","priority":"batch","quota":[["hbm",1073741824]]}
//! {"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill","ttl":5}
//! {"op":"renew","tenant":"stream","lease":0}
//! {"op":"heartbeat","tenant":"stream"}
//! {"op":"free","tenant":"stream","lease":0}
//! {"op":"stats"}
//! {"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next"}
//! {"op":"digest"}
//! ```
//!
//! Responses always carry `"ok"`; failures carry `"error"` plus a
//! stable machine-readable `"code"` ([`crate::ERROR_CODES`]):
//!
//! ```json
//! {"ok":1,"lease":0,"size":4096,"placement":[[4,4096]],"fast_bytes":4096}
//! {"ok":0,"code":"admission","error":"admission denied: ..."}
//! ```
//!
//! Criterion, fallback and memory-kind spellings match the scenario
//! DSL (`bandwidth`, `spill`, `hbm`, ...), so the same vocabulary
//! works in scripts and over the socket. The full specification —
//! every frame, every field, every error code — lives in
//! `docs/PROTOCOL.md` and is enforced by a coverage test over
//! [`REQUEST_OPS`], [`RESPONSE_KINDS`] and
//! [`hetmem_telemetry::EVENT_KINDS`].

use crate::tenant::{Priority, TenantStats};
use crate::ServiceError;
use hetmem_alloc::Fallback;
use hetmem_core::{attr, AttrId};
use hetmem_telemetry::json::{parse, JsonValue};
use hetmem_topology::{MemoryKind, NodeId};

/// Wire spelling of an attribute criterion (DSL vocabulary).
pub fn criterion_name(id: AttrId) -> &'static str {
    match id {
        attr::BANDWIDTH => "bandwidth",
        attr::LATENCY => "latency",
        attr::CAPACITY => "capacity",
        attr::LOCALITY => "locality",
        attr::READ_BANDWIDTH => "readbandwidth",
        attr::WRITE_BANDWIDTH => "writebandwidth",
        attr::READ_LATENCY => "readlatency",
        attr::WRITE_LATENCY => "writelatency",
        _ => "capacity",
    }
}

/// Parses a criterion spelling ([`criterion_name`] vocabulary).
pub fn criterion_from_name(s: &str) -> Option<AttrId> {
    Some(match s.to_ascii_lowercase().as_str() {
        "bandwidth" => attr::BANDWIDTH,
        "latency" => attr::LATENCY,
        "capacity" => attr::CAPACITY,
        "locality" => attr::LOCALITY,
        "readbandwidth" => attr::READ_BANDWIDTH,
        "writebandwidth" => attr::WRITE_BANDWIDTH,
        "readlatency" => attr::READ_LATENCY,
        "writelatency" => attr::WRITE_LATENCY,
        _ => return None,
    })
}

/// Wire spelling of a fallback mode (DSL vocabulary).
pub fn fallback_name(f: Fallback) -> &'static str {
    match f {
        Fallback::Strict => "strict",
        Fallback::NextTarget => "next",
        Fallback::PartialSpill => "spill",
    }
}

/// Parses a fallback spelling ([`fallback_name`] vocabulary).
pub fn fallback_from_name(s: &str) -> Option<Fallback> {
    Some(match s.to_ascii_lowercase().as_str() {
        "strict" => Fallback::Strict,
        "next" => Fallback::NextTarget,
        "spill" => Fallback::PartialSpill,
        _ => return None,
    })
}

/// Wire spelling of a memory kind.
pub fn kind_name(kind: MemoryKind) -> &'static str {
    match kind {
        MemoryKind::Dram => "dram",
        MemoryKind::Hbm => "hbm",
        MemoryKind::Nvdimm => "nvdimm",
        MemoryKind::NetworkAttached => "nam",
        MemoryKind::GpuMemory => "gpu",
    }
}

/// Parses a memory-kind spelling ([`kind_name`] vocabulary).
pub fn kind_from_name(s: &str) -> Option<MemoryKind> {
    Some(match s.to_ascii_lowercase().as_str() {
        "dram" => MemoryKind::Dram,
        "hbm" | "mcdram" => MemoryKind::Hbm,
        "nvdimm" | "pmem" => MemoryKind::Nvdimm,
        "nam" => MemoryKind::NetworkAttached,
        "gpu" => MemoryKind::GpuMemory,
        _ => return None,
    })
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a tenant.
    Register {
        /// Tenant name (must be unique per broker).
        tenant: String,
        /// Priority class.
        priority: Priority,
        /// Per-tier hard caps.
        quota: Vec<(MemoryKind, u64)>,
        /// Per-tier guaranteed floors.
        reserve: Vec<(MemoryKind, u64)>,
    },
    /// Request an allocation lease.
    Alloc {
        /// Owning tenant name.
        tenant: String,
        /// Bytes requested.
        size: u64,
        /// Ranking criterion.
        criterion: AttrId,
        /// Fallback mode when the best target cannot take it all.
        fallback: Fallback,
        /// Optional buffer label (shows up in telemetry).
        label: Option<String>,
        /// Optional TTL override in service epochs; `None` uses the
        /// tenant's default (which may itself be "no TTL").
        ttl: Option<u64>,
    },
    /// Reset the TTL clock of one lease.
    Renew {
        /// Owning tenant name.
        tenant: String,
        /// Lease id from the alloc response.
        lease: u64,
    },
    /// Renew every lease the tenant holds (the keepalive).
    Heartbeat {
        /// Tenant name.
        tenant: String,
    },
    /// Return a lease.
    Free {
        /// Owning tenant name.
        tenant: String,
        /// Lease id from the alloc response.
        lease: u64,
    },
    /// Snapshot broker state.
    Stats,
    /// A federation spill: a peer broker forwards the residual of a
    /// shortfalling placement here. The tenant must be registered on
    /// the receiving broker too (federations mirror registrations).
    Forward {
        /// Broker id of the forwarding peer.
        origin: u32,
        /// Owning tenant name.
        tenant: String,
        /// Residual bytes to place locally.
        size: u64,
        /// Ranking criterion of the original request.
        criterion: AttrId,
        /// Fallback mode of the original request.
        fallback: Fallback,
        /// Optional buffer label (shows up in telemetry).
        label: Option<String>,
        /// Optional TTL override in service epochs.
        ttl: Option<u64>,
    },
    /// Ask the broker for its capacity digest (federation gossip).
    Digest,
}

/// The `op` field value of every [`Request`] variant, in declaration
/// order. `docs/PROTOCOL.md` coverage tests enumerate this list.
pub const REQUEST_OPS: &[&str] =
    &["register", "alloc", "renew", "heartbeat", "free", "stats", "forward", "digest"];

/// A stable name per [`Response`] variant (responses are discriminated
/// by field shape on the wire, not by a tag; these names exist for the
/// spec and its coverage test).
pub const RESPONSE_KINDS: &[&str] =
    &["registered", "granted", "renewed", "heartbeat_ack", "freed", "stats", "digest", "error"];

impl Request {
    /// The `op` field value this variant encodes to — one of
    /// [`REQUEST_OPS`].
    ///
    /// ```
    /// use hetmem_service::wire::{Request, REQUEST_OPS};
    /// let req = Request::Heartbeat { tenant: "stream".into() };
    /// assert_eq!(req.op(), "heartbeat");
    /// assert!(REQUEST_OPS.contains(&req.op()));
    /// ```
    pub fn op(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Alloc { .. } => "alloc",
            Request::Renew { .. } => "renew",
            Request::Heartbeat { .. } => "heartbeat",
            Request::Free { .. } => "free",
            Request::Stats => "stats",
            Request::Forward { .. } => "forward",
            Request::Digest => "digest",
        }
    }

    /// The tenant the request acts for, when it names one.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Register { tenant, .. }
            | Request::Alloc { tenant, .. }
            | Request::Renew { tenant, .. }
            | Request::Heartbeat { tenant }
            | Request::Free { tenant, .. }
            | Request::Forward { tenant, .. } => Some(tenant),
            Request::Stats | Request::Digest => None,
        }
    }

    /// Renders the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
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
    pub fn from_json(line: &str) -> Result<Request, ServiceError> {
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

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Tenant registered.
    Registered {
        /// The issued tenant id.
        tenant_id: u32,
    },
    /// Lease granted.
    Granted {
        /// The issued lease id.
        lease: u64,
        /// Bytes granted (page-rounded).
        size: u64,
        /// Placement split `(node, bytes)`.
        placement: Vec<(NodeId, u64)>,
        /// Bytes that landed on the fast tier.
        fast_bytes: u64,
    },
    /// Lease TTL clock reset.
    Renewed {
        /// The renewed lease id.
        lease: u64,
        /// The new expiry epoch; `None` when the lease has no TTL.
        expires_at: Option<u64>,
    },
    /// Heartbeat acknowledged.
    HeartbeatAck {
        /// Number of leases whose TTL clock was reset.
        renewed: u64,
    },
    /// Lease returned.
    Freed,
    /// Broker snapshot.
    Stats {
        /// Per-tenant standing.
        tenants: Vec<TenantStats>,
        /// Per-node `(node, used, total)` bytes.
        nodes: Vec<(NodeId, u64, u64)>,
        /// Dispatch shards serving this broker (`1` = one queue;
        /// absent frames from older brokers parse as `1`).
        shards: u32,
        /// Per-tenant `(name, sampling overhead ns)` when guided
        /// service is on; `None` when it is off. An absent field
        /// parses as off, so unguided brokers keep the old frame.
        guided: Option<Vec<(String, f64)>>,
    },
    /// The broker's capacity digest (answer to a `digest` request).
    Digest {
        /// Responding broker id.
        broker: u32,
        /// The broker's virtual epoch when the digest was taken.
        epoch: u64,
        /// Per-tier `(kind, free bytes, degraded)` rows, ordered by
        /// kind.
        tiers: Vec<(MemoryKind, u64, bool)>,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Stable machine-readable code ([`crate::ERROR_CODES`]).
        code: String,
        /// Human-readable reason (the [`ServiceError`] display).
        error: String,
    },
}

impl Response {
    /// The stable name of this variant — one of [`RESPONSE_KINDS`].
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Registered { .. } => "registered",
            Response::Granted { .. } => "granted",
            Response::Renewed { .. } => "renewed",
            Response::HeartbeatAck { .. } => "heartbeat_ack",
            Response::Freed => "freed",
            Response::Stats { .. } => "stats",
            Response::Digest { .. } => "digest",
            Response::Error { .. } => "error",
        }
    }

    /// An error response carrying `e`'s stable code and display text.
    pub fn from_error(e: &ServiceError) -> Response {
        Response::Error { code: e.code().to_string(), error: e.to_string() }
    }

    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
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
    pub fn from_json(line: &str) -> Result<Response, ServiceError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Register {
                tenant: "graph \"prod\"".into(),
                priority: Priority::Latency,
                quota: vec![(MemoryKind::Hbm, 1 << 30)],
                reserve: vec![(MemoryKind::Dram, 2 << 30), (MemoryKind::Hbm, 1 << 20)],
            },
            Request::Alloc {
                tenant: "stream".into(),
                size: 4096,
                criterion: attr::READ_BANDWIDTH,
                fallback: Fallback::PartialSpill,
                label: Some("a".into()),
                ttl: Some(5),
            },
            Request::Alloc {
                tenant: "stream".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Renew { tenant: "stream".into(), lease: 3 },
            Request::Heartbeat { tenant: "stream".into() },
            Request::Free { tenant: "stream".into(), lease: 7 },
            Request::Stats,
            Request::Forward {
                origin: 1,
                tenant: "stream".into(),
                size: 1 << 20,
                criterion: attr::LATENCY,
                fallback: Fallback::NextTarget,
                label: Some("spill".into()),
                ttl: Some(3),
            },
            Request::Forward {
                origin: 0,
                tenant: "stream".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Digest,
        ];
        for req in reqs {
            let line = req.to_json();
            assert_eq!(Request::from_json(&line).expect(&line), req, "{line}");
        }
    }

    #[test]
    fn alloc_defaults_apply_when_fields_are_absent() {
        let req = Request::from_json(r#"{"op":"alloc","tenant":"t","size":4096}"#).expect("parses");
        assert_eq!(
            req,
            Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::NextTarget,
                label: None,
                ttl: None,
            }
        );
    }

    #[test]
    fn every_request_op_is_listed_and_every_response_kind_is_listed() {
        let reqs = [
            Request::Register {
                tenant: "t".into(),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            },
            Request::Alloc {
                tenant: "t".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Renew { tenant: "t".into(), lease: 0 },
            Request::Heartbeat { tenant: "t".into() },
            Request::Free { tenant: "t".into(), lease: 0 },
            Request::Stats,
            Request::Forward {
                origin: 0,
                tenant: "t".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Digest,
        ];
        let ops: Vec<&str> = reqs.iter().map(|r| r.op()).collect();
        assert_eq!(ops, REQUEST_OPS);
        assert_eq!(reqs[0].tenant(), Some("t"));
        assert_eq!(reqs[5].tenant(), None);
        assert_eq!(reqs[6].tenant(), Some("t"));
        assert_eq!(reqs[7].tenant(), None);

        let resps = [
            Response::Registered { tenant_id: 0 },
            Response::Granted { lease: 0, size: 0, placement: vec![], fast_bytes: 0 },
            Response::Renewed { lease: 0, expires_at: None },
            Response::HeartbeatAck { renewed: 0 },
            Response::Freed,
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: None },
            Response::Digest { broker: 0, epoch: 0, tiers: vec![] },
            Response::from_error(&ServiceError::Stalled),
        ];
        let kinds: Vec<&str> = resps.iter().map(|r| r.kind()).collect();
        assert_eq!(kinds, RESPONSE_KINDS);
    }

    #[test]
    fn responses_roundtrip() {
        let mut held = BTreeMap::new();
        held.insert(MemoryKind::Hbm, 4096u64);
        let resps = vec![
            Response::Registered { tenant_id: 3 },
            Response::Granted {
                lease: 9,
                size: 8192,
                placement: vec![(NodeId(4), 4096), (NodeId(0), 4096)],
                fast_bytes: 4096,
            },
            Response::Renewed { lease: 9, expires_at: Some(17) },
            Response::Renewed { lease: 2, expires_at: None },
            Response::HeartbeatAck { renewed: 3 },
            Response::Freed,
            Response::Stats {
                tenants: vec![crate::TenantStats {
                    id: crate::TenantId(3),
                    name: "graph".into(),
                    priority: Priority::Latency,
                    held,
                    admits: 2,
                    clamps: 1,
                    stalls: 0,
                }],
                nodes: vec![(NodeId(0), 0, 1 << 30), (NodeId(4), 4096, 1 << 30)],
                shards: 4,
                guided: None,
            },
            Response::Stats {
                tenants: vec![],
                nodes: vec![(NodeId(0), 0, 1 << 30)],
                shards: 1,
                guided: Some(vec![("graph".into(), 1536.0), ("stream".into(), 0.0)]),
            },
            Response::Digest {
                broker: 2,
                epoch: 14,
                tiers: vec![(MemoryKind::Dram, 96 << 30, false), (MemoryKind::Hbm, 4 << 30, true)],
            },
            Response::Error { code: "admission".into(), error: "admission denied".into() },
            Response::from_error(&ServiceError::UnknownLease(4)),
            Response::from_error(&ServiceError::PeerUnreachable(1)),
            Response::from_error(&ServiceError::StaleDigest { peer: 3 }),
        ];
        for resp in resps {
            let line = resp.to_json();
            assert_eq!(Response::from_json(&line).expect(&line), resp, "{line}");
        }
    }

    #[test]
    fn legacy_stats_frames_parse_as_single_shard_and_unguided() {
        let line = r#"{"ok":1,"tenants":[],"nodes":[]}"#;
        let resp = Response::from_json(line).expect("legacy stats frame");
        assert_eq!(
            resp,
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: None }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_wire_errors() {
        for line in [
            "not json",
            r#"{"tenant":"t"}"#,
            r#"{"op":"warp","tenant":"t"}"#,
            r#"{"op":"alloc","tenant":"t"}"#,
            r#"{"op":"alloc","tenant":"t","size":-1}"#,
            r#"{"op":"alloc","tenant":"t","size":4096,"criterion":"speed"}"#,
            r#"{"op":"register","tenant":"t","quota":[["fast",1]]}"#,
            r#"{"op":"free","tenant":"t"}"#,
        ] {
            assert!(matches!(Request::from_json(line), Err(ServiceError::Wire(_))), "{line}");
        }
    }

    #[test]
    fn vocabulary_roundtrips() {
        for id in [
            attr::BANDWIDTH,
            attr::LATENCY,
            attr::CAPACITY,
            attr::LOCALITY,
            attr::READ_BANDWIDTH,
            attr::WRITE_BANDWIDTH,
            attr::READ_LATENCY,
            attr::WRITE_LATENCY,
        ] {
            assert_eq!(criterion_from_name(criterion_name(id)), Some(id));
        }
        for f in [Fallback::Strict, Fallback::NextTarget, Fallback::PartialSpill] {
            assert_eq!(fallback_from_name(fallback_name(f)), Some(f));
        }
        for k in [
            MemoryKind::Dram,
            MemoryKind::Hbm,
            MemoryKind::Nvdimm,
            MemoryKind::NetworkAttached,
            MemoryKind::GpuMemory,
        ] {
            assert_eq!(kind_from_name(kind_name(k)), Some(k));
        }
    }
}
