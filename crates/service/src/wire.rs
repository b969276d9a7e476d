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
use hetmem_telemetry::json::{
    parse, write_object, ArrayWriter, JsonValue, ObjectWriter, ParseError,
};
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

/// Parses a criterion spelling ([`criterion_name`] vocabulary), in any
/// ASCII case.
pub fn criterion_from_name(s: &str) -> Option<AttrId> {
    spelling(
        s,
        &[
            ("bandwidth", attr::BANDWIDTH),
            ("latency", attr::LATENCY),
            ("capacity", attr::CAPACITY),
            ("locality", attr::LOCALITY),
            ("readbandwidth", attr::READ_BANDWIDTH),
            ("writebandwidth", attr::WRITE_BANDWIDTH),
            ("readlatency", attr::READ_LATENCY),
            ("writelatency", attr::WRITE_LATENCY),
        ],
    )
}

/// Wire spelling of a fallback mode (DSL vocabulary).
pub fn fallback_name(f: Fallback) -> &'static str {
    match f {
        Fallback::Strict => "strict",
        Fallback::NextTarget => "next",
        Fallback::PartialSpill => "spill",
    }
}

/// Parses a fallback spelling ([`fallback_name`] vocabulary), in any
/// ASCII case.
pub fn fallback_from_name(s: &str) -> Option<Fallback> {
    spelling(
        s,
        &[
            ("strict", Fallback::Strict),
            ("next", Fallback::NextTarget),
            ("spill", Fallback::PartialSpill),
        ],
    )
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

/// Parses a memory-kind spelling ([`kind_name`] vocabulary, plus the
/// aliases `mcdram` and `pmem`), in any ASCII case.
pub fn kind_from_name(s: &str) -> Option<MemoryKind> {
    spelling(
        s,
        &[
            ("dram", MemoryKind::Dram),
            ("hbm", MemoryKind::Hbm),
            ("mcdram", MemoryKind::Hbm),
            ("nvdimm", MemoryKind::Nvdimm),
            ("pmem", MemoryKind::Nvdimm),
            ("nam", MemoryKind::NetworkAttached),
            ("gpu", MemoryKind::GpuMemory),
        ],
    )
}

/// The value `s` spells in `vocabulary`, compared ignoring ASCII case
/// and without allocating.
fn spelling<T: Copy>(s: &str, vocabulary: &[(&str, T)]) -> Option<T> {
    vocabulary.iter().find(|(name, _)| name.eq_ignore_ascii_case(s)).map(|&(_, v)| v)
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
        let mut line = String::with_capacity(128);
        write_object(&mut line, |o| {
            o.str("op", self.op());
            match self {
                Request::Register { tenant, priority, quota, reserve } => {
                    o.str("tenant", tenant).str("priority", priority.as_str());
                    o.array("quota", |a| kinds(a, quota.iter().copied()));
                    o.array("reserve", |a| kinds(a, reserve.iter().copied()));
                }
                Request::Alloc { tenant, size, criterion, fallback, label, ttl } => {
                    o.str("tenant", tenant);
                    alloc_fields(o, *size, *criterion, *fallback, label.as_deref(), *ttl);
                }
                Request::Renew { tenant, lease } | Request::Free { tenant, lease } => {
                    o.str("tenant", tenant).uint("lease", *lease);
                }
                Request::Heartbeat { tenant } => {
                    o.str("tenant", tenant);
                }
                Request::Stats | Request::Digest => {}
                Request::Forward { origin, tenant, size, criterion, fallback, label, ttl } => {
                    o.uint("origin", *origin).str("tenant", tenant);
                    alloc_fields(o, *size, *criterion, *fallback, label.as_deref(), *ttl);
                }
            }
        });
        line
    }

    /// Parses one request line.
    pub fn from_json(line: &str) -> Result<Request, ServiceError> {
        let v = parse(line)?;
        let tenant = || string(&v, "tenant");
        let kinds = |key| match v.get(key) {
            None => Ok(Vec::new()),
            Some(rows) => decode_rows(rows, |row| match row {
                [kind, bytes] => {
                    Ok((spelled(kind, "memory kind", kind_from_name)?, bytes.as_uint()?))
                }
                _ => Err(wire(format!("{key} entries are [kind, bytes] pairs"))),
            }),
        };
        let op = v.field("op")?.as_str()?;
        Ok(match op {
            "register" => Request::Register {
                tenant: tenant()?,
                priority: spelled_or(&v, "priority", Priority::default(), Priority::from_str_opt)?,
                quota: kinds("quota")?,
                reserve: kinds("reserve")?,
            },
            "alloc" | "forward" => {
                let size = uint(&v, "size")?;
                let criterion = spelled_or(&v, "criterion", attr::CAPACITY, criterion_from_name)?;
                let fallback =
                    spelled_or(&v, "fallback", Fallback::NextTarget, fallback_from_name)?;
                // A label of another type reads as no label.
                let label = v.get("label").and_then(|l| l.as_str().ok()).map(str::to_owned);
                let ttl = v.get("ttl").map(JsonValue::as_uint).transpose()?;
                let tenant = tenant()?;
                if op == "alloc" {
                    Request::Alloc { tenant, size, criterion, fallback, label, ttl }
                } else {
                    let origin = uint(&v, "origin")?;
                    Request::Forward { origin, tenant, size, criterion, fallback, label, ttl }
                }
            }
            "renew" => Request::Renew { lease: uint(&v, "lease")?, tenant: tenant()? },
            "heartbeat" => Request::Heartbeat { tenant: tenant()? },
            "free" => Request::Free { lease: uint(&v, "lease")?, tenant: tenant()? },
            "stats" => Request::Stats,
            "digest" => Request::Digest,
            other => return Err(wire(format!("unknown op {other:?}"))),
        })
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
        let mut line = String::with_capacity(128);
        write_object(&mut line, |o| {
            o.uint("ok", u64::from(!matches!(self, Response::Error { .. })));
            match self {
                Response::Registered { tenant_id } => {
                    o.uint("tenant_id", *tenant_id);
                }
                Response::Granted { lease, size, placement, fast_bytes } => {
                    o.uint("lease", *lease).uint("size", *size);
                    o.array("placement", |a| {
                        for &(n, b) in placement {
                            a.array(|p| {
                                p.uint(n.0).uint(b);
                            });
                        }
                    });
                    o.uint("fast_bytes", *fast_bytes);
                }
                Response::Renewed { lease, expires_at } => {
                    o.uint("lease", *lease).opt_uint("expires_at", *expires_at);
                }
                Response::HeartbeatAck { renewed } => {
                    o.uint("renewed", *renewed);
                }
                Response::Freed => {}
                Response::Stats { tenants, nodes, shards, guided } => {
                    o.uint("shards", *shards);
                    if let Some(guided) = guided {
                        o.array("guided", |a| {
                            for (name, overhead_ns) in guided {
                                a.array(|p| {
                                    p.str(name).f64(*overhead_ns);
                                });
                            }
                        });
                    }
                    o.array("tenants", |a| {
                        for t in tenants {
                            a.object(|o| {
                                o.uint("id", t.id.0).str("name", &t.name);
                                o.str("priority", t.priority.as_str());
                                o.array("held", |a| kinds(a, t.held.iter().map(|(&k, &b)| (k, b))));
                                o.uint("admits", t.admits).uint("clamps", t.clamps);
                                o.uint("stalls", t.stalls);
                            });
                        }
                    });
                    o.array("nodes", |a| {
                        for &(n, used, total) in nodes {
                            a.array(|r| {
                                r.uint(n.0).uint(used).uint(total);
                            });
                        }
                    });
                }
                Response::Digest { broker, epoch, tiers } => {
                    o.uint("broker", *broker).uint("epoch", *epoch);
                    o.array("tiers", |a| {
                        for &(k, free, degraded) in tiers {
                            a.array(|r| {
                                r.str(kind_name(k)).uint(free).uint(u64::from(degraded));
                            });
                        }
                    });
                }
                Response::Error { code, error } => {
                    o.str("code", code).str("error", error);
                }
            }
        });
        line
    }

    /// Parses one response line. Responses carry no tag, so the fields
    /// present pick the variant, probed in a fixed order.
    pub fn from_json(line: &str) -> Result<Response, ServiceError> {
        let v = parse(line)?;
        if uint::<u64>(&v, "ok")? == 0 {
            // A code of another type reads as empty.
            let code = v.get("code").and_then(|c| c.as_str().ok()).unwrap_or_default();
            return Ok(Response::Error { code: code.to_owned(), error: string(&v, "error")? });
        }
        if let Some(placement) = v.get("placement") {
            return Ok(Response::Granted {
                lease: uint(&v, "lease")?,
                size: uint(&v, "size")?,
                placement: decode_rows(placement, |row| match row {
                    [node, bytes] => Ok((NodeId(node.as_uint()?), bytes.as_uint()?)),
                    _ => Err(wire("placement entries are [node, bytes] pairs")),
                })?,
                fast_bytes: uint(&v, "fast_bytes")?,
            });
        }
        if let Some(expiry) = v.get("expires_at") {
            let expires_at = match expiry {
                JsonValue::Null => None,
                other => Some(other.as_uint()?),
            };
            return Ok(Response::Renewed { lease: uint(&v, "lease")?, expires_at });
        }
        // A probe that is not an unsigned integer leaves the shape open.
        let probe = |key| v.get(key).filter(|n| n.is_uint());
        if let Some(renewed) = probe("renewed") {
            return Ok(Response::HeartbeatAck { renewed: renewed.as_uint()? });
        }
        if let Some(tenant_id) = probe("tenant_id") {
            return Ok(Response::Registered { tenant_id: tenant_id.as_uint()? });
        }
        if let Some(tiers) = v.get("tiers") {
            return Ok(Response::Digest {
                broker: uint(&v, "broker")?,
                epoch: uint(&v, "epoch")?,
                tiers: decode_rows(tiers, |row| match row {
                    [kind, free, degraded] => Ok((
                        spelled(kind, "kind", kind_from_name)?,
                        free.as_uint()?,
                        degraded.as_uint::<u64>()? != 0,
                    )),
                    _ => Err(wire("tier entries are [kind, free, degraded] rows")),
                })?,
            });
        }
        let Some(tenants) = v.get("tenants") else {
            // Only the bare `{"ok":1}` is a `freed`: an `ok` frame with a
            // field no variant claims is one this decoder cannot place.
            return match &v {
                JsonValue::Object(fields) if fields.len() == 1 => Ok(Response::Freed),
                _ => Err(wire("unknown response shape")),
            };
        };
        let tenants = tenants.as_array()?.iter().map(|t| {
            Ok(TenantStats {
                // Cells past a held pair's second are ignored.
                held: decode_rows(t.field("held")?, |row| match row {
                    [kind, bytes, ..] => {
                        Ok((spelled(kind, "kind", kind_from_name)?, bytes.as_uint()?))
                    }
                    _ => Err(wire("held entries are [kind, bytes] pairs")),
                })?
                .into_iter()
                .collect(),
                priority: spelled(t.field("priority")?, "priority", Priority::from_str_opt)?,
                id: crate::TenantId(uint(t, "id")?),
                name: string(t, "name")?,
                admits: uint(t, "admits")?,
                clamps: uint(t, "clamps")?,
                stalls: uint(t, "stalls")?,
            })
        });
        Ok(Response::Stats {
            tenants: tenants.collect::<Result<_, ServiceError>>()?,
            nodes: decode_rows(v.field("nodes")?, |row| match row {
                [node, used, total] => {
                    Ok((NodeId(node.as_uint()?), used.as_uint()?, total.as_uint()?))
                }
                _ => Err(wire("node entries are [node, used, total] triples")),
            })?,
            shards: probe("shards").map_or(Ok(1), JsonValue::as_uint)?,
            // An absent `guided` field (an unguided or older broker)
            // parses as guidance off.
            guided: match v.get("guided") {
                None => None,
                Some(rows) => Some(decode_rows(rows, |row| match row {
                    [name, overhead_ns] => Ok((name.as_str()?.to_owned(), overhead_ns.as_f64()?)),
                    _ => Err(wire("guided entries are [tenant, overhead_ns] pairs")),
                })?),
            },
        })
    }
}

impl From<ParseError> for ServiceError {
    /// A frame that does not parse, or lacks a field of the right type,
    /// is a `wire` error carrying the reader's message alone: the line
    /// is a wire frame, not a trace line.
    fn from(e: ParseError) -> ServiceError {
        ServiceError::Wire(e.message().to_owned())
    }
}

fn wire(msg: impl Into<String>) -> ServiceError {
    ServiceError::Wire(msg.into())
}

/// Writes `[kind, bytes]` pairs.
fn kinds(a: &mut ArrayWriter<'_>, pairs: impl IntoIterator<Item = (MemoryKind, u64)>) {
    for (k, b) in pairs {
        a.array(|p| {
            p.str(kind_name(k)).uint(b);
        });
    }
}

/// Writes the fields an `alloc` and a `forward` share, after `tenant`.
fn alloc_fields(
    o: &mut ObjectWriter<'_>,
    size: u64,
    criterion: AttrId,
    fallback: Fallback,
    label: Option<&str>,
    ttl: Option<u64>,
) {
    o.uint("size", size).str("criterion", criterion_name(criterion));
    o.str("fallback", fallback_name(fallback));
    if let Some(label) = label {
        o.str("label", label);
    }
    if let Some(ttl) = ttl {
        o.uint("ttl", ttl);
    }
}

/// A required string field.
fn string(v: &JsonValue, key: &str) -> Result<String, ServiceError> {
    Ok(v.field(key)?.as_str()?.to_owned())
}

/// A required unsigned integer field of type `T`.
fn uint<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, ServiceError> {
    Ok(v.field(key)?.as_uint()?)
}

/// A string from one vocabulary; `what` names the vocabulary in errors.
fn spelled<T>(
    v: &JsonValue,
    what: &str,
    from_name: fn(&str) -> Option<T>,
) -> Result<T, ServiceError> {
    let name = v.as_str()?;
    from_name(name).ok_or_else(|| wire(format!("unknown {what} {name:?}")))
}

/// An optional vocabulary field, `default` when absent.
fn spelled_or<T>(
    v: &JsonValue,
    key: &str,
    default: T,
    from_name: fn(&str) -> Option<T>,
) -> Result<T, ServiceError> {
    v.get(key).map_or(Ok(default), |s| spelled(s, key, from_name))
}

/// An array of rows, each an array that `row` decodes.
fn decode_rows<T>(
    v: &JsonValue,
    row: impl Fn(&[JsonValue]) -> Result<T, ServiceError>,
) -> Result<Vec<T>, ServiceError> {
    v.as_array()?.iter().map(|r| row(r.as_array()?)).collect()
}

#[cfg(test)]
mod reference;

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

    /// A frame that does not parse is answered with the reader's own
    /// message: the error names the wire frame, not the trace format.
    #[test]
    fn a_garbage_line_is_a_wire_error_that_names_no_trace() {
        let e = Request::from_json("not json").expect_err("not json");
        assert_eq!(e, ServiceError::Wire("bad literal at byte 0".into()));
        assert_eq!(
            Response::from_error(&e).to_json(),
            r#"{"ok":0,"code":"wire","error":"bad request: bad literal at byte 0"}"#
        );
        let e = Response::from_json(r#"{"ok":1,"placement":[]}"#).expect_err("no lease");
        assert_eq!(e, ServiceError::Wire("missing field \"lease\"".into()));
    }

    /// Only the bare `{"ok":1}` decodes as `freed`: an `ok` frame with
    /// fields no variant claims is a `wire` error, not a silent success.
    #[test]
    fn only_the_bare_ok_frame_is_freed() {
        assert_eq!(Response::from_json(r#"{"ok":1}"#).expect("bare"), Response::Freed);
        for line in [r#"{"ok":1,"lease":7}"#, r#"{"ok":1,"renewed":"x"}"#] {
            assert!(matches!(Response::from_json(line), Err(ServiceError::Wire(_))), "{line}");
        }
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

    /// Integers on the wire are exact: plain digits at every magnitude,
    /// digits-only literals read exactly, and a value too large for its
    /// field refused rather than saturated or truncated.
    #[test]
    fn integers_on_the_wire_are_exact() {
        let alloc = |size| Request::Alloc {
            tenant: "t".into(),
            size,
            criterion: attr::CAPACITY,
            fallback: Fallback::Strict,
            label: None,
            ttl: None,
        };
        let line = alloc(9_000_000_000_000_000).to_json();
        assert!(line.contains(r#""size":9000000000000000,"#), "{line}");
        let line = alloc(u64::MAX).to_json();
        assert!(line.contains(r#""size":18446744073709551615,"#), "{line}");
        assert_eq!(Request::from_json(&line).expect("u64::MAX"), alloc(u64::MAX));
        let odd = (1u64 << 53) + 1;
        let line = alloc(odd).to_json();
        assert!(line.contains(r#""size":9007199254740993,"#), "{line}");
        assert_eq!(Request::from_json(&line).expect("2^53 + 1"), alloc(odd));
        let sized = |size: &str| {
            Request::from_json(&format!(
                r#"{{"op":"alloc","tenant":"t","size":{size},"criterion":"capacity","fallback":"strict"}}"#
            ))
        };
        assert_eq!(sized("9007199254740993").expect("exact"), alloc(odd));
        assert_eq!(sized("4096.0").expect("float form"), alloc(4096));
        assert_eq!(sized("4.096e3").expect("exponent form"), alloc(4096));
        for refused in ["1e30", "18446744073709551616", "1.8446744073709552e19"] {
            assert!(matches!(sized(refused), Err(ServiceError::Wire(_))), "{refused}");
        }
        let responses = [
            r#"{"ok":1,"tenant_id":4294967296}"#,
            r#"{"ok":1,"renewed":1e30}"#,
            r#"{"ok":1,"lease":1,"size":1,"placement":[[4294967296,1]],"fast_bytes":0}"#,
            r#"{"ok":1,"broker":4294967296,"epoch":0,"tiers":[]}"#,
            r#"{"ok":1,"shards":4294967296,"tenants":[],"nodes":[]}"#,
            r#"{"ok":1,"tenants":[],"nodes":[[4294967296,0,0]]}"#,
        ];
        for line in responses {
            assert!(matches!(Response::from_json(line), Err(ServiceError::Wire(_))), "{line}");
        }
        let forward = r#"{"op":"forward","origin":4294967296,"tenant":"t","size":1}"#;
        assert!(matches!(Request::from_json(forward), Err(ServiceError::Wire(_))));
        assert_eq!(
            Response::from_json(r#"{"ok":1,"tenant_id":4294967295}"#).expect("u32::MAX"),
            Response::Registered { tenant_id: u32::MAX }
        );
    }

    /// A stats frame whose `held` pair has fewer than two cells is a
    /// `wire` error (the tree decoder indexed past the end and
    /// panicked); a longer pair keeps its reading.
    #[test]
    fn a_short_held_pair_is_refused() {
        let stats = |held: &str| {
            Response::from_json(&format!(
                r#"{{"ok":1,"tenants":[{{"id":0,"name":"a","priority":"normal","held":[{held}],"admits":0,"clamps":0,"stalls":0}}],"nodes":[]}}"#
            ))
        };
        assert!(matches!(stats(r#"["hbm"]"#), Err(ServiceError::Wire(_))));
        assert!(matches!(stats("[]"), Err(ServiceError::Wire(_))));
        let Response::Stats { tenants, .. } = stats(r#"["hbm",4096,7]"#).expect("three cells")
        else {
            panic!("a stats frame");
        };
        assert_eq!(tenants[0].held.get(&MemoryKind::Hbm), Some(&4096));
    }

    #[test]
    fn vocabulary_spellings_ignore_ascii_case() {
        assert_eq!(criterion_from_name("ReadBandwidth"), Some(attr::READ_BANDWIDTH));
        assert_eq!(fallback_from_name("SPILL"), Some(Fallback::PartialSpill));
        assert_eq!(kind_from_name("McDram"), Some(MemoryKind::Hbm));
        assert_eq!(kind_from_name("PMEM"), Some(MemoryKind::Nvdimm));
        assert_eq!(kind_from_name("hbm2"), None);
        assert_eq!(criterion_from_name("bandwıdth"), None, "only ASCII case folds");
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
