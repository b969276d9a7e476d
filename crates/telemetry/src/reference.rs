//! The tree-based trace codec that the borrowed reader and direct
//! writer replaced, kept verbatim as a test-only reference. The tests
//! in `lib.rs` hold [`Event::to_json`] and [`Event::from_json`] to it.

use crate::json::tree::{parse, JsonValue};
use crate::*;

/// The replaced tree codec, under names that do not shadow the new one.
pub(crate) trait Reference: Sized {
    /// The tree renderer's line.
    fn ref_to_json(&self) -> String;
    /// The tree decoder's reading of `line`.
    fn ref_from_json(line: &str) -> Result<Self, ParseError>;
}

fn action_name(promoted: bool) -> &'static str {
    if promoted {
        "promote"
    } else {
        "demote"
    }
}

fn action_promoted(name: &str) -> Result<bool, ParseError> {
    match name {
        "promote" => Ok(true),
        "demote" => Ok(false),
        other => Err(ParseError::new(format!("bad action {other:?}"))),
    }
}

fn placement_json(placement: &[(NodeId, u64)]) -> JsonValue {
    JsonValue::Array(
        placement
            .iter()
            .map(|&(n, b)| {
                JsonValue::Array(vec![JsonValue::num(n.0 as f64), JsonValue::num(b as f64)])
            })
            .collect(),
    )
}

/// Traces written before the federation layer gave brokers ids carry
/// no `broker` field and parse as broker 0 (standalone).
fn broker_from_json(v: &JsonValue) -> Result<u32, ParseError> {
    match v.get("broker") {
        Ok(b) => Ok(b.u64()? as u32),
        Err(_) => Ok(0),
    }
}

fn placement_from_json(v: &JsonValue) -> Result<Vec<(NodeId, u64)>, ParseError> {
    v.array()?
        .iter()
        .map(|pair| {
            let pair = pair.array()?;
            if pair.len() != 2 {
                return Err(ParseError::new("placement pair must have two entries"));
            }
            Ok((NodeId(pair[0].u64()? as u32), pair[1].u64()?))
        })
        .collect()
}

impl Reference for Event {
    /// Encodes the event as a single-line JSON object.
    fn ref_to_json(&self) -> String {
        let obj = match self {
            Event::AllocDecision(d) => {
                let mut fields = vec![
                    ("event", JsonValue::str("alloc_decision")),
                    ("region", d.region.map_or(JsonValue::Null, |r| JsonValue::num(r as f64))),
                    ("size", JsonValue::num(d.size as f64)),
                    ("requested", JsonValue::str(&attr_name(d.requested))),
                    ("used", JsonValue::str(&attr_name(d.used))),
                    ("scope", JsonValue::str(d.scope.as_str())),
                    ("fallback", JsonValue::str(d.fallback.as_str())),
                    (
                        "candidates",
                        JsonValue::Array(
                            d.candidates
                                .iter()
                                .map(|c| {
                                    JsonValue::Object(vec![
                                        ("node".into(), JsonValue::num(c.node.0 as f64)),
                                        ("value".into(), JsonValue::num(c.value as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "hops",
                        JsonValue::Array(
                            d.hops
                                .iter()
                                .map(|h| {
                                    JsonValue::Object(vec![
                                        ("node".into(), JsonValue::num(h.node.0 as f64)),
                                        ("reason".into(), JsonValue::str(&h.reason)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("placement", placement_json(&d.placement)),
                ];
                if let Some(e) = &d.error {
                    fields.push(("error", JsonValue::str(e)));
                }
                fields
            }
            Event::AttrFallback(a) => vec![
                ("event", JsonValue::str("attr_fallback")),
                ("requested", JsonValue::str(&attr_name(a.requested))),
                ("used", JsonValue::str(&attr_name(a.used))),
            ],
            Event::Migration(m) => vec![
                ("event", JsonValue::str("migration")),
                ("region", JsonValue::num(m.region as f64)),
                ("from", placement_json(&m.from)),
                ("to", JsonValue::num(m.to.0 as f64)),
                ("bytes_moved", JsonValue::num(m.bytes_moved as f64)),
                ("cost_ns", JsonValue::num(m.cost_ns)),
            ],
            Event::Free(f) => vec![
                ("event", JsonValue::str("free")),
                ("region", JsonValue::num(f.region as f64)),
                ("placement", placement_json(&f.placement)),
            ],
            Event::PhaseSpan(p) => vec![
                ("event", JsonValue::str("phase_span")),
                ("name", JsonValue::str(&p.name)),
                ("time_ns", JsonValue::num(p.time_ns)),
                ("threads", JsonValue::num(p.threads as f64)),
                (
                    "per_node",
                    JsonValue::Array(
                        p.per_node
                            .iter()
                            .map(|t| {
                                JsonValue::Object(vec![
                                    ("node".into(), JsonValue::num(t.node.0 as f64)),
                                    ("bytes_read".into(), JsonValue::num(t.bytes_read as f64)),
                                    (
                                        "bytes_written".into(),
                                        JsonValue::num(t.bytes_written as f64),
                                    ),
                                    ("achieved_bw_mbps".into(), JsonValue::num(t.achieved_bw_mbps)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
            Event::OccupancyGauge(g) => vec![
                ("event", JsonValue::str("occupancy")),
                ("node", JsonValue::num(g.node.0 as f64)),
                ("used", JsonValue::num(g.used as f64)),
                ("high_water", JsonValue::num(g.high_water as f64)),
                ("total", JsonValue::num(g.total as f64)),
            ],
            Event::TieringAction(t) => vec![
                ("event", JsonValue::str("tiering_action")),
                ("region", JsonValue::num(t.region as f64)),
                ("action", JsonValue::str(action_name(t.promoted))),
                ("to", JsonValue::num(t.to.0 as f64)),
                ("cost_ns", JsonValue::num(t.cost_ns)),
            ],
            Event::GuidanceDecision(g) => vec![
                ("event", JsonValue::str("guidance_decision")),
                ("interval", JsonValue::num(g.interval as f64)),
                ("region", JsonValue::num(g.region as f64)),
                ("action", JsonValue::str(action_name(g.promoted))),
                ("to", JsonValue::num(g.to.0 as f64)),
                ("estimated_hotness", JsonValue::num(g.estimated_hotness)),
                ("actual_hotness", JsonValue::num(g.actual_hotness)),
                ("cost_ns", JsonValue::num(g.cost_ns)),
                ("period", JsonValue::num(g.period as f64)),
            ],
            Event::TenantAdmit(t) => vec![
                ("event", JsonValue::str("tenant_admit")),
                ("broker", JsonValue::num(t.broker as f64)),
                ("tenant", JsonValue::str(&t.tenant)),
                ("lease", JsonValue::num(t.lease as f64)),
                ("size", JsonValue::num(t.size as f64)),
                ("placement", placement_json(&t.placement)),
                ("clamped", JsonValue::str(if t.clamped { "yes" } else { "no" })),
                ("fast_bytes", JsonValue::num(t.fast_bytes as f64)),
            ],
            Event::QuotaClamp(q) => vec![
                ("event", JsonValue::str("quota_clamp")),
                ("broker", JsonValue::num(q.broker as f64)),
                ("tenant", JsonValue::str(&q.tenant)),
                ("node", JsonValue::num(q.node.0 as f64)),
                ("requested", JsonValue::num(q.requested as f64)),
                ("allowed", JsonValue::num(q.allowed as f64)),
            ],
            Event::ContentionStall(c) => vec![
                ("event", JsonValue::str("contention_stall")),
                ("broker", JsonValue::num(c.broker as f64)),
                ("tenant", JsonValue::str(&c.tenant)),
                ("node", JsonValue::num(c.node.0 as f64)),
                ("stall_ns", JsonValue::num(c.stall_ns)),
                ("sharers", JsonValue::num(c.sharers as f64)),
            ],
            Event::LeaseExpired(l) => vec![
                ("event", JsonValue::str("lease_expired")),
                ("broker", JsonValue::num(l.broker as f64)),
                ("tenant", JsonValue::str(&l.tenant)),
                ("lease", JsonValue::num(l.lease as f64)),
                ("ttl_epochs", JsonValue::num(l.ttl_epochs as f64)),
            ],
            Event::LeaseRevoked(l) => vec![
                ("event", JsonValue::str("lease_revoked")),
                ("broker", JsonValue::num(l.broker as f64)),
                ("tenant", JsonValue::str(&l.tenant)),
                ("lease", JsonValue::num(l.lease as f64)),
                ("reason", JsonValue::str(&l.reason)),
            ],
            Event::TierDegraded(t) => vec![
                ("event", JsonValue::str("tier_degraded")),
                ("broker", JsonValue::num(t.broker as f64)),
                ("kind", JsonValue::str(&t.kind)),
                ("degraded", JsonValue::str(if t.degraded { "yes" } else { "no" })),
            ],
            Event::RetryExhausted(r) => vec![
                ("event", JsonValue::str("retry_exhausted")),
                ("tenant", JsonValue::str(&r.tenant)),
                ("op", JsonValue::str(&r.op)),
                ("attempts", JsonValue::num(r.attempts as f64)),
                ("last_error", JsonValue::str(&r.last_error)),
            ],
            Event::Reclaim(r) => vec![
                ("event", JsonValue::str("reclaim")),
                ("broker", JsonValue::num(r.broker as f64)),
                ("tenant", JsonValue::str(&r.tenant)),
                ("lease", JsonValue::num(r.lease as f64)),
                ("bytes", JsonValue::num(r.bytes as f64)),
                ("placement", placement_json(&r.placement)),
                ("reason", JsonValue::str(&r.reason)),
            ],
            Event::SpillForwarded(s) => vec![
                ("event", JsonValue::str("spill_forwarded")),
                ("broker", JsonValue::num(s.broker as f64)),
                ("origin", JsonValue::num(s.origin as f64)),
                ("tenant", JsonValue::str(&s.tenant)),
                ("size", JsonValue::num(s.size as f64)),
                ("fast_bytes", JsonValue::num(s.fast_bytes as f64)),
                ("cost_ns", JsonValue::num(s.cost_ns)),
            ],
            Event::DigestMerged(d) => vec![
                ("event", JsonValue::str("digest_merged")),
                ("broker", JsonValue::num(d.broker as f64)),
                ("peer", JsonValue::num(d.peer as f64)),
                ("epoch", JsonValue::num(d.epoch as f64)),
                ("applied", JsonValue::str(if d.applied { "yes" } else { "no" })),
            ],
            Event::BatchCoalesced(b) => vec![
                ("event", JsonValue::str("batch_coalesced")),
                ("broker", JsonValue::num(b.broker as f64)),
                ("shard", JsonValue::num(b.shard as f64)),
                ("tenant", JsonValue::str(&b.tenant)),
                ("merged", JsonValue::num(b.merged as f64)),
                ("bytes", JsonValue::num(b.bytes as f64)),
            ],
            Event::ShardSteal(s) => vec![
                ("event", JsonValue::str("shard_steal")),
                ("broker", JsonValue::num(s.broker as f64)),
                ("thief", JsonValue::num(s.thief as f64)),
                ("victim", JsonValue::num(s.victim as f64)),
                ("stolen", JsonValue::num(s.stolen as f64)),
            ],
            Event::SampleRateChanged(s) => vec![
                ("event", JsonValue::str("sample_rate_changed")),
                ("broker", JsonValue::num(s.broker as f64)),
                ("tenant", JsonValue::str(&s.tenant)),
                ("old_period", JsonValue::num(s.old_period as f64)),
                ("new_period", JsonValue::num(s.new_period as f64)),
            ],
            Event::HotPromoted(h) => vec![
                ("event", JsonValue::str("hot_promoted")),
                ("broker", JsonValue::num(h.broker as f64)),
                ("tenant", JsonValue::str(&h.tenant)),
                ("region", JsonValue::num(h.region as f64)),
                ("to", JsonValue::num(h.to.0 as f64)),
                ("bytes", JsonValue::num(h.bytes as f64)),
                ("cost_ns", JsonValue::num(h.cost_ns)),
            ],
            Event::BudgetExhausted(b) => vec![
                ("event", JsonValue::str("budget_exhausted")),
                ("broker", JsonValue::num(b.broker as f64)),
                ("epoch", JsonValue::num(b.epoch as f64)),
                ("spent_ns", JsonValue::num(b.spent_ns)),
                ("budget_ns", JsonValue::num(b.budget_ns)),
                ("deferred", JsonValue::num(b.deferred as f64)),
            ],
        };
        JsonValue::Object(obj.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).render()
    }

    /// Parses one JSON line produced by [`Event::to_json`].
    fn ref_from_json(line: &str) -> Result<Event, ParseError> {
        let v = parse(line)?;
        let kind = v.get("event")?.string()?;
        match kind.as_str() {
            "alloc_decision" => {
                let region = match v.get("region")? {
                    JsonValue::Null => None,
                    other => Some(other.u64()?),
                };
                Ok(Event::AllocDecision(AllocDecision {
                    region,
                    size: v.get("size")?.u64()?,
                    requested: attr_id(&v.get("requested")?.string()?)?,
                    used: attr_id(&v.get("used")?.string()?)?,
                    scope: match v.get("scope")?.string()?.as_str() {
                        "local" => Scope::Local,
                        "any" => Scope::Any,
                        other => return Err(ParseError::new(format!("bad scope {other:?}"))),
                    },
                    fallback: match v.get("fallback")?.string()?.as_str() {
                        "strict" => FallbackMode::Strict,
                        "next_target" => FallbackMode::NextTarget,
                        "partial_spill" => FallbackMode::PartialSpill,
                        other => return Err(ParseError::new(format!("bad fallback {other:?}"))),
                    },
                    candidates: v
                        .get("candidates")?
                        .array()?
                        .iter()
                        .map(|c| {
                            Ok(Candidate {
                                node: NodeId(c.get("node")?.u64()? as u32),
                                value: c.get("value")?.u64()?,
                            })
                        })
                        .collect::<Result<_, ParseError>>()?,
                    hops: v
                        .get("hops")?
                        .array()?
                        .iter()
                        .map(|h| {
                            Ok(Hop {
                                node: NodeId(h.get("node")?.u64()? as u32),
                                reason: h.get("reason")?.string()?,
                            })
                        })
                        .collect::<Result<_, ParseError>>()?,
                    placement: placement_from_json(&v.get("placement")?)?,
                    error: match v.get("error") {
                        Ok(e) => Some(e.string()?),
                        Err(_) => None,
                    },
                }))
            }
            "attr_fallback" => Ok(Event::AttrFallback(AttrFallback {
                requested: attr_id(&v.get("requested")?.string()?)?,
                used: attr_id(&v.get("used")?.string()?)?,
            })),
            "migration" => Ok(Event::Migration(Migration {
                region: v.get("region")?.u64()?,
                from: placement_from_json(&v.get("from")?)?,
                to: NodeId(v.get("to")?.u64()? as u32),
                bytes_moved: v.get("bytes_moved")?.u64()?,
                cost_ns: v.get("cost_ns")?.f64()?,
            })),
            "free" => Ok(Event::Free(FreeEvent {
                region: v.get("region")?.u64()?,
                placement: placement_from_json(&v.get("placement")?)?,
            })),
            "phase_span" => Ok(Event::PhaseSpan(PhaseSpan {
                name: v.get("name")?.string()?,
                time_ns: v.get("time_ns")?.f64()?,
                threads: v.get("threads")?.u64()?,
                per_node: v
                    .get("per_node")?
                    .array()?
                    .iter()
                    .map(|t| {
                        Ok(NodeTrafficSample {
                            node: NodeId(t.get("node")?.u64()? as u32),
                            bytes_read: t.get("bytes_read")?.u64()?,
                            bytes_written: t.get("bytes_written")?.u64()?,
                            achieved_bw_mbps: t.get("achieved_bw_mbps")?.f64()?,
                        })
                    })
                    .collect::<Result<_, ParseError>>()?,
            })),
            "occupancy" => Ok(Event::OccupancyGauge(OccupancyGauge {
                node: NodeId(v.get("node")?.u64()? as u32),
                used: v.get("used")?.u64()?,
                high_water: v.get("high_water")?.u64()?,
                total: v.get("total")?.u64()?,
            })),
            "tiering_action" => Ok(Event::TieringAction(TieringEvent {
                region: v.get("region")?.u64()?,
                promoted: action_promoted(&v.get("action")?.string()?)?,
                to: NodeId(v.get("to")?.u64()? as u32),
                cost_ns: v.get("cost_ns")?.f64()?,
            })),
            "guidance_decision" => Ok(Event::GuidanceDecision(GuidanceDecision {
                interval: v.get("interval")?.u64()?,
                region: v.get("region")?.u64()?,
                promoted: action_promoted(&v.get("action")?.string()?)?,
                to: NodeId(v.get("to")?.u64()? as u32),
                estimated_hotness: v.get("estimated_hotness")?.f64()?,
                actual_hotness: v.get("actual_hotness")?.f64()?,
                cost_ns: v.get("cost_ns")?.f64()?,
                period: v.get("period")?.u64()?,
            })),
            "tenant_admit" => Ok(Event::TenantAdmit(TenantAdmit {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                lease: v.get("lease")?.u64()?,
                size: v.get("size")?.u64()?,
                placement: placement_from_json(&v.get("placement")?)?,
                clamped: match v.get("clamped")?.string()?.as_str() {
                    "yes" => true,
                    "no" => false,
                    other => return Err(ParseError::new(format!("bad clamped {other:?}"))),
                },
                fast_bytes: v.get("fast_bytes")?.u64()?,
            })),
            "quota_clamp" => Ok(Event::QuotaClamp(QuotaClamp {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                node: NodeId(v.get("node")?.u64()? as u32),
                requested: v.get("requested")?.u64()?,
                allowed: v.get("allowed")?.u64()?,
            })),
            "contention_stall" => Ok(Event::ContentionStall(ContentionStall {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                node: NodeId(v.get("node")?.u64()? as u32),
                stall_ns: v.get("stall_ns")?.f64()?,
                sharers: v.get("sharers")?.u64()?,
            })),
            "lease_expired" => Ok(Event::LeaseExpired(LeaseExpired {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                lease: v.get("lease")?.u64()?,
                ttl_epochs: v.get("ttl_epochs")?.u64()?,
            })),
            "lease_revoked" => Ok(Event::LeaseRevoked(LeaseRevoked {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                lease: v.get("lease")?.u64()?,
                reason: v.get("reason")?.string()?,
            })),
            "tier_degraded" => Ok(Event::TierDegraded(TierDegraded {
                broker: broker_from_json(&v)?,
                kind: v.get("kind")?.string()?,
                degraded: match v.get("degraded")?.string()?.as_str() {
                    "yes" => true,
                    "no" => false,
                    other => return Err(ParseError::new(format!("bad degraded {other:?}"))),
                },
            })),
            "retry_exhausted" => Ok(Event::RetryExhausted(RetryExhausted {
                tenant: v.get("tenant")?.string()?,
                op: v.get("op")?.string()?,
                attempts: v.get("attempts")?.u64()?,
                last_error: v.get("last_error")?.string()?,
            })),
            "reclaim" => Ok(Event::Reclaim(Reclaim {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                lease: v.get("lease")?.u64()?,
                bytes: v.get("bytes")?.u64()?,
                placement: placement_from_json(&v.get("placement")?)?,
                reason: v.get("reason")?.string()?,
            })),
            "spill_forwarded" => Ok(Event::SpillForwarded(SpillForwarded {
                broker: broker_from_json(&v)?,
                origin: v.get("origin")?.u64()? as u32,
                tenant: v.get("tenant")?.string()?,
                size: v.get("size")?.u64()?,
                fast_bytes: v.get("fast_bytes")?.u64()?,
                cost_ns: v.get("cost_ns")?.f64()?,
            })),
            "digest_merged" => Ok(Event::DigestMerged(DigestMerged {
                broker: broker_from_json(&v)?,
                peer: v.get("peer")?.u64()? as u32,
                epoch: v.get("epoch")?.u64()?,
                applied: match v.get("applied")?.string()?.as_str() {
                    "yes" => true,
                    "no" => false,
                    other => return Err(ParseError::new(format!("bad applied {other:?}"))),
                },
            })),
            "batch_coalesced" => Ok(Event::BatchCoalesced(BatchCoalesced {
                broker: broker_from_json(&v)?,
                shard: v.get("shard")?.u64()? as u32,
                tenant: v.get("tenant")?.string()?,
                merged: v.get("merged")?.u64()?,
                bytes: v.get("bytes")?.u64()?,
            })),
            "shard_steal" => Ok(Event::ShardSteal(ShardSteal {
                broker: broker_from_json(&v)?,
                thief: v.get("thief")?.u64()? as u32,
                victim: v.get("victim")?.u64()? as u32,
                stolen: v.get("stolen")?.u64()?,
            })),
            "sample_rate_changed" => Ok(Event::SampleRateChanged(SampleRateChanged {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                old_period: v.get("old_period")?.u64()?,
                new_period: v.get("new_period")?.u64()?,
            })),
            "hot_promoted" => Ok(Event::HotPromoted(HotPromoted {
                broker: broker_from_json(&v)?,
                tenant: v.get("tenant")?.string()?,
                region: v.get("region")?.u64()?,
                to: NodeId(v.get("to")?.u64()? as u32),
                bytes: v.get("bytes")?.u64()?,
                cost_ns: v.get("cost_ns")?.f64()?,
            })),
            "budget_exhausted" => Ok(Event::BudgetExhausted(BudgetExhausted {
                broker: broker_from_json(&v)?,
                epoch: v.get("epoch")?.u64()?,
                spent_ns: v.get("spent_ns")?.f64()?,
                budget_ns: v.get("budget_ns")?.f64()?,
                deferred: v.get("deferred")?.u64()?,
            })),
            other => Err(ParseError::new(format!("unknown event kind {other:?}"))),
        }
    }
}
