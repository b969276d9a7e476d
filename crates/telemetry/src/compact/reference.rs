//! The hand-written compact codec that the event table replaced, kept
//! verbatim as a test-only reference. The tests in `lib.rs` hold
//! [`super::encode_record`] and [`super::decode_record`] to it.

use super::{put_bool, put_f64, put_placement, put_str, put_u64, CodecError, Cursor};
use crate::{
    AllocDecision, AttrFallback, BatchCoalesced, BudgetExhausted, Candidate, ContentionStall,
    DigestMerged, Event, FallbackMode, FreeEvent, GuidanceDecision, Hop, HotPromoted, LeaseExpired,
    LeaseRevoked, Migration, NodeTrafficSample, OccupancyGauge, PhaseSpan, QuotaClamp, Reclaim,
    RetryExhausted, SampleRateChanged, Scope, ShardSteal, SpillForwarded, TenantAdmit,
    TierDegraded, TieringEvent,
};

fn kind_byte(event: &Event) -> u8 {
    // Matches the [`crate::EVENT_KINDS`] declaration order; a direct
    // match keeps the hot emission path free of string comparisons
    // (`decode_record` round-trip tests pin the correspondence).
    match event {
        Event::AllocDecision(_) => 0,
        Event::AttrFallback(_) => 1,
        Event::Migration(_) => 2,
        Event::Free(_) => 3,
        Event::PhaseSpan(_) => 4,
        Event::OccupancyGauge(_) => 5,
        Event::TieringAction(_) => 6,
        Event::GuidanceDecision(_) => 7,
        Event::TenantAdmit(_) => 8,
        Event::QuotaClamp(_) => 9,
        Event::ContentionStall(_) => 10,
        Event::LeaseExpired(_) => 11,
        Event::LeaseRevoked(_) => 12,
        Event::TierDegraded(_) => 13,
        Event::RetryExhausted(_) => 14,
        Event::Reclaim(_) => 15,
        Event::SpillForwarded(_) => 16,
        Event::DigestMerged(_) => 17,
        Event::BatchCoalesced(_) => 18,
        Event::ShardSteal(_) => 19,
        Event::SampleRateChanged(_) => 20,
        Event::HotPromoted(_) => 21,
        Event::BudgetExhausted(_) => 22,
    }
}

/// Encodes `(epoch, event)` as one compact record appended to `out`.
pub(crate) fn encode_record(epoch: u64, event: &Event, out: &mut Vec<u8>) {
    out.push(kind_byte(event));
    put_u64(out, epoch);
    match event {
        Event::AllocDecision(d) => {
            match d.region {
                Some(r) => {
                    put_bool(out, true);
                    put_u64(out, r);
                }
                None => put_bool(out, false),
            }
            put_u64(out, d.size);
            put_u64(out, d.requested as u64);
            put_u64(out, d.used as u64);
            put_bool(out, d.scope == Scope::Any);
            out.push(match d.fallback {
                FallbackMode::Strict => 0,
                FallbackMode::NextTarget => 1,
                FallbackMode::PartialSpill => 2,
            });
            put_u64(out, d.candidates.len() as u64);
            for c in &d.candidates {
                put_u64(out, c.node.0 as u64);
                put_u64(out, c.value);
            }
            put_u64(out, d.hops.len() as u64);
            for h in &d.hops {
                put_u64(out, h.node.0 as u64);
                put_str(out, &h.reason);
            }
            put_placement(out, &d.placement);
            match &d.error {
                Some(e) => {
                    put_bool(out, true);
                    put_str(out, e);
                }
                None => put_bool(out, false),
            }
        }
        Event::AttrFallback(a) => {
            put_u64(out, a.requested as u64);
            put_u64(out, a.used as u64);
        }
        Event::Migration(m) => {
            put_u64(out, m.region);
            put_placement(out, &m.from);
            put_u64(out, m.to.0 as u64);
            put_u64(out, m.bytes_moved);
            put_f64(out, m.cost_ns);
        }
        Event::Free(f) => {
            put_u64(out, f.region);
            put_placement(out, &f.placement);
        }
        Event::PhaseSpan(p) => {
            put_str(out, &p.name);
            put_f64(out, p.time_ns);
            put_u64(out, p.threads);
            put_u64(out, p.per_node.len() as u64);
            for t in &p.per_node {
                put_u64(out, t.node.0 as u64);
                put_u64(out, t.bytes_read);
                put_u64(out, t.bytes_written);
                put_f64(out, t.achieved_bw_mbps);
            }
        }
        Event::OccupancyGauge(g) => {
            put_u64(out, g.node.0 as u64);
            put_u64(out, g.used);
            put_u64(out, g.high_water);
            put_u64(out, g.total);
        }
        Event::TieringAction(t) => {
            put_u64(out, t.region);
            put_bool(out, t.promoted);
            put_u64(out, t.to.0 as u64);
            put_f64(out, t.cost_ns);
        }
        Event::GuidanceDecision(g) => {
            put_u64(out, g.interval);
            put_u64(out, g.region);
            put_bool(out, g.promoted);
            put_u64(out, g.to.0 as u64);
            put_f64(out, g.estimated_hotness);
            put_f64(out, g.actual_hotness);
            put_f64(out, g.cost_ns);
            put_u64(out, g.period);
        }
        Event::TenantAdmit(t) => {
            put_u64(out, t.broker as u64);
            put_str(out, &t.tenant);
            put_u64(out, t.lease);
            put_u64(out, t.size);
            put_placement(out, &t.placement);
            put_bool(out, t.clamped);
            put_u64(out, t.fast_bytes);
        }
        Event::QuotaClamp(q) => {
            put_u64(out, q.broker as u64);
            put_str(out, &q.tenant);
            put_u64(out, q.node.0 as u64);
            put_u64(out, q.requested);
            put_u64(out, q.allowed);
        }
        Event::ContentionStall(c) => {
            put_u64(out, c.broker as u64);
            put_str(out, &c.tenant);
            put_u64(out, c.node.0 as u64);
            put_f64(out, c.stall_ns);
            put_u64(out, c.sharers);
        }
        Event::LeaseExpired(l) => {
            put_u64(out, l.broker as u64);
            put_str(out, &l.tenant);
            put_u64(out, l.lease);
            put_u64(out, l.ttl_epochs);
        }
        Event::LeaseRevoked(l) => {
            put_u64(out, l.broker as u64);
            put_str(out, &l.tenant);
            put_u64(out, l.lease);
            put_str(out, &l.reason);
        }
        Event::TierDegraded(t) => {
            put_u64(out, t.broker as u64);
            put_str(out, &t.kind);
            put_bool(out, t.degraded);
        }
        Event::RetryExhausted(r) => {
            put_str(out, &r.tenant);
            put_str(out, &r.op);
            put_u64(out, r.attempts);
            put_str(out, &r.last_error);
        }
        Event::Reclaim(r) => {
            put_u64(out, r.broker as u64);
            put_str(out, &r.tenant);
            put_u64(out, r.lease);
            put_u64(out, r.bytes);
            put_placement(out, &r.placement);
            put_str(out, &r.reason);
        }
        Event::SpillForwarded(s) => {
            put_u64(out, s.broker as u64);
            put_u64(out, s.origin as u64);
            put_str(out, &s.tenant);
            put_u64(out, s.size);
            put_u64(out, s.fast_bytes);
            put_f64(out, s.cost_ns);
        }
        Event::DigestMerged(d) => {
            put_u64(out, d.broker as u64);
            put_u64(out, d.peer as u64);
            put_u64(out, d.epoch);
            put_bool(out, d.applied);
        }
        Event::BatchCoalesced(b) => {
            put_u64(out, b.broker as u64);
            put_u64(out, b.shard as u64);
            put_str(out, &b.tenant);
            put_u64(out, b.merged);
            put_u64(out, b.bytes);
        }
        Event::ShardSteal(s) => {
            put_u64(out, s.broker as u64);
            put_u64(out, s.thief as u64);
            put_u64(out, s.victim as u64);
            put_u64(out, s.stolen);
        }
        Event::SampleRateChanged(s) => {
            put_u64(out, s.broker as u64);
            put_str(out, &s.tenant);
            put_u64(out, s.old_period);
            put_u64(out, s.new_period);
        }
        Event::HotPromoted(h) => {
            put_u64(out, h.broker as u64);
            put_str(out, &h.tenant);
            put_u64(out, h.region);
            put_u64(out, h.to.0 as u64);
            put_u64(out, h.bytes);
            put_f64(out, h.cost_ns);
        }
        Event::BudgetExhausted(b) => {
            put_u64(out, b.broker as u64);
            put_u64(out, b.epoch);
            put_f64(out, b.spent_ns);
            put_f64(out, b.budget_ns);
            put_u64(out, b.deferred);
        }
    }
}

/// Decodes one compact record produced by [`encode_record`].
pub(crate) fn decode_record(bytes: &[u8]) -> Result<(u64, Event), CodecError> {
    let mut c = Cursor { bytes, pos: 0 };
    let kind = c.u64()? as usize;
    let epoch = c.u64()?;
    let event = match crate::EVENT_KINDS.get(kind).copied() {
        Some("alloc_decision") => {
            let region = if c.bool()? { Some(c.u64()?) } else { None };
            let size = c.u64()?;
            let requested = c.u32()?;
            let used = c.u32()?;
            let scope = if c.bool()? { Scope::Any } else { Scope::Local };
            let fallback = match c.u64()? {
                0 => FallbackMode::Strict,
                1 => FallbackMode::NextTarget,
                2 => FallbackMode::PartialSpill,
                other => return Err(CodecError::new(format!("bad fallback byte {other}"))),
            };
            let n = c.u64()? as usize;
            let candidates = (0..n)
                .map(|_| Ok(Candidate { node: c.node()?, value: c.u64()? }))
                .collect::<Result<_, CodecError>>()?;
            let n = c.u64()? as usize;
            let hops = (0..n)
                .map(|_| Ok(Hop { node: c.node()?, reason: c.str()? }))
                .collect::<Result<_, CodecError>>()?;
            let placement = c.placement()?;
            let error = if c.bool()? { Some(c.str()?) } else { None };
            Event::AllocDecision(AllocDecision {
                region,
                size,
                requested,
                used,
                scope,
                fallback,
                candidates,
                hops,
                placement,
                error,
            })
        }
        Some("attr_fallback") => {
            Event::AttrFallback(AttrFallback { requested: c.u32()?, used: c.u32()? })
        }
        Some("migration") => Event::Migration(Migration {
            region: c.u64()?,
            from: c.placement()?,
            to: c.node()?,
            bytes_moved: c.u64()?,
            cost_ns: c.f64()?,
        }),
        Some("free") => Event::Free(FreeEvent { region: c.u64()?, placement: c.placement()? }),
        Some("phase_span") => {
            let name = c.str()?;
            let time_ns = c.f64()?;
            let threads = c.u64()?;
            let n = c.u64()? as usize;
            let per_node = (0..n)
                .map(|_| {
                    Ok(NodeTrafficSample {
                        node: c.node()?,
                        bytes_read: c.u64()?,
                        bytes_written: c.u64()?,
                        achieved_bw_mbps: c.f64()?,
                    })
                })
                .collect::<Result<_, CodecError>>()?;
            Event::PhaseSpan(PhaseSpan { name, time_ns, threads, per_node })
        }
        Some("occupancy") => Event::OccupancyGauge(OccupancyGauge {
            node: c.node()?,
            used: c.u64()?,
            high_water: c.u64()?,
            total: c.u64()?,
        }),
        Some("tiering_action") => Event::TieringAction(TieringEvent {
            region: c.u64()?,
            promoted: c.bool()?,
            to: c.node()?,
            cost_ns: c.f64()?,
        }),
        Some("guidance_decision") => Event::GuidanceDecision(GuidanceDecision {
            interval: c.u64()?,
            region: c.u64()?,
            promoted: c.bool()?,
            to: c.node()?,
            estimated_hotness: c.f64()?,
            actual_hotness: c.f64()?,
            cost_ns: c.f64()?,
            period: c.u64()?,
        }),
        Some("tenant_admit") => Event::TenantAdmit(TenantAdmit {
            broker: c.u32()?,
            tenant: c.str()?,
            lease: c.u64()?,
            size: c.u64()?,
            placement: c.placement()?,
            clamped: c.bool()?,
            fast_bytes: c.u64()?,
        }),
        Some("quota_clamp") => Event::QuotaClamp(QuotaClamp {
            broker: c.u32()?,
            tenant: c.str()?,
            node: c.node()?,
            requested: c.u64()?,
            allowed: c.u64()?,
        }),
        Some("contention_stall") => Event::ContentionStall(ContentionStall {
            broker: c.u32()?,
            tenant: c.str()?,
            node: c.node()?,
            stall_ns: c.f64()?,
            sharers: c.u64()?,
        }),
        Some("lease_expired") => Event::LeaseExpired(LeaseExpired {
            broker: c.u32()?,
            tenant: c.str()?,
            lease: c.u64()?,
            ttl_epochs: c.u64()?,
        }),
        Some("lease_revoked") => Event::LeaseRevoked(LeaseRevoked {
            broker: c.u32()?,
            tenant: c.str()?,
            lease: c.u64()?,
            reason: c.str()?,
        }),
        Some("tier_degraded") => Event::TierDegraded(TierDegraded {
            broker: c.u32()?,
            kind: c.str()?,
            degraded: c.bool()?,
        }),
        Some("retry_exhausted") => Event::RetryExhausted(RetryExhausted {
            tenant: c.str()?,
            op: c.str()?,
            attempts: c.u64()?,
            last_error: c.str()?,
        }),
        Some("reclaim") => Event::Reclaim(Reclaim {
            broker: c.u32()?,
            tenant: c.str()?,
            lease: c.u64()?,
            bytes: c.u64()?,
            placement: c.placement()?,
            reason: c.str()?,
        }),
        Some("spill_forwarded") => Event::SpillForwarded(SpillForwarded {
            broker: c.u32()?,
            origin: c.u32()?,
            tenant: c.str()?,
            size: c.u64()?,
            fast_bytes: c.u64()?,
            cost_ns: c.f64()?,
        }),
        Some("digest_merged") => Event::DigestMerged(DigestMerged {
            broker: c.u32()?,
            peer: c.u32()?,
            epoch: c.u64()?,
            applied: c.bool()?,
        }),
        Some("batch_coalesced") => Event::BatchCoalesced(BatchCoalesced {
            broker: c.u32()?,
            shard: c.u32()?,
            tenant: c.str()?,
            merged: c.u64()?,
            bytes: c.u64()?,
        }),
        Some("shard_steal") => Event::ShardSteal(ShardSteal {
            broker: c.u32()?,
            thief: c.u32()?,
            victim: c.u32()?,
            stolen: c.u64()?,
        }),
        Some("sample_rate_changed") => Event::SampleRateChanged(SampleRateChanged {
            broker: c.u32()?,
            tenant: c.str()?,
            old_period: c.u64()?,
            new_period: c.u64()?,
        }),
        Some("hot_promoted") => Event::HotPromoted(HotPromoted {
            broker: c.u32()?,
            tenant: c.str()?,
            region: c.u64()?,
            to: c.node()?,
            bytes: c.u64()?,
            cost_ns: c.f64()?,
        }),
        Some("budget_exhausted") => Event::BudgetExhausted(BudgetExhausted {
            broker: c.u32()?,
            epoch: c.u64()?,
            spent_ns: c.f64()?,
            budget_ns: c.f64()?,
            deferred: c.u64()?,
        }),
        _ => return Err(CodecError::new(format!("unknown kind byte {kind}"))),
    };
    c.done()?;
    Ok((epoch, event))
}
