//! Structured telemetry for heterogeneous-memory placement decisions.
//!
//! The paper's whole point is that placement should be *explainable*
//! by performance attributes; this crate is the layer that makes every
//! decision observable. The allocator, memory manager and access
//! engine emit [`Event`]s into a shared [`TelemetrySink`]:
//!
//! * [`AllocDecision`] — why a buffer landed where it did: the
//!   requested criterion, the attribute actually used after fallback,
//!   the ranked candidates with their attribute values, every fallback
//!   hop (target tried and rejected, with the reason), and the final
//!   placement split when a `PartialSpill` divides the buffer.
//! * [`AttrFallback`] — an attribute substitution, e.g.
//!   ReadBandwidth → Bandwidth when firmware carries no read-specific
//!   values (§IV-B of the paper).
//! * [`Migration`] / [`FreeEvent`] — region lifecycle after placement,
//!   so a trace alone reconstructs the live placement map.
//! * [`PhaseSpan`] — per-node bytes and achieved bandwidth of one
//!   simulated kernel phase.
//! * [`OccupancyGauge`] — per-node used bytes and high-water marks,
//!   sampled at every capacity change.
//!
//! The emission fast path is wait-free: a cloneable [`TelemetrySink`]
//! hands each producing thread a [`ThreadWriter`] owning a per-thread
//! SPSC race buffer (after ekotrace's verified protocol), a
//! [`Collector`] drains every ring tolerating overwrite races with
//! exact per-thread loss counts, and [`compact`] provides the varint
//! on-disk encoding. A [`TelemetrySink::disabled`] sink reports
//! `enabled() == false` so instrumented hot paths skip building events
//! entirely. [`JsonlWriter`] streams one JSON object per line, the
//! format the `--trace` flag of the repro binaries produces.
//! [`Summary`] folds a stream of events into a per-run placement
//! report.

#![warn(missing_docs)]

pub mod compact;
pub mod json;
mod ring;
mod sink;
mod summary;

pub use json::ParseError;
pub use sink::{
    BackgroundCollector, CollectedEvent, Collector, TelemetrySink, ThreadLoss, ThreadWriter,
    DEFAULT_RING_WORDS,
};
pub use summary::{OccupancyStats, PhaseSample, Summary};

use hetmem_topology::NodeId;
use json::{JsonValue, ObjectWriter};
use std::io::Write;
use std::sync::Mutex;

/// Whether a ranking considered only the initiator's local targets or
/// every target on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Targets local to the initiator (the paper's default).
    Local,
    /// All targets, local or remote (the §VIII escape hatch).
    Any,
}

impl Scope {
    fn as_str(self) -> &'static str {
        match self {
            Scope::Local => "local",
            Scope::Any => "any",
        }
    }
}

/// The fallback mode an allocation ran under (mirrors
/// `hetmem_alloc::Fallback` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// Fail if the best target cannot hold the buffer.
    Strict,
    /// Retry whole buffers down the ranking.
    NextTarget,
    /// Split across the ranking at page granularity.
    PartialSpill,
}

impl FallbackMode {
    fn as_str(self) -> &'static str {
        match self {
            FallbackMode::Strict => "strict",
            FallbackMode::NextTarget => "next_target",
            FallbackMode::PartialSpill => "partial_spill",
        }
    }
}

/// One ranked candidate target and its attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The target node.
    pub node: NodeId,
    /// The attribute value the ranking used (MiB/s, ns or bytes,
    /// depending on the attribute).
    pub value: u64,
}

/// One fallback hop: a target that was tried and could not take the
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The rejected target.
    pub node: NodeId,
    /// Why it was rejected (stringified allocation error).
    pub reason: String,
}

/// A fully explained allocation decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocDecision {
    /// The region created, `None` when the allocation failed.
    pub region: Option<u64>,
    /// Requested bytes.
    pub size: u64,
    /// The attribute the caller asked for.
    pub requested: u32,
    /// The attribute actually used after attribute fallback.
    pub used: u32,
    /// Locality scope of the ranking.
    pub scope: Scope,
    /// Capacity-fallback mode.
    pub fallback: FallbackMode,
    /// The ranked candidates, best first, with attribute values.
    pub candidates: Vec<Candidate>,
    /// Targets tried and rejected before the decision resolved.
    pub hops: Vec<Hop>,
    /// Final placement split `(node, bytes)`; more than one entry
    /// means a spill. Empty when the allocation failed.
    pub placement: Vec<(NodeId, u64)>,
    /// The failure, if the allocation failed.
    pub error: Option<String>,
}

/// An attribute substitution (e.g. ReadBandwidth → Bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrFallback {
    /// The attribute the caller asked for.
    pub requested: u32,
    /// The similar attribute used instead.
    pub used: u32,
}

/// A region moved between nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Migration {
    /// The migrated region.
    pub region: u64,
    /// Placement before the move.
    pub from: Vec<(NodeId, u64)>,
    /// Destination node.
    pub to: NodeId,
    /// Bytes actually moved.
    pub bytes_moved: u64,
    /// Modelled migration cost in nanoseconds.
    pub cost_ns: f64,
}

/// A region freed.
#[derive(Debug, Clone, PartialEq)]
pub struct FreeEvent {
    /// The freed region.
    pub region: u64,
    /// Placement the region held when freed.
    pub placement: Vec<(NodeId, u64)>,
}

/// Per-node traffic of one simulated phase.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrafficSample {
    /// The node.
    pub node: NodeId,
    /// Bytes read from the node.
    pub bytes_read: u64,
    /// Bytes written to the node.
    pub bytes_written: u64,
    /// Achieved bandwidth, MiB/s.
    pub achieved_bw_mbps: f64,
}

/// One simulated kernel phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: String,
    /// Modelled wall time, ns.
    pub time_ns: f64,
    /// Thread count.
    pub threads: u64,
    /// Per-node traffic.
    pub per_node: Vec<NodeTrafficSample>,
}

/// A capacity sample for one node, emitted at every change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyGauge {
    /// The node.
    pub node: NodeId,
    /// Bytes currently allocated.
    pub used: u64,
    /// Highest `used` observed so far.
    pub high_water: u64,
    /// Usable capacity of the node.
    pub total: u64,
}

/// A promotion or demotion decided by the phase-boundary tiering
/// daemon (the underlying copy also emits a [`Migration`]; this event
/// records *why* it happened).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieringEvent {
    /// The moved region.
    pub region: u64,
    /// `true` for a promotion to the hot tier, `false` for a demotion.
    pub promoted: bool,
    /// Destination node.
    pub to: NodeId,
    /// Migration cost, ns.
    pub cost_ns: f64,
}

/// One action of the online guidance engine, recording the imperfect
/// sampled hotness estimate that drove it next to the ground truth it
/// could not see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidanceDecision {
    /// Global guidance-interval counter when the action was taken.
    pub interval: u64,
    /// The moved region.
    pub region: u64,
    /// `true` for a promotion to the hot tier, `false` for a demotion.
    pub promoted: bool,
    /// Destination node.
    pub to: NodeId,
    /// Estimated hotness — the region's EWMA share of sampled traffic
    /// (0..=1) when the decision fired.
    pub estimated_hotness: f64,
    /// Ground-truth hotness — the region's share of the triggering
    /// interval's actual traffic (0..=1).
    pub actual_hotness: f64,
    /// Migration cost, ns.
    pub cost_ns: f64,
    /// Sampling period (accesses per sample) in effect.
    pub period: u64,
}

/// A broker admission: a tenant's allocation request was granted a
/// lease after fair-share arbitration (`hetmem-service`).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAdmit {
    /// Id of the broker instance that granted the lease (0 for a
    /// standalone broker).
    pub broker: u32,
    /// Tenant name.
    pub tenant: String,
    /// The lease id granted.
    pub lease: u64,
    /// Requested bytes.
    pub size: u64,
    /// Final placement split `(node, bytes)`.
    pub placement: Vec<(NodeId, u64)>,
    /// Whether any candidate was refused by quota/share enforcement
    /// on the way to this placement.
    pub clamped: bool,
    /// Bytes that landed on the machine's fast tier.
    pub fast_bytes: u64,
}

/// A fair-share denial on one node: the arbiter refused to place
/// bytes for a tenant there because the tenant's quota or the
/// guaranteed shares of other tenants left no room.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaClamp {
    /// Id of the broker instance that refused the bytes.
    pub broker: u32,
    /// Tenant name.
    pub tenant: String,
    /// The node the bytes were refused on.
    pub node: NodeId,
    /// Bytes the tenant wanted on the node.
    pub requested: u64,
    /// Bytes the arbiter was willing to grant there.
    pub allowed: u64,
}

/// Bandwidth degradation charged to a tenant because co-located
/// tenants saturated a node in the same service epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionStall {
    /// Id of the broker instance charging the stall.
    pub broker: u32,
    /// The tenant being slowed down.
    pub tenant: String,
    /// The saturated node.
    pub node: NodeId,
    /// Extra time charged, ns.
    pub stall_ns: f64,
    /// Tenants driving traffic at the node this epoch (including the
    /// stalled one).
    pub sharers: u64,
}

/// A lease aged out: the owning tenant stopped renewing it for a full
/// TTL, so the broker reclaimed the capacity (paired with a
/// [`Reclaim`] event carrying the returned bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseExpired {
    /// Id of the broker instance that owned the lease.
    pub broker: u32,
    /// Tenant name.
    pub tenant: String,
    /// The expired lease id.
    pub lease: u64,
    /// The TTL the lease ran under, in service epochs.
    pub ttl_epochs: u64,
}

/// A lease was revoked before its natural release — the connection
/// that created it dropped, or an operator/fault path pulled it.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseRevoked {
    /// Id of the broker instance that owned the lease.
    pub broker: u32,
    /// Tenant name.
    pub tenant: String,
    /// The revoked lease id.
    pub lease: u64,
    /// Why it was revoked (`"disconnect"`, `"operator"`, ...).
    pub reason: String,
}

/// A memory tier changed health. Degraded tiers are demoted to
/// last-resort rank so new placements fall back to healthy tiers
/// instead of hard-failing.
#[derive(Debug, Clone, PartialEq)]
pub struct TierDegraded {
    /// Id of the broker instance whose shard is affected.
    pub broker: u32,
    /// The tier, by wire name (`"hbm"`, `"dram"`, `"nvdimm"`, ...).
    pub kind: String,
    /// `true` when entering the degraded state, `false` on recovery.
    pub degraded: bool,
}

/// A client exhausted its retry budget against a stalled or failing
/// broker and surfaced the error to the application.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryExhausted {
    /// Tenant name (empty when the failure happened before
    /// registration).
    pub tenant: String,
    /// The wire op that was retried (`"alloc"`, `"renew"`, ...).
    pub op: String,
    /// Attempts made, including the first.
    pub attempts: u64,
    /// The error that ended the last attempt.
    pub last_error: String,
}

/// Capacity returned to the shared pool outside the normal release
/// path — the accounting side of an expiry or revocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Reclaim {
    /// Id of the broker instance that reclaimed the capacity.
    pub broker: u32,
    /// Tenant whose quota the bytes were charged against.
    pub tenant: String,
    /// The reclaimed lease id.
    pub lease: u64,
    /// Total bytes returned.
    pub bytes: u64,
    /// Placement split `(node, bytes)` that was freed.
    pub placement: Vec<(NodeId, u64)>,
    /// What triggered the reclaim (`"expired"`, `"revoked"`).
    pub reason: String,
}

/// A residual allocation served on behalf of a peer broker: the
/// tenant's home broker ran out of shard capacity and forwarded the
/// remainder here (federation cross-broker spill). Emitted by the
/// *serving* peer, so per-broker traces attribute the bytes to the
/// shard that actually holds them.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillForwarded {
    /// Id of the peer broker that served the forwarded bytes (the
    /// emitter).
    pub broker: u32,
    /// Id of the tenant's home broker that forwarded the request.
    pub origin: u32,
    /// Tenant name.
    pub tenant: String,
    /// Forwarded bytes granted here.
    pub size: u64,
    /// Of those, bytes that landed on the machine's fast tier.
    pub fast_bytes: u64,
    /// Modelled forwarding cost (round trip plus transfer), ns.
    pub cost_ns: f64,
}

/// A peer's capacity digest was merged into a broker's federation
/// board. `applied == false` means the held entry was already newer
/// under the last-writer-wins order, so the merge was a no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestMerged {
    /// Id of the broker doing the merging.
    pub broker: u32,
    /// Id of the peer the digest describes.
    pub peer: u32,
    /// Epoch stamp of the incoming digest.
    pub epoch: u64,
    /// Whether the incoming digest replaced the held entry.
    pub applied: bool,
}

/// Several same-tenant, same-attribute admissions were merged into a
/// single placement planning walk in one shard tick. The grants
/// fan back out to the individual requests; this event records only
/// the merge itself (one per coalesced batch).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCoalesced {
    /// Id of the emitting broker (0 standalone).
    pub broker: u32,
    /// Index of the shard whose queue was coalesced.
    pub shard: u32,
    /// Tenant whose requests were merged.
    pub tenant: String,
    /// Number of requests merged into the single planning walk (≥ 2).
    pub merged: u64,
    /// Total bytes requested across the merged batch.
    pub bytes: u64,
}

/// A shard's steal thread found its own admission queue idle and stole
/// pending work from the most-loaded sibling shard. Retired: no daemon
/// emits it any more; the kind stays so older traces still decode.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSteal {
    /// Id of the emitting broker (0 standalone).
    pub broker: u32,
    /// Index of the idle shard that stole the work.
    pub thief: u32,
    /// Index of the loaded shard the work was taken from.
    pub victim: u32,
    /// Number of queued requests moved.
    pub stolen: u64,
}

/// A tenant's adaptive guidance sampler retuned its period: backed
/// off while the hot-set estimate was stable, or burst to the minimum
/// period on a detected phase change.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRateChanged {
    /// Id of the emitting broker (0 standalone).
    pub broker: u32,
    /// The tenant whose sampler retuned.
    pub tenant: String,
    /// Period before the change (accesses per sample).
    pub old_period: u64,
    /// Period after the change.
    pub new_period: u64,
}

/// The broker's epoch fold promoted a tenant's hot region onto the
/// fast tier at arbitration time.
#[derive(Debug, Clone, PartialEq)]
pub struct HotPromoted {
    /// Id of the emitting broker (0 standalone).
    pub broker: u32,
    /// The tenant owning the promoted region.
    pub tenant: String,
    /// The promoted region's id.
    pub region: u64,
    /// Destination node (the fast-tier target).
    pub to: NodeId,
    /// Region size, bytes.
    pub bytes: u64,
    /// Modelled migration cost charged to the epoch budget, ns.
    pub cost_ns: f64,
}

/// An epoch's migration budget ran out before every planned move was
/// executed; the remainder is deferred to a later epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetExhausted {
    /// Id of the emitting broker (0 standalone).
    pub broker: u32,
    /// The epoch whose fold hit the cap.
    pub epoch: u64,
    /// Migration cost charged before the cap was hit, ns.
    pub spent_ns: f64,
    /// The per-epoch cap, ns.
    pub budget_ns: f64,
    /// Planned moves deferred past the cap.
    pub deferred: u64,
}

/// A telemetry event.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// An allocation decision (success or failure).
    AllocDecision(AllocDecision),
    /// An attribute substitution.
    AttrFallback(AttrFallback),
    /// A region migration.
    Migration(Migration),
    /// A region free.
    Free(FreeEvent),
    /// A simulated phase.
    PhaseSpan(PhaseSpan),
    /// A node occupancy sample.
    OccupancyGauge(OccupancyGauge),
    /// A tiering-daemon promotion or demotion.
    TieringAction(TieringEvent),
    /// An online-guidance promotion or demotion.
    GuidanceDecision(GuidanceDecision),
    /// A broker admission (multi-tenant service).
    TenantAdmit(TenantAdmit),
    /// A fair-share denial on one node (multi-tenant service).
    QuotaClamp(QuotaClamp),
    /// Contention-induced slowdown charged to a tenant.
    ContentionStall(ContentionStall),
    /// A lease aged out without renewal (multi-tenant service).
    LeaseExpired(LeaseExpired),
    /// A lease was revoked (disconnect, operator, fault).
    LeaseRevoked(LeaseRevoked),
    /// A tier entered or left the degraded state.
    TierDegraded(TierDegraded),
    /// A client gave up after its retry budget.
    RetryExhausted(RetryExhausted),
    /// Capacity reclaimed from an expired or revoked lease.
    Reclaim(Reclaim),
    /// A forwarded residual allocation served for a peer broker.
    SpillForwarded(SpillForwarded),
    /// A peer capacity digest merged into a federation board.
    DigestMerged(DigestMerged),
    /// Same-tenant admissions merged into one planning walk (shard
    /// dispatch plane).
    BatchCoalesced(BatchCoalesced),
    /// An idle shard stole queued admissions from a loaded sibling.
    ShardSteal(ShardSteal),
    /// A tenant's adaptive sampler backed off or burst its period.
    SampleRateChanged(SampleRateChanged),
    /// The epoch fold promoted a tenant's hot region to the fast tier.
    HotPromoted(HotPromoted),
    /// An epoch's migration budget ran out; moves were deferred.
    BudgetExhausted(BudgetExhausted),
}

/// The `event` field value of every [`Event`] variant, in declaration
/// order. `docs/PROTOCOL.md` coverage tests enumerate this list so the
/// spec cannot silently fall behind the enum.
pub const EVENT_KINDS: &[&str] = &[
    "alloc_decision",
    "attr_fallback",
    "migration",
    "free",
    "phase_span",
    "occupancy",
    "tiering_action",
    "guidance_decision",
    "tenant_admit",
    "quota_clamp",
    "contention_stall",
    "lease_expired",
    "lease_revoked",
    "tier_degraded",
    "retry_exhausted",
    "reclaim",
    "spill_forwarded",
    "digest_merged",
    "batch_coalesced",
    "shard_steal",
    "sample_rate_changed",
    "hot_promoted",
    "budget_exhausted",
];

/// Human-readable name for the well-known attribute ids of
/// `hetmem-core` (custom attributes render as `attr#N`).
pub fn attr_name(id: u32) -> String {
    match id {
        0 => "Capacity".into(),
        1 => "Locality".into(),
        2 => "Bandwidth".into(),
        3 => "Latency".into(),
        4 => "ReadBandwidth".into(),
        5 => "WriteBandwidth".into(),
        6 => "ReadLatency".into(),
        7 => "WriteLatency".into(),
        n => format!("attr#{n}"),
    }
}

fn write_placement(o: &mut ObjectWriter<'_>, key: &str, placement: &[(NodeId, u64)]) {
    o.array(key, |a| {
        for &(n, b) in placement {
            a.array(|p| {
                p.uint(n.0).uint(b);
            });
        }
    });
}

fn string(v: &JsonValue, key: &str) -> Result<String, ParseError> {
    Ok(v.field(key)?.as_str()?.to_owned())
}

fn uint<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<T, ParseError> {
    v.field(key)?.as_uint()
}

fn float(v: &JsonValue, key: &str) -> Result<f64, ParseError> {
    v.field(key)?.as_f64()
}

fn node(v: &JsonValue, key: &str) -> Result<NodeId, ParseError> {
    uint(v, key).map(NodeId)
}

fn yes_no(v: &JsonValue, key: &str) -> Result<bool, ParseError> {
    match v.field(key)?.as_str()? {
        "yes" => Ok(true),
        "no" => Ok(false),
        other => Err(ParseError::new(format!("bad {key} {other:?}"))),
    }
}

/// Traces written before the federation layer gave brokers ids carry
/// no `broker` field and parse as broker 0 (standalone).
fn broker_from_json(v: &JsonValue) -> Result<u32, ParseError> {
    v.get("broker").map_or(Ok(0), JsonValue::as_uint)
}

fn placement_from_json(v: &JsonValue) -> Result<Vec<(NodeId, u64)>, ParseError> {
    v.as_array()?
        .iter()
        .map(|pair| match pair.as_array()? {
            [n, b] => Ok((NodeId(n.as_uint()?), b.as_uint()?)),
            _ => Err(ParseError::new("placement pair must have two entries")),
        })
        .collect()
}

impl Event {
    /// The `event` field value this variant encodes to — one of
    /// [`EVENT_KINDS`].
    ///
    /// ```
    /// use hetmem_telemetry::{Event, LeaseExpired, EVENT_KINDS};
    /// let e = Event::LeaseExpired(LeaseExpired {
    ///     broker: 0,
    ///     tenant: "graph500".into(),
    ///     lease: 7,
    ///     ttl_epochs: 5,
    /// });
    /// assert_eq!(e.kind(), "lease_expired");
    /// assert!(EVENT_KINDS.contains(&e.kind()));
    /// ```
    pub fn kind(&self) -> &'static str {
        match self {
            Event::AllocDecision(_) => "alloc_decision",
            Event::AttrFallback(_) => "attr_fallback",
            Event::Migration(_) => "migration",
            Event::Free(_) => "free",
            Event::PhaseSpan(_) => "phase_span",
            Event::OccupancyGauge(_) => "occupancy",
            Event::TieringAction(_) => "tiering_action",
            Event::GuidanceDecision(_) => "guidance_decision",
            Event::TenantAdmit(_) => "tenant_admit",
            Event::QuotaClamp(_) => "quota_clamp",
            Event::ContentionStall(_) => "contention_stall",
            Event::LeaseExpired(_) => "lease_expired",
            Event::LeaseRevoked(_) => "lease_revoked",
            Event::TierDegraded(_) => "tier_degraded",
            Event::RetryExhausted(_) => "retry_exhausted",
            Event::Reclaim(_) => "reclaim",
            Event::SpillForwarded(_) => "spill_forwarded",
            Event::DigestMerged(_) => "digest_merged",
            Event::BatchCoalesced(_) => "batch_coalesced",
            Event::ShardSteal(_) => "shard_steal",
            Event::SampleRateChanged(_) => "sample_rate_changed",
            Event::HotPromoted(_) => "hot_promoted",
            Event::BudgetExhausted(_) => "budget_exhausted",
        }
    }

    /// Encodes the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(256);
        json::write_object(&mut line, |o| {
            o.str("event", self.kind());
            match self {
                Event::AllocDecision(d) => {
                    o.opt_uint("region", d.region).uint("size", d.size);
                    o.str("requested", &attr_name(d.requested)).str("used", &attr_name(d.used));
                    o.str("scope", d.scope.as_str()).str("fallback", d.fallback.as_str());
                    o.array("candidates", |a| {
                        for c in &d.candidates {
                            a.object(|o| {
                                o.uint("node", c.node.0).uint("value", c.value);
                            });
                        }
                    });
                    o.array("hops", |a| {
                        for h in &d.hops {
                            a.object(|o| {
                                o.uint("node", h.node.0).str("reason", &h.reason);
                            });
                        }
                    });
                    write_placement(o, "placement", &d.placement);
                    if let Some(e) = &d.error {
                        o.str("error", e);
                    }
                }
                Event::AttrFallback(a) => {
                    o.str("requested", &attr_name(a.requested)).str("used", &attr_name(a.used));
                }
                Event::Migration(m) => {
                    o.uint("region", m.region);
                    write_placement(o, "from", &m.from);
                    o.uint("to", m.to.0)
                        .uint("bytes_moved", m.bytes_moved)
                        .f64("cost_ns", m.cost_ns);
                }
                Event::Free(f) => {
                    o.uint("region", f.region);
                    write_placement(o, "placement", &f.placement);
                }
                Event::PhaseSpan(p) => {
                    o.str("name", &p.name).f64("time_ns", p.time_ns).uint("threads", p.threads);
                    o.array("per_node", |a| {
                        for t in &p.per_node {
                            a.object(|o| {
                                o.uint("node", t.node.0).uint("bytes_read", t.bytes_read);
                                o.uint("bytes_written", t.bytes_written);
                                o.f64("achieved_bw_mbps", t.achieved_bw_mbps);
                            });
                        }
                    });
                }
                Event::OccupancyGauge(g) => {
                    o.uint("node", g.node.0).uint("used", g.used);
                    o.uint("high_water", g.high_water).uint("total", g.total);
                }
                Event::TieringAction(t) => {
                    o.uint("region", t.region).str("action", action_name(t.promoted));
                    o.uint("to", t.to.0).f64("cost_ns", t.cost_ns);
                }
                Event::GuidanceDecision(g) => {
                    o.uint("interval", g.interval).uint("region", g.region);
                    o.str("action", action_name(g.promoted)).uint("to", g.to.0);
                    o.f64("estimated_hotness", g.estimated_hotness);
                    o.f64("actual_hotness", g.actual_hotness).f64("cost_ns", g.cost_ns);
                    o.uint("period", g.period);
                }
                Event::TenantAdmit(t) => {
                    o.uint("broker", t.broker).str("tenant", &t.tenant);
                    o.uint("lease", t.lease).uint("size", t.size);
                    write_placement(o, "placement", &t.placement);
                    o.str("clamped", yes_no_name(t.clamped)).uint("fast_bytes", t.fast_bytes);
                }
                Event::QuotaClamp(q) => {
                    o.uint("broker", q.broker).str("tenant", &q.tenant).uint("node", q.node.0);
                    o.uint("requested", q.requested).uint("allowed", q.allowed);
                }
                Event::ContentionStall(c) => {
                    o.uint("broker", c.broker).str("tenant", &c.tenant).uint("node", c.node.0);
                    o.f64("stall_ns", c.stall_ns).uint("sharers", c.sharers);
                }
                Event::LeaseExpired(l) => {
                    o.uint("broker", l.broker).str("tenant", &l.tenant);
                    o.uint("lease", l.lease).uint("ttl_epochs", l.ttl_epochs);
                }
                Event::LeaseRevoked(l) => {
                    o.uint("broker", l.broker).str("tenant", &l.tenant);
                    o.uint("lease", l.lease).str("reason", &l.reason);
                }
                Event::TierDegraded(t) => {
                    o.uint("broker", t.broker).str("kind", &t.kind);
                    o.str("degraded", yes_no_name(t.degraded));
                }
                Event::RetryExhausted(r) => {
                    o.str("tenant", &r.tenant).str("op", &r.op).uint("attempts", r.attempts);
                    o.str("last_error", &r.last_error);
                }
                Event::Reclaim(r) => {
                    o.uint("broker", r.broker).str("tenant", &r.tenant);
                    o.uint("lease", r.lease).uint("bytes", r.bytes);
                    write_placement(o, "placement", &r.placement);
                    o.str("reason", &r.reason);
                }
                Event::SpillForwarded(s) => {
                    o.uint("broker", s.broker).uint("origin", s.origin).str("tenant", &s.tenant);
                    o.uint("size", s.size)
                        .uint("fast_bytes", s.fast_bytes)
                        .f64("cost_ns", s.cost_ns);
                }
                Event::DigestMerged(d) => {
                    o.uint("broker", d.broker).uint("peer", d.peer).uint("epoch", d.epoch);
                    o.str("applied", yes_no_name(d.applied));
                }
                Event::BatchCoalesced(b) => {
                    o.uint("broker", b.broker).uint("shard", b.shard).str("tenant", &b.tenant);
                    o.uint("merged", b.merged).uint("bytes", b.bytes);
                }
                Event::ShardSteal(s) => {
                    o.uint("broker", s.broker).uint("thief", s.thief).uint("victim", s.victim);
                    o.uint("stolen", s.stolen);
                }
                Event::SampleRateChanged(s) => {
                    o.uint("broker", s.broker).str("tenant", &s.tenant);
                    o.uint("old_period", s.old_period).uint("new_period", s.new_period);
                }
                Event::HotPromoted(h) => {
                    o.uint("broker", h.broker).str("tenant", &h.tenant).uint("region", h.region);
                    o.uint("to", h.to.0).uint("bytes", h.bytes).f64("cost_ns", h.cost_ns);
                }
                Event::BudgetExhausted(b) => {
                    o.uint("broker", b.broker).uint("epoch", b.epoch).f64("spent_ns", b.spent_ns);
                    o.f64("budget_ns", b.budget_ns).uint("deferred", b.deferred);
                }
            }
        });
        line
    }

    /// Parses one JSON line produced by [`Event::to_json`].
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let v = json::parse(line)?;
        let v = &v;
        Ok(match v.field("event")?.as_str()? {
            "alloc_decision" => Event::AllocDecision(AllocDecision {
                region: match v.field("region")? {
                    JsonValue::Null => None,
                    other => Some(other.as_uint()?),
                },
                size: uint(v, "size")?,
                requested: attr_id(v.field("requested")?.as_str()?)?,
                used: attr_id(v.field("used")?.as_str()?)?,
                scope: match v.field("scope")?.as_str()? {
                    "local" => Scope::Local,
                    "any" => Scope::Any,
                    other => return Err(ParseError::new(format!("bad scope {other:?}"))),
                },
                fallback: match v.field("fallback")?.as_str()? {
                    "strict" => FallbackMode::Strict,
                    "next_target" => FallbackMode::NextTarget,
                    "partial_spill" => FallbackMode::PartialSpill,
                    other => return Err(ParseError::new(format!("bad fallback {other:?}"))),
                },
                candidates: v
                    .field("candidates")?
                    .as_array()?
                    .iter()
                    .map(|c| Ok(Candidate { node: node(c, "node")?, value: uint(c, "value")? }))
                    .collect::<Result<_, ParseError>>()?,
                hops: v
                    .field("hops")?
                    .as_array()?
                    .iter()
                    .map(|h| Ok(Hop { node: node(h, "node")?, reason: string(h, "reason")? }))
                    .collect::<Result<_, ParseError>>()?,
                placement: placement_from_json(v.field("placement")?)?,
                error: v.get("error").map(|e| e.as_str().map(str::to_owned)).transpose()?,
            }),
            "attr_fallback" => Event::AttrFallback(AttrFallback {
                requested: attr_id(v.field("requested")?.as_str()?)?,
                used: attr_id(v.field("used")?.as_str()?)?,
            }),
            "migration" => Event::Migration(Migration {
                region: uint(v, "region")?,
                from: placement_from_json(v.field("from")?)?,
                to: node(v, "to")?,
                bytes_moved: uint(v, "bytes_moved")?,
                cost_ns: float(v, "cost_ns")?,
            }),
            "free" => Event::Free(FreeEvent {
                region: uint(v, "region")?,
                placement: placement_from_json(v.field("placement")?)?,
            }),
            "phase_span" => Event::PhaseSpan(PhaseSpan {
                name: string(v, "name")?,
                time_ns: float(v, "time_ns")?,
                threads: uint(v, "threads")?,
                per_node: v
                    .field("per_node")?
                    .as_array()?
                    .iter()
                    .map(|t| {
                        Ok(NodeTrafficSample {
                            node: node(t, "node")?,
                            bytes_read: uint(t, "bytes_read")?,
                            bytes_written: uint(t, "bytes_written")?,
                            achieved_bw_mbps: float(t, "achieved_bw_mbps")?,
                        })
                    })
                    .collect::<Result<_, ParseError>>()?,
            }),
            "occupancy" => Event::OccupancyGauge(OccupancyGauge {
                node: node(v, "node")?,
                used: uint(v, "used")?,
                high_water: uint(v, "high_water")?,
                total: uint(v, "total")?,
            }),
            "tiering_action" => Event::TieringAction(TieringEvent {
                region: uint(v, "region")?,
                promoted: action_promoted(v.field("action")?.as_str()?)?,
                to: node(v, "to")?,
                cost_ns: float(v, "cost_ns")?,
            }),
            "guidance_decision" => Event::GuidanceDecision(GuidanceDecision {
                interval: uint(v, "interval")?,
                region: uint(v, "region")?,
                promoted: action_promoted(v.field("action")?.as_str()?)?,
                to: node(v, "to")?,
                estimated_hotness: float(v, "estimated_hotness")?,
                actual_hotness: float(v, "actual_hotness")?,
                cost_ns: float(v, "cost_ns")?,
                period: uint(v, "period")?,
            }),
            "tenant_admit" => Event::TenantAdmit(TenantAdmit {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                lease: uint(v, "lease")?,
                size: uint(v, "size")?,
                placement: placement_from_json(v.field("placement")?)?,
                clamped: yes_no(v, "clamped")?,
                fast_bytes: uint(v, "fast_bytes")?,
            }),
            "quota_clamp" => Event::QuotaClamp(QuotaClamp {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                node: node(v, "node")?,
                requested: uint(v, "requested")?,
                allowed: uint(v, "allowed")?,
            }),
            "contention_stall" => Event::ContentionStall(ContentionStall {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                node: node(v, "node")?,
                stall_ns: float(v, "stall_ns")?,
                sharers: uint(v, "sharers")?,
            }),
            "lease_expired" => Event::LeaseExpired(LeaseExpired {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                lease: uint(v, "lease")?,
                ttl_epochs: uint(v, "ttl_epochs")?,
            }),
            "lease_revoked" => Event::LeaseRevoked(LeaseRevoked {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                lease: uint(v, "lease")?,
                reason: string(v, "reason")?,
            }),
            "tier_degraded" => Event::TierDegraded(TierDegraded {
                broker: broker_from_json(v)?,
                kind: string(v, "kind")?,
                degraded: yes_no(v, "degraded")?,
            }),
            "retry_exhausted" => Event::RetryExhausted(RetryExhausted {
                tenant: string(v, "tenant")?,
                op: string(v, "op")?,
                attempts: uint(v, "attempts")?,
                last_error: string(v, "last_error")?,
            }),
            "reclaim" => Event::Reclaim(Reclaim {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                lease: uint(v, "lease")?,
                bytes: uint(v, "bytes")?,
                placement: placement_from_json(v.field("placement")?)?,
                reason: string(v, "reason")?,
            }),
            "spill_forwarded" => Event::SpillForwarded(SpillForwarded {
                broker: broker_from_json(v)?,
                origin: uint(v, "origin")?,
                tenant: string(v, "tenant")?,
                size: uint(v, "size")?,
                fast_bytes: uint(v, "fast_bytes")?,
                cost_ns: float(v, "cost_ns")?,
            }),
            "digest_merged" => Event::DigestMerged(DigestMerged {
                broker: broker_from_json(v)?,
                peer: uint(v, "peer")?,
                epoch: uint(v, "epoch")?,
                applied: yes_no(v, "applied")?,
            }),
            "batch_coalesced" => Event::BatchCoalesced(BatchCoalesced {
                broker: broker_from_json(v)?,
                shard: uint(v, "shard")?,
                tenant: string(v, "tenant")?,
                merged: uint(v, "merged")?,
                bytes: uint(v, "bytes")?,
            }),
            "shard_steal" => Event::ShardSteal(ShardSteal {
                broker: broker_from_json(v)?,
                thief: uint(v, "thief")?,
                victim: uint(v, "victim")?,
                stolen: uint(v, "stolen")?,
            }),
            "sample_rate_changed" => Event::SampleRateChanged(SampleRateChanged {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                old_period: uint(v, "old_period")?,
                new_period: uint(v, "new_period")?,
            }),
            "hot_promoted" => Event::HotPromoted(HotPromoted {
                broker: broker_from_json(v)?,
                tenant: string(v, "tenant")?,
                region: uint(v, "region")?,
                to: node(v, "to")?,
                bytes: uint(v, "bytes")?,
                cost_ns: float(v, "cost_ns")?,
            }),
            "budget_exhausted" => Event::BudgetExhausted(BudgetExhausted {
                broker: broker_from_json(v)?,
                epoch: uint(v, "epoch")?,
                spent_ns: float(v, "spent_ns")?,
                budget_ns: float(v, "budget_ns")?,
                deferred: uint(v, "deferred")?,
            }),
            other => return Err(ParseError::new(format!("unknown event kind {other:?}"))),
        })
    }
}

fn action_name(promoted: bool) -> &'static str {
    if promoted {
        "promote"
    } else {
        "demote"
    }
}

fn yes_no_name(yes: bool) -> &'static str {
    if yes {
        "yes"
    } else {
        "no"
    }
}

fn action_promoted(name: &str) -> Result<bool, ParseError> {
    match name {
        "promote" => Ok(true),
        "demote" => Ok(false),
        other => Err(ParseError::new(format!("bad action {other:?}"))),
    }
}

fn attr_id(name: &str) -> Result<u32, ParseError> {
    Ok(match name {
        "Capacity" => 0,
        "Locality" => 1,
        "Bandwidth" => 2,
        "Latency" => 3,
        "ReadBandwidth" => 4,
        "WriteBandwidth" => 5,
        "ReadLatency" => 6,
        "WriteLatency" => 7,
        other => other
            .strip_prefix("attr#")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ParseError::new(format!("unknown attribute {other:?}")))?,
    })
}

/// Streams events as JSON lines (the `--trace` file format).
pub struct JsonlWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlWriter {
    /// Wraps any writer.
    pub fn new(out: impl Write + Send + 'static) -> JsonlWriter {
        JsonlWriter { out: Mutex::new(Box::new(out)) }
    }

    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlWriter> {
        Ok(JsonlWriter::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }

    /// Flushes buffered output.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("writer poisoned").flush()
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl JsonlWriter {
    /// Writes one event as a JSON line. Write errors are swallowed —
    /// a full disk mid-trace must not take the experiment down.
    pub fn write_event(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let _ = self.out.lock().expect("writer poisoned").write_all(line.as_bytes());
    }
}

/// Parses a JSONL trace back into events.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(Event::from_json).collect()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decision() -> Event {
        Event::AllocDecision(AllocDecision {
            region: Some(7),
            size: 3 << 30,
            requested: 4,
            used: 2,
            scope: Scope::Local,
            fallback: FallbackMode::PartialSpill,
            candidates: vec![
                Candidate { node: NodeId(4), value: 380_000 },
                Candidate { node: NodeId(0), value: 90_000 },
            ],
            hops: vec![Hop { node: NodeId(4), reason: "insufficient capacity".into() }],
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            error: None,
        })
    }

    fn every_variant() -> Vec<Event> {
        vec![
            sample_decision(),
            Event::AllocDecision(AllocDecision {
                region: None,
                size: 1 << 40,
                requested: 3,
                used: 3,
                scope: Scope::Any,
                fallback: FallbackMode::Strict,
                candidates: vec![Candidate { node: NodeId(0), value: 81 }],
                hops: vec![],
                placement: vec![],
                error: Some("insufficient capacity on node 0".into()),
            }),
            Event::AttrFallback(AttrFallback { requested: 4, used: 2 }),
            Event::Migration(Migration {
                region: 7,
                from: vec![(NodeId(0), 2 << 30)],
                to: NodeId(4),
                bytes_moved: 2 << 30,
                cost_ns: 643_000_000.25,
            }),
            Event::Free(FreeEvent { region: 7, placement: vec![(NodeId(4), 3 << 30)] }),
            Event::PhaseSpan(PhaseSpan {
                name: "bfs \"root0\"\\n".into(),
                time_ns: 1.25e9,
                threads: 16,
                per_node: vec![NodeTrafficSample {
                    node: NodeId(0),
                    bytes_read: 123,
                    bytes_written: 456,
                    achieved_bw_mbps: 8123.5,
                }],
            }),
            Event::OccupancyGauge(OccupancyGauge {
                node: NodeId(2),
                used: 5 << 30,
                high_water: 9 << 30,
                total: 768 << 30,
            }),
            Event::TieringAction(TieringEvent {
                region: 3,
                promoted: false,
                to: NodeId(0),
                cost_ns: 12_500.75,
            }),
            Event::GuidanceDecision(GuidanceDecision {
                interval: 42,
                region: 9,
                promoted: true,
                to: NodeId(4),
                estimated_hotness: 0.8125,
                actual_hotness: 0.96875,
                cost_ns: 7_000.5,
                period: 16384,
            }),
            Event::TenantAdmit(TenantAdmit {
                broker: 1,
                tenant: "graph \"500\"".into(),
                lease: 11,
                size: 3 << 30,
                placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
                clamped: true,
                fast_bytes: 1 << 30,
            }),
            Event::TenantAdmit(TenantAdmit {
                broker: 0,
                tenant: "stream".into(),
                lease: 12,
                size: 1 << 20,
                placement: vec![(NodeId(2), 1 << 20)],
                clamped: false,
                fast_bytes: 0,
            }),
            Event::QuotaClamp(QuotaClamp {
                broker: 0,
                tenant: "stream".into(),
                node: NodeId(4),
                requested: 2 << 30,
                allowed: 512 << 20,
            }),
            Event::ContentionStall(ContentionStall {
                broker: 2,
                tenant: "graph500".into(),
                node: NodeId(4),
                stall_ns: 125_000.5,
                sharers: 3,
            }),
            Event::LeaseExpired(LeaseExpired {
                broker: 0,
                tenant: "stream".into(),
                lease: 12,
                ttl_epochs: 5,
            }),
            Event::LeaseRevoked(LeaseRevoked {
                broker: 1,
                tenant: "graph500".into(),
                lease: 11,
                reason: "disconnect".into(),
            }),
            Event::TierDegraded(TierDegraded { broker: 0, kind: "hbm".into(), degraded: true }),
            Event::TierDegraded(TierDegraded { broker: 3, kind: "hbm".into(), degraded: false }),
            Event::RetryExhausted(RetryExhausted {
                tenant: "stream".into(),
                op: "alloc".into(),
                attempts: 4,
                last_error: "allocation stalled; retry".into(),
            }),
            Event::Reclaim(Reclaim {
                broker: 1,
                tenant: "graph500".into(),
                lease: 11,
                bytes: 3 << 30,
                placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
                reason: "revoked".into(),
            }),
            Event::SpillForwarded(SpillForwarded {
                broker: 1,
                origin: 0,
                tenant: "graph500".into(),
                size: 2 << 30,
                fast_bytes: 2 << 30,
                cost_ns: 84_000.5,
            }),
            Event::DigestMerged(DigestMerged { broker: 0, peer: 1, epoch: 17, applied: true }),
            Event::DigestMerged(DigestMerged { broker: 1, peer: 0, epoch: 16, applied: false }),
            Event::BatchCoalesced(BatchCoalesced {
                broker: 0,
                shard: 2,
                tenant: "stream".into(),
                merged: 4,
                bytes: 2 << 30,
            }),
            Event::ShardSteal(ShardSteal { broker: 1, thief: 0, victim: 3, stolen: 7 }),
            Event::SampleRateChanged(SampleRateChanged {
                broker: 0,
                tenant: "interactive".into(),
                old_period: 65536,
                new_period: 4096,
            }),
            Event::HotPromoted(HotPromoted {
                broker: 2,
                tenant: "interactive".into(),
                region: 9,
                to: NodeId(4),
                bytes: 1 << 30,
                cost_ns: 42_000.25,
            }),
            Event::BudgetExhausted(BudgetExhausted {
                broker: 0,
                epoch: 12,
                spent_ns: 95_000.0,
                budget_ns: 100_000.0,
                deferred: 3,
            }),
        ]
    }

    #[test]
    fn jsonl_roundtrip_every_variant() {
        let events = every_variant();
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let back = read_jsonl(&text).expect("roundtrip");
        assert_eq!(back, events);
        // Every variant exercised above must carry a kind from the
        // published list, and the encoded line must agree with kind().
        for e in &events {
            assert!(EVENT_KINDS.contains(&e.kind()), "{} missing from EVENT_KINDS", e.kind());
            assert!(
                e.to_json().contains(&format!("\"event\":\"{}\"", e.kind())),
                "kind() disagrees with to_json() for {e:?}"
            );
        }
    }

    /// The direct writer renders every event as the tree renderer did,
    /// and the borrowed decoder reads every line near a valid one as the
    /// tree decoder did: the same `Ok` value, or an error on both sides.
    #[test]
    fn the_codec_agrees_with_its_tree_reference() {
        use reference::Reference;
        let golden = read_jsonl(include_str!("../tests/golden/events.jsonl")).expect("golden");
        for event in every_variant().into_iter().chain(golden) {
            let line = event.to_json();
            assert_eq!(line, event.ref_to_json());
            for m in json::mutate::mutations(&line) {
                match (Event::from_json(&m), Event::ref_from_json(&m)) {
                    (Ok(new), Ok(old)) => assert_eq!(new, old, "{m}"),
                    (Err(_), Err(_)) => {}
                    (new, old) => panic!("{m}\n  new: {new:?}\n  reference: {old:?}"),
                }
            }
        }
    }

    /// Trace events follow the wire's integer rule: exact digits at
    /// every magnitude, and a value too large for its field refused.
    #[test]
    fn trace_integers_are_exact() {
        let e = Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(u32::MAX),
            used: u64::MAX,
            high_water: (1 << 53) + 1,
            total: 9_000_000_000_000_000,
        });
        let line = e.to_json();
        assert_eq!(
            line,
            r#"{"event":"occupancy","node":4294967295,"used":18446744073709551615,"high_water":9007199254740993,"total":9000000000000000}"#
        );
        assert_eq!(Event::from_json(&line).expect("decodes"), e);
        let occupancy = |node: &str, used: &str| {
            Event::from_json(&format!(
                r#"{{"event":"occupancy","node":{node},"used":{used},"high_water":0,"total":0}}"#
            ))
        };
        assert!(occupancy("4294967296", "0").is_err(), "a node id past u32 is refused");
        assert!(occupancy("0", "1e30").is_err(), "1e30 bytes is refused, not saturated");
        assert!(occupancy("0", "18446744073709551616").is_err(), "2^64 is refused");
        assert!(occupancy("0", "4.096e3").is_ok(), "other number forms keep their reading");
    }

    #[test]
    fn event_kinds_list_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in EVENT_KINDS {
            assert!(seen.insert(*kind), "duplicate event kind {kind:?}");
        }
        assert_eq!(EVENT_KINDS.len(), 23);
    }

    #[test]
    fn json_lines_are_single_lines() {
        let line = sample_decision().to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let w = JsonlWriter::new(Shared(buf.clone()));
        w.write_event(&sample_decision());
        w.write_event(&Event::AttrFallback(AttrFallback { requested: 6, used: 3 }));
        w.flush().expect("flush");
        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let back = read_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], sample_decision());
    }

    #[test]
    fn jsonl_writer_flushes_tail_on_drop() {
        // Regression: a function that returns early (or unwinds)
        // without calling flush() must not lose the buffered tail —
        // JsonlWriter's Drop does a best-effort flush.
        let path =
            std::env::temp_dir().join(format!("hetmem_jsonl_drop_{}.jsonl", std::process::id()));
        fn write_and_return_early(path: &std::path::Path) {
            let w = JsonlWriter::new(std::io::BufWriter::with_capacity(
                1 << 20, // large enough that nothing auto-flushes
                std::fs::File::create(path).expect("create"),
            ));
            w.write_event(&Event::AttrFallback(AttrFallback { requested: 4, used: 2 }));
            w.write_event(&Event::AttrFallback(AttrFallback { requested: 6, used: 3 }));
            // No flush: the drop glue owns the tail.
        }
        write_and_return_early(&path);
        let text = std::fs::read_to_string(&path).expect("trace file");
        let events = read_jsonl(&text).expect("parses");
        assert_eq!(events.len(), 2, "tail lost on early return");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attr_names_roundtrip() {
        for id in 0..12u32 {
            assert_eq!(attr_id(&attr_name(id)).expect("roundtrip"), id);
        }
    }
}
