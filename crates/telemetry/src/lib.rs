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
use json::JsonValue;
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
/// pending work from the most-loaded sibling shard.
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

/// Broker ids were added in the federation PR; traces written before
/// then carry no `broker` field and parse as broker 0 (standalone).
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
    pub fn from_json(line: &str) -> Result<Event, ParseError> {
        let v = json::parse(line)?;
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
        let line = event.to_json();
        let mut out = self.out.lock().expect("writer poisoned");
        let _ = writeln!(out, "{line}");
    }
}

/// Parses a JSONL trace back into events.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(Event::from_json).collect()
}

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

    #[test]
    fn jsonl_roundtrip_every_variant() {
        let events = vec![
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
        ];
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
