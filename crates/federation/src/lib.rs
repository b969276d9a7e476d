//! Scale-out broker federation: N [`Broker`]s over disjoint NUMA/tier
//! shards of one machine, exchanging epoch-stamped **capacity
//! digests** and forwarding the residual of a shortfalling placement
//! to the peer whose digest ranks best for the request's attribute
//! (**cross-broker spill**).
//!
//! The digest merge rule is a last-writer-wins total order over
//! `(epoch, canonical tier rows)`, so merging is commutative,
//! associative, and idempotent — gossip delivery order never matters
//! (`docs/PROTOCOL.md` §8.2). Peer ranking reuses the placement
//! engine's [`RankedCandidates`] walk over *synthetic* tiers derived
//! from the digests, so spill obeys the same attribute semantics as
//! local placement (§8.3).
//!
//! Every request a federation issues — to the home broker or to a
//! peer — is recordable into per-broker `HMWL` wire logs that replay
//! consistently against a per-broker `HMSN` snapshot (§8.5); the
//! [`harness`] module proves the round trip byte for byte.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{AttrId, MemAttrs, TargetValue};
use hetmem_memsim::Machine;
use hetmem_placement::{
    FallbackMode, PlacementEngine, PlanRequest, RankedCandidates, Scope, Unconstrained,
};
use hetmem_service::server::serve;
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, LeaseId, Priority, ServiceError, TenantSpec};
use hetmem_snapshot::{WireFrame, WireLog};
use hetmem_telemetry::{Collector, DigestMerged, Event, TelemetrySink};
use hetmem_topology::{MemoryKind, NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

pub mod harness;
#[cfg(test)]
mod tests;

/// Safety margin subtracted from a peer's digest-reported free bytes
/// before planning a spill against it: the digest is a gossip-delayed
/// view, so the forwarder never plans right up to the reported edge
/// (`docs/PROTOCOL.md` §8.3).
pub const SPILL_SAFETY_MARGIN: u64 = 32 * 1024 * 1024;

/// First synthetic node id used for digest-derived spill candidates.
/// Real machines in this workspace stay far below this, so synthetic
/// ids never collide with physical nodes in telemetry or plans.
pub const SYNTHETIC_NODE_BASE: u32 = 1000;

/// Synthetic id stride per peer: one slot per digest tier row, so a
/// digest may report up to this many tiers.
pub const SYNTHETIC_TIER_STRIDE: u32 = 8;

/// One tier row of a capacity digest. The derived lexicographic order
/// (kind, free, degraded) gives digests with equal epochs a canonical
/// total order, which the merge rule needs for commutativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TierDigest {
    /// The tier's memory kind.
    pub kind: MemoryKind,
    /// Free bytes on the owning broker's shard of this tier.
    pub free: u64,
    /// Whether the owning broker holds the tier degraded.
    pub degraded: bool,
}

/// A broker's versioned capacity digest: per-tier free bytes and
/// degraded flags, stamped with the broker's virtual epoch at the
/// time the digest was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityDigest {
    /// The broker the digest describes.
    pub broker: u32,
    /// The broker's virtual epoch when the digest was taken.
    pub epoch: u64,
    /// Tier rows, ordered by kind (the broker emits them sorted).
    pub tiers: Vec<TierDigest>,
}

impl CapacityDigest {
    /// Takes a fresh digest of a live broker.
    pub fn of(broker: &Broker) -> CapacityDigest {
        CapacityDigest {
            broker: broker.id(),
            epoch: broker.epoch(),
            tiers: broker
                .capacity_digest()
                .into_iter()
                .map(|(kind, free, degraded)| TierDigest { kind, free, degraded })
                .collect(),
        }
    }

    /// Rebuilds a digest from the wire representation
    /// ([`Response::Digest`] rows).
    pub fn from_wire(broker: u32, epoch: u64, tiers: &[(MemoryKind, u64, bool)]) -> CapacityDigest {
        CapacityDigest {
            broker,
            epoch,
            tiers: tiers
                .iter()
                .map(|&(kind, free, degraded)| TierDigest { kind, free, degraded })
                .collect(),
        }
    }
}

/// A broker's view of its peers' capacities: the newest digest heard
/// from each peer, merged under last-writer-wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestBoard {
    entries: BTreeMap<u32, CapacityDigest>,
}

impl DigestBoard {
    /// An empty board.
    pub fn new() -> DigestBoard {
        DigestBoard::default()
    }

    /// Merges `incoming` under last-writer-wins: the entry is replaced
    /// iff `(epoch, tiers)` is strictly greater than the held entry's
    /// under the canonical total order. Returns whether the board
    /// changed. Because the rule compares a total order and keeps the
    /// maximum, merge is commutative, associative, and idempotent —
    /// any gossip interleaving converges to the same board.
    pub fn merge(&mut self, incoming: &CapacityDigest) -> bool {
        match self.entries.get(&incoming.broker) {
            Some(held) if (held.epoch, &held.tiers) >= (incoming.epoch, &incoming.tiers) => false,
            _ => {
                self.entries.insert(incoming.broker, incoming.clone());
                true
            }
        }
    }

    /// The held digest for `broker`, if any.
    pub fn get(&self, broker: u32) -> Option<&CapacityDigest> {
        self.entries.get(&broker)
    }

    /// All held digests, ordered by broker id.
    pub fn entries(&self) -> impl Iterator<Item = &CapacityDigest> {
        self.entries.values()
    }

    /// Number of peers the board has heard from.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the board has heard from no one.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Where [`rank_spill`] decided a residual should go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillTarget {
    /// Forward to this peer; its digest ranked best for the attribute
    /// and reports room for the residual (margin already applied).
    Peer {
        /// The chosen peer broker.
        peer: u32,
        /// The tier kind the plan landed on.
        kind: MemoryKind,
    },
    /// Only a peer currently marked down could take the residual.
    Unreachable(u32),
    /// No digest on the board reports room for the residual.
    None,
}

/// Ranks the digests on `board` for `criterion` and plans `residual`
/// bytes against them, exactly as local placement would: each digest
/// tier becomes a synthetic node valued by the attribute's
/// representative value for its kind, [`RankedCandidates`] orders
/// them best first, degraded tiers demote to last resort, and the
/// engine's `NextTarget` walk picks the first tier whose
/// digest-reported free bytes (minus [`SPILL_SAFETY_MARGIN`]) hold
/// the whole residual.
///
/// Peers in `down` are excluded from the primary plan; when only a
/// down peer could take the residual the caller gets
/// [`SpillTarget::Unreachable`] so it can surface `peer_unreachable`.
/// Pure in its inputs — the property tests drive it directly.
pub fn rank_spill(
    engine: &PlacementEngine,
    topo: &Topology,
    criterion: AttrId,
    board: &DigestBoard,
    home: u32,
    down: &BTreeSet<u32>,
    residual: u64,
) -> SpillTarget {
    let initiator = topo.machine_cpuset();
    // The attribute-fallback walk over *real* nodes tells us which
    // attribute to rank with and what each kind is worth.
    let local = match engine.rank(criterion, initiator, Scope::Any) {
        Ok(rc) => rc,
        Err(_) => return SpillTarget::None,
    };
    let used = local.used();
    let mut kind_value: BTreeMap<MemoryKind, u64> = BTreeMap::new();
    for tv in local.targets() {
        if let Some(kind) = topo.node_kind(tv.node) {
            kind_value.entry(kind).or_insert(tv.value);
        }
    }
    let higher_is_best = match engine.attrs().flags(used) {
        Ok(flags) => flags.higher_is_best,
        Err(_) => return SpillTarget::None,
    };

    // Each digest tier of each peer becomes a synthetic node carrying
    // the representative value of its kind.
    struct Synthetic {
        peer: u32,
        kind: MemoryKind,
        free: u64,
        degraded: bool,
    }
    let mut meta: BTreeMap<NodeId, Synthetic> = BTreeMap::new();
    let mut ranked: Vec<TargetValue> = Vec::new();
    for digest in board.entries() {
        if digest.broker == home {
            continue;
        }
        for (idx, tier) in digest.tiers.iter().take(SYNTHETIC_TIER_STRIDE as usize).enumerate() {
            let Some(&value) = kind_value.get(&tier.kind) else { continue };
            let node =
                NodeId(SYNTHETIC_NODE_BASE + digest.broker * SYNTHETIC_TIER_STRIDE + idx as u32);
            meta.insert(
                node,
                Synthetic {
                    peer: digest.broker,
                    kind: tier.kind,
                    free: tier.free,
                    degraded: tier.degraded,
                },
            );
            ranked.push(TargetValue { node, value });
        }
    }
    if ranked.is_empty() {
        return SpillTarget::None;
    }
    // Best first, ties by synthetic id — the same order rank_targets
    // guarantees for physical nodes.
    if higher_is_best {
        ranked.sort_by_key(|tv| (std::cmp::Reverse(tv.value), tv.node.0));
    } else {
        ranked.sort_by_key(|tv| (tv.value, tv.node.0));
    }
    let mut candidates = RankedCandidates::from_ranking(criterion, used, ranked);
    candidates.demote_last_resort(|n| meta.get(&n).is_some_and(|s| s.degraded));

    let usable = |n: NodeId| meta.get(&n).map_or(0, |s| s.free.saturating_sub(SPILL_SAFETY_MARGIN));
    let req = PlanRequest { size: residual, mode: FallbackMode::NextTarget, page_quantize: false };
    let reachable: Vec<NodeId> = candidates
        .targets()
        .iter()
        .map(|tv| tv.node)
        .filter(|n| meta.get(n).is_some_and(|s| !down.contains(&s.peer)))
        .collect();
    let plan = engine.plan(&req, &reachable, usable, &mut Unconstrained);
    if plan.is_complete() {
        if let Some(&(node, _)) = plan.chunks.first() {
            let s = &meta[&node];
            return SpillTarget::Peer { peer: s.peer, kind: s.kind };
        }
    }
    // Nothing reachable fits; if a down peer would have taken it, say
    // so — the typed `peer_unreachable` beats a bare admission error.
    let unreachable: Vec<NodeId> = candidates
        .nodes()
        .into_iter()
        .filter(|n| meta.get(n).is_some_and(|s| down.contains(&s.peer)))
        .collect();
    let plan = engine.plan(&req, &unreachable, usable, &mut Unconstrained);
    if plan.is_complete() {
        if let Some(&(node, _)) = plan.chunks.first() {
            return SpillTarget::Unreachable(meta[&node].peer);
        }
    }
    SpillTarget::None
}

/// Shards a machine's NUMA nodes across `members` brokers: nodes are
/// grouped by kind and dealt round-robin within each kind, so every
/// broker owns a proportional slice of every tier (a broker with no
/// fast nodes could never serve a latency tenant locally).
pub fn shard_nodes(topo: &Topology, members: u32) -> Vec<BTreeSet<NodeId>> {
    let mut shards: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); members.max(1) as usize];
    let mut dealt: BTreeMap<MemoryKind, u32> = BTreeMap::new();
    for node in topo.node_ids() {
        let kind = topo.node_kind(node).unwrap_or(MemoryKind::Dram);
        let idx = dealt.entry(kind).or_insert(0);
        shards[(*idx % members.max(1)) as usize].insert(node);
        *idx += 1;
    }
    shards
}

/// Knobs for [`Federation::new`].
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of member brokers (≥ 1).
    pub members: u32,
    /// Arbitration policy every member runs.
    pub policy: ArbitrationPolicy,
    /// Whether shortfalling placements spill to peers.
    pub spill: bool,
    /// Whether to record every issued request into per-broker wire
    /// logs ([`Federation::take_logs`]).
    pub record: bool,
}

impl Default for FederationConfig {
    fn default() -> FederationConfig {
        FederationConfig {
            members: 2,
            policy: ArbitrationPolicy::FairShare,
            spill: true,
            record: false,
        }
    }
}

/// One part of a federated lease: a lease held on one member broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeasePart {
    /// The broker holding this part.
    pub broker: u32,
    /// The lease id on that broker.
    pub lease: u64,
    /// Bytes granted (page-rounded by the broker).
    pub size: u64,
    /// Of those, bytes on that broker's fast tier.
    pub fast_bytes: u64,
}

/// A lease spanning one or more member brokers. Renewal, heartbeat,
/// and free route per part through the owning broker, so a remote
/// part survives exactly as long as a local one would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederatedLease {
    /// Owning tenant name (registered on every member).
    pub tenant: String,
    /// The parts, home broker first.
    pub parts: Vec<LeasePart>,
}

impl FederatedLease {
    /// Total bytes granted across all parts.
    pub fn size(&self) -> u64 {
        self.parts.iter().map(|p| p.size).sum()
    }

    /// Total fast-tier bytes across all parts.
    pub fn fast_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.fast_bytes).sum()
    }

    /// Whether any part lives on a broker other than `home`.
    pub fn spilled(&self, home: u32) -> bool {
        self.parts.iter().any(|p| p.broker != home)
    }
}

/// A federation runtime: N member brokers over disjoint shards of one
/// machine, per-member digest boards, gossip, and the spill path.
pub struct Federation {
    machine: Arc<Machine>,
    engine: PlacementEngine,
    brokers: Vec<Broker>,
    collectors: Mutex<Vec<Collector>>,
    boards: Mutex<Vec<DigestBoard>>,
    down: Mutex<BTreeSet<u32>>,
    spill: bool,
    fed_sink: TelemetrySink,
    logs: Mutex<Option<Vec<WireLog>>>,
}

impl Federation {
    /// Builds `config.members` brokers over [`shard_nodes`] shards of
    /// `machine`, each with its own telemetry ring (drain with
    /// [`Federation::drain_events`]).
    pub fn new(
        machine: Arc<Machine>,
        attrs: Arc<MemAttrs>,
        config: &FederationConfig,
    ) -> Federation {
        let members = config.members.max(1);
        let shards = shard_nodes(machine.topology(), members);
        let mut brokers = Vec::with_capacity(members as usize);
        let mut collectors = Vec::with_capacity(members as usize);
        for (i, shard) in shards.iter().enumerate() {
            let mut broker =
                Broker::with_shard(machine.clone(), attrs.clone(), config.policy, i as u32, shard);
            let sink = TelemetrySink::with_ring_words(1 << 18);
            collectors.push(sink.collector());
            broker.set_sink(sink);
            brokers.push(broker);
        }
        let logs = config
            .record
            .then(|| (0..members).map(|_| WireLog::new(machine.name(), config.policy)).collect());
        Federation {
            engine: PlacementEngine::new(attrs),
            machine,
            brokers,
            collectors: Mutex::new(collectors),
            boards: Mutex::new(vec![DigestBoard::new(); members as usize]),
            down: Mutex::new(BTreeSet::new()),
            spill: config.spill,
            fed_sink: TelemetrySink::disabled(),
            logs: Mutex::new(logs),
        }
    }

    /// Streams federation-level telemetry (`digest_merged`) into
    /// `sink`. Member brokers keep their own rings — federation
    /// events never pollute a per-broker trace, which must replay
    /// from the broker's wire log alone.
    pub fn set_federation_sink(&mut self, sink: TelemetrySink) {
        self.fed_sink = sink;
    }

    /// Number of member brokers.
    pub fn members(&self) -> u32 {
        self.brokers.len() as u32
    }

    /// The member brokers, ordered by id.
    pub fn brokers(&self) -> &[Broker] {
        &self.brokers
    }

    /// One member broker.
    pub fn broker(&self, id: u32) -> &Broker {
        &self.brokers[id as usize]
    }

    /// The shared machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Marks a peer down (gossip skips it; spill refuses it with
    /// `peer_unreachable`) or back up.
    pub fn set_peer_down(&self, peer: u32, down: bool) {
        let mut set = self.down.lock().expect("down poisoned");
        if down {
            set.insert(peer);
        } else {
            set.remove(&peer);
        }
    }

    /// A member's current view of its peers.
    pub fn board(&self, member: u32) -> DigestBoard {
        self.boards.lock().expect("boards poisoned")[member as usize].clone()
    }

    /// Drains a member broker's telemetry ring.
    pub fn drain_events(&self, member: u32) -> Vec<Event> {
        self.collectors.lock().expect("collectors poisoned")[member as usize]
            .drain_sorted()
            .into_iter()
            .map(|e| e.event)
            .collect()
    }

    /// Takes the recorded per-broker wire logs, ending recording.
    pub fn take_logs(&self) -> Option<Vec<WireLog>> {
        self.logs.lock().expect("logs poisoned").take()
    }

    fn record(&self, member: u32, request: &Request) {
        let mut logs = self.logs.lock().expect("logs poisoned");
        if let Some(logs) = logs.as_mut() {
            logs[member as usize].frames.push(WireFrame::Request {
                epoch: self.brokers[member as usize].epoch(),
                json: request.to_json(),
            });
        }
    }

    /// Registers a tenant on **every** member (federations mirror
    /// registrations, `docs/PROTOCOL.md` §8.1), so any member can
    /// serve a forward for it.
    pub fn register(&self, tenant: &str, priority: Priority) -> Result<(), ServiceError> {
        for (i, broker) in self.brokers.iter().enumerate() {
            self.record(
                i as u32,
                &Request::Register {
                    tenant: tenant.to_string(),
                    priority,
                    quota: Vec::new(),
                    reserve: Vec::new(),
                },
            );
            broker.register(TenantSpec::new(tenant).priority(priority))?;
        }
        Ok(())
    }

    /// One gossip round over the ring: each member pulls a fresh
    /// digest from its successor plus everything the successor has
    /// heard (transitive entries), merging under last-writer-wins.
    /// Digest pulls are read-only and therefore not recorded
    /// (`docs/PROTOCOL.md` §8.5). Returns how many merges applied.
    pub fn gossip(&self) -> u64 {
        let n = self.brokers.len();
        if n < 2 {
            return 0;
        }
        let down = self.down.lock().expect("down poisoned").clone();
        let mut boards = self.boards.lock().expect("boards poisoned");
        let mut applied_total = 0u64;
        for i in 0..n {
            let j = (i + 1) % n;
            if down.contains(&(j as u32)) {
                continue;
            }
            if let Response::Digest { broker, epoch, tiers } =
                serve(&self.brokers[j], Request::Digest)
            {
                let incoming = CapacityDigest::from_wire(broker, epoch, &tiers);
                let applied = boards[i].merge(&incoming);
                applied_total += applied as u64;
                if self.fed_sink.enabled() {
                    self.fed_sink.emit(Event::DigestMerged(DigestMerged {
                        broker: i as u32,
                        peer: j as u32,
                        epoch,
                        applied,
                    }));
                }
            }
            let transitive: Vec<CapacityDigest> =
                boards[j].entries().filter(|d| d.broker != i as u32).cloned().collect();
            for digest in transitive {
                applied_total += boards[i].merge(&digest) as u64;
            }
        }
        applied_total
    }

    /// Acquires a lease for `tenant`, homed on broker `home`. The
    /// home broker places what it can; on a shortfall (and with spill
    /// enabled) the residual forwards to the peer [`rank_spill`]
    /// picks, becoming a remote part of the returned lease. On any
    /// spill failure the committed local part rolls back, so the call
    /// is all-or-nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        &self,
        home: u32,
        tenant: &str,
        size: u64,
        criterion: AttrId,
        fallback: Fallback,
        label: Option<&str>,
        ttl: Option<u64>,
    ) -> Result<FederatedLease, ServiceError> {
        let broker = self.broker(home);
        let id = broker
            .tenant_id(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        let alloc = |bytes: u64| Request::Alloc {
            tenant: tenant.to_string(),
            size: bytes,
            criterion,
            fallback,
            label: label.map(str::to_string),
            ttl,
        };
        let build = |bytes: u64| {
            let mut req = AllocRequest::new(bytes).criterion(criterion).fallback(fallback);
            if let Some(label) = label {
                req = req.label(label);
            }
            req
        };
        self.record(home, &alloc(size));
        let denied = match broker.acquire_with_ttl(id, &build(size), ttl) {
            Ok(lease) => {
                return Ok(FederatedLease {
                    tenant: tenant.to_string(),
                    parts: vec![LeasePart {
                        broker: home,
                        lease: lease.id().0,
                        size: lease.size(),
                        fast_bytes: lease.fast_bytes(),
                    }],
                })
            }
            Err(e @ ServiceError::Admission { .. }) if self.spill => e,
            Err(e) => return Err(e),
        };
        let granted = match denied {
            ServiceError::Admission { granted, .. } => granted,
            _ => unreachable!("denied is always Admission here"),
        };

        // Commit the partial local grant first (the denial itself
        // committed nothing), then forward the residual.
        let mut parts: Vec<LeasePart> = Vec::new();
        let mut residual = size;
        if granted > 0 {
            self.record(home, &alloc(granted));
            if let Ok(lease) = broker.acquire_with_ttl(id, &build(granted), ttl) {
                residual = size.saturating_sub(granted);
                parts.push(LeasePart {
                    broker: home,
                    lease: lease.id().0,
                    size: lease.size(),
                    fast_bytes: lease.fast_bytes(),
                });
            }
        }

        let target = {
            let boards = self.boards.lock().expect("boards poisoned");
            let down = self.down.lock().expect("down poisoned");
            rank_spill(
                &self.engine,
                self.machine.topology(),
                criterion,
                &boards[home as usize],
                home,
                &down,
                residual,
            )
        };
        match target {
            SpillTarget::Peer { peer, .. } => {
                let forward = Request::Forward {
                    origin: home,
                    tenant: tenant.to_string(),
                    size: residual,
                    criterion,
                    fallback,
                    label: label.map(str::to_string),
                    ttl,
                };
                self.record(peer, &forward);
                match serve(self.broker(peer), forward) {
                    Response::Granted { lease, size, fast_bytes, .. } => {
                        parts.push(LeasePart { broker: peer, lease, size, fast_bytes });
                        Ok(FederatedLease { tenant: tenant.to_string(), parts })
                    }
                    Response::Error { code, error } => {
                        self.rollback(tenant, &parts);
                        Err(match code.as_str() {
                            "stale_digest" => ServiceError::StaleDigest { peer },
                            "peer_unreachable" => ServiceError::PeerUnreachable(peer),
                            _ => ServiceError::Wire(format!(
                                "forward to peer {peer} failed: {code}: {error}"
                            )),
                        })
                    }
                    other => {
                        self.rollback(tenant, &parts);
                        Err(ServiceError::Wire(format!(
                            "forward to peer {peer} answered {:?}",
                            other.kind()
                        )))
                    }
                }
            }
            SpillTarget::Unreachable(peer) => {
                self.rollback(tenant, &parts);
                Err(ServiceError::PeerUnreachable(peer))
            }
            SpillTarget::None => {
                self.rollback(tenant, &parts);
                Err(denied)
            }
        }
    }

    fn rollback(&self, tenant: &str, parts: &[LeasePart]) {
        for part in parts {
            self.record(
                part.broker,
                &Request::Free { tenant: tenant.to_string(), lease: part.lease },
            );
            let _ = self.broker(part.broker).release_by_id(LeaseId(part.lease));
        }
    }

    /// Resets the TTL clock of every part through its owning broker.
    pub fn renew(&self, lease: &FederatedLease) -> Result<(), ServiceError> {
        for part in &lease.parts {
            let broker = self.broker(part.broker);
            let id = broker
                .tenant_id(&lease.tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(lease.tenant.clone()))?;
            self.record(
                part.broker,
                &Request::Renew { tenant: lease.tenant.clone(), lease: part.lease },
            );
            broker.renew(id, LeaseId(part.lease))?;
        }
        Ok(())
    }

    /// Renews every lease `tenant` holds on every member; returns the
    /// number of leases whose clock was reset.
    pub fn heartbeat(&self, tenant: &str) -> Result<u64, ServiceError> {
        let mut renewed = 0;
        for (i, broker) in self.brokers.iter().enumerate() {
            let id = broker
                .tenant_id(tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
            self.record(i as u32, &Request::Heartbeat { tenant: tenant.to_string() });
            renewed += broker.heartbeat(id)?;
        }
        Ok(renewed)
    }

    /// Returns every part of a federated lease through its owning
    /// broker. Parts the broker already expired count as freed.
    pub fn free(&self, lease: FederatedLease) -> Result<(), ServiceError> {
        for part in &lease.parts {
            let broker = self.broker(part.broker);
            self.record(
                part.broker,
                &Request::Free { tenant: lease.tenant.clone(), lease: part.lease },
            );
            match broker.release_by_id(LeaseId(part.lease)) {
                Ok(()) | Err(ServiceError::UnknownLease(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Advances every member's virtual epoch in lockstep (expiring
    /// overdue leases on each, exactly as a standalone broker would).
    pub fn advance_epoch(&self) {
        for broker in &self.brokers {
            broker.advance_epoch();
        }
    }

    /// The lockstep epoch (member 0's; all members advance together).
    pub fn epoch(&self) -> u64 {
        self.brokers[0].epoch()
    }
}
