#![warn(missing_docs)]
//! hetmem-service: a multi-tenant allocation broker for heterogeneous
//! memory.
//!
//! The paper's attribute machinery answers *where* a buffer should go
//! for one application. On production machines the fast tier (MCDRAM,
//! HBM) is shared by several jobs at once, and uncoordinated
//! first-come-first-served allocation lets one bandwidth-hungry tenant
//! starve everyone else. This crate adds the missing coordination
//! point:
//!
//! * [`Broker`] — owns a shared [`hetmem_memsim::MemoryManager`]
//!   behind one ledger lock and serves
//!   [`hetmem_alloc::AllocRequest`]s from concurrent clients.
//! * [`TenantSpec`] / [`Priority`] — the tenant model: priority class
//!   plus optional per-tier quota (hard cap) and reservation
//!   (guaranteed floor).
//! * [`ArbitrationPolicy`] — fair-share (weighted, work-conserving),
//!   FCFS, or static partitioning; admission uses the same attribute
//!   rankings as the single-tenant allocator and emits `TenantAdmit` /
//!   `QuotaClamp` telemetry.
//! * [`wire`] / [`server`] — a JSONL request/response protocol over a
//!   Unix or TCP socket with a thread-per-connection pool and one
//!   admission queue served in ticks (`hetmem-serve` binary).
//! * [`TrafficBoard`] — contention feedback: co-located tenants that
//!   saturate a node charge each other bandwidth-degradation stalls,
//!   surfaced as `ContentionStall` events.
//! * `plane` — the serve plane's decisions, with no threads: the
//!   admission queue, its ticks and the serve-token hand-off. The
//!   server's threads call it, and each connection is served in order.
//! * Lease lifecycle — leases may carry a TTL in service epochs
//!   ([`TenantSpec::lease_ttl`]) with heartbeat renewal over the wire;
//!   a silent or disconnected tenant's capacity is reclaimed within
//!   one TTL, and tiers marked degraded fall to last-resort rank so
//!   placement degrades gracefully instead of hard-failing. The wire
//!   protocol is specified in `docs/PROTOCOL.md`; failure handling and
//!   tuning live in `docs/OPERATIONS.md`.

mod board;
mod broker;
mod plane;
pub mod server;
mod tenant;
pub mod wire;

pub use board::TrafficBoard;
pub use broker::guidance::GuidedConfig;
pub use broker::{
    Broker, BrokerState, Lease, LeaseEntry, LeaseId, RobustnessStats, ServedPhase, StripeEntry,
    TenantEntry, MAX_CONTENTION_SLOWDOWN,
};
pub use hetmem_placement::ArbitrationPolicy;
pub use tenant::{Priority, TenantId, TenantSpec, TenantStats};

/// Everything that can go wrong between a wire request and a lease.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The tenant id or name is not registered.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// The lease id does not refer to a live lease.
    UnknownLease(u64),
    /// Registering this reservation would oversubscribe a tier.
    Reservation {
        /// The oversubscribed tier.
        kind: hetmem_topology::MemoryKind,
        /// Bytes the new tenant asked to reserve.
        requested: u64,
        /// Bytes still unreserved on the tier.
        available: u64,
    },
    /// Attribute ranking produced no usable candidates.
    Ranking(String),
    /// The arbiter could not admit the full request under the active
    /// policy and fallback mode. Nothing was committed.
    Admission {
        /// Bytes requested.
        requested: u64,
        /// Bytes the arbiter could have granted.
        granted: u64,
    },
    /// The memory manager rejected the admitted plan (a broker bug or
    /// a race with an unmanaged allocation path).
    Commit(String),
    /// A malformed wire request.
    Wire(String),
    /// Socket-level failure.
    Io(String),
    /// The lease aged out: its TTL elapsed without a renewal and the
    /// capacity was reclaimed.
    LeaseExpired(u64),
    /// The broker is transiently refusing allocations (a fault
    /// injection or an operator pause). Safe to retry with backoff.
    Stalled,
    /// The per-request deadline elapsed before a response arrived.
    DeadlineExceeded(String),
    /// The request's initiator cpuset is empty after intersection with
    /// the machine cpuset — no CPU could perform the accesses.
    EmptyInitiator,
    /// A snapshot could not be captured, decoded, or restored into a
    /// live broker (corrupt state, wrong machine, internal
    /// inconsistency).
    Snapshot(String),
    /// A federation peer could not be reached for a forward or a
    /// digest exchange (marked down). Safe to retry after the next
    /// gossip round re-ranks the peers.
    PeerUnreachable(u32),
    /// A forwarded request was refused by the peer because its actual
    /// capacity no longer matches the digest the forwarder ranked on.
    /// The forwarder should refresh its board and re-rank.
    StaleDigest {
        /// The peer whose digest went stale.
        peer: u32,
    },
    /// A phase touches a region with no live allocation: its lease was
    /// released, expired or revoked. Nothing ran.
    UnknownRegion(u64),
}

/// Stable wire codes for every [`ServiceError`] variant, in
/// declaration order — the `code` field of an error response frame.
/// `docs/PROTOCOL.md` coverage tests enumerate this list.
pub const ERROR_CODES: &[&str] = &[
    "unknown_tenant",
    "duplicate_tenant",
    "unknown_lease",
    "reservation",
    "ranking",
    "admission",
    "commit",
    "wire",
    "io",
    "lease_expired",
    "stalled",
    "deadline",
    "empty_initiator",
    "snapshot",
    "peer_unreachable",
    "stale_digest",
    "unknown_region",
];

impl ServiceError {
    /// The stable wire code of this error — one of [`ERROR_CODES`].
    ///
    /// ```
    /// use hetmem_service::{ServiceError, ERROR_CODES};
    /// let e = ServiceError::UnknownLease(7);
    /// assert_eq!(e.code(), "unknown_lease");
    /// assert!(ERROR_CODES.contains(&e.code()));
    /// ```
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownTenant(_) => "unknown_tenant",
            ServiceError::DuplicateTenant(_) => "duplicate_tenant",
            ServiceError::UnknownLease(_) => "unknown_lease",
            ServiceError::Reservation { .. } => "reservation",
            ServiceError::Ranking(_) => "ranking",
            ServiceError::Admission { .. } => "admission",
            ServiceError::Commit(_) => "commit",
            ServiceError::Wire(_) => "wire",
            ServiceError::Io(_) => "io",
            ServiceError::LeaseExpired(_) => "lease_expired",
            ServiceError::Stalled => "stalled",
            ServiceError::DeadlineExceeded(_) => "deadline",
            ServiceError::EmptyInitiator => "empty_initiator",
            ServiceError::Snapshot(_) => "snapshot",
            ServiceError::PeerUnreachable(_) => "peer_unreachable",
            ServiceError::StaleDigest { .. } => "stale_digest",
            ServiceError::UnknownRegion(_) => "unknown_region",
        }
    }

    /// Whether retrying the same request later can reasonably succeed
    /// without the caller changing anything. [`server::Client`]'s
    /// retry loop uses this to decide what its backoff applies to.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Stalled | ServiceError::Io(_) | ServiceError::DeadlineExceeded(_)
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(who) => write!(f, "unknown tenant {who}"),
            ServiceError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServiceError::UnknownLease(id) => write!(f, "unknown lease #{id}"),
            ServiceError::Reservation { kind, requested, available } => write!(
                f,
                "reservation of {requested} bytes oversubscribes the {kind:?} tier \
                 ({available} bytes unreserved)"
            ),
            ServiceError::Ranking(why) => write!(f, "attribute ranking failed: {why}"),
            ServiceError::Admission { requested, granted } => write!(
                f,
                "admission denied: {granted} of {requested} bytes admissible under the \
                 arbitration policy"
            ),
            ServiceError::Commit(why) => write!(f, "commit failed: {why}"),
            ServiceError::Wire(why) => write!(f, "bad request: {why}"),
            ServiceError::Io(why) => write!(f, "i/o error: {why}"),
            ServiceError::LeaseExpired(id) => {
                write!(f, "lease #{id} expired and its capacity was reclaimed")
            }
            ServiceError::Stalled => {
                write!(f, "allocation stalled; retry with backoff")
            }
            ServiceError::DeadlineExceeded(what) => {
                write!(f, "deadline exceeded waiting for {what}")
            }
            ServiceError::EmptyInitiator => {
                write!(f, "initiator cpuset is empty after machine intersection")
            }
            ServiceError::Snapshot(why) => write!(f, "snapshot error: {why}"),
            ServiceError::PeerUnreachable(peer) => {
                write!(f, "federation peer #{peer} is unreachable")
            }
            ServiceError::StaleDigest { peer } => {
                write!(f, "peer #{peer} refused the forward: its capacity digest is stale")
            }
            ServiceError::UnknownRegion(id) => {
                write!(f, "region #{id} has no live allocation (released, expired or revoked)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}
