//! hetmem-snapshot: versioned broker checkpoints, wire-log recording,
//! and deterministic trace-driven replay for the service plane.
//!
//! Everything in the service plane is already deterministic — the
//! broker runs on a virtual epoch clock, fault schedules are seeded,
//! and the wire protocol serves batches in arrival order. This crate
//! closes the loop and makes that determinism *portable across
//! process boundaries*:
//!
//! * [`Snapshot`] — a compact, versioned binary image of the full
//!   broker state ([`hetmem_service::BrokerState`]) plus an optional
//!   pending [`hetmem_memsim::FaultPlan`], taken at an epoch boundary.
//!   The format is magic + version + self-describing length-prefixed
//!   sections (the same LEB128 codec telemetry uses), so newer
//!   writers can add sections old readers skip, and old snapshots
//!   decode forever. Unknown *versions* and corrupted input are
//!   rejected with typed [`SnapshotError`]s — never a panic.
//! * [`WireLog`] — an append-only record of every accepted request
//!   frame (and every fault-control transition) stamped with the
//!   epoch it executed in, plus a trailer carrying the final broker
//!   state and the telemetry [`Summary`]
//!   of the recorded segment.
//! * [`replay`] — loads a snapshot and a wire log, reconstructs a
//!   live broker, re-executes every frame at its recorded epoch, and
//!   checks the replayed final state and telemetry summary against
//!   the trailer **byte for byte**. A crashed service can thus be
//!   reconstructed and interrogated offline, and CI proves the
//!   service plane is replayable on every commit (`hetmem-replay`).
//!
//! Mid-chaos snapshots work because the broker state carries the
//! degraded-tier set and the stall deadline, the snapshot carries the
//! fault plan with its cursor (the capture epoch), and fault
//! transitions after the capture are explicit control frames in the
//! log.

#![warn(missing_docs)]

use hetmem_core::MemAttrs;
use hetmem_memsim::{AllocPolicy, FaultKind, FaultPlan, Machine, ManagerState, RegionState};
use hetmem_service::server::serve;
use hetmem_service::wire::{kind_from_name, kind_name, Request};
use hetmem_service::{
    ArbitrationPolicy, Broker, BrokerState, LeaseEntry, Priority, ServiceError, StripeEntry,
    TenantEntry,
};
use hetmem_telemetry::compact::{put_bool, put_placement, put_str, put_u64, CodecError, Cursor};
use hetmem_telemetry::{Summary, TelemetrySink};
use hetmem_topology::{MemoryKind, NodeId};
use std::io::Write;
use std::sync::Arc;

mod harness;
pub use harness::{chaos_record_replay, HarnessConfig, HarnessOutcome};

/// First bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HMSN";
/// First bytes of every wire-log file.
pub const WIRELOG_MAGIC: [u8; 4] = *b"HMWL";
/// Highest snapshot format version this build reads and the version
/// it writes.
pub const SNAPSHOT_VERSION: u64 = 1;
/// Highest wire-log format version this build reads and writes.
pub const WIRELOG_VERSION: u64 = 1;

/// Section tag of the broker-state section (required, exactly once).
const SECTION_STATE: u8 = 1;
/// Section tag of the pending-fault-plan section (optional).
const SECTION_FAULTS: u8 = 2;
/// Section tag of one federated per-broker state section (one per
/// member broker, in broker-id order).
const SECTION_BROKER: u8 = 3;

/// Everything that can go wrong reading, writing, or replaying a
/// snapshot or wire log. Corrupt and truncated input always lands
/// here — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Which format was expected ("snapshot" or "wire log").
        expected: &'static str,
    },
    /// The file was written by a newer format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u64,
        /// Highest version this build supports.
        supported: u64,
    },
    /// The input ended before a complete structure was read.
    Truncated(String),
    /// The input is structurally complete but semantically invalid
    /// (unknown vocabulary, missing required section, bad UTF-8, ...).
    Corrupt(String),
    /// Filesystem-level failure.
    Io(String),
    /// The decoded state could not be turned back into a live broker
    /// (wraps [`hetmem_service::ServiceError::Snapshot`]).
    Restore(String),
    /// The wire log and the restored broker disagree during replay
    /// (e.g. the log jumps backwards in epochs).
    Replay(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic { expected } => {
                write!(f, "not a {expected} file (bad magic)")
            }
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} is newer than supported version {supported}")
            }
            SnapshotError::Truncated(what) => write!(f, "truncated input: {what}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt input: {what}"),
            SnapshotError::Io(what) => write!(f, "i/o error: {what}"),
            SnapshotError::Restore(what) => write!(f, "restore failed: {what}"),
            SnapshotError::Replay(what) => write!(f, "replay diverged: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Codec failures mean the input ended early or decoded to garbage;
/// the codec's message says which.
impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        let msg = e.to_string();
        if msg.contains("truncated") {
            SnapshotError::Truncated(msg)
        } else {
            SnapshotError::Corrupt(msg)
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e.to_string())
    }
}

impl From<ServiceError> for SnapshotError {
    fn from(e: ServiceError) -> SnapshotError {
        SnapshotError::Restore(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Snapshot encoding
// ---------------------------------------------------------------------------

/// A checkpoint of the service plane: the full broker state plus, for
/// chaos runs, the fault plan still in force (its cursor is the
/// capture epoch, `state.epoch`).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The broker state at the capture epoch.
    pub state: BrokerState,
    /// The fault schedule the run was captured under, if any. Faults
    /// with `epoch > state.epoch` are still pending.
    pub faults: Option<FaultPlan>,
}

impl Snapshot {
    /// Captures a broker (and optionally the fault plan it runs
    /// under) at the current epoch.
    pub fn capture(broker: &Broker, faults: Option<FaultPlan>) -> Snapshot {
        Snapshot { state: broker.snapshot_state(), faults }
    }

    /// Encodes the snapshot: the broker-state section, then the fault
    /// plan's when there is one.
    pub fn encode(&self) -> Vec<u8> {
        let mut sections = vec![(SECTION_STATE, encode_with(encode_state, &self.state))];
        if let Some(plan) = &self.faults {
            sections.push((SECTION_FAULTS, encode_with(encode_fault_plan, plan)));
        }
        encode_sections(&sections)
    }

    /// Decodes a snapshot, skipping unknown sections (forward
    /// compatibility) and rejecting unknown versions, truncation, and
    /// corruption with typed errors.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut state = None;
        let mut faults = None;
        decode_sections(bytes, |tag, payload| match tag {
            SECTION_STATE => {
                fill_once(&mut state, decode_whole(payload, decode_state)?, "broker-state")
            }
            SECTION_FAULTS => {
                fill_once(&mut faults, decode_whole(payload, decode_fault_plan)?, "fault-plan")
            }
            // Unknown sections are future extensions: skip.
            _ => Ok(()),
        })?;
        let state =
            state.ok_or_else(|| SnapshotError::Corrupt("missing broker-state section".into()))?;
        Ok(Snapshot { state, faults })
    }

    /// Encodes and writes the snapshot to `path`.
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        Ok(std::fs::write(path, self.encode())?)
    }

    /// Reads and decodes a snapshot from `path`.
    pub fn read_file(path: &std::path::Path) -> Result<Snapshot, SnapshotError> {
        Snapshot::decode(&std::fs::read(path)?)
    }

    /// Reconstructs a live broker from this snapshot. Telemetry
    /// starts disabled; attach a sink before serving.
    pub fn restore(
        &self,
        machine: Arc<Machine>,
        attrs: Arc<MemAttrs>,
    ) -> Result<Broker, SnapshotError> {
        Ok(Broker::restore(machine, attrs, &self.state)?)
    }
}

/// A checkpoint of a whole federation: one [`BrokerState`] per member
/// broker, in broker-id order, in a single `HMSN` file. Each member
/// gets its own `SECTION_BROKER` section, so single-broker readers
/// skip federated snapshots cleanly (unknown sections) instead of
/// misdecoding them.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedSnapshot {
    /// Per-broker states, sorted by [`BrokerState::id`].
    pub states: Vec<BrokerState>,
}

impl FederatedSnapshot {
    /// Captures every member broker at its current epoch.
    pub fn capture<'a>(brokers: impl IntoIterator<Item = &'a Broker>) -> FederatedSnapshot {
        let mut states: Vec<BrokerState> =
            brokers.into_iter().map(|b| b.snapshot_state()).collect();
        states.sort_by_key(|s| s.id);
        FederatedSnapshot { states }
    }

    /// Encodes the snapshot: one `SECTION_BROKER` section per member.
    pub fn encode(&self) -> Vec<u8> {
        let sections: Vec<(u8, Vec<u8>)> =
            self.states.iter().map(|s| (SECTION_BROKER, encode_with(encode_state, s))).collect();
        encode_sections(&sections)
    }

    /// Decodes a federated snapshot, skipping unknown sections and
    /// rejecting unknown versions, truncation, corruption, and
    /// duplicate broker ids with typed errors.
    pub fn decode(bytes: &[u8]) -> Result<FederatedSnapshot, SnapshotError> {
        let mut states: Vec<BrokerState> = Vec::new();
        decode_sections(bytes, |tag, payload| {
            if tag == SECTION_BROKER {
                let decoded = decode_whole(payload, decode_state)?;
                if states.iter().any(|s| s.id == decoded.id) {
                    return Err(SnapshotError::Corrupt(format!(
                        "duplicate broker id {} in federated snapshot",
                        decoded.id
                    )));
                }
                states.push(decoded);
            }
            Ok(())
        })?;
        if states.is_empty() {
            return Err(SnapshotError::Corrupt("no per-broker sections".into()));
        }
        states.sort_by_key(|s| s.id);
        Ok(FederatedSnapshot { states })
    }

    /// Encodes and writes the snapshot to `path`.
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        Ok(std::fs::write(path, self.encode())?)
    }

    /// Reads and decodes a federated snapshot from `path`.
    pub fn read_file(path: &std::path::Path) -> Result<FederatedSnapshot, SnapshotError> {
        FederatedSnapshot::decode(&std::fs::read(path)?)
    }

    /// Reconstructs every member broker (each rebuilds its shard from
    /// its own stripe set). Telemetry starts disabled on each.
    pub fn restore_all(
        &self,
        machine: Arc<Machine>,
        attrs: Arc<MemAttrs>,
    ) -> Result<Vec<Broker>, SnapshotError> {
        self.states
            .iter()
            .map(|s| Ok(Broker::restore(machine.clone(), attrs.clone(), s)?))
            .collect()
    }
}

/// The first bytes of a file: its magic, then its format version.
fn header(magic: [u8; 4], version: u64) -> Vec<u8> {
    let mut out = magic.to_vec();
    put_u64(&mut out, version);
    out
}

/// Checks the magic and version [`header`] wrote at the start of
/// `bytes`, naming the format `expected` in a magic error, and returns
/// a cursor past them.
fn open<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    expected: &'static str,
    supported: u64,
) -> Result<Cursor<'a>, SnapshotError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4).map_err(|_| SnapshotError::BadMagic { expected })? != magic {
        return Err(SnapshotError::BadMagic { expected });
    }
    let found = cur.u64()?;
    if found > supported {
        return Err(SnapshotError::UnsupportedVersion { found, supported });
    }
    Ok(cur)
}

/// The `HMSN` framing of [`Snapshot`] and [`FederatedSnapshot`]: the
/// header, the section count, then each section as its tag, its
/// payload's length and the payload.
fn encode_sections(sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    put_u64(&mut out, sections.len() as u64);
    for (tag, payload) in sections {
        out.push(*tag);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
    out
}

/// Reads the framing [`encode_sections`] writes, handing each
/// section's tag and payload to `section` in file order, and refuses
/// trailing bytes.
fn decode_sections(
    bytes: &[u8],
    mut section: impl FnMut(u8, &[u8]) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let mut cur = open(bytes, SNAPSHOT_MAGIC, "snapshot", SNAPSHOT_VERSION)?;
    for _ in 0..cur.u64()? {
        let tag = cur.take(1)?[0];
        let len = cur.u64()? as usize;
        section(tag, cur.take(len)?)?;
    }
    Ok(cur.done()?)
}

/// `value` encoded by `encode` into a fresh buffer.
fn encode_with<T>(encode: fn(&T, &mut Vec<u8>), value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode(value, &mut out);
    out
}

/// Decodes a section payload that `decode` must consume whole.
fn decode_whole<T>(
    payload: &[u8],
    decode: fn(&mut Cursor<'_>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let mut cur = Cursor::new(payload);
    let value = decode(&mut cur)?;
    cur.done()?;
    Ok(value)
}

/// Fills `slot` with the value of a section that may appear once.
fn fill_once<T>(slot: &mut Option<T>, value: T, what: &str) -> Result<(), SnapshotError> {
    match slot.replace(value) {
        Some(_) => Err(SnapshotError::Corrupt(format!("duplicate {what} section"))),
        None => Ok(()),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    put_bool(out, v.is_some());
    if let Some(v) = v {
        put_u64(out, v);
    }
}

fn read_opt_u64(cur: &mut Cursor<'_>) -> Result<Option<u64>, SnapshotError> {
    Ok(if cur.bool()? { Some(cur.u64()?) } else { None })
}

fn put_kind(out: &mut Vec<u8>, kind: MemoryKind) {
    put_str(out, kind_name(kind));
}

fn read_kind(cur: &mut Cursor<'_>) -> Result<MemoryKind, SnapshotError> {
    let name = cur.str()?;
    kind_from_name(&name)
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown memory kind {name:?}")))
}

fn put_kind_bytes(out: &mut Vec<u8>, pairs: &[(MemoryKind, u64)]) {
    put_u64(out, pairs.len() as u64);
    for &(kind, bytes) in pairs {
        put_kind(out, kind);
        put_u64(out, bytes);
    }
}

fn read_kind_bytes(cur: &mut Cursor<'_>) -> Result<Vec<(MemoryKind, u64)>, SnapshotError> {
    let n = cur.u64()? as usize;
    (0..n).map(|_| Ok((read_kind(cur)?, cur.u64()?))).collect()
}

/// Canonical encoding of a [`BrokerState`]. Two equal states always
/// encode to identical bytes (every collection in the state is
/// sorted), which is what makes byte-for-byte replay verification
/// meaningful. Exposed so recorders and verifiers share one encoder.
pub fn encode_state(state: &BrokerState, out: &mut Vec<u8>) {
    put_str(out, &state.machine);
    put_str(out, state.policy.as_str());
    put_u64(out, state.id as u64);
    put_u64(out, state.epoch);
    put_u64(out, state.next_tenant as u64);
    put_u64(out, state.next_lease);
    put_u64(out, state.stall_until);
    put_u64(out, state.expired_total);
    put_u64(out, state.revoked_total);
    put_u64(out, state.reclaimed_bytes_total);
    put_u64(out, state.degraded.len() as u64);
    for &kind in &state.degraded {
        put_kind(out, kind);
    }
    put_u64(out, state.tenants.len() as u64);
    for t in &state.tenants {
        put_u64(out, t.id as u64);
        put_str(out, &t.name);
        put_str(out, t.priority.as_str());
        put_kind_bytes(out, &t.quota);
        put_kind_bytes(out, &t.reserve);
        put_opt_u64(out, t.lease_ttl);
        put_u64(out, t.admits);
        put_u64(out, t.clamps);
        put_u64(out, t.stalls);
    }
    put_u64(out, state.leases.len() as u64);
    for l in &state.leases {
        put_u64(out, l.id);
        put_u64(out, l.tenant as u64);
        put_u64(out, l.region);
        put_placement(out, &l.placement);
        put_opt_u64(out, l.ttl);
        put_opt_u64(out, l.expires_at);
    }
    put_u64(out, state.stripes.len() as u64);
    for s in &state.stripes {
        put_u64(out, s.node.0 as u64);
        put_u64(out, s.free);
        put_u64(out, s.used_by.len() as u64);
        for &(tenant, bytes) in &s.used_by {
            put_u64(out, tenant as u64);
            put_u64(out, bytes);
        }
    }
    encode_manager(&state.manager, out);
}

fn encode_manager(m: &ManagerState, out: &mut Vec<u8>) {
    put_u64(out, m.regions.len() as u64);
    for r in &m.regions {
        put_u64(out, r.id);
        put_u64(out, r.size);
        put_placement(out, &r.placement);
        encode_policy(&r.policy, out);
    }
    put_u64(out, m.next_id);
    put_u64(out, m.high_water.len() as u64);
    for &(node, bytes) in &m.high_water {
        put_u64(out, node.0 as u64);
        put_u64(out, bytes);
    }
}

fn encode_policy(policy: &AllocPolicy, out: &mut Vec<u8>) {
    match policy {
        AllocPolicy::Bind(node) => {
            out.push(0);
            put_u64(out, node.0 as u64);
        }
        AllocPolicy::Preferred(node) => {
            out.push(1);
            put_u64(out, node.0 as u64);
        }
        AllocPolicy::PreferredMany(nodes) => {
            out.push(2);
            put_u64(out, nodes.len() as u64);
            for node in nodes {
                put_u64(out, node.0 as u64);
            }
        }
        AllocPolicy::Interleave(nodes) => {
            out.push(3);
            put_u64(out, nodes.len() as u64);
            for node in nodes {
                put_u64(out, node.0 as u64);
            }
        }
        AllocPolicy::Exact(chunks) => {
            out.push(4);
            put_placement(out, chunks);
        }
    }
}

/// Decodes one [`BrokerState`] (the inverse of [`encode_state`]).
pub fn decode_state(cur: &mut Cursor<'_>) -> Result<BrokerState, SnapshotError> {
    let machine = cur.str()?;
    let policy_name = cur.str()?;
    let policy = ArbitrationPolicy::from_str_opt(&policy_name).ok_or_else(|| {
        SnapshotError::Corrupt(format!("unknown arbitration policy {policy_name:?}"))
    })?;
    let id = cur.u32()?;
    let epoch = cur.u64()?;
    let next_tenant = cur.u32()?;
    let next_lease = cur.u64()?;
    let stall_until = cur.u64()?;
    let expired_total = cur.u64()?;
    let revoked_total = cur.u64()?;
    let reclaimed_bytes_total = cur.u64()?;
    let n = cur.u64()? as usize;
    let degraded = (0..n).map(|_| read_kind(cur)).collect::<Result<Vec<_>, _>>()?;
    let n = cur.u64()? as usize;
    let tenants = (0..n)
        .map(|_| {
            let id = cur.u32()?;
            let name = cur.str()?;
            let priority_name = cur.str()?;
            let priority = Priority::from_str_opt(&priority_name).ok_or_else(|| {
                SnapshotError::Corrupt(format!("unknown priority {priority_name:?}"))
            })?;
            Ok(TenantEntry {
                id,
                name,
                priority,
                quota: read_kind_bytes(cur)?,
                reserve: read_kind_bytes(cur)?,
                lease_ttl: read_opt_u64(cur)?,
                admits: cur.u64()?,
                clamps: cur.u64()?,
                stalls: cur.u64()?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let n = cur.u64()? as usize;
    let leases = (0..n)
        .map(|_| {
            Ok(LeaseEntry {
                id: cur.u64()?,
                tenant: cur.u32()?,
                region: cur.u64()?,
                placement: cur.placement()?,
                ttl: read_opt_u64(cur)?,
                expires_at: read_opt_u64(cur)?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let n = cur.u64()? as usize;
    let stripes = (0..n)
        .map(|_| {
            let node = cur.node()?;
            let free = cur.u64()?;
            let m = cur.u64()? as usize;
            let used_by =
                (0..m).map(|_| Ok((cur.u32()?, cur.u64()?))).collect::<Result<Vec<_>, _>>()?;
            Ok(StripeEntry { node, free, used_by })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    let manager = decode_manager(cur)?;
    Ok(BrokerState {
        machine,
        policy,
        id,
        epoch,
        next_tenant,
        next_lease,
        stall_until,
        expired_total,
        revoked_total,
        reclaimed_bytes_total,
        degraded,
        tenants,
        leases,
        stripes,
        manager,
    })
}

fn decode_manager(cur: &mut Cursor<'_>) -> Result<ManagerState, SnapshotError> {
    let n = cur.u64()? as usize;
    let regions = (0..n)
        .map(|_| {
            Ok(RegionState {
                id: cur.u64()?,
                size: cur.u64()?,
                placement: cur.placement()?,
                policy: decode_policy(cur)?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let next_id = cur.u64()?;
    let n = cur.u64()? as usize;
    let high_water =
        (0..n).map(|_| Ok((cur.node()?, cur.u64()?))).collect::<Result<Vec<_>, CodecError>>()?;
    Ok(ManagerState { regions, next_id, high_water })
}

fn decode_policy(cur: &mut Cursor<'_>) -> Result<AllocPolicy, SnapshotError> {
    let tag = cur.take(1)?[0];
    let nodes = |cur: &mut Cursor<'_>| -> Result<Vec<NodeId>, CodecError> {
        let n = cur.u64()? as usize;
        (0..n).map(|_| cur.node()).collect()
    };
    Ok(match tag {
        0 => AllocPolicy::Bind(cur.node()?),
        1 => AllocPolicy::Preferred(cur.node()?),
        2 => AllocPolicy::PreferredMany(nodes(cur)?),
        3 => AllocPolicy::Interleave(nodes(cur)?),
        4 => AllocPolicy::Exact(cur.placement()?),
        t => return Err(SnapshotError::Corrupt(format!("unknown alloc policy tag {t}"))),
    })
}

fn encode_fault_plan(plan: &FaultPlan, out: &mut Vec<u8>) {
    put_u64(out, plan.len() as u64);
    for fault in plan.faults() {
        put_u64(out, fault.epoch);
        match &fault.kind {
            FaultKind::TierDegraded { kind, epochs } => {
                out.push(0);
                put_kind(out, *kind);
                put_u64(out, *epochs);
            }
            FaultKind::ClientDrop { victim } => {
                out.push(1);
                put_u64(out, *victim);
            }
            FaultKind::SlowClient { victim, epochs } => {
                out.push(2);
                put_u64(out, *victim);
                put_u64(out, *epochs);
            }
            FaultKind::AllocStall { epochs } => {
                out.push(3);
                put_u64(out, *epochs);
            }
        }
    }
}

fn decode_fault_plan(cur: &mut Cursor<'_>) -> Result<FaultPlan, SnapshotError> {
    let n = cur.u64()? as usize;
    let mut plan = FaultPlan::new();
    for _ in 0..n {
        let epoch = cur.u64()?;
        let tag = cur.take(1)?[0];
        let kind = match tag {
            0 => FaultKind::TierDegraded { kind: read_kind(cur)?, epochs: cur.u64()? },
            1 => FaultKind::ClientDrop { victim: cur.u64()? },
            2 => FaultKind::SlowClient { victim: cur.u64()?, epochs: cur.u64()? },
            3 => FaultKind::AllocStall { epochs: cur.u64()? },
            t => return Err(SnapshotError::Corrupt(format!("unknown fault kind tag {t}"))),
        };
        plan = plan.inject(epoch, kind);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Wire log
// ---------------------------------------------------------------------------

/// One record in a wire log.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// An accepted request frame, as JSON, stamped with the epoch the
    /// server executed it in.
    Request {
        /// Execution epoch.
        epoch: u64,
        /// The request, in the wire protocol's JSON encoding.
        json: String,
    },
    /// A tier-degradation transition (fault injection or recovery).
    TierFault {
        /// Epoch the transition was applied in.
        epoch: u64,
        /// The tier.
        kind: MemoryKind,
        /// `true` = degraded, `false` = recovered.
        degraded: bool,
    },
    /// An allocation-stall fault: the broker refuses allocations for
    /// `epochs` epochs from `epoch`.
    AllocStall {
        /// Epoch the stall was injected in.
        epoch: u64,
        /// Stall length in epochs.
        epochs: u64,
    },
    /// The closing record of a graceful recording: the final epoch,
    /// the canonical [`encode_state`] bytes of the final broker
    /// state, and the rendered telemetry [`Summary`] of the recorded
    /// segment. Replay verifies against both, byte for byte.
    Trailer {
        /// Final epoch of the recorded run.
        epoch: u64,
        /// Canonical encoding of the final [`BrokerState`].
        state: Vec<u8>,
        /// `Summary::render()` of the recorded segment's telemetry.
        summary: String,
    },
}

impl WireFrame {
    /// The epoch stamp of this frame.
    pub fn epoch(&self) -> u64 {
        match self {
            WireFrame::Request { epoch, .. }
            | WireFrame::TierFault { epoch, .. }
            | WireFrame::AllocStall { epoch, .. }
            | WireFrame::Trailer { epoch, .. } => *epoch,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireFrame::Request { epoch, json } => {
                out.push(0);
                put_u64(out, *epoch);
                put_str(out, json);
            }
            WireFrame::TierFault { epoch, kind, degraded } => {
                out.push(1);
                put_u64(out, *epoch);
                put_kind(out, *kind);
                put_bool(out, *degraded);
            }
            WireFrame::AllocStall { epoch, epochs } => {
                out.push(2);
                put_u64(out, *epoch);
                put_u64(out, *epochs);
            }
            WireFrame::Trailer { epoch, state, summary } => {
                out.push(3);
                put_u64(out, *epoch);
                put_u64(out, state.len() as u64);
                out.extend_from_slice(state);
                put_str(out, summary);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<WireFrame, SnapshotError> {
        let mut cur = Cursor::new(payload);
        let tag = cur.take(1)?[0];
        let frame = match tag {
            0 => WireFrame::Request { epoch: cur.u64()?, json: cur.str()? },
            1 => WireFrame::TierFault {
                epoch: cur.u64()?,
                kind: read_kind(&mut cur)?,
                degraded: cur.bool()?,
            },
            2 => WireFrame::AllocStall { epoch: cur.u64()?, epochs: cur.u64()? },
            3 => {
                let epoch = cur.u64()?;
                let len = cur.u64()? as usize;
                let state = cur.take(len)?.to_vec();
                WireFrame::Trailer { epoch, state, summary: cur.str()? }
            }
            t => return Err(SnapshotError::Corrupt(format!("unknown wire frame tag {t}"))),
        };
        cur.done()?;
        Ok(frame)
    }
}

/// A decoded wire log: the machine and policy of the recording broker
/// plus the frame stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WireLog {
    /// Machine name of the recording broker.
    pub machine: String,
    /// Arbitration policy of the recording broker.
    pub policy: ArbitrationPolicy,
    /// Frames, in execution order.
    pub frames: Vec<WireFrame>,
}

impl WireLog {
    /// An empty log for a broker on `machine` under `policy`.
    pub fn new(machine: &str, policy: ArbitrationPolicy) -> WireLog {
        WireLog { machine: machine.to_string(), policy, frames: Vec::new() }
    }

    /// The trailer frame, when the recording ended gracefully.
    pub fn trailer(&self) -> Option<&WireFrame> {
        self.frames.iter().rev().find(|f| matches!(f, WireFrame::Trailer { .. }))
    }

    /// Encodes the whole log (header + framed records).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = header(WIRELOG_MAGIC, WIRELOG_VERSION);
        put_str(&mut out, &self.machine);
        put_str(&mut out, self.policy.as_str());
        let mut payload = Vec::new();
        for frame in &self.frames {
            payload.clear();
            frame.encode(&mut payload);
            put_u64(&mut out, payload.len() as u64);
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Decodes a wire log. A log without a trailer (the recorder died
    /// mid-run) still decodes; replay then reports the final state
    /// unverified.
    pub fn decode(bytes: &[u8]) -> Result<WireLog, SnapshotError> {
        let mut cur = open(bytes, WIRELOG_MAGIC, "wire log", WIRELOG_VERSION)?;
        let machine = cur.str()?;
        let policy_name = cur.str()?;
        let policy = ArbitrationPolicy::from_str_opt(&policy_name).ok_or_else(|| {
            SnapshotError::Corrupt(format!("unknown arbitration policy {policy_name:?}"))
        })?;
        let mut frames = Vec::new();
        while cur.remaining() > 0 {
            let len = cur.u64()? as usize;
            frames.push(WireFrame::decode(cur.take(len)?)?);
        }
        Ok(WireLog { machine, policy, frames })
    }

    /// Encodes and writes the log to `path`.
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        Ok(std::fs::write(path, self.encode())?)
    }

    /// Reads and decodes a log from `path`.
    pub fn read_file(path: &std::path::Path) -> Result<WireLog, SnapshotError> {
        WireLog::decode(&std::fs::read(path)?)
    }
}

/// Streams wire-log records to a file as they happen (`hetmem-serve
/// --record`). The header is written on construction; each frame is
/// flushed immediately, so a crashed server leaves a decodable log —
/// just one without a trailer.
pub struct WireLogWriter {
    out: std::io::BufWriter<std::fs::File>,
    scratch: Vec<u8>,
}

impl WireLogWriter {
    /// Creates `path` (truncating) and writes the log header.
    pub fn create(
        path: &std::path::Path,
        machine: &str,
        policy: ArbitrationPolicy,
    ) -> Result<WireLogWriter, SnapshotError> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut head = header(WIRELOG_MAGIC, WIRELOG_VERSION);
        put_str(&mut head, machine);
        put_str(&mut head, policy.as_str());
        out.write_all(&head)?;
        out.flush()?;
        Ok(WireLogWriter { out, scratch: Vec::new() })
    }

    /// Appends one frame and flushes it.
    pub fn append(&mut self, frame: &WireFrame) -> Result<(), SnapshotError> {
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        let mut len = Vec::new();
        put_u64(&mut len, self.scratch.len() as u64);
        self.out.write_all(&len)?;
        self.out.write_all(&self.scratch)?;
        Ok(self.out.flush()?)
    }

    /// Appends an accepted request stamped with its execution epoch.
    pub fn append_request(&mut self, epoch: u64, request: &Request) -> Result<(), SnapshotError> {
        self.append(&WireFrame::Request { epoch, json: request.to_json() })
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What a [`replay`] produced and how it compared to the recording.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Request frames re-executed.
    pub requests: u64,
    /// Fault-control frames re-applied.
    pub control_frames: u64,
    /// Epoch the replayed broker ended at.
    pub final_epoch: u64,
    /// Telemetry events the replay emitted.
    pub events: u64,
    /// Rendered telemetry summary of the replayed segment.
    pub summary: String,
    /// Canonical [`encode_state`] bytes of the replayed final state.
    pub state_bytes: Vec<u8>,
    /// `Some(true/false)` when the log had a trailer to verify
    /// against; `None` when the recording ended without one.
    pub state_matched: Option<bool>,
    /// Ditto for the telemetry summary.
    pub summary_matched: Option<bool>,
}

impl ReplayReport {
    /// Whether the replay reproduced the recording byte for byte.
    /// `false` when anything diverged **or** the log carried no
    /// trailer to verify against.
    pub fn verified(&self) -> bool {
        self.state_matched == Some(true) && self.summary_matched == Some(true)
    }
}

/// Re-executes a recorded run: restores the snapshot into a live
/// broker, replays every frame at its recorded epoch, and compares
/// the final broker state and the telemetry summary of the replayed
/// segment against the log's trailer.
pub fn replay(
    snapshot: &Snapshot,
    log: &WireLog,
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
) -> Result<ReplayReport, SnapshotError> {
    if log.machine != snapshot.state.machine {
        return Err(SnapshotError::Replay(format!(
            "wire log recorded on machine {:?}, snapshot on {:?}",
            log.machine, snapshot.state.machine
        )));
    }
    let mut broker = Broker::restore(machine, attrs, &snapshot.state)?;
    let sink = TelemetrySink::with_ring_words(1 << 18);
    let mut collector = sink.collector();
    broker.set_sink(sink);
    let mut requests = 0u64;
    let mut control_frames = 0u64;
    let mut trailer: Option<(&[u8], &str)> = None;
    for frame in &log.frames {
        let target = frame.epoch();
        if target < broker.epoch() {
            return Err(SnapshotError::Replay(format!(
                "wire log goes backwards: frame at epoch {target}, broker at {}",
                broker.epoch()
            )));
        }
        while broker.epoch() < target {
            broker.advance_epoch();
        }
        match frame {
            WireFrame::Request { json, .. } => {
                let request = Request::from_json(json)
                    .map_err(|e| SnapshotError::Corrupt(format!("bad recorded request: {e}")))?;
                // Responses are not replayed to anyone; errors the
                // original run saw (denials, stalls) recur identically
                // and leave the same state behind.
                let _ = serve(&broker, request);
                requests += 1;
            }
            WireFrame::TierFault { kind, degraded, .. } => {
                broker.set_tier_degraded(*kind, *degraded);
                control_frames += 1;
            }
            WireFrame::AllocStall { epochs, .. } => {
                broker.set_alloc_stall(*epochs);
                control_frames += 1;
            }
            WireFrame::Trailer { state, summary, .. } => {
                trailer = Some((state.as_slice(), summary.as_str()));
            }
        }
    }
    let events: Vec<_> = collector.drain_sorted().into_iter().map(|e| e.event).collect();
    let summary = Summary::from_events(&events).render();
    let mut state_bytes = Vec::new();
    encode_state(&broker.snapshot_state(), &mut state_bytes);
    let (state_matched, summary_matched) = match trailer {
        Some((expected_state, expected_summary)) => {
            (Some(state_bytes == expected_state), Some(summary == expected_summary))
        }
        None => (None, None),
    };
    Ok(ReplayReport {
        requests,
        control_frames,
        final_epoch: broker.epoch(),
        events: events.len() as u64,
        summary,
        state_bytes,
        state_matched,
        summary_matched,
    })
}

#[cfg(test)]
mod tests;
