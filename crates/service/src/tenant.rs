//! The tenant model: who is asking for memory and what they are
//! entitled to.

use hetmem_topology::MemoryKind;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Opaque tenant handle issued by [`crate::Broker::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Priority class of a tenant. Classes map to arbitration weights —
/// they scale the tenant's fair share of each memory tier, they never
/// preempt: an admitted lease is held until released regardless of who
/// asks later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive, e.g. a graph kernel whose pointer chases
    /// stall the critical path. Weight 4.
    Latency,
    /// Ordinary throughput job. Weight 2.
    #[default]
    Normal,
    /// Best-effort batch work, happy to run from slow memory. Weight 1.
    Batch,
}

impl Priority {
    /// The arbitration weight of this class.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Latency => 4,
            Priority::Normal => 2,
            Priority::Batch => 1,
        }
    }

    /// Stable lowercase name (wire format and DSL spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Latency => "latency",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parses the wire/DSL spelling produced by [`Priority::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Priority> {
        match s {
            "latency" => Some(Priority::Latency),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Registration request for one tenant, built fluently like
/// `AllocRequest`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    priority: Priority,
    quota: BTreeMap<MemoryKind, u64>,
    reserve: BTreeMap<MemoryKind, u64>,
    lease_ttl: Option<u64>,
}

impl TenantSpec {
    /// A tenant named `name` with [`Priority::Normal`], no quota, no
    /// reservation, and no default lease TTL (leases live until
    /// released).
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            priority: Priority::default(),
            quota: BTreeMap::new(),
            reserve: BTreeMap::new(),
            lease_ttl: None,
        }
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> TenantSpec {
        self.priority = priority;
        self
    }

    /// Hard per-tier cap: the tenant never holds more than `bytes` on
    /// `kind` memory, even when the tier is idle.
    pub fn quota(mut self, kind: MemoryKind, bytes: u64) -> TenantSpec {
        self.quota.insert(kind, bytes);
        self
    }

    /// Guaranteed floor: `bytes` of `kind` memory are always
    /// admissible for this tenant — other tenants may only borrow the
    /// tier's surplus beyond everyone's floors.
    pub fn reserve(mut self, kind: MemoryKind, bytes: u64) -> TenantSpec {
        self.reserve.insert(kind, bytes);
        self
    }

    /// The tenant name.
    pub fn get_name(&self) -> &str {
        &self.name
    }

    /// The priority class.
    pub fn get_priority(&self) -> Priority {
        self.priority
    }

    /// The per-tier quota map.
    pub fn get_quota(&self) -> &BTreeMap<MemoryKind, u64> {
        &self.quota
    }

    /// Default lease TTL in service epochs: every lease this tenant
    /// acquires expires `epochs` ticks after its grant (or last
    /// renewal) unless a `renew`/`heartbeat` arrives first. Without a
    /// TTL a crashed client leaks its quota forever; with one, the
    /// broker reclaims it within one TTL of the client going silent.
    ///
    /// ```
    /// use hetmem_service::TenantSpec;
    /// let spec = TenantSpec::new("stream").lease_ttl(5);
    /// assert_eq!(spec.get_lease_ttl(), Some(5));
    /// ```
    pub fn lease_ttl(mut self, epochs: u64) -> TenantSpec {
        self.lease_ttl = Some(epochs);
        self
    }

    /// The default lease TTL in epochs, if one is set.
    pub fn get_lease_ttl(&self) -> Option<u64> {
        self.lease_ttl
    }

    /// The per-tier reservation map.
    pub fn get_reserve(&self) -> &BTreeMap<MemoryKind, u64> {
        &self.reserve
    }
}

/// Internal registry record for one tenant: its registration, fixed
/// once registered, and its lifetime counters.
#[derive(Debug)]
pub(crate) struct TenantRecord {
    pub(crate) name: String,
    pub(crate) priority: Priority,
    pub(crate) quota: BTreeMap<MemoryKind, u64>,
    pub(crate) reserve: BTreeMap<MemoryKind, u64>,
    /// Default TTL applied to this tenant's leases, in epochs.
    pub(crate) lease_ttl: Option<u64>,
    /// Admissions granted (lifetime counter).
    pub(crate) admits: AtomicU64,
    /// Quota clamps suffered (lifetime counter).
    pub(crate) clamps: AtomicU64,
    /// Contention stalls charged (lifetime counter).
    pub(crate) stalls: AtomicU64,
}

impl TenantRecord {
    /// A fresh record for `spec` with zeroed counters.
    pub(crate) fn new(spec: &TenantSpec) -> TenantRecord {
        TenantRecord {
            name: spec.name.clone(),
            priority: spec.priority,
            quota: spec.quota.clone(),
            reserve: spec.reserve.clone(),
            lease_ttl: spec.lease_ttl,
            admits: AtomicU64::new(0),
            clamps: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        }
    }
}

/// An immutable snapshot of the tenant registry, shared as an `Arc`
/// and replaced wholesale whenever a tenant registers (or a broker is
/// restored). Requests read it without a lock or a copy.
///
/// Besides each tenant's record it holds every tenant's guaranteed
/// floor on every tier, computed once here, so fair-share admission
/// costs O(tenants) per candidate tier instead of recomputing each
/// other tenant's guarantee from the whole registry. The records —
/// and with them the lifetime counters, which are atomics — are
/// shared by every generation of the snapshot, so a counter bumped
/// through a superseded snapshot is never lost.
#[derive(Debug)]
pub(crate) struct Registry {
    /// Registered tenant ids, ascending. Index `i` of `records` and of
    /// every `guarantees` row describes `ids[i]`.
    ids: Vec<TenantId>,
    records: Vec<Arc<TenantRecord>>,
    /// Per tier, every tenant's guaranteed floor by index.
    guarantees: BTreeMap<MemoryKind, Vec<u64>>,
}

impl Registry {
    /// A snapshot of `tenants` on tiers of `tier_capacity` bytes.
    /// `tenants` must be sorted by id without duplicates.
    ///
    /// A tenant's guarantee on a tier is its explicit reservation plus
    /// its weight-proportional share of the unreserved capacity. The
    /// sums saturate so a corrupt restored registry cannot overflow;
    /// for every registry [`crate::Broker::register`] admits they are
    /// exact, because reservations never oversubscribe a tier.
    pub(crate) fn build(
        tenants: Vec<(TenantId, Arc<TenantRecord>)>,
        tier_capacity: &BTreeMap<MemoryKind, u64>,
    ) -> Registry {
        let (ids, records): (Vec<TenantId>, Vec<Arc<TenantRecord>>) = tenants.into_iter().unzip();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "registry ids must ascend");
        let weights: u64 = records.iter().map(|t| t.priority.weight()).sum();
        let guarantees = tier_capacity
            .iter()
            .map(|(&kind, &capacity)| {
                let reserve = |t: &TenantRecord| t.reserve.get(&kind).copied().unwrap_or(0);
                let reserved = records.iter().map(|t| reserve(t)).fold(0, u64::saturating_add);
                let unreserved = capacity.saturating_sub(reserved);
                let floors = records
                    .iter()
                    .map(|t| {
                        let share = if weights == 0 {
                            0
                        } else {
                            (unreserved as u128 * t.priority.weight() as u128 / weights as u128)
                                as u64
                        };
                        reserve(t).saturating_add(share)
                    })
                    .collect();
                (kind, floors)
            })
            .collect();
        Registry { ids, records, guarantees }
    }

    /// This snapshot plus tenant `id` (issued after every id here).
    pub(crate) fn with(
        &self,
        id: TenantId,
        record: TenantRecord,
        tier_capacity: &BTreeMap<MemoryKind, u64>,
    ) -> Registry {
        let tenants = self
            .ids
            .iter()
            .copied()
            .zip(self.records.iter().cloned())
            .chain(std::iter::once((id, Arc::new(record))))
            .collect();
        Registry::build(tenants, tier_capacity)
    }

    /// Number of registered tenants.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The index of tenant `id`, if registered.
    pub(crate) fn index(&self, id: TenantId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The record at `index`.
    pub(crate) fn record(&self, index: usize) -> &TenantRecord {
        &self.records[index]
    }

    /// The record of tenant `id`, if registered.
    pub(crate) fn get(&self, id: TenantId) -> Option<&TenantRecord> {
        self.index(id).map(|i| self.record(i))
    }

    /// Every tenant in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TenantId, &TenantRecord)> + '_ {
        self.ids.iter().copied().zip(self.records.iter().map(|r| &**r))
    }

    /// Every tenant's guaranteed floor on tier `kind`, by index.
    /// `kind` must be one of the tiers the snapshot was built over.
    pub(crate) fn guarantees(&self, kind: MemoryKind) -> &[u64] {
        &self.guarantees[&kind]
    }

    /// The registered name of `id`, or its display form when unknown
    /// (telemetry labels).
    pub(crate) fn name(&self, id: TenantId) -> String {
        self.get(id).map(|t| t.name.clone()).unwrap_or_else(|| format!("{id}"))
    }
}

/// Public snapshot of one tenant's standing, returned by
/// [`crate::Broker::tenants`] and the wire `stats` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant id.
    pub id: TenantId,
    /// Tenant name.
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Live bytes held per tier.
    pub held: BTreeMap<MemoryKind, u64>,
    /// Admissions granted so far.
    pub admits: u64,
    /// Quota clamps suffered so far.
    pub clamps: u64,
    /// Contention stalls charged so far.
    pub stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_weights_and_names_roundtrip() {
        for p in [Priority::Latency, Priority::Normal, Priority::Batch] {
            assert_eq!(Priority::from_str_opt(p.as_str()), Some(p));
        }
        assert!(Priority::Latency.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Batch.weight());
        assert_eq!(Priority::from_str_opt("urgent"), None);
    }

    #[test]
    fn spec_builder_accumulates() {
        let s = TenantSpec::new("stream")
            .priority(Priority::Batch)
            .quota(MemoryKind::Hbm, 1 << 30)
            .reserve(MemoryKind::Dram, 2 << 30);
        assert_eq!(s.get_name(), "stream");
        assert_eq!(s.get_priority(), Priority::Batch);
        assert_eq!(s.get_quota().get(&MemoryKind::Hbm), Some(&(1 << 30)));
        assert_eq!(s.get_reserve().get(&MemoryKind::Dram), Some(&(2 << 30)));
    }
}
