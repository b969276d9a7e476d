//! Sharded, batched admission dispatch — the plane between request
//! producers (wire readers, the scenario runner, the load harness)
//! and the [`Broker`].
//!
//! The single-shard service funnels every admission through one
//! queue; past a few hundred thousand clients that queue *is* the
//! latency. This module partitions admissions into `S` shards, each
//! with its own queue and ticks:
//!
//! * **Assignment** — [`ShardAssignment::TenantGroup`] (default)
//!   routes tenant `t` to shard `t mod S`, so one tenant's requests
//!   stay ordered on one queue. [`ShardAssignment::Node`] routes by
//!   the NUMA node local to the request's initiator, keeping a
//!   shard's work topology-local at the cost of cross-queue tenant
//!   ordering.
//! * **Coalescing** — within one drained batch, same-tenant requests
//!   that agree on criterion, fallback, scope, initiator and TTL are
//!   merged into a single [`Broker::acquire_batch`] planning walk
//!   (one ranking, one ledger-lock round, one plan; grants fan back
//!   out per request). One `BatchCoalesced` event records each merge.
//! * **Work stealing** — a shard whose queue drained steals the back
//!   half of the longest sibling queue before idling, emitting a
//!   `ShardSteal` event. Victims keep their queue *head*, but the
//!   stolen tail is served alongside it (here in shard order, in the
//!   live server on another thread), so across a steal requests can
//!   be served out of arrival order.
//!
//! [`ShardCore`] here is the deterministic, thread-free form of that
//! plane: callers `submit` then `drain` on one thread, and the exact
//! same request stream produces the exact same grants, steals and
//! telemetry every run. The load harness drives `ShardCore` directly
//! so its numbers are reproducible on any machine. In the live server
//! (`Server::bind_sharded`) readers serve their shard's ticks — the
//! connection thread that wins a shard's serve token drains its queue
//! — and each shard keeps one steal thread for idle stealing. It
//! applies the same steal and merge rules with a narrower grouping: it
//! merges only *consecutive* same-key `alloc` frames of a tick, where
//! `ShardCore` groups a whole drained batch by key in first-arrival
//! order.
//!
//! With `shards == 1` and coalescing off, the plane degenerates to
//! exactly the serial admission order of one queue — the regression
//! anchor `tests/shard_dispatch.rs` pins byte for byte.

use crate::broker::{Broker, Lease};
use crate::tenant::TenantId;
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use hetmem_telemetry::{Event, ShardSteal};
use hetmem_topology::LocalityFlags;
use std::collections::VecDeque;
use std::sync::Arc;

/// How requests map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardAssignment {
    /// Tenant `t` always lands on shard `t mod S` — one tenant, one
    /// queue, so per-tenant arrival order is preserved end to end.
    #[default]
    TenantGroup,
    /// Route by the first NUMA node local to the request's initiator
    /// (`node mod S`), so a shard's admissions stay topology-local.
    /// Requests with no initiator fall back to shard 0.
    Node,
}

impl ShardAssignment {
    /// Stable lowercase name (DSL and report spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardAssignment::TenantGroup => "tenant-group",
            ShardAssignment::Node => "node",
        }
    }
}

/// Dispatch-plane shape: how many shards, whether to coalesce, and
/// the assignment function. The default (`1` shard, no coalescing)
/// is the single-shard plane unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of dispatch shards (≥ 1; `0` is treated as `1`).
    pub shards: u32,
    /// Merge mergeable same-tenant requests into one planning walk.
    pub coalesce: bool,
    /// The shard assignment function.
    pub assignment: ShardAssignment,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, coalesce: false, assignment: ShardAssignment::default() }
    }
}

impl ShardConfig {
    /// A config with `shards` shards, coalescing on for `shards > 1`
    /// (the recommended operating point: sharding without batching
    /// leaves the planning-walk savings on the table).
    pub fn with_shards(shards: u32) -> ShardConfig {
        ShardConfig { shards: shards.max(1), coalesce: shards > 1, ..Default::default() }
    }

    /// The effective shard count (`0` clamps to `1`).
    pub fn effective_shards(&self) -> u32 {
        self.shards.max(1)
    }
}

/// One queued admission.
struct Pending {
    token: u64,
    tenant: TenantId,
    req: AllocRequest,
    ttl: Option<u64>,
}

/// The deterministic sharded dispatch core: per-shard FIFO queues,
/// batch coalescing, and drain-time work stealing, all on the
/// caller's thread. See the module docs for the semantics.
pub struct ShardCore {
    broker: Arc<Broker>,
    config: ShardConfig,
    queues: Vec<VecDeque<Pending>>,
    next_token: u64,
    steals: u64,
    stolen_requests: u64,
    coalesced_batches: u64,
    coalesced_requests: u64,
}

impl ShardCore {
    /// A core over `broker` shaped by `config`.
    pub fn new(broker: Arc<Broker>, config: ShardConfig) -> ShardCore {
        let shards = config.effective_shards() as usize;
        ShardCore {
            broker,
            config,
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            next_token: 0,
            steals: 0,
            stolen_requests: 0,
            coalesced_batches: 0,
            coalesced_requests: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The broker behind the plane.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// The shard `tenant`'s request lands on under the configured
    /// assignment function.
    pub fn shard_of(&self, tenant: TenantId, req: &AllocRequest) -> u32 {
        let shards = self.queues.len() as u32;
        match self.config.assignment {
            ShardAssignment::TenantGroup => tenant.0 % shards,
            ShardAssignment::Node => {
                let topology = self.broker.machine().topology();
                let initiator = req.get_initiator().unwrap_or_else(|| topology.machine_cpuset());
                topology
                    .local_numa_nodes(initiator, LocalityFlags::intersecting())
                    .first()
                    .map_or(0, |node| node.os_index % shards)
            }
        }
    }

    /// Enqueues one admission and returns its correlation token; the
    /// matching result comes out of a later [`ShardCore::drain`].
    pub fn submit(&mut self, tenant: TenantId, req: AllocRequest, ttl: Option<u64>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let shard = self.shard_of(tenant, &req) as usize;
        self.queues[shard].push_back(Pending { token, tenant, req, ttl });
        token
    }

    /// Current queue depth per shard.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues.iter().map(VecDeque::len).collect()
    }

    /// Steals and coalesced-batch counters since construction:
    /// `(steals, stolen_requests, coalesced_batches,
    /// coalesced_requests)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.steals, self.stolen_requests, self.coalesced_batches, self.coalesced_requests)
    }

    /// One dispatch round: every shard balances (idle shards steal
    /// from the longest sibling queue), then serves its whole queue —
    /// coalescing mergeable same-tenant runs when configured. Returns
    /// `(token, result)` pairs in service order.
    pub fn drain(&mut self) -> Vec<(u64, Result<Lease, ServiceError>)> {
        let stolen_before = self.stolen_requests;
        self.balance();
        let mut results = Vec::new();
        for shard in 0..self.queues.len() {
            let batch: Vec<Pending> = self.queues[shard].drain(..).collect();
            if batch.is_empty() {
                continue;
            }
            if self.config.coalesce {
                self.serve_coalesced(shard as u32, batch, &mut results);
            } else {
                for p in batch {
                    results.push((p.token, self.broker.acquire_with_ttl(p.tenant, &p.req, p.ttl)));
                }
            }
        }
        // Feed the epoch's steal-rate meter (`docs/OPERATIONS.md` §8).
        self.broker.note_shard_dispatch(results.len() as u64, self.stolen_requests - stolen_before);
        results
    }

    /// The work-stealing pass: each empty shard takes the back half of
    /// the longest sibling queue (≥ 2 pending), in shard order. The
    /// victim keeps its queue head; a thief with a lower index drains
    /// the stolen tail before it.
    fn balance(&mut self) {
        let shards = self.queues.len();
        if shards < 2 {
            return;
        }
        for thief in 0..shards {
            if !self.queues[thief].is_empty() {
                continue;
            }
            let victim = (0..shards)
                .filter(|&s| s != thief)
                .max_by_key(|&s| (self.queues[s].len(), std::cmp::Reverse(s)));
            let Some(victim) = victim else { continue };
            let len = self.queues[victim].len();
            if len < 2 {
                continue;
            }
            let stolen = self.queues[victim].split_off(len - len / 2);
            let count = stolen.len() as u64;
            self.queues[thief].extend(stolen);
            self.steals += 1;
            self.stolen_requests += count;
            let sink = self.broker.sink_handle();
            if sink.enabled() {
                sink.emit(Event::ShardSteal(ShardSteal {
                    broker: self.broker.id(),
                    thief: thief as u32,
                    victim: victim as u32,
                    stolen: count,
                }));
            }
        }
    }

    /// Serves one shard batch with coalescing: requests group by
    /// `(tenant, ttl, criterion, fallback, scope, initiator)` in
    /// first-arrival order, each group going through one
    /// [`Broker::acquire_batch`] call (which plans groups of ≥ 2 in a
    /// single walk and falls back to serial admission whenever the
    /// merge would change an arbitration outcome).
    fn serve_coalesced(
        &mut self,
        shard: u32,
        batch: Vec<Pending>,
        results: &mut Vec<(u64, Result<Lease, ServiceError>)>,
    ) {
        let mut groups: Vec<Vec<Pending>> = Vec::new();
        for p in batch {
            let slot = groups.iter_mut().find(|g| {
                let head = &g[0];
                head.tenant == p.tenant
                    && head.ttl == p.ttl
                    && head.req.get_criterion() == p.req.get_criterion()
                    && head.req.get_fallback() == p.req.get_fallback()
                    && head.req.scope() == p.req.scope()
                    && head.req.get_initiator() == p.req.get_initiator()
            });
            match slot {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }
        for group in groups {
            if group.len() >= 2 {
                self.coalesced_batches += 1;
                self.coalesced_requests += group.len() as u64;
            }
            let tenant = group[0].tenant;
            let ttl = group[0].ttl;
            let reqs: Vec<AllocRequest> = group.iter().map(|p| p.req.clone()).collect();
            let outcomes = self.broker.acquire_batch(tenant, &reqs, ttl, shard);
            for (p, outcome) in group.into_iter().zip(outcomes) {
                results.push((p.token, outcome));
            }
        }
    }
}
