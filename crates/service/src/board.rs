//! The shared occupancy/traffic board: who is driving bytes at which
//! node in the current service epoch.
//!
//! Memsim's cost model prices one phase in isolation; when several
//! tenants stream against the same node *concurrently* the node's
//! controller is shared and everyone slows down. The board makes that
//! visible: tenants post their per-node offered bytes each epoch, and
//! the broker charges a stall to anyone whose traffic lands on a node
//! that co-located tenants have saturated.

use crate::tenant::TenantId;
use hetmem_topology::NodeId;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct NodeLoad {
    /// Epoch the entries belong to; stale maps are reset lazily.
    epoch: u64,
    /// Offered bytes by tenant this epoch.
    offered: BTreeMap<TenantId, u64>,
}

/// Epoch clock state: the open epoch plus the tick count folding
/// multiple dispatch planes into one epoch per service round.
#[derive(Debug, Default)]
struct EpochClock {
    epoch: u64,
    ticks: u64,
    /// Dispatch planes (shards) ticking this board. `0`
    /// means unset and behaves as `1`.
    planes: u64,
}

/// Per-node traffic shares for one service epoch.
#[derive(Debug)]
pub struct TrafficBoard {
    clock: Mutex<EpochClock>,
    per_node: BTreeMap<NodeId, Mutex<NodeLoad>>,
}

impl TrafficBoard {
    /// An empty board covering `nodes`.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> TrafficBoard {
        TrafficBoard {
            clock: Mutex::new(EpochClock::default()),
            per_node: nodes.into_iter().map(|n| (n, Mutex::new(NodeLoad::default()))).collect(),
        }
    }

    /// Tells the board how many dispatch planes (shards)
    /// tick it per service round. The epoch then opens once per
    /// `planes` ticks, so a contention window stays one service round
    /// wide — and lease TTLs keep their meaning — no matter how many
    /// shards drive the broker. Resets the tick counter; `0` is
    /// treated as `1` (the default, single-shard clock).
    pub fn set_planes(&self, planes: u32) {
        let mut clock = self.clock.lock().expect("epoch poisoned");
        clock.planes = planes.max(1) as u64;
        clock.ticks = 0;
    }

    /// Registers one served tick; previously offered traffic stops
    /// counting once every plane has ticked. Returns `true` when this
    /// tick opened a new epoch. The broker calls this once per
    /// batching tick on each shard.
    pub fn advance_epoch(&self) -> bool {
        let mut clock = self.clock.lock().expect("epoch poisoned");
        clock.ticks += 1;
        if clock.ticks >= clock.planes.max(1) {
            clock.ticks = 0;
            clock.epoch += 1;
            true
        } else {
            false
        }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.clock.lock().expect("epoch poisoned").epoch
    }

    /// Posts `bytes` of traffic by `tenant` at `node` for the current
    /// epoch and returns `(bytes by other tenants, sharer count)`
    /// *before* this posting — the contention the newcomer walks into.
    pub fn offer(&self, node: NodeId, tenant: TenantId, bytes: u64) -> (u64, u64) {
        let epoch = self.epoch();
        let Some(slot) = self.per_node.get(&node) else {
            return (0, 0);
        };
        let mut load = slot.lock().expect("board poisoned");
        if load.epoch != epoch {
            load.epoch = epoch;
            load.offered.clear();
        }
        let others: u64 = load.offered.iter().filter(|&(&t, _)| t != tenant).map(|(_, &b)| b).sum();
        let sharers = load.offered.keys().filter(|&&t| t != tenant).count() as u64 + 1;
        *load.offered.entry(tenant).or_insert(0) += bytes;
        (others, sharers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offers_accumulate_within_an_epoch_and_reset_across() {
        let board = TrafficBoard::new([NodeId(0), NodeId(4)]);
        assert_eq!(board.offer(NodeId(4), TenantId(1), 100), (0, 1));
        assert_eq!(board.offer(NodeId(4), TenantId(2), 50), (100, 2));
        // Same tenant again: its own bytes never count against it.
        assert_eq!(board.offer(NodeId(4), TenantId(1), 10), (50, 2));
        // Other node is independent.
        assert_eq!(board.offer(NodeId(0), TenantId(2), 7), (0, 1));
        board.advance_epoch();
        assert_eq!(board.offer(NodeId(4), TenantId(2), 5), (0, 1));
        // Unknown nodes are ignored rather than panicking.
        assert_eq!(board.offer(NodeId(99), TenantId(1), 5), (0, 0));
    }

    #[test]
    fn plane_clock_folds_shard_ticks_into_one_epoch_per_round() {
        let board = TrafficBoard::new([NodeId(0)]);
        board.set_planes(3);
        // Two of three planes ticked: the epoch stays open and offers
        // from the first tick still count as contention.
        board.offer(NodeId(0), TenantId(1), 100);
        assert!(!board.advance_epoch());
        assert!(!board.advance_epoch());
        assert_eq!(board.epoch(), 0);
        assert_eq!(board.offer(NodeId(0), TenantId(2), 10), (100, 2));
        // The third tick closes the round.
        assert!(board.advance_epoch());
        assert_eq!(board.epoch(), 1);
        assert_eq!(board.offer(NodeId(0), TenantId(2), 10), (0, 1));
        // Back to one plane: every tick is an epoch again.
        board.set_planes(1);
        assert!(board.advance_epoch());
        assert_eq!(board.epoch(), 2);
    }
}
