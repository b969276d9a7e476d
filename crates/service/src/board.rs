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

/// Per-node traffic shares for one service epoch. The epoch is the
/// broker's: each offer names it, and a node's entries from any other
/// epoch stop counting.
#[derive(Debug)]
pub struct TrafficBoard {
    per_node: BTreeMap<NodeId, Mutex<NodeLoad>>,
}

impl TrafficBoard {
    /// An empty board covering `nodes`.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> TrafficBoard {
        TrafficBoard {
            per_node: nodes.into_iter().map(|n| (n, Mutex::new(NodeLoad::default()))).collect(),
        }
    }

    /// Posts `bytes` of traffic by `tenant` at `node` in `epoch` and
    /// returns `(bytes by other tenants, sharer count)` *before* this
    /// posting — the contention the newcomer walks into.
    pub fn offer(&self, node: NodeId, tenant: TenantId, bytes: u64, epoch: u64) -> (u64, u64) {
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
        assert_eq!(board.offer(NodeId(4), TenantId(1), 100, 0), (0, 1));
        assert_eq!(board.offer(NodeId(4), TenantId(2), 50, 0), (100, 2));
        // Same tenant again: its own bytes never count against it.
        assert_eq!(board.offer(NodeId(4), TenantId(1), 10, 0), (50, 2));
        // Other node is independent.
        assert_eq!(board.offer(NodeId(0), TenantId(2), 7, 0), (0, 1));
        assert_eq!(board.offer(NodeId(4), TenantId(2), 5, 1), (0, 1));
        // Unknown nodes are ignored rather than panicking.
        assert_eq!(board.offer(NodeId(99), TenantId(1), 5, 1), (0, 0));
    }
}
