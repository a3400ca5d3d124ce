//! The frontier of a level-synchronous traversal, in **both** of the
//! representations direction-optimizing kernels need at once:
//!
//! * a sparse node list (the ping-pong queue push kernels chunk into
//!   warps), and
//! * a dense bitmap (the membership structure pull kernels probe per
//!   examined neighbour).
//!
//! On a real GPU the bitmap is rebuilt from the queue by a scatter kernel
//! each level; its byte footprint (`n / 8`) fits inside the ping-pong queue
//! allowance already charged by
//! [`crate::memory::traversal_buffers_bytes`], so keeping both views
//! resident changes no footprint accounting.

use crate::bitset::BitSet;
use gcgt_graph::NodeId;
use gcgt_simt::Space;

/// A traversal frontier: sparse node list plus dense membership bitmap.
#[derive(Clone, Debug)]
pub struct Frontier {
    nodes: Vec<NodeId>,
    dense: BitSet,
}

impl Frontier {
    /// An empty frontier over a graph of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            nodes: Vec::new(),
            dense: BitSet::new(num_nodes),
        }
    }

    /// A frontier holding exactly `nodes` (each must be `< num_nodes`;
    /// duplicates are debug-asserted away by the bitmap).
    pub fn from_nodes(num_nodes: usize, nodes: Vec<NodeId>) -> Self {
        let mut dense = BitSet::new(num_nodes);
        for &u in &nodes {
            let fresh = dense.set(u);
            debug_assert!(fresh, "duplicate frontier node {u}");
        }
        Self { nodes, dense }
    }

    /// The sparse node list, in the order it was built from — what push
    /// kernels chunk. BFS builds it in the previous level's discovery order
    /// (ascending when that level was a pull, or when it filled the device
    /// and was compacted by [`crate::engine::compact_frontier`]).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Dense membership probe — what pull kernels test per neighbour.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.dense.get(v)
    }

    /// Number of frontier nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the frontier is empty (traversal finished).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Simulated device address of the bitmap byte holding node `v`'s
    /// membership bit. The bitmap lives in the frontier space, above the
    /// sparse queue region (same trick as the Gunrock filter buffers), so
    /// probes never alias queue reads: queue slots top out at
    /// `4 × u32::MAX < 2^34`, the bitmap starts at `2^40`.
    #[inline]
    pub fn bitmap_addr(v: NodeId) -> u64 {
        Space::Frontier.addr((1 << 40) + u64::from(v) / 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_views_agree() {
        let f = Frontier::from_nodes(100, vec![3, 97, 41]);
        assert_eq!(f.nodes(), &[3, 97, 41]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        for v in 0..100 {
            assert_eq!(f.contains(v), [3, 97, 41].contains(&v), "node {v}");
        }
    }

    #[test]
    fn empty_frontier() {
        let f = Frontier::new(10);
        assert!(f.is_empty());
        assert!(!f.contains(7));
    }

    #[test]
    fn bitmap_addresses_are_dense_and_disjoint_from_the_queue() {
        // Neighbouring nodes share a bitmap byte (coalescing-friendly) and
        // the bitmap region sits above any realistic queue offset.
        assert_eq!(Frontier::bitmap_addr(0), Frontier::bitmap_addr(7));
        assert_ne!(Frontier::bitmap_addr(0), Frontier::bitmap_addr(8));
        assert!(Frontier::bitmap_addr(0) > Space::Frontier.addr(4 * (u32::MAX as u64)));
    }
}
