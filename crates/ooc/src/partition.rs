//! Contiguous node-range partitions of a graph: fixed-budget partitions of
//! a [`CgrGraph`] for streaming, and the counted, byte-balanced cut that
//! sharding places on devices (`gcgt-shard`'s `ShardPlan` wraps it).
//!
//! A partition is a contiguous vertex range together with the slice of the
//! compressed bit array and of the device offset index that covers it —
//! exactly what a real out-of-core runtime would `cudaMemcpyAsync` as one
//! unit. Because the payload is *compressed*, a partition's transfer cost
//! already benefits from the CGR compression rate, which is the paper's own
//! argument for streaming compressed adjacency (Section 3.2 / Appendix A);
//! the two-level index ([`DeviceIndex`]) keeps the
//! offsets riding along with it at 32 bits per node.

use std::ops::Range;

use gcgt_cgr::{CgrGraph, DeviceIndex};
use gcgt_graph::{Csr, NodeId};

/// One contiguous vertex range of the graph.
///
/// Boundaries are **node-aligned**: they always fall on a node's
/// offset-array entry, so a node's adjacency list is never split across
/// partitions — a partition is decodable in isolation once its payload,
/// offset slice and reference-chain closure are resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// First node of the range (inclusive).
    pub first_node: NodeId,
    /// End of the range (exclusive). Counted cuts of a skewed graph (or
    /// with more partitions than nodes) may leave ranges empty.
    pub end_node: NodeId,
    /// Device bytes this partition occupies when resident: the compressed
    /// payload plus its exact slice of the device offset index — its
    /// entries, the closing bound and the bases of the blocks they fall in
    /// ([`DeviceIndex::slice_bytes`]).
    /// For a CSR cut, 4-byte column entries plus an 8-byte offset per node.
    pub bytes: usize,
    /// Extra bytes the partition must keep co-resident under reference
    /// compression: the payload bits of every node *outside* the range that
    /// a reference chain starting inside it passes through, each with its
    /// own index entry, plus the base of each block among them that the
    /// partition's own index slice does not carry
    /// ([`DeviceIndex::closure_bytes`]). Zero for CSR cuts and whenever
    /// `ref_window == 0`.
    pub closure_bytes: usize,
}

impl Partition {
    /// Number of nodes in the range.
    pub fn num_nodes(&self) -> usize {
        (self.end_node - self.first_node) as usize
    }

    /// Total device bytes to make the partition decodable in isolation:
    /// the range's own extent plus its reference-chain closure.
    pub fn resident_bytes(&self) -> usize {
        self.bytes + self.closure_bytes
    }
}

/// The partitioning of a graph into contiguous vertex ranges: each within
/// a byte target ([`PartitionMap::build`], except where a single node's
/// compressed adjacency alone exceeds it — lists are never split), or a
/// fixed count balanced by bytes ([`PartitionMap::build_count`]).
#[derive(Clone, Debug)]
pub struct PartitionMap {
    parts: Vec<Partition>,
    /// Per partition, its reference-chain closure as `(node, payload bits)`,
    /// ascending by node — kept so the closure of a *run* of partitions is
    /// a merge of short lists instead of a second walk over the chains.
    closures: Vec<Vec<(NodeId, usize)>>,
    /// The compressed graph's device index, which prices the closures'
    /// entries; `None` for a CSR cut, whose closures are empty.
    index: Option<DeviceIndex>,
}

fn range_bytes(cgr: &CgrGraph, first: usize, end: usize) -> usize {
    let payload_bits = cgr.offset(end) - cgr.offset(first);
    // The range is an exact slice of the in-core layout: its payload bytes
    // and its slice of the device offset index.
    payload_bits.div_ceil(8) + cgr.device_index().slice_bytes(first, end)
}

/// Nodes *below* `first` that some reference chain starting in
/// `[first, end)` passes through, each with its payload bits, ascending and
/// deduplicated. References are strictly backward and bounded by
/// `ref_window · ref_chain_limit` hops, so the closure is a short sorted
/// list just under the range. Empty whenever the encoding carries no
/// references.
fn chain_closure(cgr: &CgrGraph, first: usize, end: usize) -> Vec<(NodeId, usize)> {
    if cgr.config().ref_window == 0 {
        return Vec::new();
    }
    let mut out: Vec<NodeId> = Vec::new();
    for u in first..end {
        let mut cur = u as NodeId;
        while let Some(t) = cgr.ref_target(cur) {
            if (t as usize) < first {
                out.push(t);
            }
            cur = t;
        }
    }
    out.sort_unstable();
    out.dedup();
    out.into_iter()
        .map(|t| (t, cgr.offset(t as usize + 1) - cgr.offset(t as usize)))
        .collect()
}

/// Device bytes of a reference-chain closure given as `(node, payload
/// bits)`, staged with a range that starts at node `first`: the nodes'
/// payload bits plus their index entries and the block bases the range
/// lacks. An empty closure (every CSR cut's) costs nothing.
fn closure_bytes(index: Option<&DeviceIndex>, closure: &[(NodeId, usize)], first: NodeId) -> usize {
    let Some(index) = index.filter(|_| !closure.is_empty()) else {
        return 0;
    };
    let bits: usize = closure.iter().map(|&(_, bits)| bits).sum();
    let nodes = closure.iter().map(|&(t, _)| t as usize);
    bits.div_ceil(8) + index.closure_bytes(nodes, first as usize)
}

/// The `count + 1` bounds (from 0 to `n`) of a counted cut of `n` nodes:
/// bound `i` is the smallest `s` whose prefix `[0, s)` holds
/// `bytes_below(s) ≥ total·i/count` bytes. Bounds **nest** — bound `i`
/// depends only on its target, so every bound of a `k`-way cut reappears in
/// the `m·k`-way cut and refining 2 → 4 → 8 only adds cut points.
fn nested_bounds(n: usize, count: usize, bytes_below: impl Fn(usize) -> usize) -> Vec<usize> {
    assert!(count >= 1, "a partitioning needs at least one partition");
    let total = bytes_below(n) as u128;
    let mut bounds = vec![0];
    for i in 1..count {
        let target = (total * i as u128 / count as u128) as usize;
        // Targets only grow, so equal ones yield empty ranges.
        let (mut lo, mut hi) = (bounds[i - 1], n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if bytes_below(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        bounds.push(lo);
    }
    bounds.push(n);
    bounds
}

impl PartitionMap {
    /// Splits `cgr` greedily into contiguous partitions of at most
    /// `target_bytes` each (one node minimum per partition). The whole node
    /// range is always covered; an empty graph yields one empty partition.
    pub fn build(cgr: &CgrGraph, target_bytes: usize) -> PartitionMap {
        let n = cgr.num_nodes();
        let mut bounds = vec![0];
        for u in 1..n {
            // Node `u` no longer fits the open partition: cut before it.
            if range_bytes(cgr, bounds[bounds.len() - 1], u + 1) > target_bytes {
                bounds.push(u);
            }
        }
        bounds.push(n);
        Self::from_cgr_bounds(cgr, &bounds)
    }

    /// Splits `cgr` into exactly `count` contiguous partitions, balanced by
    /// cumulative compressed bytes, with boundaries that nest across
    /// power-of-two counts. Sharding places the graph onto a fixed number of
    /// modeled devices this way. Tail partitions of a very skewed graph (or
    /// `count > num_nodes`) may be empty; the whole node range is still
    /// covered and every node has exactly one owner.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero.
    pub fn build_count(cgr: &CgrGraph, count: usize) -> PartitionMap {
        let bounds = nested_bounds(cgr.num_nodes(), count, |s| range_bytes(cgr, 0, s));
        Self::from_cgr_bounds(cgr, &bounds)
    }

    /// [`PartitionMap::build_count`] over an uncompressed CSR graph,
    /// balanced by CSR bytes: 4-byte column entries plus an 8-byte offset
    /// share per node. Closures are empty.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero.
    pub fn build_count_csr(graph: &Csr, count: usize) -> PartitionMap {
        // Cumulative CSR bytes of the range [0, s).
        let mut cum = vec![0];
        for u in 0..graph.num_nodes() {
            cum.push(cum[u] + 8 + 4 * graph.degree(u as NodeId));
        }
        let bounds = nested_bounds(graph.num_nodes(), count, |s| cum[s]);
        Self::from_bounds(&bounds, None, |first, end| {
            (cum[end] - cum[first], Vec::new())
        })
    }

    /// The map over the compressed ranges between consecutive `bounds`.
    fn from_cgr_bounds(cgr: &CgrGraph, bounds: &[usize]) -> Self {
        Self::from_bounds(bounds, Some(*cgr.device_index()), |first, end| {
            (range_bytes(cgr, first, end), chain_closure(cgr, first, end))
        })
    }

    /// The map over the ranges between consecutive `bounds`; `range(first,
    /// end)` gives a range's bytes and its reference-chain closure, whose
    /// entries `index` prices.
    fn from_bounds(
        bounds: &[usize],
        index: Option<DeviceIndex>,
        range: impl Fn(usize, usize) -> (usize, Vec<(NodeId, usize)>),
    ) -> Self {
        let (parts, closures) = bounds
            .windows(2)
            .map(|w| {
                let (bytes, closure) = range(w[0], w[1]);
                let part = Partition {
                    first_node: w[0] as NodeId,
                    end_node: w[1] as NodeId,
                    bytes,
                    closure_bytes: closure_bytes(index.as_ref(), &closure, w[0] as NodeId),
                };
                (part, closure)
            })
            .unzip();
        PartitionMap {
            parts,
            closures,
            index,
        }
    }

    /// The partitions, in node order.
    pub fn parts(&self) -> &[Partition] {
        &self.parts
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether there are no partitions (never true for a built map).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Index of the partition holding node `u`.
    ///
    /// Binary search over the node-aligned boundaries: the owner is the
    /// *last* partition whose `first_node` is at most `u`, which skips any
    /// empty partitions sharing that boundary. O(log #partitions).
    #[inline]
    pub fn partition_of(&self, u: NodeId) -> usize {
        self.parts.partition_point(|p| p.first_node <= u) - 1
    }

    /// The largest single partition — the floor any residency budget must
    /// clear.
    pub fn max_partition_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.bytes).max().unwrap_or(0)
    }

    /// The largest partition counting its reference-chain closure — the
    /// residency floor under reference compression. Equals
    /// [`PartitionMap::max_partition_bytes`] when the encoding carries no
    /// references.
    pub fn max_resident_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| p.resident_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Nodes below partition `i`'s range that its reference chains pass
    /// through — the bits a streaming runtime must co-stage for the
    /// partition to decode in isolation. Empty without references.
    pub fn closure_of(&self, i: usize) -> Vec<NodeId> {
        self.closures[i].iter().map(|&(t, _)| t).collect()
    }

    /// Link bytes of the reference-chain closure of the contiguous run of
    /// partitions `run`: the chain nodes **below the run's first node**.
    /// Closure nodes that fall inside the run cross the link as part of
    /// their own partition, so coalescing never moves them twice. Equals
    /// [`Partition::closure_bytes`] for a one-partition run and is zero
    /// without references.
    pub fn run_closure_bytes(&self, run: Range<usize>) -> usize {
        let below = self.parts[run.start].first_node;
        let mut closure: Vec<(NodeId, usize)> = self.closures[run]
            .iter()
            .flatten()
            .copied()
            .filter(|&(t, _)| t < below)
            .collect();
        closure.sort_unstable();
        closure.dedup();
        closure_bytes(self.index.as_ref(), &closure, below)
    }

    /// Total resident bytes if every partition were loaded at once.
    pub fn total_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::device_index::BLOCK_NODES;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{web_graph, WebParams};
    use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

    fn sample() -> CgrGraph {
        let g = web_graph(&WebParams::uk2002_like(800), 7);
        CgrGraph::encode(&g, &CgrConfig::paper_default())
    }

    #[test]
    fn partitions_cover_all_nodes_contiguously() {
        let cgr = sample();
        let map = PartitionMap::build(&cgr, 4 << 10);
        assert!(map.len() > 1);
        assert_eq!(map.parts()[0].first_node, 0);
        assert_eq!(
            map.parts().last().unwrap().end_node as usize,
            cgr.num_nodes()
        );
        for w in map.parts().windows(2) {
            assert_eq!(w[0].end_node, w[1].first_node);
        }
    }

    #[test]
    fn partition_of_finds_the_owner() {
        let cgr = sample();
        let map = PartitionMap::build(&cgr, 4 << 10);
        for (i, p) in map.parts().iter().enumerate() {
            assert_eq!(map.partition_of(p.first_node), i);
            assert_eq!(map.partition_of(p.end_node - 1), i);
        }
    }

    #[test]
    fn partitions_respect_target_except_single_oversize_lists() {
        let cgr = sample();
        let target = 4 << 10;
        let map = PartitionMap::build(&cgr, target);
        for p in map.parts() {
            assert!(p.bytes <= target || p.num_nodes() == 1, "{p:?}");
        }
    }

    #[test]
    fn tighter_targets_make_more_partitions() {
        let cgr = sample();
        let coarse = PartitionMap::build(&cgr, 64 << 10);
        let fine = PartitionMap::build(&cgr, 2 << 10);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn single_partition_when_budget_is_huge() {
        let cgr = sample();
        let map = PartitionMap::build(&cgr, usize::MAX);
        assert_eq!(map.len(), 1);
        assert_eq!(map.parts()[0].num_nodes(), cgr.num_nodes());
    }

    #[test]
    fn degenerate_one_node_per_partition() {
        // A 1-byte target can never fit two lists, so every partition
        // holds exactly one node and ownership is the identity.
        let cgr = sample();
        let map = PartitionMap::build(&cgr, 1);
        assert_eq!(map.len(), cgr.num_nodes());
        for (i, p) in map.parts().iter().enumerate() {
            assert_eq!(p.num_nodes(), 1, "{p:?}");
            assert_eq!(p.first_node as usize, i);
        }
        for u in 0..cgr.num_nodes() as NodeId {
            assert_eq!(map.partition_of(u), u as usize);
        }
    }

    #[test]
    fn build_count_covers_and_balances() {
        let cgr = sample();
        for count in [1, 2, 3, 4, 8] {
            let map = PartitionMap::build_count(&cgr, count);
            assert_eq!(map.len(), count);
            assert_eq!(map.parts()[0].first_node, 0);
            assert_eq!(
                map.parts().last().unwrap().end_node as usize,
                cgr.num_nodes()
            );
            for w in map.parts().windows(2) {
                assert_eq!(w[0].end_node, w[1].first_node);
            }
            // Balanced: a partition overshoots the ideal share by at most
            // one node's compressed list (boundaries are node-aligned).
            let ideal = map.total_bytes() / count;
            let max_list = PartitionMap::build(&cgr, 1).max_partition_bytes();
            for p in map.parts() {
                assert!(
                    p.bytes <= ideal + max_list + 64,
                    "partition {p:?} vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn build_count_boundaries_nest_across_power_of_two_counts() {
        let cgr = sample();
        let two = PartitionMap::build_count(&cgr, 2);
        let four = PartitionMap::build_count(&cgr, 4);
        let eight = PartitionMap::build_count(&cgr, 8);
        let bounds =
            |m: &PartitionMap| -> Vec<NodeId> { m.parts().iter().map(|p| p.first_node).collect() };
        let (b2, b4, b8) = (bounds(&two), bounds(&four), bounds(&eight));
        assert!(b2.iter().all(|b| b4.contains(b)), "{b2:?} ⊄ {b4:?}");
        assert!(b4.iter().all(|b| b8.contains(b)), "{b4:?} ⊄ {b8:?}");
    }

    #[test]
    fn build_count_degenerates_to_one_and_allows_more_than_nodes() {
        let cgr = sample();
        let one = PartitionMap::build_count(&cgr, 1);
        assert_eq!(one.len(), 1);
        assert_eq!(one.parts()[0].num_nodes(), cgr.num_nodes());

        // More partitions than nodes: the extras are empty, coverage and
        // ownership still hold.
        let n = cgr.num_nodes();
        let many = PartitionMap::build_count(&cgr, n + 5);
        assert_eq!(many.len(), n + 5);
        assert_eq!(many.parts().last().unwrap().end_node as usize, n);
        for u in 0..n as NodeId {
            let p = many.parts()[many.partition_of(u)];
            assert!(p.first_node <= u && u < p.end_node);
        }
    }

    #[test]
    fn reference_free_partitions_have_empty_closures() {
        let cgr = sample(); // paper_default: ref_window == 0
        let map = PartitionMap::build(&cgr, 4 << 10);
        for (i, p) in map.parts().iter().enumerate() {
            assert_eq!(p.closure_bytes, 0);
            assert_eq!(p.resident_bytes(), p.bytes);
            assert!(map.closure_of(i).is_empty());
        }
        assert_eq!(map.max_resident_bytes(), map.max_partition_bytes());
    }

    /// A reference-free graph spanning three index blocks, encoded once.
    fn blocked() -> &'static CgrGraph {
        static CGR: std::sync::OnceLock<CgrGraph> = std::sync::OnceLock::new();
        CGR.get_or_init(|| {
            let g = web_graph(&WebParams::uk2002_like(2 * BLOCK_NODES + 900), 3);
            CgrGraph::encode(&g, &CgrConfig::paper_default())
        })
    }

    /// Payload bytes of the node range `first..end`, rounded up to bytes.
    fn payload_bytes(cgr: &CgrGraph, first: usize, end: usize) -> usize {
        (cgr.offset(end) - cgr.offset(first)).div_ceil(8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One size model: the partitions of either cut are exact slices of
        /// the layout `size_bytes` prices — payload bytes, a `u32` entry per
        /// node plus the closing bound, a `u64` base per block spanned — so
        /// their bytes add up to `size_bytes` plus only what slicing
        /// duplicates: every cut point's entry and its block's base are
        /// carried by the partitions on both sides of it, and partitions
        /// round their payload to bytes where the whole graph rounds to
        /// words. Without references no partition carries a closure.
        #[test]
        fn partitions_slice_the_size_model(target in 1usize..60_000, count in 1usize..40) {
            let cgr = blocked();
            prop_assert_eq!(cgr.device_index().entry_bytes(), 4);
            for map in [PartitionMap::build(cgr, target), PartitionMap::build_count(cgr, count)] {
                let mut payload = 0;
                for p in map.parts() {
                    let (first, end) = (p.first_node as usize, p.end_node as usize);
                    let blocks = end / BLOCK_NODES - first / BLOCK_NODES + 1;
                    let slice = payload_bytes(cgr, first, end);
                    prop_assert_eq!(p.bytes, slice + 4 * (end - first + 1) + 8 * blocks);
                    prop_assert_eq!(p.closure_bytes, 0);
                    payload += slice;
                }
                let cuts = map.len() - 1;
                let rounding = payload as i64 - cgr.bits().storage_bytes() as i64;
                prop_assert_eq!(
                    map.total_bytes() as i64 - cgr.size_bytes() as i64,
                    (4 + 8) * cuts as i64 + rounding
                );
            }
        }
    }

    /// The closure bytes a partition starting at `first` should carry,
    /// counted by hand: the closure's payload bytes, a `u32` entry per
    /// closure node and a `u64` base per block among them other than
    /// `first`'s, next to the dense layout's 8 B per node.
    fn expected_closure_bytes(cgr: &CgrGraph, closure: &[NodeId], first: NodeId) -> (usize, usize) {
        let bits: usize = closure
            .iter()
            .map(|&t| cgr.offset(t as usize + 1) - cgr.offset(t as usize))
            .sum();
        let mut blocks: Vec<usize> = closure.iter().map(|&t| t as usize / BLOCK_NODES).collect();
        blocks.dedup();
        blocks.retain(|&b| b != first as usize / BLOCK_NODES);
        let two_level = bits.div_ceil(8) + 4 * closure.len() + 8 * blocks.len();
        (two_level, bits.div_ceil(8) + 8 * closure.len())
    }

    #[test]
    fn closure_index_bytes_are_an_entry_per_node_and_the_bases_a_range_lacks() {
        // A reference-encoded graph over two index blocks, cut just past
        // the block boundary so the second partition's chains reach back
        // into the first block, whose base it must then stage.
        let g = web_graph(&WebParams::eu2015_like(BLOCK_NODES + 600), 9);
        let cfg = CgrConfig::paper_default().with_ref_window(32);
        let cgr = CgrGraph::encode(&g, &cfg);
        assert_eq!(cgr.device_index().entry_bytes(), 4);
        let n = cgr.num_nodes();
        let map = PartitionMap::from_cgr_bounds(&cgr, &[0, BLOCK_NODES + 3, n]);
        let (mut closure_nodes, mut dense, mut two_level) = (0, 0, 0);
        for (i, p) in map.parts().iter().enumerate() {
            let closure = map.closure_of(i);
            let (expected, parent) = expected_closure_bytes(&cgr, &closure, p.first_node);
            assert_eq!(p.closure_bytes, expected, "partition {i}");
            assert_eq!(map.run_closure_bytes(i..i + 1), expected);
            closure_nodes += closure.len();
            two_level += expected;
            dense += parent;
        }
        // Even with that base, the closure costs less than the dense
        // layout's 8 B per node.
        assert!(map
            .closure_of(1)
            .iter()
            .any(|&t| (t as usize) < BLOCK_NODES));
        assert!(closure_nodes > 2, "the cut must cross reference chains");
        assert!(two_level < dense, "{two_level} vs dense {dense}");
    }

    #[test]
    fn closures_make_ref_partitions_decodable_in_isolation() {
        // A boilerplate-heavy web graph compresses with many references;
        // tight budgets force cuts through reference chains. Every chain
        // hop from inside a partition must land either inside the range or
        // in the recorded closure — that set is what a streaming runtime
        // stages to decode the partition in isolation.
        let g = web_graph(&WebParams::eu2015_like(1_200), 9);
        let cfg = CgrConfig::paper_default().with_ref_window(32);
        let cgr = CgrGraph::encode(&g, &cfg);
        assert!(cgr.stats().ref_nodes > 0, "graph must exercise references");
        let map = PartitionMap::build(&cgr, 2 << 10);
        assert!(map.len() > 4);
        let mut crossing = 0usize;
        for (i, p) in map.parts().iter().enumerate() {
            let closure = map.closure_of(i);
            assert!(closure.iter().all(|&t| t < p.first_node), "{p:?}");
            crossing += usize::from(!closure.is_empty());
            if !closure.is_empty() {
                assert!(p.closure_bytes > 0);
                assert!(p.resident_bytes() > p.bytes);
            }
            let (expected, dense) = expected_closure_bytes(&cgr, &closure, p.first_node);
            assert_eq!(p.closure_bytes, expected);
            assert!(p.closure_bytes <= dense);
            for u in p.first_node..p.end_node {
                let mut cur = u;
                while let Some(t) = cgr.ref_target(cur) {
                    assert!(
                        (t >= p.first_node && t < p.end_node) || closure.contains(&t),
                        "chain hop {cur}→{t} escapes partition {i} and its closure"
                    );
                    cur = t;
                }
            }
        }
        assert!(crossing > 0, "no cut crossed a reference chain");

        // A run's closure is what its chains reach *below the run*: the
        // partition's own closure for a one-partition run, never more than
        // its members' closures together, and strictly less once a member's
        // closure nodes lie inside the run.
        let mut covered = 0usize;
        for i in 0..map.len() {
            assert_eq!(
                map.run_closure_bytes(i..i + 1),
                map.parts()[i].closure_bytes
            );
        }
        for i in 1..map.len() {
            let apart = map.parts()[i - 1].closure_bytes + map.parts()[i].closure_bytes;
            let together = map.run_closure_bytes(i - 1..i + 1);
            assert!(together <= apart);
            let below = map.parts()[i - 1].first_node;
            if map.closure_of(i).iter().any(|&t| t >= below) {
                assert!(together < apart);
                covered += 1;
            }
        }
        assert!(
            covered > 0,
            "no closure node fell inside a two-partition run"
        );
        assert_eq!(map.run_closure_bytes(0..map.len()), 0);
    }
}
