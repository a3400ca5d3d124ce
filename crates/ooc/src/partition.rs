//! Contiguous node-range partitions of a graph: fixed-budget partitions of
//! a [`CgrGraph`] for streaming, and the counted, byte-balanced cut that
//! sharding places on devices (`gcgt-shard`'s `ShardPlan` wraps it).
//!
//! A partition is a contiguous vertex range together with the slice of the
//! compressed bit array and offset array that covers it — exactly what a
//! real out-of-core runtime would `cudaMemcpyAsync` as one unit. Because the
//! payload is *compressed*, a partition's transfer cost already benefits
//! from the CGR compression rate, which is the paper's own argument for
//! streaming compressed adjacency (Section 3.2 / Appendix A).

use std::ops::Range;

use gcgt_cgr::CgrGraph;
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
    /// payload plus its slice of the 64-bit offset array (for a CSR cut,
    /// 4-byte column entries plus an 8-byte offset per node).
    pub bytes: usize,
    /// Extra bytes the partition must keep co-resident under reference
    /// compression: the payload bits (and offset entries) of every node
    /// *outside* the range that a reference chain starting inside it passes
    /// through. Zero for CSR cuts and whenever `ref_window == 0`, so
    /// reference-free partitionings — and every byte extent derived from
    /// them — are unchanged.
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
}

fn range_bytes(cgr: &CgrGraph, first: usize, end: usize) -> usize {
    let payload_bits = cgr.offset(end) - cgr.offset(first);
    // Offset slice: one 64-bit entry per node plus the closing bound — the
    // modeled on-device layout stays dense even though the host index is
    // Elias–Fano, so partition byte extents (and every committed BENCH
    // headline derived from them) are unchanged by the index refactor.
    payload_bits.div_ceil(8) + 8 * (end - first + 1)
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
/// bits)`: the nodes' payload bits plus one offset entry each.
fn closure_bytes(closure: &[(NodeId, usize)]) -> usize {
    let bits: usize = closure.iter().map(|&(_, bits)| bits).sum();
    bits.div_ceil(8) + 8 * closure.len()
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
        Self::from_bounds(&bounds, |first, end| (cum[end] - cum[first], Vec::new()))
    }

    /// The map over the compressed ranges between consecutive `bounds`.
    fn from_cgr_bounds(cgr: &CgrGraph, bounds: &[usize]) -> Self {
        Self::from_bounds(bounds, |first, end| {
            (range_bytes(cgr, first, end), chain_closure(cgr, first, end))
        })
    }

    /// The map over the ranges between consecutive `bounds`; `range(first,
    /// end)` gives a range's bytes and its reference-chain closure.
    fn from_bounds(
        bounds: &[usize],
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
                    closure_bytes: closure_bytes(&closure),
                };
                (part, closure)
            })
            .unzip();
        PartitionMap { parts, closures }
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
        closure_bytes(&closure)
    }

    /// Total resident bytes if every partition were loaded at once.
    pub fn total_bytes(&self) -> usize {
        self.parts.iter().map(|p| p.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{web_graph, WebParams};

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
