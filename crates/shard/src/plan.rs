//! Placement of contiguous graph ranges onto N modeled devices.
//!
//! A [`ShardPlan`] owns the `node → device` map of a sharded session: the
//! node range is cut into one contiguous, node-aligned shard per device,
//! balanced by structure bytes so every device holds a comparable slice of
//! the (compressed or CSR) adjacency. Contiguity keeps ownership a binary
//! search and boundary exchange a dense bitmap over the destination's own
//! range — the disciplined, coalesced cross-link access pattern the
//! multi-GPU literature (EMOGI, the CXL external-memory work) identifies as
//! the scaling win.

use gcgt_cgr::CgrGraph;
use gcgt_graph::{Csr, NodeId};
use gcgt_ooc::PartitionMap;

/// One device's contiguous vertex range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// First node of the range (inclusive).
    pub first_node: NodeId,
    /// End of the range (exclusive). Shards of a skewed graph (or a plan
    /// with more devices than nodes) may be empty.
    pub end_node: NodeId,
    /// Structure bytes this shard keeps resident on its device.
    pub bytes: usize,
    /// Extra bytes the device must co-stage under reference compression:
    /// the compressed lists of nodes outside the shard that its reference
    /// chains pass through (see [`gcgt_ooc::Partition::closure_bytes`]).
    /// Zero for CSR shards and whenever `ref_window == 0`.
    pub closure_bytes: usize,
}

impl Shard {
    /// Number of nodes this shard owns.
    pub fn num_nodes(&self) -> usize {
        (self.end_node - self.first_node) as usize
    }

    /// Total device bytes to traverse the shard in isolation: its own
    /// extent plus its reference-chain closure.
    pub fn resident_bytes(&self) -> usize {
        self.bytes + self.closure_bytes
    }
}

/// The placement of a graph onto N modeled devices: contiguous node-aligned
/// shards, balanced by structure bytes.
///
/// Built from the same machinery as out-of-core streaming
/// ([`PartitionMap::build_count`]) for compressed graphs, or directly over
/// CSR bytes for the uncompressed baselines. Shard boundaries **nest**
/// across power-of-two device counts (the 4-device cut refines the
/// 2-device cut), so refining a deployment only ever adds cut points — and
/// per-step boundary traffic is monotone in the device count.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

impl ShardPlan {
    /// Places `cgr` onto `devices` modeled GPUs, balanced by compressed
    /// bytes — delegates the cut to [`PartitionMap::build_count`].
    ///
    /// # Panics
    ///
    /// Panics when `devices` is zero.
    pub fn build(cgr: &CgrGraph, devices: usize) -> ShardPlan {
        Self::from_partition_map(&PartitionMap::build_count(cgr, devices))
    }

    /// Adopts an existing node-aligned partitioning (one partition per
    /// device) as a placement.
    pub fn from_partition_map(map: &PartitionMap) -> ShardPlan {
        ShardPlan {
            shards: map
                .parts()
                .iter()
                .map(|p| Shard {
                    first_node: p.first_node,
                    end_node: p.end_node,
                    bytes: p.bytes,
                    closure_bytes: p.closure_bytes,
                })
                .collect(),
        }
    }

    /// Places an uncompressed CSR graph onto `devices` modeled GPUs,
    /// balanced by CSR bytes (4-byte column entries plus an 8-byte offset
    /// share per node) with the same nested node-aligned boundaries as the
    /// compressed cut.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is zero.
    pub fn build_csr(graph: &Csr, devices: usize) -> ShardPlan {
        assert!(devices >= 1, "a shard plan needs at least one device");
        let n = graph.num_nodes();
        // Cumulative CSR bytes of the range [0, s).
        let mut cum = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        cum.push(0);
        for u in 0..n {
            acc += 8 + 4 * graph.degree(u as NodeId);
            cum.push(acc);
        }
        let total = acc as u128;
        let mut bounds = Vec::with_capacity(devices + 1);
        bounds.push(0usize);
        for i in 1..devices {
            let target = (total * i as u128 / devices as u128) as usize;
            let (mut lo, mut hi) = (*bounds.last().expect("bounds starts with a 0 sentinel"), n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if cum[mid] >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            bounds.push(lo);
        }
        bounds.push(n);
        ShardPlan {
            shards: bounds
                .windows(2)
                .map(|w| Shard {
                    first_node: w[0] as NodeId,
                    end_node: w[1] as NodeId,
                    bytes: cum[w[1]] - cum[w[0]],
                    closure_bytes: 0,
                })
                .collect(),
        }
    }

    /// Number of modeled devices (always ≥ 1).
    pub fn devices(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in node order — one per device.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard placed on device `s`.
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// The device owning node `u` — a binary search over the node-aligned
    /// shard boundaries.
    pub fn owner_of(&self, u: NodeId) -> usize {
        // Last shard whose first_node <= u; skips empty shards sharing the
        // boundary (same scheme as PartitionMap::partition_of).
        self.shards.partition_point(|p| p.first_node <= u) - 1
    }

    /// Bytes of a dense frontier bitmap over device `s`'s owned range —
    /// the unit of boundary exchange: a shard that discovered any node
    /// owned by `s` addresses it one such segment (see [`crate::exchange`]
    /// for how segments are merged and routed).
    pub fn bitmap_bytes(&self, s: usize) -> usize {
        self.shards[s].num_nodes().div_ceil(8)
    }

    /// The largest single shard in bytes — what the biggest device must
    /// hold.
    pub fn max_shard_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// The largest shard counting its reference-chain closure — the
    /// per-device residency floor under reference compression. Equals
    /// [`ShardPlan::max_shard_bytes`] when the encoding carries no
    /// references.
    pub fn max_resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.resident_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Total structure bytes across all devices.
    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Stored edges whose endpoints live on different devices — the
    /// traffic ceiling of the frontier exchange.
    pub fn boundary_edges(&self, graph: &Csr) -> u64 {
        let mut edges = 0u64;
        for u in 0..graph.num_nodes() as NodeId {
            let owner = self.owner_of(u);
            for &v in graph.neighbors(u) {
                if self.owner_of(v) != owner {
                    edges += 1;
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{web_graph, WebParams};

    fn sample() -> (Csr, CgrGraph) {
        let g = web_graph(&WebParams::uk2002_like(600), 11).symmetrized();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        (g, cgr)
    }

    #[test]
    fn plan_covers_every_node_exactly_once() {
        let (g, cgr) = sample();
        for devices in [1, 2, 4, 8] {
            let plan = ShardPlan::build(&cgr, devices);
            assert_eq!(plan.devices(), devices);
            assert_eq!(plan.shards()[0].first_node, 0);
            assert_eq!(
                plan.shards().last().unwrap().end_node as usize,
                g.num_nodes()
            );
            for u in 0..g.num_nodes() as NodeId {
                let s = plan.shard(plan.owner_of(u));
                assert!(s.first_node <= u && u < s.end_node);
            }
        }
    }

    #[test]
    fn csr_plan_matches_the_same_contract() {
        let (g, _) = sample();
        for devices in [1, 3, 8] {
            let plan = ShardPlan::build_csr(&g, devices);
            assert_eq!(plan.devices(), devices);
            assert_eq!(
                plan.shards().last().unwrap().end_node as usize,
                g.num_nodes()
            );
            for u in 0..g.num_nodes() as NodeId {
                let s = plan.shard(plan.owner_of(u));
                assert!(s.first_node <= u && u < s.end_node);
            }
            assert_eq!(plan.total_bytes(), 8 * g.num_nodes() + 4 * g.num_edges());
        }
    }

    #[test]
    fn boundaries_nest_and_boundary_edges_grow() {
        let (g, cgr) = sample();
        let plans: Vec<ShardPlan> = [1, 2, 4, 8]
            .iter()
            .map(|&d| ShardPlan::build(&cgr, d))
            .collect();
        for pair in plans.windows(2) {
            let coarse: Vec<NodeId> = pair[0].shards().iter().map(|s| s.first_node).collect();
            let fine: Vec<NodeId> = pair[1].shards().iter().map(|s| s.first_node).collect();
            assert!(coarse.iter().all(|b| fine.contains(b)));
            assert!(pair[0].boundary_edges(&g) <= pair[1].boundary_edges(&g));
        }
        assert_eq!(plans[0].boundary_edges(&g), 0);
        assert!(plans[3].boundary_edges(&g) > 0);
    }

    #[test]
    fn shards_carry_their_reference_closures() {
        // Reference-free encodings (and CSR shards) have empty closures;
        // a reference-compressed placement inherits each partition's
        // closure bytes so per-device residency floors stay honest.
        let (g, cgr) = sample();
        for s in ShardPlan::build(&cgr, 4).shards() {
            assert_eq!(s.closure_bytes, 0);
            assert_eq!(s.resident_bytes(), s.bytes);
        }
        for s in ShardPlan::build_csr(&g, 4).shards() {
            assert_eq!(s.closure_bytes, 0);
        }

        let rg = web_graph(&WebParams::eu2015_like(1_200), 9);
        let rcfg = CgrConfig::paper_default().with_ref_window(32);
        let rcgr = CgrGraph::encode(&rg, &rcfg);
        assert!(rcgr.stats().ref_nodes > 0);
        let plan = ShardPlan::build(&rcgr, 8);
        assert!(
            plan.shards().iter().any(|s| s.closure_bytes > 0),
            "an 8-way cut of a reference-heavy graph should cross a chain"
        );
        assert!(plan.max_resident_bytes() >= plan.max_shard_bytes());
    }

    #[test]
    fn bitmap_bytes_is_the_dense_owned_range() {
        let (_, cgr) = sample();
        let plan = ShardPlan::build(&cgr, 4);
        for s in 0..plan.devices() {
            assert_eq!(plan.bitmap_bytes(s), plan.shard(s).num_nodes().div_ceil(8));
        }
    }
}
