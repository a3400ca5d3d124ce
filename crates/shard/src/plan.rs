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
use gcgt_ooc::{Partition, PartitionMap};

/// The placement of a graph onto N modeled devices: one contiguous,
/// node-aligned shard per device, balanced by structure bytes.
///
/// A plan is the out-of-core partitioner's counted cut
/// ([`PartitionMap::build_count`] over compressed bytes,
/// [`PartitionMap::build_count_csr`] over CSR bytes for the uncompressed
/// baselines), one partition per device. Shard boundaries **nest** across
/// power-of-two device counts (the 4-device cut refines the 2-device cut),
/// so refining a deployment only ever adds cut points — and per-step
/// boundary traffic is monotone in the device count.
#[derive(Clone, Debug)]
pub struct ShardPlan(PartitionMap);

impl ShardPlan {
    /// Places `cgr` onto `devices` modeled GPUs, balanced by compressed
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is zero.
    pub fn build(cgr: &CgrGraph, devices: usize) -> ShardPlan {
        ShardPlan(PartitionMap::build_count(cgr, devices))
    }

    /// Places an uncompressed CSR graph onto `devices` modeled GPUs,
    /// balanced by CSR bytes.
    ///
    /// # Panics
    ///
    /// Panics when `devices` is zero.
    pub fn build_csr(graph: &Csr, devices: usize) -> ShardPlan {
        ShardPlan(PartitionMap::build_count_csr(graph, devices))
    }

    /// Number of modeled devices (always ≥ 1).
    pub fn devices(&self) -> usize {
        self.0.len()
    }

    /// The shards, in node order — one per device. Shards of a skewed graph
    /// (or a plan with more devices than nodes) may be empty; a shard's
    /// [`Partition::closure_bytes`] is what its device co-stages under
    /// reference compression.
    pub fn shards(&self) -> &[Partition] {
        self.0.parts()
    }

    /// The device owning node `u` — a binary search over the node-aligned
    /// shard boundaries that skips empty shards.
    pub fn owner_of(&self, u: NodeId) -> usize {
        self.0.partition_of(u)
    }

    /// Bytes of a dense frontier bitmap over device `s`'s owned range —
    /// the unit of boundary exchange: a shard that discovered any node
    /// owned by `s` addresses it one such segment (see [`crate::exchange`]
    /// for how segments are merged and routed).
    pub fn bitmap_bytes(&self, s: usize) -> usize {
        self.shards()[s].num_nodes().div_ceil(8)
    }

    /// The largest shard counting its reference-chain closure — the
    /// per-device residency floor.
    pub fn max_resident_bytes(&self) -> usize {
        self.0.max_resident_bytes()
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
                let s = plan.shards()[plan.owner_of(u)];
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
                let s = plan.shards()[plan.owner_of(u)];
                assert!(s.first_node <= u && u < s.end_node);
            }
            let total: usize = plan.shards().iter().map(|s| s.bytes).sum();
            assert_eq!(total, 8 * g.num_nodes() + 4 * g.num_edges());
        }
    }

    /// Stored edges whose endpoints live on different devices — the
    /// traffic ceiling of the frontier exchange.
    fn boundary_edges(plan: &ShardPlan, g: &Csr) -> usize {
        (0..g.num_nodes() as NodeId)
            .flat_map(|u| g.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| plan.owner_of(u) != plan.owner_of(v))
            .count()
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
            assert!(boundary_edges(&pair[0], &g) <= boundary_edges(&pair[1], &g));
        }
        assert_eq!(boundary_edges(&plans[0], &g), 0);
        assert!(boundary_edges(&plans[3], &g) > 0);
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
        let max_bytes = plan.shards().iter().map(|s| s.bytes).max().unwrap();
        assert!(plan.max_resident_bytes() >= max_bytes);
    }

    #[test]
    fn bitmap_bytes_is_the_dense_owned_range() {
        let (_, cgr) = sample();
        let plan = ShardPlan::build(&cgr, 4);
        for s in 0..plan.devices() {
            assert_eq!(
                plan.bitmap_bytes(s),
                plan.shards()[s].num_nodes().div_ceil(8)
            );
        }
    }
}
