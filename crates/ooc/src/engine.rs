//! The streaming expander: GCGT traversal over a graph that is **not**
//! device-resident, streaming each launch's compressed partitions in as
//! coalesced, double-buffered waves.

use std::sync::Mutex;

use gcgt_cgr::CgrGraph;
use gcgt_core::kernels::{self, expand_warp, pull::pull_expand, Sink};
use gcgt_core::{memory, DirectionMode, Expander, Frontier, Strategy};
use gcgt_graph::NodeId;
use gcgt_simt::{Device, DeviceConfig, OomError, WarpSim};

use crate::cache::PartitionCache;
use crate::partition::PartitionMap;

/// An out-of-core GCGT engine: decodes the same compressed representation
/// as [`gcgt_core::GcgtEngine`] and plugs into the identical
/// [`Expander`]/`Algorithm` contract, but only a bounded byte budget of
/// partitions is device-resident at a time. Before every kernel launch the
/// frontier's partitions are made resident by one launch-scoped plan
/// ([`PartitionCache::stream`]: hits first, then coalesced chunked PCIe
/// uploads); BFS, CC, BC, PageRank and label propagation run unmodified on
/// top.
pub struct OocEngine<'g> {
    cgr: &'g CgrGraph,
    parts: &'g PartitionMap,
    device_config: DeviceConfig,
    strategy: Strategy,
    cache_budget: usize,
    direction: DirectionMode,
    cache: Mutex<PartitionCache>,
}

impl<'g> OocEngine<'g> {
    /// Binds a streaming engine: partitions stream into `cache_budget`
    /// bytes of device memory while the per-query traversal scratch stays
    /// resident beside it. Fails when even one partition with its
    /// reference-chain closure (plus scratch) cannot fit.
    ///
    /// # Panics
    /// Panics if the CGR layout does not match the strategy (segmented ↔
    /// `Strategy::Full`), like [`gcgt_core::GcgtEngine::new`].
    pub fn new(
        cgr: &'g CgrGraph,
        parts: &'g PartitionMap,
        device_config: DeviceConfig,
        strategy: Strategy,
        cache_budget: usize,
    ) -> Result<Self, OomError> {
        strategy.assert_layout(cgr.config());
        let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
        // Each limit is reported in its own terms, scratch on both sides:
        // the device cannot hold scratch plus cache, or the cache cannot
        // hold the largest partition with its closure.
        if scratch + cache_budget > device_config.mem_capacity {
            return Err(OomError {
                requested: scratch + cache_budget,
                capacity: device_config.mem_capacity,
            });
        }
        let floor = parts.max_resident_bytes();
        if floor > cache_budget {
            return Err(OomError {
                requested: scratch + floor,
                capacity: scratch + cache_budget,
            });
        }
        Ok(Self {
            cgr,
            parts,
            device_config,
            strategy,
            cache_budget,
            direction: DirectionMode::Push,
            cache: Mutex::new(PartitionCache::new(cache_budget)),
        })
    }

    /// Sets the expansion-direction policy. **Residency tradeoff**: a pull
    /// level faults the partitions holding every *unvisited candidate's*
    /// adjacency through the shared `prepare_frontier` hook — on an early
    /// dense level that is most of the structure, so under a tight budget
    /// pulling trades expanded-edge savings for extra partition churn. The
    /// adaptive heuristic only pulls on dense frontiers, where the whole
    /// structure was about to be touched anyway.
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }

    /// The compressed graph being streamed.
    pub fn cgr(&self) -> &CgrGraph {
        self.cgr
    }

    /// The residency byte budget of the partition cache.
    pub fn cache_budget(&self) -> usize {
        self.cache_budget
    }
}

impl Expander for OocEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.cgr.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.cgr.num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        gcgt_cgr::decode::decode_degree(self.cgr, u)
    }

    fn direction(&self) -> DirectionMode {
        self.direction
    }

    fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    /// Peak bytes outside the partition cache: only the per-query traversal
    /// scratch — nothing is uploaded up front.
    fn footprint(&self) -> usize {
        memory::traversal_buffers_bytes(self.cgr.num_nodes())
    }

    fn structure_bytes(&self) -> usize {
        0
    }

    /// Streams the frontier's partitions onto the device before the
    /// launch's warps decode: one residency plan for the whole launch
    /// ([`PartitionCache::stream`]). Runs serially, so residency transitions
    /// and their statistics are deterministic.
    ///
    /// For graphs loaded with [`gcgt_cgr::ValidationMode::Deferred`] this is
    /// also where lazy structural validation lands: each needed partition is
    /// proven decodable before anything is uploaded (an already-validated
    /// partition is a cheap bitmap check). Corruption discovered here
    /// raises a typed [`gcgt_simt::chaos::TypedFailure::CorruptGraph`]
    /// unwind — the `Expander` contract has no fallible path, which is
    /// exactly the deferred mode's documented trade: a typed error at load
    /// time, or a typed failure at first touch (which a serving pool maps
    /// to a per-query `CorruptGraph` error instead of dying). Validation is
    /// sticky: the same corrupt partition reports the same error on every
    /// subsequent touch.
    fn prepare_frontier(&self, device: &mut Device, frontier: &[NodeId]) {
        // A partition-count bitmask: O(frontier) to mark, and the plan reads
        // it in index order (all-nodes frontiers like PageRank's would pay a
        // sort here otherwise).
        let mut needed = vec![false; self.parts.len()];
        for &u in frontier {
            needed[self.parts.partition_of(u)] = true;
        }
        for (pid, _) in needed.iter().enumerate().filter(|(_, &n)| n) {
            let p = &self.parts.parts()[pid];
            self.cgr
                .ensure_validated(p.first_node as usize, p.end_node as usize)
                .unwrap_or_else(|e| {
                    gcgt_simt::chaos::raise(gcgt_simt::chaos::TypedFailure::CorruptGraph(format!(
                        "corrupt CGR payload in partition {pid}: {e}"
                    )))
                });
        }
        self.cache
            .lock()
            .expect("cache poisoned")
            .stream(&needed, self.parts, device);
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        expand_warp(self.strategy, warp, self.cgr, chunk, sink);
    }

    fn shares(&self, u: NodeId) -> usize {
        kernels::shares(self.strategy, self.cgr, u)
    }

    fn expand_share(
        &self,
        warp: &mut WarpSim,
        u: NodeId,
        share: usize,
        of: usize,
        sink: &mut dyn Sink,
    ) {
        kernels::expand_share(self.strategy, warp, self.cgr, u, share, of, sink);
    }

    /// Pull over whatever `prepare_frontier` made resident: the launcher
    /// passed the pull candidates to that hook, so the partitions holding
    /// their compressed adjacency are on the device before any lane scans.
    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        pull_expand(warp, self.cgr, chunk, frontier, out)
    }

    /// Frees every partition this engine's **private** cache (one per
    /// engine instance — serving constructs an engine per query) still
    /// holds on the device. Serving workers call this when a query ends so
    /// the next query starts from the post-upload baseline — which is what
    /// keeps per-query fault statistics independent of scheduling.
    fn release_residency(&self, device: &mut Device) {
        self.cache
            .lock()
            .expect("cache poisoned")
            .drain(self.parts, device);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::CgrConfig;
    use gcgt_core::{bfs, bfs_in, GcgtEngine};
    use gcgt_graph::gen::{web_graph, WebParams};
    use gcgt_graph::refalgo;

    fn encoded() -> (gcgt_graph::Csr, CgrGraph) {
        let g = web_graph(&WebParams::uk2002_like(600), 13);
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        (g, cgr)
    }

    fn tight_engine<'g>(cgr: &'g CgrGraph, parts: &'g PartitionMap) -> OocEngine<'g> {
        // Room for roughly two partitions → plenty of eviction churn.
        let budget = parts.max_partition_bytes() * 2;
        OocEngine::new(
            cgr,
            parts,
            DeviceConfig::titan_v_scaled(1 << 30),
            Strategy::Full,
            budget,
        )
        .unwrap()
    }

    #[test]
    fn streaming_bfs_matches_oracle_and_faults() {
        let (g, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 3 << 9);
        assert!(parts.len() > 4);
        let engine = tight_engine(&cgr, &parts);
        let run = bfs(&engine, 0);
        assert_eq!(run.depth, refalgo::bfs(&g, 0).depth);
        assert!(run.stats.partition_faults >= parts.len() as u64);
        assert!(run.stats.partition_evictions >= 1);
        assert!(run.stats.transfer_ms > 0.0);
    }

    #[test]
    fn streaming_is_deterministic() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let run = || {
            let engine = tight_engine(&cgr, &parts);
            let r = bfs(&engine, 3);
            (
                r.stats.partition_faults,
                r.stats.partition_evictions,
                r.stats.transfer_ms.to_bits(),
                r.stats.est_ms.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decode_cost_identical_to_in_core() {
        // Streaming changes residency and transfer, not the decode work:
        // the execution estimate must match the in-core engine exactly.
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let ooc = tight_engine(&cgr, &parts);
        let config = DeviceConfig::titan_v_scaled(1 << 30);
        let incore = GcgtEngine::new(&cgr, config, Strategy::Full).unwrap();
        let a = bfs(&ooc, 0);
        let b = bfs(&incore, 0);
        assert_eq!(a.stats.est_ms.to_bits(), b.stats.est_ms.to_bits());
        assert_eq!(b.stats.partition_faults, 0);
        assert_eq!(b.stats.transfer_ms, 0.0);
    }

    #[test]
    fn allocated_stays_within_budget_plus_scratch() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let engine = tight_engine(&cgr, &parts);
        let mut device = engine.new_device();
        assert_eq!(device.allocated(), 0);
        let _ = bfs_in(&engine, &mut device, 0);
        // After the query: scratch freed, only cached partitions remain.
        assert!(device.allocated() <= engine.cache_budget());
    }

    #[test]
    fn release_residency_returns_the_device_to_baseline() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let engine = tight_engine(&cgr, &parts);
        let mut device = engine.new_device();
        let _ = bfs_in(&engine, &mut device, 0);
        assert!(device.allocated() > 0, "cached partitions should remain");
        engine.release_residency(&mut device);
        assert_eq!(device.allocated(), 0);
        // A second query after the release behaves exactly like the first
        // did: the cache is empty again, so its first upload is cold again
        // and every streaming statistic repeats bitwise.
        let a = {
            let e = tight_engine(&cgr, &parts);
            bfs(&e, 0).stats
        };
        // (A fresh accounting view, as a serving worker takes per query:
        // `since`-deltas on a used device round differently.)
        let b = bfs_in(&engine, &mut device.query_view(), 0).stats;
        assert_eq!(a.partition_faults, b.partition_faults);
        assert_eq!(a.partition_uploads, b.partition_uploads);
        assert_eq!(a.partition_evictions, b.partition_evictions);
        assert_eq!(a.bytes_streamed, b.bytes_streamed);
        assert_eq!(a.transfer_ms.to_bits(), b.transfer_ms.to_bits());
    }

    #[test]
    fn the_residency_floor_counts_reference_closures() {
        // Reference chains cross the tight cuts of a boilerplate-heavy web
        // graph, so some partition must co-stage a closure: a budget that
        // holds the largest bare partition but not the largest partition
        // *with* its closure cannot stream this graph.
        let g = web_graph(&WebParams::eu2015_like(1_200), 9);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default().with_ref_window(32));
        let cgr = CgrGraph::encode(&g, &cfg);
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let floor = parts.max_resident_bytes();
        assert!(
            floor > parts.max_partition_bytes(),
            "no closure at the floor"
        );
        let engine = |budget: usize| {
            OocEngine::new(
                &cgr,
                &parts,
                DeviceConfig::titan_v_scaled(1 << 30),
                Strategy::Full,
                budget,
            )
        };
        assert!(engine(floor - 1).is_err());

        // At the floor it streams, answers like the oracle, and what it
        // keeps resident — closures included — stays within the budget.
        let engine = engine(floor).unwrap();
        let mut device = engine.new_device();
        let run = bfs_in(&engine, &mut device, 0);
        assert_eq!(run.depth, refalgo::bfs(&g, 0).depth);
        assert!(device.allocated() <= floor);
        let own_bytes: u64 = parts.parts().iter().map(|p| p.bytes as u64).sum();
        assert!(run.stats.partition_faults >= parts.len() as u64);
        assert!(
            run.stats.bytes_streamed > own_bytes,
            "a full sweep at the floor streams every closure with its partition"
        );
    }

    #[test]
    fn layout_mismatch_panics_at_construction() {
        let g = web_graph(&WebParams::uk2002_like(200), 13);
        let base = CgrConfig::paper_default();
        // Segmented payload under an unsegmented strategy, and the reverse.
        for (layout, strategy) in [
            (Strategy::Full, Strategy::TwoPhase),
            (Strategy::TwoPhase, Strategy::Full),
        ] {
            let cgr = CgrGraph::encode(&g, &layout.cgr_config(&base));
            let parts = PartitionMap::build(&cgr, 2 << 10);
            let built = std::panic::catch_unwind(|| {
                OocEngine::new(
                    &cgr,
                    &parts,
                    DeviceConfig::titan_v_scaled(1 << 30),
                    strategy,
                    parts.max_resident_bytes(),
                )
                .is_ok()
            });
            assert!(built.is_err(), "{layout:?} payload under {strategy:?}");
        }
    }

    fn oom_of(cgr: &CgrGraph, parts: &PartitionMap, capacity: usize, budget: usize) -> OomError {
        OocEngine::new(
            cgr,
            parts,
            DeviceConfig::titan_v_scaled(capacity),
            Strategy::Full,
            budget,
        )
        .err()
        .expect("the engine must not fit")
    }

    #[test]
    fn a_cache_smaller_than_a_partition_reports_the_cache_limit() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
        let floor = parts.max_resident_bytes();
        assert_eq!(
            oom_of(&cgr, &parts, 1 << 30, floor - 1),
            OomError {
                requested: scratch + floor,
                capacity: scratch + floor - 1,
            }
        );
    }

    #[test]
    fn a_cache_larger_than_the_device_reports_the_device_limit() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
        let budget = 4 * parts.max_resident_bytes();
        // The cache alone would fit; scratch beside it does not.
        let capacity = scratch + budget - 1;
        assert_eq!(
            oom_of(&cgr, &parts, capacity, budget),
            OomError {
                requested: scratch + budget,
                capacity,
            }
        );
    }
}
