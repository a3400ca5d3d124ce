//! The streaming expander: GCGT traversal over a graph that is **not**
//! device-resident, streaming each launch's compressed partitions in as
//! coalesced, double-buffered waves — or, for a launch too small to fill
//! one partition, reading only the lines it decodes through.

use std::collections::BTreeSet;
use std::sync::Mutex;

use gcgt_cgr::CgrGraph;
use gcgt_core::kernels::{self, expand_warp, pull::pull_expand, Sink};
use gcgt_core::{memory, DirectionMode, Expander, Strategy};
use gcgt_graph::NodeId;
use gcgt_simt::{Device, DeviceConfig, OomError, TypedFailure, WarpSim};

use crate::cache::{PartitionCache, ReadThrough};
use crate::partition::PartitionMap;

/// An out-of-core GCGT engine: decodes the same compressed representation
/// as [`gcgt_core::GcgtEngine`] and plugs into the identical
/// [`Expander`]/`Algorithm` contract, but only a bounded byte budget of
/// partitions is device-resident at a time. Before every kernel launch the
/// frontier's partitions are made resident by one launch-scoped plan
/// ([`PartitionCache::walk`]: hits first, then coalesced chunked PCIe
/// uploads) — unless the launch has fewer work nodes than an average
/// partition holds, in which case it may read the lines it decodes through
/// instead ([`PartitionCache::prefers`] decides, by price and per-partition
/// rent). The kernels address the global layout either way, so kernel time
/// and memory counters are bitwise the in-core engine's; BFS, CC, BC,
/// PageRank and label propagation run unmodified on top.
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

    /// The partitions a launch over `work` decodes, as a partition-count
    /// bitmask: O(work) to mark, and the plan reads it in index order
    /// (all-nodes frontiers like PageRank's would pay a sort here otherwise).
    fn needed(&self, work: &[NodeId]) -> Vec<bool> {
        let mut needed = vec![false; self.parts.len()];
        for &u in work {
            needed[self.parts.partition_of(u)] = true;
        }
        needed
    }

    /// The read-through of a launch over `work`: the distinct lines its
    /// nodes in partitions `cache` does not hold decode, over the launch and
    /// apportioned to those partitions, and the round trips the longest
    /// reference chain needs.
    fn read_plan(&self, cache: &PartitionCache, work: &[NodeId]) -> ReadThrough {
        let mut missing: Vec<(usize, NodeId)> = work
            .iter()
            .map(|&u| (self.parts.partition_of(u), u))
            .filter(|&(pid, _)| !cache.is_resident(pid))
            .collect();
        missing.sort_unstable();
        let mut read = ReadThrough {
            parts: Vec::new(),
            lines: 0,
            rounds: 0,
        };
        // Each distinct line is apportioned to the lowest missing partition
        // whose nodes decode it, so the partitions' lines sum to the launch's.
        let (mut seen, mut hops) = (BTreeSet::new(), 0);
        for group in missing.chunk_by(|a, b| a.0 == b.0) {
            let nodes: Vec<NodeId> = group.iter().map(|&(_, u)| u).collect();
            let (lines, depth) = kernels::decode_lines(self.cgr, &nodes);
            let own = lines.into_iter().filter(|&l| seen.insert(l)).count();
            read.parts.push((group[0].0, own));
            hops = hops.max(depth);
        }
        read.lines = seen.len();
        // The index entries first, then every payload line at once (one
        // index step yields both extent bounds), then one round per hop.
        read.rounds = 2 + hops;
        read
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

    /// Serves the frontier's partitions before the launch's warps decode:
    /// one residency plan for the whole launch ([`PartitionCache::walk`]),
    /// applied — or, for a launch with fewer work nodes than an average
    /// partition holds, a read-through of exactly the lines its missing
    /// partitions contribute ([`gcgt_core::kernels::decode_lines`]) when the
    /// cache prefers it ([`PartitionCache::prefers`]). Runs serially, so
    /// residency transitions and their statistics are deterministic.
    ///
    /// For graphs loaded with [`gcgt_cgr::ValidationMode::Deferred`] this is
    /// also where lazy structural validation lands: each needed partition is
    /// proven decodable before anything is uploaded (an already-validated
    /// partition is a cheap bitmap check). Corruption discovered here is
    /// returned as [`TypedFailure::CorruptGraph`], naming the partition,
    /// before anything of the launch is charged — the deferred mode's
    /// documented trade: a typed error at load time, or a typed failure at
    /// first touch, which the query returns and a serving pool maps to a
    /// per-query `CorruptGraph` error. Validation is sticky: the same
    /// corrupt partition reports the same error on every subsequent touch.
    /// A spent retry budget of the partition cache's allocation and
    /// transfer gates is returned the same way.
    fn prepare_frontier(
        &self,
        device: &mut Device,
        frontier: &[NodeId],
    ) -> Result<(), TypedFailure> {
        let needed = self.needed(frontier);
        for (pid, _) in needed.iter().enumerate().filter(|(_, &n)| n) {
            let p = &self.parts.parts()[pid];
            self.cgr
                .ensure_validated(p.first_node as usize, p.end_node as usize)
                .map_err(|e| {
                    TypedFailure::CorruptGraph(format!(
                        "corrupt CGR payload in partition {pid}: {e}"
                    ))
                })?;
        }
        let mut cache = self.cache.lock().expect("cache poisoned");
        let walk = cache.walk(&needed, self.parts);
        // Only a launch that cannot fill even one partition may read
        // through: denser ones keep whole-partition residency, which later
        // launches reuse.
        if !walk.uploads.is_empty() && frontier.len() < self.num_nodes() / self.parts.len() {
            let read = self.read_plan(&cache, frontier);
            if cache.prefers(&read, &walk, self.parts) {
                return cache.read_through(&read, &walk, self.parts, device);
            }
        }
        cache.apply(walk, self.parts, device)
    }

    fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>) {
        addrs.extend(kernels::extent_addrs(self.cgr, u));
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
        depth: &[u32],
        du: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        pull_expand(warp, self.cgr, chunk, depth, du, out)
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
    use crate::cache::warm_upload_ms;
    use gcgt_cgr::CgrConfig;
    use gcgt_core::{bfs, bfs_in, GcgtEngine};
    use gcgt_graph::gen::{web_graph, WebParams};
    use gcgt_graph::refalgo;
    use gcgt_simt::RunStats;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
    use proptest::strategy::Strategy as PropStrategy;

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
        let _ = bfs_in(&engine, &mut device, 0).unwrap();
        // After the query: scratch freed, only cached partitions remain.
        assert!(device.allocated() <= engine.cache_budget());
    }

    #[test]
    fn release_residency_returns_the_device_to_baseline() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let engine = tight_engine(&cgr, &parts);
        let mut device = engine.new_device();
        let _ = bfs_in(&engine, &mut device, 0).unwrap();
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
        let b = bfs_in(&engine, &mut device.query_view(), 0).unwrap().stats;
        assert_eq!(a.partition_faults, b.partition_faults);
        assert_eq!(a.partition_uploads, b.partition_uploads);
        assert_eq!(a.partition_evictions, b.partition_evictions);
        assert_eq!(a.bytes_streamed, b.bytes_streamed);
        assert_eq!(a.transfer_ms.to_bits(), b.transfer_ms.to_bits());
    }

    /// Every partition's rent, in id order.
    fn rents(engine: &OocEngine) -> Vec<f64> {
        let cache = engine.cache.lock().unwrap();
        (0..engine.parts.len()).map(|p| cache.rent(p)).collect()
    }

    #[test]
    fn sparse_launches_read_through_and_release_clears_rent() {
        let (g, cfg) = (
            web_graph(&WebParams::eu2015_like(1_200), 9),
            CgrConfig::paper_default().with_ref_window(32),
        );
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&cfg));
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let engine = OocEngine::new(
            &cgr,
            &parts,
            DeviceConfig::titan_v_scaled(1 << 30),
            Strategy::Full,
            parts.max_resident_bytes() * 2,
        )
        .unwrap();
        let mut device = engine.new_device();
        let run = bfs_in(&engine, &mut device, 0).unwrap();
        assert_eq!(run.depth, refalgo::bfs(&g, 0).depth);
        let s = run.stats;
        assert!(s.read_throughs > 0, "a BFS from one source starts sparse");
        assert!(s.read_through_lines > 0 && s.partition_uploads > 0);
        assert!(rents(&engine).iter().any(|&r| r > 0.0));
        // A read-through allocates nothing: the device holds only what
        // the cache admitted.
        assert!(device.allocated() <= engine.cache_budget());
        engine.release_residency(&mut device);
        assert_eq!(device.allocated(), 0);
        assert!(rents(&engine).iter().all(|&r| r == 0.0));
    }

    #[test]
    fn a_read_through_charges_what_the_line_set_prices() {
        let (_, cgr) = encoded();
        let parts = PartitionMap::build(&cgr, 2 << 10);
        let engine = tight_engine(&cgr, &parts);
        let mut device = engine.new_device();
        let work = [5];
        let read = engine.read_plan(&engine.cache.lock().unwrap(), &work);
        assert_eq!(read.parts, [(parts.partition_of(5), read.lines)]);
        assert_eq!(read.rounds, 2, "no references, no extra round");
        engine.prepare_frontier(&mut device, &work).unwrap();
        let s = device.stats();
        assert_eq!((s.read_throughs, s.partition_faults), (1, 1));
        assert_eq!(s.partition_uploads, 0);
        assert_eq!(s.read_through_lines, read.lines as u64);
        assert_eq!(s.bytes_streamed, read.lines as u64 * 128);
        assert_eq!(s.transfer_ms.to_bits(), read.price_ms().to_bits());
        assert_eq!(device.allocated(), 0);
    }

    /// One traced launch: whether it read through, its work size, and the
    /// read-through and walked upload prices it was chosen between.
    type Launch = (bool, usize, f64, f64);

    /// Runs `trace` (work lists) on a fresh engine and device, recording
    /// each launch and, after it, every partition's rent — checking that no
    /// resident partition carries any.
    fn run_trace(
        cgr: &CgrGraph,
        parts: &PartitionMap,
        budget: usize,
        trace: &[Vec<NodeId>],
    ) -> (Vec<Launch>, Vec<Vec<f64>>, RunStats) {
        let config = DeviceConfig::titan_v_scaled(1 << 30);
        let engine = OocEngine::new(cgr, parts, config, Strategy::Full, budget).unwrap();
        let mut device = engine.new_device();
        let (mut launches, mut rent) = (Vec::new(), Vec::new());
        for work in trace {
            let (read_ms, walk_ms) = {
                let cache = engine.cache.lock().unwrap();
                let walk = cache.walk(&engine.needed(work), parts);
                let read = engine.read_plan(&cache, work);
                let apportioned: usize = read.parts.iter().map(|&(_, lines)| lines).sum();
                assert_eq!(apportioned, read.lines, "every line counts once");
                (read.price_ms(), walk.price_ms())
            };
            let before = device.stats().read_throughs;
            engine.prepare_frontier(&mut device, work).unwrap();
            let read = device.stats().read_throughs > before;
            launches.push((read, work.len(), read_ms, walk_ms));
            let cache = engine.cache.lock().unwrap();
            for pid in (0..parts.len()).filter(|&pid| cache.is_resident(pid)) {
                // Only a missing partition is rented, and buying it clears
                // its rent.
                assert_eq!(cache.rent(pid), 0.0, "resident partition {pid} is rented");
            }
            drop(cache);
            rent.push(rents(&engine));
        }
        (launches, rent, device.stats())
    }

    /// A web graph (with or without reference chains), its partitions, a
    /// budget between the floor and the whole structure, and a trace of
    /// launches: sparse ones below the read-through gate and dense ones at
    /// or above it.
    fn chooser_scenario(
    ) -> impl PropStrategy<Value = (CgrGraph, PartitionMap, usize, Vec<Vec<NodeId>>)> {
        (
            (300usize..900, 0u64..1_000, 0u8..2),
            0usize..1_000,
            proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..1 << 20, 1..64)),
                1..40,
            ),
        )
            .prop_map(|((nodes, seed, refs), permille, raw)| {
                let g = web_graph(&WebParams::uk2002_like(nodes), seed);
                let window = if refs == 1 { 32 } else { 0 };
                let cfg = CgrConfig::paper_default().with_ref_window(window);
                let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&cfg));
                let parts = PartitionMap::build(&cgr, 3 << 9);
                let floor = parts.max_resident_bytes();
                let total: usize = parts.parts().iter().map(|p| p.resident_bytes()).sum();
                let budget = floor + total.saturating_sub(floor) * permille / 1_000;
                let n = cgr.num_nodes();
                let gate = n / parts.len();
                let trace = raw
                    .into_iter()
                    .map(|(shape, picks)| {
                        // Dense launches reach the gate; sparse ones stay
                        // just below it or far below it, scattered over the
                        // graph or strided through a window a few
                        // partitions wide (several adjacent misses, which
                        // one coalesced upload serves cheaply).
                        let len = match shape {
                            0 => gate,
                            1 => gate.saturating_sub(1),
                            _ => picks.len().min(gate.saturating_sub(1)),
                        }
                        .max(1);
                        let mut work: Vec<NodeId> = if shape == 3 {
                            (0..len)
                                .map(|i| ((picks[0] + 3 * i) % n) as NodeId)
                                .collect()
                        } else {
                            picks
                                .iter()
                                .cycle()
                                .enumerate()
                                .map(|(i, &p)| ((p + i * 7919) % n) as NodeId)
                                .take(len * 2)
                                .collect()
                        };
                        work.sort_unstable();
                        work.dedup();
                        work.truncate(len);
                        work
                    })
                    .collect();
                (cgr, parts, budget, trace)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On random launch traces: a read-through's partitions share its
        /// lines exactly; a launch reads through only when it is below the
        /// gate and cheaper than its walked plan; no partition's rent ever
        /// passes its warm upload price; and a rerun reproduces every
        /// choice, rent and counter bitwise.
        #[test]
        fn the_chooser_rents_only_below_the_gate_and_the_buy_price(case in chooser_scenario()) {
            let (cgr, parts, budget, trace) = case;
            let gate = cgr.num_nodes() / parts.len();
            let (launches, rent, stats) = run_trace(&cgr, &parts, budget, &trace);
            for &(read, len, read_ms, walk_ms) in &launches {
                if read {
                    prop_assert!(len < gate, "{len} work nodes read through (gate {gate})");
                    prop_assert!(read_ms < walk_ms, "{read_ms} ms read vs {walk_ms} ms walked");
                }
            }
            for after in &rent {
                for (pid, &r) in after.iter().enumerate() {
                    prop_assert!(r <= warm_upload_ms(&parts, pid), "partition {pid}: rent {r}");
                }
            }
            let (again, rent_again, stats_again) = run_trace(&cgr, &parts, budget, &trace);
            prop_assert_eq!(
                launches.iter().map(|l| (l.0, l.2.to_bits(), l.3.to_bits())).collect::<Vec<_>>(),
                again.iter().map(|l| (l.0, l.2.to_bits(), l.3.to_bits())).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                rent.iter().flatten().map(|r| r.to_bits()).collect::<Vec<_>>(),
                rent_again.iter().flatten().map(|r| r.to_bits()).collect::<Vec<_>>()
            );
            prop_assert_eq!(stats, stats_again);
        }
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
        let run = bfs_in(&engine, &mut device, 0).unwrap();
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
