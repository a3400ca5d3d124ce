//! The expansion engine abstraction and the GCGT engine.
//!
//! Apps (BFS/CC/BC/PageRank) run over a `&dyn` [`Expander`]: something
//! that can expand a warp-sized chunk of frontier nodes into `(u, v)` pairs
//! on the simulated device. [`GcgtEngine`] expands compressed adjacency
//! (the paper's contribution); the `gcgt-baselines` crate provides CSR-based
//! expanders (GPUCSR, Gunrock-style) over the *same* apps and cost model, so
//! the comparison isolates exactly the decoding overhead the paper studies.

use gcgt_cgr::CgrGraph;
use gcgt_graph::NodeId;
use gcgt_simt::{parallel_warps, Device, DeviceConfig, IterationCost, OomError, WarpSim};

use crate::frontier::Frontier;
use crate::kernels::{expand_warp, Sink};
use crate::memory;
use crate::strategy::{DirectionMode, Strategy};

/// A device-resident graph structure that can expand frontier chunks.
///
/// The trait is **object-safe**: apps, launchers and the session layer all
/// take `&dyn Expander`, so an engine chosen at run time (GCGT, the CSR
/// baselines, streaming, sharded, user-defined) runs every app with no
/// per-call-site dispatch. That is why [`Expander::expand_chunk`] takes its
/// sink as `&mut dyn Sink` rather than a type parameter: every production
/// caller (sessions, serving, the bench harness) picks its engine at run
/// time, so a generic sink would be monomorphized for unit tests only.
///
/// `Send + Sync` is part of the contract: engines are shared across host
/// warp threads within a launch (`Sync`) and handed to pool workers by the
/// concurrent serving layer (`Send`) — as supertraits they make
/// `dyn Expander` itself thread-safe. Engines hold plain data or interior
/// mutability behind locks, so the bounds cost implementors nothing.
pub trait Expander: Send + Sync {
    /// Node count of the resident graph.
    fn num_nodes(&self) -> usize;

    /// Edge count of the resident graph — the denominator of the adaptive
    /// push/pull density heuristic.
    fn num_edges(&self) -> usize;

    /// Out-degree of node `u`, decoded without materializing neighbours —
    /// the per-level frontier-density sum of the adaptive heuristic. Host-
    /// side bookkeeping: charges nothing on the simulated device (like
    /// Ligra's threshold computation).
    fn out_degree(&self, u: NodeId) -> usize;

    /// The expansion-direction policy direction-aware apps (BFS) follow.
    /// Defaults to push-only — exactly the pre-direction-optimization
    /// behaviour, bitwise. Pull/adaptive engines must only be constructed
    /// over symmetric adjacency (the session layer verifies this).
    fn direction(&self) -> DirectionMode {
        DirectionMode::Push
    }

    /// The simulated device's configuration.
    fn device_config(&self) -> &DeviceConfig;

    /// Peak resident bytes (graph structure **plus** per-query traversal
    /// scratch) for OOM accounting — what a capacity check must admit.
    fn footprint(&self) -> usize;

    /// The query-invariant part of [`Expander::footprint`]: the uploaded
    /// graph structure that stays resident for the engine's whole life.
    /// The default (everything) suits engines with no per-query scratch.
    fn structure_bytes(&self) -> usize {
        self.footprint()
    }

    /// Per-query scratch (frontier queues, output buffers, label arrays):
    /// apps allocate this on entry and free it on exit, so
    /// [`gcgt_simt::Device::allocated`] returns to the post-upload baseline
    /// between batched queries.
    fn scratch_bytes(&self) -> usize {
        self.footprint() - self.structure_bytes()
    }

    /// Hook called once per kernel launch, before any warp expands, with the
    /// whole frontier. In-core engines ignore it (default no-op);
    /// out-of-core engines fault the frontier's partitions onto the device
    /// here, charging allocations and streamed-transfer time on `device`.
    /// Running it serially (not per warp) keeps residency and its statistics
    /// deterministic.
    fn prepare_frontier(&self, device: &mut Device, frontier: &[NodeId]) {
        let _ = (device, frontier);
    }

    /// Expands one warp's chunk of frontier nodes, feeding `sink`.
    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink);

    /// Pull-mode expansion of one warp's chunk of **unvisited candidates**:
    /// for each candidate, scan its adjacency for the first neighbour in
    /// `frontier` (early exit) and push `(parent, candidate)` onto `out`.
    /// Returns the number of neighbours examined (the
    /// `RunStats::pulled_edges` contribution).
    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64;

    /// Releases whatever query-spanning residency this engine still holds
    /// on `device` — called by serving workers when a query ends, so the
    /// device returns to its post-upload baseline and the next query starts
    /// from a known state. In-core engines hold nothing beyond the uploaded
    /// structure (default no-op); the out-of-core engine frees its resident
    /// partitions here.
    fn release_residency(&self, device: &mut Device) {
        let _ = device;
    }

    /// Creates a per-run device with the graph structure resident (apps add
    /// and remove their scratch around each query).
    ///
    /// # Panics
    /// Panics if the structure exceeds capacity — engines are expected to
    /// verify capacity at construction.
    fn new_device(&self) -> Device {
        let mut device = self.device_config().new_device();
        device
            .alloc(self.structure_bytes())
            .expect("device capacity must be verified at engine construction");
        device
    }
}

/// One kernel launch over `work`: residency hook, chunking into warps,
/// host-parallel `per_warp` runs (results in warp order, hence
/// deterministic), launch accounting on `device`, and — only with an
/// observer installed — the level event, whose edge count `edges` derives
/// from the per-warp results.
fn launch<T: Send>(
    expander: &dyn Expander,
    device: &mut Device,
    work: &[NodeId],
    direction: &'static str,
    per_warp: impl Fn(&mut WarpSim, &[NodeId]) -> T + Sync,
    edges: impl FnOnce(&[T]) -> u64,
) -> Vec<T> {
    // Observer bookkeeping costs nothing when disabled: the span start and
    // the edge count are computed only with an observer installed, and
    // never feed back into any accounted number.
    let obs_start = device.observer().is_some().then(|| device.modeled_ms());
    // Residency first: out-of-core engines fault the work list's partitions
    // onto the device before any warp decodes (serial, hence deterministic).
    expander.prepare_frontier(device, work);
    let device_config = expander.device_config();
    let width = device_config.warp_width;
    let cache_lines = device_config.cache_lines_per_warp;
    // Decode-cost model: devices carrying the VLC decode tables charge
    // decode steps as one table probe (OpClass::TableDecode) instead of a
    // serial bit-scan — same schedule, cheaper slots. No-op for kernels
    // that never decode (the CSR baselines).
    let table_decode = device_config.table_decode;
    let chunks: Vec<&[NodeId]> = work.chunks(width).collect();
    let results = parallel_warps(chunks.len(), |w| {
        let mut warp = WarpSim::new(width, cache_lines).with_table_decode(table_decode);
        let out = per_warp(&mut warp, chunks[w]);
        (warp.into_counters(), out)
    });

    let mut cost = IterationCost {
        warps: chunks.len(),
        ..Default::default()
    };
    let mut outs = Vec::with_capacity(results.len());
    for ((tally, mem), out) in results {
        let critical = device_config.warp_critical_cycles(&tally, &mem);
        cost.max_warp_cycles = cost.max_warp_cycles.max(critical);
        cost.tally.merge(&tally);
        cost.mem.merge(&mem);
        outs.push(out);
    }
    device.account_launch(&cost);
    if let (Some(start_ms), Some(obs)) = (obs_start, device.observer()) {
        obs.level(&gcgt_simt::obs::LevelEvent {
            track: device.track(),
            start_ms,
            end_ms: device.modeled_ms(),
            direction,
            work_items: work.len() as u64,
            edges: edges(&outs),
            classes: device_config.class_breakdown(&cost.tally),
        });
    }
    outs
}

/// Launches one expansion kernel over `frontier`: chunks it into warps, runs
/// them host-parallel (deterministically merged in warp order), accounts the
/// launch on `device`, and returns the per-warp sinks for the contraction
/// merge.
pub fn launch_expansion<S, F>(
    expander: &dyn Expander,
    device: &mut Device,
    frontier: &[NodeId],
    make_sink: F,
) -> Vec<S>
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    launch(
        expander,
        device,
        frontier,
        "push",
        |warp, chunk| {
            let mut sink = make_sink();
            expander.expand_chunk(warp, chunk, &mut sink);
            sink
        },
        |_| {
            frontier
                .iter()
                .map(|&u| expander.out_degree(u) as u64)
                .sum()
        },
    )
}

/// Launches one pull-mode kernel over the unvisited `candidates`: chunks
/// them into warps, scans each candidate's compressed adjacency for a
/// frontier parent (early exit), merges discoveries in warp order and
/// accounts the launch on `device`. Returns the `(parent, candidate)`
/// discoveries plus the total neighbours examined.
///
/// Out-of-core composition falls out of the shared
/// [`Expander::prepare_frontier`] hook: a pull level faults the partitions
/// holding the **candidates'** adjacency (not the frontier's), which is
/// most of the structure on early dense levels — the residency tradeoff the
/// adaptive heuristic's push levels avoid.
pub fn launch_pull(
    expander: &dyn Expander,
    device: &mut Device,
    candidates: &[NodeId],
    frontier: &Frontier,
) -> (Vec<(NodeId, NodeId)>, u64) {
    fn examined(outs: &[(Vec<(NodeId, NodeId)>, u64)]) -> u64 {
        outs.iter().map(|(_, seen)| seen).sum()
    }
    let outs = launch(
        expander,
        device,
        candidates,
        "pull",
        |warp, chunk| {
            let mut out = Vec::new();
            let seen = expander.pull_chunk(warp, chunk, frontier, &mut out);
            (out, seen)
        },
        examined,
    );
    let total = examined(&outs);
    (outs.into_iter().flat_map(|(out, _)| out).collect(), total)
}

/// A GCGT traversal engine bound to one compressed graph.
pub struct GcgtEngine<'g> {
    cgr: &'g CgrGraph,
    device_config: DeviceConfig,
    strategy: Strategy,
    direction: DirectionMode,
}

impl<'g> GcgtEngine<'g> {
    /// Binds an engine to `cgr`. Fails if the graph plus traversal buffers
    /// exceed the device's memory capacity, or if the CGR layout does not
    /// match the strategy (segmented ↔ `Strategy::Full`).
    pub fn new(
        cgr: &'g CgrGraph,
        device_config: DeviceConfig,
        strategy: Strategy,
    ) -> Result<Self, OomError> {
        strategy.assert_layout(cgr.config());
        let mut probe = Device::new(device_config);
        probe.alloc(memory::gcgt_footprint(cgr))?;
        Ok(Self {
            cgr,
            device_config,
            strategy,
            direction: DirectionMode::Push,
        })
    }

    /// Sets the expansion-direction policy (defaults to
    /// [`DirectionMode::Push`], the pre-direction-optimization behaviour).
    ///
    /// Pull semantics require the encoded adjacency to be symmetric —
    /// construct over a symmetrized graph (the session layer checks this;
    /// direct engine users own the invariant).
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }

    /// The compressed graph.
    pub fn cgr(&self) -> &CgrGraph {
        self.cgr
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

impl Expander for GcgtEngine<'_> {
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

    fn footprint(&self) -> usize {
        memory::gcgt_footprint(self.cgr)
    }

    fn structure_bytes(&self) -> usize {
        memory::gcgt_structure_bytes(self.cgr)
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        expand_warp(self.strategy, warp, self.cgr, chunk, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        crate::kernels::pull::pull_expand(warp, self.cgr, chunk, frontier, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CollectSink;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::toys;

    fn tiny_cfg() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    #[test]
    fn layout_mismatch_panics() {
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default()); // segmented
        let result = std::panic::catch_unwind(|| {
            let _ = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Intuitive);
        });
        assert!(result.is_err());
    }

    #[test]
    fn oom_when_graph_too_big() {
        let g = toys::figure1();
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut dc = tiny_cfg();
        dc.mem_capacity = 8; // absurdly small
        assert!(GcgtEngine::new(&cgr, dc, Strategy::TwoPhase).is_err());
    }

    #[test]
    fn launch_merges_sinks_in_warp_order() {
        let g = toys::figure1();
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::TwoPhase).unwrap();
        let mut device = engine.new_device();
        let frontier: Vec<NodeId> = (0..8).collect();
        let sinks = launch_expansion(&engine, &mut device, &frontier, CollectSink::default);
        assert_eq!(sinks.len(), 1); // 8 nodes, warp width 8
        let pairs: Vec<_> = sinks.into_iter().flat_map(|s| s.pairs).collect();
        assert_eq!(pairs.len(), g.num_edges());
        let stats = device.stats();
        assert_eq!(stats.launches, 1);
        assert!(stats.est_ms > 0.0);
    }

    #[test]
    fn stats_are_deterministic_across_runs() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(500), 3);
        let cfg = Strategy::TaskStealing.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine =
            GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::TaskStealing).unwrap();
        let frontier: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let run = || {
            let mut device = engine.new_device();
            launch_expansion(&engine, &mut device, &frontier, CollectSink::default);
            let s = device.stats();
            (s.cycles.to_bits(), s.tally, s.mem)
        };
        assert_eq!(run(), run());
    }
}
