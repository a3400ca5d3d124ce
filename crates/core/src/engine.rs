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
use gcgt_simt::{
    parallel_warps, Charge, Device, DeviceConfig, IterationCost, OomError, OpClass, Space,
    TypedFailure, WarpSim,
};

use crate::kernels::{self, expand_warp, Sink};
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
    /// the per-level frontier-density sum of the adaptive heuristic, and
    /// the weight by which the launch [`schedule`] splits hubs and cuts
    /// device-filling frontiers. The call itself charges nothing on the
    /// simulated device (like Ligra's threshold computation); the device
    /// pays for the edge cut's degree prefix in [`compact_frontier`], which
    /// reads [`Expander::index_addrs`].
    fn out_degree(&self, u: NodeId) -> usize;

    /// The expansion-direction policy direction-aware apps follow: BFS's
    /// levels, and the forward levels of BC, which pulls by its own edge
    /// comparison under any policy but push. Defaults to push-only —
    /// exactly the pre-direction-optimization behaviour, bitwise.
    /// Pull/adaptive engines must only be constructed over symmetric
    /// adjacency (the session layer verifies this).
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
    /// whole frontier. In-core engines have nothing to prepare (default
    /// `Ok(())`); out-of-core engines fault the frontier's partitions onto
    /// the device here, charging allocations and streamed-transfer time on
    /// `device`. Running it serially (not per warp) keeps residency and its
    /// statistics deterministic.
    ///
    /// # Errors
    /// A failure the query cannot absorb — a spent retry budget
    /// ([`TypedFailure::FaultBudgetExhausted`]) or a payload that fails
    /// deferred validation ([`TypedFailure::CorruptGraph`]). The launch
    /// returns it before any warp runs, and the app returns it unchanged.
    fn prepare_frontier(
        &self,
        device: &mut Device,
        frontier: &[NodeId],
    ) -> Result<(), TypedFailure> {
        let _ = (device, frontier);
        Ok(())
    }

    /// Appends to `addrs` the device addresses one lane reads to learn
    /// node `u`'s extent in the resident structure — its index entries for
    /// `u` and `u + 1` — the degree proxy of the prefix that
    /// [`compact_frontier`] computes for the [`schedule`]'s edge cut.
    fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>);

    /// Expands one warp's chunk of frontier nodes, feeding `sink`.
    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink);

    /// How many independent, non-empty shares node `u`'s expansion can be
    /// cut into, each decodable on a warp of its own — the launch schedule
    /// splits a hub into at most this many ([`schedule`]). Only called once
    /// `u`'s residency is prepared. The default, 1, never splits.
    fn shares(&self, u: NodeId) -> usize {
        let _ = u;
        1
    }

    /// Expands share `share` of `of` (`of ≤ self.shares(u)`) of node `u`
    /// on its own warp. Across `share = 0..of` the shares emit `u`'s
    /// adjacency exactly once. The default handles the one share of an
    /// engine that cannot split: the whole node.
    ///
    /// # Panics
    /// The default panics when `of > 1`.
    fn expand_share(
        &self,
        warp: &mut WarpSim,
        u: NodeId,
        share: usize,
        of: usize,
        sink: &mut dyn Sink,
    ) {
        assert_eq!((share, of), (0, 1), "node {u} cannot be split");
        self.expand_chunk(warp, &[u], sink);
    }

    /// Pull-mode expansion of one warp's chunk of **unvisited candidates**:
    /// for each candidate, scan its adjacency for the first neighbour on
    /// the frontier — `depth[u] == du`, charged as a probe of the frontier
    /// bitmap ([`kernels::pull::frontier_bitmap_addr`]) — with early exit,
    /// and push `(parent, candidate)` onto `out`. Returns the number of
    /// neighbours examined (the `RunStats::pulled_edges` contribution).
    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        depth: &[u32],
        du: u32,
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

/// One warp of a launch: a run of whole work nodes (`of == 1`), or share
/// `share` of `of` of the single hub in `nodes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpWork<'w> {
    /// The work nodes this warp expands (exactly one when split).
    pub nodes: &'w [NodeId],
    /// Which share of the node (0 for a run of whole nodes).
    pub share: usize,
    /// How many shares the node was cut into (1: not split).
    pub of: usize,
}

impl WarpWork<'_> {
    /// Whether this warp expands one share of a split hub.
    pub fn is_share(&self) -> bool {
        self.of > 1
    }
}

/// The launch schedule: how `work` is cut into warps — a pure function of
/// the work list, the engine's [`Expander::out_degree`] and
/// [`Expander::shares`], and its [`DeviceConfig`]. Every work node is
/// covered exactly once, in work-list order, and no warp is empty. One rule
/// serves every frontier size:
///
/// * A run of whole nodes closes after `per_warp = ⌈len / num_sms⌉` nodes,
///   clamped to `[1, warp_width]`: a small frontier reaches as many SMs as
///   it has nodes, and one that [fills the device](DeviceConfig::fills_device)
///   packs `warp_width` nodes per warp.
/// * With `split` (push launches), a node whose degree exceeds
///   `target = max(⌈Σ degree / max(⌈len / per_warp⌉, num_sms)⌉, warp_width)`
///   — the edges of an average warp of the node cut — is cut in place into
///   `min(⌈degree / target⌉, shares(u))` shares, one warp each: the paper's
///   "a node can be decoded by up to `segNum` threads at once", across
///   warps.
/// * With `split`, in a device-filling frontier that is not every node, a
///   run of whole nodes also closes before it would pass `target` edges —
///   Gunrock's load-balanced advance, which cuts a frontier by edges. The
///   apps hand such a frontier over from [`compact_frontier`], which pays
///   for the degree prefix the cut needs. The cut stops at two measured
///   limits:
///   - **All-node launches** (CC, PageRank, label propagation) already give
///     each SM about twelve warps. Edge-cutting them raised web PageRank,
///     the p95 op of the in-core benchmark workload, from 0.0847 to
///     0.0883 modeled ms.
///   - **Small frontiers** keep the node cut. The edge cut gives GCGT
///     −3.6 % but GPUCSR −29 % on a 1,500-node twitter-like graph, so the
///     GCGT/GPUCSR ratio that `gcgt_is_competitive_with_gpucsr` pins would
///     move from 2.177 to 2.949 with no change to GCGT.
///
/// Pull launches (without `split`) are spread and never split: a scan
/// exits early, so its work is not its degree. Degrees are read only after
/// the launcher has prepared residency.
pub fn schedule<'w>(expander: &dyn Expander, work: &'w [NodeId], split: bool) -> Vec<WarpWork<'w>> {
    let config = expander.device_config();
    let (width, sms) = (config.warp_width, config.num_sms);
    let whole = |nodes| WarpWork {
        nodes,
        share: 0,
        of: 1,
    };
    let per_warp = work.len().div_ceil(sms).clamp(1, width);
    if !split {
        return work.chunks(per_warp).map(whole).collect();
    }
    let degrees: Vec<usize> = work.iter().map(|&u| expander.out_degree(u)).collect();
    let node_warps = work.len().div_ceil(per_warp).max(sms);
    let target = degrees
        .iter()
        .sum::<usize>()
        .div_ceil(node_warps)
        .max(width);
    let edge_cut = config.fills_device(work.len()) && work.len() != expander.num_nodes();
    let mut warps = Vec::new();
    // The run of whole nodes not yet closed, and its edges.
    let (mut run, mut run_edges) = (0, 0);
    for (i, (&u, &degree)) in work.iter().zip(&degrees).enumerate() {
        let of = if degree > target {
            degree.div_ceil(target).min(expander.shares(u))
        } else {
            1
        };
        if run < i && (of > 1 || i - run == per_warp || (edge_cut && run_edges + degree > target)) {
            warps.push(whole(&work[run..i]));
            (run, run_edges) = (i, 0);
        }
        if of > 1 {
            let hub = &work[i..=i];
            warps.extend((0..of).map(|share| WarpWork {
                nodes: hub,
                share,
                of,
            }));
            run = i + 1;
        } else {
            run_edges += degree;
        }
    }
    if run < work.len() {
        warps.push(whole(&work[run..]));
    }
    warps
}

/// One kernel launch over `work`: residency hook, the [`schedule`] (hubs
/// split only with `split`), host-parallel `per_warp` runs (results in warp
/// order, hence deterministic), the launch charge on `device`, and the
/// level charge spanning both, whose edge count `edges` derives from the
/// per-warp results only when an observer reads it.
fn launch<T: Send>(
    expander: &dyn Expander,
    device: &mut Device,
    work: &[NodeId],
    direction: &'static str,
    split: bool,
    per_warp: impl Fn(&mut WarpSim, WarpWork) -> T + Sync,
    edges: impl Fn(&[T]) -> u64,
) -> Result<Vec<T>, TypedFailure> {
    let start_ms = device.modeled_ms();
    // Residency first: out-of-core engines fault the work list's partitions
    // onto the device before any warp decodes (serial, hence deterministic)
    // — and before the schedule reads a degree, so a payload that fails
    // deferred validation is returned before any degree of it is decoded.
    expander.prepare_frontier(device, work)?;
    let device_config = expander.device_config();
    let width = device_config.warp_width;
    let cache_lines = device_config.cache_lines_per_warp;
    // Decode-cost model: devices carrying the VLC decode tables charge
    // decode steps as one table probe (OpClass::TableDecode) instead of a
    // serial bit-scan — same schedule, cheaper slots. No-op for kernels
    // that never decode (the CSR baselines).
    let table_decode = device_config.table_decode;
    let warps = schedule(expander, work, split);
    let results = parallel_warps(warps.len(), |w| {
        let mut warp = WarpSim::new(width, cache_lines).with_table_decode(table_decode);
        let out = per_warp(&mut warp, warps[w]);
        (warp.into_counters(), out)
    });

    let mut cost = IterationCost {
        warps: warps.len(),
        ..Default::default()
    };
    let mut outs = Vec::with_capacity(results.len());
    for ((tally, mem), out) in results {
        cost.add_warp(&tally, &mem, device_config);
        outs.push(out);
    }
    device.record(Charge::launch(&cost, device.config()));
    device.record(Charge::Level {
        start_ms,
        direction,
        work_items: work.len() as u64,
        split_nodes: warps
            .iter()
            .filter(|w| w.is_share() && w.share == 0)
            .count() as u64,
        launch: &cost,
        edges: &|| edges(&outs),
    });
    Ok(outs)
}

/// Launches one expansion kernel over `nodes`: cuts it into warps by the
/// [`schedule`] (hubs split across warps, device-filling frontiers cut by
/// edges), runs them host-parallel (deterministically merged in warp
/// order), accounts the launch on `device`, and returns the per-warp sinks
/// for the contraction merge. Every node's whole adjacency is expanded into
/// a sink of its warp's own.
///
/// `direction` labels the level. `"push"` expands a frontier's out-edges;
/// `"pull"` expands a pull level's ascending unvisited candidates whole, so
/// that the sink can keep every frontier parent — for an app that cannot
/// exit a scan at the first parent, as [`launch_pull`] does (Brandes' σ(v)
/// sums over all of them). The kernels and the schedule are the same.
///
/// # Errors
/// Whatever [`Expander::prepare_frontier`] fails with, before any warp runs.
pub fn launch_expansion<S, F>(
    expander: &dyn Expander,
    device: &mut Device,
    nodes: &[NodeId],
    direction: &'static str,
    make_sink: F,
) -> Result<Vec<S>, TypedFailure>
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    launch(
        expander,
        device,
        nodes,
        direction,
        true,
        |warp, work| {
            let mut sink = make_sink();
            if work.is_share() {
                let u = work.nodes[0];
                expander.expand_share(warp, u, work.share, work.of, &mut sink);
            } else {
                expander.expand_chunk(warp, work.nodes, &mut sink);
            }
            sink
        },
        |_| nodes.iter().map(|&u| expander.out_degree(u) as u64).sum(),
    )
}

/// Launches one pull-mode kernel over the unvisited `candidates`: cuts them
/// into warps by the [`schedule`] (spread, never split — a scan exits
/// early, so its work is not its degree), scans each candidate's compressed
/// adjacency for a frontier parent — a neighbour `u` with `depth[u] == du`
/// (early exit) — merges discoveries in warp order and accounts the launch
/// on `device`. Returns the `(parent, candidate)` discoveries plus the
/// total neighbours examined.
///
/// Out-of-core composition falls out of the shared
/// [`Expander::prepare_frontier`] hook: a pull level faults the partitions
/// holding the **candidates'** adjacency (not the frontier's), which is
/// most of the structure on early dense levels — the residency tradeoff the
/// adaptive heuristic's push levels avoid.
///
/// # Errors
/// Whatever [`Expander::prepare_frontier`] fails with, before any warp runs.
pub fn launch_pull(
    expander: &dyn Expander,
    device: &mut Device,
    candidates: &[NodeId],
    depth: &[u32],
    du: u32,
) -> Result<(Vec<(NodeId, NodeId)>, u64), TypedFailure> {
    fn examined(outs: &[(Vec<(NodeId, NodeId)>, u64)]) -> u64 {
        outs.iter().map(|(_, seen)| seen).sum()
    }
    let outs = launch(
        expander,
        device,
        candidates,
        "pull",
        false,
        |warp, work| {
            let mut out = Vec::new();
            let seen = expander.pull_chunk(warp, work.nodes, depth, du, &mut out);
            (out, seen)
        },
        examined,
    )?;
    let total = examined(&outs);
    Ok((outs.into_iter().flat_map(|(out, _)| out).collect(), total))
}

/// Byte offset, inside [`Space::Frontier`], of the visited bitmap's
/// pre-level copy that [`compact_frontier`] diffs against: above the pull
/// bitmap ([`kernels::pull::frontier_bitmap_addr`], from `2^40`) and inside the
/// ping-pong queue allowance, so it moves no footprint.
const VISITED_COPY: u64 = 1 << 41;

/// Compacts a level's next frontier into ascending node order — the
/// bitmap-to-queue filter of Beamer's and Gunrock's kernels — and computes
/// the degree prefix the [`schedule`]'s edge cut reads, charged as one
/// modeled launch on `device`.
///
/// The warps' survivor lists join in warp order, a sawtooth of neighbour
/// runs; a device-filling push launch then hands each warp up to
/// `warp_width` nodes scattered across the graph. Sorted, each warp decodes
/// consecutive nodes, whose adjacency sits side by side (coalesced loads).
///
/// The device kernel: one lane per 32-bit word of the visited bitmap, and
/// the words spread over the SMs by the schedule's own rule,
/// `⌈words / num_sms⌉` per warp clamped to `[1, warp_width]`, so that no
/// warp writes the survivors of many words in dependent steps. Each warp
/// loads its visited words and their pre-level copy, stores the words into
/// the copy (three coalesced steps), popcounts the new bits and scans the
/// counts; a warp with `c > 0` survivors then reserves queue space with one
/// atomic and, per `warp_width` survivors, reads their index entries
/// ([`Expander::index_addrs`]), scans the degrees, and writes each id with
/// its prefix as one 8-byte pair. The cost is a pure function of `n`, the
/// sorted ids, the engine's index addresses and the [`DeviceConfig`], so
/// any permutation of one id set costs the same. It reads no payload byte
/// and never calls [`Expander::prepare_frontier`]: the index lines it
/// reads are the frontier's own, which the next launch makes resident, so
/// out-of-core residency and shard exchange are untouched.
pub fn compact_frontier(expander: &dyn Expander, device: &mut Device, frontier: &mut [NodeId]) {
    let start_ms = device.modeled_ms();
    frontier.sort_unstable();
    let cost = compaction_cost(expander, frontier);
    device.record(Charge::launch(&cost, device.config()));
    device.record(Charge::Level {
        start_ms,
        direction: "compact",
        work_items: frontier.len() as u64,
        split_nodes: 0,
        launch: &cost,
        edges: &|| 0,
    });
}

/// The [`compact_frontier`] launch over `expander`'s graph whose new
/// frontier is `sorted` (ascending).
fn compaction_cost(expander: &dyn Expander, sorted: &[NodeId]) -> IterationCost {
    let config = expander.device_config();
    let width = config.warp_width;
    let words = expander.num_nodes().div_ceil(32);
    let per_warp = words.div_ceil(config.num_sms).clamp(1, width);
    let mut cost = IterationCost {
        warps: words.div_ceil(per_warp),
        ..Default::default()
    };
    let mut rest = sorted;
    // Queue slots reserved by earlier warps.
    let mut queued = 0u64;
    let mut index = Vec::new();
    for first_word in (0..words).step_by(per_warp) {
        let lanes = per_warp.min(words - first_word);
        let mut warp = WarpSim::new(width, config.cache_lines_per_warp);
        let word_addrs =
            |base: u64| (first_word..first_word + lanes).map(move |word| base + 4 * word as u64);
        let copy = Space::Frontier.addr(VISITED_COPY);
        // Load the visited words, load their copy, store them into it.
        warp.issue_mem(OpClass::Generic, lanes, word_addrs(Space::Visited.addr(0)));
        warp.issue_mem(OpClass::Generic, lanes, word_addrs(copy));
        warp.issue_mem(OpClass::Generic, lanes, word_addrs(copy));
        // Popcount of each lane's new bits, then the warp's offsets.
        warp.issue(OpClass::Generic, lanes);
        let end = (first_word + lanes) * 32;
        let survivors = rest.partition_point(|&v| (v as usize) < end);
        let mut counts = vec![0u32; lanes];
        for &v in &rest[..survivors] {
            counts[v as usize / 32 - first_word] += 1;
        }
        let (mine, later) = rest.split_at(survivors);
        rest = later;
        warp.exclusive_scan(&counts);
        if survivors > 0 {
            warp.atomic_add(Space::Output.addr(0));
            for (step, ids) in mine.chunks(width).enumerate() {
                // The degree prefix: each lane reads its survivor's index
                // entries, then the warp scans the degrees.
                index.clear();
                for &v in ids {
                    expander.index_addrs(v, &mut index);
                }
                warp.issue_mem(OpClass::Generic, ids.len(), index.iter().copied());
                warp.issue(OpClass::Scan, width);
                let first = queued + (step * width) as u64;
                warp.issue_mem(
                    OpClass::Generic,
                    ids.len(),
                    (first..first + ids.len() as u64).map(|slot| Space::Frontier.addr(8 * slot)),
                );
            }
            queued += survivors as u64;
        }
        let (tally, mem) = warp.into_counters();
        cost.add_warp(&tally, &mem, config);
    }
    debug_assert!(rest.is_empty(), "frontier node out of range");
    cost
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

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        depth: &[u32],
        du: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        kernels::pull::pull_expand(warp, self.cgr, chunk, depth, du, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CollectSink;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::toys;
    use gcgt_graph::Csr;

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

    /// Node 0 is a hub of 2,000 scattered residuals (many segments); nodes
    /// 1..40 have two neighbours each.
    fn hub_graph() -> Csr {
        let mut edges = Vec::new();
        let mut v = 3u32;
        for i in 0..2000u32 {
            edges.push((0, v));
            v += 2 + (i % 7);
        }
        for u in 1..40u32 {
            edges.extend([(u, (u * 37) % 40), (u, 100 + u)]);
        }
        Csr::from_edges(v as usize + 1, &edges)
    }

    fn whole(nodes: &[NodeId]) -> WarpWork<'_> {
        WarpWork {
            nodes,
            share: 0,
            of: 1,
        }
    }

    #[test]
    fn device_filling_frontiers_split_their_hub() {
        // 4 SMs × 8 lanes: from 32 work items on, the device is full by
        // node count alone. Whole nodes pack warp_width per warp (nodes
        // 1..40 hold two edges each, far below target), and the hub is cut
        // into shares as in a small frontier.
        let g = hub_graph();
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        for len in [32, 33, 39, 40] {
            let work: Vec<NodeId> = (0..len).collect();
            let total: usize = work.iter().map(|&u| engine.out_degree(u)).sum();
            let target = total.div_ceil(work.len().div_ceil(8));
            let of = 2000usize.div_ceil(target).min(engine.shares(0));
            assert!(of > 1, "{len} items");
            let mut want: Vec<WarpWork> = (0..of)
                .map(|share| WarpWork {
                    nodes: &work[..1],
                    share,
                    of,
                })
                .collect();
            want.extend(work[1..].chunks(8).map(whole));
            assert_eq!(schedule(&engine, &work, true), want, "{len} items");
            // Pull launches pack the same way but never split.
            let packed: Vec<WarpWork> = work.chunks(8).map(whole).collect();
            assert_eq!(schedule(&engine, &work, false), packed, "{len} items");
        }
    }

    #[test]
    fn small_frontiers_spread_over_the_sms() {
        let g = hub_graph();
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        assert!(schedule(&engine, &[], true).is_empty());
        // ⌈len / 4 SMs⌉ nodes per warp, in order.
        for (len, per_warp) in [(1, 1), (3, 1), (4, 1), (5, 2), (16, 4), (31, 8)] {
            let work: Vec<NodeId> = (1..=len).collect();
            let want: Vec<WarpWork> = work.chunks(per_warp).map(whole).collect();
            assert_eq!(schedule(&engine, &work, true), want, "{len} items");
        }
    }

    #[test]
    fn a_hub_is_cut_in_place_and_only_when_pushing() {
        let g = hub_graph();
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        let work = [5, 0, 6, 7, 8];
        // 2 nodes per warp; target = max(⌈2,008 / 4⌉, 8) = 502.
        let total: usize = work.iter().map(|&u| engine.out_degree(u)).sum();
        assert_eq!(total, 2008);
        let of = 2000usize.div_ceil(502).min(engine.shares(0));
        assert_eq!(of, 4, "{} segments", engine.shares(0));
        let hub = &work[1..2];
        let mut want = vec![whole(&work[..1])];
        want.extend((0..of).map(|share| WarpWork {
            nodes: hub,
            share,
            of,
        }));
        want.extend([whole(&work[2..4]), whole(&work[4..])]);
        assert_eq!(schedule(&engine, &work, true), want);
        // Pull launches spread but never split.
        let spread: Vec<WarpWork> = work.chunks(2).map(whole).collect();
        assert_eq!(schedule(&engine, &work, false), spread);
    }

    #[test]
    fn unsplittable_engines_keep_their_hubs_whole() {
        let g = hub_graph();
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::TwoPhase).unwrap();
        assert_eq!(engine.shares(0), 1);
        let work = [5, 0, 6];
        let want: Vec<WarpWork> = work.chunks(1).map(whole).collect();
        assert_eq!(schedule(&engine, &work, true), want);
    }

    #[test]
    fn launch_merges_warps_in_schedule_order() {
        let g = hub_graph();
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        let metrics = std::sync::Arc::new(gcgt_simt::obs::MetricsRegistry::new());
        let work = [5, 0, 6, 7, 8];
        let mut device = engine.new_device();
        device.set_observer(gcgt_simt::obs::ObserverHandle::from_arc(metrics.clone()));
        let sinks = launch_expansion(&engine, &mut device, &work, "push", CollectSink::default)
            .expect("in-core launches cannot fail");
        let warps = schedule(&engine, &work, true);
        assert_eq!(sinks.len(), warps.len());
        assert_eq!(device.stats().launches, 1);
        assert_eq!(metrics.value("gcgt_warps_total"), Some(warps.len() as f64));
        assert_eq!(metrics.value("gcgt_split_nodes_total"), Some(1.0));

        // Each warp emits what expanding its nodes alone emits; the hub's
        // shares, concatenated in warp order, emit it exactly as one warp
        // expanding it whole would — no share is empty.
        let alone = |nodes: &[NodeId]| {
            let mut sink = CollectSink::default();
            engine.expand_chunk(&mut WarpSim::new(8, 16), nodes, &mut sink);
            sink.pairs
        };
        let mut hub = Vec::new();
        for (warp, sink) in warps.iter().zip(&sinks) {
            if warp.is_share() {
                assert!(
                    !sink.pairs.is_empty(),
                    "share {} of {}",
                    warp.share,
                    warp.of
                );
                hub.extend_from_slice(&sink.pairs);
            } else {
                assert_eq!(sink.pairs, alone(warp.nodes));
            }
        }
        assert_eq!(hub, alone(&[0]));
    }

    #[test]
    fn compaction_sorts_and_costs_alike_under_any_permutation() {
        let g = hub_graph();
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        let ids: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|v| v % 7 == 3 || v % 61 == 0)
            .collect();
        let mut first = None;
        for seed in 0..8u64 {
            let mut list = ids.clone();
            list.sort_by_key(|&u| (u64::from(u) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut device = engine.new_device();
            let before = device.stats();
            compact_frontier(&engine, &mut device, &mut list);
            let delta = device.stats().since(&before);
            assert_eq!(list, ids, "seed {seed}");
            assert_eq!(delta.launches, 1);
            assert_eq!(*first.get_or_insert(delta), delta, "seed {seed}");
        }
    }

    #[test]
    fn compaction_charges_a_word_per_lane_and_a_prefix_per_write() {
        // 600 nodes are 19 words, spread ⌈19 / 4 SMs⌉ = 5 words per warp:
        // 4 warps, the last one 4 lanes wide. Survivors 1 / 2 / 0 / 1.
        let g = Csr::from_edges(600, &[(5, 6), (300, 1), (301, 2), (599, 0)]);
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Full).unwrap();
        let cost = compaction_cost(&engine, &[5, 300, 301, 599]);
        assert_eq!(cost.warps, 4);
        let issues = |cost: &IterationCost, class: OpClass| cost.tally.issues[class as usize];
        // Three word steps and a popcount per warp; per warp with
        // survivors, one index read and one queue write of 8-byte pairs.
        assert_eq!(issues(&cost, OpClass::Generic), 4 * 4 + 3 * 2);
        // The counts' scan per warp, and the degrees' scan per write.
        assert_eq!(issues(&cost, OpClass::Scan), 4 + 3);
        assert_eq!(issues(&cost, OpClass::Atomic), 3);
        // A warp without survivors neither reserves, reads nor writes.
        let empty = compaction_cost(&engine, &[300]);
        assert_eq!(issues(&empty, OpClass::Atomic), 1);
        assert_eq!(issues(&empty, OpClass::Generic), 4 * 4 + 2);
        assert_eq!(issues(&empty, OpClass::Scan), 4 + 1);
        // Bitmap words, the copy, the queue and a few index lines: a
        // handful of transactions per warp, no payload.
        assert!(cost.mem.transactions <= 4 * 3 + 3 * 4);
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
            launch_expansion(
                &engine,
                &mut device,
                &frontier,
                "push",
                CollectSink::default,
            )
            .expect("in-core launches cannot fail");
            let s = device.stats();
            (s.cycles.to_bits(), s.tally, s.mem)
        };
        assert_eq!(run(), run());
    }
}
