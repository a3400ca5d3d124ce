//! The GCGT traversal kernels, written lane-vectorized: per logical round a
//! kernel operates on small per-lane state arrays and issues each serialized
//! branch class as one warp step — the execution model whose step counts
//! reproduce the paper's Figure 4 tables exactly (see
//! `tests/figure4_steps.rs`).

pub mod intuitive;
pub mod pull;
pub mod segmented;
pub mod task_stealing;
pub mod two_phase;
pub mod warp_decode;

use gcgt_cgr::{CgrGraph, NodeCursor};
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, Space, WarpSim, LINE_BYTES};

use crate::strategy::Strategy;

/// Consumer of expanded `(frontier_node, neighbour)` pairs.
///
/// One `handle` call is one warp *Handle* step (the paper's
/// `appendIfUnvisited` and its application-specific variants of Section 6):
/// the implementation issues the step, accounts the status-lookup memory
/// traffic, performs the filtering, and buffers survivors for the
/// contraction merge.
///
/// Object-safe by design: kernels and [`crate::engine::Expander::expand_chunk`]
/// take the sink as `&mut dyn Sink`, which is what keeps `Expander` itself
/// usable as `&dyn Expander`. One virtual call per warp-wide Handle step is
/// noise next to the decode work that fills it.
pub trait Sink {
    /// Processes up to `warp.width()` candidates in one warp step.
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]);
}

/// Per-lane decoding cursor: the checked [`NodeCursor`] of `gcgt-cgr` — the
/// one parser of the node layout, shared with the structural validator —
/// plus what only the kernels need on top of it. Reads go through
/// [`LaneCursor::read`], which unwraps the cursor's typed errors: kernels
/// run on encode output and validated loads only, where the validator has
/// already walked every field through the same cursor. Layout state
/// (`node`, `bit_pos`, `deg_num`, `intervals_left`, `copied_left`,
/// `residuals_left`) is read straight off the cursor; the kernels own the
/// emission counters (how many neighbours are still due).
#[derive(Clone, Debug)]
pub struct LaneCursor<'a>(NodeCursor<'a>);

impl<'a> std::ops::Deref for LaneCursor<'a> {
    type Target = NodeCursor<'a>;

    fn deref(&self) -> &NodeCursor<'a> {
        &self.0
    }
}

impl<'a> std::ops::DerefMut for LaneCursor<'a> {
    fn deref_mut(&mut self) -> &mut NodeCursor<'a> {
        &mut self.0
    }
}

impl<'a> LaneCursor<'a> {
    /// Opens node `u`: reads its headers, chases its reference chain and
    /// positions the cursor at the first interval. (Header cost is tallied
    /// by the caller.)
    pub fn load(cgr: &'a CgrGraph, u: NodeId) -> Self {
        LaneCursor(NodeCursor::open(cgr, u).unwrap_or_else(|e| invalid(u, &e)))
    }

    /// One checked cursor read, unwrapped: a failure means the payload was
    /// never validated, and the panic names the node.
    pub fn read<T>(&mut self, field: impl FnOnce(&mut NodeCursor<'a>) -> Result<T, String>) -> T {
        field(&mut self.0).unwrap_or_else(|e| invalid(self.0.node(), &e))
    }

    /// Emits the next residual-area neighbour: copied values stream out of
    /// the materialized reference list first (no bit read), then the
    /// corrections are gap-decoded and advance the bit pointer.
    pub fn decode_residual(&mut self) -> NodeId {
        match self.0.next_copied() {
            Some(v) => v,
            None => self.read(NodeCursor::next_residual),
        }
    }

    /// Simulated device byte address of the current bit pointer.
    #[inline]
    pub fn graph_addr(&self) -> u64 {
        Space::Graph.addr((self.bit_pos() / 8) as u64)
    }
}

fn invalid(u: NodeId, e: &str) -> ! {
    panic!("node {u}: {e} (kernels require a structurally valid CGR payload)")
}

/// Shared kernel prologue: loads the warp's frontier chunk and the per-node
/// headers, tallying the frontier read (coalesced), the `bitStart` offset
/// gather (scattered) and the header decode step.
pub fn load_cursors<'a>(
    warp: &mut WarpSim,
    cgr: &'a CgrGraph,
    chunk: &[NodeId],
) -> Vec<LaneCursor<'a>> {
    let k = chunk.len();
    debug_assert!(k <= warp.width());
    // inQueue read: lanes load consecutive queue slots — coalesced.
    warp.issue_mem(
        OpClass::Header,
        k,
        (0..k as u64).map(|i| Space::Frontier.addr(4 * i)),
    );
    // bitStart gather: each lane's index entry and its block base in one
    // step, scattered by node id.
    gather_bit_starts(warp, cgr, chunk);
    // Header decode ([degNum +] itvNum): one step, per-lane positions in the
    // bit array.
    warp.issue_mem(
        OpClass::Header,
        k,
        chunk
            .iter()
            .map(|&u| Space::Graph.addr((cgr.bit_start(u) / 8) as u64)),
    );
    charge_ref_chase(warp, cgr, chunk);
    chunk.iter().map(|&u| LaneCursor::load(cgr, u)).collect()
}

/// Charges the `bitStart` gather of a chunk: one memory step in which each
/// lane reads its node's device index entry and block base
/// ([`gcgt_cgr::DeviceIndex::entry_addrs`]).
pub(crate) fn gather_bit_starts(warp: &mut WarpSim, cgr: &CgrGraph, chunk: &[NodeId]) {
    let index = cgr.device_index();
    warp.access(
        chunk
            .iter()
            .flat_map(|&u| index.entry_addrs(u))
            .map(|a| Space::Offsets.addr(a)),
    );
}

/// The device addresses of node `u`'s extent `[bit_start(u),
/// bit_start(u + 1))`: the index entries and block bases of `u` and `u + 1`
/// ([`gcgt_cgr::DeviceIndex::entry_addrs`]), `u + 1`'s base only where its
/// block is not `u`'s.
pub fn extent_addrs(cgr: &CgrGraph, u: NodeId) -> impl Iterator<Item = u64> + '_ {
    let index = cgr.device_index();
    let base = |v: NodeId| index.entry_addrs(v).nth(1);
    let next_addrs = if base(u) == base(u + 1) { 1 } else { 2 };
    index
        .entry_addrs(u)
        .chain(index.entry_addrs(u + 1).take(next_addrs))
        .map(|a| Space::Offsets.addr(a))
}

/// The structure a launch decoding `nodes` reads, as 128-byte lines: for
/// each node and every node on its reference chain, the index lines of its
/// `bitStart` gather (the addresses `gather_bit_starts` charges) and the
/// payload lines over its extent `[bit_start(u), bit_start(u + 1))`.
/// Returns the distinct global line ids, ascending, and the longest
/// reference chain's hop count. Out-of-core read-throughs fetch exactly
/// these lines.
pub fn decode_lines(cgr: &CgrGraph, nodes: &[NodeId]) -> (Vec<u64>, usize) {
    let index = cgr.device_index();
    let line = |space: Space, byte: usize| space.addr(byte as u64) / LINE_BYTES;
    let (mut lines, mut hops) = (Vec::new(), 0);
    for &u in nodes {
        let (mut node, mut depth) = (Some(u), 0);
        while let Some(t) = node {
            lines.extend(
                index
                    .entry_addrs(t)
                    .map(|a| line(Space::Offsets, a as usize)),
            );
            let (start, end) = (cgr.offset(t as usize), cgr.offset(t as usize + 1));
            let last = end.max(start + 1) - 1;
            lines.extend(line(Space::Graph, start / 8)..=line(Space::Graph, last / 8));
            node = cgr.ref_target(t);
            depth += usize::from(node.is_some());
        }
        hops = hops.max(depth);
    }
    lines.sort_unstable();
    lines.dedup();
    (lines, hops)
}

/// Charges the reference-chain chase of a frontier chunk: one
/// [`OpClass::RefChase`] step per chain depth, active lanes being those
/// still chasing at that depth, each reading its referenced node's
/// prologue (scattered). No-op (not even an issue) without references —
/// ref_window = 0 stays bitwise step-identical to the v2 kernels.
pub fn charge_ref_chase(warp: &mut WarpSim, cgr: &CgrGraph, chunk: &[NodeId]) {
    if cgr.config().ref_window == 0 {
        return;
    }
    let mut chasing: Vec<NodeId> = chunk.iter().filter_map(|&u| cgr.ref_target(u)).collect();
    while !chasing.is_empty() {
        warp.issue_mem(
            OpClass::RefChase,
            chasing.len(),
            chasing
                .iter()
                .map(|&t| Space::Graph.addr((cgr.bit_start(t) / 8) as u64)),
        );
        chasing = chasing
            .into_iter()
            .filter_map(|t| cgr.ref_target(t))
            .collect();
    }
}

/// Expands one warp's frontier chunk under the given strategy, feeding every
/// decoded neighbour to `sink`.
pub fn expand_warp(
    strategy: Strategy,
    warp: &mut WarpSim,
    cgr: &CgrGraph,
    chunk: &[NodeId],
    sink: &mut dyn Sink,
) {
    debug_assert_eq!(
        cgr.config().segment_len_bytes.is_some(),
        strategy.needs_segmented_layout(),
        "CGR layout does not match strategy {strategy:?}"
    );
    match strategy {
        Strategy::Intuitive => intuitive::expand(warp, cgr, chunk, sink),
        Strategy::TwoPhase => {
            let mut cursors = load_cursors(warp, cgr, chunk);
            let mut res_left = two_phase::handle_intervals(warp, &mut cursors, sink);
            two_phase::handle_residuals(warp, &mut cursors, &mut res_left, sink);
        }
        Strategy::TaskStealing => {
            let mut cursors = load_cursors(warp, cgr, chunk);
            let mut res_left = two_phase::handle_intervals(warp, &mut cursors, sink);
            task_stealing::handle_residuals_plus(warp, &mut cursors, &mut res_left, sink);
        }
        Strategy::WarpCentric => {
            let mut cursors = load_cursors(warp, cgr, chunk);
            let mut res_left = two_phase::handle_intervals(warp, &mut cursors, sink);
            warp_decode::handle_residuals_warp_centric(
                warp,
                cgr,
                &mut cursors,
                &mut res_left,
                sink,
            );
        }
        Strategy::Full => segmented::expand(warp, cgr, chunk, sink),
    }
}

/// How many independent shares node `u` can be cut into under `strategy`:
/// its segment count on the segmented layout ([`Strategy::Full`]), 1 on
/// the unsegmented ones, whose residual area is one serial gap chain.
pub fn shares(strategy: Strategy, cgr: &CgrGraph, u: NodeId) -> usize {
    match strategy {
        Strategy::Full => segmented::shares(cgr, u),
        _ => 1,
    }
}

/// Expands share `share` of `of` of node `u` under `strategy` (see
/// [`segmented::expand_share`]); `0` of `1` is the whole node.
///
/// # Panics
/// Panics if `of` exceeds [`shares`]' count for an unsegmented strategy.
pub fn expand_share(
    strategy: Strategy,
    warp: &mut WarpSim,
    cgr: &CgrGraph,
    u: NodeId,
    share: usize,
    of: usize,
    sink: &mut dyn Sink,
) {
    match strategy {
        Strategy::Full => segmented::expand_share(warp, cgr, u, share, of, sink),
        _ => {
            assert_eq!(of, 1, "{strategy:?} cannot split node {u}");
            expand_warp(strategy, warp, cgr, &[u], sink);
        }
    }
}

/// A sink that collects every candidate pair without filtering — used by
/// kernel unit tests to check *what* is expanded independently of *how*.
#[derive(Default)]
pub struct CollectSink {
    /// Every `(frontier_node, neighbour)` pair seen, in emission order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Number of handle steps observed.
    pub handle_calls: usize,
}

impl Sink for CollectSink {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        warp.issue(OpClass::Handle, items.len());
        self.pairs.extend_from_slice(items);
        self.handle_calls += 1;
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::Csr;

    /// Expands every node of `graph` as one big frontier under `strategy`
    /// and returns the per-source sorted adjacency observed.
    pub fn expand_all(
        graph: &Csr,
        strategy: Strategy,
        width: usize,
    ) -> std::collections::BTreeMap<NodeId, Vec<NodeId>> {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let frontier: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        let mut map: std::collections::BTreeMap<NodeId, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for chunk in frontier.chunks(width) {
            let mut warp = WarpSim::new(width, 64);
            let mut sink = CollectSink::default();
            expand_warp(strategy, &mut warp, &cgr, chunk, &mut sink);
            for (u, v) in sink.pairs {
                map.entry(u).or_default().push(v);
            }
        }
        for list in map.values_mut() {
            list.sort_unstable();
        }
        map
    }

    /// Asserts that expansion under `strategy` reproduces the graph.
    pub fn assert_expansion_correct(graph: &Csr, strategy: Strategy, width: usize) {
        let got = expand_all(graph, strategy, width);
        for u in 0..graph.num_nodes() as NodeId {
            let want = graph.neighbors(u);
            let empty = Vec::new();
            let have = got.get(&u).unwrap_or(&empty);
            assert_eq!(have, want, "strategy {strategy:?} width {width} node {u}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::device_index::BLOCK_NODES;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{web_graph, WebParams};

    #[test]
    fn an_ascending_chunk_gathers_one_entry_line_and_one_base_line() {
        let g = web_graph(&WebParams::uk2002_like(2 * BLOCK_NODES + 64), 5);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        assert_eq!(cgr.device_index().entry_bytes(), 4);
        let n = cgr.num_nodes() as NodeId;
        for first in (0..n - 32).step_by(32) {
            let chunk: Vec<NodeId> = (first..first + 32).collect();
            let mut warp = WarpSim::new(32, 64);
            gather_bit_starts(&mut warp, &cgr, &chunk);
            let mem = warp.mem_stats();
            assert_eq!(mem.mem_steps, 1, "one memory step per gather");
            assert!(mem.lines_touched <= 2, "chunk at {first}: {mem:?}");
        }
    }

    #[test]
    fn decode_lines_cover_every_chain_node_and_count_its_hops() {
        let g = web_graph(&WebParams::eu2015_like(1_200), 9);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default().with_ref_window(32));
        let chain = |u: NodeId| std::iter::successors(Some(u), |&t| cgr.ref_target(t));
        let u = (0..cgr.num_nodes() as NodeId)
            .max_by_key(|&u| chain(u).count())
            .unwrap();
        let (lines, hops) = decode_lines(&cgr, &[u]);
        assert!(hops >= 1, "no reference chain in the fixture");
        assert_eq!(hops, chain(u).count() - 1);
        assert!(lines.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
        let line = |space: Space, byte: usize| space.addr(byte as u64) / LINE_BYTES;
        for t in chain(u) {
            let (start, end) = (cgr.offset(t as usize), cgr.offset(t as usize + 1));
            let want = cgr
                .device_index()
                .entry_addrs(t)
                .map(|a| line(Space::Offsets, a as usize))
                .chain(line(Space::Graph, start / 8)..=line(Space::Graph, (end - 1) / 8));
            for l in want {
                assert!(lines.binary_search(&l).is_ok(), "node {t}: line {l}");
            }
        }
        // A launch's lines are the union of its nodes' lines.
        let (more, _) = decode_lines(&cgr, &[u, 0]);
        let (zero, _) = decode_lines(&cgr, &[0]);
        let mut union = [lines, zero].concat();
        union.sort_unstable();
        union.dedup();
        assert_eq!(more, union);
    }
}
