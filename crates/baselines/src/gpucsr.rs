//! The `GPUCSR` baseline: state-of-the-art GPU traversal on **uncompressed
//! CSR**, on the same simulator and cost model as GCGT.
//!
//! The BFS expansion follows Merrill, Garland & Grimshaw's scan-based
//! gathering: frontier nodes' adjacency ranges are read from the row-offset
//! array, long ranges are expanded by the whole warp (warp-cooperative
//! gathering), and the remainder is packed through an exclusive scan —
//! structurally the same cooperative schedule as GCGT's interval expansion,
//! but reading raw 32-bit column indices with **no decode steps at all**.
//! CC and BC reuse the generic apps of `gcgt-core` (Soman et al.'s stages
//! with an ECL-CC union-find link / Brandes passes) over this expander, as
//! the paper pairs Merrill-BFS with Soman-CC and Sriram-BC under the
//! `GPUCSR` label: both sides run the same one-pass CC.

use gcgt_core::kernels::{pull::frontier_bitmap_addr, Sink};
use gcgt_core::{memory, DirectionMode, Expander};
use gcgt_graph::{Csr, NodeId};
use gcgt_simt::{DeviceConfig, OpClass, Space, WarpSim};

/// A CSR-resident traversal engine on the simulated device.
pub struct GpuCsrEngine<'g> {
    graph: &'g Csr,
    device_config: DeviceConfig,
    direction: DirectionMode,
}

impl<'g> GpuCsrEngine<'g> {
    /// Binds the engine. Capacity (CSR plus traversal buffers) is checked
    /// when a device is made ([`Expander::new_device`]).
    pub fn new(graph: &'g Csr, device_config: DeviceConfig) -> Self {
        Self {
            graph,
            device_config,
            direction: DirectionMode::Push,
        }
    }

    /// Sets the expansion-direction policy. Pull semantics require
    /// symmetric adjacency — the session layer verifies this.
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }

    /// The resident graph.
    pub fn graph(&self) -> &Csr {
        self.graph
    }
}

impl Expander for GpuCsrEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    fn direction(&self) -> DirectionMode {
        self.direction
    }

    fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    fn structure_bytes(&self) -> usize {
        memory::csr_structure_bytes(self.graph)
    }

    fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>) {
        addrs.extend(row_offset_addrs(u));
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        expand_csr_chunk(self.graph, warp, chunk, sink);
    }

    fn shares(&self, u: NodeId) -> usize {
        csr_shares(self.graph, u, self.device_config.warp_width)
    }

    fn expand_share(
        &self,
        warp: &mut WarpSim,
        u: NodeId,
        share: usize,
        of: usize,
        sink: &mut dyn Sink,
    ) {
        expand_csr_share(self.graph, warp, u, share, of, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        depth: &[u32],
        du: u32,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        pull_csr_chunk(self.graph, warp, chunk, depth, du, out)
    }
}

/// The device addresses of node `u`'s two 32-bit row offsets, `u` and
/// `u + 1`: what a lane reads to learn `u`'s column range.
pub(crate) fn row_offset_addrs(u: NodeId) -> [u64; 2] {
    [u64::from(u), u64::from(u) + 1].map(|o| Space::Offsets.addr(4 * o))
}

/// Pull-mode (bottom-up) expansion over raw CSR: each lane walks its
/// unvisited candidate's column range in lock-step rounds — one coalesced-
/// per-lane column read plus one frontier-bitmap probe per round — and
/// retires at the first frontier parent (`depth[u] == du`). Shared by both
/// CSR baselines.
pub(crate) fn pull_csr_chunk(
    graph: &Csr,
    warp: &mut WarpSim,
    chunk: &[NodeId],
    depth: &[u32],
    du: u32,
    out: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    let k = chunk.len();
    // Prologue: the candidates come from a visited-bitmap scan, then the
    // row-offset gather.
    warp.issue_mem(
        OpClass::Header,
        k,
        chunk.iter().map(|&v| Space::Visited.addr(u64::from(v) / 8)),
    );
    warp.access(chunk.iter().flat_map(|&u| row_offset_addrs(u)));

    // Per-lane cursor: (candidate, col index, remaining).
    let mut lanes: Vec<(NodeId, usize, usize)> = chunk
        .iter()
        .map(|&v| (v, graph.row_offsets()[v as usize], graph.degree(v)))
        .collect();
    let mut done = vec![false; k];
    let mut examined = 0u64;
    loop {
        let active: Vec<usize> = (0..k).filter(|&i| !done[i] && lanes[i].2 > 0).collect();
        if active.is_empty() {
            break;
        }
        // One column index per active lane (scattered by candidate).
        warp.issue_mem(
            OpClass::Generic,
            active.len(),
            active
                .iter()
                .map(|&i| Space::Graph.addr(4 * lanes[i].1 as u64)),
        );
        // Frontier-bitmap probe for the fetched neighbours.
        warp.issue_mem(
            OpClass::Handle,
            active.len(),
            active
                .iter()
                .map(|&i| frontier_bitmap_addr(graph.col_indices()[lanes[i].1])),
        );
        examined += active.len() as u64;
        for &i in &active {
            let (v, idx, rem) = lanes[i];
            let nbr = graph.col_indices()[idx];
            if depth[nbr as usize] == du {
                done[i] = true;
                out.push((nbr, v));
            } else {
                lanes[i] = (v, idx + 1, rem - 1);
            }
        }
    }
    examined
}

/// Merrill-style expansion of one warp's frontier chunk over CSR. Shared
/// with the Gunrock-style baseline.
pub(crate) fn expand_csr_chunk(
    graph: &Csr,
    warp: &mut WarpSim,
    chunk: &[NodeId],
    sink: &mut dyn Sink,
) {
    let lanes = chunk
        .iter()
        .map(|&u| (u, graph.row_offsets()[u as usize], graph.degree(u)))
        .collect();
    gather(warp, graph, lanes, sink);
}

/// How many shares the CSR baselines cut node `u` into: one per
/// `width`-wide cooperative gather its column range fills (at least one).
pub(crate) fn csr_shares(graph: &Csr, u: NodeId, width: usize) -> usize {
    graph.degree(u).div_ceil(width).max(1)
}

/// Share `share` of `of` of node `u` over CSR: the contiguous column range
/// `⌊deg·share/of⌋ .. ⌊deg·(share+1)/of⌋`, gathered by the same Merrill
/// stages as a whole chunk. Shared with the Gunrock-style baseline.
pub(crate) fn expand_csr_share(
    graph: &Csr,
    warp: &mut WarpSim,
    u: NodeId,
    share: usize,
    of: usize,
    sink: &mut dyn Sink,
) {
    let (start, degree) = (graph.row_offsets()[u as usize], graph.degree(u));
    let (lo, hi) = (degree * share / of, degree * (share + 1) / of);
    gather(warp, graph, vec![(u, start + lo, hi - lo)], sink);
}

/// The Merrill gather over per-lane column ranges `(source, col-array
/// index, count)`: frontier read and row-offset gather, then warp-
/// cooperative gathering of long ranges and scan-based packing of the rest.
fn gather(
    warp: &mut WarpSim,
    graph: &Csr,
    mut lanes: Vec<(NodeId, usize, usize)>,
    sink: &mut dyn Sink,
) {
    let k = lanes.len();
    let width = warp.width();
    // Frontier read (coalesced) + row-offset gather (two offsets per lane,
    // scattered by node id).
    warp.issue_mem(
        OpClass::Header,
        k,
        (0..k as u64).map(|i| Space::Frontier.addr(4 * i)),
    );
    warp.access(lanes.iter().flat_map(|&(u, _, _)| row_offset_addrs(u)));

    // Stage 1: warp-cooperative gathering of long adjacency ranges.
    loop {
        let preds: Vec<bool> = lanes.iter().map(|&(_, _, rem)| rem >= width).collect();
        if !warp.sync_any(&preds) {
            break;
        }
        let winner = preds
            .iter()
            .rposition(|&p| p)
            .expect("the break above guarantees at least one candidate lane");
        let _ = warp.shfl(&vec![0u32; lanes.len()], winner);
        let (u, start, rem) = lanes[winner];
        // Coalesced read of `width` consecutive column indices.
        warp.access((0..width as u64).map(|i| Space::Graph.addr(4 * (start as u64 + i))));
        let items: Vec<(NodeId, NodeId)> = graph.col_indices()[start..start + width]
            .iter()
            .map(|&v| (u, v))
            .collect();
        sink.handle(warp, &items);
        lanes[winner] = (u, start + width, rem - width);
    }

    // Stage 2: scan-based gathering of the remainder.
    let rems: Vec<u32> = lanes.iter().map(|&(_, _, rem)| rem as u32).collect();
    let (_, total) = warp.exclusive_scan(&rems);
    if total == 0 {
        return;
    }
    let mut flat: Vec<(NodeId, usize)> = Vec::with_capacity(total as usize);
    for &(u, start, rem) in &lanes {
        for j in 0..rem {
            flat.push((u, start + j));
        }
    }
    for pack in flat.chunks(width) {
        warp.access(
            pack.iter()
                .map(|&(_, idx)| Space::Graph.addr(4 * idx as u64)),
        );
        let items: Vec<(NodeId, NodeId)> = pack
            .iter()
            .map(|&(u, idx)| (u, graph.col_indices()[idx]))
            .collect();
        sink.handle(warp, &items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::{social_graph, toys, web_graph, SocialParams, WebParams};
    use gcgt_graph::refalgo;

    fn engine(graph: &Csr) -> GpuCsrEngine<'_> {
        GpuCsrEngine::new(graph, DeviceConfig::default())
    }

    #[test]
    fn bfs_matches_oracle() {
        let g = web_graph(&WebParams::uk2002_like(800), 3);
        let e = engine(&g);
        let got = gcgt_core::bfs(&e, 0);
        assert_eq!(got.depth, refalgo::bfs(&g, 0).depth);
    }

    #[test]
    fn bfs_matches_oracle_on_skewed_graph() {
        let g = social_graph(&SocialParams::twitter_like(700), 9);
        let e = engine(&g);
        let got = gcgt_core::bfs(&e, 1);
        assert_eq!(got.depth, refalgo::bfs(&g, 1).depth);
    }

    #[test]
    fn cc_matches_oracle() {
        let g = toys::grid(10, 10);
        let e = engine(&g);
        let got = gcgt_core::cc(&e);
        let want = refalgo::connected_components(&g);
        assert_eq!(got.component, want.component);
    }

    #[test]
    fn bc_matches_oracle() {
        let g = web_graph(&WebParams::uk2002_like(400), 5);
        let e = engine(&g);
        let got = gcgt_core::bc(&e, 0);
        let want = refalgo::betweenness_from_source(&g, 0);
        assert_eq!(got.sigma, want.sigma);
    }

    #[test]
    fn issues_no_decode_steps() {
        let g = web_graph(&WebParams::uk2002_like(300), 2);
        let mut warp = WarpSim::new(32, 64);
        let mut sink = gcgt_core::kernels::CollectSink::default();
        let frontier: Vec<NodeId> = (0..32).collect();
        expand_csr_chunk(&g, &mut warp, &frontier, &mut sink);
        let t = warp.tally();
        assert_eq!(t.issues[OpClass::ItvDecode as usize], 0);
        assert_eq!(t.issues[OpClass::ResDecode as usize], 0);
        assert_eq!(t.issues[OpClass::ParDecode as usize], 0);
    }

    #[test]
    fn a_hubs_shares_partition_its_edge_range() {
        let edges: Vec<(NodeId, NodeId)> = (0..203u32).map(|i| (0, 5 + 3 * i)).collect();
        let g = Csr::from_edges(1000, &edges);
        let e = engine(&g);
        let shares = e.shares(0);
        assert_eq!(shares, 203usize.div_ceil(32));
        assert_eq!(e.shares(1), 1, "an empty node is one (empty) share");
        for of in [2, 3, shares] {
            for share in 0..of {
                let mut warp = WarpSim::new(32, 64);
                let mut sink = gcgt_core::kernels::CollectSink::default();
                e.expand_share(&mut warp, 0, share, of, &mut sink);
                // Exactly the contiguous column range of this share, in
                // order, never empty.
                let (lo, hi) = (203 * share / of, 203 * (share + 1) / of);
                assert!(lo < hi);
                let want: Vec<(NodeId, NodeId)> =
                    g.neighbors(0)[lo..hi].iter().map(|&v| (0, v)).collect();
                assert_eq!(sink.pairs, want, "share {share} of {of}");
            }
        }
    }

    #[test]
    fn oom_on_tiny_device() {
        let g = web_graph(&WebParams::uk2002_like(2000), 1);
        let dc = DeviceConfig {
            mem_capacity: 1000,
            ..DeviceConfig::default()
        };
        assert!(GpuCsrEngine::new(&g, dc).new_device().is_err());
    }
}
