//! Pull-mode (bottom-up) expansion over compressed adjacency — the second
//! half of direction-optimizing traversal (Beamer et al.), running directly
//! on CGR with **no decompression pass**: each lane streams one *unvisited*
//! node's compressed list through the early-exit
//! [`NeighborScanner`] and stops at the first
//! neighbour on the frontier — a node `u` with `depth[u] == du`.
//!
//! Per SIMT round the serialized branch classes mirror Algorithm 1's
//! schedule: lanes at an interval start pay one [`OpClass::ItvDecode`]
//! step, lanes in a residual run one [`OpClass::ResDecode`] step, lanes
//! mid-interval get their neighbour by register arithmetic — then every
//! lane holding a neighbour probes the dense frontier bitmap
//! ([`frontier_bitmap_addr`]) in one [`OpClass::Handle`] step. The host
//! reads the same fact from the depth labels, so no bitmap is built. A
//! lane whose probe hits retires immediately; the neighbours it never
//! decoded are the saving the paper's push-only engine leaves on the
//! table.
//!
//! Pull decodes each candidate's list serially on its own lane (like the
//! intuitive schedule): its win is *edge savings*, not intra-list
//! parallelism, so it applies unchanged to both CGR layouts.

use gcgt_cgr::{CgrGraph, DecodeStep, NeighborScanner};
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, Space, WarpSim};

/// Simulated device address of the frontier-bitmap byte a pull lane probes
/// for neighbour `v`. It lies in the frontier space above the queue slots
/// (`4 × u32::MAX < 2^34`; the bitmap starts at `2^40`), and its `n / 8`
/// bytes fit inside the queue allowance that
/// [`crate::memory::traversal_buffers_bytes`] charges.
#[inline]
pub fn frontier_bitmap_addr(v: NodeId) -> u64 {
    Space::Frontier.addr((1 << 40) + u64::from(v) / 8)
}

/// Per-lane pull state: the candidate node and its streaming decoder.
struct Lane<'a> {
    v: NodeId,
    scan: NeighborScanner<'a>,
    done: bool,
}

/// Expands one warp's chunk of **unvisited candidates** in pull mode:
/// each lane scans its candidate's compressed adjacency for a frontier
/// member (`depth[u] == du`), pushing `(parent, candidate)` on the first
/// hit. Returns the number of neighbours examined (decoded and probed)
/// before early exits — the quantity reported as `RunStats::pulled_edges`.
pub fn pull_expand(
    warp: &mut WarpSim,
    cgr: &CgrGraph,
    chunk: &[NodeId],
    depth: &[u32],
    du: u32,
    out: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    let k = chunk.len();
    debug_assert!(k <= warp.width());
    // Prologue, mirroring the push kernels': the candidates come from a
    // scan of the visited bitmap (coalesced — candidates ascend), then the
    // bitStart gather and the per-node header decode.
    warp.issue_mem(
        OpClass::Header,
        k,
        chunk.iter().map(|&v| Space::Visited.addr(u64::from(v) / 8)),
    );
    super::gather_bit_starts(warp, cgr, chunk);
    warp.issue_mem(
        OpClass::Header,
        k,
        chunk
            .iter()
            .map(|&v| Space::Graph.addr((cgr.bit_start(v) / 8) as u64)),
    );
    let mut lanes: Vec<Lane> = chunk
        .iter()
        .map(|&v| Lane {
            v,
            scan: NeighborScanner::new(cgr, v),
            done: false,
        })
        .collect();

    let mut examined = 0u64;
    loop {
        // One neighbour per active lane this round, grouped by the branch
        // class that produced it.
        let mut itv_addrs: Vec<u64> = Vec::new();
        let mut res_addrs: Vec<u64> = Vec::new();
        let mut ref_addrs: Vec<u64> = Vec::new();
        let mut holding: Vec<(usize, NodeId)> = Vec::new();
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.done {
                continue;
            }
            let addr = Space::Graph.addr((lane.scan.bit_pos() / 8) as u64);
            match lane.scan.next_with_step() {
                None => lane.done = true,
                Some((nbr, step)) => {
                    match step {
                        DecodeStep::IntervalStart => itv_addrs.push(addr),
                        DecodeStep::Residual => res_addrs.push(addr),
                        // Mid-interval: register arithmetic, no decode step.
                        DecodeStep::IntervalRun => {}
                        // First copied neighbour: the lane chases the
                        // reference chain (prologue read on the referenced
                        // node's bits).
                        DecodeStep::RefChase => ref_addrs.push(addr),
                        // Later copied values stream from the already
                        // materialized list: no decode step, like a run.
                        DecodeStep::CopyBlock => {}
                    }
                    holding.push((i, nbr));
                }
            }
        }
        if holding.is_empty() {
            break;
        }
        if !itv_addrs.is_empty() {
            let active = itv_addrs.len();
            warp.issue_mem(OpClass::ItvDecode, active, itv_addrs);
        }
        if !res_addrs.is_empty() {
            let active = res_addrs.len();
            warp.issue_mem(OpClass::ResDecode, active, res_addrs);
        }
        if !ref_addrs.is_empty() {
            let active = ref_addrs.len();
            warp.issue_mem(OpClass::RefChase, active, ref_addrs);
        }
        // Frontier-membership probe: one Handle step, scattered bitmap
        // bytes (the pull counterpart of appendIfUnvisited's status check).
        warp.issue_mem(
            OpClass::Handle,
            holding.len(),
            holding.iter().map(|&(_, nbr)| frontier_bitmap_addr(nbr)),
        );
        examined += holding.len() as u64;
        for (i, nbr) in holding {
            if depth[nbr as usize] == du {
                lanes[i].done = true;
                out.push((nbr, lanes[i].v));
            }
        }
    }
    examined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use gcgt_graph::{Csr, UNREACHED};

    fn encode(g: &Csr, strategy: Strategy) -> CgrGraph {
        CgrGraph::encode(g, &strategy.cgr_config(&CgrConfig::paper_default()))
    }

    /// Depth labels of `n` nodes whose frontier, at depth 0, is `frontier`.
    fn frontier_depth(n: usize, frontier: &[NodeId]) -> Vec<u32> {
        let mut depth = vec![UNREACHED; n];
        for &u in frontier {
            depth[u as usize] = 0;
        }
        depth
    }

    /// Pull over every node with a one-node frontier finds exactly the
    /// frontier node's in-neighbours (= out-neighbours on symmetric input).
    #[test]
    fn pull_finds_parents_on_both_layouts() {
        let g = toys::figure1().symmetrized();
        let n = g.num_nodes();
        for strategy in [Strategy::Full, Strategy::TwoPhase] {
            let cgr = encode(&g, strategy);
            let depth = frontier_depth(n, &[0]);
            let candidates: Vec<NodeId> = (1..n as NodeId).collect();
            let mut out = Vec::new();
            let mut examined = 0;
            for chunk in candidates.chunks(8) {
                let mut warp = WarpSim::new(8, 64);
                examined += pull_expand(&mut warp, &cgr, chunk, &depth, 0, &mut out);
            }
            let mut found: Vec<NodeId> = out.iter().map(|&(_, v)| v).collect();
            found.sort_unstable();
            assert_eq!(found, g.neighbors(0), "{strategy:?}");
            assert!(out.iter().all(|&(p, _)| p == 0));
            assert!(examined >= found.len() as u64);
        }
    }

    /// Early exit: with every node in the frontier, each lane stops at its
    /// candidate's first neighbour — examined equals the number of
    /// non-isolated candidates, far below the edge count.
    #[test]
    fn early_exit_stops_at_the_first_parent() {
        let g = web_graph(&WebParams::uk2002_like(400), 3).symmetrized();
        let n = g.num_nodes();
        let cgr = encode(&g, Strategy::Full);
        let depth = vec![0; n];
        let candidates: Vec<NodeId> = (0..n as NodeId).collect();
        let mut out = Vec::new();
        let mut examined = 0u64;
        for chunk in candidates.chunks(32) {
            let mut warp = WarpSim::new(32, 64);
            examined += pull_expand(&mut warp, &cgr, chunk, &depth, 0, &mut out);
        }
        let non_isolated = (0..n as NodeId).filter(|&v| g.degree(v) > 0).count();
        assert_eq!(out.len(), non_isolated);
        assert_eq!(examined, non_isolated as u64, "one probe per candidate");
        assert!(examined < g.num_edges() as u64);
    }

    /// The simulated cost of a pull round is charged: decode steps by
    /// class, plus a Handle probe per round.
    #[test]
    fn rounds_charge_decode_and_probe_steps() {
        let g = toys::figure1().symmetrized();
        let cgr = encode(&g, Strategy::Full);
        let depth = frontier_depth(g.num_nodes(), &[0]);
        let mut warp = WarpSim::new(8, 64);
        let mut out = Vec::new();
        let candidates: Vec<NodeId> = (1..g.num_nodes() as NodeId).collect();
        let examined = pull_expand(&mut warp, &cgr, &candidates[..7], &depth, 0, &mut out);
        assert!(examined > 0);
        let t = warp.tally();
        assert!(t.issues[OpClass::Handle as usize] >= 1);
        assert!(t.issues[OpClass::ItvDecode as usize] + t.issues[OpClass::ResDecode as usize] >= 1);
    }

    /// Isolated candidates cost only the prologue.
    #[test]
    fn isolated_candidates_examine_nothing() {
        let g = Csr::from_edges(16, &[(0, 1), (1, 0)]);
        let cgr = encode(&g, Strategy::Full);
        let depth = frontier_depth(16, &[0]);
        let mut warp = WarpSim::new(8, 64);
        let mut out = Vec::new();
        let examined = pull_expand(&mut warp, &cgr, &[5, 6, 7], &depth, 0, &mut out);
        assert_eq!(examined, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn bitmap_addresses_are_dense_and_disjoint_from_the_queue() {
        // Neighbouring nodes share a bitmap byte (coalescing-friendly) and
        // the bitmap region sits above any realistic queue offset.
        assert_eq!(frontier_bitmap_addr(0), frontier_bitmap_addr(7));
        assert_ne!(frontier_bitmap_addr(0), frontier_bitmap_addr(8));
        assert!(frontier_bitmap_addr(0) > Space::Frontier.addr(4 * (u32::MAX as u64)));
    }
}
