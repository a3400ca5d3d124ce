//! Algorithm 1 — the intuitive solution: each lane independently decodes the
//! compressed adjacency list of its own frontier node, one neighbour at a
//! time (`getNextNeighbor`).
//!
//! Per round of the SIMT while-loop, the three control branches of
//! `getNextNeighbor` serialize:
//!
//! 1. lanes at the *beginning of an interval* decode its gap + length
//!    (one [`OpClass::ItvDecode`] step — Figure 4(b)'s yellow cells);
//! 2. lanes in the *residual segment* decode one gap
//!    (one [`OpClass::ResDecode`] step — the blue cells);
//! 3. every lane holding a neighbour handles it
//!    (one `Handle` step via the sink — the green cells; lanes in the
//!    *middle of an interval* get their neighbour by register arithmetic,
//!    which costs no decode step).
//!
//! This reproduces Figure 4(b) step-for-step (26 steps on the paper's
//! example) and exhibits the divergence the later strategies remove: each
//! lane touches a different region of the bit array, so decode steps are
//! maximally uncoalesced.

use gcgt_cgr::{CgrGraph, NodeCursor};
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, WarpSim};

use super::{load_cursors, LaneCursor, Sink};

/// Per-lane emission state layered over [`LaneCursor`].
struct Lane<'a> {
    cursor: LaneCursor<'a>,
    /// Neighbours still to emit.
    left: u64,
    /// Current interval run (ptr, remaining).
    itv_ptr: NodeId,
    itv_len: u32,
}

/// Expands `chunk` (one frontier node per lane) with Algorithm 1.
pub fn expand(warp: &mut WarpSim, cgr: &CgrGraph, chunk: &[NodeId], sink: &mut dyn Sink) {
    let cursors = load_cursors(warp, cgr, chunk);
    let mut lanes: Vec<Lane> = cursors
        .into_iter()
        .map(|c| Lane {
            left: c
                .deg_num()
                .expect("Algorithm 1 reads the unsegmented layout"),
            cursor: c,
            itv_ptr: 0,
            itv_len: 0,
        })
        .collect();

    loop {
        // Branch (ii): lanes at the beginning of an interval.
        let decoding_itv: Vec<usize> = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.left > 0 && l.itv_len == 0 && l.cursor.intervals_left() > 0)
            .map(|(i, _)| i)
            .collect();
        if !decoding_itv.is_empty() {
            let addrs: Vec<u64> = decoding_itv
                .iter()
                .map(|&i| lanes[i].cursor.graph_addr())
                .collect();
            warp.issue_mem(OpClass::ItvDecode, decoding_itv.len(), addrs);
            for &i in &decoding_itv {
                let (start, len) = lanes[i].cursor.read(NodeCursor::next_interval);
                lanes[i].itv_ptr = start;
                lanes[i].itv_len = len;
            }
        }
        // Branch (iii): lanes in the residual segment.
        let decoding_res: Vec<usize> = lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.left > 0
                    && l.itv_len == 0
                    && l.cursor.intervals_left() == 0
                    && l.cursor.copied_left() == 0
            })
            .map(|(i, _)| i)
            .collect();
        let mut res_vals: Vec<(usize, NodeId)> = Vec::with_capacity(decoding_res.len());
        if !decoding_res.is_empty() {
            let addrs: Vec<u64> = decoding_res
                .iter()
                .map(|&i| lanes[i].cursor.graph_addr())
                .collect();
            warp.issue_mem(OpClass::ResDecode, decoding_res.len(), addrs);
            for &i in &decoding_res {
                let r = lanes[i].cursor.decode_residual();
                res_vals.push((i, r));
            }
        }
        // Handle: every lane with a neighbour this round emits it.
        let mut items: Vec<(NodeId, NodeId)> = Vec::with_capacity(lanes.len());
        for (i, lane) in lanes.iter_mut().enumerate() {
            if lane.left == 0 {
                continue;
            }
            let v = if lane.itv_len > 0 {
                // Branch (i): middle of an interval — free register arithmetic.
                let v = lane.itv_ptr;
                lane.itv_ptr += 1;
                lane.itv_len -= 1;
                v
            } else if lane.cursor.intervals_left() == 0 && lane.cursor.copied_left() > 0 {
                // Copied neighbours stream from the materialized reference
                // list — no decode step, like the middle of an interval.
                lane.cursor.decode_residual()
            } else if let Ok(idx) = res_vals.binary_search_by_key(&i, |&(lane_idx, _)| lane_idx) {
                res_vals[idx].1
            } else {
                continue; // should not happen: every active lane decoded above
            };
            lane.left -= 1;
            items.push((lane.cursor.node(), v));
        }
        if items.is_empty() {
            break;
        }
        sink.handle(warp, &items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::CollectSink;
    use crate::strategy::Strategy;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::{toys, web_graph, WebParams};

    #[test]
    fn expands_figure1_correctly() {
        assert_expansion_correct(&toys::figure1(), Strategy::Intuitive, 8);
    }

    #[test]
    fn expands_web_graph_correctly() {
        let g = web_graph(&WebParams::uk2002_like(300), 77);
        for width in [4, 8, 32] {
            assert_expansion_correct(&g, Strategy::Intuitive, width);
        }
    }

    #[test]
    fn figure4b_steps_match_paper() {
        // The paper's Figure 4(b): the intuitive schedule takes 26 steps on
        // the 8-thread example.
        let (g, frontier) = toys::figure4();
        let cfg = Strategy::Intuitive.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut warp = WarpSim::new(8, 64);
        let mut sink = CollectSink::default();
        expand(&mut warp, &cgr, &frontier, &mut sink);
        assert_eq!(warp.tally().figure4_steps(), 26);
        assert_eq!(sink.pairs.len(), 37); // total degree of the example
    }

    #[test]
    fn empty_frontier_costs_only_prologue() {
        let g = toys::figure1();
        let cfg = Strategy::Intuitive.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut warp = WarpSim::new(8, 64);
        let mut sink = CollectSink::default();
        // Node 3 has no out-neighbours.
        expand(&mut warp, &cgr, &[3], &mut sink);
        assert!(sink.pairs.is_empty());
        assert_eq!(warp.tally().figure4_steps(), 0);
    }
}
