//! Algorithm 2 — Two-Phase Traversal: the interval segments and residual
//! segments of a warp's adjacency lists are processed in two separate
//! phases, eliminating the interval/residual branch divergence of the
//! intuitive kernel.
//!
//! `handle_intervals` decodes one interval per active lane per round and
//! expands the decoded intervals cooperatively (`expandInterval`):
//!
//! * **stage 1 (long intervals)**: while any lane holds an interval at least
//!   `warpNum` long, a leader is elected (`syncAny` + shared-variable race +
//!   `shfl` broadcast) and the whole warp emits `warpNum` of its neighbours
//!   in one Handle step;
//! * **stage 2 (short intervals)**: remaining lengths are `exclusiveScan`ned
//!   and packed through shared memory, `warpNum` neighbours per Handle step.
//!
//! `handle_residuals` is the plain two-phase residual loop (lines 17–21):
//! each lane serially decodes its own residuals, one decode + one handle
//! step per round. (Task-Stealing and Warp-centric Decoding replace it.)
//!
//! On the paper's Figure 4 example this schedule takes 12 steps — reproduced
//! exactly by `tests/figure4_steps.rs`.

use gcgt_cgr::NodeCursor;
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, WarpSim};

use super::{LaneCursor, Sink};

/// Phase one: decode and cooperatively expand every interval. Returns the
/// number of residual-area neighbours left per lane — copied values plus
/// corrections; on the unsegmented layout that is `degNum` minus interval
/// coverage, a subtraction the cursor makes (and checks) per interval.
pub fn handle_intervals(
    warp: &mut WarpSim,
    cursors: &mut [LaneCursor],
    sink: &mut dyn Sink,
) -> Vec<u64> {
    // Pending decoded-but-unexpanded interval per lane: (source, ptr, len).
    let mut pending: Vec<(NodeId, NodeId, u32)> = vec![(0, 0, 0); cursors.len()];

    while cursors.iter().any(|c| c.intervals_left() > 0) {
        // One ItvDecode step: every lane with intervals left decodes one.
        let decoding: Vec<usize> = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intervals_left() > 0)
            .map(|(i, _)| i)
            .collect();
        let addrs: Vec<u64> = decoding.iter().map(|&i| cursors[i].graph_addr()).collect();
        warp.issue_mem(OpClass::ItvDecode, decoding.len(), addrs);
        for &i in &decoding {
            let (start, len) = cursors[i].read(NodeCursor::next_interval);
            pending[i] = (cursors[i].node(), start, len);
        }
        expand_decoded_intervals(warp, &mut pending, sink);
    }
    cursors
        .iter()
        .map(|c| c.copied_left() + c.residuals_left())
        .collect()
}

/// The paper's `expandInterval`: drains every pending interval through the
/// two cooperative stages. Shared by the two-phase and segmented kernels.
pub(crate) fn expand_decoded_intervals(
    warp: &mut WarpSim,
    pending: &mut [(NodeId, NodeId, u32)],
    sink: &mut dyn Sink,
) {
    let width = warp.width() as u32;
    // --- stage 1: long intervals occupy the whole warp ---
    loop {
        let preds: Vec<bool> = pending.iter().map(|&(_, _, len)| len >= width).collect();
        if !warp.sync_any(&preds) {
            break;
        }
        // Leader election: candidates race on the shared `winnerId`; the
        // highest lane id wins deterministically (last writer in lane order).
        let winner = preds
            .iter()
            .rposition(|&p| p)
            .expect("the break above guarantees at least one candidate lane");
        let _ = warp.shfl(&vec![0u32; pending.len()], winner); // broadcast winnerItvPtr
        let (u, ptr, len) = pending[winner];
        let items: Vec<(NodeId, NodeId)> = (0..width).map(|k| (u, ptr + k)).collect();
        sink.handle(warp, &items);
        pending[winner] = (u, ptr + width, len - width);
    }
    // --- stage 2: short intervals packed through shared memory ---
    let lens: Vec<u32> = pending.iter().map(|&(_, _, len)| len).collect();
    let (_scatter, total) = warp.exclusive_scan(&lens);
    if total == 0 {
        return;
    }
    // Flatten in lane order (exactly the scatter offsets) and emit
    // `width` neighbours per Handle step.
    let mut flat: Vec<(NodeId, NodeId)> = Vec::with_capacity(total as usize);
    for &(u, ptr, len) in pending.iter() {
        for k in 0..len {
            flat.push((u, ptr + k));
        }
    }
    for chunk in flat.chunks(width as usize) {
        sink.handle(warp, chunk);
    }
    for p in pending.iter_mut() {
        p.2 = 0;
    }
}

/// Phase two: plain per-lane residual decoding (Algorithm 2 lines 17–21).
/// One ResDecode step plus one Handle step per round, lanes dropping out as
/// their residuals are exhausted — the load imbalance Task-Stealing fixes.
pub fn handle_residuals(
    warp: &mut WarpSim,
    cursors: &mut [LaneCursor],
    res_left: &mut [u64],
    sink: &mut dyn Sink,
) {
    while res_left.iter().any(|&r| r > 0) {
        let active: Vec<usize> = res_left
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0)
            .map(|(i, _)| i)
            .collect();
        // Lanes still draining copied (reference-materialized) neighbours
        // emit by register arithmetic — only lanes past their copied list
        // pay a ResDecode slot for the bit-decoded correction.
        let decoding: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| cursors[i].copied_left() == 0)
            .collect();
        if !decoding.is_empty() {
            let addrs: Vec<u64> = decoding.iter().map(|&i| cursors[i].graph_addr()).collect();
            warp.issue_mem(OpClass::ResDecode, decoding.len(), addrs);
        }
        let mut items = Vec::with_capacity(active.len());
        for &i in &active {
            let v = cursors[i].decode_residual();
            res_left[i] -= 1;
            items.push((cursors[i].node(), v));
        }
        sink.handle(warp, &items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::{load_cursors, CollectSink};
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use gcgt_graph::Csr;

    fn run(graph: &Csr, frontier: &[NodeId], width: usize) -> (WarpSim, CollectSink) {
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let mut warp = WarpSim::new(width, 64);
        let mut sink = CollectSink::default();
        let mut cursors = load_cursors(&mut warp, &cgr, frontier);
        let mut res_left = handle_intervals(&mut warp, &mut cursors, &mut sink);
        handle_residuals(&mut warp, &mut cursors, &mut res_left, &mut sink);
        (warp, sink)
    }

    #[test]
    fn expands_figure1_correctly() {
        assert_expansion_correct(&toys::figure1(), Strategy::TwoPhase, 8);
    }

    #[test]
    fn expands_web_graph_correctly() {
        let g = web_graph(&WebParams::uk2002_like(300), 5);
        for width in [4, 8, 32] {
            assert_expansion_correct(&g, Strategy::TwoPhase, width);
        }
    }

    #[test]
    fn figure4c_steps_match_paper() {
        // The paper's Figure 4(c): Two-Phase takes 12 steps on the example.
        let (g, frontier) = toys::figure4();
        let (warp, sink) = run(&g, &frontier, 8);
        assert_eq!(warp.tally().figure4_steps(), 12);
        assert_eq!(sink.pairs.len(), 37);
    }

    #[test]
    fn two_phase_beats_intuitive_on_interval_rich_warps() {
        let (g, frontier) = toys::figure4();
        let (tp, _) = run(&g, &frontier, 8);

        let cfg = Strategy::Intuitive.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut warp = WarpSim::new(8, 64);
        let mut sink = CollectSink::default();
        super::super::intuitive::expand(&mut warp, &cgr, &frontier, &mut sink);

        assert!(tp.tally().figure4_steps() < warp.tally().figure4_steps());
    }

    #[test]
    fn long_interval_uses_whole_warp() {
        // One node with a 40-long interval, warp of 8: stage 1 must fire
        // 5 times (40 / 8), each a full-width Handle step.
        let edges: Vec<(u32, u32)> = (10..50).map(|v| (0, v)).collect();
        let g = Csr::from_edges(64, &edges);
        let (warp, sink) = run(&g, &[0], 8);
        assert_eq!(sink.pairs.len(), 40);
        assert_eq!(sink.handle_calls, 5);
        assert!((warp.tally().utilization()) > 0.5);
    }

    #[test]
    fn short_intervals_packed_together() {
        // Four nodes, each one 4-long interval; warp of 8 packs 16 neighbours
        // into 2 Handle steps after one shared decode round.
        let mut edges = Vec::new();
        for (i, base) in [(0u32, 100u32), (1, 200), (2, 300), (3, 400)] {
            for v in base..base + 4 {
                edges.push((i, v));
            }
        }
        let g = Csr::from_edges(512, &edges);
        let (warp, sink) = run(&g, &[0, 1, 2, 3], 8);
        assert_eq!(sink.pairs.len(), 16);
        assert_eq!(sink.handle_calls, 2);
        assert_eq!(warp.tally().issues[OpClass::ItvDecode as usize], 1);
    }
}
