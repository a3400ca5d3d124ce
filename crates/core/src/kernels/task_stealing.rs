//! Algorithm 3 — Task Stealing: `handleResiduals+`.
//!
//! Residual decoding is inherently serial per lane (each gap depends on its
//! predecessor), so skewed residual counts leave lanes idle. Task stealing
//! schedules the residual phase in two stages:
//!
//! * **stage 1**: while *every* lane still has residuals (`syncAll`), each
//!   decodes and handles its own — full utilization, no coordination cost;
//! * **stage 2**: remaining counts are `exclusiveScan`ned; working lanes
//!   push decoded residuals into shared memory at their scatter offsets and
//!   the whole warp — including the lanes that finished early — handles
//!   `warpNum` of them per step.
//!
//! On the paper's Figure 4 example this saves two further steps over
//! Two-Phase (10 total), reproduced by `tests/figure4_steps.rs`.

use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, WarpSim};

use super::{LaneCursor, Sink};

/// The `handleResiduals+` procedure.
pub fn handle_residuals_plus(
    warp: &mut WarpSim,
    cursors: &mut [LaneCursor],
    res_left: &mut [u64],
    sink: &mut dyn Sink,
) {
    stage1_own_work(warp, cursors, res_left, sink);
    stage2_steal(warp, cursors, res_left, sink);
}

/// Stage 1: every lane processes its own residuals while all are busy.
pub(crate) fn stage1_own_work(
    warp: &mut WarpSim,
    cursors: &mut [LaneCursor],
    res_left: &mut [u64],
    sink: &mut dyn Sink,
) {
    loop {
        let preds: Vec<bool> = res_left.iter().map(|&r| r > 0).collect();
        if !warp.sync_all(&preds) {
            break;
        }
        // Copied (reference-materialized) neighbours emit without a bit
        // read, so only the lanes past their copied list occupy the
        // ResDecode slot.
        let decoding: Vec<u64> = cursors
            .iter()
            .filter(|c| c.copied_left() == 0)
            .map(|c| c.graph_addr())
            .collect();
        if !decoding.is_empty() {
            let active = decoding.len();
            warp.issue_mem(OpClass::ResDecode, active, decoding);
        }
        let mut items = Vec::with_capacity(cursors.len());
        for (i, c) in cursors.iter_mut().enumerate() {
            let v = c.decode_residual();
            res_left[i] -= 1;
            items.push((c.node(), v));
        }
        sink.handle(warp, &items);
    }
}

/// Stage 2: working lanes fill shared memory at scan offsets; the whole warp
/// drains `warpNum` residuals per Handle step.
pub(crate) fn stage2_steal(
    warp: &mut WarpSim,
    cursors: &mut [LaneCursor],
    res_left: &mut [u64],
    sink: &mut dyn Sink,
) {
    let width = warp.width() as u64;
    let counts: Vec<u32> = res_left.iter().map(|&r| r as u32).collect();
    let (scatter, total) = warp.exclusive_scan(&counts);
    let total = u64::from(total);
    if total == 0 {
        return;
    }
    let mut scatter: Vec<u64> = scatter.into_iter().map(u64::from).collect();
    let mut progress = 0u64;
    // Shared-memory buffer: one window of `width` (source, neighbour) slots.
    let mut buffer: Vec<Option<(NodeId, NodeId)>> = vec![None; width as usize];
    while progress < total {
        let window_end = progress + width;
        loop {
            let active: Vec<usize> = (0..cursors.len())
                .filter(|&i| res_left[i] > 0 && scatter[i] < window_end)
                .collect();
            if active.is_empty() {
                break;
            }
            let decoding: Vec<u64> = active
                .iter()
                .filter(|&&i| cursors[i].copied_left() == 0)
                .map(|&i| cursors[i].graph_addr())
                .collect();
            if !decoding.is_empty() {
                let count = decoding.len();
                warp.issue_mem(OpClass::ResDecode, count, decoding);
            }
            for &i in &active {
                let v = cursors[i].decode_residual();
                buffer[(scatter[i] - progress) as usize] = Some((cursors[i].node(), v));
                scatter[i] += 1;
                res_left[i] -= 1;
            }
        }
        let filled = (total - progress).min(width) as usize;
        let items: Vec<(NodeId, NodeId)> = buffer[..filled]
            .iter_mut()
            .map(|slot| slot.take().expect("scatter offsets must fill the window"))
            .collect();
        sink.handle(warp, &items);
        progress = window_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::{expand_warp, load_cursors, two_phase, CollectSink};
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use gcgt_graph::Csr;

    fn run(graph: &Csr, frontier: &[NodeId], width: usize) -> (WarpSim, CollectSink) {
        let cfg = Strategy::TaskStealing.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let mut warp = WarpSim::new(width, 64);
        let mut sink = CollectSink::default();
        expand_warp(Strategy::TaskStealing, &mut warp, &cgr, frontier, &mut sink);
        (warp, sink)
    }

    #[test]
    fn expands_figure1_correctly() {
        assert_expansion_correct(&toys::figure1(), Strategy::TaskStealing, 8);
    }

    #[test]
    fn expands_web_graph_correctly() {
        let g = web_graph(&WebParams::uk2002_like(300), 9);
        for width in [4, 8, 32] {
            assert_expansion_correct(&g, Strategy::TaskStealing, width);
        }
    }

    #[test]
    fn figure4d_steps_match_paper() {
        // The paper's Figure 4(d): Task Stealing takes 10 steps.
        let (g, frontier) = toys::figure4();
        let (warp, sink) = run(&g, &frontier, 8);
        assert_eq!(warp.tally().figure4_steps(), 10);
        assert_eq!(sink.pairs.len(), 37);
    }

    #[test]
    fn skewed_residuals_handled_in_fewer_steps_than_two_phase() {
        // One lane with 64 residuals, seven with one: two-phase pays 64
        // decode+handle rounds; stealing drains the tail in packed windows.
        let mut edges = Vec::new();
        for k in 0..64u32 {
            edges.push((0, 10 + 3 * k));
        }
        for lane in 1..8u32 {
            edges.push((lane, 500 + lane));
        }
        let g = Csr::from_edges(1024, &edges);
        let frontier: Vec<u32> = (0..8).collect();

        let (steal, _) = run(&g, &frontier, 8);

        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut warp = WarpSim::new(8, 64);
        let mut sink = CollectSink::default();
        let mut cursors = load_cursors(&mut warp, &cgr, &frontier);
        let mut res_left = two_phase::handle_intervals(&mut warp, &mut cursors, &mut sink);
        two_phase::handle_residuals(&mut warp, &mut cursors, &mut res_left, &mut sink);

        let (a, b) = (steal.tally().figure4_steps(), warp.tally().figure4_steps());
        assert!(a < b, "stealing {a} vs two-phase {b}");
    }

    #[test]
    fn stage2_windows_cover_every_residual() {
        // Unequal residual counts (20 / 5 / 35), width 8: stage 1 runs while
        // all three lanes are busy (5 rounds), stage 2 drains the remaining
        // 45 residuals in ⌈45/8⌉ = 6 packed windows.
        let counts = [20u32, 5, 35];
        let mut edges = Vec::new();
        for (lane, &cnt) in counts.iter().enumerate() {
            for k in 0..cnt {
                edges.push((lane as u32, 100 + 2000 * lane as u32 + 7 * k));
            }
        }
        let g = Csr::from_edges(8192, &edges);
        let (_, sink) = run(&g, &[0, 1, 2], 8);
        assert_eq!(sink.pairs.len(), 60);
        assert_eq!(sink.handle_calls, 5 + 6);
    }
}
