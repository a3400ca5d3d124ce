//! Section 5.2 — Residual Segmentation traversal (the complete GCGT).
//!
//! The segmented CGR layout (`itvNum, intervals…, segNum, seg₀, seg₁, …`)
//! stores residuals in fixed-stride segments whose positions are known the
//! moment `segNum` is read, and whose first residuals are re-based on the
//! source node — so up to `segNum` threads can decode one node's residual
//! area in parallel ("multi-way processing"). Intervals are expanded
//! cooperatively exactly as in Two-Phase.
//!
//! Scheduling here: all segments of the warp's frontier chunk are flattened
//! into a task list; lanes take one segment each, `warpNum` segments per
//! batch, decoding in lock-step rounds with a Handle step per round. Since
//! segments are bounded by `segLen`, per-lane work is balanced regardless of
//! how skewed the node degrees are — this is what flattens the twitter
//! super-node bottleneck in Figures 9 and 14.

use gcgt_cgr::{CgrGraph, NodeCursor};
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, WarpSim};

use super::{load_cursors, two_phase::handle_intervals, LaneCursor, Sink};

/// One residual segment awaiting decoding — or, with `copied` set, a
/// synthetic task emitting a node's reference-materialized neighbours
/// (no bits to read: scheduled like a segment, but decode-free).
struct SegTask<'a> {
    /// The node's cursor, parked on this segment's header until the batch
    /// reads its `resNum`.
    cur: LaneCursor<'a>,
    left: u64,
    copied: Option<Vec<NodeId>>,
}

/// Expands `chunk` over the segmented CGR layout.
pub fn expand(warp: &mut WarpSim, cgr: &CgrGraph, chunk: &[NodeId], sink: &mut dyn Sink) {
    let mut cursors = load_cursors(warp, cgr, chunk);
    // Interval phase: the Two-Phase schedule, unchanged.
    handle_intervals(warp, &mut cursors, sink);

    // --- segment discovery: read segNum, lay out the task list ---
    cursors.retain(|c| !c.is_empty());
    if cursors.is_empty() {
        return;
    }
    let addrs: Vec<u64> = cursors.iter().map(|c| c.graph_addr()).collect();
    warp.issue_mem(OpClass::Header, cursors.len(), addrs);
    let mut tasks: Vec<SegTask> = Vec::new();
    for mut c in cursors {
        // Copied neighbours come before the corrections in the decoded
        // order; emit them through one synthetic, decode-free task.
        let copied: Vec<NodeId> = std::iter::from_fn(|| c.next_copied()).collect();
        let seg_num = c.read(NodeCursor::read_seg_num);
        if !copied.is_empty() {
            tasks.push(SegTask {
                cur: c.clone(),
                left: copied.len() as u64,
                copied: Some(copied),
            });
        }
        for s in 0..seg_num {
            let mut cur = c.clone();
            cur.read(|c| c.seek_segment(s));
            tasks.push(SegTask {
                cur,
                left: 0, // filled when the segment header is read
                copied: None,
            });
        }
    }

    // --- multi-way segment processing, one segment per lane per batch ---
    for batch in tasks.chunks_mut(warp.width()) {
        // Read each segment's resNum (scattered header step); synthetic
        // copied tasks already know their count.
        let addrs: Vec<u64> = batch
            .iter()
            .filter(|t| t.copied.is_none())
            .map(|t| t.cur.graph_addr())
            .collect();
        if !addrs.is_empty() {
            let count = addrs.len();
            warp.issue_mem(OpClass::Header, count, addrs);
        }
        for t in batch.iter_mut().filter(|t| t.copied.is_none()) {
            t.left = t.cur.read(NodeCursor::read_res_num);
        }
        // Lock-step decode rounds with a Handle step per round.
        loop {
            let active: Vec<usize> = (0..batch.len()).filter(|&i| batch[i].left > 0).collect();
            if active.is_empty() {
                break;
            }
            let addrs: Vec<u64> = active
                .iter()
                .filter(|&&i| batch[i].copied.is_none())
                .map(|&i| batch[i].cur.graph_addr())
                .collect();
            if !addrs.is_empty() {
                let count = addrs.len();
                warp.issue_mem(OpClass::ResDecode, count, addrs);
            }
            let mut items = Vec::with_capacity(active.len());
            for &i in &active {
                let t = &mut batch[i];
                let r = match &t.copied {
                    // Register stream from the materialized list — free.
                    Some(vals) => vals[vals.len() - t.left as usize],
                    None => t.cur.read(NodeCursor::next_residual),
                };
                t.left -= 1;
                items.push((t.cur.node(), r));
            }
            sink.handle(warp, &items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::{expand_warp, CollectSink};
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{social_graph, toys, web_graph, SocialParams, WebParams};
    use gcgt_graph::Csr;

    #[test]
    fn expands_figure1_correctly() {
        assert_expansion_correct(&toys::figure1(), Strategy::Full, 8);
    }

    #[test]
    fn expands_web_graph_correctly() {
        let g = web_graph(&WebParams::uk2002_like(300), 4);
        for width in [4, 8, 32] {
            assert_expansion_correct(&g, Strategy::Full, width);
        }
    }

    #[test]
    fn expands_twitter_like_correctly() {
        let g = social_graph(&SocialParams::twitter_like(400), 6);
        assert_expansion_correct(&g, Strategy::Full, 16);
    }

    #[test]
    fn super_node_decoded_with_high_utilization() {
        // One hub with 2000 scattered residuals: segmentation must keep most
        // lanes busy, unlike per-lane serial decoding.
        let mut edges = Vec::new();
        let mut v = 3u32;
        for i in 0..2000u32 {
            edges.push((0, v));
            v += 2 + (i % 7);
        }
        let g = Csr::from_edges(1 << 15, &edges);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        assert!(
            cgr.stats().segments > 32,
            "{} segments",
            cgr.stats().segments
        );

        let mut warp = WarpSim::new(32, 64);
        let mut sink = CollectSink::default();
        expand_warp(Strategy::Full, &mut warp, &cgr, &[0], &mut sink);
        assert_eq!(sink.pairs.len(), 2000);
        assert!(
            warp.tally().utilization() > 0.5,
            "utilization {}",
            warp.tally().utilization()
        );

        // The same hub under TaskStealing serializes on one lane.
        let cfg2 = Strategy::TaskStealing.cgr_config(&CgrConfig::paper_default());
        let cgr2 = CgrGraph::encode(&g, &cfg2);
        let mut warp2 = WarpSim::new(32, 64);
        let mut sink2 = CollectSink::default();
        expand_warp(Strategy::TaskStealing, &mut warp2, &cgr2, &[0], &mut sink2);
        assert!(warp2.tally().utilization() < warp.tally().utilization());
    }

    #[test]
    fn empty_nodes_cost_nothing_extra() {
        let g = Csr::empty(16);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut warp = WarpSim::new(8, 64);
        let mut sink = CollectSink::default();
        expand_warp(Strategy::Full, &mut warp, &cgr, &[0, 1, 2], &mut sink);
        assert!(sink.pairs.is_empty());
    }
}
