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

use gcgt_cgr::CgrGraph;
use gcgt_graph::NodeId;
use gcgt_simt::{OpClass, Space, WarpSim};

use super::{charge_ref_chase, two_phase::expand_decoded_intervals, Sink};

/// Per-lane header cursor over the segmented layout.
struct SegCursor {
    u: NodeId,
    pos: usize,
    itv_num: u64,
    itv_decoded: u64,
    prev_itv_end: NodeId,
    empty: bool,
    /// Copied neighbours materialized from the node's reference prologue
    /// (the segmented v3 layout puts `refOffset` first, before `itvNum`).
    copied: Vec<NodeId>,
}

impl SegCursor {
    fn load(cgr: &CgrGraph, u: NodeId) -> Self {
        let (start, end) = cgr.node_range(u);
        if start == end {
            return SegCursor {
                u,
                pos: start,
                itv_num: 0,
                itv_decoded: 0,
                prev_itv_end: u,
                empty: true,
                copied: Vec::new(),
            };
        }
        let (copied, p) = if cgr.config().ref_window > 0 {
            gcgt_cgr::ref_copied_list(cgr, u, start).expect("ref prologue")
        } else {
            (Vec::new(), start)
        };
        let (itv_num, pos) = cgr.read_count(p).expect("itvNum");
        SegCursor {
            u,
            pos,
            itv_num,
            itv_decoded: 0,
            prev_itv_end: u,
            empty: false,
            copied,
        }
    }

    fn intervals_left(&self) -> u64 {
        self.itv_num - self.itv_decoded
    }

    fn decode_interval(&mut self, cgr: &CgrGraph) -> (NodeId, u32) {
        let (start, p) = if self.itv_decoded == 0 {
            cgr.read_first_gap(self.pos, self.u).expect("itv start")
        } else {
            cgr.read_interval_gap(self.pos, self.prev_itv_end)
                .expect("itv gap")
        };
        let (len, p2) = cgr.read_interval_len(p).expect("itv len");
        debug_assert!(len >= 1, "zero-length interval in node {}", self.u);
        self.pos = p2;
        self.itv_decoded += 1;
        self.prev_itv_end = start + len - 1;
        (start, len)
    }

    fn graph_addr(&self) -> u64 {
        Space::Graph.addr((self.pos / 8) as u64)
    }
}

/// One residual segment awaiting decoding — or, with `copied` set, a
/// synthetic task emitting a node's reference-materialized neighbours
/// (no bits to read: scheduled like a segment, but decode-free).
struct SegTask {
    u: NodeId,
    pos: usize,
    prev: Option<NodeId>,
    left: u64,
    copied: Option<Vec<NodeId>>,
}

/// Expands `chunk` over the segmented CGR layout.
pub fn expand(warp: &mut WarpSim, cgr: &CgrGraph, chunk: &[NodeId], sink: &mut dyn Sink) {
    let cfg = *cgr.config();
    let seg_bits = cfg
        .segment_len_bits()
        .expect("segmented kernel requires the segmented layout");
    let k = chunk.len();

    // Prologue: frontier read (coalesced), bitStart gather, itvNum headers.
    warp.issue_mem(
        OpClass::Header,
        k,
        (0..k as u64).map(|i| Space::Frontier.addr(4 * i)),
    );
    warp.access(chunk.iter().map(|&u| Space::Offsets.addr(8 * u64::from(u))));
    warp.issue_mem(
        OpClass::Header,
        k,
        chunk
            .iter()
            .map(|&u| Space::Graph.addr((cgr.bit_start(u) / 8) as u64)),
    );
    charge_ref_chase(warp, cgr, chunk);
    let mut cursors: Vec<SegCursor> = chunk.iter().map(|&u| SegCursor::load(cgr, u)).collect();

    // --- interval phase (identical scheduling to Two-Phase) ---
    let mut pending: Vec<(NodeId, NodeId, u32)> = vec![(0, 0, 0); k];
    while cursors.iter().any(|c| c.intervals_left() > 0) {
        let decoding: Vec<usize> = cursors
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intervals_left() > 0)
            .map(|(i, _)| i)
            .collect();
        let addrs: Vec<u64> = decoding.iter().map(|&i| cursors[i].graph_addr()).collect();
        warp.issue_mem(OpClass::ItvDecode, decoding.len(), addrs);
        for &i in &decoding {
            let (start, len) = cursors[i].decode_interval(cgr);
            pending[i] = (cursors[i].u, start, len);
        }
        expand_decoded_intervals(warp, &mut pending, sink);
    }

    // --- segment discovery: read segNum, lay out the task list ---
    let live: Vec<usize> = (0..k).filter(|&i| !cursors[i].empty).collect();
    if live.is_empty() {
        return;
    }
    let addrs: Vec<u64> = live.iter().map(|&i| cursors[i].graph_addr()).collect();
    warp.issue_mem(OpClass::Header, live.len(), addrs);
    let mut tasks: Vec<SegTask> = Vec::new();
    for &i in &live {
        let c = &cursors[i];
        if !c.copied.is_empty() {
            // Copied neighbours come before the corrections in the decoded
            // order; emit them through one synthetic, decode-free task.
            tasks.push(SegTask {
                u: c.u,
                pos: c.pos,
                prev: None,
                left: c.copied.len() as u64,
                copied: Some(c.copied.clone()),
            });
        }
        let (seg_num, base) = cgr.read_count(c.pos).expect("segNum");
        for s in 0..seg_num as usize {
            tasks.push(SegTask {
                u: c.u,
                pos: base + s * seg_bits,
                prev: None,
                left: 0, // filled when the segment header is read
                copied: None,
            });
        }
    }

    // --- multi-way segment processing, one segment per lane per batch ---
    let width = warp.width();
    let mut batch_start = 0usize;
    while batch_start < tasks.len() {
        let batch_end = (batch_start + width).min(tasks.len());
        let batch = &mut tasks[batch_start..batch_end];
        // Read each segment's resNum (scattered header step); synthetic
        // copied tasks already know their count.
        let addrs: Vec<u64> = batch
            .iter()
            .filter(|t| t.copied.is_none())
            .map(|t| Space::Graph.addr((t.pos / 8) as u64))
            .collect();
        if !addrs.is_empty() {
            let count = addrs.len();
            warp.issue_mem(OpClass::Header, count, addrs);
        }
        for t in batch.iter_mut() {
            if t.copied.is_some() {
                continue;
            }
            let (res_num, p) = cgr.read_count(t.pos).expect("resNum");
            t.left = res_num;
            t.pos = p;
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
                .map(|&i| Space::Graph.addr((batch[i].pos / 8) as u64))
                .collect();
            if !addrs.is_empty() {
                let count = addrs.len();
                warp.issue_mem(OpClass::ResDecode, count, addrs);
            }
            let mut items = Vec::with_capacity(active.len());
            for &i in &active {
                let t = &mut batch[i];
                let r = if let Some(vals) = &t.copied {
                    // Register stream from the materialized list — free.
                    let r = vals[vals.len() - t.left as usize];
                    t.left -= 1;
                    r
                } else {
                    let (r, p) = match t.prev {
                        None => cgr.read_first_gap(t.pos, t.u).expect("seg first"),
                        Some(prev) => cgr.read_residual_gap(t.pos, prev).expect("seg gap"),
                    };
                    t.pos = p;
                    t.prev = Some(r);
                    t.left -= 1;
                    r
                };
                items.push((t.u, r));
            }
            sink.handle(warp, &items);
        }
        batch_start = batch_end;
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
