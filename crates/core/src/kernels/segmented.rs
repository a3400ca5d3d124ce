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
//! batch. A batch is **decoded first and handled afterwards**:
//!
//! 1. the batch's `resNum` headers are read and one `exclusiveScan` over the
//!    per-lane counts gives every lane its offset into a per-warp
//!    shared-memory staging buffer — the scatter `expandInterval` stage 2
//!    uses for short intervals;
//! 2. the lanes decode in lock-step rounds, one residual per live lane per
//!    round, each writing its `(node, neighbour)` into its own slot run
//!    instead of handling it;
//! 3. the buffer drains through the sink `warpNum` neighbours per Handle
//!    step, segment-major: tasks in task order, each task's values in decode
//!    order. A node's residuals therefore reach the sink ascending and
//!    contiguous, like CSR's — a pack touches a few status lines, not one
//!    per segment — and every pack but a batch's last is full, where a
//!    Handle step per decode round would carry the k-th residual of up to
//!    `warpNum` different segments, and ever fewer lanes as segments run dry.
//!
//! Since segments are bounded by `segLen`, per-lane decode work is balanced
//! regardless of how skewed the node degrees are — this is what flattens the
//! twitter super-node bottleneck in Figures 9 and 14. Segment independence
//! also lets the launch schedule cut a small frontier's hub across warps
//! ([`expand_share`]): contiguous segment ranges, one warp each. Share 0
//! also carries the hub's intervals, which it decodes first and handles
//! packed, `warpNum` intervals per scan, as a segment batch is handled —
//! so that it costs about what its sibling shares cost, not one
//! few-lane Handle step per interval.
//!
//! Shared-memory bound: a batch stages at most `warpNum` × ⌊segment bits /
//! shortest codeword⌋ decoded neighbours — 32 × ⌊256 / 3⌋ = 2,720 four-byte
//! ids ≈ 10.6 KB per warp in the worst case at 32-byte segments and ζ3, about
//! 2.5 KB at the ~20 residuals a typical full segment holds. (The synthetic
//! copied-neighbour task of a reference-compressed node stages its whole
//! copied list, which the referenced node's degree bounds, not `segLen`.)

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
    expand_segments(warp, cursors, 0, 1, sink);
}

/// How many shares node `u` splits into: one per residual segment (at
/// least one), segments being independently decodable.
pub fn shares(cgr: &CgrGraph, u: NodeId) -> usize {
    gcgt_cgr::decode::decode_seg_num(cgr, u).max(1)
}

/// Expands share `share` of `of` of node `u` on a warp of its own: the
/// contiguous segment range `⌊S·share/of⌋ .. ⌊S·(share+1)/of⌋` of its `S`
/// segments. Every share re-reads the header and walks the intervals — one
/// single-lane `ItvDecode` step each. Share 0 also emits them and the
/// copied list: decode first, handle packed, like a segment batch — per
/// batch of up to `warpNum` intervals one `exclusiveScan` over the lengths,
/// then their neighbours in interval order, `warpNum` per Handle step.
/// (Handling each interval as it was decoded, a hub's share 0 took a
/// Handle, Scan and Sync step per interval with a few lanes active, and
/// floored its launch.) Together the shares emit `u`'s adjacency exactly
/// once, in the order [`expand`] emits it.
pub fn expand_share(
    warp: &mut WarpSim,
    cgr: &CgrGraph,
    u: NodeId,
    share: usize,
    of: usize,
    sink: &mut dyn Sink,
) {
    let mut cursors = load_cursors(warp, cgr, &[u]);
    let mut intervals: Vec<(NodeId, u32)> = Vec::new();
    for c in &mut cursors {
        while c.intervals_left() > 0 {
            warp.issue_mem(OpClass::ItvDecode, 1, [c.graph_addr()]);
            intervals.push(c.read(NodeCursor::next_interval));
        }
    }
    if share == 0 {
        let width = warp.width();
        let mut staged: Vec<(NodeId, NodeId)> = Vec::new();
        for batch in intervals.chunks(width) {
            let lens: Vec<u32> = batch.iter().map(|&(_, len)| len).collect();
            warp.exclusive_scan(&lens);
            staged.clear();
            staged.extend(
                batch
                    .iter()
                    .flat_map(|&(start, len)| (start..start + len).map(|v| (u, v))),
            );
            for pack in staged.chunks(width) {
                sink.handle(warp, pack);
            }
        }
    }
    expand_segments(warp, cursors, share as u64, of as u64, sink);
}

/// The residual phase over `cursors` parked past their intervals: share
/// `share` of `of` of every node's segments (`0` of `1`: all of them, plus
/// the copied list, which only share 0 carries).
fn expand_segments(
    warp: &mut WarpSim,
    mut cursors: Vec<LaneCursor>,
    share: u64,
    of: u64,
    sink: &mut dyn Sink,
) {
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
        if share == 0 && !copied.is_empty() {
            tasks.push(SegTask {
                cur: c.clone(),
                left: copied.len() as u64,
                copied: Some(copied),
            });
        }
        for s in seg_num * share / of..seg_num * (share + 1) / of {
            let mut cur = c.clone();
            cur.read(|c| c.seek_segment(s));
            tasks.push(SegTask {
                cur,
                left: 0, // filled when the segment header is read
                copied: None,
            });
        }
    }

    // --- multi-way segment processing, one segment per lane per batch:
    // decode the batch into the staging buffer, then handle it packed ---
    let width = warp.width();
    // The per-warp shared-memory staging buffer, reused across batches.
    let mut staged: Vec<(NodeId, NodeId)> = Vec::new();
    for batch in tasks.chunks_mut(width) {
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
        if batch.iter().all(|t| t.left == 0) {
            continue;
        }
        // Each lane's slot run in the staging buffer: the scatter offsets
        // of one exclusiveScan over the per-lane counts.
        let counts: Vec<u32> = batch
            .iter()
            .map(|t| u32::try_from(t.left).expect("a task's neighbours are u32 node ids"))
            .collect();
        let (mut slots, total) = warp.exclusive_scan(&counts);
        staged.clear();
        staged.resize(total as usize, (0, 0));
        // Lock-step decode rounds, each live lane staging one residual.
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
            for &i in &active {
                let t = &mut batch[i];
                let r = match &t.copied {
                    // Register stream from the materialized list — free.
                    Some(vals) => vals[vals.len() - t.left as usize],
                    None => t.cur.read(NodeCursor::next_residual),
                };
                t.left -= 1;
                staged[slots[i] as usize] = (t.cur.node(), r);
                slots[i] += 1;
            }
        }
        // Packed Handle: `width` consecutive staged neighbours per step.
        for pack in staged.chunks(width) {
            sink.handle(warp, pack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::{expand_warp, load_cursors, CollectSink};
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

    /// Records the size of every Handle step.
    #[derive(Default)]
    struct PackSink {
        packs: Vec<usize>,
    }

    impl Sink for PackSink {
        fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
            warp.issue(OpClass::Handle, items.len());
            self.packs.push(items.len());
        }
    }

    /// The `(pairs, handle steps)` the interval phase of `chunk` emits —
    /// what precedes the residual phase in the sink of a full `expand`.
    fn interval_phase(cgr: &CgrGraph, chunk: &[NodeId], width: usize) -> (usize, usize) {
        let mut warp = WarpSim::new(width, 64);
        let mut sink = CollectSink::default();
        let mut cursors = load_cursors(&mut warp, cgr, chunk);
        handle_intervals(&mut warp, &mut cursors, &mut sink);
        (sink.pairs.len(), sink.handle_calls)
    }

    #[test]
    fn staged_batches_are_handled_in_full_packs() {
        // A hub whose gaps alternate between runs of tiny and huge values:
        // segments hold very different residual counts, so lock-step rounds
        // run dry unevenly.
        let mut edges = Vec::new();
        let mut v = 5u32;
        for i in 0..1500u32 {
            edges.push((0, v));
            v += if (i / 40) % 2 == 0 {
                2
            } else {
                900 + 37 * (i % 11)
            };
        }
        let g = Csr::from_edges(v as usize + 1, &edges);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);

        // Per-segment residual counts, straight off the layout.
        let mut cur = NodeCursor::open(&cgr, 0).unwrap();
        while cur.intervals_left() > 0 {
            cur.next_interval().unwrap();
        }
        let seg_num = cur.read_seg_num().unwrap();
        let counts: Vec<usize> = (0..seg_num)
            .map(|s| {
                let mut seg = cur.clone();
                seg.seek_segment(s).unwrap();
                seg.read_res_num().unwrap() as usize
            })
            .collect();
        assert!(counts.iter().min() < counts.iter().max(), "{counts:?}");

        for width in [4usize, 8, 32] {
            assert!(counts.len() > 2 * width, "{} segments", counts.len());
            let (_, itv_calls) = interval_phase(&cgr, &[0], width);
            let mut warp = WarpSim::new(width, 64);
            let mut sink = PackSink::default();
            expand(&mut warp, &cgr, &[0], &mut sink);
            let packs = &sink.packs[itv_calls..];

            // Per batch: ⌊staged / width⌋ full packs, then the remainder.
            let mut want = Vec::new();
            for batch in counts.chunks(width) {
                let staged: usize = batch.iter().sum();
                want.extend(std::iter::repeat_n(width, staged / width));
                want.extend(Some(staged % width).filter(|&rest| rest > 0));
            }
            assert_eq!(packs, want, "width {width}");
        }
    }

    #[test]
    fn residuals_reach_the_sink_ascending_per_source() {
        let graphs = [
            web_graph(&WebParams::uk2002_like(300), 4),
            social_graph(&SocialParams::twitter_like(400), 6),
        ];
        for g in &graphs {
            let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
            let cgr = CgrGraph::encode(g, &cfg);
            let frontier: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
            for width in [4, 8, 32] {
                for chunk in frontier.chunks(width) {
                    let (itv_pairs, _) = interval_phase(&cgr, chunk, width);
                    let mut warp = WarpSim::new(width, 64);
                    let mut sink = CollectSink::default();
                    expand(&mut warp, &cgr, chunk, &mut sink);
                    for &u in chunk {
                        let residuals: Vec<NodeId> = sink.pairs[itv_pairs..]
                            .iter()
                            .filter(|&&(src, _)| src == u)
                            .map(|&(_, v)| v)
                            .collect();
                        assert!(
                            residuals.windows(2).all(|w| w[0] < w[1]),
                            "width {width} node {u}: {residuals:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_hubs_shares_partition_its_segments() {
        // Node 1 copies node 0's scattered list (a reference), and owns an
        // interval and scattered residuals of its own.
        let scattered = |from: u32, n: u32, gap: u32| (0..n).map(move |i| from + gap * i + i % 5);
        let mut edges: Vec<(NodeId, NodeId)> = scattered(100, 400, 3).map(|v| (0, v)).collect();
        edges.extend(scattered(100, 400, 3).map(|v| (1, v)));
        edges.extend((5000..5040).map(|v| (1, v)));
        edges.extend(scattered(9000, 600, 37).map(|v| (1, v)));
        let g = Csr::from_edges(40_000, &edges);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default().with_ref_window(4));
        let cgr = CgrGraph::encode(&g, &cfg);

        // The layout, straight off the cursor: intervals, copied values,
        // then each segment's residuals.
        let mut cur = NodeCursor::open(&cgr, 1).unwrap();
        let mut head = Vec::new();
        let itv_num = cur.intervals_left();
        while cur.intervals_left() > 0 {
            let (start, len) = cur.next_interval().unwrap();
            head.extend(start..start + len);
        }
        let copied = cur.copied_left();
        head.extend(std::iter::from_fn(|| cur.next_copied()));
        let seg_num = cur.read_seg_num().unwrap();
        let segments: Vec<Vec<NodeId>> = (0..seg_num)
            .map(|s| {
                let mut seg = cur.clone();
                seg.seek_segment(s).unwrap();
                seg.read_res_num().unwrap();
                std::iter::from_fn(|| {
                    (seg.residuals_left() > 0).then(|| seg.next_residual().unwrap())
                })
                .collect()
            })
            .collect();
        assert!(
            itv_num > 0 && copied > 0,
            "{itv_num} intervals, {copied} copied"
        );
        assert_eq!(shares(&cgr, 1), seg_num as usize);
        assert!(seg_num >= 8, "{seg_num} segments");

        for of in [2, 3, seg_num as usize] {
            for share in 0..of {
                let mut warp = WarpSim::new(8, 64);
                let mut sink = CollectSink::default();
                expand_share(&mut warp, &cgr, 1, share, of, &mut sink);
                // Exactly this share's contiguous segment range; intervals
                // and copied values in share 0 only.
                let range = seg_num as usize * share / of..seg_num as usize * (share + 1) / of;
                assert!(!range.is_empty());
                let mut want = if share == 0 { head.clone() } else { Vec::new() };
                want.extend(segments[range.clone()].iter().flatten());
                let got: Vec<NodeId> = sink.pairs.iter().map(|&(_, v)| v).collect();
                assert_eq!(got, want, "share {share} of {of}");
                // Later shares skip the intervals — one ItvDecode step each,
                // nothing handled — so their Handle steps are the packs of
                // their own segment batches.
                if share > 0 {
                    let issues = warp.tally().issues;
                    assert_eq!(issues[OpClass::ItvDecode as usize], itv_num);
                    let packs: usize = segments[range]
                        .chunks(8)
                        .map(|batch| batch.iter().map(Vec::len).sum::<usize>().div_ceil(8))
                        .sum();
                    assert_eq!(sink.handle_calls, packs, "share {share} of {of}");
                }
            }
        }
    }

    #[test]
    fn a_hubs_first_share_handles_its_intervals_packed() {
        // A hub of 90 intervals, 4 to 47 long (some a warp wide or more),
        // then 700 scattered residuals.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for i in 0..90u32 {
            let start = 1_000 + 100 * i;
            edges.extend((start..start + 4 + (i * 7) % 44).map(|v| (0, v)));
        }
        edges.extend((0..700u32).map(|i| (0, 20_000 + 29 * i + i % 3)));
        let g = Csr::from_edges(60_000, &edges);
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));

        let mut cur = NodeCursor::open(&cgr, 0).unwrap();
        let lens: Vec<usize> = std::iter::from_fn(|| {
            (cur.intervals_left() > 0).then(|| cur.next_interval().unwrap().1 as usize)
        })
        .collect();
        assert!(lens.len() >= 80, "{} intervals", lens.len());
        assert_eq!(cur.copied_left(), 0);
        let seg_num = cur.read_seg_num().unwrap() as usize;
        let seg_lens: Vec<usize> = (0..seg_num)
            .map(|s| {
                let mut seg = cur.clone();
                seg.seek_segment(s as u64).unwrap();
                seg.read_res_num().unwrap() as usize
            })
            .collect();

        for width in [8usize, 32] {
            let mut warp = WarpSim::new(width, 64);
            let mut whole = CollectSink::default();
            expand(&mut warp, &cgr, &[0], &mut whole);
            for of in [2, 5] {
                let mut warp = WarpSim::new(width, 64);
                let mut sink = CollectSink::default();
                expand_share(&mut warp, &cgr, 0, 0, of, &mut sink);
                // The prefix of the whole node's emission, in its order.
                assert_eq!(sink.pairs, whole.pairs[..sink.pairs.len()], "{of} shares");
                // One Handle step per `width` neighbours of each batch of
                // `width` intervals, then the segment batches' packs.
                let packs = |batches: std::slice::Chunks<usize>| -> usize {
                    batches
                        .map(|b| b.iter().sum::<usize>().div_ceil(width))
                        .sum()
                };
                let want =
                    packs(lens.chunks(width)) + packs(seg_lens[..seg_num / of].chunks(width));
                assert_eq!(sink.handle_calls, want, "width {width}, {of} shares");
                let issues = &warp.tally().issues;
                assert_eq!(issues[OpClass::ItvDecode as usize], lens.len() as u64);
                assert_eq!(issues[OpClass::Sync as usize], 0, "no leader election");
                let seg_batches = seg_lens[..seg_num / of]
                    .chunks(width)
                    .filter(|b| b.iter().sum::<usize>() > 0)
                    .count();
                assert_eq!(
                    issues[OpClass::Scan as usize],
                    (lens.len().div_ceil(width) + seg_batches) as u64
                );
            }
        }
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
