//! Algorithm 4 — Warp-centric parallel VLC decoding.
//!
//! A residual stream cannot normally be decoded in parallel: each codeword's
//! start is known only after its predecessor is decoded. Algorithm 4 breaks
//! the dependency speculatively: every lane decodes starting at one of the
//! next `warpNum` *bit positions*, then the valid decodings among the
//! candidates are identified by pointer-jumping over the "next codeword
//! start" links — marking valid starts at an exponential rate, so all are
//! found in O(log₂ warpNum) rounds (Lemma 5.2, checked by a property test).
//!
//! The win is architectural: one coalesced read of the window replaces up to
//! `warpNum` scattered per-lane reads, trading cheap extra instructions for
//! memory parallelism exactly as Section 5.1 argues.

use gcgt_bits::{BitVec, DecodeTable};
use gcgt_cgr::CgrGraph;
use gcgt_simt::{OpClass, Space, WarpSim};

use super::{task_stealing, LaneCursor, Sink};

/// Outcome of one speculative decoding window.
#[derive(Clone, Debug, Default)]
pub struct WindowDecode {
    /// Valid decodings in stream order: `(raw codeword value, next bit
    /// position relative to the window start)`.
    pub values: Vec<(u64, usize)>,
    /// Pointer-jumping rounds executed (Lemma 5.2: ≤ ⌈log₂ W⌉ + 1).
    pub rounds: u32,
}

/// Runs Algorithm 4 on `bits[start..]`: lanes speculate on the next
/// `warp.width()` bit positions and valid decodings are marked by
/// pointer jumping. Each lane's speculative decode goes through the shared
/// [`DecodeTable`] (one probe for short codewords; same results, bitwise,
/// as the slow path it falls back to).
pub fn parallel_decode(
    warp: &mut WarpSim,
    bits: &BitVec,
    table: &DecodeTable,
    start: usize,
) -> WindowDecode {
    let w = warp.width();
    // One cooperative, coalesced read of the window (plus decode slack).
    let window_bits = w + 64;
    warp.issue(OpClass::ParDecode, w);
    warp.access_range(
        Space::Graph.addr((start / 8) as u64),
        (window_bits as u64).div_ceil(8),
    );

    // Speculative decode from every bit offset.
    let mut vals = vec![0u64; w];
    let mut ends = vec![usize::MAX; w]; // relative end position (original)
    let mut poss = vec![usize::MAX; w]; // jumping pointer
    for i in 0..w {
        if let Some((v, end)) = table.decode_at(bits, start + i) {
            vals[i] = v;
            ends[i] = end - start;
            poss[i] = end - start;
        }
    }
    let mut flags = vec![false; w];
    if ends[0] == usize::MAX {
        // Nothing decodable at the window start (end of stream).
        return WindowDecode::default();
    }
    flags[0] = true;

    // Pointer-jumping rounds: every marked lane marks the decoding at its
    // `pos` and then jumps to "the pos of pos".
    let mut rounds = 0u32;
    loop {
        let preds: Vec<bool> = (0..w).map(|i| flags[i] && poss[i] < w).collect();
        if warp.sync_none(&preds) {
            break;
        }
        warp.issue(OpClass::ParDecode, preds.iter().filter(|&&p| p).count());
        rounds += 1;
        let snapshot = poss.clone();
        for i in 0..w {
            if preds[i] {
                let p = snapshot[i];
                flags[p] = true;
                poss[i] = snapshot[p];
            }
        }
    }

    // Compact the valid decodings in stream order (the exclusiveSum of
    // Algorithm 4 line 16).
    let flag_vals: Vec<u32> = flags.iter().map(|&f| u32::from(f)).collect();
    let _ = warp.exclusive_scan(&flag_vals);
    let values: Vec<(u64, usize)> = (0..w)
        .filter(|&i| flags[i] && ends[i] != usize::MAX)
        .map(|i| (vals[i], ends[i]))
        .collect();
    WindowDecode { values, rounds }
}

/// Minimum residual-run length worth speculative windows: below half a warp
/// of residuals, the marking rounds cost more than the scattered reads they
/// replace, so short runs go through task stealing instead.
const WC_MIN_RESIDUALS_FACTOR: usize = 2; // width / 2

/// Residual phase of the `WarpCentric` strategy: the warp decodes residual
/// sequences **collectively**, one stream at a time, through speculative
/// windows — trading extra (cheap, parallel) marking instructions for
/// coalesced reads, exactly the deal Section 5.1 describes. Decoded values
/// are packed across sequences into full-width Handle steps through shared
/// memory. Runs too short to fill a window usefully go through the
/// Task-Stealing stages instead.
pub fn handle_residuals_warp_centric(
    warp: &mut WarpSim,
    cgr: &CgrGraph,
    cursors: &mut [LaneCursor],
    res_left: &mut [u64],
    sink: &mut dyn Sink,
) {
    let width = warp.width();
    let min_run = (width / WC_MIN_RESIDUALS_FACTOR).max(4) as u64;
    // Shared-memory packing buffer across sequences.
    let mut buffer: Vec<(gcgt_graph::NodeId, gcgt_graph::NodeId)> = Vec::with_capacity(2 * width);
    for i in 0..cursors.len() {
        // Referenced lanes are gated to the task-stealing stages: their
        // residual area starts with copied values that are not in the bit
        // stream, so a speculative window over the bits would misalign.
        if res_left[i] < min_run || cursors[i].copied_left() > 0 {
            continue;
        }
        while res_left[i] > 0 {
            let win = parallel_decode(warp, cgr.bits(), cgr.table(), cursors[i].bit_pos());
            if win.values.is_empty() {
                // Codeword longer than the window: decode one serially.
                let addr = cursors[i].graph_addr();
                warp.issue_mem(OpClass::ResDecode, 1, std::iter::once(addr));
                let v = cursors[i].decode_residual();
                res_left[i] -= 1;
                buffer.push((cursors[i].node(), v));
                continue;
            }
            let take = (res_left[i] as usize).min(win.values.len());
            let (u, base) = (cursors[i].node(), cursors[i].bit_pos());
            for &(raw, end) in &win.values[..take] {
                // The window yields raw codeword values; the cursor applies
                // the gap and its checks, and moves past the codeword.
                let v = cursors[i].read(|c| c.take_residual(raw, base + end));
                buffer.push((u, v));
            }
            res_left[i] -= take as u64;
            while buffer.len() >= width {
                let rest = buffer.split_off(width);
                sink.handle(warp, &buffer);
                buffer = rest;
            }
        }
    }
    if !buffer.is_empty() {
        sink.handle(warp, &buffer);
    }
    // Short runs: own-work rounds while every lane is busy, then stealing.
    task_stealing::stage1_own_work(warp, cursors, res_left, sink);
    task_stealing::stage2_steal(warp, cursors, res_left, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::assert_expansion_correct;
    use crate::kernels::{expand_warp, CollectSink};
    use crate::strategy::Strategy;
    use gcgt_bits::{BitWriter, Code};
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{toys, web_graph, SocialParams, WebParams};
    use gcgt_graph::Csr;

    #[test]
    fn figure5_example() {
        // Figure 5: γ-coded values 1..=5; a 16-lane warp decodes the window
        // and the valid decodings are held by lanes 0, 1, 4, 7, 12.
        let mut w = BitWriter::new();
        for x in 1..=5u64 {
            Code::Gamma.encode(&mut w, x);
        }
        let bits = w.into_bitvec();
        let mut warp = WarpSim::new(16, 64);
        let win = parallel_decode(&mut warp, &bits, &DecodeTable::shared(Code::Gamma), 0);
        let decoded: Vec<u64> = win.values.iter().map(|&(v, _)| v).collect();
        assert_eq!(decoded, vec![1, 2, 3, 4, 5]);
        // Valid start positions are 0,1,4,7,12 → end positions 1,4,7,12,17.
        let ends: Vec<usize> = win.values.iter().map(|&(_, e)| e).collect();
        assert_eq!(ends, vec![1, 4, 7, 12, 17]);
    }

    #[test]
    fn lemma_5_2_round_bound() {
        // Rounds must stay within ⌈log₂ K⌉ + 1 for warps of K lanes.
        for width in [4usize, 8, 16, 32] {
            let mut w = BitWriter::new();
            for x in 1..200u64 {
                Code::Zeta(3).encode(&mut w, x % 60 + 1);
            }
            let bits = w.into_bitvec();
            let mut warp = WarpSim::new(width, 64);
            let win = parallel_decode(&mut warp, &bits, &DecodeTable::shared(Code::Zeta(3)), 0);
            assert!(!win.values.is_empty());
            let bound = (width as u32).ilog2() + 2;
            assert!(win.rounds <= bound, "width {width}: {} rounds", win.rounds);
        }
    }

    #[test]
    fn window_matches_serial_decode() {
        let mut w = BitWriter::new();
        let values: Vec<u64> = (0..300).map(|i| (i * 7) % 97 + 1).collect();
        for &x in &values {
            Code::Zeta(3).encode(&mut w, x);
        }
        let bits = w.into_bitvec();
        let table = DecodeTable::shared(Code::Zeta(3));
        let mut warp = WarpSim::new(32, 64);
        let mut pos = 0usize;
        let mut decoded: Vec<u64> = Vec::new();
        while decoded.len() < values.len() {
            let win = parallel_decode(&mut warp, &bits, &table, pos);
            assert!(!win.values.is_empty(), "stalled at bit {pos}");
            for &(v, _) in &win.values {
                decoded.push(v);
            }
            pos += win.values.last().unwrap().1;
        }
        assert_eq!(&decoded[..values.len()], &values[..]);
    }

    #[test]
    fn expands_graphs_correctly() {
        assert_expansion_correct(&toys::figure1(), Strategy::WarpCentric, 8);
        let g = web_graph(&WebParams::uk2002_like(300), 31);
        for width in [8, 32] {
            assert_expansion_correct(&g, Strategy::WarpCentric, width);
        }
    }

    #[test]
    fn expands_skewed_social_graph_correctly() {
        let g = gcgt_graph::gen::social_graph(&SocialParams::twitter_like(400), 3);
        assert_expansion_correct(&g, Strategy::WarpCentric, 16);
    }

    #[test]
    fn long_residual_run_uses_fewer_memory_steps() {
        // A hub with 256 scattered residuals: warp-centric decoding must cut
        // decode memory steps versus per-lane serial decoding.
        let mut edges = Vec::new();
        let mut v = 5u32;
        for i in 0..256u32 {
            edges.push((0, v));
            v += 2 + (i % 9);
        }
        let g = Csr::from_edges(4096, &edges);

        let run = |strategy: Strategy| {
            let cfg = strategy.cgr_config(&CgrConfig::paper_default());
            let cgr = CgrGraph::encode(&g, &cfg);
            let mut warp = WarpSim::new(32, 64);
            let mut sink = CollectSink::default();
            expand_warp(strategy, &mut warp, &cgr, &[0], &mut sink);
            assert_eq!(sink.pairs.len(), 256);
            warp.mem_stats().mem_steps
        };
        let wc = run(Strategy::WarpCentric);
        let ts = run(Strategy::TaskStealing);
        assert!(
            wc < ts,
            "warp-centric {wc} vs task-stealing {ts} memory steps"
        );
    }
}
