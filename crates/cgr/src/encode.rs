//! The CGR encoder: CSR → compressed bit array + per-node bit offsets.

use std::sync::{Arc, Mutex};

use crate::config::CgrConfig;
use crate::intervals::split_intervals;
use crate::stats::CompressionStats;
use gcgt_bits::{BitVec, BitWriter, DecodeTable, EliasFano, PackedRun};
use gcgt_graph::{Csr, NodeId};

/// Deferred structural validation state, shared by every clone of a graph
/// loaded with [`crate::ValidationMode::Deferred`]: a per-node "validated"
/// bitmap plus the running edge total, so partitions are checked exactly
/// once on first fault and the whole-graph edge-count cross-check fires
/// when coverage completes.
#[derive(Debug)]
struct PendingValidation {
    state: Mutex<PendingState>,
}

#[derive(Debug)]
struct PendingState {
    /// Bit `u` set ⇔ node `u`'s adjacency has been structurally validated.
    done: Box<[u64]>,
    /// Nodes not yet validated.
    remaining: usize,
    /// Edges decoded by completed validations.
    edges_seen: usize,
    /// The whole-graph edge-count cross-check failed (sticky: a deferred
    /// graph that proved corrupt stays rejected).
    failed: Option<String>,
}

impl PendingState {
    #[inline]
    fn is_done(&self, u: usize) -> bool {
        self.done[u / 64] >> (u % 64) & 1 == 1
    }

    #[inline]
    fn mark(&mut self, u: usize) {
        self.done[u / 64] |= 1 << (u % 64);
    }
}

/// A graph in Compressed Graph Representation: one contiguous bit array and
/// an Elias–Fano index of the `n + 1` per-node bit offsets
/// (`offset(u)..offset(u + 1)` delimits node `u`'s compressed adjacency,
/// the paper's `bitStart`), plus the shared [`DecodeTable`] for its VLC
/// code — every decoder of this graph (serial, kernel, validation) resolves
/// short codewords through one table probe instead of a serial bit-scan.
/// The table is process-wide per code ([`DecodeTable::shared`]), so cloning
/// the graph, sharing it behind an `Arc`, or serving it from many workers
/// all reuse one allocation. Both the bit array and the index words are
/// own-or-borrow ([`gcgt_bits::Storage`]): a graph loaded zero-copy from a
/// GCGR v2 buffer serves them as views of one shared allocation.
#[derive(Clone, Debug)]
pub struct CgrGraph {
    config: CgrConfig,
    bits: BitVec,
    index: EliasFano,
    num_edges: usize,
    stats: CompressionStats,
    table: Arc<DecodeTable>,
    /// `Some` while any node of a deferred-validation load is unchecked;
    /// clones share the state, so one worker validating a partition covers
    /// all of them.
    pending: Option<Arc<PendingValidation>>,
}

impl CgrGraph {
    /// Encodes `graph` under `config`.
    pub fn encode(graph: &Csr, config: &CgrConfig) -> CgrGraph {
        let n = graph.num_nodes();
        let mut w = BitWriter::with_capacity(graph.num_edges() * 8);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut stats = CompressionStats {
            nodes: n,
            edges: graph.num_edges(),
            ..Default::default()
        };
        // Reference selection needs the chain depth of every earlier node
        // (a node may only be referenced while its own chain is short of
        // `ref_chain_limit`); with `ref_window == 0` the vector stays empty
        // and the per-node encoder takes the v2 path byte-for-byte.
        let mut chain_len = vec![0u32; if config.ref_window > 0 { n } else { 0 }];
        for u in 0..n as NodeId {
            offsets.push(w.len());
            stats.note_degree(graph.neighbors(u).len() as u64);
            if config.ref_window == 0 {
                encode_node(&mut w, graph.neighbors(u), u, config, &mut stats);
            } else {
                let sel = select_reference(graph, u, config, &chain_len);
                if let Some(s) = &sel {
                    chain_len[u as usize] = chain_len[s.target as usize] + 1;
                }
                encode_node_with_ref(&mut w, graph.neighbors(u), u, sel, config, &mut stats);
            }
        }
        offsets.push(w.len());
        stats.total_bits = w.len();
        CgrGraph {
            config: *config,
            bits: w.into_bitvec(),
            index: EliasFano::build(&offsets),
            num_edges: graph.num_edges(),
            stats,
            table: DecodeTable::shared(config.code),
            pending: None,
        }
    }

    /// Reassembles a graph from a loaded Elias–Fano index and (possibly
    /// shared, zero-copy) bit array — the v2 deserialization path of
    /// [`crate::io`]. `deferred` arms per-partition lazy validation: the
    /// graph starts with every node unchecked and
    /// [`CgrGraph::ensure_validated`] pays the structural scan on first
    /// touch.
    pub(crate) fn from_loaded_parts(
        config: CgrConfig,
        bits: BitVec,
        index: EliasFano,
        num_edges: usize,
        stats: CompressionStats,
        deferred: bool,
    ) -> CgrGraph {
        debug_assert!(!index.is_empty());
        debug_assert_eq!(index.get(index.len() - 1), bits.len());
        let n = index.len() - 1;
        let pending = deferred.then(|| {
            Arc::new(PendingValidation {
                state: Mutex::new(PendingState {
                    done: vec![0u64; n.div_ceil(64)].into_boxed_slice(),
                    remaining: n,
                    edges_seen: 0,
                    failed: None,
                }),
            })
        });
        CgrGraph {
            config,
            bits,
            index,
            num_edges,
            stats,
            table: DecodeTable::shared(config.code),
            pending,
        }
    }

    /// The encoding parameters.
    #[inline]
    pub fn config(&self) -> &CgrConfig {
        &self.config
    }

    /// The `i`-th of the `n + 1` per-node bit offsets (the paper's
    /// `bitStart` array), answered by the Elias–Fano index.
    #[inline]
    pub fn offset(&self, i: usize) -> usize {
        self.index.get(i)
    }

    /// Materializes the full dense offset array — for serialization and
    /// diagnostics only; traversal paths go through [`CgrGraph::offset`].
    pub fn offsets_dense(&self) -> Vec<usize> {
        self.index.iter().collect()
    }

    /// The Elias–Fano offset index.
    #[inline]
    pub fn index(&self) -> &EliasFano {
        &self.index
    }

    /// On-disk bytes of the Elias–Fano offset index (versus
    /// `(n + 1) × 8` for the dense array it replaces).
    #[inline]
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Whether any node of a deferred-validation load is still unchecked.
    /// Always `false` for encoded or eagerly validated graphs.
    pub fn validation_pending(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| {
            p.state
                .lock()
                .expect("validation state lock is never poisoned: holders do not panic")
                .remaining
                > 0
        })
    }

    /// Ensures nodes `first..end` have been structurally validated,
    /// running the bounds-checked scan over any not yet covered
    /// (deferred-validation loads only; a no-op otherwise). When the last
    /// node of the graph is covered, the decoded edge total is
    /// cross-checked against the header's declared count — corruption
    /// spread thinly across partitions is still caught, just at coverage
    /// time instead of load time.
    pub fn ensure_validated(&self, first: usize, end: usize) -> Result<(), String> {
        let Some(pending) = &self.pending else {
            return Ok(());
        };
        let mut st = pending
            .state
            .lock()
            .expect("validation state lock is never poisoned: holders do not panic");
        if let Some(e) = &st.failed {
            return Err(e.clone());
        }
        let end = end.min(self.num_nodes());
        let mut u = first;
        while u < end {
            if st.is_done(u) {
                u += 1;
                continue;
            }
            let mut v = u + 1;
            while v < end && !st.is_done(v) {
                v += 1;
            }
            let edges = crate::decode::validate_range(self, u, v)?;
            st.edges_seen += edges;
            st.remaining -= v - u;
            for w in u..v {
                st.mark(w);
            }
            u = v;
        }
        if st.remaining == 0 && st.edges_seen != self.num_edges {
            let msg = format!(
                "payload decodes {} edges but the header declares {}",
                st.edges_seen, self.num_edges
            );
            st.failed = Some(msg.clone());
            return Err(msg);
        }
        Ok(())
    }

    /// Validates every not-yet-checked node of a deferred load (a no-op
    /// otherwise) — the escape hatch for consumers that need the whole
    /// graph proven sound up front, e.g. before a full CSR decode.
    pub fn ensure_validated_all(&self) -> Result<(), String> {
        self.ensure_validated(0, self.num_nodes())
    }

    /// The compressed bit array.
    #[inline]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// The shared decode table for this graph's VLC code — one 16-bit
    /// window probe resolves short codewords, the slow path handles the
    /// tail. See [`DecodeTable`].
    #[inline]
    pub fn table(&self) -> &DecodeTable {
        &self.table
    }

    /// The `Arc` behind [`CgrGraph::table`], for consumers that outlive
    /// this graph (e.g. a serving layer caching tables per worker).
    #[inline]
    pub fn table_shared(&self) -> Arc<DecodeTable> {
        Arc::clone(&self.table)
    }

    // --- table-accelerated field readers ---------------------------------
    //
    // Twins of `CgrConfig::read_*` routed through the decode table: the
    // raw VLC decode is a table probe (slow path only past 16-bit
    // codewords), the shift mapping is the *same* `CgrConfig::map_*` the
    // slow path uses — so every hardening guard (codeword-0 rejection,
    // checked gap arithmetic, the ≥64-zero unary rejection inside the
    // decoder) holds bitwise identically on both paths.

    /// Table-accelerated [`CgrConfig::read_count`].
    #[inline]
    pub fn read_count(&self, pos: usize) -> Option<(u64, usize)> {
        let (v, p) = self.table.decode_at(&self.bits, pos)?;
        Some((CgrConfig::map_count(v)?, p))
    }

    /// Table-accelerated [`CgrConfig::read_first_gap`].
    #[inline]
    pub fn read_first_gap(&self, pos: usize, source: NodeId) -> Option<(NodeId, usize)> {
        let (v, p) = self.table.decode_at(&self.bits, pos)?;
        Some((CgrConfig::map_first_gap(source, v)?, p))
    }

    /// Table-accelerated [`CgrConfig::read_interval_gap`].
    #[inline]
    pub fn read_interval_gap(&self, pos: usize, prev_end: NodeId) -> Option<(NodeId, usize)> {
        let (v, p) = self.table.decode_at(&self.bits, pos)?;
        Some((CgrConfig::map_interval_gap(prev_end, v)?, p))
    }

    /// Table-accelerated [`CgrConfig::read_interval_len`].
    #[inline]
    pub fn read_interval_len(&self, pos: usize) -> Option<(u32, usize)> {
        let (v, p) = self.table.decode_at(&self.bits, pos)?;
        Some((self.config.map_interval_len(v)?, p))
    }

    /// [`CgrConfig::read_ref_offset`] twin. The refOffset codeword is
    /// γ-coded regardless of the config code (see `write_ref_offset`), so
    /// it goes through the γ slow path, not the config-code table.
    #[inline]
    pub fn read_ref_offset(&self, pos: usize) -> Option<(u64, usize)> {
        let (v, p) = gcgt_bits::Code::Gamma.decode_at(&self.bits, pos)?;
        Some((CgrConfig::map_ref_offset(v)?, p))
    }

    /// Table-accelerated [`CgrConfig::read_block_len`].
    #[inline]
    pub fn read_block_len(&self, pos: usize) -> Option<(u64, usize)> {
        let (v, p) = self.table.decode_at(&self.bits, pos)?;
        Some((CgrConfig::map_count(v)?, p))
    }

    /// The node `u` references, if any — a cheap header peek that never
    /// materializes the list. Returns `None` immediately when
    /// `ref_window == 0` (the v2 layouts have no reference prologue), on
    /// empty adjacencies, and on refOffset 0; a malformed prologue also
    /// reads as `None` (full structural validation reports it as a typed
    /// error instead). Used by partition/shard planning to keep reference
    /// chains closed within a cut.
    pub fn ref_target(&self, u: NodeId) -> Option<NodeId> {
        if self.config.ref_window == 0 {
            return None;
        }
        crate::decode::NodeCursor::ref_target(self, u)
    }

    /// Multi-gap probe over this graph's bit array: raw codeword values of
    /// up to [`MAX_PACKED`](gcgt_bits::MAX_PACKED) consecutive short
    /// codewords from one window, with per-codeword end offsets relative to
    /// `pos` (so a prefix can be consumed with exact slow-path bit
    /// positions). An empty run means even the first codeword needs the
    /// slow path. Callers apply the `CgrConfig` shift mapping per value,
    /// exactly as the slow path does.
    #[inline]
    pub fn decode_packed_at(&self, pos: usize) -> PackedRun {
        self.table.decode_packed_at(&self.bits, pos)
    }

    /// Bit offset where node `u`'s compressed adjacency starts.
    #[inline]
    pub fn bit_start(&self, u: NodeId) -> usize {
        self.index.get(u as usize)
    }

    /// `(start, end)` bit range of node `u`'s compressed adjacency.
    #[inline]
    pub fn node_range(&self, u: NodeId) -> (usize, usize) {
        (self.index.get(u as usize), self.index.get(u as usize + 1))
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.index.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Encoding statistics.
    #[inline]
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Bits per edge of the compressed bit array.
    pub fn bits_per_edge(&self) -> f64 {
        self.stats.bits_per_edge()
    }

    /// The paper's compression rate, `32 / bits-per-edge`.
    pub fn compression_rate(&self) -> f64 {
        self.stats.compression_rate()
    }

    /// Modeled device-memory footprint: bit array plus a dense 64-bit
    /// offset array (the kernels' modeled cost assumes dense `bitStart`
    /// lookups on device; the succinct on-disk index is
    /// [`CgrGraph::index_bytes`]). Kept dense so the cost model and every
    /// committed `BENCH.json` headline are unchanged by the index refactor.
    pub fn size_bytes(&self) -> usize {
        self.bits.storage_bytes() + (self.num_nodes() + 1) * 8
    }
}

fn encode_node(
    w: &mut BitWriter,
    list: &[NodeId],
    u: NodeId,
    config: &CgrConfig,
    stats: &mut CompressionStats,
) {
    let ir = split_intervals(list, config.min_interval_len);
    stats.interval_edges += ir.degree() - ir.residuals.len();
    stats.residual_edges += ir.residuals.len();
    note_residual_values(&ir.residuals, u, stats);

    if config.segment_len_bytes.is_none() {
        // --- unsegmented layout: degNum, itvNum, intervals, residuals ---
        config.write_count(w, list.len() as u64);
        if list.is_empty() {
            return;
        }
        write_intervals(w, &ir.intervals, u, config);
        write_residual_run(w, &ir.residuals, u, config);
        return;
    }

    // --- segmented layout: itvNum, intervals, segNum, segments ---
    write_intervals_header_first(w, &ir.intervals, u, config, list.is_empty());
    write_segments(w, &ir.residuals, u, config, stats);
}

/// One node under reference compression (`ref_window > 0`), GCGR v3 node
/// layout. Relative to the v2 layouts the node gains a reference prologue
/// — `refOffset` (0 = no reference) and, when referencing, the alternating
/// copy/skip block lengths over the referenced node's full adjacency.
/// Copy blocks are resolved **before** intervalization, as in WebGraph:
/// the copied values leave the list first, intervals are extracted from
/// what remains, and the leftover *corrections* form the residual stream.
/// `degNum` stays the true degree.
fn encode_node_with_ref(
    w: &mut BitWriter,
    list: &[NodeId],
    u: NodeId,
    sel: Option<RefSelection>,
    config: &CgrConfig,
    stats: &mut CompressionStats,
) {
    let remaining: Vec<NodeId> = match &sel {
        None => list.to_vec(),
        Some(s) => subtract_sorted(list, &s.copied),
    };
    let ir = split_intervals(&remaining, config.min_interval_len);
    stats.interval_edges += ir.degree() - ir.residuals.len();
    note_residual_values(&ir.residuals, u, stats);
    stats.residual_edges += ir.residuals.len();
    if let Some(s) = &sel {
        stats.ref_nodes += 1;
        stats.ref_copy_blocks += s.blocks.len().div_ceil(2);
        stats.ref_copied_edges += s.copied.len();
    }

    let write_ref_prologue = |w: &mut BitWriter| match &sel {
        None => config.write_ref_offset(w, 0),
        Some(s) => {
            config.write_ref_offset(w, u64::from(u - s.target));
            config.write_count(w, s.blocks.len() as u64);
            for &len in &s.blocks {
                config.write_block_len(w, len);
            }
        }
    };

    if config.segment_len_bytes.is_none() {
        // --- unsegmented v3: degNum, [refOffset, blocks], itvNum,
        //     intervals, corrections ---
        config.write_count(w, list.len() as u64);
        if list.is_empty() {
            return;
        }
        write_ref_prologue(w);
        write_intervals(w, &ir.intervals, u, config);
        write_residual_run(w, &ir.residuals, u, config);
        return;
    }

    // --- segmented v3: refOffset, [blocks], itvNum, intervals, segNum,
    //     segments-of-corrections (the segmented layout has no degNum, so
    //     the reference prologue is unconditional) ---
    write_ref_prologue(w);
    write_intervals_header_first(w, &ir.intervals, u, config, list.is_empty());
    write_segments(w, &ir.residuals, u, config, stats);
}

/// `list` minus the sorted subset `copied` (both strictly ascending).
fn subtract_sorted(list: &[NodeId], copied: &[NodeId]) -> Vec<NodeId> {
    let mut c = copied.iter().copied().peekable();
    list.iter()
        .copied()
        .filter(|&v| {
            if c.peek() == Some(&v) {
                c.next();
                false
            } else {
                true
            }
        })
        .collect()
}

/// The segmented residual section: `segNum`, then fixed-stride segments of
/// gap-coded residuals (each re-based on `u`). Shared by the v2 and v3
/// (corrections) paths — the packing is byte-identical for the same slice.
fn write_segments(
    w: &mut BitWriter,
    residuals: &[NodeId],
    u: NodeId,
    config: &CgrConfig,
    stats: &mut CompressionStats,
) {
    let seg_bits = config
        .segment_len_bits()
        .expect("segmented layouts always carry a segment length");
    if residuals.is_empty() {
        config.write_count(w, 0); // segNum = 0
        return;
    }
    // Greedy packing: a segment closes when the next residual would not fit
    // in `seg_bits` (the per-segment resNum codeword is recomputed as the
    // segment grows).
    let mut segments: Vec<&[NodeId]> = Vec::new();
    let mut start = 0usize;
    let mut cur_bits = 0u64;
    for i in 0..residuals.len() {
        let gap_bits = residual_code_bits(residuals, start, i, u, config);
        let count_now = (i - start + 1) as u64;
        let header_now = config.code.len_bits(count_now + 1) as u64;
        let prev_header = if i > start {
            config.code.len_bits(count_now) as u64
        } else {
            0
        };
        let grown = cur_bits - prev_header + header_now + u64::from(gap_bits);
        if i > start && grown > seg_bits as u64 {
            segments.push(&residuals[start..i]);
            start = i;
            let first_bits = residual_code_bits(residuals, start, i, u, config);
            cur_bits = config.code.len_bits(2) as u64 + u64::from(first_bits);
        } else {
            cur_bits = grown;
        }
    }
    segments.push(&residuals[start..]);
    // The last-segment rule: never leave a trailing short segment — merge it
    // into its predecessor so the final segment spans 1–2× segLen.
    if segments.len() >= 2 {
        let last = segments.pop().expect("len >= 2 checked above");
        let prev = segments.pop().expect("len >= 2 checked above");
        let merged_start = prev.as_ptr() as usize;
        let _ = merged_start; // slices are contiguous in residuals
        let prev_start = residuals.len() - last.len() - prev.len();
        segments.push(&residuals[prev_start..]);
    }
    config.write_count(w, segments.len() as u64);
    stats.segments += segments.len();
    let base = w.len();
    for (si, seg) in segments.iter().enumerate() {
        let seg_start = w.len();
        debug_assert_eq!(seg_start, base + si * seg_bits, "segment stride broken");
        config.write_count(w, seg.len() as u64);
        let mut prev: Option<NodeId> = None;
        for &r in seg.iter() {
            match prev {
                None => config.write_first_gap(w, u, r),
                Some(p) => config.write_residual_gap(w, p, r),
            }
            prev = Some(r);
        }
        let used = w.len() - seg_start;
        if si + 1 < segments.len() {
            // Non-last segments are padded to exactly segLen.
            assert!(
                used <= seg_bits,
                "residual segment overflows segLen ({used} > {seg_bits} bits); \
                 increase segment_len_bytes"
            );
            stats.blank_bits += seg_bits - used;
            w.push_zeros((seg_bits - used) as u32);
        }
    }
}

/// A chosen reference for one node: the target, the alternating copy/skip
/// block lengths over the target's full adjacency (starting with a copy
/// block; the tail after the last explicit block is implicitly skipped),
/// and the values those copy blocks materialize (ascending).
struct RefSelection {
    target: NodeId,
    blocks: Vec<u64>,
    copied: Vec<NodeId>,
}

/// Greedy best-candidate reference selection for node `u`: every window
/// candidate `t ∈ [u − ref_window, u)` whose chain is still short of
/// `ref_chain_limit` is cost-modeled exactly — copy blocks plus the
/// re-intervalized remainder versus the plain interval/residual encoding,
/// via [`gcgt_bits::Code::len_bits`] — and the cheapest strictly-better
/// candidate wins. Both sides are modeled on the unsegmented layout; for
/// segmented configs this is a heuristic (padding and per-segment
/// re-basing shift the true cost), which only ever costs ratio, never
/// correctness.
fn select_reference(
    graph: &Csr,
    u: NodeId,
    config: &CgrConfig,
    chain_len: &[u32],
) -> Option<RefSelection> {
    let list = graph.neighbors(u);
    if list.is_empty() {
        return None;
    }
    let code = config.code;
    let base_ir = split_intervals(list, config.min_interval_len);
    let base_cost = u64::from(gcgt_bits::Code::Gamma.len_bits(1))
        + interval_run_bits(&base_ir.intervals, u, config)
        + residual_run_bits(&base_ir.residuals, u, config);
    let first = u.saturating_sub(config.ref_window);
    let mut best: Option<(u64, RefSelection)> = None;
    for t in first..u {
        if chain_len[t as usize] >= config.ref_chain_limit {
            continue;
        }
        let t_list = graph.neighbors(t);
        if t_list.is_empty() {
            continue;
        }
        let (blocks, copied) = copy_blocks(t_list, list);
        if copied.is_empty() {
            continue;
        }
        let remaining = subtract_sorted(list, &copied);
        let ir = split_intervals(&remaining, config.min_interval_len);
        let mut cost = u64::from(gcgt_bits::Code::Gamma.len_bits(u64::from(u - t) + 1));
        cost += u64::from(code.len_bits(blocks.len() as u64 + 1));
        for &b in &blocks {
            cost += u64::from(code.len_bits(b + 1));
        }
        cost += interval_run_bits(&ir.intervals, u, config);
        cost += residual_run_bits(&ir.residuals, u, config);
        if cost < base_cost && best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((
                cost,
                RefSelection {
                    target: t,
                    blocks,
                    copied,
                },
            ));
        }
    }
    best.map(|(_, sel)| sel)
}

/// Splits the overlap of `t_list` (the candidate's full sorted adjacency)
/// and `residuals` (the referencing node's sorted values — the full list
/// under before-intervalization selection) into alternating copy/skip
/// block lengths over `t_list`. The first block is a
/// copy block (possibly length 0); the trailing skip run is implicit.
/// Returns the block lengths and the copied values (ascending).
fn copy_blocks(t_list: &[NodeId], residuals: &[NodeId]) -> (Vec<u64>, Vec<NodeId>) {
    let mut copied = Vec::new();
    let mut flags = vec![false; t_list.len()];
    let mut ri = 0usize;
    for (i, &v) in t_list.iter().enumerate() {
        while ri < residuals.len() && residuals[ri] < v {
            ri += 1;
        }
        if ri < residuals.len() && residuals[ri] == v {
            flags[i] = true;
            copied.push(v);
            ri += 1;
        }
    }
    if copied.is_empty() {
        return (Vec::new(), copied);
    }
    let last_copy = flags
        .iter()
        .rposition(|&f| f)
        .expect("non-empty copied list implies at least one copy flag");
    let mut blocks = Vec::new();
    let mut run_is_copy = true; // the first block is always a copy block
    let mut run_len = 0u64;
    for &f in &flags[..=last_copy] {
        if f == run_is_copy {
            run_len += 1;
        } else {
            blocks.push(run_len);
            run_is_copy = f;
            run_len = 1;
        }
    }
    blocks.push(run_len);
    (blocks, copied)
}

/// Exact bits of an unsegmented interval section: the `itvNum` count plus
/// each interval's gap and length codewords, mirroring `write_intervals`.
fn interval_run_bits(intervals: &[(NodeId, u32)], u: NodeId, config: &CgrConfig) -> u64 {
    let code = config.code;
    let mut bits = u64::from(code.len_bits(intervals.len() as u64 + 1));
    let mut prev_end: Option<NodeId> = None;
    for &(start, len) in intervals {
        let gap_val = match prev_end {
            None => gcgt_bits::fold_sign(i64::from(start) - i64::from(u)) + 1,
            Some(pe) => u64::from(start) - u64::from(pe) - 1,
        };
        bits += u64::from(code.len_bits(gap_val));
        let min = config.min_interval_len.expect("intervals disabled");
        bits += u64::from(code.len_bits(u64::from(len - min) + 1));
        prev_end = Some(start + len - 1);
    }
    bits
}

/// Modeled bits of an unsegmented residual run (first gap re-based on `u`).
fn residual_run_bits(residuals: &[NodeId], u: NodeId, config: &CgrConfig) -> u64 {
    let mut bits = 0u64;
    let mut prev: Option<NodeId> = None;
    for &r in residuals {
        let v = match prev {
            None => gcgt_bits::fold_sign(i64::from(r) - i64::from(u)) + 1,
            Some(p) => u64::from(r) - u64::from(p),
        };
        bits += u64::from(config.code.len_bits(v));
        prev = Some(r);
    }
    bits
}

/// The candidate codes [`CgrConfig::autotune`] scores, in tie-break order.
const AUTOTUNE_CANDIDATES: [gcgt_bits::Code; 6] = [
    gcgt_bits::Code::Gamma,
    gcgt_bits::Code::Delta,
    gcgt_bits::Code::Zeta(2),
    gcgt_bits::Code::Zeta(3),
    gcgt_bits::Code::Zeta(4),
    gcgt_bits::Code::Zeta(5),
];

impl CgrConfig {
    /// Picks the VLC code that minimizes the modeled encoded size of
    /// `graph` — per-dataset code autotuning, the compress-time analogue of
    /// WebGraph's per-corpus ζ-parameter choice.
    ///
    /// The model sums, for each candidate in γ, δ, ζ2…ζ5, the exact
    /// codeword widths of the unsegmented v2 stream (`degNum`, interval
    /// runs, residual runs) under [`CgrConfig::paper_default`]'s interval
    /// threshold. Segmentation padding and reference selection are
    /// deliberately outside the model: padding is code-independent to
    /// first order, and reference choices themselves depend on the code —
    /// the ranking is decided by the gap distribution either way (the
    /// advisory `gap_hist`/`degree_hist` in
    /// [`CompressionStats`] show that distribution directly). Ties go to
    /// the earlier candidate, γ first.
    ///
    /// Returns [`CgrConfig::paper_default`] with the winning code; chain
    /// the layout/reference knobs after (`strategy.cgr_config(..)`,
    /// [`CgrConfig::with_ref_window`]).
    pub fn autotune(graph: &Csr) -> CgrConfig {
        let base = CgrConfig::paper_default();
        let mut costs = [0u64; AUTOTUNE_CANDIDATES.len()];
        let mut cfgs: Vec<CgrConfig> = AUTOTUNE_CANDIDATES
            .iter()
            .map(|&code| CgrConfig { code, ..base })
            .collect();
        for u in 0..graph.num_nodes() as NodeId {
            let list = graph.neighbors(u);
            let ir = split_intervals(list, base.min_interval_len);
            for (i, cfg) in cfgs.iter().enumerate() {
                costs[i] += u64::from(cfg.code.len_bits(list.len() as u64 + 1));
                if !list.is_empty() {
                    costs[i] += interval_run_bits(&ir.intervals, u, cfg)
                        + residual_run_bits(&ir.residuals, u, cfg);
                }
            }
        }
        let best = costs
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        cfgs.swap_remove(best)
    }
}

/// Advisory gap-histogram feed: the codeword values the residual stream of
/// this node would write (first gap sign-folded, then plain gaps).
fn note_residual_values(residuals: &[NodeId], u: NodeId, stats: &mut CompressionStats) {
    let mut prev: Option<NodeId> = None;
    for &r in residuals {
        let v = match prev {
            None => gcgt_bits::fold_sign(i64::from(r) - i64::from(u)) + 1,
            Some(p) => u64::from(r) - u64::from(p),
        };
        stats.note_value(v);
        prev = Some(r);
    }
}

/// Encoded size of residual `i` given the current segment started at
/// `seg_start` (the first residual of a segment is re-based on `u`).
fn residual_code_bits(
    residuals: &[NodeId],
    seg_start: usize,
    i: usize,
    u: NodeId,
    config: &CgrConfig,
) -> u32 {
    if i == seg_start {
        let gap = i64::from(residuals[i]) - i64::from(u);
        config.code.len_bits(gcgt_bits::fold_sign(gap) + 1)
    } else {
        let gap = u64::from(residuals[i]) - u64::from(residuals[i - 1]);
        config.code.len_bits(gap)
    }
}

fn write_intervals(w: &mut BitWriter, intervals: &[(NodeId, u32)], u: NodeId, config: &CgrConfig) {
    config.write_count(w, intervals.len() as u64);
    let mut prev_end: Option<NodeId> = None;
    for &(start, len) in intervals {
        match prev_end {
            None => config.write_first_gap(w, u, start),
            Some(pe) => config.write_interval_gap(w, pe, start),
        }
        config.write_interval_len(w, len);
        prev_end = Some(start + len - 1);
    }
}

/// Segmented layout prefix. Empty adjacency lists still write `itvNum = 0`
/// followed by `segNum = 0` so the layout stays self-describing.
fn write_intervals_header_first(
    w: &mut BitWriter,
    intervals: &[(NodeId, u32)],
    u: NodeId,
    config: &CgrConfig,
    _empty: bool,
) {
    write_intervals(w, intervals, u, config);
}

fn write_residual_run(w: &mut BitWriter, residuals: &[NodeId], u: NodeId, config: &CgrConfig) {
    let mut prev: Option<NodeId> = None;
    for &r in residuals {
        match prev {
            None => config.write_first_gap(w, u, r),
            Some(p) => config.write_residual_gap(w, p, r),
        }
        prev = Some(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::{toys, web_graph, WebParams};

    #[test]
    fn figure2_example_round_trips() {
        let g = toys::example_3_1();
        let cfg = CgrConfig {
            code: gcgt_bits::Code::Gamma,
            min_interval_len: Some(3),
            segment_len_bytes: None,
            ..CgrConfig::paper_default()
        };
        let cgr = CgrGraph::encode(&g, &cfg);
        assert_eq!(
            crate::decode::decode_node(&cgr, 16),
            vec![12, 18, 19, 20, 21, 24, 27, 28, 29, 101]
        );
        // The paper's unshifted illustration uses 55 bits; the Appendix C
        // shifts implemented here stay in the same ballpark.
        let (s, e) = cgr.node_range(16);
        assert!(e - s <= 64, "node 16 took {} bits", e - s);
    }

    #[test]
    fn offsets_are_monotone_and_cover_bits() {
        let g = web_graph(&WebParams::uk2002_like(500), 3);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let n = g.num_nodes();
        for u in 0..n {
            assert!(cgr.offset(u) <= cgr.offset(u + 1));
        }
        assert_eq!(cgr.offset(n), cgr.bits().len());
        assert_eq!(cgr.offsets_dense().len(), n + 1);
        // The succinct index undercuts the dense array it models.
        assert!(cgr.index_bytes() < (n + 1) * 8);
    }

    #[test]
    fn stats_edge_partition() {
        let g = web_graph(&WebParams::uk2002_like(800), 5);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let s = cgr.stats();
        assert_eq!(s.interval_edges + s.residual_edges, g.num_edges());
        assert!(
            s.interval_coverage() > 0.3,
            "web graph should be interval-rich"
        );
    }

    #[test]
    fn web_graph_beats_csr_by_a_lot() {
        let g = web_graph(&WebParams::uk2007_like(2000), 7);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        assert!(
            cgr.compression_rate() > 4.0,
            "rate {}",
            cgr.compression_rate()
        );
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let g = Csr::empty(10);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(cgr.num_nodes(), 10);
            for u in 0..10 {
                assert!(crate::decode::decode_node(&cgr, u).is_empty());
            }
        }
    }

    #[test]
    fn segmentation_pads_to_stride() {
        let mut edges = Vec::new();
        // One node with many scattered, irregularly spaced residuals so the
        // greedy packer cannot fill segments exactly.
        let mut v = 3u32;
        for i in 0..200u32 {
            edges.push((0, v));
            v += 2 + (i * i) % 13;
        }
        let g = Csr::from_edges(3000, &edges);
        let cfg = CgrConfig {
            segment_len_bytes: Some(8),
            ..CgrConfig::paper_default()
        };
        let cgr = CgrGraph::encode(&g, &cfg);
        assert!(
            cgr.stats().segments >= 2,
            "{} segments",
            cgr.stats().segments
        );
        assert!(cgr.stats().blank_bits > 0);
        assert_eq!(crate::decode::decode_node(&cgr, 0), g.neighbors(0));
    }

    #[test]
    fn autotune_pins_zeta3_on_paper_like_graphs() {
        // ζ3 — the paper's own choice — must win on both paper-like
        // generator families; the pin guards the cost model against
        // regressions that would silently skew every autotuned session.
        let web = web_graph(&WebParams::eu2015_like(2_000), 7);
        assert_eq!(CgrConfig::autotune(&web).code, gcgt_bits::Code::Zeta(3));
        let soc =
            gcgt_graph::gen::social_graph(&gcgt_graph::gen::SocialParams::twitter_like(2_000), 7);
        assert_eq!(CgrConfig::autotune(&soc).code, gcgt_bits::Code::Zeta(3));
        // Everything but the code stays at the paper defaults.
        let base = CgrConfig::paper_default();
        let tuned = CgrConfig::autotune(&web);
        assert_eq!(tuned.min_interval_len, base.min_interval_len);
        assert_eq!(tuned.segment_len_bytes, base.segment_len_bytes);
        assert_eq!(tuned.ref_window, base.ref_window);
    }

    #[test]
    fn autotune_follows_the_gap_distribution() {
        // All-gap-one adjacency (consecutive neighbours, but below the
        // interval threshold): every codeword value is tiny, where γ is
        // optimal — the tuner must not stay glued to ζ3.
        let mut edges = Vec::new();
        for u in 0..64u32 {
            for d in 1..=3u32 {
                edges.push((u, (u + d) % 64));
            }
        }
        let g = Csr::from_edges(64, &edges);
        assert_eq!(CgrConfig::autotune(&g).code, gcgt_bits::Code::Gamma);
        // Degenerate inputs pick *something* without panicking.
        let _ = CgrConfig::autotune(&Csr::empty(4));
        let _ = CgrConfig::autotune(&Csr::empty(0));
    }

    #[test]
    fn encoding_populates_the_advisory_histograms() {
        let g = web_graph(&WebParams::uk2002_like(800), 7);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let gaps: u64 = cgr.stats().gap_hist.iter().sum();
        let degs: u64 = cgr.stats().degree_hist.iter().sum();
        assert_eq!(degs, g.num_nodes() as u64, "one degree sample per node");
        assert_eq!(
            gaps,
            cgr.stats().residual_edges as u64,
            "one gap sample per residual"
        );
    }

    #[test]
    fn smaller_segments_waste_more_space() {
        let g = web_graph(&WebParams::uk2002_like(1200), 9);
        let bpe = |seg: Option<u32>| {
            let cfg = CgrConfig {
                segment_len_bytes: seg,
                ..CgrConfig::paper_default()
            };
            CgrGraph::encode(&g, &cfg).bits_per_edge()
        };
        let tiny = bpe(Some(8));
        let big = bpe(Some(128));
        let none = bpe(None);
        assert!(tiny >= big, "tiny {tiny} vs big {big}");
        assert!(big >= none * 0.99, "big {big} vs none {none}");
    }
}
