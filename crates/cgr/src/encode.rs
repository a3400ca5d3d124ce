//! The CGR encoder: CSR → compressed bit array + per-node bit offsets.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use crate::config::CgrConfig;
use crate::device_index::DeviceIndex;
use crate::intervals::{split_intervals, IntervalsResiduals};
use crate::stats::CompressionStats;
use gcgt_bits::{BitCount, BitVec, BitWriter, Code, CodeSink, DecodeTable, EliasFano};
use gcgt_graph::{Csr, NodeId};

/// A [`CgrConfig`] that cannot encode a particular graph: the offending
/// field and what it cannot represent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeError {
    /// The `CgrConfig` field at fault (`"code"` or `"segment_len_bytes"`).
    pub field: &'static str,
    /// Why that field cannot encode the graph.
    pub reason: String,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CgrConfig::{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for EncodeError {}

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
    /// The modeled on-device shape of `index`, derived from it once.
    device_index: DeviceIndex,
    num_edges: usize,
    stats: CompressionStats,
    table: Arc<DecodeTable>,
    /// `Some` while any node of a deferred-validation load is unchecked;
    /// clones share the state, so one worker validating a partition covers
    /// all of them.
    pending: Option<Arc<PendingValidation>>,
    /// Each node's out-degree once decoded (`u32::MAX`: not yet), shared by
    /// clones. Launch schedules ask for the degree of every work node, so a
    /// node's header is decoded once per graph rather than once per launch.
    degrees: Arc<[AtomicU32]>,
}

/// A degree memo for `n` nodes with none decoded yet.
fn unknown_degrees(n: usize) -> Arc<[AtomicU32]> {
    (0..n).map(|_| AtomicU32::new(u32::MAX)).collect()
}

impl CgrGraph {
    /// Encodes `graph` under `config`.
    ///
    /// # Panics
    /// Panics if `config` cannot encode `graph`; see
    /// [`CgrGraph::try_encode`].
    pub fn encode(graph: &Csr, config: &CgrConfig) -> CgrGraph {
        Self::try_encode(graph, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Encodes `graph` under `config`, or names the field that cannot
    /// encode it: a ζ code with `k = 0`, or a `segment_len_bytes` too short
    /// for one residual plus its segment's `resNum`. The check is the
    /// encode itself, so every config that can encode `graph` does.
    pub fn try_encode(graph: &Csr, config: &CgrConfig) -> Result<CgrGraph, EncodeError> {
        let n = graph.num_nodes();
        if n > 0 && config.code == Code::Zeta(0) {
            return Err(EncodeError {
                field: "code",
                reason: "a zeta code needs k >= 1".to_string(),
            });
        }
        let mut w = BitWriter::with_capacity(graph.num_edges() * 8);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut stats = CompressionStats {
            nodes: n,
            edges: graph.num_edges(),
            ..Default::default()
        };
        // Reference selection needs the chain depth of every earlier node
        // (a node may only be referenced while its own chain is short of
        // `ref_chain_limit`); with `ref_window == 0` nothing is selected and
        // the node writer omits the prologue, a v2 payload byte for byte.
        let mut chain_len = vec![0u32; if config.ref_window > 0 { n } else { 0 }];
        for u in 0..n as NodeId {
            offsets.push(w.len());
            let sel = (config.ref_window > 0)
                .then(|| select_reference(graph, u, config, &chain_len))
                .flatten();
            if let Some(s) = &sel {
                chain_len[u as usize] = chain_len[s.target as usize] + 1;
            }
            encode_node(
                &mut w,
                graph.neighbors(u),
                u,
                sel.as_ref(),
                config,
                &mut stats,
            )?;
        }
        offsets.push(w.len());
        stats.total_bits = w.len();
        let index = EliasFano::build(&offsets);
        Ok(CgrGraph {
            config: *config,
            bits: w.into_bitvec(),
            device_index: DeviceIndex::of(&index),
            index,
            num_edges: graph.num_edges(),
            stats,
            table: DecodeTable::shared(config.code),
            pending: None,
            degrees: unknown_degrees(n),
        })
    }

    /// Reassembles a graph from a loaded Elias–Fano index and (possibly
    /// shared, zero-copy) bit array. Outside tests its one caller is
    /// [`CgrGraph::from_shared`], after it has checked every part.
    /// `deferred` arms per-partition lazy validation: the graph starts with
    /// every node unchecked and [`CgrGraph::ensure_validated`] pays the
    /// structural scan on first touch.
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
            device_index: DeviceIndex::of(&index),
            index,
            num_edges,
            stats,
            table: DecodeTable::shared(config.code),
            pending,
            degrees: unknown_degrees(n),
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

    /// On-disk bytes of the Elias–Fano offset index (versus the
    /// [`CgrGraph::device_index`] it expands into on the device).
    #[inline]
    pub fn index_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// The modeled on-device offset index: its entry width, the bytes of
    /// any node range's slice and the addresses a `bitStart` read touches.
    #[inline]
    pub fn device_index(&self) -> &DeviceIndex {
        &self.device_index
    }

    /// Node `u`'s out-degree: remembered, or computed by `decode` on first
    /// request and remembered.
    pub(crate) fn memo_degree(&self, u: NodeId, decode: impl FnOnce() -> usize) -> usize {
        let slot = &self.degrees[u as usize];
        match slot.load(Ordering::Relaxed) {
            u32::MAX => {
                let degree = decode();
                if let Ok(known) = u32::try_from(degree) {
                    slot.store(known, Ordering::Relaxed);
                }
                degree
            }
            known => known as usize,
        }
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

    /// Modeled device-memory footprint: the bit array plus the whole
    /// two-level device offset index ([`DeviceIndex`]: a `u32` entry per
    /// node and the closing bound under a `u64` base per block, or dense
    /// `u64` entries when a block spans 2³² bits or more). The succinct
    /// on-disk index is [`CgrGraph::index_bytes`].
    pub fn size_bytes(&self) -> usize {
        self.bits.storage_bytes() + self.device_index.slice_bytes(0, self.num_nodes())
    }
}

/// Writes node `u` — the one writer of the CGR node layout,
/// `[degNum] · [refOffset · blocks] · itvNum · intervals · residuals |
/// segNum · segments`, for both layouts with and without the GCGR v3
/// reference prologue (present iff `ref_window > 0`). Copy blocks are
/// resolved **before** intervalization, as in WebGraph: the copied values
/// leave the list first, intervals are extracted from what remains, and the
/// leftover *corrections* form the residual stream. `degNum` stays the true
/// degree.
fn encode_node(
    w: &mut BitWriter,
    list: &[NodeId],
    u: NodeId,
    sel: Option<&RefSelection>,
    config: &CgrConfig,
    stats: &mut CompressionStats,
) -> Result<(), EncodeError> {
    let ir = match sel {
        None => split_intervals(list, config.min_interval_len),
        Some(s) => split_intervals(&subtract_sorted(list, &s.copied), config.min_interval_len),
    };
    stats.interval_edges += ir.degree() - ir.residuals.len();
    stats.residual_edges += ir.residuals.len();
    if let Some(s) = sel {
        stats.ref_nodes += 1;
        stats.ref_copy_blocks += s.blocks.len().div_ceil(2);
        stats.ref_copied_edges += s.copied.len();
    }
    let Some(seg_bits) = config.segment_len_bits() else {
        write_unsegmented(w, list.len(), &ir, u, sel, config);
        return Ok(());
    };
    // The segmented layout has no degNum, so an empty list still writes
    // its (reference prologue,) itvNum = 0 and segNum = 0.
    if config.ref_window > 0 {
        write_prologue(w, u, sel, config);
    }
    write_intervals(w, &ir.intervals, u, config);
    write_segments(w, &ir.residuals, u, seg_bits, config, stats)
}

/// The unsegmented node layout: `degNum`, then, for a non-empty list, the
/// reference prologue (iff `ref_window > 0`), the intervals and the residual
/// run. Generic over the sink, so the size models of reference selection and
/// [`CgrConfig::autotune`] run exactly this into a [`BitCount`].
fn write_unsegmented<S: CodeSink>(
    s: &mut S,
    degree: usize,
    ir: &IntervalsResiduals,
    u: NodeId,
    sel: Option<&RefSelection>,
    config: &CgrConfig,
) {
    config.write_count(s, degree as u64);
    if degree == 0 {
        return;
    }
    if config.ref_window > 0 {
        write_prologue(s, u, sel, config);
    }
    write_intervals(s, &ir.intervals, u, config);
    write_residual_run(s, None, &ir.residuals, u, config);
}

/// The GCGR v3 reference prologue: `refOffset` (0 = no reference) and,
/// when referencing, the alternating copy/skip block lengths.
fn write_prologue<S: CodeSink>(
    s: &mut S,
    u: NodeId,
    sel: Option<&RefSelection>,
    config: &CgrConfig,
) {
    match sel {
        None => config.write_ref_offset(s, 0),
        Some(r) => {
            config.write_ref_offset(s, u64::from(u - r.target));
            config.write_count(s, r.blocks.len() as u64);
            for &len in &r.blocks {
                config.write_block_len(s, len);
            }
        }
    }
}

fn write_intervals<S: CodeSink>(
    s: &mut S,
    intervals: &[(NodeId, u32)],
    u: NodeId,
    config: &CgrConfig,
) {
    config.write_count(s, intervals.len() as u64);
    let mut prev_end: Option<NodeId> = None;
    for &(start, len) in intervals {
        match prev_end {
            None => config.write_first_gap(s, u, start),
            Some(pe) => config.write_interval_gap(s, pe, start),
        }
        config.write_interval_len(s, len);
        prev_end = Some(start + len - 1);
    }
}

/// A residual run as gaps. Its first residual is re-based on `u`, unless
/// the run continues one that ended at `prev`.
fn write_residual_run<S: CodeSink>(
    s: &mut S,
    mut prev: Option<NodeId>,
    residuals: &[NodeId],
    u: NodeId,
    config: &CgrConfig,
) {
    for &r in residuals {
        match prev {
            None => config.write_first_gap(s, u, r),
            Some(p) => config.write_residual_gap(s, p, r),
        }
        prev = Some(r);
    }
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
/// `seg_bits`, each a residual run (re-based on `u`) behind its own
/// `resNum`; under a reference, the residuals are the corrections.
///
/// Greedy packing closes a segment when its next residual would not fit,
/// counting the segment's codewords with the same writers. The final
/// segment absorbs the open tail, so it spans 1–2× segLen and no segment
/// is a trailing short one. A non-last segment that still overflows holds
/// one residual too wide for `seg_bits`: the config cannot encode this node.
fn write_segments(
    w: &mut BitWriter,
    residuals: &[NodeId],
    u: NodeId,
    seg_bits: usize,
    config: &CgrConfig,
    stats: &mut CompressionStats,
) -> Result<(), EncodeError> {
    let mut starts = Vec::new(); // first residual of each closed segment
    let (mut start, mut body) = (0, BitCount::default());
    for i in 0..residuals.len() {
        let next = &residuals[i..=i];
        let mut grown = body;
        write_residual_run(
            &mut grown,
            (i > start).then(|| residuals[i - 1]),
            next,
            u,
            config,
        );
        let mut res_num = BitCount::default();
        config.write_count(&mut res_num, (i - start + 1) as u64);
        if i > start && res_num.0 + grown.0 > seg_bits as u64 {
            starts.push(start);
            (start, body) = (i, BitCount::default());
            write_residual_run(&mut body, None, next, u, config);
        } else {
            body = grown;
        }
    }
    if starts.is_empty() && !residuals.is_empty() {
        starts.push(0);
    }
    config.write_count(w, starts.len() as u64);
    stats.segments += starts.len();
    let ends = starts.iter().skip(1).copied().chain([residuals.len()]);
    for (&first, end) in starts.iter().zip(ends) {
        let seg_start = w.len();
        config.write_count(w, (end - first) as u64);
        write_residual_run(w, None, &residuals[first..end], u, config);
        let used = w.len() - seg_start;
        if end < residuals.len() {
            // Non-last segments are padded to exactly segLen.
            if used > seg_bits {
                return Err(EncodeError {
                    field: "segment_len_bytes",
                    reason: format!(
                        "a residual segment of node {u} needs {used} bits but segLen is \
                         {seg_bits} bits"
                    ),
                });
            }
            stats.blank_bits += seg_bits - used;
            w.push_zeros((seg_bits - used) as u32);
        }
    }
    Ok(())
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

/// Greedy best-candidate reference selection for node `u`. Every window
/// candidate `t ∈ [u − ref_window, u)` whose chain is still short of
/// `ref_chain_limit` is priced by running the node writer itself into a
/// [`BitCount`] — the copy blocks plus the re-intervalized remainder, against
/// the same node with no reference — and the cheapest strictly-cheaper
/// candidate wins (ties go to the farthest candidate). Both sides are priced
/// on the unsegmented layout; for segmented configs that is a heuristic
/// (padding and per-segment re-basing shift the true cost), which only ever
/// costs ratio, never correctness.
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
    let cost = |sel: Option<&RefSelection>, remaining: &[NodeId]| {
        let mut bits = BitCount::default();
        let ir = split_intervals(remaining, config.min_interval_len);
        write_unsegmented(&mut bits, list.len(), &ir, u, sel, config);
        bits.0
    };
    let mut best = (cost(None, list), None);
    for t in u.saturating_sub(config.ref_window)..u {
        if chain_len[t as usize] >= config.ref_chain_limit {
            continue;
        }
        let (blocks, copied) = copy_blocks(graph.neighbors(t), list);
        if copied.is_empty() {
            continue;
        }
        let sel = RefSelection {
            target: t,
            blocks,
            copied,
        };
        let bits = cost(Some(&sel), &subtract_sorted(list, &sel.copied));
        if bits < best.0 {
            best = (bits, Some(sel));
        }
    }
    best.1
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

/// The candidate codes [`CgrConfig::autotune`] scores, in tie-break order.
const AUTOTUNE_CANDIDATES: [Code; 6] = [
    Code::Gamma,
    Code::Delta,
    Code::Zeta(2),
    Code::Zeta(3),
    Code::Zeta(4),
    Code::Zeta(5),
];

impl CgrConfig {
    /// Picks the VLC code that minimizes the encoded size of `graph` —
    /// per-dataset code autotuning, the compress-time analogue of
    /// WebGraph's per-corpus ζ-parameter choice.
    ///
    /// Each candidate in γ, δ, ζ2…ζ5 is priced by running the unsegmented
    /// node writer, with no reference, into a [`BitCount`] under
    /// [`CgrConfig::paper_default`]'s interval threshold: the exact size of
    /// the v2 unsegmented stream under that code. Segment padding and
    /// reference selection stay outside the model: padding is
    /// code-independent to first order, and reference choices themselves
    /// depend on the code. Ties go to the earlier candidate, γ first.
    ///
    /// Returns [`CgrConfig::paper_default`] with the winning code; chain
    /// the layout/reference knobs after (`strategy.cgr_config(..)`,
    /// [`CgrConfig::with_ref_window`]).
    pub fn autotune(graph: &Csr) -> CgrConfig {
        let base = CgrConfig::paper_default();
        let candidates = AUTOTUNE_CANDIDATES.map(|code| CgrConfig { code, ..base });
        let mut bits = [BitCount::default(); AUTOTUNE_CANDIDATES.len()];
        for u in 0..graph.num_nodes() as NodeId {
            let list = graph.neighbors(u);
            let ir = split_intervals(list, base.min_interval_len);
            for (sink, config) in bits.iter_mut().zip(&candidates) {
                write_unsegmented(sink, list.len(), &ir, u, None, config);
            }
        }
        candidates
            .into_iter()
            .zip(bits)
            .min_by_key(|(_, bits)| bits.0)
            .map_or(base, |(config, _)| config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig, Strategy};

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

    #[test]
    fn try_encode_names_the_field_a_config_cannot_encode() {
        let g = web_graph(&WebParams::uk2002_like(2_000), 1);
        let with = |segment_len_bytes, code| CgrConfig {
            code,
            segment_len_bytes,
            ..CgrConfig::paper_default()
        };
        let zeta3 = gcgt_bits::Code::Zeta(3);
        for s in 0..3 {
            let e = CgrGraph::try_encode(&g, &with(Some(s), zeta3)).unwrap_err();
            assert_eq!(e.field, "segment_len_bytes", "{e}");
        }
        // The check is the encode itself, not a floor: three bytes suffice.
        assert!(CgrGraph::try_encode(&g, &with(Some(3), zeta3)).is_ok());
        let e = CgrGraph::try_encode(&g, &with(None, gcgt_bits::Code::Zeta(0))).unwrap_err();
        assert_eq!(e.field, "code", "{e}");
        assert!(
            CgrGraph::try_encode(&Csr::empty(0), &with(None, gcgt_bits::Code::Zeta(0))).is_ok()
        );
    }

    /// A small graph mixing consecutive runs (intervals) and scattered
    /// targets (residuals, reference overlap), and an unsegmented config.
    fn graph_and_config() -> impl Strategy<Value = (Csr, CgrConfig)> {
        (
            (
                1u32..90,
                proptest::collection::vec((0u32..1_000, 0u32..1_000, 0u8..3), 0..700),
            ),
            (0usize..7, 0u32..6, 0u32..12, 0u32..4),
        )
            .prop_map(|((n, raw), (code, min, ref_window, ref_chain_limit))| {
                let edges: Vec<(NodeId, NodeId)> = raw
                    .iter()
                    .map(|&(a, b, near)| (a % n, if near > 0 { (a + b % 6) % n } else { b % n }))
                    .collect();
                let config = CgrConfig {
                    code: [
                        gcgt_bits::Code::Gamma,
                        gcgt_bits::Code::Delta,
                        gcgt_bits::Code::Zeta(1),
                        gcgt_bits::Code::Zeta(2),
                        gcgt_bits::Code::Zeta(3),
                        gcgt_bits::Code::Zeta(5),
                        gcgt_bits::Code::Zeta(8),
                    ][code],
                    min_interval_len: (min > 0).then_some(min),
                    segment_len_bytes: None,
                    ref_window,
                    ref_chain_limit,
                };
                (Csr::from_edges(n as usize, &edges), config)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The size model is exact: running a node's writer into a
        /// `BitCount` measures exactly the bits the encoder wrote for it.
        #[test]
        fn bit_count_of_each_node_is_its_encoded_width(case in graph_and_config()) {
            let (g, config) = case;
            let cgr = CgrGraph::encode(&g, &config);
            for u in 0..g.num_nodes() as NodeId {
                let list = g.neighbors(u);
                let sel = cgr.ref_target(u).map(|target| {
                    let (blocks, copied) = copy_blocks(g.neighbors(target), list);
                    RefSelection { target, blocks, copied }
                });
                let remaining = match &sel {
                    None => list.to_vec(),
                    Some(s) => subtract_sorted(list, &s.copied),
                };
                let ir = split_intervals(&remaining, config.min_interval_len);
                let mut bits = BitCount::default();
                write_unsegmented(&mut bits, list.len(), &ir, u, sel.as_ref(), &config);
                prop_assert_eq!(bits.0 as usize, cgr.offset(u as usize + 1) - cgr.offset(u as usize));
            }
        }
    }
}
