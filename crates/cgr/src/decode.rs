//! The one parser of the CGR node layout, and the serial decoders built
//! on it.
//!
//! The node format —
//! `[degNum] · [refOffset · blocks] · itvNum · intervals · residuals | segNum · segments`
//! — is spelled out exactly once, in [`NodeCursor`]: a field-level reader
//! whose every step is checked against the node's bit range, the node count
//! and the format's own invariants (interval coverage within `degNum`,
//! strictly ascending residuals, backward bounded references), and returns a
//! typed error instead of panicking. Everything else that walks a node is a
//! face of that cursor:
//!
//! * **streaming** — [`NeighborScanner`], one neighbour per call with the
//!   branch class that produced it (the pull kernel's early-exit primitive
//!   and, through [`validate_range`], the structural validator of untrusted
//!   payloads). It owns only emission state: the current interval run, the
//!   segment counter, and the multi-gap [`PackedRun`] lookahead whose raw
//!   values it hands back to the cursor for checking.
//! * **bulk** — [`decode_node_unsorted`] / [`decode_all`] /
//!   [`decode_degree`]: a loop over the cursor, one `extend` per interval
//!   and one run per residual stretch, with no per-neighbour state machine.
//! * **kernels** — `gcgt-core`'s `LaneCursor` wraps the same cursor, so the
//!   validator and the simulated kernels cannot disagree about a payload:
//!   what [`validate_structure`] accepts, every consumer decodes without
//!   panicking.
//!
//! The cursor is also the only code that turns a codeword into a field
//! value: it decodes through the graph's [`DecodeTable`](gcgt_bits::DecodeTable)
//! and applies the field's `CgrConfig::map_*` shift, and
//! [`NodeCursor::take_residual`] checks the raw values the scanner and the
//! warp-centric kernel decode themselves. Trusted callers (encode output,
//! validated loads) `expect` the cursor's results; untrusted bytes go
//! through the `try_*` scanner face. The tests' slow oracle is
//! `Code::decode_at` followed by the same shift.

use crate::config::CgrConfig;
use crate::encode::CgrGraph;
use gcgt_bits::{Code, PackedRun};
use gcgt_graph::{Csr, NodeId};

/// What a trusted caller's `expect` says when the cursor reports an error.
const INVALID: &str = "structurally invalid CGR payload";

/// Builds an error out of line, keeping the formatting machinery off the
/// decoders' hot paths.
#[cold]
#[inline(never)]
fn fail<T>(msg: impl FnOnce() -> String) -> Result<T, String> {
    Err(msg())
}

/// Parsed reference prologue of a GCGR v3 node: the backward target and the
/// alternating copy/skip block lengths over its full adjacency.
struct RefPrologue {
    target: NodeId,
    blocks: Vec<u64>,
}

impl RefPrologue {
    /// Values the copy (even-indexed) blocks select — the node's copied
    /// count, known without chasing the reference.
    fn copied_count(&self) -> u64 {
        let copies = self.blocks.iter().step_by(2);
        copies.fold(0, |n, &len| n.saturating_add(len))
    }

    /// The copied values: the target's full adjacency (its own chain
    /// chased within `depth_left` further hops), sorted, through the
    /// copy blocks.
    fn materialize(&self, cgr: &CgrGraph, depth_left: u32) -> Result<Vec<NodeId>, String> {
        let Some(depth_left) = depth_left.checked_sub(1) else {
            return Err(format!(
                "reference chain exceeds ref_chain_limit {}",
                cgr.config().ref_chain_limit
            ));
        };
        let mut full = Vec::new();
        NodeCursor::open_with_depth(cgr, self.target, depth_left)
            .and_then(|mut t| t.drain_into(&mut full))
            .map_err(|e| format!("referenced node {}: {e}", self.target))?;
        full.sort_unstable();
        copied_from_blocks(&full, &self.blocks)
    }
}

/// Field-level, bounds-checked reader of one node's compressed adjacency —
/// the only code that knows the CGR node layout (either layout, with or
/// without the v3 reference prologue).
///
/// [`NodeCursor::open`] consumes the header (`[degNum]`, reference
/// prologue, `itvNum`) and materializes the copied values; after that the
/// fields are read in storage order: [`next_interval`](Self::next_interval)
/// while [`intervals_left`](Self::intervals_left), then the copied values,
/// then the residuals — one run of [`residuals_left`](Self::residuals_left)
/// on the unsegmented layout, or per segment
/// ([`read_seg_num`](Self::read_seg_num) →
/// [`seek_segment`](Self::seek_segment) →
/// [`read_res_num`](Self::read_res_num)) on the segmented one. Segments are
/// independent, so a clone per segment decodes them in any interleaving.
#[derive(Clone, Debug)]
pub struct NodeCursor<'a> {
    cgr: &'a CgrGraph,
    u: NodeId,
    pos: usize,
    end: usize,
    /// `degNum` — the unsegmented layout only; the segmented one has none.
    deg_num: Option<u64>,
    itv_left: u64,
    prev_itv_end: Option<NodeId>,
    /// Residuals left in the current run: `degNum` minus copied values and
    /// interval coverage (unsegmented), or what is left of the segment
    /// entered by [`NodeCursor::read_res_num`].
    res_left: u64,
    prev_res: Option<NodeId>,
    /// Values copied from the referenced node's list (GCGR v3), not yet
    /// emitted; empty without a reference.
    copied: std::vec::IntoIter<NodeId>,
    /// Start of the fixed-stride segment area, set by `read_seg_num`.
    seg_base: usize,
    /// The node's bit range is empty: no neighbours and no header at all.
    empty: bool,
}

// The field reads are `#[inline(always)]` on measurement: a
// `Result<_, String>` is 24 bytes and travels through memory unless the
// bulk loop sees through the call (per-node decode 0.77x → 0.92x of the
// hand-rolled readers this cursor replaced). Error construction is kept out
// of line ([`fail`]) for the same reason.
impl<'a> NodeCursor<'a> {
    /// Opens node `u`: reads its header and chases its reference chain
    /// within the configured `ref_chain_limit`.
    #[inline(always)]
    pub fn open(cgr: &'a CgrGraph, u: NodeId) -> Result<Self, String> {
        Self::open_with_depth(cgr, u, cgr.config().ref_chain_limit)
    }

    /// [`NodeCursor::open`] with an explicit remaining reference depth.
    /// Materializing a referenced list re-enters here with
    /// `depth_left - 1`, so a chain longer than `ref_chain_limit` bottoms
    /// out as a typed error — which, with references strictly backward
    /// (acyclic by construction), bounds the work on untrusted data.
    #[inline(always)]
    fn open_with_depth(cgr: &'a CgrGraph, u: NodeId, depth_left: u32) -> Result<Self, String> {
        let mut c = Self::at(cgr, u);
        if let Some(pro) = c.read_header()? {
            let copied = pro.materialize(cgr, depth_left)?;
            c.debit(copied.len() as u64, "copied values")?;
            c.copied = copied.into_iter();
        }
        Ok(c)
    }

    /// Positions on node `u` with nothing read yet.
    #[inline(always)]
    fn at(cgr: &'a CgrGraph, u: NodeId) -> Self {
        let (start, end) = cgr.node_range(u);
        NodeCursor {
            cgr,
            u,
            pos: start,
            end,
            deg_num: cgr.config().segment_len_bytes.is_none().then_some(0),
            itv_left: 0,
            prev_itv_end: None,
            res_left: 0,
            prev_res: None,
            copied: Vec::new().into_iter(),
            seg_base: start,
            empty: start == end,
        }
    }

    /// Reads `degNum` where the layout has one. Returns whether a reference
    /// prologue and `itvNum` follow: an empty bit range or `degNum` 0 ends
    /// the node right there.
    #[inline(always)]
    fn read_deg_num(&mut self) -> Result<bool, String> {
        if !self.empty && self.deg_num.is_some() {
            self.res_left = self.read("degNum", CgrConfig::map_count)?;
            self.deg_num = Some(self.res_left);
        }
        Ok(!self.empty && self.deg_num != Some(0))
    }

    /// Reads the header fields without chasing the reference: the cursor
    /// ends up on the first interval, with no copied values.
    #[inline(always)]
    fn read_header(&mut self) -> Result<Option<RefPrologue>, String> {
        if !self.read_deg_num()? {
            return Ok(None);
        }
        let mut pro = None;
        if let Some(target) = self.read_ref_target()? {
            let block_num = self.read("blockNum", CgrConfig::map_count)?;
            let mut blocks = Vec::with_capacity((block_num as usize).min(1 << 10));
            for _ in 0..block_num {
                blocks.push(self.read("copy-block length", CgrConfig::map_count)?);
            }
            pro = Some(RefPrologue { target, blocks });
        }
        self.itv_left = self.read("itvNum", CgrConfig::map_count)?;
        if self.itv_left > 0 && self.cgr.config().min_interval_len.is_none() {
            let n = self.itv_left;
            return fail(|| format!("itvNum {n} but intervals are disabled"));
        }
        Ok(pro)
    }

    /// Reads `refOffset` (only present with `ref_window > 0`); `None` on
    /// offset 0. Rejects forward/self references (an offset reaching past
    /// node 0) and an offset wider than `ref_window`.
    #[inline(always)]
    fn read_ref_target(&mut self) -> Result<Option<NodeId>, String> {
        let window = self.cgr.config().ref_window;
        if window == 0 {
            return Ok(None);
        }
        // γ-coded whatever the config code (see `CgrConfig::write_ref_offset`),
        // so it bypasses the config-code table.
        let raw = Code::Gamma.decode_at(self.cgr.bits(), self.pos);
        let offset = self.accept("refOffset", raw, CgrConfig::map_count)?;
        if offset == 0 {
            return Ok(None);
        }
        let u = self.u;
        let Some(target) = u64::from(u).checked_sub(offset) else {
            return fail(|| format!("forward/self reference: offset {offset} escapes node {u}"));
        };
        if offset > u64::from(window) {
            return fail(|| format!("reference offset {offset} exceeds ref_window {window}"));
        }
        Ok(Some(target as NodeId))
    }

    /// One checked field read at the current position: a codeword decoded
    /// through the graph's decode table, shifted into the field's value by
    /// `map` (a `CgrConfig::map_*`).
    #[inline(always)]
    fn read<T>(&mut self, what: &str, map: impl FnOnce(u64) -> Option<T>) -> Result<T, String> {
        let raw = self.cgr.table().decode_at(self.cgr.bits(), self.pos);
        self.accept(what, raw, map)
    }

    /// Shifts the codeword `raw` decoded at the current position and moves
    /// past it: the read must start inside the node's bit range, decode
    /// and shift, and end inside the range.
    #[inline(always)]
    fn accept<T>(
        &mut self,
        what: &str,
        raw: Option<(u64, usize)>,
        map: impl FnOnce(u64) -> Option<T>,
    ) -> Result<T, String> {
        match raw.and_then(|(v, p)| Some((map(v)?, p))) {
            Some((v, p)) if p <= self.end => {
                self.pos = p;
                Ok(v)
            }
            read => Err(self.read_error(what, read.is_some())),
        }
    }

    /// Why a read at the current position failed; `decoded` tells a
    /// codeword that ran past the range from one that did not decode.
    #[cold]
    #[inline(never)]
    fn read_error(&self, what: &str, decoded: bool) -> String {
        if self.pos >= self.end {
            format!("{what} read starts past the node's bit range")
        } else if decoded {
            format!("{what} codeword runs past the node's bit range")
        } else {
            format!("truncated {what} codeword")
        }
    }

    /// Unsegmented layout: takes `n` neighbours (an interval, the copied
    /// values) out of the `degNum` budget, so what is left is the residual
    /// count. Coverage beyond `degNum` is the typed error that keeps a
    /// degree-driven and an `itvNum`-driven consumer from disagreeing.
    #[inline(always)]
    fn debit(&mut self, n: u64, what: &str) -> Result<(), String> {
        if let Some(deg) = self.deg_num {
            match self.res_left.checked_sub(n) {
                Some(left) => self.res_left = left,
                None => return fail(|| format!("{what} overrun degNum {deg}")),
            }
        }
        Ok(())
    }

    /// The node this cursor reads.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.u
    }

    /// Current bit position (the paper's `bitPtr`).
    #[inline]
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Decoded `degNum`; `None` on the segmented layout, which stores none.
    #[inline]
    pub fn deg_num(&self) -> Option<u64> {
        self.deg_num
    }

    /// Intervals not yet decoded.
    #[inline]
    pub fn intervals_left(&self) -> u64 {
        self.itv_left
    }

    /// Decodes the next interval `(start, len)`: first gap relative to the
    /// node, later gaps relative to the previous interval's end.
    #[inline(always)]
    pub fn next_interval(&mut self) -> Result<(NodeId, u32), String> {
        if self.itv_left == 0 {
            return fail(|| "interval read past itvNum".into());
        }
        let (u, cgr) = (self.u, self.cgr);
        let start = match self.prev_itv_end {
            None => self.read("interval start", |v| CgrConfig::map_first_gap(u, v))?,
            Some(pe) => self.read("interval gap", |v| CgrConfig::map_interval_gap(pe, v))?,
        };
        let len = self.read("interval len", |v| cgr.config().map_interval_len(v))?;
        if len == 0 {
            return fail(|| "zero-length interval".into());
        }
        // Monotonicity across intervals is enforced by the gap shift itself
        // (gap >= 2); a u32 wrap lands the run out of range and trips here.
        let last = u64::from(start) + u64::from(len) - 1;
        if last >= self.cgr.num_nodes() as u64 {
            return fail(|| format!("interval [{start}; {len}] out of range"));
        }
        self.debit(u64::from(len), "intervals")?;
        self.itv_left -= 1;
        self.prev_itv_end = Some(last as NodeId);
        Ok((start, len))
    }

    /// Copied (reference-materialized) values not yet emitted.
    #[inline]
    pub fn copied_left(&self) -> u64 {
        self.copied.len() as u64
    }

    /// The next copied value — they sit between the interval and the
    /// residual area in storage order and cost no bit read.
    #[inline]
    pub fn next_copied(&mut self) -> Option<NodeId> {
        self.copied.next()
    }

    /// Residuals left in the current run (the whole residual area on the
    /// unsegmented layout once the intervals are decoded; the entered
    /// segment on the segmented one).
    #[inline]
    pub fn residuals_left(&self) -> u64 {
        self.res_left
    }

    /// Decodes the next residual of the current run.
    #[inline(always)]
    pub fn next_residual(&mut self) -> Result<NodeId, String> {
        let Some((raw, p)) = self.cgr.table().decode_at(self.cgr.bits(), self.pos) else {
            return fail(|| self.read_error("residual", false));
        };
        self.take_residual(raw, p)
    }

    /// Accepts one residual whose raw codeword value was decoded by the
    /// caller (the scanner's multi-gap probe, the warp-centric window) from
    /// the current position up to `next_pos`: applies the gap — sign-folded
    /// and relative to the node for the first of a run, plain thereafter —
    /// and every check [`NodeCursor::next_residual`] makes.
    #[inline(always)]
    pub fn take_residual(&mut self, raw: u64, next_pos: usize) -> Result<NodeId, String> {
        if self.res_left == 0 {
            return fail(|| "residual read past the run's count".into());
        }
        let Some(r) = (match self.prev_res {
            None => CgrConfig::map_first_gap(self.u, raw),
            Some(prev) => CgrConfig::map_residual_gap(prev, raw),
        }) else {
            return fail(|| "truncated residual codeword".into());
        };
        if self.pos >= self.end || next_pos > self.end {
            return fail(|| self.read_error("residual", true));
        }
        self.pos = next_pos;
        if r as usize >= self.cgr.num_nodes() {
            return fail(|| format!("decoded neighbour {r} out of range"));
        }
        if let Some(prev) = self.prev_res {
            if r <= prev {
                return fail(|| format!("non-monotonic residual {r} after {prev}"));
            }
        }
        self.prev_res = Some(r);
        self.res_left -= 1;
        Ok(r)
    }

    /// Whether the node's bit range is empty (no neighbours, no header).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Segmented layout, after the intervals: reads `segNum` and pins the
    /// segment area's base. An empty node has no segment area.
    #[inline(always)]
    pub fn read_seg_num(&mut self) -> Result<u64, String> {
        if self.is_empty() {
            return Ok(0);
        }
        let seg_num = self.read("segNum", CgrConfig::map_count)?;
        self.seg_base = self.pos;
        Ok(seg_num)
    }

    /// Jumps to the header of segment `s` (fixed stride from the base).
    #[inline(always)]
    pub fn seek_segment(&mut self, s: u64) -> Result<(), String> {
        let stride = self.cgr.config().segment_len_bits().unwrap_or(0) as u64;
        let pos = s
            .checked_mul(stride)
            .and_then(|off| off.checked_add(self.seg_base as u64));
        match pos {
            Some(pos) if pos < self.end as u64 => {
                self.pos = pos as usize;
                self.res_left = 0;
                Ok(())
            }
            _ => fail(|| format!("segment {s} lies past the node's bit range")),
        }
    }

    /// Reads the segment's `resNum` and starts its residual run (first
    /// residual re-based on the node).
    #[inline(always)]
    pub fn read_res_num(&mut self) -> Result<u64, String> {
        self.res_left = self.read("resNum", CgrConfig::map_count)?;
        self.prev_res = None;
        Ok(self.res_left)
    }

    /// Bulk face: appends everything not yet read, in storage order —
    /// one `extend` per interval, the copied values, one run per residual
    /// stretch.
    #[inline]
    fn drain_into(&mut self, out: &mut Vec<NodeId>) -> Result<(), String> {
        while self.itv_left > 0 {
            let (start, len) = self.next_interval()?;
            out.extend(start..=start + (len - 1));
        }
        out.extend(&mut self.copied);
        if self.deg_num.is_some() {
            return self.drain_run(out);
        }
        for s in 0..self.read_seg_num()? {
            self.seek_segment(s)?;
            self.read_res_num()?;
            self.drain_run(out)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn drain_run(&mut self, out: &mut Vec<NodeId>) -> Result<(), String> {
        // Every residual takes at least one bit, so the hint is bounded by
        // the node's own size whatever the (untrusted) count says.
        out.reserve(self.res_left.min((self.end - self.pos) as u64) as usize);
        while self.res_left > 0 {
            out.push(self.next_residual()?);
        }
        Ok(())
    }

    /// Header-only degree: `degNum`, or — the segmented layout has none —
    /// interval lengths plus the copy blocks' count plus every `resNum`.
    fn degree(cgr: &'a CgrGraph, u: NodeId) -> Result<u64, String> {
        let mut c = Self::at(cgr, u);
        let pro = c.read_header()?;
        if let Some(deg) = c.deg_num {
            return Ok(deg);
        }
        let mut total = pro.map_or(0, |p| p.copied_count());
        while c.itv_left > 0 {
            total = total.saturating_add(u64::from(c.next_interval()?.1));
        }
        for s in 0..c.read_seg_num()? {
            c.seek_segment(s)?;
            total = total.saturating_add(c.read_res_num()?);
        }
        Ok(total)
    }

    /// Header-only `segNum` (0 on the unsegmented layout): the header and
    /// intervals are read, the reference chain is not chased.
    fn seg_num(cgr: &'a CgrGraph, u: NodeId) -> Result<u64, String> {
        let mut c = Self::at(cgr, u);
        c.read_header()?;
        if c.deg_num.is_some() {
            return Ok(0);
        }
        while c.itv_left > 0 {
            c.next_interval()?;
        }
        c.read_seg_num()
    }

    /// The node `u` references, read off its header without chasing
    /// anything; `None` without a reference or on a malformed header.
    pub(crate) fn ref_target(cgr: &'a CgrGraph, u: NodeId) -> Option<NodeId> {
        let mut c = Self::at(cgr, u);
        match c.read_deg_num() {
            Ok(true) => c.read_ref_target().ok()?,
            _ => None,
        }
    }
}

/// Applies alternating copy/skip `blocks` to the referenced node's full
/// sorted adjacency, returning the copied values (ascending). A block span
/// exceeding the referenced degree is the copy-block-overrun corruption
/// error (lengths are untrusted: the span saturates instead of wrapping).
fn copied_from_blocks(full: &[NodeId], blocks: &[u64]) -> Result<Vec<NodeId>, String> {
    let span = blocks.iter().fold(0u64, |n, &len| n.saturating_add(len));
    if span > full.len() as u64 {
        return Err(format!(
            "copy blocks span {span} values but the referenced adjacency holds {}",
            full.len()
        ));
    }
    let mut copied = Vec::new();
    let mut i = 0usize;
    for (bi, &len) in blocks.iter().enumerate() {
        let len = len as usize;
        if bi % 2 == 0 {
            copied.extend_from_slice(&full[i..i + len]);
        }
        i += len;
    }
    Ok(copied)
}

/// Decodes node `u`'s adjacency list, sorted ascending.
pub fn decode_node(cgr: &CgrGraph, u: NodeId) -> Vec<NodeId> {
    let mut out = decode_node_unsorted(cgr, u);
    out.sort_unstable();
    out
}

/// Decodes node `u`'s adjacency in storage order (intervals first, then
/// copied values, then residuals — the order the kernels emit).
pub fn decode_node_unsorted(cgr: &CgrGraph, u: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut c = NodeCursor::open(cgr, u).expect(INVALID);
    c.drain_into(&mut out).expect(INVALID);
    out
}

/// Decodes the degree of node `u` without materializing neighbours (and
/// without chasing its reference chain), once per graph: later calls read
/// the remembered value.
pub fn decode_degree(cgr: &CgrGraph, u: NodeId) -> usize {
    cgr.memo_degree(u, || NodeCursor::degree(cgr, u).expect(INVALID) as usize)
}

/// Decodes the number of residual segments of node `u` (0 on the
/// unsegmented layout) without materializing neighbours.
pub fn decode_seg_num(cgr: &CgrGraph, u: NodeId) -> usize {
    NodeCursor::seg_num(cgr, u).expect(INVALID) as usize
}

/// Decodes the whole graph back into CSR form (round-trip oracle).
pub fn decode_all(cgr: &CgrGraph) -> Csr {
    decode_rows(cgr, |_| true)
}

/// Decodes every node whose payload proves structurally sound into a CSR
/// mirror, validating deferred-load nodes along the way (bitwise
/// [`decode_all`] for eager loads and fresh encodes, which carry no pending
/// validation). Nodes inside a corrupt region contribute no edges; the
/// first validation error — if any — is returned alongside the degraded
/// mirror so the caller decides whether partial soundness is acceptable (a
/// streaming out-of-core session, which re-checks lazily and fails the
/// touching query with a typed error) or fatal (anything that would decode
/// the corrupt payload unchecked).
pub fn decode_all_validated(cgr: &CgrGraph) -> (Csr, Option<String>) {
    let mut first_error = None;
    let csr = decode_rows(cgr, |u| {
        match cgr.ensure_validated(u as usize, u as usize + 1) {
            Ok(()) => true,
            Err(e) => {
                first_error.get_or_insert(e);
                false
            }
        }
    });
    (csr, first_error)
}

/// The CSR of every node `keep` accepts (in id order; a rejected node's row
/// is empty): each node's cursor drains straight into one column vector,
/// its row closes at the column count, and [`Csr::from_rows`] sorts and
/// deduplicates each row in place — no pair list, no counting pass.
fn decode_rows(cgr: &CgrGraph, mut keep: impl FnMut(NodeId) -> bool) -> Csr {
    let n = cgr.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut cols = Vec::with_capacity(cgr.num_edges());
    offsets.push(0);
    for u in 0..n as NodeId {
        if keep(u) {
            let mut c = NodeCursor::open(cgr, u).expect(INVALID);
            c.drain_into(&mut cols).expect(INVALID);
        }
        offsets.push(cols.len());
    }
    Csr::from_rows((offsets, cols))
}

/// What producing the next neighbour cost the decoder — the branch classes a
/// pull-mode kernel serializes into warp steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeStep {
    /// Decoded an interval gap plus length (two codewords).
    IntervalStart,
    /// Continued inside an interval run — register arithmetic, no codeword.
    IntervalRun,
    /// Decoded one residual gap codeword (per-segment `resNum` headers are
    /// folded into the first residual of each segment).
    Residual,
    /// First neighbour copied from a referenced node's list (GCGR v3): the
    /// decoder chased the reference chain and materialized the copied
    /// values to produce it. Simulated kernels charge this as
    /// `OpClass::RefChase`.
    RefChase,
    /// Subsequent neighbour copied from the referenced list — array
    /// traffic over the already-materialized copy, no codeword decode
    /// (like [`DecodeStep::IntervalRun`]).
    CopyBlock,
}

/// Streaming face of [`NodeCursor`] over **either** CGR layout with O(1)
/// work per neighbour — the early-exit primitive of direction-optimizing
/// traversal: a pull pass stops consuming at the first frontier parent
/// instead of materializing the whole adjacency list, and the saving is
/// exactly the neighbours never decoded.
///
/// Every field goes through the checked cursor, so the same machinery backs
/// [`validate_structure`] (and through it [`CgrGraph::from_shared`]'s
/// structural validation of untrusted payloads).
/// [`NeighborScanner::next_with_step`] reports the branch class of each
/// neighbour so simulated kernels can charge the right warp-step cost; the
/// plain [`Iterator`] face yields neighbours only.
///
/// Residual *runs* are decoded through the multi-gap probe — up to
/// [`gcgt_bits::MAX_PACKED`] consecutive short gap codewords per probe,
/// buffered here and handed to [`NodeCursor::take_residual`] one at a time
/// with per-codeword bit positions, so every bounds check, monotonicity
/// check and error fires on exactly the neighbour where the unbuffered path
/// would fire it.
pub struct NeighborScanner<'a> {
    cur: NodeCursor<'a>,
    run_next: NodeId,
    run_left: u32,
    /// Segment count of the residual area: `None` until `segNum` is read,
    /// `Some(0)` from the start on the unsegmented layout.
    segs: Option<u64>,
    next_seg: u64,
    /// Whether the first copied value (the reference chase) was emitted.
    chased: bool,
    examined: u64,
    /// Multi-gap lookahead over the current residual run: one
    /// [`DecodeTable::decode_packed_at`](gcgt_bits::DecodeTable::decode_packed_at)
    /// probe result, drained per emit with per-codeword bit positions
    /// relative to `gap_base`. `gap_n` caps the usable prefix to the run
    /// (never past a segment boundary or the declared degree).
    gap_run: PackedRun,
    gap_base: usize,
    gap_n: usize,
    gap_i: usize,
}

impl<'a> NeighborScanner<'a> {
    /// Starts scanning node `u`'s adjacency (either layout).
    ///
    /// # Panics
    /// Panics on a structurally invalid payload — encode output and
    /// [`validate_structure`]-checked loads never are.
    pub fn new(cgr: &'a CgrGraph, u: NodeId) -> Self {
        Self::try_new(cgr, u).expect(INVALID)
    }

    /// Fallible [`NeighborScanner::new`] for payloads of unknown
    /// provenance. Reference chains are chased within the configured
    /// `ref_chain_limit`; a deeper chain is the typed chain-bound error.
    pub fn try_new(cgr: &'a CgrGraph, u: NodeId) -> Result<Self, String> {
        let cur = NodeCursor::open(cgr, u)?;
        Ok(NeighborScanner {
            segs: cur.deg_num().map(|_| 0),
            cur,
            run_next: u,
            run_left: 0,
            next_seg: 0,
            chased: false,
            examined: 0,
            gap_run: PackedRun::default(),
            gap_base: 0,
            gap_n: 0,
            gap_i: 0,
        })
    }

    /// Current bit position (for simulated graph-memory addressing).
    #[inline]
    pub fn bit_pos(&self) -> usize {
        self.cur.bit_pos()
    }

    /// Neighbours produced so far — the "edges examined before early exit"
    /// a pull pass reports.
    #[inline]
    pub fn examined(&self) -> u64 {
        self.examined
    }

    /// The next neighbour and the decode branch that produced it.
    ///
    /// # Panics
    /// Panics on a structurally invalid payload; use
    /// [`NeighborScanner::try_next_with_step`] for untrusted data.
    pub fn next_with_step(&mut self) -> Option<(NodeId, DecodeStep)> {
        self.try_next_with_step().expect(INVALID)
    }

    /// Fallible [`NeighborScanner::next_with_step`]: `Ok(None)` when the
    /// adjacency is exhausted, `Err` on the first structural violation
    /// (truncated codeword, out-of-range neighbour, non-monotonic gaps,
    /// zero-length interval, coverage beyond `degNum`, reads escaping the
    /// node's bit range).
    pub fn try_next_with_step(&mut self) -> Result<Option<(NodeId, DecodeStep)>, String> {
        let next = self.step()?;
        self.examined += u64::from(next.is_some());
        Ok(next)
    }

    fn step(&mut self) -> Result<Option<(NodeId, DecodeStep)>, String> {
        // Branch (i): inside an interval run.
        if self.run_left > 0 {
            let v = self.run_next;
            self.run_next += 1;
            self.run_left -= 1;
            return Ok(Some((v, DecodeStep::IntervalRun)));
        }
        // Branch (ii): at the beginning of an interval.
        if self.cur.intervals_left() > 0 {
            let (start, len) = self.cur.next_interval()?;
            self.run_next = start + 1;
            self.run_left = len - 1;
            return Ok(Some((start, DecodeStep::IntervalStart)));
        }
        // Branch (ii½): copied values from the referenced list (GCGR v3) —
        // drained between the interval and correction areas. The first emit
        // is the reference chase (the chain decode happened at construction
        // and is charged there); the rest are array reads of the
        // materialized copy.
        if let Some(v) = self.cur.next_copied() {
            let step = if self.chased {
                DecodeStep::CopyBlock
            } else {
                DecodeStep::RefChase
            };
            self.chased = true;
            return Ok(Some((v, step)));
        }
        // Branch (iii): the residual area — one run (unsegmented), or the
        // next fixed-stride segment whenever the current one is drained.
        while self.cur.residuals_left() == 0 {
            let segs = match self.segs {
                Some(n) => n,
                None => *self.segs.insert(self.cur.read_seg_num()?),
            };
            if self.next_seg == segs {
                return Ok(None);
            }
            self.cur.seek_segment(self.next_seg)?;
            self.cur.read_res_num()?;
            self.next_seg += 1;
            // The gap buffer is capped per run, so it drained before the
            // segment boundary.
            debug_assert_eq!(self.gap_i, self.gap_n, "gap buffer crossed a segment");
        }
        // A single probe for the sign-folded first gap of a run, multi-gap
        // probes thereafter — one probe resolves up to `MAX_PACKED`
        // consecutive gap codewords, buffered (capped to the current run)
        // and handed to the cursor one at a time with their bit positions.
        if self.cur.prev_res.is_some() && self.gap_i == self.gap_n {
            self.gap_base = self.cur.bit_pos();
            self.gap_i = 0;
            let cgr = self.cur.cgr;
            self.gap_run = cgr.table().decode_packed_at(cgr.bits(), self.gap_base);
            self.gap_n = (self.gap_run.len() as u64).min(self.cur.residuals_left()) as usize;
        }
        let r = if self.gap_i == self.gap_n {
            // First gap of a run, or a codeword wider than the probe window.
            self.cur.next_residual()?
        } else {
            let raw = self.gap_run.value(self.gap_i);
            let p = self.gap_base + self.gap_run.end(self.gap_i);
            self.gap_i += 1;
            self.cur.take_residual(raw, p)?
        };
        Ok(Some((r, DecodeStep::Residual)))
    }
}

impl Iterator for NeighborScanner<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.next_with_step().map(|(v, _)| v)
    }
}

/// Structural validation of nodes `first..end` of a CGR payload of unknown
/// provenance: streams each node's compressed adjacency with bounds-checked
/// decoding and returns the number of edges decoded in the range. The
/// building block of both [`validate_structure`] (whole graph, eager load)
/// and per-partition deferred validation
/// ([`CgrGraph::ensure_validated`]) — a range strictly larger than the
/// declared edge total is rejected early, the whole-graph sum check is the
/// caller's.
pub fn validate_range(cgr: &CgrGraph, first: usize, end: usize) -> Result<usize, String> {
    let declared = cgr.num_edges();
    let mut edges = 0usize;
    for u in first..end {
        let u = u as NodeId;
        let mut scan = NeighborScanner::try_new(cgr, u).map_err(|e| format!("node {u}: {e}"))?;
        loop {
            match scan.try_next_with_step() {
                Ok(Some(_)) => {
                    edges += 1;
                    if edges > declared {
                        return Err(format!(
                            "payload decodes more than the declared {declared} edges"
                        ));
                    }
                }
                Ok(None) => break,
                Err(e) => return Err(format!("node {u}: {e}")),
            }
        }
    }
    Ok(edges)
}

/// Structural validation of a CGR payload of unknown provenance (a loaded
/// file whose magic and version checked out but whose bits may be truncated
/// or flipped): streams **every** node's compressed adjacency with
/// bounds-checked decoding and confirms decoded degrees sum to the declared
/// edge count. O(edges) — the price of turning the serial decoders' 24
/// would-be panic sites into one typed load error.
pub fn validate_structure(cgr: &CgrGraph) -> Result<(), String> {
    let declared = cgr.num_edges();
    let edges = validate_range(cgr, 0, cgr.num_nodes())?;
    if edges != declared {
        return Err(format!(
            "payload decodes {edges} edges but the header declares {declared}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::read_slow;
    use crate::io::{write_cgr, ValidationMode};
    use crate::stats::CompressionStats;
    use gcgt_bits::{BitWriter, EliasFano};
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use gcgt_graph::CsrBuilder;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

    fn all_configs() -> Vec<CgrConfig> {
        let mut v = Vec::new();
        for code in [Code::Gamma, Code::Zeta(2), Code::Zeta(3), Code::Zeta(5)] {
            for min_itv in [Some(2), Some(4), Some(10), None] {
                for seg in [None, Some(8), Some(32), Some(128)] {
                    v.push(CgrConfig {
                        code,
                        min_interval_len: min_itv,
                        segment_len_bytes: seg,
                        ..CgrConfig::paper_default()
                    });
                }
            }
        }
        v
    }

    #[test]
    fn round_trip_figure1_all_configs() {
        let g = toys::figure1();
        for cfg in all_configs() {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(decode_all(&cgr), g, "config {cfg:?}");
        }
    }

    #[test]
    fn round_trip_web_graph_all_configs() {
        let g = web_graph(&WebParams::uk2002_like(400), 21);
        for cfg in all_configs() {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(decode_all(&cgr), g, "config {cfg:?}");
        }
    }

    #[test]
    fn storage_order_matches_the_paper() {
        // Intervals stream out before residuals, as in getNextNeighbor.
        let g = toys::example_3_1();
        let cfg = CgrConfig {
            code: Code::Gamma,
            min_interval_len: Some(3),
            segment_len_bytes: None,
            ..CgrConfig::paper_default()
        };
        let cgr = CgrGraph::encode(&g, &cfg);
        let order = decode_node_unsorted(&cgr, 16);
        assert_eq!(order, vec![18, 19, 20, 21, 27, 28, 29, 12, 24, 101]);
    }

    #[test]
    fn cursor_consumes_exactly_the_node_range() {
        let g = web_graph(&WebParams::uk2002_like(300), 2);
        for cfg in all_configs() {
            let cgr = CgrGraph::encode(&g, &cfg);
            for u in 0..g.num_nodes() as NodeId {
                let mut cur = NodeCursor::open(&cgr, u).unwrap();
                cur.drain_into(&mut Vec::new()).unwrap();
                let (_, end) = cgr.node_range(u);
                assert_eq!(cur.bit_pos(), end, "{cfg:?} node {u}");
            }
        }
    }

    #[test]
    fn decode_degree_matches() {
        let g = web_graph(&WebParams::uk2002_like(300), 8);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            for u in 0..g.num_nodes() as NodeId {
                assert_eq!(decode_degree(&cgr, u), g.degree(u), "node {u}");
            }
        }
    }

    #[test]
    fn self_loops_survive() {
        let g = Csr::from_edges(10, &[(3, 3), (3, 4), (3, 9), (0, 0)]);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(decode_all(&cgr), g);
        }
    }

    #[test]
    fn single_huge_gap() {
        let g = Csr::from_edges(1 << 20, &[(0, (1 << 20) - 1), ((1 << 20) - 1, 0)]);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(decode_all(&cgr), g);
        }
    }

    #[test]
    fn scanner_matches_storage_order_on_every_config() {
        let g = web_graph(&WebParams::uk2002_like(300), 5);
        for cfg in all_configs() {
            let cgr = CgrGraph::encode(&g, &cfg);
            for u in 0..g.num_nodes() as NodeId {
                let scanned: Vec<NodeId> = NeighborScanner::new(&cgr, u).collect();
                assert_eq!(scanned, decode_node_unsorted(&cgr, u), "{cfg:?} node {u}");
            }
        }
    }

    #[test]
    fn scanner_early_exit_examines_a_prefix() {
        // The whole point of the scanner: stopping after k neighbours costs
        // exactly k decodes, and those k are the storage-order prefix.
        let g = web_graph(&WebParams::uk2002_like(300), 9);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let u = (0..g.num_nodes() as NodeId)
            .max_by_key(|&u| g.degree(u))
            .unwrap();
        let full: Vec<NodeId> = NeighborScanner::new(&cgr, u).collect();
        assert!(full.len() >= 4, "pick a denser test graph");
        let mut s = NeighborScanner::new(&cgr, u);
        let prefix: Vec<NodeId> = (&mut s).take(3).collect();
        assert_eq!(prefix, full[..3]);
        assert_eq!(s.examined(), 3);
    }

    #[test]
    fn scanner_reports_branch_classes() {
        let g = toys::example_3_1();
        let cfg = CgrConfig {
            code: gcgt_bits::Code::Gamma,
            min_interval_len: Some(3),
            segment_len_bytes: None,
            ..CgrConfig::paper_default()
        };
        let cgr = CgrGraph::encode(&g, &cfg);
        // Node 16 (Figure 2): intervals (18,4) and (27,3), residuals
        // 12, 24, 101 — so the step classes are pinned.
        let mut s = NeighborScanner::new(&cgr, 16);
        let steps: Vec<(NodeId, DecodeStep)> = std::iter::from_fn(|| s.next_with_step()).collect();
        use DecodeStep::*;
        assert_eq!(
            steps,
            vec![
                (18, IntervalStart),
                (19, IntervalRun),
                (20, IntervalRun),
                (21, IntervalRun),
                (27, IntervalStart),
                (28, IntervalRun),
                (29, IntervalRun),
                (12, Residual),
                (24, Residual),
                (101, Residual),
            ]
        );
    }

    /// Slow-path reference decoder built **only** on
    /// [`read_slow`] (no decode table, no cursor): the differential
    /// baseline the production decoders must match bitwise, reference
    /// prologue included. Yields each neighbour with the bit position right
    /// after the codeword that produced it (unchanged inside an interval
    /// run and over the copied values).
    fn decode_node_slow(cgr: &CgrGraph, u: NodeId) -> Vec<(NodeId, usize)> {
        let cfg = cgr.config();
        let bits = cgr.bits();
        let count =
            |pos, what: &str| read_slow(cfg.code, bits, pos, CgrConfig::map_count).expect(what);
        let (start, end) = cgr.node_range(u);
        let mut out = Vec::new();
        if start == end {
            return out;
        }
        let mut pos = start;
        let deg = if cfg.segment_len_bytes.is_none() {
            let (deg, p) = count(pos, "degNum");
            if deg == 0 {
                return out;
            }
            pos = p;
            Some(deg)
        } else {
            None
        };
        let mut copied = Vec::new();
        if cfg.ref_window > 0 {
            let (offset, p) =
                read_slow(Code::Gamma, bits, pos, CgrConfig::map_count).expect("refOffset");
            pos = p;
            if offset > 0 {
                let mut full: Vec<NodeId> = decode_node_slow(cgr, u - offset as NodeId)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect();
                full.sort_unstable();
                let (block_num, p) = count(pos, "blockNum");
                pos = p;
                let mut i = 0;
                for b in 0..block_num {
                    let (len, p) = count(pos, "copy-block length");
                    pos = p;
                    if b % 2 == 0 {
                        copied.extend_from_slice(&full[i..i + len as usize]);
                    }
                    i += len as usize;
                }
            }
        }
        let (itv_num, p) = count(pos, "itvNum");
        pos = p;
        let mut prev_end: Option<NodeId> = None;
        for _ in 0..itv_num {
            let (s, p) = match prev_end {
                None => read_slow(cfg.code, bits, pos, |v| CgrConfig::map_first_gap(u, v)),
                Some(pe) => read_slow(cfg.code, bits, pos, |v| CgrConfig::map_interval_gap(pe, v)),
            }
            .expect("itv start");
            let (len, p2) =
                read_slow(cfg.code, bits, p, |v| cfg.map_interval_len(v)).expect("itv len");
            out.extend((s..s + len).map(|v| (v, p2)));
            prev_end = Some(s + len - 1);
            pos = p2;
        }
        out.extend(copied.into_iter().map(|v| (v, pos)));
        let residual_run = |mut sp, count, out: &mut Vec<(NodeId, usize)>| {
            let mut prev: Option<NodeId> = None;
            for _ in 0..count {
                let (r, p) = match prev {
                    None => read_slow(cfg.code, bits, sp, |v| CgrConfig::map_first_gap(u, v)),
                    Some(pr) => {
                        read_slow(cfg.code, bits, sp, |v| CgrConfig::map_residual_gap(pr, v))
                    }
                }
                .expect("residual");
                out.push((r, p));
                prev = Some(r);
                sp = p;
            }
        };
        if let Some(deg) = deg {
            let res = deg - out.len() as u64;
            residual_run(pos, res, &mut out);
        } else {
            let (seg_num, base) = count(pos, "segNum");
            let seg_bits = cfg.segment_len_bits().unwrap();
            for si in 0..seg_num as usize {
                let (res_num, p) = count(base + si * seg_bits, "resNum");
                residual_run(p, res_num, &mut out);
            }
        }
        out
    }

    /// The windows the slow-oracle tests encode at: GCGR v2 and two v3
    /// reference windows.
    const REF_WINDOWS: [u32; 3] = [0, 8, 32];

    #[test]
    fn table_decoders_match_the_slow_oracle_on_every_config() {
        // The decode fast path (table probes + multi-gap buffering in the
        // scanner) against the table-free slow path: every node, every
        // layout, every code, with and without reference compression —
        // bitwise identical adjacency.
        let g = web_graph(&WebParams::uk2002_like(350), 17);
        let mut referencing = 0;
        for cfg in all_configs() {
            for window in REF_WINDOWS {
                let cfg = cfg.with_ref_window(window);
                let cgr = CgrGraph::encode(&g, &cfg);
                for u in 0..g.num_nodes() as NodeId {
                    referencing += usize::from(cgr.ref_target(u).is_some());
                    let slow: Vec<NodeId> = decode_node_slow(&cgr, u)
                        .into_iter()
                        .map(|(v, _)| v)
                        .collect();
                    assert_eq!(
                        decode_node_unsorted(&cgr, u),
                        slow,
                        "{cfg:?} node {u} (serial decoders)"
                    );
                    let scanned: Vec<NodeId> = NeighborScanner::new(&cgr, u).collect();
                    assert_eq!(scanned, slow, "{cfg:?} node {u} (scanner)");
                }
            }
        }
        assert!(referencing > 0, "the v3 windows must exercise the prologue");
    }

    #[test]
    fn scanner_bit_positions_match_the_slow_oracle() {
        // Multi-gap buffering must not disturb the observable bit cursor:
        // after every emitted neighbour, `bit_pos()` equals what the
        // unbuffered, table-free slow walk reports (the pull kernel charges
        // memory addresses from it) — on both layouts, with and without
        // reference compression.
        let g = web_graph(&WebParams::uk2002_like(300), 23);
        for base in [CgrConfig::unsegmented(), CgrConfig::paper_default()] {
            for window in REF_WINDOWS {
                let cfg = base.with_ref_window(window);
                let cgr = CgrGraph::encode(&g, &cfg);
                for u in 0..g.num_nodes() as NodeId {
                    let mut scan = NeighborScanner::new(&cgr, u);
                    for (v, pos) in decode_node_slow(&cgr, u) {
                        let next = scan.next_with_step().map(|(w, _)| w);
                        assert_eq!(next, Some(v), "{cfg:?} node {u}");
                        assert_eq!(scan.bit_pos(), pos, "{cfg:?} node {u} after {v}");
                    }
                    assert_eq!(scan.next_with_step(), None, "{cfg:?} node {u}");
                    if cfg.segment_len_bytes.is_none() {
                        let (_, end) = cgr.node_range(u);
                        assert_eq!(scan.bit_pos(), end, "{cfg:?} node {u} final position");
                    }
                }
            }
        }
    }

    #[test]
    fn validate_structure_accepts_every_encode() {
        let g = web_graph(&WebParams::uk2002_like(400), 13);
        for cfg in all_configs() {
            let cgr = CgrGraph::encode(&g, &cfg);
            assert_eq!(validate_structure(&cgr), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn validate_structure_rejects_wrong_edge_count() {
        // Same payload, lying header: the degree-sum cross-check fires.
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        crate::io::write_cgr(&cgr, &mut buf).unwrap();
        // Patch the edge count in both header word 4 and its stats mirror
        // (word 7) so the consistent-but-lying header gets past the stats
        // cross-check and the degree-sum validation has to catch it.
        let lied = (g.num_edges() as u64 + 1).to_le_bytes();
        buf[4 * 8..4 * 8 + 8].copy_from_slice(&lied);
        buf[7 * 8..7 * 8 + 8].copy_from_slice(&lied);
        let err = crate::io::read_cgr(std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("edges"), "{err}");
    }

    /// A graph over hand-written node payloads (`write` emits node `u`'s
    /// bits), reassembled the way a loader does.
    fn hand_built(
        cfg: CgrConfig,
        nodes: usize,
        edges: usize,
        write: impl Fn(&mut BitWriter, NodeId),
    ) -> CgrGraph {
        let mut w = BitWriter::new();
        let mut offsets = Vec::new();
        for u in 0..nodes as NodeId {
            offsets.push(w.len());
            write(&mut w, u);
        }
        offsets.push(w.len());
        let stats = CompressionStats {
            nodes,
            edges,
            total_bits: w.len(),
            ..Default::default()
        };
        let index = EliasFano::build(&offsets);
        CgrGraph::from_loaded_parts(cfg, w.into_bitvec(), index, edges, stats, false)
    }

    /// `cgr` must be refused with a typed error naming `needle` by the
    /// validator, by an eager load of its serialized image, and by the
    /// first touch after a deferred load — never by a panic.
    fn assert_rejected_everywhere(cgr: &CgrGraph, needle: &str) {
        let err = validate_structure(cgr).expect_err("validator must refuse the payload");
        assert!(err.contains(needle), "{err}");
        let mut image = Vec::new();
        write_cgr(cgr, &mut image).unwrap();
        let err = CgrGraph::from_bytes_with(&image, ValidationMode::Eager)
            .expect_err("eager load must refuse the payload");
        assert!(err.to_string().contains(needle), "{err}");
        let deferred = CgrGraph::from_bytes_with(&image, ValidationMode::Deferred)
            .expect("deferred loads check the payload on first touch");
        let err = deferred
            .ensure_validated_all()
            .expect_err("first touch must refuse the payload");
        assert!(err.contains(needle), "{err}");
    }

    #[test]
    fn interval_coverage_beyond_deg_num_is_rejected() {
        // degNum 1 · itvNum 1 · [5; 4]: a degree-driven reader stops after
        // one neighbour and an itvNum-driven one emits four. The validator
        // used to be the former and the kernels the latter (underflowing
        // their residual count); the one cursor refuses the node.
        let cfg = CgrConfig {
            code: Code::Gamma,
            ..CgrConfig::unsegmented()
        };
        let cgr = hand_built(cfg, 16, 1, |w, u| {
            if u != 0 {
                return cfg.write_count(w, 0);
            }
            cfg.write_count(w, 1); // degNum
            cfg.write_count(w, 1); // itvNum
            cfg.write_first_gap(w, 0, 5);
            cfg.write_interval_len(w, 4);
        });
        assert_rejected_everywhere(&cgr, "intervals overrun degNum 1");
    }

    #[test]
    fn itv_num_without_intervals_is_rejected() {
        // min_interval_len None (Figure 12's `inf`) is a legal header, so a
        // non-zero itvNum under it is payload corruption: a typed error,
        // not the interval-length shift's old "intervals disabled" panic.
        let cfg = CgrConfig {
            code: Code::Gamma,
            min_interval_len: None,
            ..CgrConfig::unsegmented()
        };
        let cgr = hand_built(cfg, 16, 1, |w, u| {
            if u != 0 {
                return cfg.write_count(w, 0);
            }
            cfg.write_count(w, 1); // degNum
            cfg.write_count(w, 1); // itvNum
            cfg.write_first_gap(w, 0, 5);
            cfg.write_count(w, 0); // a length codeword
        });
        assert_rejected_everywhere(&cgr, "itvNum 1 but intervals are disabled");
    }

    #[test]
    fn copy_block_lengths_that_overflow_are_a_typed_error() {
        // refOffset 1 · blockNum 2 · two lengths of 2^63: their sum wraps a
        // u64 (debug: overflow panic; release: a slice index far out of
        // range). The span saturates into the copy-block-overrun error.
        for base in [CgrConfig::unsegmented(), CgrConfig::paper_default()] {
            let cfg = CgrConfig {
                code: Code::Gamma,
                ..base.with_ref_window(4)
            };
            let segmented = cfg.segment_len_bytes.is_some();
            let cgr = hand_built(cfg, 8, 3, |w, u| {
                if u > 1 {
                    if !segmented {
                        cfg.write_count(w, 0);
                    }
                    return;
                }
                if !segmented {
                    cfg.write_count(w, 2 - u64::from(u)); // degNum
                }
                if u == 0 {
                    // Two plain residuals, {1, 3}, no reference.
                    cfg.write_ref_offset(w, 0);
                    cfg.write_count(w, 0); // itvNum
                    if segmented {
                        cfg.write_count(w, 1); // segNum
                        cfg.write_count(w, 2); // resNum
                    }
                    cfg.write_first_gap(w, 0, 1);
                    cfg.write_residual_gap(w, 1, 3);
                } else {
                    cfg.write_ref_offset(w, 1);
                    cfg.write_count(w, 2); // blockNum
                    cfg.write_block_len(w, 1 << 63);
                    cfg.write_block_len(w, 1 << 63);
                    cfg.write_count(w, 0); // itvNum
                    if segmented {
                        cfg.write_count(w, 0); // segNum
                    }
                }
            });
            assert_rejected_everywhere(&cgr, "copy blocks span");
        }
    }
    /// The pair-list decode that [`decode_rows`] replaced: every node
    /// `validated` accepts, through `CsrBuilder`, and the first error.
    fn built_from_pairs(
        cgr: &CgrGraph,
        validated: impl Fn(usize) -> Result<(), String>,
    ) -> (Csr, Option<String>) {
        let mut b = CsrBuilder::new(cgr.num_nodes());
        let mut first_error = None;
        for u in 0..cgr.num_nodes() as NodeId {
            match validated(u as usize) {
                Ok(()) => {
                    for v in decode_node_unsorted(cgr, u) {
                        b.add_edge(u, v);
                    }
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        (b.build(), first_error)
    }

    /// An arbitrary small graph, a config of [`all_configs`], and where to
    /// start looking for a payload flip.
    fn graph_config_flip() -> impl Strategy<Value = (Csr, CgrConfig, usize)> {
        (
            (
                1u32..60,
                proptest::collection::vec((0u32..1_000, 0u32..1_000), 0..300),
            ),
            (0..all_configs().len(), 0usize..512),
        )
            .prop_map(|((n, raw), (config, flip))| {
                let edges: Vec<(NodeId, NodeId)> =
                    raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
                (
                    Csr::from_edges(n as usize, &edges),
                    all_configs()[config],
                    flip,
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The row decode builds bitwise the CSR that the pair list through
        /// `CsrBuilder` built — on an intact graph, and on a deferred load
        /// whose payload has one bit flipped that only full validation
        /// catches (corrupt nodes drop out, and the first error is the
        /// same).
        #[test]
        fn row_decode_equals_the_builder(case in graph_config_flip()) {
            let (g, config, flip) = case;
            let cgr = CgrGraph::encode(&g, &config);
            let (want, _) = built_from_pairs(&cgr, |_| Ok(()));
            prop_assert_eq!(&decode_all(&cgr), &want);
            prop_assert_eq!(&want, &g);

            let mut buf = Vec::new();
            write_cgr(&cgr, &mut buf).unwrap();
            let tail = buf.len().min(64);
            let flips = (0..8 * tail).map(|i| (i + flip) % (8 * tail));
            let corrupt = flips
                .map(|i| {
                    let mut c = buf.clone();
                    c[buf.len() - tail + i / 8] ^= 1 << (i % 8);
                    c
                })
                .find(|c| {
                    CgrGraph::from_bytes(c).is_err()
                        && CgrGraph::from_bytes_with(c, ValidationMode::Deferred).is_ok()
                });
            if let Some(bytes) = corrupt {
                let load = || CgrGraph::from_bytes_with(&bytes, ValidationMode::Deferred).unwrap();
                let (direct, reference) = (load(), load());
                let want = built_from_pairs(&reference, |u| reference.ensure_validated(u, u + 1));
                let got = decode_all_validated(&direct);
                prop_assert!(got.1.is_some());
                prop_assert_eq!(got, want);
            }
        }
    }
}
