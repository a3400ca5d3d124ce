//! CGR encoding parameters (the paper's Table 2) and the shared shift
//! arithmetic used by both the encoder and every decoder (serial and
//! GPU-simulated).

use gcgt_bits::{fold_sign, unfold_sign, Code, CodeSink};
use gcgt_graph::NodeId;

/// Default reference-chain bound of [`CgrConfig::ref_chain_limit`] — the
/// WebGraph-family sweet spot between ratio and bounded decode depth.
pub const DEFAULT_REF_CHAIN_LIMIT: u32 = 3;

/// Parameters of the CGR encoding.
///
/// `None` values mean "feature disabled" — the `inf` settings of the
/// parameter sweeps in Figures 12 and 14.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CgrConfig {
    /// VLC scheme (Figure 11 sweep; Table 2 selects ζ3).
    pub code: Code,
    /// Minimum run length that becomes an interval (Figure 12 sweep;
    /// Table 2 selects 4). `None` disables intervals entirely.
    pub min_interval_len: Option<u32>,
    /// Residual segment length in **bytes** (Figure 14 sweep; Table 2
    /// selects 32). `None` disables segmentation (unsegmented layout).
    pub segment_len_bytes: Option<u32>,
    /// Reference-compression window (GCGR v3): node `u` may copy part of
    /// the adjacency of an earlier node in `[u - ref_window, u)`
    /// (WebGraph-style copy lists + corrections). `0` disables reference
    /// compression entirely and keeps the on-disk format at GCGR v2 —
    /// payloads are **byte-identical** to an encoder without this feature.
    pub ref_window: u32,
    /// Maximum reference-chain length (GCGR v3). A node whose list copies
    /// node `t` forces a decode of `t` first; chains are bounded so decode
    /// work per node stays statically bounded and GPU-friendly (the
    /// WebGraph `max_ref_count` analogue; default 3). Only meaningful when
    /// `ref_window > 0`; [`crate::decode::validate_structure`] rejects
    /// payloads whose chains exceed this bound.
    pub ref_chain_limit: u32,
}

impl Default for CgrConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl CgrConfig {
    /// The paper's selected parameters (Table 2): ζ3, minimum interval
    /// length 4, residual segment length 32 bytes.
    pub fn paper_default() -> Self {
        Self {
            code: Code::Zeta(3),
            min_interval_len: Some(4),
            segment_len_bytes: Some(32),
            ref_window: 0,
            ref_chain_limit: DEFAULT_REF_CHAIN_LIMIT,
        }
    }

    /// Paper parameters but with the unsegmented layout — what the
    /// `Intuitive`…`WarpCentric` strategies of the Figure 9 ladder traverse.
    pub fn unsegmented() -> Self {
        Self {
            segment_len_bytes: None,
            ..Self::paper_default()
        }
    }

    /// Same configuration with reference compression over a `window`-node
    /// sliding window (0 disables it; see [`CgrConfig::ref_window`]).
    #[must_use]
    pub fn with_ref_window(mut self, window: u32) -> Self {
        self.ref_window = window;
        self
    }

    /// Same configuration with a different reference-chain bound (see
    /// [`CgrConfig::ref_chain_limit`]).
    #[must_use]
    pub fn with_ref_chain_limit(mut self, limit: u32) -> Self {
        self.ref_chain_limit = limit;
        self
    }

    /// Segment length in bits, if segmentation is enabled.
    #[inline]
    pub fn segment_len_bits(&self) -> Option<usize> {
        self.segment_len_bytes.map(|b| b as usize * 8)
    }

    // --- shared shift arithmetic -----------------------------------------
    //
    // One encode/decode pair per field keeps the +1 / sign-fold / minimum
    // shifts in exactly one place. A `write_*` takes any `CodeSink`: the
    // encoder writes into a `BitWriter`, and its size models run the same
    // calls into a `BitCount`. A `map_*` turns a raw codeword value back
    // into the field; `NodeCursor` is its only caller, so every decoder
    // shares its checked-arithmetic guards: codeword value 0 from a corrupt
    // payload is a decode failure, never a shift underflow, and every gap
    // addition is overflow-checked.

    /// Maps a raw count codeword value (`count + 1`) back to the count.
    #[inline]
    pub(crate) fn map_count(v: u64) -> Option<u64> {
        // Valid encodes never produce codeword value 0 (every code maps
        // positive integers); a corrupt payload can, so treat it as a
        // decode failure instead of underflowing the shift.
        v.checked_sub(1)
    }

    /// Maps a raw first-gap codeword value (sign-folded, then +1) to the
    /// target node.
    #[inline]
    pub(crate) fn map_first_gap(source: NodeId, v: u64) -> Option<NodeId> {
        let gap = unfold_sign(v.checked_sub(1)?);
        let target = i64::from(source).checked_add(gap)?;
        NodeId::try_from(target).ok()
    }

    /// Maps a raw interval-gap codeword value (`gap - 1`) to the interval
    /// start.
    #[inline]
    pub(crate) fn map_interval_gap(prev_end: NodeId, v: u64) -> Option<NodeId> {
        let start = u64::from(prev_end).checked_add(v.checked_add(1)?)?;
        NodeId::try_from(start).ok()
    }

    /// Maps a raw interval-length codeword value (`len - min + 1`) to the
    /// length; `None` when intervals are disabled, since only a corrupt
    /// payload has one to map then.
    #[inline]
    pub(crate) fn map_interval_len(&self, v: u64) -> Option<u32> {
        let min = self.min_interval_len?;
        u32::try_from(v.checked_sub(1)?).ok()?.checked_add(min)
    }

    /// Maps a raw residual-gap codeword value (the gap itself) to the
    /// residual node.
    #[inline]
    pub(crate) fn map_residual_gap(prev: NodeId, v: u64) -> Option<NodeId> {
        NodeId::try_from(u64::from(prev).checked_add(v)?).ok()
    }

    /// Encodes a count (`degNum`, `itvNum`, `segNum`, per-segment `resNum`);
    /// counts can be zero, hence the +1 shift.
    #[inline]
    pub fn write_count(&self, w: &mut impl CodeSink, count: u64) {
        w.put(self.code, count + 1);
    }

    /// Encodes a first gap (interval start or first residual) relative to
    /// the source node: possibly negative, so sign-folded then +1.
    #[inline]
    pub fn write_first_gap(&self, w: &mut impl CodeSink, source: NodeId, target: NodeId) {
        let gap = i64::from(target) - i64::from(source);
        w.put(self.code, fold_sign(gap) + 1);
    }

    /// Encodes the gap between an interval start and the previous interval's
    /// end; maximal runs guarantee `gap >= 2`, so the shift is `-1`
    /// (theoretical minimum 2 maps to codeword value 1).
    #[inline]
    pub fn write_interval_gap(&self, w: &mut impl CodeSink, prev_end: NodeId, start: NodeId) {
        let gap = u64::from(start) - u64::from(prev_end);
        debug_assert!(gap >= 2, "maximal intervals are separated by >= 2");
        w.put(self.code, gap - 1);
    }

    /// Encodes an interval length; lengths are at least
    /// `min_interval_len`, so the minimum shifts to codeword value 1.
    #[inline]
    pub fn write_interval_len(&self, w: &mut impl CodeSink, len: u32) {
        let min = self.min_interval_len.expect("intervals disabled");
        debug_assert!(len >= min);
        w.put(self.code, u64::from(len - min) + 1);
    }

    /// Encodes the gap between consecutive residuals (`>= 1` since lists are
    /// sorted and duplicate-free; codeword value equals the gap).
    #[inline]
    pub fn write_residual_gap(&self, w: &mut impl CodeSink, prev: NodeId, next: NodeId) {
        let gap = u64::from(next) - u64::from(prev);
        debug_assert!(gap >= 1);
        w.put(self.code, gap);
    }

    // --- reference compression (GCGR v3) ---------------------------------
    //
    // A referenced node is addressed by a backward *offset* (`u - target`),
    // never an absolute id — offsets are small inside the window, and a
    // forward or self reference is unrepresentable by construction. The
    // offset and every copy-block length reuse the count shift (+1, undone
    // by `map_count`) so a zero offset ("no reference") and a zero-length
    // leading copy block stay encodable.

    /// Encodes the backward reference offset (`u - target`; 0 = none).
    /// Always γ-coded regardless of the config code: every non-empty node
    /// pays this codeword, so the 0 = no-reference flag must cost one bit
    /// or the prologue tax on non-referencing nodes would swamp the win.
    #[inline]
    pub fn write_ref_offset(&self, w: &mut impl CodeSink, offset: u64) {
        w.put(Code::Gamma, offset + 1);
    }

    /// Encodes a copy-block length. Blocks alternate copy/skip starting
    /// with a copy block, so the first may be length 0; the +1 shift keeps
    /// zero encodable (same shift as counts).
    #[inline]
    pub fn write_block_len(&self, w: &mut impl CodeSink, len: u64) {
        w.put(self.code, len + 1);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gcgt_bits::{BitVec, BitWriter};

    /// The table-free oracle of one field read: `Code::decode_at` followed
    /// by the field's `map_*` shift; returns `(value, next_pos)`.
    pub(crate) fn read_slow<T>(
        code: Code,
        bits: &BitVec,
        pos: usize,
        map: impl FnOnce(u64) -> Option<T>,
    ) -> Option<(T, usize)> {
        let (v, p) = code.decode_at(bits, pos)?;
        Some((map(v)?, p))
    }

    #[test]
    fn paper_default_matches_table2() {
        let c = CgrConfig::paper_default();
        assert_eq!(c.code, Code::Zeta(3));
        assert_eq!(c.min_interval_len, Some(4));
        assert_eq!(c.segment_len_bytes, Some(32));
        assert_eq!(c.segment_len_bits(), Some(256));
    }

    #[test]
    fn count_round_trip_including_zero() {
        let c = CgrConfig::paper_default();
        let mut w = BitWriter::new();
        for count in [0u64, 1, 2, 10, 1000] {
            c.write_count(&mut w, count);
        }
        let bits = w.into_bitvec();
        let mut pos = 0;
        for count in [0u64, 1, 2, 10, 1000] {
            let (v, p) = read_slow(c.code, &bits, pos, CgrConfig::map_count).unwrap();
            assert_eq!(v, count);
            pos = p;
        }
    }

    #[test]
    fn first_gap_handles_negative() {
        let c = CgrConfig::paper_default();
        let mut w = BitWriter::new();
        // node 16's first residual is 12 (gap -4, the Figure 2 example)
        c.write_first_gap(&mut w, 16, 12);
        c.write_first_gap(&mut w, 16, 18); // gap +2
        c.write_first_gap(&mut w, 16, 16); // self-loop, gap 0
        let bits = w.into_bitvec();
        let (v1, p1) = read_slow(c.code, &bits, 0, |v| CgrConfig::map_first_gap(16, v)).unwrap();
        let (v2, p2) = read_slow(c.code, &bits, p1, |v| CgrConfig::map_first_gap(16, v)).unwrap();
        let (v3, _) = read_slow(c.code, &bits, p2, |v| CgrConfig::map_first_gap(16, v)).unwrap();
        assert_eq!((v1, v2, v3), (12, 18, 16));
    }

    #[test]
    fn interval_len_shifts_by_minimum() {
        let c = CgrConfig::paper_default(); // min 4
        let mut w = BitWriter::new();
        c.write_interval_len(&mut w, 4); // encodes 1 → shortest codeword
        let bits = w.into_bitvec();
        assert_eq!(bits.len() as u32, c.code.len_bits(1));
        let (len, _) = read_slow(c.code, &bits, 0, |v| c.map_interval_len(v)).unwrap();
        assert_eq!(len, 4);
        // Disabled intervals: a corrupt itvNum's length is no value, not a panic.
        let disabled = CgrConfig {
            min_interval_len: None,
            ..c
        };
        assert_eq!(disabled.map_interval_len(1), None);
    }

    #[test]
    fn interval_gap_round_trip() {
        let c = CgrConfig::paper_default();
        let mut w = BitWriter::new();
        c.write_interval_gap(&mut w, 21, 27); // the Figure 2 gap of 6
        let bits = w.into_bitvec();
        let (start, _) =
            read_slow(c.code, &bits, 0, |v| CgrConfig::map_interval_gap(21, v)).unwrap();
        assert_eq!(start, 27);
    }

    #[test]
    fn residual_gap_round_trip() {
        let c = CgrConfig::paper_default();
        let mut w = BitWriter::new();
        c.write_residual_gap(&mut w, 12, 24); // gap 12
        c.write_residual_gap(&mut w, 24, 101); // gap 77
        let bits = w.into_bitvec();
        let (a, p) = read_slow(c.code, &bits, 0, |v| CgrConfig::map_residual_gap(12, v)).unwrap();
        let (b, _) = read_slow(c.code, &bits, p, |v| CgrConfig::map_residual_gap(24, v)).unwrap();
        assert_eq!((a, b), (24, 101));
    }
}
