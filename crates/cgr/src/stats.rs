//! Compression accounting: bits/edge and the paper's compression rate
//! (`32 / bits-per-edge`), plus the segmentation blank-space overhead that
//! drives the Figure 14 trade-off and the reference-compression tallies of
//! the GCGR v3 encoder.

/// Statistics gathered while encoding a [`crate::CgrGraph`]: every field is
/// serialized in the GCGR header and survives a save/load round trip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Nodes encoded.
    pub nodes: usize,
    /// Edges encoded.
    pub edges: usize,
    /// Total length of the compressed bit array.
    pub total_bits: usize,
    /// Edges covered by intervals.
    pub interval_edges: usize,
    /// Edges stored as residuals (corrections, under reference
    /// compression).
    pub residual_edges: usize,
    /// Zero padding inserted by residual segmentation ("blank" areas of
    /// Figure 6).
    pub blank_bits: usize,
    /// Number of residual segments emitted (0 without segmentation).
    pub segments: usize,
    /// Nodes that copy part of an earlier node's adjacency (GCGR v3
    /// reference compression; 0 when `ref_window == 0`).
    pub ref_nodes: usize,
    /// Copy blocks emitted across all referencing nodes.
    pub ref_copy_blocks: usize,
    /// Edges materialized by copying from a referenced list instead of
    /// being gap-coded.
    pub ref_copied_edges: usize,
}

impl CompressionStats {
    /// Bits per edge over the whole bit array (the denominator the paper
    /// uses for its compression-rate line plots). An edgeless graph has a
    /// documented value of `0.0` — never NaN or ∞.
    pub fn bits_per_edge(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.edges as f64
        }
    }

    /// The paper's compression rate: `32 / bits-per-edge` (a CSR edge costs
    /// one 32-bit integer). Degenerate inputs — an empty graph, an
    /// edgeless graph, or (hypothetically) a zero-length bit array — all
    /// return a documented finite `0.0`, never NaN or ∞: the rate of a
    /// graph with nothing to compress is defined as zero.
    pub fn compression_rate(&self) -> f64 {
        let bpe = self.bits_per_edge();
        if bpe == 0.0 {
            0.0
        } else {
            32.0 / bpe
        }
    }

    /// Fraction of edges represented by intervals.
    pub fn interval_coverage(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.interval_edges as f64 / self.edges as f64
        }
    }

    /// Fraction of edges materialized by reference copying (0.0 without
    /// reference compression, also on edgeless graphs).
    pub fn ref_coverage(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.ref_copied_edges as f64 / self.edges as f64
        }
    }

    /// Fraction of the bit array wasted as segment padding.
    pub fn blank_fraction(&self) -> f64 {
        if self.total_bits == 0 {
            0.0
        } else {
            self.blank_bits as f64 / self.total_bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_follow_definitions() {
        let s = CompressionStats {
            nodes: 10,
            edges: 100,
            total_bits: 200,
            interval_edges: 60,
            residual_edges: 40,
            blank_bits: 20,
            segments: 5,
            ..CompressionStats::default()
        };
        assert!((s.bits_per_edge() - 2.0).abs() < 1e-12);
        assert!((s.compression_rate() - 16.0).abs() < 1e-12);
        assert!((s.interval_coverage() - 0.6).abs() < 1e-12);
        assert!((s.blank_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero_not_nan() {
        let s = CompressionStats::default();
        assert_eq!(s.bits_per_edge(), 0.0);
        assert_eq!(s.compression_rate(), 0.0);
        assert_eq!(s.interval_coverage(), 0.0);
        assert_eq!(s.blank_fraction(), 0.0);
        assert_eq!(s.ref_coverage(), 0.0);
        assert!(s.bits_per_edge().is_finite());
        assert!(s.compression_rate().is_finite());
    }

    #[test]
    fn edgeless_nonempty_graph_is_finite() {
        // Nodes but no edges: the bit array still holds per-node headers
        // (total_bits > 0) while edges == 0 — exactly the shape that used
        // to make a naive 32/(bits/edges) go NaN/∞.
        let s = CompressionStats {
            nodes: 7,
            total_bits: 21,
            ..CompressionStats::default()
        };
        assert_eq!(s.bits_per_edge(), 0.0);
        assert_eq!(s.compression_rate(), 0.0);
        assert!(s.compression_rate().is_finite());
    }

    #[test]
    fn ref_tallies_participate_in_equality() {
        let b = CompressionStats {
            nodes: 3,
            edges: 9,
            total_bits: 40,
            ..CompressionStats::default()
        };
        let mut c = b;
        c.ref_nodes = 1;
        assert_ne!(b, c, "ref tallies must participate in equality");
    }
}
