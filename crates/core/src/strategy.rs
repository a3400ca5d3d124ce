//! The optimization ladder of the Figure 9 ablation study, plus the
//! direction-optimization axis (Beamer-style push/pull) layered on top
//! of every rung.

use gcgt_cgr::CgrConfig;

/// The frontier-expansion direction of a traversal level — the
/// direction-optimizing BFS of Beamer et al. (and Ligra's `edgeMap`,
/// Gunrock's advance), applied to **compressed** adjacency.
///
/// * **Push** expands the frontier's out-edges (`appendIfUnvisited`,
///   Algorithm 1) — the only mode the paper's GCGT engine had.
/// * **Pull** walks every *unvisited* node's compressed adjacency via the
///   early-exit [`gcgt_cgr::NeighborScanner`], stopping at the first
///   frontier parent. On dense frontiers of low-diameter graphs this
///   examines a small fraction of the edges push would expand.
/// * **Adaptive** picks per level with the Beamer/Ligra density heuristic:
///   pull when the frontier's out-degree sum exceeds
///   `num_edges / `[`PULL_ALPHA`], push otherwise. On a graph where the
///   heuristic never fires, an adaptive run is **bitwise identical** to a
///   push run — output and [`gcgt_simt::RunStats`] alike.
///
/// Pull semantics require a *symmetric* graph (stored adjacency =
/// in-neighbours); the session layer verifies this, rejecting `Pull` and
/// degrading `Adaptive` to `Push` on asymmetric inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DirectionMode {
    /// Always expand frontier out-edges (the classic top-down BFS).
    #[default]
    Push,
    /// Always scan unvisited nodes for frontier parents (bottom-up).
    Pull,
    /// Per-level Beamer/Ligra density switch between the two.
    Adaptive,
}

/// The α of the adaptive density heuristic: a level pulls when the
/// frontier's out-degree sum exceeds `num_edges / PULL_ALPHA` (Ligra uses
/// 20, Beamer's α ≈ 14 on the same order). Compared multiplication-side
/// (`frontier_edges × α > num_edges`) so tiny graphs never divide to zero.
pub const PULL_ALPHA: usize = 20;

impl DirectionMode {
    /// Display name for tables and traces.
    pub fn name(&self) -> &'static str {
        match self {
            DirectionMode::Push => "push",
            DirectionMode::Pull => "pull",
            DirectionMode::Adaptive => "adaptive",
        }
    }
}

/// Which scheduling strategies a traversal uses. Each variant includes all
/// the optimizations of its predecessors, matching the incremental
/// application of techniques in Section 7.3:
/// `Intuitive → +TwoPhase → +TaskStealing → +WarpCentric → +ResidualSegmentation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Algorithm 1: one lane decodes one compressed list, no cooperation.
    Intuitive,
    /// + Algorithm 2: interval/residual phases split, intervals expanded
    ///   cooperatively (long-interval leader election + short-interval
    ///   scan packing).
    TwoPhase,
    /// + Algorithm 3: idle lanes steal residual decoding work.
    TaskStealing,
    /// + Algorithm 4: long residual runs decoded speculatively by the whole
    ///   warp with O(log₂ W) validity marking.
    WarpCentric,
    /// + Section 5.2: residual segmentation — the complete GCGT.
    Full,
}

impl Strategy {
    /// The ablation ladder in Figure 9 order.
    pub const LADDER: [Strategy; 5] = [
        Strategy::Intuitive,
        Strategy::TwoPhase,
        Strategy::TaskStealing,
        Strategy::WarpCentric,
        Strategy::Full,
    ];

    /// Name as printed in Figure 9's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Intuitive => "Intuitive",
            Strategy::TwoPhase => "TwoPhaseTraversal",
            Strategy::TaskStealing => "TaskStealing",
            Strategy::WarpCentric => "Warp-centric",
            Strategy::Full => "ResidualSegmentation (GCGT)",
        }
    }

    /// Whether this strategy traverses the segmented CGR layout
    /// (only the full GCGT does; the rest read the unsegmented layout).
    pub fn needs_segmented_layout(&self) -> bool {
        matches!(self, Strategy::Full)
    }

    /// Checks that `cfg` is the layout this strategy's kernels read. Every
    /// engine constructor calls this: the kernels only `debug_assert` it, so
    /// a release build that got past construction with the wrong layout
    /// would decode `itvNum` as `degNum` instead of failing.
    ///
    /// # Panics
    /// Panics when a segmented payload meets a non-`Full` strategy or the
    /// reverse.
    pub fn assert_layout(&self, cfg: &CgrConfig) {
        assert_eq!(
            cfg.segment_len_bytes.is_some(),
            self.needs_segmented_layout(),
            "CGR layout does not match strategy {self:?}: re-encode with \
             strategy.cgr_config(..)"
        );
    }

    /// The CGR configuration this strategy expects, derived from a base
    /// configuration by forcing the layout it traverses.
    pub fn cgr_config(&self, base: &CgrConfig) -> CgrConfig {
        let mut cfg = *base;
        if self.needs_segmented_layout() {
            if cfg.segment_len_bytes.is_none() {
                cfg.segment_len_bytes = CgrConfig::paper_default().segment_len_bytes;
            }
        } else {
            cfg.segment_len_bytes = None;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_matches_figure9() {
        assert_eq!(Strategy::LADDER[0], Strategy::Intuitive);
        assert_eq!(Strategy::LADDER[4], Strategy::Full);
    }

    #[test]
    fn only_full_needs_segments() {
        for s in Strategy::LADDER {
            assert_eq!(s.needs_segmented_layout(), s == Strategy::Full);
        }
    }

    #[test]
    fn cgr_config_forces_layout() {
        let base = CgrConfig::paper_default();
        assert!(Strategy::TwoPhase
            .cgr_config(&base)
            .segment_len_bytes
            .is_none());
        assert_eq!(Strategy::Full.cgr_config(&base).segment_len_bytes, Some(32));
        let unseg = CgrConfig::unsegmented();
        assert_eq!(
            Strategy::Full.cgr_config(&unseg).segment_len_bytes,
            Some(32)
        );
    }
}
