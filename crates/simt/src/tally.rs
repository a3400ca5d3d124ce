//! Warp instruction-slot accounting (the Figure 4 step model).
//!
//! Every serialized warp step is tallied under an [`OpClass`]. Lanes in
//! different control branches of the same logical round must be issued as
//! separate steps by the kernel — that *is* warp divergence, and it is what
//! the Two-Phase and Task-Stealing strategies reduce.

/// Classes of warp instructions. The decode/handle classes correspond to the
/// colored cells of the paper's Figure 4; the rest cover synchronization,
/// scan, atomics and the warp-centric decoding rounds of Algorithm 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// Reading `degNum` / `itvNum` / `segNum` headers.
    Header = 0,
    /// Decoding one interval (gap + length) — Figure 4's yellow cells.
    ItvDecode = 1,
    /// Decoding one residual gap — Figure 4's blue cells.
    ResDecode = 2,
    /// Handling one neighbour (visited check + output) — the green cells.
    Handle = 3,
    /// Warp-level exclusive scan.
    Scan = 4,
    /// Register shuffle / broadcast.
    Shfl = 5,
    /// Vote/synchronization primitives (`syncAny`, `syncAll`, `syncNone`).
    Sync = 6,
    /// Atomic read-modify-write on global memory.
    Atomic = 7,
    /// One speculative-start round of parallel VLC decoding (Algorithm 4).
    ParDecode = 8,
    /// Pointer-jumping step (connected components).
    Jump = 9,
    /// Anything else (label updates, σ/δ accumulation, ...).
    Generic = 10,
    /// One table-driven VLC decode: a precomputed 16-bit-window decode
    /// table resolves the codeword(s) in a single shared-memory probe,
    /// replacing the serial bit-scan an [`OpClass::ItvDecode`] /
    /// [`OpClass::ResDecode`] step otherwise models. Charged by
    /// [`crate::WarpSim`] when table decoding is enabled — the step
    /// *schedule* is unchanged (one slot per decode step, so Figure 4
    /// step counts are preserved), only the per-slot cost drops.
    TableDecode = 11,
    /// Chasing one hop of a GCGR v3 reference chain: reading the
    /// referenced node's prologue to materialize copied neighbours. One
    /// issue per hop, charged at cursor-load time — copied values then
    /// stream out as free [`crate::OpClass::Handle`]-only emissions, which
    /// is exactly the bandwidth story of reference compression.
    RefChase = 12,
}

impl OpClass {
    /// The variant name, for reports and trace events.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Header => "Header",
            OpClass::ItvDecode => "ItvDecode",
            OpClass::ResDecode => "ResDecode",
            OpClass::Handle => "Handle",
            OpClass::Scan => "Scan",
            OpClass::Shfl => "Shfl",
            OpClass::Sync => "Sync",
            OpClass::Atomic => "Atomic",
            OpClass::ParDecode => "ParDecode",
            OpClass::Jump => "Jump",
            OpClass::Generic => "Generic",
            OpClass::TableDecode => "TableDecode",
            OpClass::RefChase => "RefChase",
        }
    }
}

/// Number of op classes.
pub const NUM_CLASSES: usize = 13;

/// All classes, indexable by `OpClass as usize`.
pub const ALL_CLASSES: [OpClass; NUM_CLASSES] = [
    OpClass::Header,
    OpClass::ItvDecode,
    OpClass::ResDecode,
    OpClass::Handle,
    OpClass::Scan,
    OpClass::Shfl,
    OpClass::Sync,
    OpClass::Atomic,
    OpClass::ParDecode,
    OpClass::Jump,
    OpClass::Generic,
    OpClass::TableDecode,
    OpClass::RefChase,
];

/// Instruction-slot tallies for one warp (or a merge of many warps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Warp instruction slots per class.
    pub issues: [u64; NUM_CLASSES],
    /// Sum of active lanes across all slots (utilization numerator).
    pub lane_work: u64,
    /// Warp width (denominator of utilization; 0 until first issue).
    pub width: u64,
}

impl Tally {
    /// An empty tally for a warp of the given width.
    pub fn new(width: usize) -> Self {
        Self {
            width: width as u64,
            ..Self::default()
        }
    }

    /// Records one warp instruction slot with `active` lanes participating.
    #[inline]
    pub fn issue(&mut self, class: OpClass, active: usize) {
        debug_assert!(
            self.width == 0 || active as u64 <= self.width,
            "{active} active lanes issued on a {}-lane warp",
            self.width
        );
        self.issues[class as usize] += 1;
        self.lane_work += active as u64;
    }

    /// Total instruction slots across all classes.
    pub fn total_issues(&self) -> u64 {
        self.issues.iter().sum()
    }

    /// The step metric of the paper's Figure 4: interval decodes, residual
    /// decodes and neighbour handling (headers, scans and votes are not
    /// drawn as steps in the figure). Table-driven decode slots count too:
    /// a [`OpClass::TableDecode`] slot is the same scheduled decode step,
    /// just charged at the table-probe cost, so step counts are identical
    /// whether or not table decoding is enabled.
    pub fn figure4_steps(&self) -> u64 {
        self.issues[OpClass::ItvDecode as usize]
            + self.issues[OpClass::ResDecode as usize]
            + self.issues[OpClass::TableDecode as usize]
            + self.issues[OpClass::Handle as usize]
    }

    /// SIMT lane utilization in `[0, 1]`: active lanes over issued slots.
    pub fn utilization(&self) -> f64 {
        let total = self.total_issues();
        if total == 0 || self.width == 0 {
            0.0
        } else {
            self.lane_work as f64 / (total * self.width) as f64
        }
    }

    /// Accumulates another tally (e.g. merging warps of one kernel launch).
    pub fn merge(&mut self, other: &Tally) {
        for i in 0..NUM_CLASSES {
            self.issues[i] += other.issues[i];
        }
        self.lane_work += other.lane_work;
        self.width = self.width.max(other.width);
    }

    /// The counters accumulated since `earlier` (a previous snapshot of the
    /// same tally). Used to attribute per-query costs on a shared device.
    pub fn since(&self, earlier: &Tally) -> Tally {
        let mut out = *self;
        for i in 0..NUM_CLASSES {
            out.issues[i] = self.issues[i].saturating_sub(earlier.issues[i]);
        }
        out.lane_work = self.lane_work.saturating_sub(earlier.lane_work);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_accumulates_by_class() {
        let mut t = Tally::new(8);
        t.issue(OpClass::ItvDecode, 3);
        t.issue(OpClass::Handle, 8);
        t.issue(OpClass::Handle, 4);
        assert_eq!(t.issues[OpClass::ItvDecode as usize], 1);
        assert_eq!(t.issues[OpClass::Handle as usize], 2);
        assert_eq!(t.total_issues(), 3);
        assert_eq!(t.lane_work, 15);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "9 active lanes issued on a 8-lane warp")]
    fn more_active_lanes_than_the_warp_has_is_refused() {
        Tally::new(8).issue(OpClass::Handle, 9);
    }

    #[test]
    fn figure4_metric_excludes_headers_and_scans() {
        let mut t = Tally::new(8);
        t.issue(OpClass::Header, 8);
        t.issue(OpClass::Scan, 8);
        t.issue(OpClass::Sync, 8);
        t.issue(OpClass::ResDecode, 2);
        t.issue(OpClass::Handle, 8);
        assert_eq!(t.figure4_steps(), 2);
    }

    #[test]
    fn utilization_bounds() {
        let mut t = Tally::new(8);
        assert_eq!(t.utilization(), 0.0);
        t.issue(OpClass::Handle, 8);
        assert!((t.utilization() - 1.0).abs() < 1e-12);
        t.issue(OpClass::Handle, 0);
        assert!((t.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Tally::new(8);
        a.issue(OpClass::Handle, 4);
        let mut b = Tally::new(8);
        b.issue(OpClass::Handle, 6);
        b.issue(OpClass::Atomic, 1);
        a.merge(&b);
        assert_eq!(a.issues[OpClass::Handle as usize], 2);
        assert_eq!(a.issues[OpClass::Atomic as usize], 1);
        assert_eq!(a.lane_work, 11);
    }
}
