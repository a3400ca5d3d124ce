//! The warp execution context handed to every simulated kernel: instruction
//! tallies, the memory model, and the warp-level primitives the paper's
//! pseudocode relies on (`exclusiveScan`, `shfl`, `syncAny`, voting).
//!
//! Kernels are written lane-vectorized: per logical round they operate on
//! small per-lane state arrays and report each serialized branch class as
//! one [`WarpSim::issue`]. Shared memory is plain host memory (its latency
//! is register-like on real GPUs and the paper treats warp communication as
//! effectively free), while every device-memory touch goes through
//! [`WarpSim::access`].

use crate::mem::{MemSim, MemStats};
use crate::tally::{OpClass, Tally};

/// Per-warp simulation context.
#[derive(Clone, Debug)]
pub struct WarpSim {
    width: usize,
    tally: Tally,
    mem: MemSim,
    table_decode: bool,
}

impl WarpSim {
    /// The widest warp the simulator supports. The cap is load-bearing, not
    /// cosmetic: [`WarpSim::ballot`] packs one lane per bit of a `u64`, so a
    /// 65-lane warp would shift past the mask and panic (debug) or silently
    /// drop lanes (release). Guarded here, once, with a typed assert.
    pub const MAX_WIDTH: usize = u64::BITS as usize;

    /// A warp of `width` lanes with a `cache_lines`-slot memory cache.
    ///
    /// # Panics
    /// Panics unless `1 <= width <= MAX_WIDTH` (64): ballot masks are `u64`.
    pub fn new(width: usize, cache_lines: usize) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&width),
            "warp width {width} out of range 1..={} (ballot packs one lane per u64 bit)",
            Self::MAX_WIDTH
        );
        Self {
            width,
            tally: Tally::new(width),
            mem: MemSim::new(cache_lines),
            table_decode: false,
        }
    }

    /// Enables (or disables) the table-decode cost model: with it on,
    /// [`OpClass::ItvDecode`] / [`OpClass::ResDecode`] slots are charged as
    /// [`OpClass::TableDecode`] — the kernel's serialized decode *schedule*
    /// is unchanged (one slot per decode step, so Figure 4 step counts are
    /// preserved), but each slot costs one shared-memory table probe
    /// instead of a serial bit-scan. Engines set this from
    /// [`crate::DeviceConfig::table_decode`]; kernels keep naming the
    /// logical class and never need to know.
    #[must_use]
    pub fn with_table_decode(mut self, on: bool) -> Self {
        self.table_decode = on;
        self
    }

    /// Whether decode slots are charged at the table-probe cost.
    #[inline]
    pub fn table_decode(&self) -> bool {
        self.table_decode
    }

    /// The class a slot is charged under: decode classes map to
    /// [`OpClass::TableDecode`] when table decoding is enabled.
    #[inline]
    fn slot_class(&self, class: OpClass) -> OpClass {
        match class {
            OpClass::ItvDecode | OpClass::ResDecode if self.table_decode => OpClass::TableDecode,
            other => other,
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Records one serialized warp step of `class` with `active` lanes.
    #[inline]
    pub fn issue(&mut self, class: OpClass, active: usize) {
        self.tally.issue(self.slot_class(class), active);
    }

    /// Records one warp step that also touches memory: the lane addresses
    /// are coalesced into transactions.
    #[inline]
    pub fn issue_mem<I: IntoIterator<Item = u64>>(
        &mut self,
        class: OpClass,
        active: usize,
        addrs: I,
    ) {
        self.tally.issue(self.slot_class(class), active);
        self.mem.access_step(addrs);
    }

    /// Memory access without an instruction slot (e.g. the extra lines of a
    /// multi-line cooperative load).
    #[inline]
    pub fn access<I: IntoIterator<Item = u64>>(&mut self, addrs: I) {
        self.mem.access_step(addrs);
    }

    /// Cooperative load of a contiguous byte range.
    #[inline]
    pub fn access_range(&mut self, start: u64, bytes: u64) {
        self.mem.access_range(start, bytes);
    }

    // --- warp primitives --------------------------------------------------

    /// The paper's `exclusiveScan`: prefix sums of one value per lane.
    /// Returns `(scatter, total)` — `scatter[i] = sum(vals[0..i])`.
    /// Costs one [`OpClass::Scan`] slot (log-depth shuffle scan on hardware;
    /// constant here, identically for every strategy).
    pub fn exclusive_scan(&mut self, vals: &[u32]) -> (Vec<u32>, u32) {
        debug_assert!(vals.len() <= self.width);
        // Scan/vote/shuffle primitives execute warp-wide on hardware: every
        // lane participates regardless of how many carry live values.
        self.issue(OpClass::Scan, self.width);
        let mut scatter = Vec::with_capacity(vals.len());
        let mut acc = 0u32;
        for &v in vals {
            scatter.push(acc);
            acc += v;
        }
        (scatter, acc)
    }

    /// The paper's `shfl`: broadcasts `vals[src_lane]` to all lanes.
    pub fn shfl<T: Copy>(&mut self, vals: &[T], src_lane: usize) -> T {
        self.issue(OpClass::Shfl, self.width);
        vals[src_lane]
    }

    /// The paper's `syncAny`: true if any lane's predicate holds.
    pub fn sync_any(&mut self, preds: &[bool]) -> bool {
        self.issue(OpClass::Sync, self.width);
        preds.iter().any(|&p| p)
    }

    /// `syncAll`: true if every lane's predicate holds (Algorithm 3).
    pub fn sync_all(&mut self, preds: &[bool]) -> bool {
        self.issue(OpClass::Sync, self.width);
        preds.iter().all(|&p| p)
    }

    /// `syncNone`: true if no lane's predicate holds (Algorithm 4's loop
    /// exit).
    pub fn sync_none(&mut self, preds: &[bool]) -> bool {
        self.issue(OpClass::Sync, self.width);
        !preds.iter().any(|&p| p)
    }

    /// Ballot: bitmask of lanes whose predicate holds. Lane indices are
    /// guaranteed `< MAX_WIDTH` by the constructor, so the per-lane shift
    /// can never overflow the `u64` mask.
    pub fn ballot(&mut self, preds: &[bool]) -> u64 {
        debug_assert!(preds.len() <= self.width);
        self.issue(OpClass::Sync, self.width);
        preds
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &p)| if p { m | (1u64 << i) } else { m })
    }

    /// One atomic RMW issued by a single lane on behalf of the warp
    /// (the `outQueue.atomicAdd` of Algorithm 1's contraction).
    pub fn atomic_add(&mut self, addr: u64) {
        self.tally.issue(OpClass::Atomic, 1);
        self.mem.access_one(addr);
    }

    // --- results ----------------------------------------------------------

    /// Instruction tallies so far.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Memory counters so far.
    pub fn mem_stats(&self) -> &MemStats {
        self.mem.stats()
    }

    /// Consumes the warp into its `(tally, mem)` counters.
    pub fn into_counters(self) -> (Tally, MemStats) {
        (self.tally, *self.mem.stats())
    }

    /// Returns the `(tally, mem)` counters and leaves the warp as
    /// [`WarpSim::new`] made it, so one context can price many warps in turn
    /// without allocating a cache for each.
    pub fn take_counters(&mut self) -> (Tally, MemStats) {
        let counters = (self.tally, *self.mem.stats());
        self.tally = Tally::new(self.width);
        self.mem.reset();
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Space;

    #[test]
    fn exclusive_scan_matches_definition() {
        let mut w = WarpSim::new(8, 16);
        let (scatter, total) = w.exclusive_scan(&[1, 0, 2, 0, 3]);
        assert_eq!(scatter, vec![0, 1, 1, 3, 3]);
        assert_eq!(total, 6);
        assert_eq!(w.tally().issues[OpClass::Scan as usize], 1);
    }

    #[test]
    fn shfl_broadcasts() {
        let mut w = WarpSim::new(4, 16);
        assert_eq!(w.shfl(&[10, 20, 30, 40], 2), 30);
    }

    #[test]
    fn votes() {
        let mut w = WarpSim::new(4, 16);
        assert!(w.sync_any(&[false, true, false, false]));
        assert!(!w.sync_all(&[false, true, true, true]));
        assert!(w.sync_none(&[false, false, false, false]));
        assert_eq!(w.ballot(&[true, false, true, false]), 0b0101);
        assert_eq!(w.tally().issues[OpClass::Sync as usize], 4);
    }

    #[test]
    fn issue_mem_coalesces() {
        let mut w = WarpSim::new(8, 16);
        w.issue_mem(
            OpClass::Handle,
            8,
            (0..8u64).map(|i| Space::Output.addr(4 * i)),
        );
        assert_eq!(w.mem_stats().transactions, 1);
        assert_eq!(w.tally().issues[OpClass::Handle as usize], 1);
    }

    #[test]
    fn atomic_counts_instruction_and_memory() {
        let mut w = WarpSim::new(8, 16);
        w.atomic_add(Space::Output.addr(0));
        assert_eq!(w.tally().issues[OpClass::Atomic as usize], 1);
        assert_eq!(w.mem_stats().transactions, 1);
    }

    #[test]
    fn take_counters_leaves_a_fresh_warp() {
        let step = |w: &mut WarpSim| w.issue_mem(OpClass::Jump, 1, [Space::Labels.addr(0)]);
        let mut fresh = WarpSim::new(8, 16);
        step(&mut fresh);
        let mut w = WarpSim::new(8, 16);
        step(&mut w);
        step(&mut w);
        assert_eq!(w.mem_stats().cache_hits, 1);
        w.take_counters();
        // The cache is empty again: the same line misses, as on a new warp.
        step(&mut w);
        assert_eq!(w.take_counters(), fresh.into_counters());
    }

    #[test]
    #[should_panic(expected = "warp width")]
    fn zero_width_rejected() {
        let _ = WarpSim::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "warp width 65 out of range")]
    fn width_past_ballot_mask_rejected() {
        // Regression: ballot packs one lane per u64 bit, so a 65-lane warp
        // would overflow `1 << i` at lane 64. The constructor must refuse it
        // rather than let ballot panic (debug) or lose lanes (release).
        let _ = WarpSim::new(WarpSim::MAX_WIDTH + 1, 4);
    }

    #[test]
    fn table_decode_mode_charges_probe_slots() {
        // Same schedule, different charge class: decode slots become
        // TableDecode, everything else is untouched, and the Figure 4 step
        // count is identical either way.
        let mut w = WarpSim::new(8, 16).with_table_decode(true);
        w.issue(OpClass::ItvDecode, 4);
        w.issue_mem(
            OpClass::ResDecode,
            4,
            (0..4u64).map(|i| Space::Graph.addr(i * 512)),
        );
        w.issue(OpClass::Handle, 8);
        let t = w.tally();
        assert_eq!(t.issues[OpClass::ItvDecode as usize], 0);
        assert_eq!(t.issues[OpClass::ResDecode as usize], 0);
        assert_eq!(t.issues[OpClass::TableDecode as usize], 2);
        assert_eq!(t.issues[OpClass::Handle as usize], 1);
        assert_eq!(t.figure4_steps(), 3);
        assert!(w.table_decode());
        assert!(!WarpSim::new(8, 16).table_decode());
    }

    #[test]
    fn ballot_at_full_width_sets_the_top_bit() {
        // Lane 63 maps to bit 63 — the shift that makes MAX_WIDTH = 64 the
        // hard cap.
        let mut w = WarpSim::new(WarpSim::MAX_WIDTH, 16);
        let mut preds = vec![false; WarpSim::MAX_WIDTH];
        preds[0] = true;
        preds[63] = true;
        assert_eq!(w.ballot(&preds), (1u64 << 63) | 1);
    }
}
