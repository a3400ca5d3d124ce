//! Device-memory model: 128-byte line granularity, per-step coalescing and
//! a small per-warp cache.
//!
//! Each warp step that touches memory presents the byte addresses accessed
//! by its active lanes; the distinct lines among them (after cache
//! filtering) become *memory transactions* — the paper's dominant cost
//! ("these operations require device memory accesses, which are the major
//! cost considered in the context of GPU-based graph processing").
//! Uncoalesced patterns (lanes on far-apart addresses, as in the intuitive
//! Algorithm 1) therefore cost up to `warp_width` transactions per step,
//! while the cooperative patterns of Algorithms 2–4 cost one or two.

/// Logical address spaces. Each space lives at a disjoint base so accesses
/// to, say, the visited bitmap never alias the compressed graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum Space {
    /// The graph structure (CGR bit array or CSR arrays).
    Graph = 0,
    /// CSR row offsets (kept separate from column indices for coalescing).
    Offsets = 1,
    /// Frontier queues.
    Frontier = 2,
    /// Visited bitmap / status labels.
    Visited = 3,
    /// Per-node values (depths, component ids, σ/δ, ranks).
    Labels = 4,
    /// Output queue.
    Output = 5,
}

impl Space {
    /// Maps `(space, byte offset)` to a global simulated address.
    #[inline]
    pub fn addr(self, offset: u64) -> u64 {
        ((self as u64) << 44) | offset
    }
}

/// Memory-traffic counters for one warp (or a merge of warps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// 128-byte transactions actually sent to device memory.
    pub transactions: u64,
    /// Line touches absorbed by the per-warp cache.
    pub cache_hits: u64,
    /// Warp steps that touched memory.
    pub mem_steps: u64,
    /// Sum over mem steps of distinct lines touched (pre-cache) — the
    /// coalescing quality denominator.
    pub lines_touched: u64,
}

impl MemStats {
    /// Fraction of line touches served by the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.transactions + self.cache_hits;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Average distinct lines per memory step (1.0 = perfectly coalesced).
    pub fn lines_per_step(&self) -> f64 {
        if self.mem_steps == 0 {
            0.0
        } else {
            self.lines_touched as f64 / self.mem_steps as f64
        }
    }

    /// Accumulates another counter set.
    pub fn merge(&mut self, other: &MemStats) {
        self.transactions += other.transactions;
        self.cache_hits += other.cache_hits;
        self.mem_steps += other.mem_steps;
        self.lines_touched += other.lines_touched;
    }

    /// The counters accumulated since `earlier` (a previous snapshot of the
    /// same counter set).
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            transactions: self.transactions.saturating_sub(earlier.transactions),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            mem_steps: self.mem_steps.saturating_sub(earlier.mem_steps),
            lines_touched: self.lines_touched.saturating_sub(earlier.lines_touched),
        }
    }
}

/// Per-warp memory simulator: coalescing plus a direct-mapped line cache
/// (GPU L1/L2 stand-in; direct-mapped keeps the simulation deterministic
/// and cheap while capturing the "decode stays in cache" behaviour).
#[derive(Clone, Debug)]
pub struct MemSim {
    line_shift: u32,
    /// Direct-mapped cache: slot -> line id (u64::MAX = empty).
    cache: Box<[u64]>,
    cache_mask: u64,
    counters: MemStats,
    /// Scratch: lines of the current step (small, sorted-dedup).
    scratch: Vec<u64>,
}

/// Bytes of one memory line: the transaction granularity of device memory
/// and of a zero-copy host read.
pub const LINE_BYTES: u64 = 128;

impl MemSim {
    /// Creates a simulator with 128-byte lines and `cache_lines` slots
    /// (rounded up to a power of two, minimum 1).
    pub fn new(cache_lines: usize) -> Self {
        let slots = cache_lines.next_power_of_two().max(1);
        Self {
            line_shift: LINE_BYTES.trailing_zeros(),
            cache: vec![u64::MAX; slots].into_boxed_slice(),
            cache_mask: slots as u64 - 1,
            counters: MemStats::default(),
            scratch: Vec::with_capacity(64),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Simulates one warp step touching the given lane addresses. Returns
    /// the number of transactions issued (post-cache).
    pub fn access_step<I: IntoIterator<Item = u64>>(&mut self, addrs: I) -> u64 {
        self.scratch.clear();
        for a in addrs {
            // Neighbouring lanes mostly share a line: drop a repeat before
            // the sort instead of after it.
            let line = a >> self.line_shift;
            if self.scratch.last() != Some(&line) {
                self.scratch.push(line);
            }
        }
        if self.scratch.is_empty() {
            return 0;
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
        self.counters.mem_steps += 1;
        self.counters.lines_touched += self.scratch.len() as u64;
        let mut txns = 0;
        for i in 0..self.scratch.len() {
            let line = self.scratch[i];
            if self.lookup_insert(line) {
                self.counters.cache_hits += 1;
            } else {
                txns += 1;
            }
        }
        self.counters.transactions += txns;
        txns
    }

    /// A single-lane access (e.g. an atomic's cache line).
    pub fn access_one(&mut self, addr: u64) -> u64 {
        self.access_step(std::iter::once(addr))
    }

    /// Accesses a byte range as consecutive lines (e.g. a warp cooperatively
    /// streaming a segment).
    pub fn access_range(&mut self, start: u64, bytes: u64) -> u64 {
        let lb = self.line_bytes();
        let shift = self.line_shift;
        let first = start / lb;
        let last = (start + bytes.max(1) - 1) / lb;
        self.access_step((first..=last).map(move |l| l << shift))
    }

    /// True if the line was cached (and refreshes/installs it).
    #[inline]
    fn lookup_insert(&mut self, line: u64) -> bool {
        let slot = (line & self.cache_mask) as usize;
        if self.cache[slot] == line {
            true
        } else {
            self.cache[slot] = line;
            false
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &MemStats {
        &self.counters
    }

    /// Empties the cache and zeroes the counters, keeping the allocations.
    pub fn reset(&mut self) {
        self.cache.fill(u64::MAX);
        self.counters = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_access_is_one_transaction() {
        let mut m = MemSim::new(64);
        // 32 lanes reading consecutive 4-byte words: one 128-byte line.
        let txns = m.access_step((0..32u64).map(|i| Space::Frontier.addr(4 * i)));
        assert_eq!(txns, 1);
    }

    #[test]
    fn scattered_access_costs_one_line_each() {
        let mut m = MemSim::new(0); // no cache
        let txns = m.access_step((0..8u64).map(|i| Space::Visited.addr(100_000 * i)));
        assert_eq!(txns, 8);
        assert_eq!(m.stats().lines_per_step(), 8.0);
    }

    #[test]
    fn cache_absorbs_repeats() {
        let mut m = MemSim::new(64);
        assert_eq!(m.access_one(Space::Graph.addr(10)), 1);
        assert_eq!(m.access_one(Space::Graph.addr(20)), 0); // same line
        assert_eq!(m.stats().cache_hits, 1);
        assert_eq!(m.stats().transactions, 1);
    }

    #[test]
    fn spaces_do_not_alias() {
        let mut m = MemSim::new(64);
        assert_eq!(m.access_one(Space::Graph.addr(0)), 1);
        assert_eq!(m.access_one(Space::Visited.addr(0)), 1);
        assert_eq!(m.stats().transactions, 2);
    }

    #[test]
    fn direct_mapped_eviction() {
        let mut m = MemSim::new(2); // 2 slots
        let a = Space::Graph.addr(0); // line 0 -> slot 0
        let b = Space::Graph.addr(2 * 128); // line 2 -> slot 0 (conflict)
        assert_eq!(m.access_one(a), 1);
        assert_eq!(m.access_one(b), 1); // evicts a
        assert_eq!(m.access_one(a), 1); // miss again
        assert_eq!(m.stats().cache_hits, 0);
    }

    #[test]
    fn access_range_covers_lines() {
        let mut m = MemSim::new(0);
        // 300 bytes starting at byte 100 → lines 0,1,2,3 → wait: bytes
        // 100..400 → lines 0..=3 is wrong: 100/128=0, 399/128=3 → 4 lines.
        let txns = m.access_range(Space::Graph.addr(100), 300);
        assert_eq!(txns, 4);
    }

    #[test]
    fn hit_rate_and_merge() {
        let mut a = MemStats {
            transactions: 3,
            cache_hits: 1,
            mem_steps: 2,
            lines_touched: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.transactions, 6);
        assert!((a.cache_hit_rate() - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_step_costs_nothing() {
        let mut m = MemSim::new(8);
        assert_eq!(m.access_step(std::iter::empty()), 0);
        assert_eq!(m.stats().mem_steps, 0);
    }
}
