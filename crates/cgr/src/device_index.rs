//! The modeled on-device offset index: the paper's `bitStart` array as the
//! kernels read it and as partitions carry it across the host link.
//!
//! The host keeps the `n + 1` bit offsets Elias–Fano coded
//! ([`CgrGraph::index`](crate::CgrGraph::index)); the device holds them in
//! two levels so a lane reaches any offset in one memory step:
//!
//! * one `u64` **base** per block of [`BLOCK_NODES`] entries — the absolute
//!   bit offset of the block's first entry;
//! * one `u32` **entry** per node plus the closing bound, relative to its
//!   block's base.
//!
//! The entry width is derived from the data once, when a graph is encoded
//! or loaded: 4 bytes when every block spans fewer than 2³² payload bits,
//! else 8 — absolute 64-bit entries with no bases, the dense layout. No
//! graph is unencodable under either.
//!
//! Everything that sizes or addresses the index goes through this type:
//! [`CgrGraph::size_bytes`](crate::CgrGraph::size_bytes), the out-of-core
//! partitions' byte extents, and the kernels' `bitStart` gathers.

use gcgt_bits::EliasFano;
use gcgt_graph::NodeId;

/// Index entries per block; each block carries one `u64` base.
pub const BLOCK_NODES: usize = 4096;

/// Bytes of one block base.
const BASE_BYTES: usize = 8;

/// Shape of a graph's device offset index: how many entries, and how wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceIndex {
    /// `n + 1`: one entry per node plus the closing bound.
    entries: usize,
    /// 4 (two-level) or 8 (dense).
    entry_bytes: usize,
}

impl DeviceIndex {
    /// The entry width for a graph whose widest block spans
    /// `max_block_span_bits` payload bits: a relative `u32` entry when the
    /// span fits one, else an absolute `u64`.
    fn entry_bytes_for(max_block_span_bits: usize) -> usize {
        if u32::try_from(max_block_span_bits).is_ok() {
            4
        } else {
            8
        }
    }

    /// The index over the `n + 1` non-decreasing bit offsets in `offsets`.
    pub(crate) fn of(offsets: &EliasFano) -> DeviceIndex {
        let entries = offsets.len();
        let max_span = (0..entries)
            .step_by(BLOCK_NODES)
            .map(|first| offsets.get((first + BLOCK_NODES).min(entries) - 1) - offsets.get(first))
            .max()
            .unwrap_or(0);
        DeviceIndex {
            entries,
            entry_bytes: Self::entry_bytes_for(max_span),
        }
    }

    /// Bytes of one entry: 4 under the two-level layout, 8 under the dense
    /// one.
    #[inline]
    pub fn entry_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Bytes of one block base: 0 under the dense layout, which has none.
    #[inline]
    fn base_bytes(&self) -> usize {
        if self.entry_bytes == 8 {
            0
        } else {
            BASE_BYTES
        }
    }

    /// Device bytes of the index slice a node range `first..end` carries:
    /// its entries `first..=end` (the closing bound included) and the bases
    /// of every block they fall in. `slice_bytes(0, n)` is the whole index.
    #[inline]
    pub fn slice_bytes(&self, first: usize, end: usize) -> usize {
        let blocks = end / BLOCK_NODES - first / BLOCK_NODES + 1;
        (end - first + 1) * self.entry_bytes + blocks * self.base_bytes()
    }

    /// Device bytes of the index a reference-chain closure co-stages with a
    /// range that starts at node `first`: one entry per closure node
    /// (`nodes`, ascending, all below `first`) and the base of each block
    /// among them that the range's own slice does not already carry.
    pub fn closure_bytes(&self, nodes: impl IntoIterator<Item = usize>, first: usize) -> usize {
        let carried = first / BLOCK_NODES;
        let (mut entries, mut bases, mut last) = (0, 0, None);
        for u in nodes {
            let block = u / BLOCK_NODES;
            entries += 1;
            bases += usize::from(block != carried && last != Some(block));
            last = Some(block);
        }
        entries * self.entry_bytes + bases * self.base_bytes()
    }

    /// Byte offsets (within the index) that a lane reading node `u`'s
    /// `bitStart` touches in its one memory step: its entry and, under the
    /// two-level layout, its block's base. The bases follow the closing
    /// entry.
    #[inline]
    pub fn entry_addrs(&self, u: NodeId) -> impl Iterator<Item = u64> {
        let u = u as usize;
        let entry = (u * self.entry_bytes) as u64;
        let base = (self.base_bytes() > 0)
            .then(|| (self.entries * self.entry_bytes + (u / BLOCK_NODES) * BASE_BYTES) as u64);
        std::iter::once(entry).chain(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(offsets: &[usize]) -> DeviceIndex {
        DeviceIndex::of(&EliasFano::build(offsets))
    }

    #[test]
    fn width_is_four_bytes_below_two_to_the_32_bits_per_block() {
        assert_eq!(DeviceIndex::entry_bytes_for(0), 4);
        assert_eq!(DeviceIndex::entry_bytes_for((1 << 32) - 1), 4);
        assert_eq!(DeviceIndex::entry_bytes_for(1 << 32), 8);
        assert_eq!(DeviceIndex::entry_bytes_for(usize::MAX), 8);
    }

    #[test]
    fn width_follows_the_widest_block() {
        // Two full blocks: the second spans from its base (entry
        // BLOCK_NODES) to its last entry.
        let mut offsets: Vec<usize> = (0..2 * BLOCK_NODES).collect();
        assert_eq!(index(&offsets).entry_bytes(), 4);
        let last = offsets.len() - 1;
        offsets[last] = BLOCK_NODES + (1 << 32) - 1;
        assert_eq!(index(&offsets).entry_bytes(), 4);
        offsets[last] = BLOCK_NODES + (1 << 32);
        assert_eq!(index(&offsets).entry_bytes(), 8);
        // The same jump *onto* a block's first entry is that block's base,
        // not a span: entries stay relative.
        let mut offsets: Vec<usize> = (0..=BLOCK_NODES).collect();
        offsets[BLOCK_NODES] += 1 << 32;
        assert_eq!(index(&offsets).entry_bytes(), 4);
    }

    #[test]
    fn slices_carry_their_entries_and_the_bases_of_their_blocks() {
        let n = 3 * BLOCK_NODES;
        let two_level = index(&(0..=n).collect::<Vec<_>>());
        // The whole index: n + 1 entries, and the closing bound opens a
        // fourth block.
        assert_eq!(two_level.slice_bytes(0, n), 4 * (n + 1) + 8 * 4);
        // An empty range still carries its closing bound and that entry's
        // base.
        assert_eq!(two_level.slice_bytes(7, 7), 4 + 8);
        assert_eq!(
            two_level.slice_bytes(BLOCK_NODES - 1, BLOCK_NODES + 1),
            3 * 4 + 2 * 8
        );
        let dense = DeviceIndex {
            entries: n + 1,
            entry_bytes: 8,
        };
        assert_eq!(dense.slice_bytes(0, n), 8 * (n + 1));
        assert_eq!(dense.slice_bytes(5, 9), 8 * 5);
    }

    #[test]
    fn closures_pay_an_entry_per_node_and_only_the_bases_a_range_lacks() {
        let n = 3 * BLOCK_NODES;
        let two_level = index(&(0..=n).collect::<Vec<_>>());
        let b = BLOCK_NODES;
        // All in the range's own first block: its base is already staged.
        assert_eq!(two_level.closure_bytes([b + 1, b + 2, b + 5], b + 9), 3 * 4);
        // Two nodes in the block below share one base.
        assert_eq!(
            two_level.closure_bytes([b - 3, b - 2, b + 1], b + 9),
            3 * 4 + 8
        );
        assert_eq!(
            two_level.closure_bytes([1, b - 2, b + 1], 2 * b),
            3 * 4 + 2 * 8
        );
        assert_eq!(two_level.closure_bytes([], b), 0);
        let dense = DeviceIndex {
            entries: n + 1,
            entry_bytes: 8,
        };
        assert_eq!(dense.closure_bytes([1, b - 2, b + 1], 2 * b), 3 * 8);
    }

    #[test]
    fn a_lane_reads_its_entry_and_its_block_base() {
        let n = 2 * BLOCK_NODES;
        let two_level = index(&(0..=n).collect::<Vec<_>>());
        let addrs: Vec<u64> = two_level.entry_addrs(BLOCK_NODES as NodeId + 3).collect();
        assert_eq!(
            addrs,
            [4 * (BLOCK_NODES as u64 + 3), 4 * (n as u64 + 1) + 8]
        );
        let dense = DeviceIndex {
            entries: n + 1,
            entry_bytes: 8,
        };
        let addrs: Vec<u64> = dense.entry_addrs(5).collect();
        assert_eq!(addrs, [40]);
    }
}
