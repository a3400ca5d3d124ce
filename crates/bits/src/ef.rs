//! Elias–Fano encoding of monotone sequences — the succinct offset index
//! of the GCGR v2 format.
//!
//! A non-decreasing sequence of `n` values with maximum `u` splits each
//! value into `l = ⌊log₂(u/n)⌋` **low** bits, stored densely, and the
//! remaining **high** bits, stored as a unary gap sequence (value `i`
//! contributes a one bit at position `i + (vᵢ ≫ l)`). Total space is
//! `n·l + n + (u ≫ l)` bits — within a factor of two of the information-
//! theoretic optimum, versus 64 bits per entry for the dense `u64` offset
//! array it replaces (the Besta–Hoefler compression survey's standard
//! recipe for keeping the index from dominating the compressed payload).
//!
//! Random access is `get(i) = ((select₁(i) − i) ≪ l) | lowᵢ`, with
//! `select₁` answered by a sampled directory (the bit position of every
//! 64th one) plus a broadword scan — the directory is **derived**: rebuilt
//! in O(high-bits/64) at construction and never serialized, so both halves
//! of the index can be zero-copy views of a shared file buffer
//! ([`BitVec::from_shared`]).

use std::sync::Arc;

use crate::bitvec::{BitVec, BitWriter};

/// Select directory granularity: the bit position of every `SAMPLE`-th one
/// is cached, so a lookup scans at most `SAMPLE` ones past a sample.
const SAMPLE: usize = 64;

/// An immutable Elias–Fano encoded monotone sequence with O(1)-amortized
/// random access. See the module docs for the representation.
#[derive(Clone, Debug)]
pub struct EliasFano {
    /// Number of values.
    n: usize,
    /// Low bits per value.
    low_bits: u32,
    /// `n × low_bits` densely packed low halves.
    low: BitVec,
    /// Unary-coded high halves: `n` ones among `u ≫ low_bits` zeros.
    high: BitVec,
    /// Bit position in `high` of every [`SAMPLE`]-th one — derived, never
    /// serialized.
    samples: Box<[u64]>,
}

/// Position (from the MSB) of the `rank`-th set bit of `word`
/// (0-indexed; `rank < word.count_ones()`).
#[inline]
fn select_in_word_msb(mut word: u64, mut rank: u32) -> u32 {
    debug_assert!(rank < word.count_ones());
    // Halving search: `word` is shifted so that the window still holding
    // the bit starts at the MSB; each step skips the window's top `half`
    // bits when the bit lies below them.
    let mut pos = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let ones = (word >> (64 - half)).count_ones();
        if rank >= ones {
            rank -= ones;
            pos += half;
            word <<= half;
        }
    }
    pos
}

impl EliasFano {
    /// Encodes a non-decreasing sequence.
    ///
    /// # Panics
    /// Panics when the sequence decreases.
    pub fn build(values: &[usize]) -> EliasFano {
        let n = values.len();
        let universe = values.last().copied().unwrap_or(0);
        let low_bits = if n == 0 || universe / n == 0 {
            0
        } else {
            (universe / n).ilog2()
        };
        let mut low = BitWriter::with_capacity(n * low_bits as usize);
        let mut high = BitWriter::with_capacity(n + (universe >> low_bits));
        let mut prev = 0usize;
        let mask = if low_bits == 0 {
            0
        } else {
            (1u64 << low_bits) - 1
        };
        for &v in values {
            assert!(v >= prev, "Elias–Fano input must be non-decreasing");
            low.push_bits(v as u64 & mask, low_bits);
            let bucket = v >> low_bits;
            let mut gap = bucket - (prev >> low_bits);
            while gap > 0 {
                let step = gap.min(u32::MAX as usize) as u32;
                high.push_zeros(step);
                gap -= step as usize;
            }
            high.push_bit(true);
            prev = v;
        }
        Self::from_parts(low.into_bitvec(), high.into_bitvec(), n, low_bits)
            .expect("freshly built halves are consistent")
    }

    /// Reassembles a sequence from its two stored halves (e.g. zero-copy
    /// views of a file buffer) and rebuilds the derived select directory.
    ///
    /// Rejects halves whose sizes disagree (`low` must hold exactly
    /// `n × low_bits` bits, `high` exactly `n` ones with no trailing zeros
    /// after the last one). Note this validates the *shape* only: decoded
    /// values are guaranteed non-decreasing in their high halves, but
    /// corrupt low bits can still produce a locally decreasing sequence —
    /// callers with an external monotonicity contract (the GCGR offset
    /// loaders) re-check the decoded values.
    pub fn from_parts(
        low: BitVec,
        high: BitVec,
        n: usize,
        low_bits: u32,
    ) -> Result<EliasFano, String> {
        if low_bits >= 64 {
            return Err(format!("{low_bits} low bits per value is out of range"));
        }
        if low.len() != n * low_bits as usize {
            return Err(format!(
                "low section holds {} bits but {n} values × {low_bits} low bits need {}",
                low.len(),
                n * low_bits as usize
            ));
        }
        let mut ones = 0usize;
        let mut samples = Vec::with_capacity(n.div_ceil(SAMPLE));
        for (w, &word) in high.words().iter().enumerate() {
            let pc = word.count_ones() as usize;
            // Global ranks ≡ 0 (mod SAMPLE) falling inside this word.
            let mut next = ones.div_ceil(SAMPLE) * SAMPLE;
            while next < ones + pc {
                let rank = (next - ones) as u32;
                samples.push(w as u64 * 64 + u64::from(select_in_word_msb(word, rank)));
                next += SAMPLE;
            }
            ones += pc;
        }
        if ones != n {
            return Err(format!(
                "high section holds {ones} values but the header declares {n}"
            ));
        }
        if n > 0 {
            // No trailing zeros after the final one: the high section's
            // declared bit length must end exactly at the last one.
            if !high.get(high.len() - 1) {
                return Err("high section has trailing bits after the last value".into());
            }
        } else if !high.is_empty() {
            return Err("high section is non-empty for zero values".into());
        }
        Ok(EliasFano {
            n,
            low_bits,
            low,
            high,
            samples: samples.into_boxed_slice(),
        })
    }

    /// Number of encoded values.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Low bits per value (`l`).
    #[inline]
    pub fn low_bits(&self) -> u32 {
        self.low_bits
    }

    /// The densely packed low halves (serialized as-is by GCGR v2).
    #[inline]
    pub fn low(&self) -> &BitVec {
        &self.low
    }

    /// The unary-coded high halves (serialized as-is by GCGR v2).
    #[inline]
    pub fn high(&self) -> &BitVec {
        &self.high
    }

    /// On-disk size of the index in bytes: both halves' word storage. The
    /// derived select directory adds `n/64` transient words at load time
    /// and is excluded — it is never serialized.
    pub fn size_bytes(&self) -> usize {
        self.low.storage_bytes() + self.high.storage_bytes()
    }

    /// Bit position in `high` of the `i`-th one (0-indexed).
    #[inline]
    fn select(&self, i: usize) -> usize {
        let sample = self.samples[i / SAMPLE] as usize;
        let mut rank = i % SAMPLE;
        if rank == 0 {
            return sample;
        }
        rank -= 1; // ones to skip strictly after the sampled one
        let words = self.high.words();
        let mut w = sample / 64;
        // Mask off the sampled one and everything before it (MSB-first).
        let mut word = words[w] & (u64::MAX >> (sample % 64)) & !(1u64 << (63 - sample % 64));
        loop {
            let pc = word.count_ones() as usize;
            if rank < pc {
                return w * 64 + select_in_word_msb(word, rank as u32) as usize;
            }
            rank -= pc;
            w += 1;
            word = words[w];
        }
    }

    /// The `i`-th value.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        assert!(i < self.n, "index {i} out of bounds (len {})", self.n);
        let high = self.select(i) - i;
        let low = self.low.get_bits(i * self.low_bits as usize, self.low_bits) as usize;
        (high << self.low_bits) | low
    }

    /// Iterates the decoded values in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).map(move |i| self.get(i))
    }

    /// Rebuilds this index as zero-copy views of `buf`, with the low half
    /// at word `low_first` and the high half at word `high_first` — the
    /// GCGR v2 load path. Shapes are re-validated via
    /// [`EliasFano::from_parts`].
    pub fn from_shared(
        buf: Arc<[u64]>,
        low_first: usize,
        high_first: usize,
        n: usize,
        low_bits: u32,
        high_len: usize,
    ) -> Result<EliasFano, String> {
        let low = BitVec::from_shared(Arc::clone(&buf), low_first, n * low_bits as usize)
            .map_err(|e| format!("EF low section: {e}"))?;
        let high = BitVec::from_shared(buf, high_first, high_len)
            .map_err(|e| format!("EF high section: {e}"))?;
        Self::from_parts(low, high, n, low_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit reference for [`select_in_word_msb`].
    fn select_by_scan(word: u64, rank: u32) -> u32 {
        (0..64)
            .filter(|&bit| (word >> (63 - bit)) & 1 == 1)
            .nth(rank as usize)
            .unwrap()
    }

    #[test]
    fn select_in_word_finds_every_rank_of_random_words() {
        // SplitMix64, with sparse and dense words mixed in by AND / OR.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut words = vec![1, 1 << 63, u64::MAX, 0x8000_0000_0000_0001];
        for _ in 0..2_000 {
            let (a, b) = (next(), next());
            words.extend([a, a & b, a | b, a & b & next()]);
        }
        for word in words.into_iter().filter(|&w| w != 0) {
            for rank in 0..word.count_ones() {
                assert_eq!(
                    select_in_word_msb(word, rank),
                    select_by_scan(word, rank),
                    "word {word:#018x}, rank {rank}"
                );
            }
        }
    }

    fn round_trip(values: &[usize]) {
        let ef = EliasFano::build(values);
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "value {i} of {values:?}");
        }
        assert_eq!(ef.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn round_trips_small_sequences() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[7]);
        round_trip(&[0, 0, 0]);
        round_trip(&[0, 1, 2, 3]);
        round_trip(&[0, 0, 5, 5, 5, 9]);
        round_trip(&[3, 3, 1000]);
        round_trip(&[0, 1 << 40]);
    }

    #[test]
    fn round_trips_offset_like_sequences() {
        // Dense, skewed, and clustered monotone runs like CGR offsets.
        let mut dense: Vec<usize> = (0..5000).map(|i| i * 3).collect();
        round_trip(&dense);
        dense.push(1 << 33);
        round_trip(&dense);
        let mut acc = 0usize;
        let skewed: Vec<usize> = (0..3000)
            .map(|i| {
                acc += if i % 97 == 0 { 50_000 } else { (i * i) % 7 };
                acc
            })
            .collect();
        round_trip(&skewed);
    }

    #[test]
    fn select_samples_cross_word_boundaries() {
        // > SAMPLE ones per word and sparse runs: both sampling regimes.
        let packed: Vec<usize> = (0..1000).collect(); // every high bit set
        round_trip(&packed);
        let sparse: Vec<usize> = (0..1000).map(|i| i * 1237).collect();
        round_trip(&sparse);
    }

    #[test]
    fn smaller_than_dense_for_clustered_offsets() {
        let values: Vec<usize> = (0..100_000).map(|i| i * 29).collect();
        let ef = EliasFano::build(&values);
        let dense = values.len() * 8;
        assert!(
            ef.size_bytes() * 4 < dense,
            "EF {} bytes vs dense {} bytes",
            ef.size_bytes(),
            dense
        );
    }

    #[test]
    fn from_parts_round_trips_through_raw_words() {
        let values: Vec<usize> = (0..500).map(|i| i * 13 + i % 5).collect();
        let ef = EliasFano::build(&values);
        let low = BitVec::from_words(ef.low().words().to_vec(), ef.low().len());
        let high = BitVec::from_words(ef.high().words().to_vec(), ef.high().len());
        let rebuilt = EliasFano::from_parts(low, high, values.len(), ef.low_bits()).unwrap();
        assert_eq!(rebuilt.iter().collect::<Vec<_>>(), values);
    }

    #[test]
    fn from_parts_rejects_shape_mismatches() {
        let values: Vec<usize> = (0..100).map(|i| i * 7).collect();
        let ef = EliasFano::build(&values);
        let low = || BitVec::from_words(ef.low().words().to_vec(), ef.low().len());
        let high = || BitVec::from_words(ef.high().words().to_vec(), ef.high().len());
        // Wrong value count vs ones in the high half.
        assert!(EliasFano::from_parts(low(), high(), values.len() + 1, ef.low_bits()).is_err());
        // Wrong low width for the declared count.
        assert!(EliasFano::from_parts(low(), high(), values.len(), ef.low_bits() + 1).is_err());
        // Out-of-range low width.
        assert!(EliasFano::from_parts(low(), high(), values.len(), 64).is_err());
    }

    #[test]
    fn shared_views_decode_identically() {
        let values: Vec<usize> = (0..2000).map(|i| i * 11 + (i % 3)).collect();
        let ef = EliasFano::build(&values);
        // Pack both halves into one buffer, as the v2 file layout does.
        let mut buf: Vec<u64> = Vec::new();
        buf.extend_from_slice(ef.low().words());
        let high_first = buf.len();
        buf.extend_from_slice(ef.high().words());
        let shared: Arc<[u64]> = buf.into();
        let zero_copy = EliasFano::from_shared(
            shared,
            0,
            high_first,
            values.len(),
            ef.low_bits(),
            ef.high().len(),
        )
        .unwrap();
        assert!(zero_copy.low().is_shared() && zero_copy.high().is_shared());
        assert_eq!(zero_copy.iter().collect::<Vec<_>>(), values);
    }
}
