//! Variable-length codes (Appendix B of the paper).
//!
//! All codes encode **positive** integers (`x >= 1`). The CGR layer applies
//! the paper's Appendix C shifts (`+1` because VLC cannot represent 0, and
//! the sign-folding for possibly-negative first gaps) before calling these.
//!
//! The ζ-code here follows the paper's own definition, which differs from
//! the original Boldi–Vigna ζ code: "if the value of the unary-code part in
//! ζk-code is x, then it means that this element's length of significant bits
//! is k·x in binary representation". Concretely, for a value with `L`
//! significant bits and `m = ceil(L / k)`:
//!
//! * γ-code: unary(L) then the `L-1` trailing bits (leading 1 omitted);
//! * ζk-code: unary(m) then the value in `m·k` bits (leading 1 kept).
//!
//! where `unary(n)` is `n-1` zeros followed by a 1. Both match the paper's
//! Table 3 exactly (see tests).

use crate::bitvec::{BitReader, BitVec, BitWriter};
use crate::significant_bits;

/// A variable-length code scheme for positive integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    /// Elias γ: unary length, then significant bits with the leading 1 omitted.
    Gamma,
    /// Elias δ: γ-coded length, then significant bits with the leading 1
    /// omitted. Not evaluated in the paper; provided for completeness and
    /// used by an ablation bench.
    Delta,
    /// The paper's ζk code (`k >= 1`). `Zeta(3)` is the paper's default
    /// (Table 2).
    Zeta(u8),
}

impl Code {
    /// All schemes swept in Figure 11, in the figure's order.
    pub const FIGURE11_SWEEP: [Code; 5] = [
        Code::Gamma,
        Code::Zeta(2),
        Code::Zeta(3),
        Code::Zeta(4),
        Code::Zeta(5),
    ];

    /// The paper's selected scheme (Table 2): ζ3.
    pub const PAPER_DEFAULT: Code = Code::Zeta(3);

    /// Human-readable name as printed in the figures (`γ`, `ζ2`, ...).
    pub fn name(&self) -> String {
        match self {
            Code::Gamma => "gamma".to_string(),
            Code::Delta => "delta".to_string(),
            Code::Zeta(k) => format!("zeta{k}"),
        }
    }

    /// Appends the codeword for `x` (`x >= 1`).
    ///
    /// # Panics
    /// Panics if `x == 0`, or if a ζ code was constructed with `k == 0`.
    #[inline]
    pub fn encode(&self, w: &mut BitWriter, x: u64) {
        assert!(x >= 1, "VLC codes cannot represent 0 (apply the +1 shift)");
        match *self {
            Code::Gamma => {
                let l = significant_bits(x);
                // unary(L): L-1 zeros then 1
                w.push_zeros(l - 1);
                w.push_bit(true);
                // L-1 trailing bits (leading 1 omitted)
                w.push_bits(x & low_mask(l - 1), l - 1);
            }
            Code::Delta => {
                let l = significant_bits(x);
                Code::Gamma.encode(w, l as u64);
                w.push_bits(x & low_mask(l - 1), l - 1);
            }
            Code::Zeta(k) => {
                let k = u32::from(k);
                assert!(k >= 1, "zeta code requires k >= 1");
                let l = significant_bits(x);
                let m = l.div_ceil(k);
                // unary(m): m-1 zeros then 1
                w.push_zeros(m - 1);
                w.push_bit(true);
                // value in m*k bits, leading 1 kept (padded with zeros)
                let width = m * k;
                if width > 64 {
                    // Only reachable for k*m > 64; pad the impossible high
                    // bits explicitly, then the 64-bit value.
                    w.push_zeros(width - 64);
                    w.push_bits(x, 64);
                } else {
                    w.push_bits(x, width);
                }
            }
        }
    }

    /// The longest unary zero run any **valid** codeword of this code can
    /// start with (values are `u64`): 63 for γ (a value has at most 64
    /// significant bits), and `⌈64/k⌉ - 1` for ζk (at most `⌈64/k⌉`
    /// k-bit blocks). Longer runs only appear in corrupt payloads, and
    /// every decoder — slow path and table fast path alike — rejects them
    /// through [`BitReader::read_unary_zeros`]'s limit instead of
    /// overflowing a shift. (This subsumes the old γ ≥64-zero guard.)
    #[inline]
    pub fn unary_limit(&self) -> u32 {
        match *self {
            // δ's unary belongs to the γ-coded length, so γ's limit applies.
            Code::Gamma | Code::Delta => 63,
            Code::Zeta(k) => 64u32.div_ceil(u32::from(k).max(1)) - 1,
        }
    }

    /// The single decode implementation — the oracle both public faces
    /// ([`Code::decode`] and [`Code::decode_at`]) and the table builder
    /// ([`crate::DecodeTable`]) collapse onto. `padded` selects the payload
    /// semantics: strict readers fail on a truncated payload, padded
    /// (GPU-buffer) readers zero-extend past the end. The unary prefix is
    /// identical in both: it must terminate inside the stream (padding
    /// zeros never produce the one bit) and within [`Code::unary_limit`].
    #[inline]
    fn decode_inner(&self, r: &mut BitReader<'_>, padded: bool) -> Option<u64> {
        #[inline]
        fn payload(r: &mut BitReader<'_>, n: u32, padded: bool) -> Option<u64> {
            if padded {
                Some(r.read_bits_padded(n))
            } else {
                r.read_bits(n)
            }
        }
        match *self {
            Code::Gamma => {
                let zeros = r.read_unary_zeros(63).ok()?;
                let l = zeros + 1;
                let rest = payload(r, l - 1, padded)?;
                Some((1u64 << (l - 1)) | rest)
            }
            Code::Delta => {
                let l = Code::Gamma.decode_inner(r, padded)?;
                if l == 0 || l > 64 {
                    return None;
                }
                let l = l as u32;
                let rest = payload(r, l - 1, padded)?;
                Some((1u64 << (l - 1)) | rest)
            }
            Code::Zeta(k) => {
                if k == 0 {
                    return None;
                }
                let k = u32::from(k);
                let zeros = r.read_unary_zeros(self.unary_limit()).ok()?;
                let m = zeros + 1;
                let width = m * k;
                if width > 64 {
                    // Only the encoder's explicit zero padding of the
                    // impossible high bits is valid here.
                    if payload(r, width - 64, padded)? != 0 {
                        return None;
                    }
                    payload(r, 64, padded)
                } else {
                    payload(r, width, padded)
                }
            }
        }
    }

    /// Reads one codeword. Returns `None` on a truncated or corrupt stream
    /// (unary run past [`Code::unary_limit`], δ length out of range, ζ
    /// value overflowing `u64`).
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Option<u64> {
        self.decode_inner(r, false)
    }

    /// Decodes starting at absolute bit `pos` of `bits` without a reader,
    /// returning `(value, next_pos)`. This is the form used by the simulated
    /// GPU kernels (the paper's `decodeNum(bitPtr)`): payload reads past the
    /// end of the array see zero bits, while the unary prefix must still
    /// terminate inside the stream. Same single implementation as
    /// [`Code::decode`] (only the payload semantics differ), so the two can
    /// never diverge — and it doubles as the slow-path oracle the
    /// [`crate::DecodeTable`] fast path is built from and validated against.
    #[inline]
    pub fn decode_at(&self, bits: &BitVec, pos: usize) -> Option<(u64, usize)> {
        let mut r = BitReader::at(bits, pos);
        let v = self.decode_inner(&mut r, true)?;
        Some((v, r.pos()))
    }

    /// Codeword length in bits for `x` (`x >= 1`), without encoding.
    #[inline]
    pub fn len_bits(&self, x: u64) -> u32 {
        debug_assert!(x >= 1);
        let l = significant_bits(x);
        match *self {
            Code::Gamma => 2 * l - 1,
            Code::Delta => {
                let ll = significant_bits(l as u64);
                (2 * ll - 1) + (l - 1)
            }
            Code::Zeta(k) => {
                let k = u32::from(k);
                let m = l.div_ceil(k);
                m + m * k
            }
        }
    }

    /// The codeword of `x` as a `0`/`1` string (used to reproduce Table 3).
    pub fn bit_string(&self, x: u64) -> String {
        let mut w = BitWriter::new();
        self.encode(&mut w, x);
        w.into_bitvec().to_bit_string()
    }
}

/// Where codewords go. A [`BitWriter`] encodes them; a [`BitCount`] only
/// adds up their lengths, so a size model that runs a writer into a counter
/// measures exactly what that writer would emit.
pub trait CodeSink {
    /// Appends the codeword of `x` (`x >= 1`) under `code`.
    fn put(&mut self, code: Code, x: u64);
}

impl CodeSink for BitWriter {
    #[inline]
    fn put(&mut self, code: Code, x: u64) {
        code.encode(self, x);
    }
}

/// A [`CodeSink`] that writes nothing and counts the bits it would have
/// written.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BitCount(pub u64);

impl CodeSink for BitCount {
    #[inline]
    fn put(&mut self, code: Code, x: u64) {
        self.0 += u64::from(code.len_bits(x));
    }
}

#[inline(always)]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Sign folding for the first-gap values of CGR (Appendix C): the gap between
/// a node and its first interval start / first residual can be negative, so
/// non-negative `x` maps to `2x` and negative `x` maps to `2|x| + 1`, after
/// which the usual `+1` VLC shift applies.
#[inline]
pub fn fold_sign(x: i64) -> u64 {
    if x >= 0 {
        (x as u64) << 1
    } else {
        ((x.unsigned_abs()) << 1) | 1
    }
}

/// Inverse of [`fold_sign`].
#[inline]
pub fn unfold_sign(v: u64) -> i64 {
    if v & 1 == 0 {
        (v >> 1) as i64
    } else {
        -((v >> 1) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 of the paper, verbatim.
    const TABLE3: &[(u64, &str, &str, &str)] = &[
        (1, "1", "101", "1001"),
        (2, "010", "110", "1010"),
        (3, "011", "111", "1011"),
        (4, "00100", "010100", "1100"),
        (5, "00101", "010101", "1101"),
        (6, "00110", "010110", "1110"),
        (12, "0001100", "011100", "01001100"),
        (34, "00000100010", "001100010", "01100010"),
    ];

    #[test]
    fn table3_gamma_codewords() {
        for &(x, gamma, _, _) in TABLE3 {
            assert_eq!(Code::Gamma.bit_string(x), gamma, "gamma({x})");
        }
    }

    #[test]
    fn table3_zeta2_codewords() {
        for &(x, _, z2, _) in TABLE3 {
            assert_eq!(Code::Zeta(2).bit_string(x), z2, "zeta2({x})");
        }
    }

    #[test]
    fn table3_zeta3_codewords() {
        for &(x, _, _, z3) in TABLE3 {
            assert_eq!(Code::Zeta(3).bit_string(x), z3, "zeta3({x})");
        }
    }

    #[test]
    fn len_bits_matches_encoded_length() {
        for code in [
            Code::Gamma,
            Code::Delta,
            Code::Zeta(1),
            Code::Zeta(2),
            Code::Zeta(3),
            Code::Zeta(4),
            Code::Zeta(5),
            Code::Zeta(8),
        ] {
            for x in (1..200).chain([1 << 20, u64::from(u32::MAX), 1 << 60]) {
                let mut w = BitWriter::new();
                code.encode(&mut w, x);
                assert_eq!(w.len() as u32, code.len_bits(x), "{} of {x}", code.name());
            }
        }
    }

    #[test]
    fn bit_count_measures_what_the_writer_writes() {
        let (mut w, mut c) = (BitWriter::new(), BitCount::default());
        for (i, x) in (1..300u64).chain([1 << 40, u64::MAX]).enumerate() {
            let code = [Code::Gamma, Code::Delta, Code::Zeta(3)][i % 3];
            w.put(code, x);
            c.put(code, x);
            assert_eq!(c.0, w.len() as u64, "{} of {x}", code.name());
        }
    }

    #[test]
    fn round_trip_small_values_all_codes() {
        for code in [
            Code::Gamma,
            Code::Delta,
            Code::Zeta(1),
            Code::Zeta(2),
            Code::Zeta(3),
            Code::Zeta(5),
        ] {
            let mut w = BitWriter::new();
            for x in 1..=2000u64 {
                code.encode(&mut w, x);
            }
            let bits = w.into_bitvec();
            let mut r = BitReader::new(&bits);
            for x in 1..=2000u64 {
                assert_eq!(code.decode(&mut r), Some(x), "{}({x})", code.name());
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn decode_at_matches_reader_decode() {
        let code = Code::Zeta(3);
        let mut w = BitWriter::new();
        let values: Vec<u64> = (1..500).map(|i| i * 7 % 97 + 1).collect();
        for &x in &values {
            code.encode(&mut w, x);
        }
        let bits = w.into_bitvec();
        let mut pos = 0usize;
        for &x in &values {
            let (v, next) = code.decode_at(&bits, pos).expect("decode_at");
            assert_eq!(v, x);
            pos = next;
        }
        assert_eq!(pos, bits.len());
        assert_eq!(code.decode_at(&bits, pos), None, "end of stream");
    }

    #[test]
    fn decode_truncated_stream_returns_none() {
        let mut w = BitWriter::new();
        Code::Gamma.encode(&mut w, 1000);
        let bits = w.into_bitvec();
        // Chop the stream in half by reading from an offset near the end.
        let mut r = BitReader::at(&bits, bits.len() - 3);
        // The remaining bits are payload bits of the single codeword; they
        // may decode as garbage values or fail, but must not panic and must
        // consume within bounds.
        let _ = Code::Gamma.decode(&mut r);
        assert!(r.pos() <= bits.len());
    }

    #[test]
    fn gamma_of_one_is_single_bit() {
        assert_eq!(Code::Gamma.bit_string(1), "1");
        assert_eq!(Code::Gamma.len_bits(1), 1);
    }

    #[test]
    fn zeta1_consistent_round_trip() {
        // ζ1 is "theoretically equivalent" to γ per the paper: one extra bit
        // because the leading 1 is kept.
        for x in 1..100u64 {
            assert_eq!(Code::Zeta(1).len_bits(x), Code::Gamma.len_bits(x) + 1);
        }
    }

    #[test]
    fn sign_folding_round_trip() {
        for x in -1000i64..=1000 {
            assert_eq!(unfold_sign(fold_sign(x)), x, "fold({x})");
        }
        assert_eq!(fold_sign(0), 0);
        assert_eq!(fold_sign(1), 2);
        assert_eq!(fold_sign(-1), 3);
        assert_eq!(fold_sign(2), 4);
        assert_eq!(fold_sign(-2), 5);
    }

    #[test]
    fn large_values_round_trip() {
        for code in [Code::Gamma, Code::Delta, Code::Zeta(3), Code::Zeta(7)] {
            for x in [
                u64::from(u32::MAX),
                u64::from(u32::MAX) + 1,
                1u64 << 40,
                (1u64 << 62) + 12345,
            ] {
                let mut w = BitWriter::new();
                code.encode(&mut w, x);
                let bits = w.into_bitvec();
                let mut r = BitReader::new(&bits);
                assert_eq!(code.decode(&mut r), Some(x), "{}({x})", code.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot represent 0")]
    fn encoding_zero_panics() {
        let mut w = BitWriter::new();
        Code::Gamma.encode(&mut w, 0);
    }
}
