//! # gcgt-bits
//!
//! Bit-level substrate for the GCGT reproduction: MSB-first bit streams
//! ([`BitWriter`], [`BitVec`], [`BitReader`]) and the variable-length codes
//! (VLC) used by the Compressed Graph Representation (Section 3.1 and
//! Appendix B of the paper), plus the Ligra+-style byte-RLE code used by the
//! CPU compressed baseline.
//!
//! The ζ-code implemented here is the **paper's variant** (Appendix B): the
//! unary prefix encodes the number of `k`-bit blocks `m` needed for the
//! value's significant bits, followed by the value written in `m·k` bits
//! *including* its leading 1. This is validated bit-for-bit against the
//! paper's Table 3 in the unit tests.
//!
//! Decoding has two equivalent paths: the broadword slow path
//! ([`Code::decode`] / [`Code::decode_at`] — `leading_zeros` unary scans
//! over [`BitReader::peek_word`] windows) and the table fast path
//! ([`DecodeTable`] — one 16-bit-window probe per short codeword, with a
//! multi-gap variant packing up to four consecutive residual-gap codewords
//! per probe, WebGraph-style). The fast path is built *from* the slow path
//! and pinned bitwise equal to it by differential property tests.
//!
//! ```
//! use gcgt_bits::{BitWriter, BitReader, Code};
//!
//! let code = Code::Zeta(3);
//! let mut w = BitWriter::new();
//! for x in 1..100u64 {
//!     code.encode(&mut w, x);
//! }
//! let bits = w.into_bitvec();
//! let mut r = BitReader::new(&bits);
//! for x in 1..100u64 {
//!     assert_eq!(code.decode(&mut r), Some(x));
//! }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
mod bitvec;
mod bytecode;
mod codes;
mod decode_table;
mod ef;

pub use bitvec::{BitReader, BitVec, BitWriter, Storage, UnaryError};
pub use bytecode::{ByteCodeReader, ByteCodeWriter};
pub use codes::{fold_sign, unfold_sign, BitCount, Code, CodeSink};
pub use decode_table::{residual_gap_values, DecodeTable, PackedRun, MAX_PACKED, WINDOW_BITS};
pub use ef::EliasFano;

/// Number of significant bits of a positive integer (`bits(1) == 1`,
/// `bits(6) == 3`). The paper calls this the "length of significant bits".
#[inline]
pub fn significant_bits(x: u64) -> u32 {
    debug_assert!(x >= 1, "significant_bits requires x >= 1");
    64 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_bits_matches_log2() {
        assert_eq!(significant_bits(1), 1);
        assert_eq!(significant_bits(2), 2);
        assert_eq!(significant_bits(3), 2);
        assert_eq!(significant_bits(4), 3);
        assert_eq!(significant_bits(6), 3);
        assert_eq!(significant_bits(u64::MAX), 64);
    }
}
