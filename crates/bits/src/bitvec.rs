//! MSB-first bit streams backed by `u64` words.
//!
//! Bit `i` of a stream lives in word `i / 64` at in-word position
//! `63 - (i % 64)`, i.e. the first bit written is the most significant bit of
//! the first word. This matches the way the paper's figures print compressed
//! bit arrays left-to-right and makes the warp-centric decoder's "start a
//! lane at every bit offset" scheme (Algorithm 4) a simple shifted read.
//!
//! Storage is own-or-borrow ([`Storage`]): a [`BitVec`] either owns its
//! words or references a range of a shared `Arc<[u64]>` buffer — the
//! zero-copy substrate of the GCGR v2 on-disk format, where every section
//! of a file read once into one aligned buffer is served in place.

use std::sync::Arc;

/// Backing words of a [`BitVec`]: owned, or a borrowed range of a larger
/// shared buffer (e.g. a GCGR v2 file read once into an `Arc<[u64]>` whose
/// index and payload sections are all views of the same allocation).
#[derive(Clone, Debug)]
pub enum Storage {
    /// The bit array owns its words (the encoder's output).
    Owned(Box<[u64]>),
    /// The words `buf[first..first + count]` of a shared buffer.
    Shared {
        /// The shared backing buffer.
        buf: Arc<[u64]>,
        /// First word of the view.
        first: usize,
        /// Number of words in the view.
        count: usize,
    },
}

impl Storage {
    /// The words of this storage, wherever they live.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            Storage::Owned(words) => words,
            Storage::Shared { buf, first, count } => &buf[*first..*first + *count],
        }
    }
}

/// Append-only bit stream builder.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Total number of bits written.
    len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if off == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (63 - off);
        }
        self.len += 1;
    }

    /// Appends the `n` low bits of `value`, most significant first.
    ///
    /// `n == 0` is a no-op. Panics in debug builds if `value` does not fit in
    /// `n` bits.
    #[inline]
    pub fn push_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        debug_assert!(
            n == 64 || value < (1u64 << n),
            "value does not fit in n bits"
        );
        if n == 0 {
            return;
        }
        let off = (self.len % 64) as u32;
        if off == 0 {
            self.words.push(0);
        }
        let word = self.words.len() - 1;
        let room = 64 - off;
        if n <= room {
            // Value fits entirely in the current word.
            self.words[word] |= value << (room - n) & ones(room);
        } else {
            // Split across the current and a fresh word.
            let hi = n - room; // bits that spill into the next word
            self.words[word] |= (value >> hi) & ones(room);
            self.words.push(value << (64 - hi));
        }
        self.len += n as usize;
    }

    /// Appends `n` zero bits.
    #[inline]
    pub fn push_zeros(&mut self, n: u32) {
        // push_bits handles the word bookkeeping; value 0 never overflows.
        let mut left = n;
        while left > 64 {
            self.push_bits(0, 64);
            left -= 64;
        }
        self.push_bits(0, left);
    }

    /// Finalizes into an immutable [`BitVec`].
    pub fn into_bitvec(self) -> BitVec {
        BitVec {
            storage: Storage::Owned(self.words.into_boxed_slice()),
            len: self.len,
        }
    }
}

#[inline(always)]
fn ones(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Immutable bit array with O(1) random access, the storage unit for every
/// compressed adjacency array in this workspace. Owns its words or borrows
/// them from a shared buffer — see [`Storage`].
#[derive(Clone, Debug)]
pub struct BitVec {
    storage: Storage,
    len: usize,
}

/// Equality is over content (bit length + words), regardless of whether
/// either side owns or borrows its storage.
impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitVec {}

impl BitVec {
    /// An empty bit array.
    pub fn empty() -> Self {
        Self {
            storage: Storage::Owned(Box::new([])),
            len: 0,
        }
    }

    /// Rebuilds a bit array from its raw word storage (the inverse of
    /// [`BitVec::words`] + [`BitVec::len`]) — the deserialization path of
    /// binary CGR files.
    ///
    /// # Panics
    /// Panics on the inputs [`BitVec::try_from_words`] rejects.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        Self::try_from_words(words, len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BitVec::from_words`]: rejects a word count other than
    /// `len.div_ceil(64)`, or any set bit past `len` in the last word (the
    /// writer always leaves trailing padding zeroed, so set padding
    /// indicates a corrupt stream). This is the one place that knows the
    /// MSB-first padding layout — deserializers map the error instead of
    /// re-deriving the mask.
    pub fn try_from_words(words: Vec<u64>, len: usize) -> Result<Self, &'static str> {
        if words.len() != len.div_ceil(64) {
            return Err("word count does not match the declared bit length");
        }
        if !len.is_multiple_of(64) && words[words.len() - 1] & (u64::MAX >> (len % 64)) != 0 {
            return Err("nonzero bits past the declared length");
        }
        Ok(Self {
            storage: Storage::Owned(words.into_boxed_slice()),
            len,
        })
    }

    /// A **zero-copy** bit array over `len` bits starting at word `first` of
    /// a shared buffer. Enforces the same invariants as
    /// [`BitVec::try_from_words`]: the view must lie inside the buffer and
    /// any trailing padding bits inside its last word must be zero (a writer
    /// always zeroes them, so set padding indicates a corrupt stream).
    pub fn from_shared(buf: Arc<[u64]>, first: usize, len: usize) -> Result<Self, &'static str> {
        let count = len.div_ceil(64);
        let end = first.checked_add(count).ok_or("shared view overflows")?;
        if end > buf.len() {
            return Err("shared view extends past the buffer");
        }
        if !len.is_multiple_of(64) && buf[end - 1] & (u64::MAX >> (len % 64)) != 0 {
            return Err("nonzero bits past the declared length");
        }
        Ok(Self {
            storage: Storage::Shared { buf, first, count },
            len,
        })
    }

    /// Whether this array borrows a shared buffer rather than owning its
    /// words — i.e. whether it was constructed via [`BitVec::from_shared`].
    #[inline]
    pub fn is_shared(&self) -> bool {
        matches!(self.storage, Storage::Shared { .. })
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the backing storage in bytes (capacity of this view).
    #[inline]
    pub fn storage_bytes(&self) -> usize {
        self.words().len() * 8
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word = self.words()[i / 64];
        (word >> (63 - (i % 64))) & 1 == 1
    }

    /// Reads `n` bits starting at bit `pos` as an MSB-first integer.
    /// Bits past the end of the array read as zero, mirroring how a GPU
    /// kernel over-reads a padded device buffer.
    #[inline]
    pub fn get_bits(&self, pos: usize, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n == 0 {
            return 0;
        }
        let words = self.words();
        let word = pos / 64;
        let off = (pos % 64) as u32;
        let w0 = words.get(word).copied().unwrap_or(0);
        if off + n <= 64 {
            (w0 >> (64 - off - n)) & ones(n)
        } else {
            let w1 = words.get(word + 1).copied().unwrap_or(0);
            let hi_bits = 64 - off;
            let lo_bits = n - hi_bits;
            ((w0 & ones(hi_bits)) << lo_bits) | (w1 >> (64 - lo_bits))
        }
    }

    /// Reads the 64 bits starting at `pos` as one MSB-first word via a
    /// two-word fetch + shift — the broadword primitive underneath
    /// [`BitReader::peek_word`] and the table-driven decoders. Bits past the
    /// end of the array read as zero (trailing padding inside the last word
    /// is zero by construction, and words past the storage read as zero),
    /// mirroring how a GPU kernel over-reads a padded device buffer.
    #[inline]
    pub fn peek_word(&self, pos: usize) -> u64 {
        let words = self.words();
        let word = pos / 64;
        let off = (pos % 64) as u32;
        let w0 = words.get(word).copied().unwrap_or(0);
        if off == 0 {
            w0
        } else {
            let w1 = words.get(word + 1).copied().unwrap_or(0);
            (w0 << off) | (w1 >> (64 - off))
        }
    }

    /// Raw word storage (MSB-first within each word), wherever it lives.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.storage.words()
    }

    /// Renders as a `0`/`1` string, for tests and figure reproduction.
    pub fn to_bit_string(&self) -> String {
        (0..self.len)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect()
    }
}

/// Why a bounded unary read failed — see [`BitReader::read_unary_zeros`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryError {
    /// The stream ended before the terminating one bit.
    Truncated,
    /// The zero run exceeded the caller's limit: no valid codeword of the
    /// decoding context can start with that many zeros, so the stream is
    /// corrupt (e.g. the adversarial ≥64-zero γ prefix the CGR loaders
    /// reject).
    LimitExceeded {
        /// The limit that was exceeded.
        limit: u32,
    },
}

impl std::fmt::Display for UnaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnaryError::Truncated => write!(f, "unary run truncated by end of stream"),
            UnaryError::LimitExceeded { limit } => {
                write!(f, "unary run exceeds the limit of {limit} zeros")
            }
        }
    }
}

impl std::error::Error for UnaryError {}

/// Cursor over a [`BitVec`] used by every serial decoder, built on broadword
/// primitives: [`BitReader::peek_word`] fetches up to 64 bits ahead with a
/// two-word fetch + shift, unary scanning uses `leading_zeros` instead of a
/// per-bit loop, and multi-bit reads are one shift + mask. The GPU-simulated
/// decoders keep their own integer bit pointers and use [`BitVec::get_bits`]
/// / [`BitVec::peek_word`] directly, mirroring the `bitPtr` of the paper's
/// pseudocode.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at bit 0.
    pub fn new(bits: &'a BitVec) -> Self {
        Self { bits, pos: 0 }
    }

    /// A reader positioned at an arbitrary bit offset (e.g. a node's
    /// `bitStart` in the CGR array).
    pub fn at(bits: &'a BitVec, pos: usize) -> Self {
        Self { bits, pos }
    }

    /// Current bit position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Advances the cursor by `n` bits without reading them (the fast-path
    /// companion of a table probe that already knows the codeword length).
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// Bits remaining until the end of the array.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bits.len().saturating_sub(self.pos)
    }

    /// The next 64 bits at the cursor, MSB-first, zero-padded past the end
    /// of the array (two-word fetch + shift; does not advance the cursor).
    #[inline]
    pub fn peek_word(&self) -> u64 {
        self.bits.peek_word(self.pos)
    }

    /// Reads `n` bits MSB-first; `None` if fewer than `n` bits remain.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        if self.remaining() < n as usize {
            return None;
        }
        Some(self.read_bits_padded(n))
    }

    /// Reads `n` bits MSB-first with GPU-buffer semantics: bits past the
    /// end of the array read as zero and the cursor advances regardless.
    /// This is the payload read of [`crate::Code::decode_at`]-style padded
    /// decoding.
    #[inline]
    pub fn read_bits_padded(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        let v = if n == 0 {
            0
        } else {
            self.peek_word() >> (64 - n)
        };
        self.pos += n as usize;
        v
    }

    /// Counts zero bits up to and including the terminating one bit,
    /// returning the count of zeros — broadword: `leading_zeros` over
    /// 64-bit windows instead of a per-bit loop.
    ///
    /// `limit` bounds the run **independently of any caller-side guard**: a
    /// run longer than `limit` zeros returns
    /// [`UnaryError::LimitExceeded`] without scanning further (the cursor
    /// is left inside the run), and a stream that ends before the
    /// terminating one bit returns [`UnaryError::Truncated`] with the
    /// cursor at the end. Decoders pass the longest prefix any valid
    /// codeword of their code can have (63 for γ — values are `u64`), so
    /// corrupt payloads are rejected in O(limit/64) instead of scanned to
    /// the end of the array.
    #[inline]
    pub fn read_unary_zeros(&mut self, limit: u32) -> Result<u32, UnaryError> {
        let mut zeros = 0u32;
        loop {
            if self.pos >= self.bits.len() {
                return Err(UnaryError::Truncated);
            }
            let w = self.peek_word();
            if w == 0 {
                // Up to 64 genuine zero bits (set bits never appear in the
                // zero padding past `len`, so an all-zero window is real up
                // to the end of the stream).
                let run = 64.min(self.bits.len() - self.pos) as u32;
                zeros += run;
                self.pos += run as usize;
                if zeros > limit {
                    return Err(UnaryError::LimitExceeded { limit });
                }
                continue;
            }
            let lz = w.leading_zeros();
            zeros += lz;
            if zeros > limit {
                self.pos += lz as usize;
                return Err(UnaryError::LimitExceeded { limit });
            }
            // The one bit is a real bit (padding is zero), consume it too.
            self.pos += lz as usize + 1;
            return Ok(zeros);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitVec {
        /// Builds a bit array from an ASCII string of `0`/`1` characters
        /// (whitespace ignored). Handy for transcribing the paper's figures.
        ///
        /// # Panics
        /// Panics on any character other than `0`, `1`, or whitespace.
        fn from_bit_str(s: &str) -> Self {
            let mut w = BitWriter::new();
            for c in s.chars() {
                match c {
                    '0' => w.push_bit(false),
                    '1' => w.push_bit(true),
                    c if c.is_whitespace() => {}
                    c => panic!("invalid bit character {c:?}"),
                }
            }
            w.into_bitvec()
        }
    }

    #[test]
    fn push_and_get_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        let v = w.into_bitvec();
        assert_eq!(v.len(), pattern.len());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(v.get(i), b, "bit {i}");
        }
    }

    #[test]
    fn push_bits_crosses_word_boundary() {
        let mut w = BitWriter::new();
        w.push_bits(0, 60);
        w.push_bits(0b1011_0110, 8); // straddles bits 60..68
        let v = w.into_bitvec();
        assert_eq!(v.get_bits(60, 8), 0b1011_0110);
        assert_eq!(v.len(), 68);
    }

    #[test]
    fn push_full_64_bit_values() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0xDEAD_BEEF_0123_4567, 64);
        let v = w.into_bitvec();
        assert_eq!(v.get_bits(1, 64), u64::MAX);
        assert_eq!(v.get_bits(65, 64), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn get_bits_past_end_reads_zero() {
        let v = BitVec::from_bit_str("101");
        assert_eq!(v.get_bits(1, 8), 0b0100_0000);
        assert_eq!(v.get_bits(200, 16), 0);
    }

    #[test]
    fn bit_string_round_trip() {
        let s = "0001010010001000010001100110001001000110000000001001101";
        let v = BitVec::from_bit_str(s);
        assert_eq!(v.to_bit_string(), s);
        assert_eq!(v.len(), s.len());
    }

    #[test]
    fn from_bit_str_ignores_whitespace() {
        let v = BitVec::from_bit_str("10 1\n0 1");
        assert_eq!(v.to_bit_string(), "10101");
    }

    #[test]
    fn from_words_round_trips() {
        let s = "110100111000111101";
        let v = BitVec::from_bit_str(s);
        let rebuilt = BitVec::from_words(v.words().to_vec(), v.len());
        assert_eq!(rebuilt, v);
        assert_eq!(rebuilt.to_bit_string(), s);
        // Dirty padding is rejected.
        let r = std::panic::catch_unwind(|| BitVec::from_words(vec![u64::MAX], 3));
        assert!(r.is_err());
    }

    #[test]
    fn reader_read_bits_and_seek() {
        let v = BitVec::from_bit_str("1101001110001111");
        let mut r = BitReader::new(&v);
        assert_eq!(r.read_bits(4), Some(0b1101));
        assert_eq!(r.read_bits(4), Some(0b0011));
        assert_eq!(r.pos(), 8);
        let mut r = BitReader::at(&v, 2);
        assert_eq!(r.read_bits(3), Some(0b010));
        let mut r = BitReader::at(&v, 14);
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn reader_unary() {
        let v = BitVec::from_bit_str("0001" /* 3 zeros */);
        let mut r = BitReader::new(&v);
        assert_eq!(r.read_unary_zeros(63), Ok(3));
        assert_eq!(r.read_unary_zeros(63), Err(UnaryError::Truncated));
    }

    #[test]
    fn reader_unary_respects_limit() {
        // 70 zeros then a 1: a limit of 63 must reject without reaching the
        // terminator; a limit of 70 decodes it.
        let mut w = BitWriter::new();
        w.push_zeros(70);
        w.push_bit(true);
        let v = w.into_bitvec();
        let mut r = BitReader::new(&v);
        assert_eq!(
            r.read_unary_zeros(63),
            Err(UnaryError::LimitExceeded { limit: 63 })
        );
        let mut r = BitReader::new(&v);
        assert_eq!(r.read_unary_zeros(70), Ok(70));
        assert_eq!(r.pos(), 71);
        // An all-zero stream is truncated, not limit-exceeded, when the
        // limit is never crossed first.
        let zeros = BitVec::from_bit_str("00000");
        let mut r = BitReader::new(&zeros);
        assert_eq!(r.read_unary_zeros(63), Err(UnaryError::Truncated));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_unary_crosses_word_boundaries() {
        // The broadword scan must count runs straddling u64 words exactly.
        for zeros in [0u32, 1, 31, 63, 64, 65, 127, 128, 200] {
            let mut w = BitWriter::new();
            w.push_bits(0b101, 3); // misalign the run
            w.push_zeros(zeros);
            w.push_bit(true);
            w.push_bits(0x5A, 8);
            let v = w.into_bitvec();
            let mut r = BitReader::at(&v, 3);
            assert_eq!(r.read_unary_zeros(512), Ok(zeros), "{zeros} zeros");
            assert_eq!(r.read_bits(8), Some(0x5A), "{zeros} zeros");
        }
    }

    #[test]
    fn peek_word_and_skip() {
        let mut w = BitWriter::new();
        w.push_bits(0xDEAD_BEEF_0123_4567, 64);
        w.push_bits(0xFFFF, 16);
        let v = w.into_bitvec();
        // Aligned, shifted, and past-the-end peeks.
        assert_eq!(v.peek_word(0), 0xDEAD_BEEF_0123_4567);
        assert_eq!(v.peek_word(4), 0xEADB_EEF0_1234_567F);
        assert_eq!(v.peek_word(64), 0xFFFF_u64 << 48);
        assert_eq!(v.peek_word(80), 0);
        assert_eq!(v.peek_word(4096), 0);
        let mut r = BitReader::new(&v);
        r.skip(64);
        assert_eq!(r.peek_word(), 0xFFFF_u64 << 48);
        assert_eq!(r.read_bits(16), Some(0xFFFF));
        // Padded reads past the end zero-extend and advance.
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.read_bits_padded(8), 0);
        assert_eq!(r.pos(), 88);
    }

    #[test]
    fn push_zeros_bulk() {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_zeros(130);
        w.push_bit(true);
        let v = w.into_bitvec();
        assert_eq!(v.len(), 132);
        assert!(v.get(0));
        assert!(v.get(131));
        assert!((1..131).all(|i| !v.get(i)));
    }
}
