//! Binary save/load for [`CgrGraph`] — encode a graph once, reload its
//! compressed form directly (no re-encoding), mirroring
//! `gcgt_graph::edgelist::{save, load}` for the compressed representation.
//! This is what makes out-of-core pipelines practical: partitioned graphs
//! are encoded offline and the compressed payload is streamed straight from
//! the file format to the device.
//!
//! ## Format (`GCGR`, versions 2 and 3, little-endian)
//!
//! Everything is a `u64` word and every section starts on an 8-byte
//! boundary, so a file read once into an aligned buffer can be served
//! **zero-copy**: [`CgrGraph::from_shared`] validates the header and
//! section extents and then hands out [`gcgt_bits::Storage`] views of the
//! one shared allocation — the index and payload are never re-materialized
//! per process or per worker.
//!
//! ```text
//! header   16 × u64 (v2) or 20 × u64 (v3):
//!   w0     magic "GCGR" (low 32 bits) | version 2 or 3 (high 32 bits)
//!   w1     code tag u8 (0 γ, 1 δ, 2 ζ) | code k u8 ≪ 8
//!          | min_interval_len flag u8 ≪ 16 | segment_len flag u8 ≪ 24
//!          (high 32 bits reserved, must be zero)
//!   w2     min_interval_len u32 | segment_len_bytes u32 ≪ 32
//!   w3–w5  num_nodes, num_edges, payload bit length
//!   w6–w12 stats: nodes, edges, total_bits, interval_edges,
//!          residual_edges, blank_bits, segments
//!   w13    Elias–Fano low bits per offset (ℓ < 64)
//!   w14    EF low-section words  = ⌈(num_nodes + 1) · ℓ / 64⌉
//!   w15    EF high-section words = ⌈(num_nodes + 1 + (bit_len ≫ ℓ)) / 64⌉
//!   w16    v3 only: ref_window u32 (nonzero) | ref_chain_limit u32 ≪ 32
//!   w17–19 v3 only: stats ref_nodes, ref_copy_blocks, ref_copied_edges
//! EF low   w14 words — densely packed ℓ-bit offset low halves
//! EF high  w15 words — unary-coded offset high halves
//! payload  ⌈bit_len / 64⌉ words — the compressed bit array
//! ```
//!
//! [`write_cgr`] emits v2 when `ref_window == 0` and v3 otherwise. The
//! `n + 1` per-node bit offsets are an [`EliasFano`] index (w13–w15 pin
//! its parameters; the select directory is derived at load, never stored).
//! The word counts in w14/w15 are redundant with ℓ and the counts in w3/w5
//! and are cross-checked, as are the stats mirrors of `num_nodes`/
//! `num_edges`/`bit_len`; the decoded offsets must start at zero, never
//! decrease and end at `bit_len` — any disagreement is a typed
//! `InvalidData` error. A stream ends exactly at the last payload word;
//! trailing bytes are corruption.
//!
//! **One loader:** every entry point — [`read_cgr_with`] (any reader),
//! [`load_with`] and [`read_words`] (a path), [`CgrGraph::from_bytes_with`]
//! (an aligned byte buffer) — turns its bytes into words and hands them to
//! [`CgrGraph::from_shared`], which checks the header, the section extents
//! and the decoded offsets. The byte-streamed version 1
//! layout is retired: a v1 stream fails as "unsupported GCGR version 1";
//! re-encode it from the source graph.
//!
//! **Validation:** by default every load stream-decodes each adjacency once
//! ([`ValidationMode::Eager`]) so corruption surfaces as a typed load error
//! rather than a traversal panic. [`ValidationMode::Deferred`] skips that
//! O(edges) pass at load and arms per-partition lazy validation instead —
//! see [`CgrGraph::ensure_validated`].

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use gcgt_bits::{BitVec, Code, EliasFano};

use crate::config::CgrConfig;
use crate::encode::CgrGraph;
use crate::stats::CompressionStats;

/// File magic: "GCGR".
pub const MAGIC: [u8; 4] = *b"GCGR";
/// The 8-byte-aligned zero-copy layout without reference compression —
/// what [`write_cgr`] emits whenever `ref_window == 0` (byte-identical to
/// pre-v3 writers).
pub const VERSION: u32 = 2;
/// The reference-compression layout: the v2 sections plus a 4-word header
/// extension (ref knobs + ref stat mirrors). Written whenever
/// `ref_window > 0`.
pub const VERSION_V3: u32 = 3;
/// Words in the v2 header section.
pub const V2_HEADER_WORDS: usize = 16;
/// Words in the v3 header section: the 16 v2 words plus
/// `w16 = ref_window | ref_chain_limit ≪ 32` and the
/// `ref_nodes`/`ref_copy_blocks`/`ref_copied_edges` stat mirrors
/// (w17–w19).
pub const V3_HEADER_WORDS: usize = 20;

/// Checks the magic and version in header word `w0` and returns the
/// header length in words.
fn header_len(w0: u64) -> io::Result<usize> {
    if w0 as u32 != u32::from_le_bytes(MAGIC) {
        return Err(bad("not a GCGR file (bad magic)"));
    }
    match (w0 >> 32) as u32 {
        VERSION => Ok(V2_HEADER_WORDS),
        VERSION_V3 => Ok(V3_HEADER_WORDS),
        v => Err(bad(format!(
            "unsupported GCGR version {v} (expected {VERSION} or {VERSION_V3})"
        ))),
    }
}

/// When a loaded graph's structural validation runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationMode {
    /// Stream-decode every adjacency at load time — corruption is a typed
    /// load error and the returned graph is fully proven.
    #[default]
    Eager,
    /// Skip the O(edges) pass at load; every node starts unchecked and
    /// [`CgrGraph::ensure_validated`] pays the scan per partition on first
    /// fault. Cold starts cost header + offset checks only, at the price
    /// of corruption surfacing at first touch instead of load.
    Deferred,
}

impl ValidationMode {
    #[inline]
    fn deferred(self) -> bool {
        matches!(self, ValidationMode::Deferred)
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Checked `u64 → usize` narrowing: a count that does not fit the host is a
/// typed error, never a silent truncation (satellite of the 32-bit-target
/// hardening sweep).
fn to_usize(v: u64, what: &str) -> io::Result<usize> {
    v.try_into()
        .map_err(|_| bad(format!("{what} {v} does not fit in usize on this target")))
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Adopts a little-endian byte image as words. A length that is not a
/// whole number of words is an error, but a foreign or retired stream (a
/// v1 file is 4 bytes off a word boundary) is named by its head first.
fn words_from_le_bytes(bytes: &[u8]) -> io::Result<Arc<[u64]>> {
    let words: Arc<[u64]> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8-byte chunks")))
        .collect();
    if !bytes.len().is_multiple_of(8) {
        if let Some(&w0) = words.first() {
            header_len(w0)?;
        }
        return Err(bad(format!(
            "GCGR buffer length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(words)
}

fn code_tag(code: Code) -> (u8, u8) {
    match code {
        Code::Gamma => (0, 0),
        Code::Delta => (1, 0),
        Code::Zeta(k) => (2, k),
    }
}

fn code_from_tag(tag: u8, k: u8) -> io::Result<Code> {
    match tag {
        0 => Ok(Code::Gamma),
        1 => Ok(Code::Delta),
        2 if k >= 1 => Ok(Code::Zeta(k)),
        2 => Err(bad("zeta code with k = 0")),
        t => Err(bad(format!("unknown VLC code tag {t}"))),
    }
}

/// Decodes a `[flag, value]` optional field, rejecting junk flags and a
/// nonzero value behind an absent flag (the writers always zero it).
fn opt_field(flag: u8, value: u32, what: &str) -> io::Result<Option<u32>> {
    match flag {
        0 if value == 0 => Ok(None),
        0 => Err(bad(format!("{what} absent but value {value} is nonzero"))),
        1 => Ok(Some(value)),
        f => Err(bad(format!("bad {what} presence flag {f}"))),
    }
}

/// Serializes `cgr` to a writer in the current `GCGR` format: v2 when the
/// graph was encoded without reference compression (byte-identical to
/// pre-v3 writers), v3 when `ref_window > 0`.
pub fn write_cgr<W: Write>(cgr: &CgrGraph, writer: W) -> io::Result<()> {
    let mut w = io::BufWriter::new(writer);
    for word in header_words(cgr) {
        write_u64(&mut w, word)?;
    }
    for &word in cgr.index().low().words() {
        write_u64(&mut w, word)?;
    }
    for &word in cgr.index().high().words() {
        write_u64(&mut w, word)?;
    }
    for &word in cgr.bits().words() {
        write_u64(&mut w, word)?;
    }
    w.flush()
}

fn header_words(cgr: &CgrGraph) -> Vec<u64> {
    let cfg = cgr.config();
    let (tag, k) = code_tag(cfg.code);
    let w1 = u64::from(tag)
        | u64::from(k) << 8
        | u64::from(cfg.min_interval_len.is_some()) << 16
        | u64::from(cfg.segment_len_bytes.is_some()) << 24;
    let w2 = u64::from(cfg.min_interval_len.unwrap_or(0))
        | u64::from(cfg.segment_len_bytes.unwrap_or(0)) << 32;
    let version = if cfg.ref_window > 0 {
        VERSION_V3
    } else {
        VERSION
    };
    let st = cgr.stats();
    let ef = cgr.index();
    let mut words = vec![
        u64::from(u32::from_le_bytes(MAGIC)) | u64::from(version) << 32,
        w1,
        w2,
        cgr.num_nodes() as u64,
        cgr.num_edges() as u64,
        cgr.bits().len() as u64,
        st.nodes as u64,
        st.edges as u64,
        st.total_bits as u64,
        st.interval_edges as u64,
        st.residual_edges as u64,
        st.blank_bits as u64,
        st.segments as u64,
        u64::from(ef.low_bits()),
        ef.low().words().len() as u64,
        ef.high().words().len() as u64,
    ];
    if version == VERSION_V3 {
        words.push(u64::from(cfg.ref_window) | u64::from(cfg.ref_chain_limit) << 32);
        words.push(st.ref_nodes as u64);
        words.push(st.ref_copy_blocks as u64);
        words.push(st.ref_copied_edges as u64);
    }
    debug_assert_eq!(header_len(words[0]).ok(), Some(words.len()));
    words
}

/// Parsed and cross-checked v2/v3 header.
struct Header {
    config: CgrConfig,
    num_nodes: usize,
    num_edges: usize,
    bit_len: usize,
    stats: CompressionStats,
    low_bits: u32,
    /// Bits in the EF low section (`(num_nodes + 1) · ℓ`).
    low_len_bits: usize,
    /// Words in the EF low section (w14, cross-checked).
    low_words: usize,
    /// Bits in the EF high section (`num_nodes + 1 + (bit_len ≫ ℓ)`).
    high_len_bits: usize,
    /// Words in the EF high section (w15, cross-checked).
    high_words: usize,
}

/// Parses the header section `words`, whose magic and version
/// [`header_len`] has already accepted and whose length it set.
fn parse_header(words: &[u64]) -> io::Result<Header> {
    let version = (words[0] >> 32) as u32;
    let w1 = words[1];
    if w1 >> 32 != 0 {
        return Err(bad("reserved header bits are set"));
    }
    let w2 = words[2];
    let (ref_window, ref_chain_limit) = if version == VERSION_V3 {
        let w16 = words[16];
        if w16 as u32 == 0 {
            return Err(bad("v3 header with ref_window 0 (should be a v2 file)"));
        }
        (w16 as u32, (w16 >> 32) as u32)
    } else {
        (0, crate::config::DEFAULT_REF_CHAIN_LIMIT)
    };
    let config = CgrConfig {
        code: code_from_tag(w1 as u8, (w1 >> 8) as u8)?,
        min_interval_len: opt_field((w1 >> 16) as u8, w2 as u32, "min_interval_len")?,
        segment_len_bytes: opt_field((w1 >> 24) as u8, (w2 >> 32) as u32, "segment_len_bytes")?,
        ref_window,
        ref_chain_limit,
    };
    let num_nodes = to_usize(words[3], "node count")?;
    let num_edges = to_usize(words[4], "edge count")?;
    let bit_len = to_usize(words[5], "payload bit length")?;
    let mut stats = CompressionStats {
        nodes: to_usize(words[6], "stats node count")?,
        edges: to_usize(words[7], "stats edge count")?,
        total_bits: to_usize(words[8], "stats total bits")?,
        interval_edges: to_usize(words[9], "stats interval edges")?,
        residual_edges: to_usize(words[10], "stats residual edges")?,
        blank_bits: to_usize(words[11], "stats blank bits")?,
        segments: to_usize(words[12], "stats segments")?,
        ..CompressionStats::default()
    };
    if version == VERSION_V3 {
        stats.ref_nodes = to_usize(words[17], "stats ref nodes")?;
        stats.ref_copy_blocks = to_usize(words[18], "stats ref copy blocks")?;
        stats.ref_copied_edges = to_usize(words[19], "stats ref copied edges")?;
    }
    check_stats(&stats, num_nodes, num_edges, bit_len)?;
    if words[13] >= 64 {
        return Err(bad(format!(
            "EF low-bit width {} is out of range",
            words[13]
        )));
    }
    let low_bits = words[13] as u32;
    let n_off = num_nodes
        .checked_add(1)
        .ok_or_else(|| bad("node count overflows"))?;
    let low_len_bits = n_off
        .checked_mul(low_bits as usize)
        .ok_or_else(|| bad("EF low section size overflows"))?;
    let high_len_bits = n_off
        .checked_add(bit_len >> low_bits)
        .ok_or_else(|| bad("EF high section size overflows"))?;
    let low_words = to_usize(words[14], "EF low word count")?;
    let high_words = to_usize(words[15], "EF high word count")?;
    if low_words != low_len_bits.div_ceil(64) {
        return Err(bad(format!(
            "EF low section holds {low_words} words but ℓ = {low_bits} over {n_off} offsets \
             implies {}",
            low_len_bits.div_ceil(64)
        )));
    }
    if high_words != high_len_bits.div_ceil(64) {
        return Err(bad(format!(
            "EF high section holds {high_words} words but the header implies {}",
            high_len_bits.div_ceil(64)
        )));
    }
    Ok(Header {
        config,
        num_nodes,
        num_edges,
        bit_len,
        stats,
        low_bits,
        low_len_bits,
        low_words,
        high_len_bits,
        high_words,
    })
}

/// Rejects headers whose stats block disagrees with the primary counts —
/// the two are written from the same graph, so any mismatch is corruption.
fn check_stats(
    stats: &CompressionStats,
    num_nodes: usize,
    num_edges: usize,
    bit_len: usize,
) -> io::Result<()> {
    if stats.nodes != num_nodes {
        return Err(bad(format!(
            "stats node count {} does not match the header's {num_nodes}",
            stats.nodes
        )));
    }
    if stats.edges != num_edges {
        return Err(bad(format!(
            "stats edge count {} does not match the header's {num_edges}",
            stats.edges
        )));
    }
    if stats.total_bits != bit_len {
        return Err(bad(format!(
            "stats total bits {} does not match the payload bit length {bit_len}",
            stats.total_bits
        )));
    }
    Ok(())
}

impl CgrGraph {
    /// **Zero-copy** load of a GCGR v2/v3 image already resident in a
    /// shared word buffer — the one GCGR loader every other entry point
    /// feeds. Validates the header, section extents and offset index, then
    /// serves the EF index and payload as [`gcgt_bits::Storage`] views of
    /// `words` — no section is copied, and clones of the returned graph
    /// (e.g. one per serve worker) keep sharing the one allocation.
    pub fn from_shared(words: Arc<[u64]>, mode: ValidationMode) -> io::Result<CgrGraph> {
        let Some(&w0) = words.first() else {
            return Err(bad("truncated GCGR header"));
        };
        let header_len = header_len(w0)?;
        if words.len() < header_len {
            return Err(bad("truncated GCGR header"));
        }
        let h = parse_header(&words[..header_len])?;
        let payload_words = h.bit_len.div_ceil(64);
        let expect_total = header_len + h.low_words + h.high_words + payload_words;
        if words.len() != expect_total {
            return Err(bad(format!(
                "file holds {} words but the header implies {expect_total} \
                 (truncated, or trailing bytes after the payload)",
                words.len()
            )));
        }
        let section = |first: usize, len: usize, what: &str| {
            BitVec::from_shared(Arc::clone(&words), first, len)
                .map_err(|e| bad(format!("{what}: {e}")))
        };
        let low = section(header_len, h.low_len_bits, "EF low section")?;
        let high = section(header_len + h.low_words, h.high_len_bits, "EF high section")?;
        let bits = section(
            header_len + h.low_words + h.high_words,
            h.bit_len,
            "payload",
        )?;
        let index = EliasFano::from_parts(low, high, h.num_nodes + 1, h.low_bits)
            .map_err(|e| bad(format!("corrupt EF offset index: {e}")))?;
        // The EF shape checks don't guarantee decoded *values*: corrupt low
        // bits can still yield a locally decreasing sequence, a nonzero
        // first offset (leading blank bits no encoder produces), or a final
        // offset short of the payload. Scan the decoded offsets once.
        let mut prev = 0usize;
        for i in 0..index.len() {
            let off = index.get(i);
            if i == 0 && off != 0 {
                return Err(bad("first offset must be zero (leading blank bits)"));
            }
            if off < prev || off > h.bit_len {
                return Err(bad(format!("offset {i} out of order or past payload")));
            }
            prev = off;
        }
        if prev != h.bit_len {
            return Err(bad("final offset does not cover the payload"));
        }
        let cgr = CgrGraph::from_loaded_parts(
            h.config,
            bits,
            index,
            h.num_edges,
            h.stats,
            mode.deferred(),
        );
        if !mode.deferred() {
            crate::decode::validate_structure(&cgr)
                .map_err(|e| bad(format!("corrupt CGR payload: {e}")))?;
        }
        Ok(cgr)
    }

    /// [`CgrGraph::from_bytes_with`] under the default
    /// [`ValidationMode::Eager`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<CgrGraph> {
        Self::from_bytes_with(bytes, ValidationMode::default())
    }

    /// Loads a GCGR v2/v3 image from a caller-provided byte buffer (a file
    /// read into memory, a mapped region). The buffer must be 8-byte
    /// aligned and a whole number of words, as the format guarantees —
    /// both are validated, never assumed. The words are adopted into one
    /// shared allocation and served per [`CgrGraph::from_shared`]; on a
    /// little-endian host the adoption is a straight block copy, and every
    /// downstream consumer (clones, serve workers, partition faults) then
    /// shares that single allocation zero-copy.
    pub fn from_bytes_with(bytes: &[u8], mode: ValidationMode) -> io::Result<CgrGraph> {
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(bad("GCGR buffer is not 8-byte aligned"));
        }
        Self::from_shared(words_from_le_bytes(bytes)?, mode)
    }
}

/// Deserializes a graph written by [`write_cgr`], with eager validation —
/// see [`read_cgr_with`].
pub fn read_cgr<R: Read>(reader: R) -> io::Result<CgrGraph> {
    read_cgr_with(reader, ValidationMode::default())
}

/// Deserializes a GCGR v2/v3 stream: reads it to the end and loads the
/// words through [`CgrGraph::from_shared`], which validates magic,
/// configuration, counts (checked narrowing), stats cross-checks, offset
/// monotonicity (first offset pinned to zero, final offset covering the
/// payload), and exact stream length; `mode` selects eager or deferred
/// structural validation.
pub fn read_cgr_with<R: Read>(mut reader: R, mode: ValidationMode) -> io::Result<CgrGraph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    CgrGraph::from_shared(words_from_le_bytes(&bytes)?, mode)
}

/// Saves a compressed graph to a file path in the current format (v2, or
/// v3 under reference compression).
pub fn save<P: AsRef<Path>>(cgr: &CgrGraph, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_cgr(cgr, file)
}

/// Loads a compressed graph from a file path (v2 or v3, eager
/// validation).
pub fn load<P: AsRef<Path>>(path: P) -> io::Result<CgrGraph> {
    load_with(path, ValidationMode::default())
}

/// Loads a compressed graph from a file path with an explicit
/// [`ValidationMode`].
pub fn load_with<P: AsRef<Path>>(path: P, mode: ValidationMode) -> io::Result<CgrGraph> {
    CgrGraph::from_shared(read_words(path)?, mode)
}

/// Reads a whole GCGR file into one shared word buffer — the substrate
/// for [`CgrGraph::from_shared`]: load the words once, then any number of
/// graphs, workers or processes-worth-of-clones serve views of this single
/// allocation.
pub fn read_words<P: AsRef<Path>>(path: P) -> io::Result<Arc<[u64]>> {
    words_from_le_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_node;
    use gcgt_graph::gen::{toys, web_graph, WebParams};

    fn round_trip(cgr: &CgrGraph) -> CgrGraph {
        let mut buf = Vec::new();
        write_cgr(cgr, &mut buf).unwrap();
        read_cgr(io::Cursor::new(buf)).unwrap()
    }

    fn assert_same_graph(loaded: &CgrGraph, cgr: &CgrGraph) {
        assert_eq!(loaded.config(), cgr.config());
        assert_eq!(loaded.num_nodes(), cgr.num_nodes());
        assert_eq!(loaded.num_edges(), cgr.num_edges());
        assert_eq!(loaded.offsets_dense(), cgr.offsets_dense());
        assert_eq!(loaded.bits(), cgr.bits());
        assert_eq!(loaded.stats(), cgr.stats());
    }

    #[test]
    fn round_trip_both_layouts() {
        let g = web_graph(&WebParams::uk2002_like(600), 11);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            let loaded = round_trip(&cgr);
            assert_same_graph(&loaded, &cgr);
            // Decoding the reloaded structure reproduces the graph.
            for u in 0..g.num_nodes() as u32 {
                assert_eq!(decode_node(&loaded, u), g.neighbors(u));
            }
        }
    }

    #[test]
    fn round_trip_through_a_file() {
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let path = std::env::temp_dir().join(format!("gcgr-io-test-{}.cgr", std::process::id()));
        save(&cgr, &path).unwrap();
        let loaded = load(&path).unwrap();
        // The words path serves the same graph zero-copy.
        let shared = CgrGraph::from_shared(read_words(&path).unwrap(), ValidationMode::Eager);
        std::fs::remove_file(&path).ok();
        assert_same_graph(&loaded, &cgr);
        let shared = shared.unwrap();
        assert!(shared.bits().is_shared());
        assert_same_graph(&shared, &cgr);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = gcgt_graph::Csr::empty(5);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let loaded = round_trip(&cgr);
        assert_eq!(loaded.num_nodes(), 5);
        assert_eq!(loaded.num_edges(), 0);
    }

    #[test]
    fn from_bytes_is_zero_copy_and_checks_alignment() {
        let g = web_graph(&WebParams::uk2002_like(300), 13);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        write_cgr(&cgr, &mut buf).unwrap();

        let loaded = CgrGraph::from_bytes(&buf).unwrap();
        assert!(loaded.bits().is_shared(), "payload must be a shared view");
        assert!(loaded.index().low().is_shared() || loaded.index().low().is_empty());
        assert!(loaded.index().high().is_shared());
        assert_same_graph(&loaded, &cgr);

        // A misaligned start is rejected up front, not served skewed.
        let mut padded = vec![0u8; 1];
        padded.extend_from_slice(&buf);
        let err = CgrGraph::from_bytes(&padded[1..]).unwrap_err();
        assert!(err.to_string().contains("aligned"), "{err}");

        // A length that is not a whole number of words is rejected too.
        let err = CgrGraph::from_bytes(&buf[..buf.len() - 3]).unwrap_err();
        assert!(err.to_string().contains("multiple of 8"), "{err}");
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        write_cgr(&cgr, &mut buf).unwrap();

        let mut wrong = buf.clone();
        wrong[0] = b'X';
        assert!(read_cgr(io::Cursor::new(wrong)).is_err());

        let truncated = &buf[..buf.len() - 9];
        assert!(read_cgr(io::Cursor::new(truncated)).is_err());

        let mut future = buf.clone();
        future[4] = 99; // version half of w0
        assert!(read_cgr(io::Cursor::new(future)).is_err());

        // An absurd node count in the header must fail the section checks,
        // not attempt a matching up-front allocation.
        let mut huge = buf.clone();
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes()); // w3 = num_nodes
        assert!(read_cgr(io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn v2_rejects_trailing_and_stats_mismatch() {
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        write_cgr(&cgr, &mut buf).unwrap();

        // A whole trailing word fails the section-extent equation; a
        // partial one fails the word-multiple check.
        let mut word_trailing = buf.clone();
        word_trailing.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_cgr(io::Cursor::new(word_trailing)).is_err());
        let mut byte_trailing = buf.clone();
        byte_trailing.push(0xCD);
        assert!(read_cgr(io::Cursor::new(byte_trailing)).is_err());

        // w8 mirrors the payload bit length (w5); a mismatch is corruption.
        let mut skewed = buf.clone();
        let lied = (cgr.bits().len() as u64 + 1).to_le_bytes();
        skewed[8 * 8..8 * 8 + 8].copy_from_slice(&lied);
        let err = read_cgr(io::Cursor::new(skewed)).unwrap_err();
        assert!(err.to_string().contains("total bits"), "{err}");
    }

    #[test]
    fn deferred_validation_catches_corruption_at_touch() {
        let g = web_graph(&WebParams::uk2002_like(200), 7);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        write_cgr(&cgr, &mut buf).unwrap();

        // A clean deferred load starts unvalidated and converges to clean.
        let clean = CgrGraph::from_bytes_with(&buf, ValidationMode::Deferred).unwrap();
        assert!(clean.validation_pending());
        clean.ensure_validated(0, 10).unwrap();
        assert!(clean.validation_pending());
        clean.ensure_validated_all().unwrap();
        assert!(!clean.validation_pending());

        // Find a payload flip that eager validation rejects, then prove the
        // deferred load accepts it up front but fails on first touch.
        let payload_start = buf.len() - cgr.bits().words().len() * 8;
        let mut caught = false;
        for bit in (0..(buf.len() - payload_start) * 8).step_by(8) {
            let mut corrupt = buf.clone();
            corrupt[payload_start + bit / 8] ^= 1 << (bit % 8);
            if CgrGraph::from_bytes(&corrupt).is_ok() {
                continue; // lucky flip, structurally clean
            }
            let deferred = CgrGraph::from_bytes_with(&corrupt, ValidationMode::Deferred).unwrap();
            assert!(deferred.ensure_validated_all().is_err());
            caught = true;
            break;
        }
        assert!(caught, "no structurally detectable flip found");
    }

    /// Regression for the decode-path hardening: flipping **payload** bits
    /// (not just header bytes) used to pass the magic/version/offset checks
    /// and then panic inside the serial decoders' `.expect()` sites at
    /// first traversal. `read_cgr` must instead return a typed
    /// `InvalidData` error — or, when a flip happens to decode cleanly,
    /// load a graph whose every adjacency is still fully decodable.
    #[test]
    fn flipped_payload_bits_are_a_typed_error_not_a_panic() {
        let g = web_graph(&WebParams::uk2002_like(200), 7);
        for cfg in [CgrConfig::paper_default(), CgrConfig::unsegmented()] {
            let cgr = CgrGraph::encode(&g, &cfg);
            let mut buf = Vec::new();
            write_cgr(&cgr, &mut buf).unwrap();
            let payload_start = buf.len() - cgr.bits().words().len() * 8;

            let mut rejected = 0usize;
            // Every eighth payload bit keeps the sweep fast while covering
            // headers, interval areas and residual segments of many nodes.
            for bit in (0..(buf.len() - payload_start) * 8).step_by(8) {
                let mut corrupt = buf.clone();
                corrupt[payload_start + bit / 8] ^= 1 << (bit % 8);
                match read_cgr(io::Cursor::new(corrupt)) {
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "bit {bit}");
                        rejected += 1;
                    }
                    // A lucky flip that still decodes structurally (e.g.
                    // inside blank segment padding): the load succeeded, so
                    // full decoding must too — that is what validation
                    // guarantees downstream engines.
                    Ok(loaded) => {
                        for u in 0..loaded.num_nodes() as u32 {
                            let _ = decode_node(&loaded, u);
                        }
                    }
                }
            }
            assert!(
                rejected > 0,
                "no payload corruption detected for {cfg:?} — validation is not running"
            );
        }
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        // A payload cut short *in units of whole words* keeps bit_len
        // consistent only if we also shrink the declared length; instead cut
        // the byte stream mid-payload so the word read fails cleanly.
        let g = web_graph(&WebParams::uk2002_like(150), 3);
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default());
        let mut buf = Vec::new();
        write_cgr(&cgr, &mut buf).unwrap();
        for cut in [1usize, 7, 64] {
            let truncated = &buf[..buf.len() - cut];
            assert!(read_cgr(io::Cursor::new(truncated)).is_err(), "cut {cut}");
        }
    }
}
