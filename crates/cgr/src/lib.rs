//! # gcgt-cgr
//!
//! The Compressed Graph Representation (CGR) of the paper's Section 3.1:
//! each adjacency list goes through (i) interval/residual splitting,
//! (ii) gap transformation and (iii) VLC encoding, producing one contiguous
//! bit array plus per-node bit offsets — the structure GCGT kernels traverse
//! in place on the (simulated) GPU.
//!
//! Two on-disk layouts are supported, selected by
//! [`CgrConfig::segment_len_bytes`]:
//!
//! * **unsegmented** (Figure 2 / Figure 6 top):
//!   `degNum, itvNum, intervals…, residuals…`
//! * **segmented** (Section 5.2 / Figure 6 bottom):
//!   `itvNum, intervals…, segNum, seg₀, seg₁, …` with fixed `segLen`-byte
//!   strides, each segment starting with its own residual count and its
//!   first residual re-based on the source node so segments decode
//!   independently.
//!
//! With [`CgrConfig::ref_window`] `> 0` both layouts gain the GCGR v3
//! **reference prologue** (WebGraph-style copy lists): `refOffset`
//! (0 = none) and alternating copy/skip block lengths over the referenced
//! node's full adjacency, after which the residual area holds only the
//! *corrections*. Chains are bounded by [`CgrConfig::ref_chain_limit`] and
//! strictly backward (acyclic by construction); decoders emit intervals,
//! then copied values, then corrections. `ref_window = 0` keeps the
//! payload byte-identical to a v2 encode.
//!
//! Encoding shifts follow Appendix C: counts and gaps get a `+1` shift
//! (VLC cannot represent 0), first gaps are sign-folded, later interval gaps
//! shift by their theoretical minimum of 2, and interval lengths shift by
//! the minimum interval length. (The paper's Figure 2 illustration omits
//! these shifts; the *gap transformation* of that figure is reproduced
//! bit-exactly by `intervals::tests::figure2_gap_structure`, while the final
//! VLC string differs by the documented shifts.)
//!
//! The node layout has exactly one parser: [`NodeCursor`], a field-level
//! reader whose every step is checked against the node's bit range, the
//! node count and the format's invariants, and fails with a typed error
//! instead of panicking. It has two faces in [`decode`] — the streaming
//! [`NeighborScanner`] (one neighbour per call; the pull kernels' early-exit
//! primitive and, through [`validate_structure`], the structural
//! validation of [`CgrGraph::from_shared`], the one GCGR loader every
//! [`io`] entry point feeds) and the bulk [`decode::decode_all`] family (a
//! loop over the cursor) — and a third in `gcgt-core`, whose kernels wrap
//! the same cursor per lane. What the validator accepts, every consumer
//! therefore decodes identically and without panicking; trusted callers
//! simply `expect` the cursor's results.
//!
//! The layout also has exactly one writer: the encoder's node writer,
//! built from the `CgrConfig::write_*` field encoders. Every size the
//! encoder models — reference selection's candidate costs,
//! [`CgrConfig::autotune`]'s per-code totals, the residual-segment packing —
//! is that same writer run into a [`gcgt_bits::BitCount`] instead of a
//! [`gcgt_bits::BitWriter`], so a cost model cannot drift from the bytes it
//! prices. A config that cannot encode a graph (a ζ code with `k = 0`,
//! segments too short for one residual) is a [`CgrGraph::try_encode`]
//! error naming the field.
//!
//! On the device the `n + 1` bit offsets (the paper's `bitStart`) are not
//! the host's Elias–Fano index but a two-level [`DeviceIndex`]: a `u32`
//! entry per node relative to a `u64` base per [`device_index::BLOCK_NODES`]
//! block, or dense `u64` entries when a block spans 2³² bits or more. It is
//! the one model of the index's device bytes and of the addresses a
//! `bitStart` read touches.
//!
//! Codewords resolve through the graph's shared [`DecodeTable`]
//! ([`CgrGraph::table`]): one 16-bit-window probe per codeword, multi-gap
//! probes over residual runs in the scanner, broadword slow path for the
//! tail. [`NodeCursor`] is the one reader that turns a codeword into a
//! field value; the tests check it against a table-free oracle
//! (`Code::decode_at` plus the same shift).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod byterle;
pub mod config;
pub mod decode;
pub mod device_index;
pub mod encode;
pub mod intervals;
pub mod io;
pub mod stats;

pub use byterle::ByteRleGraph;
pub use config::{CgrConfig, DEFAULT_REF_CHAIN_LIMIT};
pub use decode::{validate_range, validate_structure, DecodeStep, NeighborScanner, NodeCursor};
pub use device_index::DeviceIndex;
pub use encode::{CgrGraph, EncodeError};
pub use gcgt_bits::{DecodeTable, MAX_PACKED, WINDOW_BITS};
pub use intervals::{split_intervals, IntervalsResiduals};
pub use io::ValidationMode;
pub use stats::CompressionStats;
