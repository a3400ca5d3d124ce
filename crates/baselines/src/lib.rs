//! # gcgt-baselines
//!
//! The comparison systems of the paper's Section 7.1:
//!
//! * [`naive`] — single-threaded CPU BFS ("Naïve"), the basic reference;
//! * [`ligra`] — a Ligra-style shared-memory framework (Shun & Blelloch,
//!   PPoPP'13): `edgeMap` with sparse(push)/dense(pull) direction switching
//!   on host threads, over plain CSR ([`LigraGraph`]) or byte-RLE
//!   compressed adjacency ([`LigraPlusGraph`], Ligra+, DCC'15);
//! * [`gpucsr`] — Merrill et al.-style BFS on **uncompressed CSR** on the
//!   SIMT simulator (scan-based gathering with warp-cooperative expansion of
//!   large lists), plus CC (Soman et al.'s stages with an ECL-CC link) and
//!   Sriram/Brandes BC — the paper's `GPUCSR` standalone baselines;
//! * [`gunrock_like`] — a Gunrock-style advance+filter two-kernel pipeline
//!   with the platform's ~3× device-memory overhead, reproducing the OOM
//!   behaviour of Figures 8 and 15.
//!
//! CPU baselines report real wall-clock; GPU baselines report the same
//! deterministic cost model as GCGT, so the comparison isolates exactly what
//! the paper measures: the price of decoding CGR versus raw CSR.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod gpucsr;
pub mod gunrock_like;
pub mod ligra;
pub mod naive;

pub use gpucsr::GpuCsrEngine;
pub use gunrock_like::GunrockEngine;
pub use ligra::{LigraGraph, LigraPlusGraph};
