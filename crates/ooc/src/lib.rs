//! # gcgt-ooc
//!
//! Out-of-core traversal: graphs **larger than device memory** run by
//! streaming compressed partitions over the host link, EMOGI-style
//! (arXiv:2006.06890), with the transfer budget shrunk by the paper's own
//! CGR compression — the representation is moved compressed and decoded in
//! place, never inflated.
//!
//! Three pieces compose the subsystem:
//!
//! * [`PartitionMap`] — splits a [`gcgt_cgr::CgrGraph`] into contiguous
//!   vertex ranges of bounded compressed size (adjacency lists are never
//!   split). It also owns the counted cut — `count` ranges balanced by
//!   compressed or CSR bytes, nesting across power-of-two counts — that
//!   `gcgt-shard`'s `ShardPlan` places on devices;
//! * [`PartitionCache`] — residency under a hard byte budget, planned once
//!   per kernel launch: partitions the launch needs that are already
//!   resident are consumed *first*, so nothing the launch still needs is
//!   ever evicted; the missing ones are coalesced into runs of adjacent
//!   partitions and each run crosses [`gcgt_simt::HOST_LINK`] as one
//!   chunked upload; and a run is capped at half the budget, so half the
//!   cache stays resident and decoding while it streams (the
//!   double-buffering that halves a warm upload's charge). It also keeps a
//!   per-partition **rent**: what zero-copy read-throughs have spent on a
//!   non-resident partition since it was last uploaded;
//! * [`OocEngine`] — a [`gcgt_core::Placement`] of a
//!   [`gcgt_core::GcgtEngine`]: the wrapped engine decodes every launch,
//!   and the placement's `prepare_frontier` hook hands each launch's
//!   partition set to the cache, so every application
//!   (BFS/CC/BC/PageRank/label propagation) runs unmodified. A
//!   launch with fewer work nodes than an average partition holds may read
//!   the 128-byte lines it decodes through instead, when that is cheaper
//!   than the upload plan and keeps every rent within one warm upload.
//!
//! The link is won by fewer, larger, contiguous requests rather than fewer
//! bytes — EMOGI's observation — which is what coalescing buys: a ~40 KB
//! partition alone pays the link's 10 µs setup latency for ~3 µs of
//! bandwidth. Kernel-side cost is untouched: `est_ms`, cycles, launches
//! and tallies are bitwise the in-core engine's.
//!
//! Faults, uploads, read-throughs, evictions, streamed bytes and
//! milliseconds surface in [`gcgt_simt::RunStats`], making the fit→stream
//! transition measurable (see the `ooc` experiment in `gcgt-bench`).
//! Sessions select this engine through `EngineKind::OutOfCore` +
//! `SessionBuilder::memory_budget` in `gcgt-session`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod cache;
pub mod engine;
pub mod partition;

pub use cache::{PartitionCache, ResidencyPlan};
pub use engine::OocEngine;
pub use partition::{Partition, PartitionMap};
