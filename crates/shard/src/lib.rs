//! # gcgt-shard
//!
//! Sharded multi-device traversal over compressed graphs: the second
//! scaling axis of the reproduction. A [`ShardPlan`] places contiguous,
//! node-aligned slices of the graph onto N modeled GPUs (reusing the
//! out-of-core partitioner for the compressed cut); a [`ShardEngine`]
//! runs any inner engine — in-core GCGT, the CSR baselines, or streaming
//! out-of-core under a per-device budget — as an owner-computes
//! bulk-synchronous loop. Every step, each shard expands exactly the
//! frontier nodes it owns; discoveries of remotely-owned nodes become
//! per-owner dense frontier-bitmap segments, delivered over a modeled
//! [`gcgt_simt::InterconnectConfig`] (NVLink or PCIe peer links) by one
//! log-depth dissemination schedule ([`exchange`]): `⌈log₂ d⌉` rounds, one
//! merged message per device per round, at most `d·⌈log₂ d⌉` messages a
//! step where point-to-point delivery needs up to `d·(d−1)`. Per-message
//! setup is ~98 % of the exchange bill at bitmap sizes, so that count is
//! the lever; bytes stay what they were.
//!
//! The engine implements the `Expander` contract, so all five applications,
//! the session layer and the serving pools run sharded unmodified — and
//! because the per-step union of per-shard work is exactly the serial
//! schedule, `QueryOutput`s and kernel-side `RunStats` are **bitwise
//! identical at any shard count**; the sharding overhead is charged into
//! the separate `exchange_ms` / `boundary_nodes` / `sync_steps` counters.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod engine;
pub mod exchange;
pub mod plan;

pub use engine::{ShardEngine, ShardInner, ShardOocParams};
pub use exchange::{ActivityMatrix, ExchangeCost};
pub use plan::{Shard, ShardPlan};
