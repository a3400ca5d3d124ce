//! # gcgt-shard
//!
//! Sharded multi-device traversal over compressed graphs: the second
//! scaling axis of the reproduction. A [`ShardPlan`] places contiguous,
//! node-aligned slices of the graph onto N modeled GPUs: it wraps the
//! out-of-core partitioner's counted cut ([`gcgt_ooc::PartitionMap`], over
//! compressed or CSR bytes), so a shard is a [`gcgt_ooc::Partition`] and
//! this crate carries no range type or bisection of its own. A
//! [`ShardEngine`] runs any inner engine as an owner-computes
//! bulk-synchronous loop. It is a [`gcgt_core::Placement`] over
//! `dyn Expander`: it decodes through its first inner engine, adds only
//! residency and exchange, and names no engine type. In-core GCGT, the CSR
//! baselines, streaming out-of-core under a per-device budget, or an
//! engine of your own all shard through the one constructor. Every step,
//! each shard expands exactly the frontier nodes it owns; discoveries of
//! remotely-owned nodes become per-owner dense frontier-bitmap segments,
//! delivered over a modeled [`gcgt_simt::Link`] (NVLink or PCIe peer
//! links) by one log-depth dissemination schedule ([`exchange`]): `⌈log₂ d⌉` rounds, one
//! merged message per device per round, at most `d·⌈log₂ d⌉` messages a
//! step where point-to-point delivery needs up to `d·(d−1)`. Per-message
//! setup is ~98 % of the exchange bill at bitmap sizes, so that count is
//! the lever; bytes stay what they were.
//!
//! The engine is an `Expander` by the blanket impl over placements, so all
//! five applications, the session layer and the serving pools run sharded
//! unmodified — and
//! because the per-step union of per-shard work is exactly the serial
//! schedule, `QueryOutput`s and kernel-side `RunStats` are **bitwise
//! identical at any shard count**; the sharding overhead is charged into
//! the separate `exchange_ms` / `boundary_nodes` / `sync_steps` counters.
//!
//! Sharding an engine this crate has never heard of — `Mine` only forwards
//! to a stock engine here, but any [`gcgt_core::Expander`] will do:
//!
//! ```
//! use gcgt_cgr::{CgrConfig, CgrGraph};
//! use gcgt_core::{bfs, kernels::Sink, Expander, GcgtEngine, Strategy};
//! use gcgt_graph::{gen::toys, NodeId};
//! use gcgt_shard::{ShardEngine, ShardPlan};
//! use gcgt_simt::{DeviceConfig, Link, WarpSim};
//!
//! struct Mine<'g>(GcgtEngine<'g>);
//! impl Expander for Mine<'_> {
//!     fn num_nodes(&self) -> usize { self.0.num_nodes() }
//!     fn num_edges(&self) -> usize { self.0.num_edges() }
//!     fn out_degree(&self, u: NodeId) -> usize { self.0.out_degree(u) }
//!     fn device_config(&self) -> &DeviceConfig { self.0.device_config() }
//!     fn structure_bytes(&self) -> usize { self.0.structure_bytes() }
//!     fn index_addrs(&self, u: NodeId, addrs: &mut Vec<u64>) { self.0.index_addrs(u, addrs) }
//!     fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
//!         self.0.expand_chunk(warp, chunk, sink)
//!     }
//!     // Optional: hubs split across warps.
//!     fn shares(&self, u: NodeId) -> usize { self.0.shares(u) }
//!     fn expand_share(&self, warp: &mut WarpSim, u: NodeId, share: usize, of: usize,
//!                     sink: &mut dyn Sink) {
//!         self.0.expand_share(warp, u, share, of, sink)
//!     }
//!     fn pull_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], depth: &[u32], du: u32,
//!                   out: &mut Vec<(NodeId, NodeId)>) -> u64 {
//!         self.0.pull_chunk(warp, chunk, depth, du, out)
//!     }
//! }
//!
//! let graph = toys::grid(8, 8);
//! let cgr = CgrGraph::encode(&graph, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
//! let mine = Mine(GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full));
//! let plan = ShardPlan::build(&cgr, 4);
//! let sharded = ShardEngine::new(&graph, &plan, Link::nvlink(), vec![Box::new(mine)]);
//! let run = bfs(&sharded, 0);
//! assert_eq!(run.depth[63], 14); // the far corner of the grid
//! assert!(run.stats.exchange_ms > 0.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod engine;
pub mod exchange;
pub mod plan;

pub use engine::ShardEngine;
pub use exchange::{ActivityMatrix, ExchangeCost};
pub use plan::ShardPlan;
