//! # gcgt-core
//!
//! The paper's primary contribution: **GPU-based Compressed Graph Traversal
//! (GCGT)** — traversal kernels that decode CGR adjacency lists entirely
//! inside the (simulated) GPU cores, scheduled to minimize warp divergence
//! and load imbalance:
//!
//! * [`kernels::intuitive`] — Algorithm 1, one thread per compressed list;
//! * [`kernels::two_phase`] — Algorithm 2, interval and residual phases
//!   separated, intervals expanded cooperatively;
//! * [`kernels::task_stealing`] — Algorithm 3, idle lanes steal residual
//!   work through shared memory;
//! * [`kernels::warp_decode`] — Algorithm 4, speculative parallel VLC
//!   decoding with O(log₂ W) validity marking (Lemma 5.2);
//! * [`kernels::segmented`] — Section 5.2, residual segments processed
//!   multi-way.
//!
//! [`Strategy`] stacks them exactly as the Figure 9 ablation ladder, and the
//! apps ([`apps::bfs`], [`apps::cc`], [`apps::bc`], [`apps::pagerank`])
//! instantiate the expansion–filtering–contraction pipeline of Section 6.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod algorithm;
pub mod apps;
pub mod engine;
pub mod kernels;
pub mod memory;
pub mod strategy;

pub use algorithm::{Algorithm, Bc, Bfs, Cc, LabelProp, Pagerank, Query, QueryOutput};
pub use apps::bc::{bc, bc_in, BcRun};
pub use apps::bfs::{bfs, bfs_in, BfsRun};
pub use apps::cc::{cc, cc_in, CcRun};
pub use apps::labelprop::{label_propagation, label_propagation_in, LabelPropRun};
pub use apps::pagerank::{pagerank, pagerank_in, PagerankRun};
pub use engine::{compact_frontier, launch_expansion, launch_pull};
pub use engine::{Expander, GcgtEngine, Placement};
pub use strategy::{DirectionMode, Strategy, PULL_ALPHA};
