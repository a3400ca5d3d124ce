//! # gcgt-graph
//!
//! Graph substrate for the GCGT reproduction:
//!
//! * [`csr`] — the Compressed Sparse Row format of the paper's Figure 1,
//!   with `u32` node ids and sorted adjacency lists;
//! * [`gen`] — deterministic synthetic generators standing in for the
//!   paper's five datasets (web crawls, social networks, brain connectome)
//!   plus classic models (Erdős–Rényi, R-MAT, toys);
//! * [`order`] — the node reorderings of Figure 13 (Original, DegSort,
//!   BFSOrder, Gorder, LLP) plus SlashBurn as an extension;
//! * [`vnode`] — virtual-node compression (Buehrer–Chellapilla), the uniform
//!   preprocessing step of Section 7.2;
//! * [`refalgo`] — serial reference BFS/CC/BC/PageRank used as correctness
//!   oracles by every parallel implementation in the workspace;
//! * [`tally`] — the dense label counter LLP and label propagation share.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod csr;
pub mod edgelist;
pub mod gen;
pub mod order;
pub mod refalgo;
pub mod tally;
pub mod vnode;

pub use csr::{bucket_by_key, Csr, CsrBuilder, NodeId, UNREACHED};
pub use order::{Permutation, Reordering};
pub use tally::LabelTally;
pub use vnode::{VnodeConfig, VnodeGraph};
