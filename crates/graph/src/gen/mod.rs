//! Synthetic graph generators.
//!
//! The paper evaluates on five real datasets (Table 1). Those crawls are not
//! redistributable at laptop scale, so each has a deterministic synthetic
//! analogue here that preserves the two properties the paper's analysis
//! depends on: *locality* (how interval-rich the adjacency lists are, which
//! drives compression rate) and *degree skew* (which drives the load-balance
//! optimizations of Section 5). `gcgt-bench`'s `datasets` module maps each
//! paper dataset to its generator and parameters.
//!
//! All generators are seeded and deterministic across runs.

pub mod geometric;
pub mod random;
pub mod social;
pub mod toys;
pub mod web;

mod zipf;

pub use geometric::{brain_like, BrainParams};
pub use random::{erdos_renyi, rmat, RmatParams};
pub use social::{social_graph, SocialParams};
pub use web::{web_graph, WebParams};
pub use zipf::ZipfSampler;
