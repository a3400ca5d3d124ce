//! # gcgt-bench
//!
//! The experiment harness: synthetic analogues of the paper's five datasets
//! ([`datasets`]) and one module per table/figure of the evaluation
//! ([`experiments`]), each of which regenerates the corresponding rows or
//! series. The `repro` binary prints them; the Criterion benches in
//! `benches/` time the underlying operations and print the same tables into
//! the bench log.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod bench_json;
pub mod datasets;
pub mod experiments;
pub mod table;
pub mod trace;

pub use datasets::{Dataset, DatasetId, Scale};
pub use table::Table;
