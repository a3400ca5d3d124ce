//! # gcgt-simt
//!
//! A deterministic SIMT (single-instruction, multiple-thread) execution
//! simulator — the substitute for the paper's NVIDIA TITAN V, since the
//! reproduction runs without a GPU. It models exactly the quantities the
//! paper's analysis is about:
//!
//! * **warp steps / divergence** ([`Tally`], [`OpClass`]): lanes of a warp
//!   execute in lock-step; when lanes sit in different control branches the
//!   branch classes serialize into separate instruction slots, precisely the
//!   accounting of the paper's Figure 4 instruction-flow tables (reproduced
//!   bit-exactly by an integration test);
//! * **memory coalescing** ([`MemSim`]): per warp-step, the distinct
//!   128-byte lines touched by the active lanes become memory transactions;
//!   a small per-warp cache models the paper's "decode entirely in cache"
//!   property;
//! * **device cost** ([`Device`], [`DeviceConfig`]): a roofline model turns
//!   (instruction slots, transactions, atomics) into estimated kernel time,
//!   plus per-launch overhead and a device-memory capacity check for the
//!   OOM behaviour of Figures 8 and 15.
//!
//! Warps are simulated sequentially or in parallel on host threads
//! ([`parallel_warps`]); either way all *reported* numbers come from the
//! deterministic tallies, never from host wall-clock.
//!
//! ## Observability
//!
//! A [`Device`] optionally carries an [`ObserverHandle`]
//! ([`Device::set_observer`]): kernel launches and allocation changes are
//! reported as events with **modeled** timestamps ([`Device::modeled_ms`]),
//! and richer layers (level launchers, the out-of-core cache, the shard
//! exchange, the serving pool) emit their own spans through
//! [`Device::observer`]. The event types and the ready-made sinks
//! ([`obs::TraceRecorder`], [`obs::MetricsRegistry`]) live in the
//! dependency-free [`gcgt_obs`] crate, re-exported here as [`obs`]. With no
//! observer installed nothing is constructed and no reported number ever
//! changes.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod device;
pub mod interconnect;
pub mod mem;
pub mod parallel;
pub mod pcie;
pub mod tally;
pub mod warp;

/// The observability event model and sinks (re-export of the dependency-free
/// `gcgt-obs` crate), so downstream crates reach `gcgt_simt::obs::…` without
/// their own dependency edge.
pub use gcgt_chaos as chaos;
pub use gcgt_obs as obs;

pub use device::{Device, DeviceConfig, IterationCost, OomError, RunStats};
pub use gcgt_chaos::{FaultDomain, FaultPlan, FaultRate, RetryPolicy, TypedFailure};
pub use gcgt_obs::{NullObserver, Observer, ObserverHandle};
pub use interconnect::InterconnectConfig;
pub use mem::{MemSim, MemStats, Space};
pub use parallel::parallel_warps;
pub use pcie::PcieConfig;
pub use tally::{OpClass, Tally};
pub use warp::WarpSim;
