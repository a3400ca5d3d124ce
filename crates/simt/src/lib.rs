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
//! ## Accounting and observability
//!
//! Every modeled state change of a [`Device`] — a launch, an allocation, a
//! partition upload, an exchange, a fault retry — is one [`Charge`] value
//! passed to [`Device::record`]. [`RunStats::apply`] folds it (the only
//! place a counter changes), and a device carrying an [`ObserverHandle`]
//! ([`Device::set_observer`]) reports the same value as an event with a
//! **modeled** timestamp ([`Device::modeled_ms`]). A launch is priced by
//! the pure [`price`] function of its [`IterationCost`] and the
//! [`DeviceConfig`]. The event types and the ready-made sinks
//! ([`obs::TraceRecorder`], [`obs::MetricsRegistry`]) live in the
//! dependency-free [`gcgt_obs`] crate, re-exported here as [`obs`]. With no
//! observer installed no event is constructed and no reported number ever
//! changes.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod device;
pub mod link;
pub mod mem;
pub mod parallel;
pub mod stats;
pub mod tally;
pub mod warp;

/// The observability event model and sinks (re-export of the dependency-free
/// `gcgt-obs` crate), so downstream crates reach `gcgt_simt::obs::…` without
/// their own dependency edge.
pub use gcgt_chaos as chaos;
pub use gcgt_obs as obs;

pub use device::{Device, DeviceConfig, IterationCost, OomError};
pub use gcgt_chaos::{FaultDomain, FaultPlan, FaultRate, RetryPolicy, TypedFailure};
pub use gcgt_obs::{NullObserver, Observer, ObserverHandle};
pub use link::{Link, HOST_LINK, ZERO_COPY_IN_FLIGHT, ZERO_COPY_RTT_US};
pub use mem::{MemSim, MemStats, Space, LINE_BYTES};
pub use parallel::parallel_warps;
pub use stats::{price, Charge, Price, RunStats};
pub use tally::{OpClass, Tally};
pub use warp::WarpSim;
