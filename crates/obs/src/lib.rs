//! # gcgt-obs
//!
//! Zero-cost-when-disabled observability for the modeled GCGT stack.
//!
//! The workspace's `RunStats`/`ServeStats` aggregates faithfully reproduce
//! the paper's counters (cycles, decode-op mix, expanded edges), but an
//! aggregate cannot show *when* anything happened inside a query — an
//! out-of-core fault storm, an exchange-dominated BSP step, or a p99
//! queue-wait spike stays invisible. This crate adds the missing timeline:
//!
//! * [`Observer`] — a trait with no-op defaults. A simulated `Device`
//!   renders every charge it records (launches, alloc/free, per-level
//!   expansion spans, partition uploads/read-throughs/faults/evictions,
//!   sharded frontier exchanges, fault retries) as one of these events, from the same value
//!   its `RunStats` fold; the serving pool adds its deterministic FIFO
//!   timeline. With no observer installed no event is built.
//! * [`TraceRecorder`] — records events and exports canonicalized
//!   [Chrome trace-event JSON](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//!   loadable in Perfetto / `chrome://tracing`. Because every timestamp
//!   derives from *modeled* milliseconds and export order is a total sort,
//!   traces are bitwise reproducible run-to-run.
//! * [`MetricsRegistry`] — accumulates the same events into named counters
//!   and renders a Prometheus-style text snapshot.
//!
//! The crate is dependency-free and sits *below* `gcgt-simt`: events carry
//! only plain field types, so no simulator type leaks downward.
//!
//! ## Quickstart
//!
//! ```
//! use gcgt_obs::{LaunchEvent, Observer, ObserverHandle, TraceRecorder};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(TraceRecorder::new());
//! let handle = ObserverHandle::from_arc(recorder.clone());
//!
//! // Anything holding the handle reports through the Observer trait;
//! // here we stand in for the simulated device.
//! handle.launch(&LaunchEvent {
//!     track: 0,
//!     start_ms: 0.0,
//!     end_ms: 0.25,
//!     launch: 1,
//!     warps: 4,
//!     cycles: 300_000.0,
//!     compute_cycles: 64.0,
//!     memory_cycles: 300_000.0,
//!     atomics_cycles: 0.0,
//!     critical_warp_cycles: 280.0,
//!     mem_transactions: 1_260_000,
//!     cache_hits: 40_000,
//!     mem_steps: 9_000,
//!     lines_touched: 1_300_000,
//!     lane_work: 4_096,
//!     bound: "memory",
//!     classes: vec![ClassTally { class: "Handle", issues: 128, cycles: 256.0 }],
//! });
//!
//! let json = recorder.chrome_trace_json();
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("\"name\": \"launch\""));
//! # use gcgt_obs::ClassTally;
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
use std::sync::Arc;

mod metrics;
mod trace;

pub use metrics::MetricsRegistry;
pub use trace::TraceRecorder;

/// One instruction class's contribution to a launch or level: how many warp
/// instruction slots it issued and the modeled cycles they cost under the
/// device's per-class weights.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassTally {
    /// Class name (an `OpClass` variant name, e.g. `"ItvDecode"`).
    pub class: &'static str,
    /// Warp instruction slots issued under this class.
    pub issues: u64,
    /// Weighted issue cycles (`issues × class_cycles[class]`).
    pub cycles: f64,
}

/// One kernel launch folded into a device's running cost (a `Charge::Launch`
/// recorded on a `Device`).
#[derive(Clone, Debug, PartialEq)]
pub struct LaunchEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the launch began, milliseconds.
    pub start_ms: f64,
    /// Modeled clock when the launch completed, milliseconds.
    pub end_ms: f64,
    /// 1-based launch index on this device view.
    pub launch: u64,
    /// Warps in the launch.
    pub warps: u64,
    /// Modeled cycles this launch added: the largest of the four roofline
    /// terms below.
    pub cycles: f64,
    /// Issue-throughput term: weighted issue cycles over the instruction
    /// streams (SMs) the launch's warps can fill.
    pub compute_cycles: f64,
    /// Memory term: transactions over the device's transactions per cycle.
    pub memory_cycles: f64,
    /// Atomic-throughput term.
    pub atomics_cycles: f64,
    /// Critical-path cycles of the launch's busiest warp (weighted issues
    /// plus dependent-memory-step latency) — the floor under the other three.
    pub critical_warp_cycles: f64,
    /// Memory transactions of this launch.
    pub mem_transactions: u64,
    /// Line touches of this launch absorbed by the per-warp caches.
    pub cache_hits: u64,
    /// Warp steps of this launch that touched memory.
    pub mem_steps: u64,
    /// Distinct lines touched, summed over those steps (pre-cache).
    pub lines_touched: u64,
    /// Active lanes summed over the launch's instruction slots.
    pub lane_work: u64,
    /// Which term set [`LaunchEvent::cycles`]: `"compute"`, `"memory"`,
    /// `"atomics"` or `"critical_warp"`, ties resolved in that order.
    pub bound: &'static str,
    /// Per-class issue/cycle deltas of this launch (zero classes omitted).
    pub classes: Vec<ClassTally>,
}

/// One per-level expansion span (`launch_expansion` / `launch_pull` in
/// `gcgt-core`): covers residency preparation (out-of-core faults, shard
/// exchange) through kernel accounting. `compact_frontier` reports its
/// bitmap-to-queue launch as a level too.
#[derive(Clone, Debug, PartialEq)]
pub struct LevelEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the level began, milliseconds.
    pub start_ms: f64,
    /// Modeled clock when the level completed, milliseconds.
    pub end_ms: f64,
    /// Expansion direction: `"push"` (frontier out-edges) or `"pull"`
    /// (unvisited in-edge scan) — or `"compact"`, the bitmap-to-queue
    /// launch that sorts a device-filling next frontier (no edges).
    pub direction: &'static str,
    /// Work items of the level (frontier size in push mode, unvisited
    /// candidates in pull mode, ids queued when compacting).
    pub work_items: u64,
    /// Warps the launch schedule cut the work items into.
    pub warps: u64,
    /// Hub nodes the schedule split across several warps (expansion
    /// launches only: an early-exit pull scan is never split).
    pub split_nodes: u64,
    /// Edges expanded (push: frontier out-degree sum) or examined (pull:
    /// neighbours scanned before early exit; a BC pull level scans every
    /// candidate's whole adjacency).
    pub edges: u64,
    /// Per-class issue/cycle breakdown of the level's kernel launch.
    pub classes: Vec<ClassTally>,
}

/// One device allocation-level change (`Device::alloc` / `Device::free`).
#[derive(Clone, Debug, PartialEq)]
pub struct AllocEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock of the change, milliseconds.
    pub ts_ms: f64,
    /// `"alloc"` or `"free"`.
    pub kind: &'static str,
    /// Bytes allocated or freed.
    pub bytes: u64,
    /// Resident bytes after the change.
    pub allocated: u64,
}

/// One partition entering or leaving the out-of-core partition cache
/// (`PartitionCache`), or read through without entering it. Partitions
/// cross the link in coalesced uploads or zero-copy read-throughs, so a
/// fault is a marker inside its [`UploadEvent`] or [`ReadThroughEvent`],
/// which carries the charge.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the partition's upload (or its eviction) began,
    /// milliseconds.
    pub start_ms: f64,
    /// `"fault-cold"` (part of a cold upload, full transfer price),
    /// `"fault"` (part of a warm, overlap-discounted upload),
    /// `"fault-read"` (served by a read-through, left non-resident) or
    /// `"evict"`.
    pub kind: &'static str,
    /// Partition id.
    pub partition: u64,
    /// The partition's own compressed bytes (uploaded or reclaimed), or for
    /// `"fault-read"` the bytes of the lines read for it (each line counted
    /// for one partition, so they sum to the [`ReadThroughEvent`]'s).
    pub bytes: u64,
}

/// One coalesced out-of-core upload (`PartitionCache`): a run of adjacent
/// partitions crossing the host link as a single transfer.
#[derive(Clone, Debug, PartialEq)]
pub struct UploadEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the transfer began, milliseconds.
    pub start_ms: f64,
    /// Whether nothing was resident to decode under the upload, so it paid
    /// the full transfer price instead of the overlap-discounted one.
    pub cold: bool,
    /// First partition id of the run.
    pub first_partition: u64,
    /// Partitions in the run (one `fault` [`CacheEvent`] each).
    pub partitions: u64,
    /// Compressed bytes moved: the run's partitions plus the
    /// reference-chain closure below its first node.
    pub bytes: u64,
    /// Milliseconds of host-link stall charged (post-overlap).
    pub transfer_ms: f64,
}

/// One out-of-core read-through (`OocEngine`): a launch smaller than one
/// partition fetches only the 128-byte lines it decodes as zero-copy
/// reads, leaving its missing partitions non-resident.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadThroughEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the reads began, milliseconds.
    pub start_ms: f64,
    /// Missing partitions served (one `fault-read` [`CacheEvent`] each).
    pub partitions: u64,
    /// Distinct 128-byte lines read.
    pub lines: u64,
    /// Bytes moved: `lines × 128`.
    pub bytes: u64,
    /// Milliseconds of host-link time charged.
    pub transfer_ms: f64,
}

/// One bulk-synchronous boundary-frontier exchange of a sharded step
/// (`ShardEngine`).
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the exchange began, milliseconds.
    pub start_ms: f64,
    /// 1-based BSP step index within the query.
    pub step: u64,
    /// Bitmap-segment bytes moved, counting every hop of the schedule.
    pub bytes: u64,
    /// Messages sent (each carries one or more merged segments).
    pub messages: u64,
    /// Schedule rounds in which at least one message was sent.
    pub rounds: u64,
    /// Distinct remotely-owned nodes discovered this step.
    pub boundary_nodes: u64,
    /// Interconnect milliseconds charged.
    pub exchange_ms: f64,
}

/// One query's life on the serving pool's **deterministic FIFO timeline**
/// (`ServePool`): all queries arrive at t = 0 in submission order, each
/// dispatches to the earliest-free worker. Replayed host-side, so the event
/// is identical whatever the real thread race did.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeEvent {
    /// Submission index of the query.
    pub query: u64,
    /// Timeline worker the query dispatched to (earliest-free, ties to the
    /// lowest id).
    pub worker: u64,
    /// Submission time on the timeline (always 0 — one batch, one epoch).
    pub submit_ms: f64,
    /// Dispatch time: when the worker freed up (= queue wait).
    pub dispatch_ms: f64,
    /// Completion time (= dispatch + service).
    pub complete_ms: f64,
}

/// One fault-injection lifecycle event (`gcgt-chaos` driven): a fault
/// striking a recovery site, a modeled-backoff retry, a retry budget
/// exhausting, or the serving pool shedding a query (admission or
/// deadline).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Trace track (query index under serving, device id otherwise).
    pub track: u64,
    /// Modeled clock when the fault struck, milliseconds.
    pub ts_ms: f64,
    /// Fault domain name (`"device-alloc"`, `"transfer"`, `"exchange"`,
    /// `"query"`) or `"serve"` for pool-level shedding.
    pub domain: &'static str,
    /// `"injected"` (fault struck), `"retry"` (recovery scheduled),
    /// `"exhausted"` (retry budget spent, escalating), `"shed"`
    /// (admission rejection) or `"deadline"` (post-hoc deadline miss).
    pub kind: &'static str,
    /// 1-based consecutive-failure ordinal at this recovery site (0 for
    /// pool-level shed/deadline events).
    pub attempt: u64,
    /// Modeled backoff milliseconds charged by this event (0 when none).
    pub backoff_ms: f64,
    /// Modeled milliseconds this event added to `exchange_ms` (exchange
    /// domain) or `transfer_ms`: backoff plus the re-charged failed attempt.
    pub charged_ms: f64,
}

/// A sink for modeled-stack events. Every method has a no-op default, so an
/// observer implements only what it cares about; implementors must be
/// `Send + Sync` because serving workers report concurrently.
///
/// A device builds an event only with an observer installed, so the
/// disabled path costs one null-check.
pub trait Observer: Send + Sync {
    /// One kernel launch accounted on a device.
    fn launch(&self, event: &LaunchEvent) {
        let _ = event;
    }

    /// One per-level expansion span.
    fn level(&self, event: &LevelEvent) {
        let _ = event;
    }

    /// One allocation-level change.
    fn alloc(&self, event: &AllocEvent) {
        let _ = event;
    }

    /// One partition-cache fault or eviction.
    fn cache(&self, event: &CacheEvent) {
        let _ = event;
    }

    /// One coalesced partition upload.
    fn upload(&self, event: &UploadEvent) {
        let _ = event;
    }

    /// One zero-copy read-through of a launch's lines.
    fn read_through(&self, event: &ReadThroughEvent) {
        let _ = event;
    }

    /// One sharded boundary exchange.
    fn exchange(&self, event: &ExchangeEvent) {
        let _ = event;
    }

    /// One query on the serving pool's deterministic timeline.
    fn serve(&self, event: &ServeEvent) {
        let _ = event;
    }

    /// One fault-injection lifecycle event (injected / retry / exhausted /
    /// shed / deadline).
    fn fault(&self, event: &FaultEvent) {
        let _ = event;
    }
}

/// The do-nothing observer — what "no observer installed" behaves like,
/// available explicitly for tests and composition.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Broadcasts every event to several observers, in order — e.g. one
/// [`TraceRecorder`] and one [`MetricsRegistry`] fed by a single run.
#[derive(Clone, Default)]
pub struct FanoutObserver {
    sinks: Vec<ObserverHandle>,
}

impl FanoutObserver {
    /// A fan-out over the given sinks.
    pub fn new(sinks: Vec<ObserverHandle>) -> Self {
        Self { sinks }
    }
}

impl std::fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FanoutObserver({} sinks)", self.sinks.len())
    }
}

impl Observer for FanoutObserver {
    fn launch(&self, event: &LaunchEvent) {
        for s in &self.sinks {
            s.launch(event);
        }
    }

    fn level(&self, event: &LevelEvent) {
        for s in &self.sinks {
            s.level(event);
        }
    }

    fn alloc(&self, event: &AllocEvent) {
        for s in &self.sinks {
            s.alloc(event);
        }
    }

    fn cache(&self, event: &CacheEvent) {
        for s in &self.sinks {
            s.cache(event);
        }
    }

    fn upload(&self, event: &UploadEvent) {
        for s in &self.sinks {
            s.upload(event);
        }
    }

    fn read_through(&self, event: &ReadThroughEvent) {
        for s in &self.sinks {
            s.read_through(event);
        }
    }

    fn exchange(&self, event: &ExchangeEvent) {
        for s in &self.sinks {
            s.exchange(event);
        }
    }

    fn serve(&self, event: &ServeEvent) {
        for s in &self.sinks {
            s.serve(event);
        }
    }

    fn fault(&self, event: &FaultEvent) {
        for s in &self.sinks {
            s.fault(event);
        }
    }
}

/// A cloneable, debuggable handle to a shared [`Observer`] — the form the
/// rest of the workspace threads around (`Device`, `PreparedGraph`,
/// `SessionBuilder::observer`).
#[derive(Clone)]
pub struct ObserverHandle(Arc<dyn Observer>);

impl ObserverHandle {
    /// Wraps an observer.
    pub fn new<O: Observer + 'static>(observer: O) -> Self {
        Self(Arc::new(observer))
    }

    /// Wraps an already-shared observer — the usual pattern: keep one clone
    /// of the `Arc` to read the trace back after the run.
    pub fn from_arc<O: Observer + 'static>(observer: Arc<O>) -> Self {
        Self(observer)
    }
}

impl std::ops::Deref for ObserverHandle {
    type Target = dyn Observer;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ObserverHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_accepts_everything() {
        let handle = ObserverHandle::new(NullObserver);
        handle.alloc(&AllocEvent {
            track: 0,
            ts_ms: 0.0,
            kind: "alloc",
            bytes: 64,
            allocated: 64,
        });
        handle.serve(&ServeEvent {
            query: 0,
            worker: 0,
            submit_ms: 0.0,
            dispatch_ms: 0.0,
            complete_ms: 1.0,
        });
        assert_eq!(format!("{handle:?}"), "ObserverHandle(..)");
    }

    #[test]
    fn handle_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObserverHandle>();
        let handle = ObserverHandle::new(NullObserver);
        let _clone = handle.clone();
    }
}
