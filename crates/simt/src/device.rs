//! Device-level cost model and memory capacity.
//!
//! A roofline model converts the per-kernel-launch aggregates (instruction
//! slots, memory transactions, atomics) into estimated cycles: compute and
//! memory streams overlap across the thousands of resident warps, so the
//! launch cost is the *maximum* of the two streams (plus an atomic
//! serialization term), floored by the longest single warp — a small
//! frontier cannot finish faster than its one busy warp. Per-launch overhead
//! models the host-side kernel dispatch that dominates deep, narrow BFS
//! levels.
//!
//! Defaults approximate the paper's NVIDIA TITAN V (80 SMs, ~1.2 GHz,
//! ~650 GB/s HBM2, 12 GB), with the capacity scaled per experiment so that
//! the synthetic datasets reproduce the paper's OOM pattern.

use crate::mem::MemStats;
use crate::tally::{OpClass, Tally, ALL_CLASSES, NUM_CLASSES};
use gcgt_chaos::{FaultDomain, FaultInjector, FaultPlan, TypedFailure};
use gcgt_obs::{AllocEvent, ClassTally, FaultEvent, LaunchEvent, ObserverHandle};

/// Hardware parameters of the simulated device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceConfig {
    /// Lanes per warp.
    pub warp_width: usize,
    /// Streaming multiprocessors (issue streams).
    pub num_sms: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustainable memory transactions (128 B) per core cycle, device-wide.
    pub mem_txn_per_cycle: f64,
    /// Serialized atomic operations per cycle, device-wide.
    pub atomics_per_cycle: f64,
    /// Host-side overhead per kernel launch, microseconds.
    pub launch_overhead_us: f64,
    /// Effective latency (cycles) charged per *dependent* memory step on
    /// the critical-path warp: a lane serially decoding a residual chain
    /// cannot overlap its next read with the current one, which is exactly
    /// the super-node serialization of Section 5. Amortized for the
    /// ~16-deep load pipelining real SMs provide.
    pub serial_mem_lat_cycles: f64,
    /// Device memory capacity in bytes (for OOM accounting).
    pub mem_capacity: usize,
    /// Per-warp cache slots (128-byte lines) for the memory model.
    pub cache_lines_per_warp: usize,
    /// Whether the device carries the precomputed VLC decode tables in
    /// shared memory. When set, [`crate::WarpSim`]s derived from this
    /// configuration charge decode steps as [`OpClass::TableDecode`] (one
    /// table probe) instead of `ItvDecode`/`ResDecode` (a serial bit-scan)
    /// — same step schedule, lower per-step cost, the way Section 5.1
    /// models coalescing wins. Kernels that never decode VLC (the CSR
    /// baselines) are unaffected.
    pub table_decode: bool,
    /// Issue cycles per instruction class: a VLC decode step is a dozen
    /// ALU/shift instructions, a raw CSR gather is one — this is what makes
    /// traversing compressed adjacency cost compute, as the paper's
    /// decoding-overhead numbers reflect.
    pub class_cycles: [f64; NUM_CLASSES],
}

/// Default per-class issue costs (cycles per warp instruction slot),
/// indexed by [`OpClass`].
pub const DEFAULT_CLASS_CYCLES: [f64; NUM_CLASSES] = [
    6.0,  // Header: decode degNum/itvNum (or read two CSR offsets)
    12.0, // ItvDecode: two VLC codewords (gap + length)
    6.0,  // ResDecode: one VLC codeword
    2.0,  // Handle: status check + conditional write
    5.0,  // Scan: log-depth shuffle prefix sum
    1.0,  // Shfl
    1.0,  // Sync / vote
    4.0,  // Atomic
    4.0,  // ParDecode: one speculative/marking round
    2.0,  // Jump
    2.0,  // Generic
    2.0,  // TableDecode: one shared-memory table probe + shift/mask fixup
    8.0,  // RefChase: read a referenced node's prologue (one chain hop)
];

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::titan_v_scaled(512 << 20)
    }
}

impl DeviceConfig {
    /// TITAN-V-like throughput ratios with an explicit memory capacity
    /// (experiments scale the capacity with their dataset sizes; the paper's
    /// card has 12 GB for graphs two to three orders of magnitude larger).
    pub fn titan_v_scaled(mem_capacity: usize) -> Self {
        Self {
            warp_width: 32,
            num_sms: 80,
            clock_ghz: 1.2,
            // ~650 GB/s ÷ 128 B ÷ 1.2 GHz ≈ 4.2 transactions/cycle.
            mem_txn_per_cycle: 4.2,
            atomics_per_cycle: 2.0,
            launch_overhead_us: 0.5,
            serial_mem_lat_cycles: 24.0,
            mem_capacity,
            cache_lines_per_warp: 64,
            table_decode: true,
            class_cycles: DEFAULT_CLASS_CYCLES,
        }
    }

    /// The non-zero per-class issue counts of `tally` with their weighted
    /// cycles under this configuration, in [`OpClass`] order — the
    /// decode-class breakdown trace events and [`RunStats::explain`] report.
    pub fn class_breakdown(&self, tally: &Tally) -> Vec<ClassTally> {
        ALL_CLASSES
            .iter()
            .filter_map(|&class| {
                let issues = tally.issues[class as usize];
                (issues > 0).then(|| ClassTally {
                    class: class.name(),
                    issues,
                    cycles: issues as f64 * self.class_cycles[class as usize],
                })
            })
            .collect()
    }

    /// Weighted compute cycles of a tally under this configuration.
    pub fn weighted_cycles(&self, tally: &Tally) -> f64 {
        tally
            .issues
            .iter()
            .zip(&self.class_cycles)
            .map(|(&n, &c)| n as f64 * c)
            .sum()
    }

    /// Critical-path cycles of one warp: weighted instruction slots plus
    /// dependent-memory-step latency.
    pub fn warp_critical_cycles(&self, tally: &Tally, mem: &MemStats) -> f64 {
        self.weighted_cycles(tally) + mem.mem_steps as f64 * self.serial_mem_lat_cycles
    }

    /// Whether `len` work items fill the device by themselves: at least
    /// `warp_width` items for each of the `num_sms` issue streams. It is the
    /// one boundary where the launch schedule starts packing `warp_width`
    /// items per warp, and where a push frontier is worth compacting into
    /// ascending order first.
    #[inline]
    pub fn fills_device(&self, len: usize) -> bool {
        len >= self.num_sms * self.warp_width
    }

    /// A fresh [`Device`] under this configuration — the construction hook
    /// every engine's `new_device` routes through: each run (and each
    /// serving-pool worker) derives its own simulated device from the one
    /// shared configuration of a prepared graph, so residency and cost
    /// accounting never cross worker boundaries.
    pub fn new_device(&self) -> Device {
        Device::new(*self)
    }

    /// A tiny warp configuration for unit tests and the Figure 4 example
    /// (the paper's walk-through uses an 8-lane warp).
    pub fn test_tiny() -> Self {
        Self {
            warp_width: 8,
            num_sms: 4,
            clock_ghz: 1.0,
            mem_txn_per_cycle: 2.0,
            atomics_per_cycle: 1.0,
            launch_overhead_us: 0.0,
            serial_mem_lat_cycles: 0.0,
            mem_capacity: usize::MAX,
            cache_lines_per_warp: 16,
            table_decode: true,
            class_cycles: [1.0; NUM_CLASSES],
        }
    }
}

/// Raised when a structure does not fit the simulated device memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: usize,
    /// Device capacity.
    pub capacity: usize,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: need {} bytes, capacity {} bytes",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Cost of one kernel launch, as fed to [`Device::account_launch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct IterationCost {
    /// Merged instruction tallies of every warp in the launch.
    pub tally: Tally,
    /// Merged memory counters.
    pub mem: MemStats,
    /// Number of warps launched.
    pub warps: usize,
    /// Critical-path cycles of the single busiest warp (weighted issues
    /// plus dependent-memory-step latency), computed by the launcher.
    pub max_warp_cycles: f64,
}

/// Accumulates launch costs into an estimated execution time.
#[derive(Clone, Debug)]
pub struct Device {
    config: DeviceConfig,
    /// Every counter, accumulated in place; `est_ms` alone is derived, at
    /// snapshot time ([`Device::stats`]).
    stats: RunStats,
    observer: Option<ObserverHandle>,
    track: u64,
    fault_plan: Option<FaultPlan>,
    chaos: Option<FaultInjector>,
}

impl Device {
    /// A fresh device.
    pub fn new(config: DeviceConfig) -> Self {
        Self {
            config,
            stats: RunStats {
                tally: Tally::new(config.warp_width),
                ..RunStats::default()
            },
            observer: None,
            track: 0,
            fault_plan: None,
            chaos: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Installs an observer: launches and allocation changes are reported
    /// from here on (richer spans — levels, cache faults, exchanges — are
    /// emitted by their call sites through [`Device::observer`]). Costs
    /// nothing when never called: every emission site null-checks first,
    /// and observation never changes any accounted number.
    pub fn set_observer(&mut self, observer: ObserverHandle) {
        self.observer = Some(observer);
    }

    /// The installed observer, if any — emission sites with richer context
    /// than the device (the level launchers, the partition cache, the shard
    /// exchange) report through this.
    pub fn observer(&self) -> Option<&ObserverHandle> {
        self.observer.as_ref()
    }

    /// Tags this device's future events with a trace track (a Chrome-trace
    /// `tid`). The serving pool sets the query's submission index before
    /// each query, so traces canonicalize per query, not per racing worker.
    ///
    /// The track also salts the fault injector: a re-track re-derives the
    /// verdict stream, so a query's faults depend on *which query it is*
    /// (its submission index), never on which worker happens to run it.
    pub fn set_track(&mut self, track: u64) {
        self.track = track;
        if let Some(plan) = self.fault_plan {
            self.chaos = Some(plan.injector(track));
        }
    }

    /// Installs a fault plan: from here on the chaos charge points
    /// ([`Device::alloc`], the partition-cache and shard-exchange gates,
    /// the per-query check) evaluate a deterministic [`FaultInjector`]
    /// derived from the plan and the current track. Installing the *empty*
    /// plan is indistinguishable from never calling this — no verdicts, no
    /// float operations, bitwise-identical accounting.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.is_empty() {
            self.fault_plan = None;
            self.chaos = None;
        } else {
            self.fault_plan = Some(plan);
            self.chaos = Some(plan.injector(self.track));
        }
    }

    /// The installed fault plan, if a non-empty one is active.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// Runs one chaos-gated operation of `domain` to completion: evaluates
    /// the injector, and for every injected transient fault charges one
    /// modeled recovery round — exponential backoff plus `wasted_ms` (the
    /// modeled cost of the attempt that failed, so a failed partition
    /// upload or boundary exchange is *re-charged*, not forgiven) — into
    /// `exchange_ms` (Exchange domain) or `transfer_ms` (everything else).
    /// Returns normally once a verdict comes back clean; escalates with a
    /// typed [`TypedFailure::FaultBudgetExhausted`] panic when retries are
    /// disabled or the consecutive-failure budget is spent.
    ///
    /// With no (or an empty) fault plan installed this is a single
    /// null-check: no verdict is drawn and nothing is charged.
    pub fn chaos_gate(&mut self, domain: FaultDomain, wasted_ms: f64) {
        let Some(mut chaos) = self.chaos.take() else {
            return;
        };
        let retry = chaos.plan().retry;
        let mut failures: u32 = 0;
        while chaos.should_fail(domain) {
            failures += 1;
            self.stats.faults_injected += 1;
            if failures > retry.max_attempts {
                if let Some(obs) = &self.observer {
                    obs.fault(&FaultEvent {
                        track: self.track,
                        ts_ms: self.modeled_ms(),
                        domain: domain.name(),
                        kind: "exhausted",
                        attempt: failures as u64,
                        backoff_ms: 0.0,
                    });
                }
                self.chaos = Some(chaos);
                gcgt_chaos::raise(TypedFailure::FaultBudgetExhausted {
                    domain: domain.name(),
                    failures,
                });
            }
            let backoff = retry.backoff_ms(failures);
            self.stats.retries += 1;
            self.stats.backoff_ms += backoff;
            let charge = backoff + wasted_ms;
            if domain == FaultDomain::Exchange {
                self.stats.exchange_ms += charge;
            } else {
                self.stats.transfer_ms += charge;
            }
            if let Some(obs) = &self.observer {
                obs.fault(&FaultEvent {
                    track: self.track,
                    ts_ms: self.modeled_ms(),
                    domain: domain.name(),
                    kind: "retry",
                    attempt: failures as u64,
                    backoff_ms: backoff,
                });
            }
        }
        self.chaos = Some(chaos);
    }

    /// Draws one terminal per-query fault verdict
    /// ([`FaultDomain::Query`]) — checked once when an executor takes a
    /// query view. Returns `true` when the query must fail; the caller
    /// escalates with [`TypedFailure::InjectedQueryFailure`]. Never
    /// retried: there is nothing below a query to recover.
    pub fn inject_query_fault(&mut self) -> bool {
        let fail = match self.chaos.as_mut() {
            Some(chaos) => chaos.should_fail(FaultDomain::Query),
            None => false,
        };
        if fail {
            self.stats.faults_injected += 1;
            if let Some(obs) = &self.observer {
                obs.fault(&FaultEvent {
                    track: self.track,
                    ts_ms: self.modeled_ms(),
                    domain: FaultDomain::Query.name(),
                    kind: "injected",
                    attempt: 1,
                    backoff_ms: 0.0,
                });
            }
        }
        fail
    }

    /// The current trace track.
    pub fn track(&self) -> u64 {
        self.track
    }

    /// The modeled clock of this device view, milliseconds: estimated
    /// kernel time plus the host-side streamed-transfer and exchange
    /// charges. Every trace-event timestamp derives from this — never from
    /// host wall-clock — which is what makes traces bitwise reproducible.
    pub fn modeled_ms(&self) -> f64 {
        self.elapsed_ms() + self.stats.transfer_ms + self.stats.exchange_ms
    }

    /// Registers a resident allocation (graph, frontier buffers, platform
    /// overhead). Fails when the sum exceeds capacity — the OOM bars of
    /// Figures 8 and 15.
    pub fn alloc(&mut self, bytes: usize) -> Result<(), OomError> {
        // Transient allocator stalls (chaos) resolve — with backoff charged
        // — before the genuine capacity check: an injected fault is never
        // confused with a real OOM.
        self.chaos_gate(FaultDomain::DeviceAlloc, 0.0);
        let total = self.stats.allocated_bytes.saturating_add(bytes);
        if total > self.config.mem_capacity {
            return Err(OomError {
                requested: total,
                capacity: self.config.mem_capacity,
            });
        }
        self.stats.allocated_bytes = total;
        if let Some(obs) = &self.observer {
            obs.alloc(&AllocEvent {
                track: self.track,
                ts_ms: self.modeled_ms(),
                kind: "alloc",
                bytes: bytes as u64,
                allocated: self.stats.allocated_bytes as u64,
            });
        }
        Ok(())
    }

    /// Releases a resident allocation (per-query scratch freed between
    /// batched queries, or an evicted out-of-core partition).
    ///
    /// Frees are clamped at zero in release builds; a free that exceeds the
    /// currently allocated total is an accounting bug and asserts in debug
    /// builds.
    pub fn free(&mut self, bytes: usize) {
        debug_assert!(
            bytes <= self.stats.allocated_bytes,
            "freeing {bytes} bytes with only {} allocated",
            self.stats.allocated_bytes
        );
        self.stats.allocated_bytes = self.stats.allocated_bytes.saturating_sub(bytes);
        if let Some(obs) = &self.observer {
            obs.alloc(&AllocEvent {
                track: self.track,
                ts_ms: self.modeled_ms(),
                kind: "free",
                bytes: bytes as u64,
                allocated: self.stats.allocated_bytes as u64,
            });
        }
    }

    /// Currently allocated bytes.
    pub fn allocated(&self) -> usize {
        self.stats.allocated_bytes
    }

    /// A fresh accounting view of the **same residency**: the allocation
    /// level carries over, every counter starts at zero. This is how a
    /// serving worker gives each query its own attributable [`RunStats`] —
    /// the uploaded structure stays resident across queries, but a query's
    /// statistics start from nothing, so they are bitwise identical to what
    /// the same query reports on a freshly built device. Scheduling can
    /// therefore never change a reported number.
    pub fn query_view(&self) -> Device {
        let mut view = Device::new(self.config);
        view.stats.allocated_bytes = self.stats.allocated_bytes;
        view.observer = self.observer.clone();
        view.track = self.track;
        // The injector re-derives from (plan, track) rather than carrying
        // over: a query's fault sequence restarts from the same state on
        // every view, so it depends only on the query's identity — never on
        // what ran on this worker before it.
        view.fault_plan = self.fault_plan;
        view.chaos = self.fault_plan.map(|p| p.injector(self.track));
        view
    }

    /// Records one coalesced out-of-core upload: `partitions` adjacent
    /// partitions (`bytes` compressed bytes in all) crossed the host link as
    /// a single transfer that stalled the run for `transfer_ms`
    /// milliseconds (post-overlap).
    pub fn charge_partition_upload(&mut self, partitions: u64, bytes: u64, transfer_ms: f64) {
        self.stats.partition_faults += partitions;
        self.stats.partition_uploads += 1;
        self.stats.bytes_streamed += bytes;
        self.stats.transfer_ms += transfer_ms;
    }

    /// Records one out-of-core partition eviction.
    pub fn charge_partition_eviction(&mut self) {
        self.stats.partition_evictions += 1;
    }

    /// Records one push-mode (frontier out-edge) expansion level that
    /// expanded `edges` candidate pairs — direction-optimizing BFS
    /// observability ([`RunStats::push_steps`] / [`RunStats::pushed_edges`]).
    pub fn charge_push_step(&mut self, edges: u64) {
        self.stats.push_steps += 1;
        self.stats.pushed_edges += edges;
    }

    /// Records one pull-mode (unvisited in-edge scan) expansion level that
    /// examined `edges` compressed neighbours before early exit
    /// ([`RunStats::pull_steps`] / [`RunStats::pulled_edges`]).
    pub fn charge_pull_step(&mut self, edges: u64) {
        self.stats.pull_steps += 1;
        self.stats.pulled_edges += edges;
    }

    /// Records one bulk-synchronous frontier exchange that moved boundary
    /// bitmaps for `exchange_ms` milliseconds of interconnect time and
    /// discovered `boundary_nodes` remotely-owned nodes
    /// ([`RunStats::exchange_ms`] / [`RunStats::boundary_nodes`]). Like the
    /// out-of-core transfer charge this is host-side accounting: it never
    /// touches the estimated kernel time.
    pub fn charge_exchange(&mut self, exchange_ms: f64, boundary_nodes: u64) {
        self.stats.exchange_ms += exchange_ms;
        self.stats.boundary_nodes += boundary_nodes;
    }

    /// Records one bulk-synchronous step barrier of a sharded run
    /// ([`RunStats::sync_steps`]).
    pub fn charge_sync_step(&mut self) {
        self.stats.sync_steps += 1;
    }

    /// Folds one kernel launch into the running cost.
    pub fn account_launch(&mut self, cost: &IterationCost) {
        let start_ms = self.observer.is_some().then(|| self.modeled_ms());
        let issue_cycles = self.config.weighted_cycles(&cost.tally);
        // Issue throughput: one warp instruction stream per SM, limited by
        // how many warps the launch actually has.
        let streams = cost.warps.clamp(1, self.config.num_sms) as f64;
        let compute = issue_cycles / streams;
        let memory = cost.mem.transactions as f64 / self.config.mem_txn_per_cycle;
        let atomics =
            cost.tally.issues[OpClass::Atomic as usize] as f64 / self.config.atomics_per_cycle;
        // The busiest single warp floors the launch: a kernel cannot finish
        // before its critical-path warp does.
        let launch_cycles = compute.max(memory).max(atomics).max(cost.max_warp_cycles);
        self.stats.cycles += launch_cycles;
        self.stats.launches += 1;
        self.stats.tally.merge(&cost.tally);
        self.stats.mem.merge(&cost.mem);
        if let (Some(obs), Some(start_ms)) = (&self.observer, start_ms) {
            // The roofline term that set `launch_cycles` (first on a tie).
            let terms = [
                ("compute", compute),
                ("memory", memory),
                ("atomics", atomics),
                ("critical_warp", cost.max_warp_cycles),
            ];
            let bound = terms
                .iter()
                .fold(terms[0], |best, &t| if t.1 > best.1 { t } else { best })
                .0;
            obs.launch(&LaunchEvent {
                track: self.track,
                start_ms,
                end_ms: self.modeled_ms(),
                launch: self.stats.launches,
                warps: cost.warps as u64,
                cycles: launch_cycles,
                compute_cycles: compute,
                memory_cycles: memory,
                atomics_cycles: atomics,
                critical_warp_cycles: cost.max_warp_cycles,
                mem_transactions: cost.mem.transactions,
                bound,
                classes: self.config.class_breakdown(&cost.tally),
            });
        }
    }

    /// Estimated elapsed milliseconds so far (cycles / clock + launch
    /// overheads).
    pub fn elapsed_ms(&self) -> f64 {
        self.stats.cycles / (self.config.clock_ghz * 1e6)
            + self.stats.launches as f64 * self.config.launch_overhead_us / 1e3
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> RunStats {
        RunStats {
            est_ms: self.elapsed_ms(),
            ..self.stats
        }
    }
}

/// Aggregated result of a simulated run.
///
/// `PartialEq` compares every counter, including the floating-point cost
/// fields — the simulator is bit-deterministic, so two runs of the same
/// query on the same starting state compare equal. The concurrency suite
/// relies on this to prove scheduling never changes simulated work.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Estimated elapsed time, milliseconds.
    pub est_ms: f64,
    /// Modelled device cycles.
    pub cycles: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Instruction tallies (all warps, all launches).
    pub tally: Tally,
    /// Memory counters.
    pub mem: MemStats,
    /// Resident allocation at the end of the run.
    pub allocated_bytes: usize,
    /// Out-of-core partitions faulted onto the device (0 for in-core runs).
    pub partition_faults: u64,
    /// Coalesced host-link uploads those faults crossed in — one per run of
    /// adjacent missing partitions, each paying the link's setup latency
    /// once per chunk of the *run*.
    pub partition_uploads: u64,
    /// Out-of-core partitions evicted to make room (0 for in-core runs).
    pub partition_evictions: u64,
    /// Compressed bytes streamed over the host link by those uploads.
    pub bytes_streamed: u64,
    /// Milliseconds of host-link transfer streamed during the run (partition
    /// uploads, post-overlap; 0 for in-core runs). The up-front whole-graph
    /// upload of an in-core session is *not* included — that is
    /// `upload_ms` at the session layer.
    pub transfer_ms: f64,
    /// Push-mode (frontier out-edge) expansion levels executed. Maintained
    /// by direction-aware applications (BFS); 0 for the other apps.
    pub push_steps: u64,
    /// Pull-mode (unvisited in-edge scan) expansion levels executed —
    /// non-zero only when direction-optimizing BFS actually switched.
    pub pull_steps: u64,
    /// Candidate edges expanded by push levels (the frontier out-degree
    /// sum over push levels). With [`RunStats::pulled_edges`] this makes
    /// the direction-optimization saving observable: a pure-push run
    /// expands every reachable edge, an adaptive run strictly fewer.
    pub pushed_edges: u64,
    /// Compressed neighbours examined by pull levels before each lane's
    /// early exit on its first frontier parent.
    pub pulled_edges: u64,
    /// Milliseconds of device↔device interconnect time spent exchanging
    /// boundary frontier bitmaps between shards (0 for single-device runs).
    /// Reported separately from `est_ms` so sharding stays attributable:
    /// the kernel-time estimate is bitwise identical at any shard count.
    pub exchange_ms: f64,
    /// Distinct remotely-owned nodes discovered across all exchange steps
    /// (a node re-discovered in a later step counts again; within one step
    /// it counts once).
    pub boundary_nodes: u64,
    /// Bulk-synchronous step barriers executed by a sharded run (one per
    /// kernel launch on multi-shard sessions; 0 otherwise).
    pub sync_steps: u64,
    /// Transient faults injected by the active `FaultPlan` across every
    /// domain (alloc, transfer, exchange, query). 0 whenever no plan — or
    /// the empty plan — is installed.
    pub faults_injected: u64,
    /// Recovery rounds spent absorbing injected faults (one per fault that
    /// was retried rather than escalated).
    pub retries: u64,
    /// Modeled milliseconds of exponential backoff charged by those
    /// retries. Already folded into [`RunStats::transfer_ms`] /
    /// [`RunStats::exchange_ms`] (faults cost modeled time where they
    /// struck); reported separately so the overhead stays attributable.
    pub backoff_ms: f64,
}

impl RunStats {
    /// All-zero statistics: what a query that never executed reports. The
    /// serving pool uses this for shed and failed submission slots so the
    /// per-query vector keeps its submission-order shape.
    pub fn zeroed() -> RunStats {
        RunStats::default()
    }

    /// The statistics accumulated since `earlier` — a snapshot taken on the
    /// *same* device earlier in its life. This is how batched traversal
    /// attributes per-query cost while the graph stays resident on one
    /// device: snapshot before the query, subtract after.
    ///
    /// `allocated_bytes` is carried over as-is (residency is a level, not a
    /// flow).
    pub fn since(&self, earlier: &RunStats) -> RunStats {
        RunStats {
            est_ms: (self.est_ms - earlier.est_ms).max(0.0),
            cycles: (self.cycles - earlier.cycles).max(0.0),
            launches: self.launches.saturating_sub(earlier.launches),
            tally: self.tally.since(&earlier.tally),
            mem: self.mem.since(&earlier.mem),
            allocated_bytes: self.allocated_bytes,
            partition_faults: self
                .partition_faults
                .saturating_sub(earlier.partition_faults),
            partition_uploads: self
                .partition_uploads
                .saturating_sub(earlier.partition_uploads),
            partition_evictions: self
                .partition_evictions
                .saturating_sub(earlier.partition_evictions),
            bytes_streamed: self.bytes_streamed.saturating_sub(earlier.bytes_streamed),
            transfer_ms: (self.transfer_ms - earlier.transfer_ms).max(0.0),
            push_steps: self.push_steps.saturating_sub(earlier.push_steps),
            pull_steps: self.pull_steps.saturating_sub(earlier.pull_steps),
            pushed_edges: self.pushed_edges.saturating_sub(earlier.pushed_edges),
            pulled_edges: self.pulled_edges.saturating_sub(earlier.pulled_edges),
            exchange_ms: (self.exchange_ms - earlier.exchange_ms).max(0.0),
            boundary_nodes: self.boundary_nodes.saturating_sub(earlier.boundary_nodes),
            sync_steps: self.sync_steps.saturating_sub(earlier.sync_steps),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            retries: self.retries.saturating_sub(earlier.retries),
            backoff_ms: (self.backoff_ms - earlier.backoff_ms).max(0.0),
        }
    }

    /// A human-readable latency decomposition of this run under `config`:
    /// the per-class instruction-slot breakdown (issues, weighted cycles,
    /// share of weighted issue cycles); the roofline split; and the modeled
    /// time split — estimated kernel time, streamed transfer, shard
    /// exchange, and their sum (the modeled total). Formatting is
    /// fixed-precision, so the string is as deterministic as the numbers
    /// themselves.
    ///
    /// The roofline line gives what share of the modeled cycles each
    /// throughput term of [`Device::account_launch`] covers when summed over
    /// the run on its own: memory and atomics are exact sums of the
    /// per-launch terms, issue assumes every SM busy and so is a lower
    /// bound. Cycles none of them covers come from launches floored by
    /// their busiest warp; which term bound each launch is the `bound` of
    /// its trace event and `gcgt_launch_cycles_total{bound=…}`.
    pub fn explain(&self, config: &DeviceConfig) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>14} {:>7}\n",
            "class", "issues", "cycles", "share"
        ));
        let weighted = config.weighted_cycles(&self.tally).max(f64::MIN_POSITIVE);
        for c in config.class_breakdown(&self.tally) {
            out.push_str(&format!(
                "{:<12} {:>12} {:>14.1} {:>6.1}%\n",
                c.class,
                c.issues,
                c.cycles,
                100.0 * c.cycles / weighted
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12} launches, {} warp slots, {} mem txns\n",
            "totals",
            self.launches,
            self.tally.total_issues(),
            self.mem.transactions
        ));
        if self.cycles > 0.0 {
            let share = |term: f64| 100.0 * term / self.cycles;
            let memory = self.mem.transactions as f64 / config.mem_txn_per_cycle;
            let atomics =
                self.tally.issues[OpClass::Atomic as usize] as f64 / config.atomics_per_cycle;
            let issue = config.weighted_cycles(&self.tally) / config.num_sms as f64;
            out.push_str(&format!(
                "{:<12} {:>12.1} cycles; alone, memory covers {:.1}%, atomics {:.1}%, issue >= {:.1}%\n",
                "roofline",
                self.cycles,
                share(memory),
                share(atomics),
                share(issue)
            ));
        }
        if self.push_steps + self.pull_steps > 0 {
            out.push_str(&format!(
                "{:<12} {:>12} push ({} edges), {} pull ({} edges)\n",
                "levels", self.push_steps, self.pushed_edges, self.pull_steps, self.pulled_edges
            ));
        }
        if self.partition_faults + self.partition_evictions > 0 {
            out.push_str(&format!(
                "{:<12} {:>12} faults in {} uploads ({:.1} KB mean), {} evictions\n",
                "ooc",
                self.partition_faults,
                self.partition_uploads,
                self.bytes_streamed as f64 / 1e3 / self.partition_uploads.max(1) as f64,
                self.partition_evictions
            ));
        }
        if self.sync_steps > 0 {
            out.push_str(&format!(
                "{:<12} {:>12} sync steps, {} boundary nodes\n",
                "shard", self.sync_steps, self.boundary_nodes
            ));
        }
        if self.faults_injected > 0 || self.retries > 0 {
            out.push_str(&format!(
                "{:<12} {:>12} faults, {} retries, {:.6} ms backoff\n",
                "chaos", self.faults_injected, self.retries, self.backoff_ms
            ));
        }
        out.push_str(&format!("{:<12} {:>14.6} ms\n", "est", self.est_ms));
        out.push_str(&format!(
            "{:<12} {:>14.6} ms\n",
            "transfer", self.transfer_ms
        ));
        out.push_str(&format!(
            "{:<12} {:>14.6} ms\n",
            "exchange", self.exchange_ms
        ));
        out.push_str(&format!(
            "{:<12} {:>14.6} ms\n",
            "modeled",
            self.est_ms + self.transfer_ms + self.exchange_ms
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tally::OpClass;

    fn launch(issues: u64, txns: u64, warps: usize) -> IterationCost {
        let mut t = Tally::new(32);
        for _ in 0..issues {
            t.issue(OpClass::Handle, 32);
        }
        let mem = MemStats {
            transactions: txns,
            ..Default::default()
        };
        IterationCost {
            tally: t,
            mem,
            warps,
            max_warp_cycles: (issues / warps.max(1) as u64) as f64 * 2.0,
        }
    }

    #[test]
    fn compute_bound_launch() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        d.account_launch(&launch(8_000, 10, 80));
        // 8000 Handle issues × 2 cycles / 80 SMs = 200 > 10 / 4.2 memory.
        assert!((d.stats().cycles - 200.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_launch() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        d.account_launch(&launch(100, 42_000, 80));
        assert!((d.stats().cycles - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn small_launch_floored_by_busiest_warp() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 30));
        let mut c = launch(50, 0, 1);
        c.max_warp_cycles = 100.0;
        d.account_launch(&c);
        assert!(d.stats().cycles >= 100.0);
    }

    #[test]
    fn launch_overhead_accumulates() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 30);
        let mut d = Device::new(cfg);
        for _ in 0..100 {
            d.account_launch(&launch(1, 0, 1));
        }
        assert!(d.elapsed_ms() >= 100.0 * cfg.launch_overhead_us / 1e3);
    }

    #[test]
    fn oom_detection() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1000));
        assert!(d.alloc(600).is_ok());
        assert!(d.alloc(300).is_ok());
        let err = d.alloc(200).unwrap_err();
        assert_eq!(err.capacity, 1000);
        assert!(err.to_string().contains("out of device memory"));
        // Allocation state unchanged after failure.
        assert_eq!(d.allocated(), 900);
    }

    #[test]
    fn free_returns_capacity_for_reuse() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1000));
        d.alloc(900).unwrap();
        assert!(d.alloc(200).is_err());
        d.free(400);
        assert_eq!(d.allocated(), 500);
        assert!(d.alloc(200).is_ok());
        assert_eq!(d.allocated(), 700);
    }

    #[test]
    fn stream_counters_accumulate_and_subtract() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 20));
        let before = d.stats();
        d.charge_partition_upload(3, 4096, 1.5);
        d.charge_partition_upload(1, 1024, 0.5);
        d.charge_partition_eviction();
        let s = d.stats().since(&before);
        assert_eq!(s.partition_faults, 4);
        assert_eq!(s.partition_uploads, 2);
        assert_eq!(s.bytes_streamed, 5120);
        assert_eq!(s.partition_evictions, 1);
        assert!((s.transfer_ms - 2.0).abs() < 1e-12);
        // The estimated execution time is unaffected: transfer is reported
        // separately so the cost stays attributable.
        assert_eq!(s.est_ms, 0.0);
    }

    #[test]
    fn direction_counters_accumulate_and_subtract() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 20));
        let before = d.stats();
        d.charge_push_step(100);
        d.charge_push_step(40);
        d.charge_pull_step(7);
        let s = d.stats().since(&before);
        assert_eq!(s.push_steps, 2);
        assert_eq!(s.pushed_edges, 140);
        assert_eq!(s.pull_steps, 1);
        assert_eq!(s.pulled_edges, 7);
        // Direction bookkeeping is host-side: it never changes the
        // simulated execution estimate.
        assert_eq!(s.est_ms, 0.0);
        // query_view zeroes them like every other counter.
        assert_eq!(d.query_view().stats().push_steps, 0);
    }

    #[test]
    fn exchange_counters_accumulate_and_subtract() {
        let mut d = Device::new(DeviceConfig::titan_v_scaled(1 << 20));
        let before = d.stats();
        d.charge_sync_step();
        d.charge_exchange(0.75, 100);
        d.charge_sync_step();
        d.charge_exchange(0.25, 40);
        let s = d.stats().since(&before);
        assert_eq!(s.sync_steps, 2);
        assert_eq!(s.boundary_nodes, 140);
        assert!((s.exchange_ms - 1.0).abs() < 1e-12);
        // Exchange is charged host-side, like out-of-core transfer: the
        // estimated kernel time is untouched, so sharding stays attributable.
        assert_eq!(s.est_ms, 0.0);
        // query_view zeroes the exchange counters like every other counter.
        let v = d.query_view().stats();
        assert_eq!(v.exchange_ms, 0.0);
        assert_eq!(v.boundary_nodes, 0);
        assert_eq!(v.sync_steps, 0);
    }

    #[test]
    fn query_view_keeps_residency_and_zeroes_counters() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 20);
        let mut d = cfg.new_device();
        d.alloc(4096).unwrap();
        d.account_launch(&launch(100, 50, 4));
        d.charge_partition_upload(1, 512, 0.25);

        let view = d.query_view();
        assert_eq!(view.allocated(), 4096);
        let s = view.stats();
        assert_eq!(s.launches, 0);
        assert_eq!(s.cycles, 0.0);
        assert_eq!(s.partition_faults, 0);
        assert_eq!(s.transfer_ms, 0.0);
        assert_eq!(s.allocated_bytes, 4096);

        // A query on the view reports bitwise what it would report on a
        // fresh device with the same residency — independent of the
        // original device's history.
        let mut fresh = cfg.new_device();
        fresh.alloc(4096).unwrap();
        let mut replay = d.query_view();
        let c = launch(321, 77, 8);
        fresh.account_launch(&c);
        replay.account_launch(&c);
        assert_eq!(fresh.stats(), replay.stats());
    }

    #[test]
    fn empty_fault_plan_is_indistinguishable_from_no_plan() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 20);
        let mut plain = cfg.new_device();
        let mut chaotic = cfg.new_device();
        chaotic.set_fault_plan(FaultPlan::empty());
        for d in [&mut plain, &mut chaotic] {
            d.alloc(4096).unwrap();
            d.chaos_gate(FaultDomain::Transfer, 1.0);
            d.charge_partition_upload(1, 512, 0.25);
            assert!(!d.inject_query_fault());
        }
        assert_eq!(plain.stats(), chaotic.stats());
        assert_eq!(chaotic.stats().faults_injected, 0);
        assert_eq!(chaotic.fault_plan(), None);
    }

    #[test]
    fn chaos_gate_charges_backoff_and_wasted_time() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 20);
        let mut d = cfg.new_device();
        let mut plan = FaultPlan::empty();
        plan.seed = 11;
        plan.transfer = gcgt_chaos::FaultRate::new(1000, 2); // always fail, 2-bursts
        plan.exchange = gcgt_chaos::FaultRate::new(1000, 2);
        d.set_fault_plan(plan);

        d.chaos_gate(FaultDomain::Transfer, 0.5);
        let s = d.stats();
        // A 2-burst at rate 1000‰ always injects exactly 2 faults per gate.
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.retries, 2);
        let backoff = plan.retry.backoff_ms(1) + plan.retry.backoff_ms(2);
        assert!((s.backoff_ms - backoff).abs() < 1e-12);
        assert!((s.transfer_ms - (backoff + 2.0 * 0.5)).abs() < 1e-12);
        assert_eq!(s.exchange_ms, 0.0);

        // Exchange-domain recovery charges the interconnect, not the link.
        d.chaos_gate(FaultDomain::Exchange, 0.25);
        let s = d.stats();
        assert!((s.exchange_ms - (backoff + 2.0 * 0.25)).abs() < 1e-12);
        // Kernel-time estimate is never touched by recovery.
        assert_eq!(s.est_ms, 0.0);
    }

    #[test]
    fn chaos_gate_exhausts_with_typed_panic() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 20);
        let mut d = cfg.new_device();
        let mut plan = FaultPlan::empty();
        plan.transfer = gcgt_chaos::FaultRate::new(1000, 8); // burst > budget
        d.set_fault_plan(plan);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            d.chaos_gate(FaultDomain::Transfer, 0.0)
        }))
        .expect_err("budget must exhaust");
        let typed = payload
            .downcast::<TypedFailure>()
            .expect("typed chaos payload");
        assert_eq!(
            *typed,
            TypedFailure::FaultBudgetExhausted {
                domain: "transfer",
                failures: 5, // max_attempts (4) + the escalating failure
            }
        );
    }

    #[test]
    fn query_view_rederives_injector_per_track() {
        let cfg = DeviceConfig::titan_v_scaled(1 << 20);
        let mut d = cfg.new_device();
        let mut plan = FaultPlan::empty();
        plan.seed = 99;
        plan.query = gcgt_chaos::FaultRate::new(400, 1);
        d.set_fault_plan(plan);
        let verdicts = |d: &Device, track: u64| -> Vec<bool> {
            let mut base = d.clone();
            base.set_track(track);
            (0..32)
                .map(|_| base.query_view().inject_query_fault())
                .collect()
        };
        // Same track → same verdict every time (view re-derives, not
        // consumes); different tracks decorrelate.
        assert!(verdicts(&d, 3).iter().all(|&v| v == verdicts(&d, 3)[0]));
        let across: Vec<bool> = (0..64).map(|t| verdicts(&d, t)[0]).collect();
        assert!(across.iter().any(|&v| v));
        assert!(across.iter().any(|&v| !v));
    }

    #[test]
    fn elapsed_scales_with_clock() {
        let mut slow = Device::new(DeviceConfig {
            clock_ghz: 0.5,
            launch_overhead_us: 0.0,
            ..DeviceConfig::titan_v_scaled(1 << 30)
        });
        let mut fast = Device::new(DeviceConfig {
            clock_ghz: 2.0,
            launch_overhead_us: 0.0,
            ..DeviceConfig::titan_v_scaled(1 << 30)
        });
        let c = launch(8_000, 0, 80);
        slow.account_launch(&c);
        fast.account_launch(&c);
        assert!(slow.elapsed_ms() > 3.9 * fast.elapsed_ms());
    }
}
