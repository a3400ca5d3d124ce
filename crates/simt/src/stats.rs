//! Run accounting: every modeled state change of a device is one [`Charge`],
//! [`RunStats::apply`] folds it (the only place a counter changes), and
//! `Device::record` renders the observer event from the same value. A
//! launch is priced by one pure function, [`price`].

use crate::device::{DeviceConfig, IterationCost};
use crate::mem::MemStats;
use crate::tally::{OpClass, Tally};
use gcgt_chaos::FaultDomain;

/// A launch's cost under one [`DeviceConfig`]: the four roofline terms and
/// the cycles the largest of them sets (streams overlap across the
/// resident warps).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Price {
    /// Modeled cycles: the largest term.
    pub cycles: f64,
    /// Weighted issue cycles over the SMs the launch's warps can fill.
    pub compute: f64,
    /// Memory transactions over transactions per cycle.
    pub memory: f64,
    /// Atomic issues over atomics per cycle.
    pub atomics: f64,
    /// The busiest warp's critical-path cycles.
    pub critical_warp: f64,
    /// The term that set `cycles`: `"compute"`, `"memory"`, `"atomics"` or
    /// `"critical_warp"`, ties resolved in that order.
    pub bound: &'static str,
    /// The launch alone, milliseconds: `cycles` over the clock plus the
    /// launch overhead. A run's `est_ms` derives from its cycle and launch
    /// totals instead, so per-launch rounding never accumulates.
    pub ms: f64,
}

/// Prices one kernel launch under `config`.
pub fn price(cost: &IterationCost, config: &DeviceConfig) -> Price {
    // Issue throughput: one warp instruction stream per SM, limited by how
    // many warps the launch actually has.
    let streams = cost.warps.clamp(1, config.num_sms) as f64;
    let compute = config.weighted_cycles(&cost.tally) / streams;
    let memory = cost.mem.transactions as f64 / config.mem_txn_per_cycle;
    let atomics = cost.tally.issues[OpClass::Atomic as usize] as f64 / config.atomics_per_cycle;
    let terms = [
        ("compute", compute),
        ("memory", memory),
        ("atomics", atomics),
        ("critical_warp", cost.max_warp_cycles),
    ];
    let (bound, cycles) = terms
        .iter()
        .fold(terms[0], |best, &t| if t.1 > best.1 { t } else { best });
    Price {
        cycles,
        compute,
        memory,
        atomics,
        critical_warp: cost.max_warp_cycles,
        bound,
        ms: cycles / (config.clock_ghz * 1e6) + config.launch_overhead_us / 1e3,
    }
}

/// One modeled state change of a device. Fields no counter reads
/// (partition ids, message counts, a level's shape) are there for its
/// observer event.
pub enum Charge<'a> {
    /// A kernel launch and its price ([`Charge::launch`]).
    Launch(&'a IterationCost, Price),
    /// A `"push"`, `"pull"` or `"compact"` level: a span from `start_ms`
    /// over its residency charges and its `launch`. It counts nothing
    /// itself: every app emits levels, but only BFS counts them, as
    /// [`Charge::PushStep`] and [`Charge::PullStep`]. `edges` is evaluated
    /// only when observed, because a push level decodes every frontier
    /// degree for it.
    Level {
        start_ms: f64,
        direction: &'static str,
        work_items: u64,
        split_nodes: u64,
        launch: &'a IterationCost,
        edges: &'a dyn Fn() -> u64,
    },
    /// Bytes allocated.
    Alloc(usize),
    /// Bytes freed (clamped at zero).
    Free(usize),
    /// One coalesced out-of-core upload faulting in `partitions` adjacent
    /// partitions from `first_partition`: `bytes` over the host link for
    /// `transfer_ms` of stall (post-overlap), full price when `cold`.
    /// `partition_bytes` gives a partition's own bytes, read only when
    /// observed (one fault marker per partition).
    Upload {
        first_partition: u64,
        partitions: u64,
        bytes: u64,
        transfer_ms: f64,
        cold: bool,
        partition_bytes: &'a dyn Fn(u64) -> u64,
    },
    /// One out-of-core read-through: a launch fetched `lines` distinct
    /// 128-byte lines (`bytes`) of its missing `partitions` — each given as
    /// `(partition id, bytes of the lines apportioned to it)`, summing to
    /// `bytes` — as zero-copy reads, for `transfer_ms` of host-link time,
    /// leaving them non-resident.
    ReadThrough {
        partitions: &'a [(u64, u64)],
        lines: u64,
        bytes: u64,
        transfer_ms: f64,
    },
    /// One partition evicted to make room.
    Eviction { partition: u64, bytes: u64 },
    /// One BFS push level and the candidate pairs it expanded.
    PushStep(u64),
    /// One BFS pull level and the neighbours it examined before early exit.
    PullStep(u64),
    /// One bulk-synchronous step barrier of a sharded run.
    SyncStep,
    /// One boundary-frontier exchange: `bytes` in `messages` over `rounds`
    /// of the schedule, priced at `exchange_ms` of interconnect time,
    /// discovering `boundary_nodes` remotely-owned nodes.
    Exchange {
        bytes: u64,
        messages: u64,
        rounds: u64,
        boundary_nodes: u64,
        exchange_ms: f64,
    },
    /// The `attempt`-th consecutive injected fault of `domain`, recovered
    /// by a retry: `backoff_ms` plus the `wasted_ms` of the failed attempt
    /// are re-charged to `exchange_ms` (exchange domain) or `transfer_ms`
    /// (every other domain).
    FaultRetry {
        domain: FaultDomain,
        attempt: u32,
        backoff_ms: f64,
        wasted_ms: f64,
    },
    /// An injected fault that spent the retry budget; the caller escalates.
    FaultExhausted { domain: FaultDomain, attempt: u32 },
    /// A terminal injected fault with nothing below it to recover (a failed
    /// query).
    FaultInjected(FaultDomain),
}

impl<'a> Charge<'a> {
    /// The launch of `cost`, priced under `config`.
    pub fn launch(cost: &'a IterationCost, config: &DeviceConfig) -> Self {
        Charge::Launch(cost, price(cost, config))
    }
}

/// Aggregated result of a simulated run: the fold of its [`Charge`]s.
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
    /// Out-of-core partitions a launch needed but found non-resident (0 for
    /// in-core runs), whether an upload made them resident or a
    /// read-through served their lines.
    pub partition_faults: u64,
    /// Coalesced host-link uploads those faults crossed in — one per run of
    /// adjacent missing partitions, each paying the link's setup latency
    /// once per chunk of the *run*.
    pub partition_uploads: u64,
    /// Out-of-core partitions evicted to make room (0 for in-core runs).
    pub partition_evictions: u64,
    /// Compressed bytes streamed over the host link: by those uploads, plus
    /// the 128-byte lines of every read-through.
    pub bytes_streamed: u64,
    /// Milliseconds of host-link transfer streamed during the run (partition
    /// uploads post-overlap, plus read-throughs; 0 for in-core runs). The
    /// up-front whole-graph upload of an in-core session is *not* included
    /// — that is `upload_ms` at the session layer.
    pub transfer_ms: f64,
    /// Launches that read their missing partitions' lines through instead
    /// of uploading the partitions (0 for in-core runs).
    pub read_throughs: u64,
    /// Distinct 128-byte lines those read-throughs fetched.
    pub read_through_lines: u64,
    /// Push-mode (frontier out-edge) expansion levels executed. Maintained
    /// by BFS only; 0 for the other apps (BC's forward levels follow the
    /// direction policy too, but show only as level events).
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

    /// Folds one charge into the counters — the only place any of them
    /// changes. `est_ms` is not a counter: the device derives it from
    /// `cycles` and `launches` at snapshot time.
    pub fn apply(&mut self, charge: &Charge) {
        match *charge {
            Charge::Launch(cost, price) => {
                self.cycles += price.cycles;
                self.launches += 1;
                self.tally.merge(&cost.tally);
                self.mem.merge(&cost.mem);
            }
            Charge::Level { .. } => {}
            Charge::Alloc(bytes) => {
                self.allocated_bytes = self.allocated_bytes.saturating_add(bytes)
            }
            Charge::Free(bytes) => {
                self.allocated_bytes = self.allocated_bytes.saturating_sub(bytes)
            }
            Charge::Upload {
                partitions,
                bytes,
                transfer_ms,
                ..
            } => {
                self.partition_faults += partitions;
                self.partition_uploads += 1;
                self.bytes_streamed += bytes;
                self.transfer_ms += transfer_ms;
            }
            Charge::ReadThrough {
                partitions,
                lines,
                bytes,
                transfer_ms,
            } => {
                self.partition_faults += partitions.len() as u64;
                self.bytes_streamed += bytes;
                self.transfer_ms += transfer_ms;
                self.read_throughs += 1;
                self.read_through_lines += lines;
            }
            Charge::Eviction { .. } => self.partition_evictions += 1,
            Charge::PushStep(edges) => {
                self.push_steps += 1;
                self.pushed_edges += edges;
            }
            Charge::PullStep(edges) => {
                self.pull_steps += 1;
                self.pulled_edges += edges;
            }
            Charge::SyncStep => self.sync_steps += 1,
            Charge::Exchange {
                boundary_nodes,
                exchange_ms,
                ..
            } => {
                self.exchange_ms += exchange_ms;
                self.boundary_nodes += boundary_nodes;
            }
            Charge::FaultRetry {
                domain,
                backoff_ms,
                wasted_ms,
                ..
            } => {
                self.faults_injected += 1;
                self.retries += 1;
                self.backoff_ms += backoff_ms;
                let charged = backoff_ms + wasted_ms;
                if domain == FaultDomain::Exchange {
                    self.exchange_ms += charged;
                } else {
                    self.transfer_ms += charged;
                }
            }
            Charge::FaultExhausted { .. } | Charge::FaultInjected(_) => self.faults_injected += 1,
        }
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
            read_throughs: self.read_throughs.saturating_sub(earlier.read_throughs),
            read_through_lines: self
                .read_through_lines
                .saturating_sub(earlier.read_through_lines),
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
    /// throughput term of [`price`] covers when summed over the run on its
    /// own: memory and atomics are exact sums of the per-launch terms,
    /// issue assumes every SM busy and so is a lower bound. Cycles none of
    /// them covers come from launches floored by their busiest warp; which
    /// term bound each launch is the `bound` of its trace event and
    /// `gcgt_launch_cycles_total{bound=…}`.
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
            // The whole run priced as one launch that fills every SM.
            let run = IterationCost {
                tally: self.tally,
                mem: self.mem,
                warps: config.num_sms,
                max_warp_cycles: 0.0,
            };
            let terms = price(&run, config);
            out.push_str(&format!(
                "{:<12} {:>12.1} cycles; alone, memory covers {:.1}%, atomics {:.1}%, issue >= {:.1}%\n",
                "roofline",
                self.cycles,
                share(terms.memory),
                share(terms.atomics),
                share(terms.compute)
            ));
        }
        if self.push_steps + self.pull_steps > 0 {
            out.push_str(&format!(
                "{:<12} {:>12} push ({} edges), {} pull ({} edges)\n",
                "levels", self.push_steps, self.pushed_edges, self.pull_steps, self.pulled_edges
            ));
        }
        if self.partition_faults + self.partition_evictions > 0 {
            let read_bytes = self.read_through_lines * crate::mem::LINE_BYTES;
            let read = if self.read_throughs > 0 {
                format!(
                    " and {} read-throughs ({} lines)",
                    self.read_throughs, self.read_through_lines
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<12} {:>12} faults in {} uploads ({:.1} KB mean){read}, {} evictions\n",
                "ooc",
                self.partition_faults,
                self.partition_uploads,
                self.bytes_streamed.saturating_sub(read_bytes) as f64
                    / 1e3
                    / self.partition_uploads.max(1) as f64,
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
    use crate::tally::NUM_CLASSES;
    use proptest::prelude::{prop_assert, proptest, ProptestConfig, Strategy};

    fn fold(charges: &[Charge]) -> RunStats {
        let mut stats = RunStats::zeroed();
        for charge in charges {
            stats.apply(charge);
        }
        stats
    }

    #[test]
    fn stream_counters_accumulate_and_subtract() {
        let upload = |partitions, bytes, transfer_ms| Charge::Upload {
            first_partition: 0,
            partitions,
            bytes,
            transfer_ms,
            cold: false,
            partition_bytes: &|_| 1,
        };
        let charges = [
            upload(3, 4096, 1.5),
            upload(1, 1024, 0.5),
            Charge::Eviction {
                partition: 0,
                bytes: 1,
            },
        ];
        let s = fold(&charges);
        assert_eq!(s.partition_faults, 4);
        assert_eq!(s.partition_uploads, 2);
        assert_eq!(s.bytes_streamed, 5120);
        assert_eq!(s.partition_evictions, 1);
        assert_eq!(s.transfer_ms, 2.0);
        // Transfer is reported beside the kernel estimate, never in it.
        assert_eq!(s.cycles, 0.0);
        let d = s.since(&fold(&charges[..1]));
        assert_eq!((d.partition_faults, d.partition_uploads), (1, 1));
    }

    #[test]
    fn read_throughs_fault_and_stream_without_uploading() {
        let charges = [
            Charge::ReadThrough {
                partitions: &[(2, 256), (5, 128)],
                lines: 3,
                bytes: 384,
                transfer_ms: 0.25,
            },
            Charge::ReadThrough {
                partitions: &[(7, 128)],
                lines: 1,
                bytes: 128,
                transfer_ms: 0.125,
            },
        ];
        let s = fold(&charges);
        assert_eq!((s.partition_faults, s.partition_uploads), (3, 0));
        assert_eq!((s.read_throughs, s.read_through_lines), (2, 4));
        assert_eq!(s.bytes_streamed, 512);
        assert_eq!(s.transfer_ms, 0.375);
        let d = s.since(&fold(&charges[..1]));
        assert_eq!((d.read_throughs, d.read_through_lines), (1, 1));
        assert_eq!((d.partition_faults, d.bytes_streamed), (1, 128));
    }

    #[test]
    fn direction_counters_accumulate_and_subtract() {
        let charges = [
            Charge::PushStep(100),
            Charge::PushStep(40),
            Charge::PullStep(7),
        ];
        let s = fold(&charges);
        assert_eq!((s.push_steps, s.pushed_edges), (2, 140));
        assert_eq!((s.pull_steps, s.pulled_edges), (1, 7));
        let d = s.since(&fold(&charges[..1]));
        assert_eq!((d.push_steps, d.pushed_edges), (1, 40));
        // Levels themselves count nothing: the BFS steps above do.
        let level = Charge::Level {
            start_ms: 0.0,
            direction: "push",
            work_items: 5,
            split_nodes: 0,
            launch: &IterationCost::default(),
            edges: &|| 9,
        };
        assert_eq!(fold(&[level]), RunStats::zeroed());
    }

    #[test]
    fn exchange_counters_accumulate_and_subtract() {
        let exchange = |exchange_ms, boundary_nodes| Charge::Exchange {
            bytes: 64,
            messages: 2,
            rounds: 1,
            boundary_nodes,
            exchange_ms,
        };
        let charges = [
            Charge::SyncStep,
            exchange(0.75, 100),
            Charge::SyncStep,
            exchange(0.25, 40),
        ];
        let s = fold(&charges);
        assert_eq!(s.sync_steps, 2);
        assert_eq!(s.boundary_nodes, 140);
        assert_eq!(s.exchange_ms, 1.0);
        assert_eq!(s.cycles, 0.0);
        let d = s.since(&fold(&charges[..2]));
        assert_eq!((d.sync_steps, d.boundary_nodes), (1, 40));
        assert_eq!(d.exchange_ms, 0.25);
    }

    #[test]
    fn retries_charge_the_clock_of_their_domain() {
        let retry = |domain| Charge::FaultRetry {
            domain,
            attempt: 1,
            backoff_ms: 0.5,
            wasted_ms: 0.25,
        };
        let s = fold(&[
            retry(FaultDomain::Transfer),
            retry(FaultDomain::DeviceAlloc),
            retry(FaultDomain::Exchange),
            Charge::FaultExhausted {
                domain: FaultDomain::Transfer,
                attempt: 5,
            },
            Charge::FaultInjected(FaultDomain::Query),
        ]);
        assert_eq!((s.faults_injected, s.retries), (5, 3));
        assert_eq!(s.backoff_ms, 1.5);
        assert_eq!(s.transfer_ms, 1.5);
        assert_eq!(s.exchange_ms, 0.75);
    }

    /// An arbitrary launch: per-class issues, memory counters, warps and a
    /// busiest-warp floor.
    fn arb_cost() -> impl Strategy<Value = IterationCost> {
        (
            proptest::collection::vec(0u64..5_000, NUM_CLASSES..NUM_CLASSES + 1),
            0u64..200_000,
            1usize..400,
            0u64..50_000,
        )
            .prop_map(|(issues, transactions, warps, critical)| {
                let mut tally = Tally::new(32);
                tally.issues.copy_from_slice(&issues);
                IterationCost {
                    tally,
                    mem: MemStats {
                        transactions,
                        ..MemStats::default()
                    },
                    warps,
                    max_warp_cycles: critical as f64 / 4.0,
                }
            })
    }

    /// An arbitrary device: every constant `price` reads, drawn from a
    /// positive range around the defaults.
    fn arb_config() -> impl Strategy<Value = DeviceConfig> {
        (
            proptest::collection::vec(1u32..2_000, NUM_CLASSES..NUM_CLASSES + 1),
            (1u32..400, 1u32..1_000, 1u32..1_000),
            (0u32..2_000, 1usize..160),
        )
            .prop_map(|(class_cycles, (clock, mem, atomics), (overhead, sms))| {
                let mut config = DeviceConfig::titan_v_scaled(1 << 30);
                for (slot, c) in config.class_cycles.iter_mut().zip(class_cycles) {
                    *slot = f64::from(c) / 100.0;
                }
                config.clock_ghz = f64::from(clock) / 100.0;
                config.mem_txn_per_cycle = f64::from(mem) / 100.0;
                config.atomics_per_cycle = f64::from(atomics) / 100.0;
                config.launch_overhead_us = f64::from(overhead) / 1_000.0;
                config.num_sms = sms;
                config
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Making any one cost constant more expensive — a class's issue
        /// cycles or the launch overhead up; memory, atomic or clock
        /// throughput down — never makes a launch cheaper.
        #[test]
        fn a_dearer_constant_never_prices_a_launch_cheaper(
            cost in arb_cost(),
            config in arb_config(),
            class in 0usize..NUM_CLASSES,
            factor in 101u32..1_000,
        ) {
            let dearer = f64::from(factor) / 100.0;
            let base = price(&cost, &config).ms;
            let mut variants = Vec::new();
            let mut c = config;
            c.class_cycles[class] *= dearer;
            variants.push(("class_cycles", c));
            let mut c = config;
            c.launch_overhead_us = c.launch_overhead_us * dearer + 0.001;
            variants.push(("launch_overhead_us", c));
            let mut c = config;
            c.mem_txn_per_cycle /= dearer;
            variants.push(("mem_txn_per_cycle", c));
            let mut c = config;
            c.atomics_per_cycle /= dearer;
            variants.push(("atomics_per_cycle", c));
            let mut c = config;
            c.clock_ghz /= dearer;
            variants.push(("clock_ghz", c));
            for (knob, c) in variants {
                let priced = price(&cost, &c).ms;
                prop_assert!(priced >= base, "{knob} ×{dearer}: {priced} ms < {base} ms");
            }
        }
    }
}
