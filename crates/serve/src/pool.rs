//! The worker pool: `N` executors over one shared `PreparedGraph` that
//! claim the batch's queries from one atomic cursor, with typed per-query
//! failures and policy-driven admission control.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gcgt_core::Algorithm;
use gcgt_session::{Executor, PreparedGraph};
use gcgt_simt::RunStats;

use crate::error::QueryError;
use crate::stats::{ServeStats, WorkerReport};
use crate::ServeError;

/// Admission-control and deadline policy of a [`ServePool`].
///
/// The default policy is a no-op — unlimited admission, no deadline — and a
/// pool under the default policy is **bitwise** identical to one with no
/// policy at all (same outputs, same statistics, same trace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServePolicy {
    /// Queries allowed to wait beyond the ones the workers can execute
    /// immediately: the pool admits at most `workers + max_pending` queries
    /// per batch and sheds the rest with
    /// [`QueryError::Shed`]`(`[`ServeError::Overloaded`]`)`. Admission is
    /// decided in submission order over *valid* queries (a query rejected
    /// at validation never consumes an admission slot). `None` admits
    /// everything.
    pub max_pending: Option<usize>,
    /// Per-query latency deadline in simulated milliseconds, checked
    /// against the deterministic FIFO timeline (queue wait + service). A
    /// query completing strictly later is discarded with
    /// [`QueryError::Shed`]`(`[`ServeError::DeadlineExceeded`]`)` — the
    /// work was already spent, so its cost stays in the timeline and the
    /// aggregate sums; only the output is dropped. `None` means no
    /// deadline.
    pub deadline_ms: Option<f64>,
}

/// A pool of worker devices serving queries over one shared, immutable
/// [`PreparedGraph`].
///
/// Each worker owns an [`Executor`]: its own simulated device (structure
/// made resident at spawn) and, for out-of-core graphs, a cold private
/// partition cache per query over the shared partition map — caches are
/// never shared across queries or workers. Idle workers claim the next
/// admitted query of the batch in submission order, and every query's
/// output and [`RunStats`] are bitwise identical to a serial
/// [`PreparedGraph::run`], whatever the worker count (see
/// [`crate::stats::ServeStats`] for why the aggregates are deterministic
/// too).
///
/// Failures are per-query and typed: an invalid source, a shed admission,
/// an exhausted fault budget or a panicking query resolves to a
/// [`QueryError`] in its own submission slot while the rest of the batch
/// completes normally — one bad query can never cost the batch.
#[derive(Clone, Debug)]
pub struct ServePool {
    prepared: Arc<PreparedGraph>,
    workers: usize,
    policy: ServePolicy,
}

/// Everything one [`ServePool::serve`] call produced.
#[derive(Clone, Debug)]
pub struct ServeReport<T> {
    /// Per-query outcomes, in submission order: `Ok` outputs are bitwise
    /// identical to serial execution, `Err` explains exactly why that
    /// query produced none.
    pub outputs: Vec<Result<T, QueryError>>,
    /// Per-query simulated statistics, in submission order — bitwise
    /// identical to serial execution (scheduling never changes simulated
    /// work). Slots whose query produced no output hold
    /// [`RunStats::zeroed`].
    pub per_query: Vec<RunStats>,
    /// Per-worker residency and utilization after the drain.
    pub workers: Vec<WorkerReport>,
    /// Deterministic aggregate statistics.
    pub stats: ServeStats,
}

impl ServePool {
    /// A pool of `workers` devices over `prepared`.
    pub fn new(prepared: Arc<PreparedGraph>, workers: usize) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::ZeroWorkers);
        }
        Ok(Self {
            prepared,
            workers,
            policy: ServePolicy::default(),
        })
    }

    /// Replaces the pool's [`ServePolicy`] (builder-style).
    pub fn with_policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active admission/deadline policy.
    pub fn policy(&self) -> ServePolicy {
        self.policy
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared structure the workers execute over.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// Serves `queries` to completion: validates and admits in submission
    /// order, lets the workers claim the admitted queries, joins, and
    /// reassembles per-query outcomes in submission order. Blocks until
    /// every admitted query is answered.
    ///
    /// The pipeline per query is **validate → admit → execute → deadline**:
    ///
    /// 1. a query whose source is outside the graph resolves to
    ///    [`QueryError::SourceOutOfRange`] without consuming an admission
    ///    slot or a worker;
    /// 2. once `workers + max_pending` valid queries are admitted, the rest
    ///    shed with [`ServeError::Overloaded`];
    /// 3. execution failures — exhausted fault budgets, injected faults,
    ///    corrupt payloads — come back from [`Executor::try_run`] as values
    ///    and map to their [`QueryError`] variants, and an unexpected panic
    ///    is caught on the worker as [`QueryError::Internal`]; the worker
    ///    keeps claiming queries, so one bad query never costs the batch;
    /// 4. queries completing past the policy deadline on the deterministic
    ///    FIFO timeline are discarded with [`ServeError::DeadlineExceeded`]
    ///    (the spent cost stays in the aggregates).
    ///
    /// An empty batch is a no-op that still reports the per-worker
    /// baselines (and all-zero aggregate statistics — the guards in
    /// [`ServeStats`] keep every derived ratio finite).
    pub fn serve<A: Algorithm>(&self, queries: &[A]) -> ServeReport<A::Output> {
        let prepared: &PreparedGraph = &self.prepared;
        let total = queries.len();

        // Validate, then admit, in submission order. Slots that fail here
        // are typed immediately and never reach a worker.
        let mut outcomes: Vec<Option<Result<A::Output, QueryError>>> =
            (0..total).map(|_| None).collect();
        let mut executable: Vec<usize> = Vec::with_capacity(total);
        let nodes = prepared.num_nodes();
        let admit_limit = self.policy.max_pending.map(|p| self.workers + p);
        for (index, query) in queries.iter().enumerate() {
            if let Some(source) = query.source() {
                if source as usize >= nodes {
                    outcomes[index] = Some(Err(QueryError::SourceOutOfRange { source, nodes }));
                    continue;
                }
            }
            if admit_limit.is_some_and(|limit| executable.len() >= limit) {
                outcomes[index] = Some(Err(QueryError::Shed(ServeError::Overloaded)));
                continue;
            }
            executable.push(index);
        }

        // Every worker claims the next admitted query from one shared
        // cursor until the batch runs out, then hands back its
        // `(index, attempt)` results with its residency snapshot. `Relaxed`
        // suffices: the cursor publishes no data (`executable` is complete
        // before the spawn, results come back through the join), and the
        // read-modify-write alone hands each slot to exactly one worker.
        let next = AtomicUsize::new(0);
        let finished: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|worker| {
                    let (executable, next) = (&executable, &next);
                    scope.spawn(move || {
                        let mut executor = Executor::new(prepared);
                        let mut results = Vec::new();
                        while let Some(&index) =
                            executable.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            // Trace events carry the query's submission index
                            // as track, never the racing worker id — exported
                            // execution traces are identical at any worker
                            // count.
                            executor.set_trace_track(index as u64);
                            // A failed query returns its typed failure; the
                            // executor committed nothing and keeps claiming.
                            // An unexpected panic is caught as the
                            // `Internal` backstop: the query ran on a local
                            // `query_view` that unwinding drops, so the
                            // executor stays valid either way.
                            let query = queries[index].clone();
                            let attempt =
                                catch_unwind(AssertUnwindSafe(|| executor.try_run(query)))
                                    .map_err(QueryError::from_panic)
                                    .and_then(|run| run.map_err(QueryError::from));
                            results.push((index, attempt));
                        }
                        (results, snapshot(worker, &executor))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("serve worker thread died"))
                .collect()
        });

        let mut per_query = vec![RunStats::zeroed(); total];
        let mut workers = Vec::with_capacity(self.workers);
        for (results, report) in finished {
            for (index, attempt) in results {
                outcomes[index] = Some(attempt.map(|run| {
                    per_query[index] = run.stats;
                    run.output
                }));
            }
            workers.push(report);
        }

        let mut outputs: Vec<Result<A::Output, QueryError>> = outcomes
            .into_iter()
            .map(|o| o.expect("every query resolves to exactly one outcome"))
            .collect();

        // Aggregate over the surviving queries only: shed/failed slots are
        // invisible to the FIFO timeline and the cost sums. With every
        // query Ok this is bitwise `ServeStats::compute`.
        let counted: Vec<bool> = outputs.iter().map(Result::is_ok).collect();
        let mut stats =
            ServeStats::compute_masked(&per_query, &counted, self.workers, prepared.upload_ms());
        // Deadline pass: the latency is only known once the timeline is
        // replayed. Late queries lose their output, not their cost.
        if let Some(deadline) = self.policy.deadline_ms {
            for i in 0..total {
                if counted[i] && stats.latency_ms[i] > deadline {
                    outputs[i] = Err(QueryError::Shed(ServeError::DeadlineExceeded));
                    stats.deadline_missed += 1;
                    stats.completed -= 1;
                }
            }
        }
        for outcome in &outputs {
            match outcome {
                Ok(_) | Err(QueryError::Shed(ServeError::DeadlineExceeded)) => {}
                Err(QueryError::Shed(_)) => stats.shed += 1,
                Err(_) => stats.failed += 1,
            }
        }

        // Replay the deterministic FIFO timeline to the observer: one
        // submit → dispatch → complete record per surviving query, on the
        // *timeline* worker (not whichever host thread raced to claim it),
        // so serve spans are as reproducible as everything else. Shed and
        // deadline-missed queries leave a chaos record instead; execution
        // failures already emitted their fault events at the injection
        // site.
        if let Some(obs) = prepared.observer() {
            for (i, outcome) in outputs.iter().enumerate() {
                match outcome {
                    Ok(_) => obs.serve(&gcgt_simt::obs::ServeEvent {
                        query: i as u64,
                        worker: stats.timeline_worker[i] as u64,
                        submit_ms: 0.0,
                        dispatch_ms: stats.queue_wait_ms[i],
                        complete_ms: stats.latency_ms[i],
                    }),
                    Err(QueryError::Shed(ServeError::Overloaded)) => {
                        obs.fault(&gcgt_simt::obs::FaultEvent {
                            track: i as u64,
                            ts_ms: 0.0,
                            domain: "serve",
                            kind: "shed",
                            attempt: 0,
                            backoff_ms: 0.0,
                            charged_ms: 0.0,
                        })
                    }
                    Err(QueryError::Shed(ServeError::DeadlineExceeded)) => {
                        obs.fault(&gcgt_simt::obs::FaultEvent {
                            track: i as u64,
                            ts_ms: stats.latency_ms[i],
                            domain: "serve",
                            kind: "deadline",
                            attempt: 0,
                            backoff_ms: 0.0,
                            charged_ms: 0.0,
                        })
                    }
                    Err(_) => {}
                }
            }
        }
        ServeReport {
            outputs,
            per_query,
            workers,
            stats,
        }
    }
}

fn snapshot(worker: usize, executor: &Executor<'_>) -> WorkerReport {
    WorkerReport {
        worker,
        queries: executor.queries_served(),
        busy_ms: executor.busy_ms(),
        allocated: executor.allocated(),
        baseline: executor.baseline(),
        upload_ms: executor.upload_ms(),
    }
}
