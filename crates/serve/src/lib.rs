//! # gcgt-serve
//!
//! Concurrent query serving over one shared compressed graph — the ROADMAP's
//! "heavy traffic from millions of users" layer. A [`ServePool`] owns `N`
//! worker devices over a single `Arc<PreparedGraph>` (the immutable,
//! `Send + Sync` build product of `gcgt-session`): the structure is built
//! once, every worker makes it resident on its own simulated device, and
//! whichever worker frees up first claims the batch's next query.
//!
//! **Determinism contract.** Concurrency changes *when* a query runs, never
//! *what it computes or costs*: each query executes from its worker's
//! post-upload baseline on a fresh accounting view, so its output and its
//! [`RunStats`](gcgt_simt::RunStats) are bitwise identical to a serial
//! `Session::run` — and the aggregate [`ServeStats`] (throughput, p50/p95/p99
//! latency) are replayed from a deterministic FIFO timeline rather than the
//! host thread race. The differential suite in `tests/serve_oracle.rs` pins
//! this for every engine kind, including out-of-core streaming.
//!
//! **Failure contract.** Failures are per-query and typed: every submission
//! slot resolves to `Ok(output)` or a [`QueryError`] explaining exactly why
//! not (invalid source, shed admission, exhausted fault budget, injected or
//! internal failure), and one bad query never costs the batch. A
//! [`ServePolicy`] adds admission control (`max_pending`) and per-query
//! deadlines checked against the same deterministic timeline — under the
//! default policy and no fault plan, everything is bitwise identical to a
//! pool without either.
//!
//! ## Quickstart
//!
//! ```
//! use gcgt_graph::gen::toys;
//! use gcgt_serve::ServePool;
//! use gcgt_session::{Pagerank, Query, Session};
//!
//! // Build once, share everywhere: `prepared()` hands out the Arc.
//! let prepared = Session::builder()
//!     .graph(toys::grid(8, 8))
//!     .build()
//!     .unwrap()
//!     .prepared();
//!
//! // Four workers over the one structure; a mixed BFS + PageRank workload.
//! let pool = ServePool::new(prepared.clone(), 4).unwrap();
//! let queries: Vec<Query> = (0..6)
//!     .map(Query::Bfs)
//!     .chain([Query::Pagerank(Pagerank::default())])
//!     .collect();
//! let report = pool.serve(&queries);
//!
//! // Every slot resolves to Ok or a typed error; outputs and per-query
//! // statistics are bitwise those of serial runs.
//! let serial = prepared.run(queries[0]);
//! assert_eq!(report.outputs[0], Ok(serial.output));
//! assert_eq!(report.per_query[0], serial.stats);
//!
//! // Aggregates are deterministic and attributable.
//! assert_eq!(report.stats.queries, 7);
//! assert_eq!(report.stats.completed, 7);
//! assert!(report.stats.throughput_qps() > 0.0);
//! assert!(report.stats.p50_ms <= report.stats.p99_ms);
//! // After the drain every worker is back at its post-upload baseline.
//! assert!(report.workers.iter().all(|w| w.allocated == w.baseline));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
mod error;
mod pool;
mod stats;

pub use error::QueryError;
pub use pool::{ServePolicy, ServePool, ServeReport};
pub use stats::{percentile, ServeStats, WorkerReport};

/// Why a pool could not be built, or why it refused a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A pool needs at least one worker.
    ZeroWorkers,
    /// Admission control refused the query: the batch already held
    /// `workers + max_pending` admitted queries
    /// (see [`ServePolicy::max_pending`]).
    Overloaded,
    /// The query completed past [`ServePolicy::deadline_ms`] on the
    /// deterministic FIFO timeline; its output was discarded (the spent
    /// cost stays in the aggregates).
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ZeroWorkers => write!(f, "a serve pool needs at least one worker"),
            ServeError::Overloaded => {
                write!(f, "admission control refused the query (pool overloaded)")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "the query completed past its deadline")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::{toys, web_graph, WebParams};
    use gcgt_session::{Bfs, PreparedGraph, Query, Session};
    use std::sync::Arc;

    fn prepared(nodes: usize) -> Arc<PreparedGraph> {
        Session::builder()
            .graph(web_graph(&WebParams::uk2002_like(nodes), 7))
            .build()
            .unwrap()
            .prepared()
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let p = prepared(200);
        assert_eq!(ServePool::new(p, 0).unwrap_err(), ServeError::ZeroWorkers);
    }

    #[test]
    fn empty_batch_is_a_clean_no_op() {
        let pool = ServePool::new(prepared(200), 3).unwrap();
        let report = pool.serve::<Query>(&[]);
        assert!(report.outputs.is_empty());
        assert!(report.per_query.is_empty());
        assert_eq!(report.workers.len(), 3);
        assert_eq!(report.stats.queries, 0);
        assert_eq!(report.stats.completed, 0);
        assert_eq!(report.stats.mean_query_ms(), 0.0);
        assert_eq!(report.stats.throughput_qps(), 0.0);
        for w in &report.workers {
            assert_eq!(w.allocated, w.baseline);
            assert_eq!(w.queries, 0);
        }
    }

    #[test]
    fn pool_outputs_match_serial_runs_bitwise() {
        let p = prepared(600);
        let pool = ServePool::new(p.clone(), 4).unwrap();
        let queries: Vec<Bfs> = (0..12).map(Bfs::from).collect();
        let report = pool.serve(&queries);
        assert_eq!(report.outputs.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let serial = p.run(*q);
            assert_eq!(report.outputs[i], Ok(serial.output), "query {i}");
            assert_eq!(report.per_query[i], serial.stats, "query {i}");
        }
        assert_eq!(report.stats.completed, queries.len() as u64);
        assert_eq!(
            (
                report.stats.shed,
                report.stats.failed,
                report.stats.deadline_missed
            ),
            (0, 0, 0)
        );
        // Every query was really executed by some worker of the pool.
        let served: u64 = report.workers.iter().map(|w| w.queries).sum();
        assert_eq!(served, queries.len() as u64);
    }

    #[test]
    fn aggregate_stats_are_scheduling_independent() {
        let p = prepared(500);
        let queries: Vec<Bfs> = (0..10).map(Bfs::from).collect();
        let four = ServePool::new(p.clone(), 4).unwrap().serve(&queries);
        let again = ServePool::new(p.clone(), 4).unwrap().serve(&queries);
        // The thread race may assign differently; the stats cannot differ.
        assert_eq!(four.stats, again.stats);

        let one = ServePool::new(p, 1).unwrap().serve(&queries);
        // Work is conserved exactly across worker counts…
        assert_eq!(four.stats.work_ms.to_bits(), one.stats.work_ms.to_bits());
        assert_eq!(four.stats.launches, one.stats.launches);
        // …while the pool finishes strictly sooner than one worker.
        assert!(four.stats.makespan_ms < one.stats.makespan_ms);
        assert!(four.stats.p99_ms <= one.stats.p99_ms);
        assert!(four.stats.speedup() > one.stats.speedup());
    }

    #[test]
    fn single_worker_pool_latencies_are_prefix_sums() {
        let p = prepared(300);
        let pool = ServePool::new(p, 1).unwrap();
        let queries: Vec<Bfs> = (0..5).map(Bfs::from).collect();
        let report = pool.serve(&queries);
        let total: f64 = report
            .per_query
            .iter()
            .map(|s| s.est_ms + s.transfer_ms)
            .sum();
        assert!((report.stats.makespan_ms - total).abs() < 1e-12);
        // p99 on one worker is the completion of the last query.
        assert!((report.stats.p99_ms - total).abs() < 1e-12);
    }

    #[test]
    fn invalid_source_is_a_typed_error_and_the_batch_survives() {
        // The bad source is rejected at validation — it never reaches the
        // single worker — and every other query completes bitwise-normally.
        let p = prepared(200);
        let nodes = p.num_nodes();
        let bad = nodes as u32 + 5;
        let pool = ServePool::new(p.clone(), 1).unwrap();
        let mut queries = vec![Query::Bfs(bad)];
        queries.extend((0..6).map(Query::Bfs));
        let report = pool.serve(&queries);
        assert_eq!(
            report.outputs[0],
            Err(QueryError::SourceOutOfRange { source: bad, nodes })
        );
        assert_eq!(report.per_query[0], gcgt_simt::RunStats::zeroed());
        assert_eq!(report.stats.latency_ms[0], 0.0);
        for (i, q) in queries.iter().enumerate().skip(1) {
            assert_eq!(report.outputs[i], Ok(p.run(*q).output), "query {i}");
        }
        assert_eq!(report.stats.queries, 7);
        assert_eq!(report.stats.completed, 6);
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.shed, 0);
    }

    #[test]
    fn overload_sheds_excess_queries_deterministically() {
        let p = prepared(300);
        let queries: Vec<Bfs> = (0..8).map(Bfs::from).collect();
        let pool = ServePool::new(p.clone(), 2)
            .unwrap()
            .with_policy(ServePolicy {
                max_pending: Some(1),
                deadline_ms: None,
            });
        // Admission limit = workers + max_pending = 3, in submission order.
        let report = pool.serve(&queries);
        for (i, q) in queries.iter().enumerate().take(3) {
            assert_eq!(report.outputs[i], Ok(p.run(*q).output), "query {i}");
        }
        for i in 3..8 {
            assert_eq!(
                report.outputs[i],
                Err(QueryError::Shed(ServeError::Overloaded)),
                "query {i}"
            );
            assert_eq!(report.stats.latency_ms[i], 0.0);
        }
        assert_eq!(report.stats.shed, 5);
        assert_eq!(report.stats.completed, 3);
        // The shed queries cost nothing: aggregates equal a 3-query batch.
        let three = ServePool::new(p, 2).unwrap().serve(&queries[..3]);
        assert_eq!(
            report.stats.makespan_ms.to_bits(),
            three.stats.makespan_ms.to_bits()
        );
        assert_eq!(
            report.stats.work_ms.to_bits(),
            three.stats.work_ms.to_bits()
        );
    }

    #[test]
    fn deadline_discards_late_outputs_but_keeps_their_cost() {
        let p = prepared(300);
        let queries: Vec<Bfs> = (0..6).map(Bfs::from).collect();
        let base = ServePool::new(p.clone(), 1).unwrap().serve(&queries);
        // On one worker latencies are strictly increasing prefix sums: a
        // deadline at query 2's completion keeps 0..=2 and discards 3..=5.
        let deadline = base.stats.latency_ms[2];
        let pool = ServePool::new(p, 1).unwrap().with_policy(ServePolicy {
            max_pending: None,
            deadline_ms: Some(deadline),
        });
        let report = pool.serve(&queries);
        for i in 0..3 {
            assert_eq!(report.outputs[i], base.outputs[i], "query {i}");
        }
        for i in 3..6 {
            assert_eq!(
                report.outputs[i],
                Err(QueryError::Shed(ServeError::DeadlineExceeded)),
                "query {i}"
            );
        }
        assert_eq!(report.stats.deadline_missed, 3);
        assert_eq!(report.stats.completed, 3);
        // The work was spent before the deadline verdict: the timeline and
        // the cost sums are those of the full batch.
        assert_eq!(
            report.stats.makespan_ms.to_bits(),
            base.stats.makespan_ms.to_bits()
        );
        assert_eq!(report.stats.work_ms.to_bits(), base.stats.work_ms.to_bits());
        // Late queries ran, so the per-query mean still counts them.
        assert_eq!(
            report.stats.mean_query_ms().to_bits(),
            base.stats.mean_query_ms().to_bits()
        );
    }

    #[test]
    fn default_policy_is_bitwise_neutral() {
        let p = prepared(400);
        let queries: Vec<Query> = (0..8).map(Query::Bfs).collect();
        let plain = ServePool::new(p.clone(), 3).unwrap().serve(&queries);
        let policied = ServePool::new(p, 3)
            .unwrap()
            .with_policy(ServePolicy::default())
            .serve(&queries);
        assert_eq!(plain.outputs, policied.outputs);
        assert_eq!(plain.per_query, policied.per_query);
        assert_eq!(plain.stats, policied.stats);
    }

    #[test]
    fn workers_return_to_baseline_after_drain() {
        let pool = ServePool::new(prepared(400), 4).unwrap();
        let queries: Vec<Query> = (0..8).map(Query::Bfs).collect();
        let report = pool.serve(&queries);
        for w in &report.workers {
            assert_eq!(w.allocated, w.baseline, "worker {}", w.worker);
        }
    }

    #[test]
    fn pool_is_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServePool>();
        let pool = ServePool::new(
            Session::builder()
                .graph(toys::figure1())
                .build()
                .unwrap()
                .prepared(),
            2,
        )
        .unwrap();
        let clone = pool.clone();
        assert_eq!(clone.workers(), 2);
        assert!(Arc::ptr_eq(pool.prepared(), clone.prepared()));
    }
}
