//! Concurrent serving: throughput vs worker count over **one** shared
//! prepared graph — the workload the paper's batching layer grows into
//! (Gunrock-style multi-query serving over EMOGI-style shared residency).
//!
//! One mixed BFS + PageRank query set is served by pools of 1/2/4/8 workers
//! for every GPU engine of Figures 8 and 15, plus the out-of-core engine
//! under a streaming budget. Because per-query simulated work is
//! scheduling-independent (the `serve_oracle` differential suite pins
//! this), the table shows the clean trade: `Work` is conserved down each
//! engine's column while `Makespan` shrinks and `Throughput` climbs with
//! the worker count — and the p50/p95/p99 latency percentiles stay
//! attributable to queue wait plus each query's own cost.

use std::sync::Arc;

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_core::Strategy;
use gcgt_serve::ServePool;
use gcgt_session::{EngineKind, Pagerank, PreparedGraph, Query, Session};

/// Worker counts swept per engine.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One pool measurement.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Engine display name.
    pub engine: &'static str,
    /// Pool worker count.
    pub workers: usize,
    /// Queries served.
    pub queries: usize,
    /// Simulated throughput, queries per second.
    pub throughput_qps: f64,
    /// Simulated pool wall-clock, milliseconds.
    pub makespan_ms: f64,
    /// Median simulated query latency (wait + service).
    pub p50_ms: f64,
    /// 95th-percentile simulated query latency.
    pub p95_ms: f64,
    /// 99th-percentile simulated query latency.
    pub p99_ms: f64,
    /// Total simulated execution work — conserved across worker counts.
    pub work_ms: f64,
    /// Speedup of the pool over serial execution of the same set.
    pub speedup: f64,
}

/// The mixed workload: mostly multi-source BFS with a PageRank heavy-hitter
/// per eight queries — deterministic for a given context.
fn workload(ctx: &ExperimentContext) -> Vec<Query> {
    let ds = &ctx.datasets[0];
    let count = (8 * ctx.sources).clamp(8, 64);
    let mut queries: Vec<Query> = super::bfs_sources(&ds.graph, count)
        .into_iter()
        .map(Query::Bfs)
        .collect();
    for slot in (0..queries.len()).step_by(8) {
        queries[slot] = Query::Pagerank(Pagerank::default());
    }
    queries
}

/// The engines swept: the GPU comparison of Figure 8, plus out-of-core
/// GCGT under a budget that forces streaming.
fn prepared_graphs(ctx: &ExperimentContext) -> Vec<(&'static str, Arc<PreparedGraph>)> {
    let ds = &ctx.datasets[0];
    let shared = Arc::new(ds.graph.clone());
    let mut out = Vec::new();
    for kind in EngineKind::GPU_COMPARISON {
        match Session::builder()
            .graph_shared(shared.clone())
            .device(ctx.device)
            .engine(kind)
            .prepare()
        {
            Ok(prepared) => out.push((kind.name(), Arc::new(prepared))),
            Err(_) => continue, // OOM engines simply have no serving row
        }
    }
    // Out-of-core: scratch plus half the structure, so the pool's workers
    // each stream partitions through their own cache.
    if let Some((_, incore)) = out.iter().find(|(name, _)| *name == "GCGT") {
        let budget = super::streaming_budget(incore);
        if let Ok(prepared) = Session::builder()
            .graph_shared(shared)
            .device(ctx.device)
            .memory_budget(budget)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .prepare()
        {
            out.push((
                EngineKind::OutOfCore {
                    inner: Strategy::Full,
                }
                .name(),
                Arc::new(prepared),
            ));
        }
    }
    out
}

/// Runs the sweep.
pub fn rows(ctx: &ExperimentContext) -> Vec<ServeRow> {
    let queries = workload(ctx);
    let mut out = Vec::new();
    for (engine, prepared) in prepared_graphs(ctx) {
        for workers in WORKER_SWEEP {
            let pool = ServePool::new(Arc::clone(&prepared), workers)
                .expect("worker counts in the sweep are positive");
            let report = pool.serve(&queries);
            let s = &report.stats;
            out.push(ServeRow {
                engine,
                workers,
                queries: queries.len(),
                throughput_qps: s.throughput_qps(),
                makespan_ms: s.makespan_ms,
                p50_ms: s.p50_ms,
                p95_ms: s.p95_ms,
                p99_ms: s.p99_ms,
                work_ms: s.work_ms + s.transfer_ms,
                speedup: s.speedup(),
            });
        }
    }
    out
}

/// Renders the sweep as a table.
pub fn render(rows: &[ServeRow]) -> Table {
    let mut t = Table::new(
        "Serve — mixed BFS/PageRank throughput vs worker count (one shared PreparedGraph)",
        // Time columns spell out "ms": `Table::modeled_ms_sum` keys the
        // BENCH.json regression baseline off that suffix.
        &[
            "Engine",
            "Workers",
            "Queries",
            "Thr (q/s)",
            "Makespan ms",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "Work ms",
            "Speedup",
        ],
    );
    for r in rows {
        t.row(vec![
            r.engine.to_string(),
            r.workers.to_string(),
            r.queries.to_string(),
            format!("{:.1}", r.throughput_qps),
            fmt_ms(r.makespan_ms),
            fmt_ms(r.p50_ms),
            fmt_ms(r.p95_ms),
            fmt_ms(r.p99_ms),
            fmt_ms(r.work_ms),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t
}

/// Convenience: run + render.
pub fn run(ctx: &ExperimentContext) -> Table {
    render(&rows(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    #[test]
    fn throughput_scales_and_work_is_conserved() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert!(!rows.is_empty());
        let engines: Vec<&str> = {
            let mut e: Vec<&str> = rows.iter().map(|r| r.engine).collect();
            e.dedup();
            e
        };
        assert!(
            engines.contains(&"GCGT") && engines.contains(&"GCGT-OOC"),
            "sweep must include in-core and streaming GCGT, got {engines:?}"
        );
        for engine in engines {
            let per_engine: Vec<&ServeRow> = rows.iter().filter(|r| r.engine == engine).collect();
            assert_eq!(per_engine.len(), WORKER_SWEEP.len());
            let one = per_engine[0];
            assert_eq!(one.workers, 1);
            for row in &per_engine {
                // Scheduling never changes the simulated work…
                assert_eq!(row.work_ms.to_bits(), one.work_ms.to_bits(), "{engine}");
                // …and a wider pool never finishes later.
                assert!(
                    row.makespan_ms <= one.makespan_ms,
                    "{engine}: {} workers slower than 1",
                    row.workers
                );
                assert!(row.p50_ms <= row.p99_ms);
            }
            // With ≥8 queries, 4 workers beat 1 strictly.
            let four = per_engine.iter().find(|r| r.workers == 4).unwrap();
            assert!(four.makespan_ms < one.makespan_ms, "{engine}");
            assert!(four.throughput_qps > one.throughput_qps, "{engine}");
        }
    }
}
