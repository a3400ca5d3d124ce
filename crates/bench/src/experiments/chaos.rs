//! Fault injection under load: the serving stack's recovery cost as the
//! injected fault rate climbs — the robustness companion to the `serve`
//! sweep.
//!
//! One mixed BFS + PageRank query set is served by a 4-worker pool over
//! (a) the out-of-core engine under a streaming budget (PCIe transfer and
//! device-alloc faults hit the partition cache) and (b) a 4-shard in-core
//! session (interconnect faults hit the boundary exchanges), each swept
//! across `FaultPlan::uniform` rates. Every fault is recovered by
//! evict-and-retry with modeled exponential backoff, so the table shows
//! the clean robustness trade: answers and `Exec ms` are bitwise identical
//! down each column while `Faults`/`Retries` climb with the rate and the
//! recovery surcharge lands visibly in `Backoff ms` and the re-charged
//! `Stream ms`. The 0‰ row *is* the fault-free baseline — bit-equal to a
//! build with no plan installed at all.

use std::sync::Arc;

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_core::Strategy;
use gcgt_serve::ServePool;
use gcgt_session::{EngineKind, FaultPlan, Pagerank, PreparedGraph, Query, Session};

/// Injected fault rates swept, in events per thousand operations.
pub const RATE_SWEEP: [u16; 4] = [0, 10, 50, 100];

/// Workers serving each measurement.
pub const WORKERS: usize = 4;

/// Seed of every fault plan in the sweep (verdicts are pure functions of
/// seed × domain × operation index, so the whole table is deterministic).
pub const SEED: u64 = 0xC7A05;

/// One measurement of the sweep.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Engine display name.
    pub engine: &'static str,
    /// Injected fault rate, per mille.
    pub per_mille: u16,
    /// Queries served.
    pub queries: usize,
    /// Queries that completed (uniform plans keep query faults off and
    /// can never exhaust the retry budget, so this equals `queries`).
    pub completed: u64,
    /// Queries that failed.
    pub failed: u64,
    /// Faults injected across the batch.
    pub faults: u64,
    /// Retries spent recovering them.
    pub retries: u64,
    /// Modeled exponential-backoff milliseconds charged by those retries.
    pub backoff_ms: f64,
    /// Pure execution milliseconds — bitwise identical down the sweep.
    pub exec_ms: f64,
    /// Streamed transfer milliseconds, including retry re-charges.
    pub transfer_ms: f64,
    /// Shard boundary-exchange milliseconds, including retry re-charges.
    pub exchange_ms: f64,
    /// Pool wall-clock milliseconds.
    pub makespan_ms: f64,
}

/// The mixed workload of the `serve` sweep: mostly multi-source BFS with a
/// PageRank heavy-hitter per eight queries.
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

/// The two fault-exposed shapes: streaming out-of-core (transfer + alloc
/// domains) and 4-shard in-core (exchange domain).
fn prepared_graphs(
    ctx: &ExperimentContext,
    per_mille: u16,
) -> Vec<(&'static str, Arc<PreparedGraph>)> {
    let ds = &ctx.datasets[0];
    let shared = Arc::new(ds.graph.clone());
    let plan = FaultPlan::uniform(SEED, per_mille);
    let incore = Session::builder()
        .graph_shared(shared.clone())
        .device(ctx.device)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .prepare()
        .expect("the reference dataset fits the experiment device");
    let ooc = Session::builder()
        .graph_shared(shared.clone())
        .device(ctx.device)
        .memory_budget(super::streaming_budget(&incore))
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .fault_plan(plan)
        .prepare()
        .expect("half the structure as cache always leaves room to stream");
    let sharded = Session::builder()
        .graph_shared(shared)
        .device(ctx.device)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .shards(4)
        .fault_plan(plan)
        .prepare()
        .expect("the reference dataset fits four shards");
    vec![
        ("GCGT-OOC", Arc::new(ooc)),
        ("GCGT-Shard", Arc::new(sharded)),
    ]
}

/// Runs the sweep.
pub fn rows(ctx: &ExperimentContext) -> Vec<ChaosRow> {
    let queries = workload(ctx);
    let mut out = Vec::new();
    for per_mille in RATE_SWEEP {
        for (engine, prepared) in prepared_graphs(ctx, per_mille) {
            let report = ServePool::new(prepared, WORKERS)
                .expect("worker count is positive")
                .serve(&queries);
            let s = &report.stats;
            out.push(ChaosRow {
                engine,
                per_mille,
                queries: queries.len(),
                completed: s.completed,
                failed: s.failed,
                faults: report.per_query.iter().map(|q| q.faults_injected).sum(),
                retries: report.per_query.iter().map(|q| q.retries).sum(),
                backoff_ms: report.per_query.iter().map(|q| q.backoff_ms).sum(),
                exec_ms: s.work_ms,
                transfer_ms: s.transfer_ms,
                exchange_ms: s.exchange_ms,
                makespan_ms: s.makespan_ms,
            });
        }
    }
    out
}

/// Renders the sweep as a table.
pub fn render(rows: &[ChaosRow]) -> Table {
    let mut t = Table::new(
        "Chaos — recovery cost vs injected fault rate (4-worker pool, evict-and-retry)",
        // Time columns spell out "ms": `Table::modeled_ms_sum` keys the
        // BENCH.json regression baseline off that suffix.
        &[
            "Engine",
            "Rate",
            "Queries",
            "Done",
            "Failed",
            "Faults",
            "Retries",
            "Backoff ms",
            "Exec ms",
            "Stream ms",
            "Exchange ms",
            "Makespan ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.engine.to_string(),
            format!("{}‰", r.per_mille),
            r.queries.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            r.faults.to_string(),
            r.retries.to_string(),
            fmt_ms(r.backoff_ms),
            fmt_ms(r.exec_ms),
            fmt_ms(r.transfer_ms),
            fmt_ms(r.exchange_ms),
            fmt_ms(r.makespan_ms),
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
    fn recovery_is_visible_and_answers_never_degrade() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), RATE_SWEEP.len() * 2);

        for engine in ["GCGT-OOC", "GCGT-Shard"] {
            let sweep: Vec<&ChaosRow> = rows.iter().filter(|r| r.engine == engine).collect();
            let baseline = sweep[0];
            assert_eq!(baseline.per_mille, 0);
            assert_eq!(baseline.faults, 0, "{engine}: 0‰ must inject nothing");
            assert_eq!(baseline.backoff_ms.to_bits(), 0.0f64.to_bits());
            for row in &sweep {
                // Uniform plans never kill a query…
                assert_eq!(row.completed, row.queries as u64, "{engine}");
                assert_eq!(row.failed, 0, "{engine}");
                // …and never change the simulated execution work: injected
                // faults surface only in the recovery columns.
                assert_eq!(
                    row.exec_ms.to_bits(),
                    baseline.exec_ms.to_bits(),
                    "{engine} at {}‰",
                    row.per_mille
                );
                assert!(row.retries >= row.faults, "{engine}");
                // Backoff is charged exactly when faults were injected.
                assert_eq!(row.faults > 0, row.backoff_ms > 0.0, "{engine}");
            }
            // The top of the sweep really injects.
            let top = sweep.last().expect("sweep is non-empty");
            assert!(top.faults > 0, "{engine}: 100‰ never fired");
            let streamed = baseline.transfer_ms + baseline.exchange_ms;
            let recovered = top.transfer_ms + top.exchange_ms;
            assert!(
                recovered > streamed,
                "{engine}: retries must re-charge the link"
            );
        }
    }
}
