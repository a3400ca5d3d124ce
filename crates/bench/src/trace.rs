//! The deterministic smoke-trace workload behind `repro -- trace`.
//!
//! One small fixed graph is traversed by every engine shape the workspace
//! has — in-core GCGT, out-of-core streaming under a tight memory budget,
//! a 4-way sharded placement, and a serving pool draining a query batch —
//! all feeding a single [`TraceRecorder`] + [`MetricsRegistry`] pair
//! through a [`FanoutObserver`]. Because every timestamp derives from the
//! simulator's modeled clock (never the host's), the exported Chrome
//! trace, the metrics snapshot and the per-engine `explain()` tables are
//! bitwise identical on every run — CI diffs the trace against a
//! committed fixture (`tests/golden/trace_smoke.json`).
//!
//! The workload is intentionally independent of the bench `--scale` knob:
//! a golden fixture is only useful if its inputs never drift.

use std::sync::Arc;

use gcgt_core::{Bfs, Strategy};
use gcgt_graph::gen::{web_graph, WebParams};
use gcgt_graph::order::LlpConfig;
use gcgt_graph::Reordering;
use gcgt_serve::ServePool;
use gcgt_session::{EngineKind, Session};
use gcgt_simt::obs::{FanoutObserver, MetricsRegistry, ObserverHandle, TraceRecorder};
use gcgt_simt::DeviceConfig;

/// Node count of the fixed workload graph (small enough that the whole
/// smoke run is milliseconds of host time).
const NODES: usize = 600;
/// Graph-generator seed — part of the golden fixture's identity.
const SEED: u64 = 7;
/// Modeled device capacity for every session in the workload.
const CAPACITY: usize = 8 << 20;
/// Shard count of the multi-device phase.
const SHARDS: usize = 4;

/// Track ids for the single-engine phases. Serving-pool execution events
/// use the query submission index (0..) as track, so the dedicated engine
/// phases sit on rows far above the batch.
const TRACK_INCORE: u64 = 100;
const TRACK_OOC: u64 = 101;
const TRACK_SHARD: u64 = 102;

/// Everything one smoke-trace run produced, ready to print or diff.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// The full canonical Chrome trace-event JSON (Perfetto-loadable),
    /// including the serve spans of the pool phase.
    pub trace_json: String,
    /// The trace restricted to execution categories (everything except
    /// `"serve"`). Serve spans depend on the worker count by design —
    /// queue waits shrink as workers are added — while execution events
    /// must not; this view is byte-identical at every worker count.
    pub execution_json: String,
    /// Prometheus-style text snapshot of every counter and gauge the run
    /// incremented.
    pub metrics: String,
    /// Per-phase human-readable tables: the engine runs' latency
    /// decompositions (`Run::explain`) and the pool's queue/service
    /// summary, as `(label, table)` pairs in execution order.
    pub explains: Vec<(String, String)>,
}

/// Runs the fixed workload with a serving pool of `workers` workers and
/// returns every artifact. `workers = 2` is the configuration the golden
/// fixture and `repro -- trace` use.
///
/// # Panics
/// Panics if any session fails to build — the workload's graph and budgets
/// are fixed, so that would mean the engines themselves regressed.
pub fn smoke(workers: usize) -> TraceReport {
    let recorder = Arc::new(TraceRecorder::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let handle = ObserverHandle::new(FanoutObserver::new(vec![
        ObserverHandle::from_arc(recorder.clone()),
        ObserverHandle::from_arc(metrics.clone()),
    ]));

    let graph = web_graph(&WebParams::uk2002_like(NODES), SEED);
    let device = DeviceConfig::titan_v_scaled(CAPACITY);
    let mut explains = Vec::new();

    // --- phase 1: in-core GCGT ---
    let incore = Session::builder()
        .graph(graph.clone())
        .reorder(Reordering::Llp(LlpConfig::default()))
        .device(device)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .observer(handle.clone())
        .build()
        .expect("smoke graph fits the smoke device");
    let mut executor = incore.executor();
    executor.set_trace_track(TRACK_INCORE);
    let run = executor.run(Bfs::from(0));
    explains.push(("GCGT in-core BFS".to_string(), run.explain()));

    // --- phase 2: out-of-core under a budget the graph does NOT fit ---
    let budget = crate::experiments::streaming_budget(&incore);
    let ooc = Session::builder()
        .graph(graph.clone())
        .reorder(Reordering::Llp(LlpConfig::default()))
        .device(device)
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .observer(handle.clone())
        .build()
        .expect("out-of-core builds past the capacity wall");
    assert!(ooc.is_streaming(), "smoke budget must force streaming");
    let mut executor = ooc.executor();
    executor.set_trace_track(TRACK_OOC);
    let run = executor.run(Bfs::from(0));
    explains.push((
        format!("GCGT out-of-core BFS ({} KiB budget)", budget >> 10),
        run.explain(),
    ));

    // --- phase 3: the same graph on a sharded placement ---
    let sharded = Session::builder()
        .graph(graph)
        .reorder(Reordering::Llp(LlpConfig::default()))
        .device(device)
        .shards(SHARDS)
        .observer(handle.clone())
        .build()
        .expect("each smoke shard fits its device");
    let mut executor = sharded.executor();
    executor.set_trace_track(TRACK_SHARD);
    let run = executor.run(Bfs::from(0));
    explains.push((format!("GCGT {SHARDS}-shard BFS"), run.explain()));

    // --- phase 4: a serving pool draining a small batch ---
    let queries: Vec<Bfs> = [0u32, 3, 5, 11].iter().map(|&s| Bfs::from(s)).collect();
    let pool = ServePool::new(incore.prepared(), workers).expect("workers >= 1");
    let report = pool.serve(&queries);
    explains.push((
        format!("serve pool ({workers} workers, {} queries)", queries.len()),
        serve_summary(&report.stats),
    ));

    TraceReport {
        trace_json: recorder.chrome_trace_json(),
        execution_json: recorder.chrome_trace_json_filtered(|cat| cat != "serve"),
        metrics: metrics.snapshot(),
        explains,
    }
}

/// The pool phase's queue-wait vs service decomposition as a small table.
fn serve_summary(stats: &gcgt_serve::ServeStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>10}\n",
        "", "p50 ms", "p95 ms", "p99 ms"
    ));
    out.push_str(&format!(
        "{:<12} {:>10.6} {:>10.6} {:>10.6}\n",
        "queue wait", stats.queue_p50_ms, stats.queue_p95_ms, stats.queue_p99_ms
    ));
    out.push_str(&format!(
        "{:<12} {:>10.6} {:>10.6} {:>10.6}\n",
        "service", stats.service_p50_ms, stats.service_p95_ms, stats.service_p99_ms
    ));
    out.push_str(&format!(
        "{:<12} {:>10.6} {:>10.6} {:>10.6}\n",
        "latency", stats.p50_ms, stats.p95_ms, stats.p99_ms
    ));
    out.push_str(&format!(
        "makespan {:.6} ms over {} workers, utilization {:.1}%\n",
        stats.makespan_ms,
        stats.workers,
        stats.utilization() * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_reproducible_and_covers_every_category() {
        let a = smoke(2);
        let b = smoke(2);
        assert_eq!(a.trace_json, b.trace_json);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.explains, b.explains);
        for cat in ["device", "level", "alloc", "ooc", "shard", "serve"] {
            assert!(
                a.trace_json.contains(&format!("\"cat\": \"{cat}\"")),
                "smoke trace must exercise the {cat} category"
            );
        }
    }

    #[test]
    fn execution_trace_is_worker_count_invariant() {
        let two = smoke(2);
        let three = smoke(3);
        assert_eq!(two.execution_json, three.execution_json);
        // The full traces differ only in their serve spans.
        assert_ne!(two.trace_json, three.trace_json);
    }
}
