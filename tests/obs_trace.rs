//! Observability invariants: the exported trace is a golden artifact
//! (byte-identical across runs and serve worker counts), observation never
//! perturbs what it observes, `RunStats::since` deltas compose across
//! batched queries, and the serving pool's queue-wait/service
//! decomposition reassembles latency bitwise.

use gcgt::bench::trace::smoke;
use gcgt::prelude::*;
use gcgt::serve::ServeStats;
use proptest::prelude::{prop_assert, proptest, Strategy as PropStrategy};

/// The smoke trace must match the committed fixture byte for byte. If an
/// intentional cost-model or workload change moves it, regenerate with
/// `cargo run -p gcgt-bench --bin repro -- trace` and commit the new
/// `trace.json` as `tests/golden/trace_smoke.json`.
#[test]
fn smoke_trace_matches_golden_fixture() {
    let report = smoke(2);
    let golden = include_str!("golden/trace_smoke.json");
    assert_eq!(
        report.trace_json, golden,
        "smoke trace drifted from tests/golden/trace_smoke.json"
    );
}

/// Execution events carry the query's submission index as track and
/// timestamps from the modeled clock, so everything except the serve spans
/// is byte-identical whatever the pool's worker count.
#[test]
fn execution_trace_is_identical_across_worker_counts() {
    let two = smoke(2);
    let four = smoke(4);
    assert_eq!(two.execution_json, four.execution_json);
    // The per-engine decompositions and serve percentiles are part of the
    // deterministic contract too (the pool summary differs only because
    // queue waits legitimately shrink with more workers).
    assert_eq!(two.explains[..3], four.explains[..3]);
}

/// Observation must be free when enabled and absent when not: the same
/// session with and without an observer produces bitwise-identical outputs
/// and `RunStats` for every engine shape.
#[test]
fn observer_never_perturbs_results() {
    /// An engine shape: `(kind, shards, memory budget)`.
    type Shape = (EngineKind, Option<usize>, Option<usize>);
    let graph = web_graph(&WebParams::uk2002_like(400), 11);
    let device = DeviceConfig::titan_v_scaled(8 << 20);
    let build = |observed: bool, (kind, shards, budget): Shape| {
        let mut b = Session::builder()
            .graph(graph.clone())
            .reorder(Reordering::Llp(LlpConfig::default()))
            .device(device)
            .engine(kind);
        if let Some(devices) = shards {
            b = b.shards(devices);
        }
        if let Some(bytes) = budget {
            b = b.memory_budget(bytes);
        }
        if observed {
            b = b.observer(ObserverHandle::new(FanoutObserver::new(vec![
                ObserverHandle::new(TraceRecorder::new()),
                ObserverHandle::new(MetricsRegistry::new()),
            ])));
        }
        b.build().expect("session builds")
    };
    let incore = Session::builder()
        .graph(graph.clone())
        .reorder(Reordering::Llp(LlpConfig::default()))
        .device(device)
        .build()
        .unwrap();
    let tight = incore.footprint() * 2 / 3;
    let shapes: Vec<Shape> = vec![
        (EngineKind::Gcgt(Strategy::Full), None, None),
        (
            EngineKind::OutOfCore {
                inner: Strategy::Full,
            },
            None,
            Some(tight),
        ),
        (EngineKind::Gcgt(Strategy::Full), Some(4), None),
    ];
    for shape in shapes {
        let kind = shape.0;
        let plain = build(false, shape);
        let observed = build(true, shape);
        let a = plain.run(Bfs::from(0));
        let b = observed.run(Bfs::from(0));
        assert_eq!(a.output.depth, b.output.depth, "{}", kind.name());
        assert_eq!(a.stats, b.stats, "{}", kind.name());
        assert_eq!(
            a.stats.est_ms.to_bits(),
            b.stats.est_ms.to_bits(),
            "{}",
            kind.name()
        );
        let sources: Vec<Bfs> = (0..4u32).map(Bfs::from).collect();
        let ba = plain.run_batch(&sources);
        let bb = observed.run_batch(&sources);
        assert_eq!(ba.stats, bb.stats, "{}", kind.name());
        assert_eq!(ba.per_query, bb.per_query, "{}", kind.name());
        assert_eq!(
            ba.total_ms().to_bits(),
            bb.total_ms().to_bits(),
            "{}",
            kind.name()
        );
    }
}

/// The streaming counters reach an observer through two event kinds — one
/// `upload` per coalesced transfer (bytes, charged milliseconds) and one
/// `fault` marker per partition in it — and a `MetricsRegistry` fed by them
/// must total exactly what `RunStats` reports, the float included.
#[test]
fn streaming_metrics_equal_run_stats_bitwise() {
    let graph = web_graph(&WebParams::uk2002_like(1_500), 29);
    let incore = Session::builder().graph(graph.clone()).build().unwrap();
    let scratch = incore.footprint() - incore.structure_bytes();
    let metrics = std::sync::Arc::new(MetricsRegistry::new());
    let session = Session::builder()
        .graph(graph)
        .memory_budget(scratch + incore.structure_bytes() / 4)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .observer(ObserverHandle::from_arc(metrics.clone()))
        .build()
        .unwrap();
    assert!(session.is_streaming());
    let stats = session.run(Cc).stats;
    assert!(
        stats.partition_uploads < stats.partition_faults,
        "nothing coalesced"
    );
    assert!(stats.partition_evictions > 0);

    let total = |name: &str| metrics.value(name).unwrap_or(0.0);
    assert_eq!(
        total("gcgt_partition_transfer_ms_total").to_bits(),
        stats.transfer_ms.to_bits()
    );
    assert_eq!(
        total("gcgt_partition_bytes_streamed_total"),
        stats.bytes_streamed as f64
    );
    assert_eq!(
        total("gcgt_partition_faults_total"),
        stats.partition_faults as f64
    );
    assert_eq!(
        total("gcgt_partition_uploads_total"),
        stats.partition_uploads as f64
    );
    assert_eq!(
        total("gcgt_partition_evictions_total"),
        stats.partition_evictions as f64
    );
}

/// `RunStats::since` is how batches attribute work to queries; the deltas
/// must compose — per-query exchange/transfer/step counters sum back to
/// the batch totals, exactly for integers and to rounding for floats.
#[test]
fn since_deltas_compose_across_batched_queries() {
    let graph = web_graph(&WebParams::uk2002_like(500), 13);
    let session = Session::builder()
        .graph(graph)
        .reorder(Reordering::Llp(LlpConfig::default()))
        .shards(4)
        .build()
        .expect("sharded session builds");
    let sources: Vec<Bfs> = (0..6u32).map(|i| Bfs::from(i * 37 % 400)).collect();
    let batch = session.run_batch(&sources);
    assert_eq!(batch.per_query.len(), sources.len());

    let sum_u64 = |f: &dyn Fn(&RunStats) -> u64| batch.per_query.iter().map(f).sum::<u64>();
    assert_eq!(sum_u64(&|s| s.launches), batch.stats.launches);
    assert_eq!(sum_u64(&|s| s.sync_steps), batch.stats.sync_steps);
    assert_eq!(sum_u64(&|s| s.boundary_nodes), batch.stats.boundary_nodes);
    assert_eq!(sum_u64(&|s| s.push_steps), batch.stats.push_steps);
    assert_eq!(sum_u64(&|s| s.pushed_edges), batch.stats.pushed_edges);
    assert!(batch.stats.sync_steps > 0, "shard batch must sync");
    assert!(batch.stats.exchange_ms > 0.0, "shard batch must exchange");

    let sum_f64 = |f: &dyn Fn(&RunStats) -> f64| batch.per_query.iter().map(f).sum::<f64>();
    assert!((sum_f64(&|s| s.est_ms) - batch.stats.est_ms).abs() < 1e-9);
    assert!((sum_f64(&|s| s.exchange_ms) - batch.stats.exchange_ms).abs() < 1e-9);
    assert!((sum_f64(&|s| s.transfer_ms) - batch.stats.transfer_ms).abs() < 1e-9);
}

/// A synthetic per-query `RunStats` carrying only the cost fields the FIFO
/// timeline prices (`est + transfer + exchange`).
fn rs(est: f64, transfer: f64, exchange: f64) -> RunStats {
    RunStats {
        est_ms: est,
        launches: 1,
        transfer_ms: transfer,
        exchange_ms: exchange,
        ..RunStats::zeroed()
    }
}

proptest! {
    /// For every cost vector and worker count: each query's queue wait plus
    /// service time reassembles its latency *bitwise* (the timeline defines
    /// latency as `start + cost`), total busy time is conserved across
    /// worker counts (scheduling moves work, never creates it), and
    /// utilization stays a proper fraction.
    #[test]
    fn queue_wait_plus_service_reassembles_latency(
        costs in proptest::collection::vec(
            // Milli-unit integers mapped to irregular floats (the vendored
            // proptest has no f64 range strategy); division by 1000 makes
            // most costs non-representable, exercising real rounding.
            (0u32..8000, 0u32..2000, 0u32..1000).prop_map(
                |(e, t, x)| (e as f64 / 1000.0, t as f64 / 1000.0, x as f64 / 1000.0)),
            1..40),
        workers in 1usize..6,
    ) {
        let per_query: Vec<RunStats> =
            costs.iter().map(|&(e, t, x)| rs(e, t, x)).collect();
        let stats = ServeStats::compute(&per_query, workers, 0.0);
        for i in 0..per_query.len() {
            let reassembled = stats.queue_wait_ms[i] + stats.service_ms[i];
            prop_assert!(
                reassembled.to_bits() == stats.latency_ms[i].to_bits(),
                "query {i}: wait {} + service {} != latency {}",
                stats.queue_wait_ms[i], stats.service_ms[i], stats.latency_ms[i],
            );
        }
        let busy: f64 = stats.worker_busy_ms.iter().sum();
        let service: f64 = stats.service_ms.iter().sum();
        prop_assert!(
            (busy - service).abs() < 1e-9,
            "busy {busy} != total service {service}",
        );
        let serial = ServeStats::compute(&per_query, 1, 0.0);
        let serial_busy: f64 = serial.worker_busy_ms.iter().sum();
        prop_assert!(
            (busy - serial_busy).abs() < 1e-9,
            "busy time not conserved across worker counts",
        );
        let u = stats.utilization();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utilization {u}");
    }
}
