//! Observability invariants: the exported trace is a golden artifact
//! (byte-identical across runs and serve worker counts), observation never
//! perturbs what it observes, a metrics registry folds to exactly the
//! run's `RunStats`, `RunStats::since` deltas compose across batched
//! queries, and the serving pool's queue-wait/service
//! decomposition reassembles latency bitwise.

use gcgt::bench::trace::smoke;
use gcgt::prelude::*;
use gcgt::serve::ServeStats;
use gcgt::simt::tally::ALL_CLASSES;
use gcgt::simt::{MemStats, Tally};
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

/// Every modeled charge reaches the observer as the same value
/// `RunStats::apply` folds, so a `MetricsRegistry` fed by one BFS run holds
/// exactly the run's `RunStats`: every counter bitwise, for every engine
/// shape — in-core, streaming, 4-shard, and streaming under a fault plan
/// with retries. Adaptive direction on a symmetric graph runs push and pull
/// levels alike.
///
/// One float is split across two registry buckets and so matches only to
/// 1e-12: under chaos, `transfer_ms` interleaves successful uploads
/// (`gcgt_partition_transfer_ms_total`) with retry re-charges
/// (`gcgt_fault_charged_ms_total{domain="transfer"}`).
#[test]
fn metrics_registry_folds_to_run_stats_for_every_engine_shape() {
    /// `RunStats` fields with no registry counter, and why.
    const NOT_COUNTED: [(&str, &str); 3] = [
        (
            "est_ms",
            "derived, not counted: recomputed below from the registry's cycles and launches",
        ),
        (
            "allocated_bytes",
            "a level, not a flow: the `gcgt_allocated_bytes` gauge follows the \
             executor's end-of-query release, the snapshot precedes it",
        ),
        ("tally.width", "the warp width, a configuration constant"),
    ];
    let graph = web_graph(&WebParams::uk2002_like(1_500), 29).symmetrized();
    let device = DeviceConfig::default();
    let probe = Session::builder()
        .graph(graph.clone())
        .device(device)
        .build()
        .unwrap();
    let budget = probe.footprint() - probe.structure_bytes() / 4 * 3;
    let incore = EngineKind::Gcgt(Strategy::Full);
    let ooc = EngineKind::OutOfCore {
        inner: Strategy::Full,
    };
    let mut chaos = FaultPlan::empty();
    chaos.seed = 5;
    chaos.transfer = FaultRate::new(300, 2);
    /// An engine shape: `(name, engine, memory budget, shards, fault plan)`.
    type Shape = (
        &'static str,
        EngineKind,
        Option<usize>,
        Option<usize>,
        Option<FaultPlan>,
    );
    let shapes: [Shape; 4] = [
        ("in-core", incore, None, None, None),
        ("streaming", ooc, Some(budget), None, None),
        ("4-shard", incore, None, Some(4), None),
        ("chaos", ooc, Some(budget), None, Some(chaos)),
    ];
    for (shape, kind, budget, shards, plan) in shapes {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let mut builder = Session::builder()
            .graph(graph.clone())
            .device(device)
            .engine(kind)
            .direction(DirectionMode::Adaptive)
            .observer(ObserverHandle::from_arc(metrics.clone()));
        if let Some(bytes) = budget {
            builder = builder.memory_budget(bytes);
        }
        if let Some(devices) = shards {
            builder = builder.shards(devices);
        }
        if let Some(plan) = plan {
            builder = builder.fault_plan(plan);
        }
        let stats = builder
            .build()
            .expect("shape builds")
            .run(Bfs::from(0))
            .stats;

        let total = |name: &str| metrics.value(name).unwrap_or(0.0);
        // Sums a labelled counter over every label value.
        let labelled = |name: &str| -> f64 {
            let prefix = format!("{name}{{");
            metrics
                .snapshot()
                .lines()
                .filter_map(|line| line.strip_prefix(prefix.as_str()))
                .map(|rest| rest.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
                .fold(0.0, |sum, value| sum + value)
        };
        let same = |field: &str, registry: f64, folded: f64| {
            assert_eq!(
                registry.to_bits(),
                folded.to_bits(),
                "{shape}: {field}: registry {registry}, RunStats {folded}"
            );
        };
        // Destructured without `..`: a new field fails to compile here
        // until it is either compared or listed in NOT_COUNTED.
        let RunStats {
            est_ms,
            cycles,
            launches,
            tally,
            mem,
            allocated_bytes: _,
            partition_faults,
            partition_uploads,
            partition_evictions,
            bytes_streamed,
            transfer_ms,
            read_throughs,
            read_through_lines,
            push_steps,
            pull_steps,
            pushed_edges,
            pulled_edges,
            exchange_ms,
            boundary_nodes,
            sync_steps,
            faults_injected,
            retries,
            backoff_ms,
        } = stats;
        let Tally {
            issues,
            lane_work,
            width: _,
        } = tally;
        let MemStats {
            transactions,
            cache_hits,
            mem_steps,
            lines_touched,
        } = mem;

        same("cycles", total("gcgt_cycles_total"), cycles);
        same("launches", total("gcgt_launches_total"), launches as f64);
        let derived = total("gcgt_cycles_total") / (device.clock_ghz * 1e6)
            + total("gcgt_launches_total") * device.launch_overhead_us / 1e3;
        same("est_ms", derived, est_ms);
        for class in ALL_CLASSES {
            same(
                class.name(),
                total(&format!("gcgt_issues_total{{class=\"{}\"}}", class.name())),
                issues[class as usize] as f64,
            );
        }
        same("lane_work", total("gcgt_lane_work_total"), lane_work as f64);
        same(
            "transactions",
            total("gcgt_mem_transactions_total"),
            transactions as f64,
        );
        same(
            "cache_hits",
            total("gcgt_cache_hits_total"),
            cache_hits as f64,
        );
        same("mem_steps", total("gcgt_mem_steps_total"), mem_steps as f64);
        same(
            "lines_touched",
            total("gcgt_lines_touched_total"),
            lines_touched as f64,
        );
        same(
            "partition_faults",
            total("gcgt_partition_faults_total"),
            partition_faults as f64,
        );
        same(
            "partition_uploads",
            total("gcgt_partition_uploads_total"),
            partition_uploads as f64,
        );
        same(
            "partition_evictions",
            total("gcgt_partition_evictions_total"),
            partition_evictions as f64,
        );
        same(
            "bytes_streamed",
            total("gcgt_partition_bytes_streamed_total"),
            bytes_streamed as f64,
        );
        same(
            "read_throughs",
            total("gcgt_read_through_total"),
            read_throughs as f64,
        );
        same(
            "read_through_lines",
            total("gcgt_read_through_lines_total"),
            read_through_lines as f64,
        );
        let uploads_ms = total("gcgt_partition_transfer_ms_total");
        if retries == 0 {
            same("transfer_ms", uploads_ms, transfer_ms);
        } else {
            let recharged = total("gcgt_fault_charged_ms_total{domain=\"transfer\"}");
            assert!(
                (uploads_ms + recharged - transfer_ms).abs() < 1e-12,
                "{shape}: transfer_ms: registry {uploads_ms} + {recharged}, RunStats {transfer_ms}"
            );
        }
        same(
            "push_steps",
            total("gcgt_levels_total{direction=\"push\"}"),
            push_steps as f64,
        );
        same(
            "pushed_edges",
            total("gcgt_level_edges_total{direction=\"push\"}"),
            pushed_edges as f64,
        );
        same(
            "pull_steps",
            total("gcgt_levels_total{direction=\"pull\"}"),
            pull_steps as f64,
        );
        same(
            "pulled_edges",
            total("gcgt_level_edges_total{direction=\"pull\"}"),
            pulled_edges as f64,
        );
        same("exchange_ms", total("gcgt_exchange_ms_total"), exchange_ms);
        same(
            "boundary_nodes",
            total("gcgt_boundary_nodes_total"),
            boundary_nodes as f64,
        );
        same(
            "sync_steps",
            total("gcgt_exchange_steps_total"),
            sync_steps as f64,
        );
        same(
            "faults_injected",
            labelled("gcgt_fault_retry_total")
                + labelled("gcgt_fault_exhausted_total")
                + labelled("gcgt_fault_injected_total"),
            faults_injected as f64,
        );
        same(
            "retries",
            labelled("gcgt_fault_retry_total"),
            retries as f64,
        );
        same(
            "backoff_ms",
            total("gcgt_fault_backoff_ms_total"),
            backoff_ms,
        );

        // Each shape exercises what it is here for.
        assert!(push_steps > 0 && pull_steps > 0, "{shape}: both directions");
        match shape {
            "streaming" => assert!(partition_uploads < partition_faults && partition_evictions > 0),
            "4-shard" => assert!(sync_steps > 0 && exchange_ms > 0.0),
            "chaos" => assert!(retries > 0, "the plan never struck"),
            _ => {}
        }
    }
    assert_eq!(NOT_COUNTED.len(), 3);
}

/// `RunStats::since` is how batches attribute work to queries; the deltas
/// must compose — per-query exchange/transfer/step counters sum back to
/// the batch totals, exactly for integers and to rounding for floats — on
/// a sharded session and on a streaming one, whose batch shares one
/// partition cache across its queries.
#[test]
fn since_deltas_compose_across_batched_queries() {
    let graph = web_graph(&WebParams::uk2002_like(500), 13);
    let builder = || {
        Session::builder()
            .graph(graph.clone())
            .reorder(Reordering::Llp(LlpConfig::default()))
    };
    let sharded = builder().shards(4).build().expect("sharded session builds");
    let probe = builder().build().expect("in-core session builds");
    let streaming = builder()
        .memory_budget(probe.footprint() - probe.structure_bytes() / 4 * 3)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .expect("streaming session builds");
    assert!(streaming.is_streaming());
    let sources: Vec<Bfs> = (0..6u32).map(|i| Bfs::from(i * 37 % 400)).collect();
    for (shape, session) in [("4-shard", &sharded), ("streaming", &streaming)] {
        let batch = session.run_batch(&sources);
        assert_eq!(batch.per_query.len(), sources.len());

        /// A named `RunStats` counter.
        type Counter = (&'static str, fn(&RunStats) -> u64);
        let counters: [Counter; 9] = [
            ("launches", |s| s.launches),
            ("sync_steps", |s| s.sync_steps),
            ("boundary_nodes", |s| s.boundary_nodes),
            ("push_steps", |s| s.push_steps),
            ("pushed_edges", |s| s.pushed_edges),
            ("partition_faults", |s| s.partition_faults),
            ("partition_uploads", |s| s.partition_uploads),
            ("partition_evictions", |s| s.partition_evictions),
            ("bytes_streamed", |s| s.bytes_streamed),
        ];
        for (name, field) in counters {
            let sum: u64 = batch.per_query.iter().map(field).sum();
            assert_eq!(sum, field(&batch.stats), "{shape}: {name}");
        }

        let sum_f64 = |f: &dyn Fn(&RunStats) -> f64| batch.per_query.iter().map(f).sum::<f64>();
        assert!((sum_f64(&|s| s.est_ms) - batch.stats.est_ms).abs() < 1e-9);
        assert!((sum_f64(&|s| s.exchange_ms) - batch.stats.exchange_ms).abs() < 1e-9);
        assert!((sum_f64(&|s| s.transfer_ms) - batch.stats.transfer_ms).abs() < 1e-9);

        if shape == "4-shard" {
            assert!(batch.stats.sync_steps > 0, "shard batch must sync");
            assert!(batch.stats.exchange_ms > 0.0, "shard batch must exchange");
        } else {
            assert!(
                batch.stats.partition_uploads > 0,
                "streaming batch must upload"
            );
            assert!(
                batch.stats.partition_evictions > 0,
                "streaming batch must evict"
            );
            assert!(
                batch.stats.transfer_ms > 0.0,
                "streaming batch must transfer"
            );
        }
    }
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
