//! Differential concurrency suite: for **every** engine kind — including
//! out-of-core streaming under a tiny budget — the same mixed query set
//! through a 1-worker pool, a 4-worker pool, and serial `Session::run`
//! oracles must produce bitwise-identical outputs and identical per-query
//! `RunStats`. Worker count and host-thread scheduling change *when* a
//! query runs, never *what it computes or costs*.
//!
//! These tests run under the default `--test-threads`, racing real worker
//! threads against each other and against the other integration tests —
//! there is no serialization hack anywhere; the determinism is structural.

use std::sync::Arc;

use gcgt::prelude::*;

fn graph() -> Csr {
    // Symmetrized so Cc is meaningful in the mixed set.
    web_graph(&WebParams::uk2002_like(700), 19).symmetrized()
}

fn mixed_queries() -> Vec<Query> {
    vec![
        Query::Bfs(0),
        Query::Pagerank(Pagerank::default()),
        Query::Bfs(7),
        Query::Cc,
        Query::Bc(3),
        Query::LabelProp(LabelProp::default()),
        Query::Bfs(42),
        Query::Bfs(7), // duplicate on purpose: identical answers expected
    ]
}

fn all_engine_kinds() -> Vec<EngineKind> {
    let mut kinds: Vec<EngineKind> = Strategy::LADDER.into_iter().map(EngineKind::Gcgt).collect();
    kinds.push(EngineKind::GpuCsr);
    kinds.push(EngineKind::Gunrock);
    kinds
}

/// A prepared graph for `kind` over the shared test graph; `OutOfCore`
/// kinds get a budget of scratch plus an eighth of the structure, so the
/// pool's workers really stream with eviction churn.
fn prepare(kind: EngineKind, g: &Csr) -> Arc<PreparedGraph> {
    let builder = Session::builder()
        .graph(g.clone())
        .device(DeviceConfig::titan_v_scaled(1 << 30))
        .engine(kind);
    let builder = if matches!(kind, EngineKind::OutOfCore { .. }) {
        let incore = Session::builder().graph(g.clone()).build().unwrap();
        let scratch = incore.footprint() - incore.structure_bytes();
        builder.memory_budget(scratch + (incore.structure_bytes() / 8).max(1))
    } else {
        builder
    };
    builder.build().unwrap().prepared()
}

fn assert_pools_match_oracle(kind: EngineKind) {
    let g = graph();
    let prepared = prepare(kind, &g);
    let queries = mixed_queries();

    let one = ServePool::new(prepared.clone(), 1).unwrap().serve(&queries);
    let four = ServePool::new(prepared.clone(), 4).unwrap().serve(&queries);

    for (i, query) in queries.iter().enumerate() {
        let oracle = prepared.run(*query);
        // Bitwise-identical outputs (depths, components, σ/δ, float ranks,
        // labels — `QueryOutput: PartialEq` compares them all, plus the
        // embedded per-run statistics).
        assert_eq!(
            one.outputs[i],
            Ok(oracle.output.clone()),
            "{kind:?} query {i} (1w)"
        );
        assert_eq!(
            four.outputs[i],
            Ok(oracle.output),
            "{kind:?} query {i} (4w)"
        );
        // Identical per-query RunStats: scheduling must not change
        // simulated work — launches, tallies, memory counters, est_ms,
        // faults, evictions, transfer_ms, residency.
        assert_eq!(one.per_query[i], oracle.stats, "{kind:?} query {i} (1w)");
        assert_eq!(four.per_query[i], oracle.stats, "{kind:?} query {i} (4w)");
    }
    // The two pools therefore agree with each other wholesale.
    assert_eq!(one.outputs, four.outputs, "{kind:?}");
    assert_eq!(one.per_query, four.per_query, "{kind:?}");
    // Work is conserved exactly across worker counts.
    assert_eq!(
        one.stats.work_ms.to_bits(),
        four.stats.work_ms.to_bits(),
        "{kind:?}"
    );
    assert_eq!(one.stats.launches, four.stats.launches, "{kind:?}");
}

#[test]
fn every_in_core_engine_kind_is_scheduling_independent() {
    for kind in all_engine_kinds() {
        assert_pools_match_oracle(kind);
    }
}

#[test]
fn out_of_core_streaming_is_scheduling_independent() {
    let kind = EngineKind::OutOfCore {
        inner: Strategy::Full,
    };
    let g = graph();
    let prepared = prepare(kind, &g);
    assert!(prepared.is_streaming(), "budget must force streaming");
    assert!(prepared.num_partitions().unwrap() >= 8);
    assert_pools_match_oracle(kind);

    // And the streaming runs really faulted and evicted per query — the
    // per-worker caches start cold for every query, which is exactly what
    // makes the statistics scheduling-independent.
    let report = ServePool::new(prepared.clone(), 4)
        .unwrap()
        .serve(&mixed_queries());
    for (i, stats) in report.per_query.iter().enumerate() {
        assert!(stats.partition_faults >= 1, "query {i} never faulted");
        assert!(stats.transfer_ms > 0.0, "query {i} streamed nothing");
    }
    for w in &report.workers {
        assert_eq!(w.baseline, 0, "streaming workers upload nothing up front");
        assert_eq!(
            w.allocated, 0,
            "worker {} kept partitions resident",
            w.worker
        );
    }
}

/// Direction-optimizing sessions keep the determinism contract: the same
/// adaptive (push/pull-switching) BFS mix through 1- and 4-worker pools is
/// bitwise the serial oracle — outputs **and** per-query `RunStats`,
/// including the new `pull_steps` / `pulled_edges` counters — at any worker
/// count, in-core and streaming out-of-core alike.
#[test]
fn direction_optimizing_pools_are_scheduling_independent() {
    // Low diameter + symmetrized so the adaptive heuristic really pulls.
    let g = social_graph(&SocialParams::twitter_like(700), 23).symmetrized();
    let queries: Vec<Query> = vec![Query::Bfs(0), Query::Bfs(5), Query::Bfs(31), Query::Bfs(0)];
    for kind in [
        EngineKind::Gcgt(Strategy::Full),
        EngineKind::OutOfCore {
            inner: Strategy::Full,
        },
    ] {
        let mut builder = Session::builder()
            .graph(g.clone())
            .device(DeviceConfig::titan_v_scaled(1 << 30))
            .direction(DirectionMode::Adaptive)
            .engine(kind);
        if matches!(kind, EngineKind::OutOfCore { .. }) {
            let incore = Session::builder().graph(g.clone()).build().unwrap();
            let scratch = incore.footprint() - incore.structure_bytes();
            builder = builder.memory_budget(scratch + (incore.structure_bytes() / 8).max(1));
        }
        let prepared = builder.build().unwrap().prepared();

        let one = ServePool::new(prepared.clone(), 1).unwrap().serve(&queries);
        let four = ServePool::new(prepared.clone(), 4).unwrap().serve(&queries);
        for (i, query) in queries.iter().enumerate() {
            let oracle = prepared.run(*query);
            assert_eq!(
                one.outputs[i],
                Ok(oracle.output.clone()),
                "{kind:?} query {i} (1w)"
            );
            assert_eq!(
                four.outputs[i],
                Ok(oracle.output),
                "{kind:?} query {i} (4w)"
            );
            assert_eq!(one.per_query[i], oracle.stats, "{kind:?} query {i} (1w)");
            assert_eq!(four.per_query[i], oracle.stats, "{kind:?} query {i} (4w)");
        }
        // The mode switch really happened — this suite is not vacuous.
        assert!(
            four.per_query.iter().any(|s| s.pull_steps >= 1),
            "{kind:?}: no query ever pulled"
        );
    }
}

#[test]
fn duplicate_queries_answer_identically_within_one_report() {
    let g = graph();
    let prepared = prepare(EngineKind::Gcgt(Strategy::Full), &g);
    let queries = mixed_queries(); // queries[2] and queries[7] are both Bfs(7)
    let report = ServePool::new(prepared, 3).unwrap().serve(&queries);
    assert_eq!(report.outputs[2], report.outputs[7]);
    assert_eq!(report.per_query[2], report.per_query[7]);
}

#[test]
fn reordered_prepared_graph_serves_in_original_ids() {
    let g = graph();
    let want = refalgo::bfs(&g, 17);
    let prepared = Session::builder()
        .graph(g)
        .reorder(Reordering::DegSort)
        .build()
        .unwrap()
        .prepared();
    let report = ServePool::new(prepared, 2)
        .unwrap()
        .serve(&[Query::Bfs(17), Query::Bfs(17)]);
    for out in &report.outputs {
        match out {
            Ok(QueryOutput::Bfs(run)) => assert_eq!(run.depth, want.depth),
            other => panic!("expected Bfs output, got {other:?}"),
        }
    }
}

#[test]
fn zero_worker_pool_is_a_typed_build_error() {
    let prepared = prepare(EngineKind::Gcgt(Strategy::Full), &graph());
    let err = ServePool::new(prepared.clone(), 0).unwrap_err();
    assert_eq!(err, ServeError::ZeroWorkers);
    assert!(err.to_string().contains("at least one worker"));
}

#[test]
fn empty_query_batch_reports_empty_stats_without_dividing_by_zero() {
    let prepared = prepare(EngineKind::Gcgt(Strategy::Full), &graph());
    let report = ServePool::new(prepared, 4).unwrap().serve::<Query>(&[]);
    assert!(report.outputs.is_empty());
    let s = &report.stats;
    assert_eq!(s.queries, 0);
    assert_eq!(s.makespan_ms, 0.0);
    assert_eq!((s.p50_ms, s.p95_ms, s.p99_ms), (0.0, 0.0, 0.0));
    // Every derived ratio is guarded, never NaN/inf.
    assert_eq!(s.mean_query_ms(), 0.0);
    assert_eq!(s.throughput_qps(), 0.0);
    assert_eq!(s.speedup(), 1.0);
    assert!(s.mean_query_ms().is_finite() && s.throughput_qps().is_finite());
}

#[test]
fn latency_percentiles_come_from_the_deterministic_fifo_timeline() {
    let prepared = prepare(EngineKind::Gcgt(Strategy::Full), &graph());
    let queries = mixed_queries();
    let one = ServePool::new(prepared.clone(), 1).unwrap().serve(&queries);
    // On one worker the timeline is the prefix-sum of per-query costs, so
    // p99 is the completion of the whole set and the makespan equals the
    // total cost.
    let total: f64 = one.per_query.iter().map(|s| s.est_ms + s.transfer_ms).sum();
    assert!((one.stats.makespan_ms - total).abs() < 1e-12);
    assert!((one.stats.p99_ms - total).abs() < 1e-12);

    // More workers: strictly earlier finish, never-worse tail latency, and
    // throughput that scales.
    let four = ServePool::new(prepared, 4).unwrap().serve(&queries);
    assert!(four.stats.makespan_ms < one.stats.makespan_ms);
    assert!(four.stats.p99_ms <= one.stats.p99_ms);
    assert!(four.stats.p50_ms <= one.stats.p50_ms);
    assert!(four.stats.throughput_qps() > one.stats.throughput_qps());
}
