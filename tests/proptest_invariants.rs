//! Property-based invariants across the whole pipeline (proptest):
//! arbitrary graphs × arbitrary CGR configurations must round-trip exactly,
//! traverse identically to the serial oracles under every strategy, and be
//! invariant under node reordering.

// Explicit imports: both `gcgt::prelude` and `proptest::prelude` export a
// `Strategy`, and glob-importing both is ambiguous.
use std::sync::Arc;

use gcgt::core::{bc_in, bfs, bfs_in, cc, cc_in};
use gcgt::prelude::{
    refalgo, ByteRleGraph, CgrConfig, CgrGraph, Code, Csr, Device, DeviceConfig, EngineKind,
    Expander, GcgtEngine, LabelProp, MetricsRegistry, ObserverHandle, Pagerank, Query, Reordering,
    ServePool, Session, Strategy, VnodeConfig, VnodeGraph,
};
use proptest::prelude::{prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// An arbitrary small graph as (node count, edge list).
fn arb_graph() -> impl PropStrategy<Value = Csr> {
    (2usize..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..400)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

/// An arbitrary CGR configuration over the supported parameter space.
fn arb_config() -> impl PropStrategy<Value = CgrConfig> {
    (
        prop_oneof![
            Just(Code::Gamma),
            Just(Code::Delta),
            (1u8..6).prop_map(Code::Zeta),
        ],
        prop_oneof![Just(None), (1u32..12).prop_map(Some)],
        prop_oneof![
            Just(None),
            Just(Some(8u32)),
            Just(Some(16)),
            Just(Some(32)),
            Just(Some(64))
        ],
    )
        .prop_map(|(code, min_interval_len, segment_len_bytes)| CgrConfig {
            code,
            min_interval_len,
            segment_len_bytes,
            ..CgrConfig::paper_default()
        })
}

/// An arbitrary graph whose node 0 has at least 32 out-neighbours — enough
/// to fill `DeviceConfig::test_tiny()` (4 SMs × 8 lanes) in one level.
fn arb_wide_graph() -> impl PropStrategy<Value = Csr> {
    (40usize..160).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..400),
            32..n,
        )
            .prop_map(move |(mut edges, star)| {
                edges.extend((1..=star as u32).map(|v| (0, v)));
                Csr::from_edges(n, &edges)
            })
    })
}

/// Runs `run` on a fresh device of `engine` with a metrics observer
/// attached; returns its result and the compaction levels it reported.
fn observed<T>(engine: &dyn Expander, run: impl FnOnce(&mut Device) -> T) -> (T, f64) {
    let metrics = Arc::new(MetricsRegistry::new());
    let mut device = engine.new_device().unwrap();
    device.set_observer(ObserverHandle::from_arc(metrics.clone()));
    let out = run(&mut device);
    let compacted = metrics.value("gcgt_levels_total{direction=\"compact\"}");
    (out, compacted.unwrap_or(0.0))
}

/// An arbitrary application query (sources are reduced modulo the node
/// count at the use site).
fn arb_query() -> impl PropStrategy<Value = Query> {
    prop_oneof![
        (0u32..1000).prop_map(Query::Bfs),
        Just(Query::Cc),
        (0u32..1000).prop_map(Query::Bc),
        Just(Query::Pagerank(Pagerank::default())),
        Just(Query::LabelProp(LabelProp::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cgr_round_trips_exactly(graph in arb_graph(), config in arb_config()) {
        let cgr = CgrGraph::encode(&graph, &config);
        let decoded = gcgt::cgr::decode::decode_all(&cgr);
        prop_assert_eq!(decoded, graph);
    }

    #[test]
    fn compression_stats_partition_edges(graph in arb_graph(), config in arb_config()) {
        let cgr = CgrGraph::encode(&graph, &config);
        let s = cgr.stats();
        prop_assert_eq!(s.interval_edges + s.residual_edges, graph.num_edges());
        prop_assert_eq!(s.total_bits, cgr.bits().len());
    }

    #[test]
    fn bfs_matches_oracle_under_any_strategy(
        graph in arb_graph(),
        strategy_idx in 0usize..5,
        source_seed in 0u32..1000,
    ) {
        let strategy = Strategy::LADDER[strategy_idx];
        let source = source_seed % graph.num_nodes() as u32;
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&graph, &cfg);
        let device = DeviceConfig::titan_v_scaled(1 << 30);
        let engine = GcgtEngine::new(&cgr, device, strategy);
        let got = bfs(&engine, source);
        let want = refalgo::bfs(&graph, source);
        prop_assert_eq!(got.depth, want.depth);
    }

    #[test]
    fn bfs_reachability_invariant_under_reordering(graph in arb_graph(), source_seed in 0u32..1000) {
        // Relabeling nodes must preserve the number of reached nodes and
        // the level structure (depth multiset).
        let n = graph.num_nodes() as u32;
        let source = source_seed % n;
        let perm = Reordering::DegSort.compute(&graph);
        let permuted = graph.permuted(&perm);

        let a = refalgo::bfs(&graph, source);
        let b = refalgo::bfs(&permuted, perm[source as usize]);
        prop_assert_eq!(a.reached, b.reached);
        let mut da: Vec<u32> = a.depth; da.sort_unstable();
        let mut db: Vec<u32> = b.depth; db.sort_unstable();
        prop_assert_eq!(da, db);
    }

    #[test]
    fn vnode_expansion_is_lossless(graph in arb_graph()) {
        let vg = VnodeGraph::compress(&graph, &VnodeConfig {
            min_pattern: 4,
            max_group: 32,
            passes: 2,
        });
        prop_assert_eq!(vg.expand(), graph);
    }

    #[test]
    fn pull_equals_push_oracle(
        graph in arb_graph(),
        source_seed in 0u32..1000,
        direction_idx in 0usize..3,
        kind_idx in 0usize..5,
    ) {
        // Arbitrary graphs × sources × DirectionMode × every EngineKind
        // (including OutOfCore under a small streaming budget): the BFS
        // QueryOutput must be bitwise identical to the serial session
        // oracle, and every mode's depths must match the reference BFS.
        use gcgt::prelude::DirectionMode;
        let direction = [DirectionMode::Push, DirectionMode::Pull, DirectionMode::Adaptive]
            [direction_idx];
        let kind = [
            EngineKind::Gcgt(Strategy::Full),
            EngineKind::Gcgt(Strategy::TaskStealing),
            EngineKind::GpuCsr,
            EngineKind::Gunrock,
            EngineKind::OutOfCore { inner: Strategy::Full },
        ][kind_idx];
        // Symmetrized: pull requires in-neighbours = stored adjacency.
        let sym = graph.symmetrized();
        let n = sym.num_nodes() as u32;
        let source = source_seed % n;
        let want = refalgo::bfs(&sym, source);

        let mut builder = Session::builder()
            .graph(sym.clone())
            .direction(direction)
            .engine(kind);
        if matches!(kind, EngineKind::OutOfCore { .. }) {
            let incore = Session::builder().graph(sym.clone()).build().unwrap();
            let scratch = incore.footprint() - incore.structure_bytes();
            builder = builder.memory_budget(scratch + (incore.structure_bytes() / 4).max(1));
        }
        let session = builder.build().unwrap();
        let a = session.run(Query::Bfs(source));
        prop_assert_eq!(a.output.as_bfs().unwrap().depth.clone(), want.depth);
        // Determinism: a second run is bitwise identical, QueryOutput's
        // PartialEq covering the embedded RunStats too.
        let b = session.run(Query::Bfs(source));
        prop_assert_eq!(a.output, b.output);
    }

    #[test]
    fn cc_agrees_with_union_find(graph in arb_graph()) {
        let sym = graph.symmetrized();
        let want = refalgo::connected_components(&sym);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&sym, &cfg);
        let device = DeviceConfig::titan_v_scaled(1 << 30);
        let engine = GcgtEngine::new(&cgr, device, Strategy::Full);
        let got = cc(&engine);
        prop_assert_eq!(got.component, want.component);
    }

    #[test]
    fn byte_rle_round_trips(graph in arb_graph()) {
        let rle = ByteRleGraph::encode(&graph);
        for u in 0..graph.num_nodes() as u32 {
            let decoded: Vec<u32> = rle.neighbors(u).collect();
            prop_assert_eq!(decoded, graph.neighbors(u).to_vec());
        }
    }

    #[test]
    fn reorderings_always_produce_permutations(graph in arb_graph()) {
        for method in Reordering::figure13_sweep() {
            let p = method.compute(&graph);
            prop_assert!(gcgt::graph::order::is_permutation(&p), "{}", method.name());
        }
    }

    #[test]
    fn warp_decode_equals_serial_decode(
        values in proptest::collection::vec(1u64..100_000, 1..300),
        code_idx in 0usize..4,
        width_idx in 0usize..3,
    ) {
        // Algorithm 4's speculative windows must reproduce the serial
        // decoding of any codeword stream, for any code and warp width.
        let code = [Code::Gamma, Code::Zeta(2), Code::Zeta(3), Code::Zeta(5)][code_idx];
        let width = [8usize, 16, 32][width_idx];
        let mut w = gcgt::bits::BitWriter::new();
        for &v in &values {
            code.encode(&mut w, v);
        }
        let bits = w.into_bitvec();
        let table = gcgt::bits::DecodeTable::shared(code);
        let mut warp = gcgt::simt::WarpSim::new(width, 64);
        let mut decoded: Vec<u64> = Vec::new();
        let mut pos = 0usize;
        while decoded.len() < values.len() {
            let win = gcgt::core::kernels::warp_decode::parallel_decode(
                &mut warp, &bits, &table, pos,
            );
            if win.values.is_empty() {
                // Codeword wider than the window: decode serially.
                let (v, next) = code.decode_at(&bits, pos).expect("serial fallback");
                decoded.push(v);
                pos = next;
                continue;
            }
            let take = win.values.len().min(values.len() - decoded.len());
            for &(v, _) in &win.values[..take] {
                decoded.push(v);
            }
            pos += win.values[take - 1].1;
            // Lemma 5.2: rounds bounded by log2(width) + 1.
            prop_assert!(win.rounds <= (width as u32).ilog2() + 2);
        }
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn table_decode_equals_slow_decode(
        raw_bits in proptest::collection::vec(0u32..2, 0..220),
        prefix_zeros in 0usize..80,
        code_idx in 0usize..6,
    ) {
        // Differential: the DecodeTable fast path must be bitwise equal to
        // the Code::decode_at slow path on ARBITRARY bitstreams — valid
        // codewords, garbage, truncated tails, and adversarial prefixes
        // (≥64-zero unary runs; all-zero ζ payloads, i.e. codeword value
        // 0) — at every window offset, including the None cases. The
        // multi-gap probe must equal the same number of sequential slow
        // decodes, position for position.
        let code = [
            Code::Gamma,
            gcgt::bits::Code::Delta,
            Code::Zeta(2),
            Code::Zeta(3),
            Code::Zeta(4),
            Code::Zeta(5),
        ][code_idx];
        let mut w = gcgt::bits::BitWriter::new();
        for _ in 0..prefix_zeros {
            w.push_bit(false); // adversarial: long unary runs
        }
        for &b in &raw_bits {
            w.push_bit(b == 1);
        }
        let bits = w.into_bitvec();
        let table = gcgt::bits::DecodeTable::shared(code);
        for pos in 0..=bits.len() {
            prop_assert_eq!(table.decode_at(&bits, pos), code.decode_at(&bits, pos));
            let run = table.decode_packed_at(&bits, pos);
            let mut check = pos;
            for i in 0..run.len() {
                let (v, next) = code.decode_at(&bits, check)
                    .expect("packed entries are decodable by the slow path");
                prop_assert_eq!(v, run.value(i));
                prop_assert_eq!(next, pos + run.end(i));
                check = next;
            }
        }
    }

    #[test]
    fn serve_pool_equals_serial_oracles_and_conserves_work(
        graph in arb_graph(),
        raw_queries in proptest::collection::vec(arb_query(), 1..10),
        workers in 1usize..9,
    ) {
        // Arbitrary graph, arbitrary mixed query set, arbitrary worker
        // count: every pooled answer and per-query statistic must be
        // bitwise the serial `run` oracle's, and the aggregate work must
        // conserve the sum of per-query `est_ms` exactly.
        let sym = graph.symmetrized(); // Cc may appear in the mix
        let n = sym.num_nodes() as u32;
        let queries: Vec<Query> = raw_queries
            .into_iter()
            .map(|q| match q {
                Query::Bfs(s) => Query::Bfs(s % n),
                Query::Bc(s) => Query::Bc(s % n),
                other => other,
            })
            .collect();
        let prepared = Session::builder().graph(sym).build().unwrap().prepared();
        let report = ServePool::new(prepared.clone(), workers).unwrap().serve(&queries);
        prop_assert_eq!(report.outputs.len(), queries.len());
        let mut work = 0.0f64;
        let mut transfer = 0.0f64;
        for (i, q) in queries.iter().enumerate() {
            let oracle = prepared.run(*q);
            prop_assert_eq!(report.outputs[i].as_ref(), Ok(&oracle.output));
            prop_assert_eq!(&report.per_query[i], &oracle.stats);
            work += oracle.stats.est_ms;
            transfer += oracle.stats.transfer_ms;
        }
        prop_assert_eq!(report.stats.work_ms.to_bits(), work.to_bits());
        prop_assert_eq!(report.stats.transfer_ms.to_bits(), transfer.to_bits());
        prop_assert_eq!(report.stats.queries, queries.len() as u64);
        // Every admitted query is claimed exactly once, also when the pool
        // has more workers than queries.
        prop_assert_eq!(report.workers.len(), workers);
        let claimed: u64 = report.workers.iter().map(|w| w.queries).sum();
        prop_assert_eq!(claimed, queries.len() as u64);
        // The drained pool sits at its post-upload baselines.
        for w in &report.workers {
            prop_assert_eq!(w.allocated, w.baseline);
        }
    }

    #[test]
    fn compacted_frontiers_keep_bfs_bc_and_cc_on_their_oracles(
        graph in arb_wide_graph(),
        strategy_idx in 0usize..5,
    ) {
        // Under the 4 SM × 8 lane test device a level of 32 nodes fills the
        // device, and the source's star guarantees one such level: BFS and
        // BC compact it into ascending order, CC compacts every iteration.
        let dc = DeviceConfig::test_tiny();
        let strategy = Strategy::LADDER[strategy_idx];
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&graph, &cfg);
        let engine = GcgtEngine::new(&cgr, dc, strategy);

        let (bfs_run, compacted) = observed(&engine, |d| bfs_in(&engine, d, 0).unwrap());
        prop_assert!(compacted > 0.0);
        prop_assert_eq!(bfs_run.depth, refalgo::bfs(&graph, 0).depth);

        let (got, compacted) = observed(&engine, |d| bc_in(&engine, d, 0).unwrap());
        prop_assert!(compacted > 0.0);
        let want = refalgo::betweenness_from_source(&graph, 0);
        prop_assert_eq!(got.depth, want.depth);
        prop_assert_eq!(got.sigma, want.sigma);
        for (a, b) in got.delta.iter().zip(&want.delta) {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())), "δ {a} vs {b}");
        }

        let sym = graph.symmetrized();
        let sym_cgr = CgrGraph::encode(&sym, &cfg);
        let sym_engine = GcgtEngine::new(&sym_cgr, dc, strategy);
        let (cc_run, compacted) = observed(&sym_engine, |d| cc_in(&sym_engine, d).unwrap());
        prop_assert_eq!(cc_run.component, refalgo::connected_components(&sym).component);
        // Every iteration but the last (which hooks nothing) compacts.
        prop_assert_eq!(compacted, f64::from(cc_run.iterations - 1));
    }

    #[test]
    fn label_propagation_matches_oracle(graph in arb_graph()) {
        let (want, _) = refalgo::label_propagation(&graph, 5);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&graph, &cfg);
        let device = DeviceConfig::titan_v_scaled(1 << 30);
        let engine = GcgtEngine::new(&cgr, device, Strategy::Full);
        let got = gcgt::core::label_propagation(&engine, 5);
        prop_assert_eq!(got.labels, want);
    }
}
