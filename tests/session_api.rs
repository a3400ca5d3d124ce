//! The Session API contract: builder validation, cross-engine equivalence,
//! id-space ownership under reordering, and batched multi-query residency.

use gcgt::prelude::*;

fn web() -> Csr {
    web_graph(&WebParams::uk2002_like(900), 5)
}

fn all_engine_kinds() -> Vec<EngineKind> {
    let mut kinds: Vec<EngineKind> = Strategy::LADDER.into_iter().map(EngineKind::Gcgt).collect();
    kinds.push(EngineKind::GpuCsr);
    kinds.push(EngineKind::Gunrock);
    kinds
}

// --- builder validation -------------------------------------------------

#[test]
fn builder_rejects_missing_and_empty_graphs() {
    assert_eq!(
        Session::builder().build().unwrap_err(),
        SessionError::MissingGraph
    );
    assert_eq!(
        Session::builder()
            .graph(Csr::from_edges(0, &[]))
            .build()
            .unwrap_err(),
        SessionError::EmptyGraph
    );
}

#[test]
fn builder_rejects_oom_devices_for_every_engine_kind() {
    let g = web();
    let device = DeviceConfig {
        mem_capacity: 64,
        ..DeviceConfig::default()
    };
    for kind in all_engine_kinds() {
        let err = Session::builder()
            .graph(g.clone())
            .device(device)
            .engine(kind)
            .build()
            .unwrap_err();
        match err {
            SessionError::Oom(oom) => {
                assert_eq!(oom.capacity, 64, "{}", kind.name());
                assert!(oom.requested > oom.capacity, "{}", kind.name());
            }
            other => panic!("{}: expected Oom, got {other:?}", kind.name()),
        }
    }
}

#[test]
fn builder_rejects_layout_mismatches_both_ways() {
    let g = toys::figure1();
    // Segmented config × strategy that reads the unsegmented layout.
    let err = Session::builder()
        .graph(g.clone())
        .engine(EngineKind::Gcgt(Strategy::TaskStealing))
        .compress(CgrConfig::paper_default()) // segmented
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        SessionError::LayoutMismatch {
            strategy: Strategy::TaskStealing,
            config_segmented: true,
        }
    ));
    // Unsegmented config × the full (segment-traversing) GCGT.
    let err = Session::builder()
        .graph(g)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .compress(CgrConfig::unsegmented())
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        SessionError::LayoutMismatch {
            strategy: Strategy::Full,
            config_segmented: false,
        }
    ));
}

#[test]
fn unencodable_compress_configs_are_errors_not_panics() {
    // Segments too short for one residual, and a zeta code with k = 0, used
    // to panic inside the encoder. The error names the field at fault.
    let g = web_graph(&WebParams::uk2002_like(2_000), 1);
    let build = |config| {
        Session::builder()
            .graph(g.clone())
            .compress(config)
            .build()
            .map(|_| ())
    };
    let segment = |s| CgrConfig {
        segment_len_bytes: Some(s),
        ..CgrConfig::paper_default()
    };
    for s in 0..3 {
        let err = build(segment(s)).unwrap_err().to_string();
        assert!(err.contains("CgrConfig::segment_len_bytes"), "{err}");
    }
    let err = build(CgrConfig {
        code: Code::Zeta(0),
        ..CgrConfig::paper_default()
    })
    .unwrap_err()
    .to_string();
    assert!(err.contains("CgrConfig::code"), "{err}");
    // The check is the encode itself, not a floor: three bytes encode.
    assert_eq!(build(segment(3)), Ok(()));
}

// --- cross-engine equivalence -------------------------------------------

#[test]
fn bfs_matches_the_serial_oracle_for_every_engine_kind() {
    let g = web();
    let want = refalgo::bfs(&g, 0);
    let shared = std::sync::Arc::new(g);
    for kind in all_engine_kinds() {
        let session = kind
            .session(shared.clone(), DeviceConfig::titan_v_scaled(1 << 30))
            .unwrap();
        let run = session.run(Bfs::from(0));
        assert_eq!(run.output.depth, want.depth, "{kind:?}");
        assert_eq!(run.output.reached, want.reached, "{kind:?}");
    }
}

#[test]
fn reordered_sessions_answer_in_original_ids_for_every_engine_kind() {
    let g = web();
    let source = 17u32;
    let want = refalgo::bfs(&g, source);
    for kind in all_engine_kinds() {
        let session = Session::builder()
            .graph(g.clone())
            .reorder(Reordering::DegSort)
            .device(DeviceConfig::titan_v_scaled(1 << 30))
            .engine(kind)
            .build()
            .unwrap();
        assert!(session.permutation().is_some());
        let run = session.run(Bfs::from(source));
        assert_eq!(run.output.depth, want.depth, "{kind:?}");
    }
}

#[test]
fn cc_and_bc_and_pagerank_match_oracles_through_sessions() {
    let g = social_graph(&SocialParams::ljournal_like(500), 6);

    let cc_session = Session::builder()
        .graph(g.clone())
        .symmetrize(true)
        .build()
        .unwrap();
    let got = cc_session.run(Cc);
    let want = refalgo::connected_components(&g.symmetrized());
    assert_eq!(got.output.component, want.component);
    assert_eq!(got.output.count, want.count);

    let session = Session::builder().graph(g.clone()).build().unwrap();
    let bc_run = session.run(Bc::from(0));
    let bc_want = refalgo::betweenness_from_source(&g, 0);
    assert_eq!(bc_run.output.sigma, bc_want.sigma);

    let pr_run = session.run(Pagerank::default());
    let (pr_want, _) = refalgo::pagerank(&g, refalgo::PagerankConfig::default());
    for (i, (&a, &b)) in pr_run.output.ranks.iter().zip(&pr_want).enumerate() {
        assert!((a - b).abs() < 1e-6, "rank[{i}] {a} vs {b}");
    }
}

#[test]
fn cc_through_a_reordered_session_matches_the_oracle() {
    // The session symmetrizes, reorders, traverses, and maps component
    // labels back to canonical original-id representatives.
    let g = social_graph(&SocialParams::ljournal_like(400), 9);
    let want = refalgo::connected_components(&g.symmetrized());
    let session = Session::builder()
        .graph(g)
        .symmetrize(true)
        .reorder(Reordering::DegSort)
        .build()
        .unwrap();
    let got = session.run(Cc);
    assert_eq!(got.output.component, want.component);
    assert_eq!(got.output.count, want.count);
}

// --- batched multi-query traversal --------------------------------------

#[test]
fn batch_over_eight_sources_reuses_one_device_residency() {
    let g = web();
    let session = Session::builder().graph(g).build().unwrap();
    let sources: Vec<Bfs> = (0..10).map(Bfs::from).collect();
    let batch = session.run_batch(&sources);

    // One upload, one residency: after every query its scratch is freed,
    // so the aggregate RunStats reports exactly one structure's worth of
    // allocated bytes — identical to a single run's — while the work of
    // all queries accumulated on that device.
    assert_eq!(batch.uploads, 1);
    let single = session.run(Bfs::from(0));
    assert_eq!(batch.stats.allocated_bytes, single.stats.allocated_bytes);
    assert_eq!(batch.stats.allocated_bytes, session.structure_bytes());
    assert!(session.structure_bytes() < session.footprint());
    // Between queries the device sits at the post-upload baseline: every
    // per-query snapshot reports the structure alone, scratch released.
    for (i, q) in batch.per_query.iter().enumerate() {
        assert_eq!(
            q.allocated_bytes,
            session.structure_bytes(),
            "query {i} left scratch allocated"
        );
    }
    assert_eq!(
        batch.stats.launches,
        batch.per_query.iter().map(|s| s.launches).sum::<u64>()
    );
    assert!(batch.stats.launches > single.stats.launches);

    // Per-query outputs are real per-query results.
    assert_eq!(batch.outputs.len(), 10);
    for (i, out) in batch.outputs.iter().enumerate() {
        assert_eq!(out.depth[i], 0, "query {i} starts at its own source");
    }

    // Amortization: one upload beats ten.
    let standalone: f64 = (0..10).map(|s| session.run(Bfs::from(s)).total_ms()).sum();
    assert!(
        batch.total_ms() < standalone,
        "batched {} ms vs standalone {} ms",
        batch.total_ms(),
        standalone
    );
}

#[test]
fn heterogeneous_query_batches_run_on_one_residency() {
    let g = social_graph(&SocialParams::ljournal_like(300), 3);
    let session = Session::builder()
        .graph(g.clone())
        .symmetrize(true)
        .build()
        .unwrap();
    let queries = [
        Query::Bfs(0),
        Query::Cc,
        Query::Bc(1),
        Query::Pagerank(Pagerank::default()),
        Query::LabelProp(LabelProp::default()),
    ];
    let batch = session.run_batch(&queries);
    assert_eq!(batch.uploads, 1);
    assert_eq!(batch.outputs.len(), queries.len());
    let sym = g.symmetrized();
    match &batch.outputs[0] {
        QueryOutput::Bfs(run) => assert_eq!(run.depth, refalgo::bfs(&sym, 0).depth),
        other => panic!("expected Bfs output, got {other:?}"),
    }
    match &batch.outputs[1] {
        QueryOutput::Cc(run) => {
            assert_eq!(run.component, refalgo::connected_components(&sym).component)
        }
        other => panic!("expected Cc output, got {other:?}"),
    }
    // Per-query stats partition the aggregate.
    let total: f64 = batch.per_query.iter().map(|s| s.est_ms).sum();
    assert!((total - batch.stats.est_ms).abs() < 1e-9);
}

#[test]
fn batch_per_query_stats_are_deterministic_and_match_standalone_runs() {
    let g = web();
    let session = Session::builder().graph(g).build().unwrap();
    let sources: Vec<Bfs> = (0..4).map(Bfs::from).collect();
    let batch = session.run_batch(&sources);
    for (i, per) in batch.per_query.iter().enumerate() {
        let single = session.run(Bfs::from(i as u32));
        assert_eq!(per.launches, single.stats.launches, "query {i}");
        assert_eq!(per.tally, single.stats.tally, "query {i}");
        assert!(
            (per.est_ms - single.stats.est_ms).abs() < 1e-12,
            "query {i}"
        );
    }
}

// --- direction-optimizing traversal (acceptance) ------------------------

/// The PR's acceptance contract: `DirectionMode::Adaptive` BFS output is
/// bitwise `DirectionMode::Push`'s on **every** engine kind (and so are the
/// per-query `RunStats` whenever the density heuristic picks push at every
/// level — here forced by a sparse-frontier graph); on the low-diameter
/// generator the adaptive schedule must expand strictly fewer edges.
#[test]
fn adaptive_direction_acceptance_across_engine_kinds() {
    // High-diameter symmetric chain: the heuristic never fires, so
    // adaptive == push bitwise, output and statistics alike.
    let chain = {
        let n = 400u32;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
        Csr::from_edges(n as usize, &edges)
    };
    for kind in all_engine_kinds() {
        let run_with = |direction: DirectionMode| {
            Session::builder()
                .graph(chain.clone())
                .engine(kind)
                .direction(direction)
                .build()
                .unwrap()
                .run(Bfs::from(0))
        };
        let push = run_with(DirectionMode::Push);
        let adaptive = run_with(DirectionMode::Adaptive);
        assert_eq!(push.output, adaptive.output, "{kind:?}");
        assert_eq!(push.stats, adaptive.stats, "{kind:?}");
    }

    // Low-diameter social graph: adaptive pulls and saves expanded edges
    // while answering identically (output depths bitwise equal).
    let social = social_graph(&SocialParams::twitter_like(800), 12);
    for kind in all_engine_kinds() {
        let run_with = |direction: DirectionMode| {
            Session::builder()
                .graph(social.clone())
                .symmetrize(true)
                .engine(kind)
                .direction(direction)
                .build()
                .unwrap()
                .run(Bfs::from(0))
        };
        let push = run_with(DirectionMode::Push);
        let adaptive = run_with(DirectionMode::Adaptive);
        assert_eq!(push.output.depth, adaptive.output.depth, "{kind:?}");
        assert!(adaptive.stats.pull_steps >= 1, "{kind:?}");
        assert!(
            adaptive.stats.pushed_edges + adaptive.stats.pulled_edges
                < push.stats.pushed_edges + push.stats.pulled_edges,
            "{kind:?}"
        );
    }
}

#[test]
fn direction_defaults_to_push_and_run_batch_composes() {
    let session = Session::builder().graph(web()).build().unwrap();
    assert_eq!(session.direction(), DirectionMode::Push);

    // Batched adaptive queries share one residency and keep per-query
    // direction counters attributable.
    let sym = Session::builder()
        .graph(web())
        .symmetrize(true)
        .direction(DirectionMode::Adaptive)
        .build()
        .unwrap();
    let sources: Vec<Bfs> = (0..4).map(Bfs::from).collect();
    let batch = sym.run_batch(&sources);
    assert_eq!(batch.uploads, 1);
    for (i, per) in batch.per_query.iter().enumerate() {
        let solo = sym.run(sources[i]);
        assert_eq!(solo.output.depth, batch.outputs[i].depth, "query {i}");
        assert_eq!(solo.stats.pull_steps, per.pull_steps, "query {i}");
        assert_eq!(solo.stats.pushed_edges, per.pushed_edges, "query {i}");
    }
}

// --- compress-time code autotuning --------------------------------------

/// `compress_auto()` picks the code per dataset at build time. On a
/// paper-like web graph the tuner lands on ζ3 — the default — so the whole
/// session (encoding, stats, query output) is identical to the untuned
/// build; an explicit `compress(..)` still takes precedence.
#[test]
fn compress_auto_tunes_the_code_per_dataset() {
    let g = web_graph(&WebParams::eu2015_like(900), 5);
    let device = DeviceConfig::titan_v_scaled(1 << 30);
    let auto = Session::builder()
        .graph(g.clone())
        .compress_auto()
        .device(device)
        .build()
        .unwrap();
    assert_eq!(auto.cgr().unwrap().config().code, Code::Zeta(3));
    let default = Session::builder()
        .graph(g.clone())
        .device(device)
        .build()
        .unwrap();
    assert_eq!(
        auto.cgr().unwrap().stats(),
        default.cgr().unwrap().stats(),
        "ζ3 autotune must be bitwise the default build"
    );
    let want = refalgo::bfs(&g, 0);
    let run = auto.run(Bfs::from(0));
    assert_eq!(run.output.depth, want.depth);
    assert_eq!(run.output.reached, want.reached);

    // Explicit compress(..) wins over the tuner.
    let explicit = Session::builder()
        .graph(g)
        .compress_auto()
        .compress(CgrConfig {
            code: Code::Delta,
            ..CgrConfig::paper_default()
        })
        .device(device)
        .build()
        .unwrap();
    assert_eq!(explicit.cgr().unwrap().config().code, Code::Delta);
}

// --- failures as values -------------------------------------------------

/// A deferred-validation load of `g` with one payload bit flipped that only
/// full validation catches: it loads, and the partition holding it fails
/// at first touch.
fn deferred_corrupt(g: &Csr) -> CgrGraph {
    let cgr = CgrGraph::encode(g, &CgrConfig::paper_default());
    let mut buf = Vec::new();
    gcgt::cgr::io::write_cgr(&cgr, &mut buf).expect("in-memory write");
    for byte in buf.len() - 64..buf.len() {
        for bit in 0..8u8 {
            let mut c = buf.clone();
            c[byte] ^= 1 << bit;
            if CgrGraph::from_bytes(&c).is_err() {
                if let Ok(cgr) = gcgt::cgr::io::read_cgr_with(&c[..], ValidationMode::Deferred) {
                    return cgr;
                }
            }
        }
    }
    panic!("some payload flip is caught by validation only")
}

/// Every way a query can fail returns the failure from `try_run` and
/// leaves the executor as it was; `run` panics with the same message. The
/// three session shapes each meet a plan that exhausts the domain they
/// gate (the scratch allocation in-core, the partition upload when
/// streaming, the boundary exchange when sharded), a query plan at 1000‰,
/// and a deferred-corrupt payload — which an in-core or sharded in-core
/// build validates whole and rejects, so the streaming shape carries it.
#[test]
fn failures_are_values_and_run_panics_with_their_message() {
    let g = web_graph(&WebParams::uk2002_like(600), 7);
    let incore = Session::builder().graph(g.clone()).build().expect("probe");
    let budget =
        (incore.footprint() - incore.structure_bytes()) + (incore.structure_bytes() / 4).max(1);
    let shape = |name: &str, builder: SessionBuilder| match name {
        "in-core" => builder,
        "streaming" => builder.memory_budget(budget).engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        }),
        _ => builder.shards(4),
    };
    // Retries disabled and every operation of `domain` failing.
    let exhausting = |domain| {
        let mut plan = FaultPlan {
            retry: RetryPolicy::disabled(),
            ..FaultPlan::empty()
        };
        let rate = match domain {
            "device-alloc" => &mut plan.device_alloc,
            "transfer" => &mut plan.transfer,
            _ => &mut plan.exchange,
        };
        *rate = FaultRate::new(1000, u32::MAX);
        plan
    };
    let failing_queries = FaultPlan {
        query: FaultRate::new(1000, 1),
        ..FaultPlan::empty()
    };
    let query = Query::Pagerank(Pagerank::default());
    for (name, domain) in [
        ("in-core", "device-alloc"),
        ("streaming", "transfer"),
        ("4-shard", "exchange"),
    ] {
        let plain = || shape(name, Session::builder().graph(g.clone()));
        let mut cases = vec![
            (
                plain().fault_plan(exhausting(domain)),
                TypedFailure::FaultBudgetExhausted {
                    domain,
                    failures: 1,
                },
            ),
            (
                plain().fault_plan(failing_queries),
                TypedFailure::InjectedQueryFailure,
            ),
        ];
        let corrupt = shape(
            name,
            Session::builder().graph_compressed(deferred_corrupt(&g)),
        );
        if name == "streaming" {
            cases.push((corrupt, TypedFailure::CorruptGraph(String::new())));
        } else {
            assert!(
                matches!(corrupt.build(), Err(SessionError::CorruptGraph(_))),
                "{name}: an in-core build validates the payload whole"
            );
        }
        for (builder, want) in cases {
            let session = builder.build().expect("every failing shape builds");
            let mut executor = session.executor();
            let (allocated, served, busy) = (
                executor.allocated(),
                executor.queries_served(),
                executor.busy_ms(),
            );
            let failure = executor.try_run(query).expect_err("the query must fail");
            match (&want, &failure) {
                (TypedFailure::CorruptGraph(_), TypedFailure::CorruptGraph(msg)) => {
                    assert!(msg.starts_with("corrupt CGR payload in partition"), "{msg}");
                }
                _ => assert_eq!(failure, want, "{name}"),
            }
            assert_eq!(executor.allocated(), allocated, "{name}: {failure}");
            assert_eq!(executor.queries_served(), served, "{name}: {failure}");
            assert_eq!(
                executor.busy_ms().to_bits(),
                busy.to_bits(),
                "{name}: {failure}"
            );

            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run(query)))
                    .expect_err("run panics where try_run fails");
            assert_eq!(
                panic.downcast_ref::<String>(),
                Some(&failure.to_string()),
                "{name}"
            );
        }
    }
}
