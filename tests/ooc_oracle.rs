//! Out-of-core oracle equivalence: every application produces **identical**
//! output when the graph streams through a tiny memory budget (constant
//! eviction churn) as when it is fully device-resident. Streaming changes
//! residency and transfer cost — never results.

use gcgt::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

fn graph() -> Csr {
    // Symmetrized so connected components are meaningful; big enough that a
    // tiny budget forces many partitions and evictions.
    web_graph(&WebParams::uk2002_like(1_200), 23).symmetrized()
}

/// An in-core session and a streaming session over the same graph; the
/// streaming one gets a budget of per-query scratch plus an eighth of the
/// compressed structure, so most of the graph is non-resident at any time.
fn session_pair() -> (Session, Session) {
    let g = graph();
    let incore = Session::builder()
        .graph(g.clone())
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();
    let scratch = incore.footprint() - incore.structure_bytes();
    let budget = scratch + (incore.structure_bytes() / 8).max(1);
    let ooc = Session::builder()
        .graph(g)
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .expect("tiny budgets still build out-of-core");
    assert!(ooc.is_streaming());
    assert!(
        ooc.num_partitions().unwrap() >= 8,
        "eighth-of-structure budget should force many partitions"
    );
    (incore, ooc)
}

#[test]
fn bfs_identical_under_eviction_churn() {
    let (incore, ooc) = session_pair();
    for source in [0, 7, 311] {
        let a = incore.run(Bfs::from(source));
        let b = ooc.run(Bfs::from(source));
        assert_eq!(a.output.depth, b.output.depth, "source {source}");
        assert_eq!(a.output.reached, b.output.reached);
        assert!(b.stats.partition_evictions >= 1, "budget too generous");
    }
}

#[test]
fn cc_identical_under_eviction_churn() {
    let (incore, ooc) = session_pair();
    let a = incore.run(Cc);
    let b = ooc.run(Cc);
    assert_eq!(a.output.component, b.output.component);
    assert_eq!(a.output.count, b.output.count);
    assert!(b.stats.partition_evictions >= 1);
}

#[test]
fn bc_identical_under_eviction_churn() {
    let (incore, ooc) = session_pair();
    let a = incore.run(Bc::from(2));
    let b = ooc.run(Bc::from(2));
    assert_eq!(a.output.depth, b.output.depth);
    assert_eq!(a.output.sigma, b.output.sigma);
    assert_eq!(a.output.delta, b.output.delta);
    assert!(b.stats.partition_evictions >= 1);
}

#[test]
fn pagerank_identical_under_eviction_churn() {
    let (incore, ooc) = session_pair();
    let a = incore.run(Pagerank::default());
    let b = ooc.run(Pagerank::default());
    // Bitwise equality: streaming must not perturb the float pipeline.
    assert_eq!(a.output.ranks, b.output.ranks);
    assert_eq!(a.output.iterations, b.output.iterations);
    assert!(b.stats.partition_evictions >= 1);
}

#[test]
fn labelprop_identical_under_eviction_churn() {
    let (incore, ooc) = session_pair();
    let a = incore.run(LabelProp::default());
    let b = ooc.run(LabelProp::default());
    assert_eq!(a.output.labels, b.output.labels);
    assert_eq!(a.output.communities, b.output.communities);
    assert!(b.stats.partition_evictions >= 1);
}

#[test]
fn heterogeneous_batch_identical_and_shares_the_cache() {
    let (incore, ooc) = session_pair();
    let queries = [
        Query::Bfs(0),
        Query::Cc,
        Query::Bc(5),
        Query::Pagerank(Pagerank::default()),
        Query::LabelProp(LabelProp::default()),
        Query::Bfs(42),
    ];
    let a = incore.run_batch(&queries);
    let b = ooc.run_batch(&queries);
    for (i, (x, y)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        match (x, y) {
            (QueryOutput::Bfs(p), QueryOutput::Bfs(q)) => assert_eq!(p.depth, q.depth, "query {i}"),
            (QueryOutput::Cc(p), QueryOutput::Cc(q)) => {
                assert_eq!(p.component, q.component, "query {i}")
            }
            (QueryOutput::Bc(p), QueryOutput::Bc(q)) => assert_eq!(p.sigma, q.sigma, "query {i}"),
            (QueryOutput::Pagerank(p), QueryOutput::Pagerank(q)) => {
                assert_eq!(p.ranks, q.ranks, "query {i}")
            }
            (QueryOutput::LabelProp(p), QueryOutput::LabelProp(q)) => {
                assert_eq!(p.labels, q.labels, "query {i}")
            }
            _ => panic!("query {i}: mismatched output variants"),
        }
    }
    // The batch shares one partition cache: later queries hit partitions
    // the earlier ones faulted, so faults grow sublinearly vs standalone.
    let standalone: u64 = queries
        .iter()
        .map(|&q| ooc.run(q).stats.partition_faults)
        .sum();
    assert!(
        b.stats.partition_faults < standalone,
        "batched faults {} should undercut standalone {}",
        b.stats.partition_faults,
        standalone
    );
}

#[test]
fn reordered_streaming_session_answers_in_original_ids() {
    let g = graph();
    let want = refalgo::bfs(&g, 17);
    let incore = Session::builder().graph(g.clone()).build().unwrap();
    let scratch = incore.footprint() - incore.structure_bytes();
    let session = Session::builder()
        .graph(g)
        .reorder(Reordering::DegSort)
        .memory_budget(scratch + (incore.structure_bytes() / 8).max(1))
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .unwrap();
    assert!(session.is_streaming());
    let run = session.run(Bfs::from(17));
    assert_eq!(run.output.depth, want.depth);
}

/// An arbitrary small symmetric graph (so connected components and pull
/// levels are meaningful).
fn arb_graph() -> impl PropStrategy<Value = Csr> {
    (8usize..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 1..360)
            .prop_map(move |edges| Csr::from_edges(n, &edges).symmetrized())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary graphs and budgets, in the push, direction-optimizing
    /// and 4-streaming-shard shapes: every application's answer, kernel
    /// estimate, cycle count, launch count, instruction tallies and memory
    /// counters are bitwise the in-core values — the residency plan moves
    /// only the transfer side — and a second run reproduces every statistic
    /// bitwise.
    #[test]
    fn streaming_moves_only_the_transfer_side(
        g in arb_graph(),
        eighths in 1usize..8,
        shape in 0usize..3,
    ) {
        let shaped = || {
            let b = Session::builder().graph(g.clone());
            match shape {
                1 => b.direction(DirectionMode::Adaptive),
                _ => b,
            }
        };
        let incore = shaped().engine(EngineKind::Gcgt(Strategy::Full)).build().unwrap();
        let scratch = incore.footprint() - incore.structure_bytes();
        let budget = scratch + (incore.structure_bytes() * eighths / 8).max(1);
        let mut streaming = shaped().memory_budget(budget).engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        });
        if shape == 2 {
            streaming = streaming.shards(4);
        }
        let streaming = match streaming.build() {
            Ok(session) => session,
            // One adjacency list can outweigh a very tight cache.
            Err(SessionError::Oom(_)) => return Ok(()),
            Err(e) => panic!("unexpected build failure: {e}"),
        };
        prop_assert!(streaming.is_streaming());
        let n = g.num_nodes() as u32;
        let queries = [
            Query::Bfs(3 % n),
            Query::Cc,
            Query::Bc(5 % n),
            Query::Pagerank(Pagerank::default()),
            Query::LabelProp(LabelProp::default()),
        ];
        for q in queries {
            let want = incore.run(q);
            let got = streaming.run(q);
            let mut answer = got.output.clone();
            *answer.stats_mut() = *want.output.stats();
            prop_assert_eq!(&answer, &want.output);
            prop_assert_eq!(got.stats.est_ms.to_bits(), want.stats.est_ms.to_bits());
            prop_assert_eq!(got.stats.cycles.to_bits(), want.stats.cycles.to_bits());
            prop_assert_eq!(got.stats.launches, want.stats.launches);
            prop_assert_eq!(got.stats.tally, want.stats.tally);
            prop_assert_eq!(got.stats.mem, want.stats.mem);
            prop_assert!(got.stats.partition_faults >= 1);
            prop_assert!(got.stats.partition_uploads <= got.stats.partition_faults);
            prop_assert_eq!(&streaming.run(q).stats, &got.stats);
        }
    }
}
