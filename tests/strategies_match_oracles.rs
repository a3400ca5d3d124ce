//! Cross-crate correctness matrix: every engine behind the one `Expander`
//! trait — each GCGT strategy, both GPU baselines, the streaming engine and
//! the sharded engines — must produce oracle-identical results for every
//! application across the structurally distinct graph families, and honour
//! the memory contract the trait documents.

// The low-level engine layer is exercised deliberately here.
use gcgt::core::engine::schedule;
use gcgt::core::kernels::CollectSink;
use gcgt::core::{
    bc, bc_in, bfs, bfs_in, cc, cc_in, compact_frontier, label_propagation_in, launch_expansion,
    pagerank, pagerank_in, BcRun,
};
use gcgt::graph::UNREACHED;
use gcgt::prelude::*;
use gcgt::simt::Space;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use std::sync::Arc;

fn families() -> Vec<(&'static str, Csr)> {
    vec![
        ("figure1", toys::figure1()),
        ("grid", toys::grid(12, 9)),
        ("binary_tree", toys::binary_tree(7)),
        ("web", web_graph(&WebParams::uk2002_like(900), 5)),
        ("social", social_graph(&SocialParams::ljournal_like(700), 6)),
        ("skewed", social_graph(&SocialParams::twitter_like(700), 7)),
        (
            "brain",
            brain_like(
                &BrainParams {
                    nodes: 600,
                    cluster_size: 80,
                    intra_band_frac: 0.5,
                    inter_links: 5,
                    random_links: 3,
                },
                8,
            ),
        ),
        ("rmat", rmat(10, 8_000, RmatParams::default(), 9)),
        ("sparse", erdos_renyi(500, 700, 10)),
    ]
}

fn device() -> DeviceConfig {
    DeviceConfig::titan_v_scaled(1 << 30)
}

/// Everything the engine table borrows, built once per graph.
struct Fixture {
    graph: Csr,
    /// One payload per [`Strategy::LADDER`] rung, in ladder order.
    cgrs: Vec<CgrGraph>,
    /// Streaming partitions of the `Full` payload.
    parts: PartitionMap,
    /// Four-device placement of the `Full` payload.
    plan: ShardPlan,
}

impl Fixture {
    fn new(graph: Csr) -> Self {
        let cgrs: Vec<CgrGraph> = Strategy::LADDER
            .iter()
            .map(|s| CgrGraph::encode(&graph, &s.cgr_config(&CgrConfig::paper_default())))
            .collect();
        let full = &cgrs[Strategy::LADDER.len() - 1];
        let parts = PartitionMap::build(full, 1 << 10);
        let plan = ShardPlan::build(full, 4);
        Fixture {
            graph,
            cgrs,
            parts,
            plan,
        }
    }

    /// The base engines: every single-device `Expander` the workspace
    /// ships, one maker each. A new engine is one more entry here, and
    /// every test below covers it — bare and sharded.
    fn base_engines(&self, dc: DeviceConfig, direction: DirectionMode) -> Vec<Base<'_>> {
        let full = &self.cgrs[Strategy::LADDER.len() - 1];
        // Room for two partitions: the streaming rows evict on every graph
        // with more than two.
        let cache_budget = 2 * self.parts.max_partition_bytes();
        let mut bases: Vec<Base<'_>> = Vec::new();
        for (strategy, cgr) in Strategy::LADDER.into_iter().zip(&self.cgrs) {
            bases.push(Base {
                row: strategy.name(),
                shard_row: (strategy == Strategy::Full).then_some("shard4-gcgt"),
                private_residency: false,
                make: Box::new(move || {
                    let engine = GcgtEngine::new(cgr, dc, strategy);
                    Box::new(engine.with_direction(direction))
                }),
            });
        }
        bases.push(Base {
            row: "gpucsr",
            shard_row: Some("shard4-gpucsr"),
            private_residency: false,
            make: Box::new(move || {
                let engine = GpuCsrEngine::new(&self.graph, dc);
                Box::new(engine.with_direction(direction))
            }),
        });
        bases.push(Base {
            row: "gunrock",
            shard_row: Some("shard4-gunrock"),
            private_residency: false,
            make: Box::new(move || {
                let engine = GunrockEngine::new(&self.graph, dc);
                Box::new(engine.with_direction(direction))
            }),
        });
        bases.push(Base {
            row: "ooc",
            shard_row: Some("shard4-ooc"),
            private_residency: true,
            make: Box::new(move || {
                let inner = GcgtEngine::new(full, dc, Strategy::Full).with_direction(direction);
                Box::new(OocEngine::new(inner, &self.parts, cache_budget).unwrap())
            }),
        });
        bases
    }

    /// `base` sharded over `plan`: one engine per device when it keeps a
    /// residency of its own, one shared engine otherwise.
    fn sharded<'a>(&'a self, base: &Base<'a>, plan: &'a ShardPlan) -> Box<dyn Expander + 'a> {
        let engines = if base.private_residency {
            plan.devices()
        } else {
            1
        };
        Box::new(ShardEngine::new(
            &self.graph,
            plan,
            Link::nvlink(),
            (0..engines).map(|_| (base.make)()).collect(),
        ))
    }

    /// The engine table: every base engine, then the sharded rows — which
    /// are base rows wrapped, sharding being a decorator.
    fn engines(
        &self,
        dc: DeviceConfig,
        direction: DirectionMode,
    ) -> Vec<(&'static str, Box<dyn Expander + '_>)> {
        let bases = self.base_engines(dc, direction);
        let mut rows: Vec<_> = bases.iter().map(|b| (b.row, (b.make)())).collect();
        for base in &bases {
            if let Some(row) = base.shard_row {
                rows.push((row, self.sharded(base, &self.plan)));
            }
        }
        rows
    }
}

/// One base row of the engine table: how to build the engine (as often as a
/// sharded row needs), and how its sharded row is set up.
struct Base<'a> {
    row: &'static str,
    /// Name of the row that shards this engine over four devices; `None`
    /// keeps the table small where a sibling row covers the same kernels.
    shard_row: Option<&'static str>,
    /// Whether the engine keeps device residency of its own (a partition
    /// cache), so that shards must not share one instance.
    private_residency: bool,
    make: Box<dyn Fn() -> Box<dyn Expander + 'a> + 'a>,
}

fn is_gpu_baseline(row: &str) -> bool {
    matches!(row, "gpucsr" | "gunrock")
}

/// Sharding over one device adds nothing: the decorator is the bare inner
/// engine, outputs and every `RunStats` counter alike, for every base row.
#[test]
fn one_device_decorator_is_the_bare_engine() {
    for (name, graph) in families() {
        if !matches!(name, "figure1" | "web" | "skewed") {
            continue;
        }
        let fx = Fixture::new(graph.symmetrized());
        let plan = ShardPlan::build(&fx.cgrs[Strategy::LADDER.len() - 1], 1);
        // From node 0, and from the hub: its one-node first level is split
        // across warps by the engines that can split.
        let hub = hub_of(&fx.graph);
        for direction in [DirectionMode::Push, DirectionMode::Adaptive] {
            for base in fx.base_engines(device(), direction) {
                let ctx = format!("{name} / {} / {direction:?}", base.row);
                // A streaming engine's cache lives and dies with one device,
                // so every run gets engines of its own.
                let pair = || ((base.make)(), fx.sharded(&base, &plan));
                for source in [0, hub] {
                    let (bare, wrapped) = pair();
                    let (a, b) = (bfs(&*bare, source), bfs(&*wrapped, source));
                    assert_eq!(a.depth, b.depth, "{ctx} / source {source}");
                    assert_eq!(a.stats, b.stats, "{ctx} / source {source}");
                }
                let (bare, wrapped) = pair();
                let (a, b) = (cc(&*bare), cc(&*wrapped));
                assert_eq!(a.component, b.component, "{ctx}");
                assert_eq!(a.stats, b.stats, "{ctx}");
            }
        }
    }
}

/// The highest-degree node (lowest id on a tie).
fn hub_of(graph: &Csr) -> NodeId {
    (0..graph.num_nodes() as NodeId)
        .max_by_key(|&u| (graph.degree(u), std::cmp::Reverse(u)))
        .expect("a non-empty graph")
}

/// The kernel-side part of `RunStats`: what the schedule decides. Residency
/// (`transfer_ms`, faults) and placement (`exchange_ms`, sync steps) are
/// charged beside it by the engine shape.
fn kernel_side(s: &RunStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.est_ms.to_bits(), s.cycles.to_bits(), s.launches),
        (s.tally, s.mem),
        (s.pushed_edges, s.pulled_edges, s.push_steps, s.pull_steps),
    )
}

/// The schedule is a function of the work list, degrees and the device —
/// never of the engine shape: a BFS whose first level is a lone hub, split
/// across warps, costs bitwise the same kernel work in core, sharded over
/// one or four devices, and streamed through a cache that fits the graph.
#[test]
fn a_hub_splits_alike_under_every_engine_shape() {
    let fx = Fixture::new(social_graph(&SocialParams::twitter_like(700), 7).symmetrized());
    let full = &fx.cgrs[Strategy::LADDER.len() - 1];
    let hub = hub_of(&fx.graph);
    let incore = GcgtEngine::new(full, device(), Strategy::Full);
    let metrics = Arc::new(MetricsRegistry::new());
    let mut dev = incore.new_device().unwrap();
    dev.set_observer(ObserverHandle::from_arc(metrics.clone()));
    let want = bfs_in(&incore, &mut dev, hub).unwrap();
    assert!(
        metrics.value("gcgt_split_nodes_total") >= Some(1.0),
        "hub {hub} of degree {} was not split",
        fx.graph.degree(hub)
    );

    let (one, four) = (ShardPlan::build(full, 1), ShardPlan::build(full, 4));
    let shard = |plan| {
        let inner = GcgtEngine::new(full, device(), Strategy::Full);
        ShardEngine::new(&fx.graph, plan, Link::nvlink(), vec![Box::new(inner)])
    };
    let cache_budget = fx.parts.max_resident_bytes() * fx.parts.len();
    let ooc = OocEngine::new(
        GcgtEngine::new(full, device(), Strategy::Full),
        &fx.parts,
        cache_budget,
    )
    .unwrap();
    let d1 = bfs(&shard(&one), hub);
    assert_eq!(d1.stats, want.stats, "d = 1 is the bare engine");
    for (shape, run) in [("d = 4", bfs(&shard(&four), hub)), ("ooc", bfs(&ooc, hub))] {
        assert_eq!(run.depth, want.depth, "{shape}");
        assert_eq!(kernel_side(&run.stats), kernel_side(&want.stats), "{shape}");
    }
}

/// An arbitrary graph with a hub: random edges among `n` nodes, plus up to
/// 400 scattered neighbours of node 0.
fn arb_hub_graph() -> impl PropStrategy<Value = Csr> {
    (40usize..2_000).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..600),
            proptest::collection::vec(0..n as u32, 0..400),
        )
            .prop_map(move |(mut edges, hub)| {
                edges.extend(hub.into_iter().map(|v| (0, v)));
                Csr::from_edges(n, &edges)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The schedule changes who expands what, never what is expanded: for
    /// every engine and frontier sizes of 1, under `num_sms`, under
    /// `num_sms × warp_width` and beyond, the warps of one launch emit the
    /// work list's adjacency exactly once and no warp is empty. No warp
    /// holds more than `⌈len / num_sms⌉` (at most `warp_width`) nodes, only
    /// nodes above the schedule's edge `target` are split, and in a
    /// device-filling frontier that is not every node a warp of two or more
    /// whole nodes holds at most `target` edges.
    #[test]
    fn every_schedule_expands_the_work_list_exactly_once(
        graph in arb_hub_graph(),
        size_class in 0usize..4,
        seed in 0u64..1_000,
    ) {
        // 4 SMs × 8 lanes: the size classes are 1, 2–3, 4–31 and 32+.
        let dc = DeviceConfig::test_tiny();
        let (sms, width) = (dc.num_sms, dc.warp_width);
        let n = graph.num_nodes();
        let size = [1, 2 + seed as usize % 2, sms + seed as usize % (sms * width - sms),
            sms * width + seed as usize % (n - sms * width + 1)][size_class];
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&u| (u64::from(u) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut frontier = order[..size].to_vec();
        if seed % 2 == 0 && !frontier.contains(&0) {
            frontier[size / 2] = 0; // the hub
        }
        let mut want: Vec<(NodeId, NodeId)> = frontier
            .iter()
            .flat_map(|&u| graph.neighbors(u).iter().map(move |&v| (u, v)))
            .collect();
        want.sort_unstable();

        let fx = Fixture::new(graph);
        for (row, engine) in fx.engines(dc, DirectionMode::Push) {
            let warps = schedule(&*engine, &frontier, true);
            let mut covered = Vec::new();
            for w in &warps {
                prop_assert!(!w.nodes.is_empty(), "{row}: empty warp");
                if w.share == 0 {
                    covered.extend_from_slice(w.nodes);
                }
            }
            prop_assert_eq!(&covered, &frontier);
            let per_warp = size.div_ceil(sms).clamp(1, width);
            let degree = |u: NodeId| engine.out_degree(u);
            let total: usize = frontier.iter().map(|&u| degree(u)).sum();
            let target = total.div_ceil(size.div_ceil(per_warp).max(sms)).max(width);
            for w in &warps {
                prop_assert!(w.nodes.len() <= per_warp, "{row}: {} nodes", w.nodes.len());
                let edges: usize = w.nodes.iter().map(|&u| degree(u)).sum();
                if w.is_share() {
                    prop_assert!(edges > target, "{row}: split {edges} <= {target}");
                } else if w.nodes.len() >= 2 && dc.fills_device(size) && size < n {
                    prop_assert!(edges <= target, "{row}: {edges} edges > {target}");
                }
            }

            let mut dev = engine.new_device().unwrap();
            let sinks = launch_expansion(&*engine, &mut dev, &frontier, "push", CollectSink::default)
                .unwrap();
            prop_assert_eq!(sinks.len(), warps.len());
            for (w, sink) in warps.iter().zip(&sinks) {
                prop_assert!(!w.is_share() || !sink.pairs.is_empty(), "{row}: empty share");
            }
            let mut got: Vec<(NodeId, NodeId)> =
                sinks.into_iter().flat_map(|s| s.pairs).collect();
            got.sort_unstable();
            prop_assert!(got == want, "{row}: size {size}, {} warps", warps.len());
        }
    }
}

/// The compaction computes the edge cut's degree prefix from each engine's
/// own index and reads no payload: every address an engine hands it lies
/// in `Space::Offsets`, none on a `Space::Graph` line, and the launch moves
/// no residency and exchanges nothing.
#[test]
fn compaction_touches_no_graph_line() {
    let fx = Fixture::new(web_graph(&WebParams::uk2002_like(900), 5));
    let n = fx.graph.num_nodes() as NodeId;
    let offsets = Space::Offsets.addr(0)..Space::Frontier.addr(0);
    for (row, engine) in fx.engines(device(), DirectionMode::Push) {
        let mut addrs = Vec::new();
        for u in 0..n {
            engine.index_addrs(u, &mut addrs);
        }
        assert!(addrs.len() >= 2 * n as usize, "{row}");
        assert!(addrs.iter().all(|a| offsets.contains(a)), "{row}");
        let mut dev = engine.new_device().unwrap();
        let before = dev.stats();
        let mut frontier: Vec<NodeId> = (0..n).rev().step_by(3).collect();
        compact_frontier(&*engine, &mut dev, &mut frontier);
        let delta = dev.stats().since(&before);
        assert_eq!(delta.launches, 1, "{row}");
        assert_eq!(delta.partition_faults, 0, "{row}");
        assert_eq!((delta.transfer_ms, delta.exchange_ms), (0.0, 0.0), "{row}");
    }
}

fn assert_bc_matches(got: &BcRun, want: &refalgo::BcResult, ctx: &str) {
    assert_eq!(got.depth, want.depth, "{ctx}");
    assert_eq!(got.sigma, want.sigma, "{ctx}: σ is exact in f64");
    for (i, (&a, &b)) in got.delta.iter().zip(&want.delta).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())),
            "{ctx}: δ[{i}] {a} vs {b}"
        );
    }
}

fn assert_ranks_match(got: &[f64], want: &[f64], ctx: &str) {
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!((a - b).abs() < 1e-6, "{ctx}: rank[{i}] {a} vs {b}");
    }
}

#[test]
fn bfs_matches_oracle_for_every_strategy_and_family() {
    for (name, graph) in families() {
        let want = refalgo::bfs(&graph, 0);
        let fx = Fixture::new(graph);
        for (row, engine) in fx.engines(device(), DirectionMode::Push) {
            if is_gpu_baseline(row) {
                continue;
            }
            let got = bfs(&*engine, 0);
            assert_eq!(got.depth, want.depth, "{name} / {row}");
            assert_eq!(got.reached, want.reached, "{name} / {row}");
        }
    }
}

#[test]
fn bfs_matches_oracle_for_gpu_baselines() {
    for (name, graph) in families() {
        let want = refalgo::bfs(&graph, 0);
        let fx = Fixture::new(graph);
        for (row, engine) in fx.engines(device(), DirectionMode::Push) {
            if is_gpu_baseline(row) {
                assert_eq!(bfs(&*engine, 0).depth, want.depth, "{name} / {row}");
            }
        }
    }
}

#[test]
fn bfs_matches_oracle_for_cpu_baselines() {
    for (name, graph) in families() {
        let want = refalgo::bfs(&graph, 0);
        let ligra = LigraGraph::new(&graph);
        assert_eq!(ligra.bfs(0).result, want.depth, "{name} / ligra");
        let lplus = LigraPlusGraph::new(&graph);
        assert_eq!(lplus.bfs(0).result, want.depth, "{name} / ligra+");
    }
}

#[test]
fn cc_matches_oracle_across_engines() {
    for (name, graph) in families() {
        let want = refalgo::connected_components(&graph);
        let fx = Fixture::new(graph.symmetrized());
        for (row, engine) in fx.engines(device(), DirectionMode::Push) {
            let got = cc(&*engine);
            assert_eq!(got.component, want.component, "{name} / {row}");
            assert_eq!(got.count, want.count, "{name} / {row}");
        }
    }
}

#[test]
fn bc_matches_oracle_across_engines() {
    for (name, graph) in families() {
        let want = refalgo::betweenness_from_source(&graph, 0);
        let fx = Fixture::new(graph);
        for (row, engine) in fx.engines(device(), DirectionMode::Push) {
            assert_bc_matches(&bc(&*engine, 0), &want, &format!("{name} / {row}"));
        }
    }
}

/// Adaptive BC pulls forward levels and backward steps under every engine
/// shape, and the pairs reach the host merge in one order: streamed through
/// a partition cache or sharded over four devices, depth, σ and δ are
/// bitwise the in-core answer.
#[test]
fn adaptive_bc_is_bitwise_across_engine_shapes() {
    let fx = Fixture::new(social_graph(&SocialParams::twitter_like(700), 7).symmetrized());
    let source = 7;
    let want = refalgo::betweenness_from_source(&fx.graph, source);
    // The backward pass takes both directions: a level with fewer edges
    // than the one above it (its step pulls), and one with at least as many
    // (its step pushes).
    let mut level_edges = vec![0usize; fx.graph.num_nodes()];
    for (v, &d) in want.depth.iter().enumerate() {
        if d != UNREACHED {
            level_edges[d as usize] += fx.graph.degree(v as NodeId);
        }
    }
    let deepest = *want
        .depth
        .iter()
        .filter(|&&d| d != UNREACHED)
        .max()
        .unwrap() as usize;
    let mut steps = level_edges[..=deepest].windows(2);
    assert!(steps.clone().any(|e| e[1] < e[0]) && steps.any(|e| e[1] >= e[0]));
    let rows = fx.engines(device(), DirectionMode::Adaptive);
    let run = |name: &str| {
        let (_, engine) = rows.iter().find(|(row, _)| *row == name).unwrap();
        bc(&**engine, source)
    };
    let in_core = run(Strategy::Full.name());
    assert_bc_matches(&in_core, &want, "in-core");
    for row in ["ooc", "shard4-gcgt", "shard4-ooc"] {
        let got = run(row);
        assert_eq!(got.depth, in_core.depth, "{row}");
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.sigma), bits(&in_core.sigma), "{row}: σ");
        assert_eq!(bits(&got.delta), bits(&in_core.delta), "{row}: δ");
    }
}

#[test]
fn pagerank_matches_oracle() {
    for (name, graph) in families().into_iter().take(5) {
        let (want, _) = refalgo::pagerank(&graph, refalgo::PagerankConfig::default());
        let fx = Fixture::new(graph);
        for (row, engine) in fx.engines(device(), DirectionMode::Push) {
            let got = pagerank(&*engine, 0.85, 100, 1e-9);
            assert_ranks_match(&got.ranks, &want, &format!("{name} / {row}"));
        }
    }
}

#[test]
fn warp_width_does_not_affect_results() {
    let graph = web_graph(&WebParams::uk2002_like(600), 77);
    let want = refalgo::bfs(&graph, 0);
    let fx = Fixture::new(graph);
    for width in [4usize, 8, 16, 32, 64] {
        let mut dc = device();
        dc.warp_width = width;
        for (row, engine) in fx.engines(dc, DirectionMode::Push) {
            assert_eq!(bfs(&*engine, 0).depth, want.depth, "width {width} {row}");
        }
    }
}

/// The contract `Expander` documents, held for every row: the footprint
/// splits into structure + scratch, a fresh device holds exactly the
/// structure, every app returns the device to that baseline once residency
/// is released, all five apps equal the serial oracles, and pulling changes
/// no BFS depth.
#[test]
fn every_engine_honours_the_expander_contract() {
    // A toy, a locality-heavy crawl and a skewed social graph: the shapes
    // that separate the kernels and the push/pull directions.
    let picked = |name: &str| matches!(name, "figure1" | "web" | "skewed");
    for (name, graph) in families().into_iter().filter(|(name, _)| picked(name)) {
        let sym = graph.symmetrized();
        let bfs_want = refalgo::bfs(&sym, 0);
        let cc_want = refalgo::connected_components(&sym);
        let bc_want = refalgo::betweenness_from_source(&sym, 0);
        // The full-length PageRank / label-propagation runs are pinned per
        // engine above and in the oracle suites; the contract needs only a
        // few rounds of each.
        let short = refalgo::PagerankConfig {
            max_iters: 10,
            ..Default::default()
        };
        let (ranks_want, _) = refalgo::pagerank(&sym, short);
        let (labels_want, _) = refalgo::label_propagation(&sym, 5);
        let fx = Fixture::new(sym);
        let push = fx.engines(device(), DirectionMode::Push);
        let pull = fx.engines(device(), DirectionMode::Pull);
        for ((row, engine), (_, pulling)) in push.iter().zip(&pull) {
            let (engine, pulling) = (&**engine, &**pulling);
            let ctx = format!("{name} / {row}");
            let structure = engine.structure_bytes();
            assert_eq!(
                engine.footprint(),
                structure + engine.scratch_bytes(),
                "{ctx}"
            );
            let mut dev = engine.new_device().unwrap();
            assert_eq!(dev.allocated(), structure, "{ctx}");
            let at_baseline = |dev: &mut Device, app: &str| {
                engine.release_residency(dev);
                assert_eq!(dev.allocated(), structure, "{ctx}: after {app}");
            };

            let got = bfs_in(engine, &mut dev, 0).unwrap();
            at_baseline(&mut dev, "bfs");
            assert_eq!(got.depth, bfs_want.depth, "{ctx}");
            assert_eq!(got.reached, bfs_want.reached, "{ctx}");
            assert_eq!(bfs(pulling, 0).depth, got.depth, "{ctx}: pull vs push");

            let got = cc_in(engine, &mut dev).unwrap();
            at_baseline(&mut dev, "cc");
            assert_eq!(got.component, cc_want.component, "{ctx}");
            assert_eq!(got.count, cc_want.count, "{ctx}");

            let got = bc_in(engine, &mut dev, 0).unwrap();
            at_baseline(&mut dev, "bc");
            assert_bc_matches(&got, &bc_want, &ctx);

            let got = pagerank_in(
                engine,
                &mut dev,
                short.damping,
                short.max_iters,
                short.tolerance,
            )
            .unwrap();
            at_baseline(&mut dev, "pagerank");
            assert_ranks_match(&got.ranks, &ranks_want, &ctx);

            let got = label_propagation_in(engine, &mut dev, 5).unwrap();
            at_baseline(&mut dev, "labelprop");
            assert_eq!(got.labels, labels_want, "{ctx}");
        }
    }
}

/// The paper's claim (ii): traversing the compressed form costs about what
/// traversing plain CSR does. Modeled BFS time of `GcgtEngine(Full)` over
/// `GpuCsrEngine`, summed over four sources; the simulator is deterministic,
/// so each bound is slack over one measured ratio, not a noise margin.
///
/// Both engines run under the one launch schedule, which spreads small
/// frontiers over the SMs and splits hubs across warps. CSR gains more from
/// it than GCGT: a CSR gather has no dependent decode chain, so once the
/// packed-warp floor is gone little else bounds it, while a split GCGT hub
/// still walks each segment's gap chain serially.
#[test]
fn gcgt_is_competitive_with_gpucsr() {
    // (class, graph, measured ratio, bound = measured + the slack held
    // before the schedule change: 8 %, 13 %, 14 %)
    let cases = [
        (
            "uk2002",
            web_graph(&WebParams::uk2002_like(4000), 11),
            1.269,
            1.37,
        ),
        (
            "uk2007",
            web_graph(&WebParams::uk2007_like(4000), 11),
            1.087,
            1.23,
        ),
        (
            "twitter",
            social_graph(&SocialParams::twitter_like(1500), 11),
            2.177,
            2.48,
        ),
    ];
    for (name, graph, measured, bound) in cases {
        let dc = DeviceConfig::default();
        let cgr = CgrGraph::encode(
            &graph,
            &Strategy::Full.cgr_config(&CgrConfig::paper_default()),
        );
        let gcgt = GcgtEngine::new(&cgr, dc, Strategy::Full);
        let gpucsr = GpuCsrEngine::new(&graph, dc);
        let est_ms = |engine: &dyn Expander| -> f64 {
            [0, 7, 100, 1000]
                .iter()
                .map(|&source| bfs(engine, source).stats.est_ms)
                .sum()
        };
        let ratio = est_ms(&gcgt) / est_ms(&gpucsr);
        assert!(
            ratio <= bound,
            "{name}: GCGT / GPUCSR = {ratio:.3} > {bound} (measured {measured})"
        );
    }
}
