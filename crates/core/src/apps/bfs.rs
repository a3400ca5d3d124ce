//! Breadth-first search on the GCGT pipeline — the paper's primary
//! workload, with direction-optimizing expansion (Beamer-style push/pull)
//! layered on top: per level the traversal either **pushes** the frontier's
//! out-edges through `appendIfUnvisited`, or **pulls** — every unvisited
//! node scans its compressed adjacency for a frontier parent with early
//! exit. The engine's [`Expander::direction`] policy picks the mode;
//! [`crate::strategy::DirectionMode::Adaptive`] applies the Ligra/Beamer
//! density heuristic per level. Push-only engines behave bitwise exactly
//! as before.
//!
//! The level loop (the shared `Levels` of BC's forward pass) holds the one
//! visited state, the depth labels: the push sink tests
//! `depth[v] == UNREACHED`, a pull lane tests `depth[u] == du` for a
//! frontier parent, and the loop scans the candidates, merges discoveries
//! and compacts a device-filling push frontier. BFS keeps the direction
//! choice, its launches and sinks, and stops at the first level that
//! discovers nothing.

use gcgt_graph::{NodeId, UNREACHED};
use gcgt_simt::{Charge, Device, OpClass, RunStats, Space, TypedFailure, WarpSim};

use crate::apps::levels::Levels;
use crate::engine::{launch_expansion, launch_pull, Expander};
use crate::kernels::Sink;
use crate::strategy::{DirectionMode, PULL_ALPHA};

/// Result of a simulated BFS run.
#[derive(Clone, Debug, PartialEq)]
pub struct BfsRun {
    /// Depth per node ([`UNREACHED`] when not reachable).
    pub depth: Vec<u32>,
    /// Reached node count (including the source).
    pub reached: usize,
    /// Number of BFS levels.
    pub levels: u32,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

/// The `appendIfUnvisited` contraction (Algorithm 1 lines 25–32) as a sink:
/// visited lookup, warp exclusive scan, one atomic queue reservation by
/// lane 0, coalesced output writes. Candidates that pass the visited test
/// (on the depth labels as of the level's start) are buffered; duplicates
/// across warps are resolved at the merge, like atomics would on hardware.
struct QueueSink<'d> {
    depth: &'d [u32],
    /// Survivor pairs in emission order.
    out: Vec<(NodeId, NodeId)>,
    /// Candidate pairs seen (pre-filter) — the level's expanded-edge count.
    seen: u64,
}

impl Sink for QueueSink<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        self.seen += items.len() as u64;
        // Status lookup: one bitmap byte per candidate (scattered).
        warp.issue_mem(
            OpClass::Handle,
            items.len(),
            items
                .iter()
                .map(|&(_, v)| Space::Visited.addr(u64::from(v) / 8)),
        );
        let flags: Vec<u32> = items
            .iter()
            .map(|&(_, v)| u32::from(self.depth[v as usize] == UNREACHED))
            .collect();
        let (scatter, total) = warp.exclusive_scan(&flags);
        if total == 0 {
            return;
        }
        // Lane 0 reserves space with one atomic, then flagged lanes write
        // their survivors at consecutive queue slots (coalesced).
        warp.atomic_add(Space::Output.addr(0));
        let base = self.out.len() as u64;
        warp.access(
            flags
                .iter()
                .zip(&scatter)
                .filter(|(&f, _)| f == 1)
                .map(|(_, &s)| Space::Output.addr(4 * (base + u64::from(s)))),
        );
        for (i, &(u, v)) in items.iter().enumerate() {
            if flags[i] == 1 {
                self.out.push((u, v));
            }
        }
    }
}

/// Runs level-synchronous BFS from `source` on the engine's compressed
/// graph, returning depths identical to the serial oracle plus the
/// simulated-device cost. Allocates a fresh device per call; batched
/// workloads that keep the graph resident should use [`bfs_in`].
///
/// # Panics
/// On a payload that fails deferred validation (a fresh device has no
/// fault plan, so nothing else can fail it).
pub fn bfs(engine: &dyn Expander, source: NodeId) -> BfsRun {
    let mut device = engine.new_device();
    bfs_in(engine, &mut device, source).expect(crate::apps::FRESH_DEVICE)
}

/// [`bfs`] on an existing device with the graph already resident — the
/// multi-query building block. The returned statistics cover only this run
/// (counters accumulated since entry).
///
/// Direction follows [`Expander::direction`]: push levels expand the
/// frontier's out-edges, pull levels scan unvisited nodes' compressed
/// adjacency with early exit, and `Adaptive` switches per level when the
/// frontier's out-degree sum exceeds `num_edges / `[`PULL_ALPHA`]. The
/// per-level decision is host-side (it charges nothing), so a run whose
/// heuristic always picks push is bitwise identical to a `Push` run.
///
/// # Errors
/// The first [`TypedFailure`] of a launch or of the scratch allocation.
pub fn bfs_in(
    engine: &dyn Expander,
    device: &mut Device,
    source: NodeId,
) -> Result<BfsRun, TypedFailure> {
    let n = engine.num_nodes();
    assert!((source as usize) < n, "source out of range");
    let mode = engine.direction();
    let total_edges = engine.num_edges();
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device)?;
    let mut levels = Levels::new(n, source, false);

    loop {
        let pull = match mode {
            DirectionMode::Push => false,
            DirectionMode::Pull => true,
            DirectionMode::Adaptive => {
                // Ligra/Beamer density heuristic, multiplication-side so
                // small graphs never divide the threshold to zero.
                let frontier_edges: usize = levels
                    .frontier()
                    .iter()
                    .map(|&u| engine.out_degree(u))
                    .sum();
                frontier_edges.saturating_mul(PULL_ALPHA) > total_edges
            }
        };
        if pull {
            let level = levels.pull(engine, device, false);
            if !level.nodes.is_empty() {
                let (pairs, examined) =
                    launch_pull(engine, device, level.nodes, level.depth, level.du)?;
                device.record(Charge::PullStep(examined));
                levels.merge(pairs, |_, _| {});
            }
        } else {
            let level = levels.push(engine, device);
            let sinks = launch_expansion(engine, device, level.nodes, "push", || QueueSink {
                depth: level.depth,
                out: Vec::new(),
                seen: 0,
            })?;
            device.record(Charge::PushStep(sinks.iter().map(|s| s.seen).sum()));
            // Take the owned survivor lists so the sinks' borrow of the
            // depth labels ends before the merge writes them.
            let outs: Vec<Vec<(NodeId, NodeId)>> = sinks.into_iter().map(|s| s.out).collect();
            levels.merge(outs.into_iter().flatten(), |_, _| {});
        }
        if levels.advance(engine, device) == 0 {
            break;
        }
    }

    device.free(scratch);
    let (reached, level_count) = (levels.reached(), levels.du() + 1);
    Ok(BfsRun {
        depth: levels.into_parts().0,
        reached,
        levels: level_count,
        stats: device.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GcgtEngine;
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{social_graph, toys, web_graph, SocialParams, WebParams};
    use gcgt_graph::refalgo;
    use gcgt_graph::Csr;
    use gcgt_simt::DeviceConfig;

    fn run_bfs(graph: &Csr, strategy: Strategy, source: NodeId) -> BfsRun {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy).unwrap();
        bfs(&engine, source)
    }

    #[test]
    fn matches_oracle_on_figure1_all_strategies() {
        let g = toys::figure1();
        let want = refalgo::bfs(&g, 0);
        for strategy in Strategy::LADDER {
            let got = run_bfs(&g, strategy, 0);
            assert_eq!(got.depth, want.depth, "{strategy:?}");
            assert_eq!(got.reached, want.reached, "{strategy:?}");
            assert_eq!(got.levels, want.levels, "{strategy:?}");
        }
    }

    #[test]
    fn matches_oracle_on_web_graph_all_strategies() {
        let g = web_graph(&WebParams::uk2002_like(800), 17);
        let want = refalgo::bfs(&g, 0);
        for strategy in Strategy::LADDER {
            let got = run_bfs(&g, strategy, 0);
            assert_eq!(got.depth, want.depth, "{strategy:?}");
        }
    }

    #[test]
    fn matches_oracle_on_skewed_graph() {
        let g = social_graph(&SocialParams::twitter_like(600), 5);
        let want = refalgo::bfs(&g, 3);
        for strategy in [
            Strategy::TaskStealing,
            Strategy::WarpCentric,
            Strategy::Full,
        ] {
            let got = run_bfs(&g, strategy, 3);
            assert_eq!(got.depth, want.depth, "{strategy:?}");
        }
    }

    #[test]
    fn disconnected_source_reaches_only_itself() {
        let g = Csr::from_edges(10, &[(1, 2)]);
        let got = run_bfs(&g, Strategy::Full, 5);
        assert_eq!(got.reached, 1);
        assert_eq!(got.levels, 1);
        assert_eq!(got.depth[5], 0);
    }

    #[test]
    fn stats_deterministic() {
        let g = web_graph(&WebParams::uk2002_like(400), 9);
        let a = run_bfs(&g, Strategy::Full, 0);
        let b = run_bfs(&g, Strategy::Full, 0);
        assert_eq!(a.stats.est_ms.to_bits(), b.stats.est_ms.to_bits());
        assert_eq!(a.stats.tally, b.stats.tally);
    }

    fn run_bfs_direction(
        graph: &Csr,
        strategy: Strategy,
        direction: crate::strategy::DirectionMode,
        source: NodeId,
    ) -> BfsRun {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy)
            .unwrap()
            .with_direction(direction);
        bfs(&engine, source)
    }

    #[test]
    fn pull_and_adaptive_match_oracle_on_symmetric_graphs() {
        use crate::strategy::DirectionMode;
        let graphs = [
            toys::figure1().symmetrized(),
            social_graph(&SocialParams::twitter_like(500), 4).symmetrized(),
            web_graph(&WebParams::uk2002_like(600), 11).symmetrized(),
        ];
        for g in &graphs {
            let want = refalgo::bfs(g, 0);
            for strategy in [Strategy::Full, Strategy::TwoPhase] {
                for direction in [DirectionMode::Pull, DirectionMode::Adaptive] {
                    let got = run_bfs_direction(g, strategy, direction, 0);
                    assert_eq!(got.depth, want.depth, "{strategy:?} {direction:?}");
                    assert_eq!(got.reached, want.reached, "{strategy:?} {direction:?}");
                }
            }
        }
    }

    #[test]
    fn pull_levels_charge_pull_counters() {
        use crate::strategy::DirectionMode;
        let g = toys::figure1().symmetrized();
        let run = run_bfs_direction(&g, Strategy::Full, DirectionMode::Pull, 0);
        assert!(run.stats.pull_steps >= 1);
        assert!(run.stats.pulled_edges >= 1);
        assert_eq!(run.stats.push_steps, 0);
        assert_eq!(run.stats.pushed_edges, 0);
    }

    #[test]
    fn push_counts_every_reachable_edge() {
        let g = web_graph(&WebParams::uk2002_like(400), 6);
        let run = run_bfs(&g, Strategy::Full, 0);
        // Pure push expands each reached node's full out-adjacency once.
        let expanded: u64 = run
            .depth
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != gcgt_graph::UNREACHED)
            .map(|(u, _)| g.degree(u as NodeId) as u64)
            .sum();
        assert_eq!(run.stats.pushed_edges, expanded);
        assert_eq!(run.stats.push_steps as usize, run.levels as usize);
        assert_eq!(run.stats.pull_steps, 0);
    }

    #[test]
    fn adaptive_pulls_fewer_edges_on_a_low_diameter_graph() {
        use crate::strategy::DirectionMode;
        let g = social_graph(&SocialParams::twitter_like(800), 3).symmetrized();
        let push = run_bfs_direction(&g, Strategy::Full, DirectionMode::Push, 0);
        let adaptive = run_bfs_direction(&g, Strategy::Full, DirectionMode::Adaptive, 0);
        assert_eq!(push.depth, adaptive.depth);
        assert!(adaptive.stats.pull_steps >= 1, "heuristic never fired");
        let push_total = push.stats.pushed_edges + push.stats.pulled_edges;
        let adaptive_total = adaptive.stats.pushed_edges + adaptive.stats.pulled_edges;
        assert!(
            adaptive_total < push_total,
            "adaptive {adaptive_total} vs push {push_total} expanded edges"
        );
    }

    #[test]
    fn adaptive_is_bitwise_push_when_the_heuristic_never_fires() {
        use crate::strategy::DirectionMode;
        // A long path: every frontier is one node, far below |E| / alpha.
        let n = 600usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        let g = Csr::from_edges(n, &edges);
        let push = run_bfs_direction(&g, Strategy::Full, DirectionMode::Push, 0);
        let adaptive = run_bfs_direction(&g, Strategy::Full, DirectionMode::Adaptive, 0);
        assert_eq!(push.depth, adaptive.depth);
        assert_eq!(push.stats, adaptive.stats, "adaptive must cost nothing");
        assert_eq!(adaptive.stats.pull_steps, 0);
    }

    #[test]
    fn frontiers_below_the_device_boundary_are_never_compacted() {
        use crate::strategy::DirectionMode;
        // The long path of the adaptive test above: one node per level, so
        // every launch is a push level and no compaction runs.
        let n = 600usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        let g = Csr::from_edges(n, &edges);
        for direction in [DirectionMode::Push, DirectionMode::Adaptive] {
            let run = run_bfs_direction(&g, Strategy::Full, direction, 0);
            assert_eq!(run.levels as usize, n);
            assert_eq!(run.stats.launches, u64::from(run.levels), "{direction:?}");
        }
    }

    #[test]
    fn a_device_filling_level_is_compacted_once_before_its_push() {
        // A star: the source's 40 leaves fill the 4 × 8 test device, so
        // level 1 pays one compaction launch on top of its push.
        let leaves = 40u32;
        let edges: Vec<(NodeId, NodeId)> = (1..=leaves).rev().map(|v| (0, v)).collect();
        let g = Csr::from_edges(leaves as usize + 1, &edges);
        let cgr = CgrGraph::encode(&g, &Strategy::Full.cgr_config(&CgrConfig::paper_default()));
        let engine = GcgtEngine::new(&cgr, DeviceConfig::test_tiny(), Strategy::Full).unwrap();
        let run = bfs(&engine, 0);
        assert_eq!(run.levels, 2);
        assert_eq!(run.stats.push_steps, 2);
        assert_eq!(run.stats.launches, 3);
        assert_eq!(run.depth, refalgo::bfs(&g, 0).depth);
    }

    #[test]
    fn full_strategy_cheaper_than_intuitive_on_web_graph() {
        let g = web_graph(&WebParams::uk2002_like(1500), 2);
        let a = run_bfs(&g, Strategy::Intuitive, 0);
        let b = run_bfs(&g, Strategy::Full, 0);
        assert!(
            b.stats.est_ms < a.stats.est_ms,
            "Full {} ms vs Intuitive {} ms",
            b.stats.est_ms,
            a.stats.est_ms
        );
    }
}
