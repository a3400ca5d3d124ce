//! Betweenness centrality on the GCGT pipeline (Figure 7(d)): the two
//! BFS-like passes of Brandes' algorithm (Sriram et al. on GPUs).
//!
//! The forward pass computes distance labels and shortest-path counts σ; the
//! backward pass walks the levels in descending order accumulating
//! dependencies δ(v) = Σ σ(v)/σ(w) · (1 + δ(w)) over tree edges. Both passes
//! reuse the expansion kernels; only the filtering differs — and unlike BFS
//! it must observe *every* edge into the next level, not just first
//! discoveries, so a push level expands every frontier edge and extra label
//! traffic rides on each (Figure 15).
//!
//! Under a pull or adaptive [`Expander::direction`] (symmetric adjacency) a
//! forward level may instead **pull**: every unvisited node expands its own
//! adjacency and keeps the neighbours on the frontier's level — Beamer's
//! bottom-up step, Gunrock's advance run the other way. A BC pull cannot
//! exit at the first parent, because σ(v) sums over all of them, so the
//! level pulls exactly when the unvisited nodes' edges are fewer than the
//! frontier's, and it runs the full expansion kernels ([`launch_expansion`]
//! as a `"pull"` level), never the early-exit scan. Push engines keep push
//! levels throughout.
//!
//! The backward pass follows the same rule one level down: the step for
//! level d expands level d+1 instead whenever that level has fewer edges.
//! Each node v of level d+1 keeps its neighbours u on level d and adds
//! σ(u)/σ(v)·(1 + δ(v)) to δ(u) with one scattered atomic per parent. δ
//! then sums in another order than under push, so it matches the push run
//! and the oracle to rounding, while depth and σ stay bitwise.
//!
//! Neither pass launches where nothing can come of it: the forward pass
//! stops once every node is reached, and the backward pass skips the
//! deepest level, whose δ is 0 by definition.
//!
//! The forward pass runs BFS's level loop (`Levels`), keeping every level
//! for the backward pass: the loop scans the candidates, merges each
//! level's `(parent, child)` pairs (this file adds σ along each pair into
//! the next level) and compacts each device-filling level as soon as it is
//! discovered, since the backward pass expands it again.

use gcgt_graph::{NodeId, UNREACHED};
use gcgt_simt::{Device, OpClass, RunStats, Space, TypedFailure, WarpSim};

use crate::apps::levels::Levels;
use crate::engine::{launch_expansion, Expander};
use crate::kernels::Sink;
use crate::strategy::DirectionMode;

/// Result of a simulated single-source BC run.
#[derive(Clone, Debug, PartialEq)]
pub struct BcRun {
    /// BFS depth from the source.
    pub depth: Vec<u32>,
    /// Shortest-path counts.
    pub sigma: Vec<f64>,
    /// Dependency values.
    pub delta: Vec<f64>,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

/// Device address of node `v`'s depth label.
fn depth_addr(v: NodeId) -> u64 {
    Space::Labels.addr(4 * u64::from(v))
}

/// Device address of node `v`'s σ (and δ) accumulator.
fn sigma_addr(v: NodeId) -> u64 {
    Space::Labels.addr((1 << 30) + 8 * u64::from(v))
}

/// Emits every `(u, v)` pair with a depth-label lookup — the forward pass
/// needs unvisited targets *and* same-level rediscoveries, the backward pass
/// needs tree edges; the host merge applies the arithmetic.
struct LabelSink<'d> {
    depth: &'d [u32],
    du: u32,
    /// keep pairs where `depth[v] == du + 1` or unvisited (forward) /
    /// only `depth[v] == du + 1` (backward).
    keep_unvisited: bool,
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for LabelSink<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        warp.issue_mem(
            OpClass::Handle,
            items.len(),
            items.iter().map(|&(_, v)| depth_addr(v)),
        );
        let flags: Vec<u32> = items
            .iter()
            .map(|&(_, v)| {
                let dv = self.depth[v as usize];
                u32::from(dv == self.du + 1 || (self.keep_unvisited && dv == UNREACHED))
            })
            .collect();
        let (_, total) = warp.exclusive_scan(&flags);
        if total == 0 {
            return;
        }
        warp.atomic_add(Space::Output.addr(0));
        // σ/δ accumulation writes (scattered by target).
        warp.access(
            items
                .iter()
                .zip(&flags)
                .filter(|(_, &f)| f == 1)
                .map(|(&(_, v), _)| sigma_addr(v)),
        );
        for (i, &(u, v)) in items.iter().enumerate() {
            if flags[i] == 1 {
                self.out.push((u, v));
            }
        }
    }
}

/// The pull-level filter: each candidate `v` keeps its visited neighbours
/// `u` and reads their σ. It probes the visited bitmap (the byte BFS's
/// `QueueSink` and [`compact_frontier`] read), not `u`'s depth label: on
/// symmetric adjacency a visited neighbour of an unvisited candidate lies
/// on the frontier's level `du`, since one on an earlier level would have
/// reached `v` already. A lane sums its candidate's σ in a register, so no
/// queue, scan or atomic is involved; the candidate's σ and depth are
/// written back once, charged with the pack that finds its first parent.
struct ParentSink<'d> {
    depth: &'d [u32],
    du: u32,
    /// Candidates of this warp that found a parent.
    found: Vec<NodeId>,
    /// `(parent, candidate)` pairs in emission order.
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for ParentSink<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        warp.issue_mem(
            OpClass::Handle,
            items.len(),
            items
                .iter()
                .map(|&(_, u)| Space::Visited.addr(u64::from(u) / 8)),
        );
        let kept = self.out.len();
        self.out.extend(
            items
                .iter()
                .filter(|&&(_, u)| {
                    let d = self.depth[u as usize];
                    debug_assert!(d == UNREACHED || d == self.du, "visited off the frontier");
                    d != UNREACHED
                })
                .map(|&(v, u)| (u, v)),
        );
        let parents = &self.out[kept..];
        if parents.is_empty() {
            return;
        }
        warp.access(parents.iter().map(|&(u, _)| sigma_addr(u)));
        let fresh = first_seen(&mut self.found, parents);
        if !fresh.is_empty() {
            warp.access(fresh.iter().flat_map(|&v| [depth_addr(v), sigma_addr(v)]));
        }
    }
}

/// The backward step's pull filter: each node `v` of level `du + 1` keeps
/// the neighbours `u` on level `du` (a scattered depth lookup, as
/// [`LabelSink`]), reads its own σ and δ once (δ shares σ's address), and
/// adds its share of δ(u) with one scattered atomic per parent on `u`'s σ/δ
/// address.
struct ChildSink<'d> {
    depth: &'d [u32],
    du: u32,
    /// Nodes of this warp whose σ and δ were read.
    read: Vec<NodeId>,
    /// `(parent, child)` pairs in emission order.
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for ChildSink<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        warp.issue_mem(
            OpClass::Handle,
            items.len(),
            items.iter().map(|&(_, u)| depth_addr(u)),
        );
        let kept = self.out.len();
        self.out.extend(
            items
                .iter()
                .filter(|&&(_, u)| self.depth[u as usize] == self.du)
                .map(|&(v, u)| (u, v)),
        );
        let parents = &self.out[kept..];
        if parents.is_empty() {
            return;
        }
        let fresh = first_seen(&mut self.read, parents);
        if !fresh.is_empty() {
            warp.access(fresh.iter().map(|&v| sigma_addr(v)));
        }
        warp.issue_mem(
            OpClass::Atomic,
            parents.len(),
            parents.iter().map(|&(u, _)| sigma_addr(u)),
        );
    }
}

/// Appends to `seen` the first children of the `(parent, child)` `pairs`
/// it does not hold yet, and returns them.
fn first_seen<'s>(seen: &'s mut Vec<NodeId>, pairs: &[(NodeId, NodeId)]) -> &'s [NodeId] {
    let first = seen.len();
    for &(_, v) in pairs {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    &seen[first..]
}

/// Runs single-source betweenness centrality from `source`.
///
/// # Panics
/// On a payload that fails deferred validation (a fresh device has no
/// fault plan, so nothing else can fail it).
pub fn bc(engine: &dyn Expander, source: NodeId) -> BcRun {
    let mut device = engine.new_device();
    bc_in(engine, &mut device, source).expect(crate::apps::FRESH_DEVICE)
}

/// [`bc`] on an existing device with the graph already resident. The
/// returned statistics cover only this run.
///
/// # Errors
/// The first [`TypedFailure`] of a launch or of the scratch allocation.
pub fn bc_in(
    engine: &dyn Expander,
    device: &mut Device,
    source: NodeId,
) -> Result<BcRun, TypedFailure> {
    let n = engine.num_nodes();
    assert!((source as usize) < n);
    let may_pull = engine.direction() != DirectionMode::Push;
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device)?;
    let mut sigma = vec![0.0f64; n];
    sigma[source as usize] = 1.0;

    // --- forward pass: levels, σ ---
    let mut levels = Levels::new(n, source, true);
    // Edge sums of each level and of the unvisited nodes: the costs the
    // direction choices compare. Kept only when a level may pull, each
    // node's degree read once, when it is reached.
    let degrees = |nodes: &[NodeId]| -> usize {
        if may_pull {
            nodes.iter().map(|&u| engine.out_degree(u)).sum()
        } else {
            0
        }
    };
    let mut level_edges = vec![degrees(levels.frontier())];
    let mut unvisited_edges = engine.num_edges() - level_edges[0];
    while levels.unreached() > 0 {
        let du = levels.du() as usize;
        // Detach the owned pair lists so the sinks' borrow of the depth
        // labels ends before the merge writes them.
        let pairs: Vec<Vec<(NodeId, NodeId)>> = if may_pull && unvisited_edges < level_edges[du] {
            let level = levels.pull(engine, device, true);
            let sinks = launch_expansion(engine, device, level.nodes, "pull", || ParentSink {
                depth: level.depth,
                du: level.du,
                found: Vec::new(),
                out: Vec::new(),
            })?;
            sinks.into_iter().map(|s| s.out).collect()
        } else {
            let level = levels.push(engine, device);
            let sinks = launch_expansion(engine, device, level.nodes, "push", || LabelSink {
                depth: level.depth,
                du: level.du,
                keep_unvisited: true,
                out: Vec::new(),
            })?;
            sinks.into_iter().map(|s| s.out).collect()
        };
        levels.merge(pairs.into_iter().flatten(), |u, v| {
            sigma[v as usize] += sigma[u as usize];
        });
        if levels.advance(engine, device) == 0 {
            break;
        }
        level_edges.push(degrees(levels.frontier()));
        unvisited_edges -= level_edges[du + 1];
    }
    let (depth, levels) = levels.into_parts();

    // --- backward pass: δ, walking levels deepest-first. The deepest
    // level's δ is 0, and its tree edges lead nowhere: it is not launched.
    // The step for level d expands level d+1 when that level has fewer
    // edges (only ever under a pull or adaptive direction) ---
    let mut delta = vec![0.0f64; n];
    for lvl in (0..levels.len() - 1).rev() {
        let du = lvl as u32;
        // `(parent, child)` tree edges in emission order.
        let tree_edges: Vec<(NodeId, NodeId)> = if level_edges[lvl + 1] < level_edges[lvl] {
            let sinks = launch_expansion(engine, device, &levels[lvl + 1], "pull", || ChildSink {
                depth: &depth,
                du,
                read: Vec::new(),
                out: Vec::new(),
            })?;
            sinks.into_iter().flat_map(|s| s.out).collect()
        } else {
            let sinks = launch_expansion(engine, device, &levels[lvl], "push", || LabelSink {
                depth: &depth,
                du,
                keep_unvisited: false,
                out: Vec::new(),
            })?;
            sinks.into_iter().flat_map(|s| s.out).collect()
        };
        for (u, v) in tree_edges {
            delta[u as usize] += sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
        }
    }

    device.free(scratch);
    Ok(BcRun {
        depth,
        sigma,
        delta,
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

    fn run_bc(graph: &Csr, strategy: Strategy, source: NodeId) -> BcRun {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy).unwrap();
        bc(&engine, source)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "index {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_oracle_on_figure1() {
        let g = toys::figure1();
        let want = refalgo::betweenness_from_source(&g, 0);
        for strategy in [Strategy::TwoPhase, Strategy::Full] {
            let got = run_bc(&g, strategy, 0);
            assert_eq!(got.depth, want.depth, "{strategy:?}");
            assert_eq!(got.sigma, want.sigma, "{strategy:?} σ is exact");
            assert_close(&got.delta, &want.delta, 1e-12);
        }
    }

    #[test]
    fn matches_oracle_on_diamond() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let got = run_bc(&g, Strategy::Full, 0);
        assert_eq!(got.sigma[3], 2.0);
        assert!((got.delta[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn matches_oracle_on_web_graph() {
        let g = web_graph(&WebParams::uk2002_like(500), 41);
        let want = refalgo::betweenness_from_source(&g, 2);
        let got = run_bc(&g, Strategy::Full, 2);
        assert_eq!(got.depth, want.depth);
        assert_eq!(got.sigma, want.sigma);
        assert_close(&got.delta, &want.delta, 1e-9);
    }

    /// Every level a run reports, in launch order: direction and work items.
    #[derive(Default)]
    struct Levels(std::sync::Mutex<Vec<(&'static str, u64)>>);

    impl gcgt_simt::Observer for Levels {
        fn level(&self, event: &gcgt_simt::obs::LevelEvent) {
            self.0
                .lock()
                .unwrap()
                .push((event.direction, event.work_items));
        }
    }

    /// BC from `source` under `direction`, with the expansion levels it
    /// launched (compactions left out).
    fn run_observed(
        graph: &Csr,
        direction: DirectionMode,
        source: NodeId,
    ) -> (BcRun, Vec<(&'static str, u64)>) {
        let cgr = CgrGraph::encode(
            graph,
            &Strategy::Full.cgr_config(&CgrConfig::paper_default()),
        );
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full)
            .unwrap()
            .with_direction(direction);
        let levels = std::sync::Arc::new(Levels::default());
        let mut device = engine.new_device();
        device.set_observer(gcgt_simt::ObserverHandle::from_arc(levels.clone()));
        let run = bc_in(&engine, &mut device, source).unwrap();
        let events = levels.0.lock().unwrap().clone();
        let launched = events
            .into_iter()
            .filter(|&(d, _)| d != "compact")
            .collect();
        (run, launched)
    }

    /// A symmetric path of `n` nodes.
    fn path(n: u32) -> Csr {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).flat_map(|i| [(i, i + 1), (i + 1, i)]).collect();
        Csr::from_edges(n as usize, &edges)
    }

    /// The skewed social graph with a ring through every node: connected,
    /// so every node is reached, and its dense level pulls.
    fn connected_social(n: u32) -> Csr {
        let g = social_graph(&SocialParams::twitter_like(n as usize), 7);
        let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        edges.extend((0..n).map(|i| (i, (i + 1) % n)));
        Csr::from_edges(n as usize, &edges).symmetrized()
    }

    #[test]
    fn adaptive_equals_push_and_the_oracle_on_symmetric_graphs() {
        // The social graph plus 20 isolated nodes and an unreachable edge:
        // candidates never run out, so a pull level that finds no parent
        // must end the forward pass.
        let social = social_graph(&SocialParams::twitter_like(600), 5).symmetrized();
        let n = social.num_nodes() as NodeId;
        let mut edges: Vec<(NodeId, NodeId)> = social.edges().collect();
        edges.extend([(n + 3, n + 4), (n + 4, n + 3)]);
        let unreachable = Csr::from_edges(n as usize + 20, &edges);
        for (name, g) in [
            ("twitter_like(600)", social),
            ("path", path(600)),
            ("unreachable", unreachable),
        ] {
            let want = refalgo::betweenness_from_source(&g, 1);
            let (push, _) = run_observed(&g, DirectionMode::Push, 1);
            let (adaptive, levels) = run_observed(&g, DirectionMode::Adaptive, 1);
            for got in [&push, &adaptive] {
                assert_eq!(got.depth, want.depth, "{name}");
                assert_eq!(got.sigma, want.sigma, "{name}: σ is exact");
                assert_close(&got.delta, &want.delta, 1e-9);
            }
            assert_eq!(adaptive.depth, push.depth, "{name}");
            assert_eq!(adaptive.sigma, push.sigma, "{name}");
            assert_close(&adaptive.delta, &push.delta, 1e-9);
            assert!(
                levels.iter().any(|&(d, _)| d == "pull"),
                "{name}: no pull level"
            );
            assert!(
                adaptive.stats.est_ms < push.stats.est_ms,
                "{name}: adaptive {} ms, push {} ms",
                adaptive.stats.est_ms,
                push.stats.est_ms
            );
            if name == "unreachable" {
                // The deepest level pulled over the unreachable candidates,
                // found no parent, and ended the pass.
                let deepest = want
                    .depth
                    .iter()
                    .filter(|&&d| d != UNREACHED)
                    .max()
                    .unwrap();
                let forward = &levels[..*deepest as usize + 1];
                let unreached = want.depth.iter().filter(|&&d| d == UNREACHED).count();
                assert_eq!(forward.last(), Some(&("pull", unreached as u64)));
            }
        }
    }

    /// The oracle's levels from `source`: the nodes of each, and the sum of
    /// their degrees.
    fn oracle_levels(g: &Csr, want: &refalgo::BcResult) -> (Vec<u64>, Vec<usize>) {
        let levels = *want
            .depth
            .iter()
            .filter(|&&d| d != UNREACHED)
            .max()
            .unwrap() as usize
            + 1;
        let (mut sizes, mut edges) = (vec![0u64; levels], vec![0usize; levels]);
        for (v, &d) in want.depth.iter().enumerate() {
            if d != UNREACHED {
                sizes[d as usize] += 1;
                edges[d as usize] += g.degree(v as NodeId);
            }
        }
        (sizes, edges)
    }

    #[test]
    fn no_level_is_launched_that_cannot_discover_anything() {
        // From node 2 the social graph's deepest level is light: its
        // backward step pulls, the hub level's pushes.
        let mut backward_pulls = 0;
        for (g, source) in [
            (path(200), 0),
            (connected_social(600), 0),
            (connected_social(600), 2),
        ] {
            let want = refalgo::betweenness_from_source(&g, source);
            assert!(want.depth.iter().all(|&d| d != UNREACHED));
            let (sizes, edges) = oracle_levels(&g, &want);
            let levels = sizes.len();
            for direction in [DirectionMode::Push, DirectionMode::Adaptive] {
                let (run, launched) = run_observed(&g, direction, source);
                assert_eq!(run.depth, want.depth);
                assert_eq!(run.sigma, want.sigma, "σ is exact");
                assert_close(&run.delta, &want.delta, 1e-9);
                // Forward: one launch per level that discovers the next —
                // none over the deepest. Backward: one per level above the
                // deepest, deepest first. Under `Adaptive` step d expands
                // level d+1 when that level has fewer edges.
                assert_eq!(launched.len(), 2 * (levels - 1), "{direction:?}");
                let backward: Vec<(&str, u64)> = (0..levels - 1)
                    .rev()
                    .map(|d| {
                        if direction == DirectionMode::Adaptive && edges[d + 1] < edges[d] {
                            ("pull", sizes[d + 1])
                        } else {
                            ("push", sizes[d])
                        }
                    })
                    .collect();
                assert_eq!(launched[levels - 1..], backward, "{direction:?}");
                backward_pulls += backward.iter().filter(|&&(d, _)| d == "pull").count();
            }
        }
        assert!(backward_pulls > 0, "no backward step pulled");
    }

    #[test]
    fn bc_costs_more_than_bfs() {
        let g = web_graph(&WebParams::uk2002_like(600), 3);
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full).unwrap();
        let bfs_run = crate::apps::bfs::bfs(&engine, 0);
        let bc_run = bc(&engine, 0);
        assert!(bc_run.stats.est_ms > bfs_run.stats.est_ms);
    }
}
