//! Betweenness centrality on the GCGT pipeline (Figure 7(d)): the two
//! BFS-like passes of Brandes' algorithm (Sriram et al. on GPUs).
//!
//! The forward pass computes distance labels and shortest-path counts σ; the
//! backward pass walks the levels in descending order accumulating
//! dependencies δ(v) = Σ σ(v)/σ(w) · (1 + δ(w)) over tree edges. Both passes
//! reuse the expansion kernels; only the filtering differs — and unlike BFS
//! it must observe *every* edge into the next level, not just first
//! discoveries, which is why BC costs roughly two BFS traversals plus extra
//! label traffic (Figure 15).

use gcgt_graph::{NodeId, UNREACHED};
use gcgt_simt::{Device, OpClass, RunStats, Space, WarpSim};

use crate::engine::{compact_frontier, launch_expansion, Expander};
use crate::kernels::Sink;

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
            items
                .iter()
                .map(|&(_, v)| Space::Labels.addr(4 * u64::from(v))),
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
                .map(|(&(_, v), _)| Space::Labels.addr((1 << 30) + 8 * u64::from(v))),
        );
        for (i, &(u, v)) in items.iter().enumerate() {
            if flags[i] == 1 {
                self.out.push((u, v));
            }
        }
    }
}

/// Runs single-source betweenness centrality from `source`.
pub fn bc(engine: &dyn Expander, source: NodeId) -> BcRun {
    let mut device = engine.new_device();
    bc_in(engine, &mut device, source)
}

/// [`bc`] on an existing device with the graph already resident. The
/// returned statistics cover only this run.
pub fn bc_in(engine: &dyn Expander, device: &mut Device, source: NodeId) -> BcRun {
    let n = engine.num_nodes();
    assert!((source as usize) < n);
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device);
    let mut depth = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    depth[source as usize] = 0;
    sigma[source as usize] = 1.0;

    // --- forward pass: levels, σ ---
    let mut levels: Vec<Vec<NodeId>> = vec![vec![source]];
    loop {
        let du = (levels.len() - 1) as u32;
        let frontier = levels
            .last()
            .expect("levels starts non-empty and only grows")
            .clone();
        let sinks = launch_expansion(engine, device, &frontier, || LabelSink {
            depth: &depth,
            du,
            keep_unvisited: true,
            out: Vec::new(),
        });
        // Detach the owned pair lists so the sinks' borrow of `depth` ends
        // before the merge mutates it.
        let outs: Vec<Vec<(NodeId, NodeId)>> = sinks.into_iter().map(|s| s.out).collect();
        let mut next: Vec<NodeId> = Vec::new();
        for out in outs {
            for (u, v) in out {
                if depth[v as usize] == UNREACHED {
                    depth[v as usize] = du + 1;
                    next.push(v);
                }
                if depth[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        if next.is_empty() {
            break;
        }
        // Same rule as BFS push levels: only a device-filling level is
        // compacted into ascending order, and the backward pass reuses it.
        if engine.device_config().fills_device(next.len()) {
            compact_frontier(engine, device, &mut next);
        }
        levels.push(next);
    }

    // --- backward pass: δ, walking levels deepest-first ---
    let mut delta = vec![0.0f64; n];
    for lvl in (0..levels.len()).rev() {
        let du = lvl as u32;
        let frontier = &levels[lvl];
        let sinks = launch_expansion(engine, device, frontier, || LabelSink {
            depth: &depth,
            du,
            keep_unvisited: false,
            out: Vec::new(),
        });
        for sink in sinks {
            for (u, v) in sink.out {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }

    device.free(scratch);
    BcRun {
        depth,
        sigma,
        delta,
        stats: device.stats().since(&before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GcgtEngine;
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{toys, web_graph, WebParams};
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
