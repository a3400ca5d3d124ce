//! PageRank on the GCGT pipeline — the "extension" workload (Section 6
//! lists (Personalized) PageRank among the pipeline-compatible
//! applications; the paper's own prior work GPMA/Guo et al. evaluate it).
//!
//! Every iteration expands *all* nodes: rank mass `rank[u] / deg(u)` is
//! pushed along each edge in the filtering step, then damped host-side.

use gcgt_graph::NodeId;
use gcgt_simt::{Device, OpClass, RunStats, Space, TypedFailure, WarpSim};

use crate::engine::{launch_expansion, Expander};
use crate::kernels::Sink;

/// Result of a simulated PageRank run.
#[derive(Clone, Debug, PartialEq)]
pub struct PagerankRun {
    /// Final ranks (sum ≈ 1).
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

#[derive(Default)]
struct PushSink {
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for PushSink {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        // Rank read for u (mostly register-resident) + scattered atomic-add
        // style accumulation into next[v].
        warp.issue_mem(
            OpClass::Generic,
            items.len(),
            items
                .iter()
                .map(|&(_, v)| Space::Labels.addr(8 * u64::from(v))),
        );
        self.out.extend_from_slice(items);
    }
}

/// Runs damped PageRank for at most `max_iters` iterations, stopping when
/// the L1 change drops below `tolerance`.
///
/// # Panics
/// When the engine does not fit the device, or on a payload that fails
/// deferred validation (nothing else can fail a fresh device).
pub fn pagerank(
    engine: &dyn Expander,
    damping: f64,
    max_iters: usize,
    tolerance: f64,
) -> PagerankRun {
    let mut device = engine.new_device().expect(crate::apps::FITS);
    pagerank_in(engine, &mut device, damping, max_iters, tolerance)
        .expect(crate::apps::FRESH_DEVICE)
}

/// [`pagerank`] on an existing device with the graph already resident. The
/// returned statistics cover only this run.
///
/// # Errors
/// The first [`TypedFailure`] of a launch or of the scratch allocation.
pub fn pagerank_in(
    engine: &dyn Expander,
    device: &mut Device,
    damping: f64,
    max_iters: usize,
    tolerance: f64,
) -> Result<PagerankRun, TypedFailure> {
    let n = engine.num_nodes();
    let before = device.stats();
    if n == 0 {
        return Ok(PagerankRun {
            ranks: Vec::new(),
            iterations: 0,
            stats: device.stats().since(&before),
        });
    }
    let scratch = crate::apps::alloc_scratch(engine, device)?;
    let mut rank = vec![1.0 / n as f64; n];
    let mut degree = vec![0u32; n];
    let all_nodes: Vec<NodeId> = (0..n as NodeId).collect();

    let mut iterations = 0usize;
    for _ in 0..max_iters {
        iterations += 1;
        let mut next = vec![0.0f64; n];
        let sinks = launch_expansion(engine, device, &all_nodes, "push", PushSink::default)?;
        // First iteration discovers degrees from the expansion itself.
        if iterations == 1 {
            for sink in &sinks {
                for &(u, _) in &sink.out {
                    degree[u as usize] += 1;
                }
            }
        }
        let mut dangling = 0.0;
        for (u, &d) in degree.iter().enumerate() {
            if d == 0 {
                dangling += rank[u];
            }
        }
        for sink in sinks {
            for (u, v) in sink.out {
                next[v as usize] += rank[u as usize] / f64::from(degree[u as usize]);
            }
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let mut l1 = 0.0;
        for i in 0..n {
            let v = base + damping * next[i];
            l1 += (v - rank[i]).abs();
            rank[i] = v;
        }
        if l1 < tolerance {
            break;
        }
    }
    device.free(scratch);
    Ok(PagerankRun {
        ranks: rank,
        iterations,
        stats: device.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GcgtEngine;
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::toys;
    use gcgt_graph::refalgo::{pagerank as oracle, PagerankConfig};
    use gcgt_simt::DeviceConfig;

    fn run_pr(graph: &gcgt_graph::Csr, strategy: Strategy) -> PagerankRun {
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy);
        pagerank(&engine, 0.85, 100, 1e-9)
    }

    #[test]
    fn matches_oracle_on_figure1() {
        let g = toys::figure1();
        let (want, _) = oracle(&g, PagerankConfig::default());
        let got = run_pr(&g, Strategy::Full);
        for (i, (&a, &b)) in got.ranks.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-6, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = toys::grid(6, 6);
        let got = run_pr(&g, Strategy::TwoPhase);
        let sum: f64 = got.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cycle_is_uniform() {
        let g = toys::cycle(16);
        let got = run_pr(&g, Strategy::Full);
        for &r in &got.ranks {
            assert!((r - 1.0 / 16.0).abs() < 1e-9);
        }
    }
}
