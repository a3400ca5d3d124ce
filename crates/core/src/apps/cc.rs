//! Connected components on the GCGT pipeline (Figure 7(c)): hooking plus
//! pointer jumping (Soman et al., adapted to node-centric frontiers).
//!
//! Each iteration expands the frontier over the compressed graph; the
//! filtering step emits edges whose endpoints currently disagree on their
//! component; hooking applies an `atomicMin`-style link of the larger root
//! under the smaller; pointer-jumping launches flatten the component trees;
//! nodes whose component changed form the next frontier. Components are
//! defined over the *undirected* view — pass a CGR of the symmetrized graph
//! (asserted only by convention; directed input converges to directed-
//! reachability hooks, which is not CC).

use gcgt_graph::NodeId;
use gcgt_simt::{Charge, Device, IterationCost, OpClass, RunStats, Space, WarpSim};

use crate::engine::{compact_frontier, launch_expansion, Expander};
use crate::kernels::Sink;

/// Result of a simulated CC run.
#[derive(Clone, Debug, PartialEq)]
pub struct CcRun {
    /// Component label per node (smallest node id in the component).
    pub component: Vec<NodeId>,
    /// Number of distinct components.
    pub count: usize,
    /// Hooking iterations executed.
    pub iterations: u32,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

/// Filtering sink: emits `(u, v)` pairs whose component labels differ.
struct HookSink<'c> {
    comp: &'c [NodeId],
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for HookSink<'_> {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        // Label lookups for both endpoints (u's label is usually in
        // registers after the first read; v's is scattered).
        warp.issue_mem(
            OpClass::Handle,
            items.len(),
            items
                .iter()
                .map(|&(_, v)| Space::Labels.addr(4 * u64::from(v))),
        );
        let flags: Vec<u32> = items
            .iter()
            .map(|&(u, v)| u32::from(self.comp[u as usize] != self.comp[v as usize]))
            .collect();
        let (_, total) = warp.exclusive_scan(&flags);
        if total == 0 {
            return;
        }
        warp.atomic_add(Space::Output.addr(0));
        for (i, &(u, v)) in items.iter().enumerate() {
            if flags[i] == 1 {
                self.out.push((u, v));
            }
        }
    }
}

/// Runs connected components. The engine's CGR must encode the symmetrized
/// graph for true (undirected) components.
pub fn cc(engine: &dyn Expander) -> CcRun {
    let mut device = engine.new_device();
    cc_in(engine, &mut device)
}

/// [`cc`] on an existing device with the graph already resident. The
/// returned statistics cover only this run.
pub fn cc_in(engine: &dyn Expander, device: &mut Device) -> CcRun {
    let n = engine.num_nodes();
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device);
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    let mut frontier: Vec<NodeId> = (0..n as NodeId).collect();
    let mut iterations = 0u32;

    while !frontier.is_empty() {
        iterations += 1;
        let snapshot = comp.clone();
        let sinks = launch_expansion(engine, device, &frontier, || HookSink {
            comp: &snapshot,
            out: Vec::new(),
        });
        // Hooking: link the larger root under the smaller (atomicMin
        // semantics — order-independent, hence deterministic).
        let mut hooked = false;
        for sink in sinks {
            for (u, v) in sink.out {
                let (cu, cv) = (snapshot[u as usize], snapshot[v as usize]);
                if cu == cv {
                    continue;
                }
                let (lo, hi) = if cu < cv { (cu, cv) } else { (cv, cu) };
                if comp[hi as usize] > lo {
                    comp[hi as usize] = lo;
                    hooked = true;
                }
            }
        }
        if !hooked {
            break;
        }
        // Pointer jumping: flatten every component tree to one level
        // (each round is its own kernel launch over all nodes).
        loop {
            let mut changed = false;
            account_jump_launch(engine, device, n);
            for x in 0..n {
                let p = comp[x] as usize;
                let gp = comp[p];
                if comp[x] != gp {
                    comp[x] = gp;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Next frontier: nodes whose component changed this iteration,
        // gathered on the device by the bitmap-to-queue launch — at every
        // size, since no queue append produced it.
        frontier = (0..n as NodeId)
            .filter(|&x| comp[x as usize] != snapshot[x as usize])
            .collect();
        compact_frontier(engine, device, &mut frontier);
    }

    let mut count = 0usize;
    for (x, &c) in comp.iter().enumerate() {
        if c as usize == x {
            count += 1;
        }
    }
    device.free(scratch);
    CcRun {
        component: comp,
        count,
        iterations,
        stats: device.stats().since(&before),
    }
}

/// Accounts one pointer-jumping kernel launch: warps stride over all nodes,
/// each lane reading `comp[x]` (coalesced) and `comp[comp[x]]` (scattered).
fn account_jump_launch(engine: &dyn Expander, device: &mut Device, n: usize) {
    let width = engine.device_config().warp_width;
    let warps = n.div_ceil(width);
    let mut cost = IterationCost {
        warps,
        ..Default::default()
    };
    // All warps are structurally identical; tally one and scale.
    let mut warp = WarpSim::new(width, engine.device_config().cache_lines_per_warp);
    warp.issue_mem(
        OpClass::Jump,
        width,
        (0..width as u64).map(|i| Space::Labels.addr(4 * i)),
    );
    // Scattered grandparent reads: worst-case one line per lane.
    warp.issue_mem(
        OpClass::Jump,
        width,
        (0..width as u64).map(|i| Space::Labels.addr(4 * i * 97 + (1 << 20))),
    );
    let (tally, mem) = warp.into_counters();
    for _ in 0..warps {
        cost.tally.merge(&tally);
        cost.mem.merge(&mem);
    }
    cost.max_warp_cycles = engine.device_config().warp_critical_cycles(&tally, &mem);
    device.record(Charge::launch(&cost, device.config()));
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

    fn run_cc(graph: &Csr, strategy: Strategy) -> CcRun {
        let sym = graph.symmetrized();
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&sym, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy).unwrap();
        cc(&engine)
    }

    #[test]
    fn matches_oracle_on_figure1() {
        let g = toys::figure1();
        let want = refalgo::connected_components(&g);
        for strategy in [Strategy::TwoPhase, Strategy::Full] {
            let got = run_cc(&g, strategy);
            assert_eq!(got.component, want.component, "{strategy:?}");
            assert_eq!(got.count, want.count);
        }
    }

    #[test]
    fn matches_oracle_on_multi_component_graph() {
        let g = Csr::from_edges(12, &[(0, 1), (1, 2), (4, 5), (7, 8), (8, 9), (9, 7)]);
        let want = refalgo::connected_components(&g);
        let got = run_cc(&g, Strategy::Full);
        assert_eq!(got.component, want.component);
        assert_eq!(got.count, want.count);
    }

    #[test]
    fn matches_oracle_on_web_graph() {
        let g = web_graph(&WebParams::uk2002_like(600), 23);
        let want = refalgo::connected_components(&g);
        let got = run_cc(&g, Strategy::Full);
        assert_eq!(got.component, want.component);
    }

    #[test]
    fn matches_oracle_on_social_graph() {
        let g = social_graph(&SocialParams::twitter_like(500), 8);
        let want = refalgo::connected_components(&g);
        let got = run_cc(&g, Strategy::TaskStealing);
        assert_eq!(got.component, want.component);
    }

    #[test]
    fn converges_in_logarithmically_many_iterations() {
        let g = toys::path(512).symmetrized();
        let got = run_cc(&g, Strategy::Full);
        assert_eq!(got.count, 1);
        // A path is the worst case for hooking; must still be far below n.
        assert!(got.iterations <= 24, "{} iterations", got.iterations);
    }
}
