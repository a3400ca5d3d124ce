//! Connected components on the GCGT pipeline (Figure 7(c)): Soman et al.'s
//! expand → filter → hook → pointer-jump stages, run **once**, with the hook
//! made an exact union-find link (ECL-CC: Jaiganesh & Burtscher, HPDC 2018).
//!
//! 1. **Expand.** One expansion launch decodes every node's adjacency. The
//!    filter keeps each undirected edge once (`v < u`), a register compare:
//!    every node is still its own root, so no label is read.
//! 2. **Link.** Each kept pair finds both endpoints' roots with path halving
//!    and hooks the larger root under the smaller. ECL-CC links inside the
//!    neighbour loop, so the device holds no pair queue; the model charges
//!    the links as a launch of their own, one lane per pair in warp order,
//!    so that their cost does not depend on host thread order.
//! 3. **Compress.** Pointer-jumping launches flatten every tree.
//!
//! A root is only ever hooked under a smaller root, so every label ends as
//! the smallest node id of its component, whatever the diameter, after one
//! pass over the edges. Components are defined over the *undirected* view:
//! pass a CGR of the symmetrized graph (asserted only by convention; on
//! directed input an edge whose reverse is missing links only from its
//! larger end, which is not CC).

use gcgt_graph::NodeId;
use gcgt_simt::{
    Charge, Device, DeviceConfig, IterationCost, OpClass, RunStats, Space, TypedFailure, WarpSim,
};

use crate::engine::{launch_expansion, Expander};
use crate::kernels::Sink;

/// Result of a simulated CC run.
#[derive(Clone, Debug, PartialEq)]
pub struct CcRun {
    /// Component label per node (smallest node id in the component).
    pub component: Vec<NodeId>,
    /// Number of distinct components.
    pub count: usize,
    /// Passes over the edge set: 1 for a non-empty graph.
    pub iterations: u32,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

/// Filtering sink: keeps each undirected edge once, as `(u, v)` with
/// `v < u`.
struct EdgeSink(Vec<(NodeId, NodeId)>);

impl Sink for EdgeSink {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        // A compare of two ids already in registers: no memory touched.
        warp.issue(OpClass::Handle, items.len());
        self.0.extend(items.iter().filter(|&&(u, v)| v < u));
    }
}

/// Runs connected components. The engine's CGR must encode the symmetrized
/// graph for true (undirected) components.
///
/// # Panics
/// When the engine does not fit the device, or on a payload that fails
/// deferred validation (nothing else can fail a fresh device).
pub fn cc(engine: &dyn Expander) -> CcRun {
    let mut device = engine.new_device().expect(crate::apps::FITS);
    cc_in(engine, &mut device).expect(crate::apps::FRESH_DEVICE)
}

/// [`cc`] on an existing device with the graph already resident. The
/// returned statistics cover only this run.
///
/// # Errors
/// The first [`TypedFailure`] of a launch or of the scratch allocation.
pub fn cc_in(engine: &dyn Expander, device: &mut Device) -> Result<CcRun, TypedFailure> {
    let n = engine.num_nodes();
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device)?;
    // Every node starts as its own root.
    let mut comp: Vec<NodeId> = (0..n as NodeId).collect();
    if n > 0 {
        // The one expansion launch: every node is a work node.
        let sinks = launch_expansion(engine, device, &comp, "push", || EdgeSink(Vec::new()))?;
        let pairs = sinks.iter().flat_map(|sink| &sink.0);
        link_launch(engine.device_config(), device, &mut comp, pairs);
        // Pointer jumping: flatten every component tree to one level (each
        // round is its own kernel launch over all nodes).
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
    }

    let mut count = 0usize;
    for (x, &c) in comp.iter().enumerate() {
        if c as usize == x {
            count += 1;
        }
    }
    device.free(scratch);
    Ok(CcRun {
        component: comp,
        count,
        iterations: u32::from(n > 0),
        stats: device.stats().since(&before),
    })
}

/// Finds `x`'s root with path halving, appending to `hops` every node whose
/// label the walk reads.
fn find(comp: &mut [NodeId], mut x: NodeId, hops: &mut Vec<NodeId>) -> NodeId {
    loop {
        hops.push(x);
        let p = comp[x as usize];
        if p == x {
            return x;
        }
        hops.push(p);
        let g = comp[p as usize];
        if g == p {
            return p;
        }
        comp[x as usize] = g;
        x = g;
    }
}

/// One lane of the link launch: the label reads of its two finds,
/// `hops[walks[0]..walks[1]]` and `hops[walks[1]..walks[2]]`, and the root it
/// hooked, if any.
struct Lane {
    walks: [usize; 3],
    hooked: Option<NodeId>,
}

/// The link launch: links `pairs` into `comp` serially, in order (hence
/// deterministically), and charges them `warp_width` lanes per warp. Each
/// find is a loop the warp's lanes run in lockstep, one scattered `Labels`
/// read per hop, so a warp pays for its longest walk; the lanes that hook
/// then share one CAS step. It reads no graph bytes.
fn link_launch<'p>(
    config: &DeviceConfig,
    device: &mut Device,
    comp: &mut [NodeId],
    pairs: impl Iterator<Item = &'p (NodeId, NodeId)>,
) {
    let width = config.warp_width;
    let mut cost = IterationCost::default();
    // One context, one hop buffer and one lane buffer serve every warp.
    let mut warp = WarpSim::new(width, config.cache_lines_per_warp);
    let mut hops = Vec::new();
    let mut lanes = Vec::with_capacity(width);
    let mut pairs = pairs.peekable();
    while pairs.peek().is_some() {
        hops.clear();
        lanes.clear();
        for &(u, v) in pairs.by_ref().take(width) {
            let start = hops.len();
            let ru = find(comp, u, &mut hops);
            let mid = hops.len();
            let rv = find(comp, v, &mut hops);
            let (lo, hi) = (ru.min(rv), ru.max(rv));
            let hooked = (lo != hi).then(|| {
                comp[hi as usize] = lo;
                hi
            });
            lanes.push(Lane {
                walks: [start, mid, hops.len()],
                hooked,
            });
        }
        for walk in 0..2 {
            for step in 0.. {
                let reads = lanes
                    .iter()
                    .filter_map(|lane| hops[lane.walks[walk]..lane.walks[walk + 1]].get(step));
                let active = reads.clone().count();
                if active == 0 {
                    break;
                }
                let addrs = reads.map(|&x| Space::Labels.addr(4 * u64::from(x)));
                warp.issue_mem(OpClass::Jump, active, addrs);
            }
        }
        let hooks = lanes.iter().filter_map(|lane| lane.hooked);
        let active = hooks.clone().count();
        if active > 0 {
            let addrs = hooks.map(|root| Space::Labels.addr(4 * u64::from(root)));
            warp.issue_mem(OpClass::Atomic, active, addrs);
        }
        let (tally, mem) = warp.take_counters();
        cost.add_warp(&tally, &mem, config);
        cost.warps += 1;
    }
    device.record(Charge::launch(&cost, device.config()));
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
    use gcgt_simt::obs::LevelEvent;
    use gcgt_simt::{DeviceConfig, Observer, ObserverHandle};
    use std::sync::{Arc, Mutex};

    fn run_cc(graph: &Csr, strategy: Strategy) -> CcRun {
        let sym = graph.symmetrized();
        let cfg = strategy.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&sym, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), strategy);
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
    fn a_link_warp_pays_for_its_longest_walk() {
        let config = DeviceConfig::test_tiny();
        let mut device = config.new_device();
        let mut comp: Vec<NodeId> = (0..4).collect();
        let pairs = [(1, 0), (2, 0), (3, 1)];
        link_launch(&config, &mut device, &mut comp, pairs.iter());
        // 1 and 2 hook under 0; 3's partner 1 is then one hop below root 0.
        assert_eq!(comp, [0, 0, 0, 0]);
        let tally = device.stats().tally;
        // Walk u: one step for all three lanes. Walk v: two steps, the
        // second for the third lane alone. Then one CAS step for all three.
        assert_eq!(tally.issues[OpClass::Jump as usize], 3);
        assert_eq!(tally.issues[OpClass::Atomic as usize], 1);
        assert_eq!(tally.lane_work, 3 + 3 + 1 + 3);
    }

    /// Directions of the levels an observer saw.
    #[derive(Default)]
    struct Levels(Mutex<Vec<&'static str>>);

    impl Observer for Levels {
        fn level(&self, event: &LevelEvent) {
            self.0.lock().unwrap().push(event.direction);
        }
    }

    #[test]
    fn one_pass_whatever_the_diameter() {
        // Minima 12 and 17, each reached only through larger ids.
        let mid_range = [
            (30, 12),
            (25, 30),
            (39, 25),
            (21, 39),
            (38, 17),
            (22, 38),
            (33, 22),
        ];
        let loops_and_duplicates = [(3, 3), (5, 2), (5, 2), (2, 5), (7, 7), (7, 6), (6, 7)];
        let cases = [
            ("path", toys::path(2_000)),
            ("mid-range minima", Csr::from_edges(40, &mid_range)),
            ("isolated", Csr::empty(9)),
            (
                "self-loops and duplicates",
                Csr::from_edges(8, &loops_and_duplicates),
            ),
        ];
        for (name, graph) in cases {
            let sym = graph.symmetrized();
            let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
            let cgr = CgrGraph::encode(&sym, &cfg);
            let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full);
            let levels = Arc::new(Levels::default());
            let mut device = engine.new_device().unwrap();
            device.set_observer(ObserverHandle::from_arc(levels.clone()));
            let got = cc_in(&engine, &mut device).unwrap();
            let want = refalgo::connected_components(&sym);
            assert_eq!(got.component, want.component, "{name}");
            assert_eq!(got.count, want.count, "{name}");
            assert_eq!(got.iterations, 1, "{name}");
            // One graph-decoding launch, and no frontier to compact.
            assert_eq!(*levels.0.lock().unwrap(), ["push"], "{name}");
        }
    }
}
