//! Graph Label Propagation on the GCGT pipeline — one of the applications
//! Section 6 lists as pipeline-compatible (Soman & Narang's GPU community
//! detection). Semantics match [`gcgt_graph::refalgo::label_propagation`]
//! exactly: synchronous rounds, in-neighbour majority, ties toward the
//! smaller label.
//!
//! Pipeline mapping: every round expands all nodes; the filtering step
//! emits `(u, v)` label votes with the label-array traffic accounted; the
//! contraction tallies votes and updates labels host-side.

use gcgt_graph::{bucket_by_key, LabelTally, NodeId};
use gcgt_simt::{Device, OpClass, RunStats, Space, TypedFailure, WarpSim};

use crate::engine::{launch_expansion, Expander};
use crate::kernels::Sink;

/// Result of a simulated label-propagation run.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelPropRun {
    /// Final label per node.
    pub labels: Vec<NodeId>,
    /// Rounds executed (stops early at a fixpoint).
    pub rounds: usize,
    /// Number of distinct labels at the end.
    pub communities: usize,
    /// Simulated-device statistics.
    pub stats: RunStats,
}

#[derive(Default)]
struct VoteSink {
    out: Vec<(NodeId, NodeId)>,
}

impl Sink for VoteSink {
    fn handle(&mut self, warp: &mut WarpSim, items: &[(NodeId, NodeId)]) {
        // Read the source's label (register-resident after first use) and
        // scatter a vote into the target's ballot.
        warp.issue_mem(
            OpClass::Generic,
            items.len(),
            items
                .iter()
                .map(|&(_, v)| Space::Labels.addr(4 * u64::from(v))),
        );
        self.out.extend_from_slice(items);
    }
}

/// Runs at most `max_rounds` synchronous label-propagation rounds.
///
/// # Panics
/// When the engine does not fit the device, or on a payload that fails
/// deferred validation (nothing else can fail a fresh device).
pub fn label_propagation(engine: &dyn Expander, max_rounds: usize) -> LabelPropRun {
    let mut device = engine.new_device().expect(crate::apps::FITS);
    label_propagation_in(engine, &mut device, max_rounds).expect(crate::apps::FRESH_DEVICE)
}

/// [`label_propagation`] on an existing device with the graph already
/// resident. The returned statistics cover only this run.
///
/// # Errors
/// The first [`TypedFailure`] of a launch or of the scratch allocation.
pub fn label_propagation_in(
    engine: &dyn Expander,
    device: &mut Device,
    max_rounds: usize,
) -> Result<LabelPropRun, TypedFailure> {
    let n = engine.num_nodes();
    let before = device.stats();
    let scratch = crate::apps::alloc_scratch(engine, device)?;
    let mut label: Vec<NodeId> = (0..n as NodeId).collect();
    let all_nodes: Vec<NodeId> = (0..n as NodeId).collect();
    let mut tally = LabelTally::new(n);

    let mut rounds = 0usize;
    for _ in 0..max_rounds {
        rounds += 1;
        let sinks = launch_expansion(engine, device, &all_nodes, "push", VoteSink::default)?;
        // Group the votes by target, then tally each target's ballot.
        let votes = || sinks.iter().flat_map(|s| &s.out).map(|&(u, v)| (v, u));
        let (start, voters) = bucket_by_key(n, votes);
        let mut changed = false;
        let mut next = label.clone();
        for v in 0..n {
            for &u in &voters[start[v]..start[v + 1]] {
                tally.add(label[u as usize]);
            }
            let mut best = label[v];
            let mut best_count = 0u32;
            tally.drain(|l, c| {
                if c > best_count || (c == best_count && l < best) {
                    best = l;
                    best_count = c;
                }
            });
            if best != label[v] {
                next[v] = best;
                changed = true;
            }
        }
        label = next;
        if !changed {
            break;
        }
    }

    let mut distinct: Vec<NodeId> = label.clone();
    distinct.sort_unstable();
    distinct.dedup();
    device.free(scratch);
    Ok(LabelPropRun {
        communities: distinct.len(),
        labels: label,
        rounds,
        stats: device.stats().since(&before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GcgtEngine;
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::{social_graph, toys, SocialParams};
    use gcgt_graph::refalgo;
    use gcgt_simt::DeviceConfig;

    fn run_lp(graph: &gcgt_graph::Csr, rounds: usize) -> LabelPropRun {
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(graph, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full);
        label_propagation(&engine, rounds)
    }

    #[test]
    fn matches_oracle_on_cliques() {
        let g = toys::complete(8);
        let (want, _) = refalgo::label_propagation(&g, 20);
        let got = run_lp(&g, 20);
        assert_eq!(got.labels, want);
        assert_eq!(got.communities, 1);
    }

    #[test]
    fn matches_oracle_on_social_graph() {
        let g = social_graph(&SocialParams::ljournal_like(400), 3).symmetrized();
        let (want, want_rounds) = refalgo::label_propagation(&g, 8);
        let got = run_lp(&g, 8);
        assert_eq!(got.labels, want);
        assert_eq!(got.rounds, want_rounds);
    }

    #[test]
    fn equal_votes_go_to_the_smaller_label() {
        // Node 0 hears one vote each from nodes 1 and 2 every round. Round
        // 1 ties labels 1 and 2; node 1 adopts 3 from node 3, so round 2
        // ties labels 3 and 2, with the larger counted first.
        let g = gcgt_graph::Csr::from_edges(4, &[(1, 0), (2, 0), (3, 1)]);
        let (want, _) = refalgo::label_propagation(&g, 5);
        assert_eq!(want, vec![2, 3, 2, 3]);
        assert_eq!(run_lp(&g, 5).labels, want);
    }

    #[test]
    fn two_components_get_two_labels() {
        // Two complete triads (a 2-cycle would oscillate under synchronous
        // updates — the known LPA behaviour, shared with the oracle).
        let mut edges = Vec::new();
        for base in [0u32, 3] {
            for a in 0..3 {
                for b in 0..3 {
                    if a != b {
                        edges.push((base + a, base + b));
                    }
                }
            }
        }
        let g = gcgt_graph::Csr::from_edges(6, &edges);
        let got = run_lp(&g, 10);
        assert!(got.labels[..3].iter().all(|&l| l == 0), "{:?}", got.labels);
        assert!(got.labels[3..].iter().all(|&l| l == 3), "{:?}", got.labels);
        assert_eq!(got.communities, 2);
    }
}
