//! Everything a workload derives from `--seed`: graphs, query sources, and
//! the serial-oracle answers the outputs are checked against. The program
//! under test receives only the generated inputs, never the seed.

use gcgt_core::{Pagerank, Query, QueryOutput};
use gcgt_graph::gen::{social_graph, web_graph, SocialParams, WebParams};
use gcgt_graph::order::LlpConfig;
use gcgt_graph::refalgo::{self, BcResult, PagerankConfig};
use gcgt_graph::{Csr, NodeId, Reordering, VnodeConfig, VnodeGraph};

use crate::span::Tracer;

/// SplitMix64: a tiny seeded generator for picking sources, so the harness
/// does not depend on the workspace's `rand` stand-in.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Applies a reordering the way the session would, but as two separately
/// timed public calls.
fn reorder_llp(graph: &Csr, tracer: &Tracer) -> Csr {
    let perm = tracer.time("graph.reorder", || {
        Reordering::Llp(LlpConfig::default()).compute(graph)
    });
    tracer.time("graph.permute", || graph.permuted(&perm))
}

/// The paper's web dataset analogue with its unified preprocessing
/// (Section 7.2): virtual-node compression, then LLP.
pub fn web_uk2007_llp(n: usize, seed: u64, tracer: &Tracer) -> Csr {
    let raw = tracer.time("graph.generate", || {
        web_graph(&WebParams::uk2007_like(n), seed)
    });
    let vnode = tracer.time("graph.vnode", || {
        VnodeGraph::compress(&raw, &VnodeConfig::default()).graph
    });
    reorder_llp(&vnode, tracer)
}

/// The skewed follower-graph analogue, in generator order.
pub fn twitter(n: usize, seed: u64, tracer: &Tracer) -> Csr {
    tracer.time("graph.generate", || {
        social_graph(&SocialParams::twitter_like(n), seed)
    })
}

pub fn twitter_llp(n: usize, seed: u64, tracer: &Tracer) -> Csr {
    let raw = twitter(n, seed, tracer);
    reorder_llp(&raw, tracer)
}

/// A second web shape, left in crawl order (no preprocessing at all).
pub fn web_eu2015_crawl(n: usize, seed: u64, tracer: &Tracer) -> Csr {
    tracer.time("graph.generate", || {
        web_graph(&WebParams::eu2015_like(n), seed)
    })
}

pub fn symmetrized(graph: &Csr, tracer: &Tracer) -> Csr {
    tracer.time("graph.symmetrize", || graph.symmetrized())
}

/// `count` traversal sources. A source must start a real traversal, so that
/// no op degenerates into a one-node search whose cost says nothing: a draw
/// needs an out-edge, and the serial BFS from it must reach a quarter of the
/// graph (a rule relaxed after `8 × count` draws, which the generated graphs
/// never need).
pub fn pick_sources(graph: &Csr, rng: &mut Rng, count: usize, tracer: &Tracer) -> Vec<NodeId> {
    let _span = tracer.span("harness.sources");
    let n = graph.num_nodes();
    let mut sources = Vec::with_capacity(count);
    let mut draws = 0usize;
    while sources.len() < count {
        let candidate = rng.below(n) as NodeId;
        draws += 1;
        if graph.degree(candidate) == 0 {
            continue;
        }
        if draws > 8 * count || refalgo::bfs(graph, candidate).reached * 4 >= n {
            sources.push(candidate);
        }
    }
    sources
}

pub const PAGERANK_ITERS: usize = 5;
pub const LABELPROP_ROUNDS: usize = 5;

pub fn pagerank_query() -> Query {
    Query::Pagerank(Pagerank {
        max_iters: PAGERANK_ITERS,
        ..Pagerank::default()
    })
}

pub fn labelprop_query() -> Query {
    Query::LabelProp(gcgt_core::LabelProp {
        max_rounds: LABELPROP_ROUNDS,
    })
}

/// The serial CSR oracle's answer to one query.
pub enum Expected {
    Bfs(Vec<u32>),
    Cc(Vec<NodeId>),
    Bc(BcResult),
    Pagerank(Vec<f64>),
    LabelProp(Vec<NodeId>),
}

pub fn oracle(graph: &Csr, query: &Query) -> Expected {
    match *query {
        Query::Bfs(source) => Expected::Bfs(refalgo::bfs(graph, source).depth),
        Query::Cc => Expected::Cc(refalgo::connected_components(graph).component),
        Query::Bc(source) => Expected::Bc(refalgo::betweenness_from_source(graph, source)),
        Query::Pagerank(p) => Expected::Pagerank(
            refalgo::pagerank(
                graph,
                PagerankConfig {
                    damping: p.damping,
                    max_iters: p.max_iters,
                    tolerance: p.tolerance,
                },
            )
            .0,
        ),
        Query::LabelProp(l) => {
            Expected::LabelProp(refalgo::label_propagation(graph, l.max_rounds).0)
        }
    }
}

/// Absolute tolerance of the repo's oracle suites for PageRank ranks.
const RANK_TOLERANCE: f64 = 1e-6;
/// Relative tolerance of the repo's oracle suites for Brandes dependencies
/// (the backward pass sums in a different order than the serial oracle).
const DELTA_TOLERANCE: f64 = 1e-9;

impl Expected {
    /// Exact for BFS / CC / LabelProp and for BC depths and path counts;
    /// BC dependencies and PageRank ranks within the oracle suites' own
    /// tolerances.
    pub fn matches(&self, got: &QueryOutput) -> bool {
        match (self, got) {
            (Expected::Bfs(want), QueryOutput::Bfs(run)) => *want == run.depth,
            (Expected::Cc(want), QueryOutput::Cc(run)) => *want == run.component,
            (Expected::Bc(want), QueryOutput::Bc(run)) => {
                want.depth == run.depth
                    && want.sigma == run.sigma
                    && want.delta.len() == run.delta.len()
                    && want.delta.iter().zip(&run.delta).all(|(&a, &b)| {
                        (a - b).abs() <= DELTA_TOLERANCE * (1.0 + a.abs().max(b.abs()))
                    })
            }
            (Expected::Pagerank(want), QueryOutput::Pagerank(run)) => {
                want.len() == run.ranks.len()
                    && want
                        .iter()
                        .zip(&run.ranks)
                        .all(|(a, b)| (a - b).abs() < RANK_TOLERANCE)
            }
            (Expected::LabelProp(want), QueryOutput::LabelProp(run)) => *want == run.labels,
            _ => false,
        }
    }
}

/// Order-sensitive 64-bit mix of a word stream: enough to notice any
/// bitwise difference between two passes without keeping every output.
#[derive(Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
    }

    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.words(vs.iter().map(|v| v.to_bits()));
    }

    pub fn u32s(&mut self, vs: &[u32]) {
        self.words(vs.iter().map(|&v| u64::from(v)));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a query's answer *and* its modeled statistics.
pub fn fingerprint_output(output: &QueryOutput) -> u64 {
    let mut fp = Fingerprint::new();
    match output {
        QueryOutput::Bfs(run) => fp.u32s(&run.depth),
        QueryOutput::Cc(run) => fp.u32s(&run.component),
        QueryOutput::Bc(run) => {
            fp.u32s(&run.depth);
            fp.f64s(&run.sigma);
            fp.f64s(&run.delta);
        }
        QueryOutput::Pagerank(run) => fp.f64s(&run.ranks),
        QueryOutput::LabelProp(run) => fp.u32s(&run.labels),
    }
    let stats = output.stats();
    fp.f64s(&[
        stats.est_ms,
        stats.cycles,
        stats.transfer_ms,
        stats.exchange_ms,
        stats.backoff_ms,
    ]);
    fp.words(stats.tally.issues);
    fp.words([
        stats.launches,
        stats.mem.transactions,
        stats.mem.cache_hits,
        stats.allocated_bytes as u64,
        stats.partition_faults,
        stats.partition_evictions,
        stats.pushed_edges,
        stats.pulled_edges,
        stats.boundary_nodes,
        stats.sync_steps,
    ]);
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::toys;

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_across_seeds_and_salts() {
        let draw = |seed, salt| {
            let mut rng = Rng::new(seed, salt);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(2, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
    }

    #[test]
    fn sources_start_real_traversals() {
        let graph = toys::binary_tree(6);
        let tracer = Tracer::new();
        let sources = pick_sources(&graph, &mut Rng::new(5, 0), 4, &tracer);
        assert_eq!(sources.len(), 4);
        // Only the root's neighbourhood reaches a quarter of a directed tree
        // under the strict rule; whatever was picked has an out-edge.
        assert!(sources.iter().all(|&s| graph.degree(s) > 0));
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.u32s(&[1, 2, 3]);
        let mut b = Fingerprint::new();
        b.u32s(&[1, 3, 2]);
        assert_ne!(a.finish(), b.finish());
    }
}
