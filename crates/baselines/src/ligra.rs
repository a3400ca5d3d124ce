//! A Ligra-style shared-memory graph engine (Shun & Blelloch, PPoPP'13),
//! over plain CSR (the paper's `Ligra`, the fastest CPU contender of
//! Figure 8) or over byte-RLE compressed adjacency decoded on the fly
//! (`Ligra+`, Shun, Dhulipala & Blelloch, DCC'15 — it trades decode
//! instructions for memory footprint; on most datasets of Figure 8 the two
//! are within a few percent of each other).
//!
//! Ligra's `edgeMap` switches between a *sparse* (push) traversal over the
//! frontier's out-edges and a *dense* (pull) traversal over all unvisited
//! nodes' in-edges, whichever touches less data — the direction-optimizing
//! BFS of Beamer et al. Parallelism comes from chunking nodes over host
//! threads (std::thread::scope) with atomic claim of discovered nodes.
//! Both report real multi-core wall-clock.

use crate::naive::Timed;
use gcgt_cgr::ByteRleGraph;
use gcgt_graph::{Csr, NodeId, UNREACHED};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::Instant;

/// Adjacency storage a [`Ligra`] engine traverses: plain CSR or byte-RLE.
pub trait Adjacency: Sync {
    /// Stores `graph`.
    fn build(graph: &Csr) -> Self;
    /// Out-degree of `u`.
    fn degree(&self, u: NodeId) -> usize;
    /// The neighbours of `u`, ascending.
    fn adj(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_;
    /// Memory footprint in bytes.
    fn size_bytes(&self) -> usize;
}

impl Adjacency for Csr {
    fn build(graph: &Csr) -> Self {
        graph.clone()
    }
    fn degree(&self, u: NodeId) -> usize {
        Csr::degree(self, u)
    }
    fn adj(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(u).iter().copied()
    }
    /// 32-bit CSR.
    fn size_bytes(&self) -> usize {
        self.csr_bytes()
    }
}

impl Adjacency for ByteRleGraph {
    fn build(graph: &Csr) -> Self {
        ByteRleGraph::encode(graph)
    }
    fn degree(&self, u: NodeId) -> usize {
        ByteRleGraph::degree(self, u)
    }
    fn adj(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(u)
    }
    fn size_bytes(&self) -> usize {
        ByteRleGraph::size_bytes(self)
    }
}

/// Workers scale with the graph: thread spawn/join per BFS level costs more
/// than it saves below ~100k edges per worker.
fn worker_count(edges: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    available.min(1 + edges / 100_000).max(1)
}

/// A graph with both directions stored as `A`, prepared for
/// direction-optimizing traversal.
pub struct Ligra<A> {
    fwd: A,
    rev: A,
    num_nodes: usize,
    num_edges: usize,
    threads: usize,
}

/// The paper's `Ligra` baseline: both directions as plain CSR.
pub type LigraGraph = Ligra<Csr>;

/// The paper's `Ligra+` baseline: both directions byte-RLE compressed.
pub type LigraPlusGraph = Ligra<ByteRleGraph>;

impl<A: Adjacency> Ligra<A> {
    /// Builds the forward/backward structures.
    pub fn new(graph: &Csr) -> Self {
        Self {
            fwd: A::build(graph),
            rev: A::build(&graph.transpose()),
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_edges(),
            threads: worker_count(graph.num_edges()),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Memory footprint of both directions.
    pub fn size_bytes(&self) -> usize {
        self.fwd.size_bytes() + self.rev.size_bytes()
    }

    /// Direction-optimizing parallel BFS; returns depths identical to the
    /// serial oracle.
    pub fn bfs(&self, source: NodeId) -> Timed<Vec<u32>> {
        let start = Instant::now();
        let n = self.num_nodes;
        let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
        depth[source as usize].store(0, Relaxed);
        let mut frontier: Vec<NodeId> = vec![source];
        let mut level = 0u32;
        while !frontier.is_empty() {
            let frontier_edges: usize = frontier.iter().map(|&u| self.fwd.degree(u)).sum();
            // Ligra's density threshold: pull once the frontier's out-edges
            // exceed |E| / 20.
            frontier = if frontier_edges > self.num_edges / 20 {
                // Pull: every unvisited node scans its in-neighbours for a
                // frontier member.
                self.fan_out(n, n < 4096, |nodes| {
                    let mut local = Vec::new();
                    for v in nodes.start as NodeId..nodes.end as NodeId {
                        if depth[v as usize].load(Relaxed) == UNREACHED
                            && self
                                .rev
                                .adj(v)
                                .any(|u| depth[u as usize].load(Relaxed) == level)
                        {
                            depth[v as usize].store(level + 1, Relaxed);
                            local.push(v);
                        }
                    }
                    local
                })
            } else {
                // Push: claim unvisited targets with a CAS.
                let mut next = self.fan_out(frontier.len(), frontier_edges < 8192, |part| {
                    let mut local = Vec::new();
                    for &u in &frontier[part] {
                        for v in self.fwd.adj(u) {
                            if depth[v as usize]
                                .compare_exchange(UNREACHED, level + 1, Relaxed, Relaxed)
                                .is_ok()
                            {
                                local.push(v);
                            }
                        }
                    }
                    local
                });
                next.sort_unstable();
                next
            };
            level += 1;
        }
        Timed {
            result: depth.into_iter().map(|d| d.into_inner()).collect(),
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Runs `step` over `0..len` — inline when `small` (spawning threads for
    /// a handful of items costs more than the scan: Ligra's granularity
    /// control), otherwise in one contiguous chunk per worker thread — and
    /// concatenates the results in chunk order.
    fn fan_out(
        &self,
        len: usize,
        small: bool,
        step: impl Fn(Range<usize>) -> Vec<NodeId> + Sync,
    ) -> Vec<NodeId> {
        if small || self.threads == 1 {
            return step(0..len);
        }
        let chunk = len.div_ceil(self.threads).max(1);
        let step = &step;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..len)
                .step_by(chunk)
                .map(|lo| scope.spawn(move || step(lo..(lo + chunk).min(len))))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("ligra worker panicked"))
                .collect()
        })
    }
}

impl LigraPlusGraph {
    /// Compression rate of the forward structure (the paper's metric).
    pub fn compression_rate(&self) -> f64 {
        self.fwd.compression_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::{social_graph, toys, web_graph, SocialParams, WebParams};
    use gcgt_graph::refalgo;

    #[test]
    fn matches_oracle_on_figure1() {
        let g = toys::figure1();
        let want = refalgo::bfs(&g, 0).depth;
        assert_eq!(LigraGraph::new(&g).bfs(0).result, want);
        assert_eq!(LigraPlusGraph::new(&g).bfs(0).result, want);
    }

    #[test]
    fn matches_oracle_on_web_graph() {
        let g = web_graph(&WebParams::uk2002_like(2000), 3);
        let (l, lplus) = (LigraGraph::new(&g), LigraPlusGraph::new(&g));
        for src in [0, 7, 100] {
            let want = refalgo::bfs(&g, src).depth;
            assert_eq!(l.bfs(src).result, want, "ligra src {src}");
            assert_eq!(lplus.bfs(src).result, want, "ligra+ src {src}");
        }
    }

    #[test]
    fn matches_oracle_on_skewed_graph_exercising_dense_mode() {
        // Super-hubs force the frontier over the dense threshold.
        let g = social_graph(&SocialParams::twitter_like(2000), 2);
        let want = refalgo::bfs(&g, 0).depth;
        assert_eq!(LigraGraph::new(&g).bfs(0).result, want);
        assert_eq!(LigraPlusGraph::new(&g).bfs(0).result, want);
    }

    #[test]
    fn disconnected_nodes_unreached() {
        let g = Csr::from_edges(5, &[(0, 1)]);
        let d = LigraGraph::new(&g).bfs(0).result;
        assert_eq!(d[1], 1);
        assert_eq!(d[3], UNREACHED);
    }

    #[test]
    fn compresses_relative_to_csr() {
        let g = web_graph(&WebParams::uk2002_like(3000), 7);
        let l = LigraPlusGraph::new(&g);
        assert!(l.compression_rate() > 1.5, "rate {}", l.compression_rate());
        assert!(l.size_bytes() < LigraGraph::new(&g).size_bytes());
    }
}
