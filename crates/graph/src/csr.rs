//! Compressed Sparse Row graphs (the paper's Figure 1 format).
//!
//! Node ids are `u32` ("assuming 32 bit integers", Section 3.1), adjacency
//! lists are sorted ascending and deduplicated — the precondition for the
//! interval/residual split of CGR.

use std::fmt;

/// Node identifier. The paper assumes 32-bit ids throughout; CGR's
/// compression rate is defined as `32 / bits-per-edge`.
pub type NodeId = u32;

/// Depth marker for nodes not reached by a traversal.
pub const UNREACHED: u32 = u32::MAX;

/// An immutable graph in Compressed Sparse Row form.
///
/// `row_offsets[u] .. row_offsets[u + 1]` indexes `col_indices` with the
/// sorted out-neighbours of `u`, exactly as in Figure 1 of the paper.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    row_offsets: Box<[usize]>,
    col_indices: Box<[NodeId]>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Csr {{ nodes: {}, edges: {} }}",
            self.num_nodes(),
            self.num_edges()
        )
    }
}

impl Csr {
    /// Builds from raw parts. Callers must uphold the invariants; use
    /// [`CsrBuilder`] or [`Csr::from_edges`] otherwise.
    ///
    /// # Panics
    /// Panics if the offsets are not monotone or out of bounds, or if an
    /// adjacency list is unsorted or contains duplicates.
    pub fn from_parts(row_offsets: Vec<usize>, col_indices: Vec<NodeId>) -> Self {
        assert!(
            !row_offsets.is_empty(),
            "row_offsets must have n + 1 entries"
        );
        assert_eq!(
            *row_offsets.last().expect("non-empty checked above"),
            col_indices.len()
        );
        let n = row_offsets.len() - 1;
        for u in 0..n {
            assert!(row_offsets[u] <= row_offsets[u + 1], "offsets not monotone");
            let list = &col_indices[row_offsets[u]..row_offsets[u + 1]];
            for w in list.windows(2) {
                assert!(w[0] < w[1], "adjacency of {u} unsorted or duplicated");
            }
            if let Some(&max) = list.last() {
                assert!((max as usize) < n, "neighbour out of range for node {u}");
            }
        }
        Self {
            row_offsets: row_offsets.into_boxed_slice(),
            col_indices: col_indices.into_boxed_slice(),
        }
    }

    /// Builds from an edge list; duplicates are removed, adjacency sorted.
    /// `n` must exceed every endpoint.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = CsrBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// A graph with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            row_offsets: vec![0; n + 1].into_boxed_slice(),
            col_indices: Box::new([]),
        }
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.row_offsets[u + 1] - self.row_offsets[u]
    }

    /// Sorted out-neighbours of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.col_indices[self.row_offsets[u]..self.row_offsets[u + 1]]
    }

    /// The raw row-offset array (length `n + 1`).
    #[inline]
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// The raw column-index array (length `|E|`).
    #[inline]
    pub fn col_indices(&self) -> &[NodeId] {
        &self.col_indices
    }

    /// Average out-degree `|E| / |V|` (the ratio column of Table 1).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterates all edges in `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// In-degree of every node (how often a node appears as a neighbour —
    /// the quantity DegSort ranks by).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_nodes()];
        for &v in self.col_indices.iter() {
            deg[v as usize] += 1;
        }
        deg
    }

    /// The transposed graph (every edge reversed).
    pub fn transpose(&self) -> Csr {
        // Bucketing keeps each node's sources in increasing order, so every
        // list is sorted and duplicate-free already.
        let reversed = || self.edges().map(|(u, v)| (v, u));
        let (offsets, cols) = bucket_by_key(self.num_nodes(), reversed);
        Csr {
            row_offsets: offsets.into_boxed_slice(),
            col_indices: cols.into_boxed_slice(),
        }
    }

    /// Whether every edge `(u, v)` has its reverse `(v, u)` — i.e. the
    /// out-adjacency doubles as the in-adjacency. Pull-mode (direction-
    /// optimizing) traversal scans a node's *stored* adjacency for frontier
    /// parents, which is only the in-neighbour set on a symmetric graph;
    /// the session layer checks this before enabling pull. O(V + E).
    pub fn is_symmetric(&self) -> bool {
        self.transpose() == *self
    }

    /// The symmetrized graph: for every edge `(u, v)` both directions exist.
    pub fn symmetrized(&self) -> Csr {
        let both = || self.edges().flat_map(|(u, v)| [(u, v), (v, u)]);
        Csr::from_rows(bucket_by_key(self.num_nodes(), both))
    }

    /// Relabels nodes: old node `u` becomes `perm[u]`. Adjacency lists are
    /// re-sorted under the new labels. This is the `σ : V → V` bijection of
    /// Section 3.1 ("Node Reordering").
    pub fn permuted(&self, perm: &[NodeId]) -> Csr {
        assert_eq!(perm.len(), self.num_nodes(), "permutation length mismatch");
        let relabelled = || {
            self.edges()
                .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        };
        Csr::from_rows(bucket_by_key(self.num_nodes(), relabelled))
    }

    /// The graph whose node `u` has the neighbours
    /// `cols[offsets[u]..offsets[u + 1]]`, each row sorted and deduplicated
    /// in place: [`bucket_by_key`]'s buckets, or a decoder's rows.
    /// Neighbours must be below `offsets.len() - 1`.
    ///
    /// # Panics
    /// Panics unless `offsets` runs monotonically from 0 to `cols.len()`.
    pub fn from_rows((mut offsets, mut cols): (Vec<usize>, Vec<NodeId>)) -> Csr {
        assert_eq!(offsets.first(), Some(&0), "rows start at 0");
        assert_eq!(
            offsets.last(),
            Some(&cols.len()),
            "rows end at the column count"
        );
        let n = offsets.len() - 1;
        // Sort each bucket and compact it left past the duplicates dropped
        // so far; `offsets[u]` already holds the compacted start of `u`.
        let (mut start, mut kept) = (0, 0);
        for u in 0..n {
            let end = offsets[u + 1];
            cols[start..end].sort_unstable();
            for i in start..end {
                if kept == offsets[u] || cols[kept - 1] != cols[i] {
                    cols[kept] = cols[i];
                    kept += 1;
                }
            }
            offsets[u + 1] = kept;
            start = end;
        }
        cols.truncate(kept);
        Csr {
            row_offsets: offsets.into_boxed_slice(),
            col_indices: cols.into_boxed_slice(),
        }
    }

    /// Bytes needed to store the graph as plain 32-bit CSR, the paper's
    /// uncompressed reference ("E integers (assuming 32 bit integers)"):
    /// `4·(|E| + |V| + 1)`.
    pub fn csr_bytes(&self) -> usize {
        4 * (self.num_edges() + self.num_nodes() + 1)
    }

    /// Quick structural sanity check used by tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let last = *self
            .row_offsets
            .last()
            .expect("constructors guarantee n + 1 offsets");
        if last != self.col_indices.len() {
            return Err("last offset != edge count".into());
        }
        for u in 0..n {
            if self.row_offsets[u] > self.row_offsets[u + 1] {
                return Err(format!("offsets not monotone at {u}"));
            }
            let list = &self.col_indices[self.row_offsets[u]..self.row_offsets[u + 1]];
            for w in list.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("adjacency of {u} unsorted/duplicated"));
                }
            }
            if let Some(&max) = list.last() {
                if max as usize >= n {
                    return Err(format!("neighbour {max} out of range at {u}"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder that sorts and deduplicates adjacency lists.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl CsrBuilder {
    /// A builder for a graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count exceeds u32 id space");
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-sizes the edge buffer.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Adds a directed edge `u → v`.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push((u, v));
    }

    /// Adds both directions.
    #[inline]
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Finalizes into a [`Csr`], sorting and deduplicating. The pairs are
    /// bucketed by source, then each list is sorted and deduplicated in
    /// place: no global sort of the pairs.
    pub fn build(self) -> Csr {
        Csr::from_rows(bucket_by_key(self.n, || self.edges.iter().copied()))
    }
}

/// Groups the `(key, value)` pairs `pairs()` yields by key in one counting
/// sort (count, prefix sum, scatter; `pairs` is called twice). Returns
/// `n + 1` offsets and the values: key `k`'s values are
/// `values[offsets[k]..offsets[k + 1]]`, in input order. Keys must be
/// below `n`.
pub fn bucket_by_key<I>(n: usize, pairs: impl Fn() -> I) -> (Vec<usize>, Vec<NodeId>)
where
    I: Iterator<Item = (NodeId, NodeId)>,
{
    let mut offsets = vec![0usize; n + 1];
    for (k, _) in pairs() {
        offsets[k as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut values = vec![0 as NodeId; offsets[n]];
    for (k, v) in pairs() {
        values[cursor[k as usize]] = v;
        cursor[k as usize] += 1;
    }
    (offsets, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::toys;
    use proptest::prelude::*;

    /// The reference `CsrBuilder::build` must equal: one global sort and
    /// dedup of the pairs, offsets counted from the sorted list.
    fn globally_sorted(n: usize, mut edges: Vec<(NodeId, NodeId)>) -> Csr {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        Csr::from_parts(offsets, edges.iter().map(|&(_, v)| v).collect())
    }

    fn built(n: usize, edges: &[(NodeId, NodeId)]) -> Csr {
        let mut b = CsrBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Few nodes and many pairs, so duplicates, self-loops and isolated
        /// nodes all occur; `n` reaches 0 and 1.
        #[test]
        fn builder_equals_a_global_sort_and_dedup(
            case in (0usize..24).prop_flat_map(|n| {
                let ids = 0..n.max(1) as NodeId;
                let len = if n == 0 { 0..1 } else { 0..4 * n + 8 };
                proptest::collection::vec((ids.clone(), ids), len)
                    .prop_map(move |edges| (n, edges))
            }),
        ) {
            let (n, edges) = case;
            let got = built(n, &edges);
            prop_assert_eq!(got.validate(), Ok(()));
            prop_assert_eq!(&got, &globally_sorted(n, edges.clone()));
            // Transpose and symmetrize bucket the same pairs.
            let reversed: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
            prop_assert_eq!(got.transpose(), globally_sorted(n, reversed.clone()));
            let both = [edges, reversed].concat();
            prop_assert_eq!(got.symmetrized(), globally_sorted(n, both));
        }
    }

    #[test]
    fn builder_edge_cases_equal_the_global_sort() {
        let cases: [(usize, Vec<(NodeId, NodeId)>); 5] = [
            (0, vec![]),
            (1, vec![]),
            (1, vec![(0, 0), (0, 0)]),
            (5, vec![(4, 0), (4, 0), (2, 2), (4, 1), (0, 4), (2, 2)]),
            (6, vec![(5, 5)]),
        ];
        for (n, edges) in cases {
            assert_eq!(
                built(n, &edges),
                globally_sorted(n, edges.clone()),
                "{edges:?}"
            );
        }
    }

    #[test]
    fn figure1_graph_matches_paper_csr() {
        // Figure 1 of the paper: row offsets and column indices, verbatim.
        let g = toys::figure1();
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.num_edges(), 10);
        assert_eq!(g.row_offsets(), &[0, 3, 6, 7, 7, 7, 9, 10, 10]);
        assert_eq!(g.col_indices(), &[1, 3, 4, 2, 4, 5, 5, 6, 7, 7]);
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
        assert_eq!(g.neighbors(5), &[6, 7]);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn builder_sorts_and_dedups() {
        let mut b = CsrBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(0, 3); // duplicate
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = toys::figure1();
        let t = g.transpose();
        t.validate().unwrap();
        assert_eq!(t.num_edges(), g.num_edges());
        let mut fwd: Vec<_> = g.edges().collect();
        let mut rev: Vec<_> = t.edges().map(|(u, v)| (v, u)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = toys::figure1();
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn symmetrized_contains_both_directions() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let s = g.symmetrized();
        assert_eq!(s.neighbors(0), &[1]);
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.neighbors(2), &[1]);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = toys::figure1();
        // Reverse the ids.
        let n = g.num_nodes() as NodeId;
        let perm: Vec<NodeId> = (0..n).map(|u| n - 1 - u).collect();
        let p = g.permuted(&perm);
        p.validate().unwrap();
        assert_eq!(p.num_edges(), g.num_edges());
        // Every original edge must exist under the new labels.
        for (u, v) in g.edges() {
            let (nu, nv) = (perm[u as usize], perm[v as usize]);
            assert!(p.neighbors(nu).contains(&nv), "{u}->{v} lost");
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = toys::figure1();
        let perm: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        assert_eq!(g.permuted(&perm), g);
    }

    #[test]
    fn in_degrees_count_occurrences() {
        let g = toys::figure1();
        let ind = g.in_degrees();
        assert_eq!(ind[5], 2); // from 1 and 2
        assert_eq!(ind[7], 2); // from 5 and 6
        assert_eq!(ind[0], 0);
        assert_eq!(
            ind.iter().map(|&d| d as usize).sum::<usize>(),
            g.num_edges()
        );
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        g.validate().unwrap();
    }

    #[test]
    fn csr_bytes_formula() {
        let g = toys::figure1();
        assert_eq!(g.csr_bytes(), 4 * (10 + 8 + 1));
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_parts_rejects_unsorted() {
        let _ = Csr::from_parts(vec![0, 2], vec![1, 0]);
    }
}
