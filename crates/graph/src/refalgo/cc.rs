//! Serial connected components (union-find oracle).
//!
//! Components are computed over the *undirected* view of the graph, the
//! semantics of the CC the paper adopts (Section 6, Figure 7(c)). The
//! simulated CC links with the same rule, but over one direction of each
//! edge and in the device's warp order; the labels (smallest member id) do
//! not depend on that order, so this oracle checks them exactly.

use crate::csr::{Csr, NodeId};

/// Result of a connected-components run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcResult {
    /// Component label per node: the smallest node id in its component.
    pub component: Vec<NodeId>,
    /// Number of distinct components.
    pub count: usize,
}

/// Union-find with path halving and union by smaller id, so labels are
/// canonical (smallest member id) and results comparable across
/// implementations.
pub fn connected_components(graph: &Csr) -> CcResult {
    let n = graph.num_nodes();
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();

    fn find(parent: &mut [NodeId], mut x: NodeId) -> NodeId {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp; // path halving
            x = gp;
        }
        x
    }

    for (u, v) in graph.edges() {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            // Hook the larger root under the smaller one → canonical labels.
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent[hi as usize] = lo;
        }
    }
    let mut component = vec![0 as NodeId; n];
    let mut count = 0usize;
    for u in 0..n as NodeId {
        let r = find(&mut parent, u);
        component[u as usize] = r;
        if r == u {
            count += 1;
        }
    }
    CcResult { component, count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::toys;

    #[test]
    fn single_component_on_figure1() {
        let g = toys::figure1();
        let r = connected_components(&g);
        assert_eq!(r.count, 1);
        assert!(r.component.iter().all(|&c| c == 0));
    }

    #[test]
    fn isolated_nodes_are_own_components() {
        let g = Csr::from_edges(5, &[(0, 1)]);
        let r = connected_components(&g);
        assert_eq!(r.count, 4); // {0,1}, {2}, {3}, {4}
        assert_eq!(r.component[0], 0);
        assert_eq!(r.component[1], 0);
        assert_eq!(r.component[2], 2);
    }

    #[test]
    fn labels_are_smallest_member() {
        let g = Csr::from_edges(6, &[(5, 3), (3, 4), (1, 2)]);
        let r = connected_components(&g);
        assert_eq!(r.component[3], 3);
        assert_eq!(r.component[4], 3);
        assert_eq!(r.component[5], 3);
        assert_eq!(r.component[1], 1);
        assert_eq!(r.component[2], 1);
        assert_eq!(r.component[0], 0);
        assert_eq!(r.count, 3);
    }

    #[test]
    fn direction_is_ignored() {
        let a = connected_components(&Csr::from_edges(3, &[(0, 1), (2, 1)]));
        let b = connected_components(&Csr::from_edges(3, &[(1, 0), (1, 2)]));
        assert_eq!(a, b);
        assert_eq!(a.count, 1);
    }

    #[test]
    fn two_cliques() {
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                    edges.push((u + 4, v + 4));
                }
            }
        }
        let r = connected_components(&Csr::from_edges(8, &edges));
        assert_eq!(r.count, 2);
    }
}
