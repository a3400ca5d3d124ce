//! Layered Label Propagation (Boldi, Rosa, Santini, Vigna — WWW 2011), the
//! reordering the paper selects (Table 2).
//!
//! LLP runs label propagation under the Absolute Potts Model objective at a
//! sequence of resolutions γ: a node adopts the label ℓ maximizing
//! `k_ℓ - γ · (v_ℓ - k_ℓ)` where `k_ℓ` is the number of neighbours with
//! label ℓ and `v_ℓ` the label's global volume. Large γ yields many small
//! clusters; γ = 0 yields coarse ones. The final ordering sorts nodes
//! lexicographically by their per-layer labels (coarse layer outermost),
//! which groups similar nodes at every scale — exactly the property CGR's
//! gap encoding profits from.

use crate::csr::{Csr, NodeId};
use crate::order::{from_ranking, Permutation};
use crate::tally::LabelTally;

/// Configuration for LLP ([`crate::order::Reordering::Llp`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LlpConfig {
    /// Resolution sweep, coarse to fine. The WebGraph implementation uses
    /// γ ∈ {0} ∪ {2^-k}; a short sweep is enough at our scales.
    pub gammas: Vec<f64>,
    /// Label-propagation iterations per layer.
    pub iters_per_layer: usize,
}

impl Default for LlpConfig {
    fn default() -> Self {
        Self {
            gammas: vec![0.0, 1.0 / 64.0, 1.0 / 16.0, 1.0 / 4.0],
            iters_per_layer: 6,
        }
    }
}

/// Computes the LLP permutation.
pub fn llp(graph: &Csr, cfg: &LlpConfig) -> Permutation {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    // Label propagation reads the undirected neighbourhood.
    let sym = graph.symmetrized();
    let mut layer_labels: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.gammas.len());
    for &gamma in &cfg.gammas {
        layer_labels.push(propagate(&sym, gamma, cfg.iters_per_layer));
    }

    // Lexicographic order over (layer_0 label, layer_1 label, ..., id).
    let mut ranking: Vec<NodeId> = (0..n as NodeId).collect();
    ranking.sort_by(|&a, &b| {
        for labels in &layer_labels {
            match labels[a as usize].cmp(&labels[b as usize]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        a.cmp(&b)
    });
    from_ranking(&ranking)
}

/// One label-propagation layer under the APM objective at resolution γ.
/// Returns canonicalized labels (relabelled to first-occurrence order so the
/// lexicographic sort is deterministic).
///
/// A node adopts the label with the highest score, ties to the smaller
/// label. That rule picks the maximum of a total order on
/// `(score, label)` pairs, so it does not depend on the order in which the
/// candidate labels are visited: [`LabelTally`] visits them in first-count
/// order, and any other order gives the same labels.
fn propagate(sym: &Csr, gamma: f64, iters: usize) -> Vec<NodeId> {
    let n = sym.num_nodes();
    let mut label: Vec<NodeId> = (0..n as NodeId).collect();
    let mut volume: Vec<u32> = vec![1; n];
    let mut counts = LabelTally::new(n);

    for _ in 0..iters {
        let mut changed = 0usize;
        for u in 0..n as NodeId {
            let neigh = sym.neighbors(u);
            if neigh.is_empty() {
                continue;
            }
            for &v in neigh {
                counts.add(label[v as usize]);
            }
            let cur = label[u as usize];
            let mut best = cur;
            let mut best_score = f64::MIN;
            counts.drain(|l, k| {
                // Exclude u itself from the label volume it evaluates.
                let vol = volume[l as usize] - u32::from(l == cur);
                let score = k as f64 - gamma * (vol as f64 - k as f64);
                if score > best_score || (score == best_score && l < best) {
                    best = l;
                    best_score = score;
                }
            });
            if best != cur {
                volume[cur as usize] -= 1;
                volume[best as usize] += 1;
                label[u as usize] = best;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
    }
    canonicalize(&label)
}

/// Relabels to dense ids in first-occurrence order, through a dense map
/// indexed by label.
fn canonicalize(labels: &[NodeId]) -> Vec<NodeId> {
    let mut map = vec![NodeId::MAX; labels.iter().max().map_or(0, |&l| l as usize + 1)];
    let mut next = 0;
    labels
        .iter()
        .map(|&l| {
            if map[l as usize] == NodeId::MAX {
                map[l as usize] = next;
                next += 1;
            }
            map[l as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{toys, web_graph, WebParams};
    use crate::order::is_permutation;

    #[test]
    fn produces_valid_permutation() {
        let g = web_graph(&WebParams::uk2002_like(700), 8);
        let p = llp(&g, &LlpConfig::default());
        assert!(is_permutation(&p));
    }

    #[test]
    fn two_cliques_get_contiguous_id_ranges() {
        // Clique A = {0,2,4,6}, clique B = {1,3,5,7} (interleaved ids).
        let mut edges = Vec::new();
        let a = [0u32, 2, 4, 6];
        let b = [1u32, 3, 5, 7];
        for set in [a, b] {
            for &u in &set {
                for &v in &set {
                    if u != v {
                        edges.push((u, v));
                    }
                }
            }
        }
        let g = Csr::from_edges(8, &edges);
        let p = llp(&g, &LlpConfig::default());
        assert!(is_permutation(&p));
        let new_a: Vec<u32> = a.iter().map(|&u| p[u as usize]).collect();
        let new_b: Vec<u32> = b.iter().map(|&u| p[u as usize]).collect();
        let spread = |v: &[u32]| *v.iter().max().unwrap() - *v.iter().min().unwrap();
        assert_eq!(spread(&new_a), 3, "clique A not contiguous: {new_a:?}");
        assert_eq!(spread(&new_b), 3, "clique B not contiguous: {new_b:?}");
    }

    #[test]
    fn equal_scores_go_to_the_smaller_label() {
        // Paths 0-2-4 and 1-3-4, one pass at γ = 0 in id order: node 2
        // weighs its own label 2 (via 0) against 4, node 3 weighs 3 against
        // 4, and node 4 weighs 2 against 3, each at one vote apiece. The
        // smaller label wins every time: labels 2,3,2,3,2. The larger would
        // give 2,3,4,4,4, which canonicalizes differently.
        let g = Csr::from_edges(5, &[(0, 2), (1, 3), (2, 4), (3, 4)]).symmetrized();
        assert_eq!(propagate(&g, 0.0, 1), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn canonicalize_dense_first_occurrence() {
        assert_eq!(canonicalize(&[7, 7, 3, 7, 9]), vec![0, 0, 1, 0, 2]);
    }

    #[test]
    fn deterministic() {
        let g = toys::grid(6, 6);
        let cfg = LlpConfig::default();
        assert_eq!(llp(&g, &cfg), llp(&g, &cfg));
    }

    #[test]
    fn isolated_nodes_supported() {
        let g = Csr::from_edges(10, &[(0, 1)]);
        let p = llp(&g, &LlpConfig::default());
        assert!(is_permutation(&p));
    }
}
