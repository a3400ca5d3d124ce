//! Dense label counting for label propagation: no hashing per item, and
//! clearing costs only the labels counted.

use crate::csr::NodeId;

/// Counts occurrences of labels `0..labels`: one slot per label, plus the
/// labels counted since the last drain.
#[derive(Clone, Debug)]
pub struct LabelTally {
    counts: Vec<u32>,
    touched: Vec<NodeId>,
}

impl LabelTally {
    /// An empty tally over labels `0..labels`.
    pub fn new(labels: usize) -> Self {
        Self {
            counts: vec![0; labels],
            touched: Vec::new(),
        }
    }

    /// Counts one occurrence of `label`.
    #[inline]
    pub fn add(&mut self, label: NodeId) {
        let slot = &mut self.counts[label as usize];
        if *slot == 0 {
            self.touched.push(label);
        }
        *slot += 1;
    }

    /// Hands every counted `(label, count)` to `visit` in first-count order
    /// and zeroes each slot as it is read, leaving the tally empty.
    pub fn drain(&mut self, mut visit: impl FnMut(NodeId, u32)) {
        for l in self.touched.drain(..) {
            visit(l, std::mem::take(&mut self.counts[l as usize]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_reports_first_count_order_and_empties_the_tally() {
        let mut t = LabelTally::new(8);
        for l in [5, 2, 5, 7, 2, 5] {
            t.add(l);
        }
        let mut seen = Vec::new();
        t.drain(|l, k| seen.push((l, k)));
        assert_eq!(seen, vec![(5, 3), (2, 2), (7, 1)]);
        t.add(2);
        seen.clear();
        t.drain(|l, k| seen.push((l, k)));
        assert_eq!(seen, vec![(2, 1)]);
    }
}
