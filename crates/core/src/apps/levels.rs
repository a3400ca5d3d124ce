//! The level loop BFS and BC's forward pass share. [`Levels`] owns the
//! per-query state — one depth array, which is also the visited state
//! (`depth[v] != UNREACHED`), the frontier and, for BC, every level
//! reached — and the steps each level repeats: the ascending scan of
//! unvisited candidates, the merge of a launch's discoveries, and the
//! compaction rule. The apps keep their loop header, direction predicate,
//! launches and sinks: per level they take the work list from
//! [`Levels::push`] or [`Levels::pull`], fold the launch's pairs in with
//! [`Levels::merge`], and close the level with [`Levels::advance`].
//!
//! **The compaction rule.** A device-filling work list that
//! [`launch_expansion`] will split is compacted into ascending order just
//! before that launch ([`compact_frontier`], which also computes the degree
//! prefix the schedule's edge cut reads): a push frontier, or the
//! candidates of a pull that expands whole lists. Smaller lists keep
//! discovery order: the schedule spreads them over the SMs, and a
//! compaction launch would cost more than it saves. Kept levels are
//! compacted when they are discovered instead, because BC's backward pass
//! expands them again, and a level that *is* the compacted candidate list
//! is not compacted twice. BFS's early-exit scan is never compacted.
//!
//! [`launch_expansion`]: crate::engine::launch_expansion

use gcgt_graph::{NodeId, UNREACHED};
use gcgt_simt::Device;

use crate::engine::{compact_frontier, Expander};

/// One level's launch input.
pub(crate) struct Level<'l> {
    /// The work list: the frontier (push) or the candidates (pull).
    pub nodes: &'l [NodeId],
    /// Depth labels as of the level's start.
    pub depth: &'l [u32],
    /// The frontier's depth.
    pub du: u32,
}

/// The state of one level-synchronous traversal from a source.
pub(crate) struct Levels {
    depth: Vec<u32>,
    /// The levels reached, the frontier last (only the frontier unless
    /// levels are kept).
    levels: Vec<Vec<NodeId>>,
    keep: bool,
    /// The frontier's depth.
    du: u32,
    reached: usize,
    /// This level's ascending unvisited candidates, when it pulls.
    candidates: Vec<NodeId>,
    /// This level's first discoveries, in merge order.
    next: Vec<NodeId>,
}

impl Levels {
    /// A traversal of `n` nodes from `source`; with `keep`, every level
    /// stays for [`Levels::into_parts`].
    pub fn new(n: usize, source: NodeId, keep: bool) -> Self {
        let mut depth = vec![UNREACHED; n];
        depth[source as usize] = 0;
        Self {
            depth,
            levels: vec![vec![source]],
            keep,
            du: 0,
            reached: 1,
            candidates: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The frontier: the nodes at depth [`Levels::du`].
    pub fn frontier(&self) -> &[NodeId] {
        self.levels.last().expect("the source level")
    }

    /// The frontier's depth.
    pub fn du(&self) -> u32 {
        self.du
    }

    /// Nodes reached so far, the source included.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Nodes not reached yet.
    pub fn unreached(&self) -> usize {
        self.depth.len() - self.reached
    }

    /// A push level over the frontier.
    pub fn push(&mut self, engine: &dyn Expander, device: &mut Device) -> Level<'_> {
        let frontier = self.levels.last_mut().expect("the source level");
        if !self.keep && engine.device_config().fills_device(frontier.len()) {
            compact_frontier(engine, device, frontier);
        }
        Level {
            nodes: frontier,
            depth: &self.depth,
            du: self.du,
        }
    }

    /// A pull level over the unvisited candidates: with `whole` the launch
    /// expands their whole lists, else it scans each up to a first parent.
    pub fn pull(&mut self, engine: &dyn Expander, device: &mut Device, whole: bool) -> Level<'_> {
        let depth = &self.depth;
        self.candidates.clear();
        self.candidates
            .extend((0..depth.len() as NodeId).filter(|&v| depth[v as usize] == UNREACHED));
        if whole && engine.device_config().fills_device(self.candidates.len()) {
            // Already ascending: the launch computes the degree prefix.
            compact_frontier(engine, device, &mut self.candidates);
        }
        Level {
            nodes: &self.candidates,
            depth,
            du: self.du,
        }
    }

    /// Merges a launch's `(parent, child)` pairs in order: a child's first
    /// discovery sets its depth to `du + 1` and appends it to the next
    /// level, and `on_edge(parent, child)` runs for each pair whose child
    /// is on the next level.
    pub fn merge(
        &mut self,
        pairs: impl IntoIterator<Item = (NodeId, NodeId)>,
        mut on_edge: impl FnMut(NodeId, NodeId),
    ) {
        let next_depth = self.du + 1;
        for (u, v) in pairs {
            let dv = &mut self.depth[v as usize];
            if *dv == UNREACHED {
                *dv = next_depth;
                self.next.push(v);
            }
            if *dv == next_depth {
                on_edge(u, v);
            }
        }
    }

    /// Ends the level and returns how many nodes it discovered: they become
    /// the frontier, one level deeper. When there are none, the traversal
    /// is over and the frontier stays.
    pub fn advance(&mut self, engine: &dyn Expander, device: &mut Device) -> usize {
        let mut next = std::mem::take(&mut self.next);
        if self.keep {
            if !self.candidates.is_empty() && next.len() == self.candidates.len() {
                // Every candidate found a parent: the level is the
                // candidate list, ascending and compacted if it fills the
                // device.
                next = std::mem::take(&mut self.candidates);
            } else if engine.device_config().fills_device(next.len()) {
                compact_frontier(engine, device, &mut next);
            }
        }
        self.candidates.clear();
        let found = next.len();
        if found > 0 {
            self.du += 1;
            self.reached += found;
            if self.keep {
                self.levels.push(next);
            } else {
                // The old frontier's buffer collects the next level.
                std::mem::swap(&mut self.levels[0], &mut next);
                next.clear();
                self.next = next;
            }
        }
        found
    }

    /// The depth labels and the levels kept.
    pub fn into_parts(self) -> (Vec<u32>, Vec<Vec<NodeId>>) {
        (self.depth, self.levels)
    }
}
