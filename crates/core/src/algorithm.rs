//! The uniform application interface of the Session API.
//!
//! Every app of the expansion–filtering–contraction pipeline (Section 6) is
//! expressed as a value implementing [`Algorithm`]: `Bfs::from(source)`,
//! `Cc`, `Bc::from(source)`, `Pagerank::default()`, `LabelProp::default()`.
//! A session (or any holder of an [`Expander`]) executes them uniformly —
//! one code path for every engine × application combination, where the old
//! free-function API forced each call site to wire engines and apps by hand.
//!
//! Two hooks make algorithms *id-space aware* so sessions can own node
//! reordering end to end:
//!
//! * [`Algorithm::remap_sources`] translates node-id parameters (BFS/BC
//!   sources) from the caller's original id space into the reordered one;
//! * [`Algorithm::unpermute`] translates per-node output arrays back, so
//!   callers never observe internal ids.
//!
//! [`Query`] packages the five applications as one runtime-chosen value for
//! heterogeneous batches (`Session::run_batch`).

use gcgt_graph::NodeId;
use gcgt_simt::{Device, TypedFailure};

use crate::apps::bc::{bc_in, BcRun};
use crate::apps::bfs::{bfs_in, BfsRun};
use crate::apps::cc::{cc_in, CcRun};
use crate::apps::labelprop::{label_propagation_in, LabelPropRun};
use crate::apps::pagerank::{pagerank_in, PagerankRun};
use crate::engine::Expander;

/// A graph application runnable on any [`Expander`] against a device the
/// caller owns (so multiple queries can share one graph residency).
///
/// `Send + Sync` is part of the contract (and `Send` for the output):
/// queries travel from the submitting thread to pool workers in the
/// concurrent serving layer, and results travel back. Every application is
/// a small plain value, so the bounds are free.
pub trait Algorithm: Clone + Send + Sync {
    /// The application's result type (one of the `*Run` structs).
    type Output: Send;

    /// Display name (reports, traces).
    fn name(&self) -> &'static str;

    /// Translates node-id parameters through `perm` (`perm[original] =
    /// internal`). Algorithms without node-id parameters keep the default.
    #[must_use]
    fn remap_sources(self, perm: &[NodeId]) -> Self {
        let _ = perm;
        self
    }

    /// The node-id parameter this algorithm starts from, if it has one
    /// (original id space). Validation hook: the serving pool rejects
    /// queries whose source falls outside the prepared graph with a typed
    /// `SourceOutOfRange` error *before* dispatch, instead of letting
    /// [`Algorithm::remap_sources`] panic deep in a worker. Source-less
    /// algorithms keep the `None` default and are always in range.
    fn source(&self) -> Option<NodeId> {
        None
    }

    /// Runs on `engine`, accounting on `device` (graph already resident).
    ///
    /// # Errors
    /// The first [`TypedFailure`] of a launch or of the scratch allocation;
    /// `device` is then mid-query and should be discarded.
    fn execute(
        &self,
        engine: &dyn Expander,
        device: &mut Device,
    ) -> Result<Self::Output, TypedFailure>;

    /// Translates per-node output arrays from the internal id space back to
    /// original ids (`perm[original] = internal`). Identity by default.
    #[must_use]
    fn unpermute(output: Self::Output, perm: &[NodeId]) -> Self::Output {
        let _ = perm;
        output
    }
}

/// `out[original] = v[perm[original]]` — pulls a per-node array back into
/// the caller's id space.
fn unpermute_nodewise<T: Copy>(v: &[T], perm: &[NodeId]) -> Vec<T> {
    debug_assert_eq!(v.len(), perm.len());
    perm.iter().map(|&internal| v[internal as usize]).collect()
}

/// Breadth-first search from one source (the paper's primary workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bfs {
    /// Source node (original id space when run through a session).
    pub source: NodeId,
}

impl From<NodeId> for Bfs {
    fn from(source: NodeId) -> Self {
        Bfs { source }
    }
}

impl Algorithm for Bfs {
    type Output = BfsRun;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn remap_sources(self, perm: &[NodeId]) -> Self {
        Bfs {
            source: perm[self.source as usize],
        }
    }

    fn source(&self) -> Option<NodeId> {
        Some(self.source)
    }

    fn execute(&self, engine: &dyn Expander, device: &mut Device) -> Result<BfsRun, TypedFailure> {
        bfs_in(engine, device, self.source)
    }

    fn unpermute(mut output: BfsRun, perm: &[NodeId]) -> BfsRun {
        output.depth = unpermute_nodewise(&output.depth, perm);
        output
    }
}

/// Connected components (one expansion, union-find linking, pointer
/// jumping). Run it on a session built with `.symmetrize(true)` —
/// components are defined on the undirected view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Cc;

impl Algorithm for Cc {
    type Output = CcRun;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn execute(&self, engine: &dyn Expander, device: &mut Device) -> Result<CcRun, TypedFailure> {
        cc_in(engine, device)
    }

    fn unpermute(mut output: CcRun, perm: &[NodeId]) -> CcRun {
        // Pull membership back to original positions, then re-canonicalize
        // labels as the smallest *original* id of each component (matching
        // the serial oracle's convention).
        let membership = unpermute_nodewise(&output.component, perm);
        let n = membership.len();
        let mut smallest: Vec<NodeId> = vec![NodeId::MAX; n];
        for (original, &internal_label) in membership.iter().enumerate() {
            let slot = &mut smallest[internal_label as usize];
            *slot = (*slot).min(original as NodeId);
        }
        output.component = membership
            .iter()
            .map(|&internal_label| smallest[internal_label as usize])
            .collect();
        output
    }
}

/// Single-source betweenness centrality (Brandes forward + backward pass).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bc {
    /// Source node (original id space when run through a session).
    pub source: NodeId,
}

impl From<NodeId> for Bc {
    fn from(source: NodeId) -> Self {
        Bc { source }
    }
}

impl Algorithm for Bc {
    type Output = BcRun;

    fn name(&self) -> &'static str {
        "bc"
    }

    fn remap_sources(self, perm: &[NodeId]) -> Self {
        Bc {
            source: perm[self.source as usize],
        }
    }

    fn source(&self) -> Option<NodeId> {
        Some(self.source)
    }

    fn execute(&self, engine: &dyn Expander, device: &mut Device) -> Result<BcRun, TypedFailure> {
        bc_in(engine, device, self.source)
    }

    fn unpermute(mut output: BcRun, perm: &[NodeId]) -> BcRun {
        output.depth = unpermute_nodewise(&output.depth, perm);
        output.sigma = unpermute_nodewise(&output.sigma, perm);
        output.delta = unpermute_nodewise(&output.delta, perm);
        output
    }
}

/// Damped PageRank (rank push over all nodes per iteration).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pagerank {
    /// Damping factor (the classic 0.85).
    pub damping: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for Pagerank {
    fn default() -> Self {
        Pagerank {
            damping: 0.85,
            max_iters: 100,
            tolerance: 1e-9,
        }
    }
}

impl Algorithm for Pagerank {
    type Output = PagerankRun;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn execute(
        &self,
        engine: &dyn Expander,
        device: &mut Device,
    ) -> Result<PagerankRun, TypedFailure> {
        pagerank_in(engine, device, self.damping, self.max_iters, self.tolerance)
    }

    fn unpermute(mut output: PagerankRun, perm: &[NodeId]) -> PagerankRun {
        output.ranks = unpermute_nodewise(&output.ranks, perm);
        output
    }
}

/// Synchronous label propagation (community detection).
///
/// Note: labels are node ids and ties break toward the smaller label, so on
/// a *reordered* session the converged communities can legitimately differ
/// from an unordered run — the tie-breaking order is part of the algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelProp {
    /// Round cap.
    pub max_rounds: usize,
}

impl Default for LabelProp {
    fn default() -> Self {
        LabelProp { max_rounds: 20 }
    }
}

impl Algorithm for LabelProp {
    type Output = LabelPropRun;

    fn name(&self) -> &'static str {
        "labelprop"
    }

    fn execute(
        &self,
        engine: &dyn Expander,
        device: &mut Device,
    ) -> Result<LabelPropRun, TypedFailure> {
        label_propagation_in(engine, device, self.max_rounds)
    }

    fn unpermute(mut output: LabelPropRun, perm: &[NodeId]) -> LabelPropRun {
        // Labels are node ids: pull positions back AND translate the label
        // values to original ids (inverse permutation).
        let mut inverse = vec![0 as NodeId; perm.len()];
        for (original, &internal) in perm.iter().enumerate() {
            inverse[internal as usize] = original as NodeId;
        }
        output.labels = unpermute_nodewise(&output.labels, perm)
            .into_iter()
            .map(|internal_label| inverse[internal_label as usize])
            .collect();
        output
    }
}

/// A runtime-chosen application — the unit of heterogeneous serving batches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Query {
    /// BFS from a source.
    Bfs(NodeId),
    /// Connected components.
    Cc,
    /// Betweenness centrality from a source.
    Bc(NodeId),
    /// PageRank with the given parameters.
    Pagerank(Pagerank),
    /// Label propagation with the given round cap.
    LabelProp(LabelProp),
}

/// Result of one [`Query`].
///
/// `PartialEq` compares the wrapped run bitwise (outputs **and** statistics)
/// — the equality the differential concurrency suite asserts between pool
/// and serial execution.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// BFS result.
    Bfs(BfsRun),
    /// CC result.
    Cc(CcRun),
    /// BC result.
    Bc(BcRun),
    /// PageRank result.
    Pagerank(PagerankRun),
    /// Label propagation result.
    LabelProp(LabelPropRun),
}

impl QueryOutput {
    /// The BFS result, if this was a BFS query.
    pub fn as_bfs(&self) -> Option<&BfsRun> {
        match self {
            QueryOutput::Bfs(run) => Some(run),
            _ => None,
        }
    }

    /// The simulated-device statistics of whichever application ran.
    pub fn stats(&self) -> &gcgt_simt::RunStats {
        match self {
            QueryOutput::Bfs(run) => &run.stats,
            QueryOutput::Cc(run) => &run.stats,
            QueryOutput::Bc(run) => &run.stats,
            QueryOutput::Pagerank(run) => &run.stats,
            QueryOutput::LabelProp(run) => &run.stats,
        }
    }

    /// Mutable access to the embedded statistics. The chaos oracle uses
    /// this to compare *answers* across fault plans: under injection the
    /// algorithmic payload must stay bitwise the fault-free run's while
    /// the stats legitimately carry retry/backoff charges — normalizing
    /// them makes `PartialEq` exactly that payload comparison.
    pub fn stats_mut(&mut self) -> &mut gcgt_simt::RunStats {
        match self {
            QueryOutput::Bfs(run) => &mut run.stats,
            QueryOutput::Cc(run) => &mut run.stats,
            QueryOutput::Bc(run) => &mut run.stats,
            QueryOutput::Pagerank(run) => &mut run.stats,
            QueryOutput::LabelProp(run) => &mut run.stats,
        }
    }
}

impl Algorithm for Query {
    type Output = QueryOutput;

    fn name(&self) -> &'static str {
        match self {
            Query::Bfs(_) => "bfs",
            Query::Cc => "cc",
            Query::Bc(_) => "bc",
            Query::Pagerank(_) => "pagerank",
            Query::LabelProp(_) => "labelprop",
        }
    }

    fn remap_sources(self, perm: &[NodeId]) -> Self {
        match self {
            Query::Bfs(s) => Query::Bfs(perm[s as usize]),
            Query::Bc(s) => Query::Bc(perm[s as usize]),
            other => other,
        }
    }

    fn source(&self) -> Option<NodeId> {
        match *self {
            Query::Bfs(s) | Query::Bc(s) => Some(s),
            _ => None,
        }
    }

    fn execute(
        &self,
        engine: &dyn Expander,
        device: &mut Device,
    ) -> Result<QueryOutput, TypedFailure> {
        match *self {
            Query::Bfs(s) => Bfs { source: s }
                .execute(engine, device)
                .map(QueryOutput::Bfs),
            Query::Cc => Cc.execute(engine, device).map(QueryOutput::Cc),
            Query::Bc(s) => Bc { source: s }
                .execute(engine, device)
                .map(QueryOutput::Bc),
            Query::Pagerank(p) => p.execute(engine, device).map(QueryOutput::Pagerank),
            Query::LabelProp(l) => l.execute(engine, device).map(QueryOutput::LabelProp),
        }
    }

    fn unpermute(output: QueryOutput, perm: &[NodeId]) -> QueryOutput {
        match output {
            QueryOutput::Bfs(run) => QueryOutput::Bfs(Bfs::unpermute(run, perm)),
            QueryOutput::Cc(run) => QueryOutput::Cc(Cc::unpermute(run, perm)),
            QueryOutput::Bc(run) => QueryOutput::Bc(Bc::unpermute(run, perm)),
            QueryOutput::Pagerank(run) => QueryOutput::Pagerank(Pagerank::unpermute(run, perm)),
            QueryOutput::LabelProp(run) => QueryOutput::LabelProp(LabelProp::unpermute(run, perm)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GcgtEngine;
    use crate::strategy::Strategy;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_graph::gen::toys;
    use gcgt_graph::refalgo;
    use gcgt_simt::DeviceConfig;

    #[test]
    fn algorithms_run_through_dyn_dispatch() {
        let g = toys::figure1();
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full);
        let dyn_engine: &dyn Expander = &engine;
        let mut device = dyn_engine.new_device().unwrap();
        let run = Bfs::from(0).execute(dyn_engine, &mut device).unwrap();
        assert_eq!(run.depth, refalgo::bfs(&g, 0).depth);
    }

    #[test]
    fn bfs_unpermute_restores_original_ids() {
        // Permutation on 4 nodes: perm[orig] = internal.
        let perm: Vec<NodeId> = vec![2, 0, 3, 1];
        let internal_depth = vec![10, 11, 12, 13];
        let run = BfsRun {
            depth: internal_depth,
            reached: 4,
            levels: 2,
            stats: gcgt_simt::Device::new(DeviceConfig::test_tiny()).stats(),
        };
        let out = Bfs::unpermute(run, &perm);
        assert_eq!(out.depth, vec![12, 10, 13, 11]);
    }

    #[test]
    fn query_batch_mixes_applications() {
        let g = toys::figure1().symmetrized();
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::Full);
        let mut device = engine.new_device().unwrap();
        let queries = [
            Query::Bfs(0),
            Query::Cc,
            Query::Pagerank(Pagerank::default()),
        ];
        let outputs: Vec<QueryOutput> = queries
            .iter()
            .map(|q| q.execute(&engine, &mut device).unwrap())
            .collect();
        assert!(outputs[0].as_bfs().is_some());
        assert!(matches!(outputs[1], QueryOutput::Cc(_)));
        assert!(matches!(outputs[2], QueryOutput::Pagerank(_)));
        // Shared device: launches accumulate across the batch.
        let total = device.stats();
        let per_query: u64 = outputs.iter().map(|o| o.stats().launches).sum();
        assert_eq!(total.launches, per_query);
    }
}
