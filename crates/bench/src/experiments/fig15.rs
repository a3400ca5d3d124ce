//! Figure 15 (Appendix E): GCGT extensions to Connected Components and
//! Betweenness Centrality versus Gunrock and GPUCSR, with the platform OOMs.
//!
//! CC runs on the symmetrized graphs (components are undirected); BC runs
//! two BFS-like passes from one source. The paper's observations reproduced
//! here: GPU extensions stay within moderate overhead of the CSR baselines,
//! BC behaves like ~2× BFS, and Gunrock OOMs on the large datasets. CC
//! decodes the graph once (one expansion, a union-find link, pointer
//! jumping), so it costs less than BC on every dataset: on twitter at scale
//! 0.5, 0.20 ms against BC's 0.40. Twitter's super-nodes floor that one
//! expansion launch, whose critical path is the warp decoding the largest
//! hub, but most of twitter's CC time is the link's scattered label reads.

use std::sync::Arc;

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_session::{Bc, Cc, EngineKind, Session};

/// One (dataset, app, approach) measurement.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// `"CC"` or `"BC"`.
    pub app: &'static str,
    /// Approach name.
    pub approach: &'static str,
    /// `None` = out of device memory.
    pub elapsed_ms: Option<f64>,
}

/// Runs both applications across the three GPU approaches — one session per
/// (engine, view): CC sessions symmetrize inside the builder, BC sessions
/// traverse the directed graph.
pub fn rows(ctx: &ExperimentContext) -> Vec<Fig15Row> {
    let mut out = Vec::new();
    for ds in &ctx.datasets {
        let name = ds.id.name();
        let shared = Arc::new(ds.graph.clone());
        let source = super::sources_for(ds, 1)[0];

        // --- CC (undirected view, built by the session) ---
        for kind in EngineKind::GPU_COMPARISON {
            let ms = Session::builder()
                .graph_shared(shared.clone())
                .symmetrize(true)
                .device(ctx.device)
                .engine(kind)
                .build()
                .ok()
                .map(|session| session.run(Cc).stats.est_ms);
            out.push(Fig15Row {
                dataset: name,
                app: "CC",
                approach: kind.name(),
                elapsed_ms: ms,
            });
        }

        // --- BC (directed, single source) ---
        for kind in EngineKind::GPU_COMPARISON {
            let ms = kind
                .session(shared.clone(), ctx.device)
                .ok()
                .map(|session| session.run(Bc::from(source)).stats.est_ms);
            out.push(Fig15Row {
                dataset: name,
                app: "BC",
                approach: kind.name(),
                elapsed_ms: ms,
            });
        }
    }
    out
}

/// Renders the figure.
pub fn render(rows: &[Fig15Row]) -> Table {
    let mut t = Table::new(
        "Figure 15 — CC and BC (GCGT extensions vs GPU baselines)",
        &["Dataset", "App", "Approach", "Elapsed ms"],
    );
    for r in rows {
        t.row(vec![
            r.dataset.to_string(),
            r.app.to_string(),
            r.approach.to_string(),
            r.elapsed_ms.map(fmt_ms).unwrap_or_else(|| "OOM".into()),
        ]);
    }
    t
}

/// Run + render.
pub fn run(ctx: &ExperimentContext) -> Table {
    render(&rows(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    #[test]
    fn cc_bc_shapes_hold() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), 30);
        let get = |ds: &str, app: &str, ap: &str| {
            rows.iter()
                .find(|r| r.dataset.starts_with(ds) && r.app == app && r.approach == ap)
                .unwrap()
                .elapsed_ms
        };
        // Gunrock OOMs on the symmetrized large datasets.
        assert!(get("uk-2007", "CC", "Gunrock").is_none());
        assert!(get("twitter", "CC", "Gunrock").is_none());
        // GCGT completes everywhere.
        for ds in ["uk-2002", "uk-2007", "ljournal", "twitter", "brain"] {
            assert!(get(ds, "CC", "GCGT").is_some(), "{ds} CC");
            assert!(get(ds, "BC", "GCGT").is_some(), "{ds} BC");
        }
    }
}
