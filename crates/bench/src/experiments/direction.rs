//! Direction-optimizing traversal on compressed graphs: expanded-edge
//! counts and simulated milliseconds, push vs adaptive, on the
//! low-diameter social generator — the workload where Beamer-style
//! direction switching pays the most (a few dense levels hold almost all
//! the edges, and pull's early exit skips most of them).
//!
//! This is the observability counterpart of `RunStats::{push_steps,
//! pull_steps, pushed_edges, pulled_edges}`: the table shows, per graph
//! size, how many candidate edges each schedule expanded and what the
//! simulated device charged for it. The last two columns run betweenness
//! centrality from the same source under both policies: its forward pass
//! pulls a level when the unvisited nodes have fewer edges than the
//! frontier, and must answer exactly as pure push does.

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_core::{Algorithm, Strategy};
use gcgt_graph::gen::{social_graph, SocialParams};
use gcgt_session::{Bc, Bfs, DirectionMode, EngineKind, Run, Session};

/// Graph-size multipliers swept relative to the scale's base size.
pub const SWEEP: [f64; 3] = [0.5, 1.0, 2.0];

/// One point of the sweep: the same BFS under both schedules.
#[derive(Clone, Debug)]
pub struct DirectionRow {
    /// Size multiplier.
    pub factor: f64,
    /// Nodes of the generated (symmetrized) graph.
    pub nodes: usize,
    /// Directed edges of the symmetrized graph.
    pub edges: usize,
    /// BFS levels.
    pub levels: u32,
    /// Candidate edges expanded by the pure-push schedule.
    pub push_expanded: u64,
    /// Candidate edges expanded/examined by the adaptive schedule.
    pub adaptive_expanded: u64,
    /// Levels the adaptive schedule ran in pull mode.
    pub pull_steps: u64,
    /// Simulated milliseconds, pure push.
    pub push_ms: f64,
    /// Simulated milliseconds, adaptive.
    pub adaptive_ms: f64,
    /// Simulated milliseconds of BC from the same source, pure push.
    pub bc_push_ms: f64,
    /// Simulated milliseconds of BC from the same source, adaptive.
    pub bc_adaptive_ms: f64,
}

impl DirectionRow {
    /// Expanded-edge saving factor of the adaptive schedule.
    pub fn saving(&self) -> f64 {
        if self.adaptive_expanded == 0 {
            1.0
        } else {
            self.push_expanded as f64 / self.adaptive_expanded as f64
        }
    }
}

fn run_direction<A: Algorithm>(
    graph: &std::sync::Arc<gcgt_graph::Csr>,
    direction: DirectionMode,
    query: A,
) -> Run<A::Output> {
    Session::builder()
        .graph_shared(std::sync::Arc::clone(graph))
        .engine(EngineKind::Gcgt(Strategy::Full))
        .direction(direction)
        .build()
        .expect("direction sweep graphs fit the default device")
        .run(query)
}

/// Runs the sweep (the base size scales with `ctx.scale`, so `--smoke`
/// exercises the same path in seconds).
pub fn rows(ctx: &ExperimentContext) -> Vec<DirectionRow> {
    let base_nodes = ((3_000.0 * ctx.scale.0) as usize).max(300);
    SWEEP
        .iter()
        .map(|&factor| {
            let nodes = ((base_nodes as f64 * factor) as usize).max(128);
            // Symmetrize once (pull needs in = out neighbours) and share the
            // graph between both sessions.
            let graph = std::sync::Arc::new(
                social_graph(&SocialParams::twitter_like(nodes), 0xD12).symmetrized(),
            );

            let push = run_direction(&graph, DirectionMode::Push, Bfs::from(0));
            let adaptive = run_direction(&graph, DirectionMode::Adaptive, Bfs::from(0));
            assert_eq!(
                push.output.depth, adaptive.output.depth,
                "schedules must answer identically"
            );
            let bc_push = run_direction(&graph, DirectionMode::Push, Bc::from(0));
            let bc_adaptive = run_direction(&graph, DirectionMode::Adaptive, Bc::from(0));
            assert_eq!(bc_push.output.depth, bc_adaptive.output.depth, "BC depth");
            assert_eq!(bc_push.output.sigma, bc_adaptive.output.sigma, "BC σ");
            DirectionRow {
                factor,
                nodes,
                edges: graph.num_edges(),
                levels: push.output.levels,
                push_expanded: push.stats.pushed_edges + push.stats.pulled_edges,
                adaptive_expanded: adaptive.stats.pushed_edges + adaptive.stats.pulled_edges,
                pull_steps: adaptive.stats.pull_steps,
                push_ms: push.stats.est_ms,
                adaptive_ms: adaptive.stats.est_ms,
                bc_push_ms: bc_push.stats.est_ms,
                bc_adaptive_ms: bc_adaptive.stats.est_ms,
            }
        })
        .collect()
}

/// Renders the sweep as a table.
pub fn render(rows: &[DirectionRow]) -> Table {
    let mut t = Table::new(
        "Direction-optimizing BFS and BC — expanded edges and simulated ms, push vs \
         adaptive (low-diameter social generator, GCGT Full)",
        &[
            "Size",
            "Nodes",
            "Edges",
            "Levels",
            "Push edges",
            "Adaptive edges",
            "Saving",
            "Pull lvls",
            "Push ms",
            "Adaptive ms",
            "BC push ms",
            "BC adaptive ms",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}x", r.factor),
            r.nodes.to_string(),
            r.edges.to_string(),
            r.levels.to_string(),
            r.push_expanded.to_string(),
            r.adaptive_expanded.to_string(),
            format!("{:.1}x", r.saving()),
            r.pull_steps.to_string(),
            fmt_ms(r.push_ms),
            fmt_ms(r.adaptive_ms),
            fmt_ms(r.bc_push_ms),
            fmt_ms(r.bc_adaptive_ms),
        ]);
    }
    t
}

/// Convenience: run + render.
pub fn run(ctx: &ExperimentContext) -> Table {
    render(&rows(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    #[test]
    fn adaptive_expands_strictly_fewer_edges_than_push() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), SWEEP.len());
        for r in &rows {
            assert!(
                r.adaptive_expanded < r.push_expanded,
                "{:.1}x: adaptive {} vs push {}",
                r.factor,
                r.adaptive_expanded,
                r.push_expanded
            );
            assert!(r.pull_steps >= 1, "{:.1}x never pulled", r.factor);
            assert!(r.saving() > 1.0);
        }
    }
}
