//! Sharded multi-device traversal: modeled scaling of the frontier
//! exchange as the graph spreads over 1/2/4/8 GPUs.
//!
//! Every dataset runs the same BFS batch through `SessionBuilder::shards`
//! at each device count. The kernel-side modeled time (`Est ms`) is
//! **conserved down each dataset's column** — sharding executes the exact
//! serial warp schedule, the `shard_oracle` differential suite pins this
//! bitwise — while the bulk-synchronous boundary-bitmap exchange
//! (`Exchange ms`, NVLink-class links by default) grows with the device
//! count. The `Exch %` column is the multi-GPU overhead story in one
//! number: what fraction of the modeled runtime is interconnect, not
//! traversal. At bitmap sizes that bill is almost all per-message setup, so
//! the table also shows the lever itself — `Messages` and `Messages/step`,
//! read from a [`MetricsRegistry`] observer — which the log-depth exchange
//! schedule bounds by d·⌈log₂ d⌉ per step instead of d·(d−1).

use std::sync::Arc;

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_session::{Bfs, Session};
use gcgt_simt::obs::{MetricsRegistry, ObserverHandle};

/// Device counts swept per dataset.
pub const DEVICE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One (dataset, device count) measurement.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Modeled devices the graph is sharded onto.
    pub devices: usize,
    /// Distinct remotely-owned discoveries exchanged across the batch.
    pub boundary_nodes: u64,
    /// Bulk-synchronous steps across the batch.
    pub sync_steps: u64,
    /// Interconnect messages sent across the batch.
    pub messages: u64,
    /// Modeled kernel time of the batch — identical at every device count.
    pub est_ms: f64,
    /// Modeled frontier-exchange time of the batch.
    pub exchange_ms: f64,
}

impl ShardRow {
    /// Mean interconnect messages per bulk-synchronous step.
    pub fn messages_per_step(&self) -> f64 {
        if self.sync_steps == 0 {
            0.0
        } else {
            self.messages as f64 / self.sync_steps as f64
        }
    }

    /// Exchange share of the modeled runtime, percent.
    pub fn exchange_pct(&self) -> f64 {
        let total = self.est_ms + self.exchange_ms;
        if total <= 0.0 {
            0.0
        } else {
            100.0 * self.exchange_ms / total
        }
    }
}

/// Runs the sweep: every dataset × every device count, one shared graph
/// copy per dataset.
pub fn rows(ctx: &ExperimentContext) -> Vec<ShardRow> {
    let mut out = Vec::new();
    for ds in &ctx.datasets {
        let shared = Arc::new(ds.graph.clone());
        let sources = super::bfs_sources(&ds.graph, ctx.sources.max(1));
        let queries: Vec<Bfs> = sources.into_iter().map(Bfs::from).collect();
        for devices in DEVICE_SWEEP {
            let metrics = Arc::new(MetricsRegistry::new());
            let session = Session::builder()
                .graph_shared(Arc::clone(&shared))
                .device(ctx.device)
                .shards(devices)
                .observer(ObserverHandle::from_arc(metrics.clone()))
                .build()
                .expect("experiment graphs must fit the device");
            let batch = session.run_batch(&queries);
            out.push(ShardRow {
                dataset: ds.id.name(),
                devices,
                boundary_nodes: batch.stats.boundary_nodes,
                sync_steps: batch.stats.sync_steps,
                messages: metrics.value("gcgt_exchange_messages_total").unwrap_or(0.0) as u64,
                est_ms: batch.stats.est_ms,
                exchange_ms: batch.stats.exchange_ms,
            });
        }
    }
    out
}

/// Renders the sweep as a table.
pub fn render(rows: &[ShardRow]) -> Table {
    let mut t = Table::new(
        "Shard — BFS frontier-exchange overhead vs modeled device count (NVLink links)",
        // Time columns spell out "ms": `Table::modeled_ms_sum` keys the
        // BENCH.json regression baseline off that substring — which is why
        // the message columns are not abbreviated to "msgs".
        &[
            "Dataset",
            "Devices",
            "Boundary nodes",
            "Sync steps",
            "Messages",
            "Messages/step",
            "Est ms",
            "Exchange ms",
            "Exch %",
        ],
    );
    for r in rows {
        t.row(vec![
            r.dataset.to_string(),
            r.devices.to_string(),
            r.boundary_nodes.to_string(),
            r.sync_steps.to_string(),
            r.messages.to_string(),
            format!("{:.1}", r.messages_per_step()),
            fmt_ms(r.est_ms),
            fmt_ms(r.exchange_ms),
            format!("{:.1}%", r.exchange_pct()),
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
    use crate::datasets::{Dataset, Scale};
    use gcgt_graph::{NodeId, UNREACHED};
    use gcgt_session::ShardPlan;

    /// Per device count of the sweep, whether some BFS of `ds`'s batch
    /// reaches nodes of more than one shard. A BFS discovers a node owned
    /// by another device exactly then (its tree crosses a cut), so that is
    /// when the exchange must be non-zero.
    fn spans_shards(ctx: &ExperimentContext, ds: &Dataset) -> Vec<bool> {
        let session = Session::builder()
            .graph(ds.graph.clone())
            .device(ctx.device)
            .build()
            .expect("experiment graphs must fit the device");
        let cgr = session.cgr().expect("GCGT sessions encode");
        let sources = super::super::bfs_sources(&ds.graph, ctx.sources.max(1));
        let reached: Vec<Vec<NodeId>> = sources
            .into_iter()
            .map(|s| {
                let depth = session.run(Bfs::from(s)).output.depth;
                (0..depth.len())
                    .filter(|&u| depth[u] != UNREACHED)
                    .map(|u| session.permutation().map_or(u as NodeId, |p| p[u]))
                    .collect()
            })
            .collect();
        DEVICE_SWEEP
            .iter()
            .map(|&devices| {
                let plan = ShardPlan::build(cgr, devices);
                reached.iter().any(|nodes| {
                    let first = plan.owner_of(nodes[0]);
                    nodes.iter().any(|&u| plan.owner_of(u) != first)
                })
            })
            .collect()
    }

    #[test]
    fn kernel_time_is_conserved_and_exchange_grows_with_devices() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), ctx.datasets.len() * DEVICE_SWEEP.len());
        let mut exchanged = 0;
        for ds in &ctx.datasets {
            let per_ds: Vec<&ShardRow> =
                rows.iter().filter(|r| r.dataset == ds.id.name()).collect();
            assert_eq!(per_ds.len(), DEVICE_SWEEP.len());
            let single = per_ds[0];
            assert_eq!(single.devices, 1);
            assert_eq!(single.exchange_ms, 0.0, "{}", single.dataset);
            assert_eq!(single.boundary_nodes, 0, "{}", single.dataset);
            assert_eq!(single.messages, 0, "{}", single.dataset);
            for row in &per_ds {
                // Sharding never changes the modeled kernel time…
                assert_eq!(
                    row.est_ms.to_bits(),
                    single.est_ms.to_bits(),
                    "{} at {} devices",
                    row.dataset,
                    row.devices
                );
            }
            // …while nested boundaries make the exchange monotone.
            for pair in per_ds.windows(2) {
                assert!(
                    pair[0].boundary_nodes <= pair[1].boundary_nodes,
                    "{}",
                    pair[0].dataset
                );
                assert!(
                    pair[0].exchange_ms <= pair[1].exchange_ms,
                    "{}",
                    pair[0].dataset
                );
            }
            // A device count exchanges exactly when the batch's BFS reach
            // crosses one of its cuts.
            for (row, spans) in per_ds.iter().zip(spans_shards(&ctx, ds)) {
                let at = format!("{} at {} devices", row.dataset, row.devices);
                assert_eq!(row.exchange_ms > 0.0, spans, "{at}");
                assert_eq!(row.boundary_nodes > 0, spans, "{at}");
                assert_eq!(row.messages > 0, spans, "{at}");
                assert_eq!(row.exchange_pct() > 0.0, spans, "{at}");
            }
            let eight = per_ds.last().unwrap();
            assert!(eight.sync_steps > 0, "{}", eight.dataset);
            // One send per device per round: at most 8·⌈log₂ 8⌉ a step.
            assert!(eight.messages_per_step() <= 24.0, "{}", eight.dataset);
            assert!(eight.exchange_pct() < 100.0, "{}", eight.dataset);
            exchanged += usize::from(eight.exchange_ms > 0.0);
        }
        assert!(exchanged > 0, "no dataset's BFS crossed an 8-way cut");
    }
}
