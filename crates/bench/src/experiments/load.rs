//! Cold-start loading: what it costs to get a saved CGR back onto the
//! traversal path from a GCGR v2 image (Elias–Fano offset index, zero-copy
//! sections), eagerly validated versus deferred.
//!
//! Per dataset the experiment encodes the graph once, serializes it into
//! memory, proves the buffer round-trips **zero-copy**
//! ([`CgrGraph::from_bytes`] bitwise equal to the encoder's output), and
//! reports modeled cold-start times plus the Elias–Fano offset index's
//! footprint against the device offset index the memory model charges
//! ([`gcgt_cgr::DeviceIndex`]: `u32` entries under a `u64` base per block).
//! The milliseconds are modeled from byte and edge counts — like every
//! other table in this suite they are deterministic, so `bench-json` can
//! pin them as a regression baseline.

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_cgr::{io, CgrConfig, CgrGraph, ValidationMode};
use gcgt_core::Strategy;

/// Modeled sequential read bandwidth for the cold-start estimate
/// (bytes per millisecond; ≈3.2 GB/s NVMe-class storage).
pub const READ_BYTES_PER_MS: f64 = 3.2e6;

/// Modeled eager structural-validation throughput (edges decoded per
/// millisecond on the host).
pub const VALIDATE_EDGES_PER_MS: f64 = 100e3;

/// One dataset's loading profile.
#[derive(Clone, Debug)]
pub struct LoadRow {
    /// Dataset display name.
    pub name: &'static str,
    /// Nodes of the traversed graph.
    pub nodes: usize,
    /// Edges of the traversed graph.
    pub edges: usize,
    /// Serialized v2 size (Elias–Fano offsets), bytes.
    pub v2_bytes: usize,
    /// Device offset-index footprint the memory model charges, bytes.
    pub device_index_bytes: usize,
    /// Elias–Fano offset-index footprint, bytes.
    pub ef_index_bytes: usize,
    /// Modeled v2 cold start: read + eager validation.
    pub v2_ms: f64,
    /// Modeled v2 deferred cold start: read only — validation is paid
    /// lazily, per partition, on first traversal touch.
    pub v2_deferred_ms: f64,
}

/// Profiles every dataset. Also the experiment's correctness gate: each
/// v2 buffer must reload zero-copy into a graph bitwise identical to the
/// encoder's output before its row is emitted.
pub fn rows(ctx: &ExperimentContext) -> Vec<LoadRow> {
    let config = Strategy::Full.cgr_config(&CgrConfig::paper_default());
    let mut out = Vec::new();
    for ds in &ctx.datasets {
        let cgr = CgrGraph::encode(&ds.graph, &config);

        let mut v2 = Vec::new();
        io::write_cgr(&cgr, &mut v2).expect("in-memory v2 write");

        // Zero-copy round trip must be bitwise faithful — this experiment
        // doubles as an end-to-end check over real (generated) datasets.
        let reloaded = CgrGraph::from_bytes(&v2).expect("v2 reload");
        assert!(reloaded.bits().is_shared(), "v2 reload must be zero-copy");
        assert_eq!(reloaded.bits(), cgr.bits());
        assert_eq!(reloaded.offsets_dense(), cgr.offsets_dense());
        let deferred =
            CgrGraph::from_bytes_with(&v2, ValidationMode::Deferred).expect("deferred v2 reload");
        assert!(deferred.validation_pending());

        let nodes = cgr.num_nodes();
        let edges = cgr.num_edges();
        let validate_ms = edges as f64 / VALIDATE_EDGES_PER_MS;
        out.push(LoadRow {
            name: ds.id.name(),
            nodes,
            edges,
            v2_bytes: v2.len(),
            device_index_bytes: cgr.device_index().slice_bytes(0, nodes),
            ef_index_bytes: cgr.index_bytes(),
            v2_ms: v2.len() as f64 / READ_BYTES_PER_MS + validate_ms,
            v2_deferred_ms: v2.len() as f64 / READ_BYTES_PER_MS,
        });
    }
    out
}

/// Renders the profile as a table.
pub fn render(rows: &[LoadRow]) -> Table {
    let mut t = Table::new(
        "Cold start — GCGR v2 (Elias–Fano offsets, zero-copy), eager vs deferred",
        &[
            "Dataset",
            "Nodes",
            "Edges",
            "v2 KiB",
            "Device idx",
            "EF idx",
            "Idx ratio",
            "v2 ms",
            "Defer ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.name.to_string(),
            r.nodes.to_string(),
            r.edges.to_string(),
            format!("{:.1}", r.v2_bytes as f64 / 1024.0),
            format!("{} B", r.device_index_bytes),
            format!("{} B", r.ef_index_bytes),
            format!(
                "{:.2}x",
                r.device_index_bytes as f64 / r.ef_index_bytes.max(1) as f64
            ),
            fmt_ms(r.v2_ms),
            fmt_ms(r.v2_deferred_ms),
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
    fn ef_index_is_smaller_and_deferred_is_cheapest() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), ctx.datasets.len());
        for r in &rows {
            // The EF index on disk must beat the device index it expands
            // into.
            assert!(
                r.ef_index_bytes < r.device_index_bytes,
                "{}: EF {} >= device {}",
                r.name,
                r.ef_index_bytes,
                r.device_index_bytes
            );
            // Deferred loading skips validation, so it is strictly the
            // cheapest cold start.
            assert!(r.v2_deferred_ms < r.v2_ms);
        }
    }

    #[test]
    fn modeled_times_are_deterministic() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let a: Vec<u64> = rows(&ctx).iter().map(|r| r.v2_ms.to_bits()).collect();
        let b: Vec<u64> = rows(&ctx).iter().map(|r| r.v2_ms.to_bits()).collect();
        assert_eq!(a, b);
    }
}
