//! The fit→stream transition: BFS cost as the graph grows **past** device
//! capacity — the scenario neither Figure 8 nor Figure 15 can express
//! (their OOM bars simply stop).
//!
//! The device capacity is fixed across the sweep: large enough for every
//! point's resident traversal buffers (labels and frontiers stay on-device
//! even in EMOGI-style streaming) plus **half** the reference graph's
//! compressed structure. Graphs at or below the reference size fit
//! entirely; larger ones exceed capacity, so in-core GCGT reports OOM while
//! the out-of-core engine (`EngineKind::OutOfCore` + `memory_budget`) keeps
//! answering, paying streamed partition transfers that the table attributes
//! explicitly (faults, the coalesced uploads they crossed the link in,
//! the sparse launches that read their lines through instead and how many
//! lines those fetched, evictions, streamed milliseconds) — the EMOGI-style
//! "traversal beyond device memory" workload. The partitions cross the
//! link compressed, but the sweep has no uncompressed streaming row, so
//! the table does not measure what compression saves in transfer.

use super::ExperimentContext;
use crate::table::{fmt_ms, Table};
use gcgt_core::{memory, Strategy};
use gcgt_graph::gen::{web_graph, WebParams};
use gcgt_graph::Csr;
use gcgt_session::{Bfs, EngineKind, Session, SessionError};
use gcgt_simt::DeviceConfig;

/// Graph-size multipliers swept, relative to the reference size that
/// anchors the device capacity.
pub const SWEEP: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

/// One point of the sweep.
#[derive(Clone, Debug)]
pub struct OocRow {
    /// Graph size multiplier relative to the capacity-defining point.
    pub factor: f64,
    /// Nodes of the generated graph.
    pub nodes: usize,
    /// In-core footprint (CGR + traversal buffers), bytes.
    pub footprint: usize,
    /// In-core GCGT time; `None` = out of device memory.
    pub incore_ms: Option<f64>,
    /// Out-of-core time (execution + streamed transfers).
    pub ooc_ms: f64,
    /// Whether the out-of-core session actually streamed.
    pub streamed: bool,
    /// Partitions a launch found non-resident.
    pub faults: u64,
    /// Coalesced link transfers faulted partitions were uploaded in.
    pub uploads: u64,
    /// Launches that read their missing partitions' lines through.
    pub read_throughs: u64,
    /// Distinct 128-byte lines those read-throughs fetched.
    pub read_through_lines: u64,
    /// Partitions evicted.
    pub evictions: u64,
    /// Streamed transfer milliseconds (post-overlap).
    pub transfer_ms: f64,
}

/// Runs the sweep. The base graph size scales with `ctx.scale` like every
/// other experiment, so `--smoke` runs exercise the same path in seconds.
pub fn rows(ctx: &ExperimentContext) -> Vec<OocRow> {
    let base_nodes = ((4_000.0 * ctx.scale.0) as usize).max(256);
    let graphs: Vec<(f64, Csr)> = SWEEP
        .iter()
        .map(|&factor| {
            let nodes = ((base_nodes as f64 * factor) as usize).max(64);
            (factor, web_graph(&WebParams::uk2002_like(nodes), 0x00C))
        })
        .collect();

    // Fixed device capacity: every point's resident traversal buffers fit,
    // plus half the reference (factor 1.0) compressed structure — so the
    // reference fits in-core with room to spare and larger graphs do not.
    let reference_graph = &graphs
        .iter()
        .find(|(factor, _)| *factor == 1.0)
        .expect("SWEEP must contain the 1.0 reference point")
        .1;
    let reference = Session::builder()
        .graph(reference_graph.clone())
        .build()
        .expect("reference graph fits the default device");
    let max_buffers = graphs
        .iter()
        .map(|(_, g)| memory::traversal_buffers_bytes(g.num_nodes()))
        .max()
        .expect("the dataset sweep is never empty");
    let capacity = max_buffers + reference.structure_bytes() / 2;
    let device = DeviceConfig::titan_v_scaled(capacity);

    let mut out = Vec::new();
    for (factor, graph) in graphs {
        let source = super::bfs_sources(&graph, 1)[0];

        let incore_ms = match Session::builder()
            .graph(graph.clone())
            .device(device)
            .engine(EngineKind::Gcgt(Strategy::Full))
            .build()
        {
            Ok(session) => Some(session.run(Bfs::from(source)).total_ms()),
            Err(SessionError::Oom(_)) => None,
            Err(e) => panic!("unexpected build failure: {e}"),
        };

        let session = Session::builder()
            .graph(graph)
            .device(device)
            .memory_budget(capacity)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .build()
            .expect("out-of-core sessions build past the capacity wall");
        let run = session.run(Bfs::from(source));
        out.push(OocRow {
            factor,
            nodes: session.num_nodes(),
            footprint: session.footprint(),
            incore_ms,
            ooc_ms: run.total_ms(),
            streamed: session.is_streaming(),
            faults: run.stats.partition_faults,
            uploads: run.stats.partition_uploads,
            read_throughs: run.stats.read_throughs,
            read_through_lines: run.stats.read_through_lines,
            evictions: run.stats.partition_evictions,
            transfer_ms: run.stats.transfer_ms,
        });
    }
    out
}

/// Renders the sweep as a table.
pub fn render(rows: &[OocRow]) -> Table {
    let mut t = Table::new(
        "Out-of-core — BFS across the fit/stream transition (fixed capacity, growing graph)",
        &[
            "Size",
            "Nodes",
            "Footprint",
            "In-core",
            "OOC",
            "Mode",
            "Faults",
            "Uploads",
            "RT launches",
            "RT lines",
            "Evict",
            "Stream ms",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}x", r.factor),
            r.nodes.to_string(),
            format!("{} KiB", r.footprint / 1024),
            r.incore_ms.map(fmt_ms).unwrap_or_else(|| "OOM".into()),
            fmt_ms(r.ooc_ms),
            if r.streamed { "stream" } else { "fit" }.to_string(),
            r.faults.to_string(),
            r.uploads.to_string(),
            r.read_throughs.to_string(),
            r.read_through_lines.to_string(),
            r.evictions.to_string(),
            fmt_ms(r.transfer_ms),
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
    fn sweep_shows_the_fit_stream_transition() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = rows(&ctx);
        assert_eq!(rows.len(), SWEEP.len());

        // Below capacity: both run, nothing streams.
        let small = &rows[0];
        assert!(small.incore_ms.is_some());
        assert!(!small.streamed);
        assert_eq!(small.faults, 0);

        // Past capacity: in-core OOMs, out-of-core streams with visible,
        // attributable transfer cost.
        let big = rows.last().unwrap();
        assert!(big.incore_ms.is_none(), "largest graph should OOM in-core");
        assert!(big.streamed);
        assert!(big.faults >= 1);
        assert!((1..=big.faults).contains(&big.uploads));
        assert!(big.evictions >= 1);
        assert!(big.transfer_ms > 0.0);
        assert!(big.ooc_ms > big.transfer_ms);
    }
}
