//! Ablations of the *reproduction's* own design choices — these go beyond
//! the paper's figures and probe the simulator and encoder parameters that
//! the headline results could be sensitive to.

use super::{gcgt_bfs_ms, ExperimentContext};
use crate::datasets::DatasetId;
use crate::table::{fmt_ms, fmt_rate, Table};
use gcgt_bits::Code;
use gcgt_cgr::CgrConfig;
use gcgt_core::Strategy;

/// Warp-width sensitivity: the scheduling strategies are defined relative to
/// `warpNum`; the shape of the ablation must not hinge on the choice of 32.
pub fn warp_width(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Ablation — warp width (GCGT BFS, uk-2002 / twitter analogues)",
        &["Dataset", "Width", "BFS ms"],
    );
    let base = CgrConfig::paper_default();
    for ds in ctx
        .datasets
        .iter()
        .filter(|d| matches!(d.id, DatasetId::Uk2002 | DatasetId::Twitter))
    {
        let sources = super::sources_for(ds, 1);
        let shared = std::sync::Arc::new(ds.graph.clone());
        for width in [8usize, 16, 32, 64] {
            let mut device = ctx.device;
            device.warp_width = width;
            let (ms, _) = gcgt_bfs_ms(shared.clone(), &base, Strategy::Full, device, &sources);
            t.row(vec![
                ds.id.name().to_string(),
                width.to_string(),
                fmt_ms(ms),
            ]);
        }
    }
    t
}

/// Per-warp cache-size sensitivity: the "decode in cache" property needs
/// *some* cache, but the conclusions must not require an unrealistic one.
pub fn cache_size(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Ablation — per-warp cache lines (GCGT BFS)",
        &["Dataset", "CacheLines", "BFS ms"],
    );
    let base = CgrConfig::paper_default();
    for ds in ctx
        .datasets
        .iter()
        .filter(|d| matches!(d.id, DatasetId::Uk2007 | DatasetId::Ljournal))
    {
        let sources = super::sources_for(ds, 1);
        let shared = std::sync::Arc::new(ds.graph.clone());
        for lines in [1usize, 16, 64, 256] {
            let mut device = ctx.device;
            device.cache_lines_per_warp = lines;
            let (ms, _) = gcgt_bfs_ms(shared.clone(), &base, Strategy::Full, device, &sources);
            t.row(vec![
                ds.id.name().to_string(),
                lines.to_string(),
                fmt_ms(ms),
            ]);
        }
    }
    t
}

/// Elias δ as an off-paper extra code point next to the Figure 11 sweep.
pub fn delta_code(ctx: &ExperimentContext) -> Table {
    let mut t = Table::new(
        "Ablation — Elias delta vs paper codes (compression rate, w/o and w/ references)",
        &["Dataset", "Code", "Compression", "With refs (w=32)"],
    );
    for ds in &ctx.datasets {
        let sources = super::sources_for(ds, 1);
        let shared = std::sync::Arc::new(ds.graph.clone());
        for code in [Code::Gamma, Code::Delta, Code::Zeta(3)] {
            let cfg = CgrConfig {
                code,
                ..CgrConfig::paper_default()
            };
            let (_, bits) = gcgt_bfs_ms(shared.clone(), &cfg, Strategy::Full, ctx.device, &sources);
            // Same code with GCGR v3 references on: the copy-list gain (or
            // its absence — social graphs barely reference) per code.
            let (_, ref_bits) = gcgt_bfs_ms(
                shared.clone(),
                &cfg.with_ref_window(32),
                Strategy::Full,
                ctx.device,
                &sources,
            );
            t.row(vec![
                ds.id.name().to_string(),
                code.name(),
                fmt_rate(ds.compression_rate_of_bits(bits)),
                fmt_rate(ds.compression_rate_of_bits(ref_bits)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    #[test]
    fn ablations_produce_rows() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        assert_eq!(warp_width(&ctx).len(), 8);
        assert_eq!(cache_size(&ctx).len(), 8);
        assert_eq!(delta_code(&ctx).len(), 15);
    }
}
