//! Web-archive analysis: the paper's motivating scenario — a crawl larger
//! than device memory becomes tractable once stored as CGR.
//!
//! We build a uk-2007-shaped crawl, show that the uncompressed CSR session
//! does *not* fit the (scaled) device while the compressed one does, then
//! run connected components and PageRank over the compressed structure.
//!
//! ```sh
//! cargo run --release --example web_archive
//! ```

use gcgt::core::memory;
use gcgt::prelude::*;

fn main() {
    let raw = web_graph(&WebParams::uk2007_like(40_000), 7);
    let perm = Reordering::Llp(LlpConfig::default()).compute(&raw);
    let graph = raw.permuted(&perm);
    println!(
        "crawl: {} pages, {} links",
        graph.num_nodes(),
        graph.num_edges()
    );

    // A device sized like the paper's 12 GB card relative to its graphs:
    // big enough for the compressed crawl, too small for raw CSR.
    let csr_need = memory::csr_footprint(&graph);
    let capacity = csr_need * 2 / 3;
    let device = DeviceConfig::titan_v_scaled(capacity);
    println!(
        "device memory {:.1} MB — raw CSR needs {:.1} MB: {}",
        capacity as f64 / 1e6,
        csr_need as f64 / 1e6,
        if csr_need > capacity {
            "DOES NOT FIT"
        } else {
            "fits"
        }
    );

    // The CSR session is rejected at build time — no panic mid-run.
    let csr_session = EngineKind::GpuCsr.session(std::sync::Arc::new(graph.clone()), device);
    match &csr_session {
        Err(SessionError::Oom(oom)) => println!("GPUCSR session refused: {oom}"),
        other => panic!("CSR should exceed this device, got {other:?}"),
    }

    // The compressed session fits.
    let session = Session::builder()
        .graph(graph.clone())
        .device(device)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .expect("compressed graph must fit");
    println!(
        "CGR needs {:.1} MB ({:.1}x compression) — fits",
        session.footprint() as f64 / 1e6,
        session.compression_rate()
    );

    // Connected components over the undirected view: how fragmented is the
    // archive? The session symmetrizes internally.
    let cc_session = Session::builder()
        .graph(graph.clone())
        .symmetrize(true)
        .device(device)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();
    let comps = cc_session.run(Cc);
    println!(
        "connected components: {} (largest structure spans the crawl) — {:.3} sim ms",
        comps.output.count, comps.stats.est_ms
    );

    // Section 3.2's second benefit: even when data must move over PCIe,
    // the compressed structure transfers ~rate× faster. The session's
    // upload accounting uses the same model.
    let csr_upload_ms = HOST_LINK.ms(csr_need, 1);
    println!(
        "PCIe upload: CSR {:.2} ms vs CGR {:.2} ms ({:.1}x faster)",
        csr_upload_ms,
        session.upload_ms(),
        csr_upload_ms / HOST_LINK.ms(session.footprint(), 1)
    );

    // PageRank over the compressed crawl: the top authority pages.
    let pr = session.run(Pagerank {
        damping: 0.85,
        max_iters: 30,
        tolerance: 1e-8,
    });
    let mut top: Vec<(usize, f64)> = pr.output.ranks.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "PageRank ({} iterations, {:.3} sim ms) — top pages:",
        pr.output.iterations, pr.stats.est_ms
    );
    for (page, rank) in top.into_iter().take(5) {
        println!("  page {page:>6}  rank {rank:.6}");
    }
}
