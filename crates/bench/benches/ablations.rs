//! Ablation bench: prints the tables that ablate the reproduction's own
//! design choices and times GCGT BFS across warp widths.

use criterion::{criterion_group, criterion_main, Criterion};
use gcgt_bench::datasets::{DatasetId, Scale};
use gcgt_bench::experiments::{ablations, sources_for, ExperimentContext};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{bfs, GcgtEngine, Strategy};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::new(Scale::BENCH, 1);
    println!("{}", ablations::warp_width(&ctx).render());
    println!("{}", ablations::cache_size(&ctx).render());
    println!("{}", ablations::delta_code(&ctx).render());

    let ds = ctx
        .datasets
        .iter()
        .find(|d| d.id == DatasetId::Uk2002)
        .unwrap();
    let source = sources_for(ds, 1)[0];
    let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
    let cgr = CgrGraph::encode(&ds.graph, &cfg);

    let mut group = c.benchmark_group("ablate_warp_width");
    group.sample_size(10);
    for width in [8usize, 32] {
        let mut device = ctx.device;
        device.warp_width = width;
        let engine = GcgtEngine::new(&cgr, device, Strategy::Full);
        group.bench_function(format!("w{width}"), |b| {
            b.iter(|| bfs(&engine, source).reached)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
