//! Figure 8 bench: prints the headline comparison table, then times GCGT
//! and GPUCSR BFS per dataset at bench scale.

use criterion::{criterion_group, criterion_main, Criterion};
use gcgt_baselines::GpuCsrEngine;
use gcgt_bench::datasets::Scale;
use gcgt_bench::experiments::{fig8, sources_for, ExperimentContext};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{bfs, Expander, GcgtEngine, Strategy};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::new(Scale::BENCH, 1);
    println!("{}", fig8::run(&ctx).render());

    let mut group = c.benchmark_group("fig8_bfs");
    group.sample_size(10);
    for ds in &ctx.datasets {
        let source = sources_for(ds, 1)[0];
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&ds.graph, &cfg);
        let gcgt = GcgtEngine::new(&cgr, ctx.device, Strategy::Full);
        group.bench_function(format!("gcgt/{}", ds.id.name()), |b| {
            b.iter(|| bfs(&gcgt, source).reached)
        });
        let gpucsr = GpuCsrEngine::new(&ds.graph, ctx.device);
        if gpucsr.new_device().is_ok() {
            group.bench_function(format!("gpucsr/{}", ds.id.name()), |b| {
                b.iter(|| bfs(&gpucsr, source).reached)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
