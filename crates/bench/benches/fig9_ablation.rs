//! Figure 9 bench: prints the ablation ladder, then times each strategy on
//! the two datasets where the ladder matters most (uk-2002, twitter).

use criterion::{criterion_group, criterion_main, Criterion};
use gcgt_bench::datasets::{DatasetId, Scale};
use gcgt_bench::experiments::{fig9, sources_for, ExperimentContext};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{bfs, GcgtEngine, Strategy};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::new(Scale::BENCH, 1);
    println!("{}", fig9::run(&ctx).render());

    let mut group = c.benchmark_group("fig9_ablation");
    group.sample_size(10);
    for ds in ctx
        .datasets
        .iter()
        .filter(|d| matches!(d.id, DatasetId::Uk2002 | DatasetId::Twitter))
    {
        let source = sources_for(ds, 1)[0];
        for strategy in Strategy::LADDER {
            let cfg = strategy.cgr_config(&CgrConfig::paper_default());
            let cgr = CgrGraph::encode(&ds.graph, &cfg);
            let engine = GcgtEngine::new(&cgr, ctx.device, strategy);
            group.bench_function(format!("{}/{}", ds.id.name(), strategy.name()), |b| {
                b.iter(|| bfs(&engine, source).reached)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
