//! Figure 15 bench: prints the CC/BC comparison, then times both GCGT
//! extensions on the uk-2002 analogue.

use criterion::{criterion_group, criterion_main, Criterion};
use gcgt_bench::datasets::{DatasetId, Scale};
use gcgt_bench::experiments::{fig15, sources_for, ExperimentContext};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{bc, cc, GcgtEngine, Strategy};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::new(Scale::BENCH, 1);
    println!("{}", fig15::run(&ctx).render());

    let ds = ctx
        .datasets
        .iter()
        .find(|d| d.id == DatasetId::Uk2002)
        .unwrap();
    let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());

    let sym = ds.graph.symmetrized();
    let cgr_sym = CgrGraph::encode(&sym, &cfg);
    let engine_sym = GcgtEngine::new(&cgr_sym, ctx.device, Strategy::Full);

    let cgr = CgrGraph::encode(&ds.graph, &cfg);
    let engine = GcgtEngine::new(&cgr, ctx.device, Strategy::Full);
    let source = sources_for(ds, 1)[0];

    let mut group = c.benchmark_group("fig15_apps");
    group.sample_size(10);
    group.bench_function("cc/uk-2002", |b| b.iter(|| cc(&engine_sym).count));
    group.bench_function("bc/uk-2002", |b| b.iter(|| bc(&engine, source).sigma.len()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
