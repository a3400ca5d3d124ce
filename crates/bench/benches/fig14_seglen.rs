//! Figure 14 bench: prints the residual-segment-length sweep, then times
//! GCGT BFS on the twitter analogue at three segment lengths (where the
//! trade-off bites).

use criterion::{criterion_group, criterion_main, Criterion};
use gcgt_bench::datasets::{DatasetId, Scale};
use gcgt_bench::experiments::{fig14, sources_for, ExperimentContext};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{bfs, GcgtEngine, Strategy};

fn bench(c: &mut Criterion) {
    let ctx = ExperimentContext::new(Scale::BENCH, 1);
    println!("{}", fig14::run(&ctx).render());

    let ds = ctx
        .datasets
        .iter()
        .find(|d| d.id == DatasetId::Twitter)
        .unwrap();
    let source = sources_for(ds, 1)[0];
    let mut group = c.benchmark_group("fig14_bfs_twitter");
    group.sample_size(10);
    for seg in [8u32, 32, 128] {
        let cfg = CgrConfig {
            segment_len_bytes: Some(seg),
            ..CgrConfig::paper_default()
        };
        let cgr = CgrGraph::encode(&ds.graph, &cfg);
        let engine = GcgtEngine::new(&cgr, ctx.device, Strategy::Full);
        group.bench_function(format!("seg{seg}B"), |b| {
            b.iter(|| bfs(&engine, source).reached)
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
