//! Microbenchmarks of CGR decoding paths: bulk decode over the one node
//! cursor on each layout, and the warp-centric speculative window.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gcgt_cgr::{decode, CgrConfig, CgrGraph};
use gcgt_core::kernels::warp_decode::parallel_decode;
use gcgt_graph::gen::{web_graph, WebParams};
use gcgt_simt::WarpSim;

fn bench(c: &mut Criterion) {
    let graph = web_graph(&WebParams::uk2002_like(5_000), 3);
    let unseg = CgrGraph::encode(&graph, &CgrConfig::unsegmented());
    let seg = CgrGraph::encode(&graph, &CgrConfig::paper_default());

    let mut group = c.benchmark_group("decode");
    group.throughput(Throughput::Elements(graph.num_edges() as u64));
    group.sample_size(20);

    for (name, cgr) in [("unsegmented_decode", &unseg), ("segmented_decode", &seg)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for u in 0..graph.num_nodes() as u32 {
                    for v in decode::decode_node_unsorted(cgr, u) {
                        acc = acc.wrapping_add(u64::from(v));
                    }
                }
                acc
            })
        });
    }

    group.bench_function("warp_centric_window", |b| {
        // Decode the bit stream in speculative 32-lane windows.
        b.iter(|| {
            let mut warp = WarpSim::new(32, 64);
            let bits = unseg.bits();
            let mut pos = 0usize;
            let mut n = 0u64;
            while pos + 64 < bits.len() && n < 50_000 {
                let win = parallel_decode(&mut warp, bits, unseg.table(), pos);
                if win.values.is_empty() {
                    break;
                }
                n += win.values.len() as u64;
                pos += win.values.last().unwrap().1;
            }
            n
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
