//! Concurrent serving: one shared compressed graph, a pool of simulated
//! worker devices, and a mixed BFS + PageRank workload — the "many users,
//! one structure" scenario the ROADMAP grows toward. Shows throughput and
//! tail latency scaling with worker count while every answer (and every
//! per-query statistic) stays bitwise identical to serial execution.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use gcgt::prelude::*;
use std::sync::Arc;

fn main() {
    // One web-crawl analogue, prepared once: reordering, CGR encoding and
    // the capacity check all happen here — then the immutable result is
    // shared by every worker through one Arc.
    let graph = web_graph(&WebParams::uk2002_like(30_000), 7);
    let prepared: Arc<PreparedGraph> = Session::builder()
        .graph(graph)
        .reorder(Reordering::Llp(LlpConfig::default()))
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .expect("graph fits the default device")
        .prepared();
    println!(
        "prepared: {} nodes, {:.1}x compression, {} KiB resident structure\n",
        prepared.num_nodes(),
        prepared.compression_rate(),
        prepared.structure_bytes() / 1024
    );

    // The workload of one serving window: 30 BFS queries from users plus a
    // few PageRank refreshes.
    let mut queries: Vec<Query> = (0..30).map(|i| Query::Bfs(i * 97 % 1_000)).collect();
    for slot in (0..queries.len()).step_by(10) {
        queries[slot] = Query::Pagerank(Pagerank::default());
    }

    // Serial oracle for the first query: pooled answers must match it
    // bitwise no matter how many workers race.
    let oracle = prepared.run(queries[1]);

    println!(
        "{:>7}  {:>10} {:>11} {:>9} {:>9} {:>9}  {:>8}",
        "workers", "makespan", "throughput", "p50", "p95", "p99", "speedup"
    );
    for workers in [1usize, 2, 4, 8] {
        let pool = ServePool::new(prepared.clone(), workers).expect("positive worker count");
        let report = pool.serve(&queries);
        assert_eq!(
            report.outputs[1],
            Ok(oracle.output.clone()),
            "serving changed an answer!"
        );
        assert_eq!(report.per_query[1], oracle.stats, "serving changed a cost!");
        let s = &report.stats;
        println!(
            "{:>7}  {:>8.2}ms {:>8.0}q/s {:>7.2}ms {:>7.2}ms {:>7.2}ms  {:>7.2}x",
            workers,
            s.makespan_ms,
            s.throughput_qps(),
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.speedup()
        );
    }

    println!(
        "\n(same queries, same answers, same per-query costs at every worker\n\
         count — only queue wait and completion time change; workers return\n\
         to their post-upload baseline once the batch drains)"
    );
}
