//! The per-layer metric table of one run: every name of `spec::PER_LAYER`,
//! 0 until a layer reports.

use gcgt_serve::ServeStats;
use gcgt_simt::tally::ALL_CLASSES;
use gcgt_simt::RunStats;

use crate::span::{total_seconds, Span};
use crate::spec::PER_LAYER;
use crate::workloads::{OpOutcome, StructureInfo};

pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    pub fn new() -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        self.values[Self::index(name)] = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::index(name)]
    }

    /// `(name, unit, value)` in spec order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(m, &v)| (m.name, m.unit, v))
    }

    /// Host time of the `graph.*` and `session.*` public calls, from the
    /// spans around them.
    pub fn record_calls(&mut self, spans: &[Span]) {
        self.set("graph.gen_s", total_seconds(spans, "graph.generate"));
        self.set("graph.vnode_s", total_seconds(spans, "graph.vnode"));
        self.set("graph.reorder_s", total_seconds(spans, "graph.reorder"));
        self.set("graph.permute_s", total_seconds(spans, "graph.permute"));
        self.set(
            "session.prepare_ms",
            total_seconds(spans, "session.prepare") * 1e3,
        );
        self.set(
            "session.executor_new_ms",
            total_seconds(spans, "session.executor_new") * 1e3,
        );
    }

    /// `core.host_ms.<app>`: mean host time of the app's ops over the timed
    /// passes. `slot_ms[i]` holds op `i`'s samples.
    pub fn record_app_host_ms(&mut self, ops: &[OpOutcome], slot_ms: &[Vec<f64>]) {
        for app in ["bfs", "cc", "bc", "pagerank", "labelprop"] {
            let samples: Vec<f64> = ops
                .iter()
                .zip(slot_ms)
                .filter(|(op, _)| op.app == app)
                .flat_map(|(_, ms)| ms.iter().copied())
                .collect();
            if !samples.is_empty() {
                self.set(
                    &format!("core.host_ms.{app}"),
                    samples.iter().sum::<f64>() / samples.len() as f64,
                );
            }
        }
    }

    /// Sizes of everything the workload prepared, summed.
    pub fn record_structures(&mut self, structures: &[StructureInfo]) {
        let sum = |f: fn(&StructureInfo) -> usize| structures.iter().map(f).sum::<usize>() as f64;
        let edges = sum(|s| s.edges);
        let bits = sum(|s| s.total_bits);
        if bits > 0.0 {
            self.set("cgr.compression_rate", 32.0 * edges / bits);
        }
        self.set("cgr.ref_nodes", sum(|s| s.ref_nodes));
        self.set("cgr.file_bytes", sum(|s| s.file_bytes));
        self.set("cgr.index_bytes", sum(|s| s.index_bytes));
        self.set("session.footprint_bytes", sum(|s| s.footprint));
        self.set("session.structure_bytes", sum(|s| s.structure_bytes));
        self.set(
            "session.upload_ms",
            structures.iter().map(|s| s.upload_ms).sum(),
        );
        self.set("ooc.partitions", sum(|s| s.partitions));
        self.set(
            "shard.max_resident_bytes",
            structures
                .iter()
                .map(|s| s.shard_max_resident)
                .max()
                .unwrap_or(0) as f64,
        );
    }

    /// Modeled counters of one pass, summed over its ops. `timed_host_s` is
    /// the wall time of one untraced pass, for simulator speed per simulated
    /// event.
    pub fn record_modeled(&mut self, ops: &[OpOutcome], timed_host_s: f64) {
        let mut total = RunStats::zeroed();
        let stats = ops.iter().filter_map(|op| op.stats.as_ref());
        for s in stats {
            total.est_ms += s.est_ms;
            total.cycles += s.cycles;
            total.launches += s.launches;
            total.tally.merge(&s.tally);
            total.mem.transactions += s.mem.transactions;
            total.mem.cache_hits += s.mem.cache_hits;
            total.mem.mem_steps += s.mem.mem_steps;
            total.mem.lines_touched += s.mem.lines_touched;
            total.partition_faults += s.partition_faults;
            total.partition_evictions += s.partition_evictions;
            total.transfer_ms += s.transfer_ms;
            total.push_steps += s.push_steps;
            total.pull_steps += s.pull_steps;
            total.pushed_edges += s.pushed_edges;
            total.pulled_edges += s.pulled_edges;
            total.exchange_ms += s.exchange_ms;
            total.boundary_nodes += s.boundary_nodes;
            total.sync_steps += s.sync_steps;
            total.faults_injected += s.faults_injected;
            total.retries += s.retries;
            total.backoff_ms += s.backoff_ms;
        }
        self.set("simt.est_ms", total.est_ms);
        self.set("simt.cycles", total.cycles);
        self.set("simt.launches", total.launches as f64);
        for class in ALL_CLASSES {
            self.set(
                &format!("simt.issues.{}", class.name()),
                total.tally.issues[class as usize] as f64,
            );
        }
        self.set("simt.mem_transactions", total.mem.transactions as f64);
        self.set("simt.cache_hit_rate", total.mem.cache_hit_rate());
        self.set("simt.lines_per_step", total.mem.lines_per_step());
        if timed_host_s > 0.0 {
            self.set(
                "simt.issue_slots_per_host_s",
                total.tally.total_issues() as f64 / timed_host_s,
            );
        }
        self.set("core.pushed_edges", total.pushed_edges as f64);
        self.set("core.pulled_edges", total.pulled_edges as f64);
        self.set("core.push_steps", total.push_steps as f64);
        self.set("core.pull_steps", total.pull_steps as f64);

        let modeled_ms = total.est_ms + total.transfer_ms + total.exchange_ms;
        let share = |part: f64| {
            if modeled_ms > 0.0 {
                part / modeled_ms
            } else {
                0.0
            }
        };
        self.set("ooc.partition_faults", total.partition_faults as f64);
        self.set("ooc.partition_evictions", total.partition_evictions as f64);
        self.set("ooc.transfer_ms", total.transfer_ms);
        self.set("ooc.transfer_share", share(total.transfer_ms));
        self.set("shard.exchange_ms", total.exchange_ms);
        self.set("shard.exchange_share", share(total.exchange_ms));
        self.set("shard.boundary_nodes", total.boundary_nodes as f64);
        self.set("shard.sync_steps", total.sync_steps as f64);
        self.set("chaos.faults_injected", total.faults_injected as f64);
        self.set("chaos.retries", total.retries as f64);
        self.set("chaos.backoff_ms", total.backoff_ms);
    }

    pub fn record_serve(&mut self, stats: &ServeStats) {
        self.set("serve.modeled_qps", stats.throughput_qps());
        self.set("serve.makespan_ms", stats.makespan_ms);
        self.set("serve.queue_wait_p50_ms", stats.queue_p50_ms);
        self.set("serve.queue_wait_p95_ms", stats.queue_p95_ms);
        self.set("serve.service_p50_ms", stats.service_p50_ms);
        self.set("serve.service_p95_ms", stats.service_p95_ms);
        self.set("serve.worker_utilization", stats.utilization());
        self.set("serve.completed", stats.completed as f64);
        self.set("serve.shed", stats.shed as f64);
        self.set("serve.failed", stats.failed as f64);
    }
}
