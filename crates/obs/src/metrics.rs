//! Prometheus-style metrics accumulation.
//!
//! A [`MetricsRegistry`] folds observed events into named counters/gauges
//! and renders the standard text exposition format. Keys are sorted at
//! render time, and every value derives from modeled quantities, so the
//! snapshot is deterministic for a deterministic workload.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::{
    AllocEvent, CacheEvent, ExchangeEvent, FaultEvent, LaunchEvent, LevelEvent, Observer,
    ReadThroughEvent, ServeEvent, UploadEvent,
};

/// Accumulates observed events into named metrics and renders a
/// Prometheus-style text snapshot.
///
/// ```
/// use gcgt_obs::{MetricsRegistry, Observer, LaunchEvent};
///
/// let metrics = MetricsRegistry::new();
/// metrics.launch(&LaunchEvent {
///     track: 0, start_ms: 0.0, end_ms: 0.5, launch: 1,
///     warps: 8, cycles: 1000.0, compute_cycles: 40.0, memory_cycles: 1000.0,
///     atomics_cycles: 0.0, critical_warp_cycles: 310.0, mem_transactions: 4200,
///     cache_hits: 300, mem_steps: 900, lines_touched: 4500, lane_work: 2048,
///     bound: "memory", classes: vec![],
/// });
/// let text = metrics.snapshot();
/// assert!(text.contains("gcgt_launches_total 1"));
/// assert!(text.contains("gcgt_launch_cycles_total{bound=\"memory\"} 1000"));
/// assert_eq!(metrics.value("gcgt_launches_total"), Some(1.0));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    values: Mutex<BTreeMap<String, f64>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named metric (creating it at 0).
    pub fn add(&self, name: &str, delta: f64) {
        let mut values = self.values.lock().expect("metrics lock");
        *values.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Sets the named metric to `value` (a gauge write).
    pub fn set(&self, name: &str, value: f64) {
        let mut values = self.values.lock().expect("metrics lock");
        values.insert(name.to_string(), value);
    }

    /// The current value of a metric, if it has been touched.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.lock().expect("metrics lock").get(name).copied()
    }

    /// The Prometheus text exposition snapshot: one `name value` line per
    /// metric, keys sorted, `_total` counters annotated with a `# TYPE`
    /// line.
    pub fn snapshot(&self) -> String {
        let values = self.values.lock().expect("metrics lock");
        let mut out = String::new();
        for (name, value) in values.iter() {
            let base = name.split('{').next().unwrap_or(name);
            let kind = if base.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!("# TYPE {base} {kind}\n{name} {value}\n"));
        }
        out
    }
}

impl Observer for MetricsRegistry {
    fn launch(&self, e: &LaunchEvent) {
        self.add("gcgt_launches_total", 1.0);
        self.add("gcgt_cycles_total", e.cycles);
        self.add(
            &format!("gcgt_launch_cycles_total{{bound=\"{}\"}}", e.bound),
            e.cycles,
        );
        self.add("gcgt_mem_transactions_total", e.mem_transactions as f64);
        self.add("gcgt_cache_hits_total", e.cache_hits as f64);
        self.add("gcgt_mem_steps_total", e.mem_steps as f64);
        self.add("gcgt_lines_touched_total", e.lines_touched as f64);
        self.add("gcgt_lane_work_total", e.lane_work as f64);
        self.add("gcgt_warps_total", e.warps as f64);
        for c in &e.classes {
            self.add(
                &format!("gcgt_issues_total{{class=\"{}\"}}", c.class),
                c.issues as f64,
            );
        }
    }

    fn level(&self, e: &LevelEvent) {
        self.add(
            &format!("gcgt_levels_total{{direction=\"{}\"}}", e.direction),
            1.0,
        );
        self.add(
            &format!("gcgt_level_edges_total{{direction=\"{}\"}}", e.direction),
            e.edges as f64,
        );
        self.add("gcgt_split_nodes_total", e.split_nodes as f64);
    }

    fn alloc(&self, e: &AllocEvent) {
        self.add(&format!("gcgt_{}_events_total", e.kind), 1.0);
        self.set("gcgt_allocated_bytes", e.allocated as f64);
    }

    fn cache(&self, e: &CacheEvent) {
        if e.kind == "evict" {
            self.add("gcgt_partition_evictions_total", 1.0);
        } else {
            self.add("gcgt_partition_faults_total", 1.0);
        }
    }

    fn upload(&self, e: &UploadEvent) {
        self.add("gcgt_partition_uploads_total", 1.0);
        self.add("gcgt_partition_bytes_streamed_total", e.bytes as f64);
        self.add("gcgt_partition_transfer_ms_total", e.transfer_ms);
    }

    /// A read-through moves partition bytes over the host link too, so it
    /// adds to the streamed-bytes and transfer totals — in charge order,
    /// like `RunStats` folds them — besides its own three counters.
    fn read_through(&self, e: &ReadThroughEvent) {
        self.add("gcgt_read_through_total", 1.0);
        self.add("gcgt_read_through_lines_total", e.lines as f64);
        self.add("gcgt_read_through_ms_total", e.transfer_ms);
        self.add("gcgt_partition_bytes_streamed_total", e.bytes as f64);
        self.add("gcgt_partition_transfer_ms_total", e.transfer_ms);
    }

    fn exchange(&self, e: &ExchangeEvent) {
        self.add("gcgt_exchange_steps_total", 1.0);
        self.add("gcgt_exchange_bytes_total", e.bytes as f64);
        self.add("gcgt_exchange_messages_total", e.messages as f64);
        self.add("gcgt_exchange_ms_total", e.exchange_ms);
        self.add("gcgt_boundary_nodes_total", e.boundary_nodes as f64);
    }

    fn serve(&self, e: &ServeEvent) {
        self.add("gcgt_serve_queries_total", 1.0);
        self.add(
            "gcgt_serve_queue_wait_ms_total",
            (e.dispatch_ms - e.submit_ms).max(0.0),
        );
        self.add(
            "gcgt_serve_service_ms_total",
            (e.complete_ms - e.dispatch_ms).max(0.0),
        );
    }

    fn fault(&self, e: &FaultEvent) {
        self.add(
            &format!("gcgt_fault_{}_total{{domain=\"{}\"}}", e.kind, e.domain),
            1.0,
        );
        if e.backoff_ms > 0.0 {
            self.add("gcgt_fault_backoff_ms_total", e.backoff_ms);
        }
        if e.charged_ms > 0.0 {
            self.add(
                &format!("gcgt_fault_charged_ms_total{{domain=\"{}\"}}", e.domain),
                e.charged_ms,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let m = MetricsRegistry::new();
        m.add("gcgt_launches_total", 2.0);
        m.set("gcgt_allocated_bytes", 512.0);
        let text = m.snapshot();
        let alloc_at = text.find("gcgt_allocated_bytes").unwrap();
        let launches_at = text.find("gcgt_launches_total").unwrap();
        assert!(alloc_at < launches_at, "keys sorted:\n{text}");
        assert!(text.contains("# TYPE gcgt_launches_total counter"));
        assert!(text.contains("# TYPE gcgt_allocated_bytes gauge"));
        assert!(text.contains("gcgt_launches_total 2"));
    }

    #[test]
    fn exchange_events_total_every_priced_quantity() {
        // Messages are what `exchange_ms` is mostly made of at bitmap
        // sizes; the registry used to drop them.
        let m = MetricsRegistry::new();
        let e = ExchangeEvent {
            track: 0,
            start_ms: 0.0,
            step: 1,
            bytes: 100,
            messages: 7,
            rounds: 2,
            boundary_nodes: 5,
            exchange_ms: 0.25,
        };
        m.exchange(&e);
        m.exchange(&e);
        assert_eq!(m.value("gcgt_exchange_steps_total"), Some(2.0));
        assert_eq!(m.value("gcgt_exchange_bytes_total"), Some(200.0));
        assert_eq!(m.value("gcgt_exchange_messages_total"), Some(14.0));
        assert_eq!(m.value("gcgt_exchange_ms_total"), Some(0.5));
        assert_eq!(m.value("gcgt_boundary_nodes_total"), Some(10.0));
    }

    #[test]
    fn read_throughs_join_the_partition_transfer_totals() {
        let m = MetricsRegistry::new();
        m.upload(&UploadEvent {
            track: 0,
            start_ms: 0.0,
            cold: true,
            first_partition: 0,
            partitions: 2,
            bytes: 1_000,
            transfer_ms: 0.5,
        });
        m.read_through(&ReadThroughEvent {
            track: 0,
            start_ms: 0.5,
            partitions: 1,
            lines: 3,
            bytes: 384,
            transfer_ms: 0.25,
        });
        assert_eq!(m.value("gcgt_read_through_total"), Some(1.0));
        assert_eq!(m.value("gcgt_read_through_lines_total"), Some(3.0));
        assert_eq!(m.value("gcgt_read_through_ms_total"), Some(0.25));
        assert_eq!(m.value("gcgt_partition_uploads_total"), Some(1.0));
        assert_eq!(
            m.value("gcgt_partition_bytes_streamed_total"),
            Some(1_384.0)
        );
        assert_eq!(m.value("gcgt_partition_transfer_ms_total"), Some(0.75));
    }

    #[test]
    fn labeled_levels_accumulate_per_direction() {
        let m = MetricsRegistry::new();
        let mut e = LevelEvent {
            track: 0,
            start_ms: 0.0,
            end_ms: 1.0,
            direction: "push",
            work_items: 4,
            warps: 6,
            split_nodes: 1,
            edges: 10,
            classes: vec![],
        };
        m.level(&e);
        m.level(&e);
        e.direction = "pull";
        e.split_nodes = 0;
        m.level(&e);
        assert_eq!(m.value("gcgt_split_nodes_total"), Some(2.0));
        assert_eq!(m.value("gcgt_levels_total{direction=\"push\"}"), Some(2.0));
        assert_eq!(m.value("gcgt_levels_total{direction=\"pull\"}"), Some(1.0));
        assert_eq!(
            m.value("gcgt_level_edges_total{direction=\"push\"}"),
            Some(20.0)
        );
        // The TYPE line strips the label.
        assert!(m.snapshot().contains("# TYPE gcgt_levels_total counter"));
    }
}
