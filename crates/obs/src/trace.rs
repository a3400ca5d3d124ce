//! Deterministic Chrome trace-event recording.
//!
//! Events are normalized to trace-event JSON lines at emission time and
//! **canonically ordered** at export: the sort key is (category, track,
//! start timestamp, name, serialized line), a total order over every event
//! the stack can emit. Concurrent serving workers may append in any host
//! order — the exported bytes never depend on it. Timestamps are modeled
//! microseconds (`ms × 1000`), so the same workload produces the same bytes
//! on every machine, every run.

use std::sync::Mutex;

use crate::{
    AllocEvent, CacheEvent, ClassTally, ExchangeEvent, FaultEvent, LaunchEvent, LevelEvent,
    Observer, ReadThroughEvent, ServeEvent, UploadEvent,
};

/// One recorded event, normalized at emission time.
#[derive(Clone, Debug)]
struct CanonEvent {
    cat: &'static str,
    track: u64,
    ts_us: f64,
    name: String,
    /// The full trace-event JSON object (one line, no trailing comma).
    line: String,
}

/// Records every observed event and exports a canonicalized Chrome
/// trace-event JSON document (Perfetto / `chrome://tracing` loadable).
///
/// Tracks map to `tid`s: under serving, the pool assigns each query its
/// submission index as track, so query timelines render as separate rows
/// and — because execution events are bitwise per query — the exported
/// non-`serve` events are identical at any worker count. Serve-timeline
/// events (`cat: "serve"`) render queue wait and service as separate spans
/// on the timeline worker's row.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<CanonEvent>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every recorded event.
    pub fn clear(&self) {
        self.events.lock().expect("trace lock").clear();
    }

    fn push(&self, cat: &'static str, track: u64, ts_us: f64, name: String, line: String) {
        self.events.lock().expect("trace lock").push(CanonEvent {
            cat,
            track,
            ts_us,
            name,
            line,
        });
    }

    /// The full canonicalized Chrome trace-event JSON document.
    pub fn chrome_trace_json(&self) -> String {
        self.render(|_| true)
    }

    /// The canonicalized document restricted to events whose category the
    /// filter accepts. `cat != "serve"` yields the worker-count-invariant
    /// execution trace; categories are `"device"`, `"level"`, `"alloc"`,
    /// `"ooc"`, `"shard"` and `"serve"`.
    pub fn chrome_trace_json_filtered(&self, keep: impl Fn(&str) -> bool) -> String {
        self.render(keep)
    }

    fn render(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut events: Vec<CanonEvent> = self
            .events
            .lock()
            .expect("trace lock")
            .iter()
            .filter(|e| keep(e.cat))
            .cloned()
            .collect();
        // Total order: host append order (racy under serving) never leaks
        // into the bytes. The serialized line is the final tiebreak, so even
        // identical (cat, track, ts, name) keys order deterministically.
        events.sort_by(|a, b| {
            (a.cat, a.track)
                .cmp(&(b.cat, b.track))
                .then(a.ts_us.total_cmp(&b.ts_us))
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.line.cmp(&b.line))
        });
        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str(&e.line);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Renders the per-class breakdown as a JSON object fragment
/// (`"classes": {"Handle": [issues, cycles], ...}`), in emission order —
/// which is `OpClass` order at every emission site, hence deterministic.
fn classes_json(classes: &[ClassTally]) -> String {
    let mut s = String::from("{");
    for (i, c) in classes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{}\": [{}, {}]", c.class, c.issues, c.cycles));
    }
    s.push('}');
    s
}

impl Observer for TraceRecorder {
    fn launch(&self, e: &LaunchEvent) {
        let ts = e.start_ms * 1e3;
        let dur = (e.end_ms - e.start_ms).max(0.0) * 1e3;
        let line = format!(
            "{{\"name\": \"launch\", \"cat\": \"device\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"launch\": {}, \
             \"warps\": {}, \"cycles\": {}, \"bound\": \"{}\", \"compute\": {}, \
             \"memory\": {}, \"atomics\": {}, \"critical_warp\": {}, \
             \"mem_transactions\": {}, \"classes\": {}}}}}",
            e.track,
            ts,
            dur,
            e.launch,
            e.warps,
            e.cycles,
            e.bound,
            e.compute_cycles,
            e.memory_cycles,
            e.atomics_cycles,
            e.critical_warp_cycles,
            e.mem_transactions,
            classes_json(&e.classes)
        );
        self.push("device", e.track, ts, "launch".into(), line);
    }

    fn level(&self, e: &LevelEvent) {
        let ts = e.start_ms * 1e3;
        let dur = (e.end_ms - e.start_ms).max(0.0) * 1e3;
        let name = format!("{}-level", e.direction);
        let line = format!(
            "{{\"name\": \"{}\", \"cat\": \"level\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"work_items\": {}, \
             \"warps\": {}, \"split_nodes\": {}, \"edges\": {}, \"classes\": {}}}}}",
            name,
            e.track,
            ts,
            dur,
            e.work_items,
            e.warps,
            e.split_nodes,
            e.edges,
            classes_json(&e.classes)
        );
        self.push("level", e.track, ts, name, line);
    }

    fn alloc(&self, e: &AllocEvent) {
        let ts = e.ts_ms * 1e3;
        let line = format!(
            "{{\"name\": \"{}\", \"cat\": \"alloc\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}, \"args\": {{\"bytes\": {}, \
             \"allocated\": {}}}}}",
            e.kind, e.track, ts, e.bytes, e.allocated
        );
        self.push("alloc", e.track, ts, e.kind.into(), line);
    }

    fn cache(&self, e: &CacheEvent) {
        let ts = e.start_ms * 1e3;
        let line = format!(
            "{{\"name\": \"{}\", \"cat\": \"ooc\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}, \"args\": {{\"partition\": {}, \
             \"bytes\": {}}}}}",
            e.kind, e.track, ts, e.partition, e.bytes
        );
        self.push("ooc", e.track, ts, e.kind.into(), line);
    }

    fn upload(&self, e: &UploadEvent) {
        let ts = e.start_ms * 1e3;
        let dur = e.transfer_ms * 1e3;
        let name = if e.cold { "upload-cold" } else { "upload" };
        let line = format!(
            "{{\"name\": \"{}\", \"cat\": \"ooc\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"first_partition\": {}, \
             \"partitions\": {}, \"bytes\": {}}}}}",
            name, e.track, ts, dur, e.first_partition, e.partitions, e.bytes
        );
        self.push("ooc", e.track, ts, name.into(), line);
    }

    fn read_through(&self, e: &ReadThroughEvent) {
        let ts = e.start_ms * 1e3;
        let dur = e.transfer_ms * 1e3;
        let line = format!(
            "{{\"name\": \"read-through\", \"cat\": \"ooc\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"partitions\": {}, \
             \"lines\": {}, \"bytes\": {}}}}}",
            e.track, ts, dur, e.partitions, e.lines, e.bytes
        );
        self.push("ooc", e.track, ts, "read-through".into(), line);
    }

    fn exchange(&self, e: &ExchangeEvent) {
        let ts = e.start_ms * 1e3;
        let dur = e.exchange_ms * 1e3;
        let line = format!(
            "{{\"name\": \"exchange\", \"cat\": \"shard\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"step\": {}, \
             \"bytes\": {}, \"messages\": {}, \"rounds\": {}, \"boundary_nodes\": {}}}}}",
            e.track, ts, dur, e.step, e.bytes, e.messages, e.rounds, e.boundary_nodes
        );
        self.push("shard", e.track, ts, "exchange".into(), line);
    }

    fn serve(&self, e: &ServeEvent) {
        // Two spans per query on the timeline worker's row: queue wait
        // (submit → dispatch) and service (dispatch → complete).
        let wait_ts = e.submit_ms * 1e3;
        let wait_dur = (e.dispatch_ms - e.submit_ms).max(0.0) * 1e3;
        let line = format!(
            "{{\"name\": \"queue-wait\", \"cat\": \"serve\", \"ph\": \"X\", \"pid\": 2, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"query\": {}}}}}",
            e.worker, wait_ts, wait_dur, e.query
        );
        self.push(
            "serve",
            e.worker,
            wait_ts,
            format!("q{}-wait", e.query),
            line,
        );
        let svc_ts = e.dispatch_ms * 1e3;
        let svc_dur = (e.complete_ms - e.dispatch_ms).max(0.0) * 1e3;
        let line = format!(
            "{{\"name\": \"service\", \"cat\": \"serve\", \"ph\": \"X\", \"pid\": 2, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"query\": {}}}}}",
            e.worker, svc_ts, svc_dur, e.query
        );
        self.push("serve", e.worker, svc_ts, format!("q{}-svc", e.query), line);
    }

    fn fault(&self, e: &FaultEvent) {
        let ts = e.ts_ms * 1e3;
        let dur = e.backoff_ms * 1e3;
        let name = format!("{}-{}", e.domain, e.kind);
        let line = format!(
            "{{\"name\": \"{}\", \"cat\": \"chaos\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"domain\": \"{}\", \
             \"kind\": \"{}\", \"attempt\": {}, \"backoff_ms\": {}}}}}",
            name, e.track, ts, dur, e.domain, e.kind, e.attempt, e.backoff_ms
        );
        self.push("chaos", e.track, ts, name, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_launch(track: u64, start: f64) -> LaunchEvent {
        LaunchEvent {
            track,
            start_ms: start,
            end_ms: start + 0.5,
            launch: 1,
            warps: 2,
            cycles: 100.0,
            compute_cycles: 7.0,
            memory_cycles: 20.0,
            atomics_cycles: 0.0,
            critical_warp_cycles: 100.0,
            mem_transactions: 84,
            cache_hits: 3,
            mem_steps: 9,
            lines_touched: 87,
            lane_work: 56,
            bound: "critical_warp",
            classes: vec![ClassTally {
                class: "Handle",
                issues: 7,
                cycles: 14.0,
            }],
        }
    }

    #[test]
    fn export_is_insertion_order_independent() {
        let a = TraceRecorder::new();
        a.launch(&sample_launch(0, 0.0));
        a.launch(&sample_launch(1, 0.25));
        let b = TraceRecorder::new();
        b.launch(&sample_launch(1, 0.25));
        b.launch(&sample_launch(0, 0.0));
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
    }

    #[test]
    fn filter_drops_categories() {
        let r = TraceRecorder::new();
        r.launch(&sample_launch(0, 0.0));
        r.serve(&ServeEvent {
            query: 0,
            worker: 0,
            submit_ms: 0.0,
            dispatch_ms: 0.1,
            complete_ms: 0.6,
        });
        assert_eq!(r.len(), 3); // launch + wait span + service span
        let all = r.chrome_trace_json();
        assert!(all.contains("queue-wait"));
        let execution = r.chrome_trace_json_filtered(|cat| cat != "serve");
        assert!(!execution.contains("queue-wait"));
        assert!(execution.contains("\"name\": \"launch\""));
    }

    #[test]
    fn document_is_balanced_json() {
        let r = TraceRecorder::new();
        r.alloc(&AllocEvent {
            track: 3,
            ts_ms: 1.0,
            kind: "alloc",
            bytes: 4096,
            allocated: 4096,
        });
        r.exchange(&ExchangeEvent {
            track: 3,
            start_ms: 1.5,
            step: 1,
            bytes: 128,
            messages: 2,
            rounds: 1,
            boundary_nodes: 9,
            exchange_ms: 0.01,
        });
        r.cache(&CacheEvent {
            track: 3,
            start_ms: 2.0,
            kind: "fault-cold",
            partition: 0,
            bytes: 2048,
        });
        let json = r.chrome_trace_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n]"), "trailing comma:\n{json}");
        r.clear();
        assert!(r.is_empty());
    }
}
