//! The shape of one run: set-up (timed, repeated) → one untimed warm-up pass
//! that checks every op against the serial oracle → timed passes with
//! tracing off → optionally one traced pass and the standalone probes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gcgt_simt::obs::{
    CacheEvent, FanoutObserver, MetricsRegistry, Observer, ObserverHandle, TraceRecorder,
};

use crate::json::Json;
use crate::layers::Layers;
use crate::span::{self, Tracer};
use crate::spec::{END_TO_END, FAIL_RATIO};
use crate::workloads::{self, Case, Mode, OpOutcome, Pass};
use crate::{probes, stats};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// How long the timed passes measure.
    pub seconds: f64,
    /// Also run the traced pass and the probes, and fill the per-layer table.
    pub trace: bool,
    /// Sanity mode: n ÷ 10, one timed pass, one set-up.
    pub quick: bool,
    /// Generator node count; the workload's default when `None`. Only the
    /// self-tests set it: the sizes in `workloads::default_n` are normative.
    pub n: Option<usize>,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes per run, at least.
const MIN_PASSES: usize = 5;

pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub n: usize,
    pub quick: bool,
    pub setups: usize,
    pub passes: usize,
    pub ops_per_pass: usize,
    /// Per-op host-time samples behind `host_op_ms_p50`.
    pub samples: usize,
    /// Wall seconds of every set-up and every timed pass, in order.
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every entry of `spec::END_TO_END`, in order.
    pub end_to_end: Vec<(&'static str, f64)>,
    pub layers: Option<Layers>,
    pub self_times: Vec<span::SelfTime>,
    /// The op list with each op's modeled cost (from the verify pass).
    pub ops: Vec<OpSummary>,
    pub vm_hwm_source: &'static str,
}

pub struct OpSummary {
    pub label: String,
    /// Modeled kernel time alone (0 for a build).
    pub est_ms: f64,
    /// Modeled cost: kernel + transfer + exchange (the upload for a build).
    pub modeled_ms: f64,
}

impl RunResult {
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
    }

    /// The driver's result line: end-to-end metrics without tracing,
    /// per-layer metrics with it.
    pub fn contract_json(&self) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics = match &self.layers {
            Some(layers) => Json::obj(layers.iter().map(|(n, u, v)| (n, metric(v, u)))),
            None => Json::obj(
                END_TO_END
                    .iter()
                    .zip(&self.end_to_end)
                    .map(|(m, &(_, v))| (m.name, metric(v, m.unit))),
            ),
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
    }

    /// Everything the run measured, for `all` to aggregate.
    pub fn full_json(&self) -> Json {
        let mut end_to_end: Vec<(&str, Json)> = self
            .end_to_end
            .iter()
            .map(|&(n, v)| (n, Json::Num(v)))
            .collect();
        end_to_end.push((FAIL_RATIO, Json::Num(self.fail_ratio())));
        let per_layer = self.layers.as_ref().map_or(Json::Null, |layers| {
            Json::obj(layers.iter().map(|(n, _, v)| (n, Json::Num(v))))
        });
        Json::obj([
            ("workload", Json::str(&self.workload)),
            // As a string: a u64 seed need not fit a JSON number.
            ("seed", Json::str(self.seed.to_string())),
            ("quick", Json::Bool(self.quick)),
            ("n", Json::Num(self.n as f64)),
            ("setups", Json::Num(self.setups as f64)),
            ("passes", Json::Num(self.passes as f64)),
            ("ops_per_pass", Json::Num(self.ops_per_pass as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("setup_s", Json::nums(&self.setup_s)),
            ("pass_s", Json::nums(&self.pass_s)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("vm_hwm_source", Json::str(self.vm_hwm_source)),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", per_layer),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|op| {
                            Json::obj([
                                ("label", Json::str(&op.label)),
                                ("est_ms", Json::Num(op.est_ms)),
                                ("modeled_ms", Json::Num(op.modeled_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Peak resident set of this process, MiB, and where the number came from.
fn vm_hwm_mib() -> (f64, &'static str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    match kib {
        Some(kib) => (kib / 1024.0, "/proc/self/status VmHWM"),
        None => (0.0, "unavailable"),
    }
}

/// Counts out-of-core partition faults per op and how many of them hit a
/// partition the op had not faulted before; the rest are re-fetches.
#[derive(Default)]
struct FaultCollector {
    faults: Mutex<(u64, BTreeSet<(u64, u64)>)>,
}

impl Observer for FaultCollector {
    fn cache(&self, event: &CacheEvent) {
        if event.kind.starts_with("fault") {
            let mut faults = self.faults.lock().expect("fault collector lock");
            faults.0 += 1;
            faults.1.insert((event.track, event.partition));
        }
    }
}

impl FaultCollector {
    /// (faults − distinct partitions per op) ÷ faults.
    fn refault_ratio(&self) -> f64 {
        let faults = self.faults.lock().expect("fault collector lock");
        match faults.0 {
            0 => 0.0,
            total => (total - faults.1.len() as u64) as f64 / total as f64,
        }
    }
}

/// Failures of a pass: ops that did not complete or (in the verify pass)
/// missed the oracle, plus ops whose outputs or modeled statistics differ
/// bitwise from the verify pass.
fn count_failures(pass: &Pass, reference: &[OpOutcome]) -> u64 {
    pass.ops
        .iter()
        .zip(reference)
        .filter(|(op, want)| !op.ok || op.fingerprint != want.fingerprint)
        .count() as u64
}

/// Writes `<out_dir>/<workload>.trace.json` — host spans, the self-time
/// table, and the observers' modeled metrics and Chrome-trace events — and
/// returns its size in bytes.
fn write_trace_file(
    config: &RunConfig,
    tracer: &Tracer,
    traced_mark: usize,
    self_times: &[span::SelfTime],
    modeled_metrics: &str,
    modeled_trace: &str,
) -> usize {
    let self_time_rows = self_times
        .iter()
        .map(|row| {
            Json::obj([
                ("name", Json::str(row.name)),
                ("calls", Json::Num(row.calls as f64)),
                ("total_s", Json::Num(row.total_s)),
                ("self_s", Json::Num(row.self_s)),
            ])
        })
        .collect();
    let document = Json::obj([
        ("workload", Json::str(&config.workload)),
        ("seed", Json::str(config.seed.to_string())),
        (
            "clock",
            Json::str(
                "spans: host seconds since start; modeled_trace: modeled microseconds, tid = op id",
            ),
        ),
        ("traced_pass_first_span", Json::Num(traced_mark as f64)),
        ("spans", tracer.to_json()),
        ("self_time", Json::Arr(self_time_rows)),
        ("modeled_metrics", Json::str(modeled_metrics)),
    ])
    .render();
    // The recorder's document is already JSON; splice it in as the last field.
    let text = format!(
        "{},\"modeled_trace\":{}}}\n",
        document.strip_suffix('}').expect("an object"),
        modeled_trace.trim_end()
    );
    let path = config
        .out_dir
        .join(format!("{}.trace.json", config.workload));
    std::fs::create_dir_all(&config.out_dir)
        .and_then(|()| std::fs::write(&path, &text))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    text.len()
}

pub fn run(config: &RunConfig) -> RunResult {
    run_with(config, |_| ())
}

/// [`run`] with a hook between the oracle and the verify pass, so the
/// self-tests can corrupt an expected answer.
pub fn run_with(config: &RunConfig, before_verify: impl FnOnce(&mut dyn Case)) -> RunResult {
    let mut n = config
        .n
        .unwrap_or_else(|| workloads::default_n(&config.workload));
    if config.quick {
        n /= 10;
    }
    let tracer = Tracer::new();

    // --- set-up, repeated; the last one is kept and used ---
    let setups = if config.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut case: Option<Box<dyn Case>> = None;
    let mut setup_mark = 0;
    for _ in 0..setups {
        // Drop the previous set-up first, so peak memory is one set-up's.
        drop(case.take());
        setup_mark = tracer.len();
        let start = Instant::now();
        let built = {
            let _span = tracer.span("harness.setup");
            workloads::build(&config.workload, n, config.seed, &tracer)
        };
        setup_s.push(start.elapsed().as_secs_f64());
        case = Some(built);
    }
    let mut case = case.expect("at least one set-up");
    let setup_spans = tracer.since(setup_mark);
    tracer.set_enabled(false);

    // --- warm-up: fills lazy tables, checks every op against the oracle ---
    case.compute_expected();
    before_verify(case.as_mut());
    let verify = case.run_pass(Mode::Verify, &tracer);
    let ops_per_pass = verify.ops.len();
    let mut attempted = ops_per_pass as u64;
    let mut failed = count_failures(&verify, &verify.ops);

    // --- timed passes, tracing off ---
    let mut pass_s = Vec::new();
    // Host time of each op slot, one sample per pass.
    let mut slot_ms = vec![Vec::new(); ops_per_pass];
    let timed_start = Instant::now();
    let min_passes = if config.quick { 1 } else { MIN_PASSES };
    while pass_s.len() < min_passes
        || (!config.quick && timed_start.elapsed().as_secs_f64() < config.seconds)
    {
        let pass = case.run_pass(Mode::Timed, &tracer);
        attempted += ops_per_pass as u64;
        failed += count_failures(&pass, &verify.ops);
        pass_s.push(pass.wall_s);
        for (slot, op) in slot_ms.iter_mut().zip(&pass.ops) {
            slot.push(op.host_ms);
        }
    }
    let (rss_mib, vm_hwm_source) = vm_hwm_mib();

    // --- end-to-end metrics ---
    let median_pass_s = stats::median(&pass_s);
    let modeled: Vec<f64> = verify.ops.iter().map(|op| op.modeled_ms).collect();
    let modeled_p95 = match &verify.serve {
        Some(serve) => serve.p95_ms,
        None => stats::percentile(&modeled, 95.0),
    };
    // Deterministic per seed, so the traced phase below reuses them.
    let structures = case.structures();
    let edges: usize = structures.iter().map(|s| s.edges).sum();
    let bits: usize = structures.iter().map(|s| s.total_bits).sum();
    let values = [
        stats::median(&setup_s),
        ops_per_pass as f64 / median_pass_s,
        // The typical op: each op's median over the passes, then the median
        // over the op list. (A plain median over all samples sits between
        // the modes of a bimodal op mix such as build-web's, and jumps.)
        stats::median(
            &slot_ms
                .iter()
                .map(|ms| stats::median(ms))
                .collect::<Vec<_>>(),
        ),
        rss_mib,
        modeled.iter().sum::<f64>() / ops_per_pass as f64,
        modeled_p95,
        bits as f64 / edges as f64,
        verify
            .ops
            .iter()
            .map(|op| op.device_bytes)
            .max()
            .unwrap_or(0) as f64,
    ];
    let end_to_end = END_TO_END.iter().map(|m| m.name).zip(values).collect();

    let passes = pass_s.len();
    let mut result = RunResult {
        workload: config.workload.clone(),
        seed: config.seed,
        n,
        quick: config.quick,
        setups,
        passes,
        ops_per_pass,
        samples: ops_per_pass * passes,
        setup_s,
        pass_s,
        attempted,
        failed,
        end_to_end,
        layers: None,
        self_times: Vec::new(),
        ops: case
            .op_labels()
            .into_iter()
            .zip(&verify.ops)
            .map(|(label, op)| OpSummary {
                label,
                est_ms: op.stats.as_ref().map_or(0.0, |s| s.est_ms),
                modeled_ms: op.modeled_ms,
            })
            .collect(),
        vm_hwm_source,
    };
    if !config.trace {
        return result;
    }

    // --- traced pass: host spans from here, modeled events via observers ---
    let recorder = Arc::new(TraceRecorder::new());
    let registry = Arc::new(MetricsRegistry::new());
    let collector = Arc::new(FaultCollector::default());
    case.enable_tracing(ObserverHandle::new(FanoutObserver::new(vec![
        ObserverHandle::from_arc(recorder.clone()),
        ObserverHandle::from_arc(registry.clone()),
        ObserverHandle::from_arc(collector.clone()),
    ])));
    tracer.set_enabled(true);
    let traced_mark = tracer.len();
    let traced = case.run_pass(Mode::Traced, &tracer);
    let traced_spans = tracer.since(traced_mark);
    result.attempted += ops_per_pass as u64;
    result.failed += count_failures(&traced, &verify.ops);

    let mut layers = Layers::new();
    let inputs = case.inputs();
    layers.set(
        "graph.nodes",
        inputs.iter().map(|g| g.num_nodes()).sum::<usize>() as f64,
    );
    layers.set(
        "graph.edges",
        inputs.iter().map(|g| g.num_edges()).sum::<usize>() as f64,
    );
    // A workload makes its `graph.*` / `session.*` calls in the set-up or in
    // the traced pass; together the two span lists hold each call once.
    let mut call_spans = setup_spans;
    call_spans.extend(traced_spans.iter().cloned());
    layers.record_calls(&call_spans);
    layers.record_structures(&structures);
    layers.record_modeled(&traced.ops, median_pass_s);
    layers.set("ooc.refault_ratio", collector.refault_ratio());
    if let Some(serve) = &traced.serve {
        layers.record_serve(serve);
    }
    layers.record_app_host_ms(&verify.ops, &slot_ms);

    // --- probes and reference runs beside the traced pass ---
    probes::bits(&mut layers, &tracer);
    let primary = probes::cgr(inputs[0], &mut layers, &tracer);
    match config.workload.as_str() {
        "traverse-ooc" => probes::ooc_plan(&primary, &mut layers, &tracer),
        "traverse-shard8" => probes::shard_plan(&primary, workloads::SHARDS, &mut layers, &tracer),
        _ => {}
    }
    if let Some(gpucsr) = tracer.time("probe.gpucsr", || case.gpucsr_modeled_ms_per_op()) {
        layers.set("baselines.gpucsr_modeled_ms_per_op", gpucsr);
        layers.set(
            "baselines.gcgt_over_gpucsr",
            result.metric("modeled_ms_per_op") / gpucsr,
        );
    }
    if let Some(one_worker_s) = tracer.time("probe.serve_1w", || case.one_worker_pass_s()) {
        layers.set("serve.host_scaling_2w", one_worker_s / median_pass_s);
    }

    let op_ms: Vec<f64> = slot_ms.iter().flatten().copied().collect();
    let tail_pct = stats::tail_percentile(op_ms.len());
    layers.set("harness.tail_pct", tail_pct);
    layers.set("harness.op_ms_tail", stats::percentile(&op_ms, tail_pct));
    layers.set("harness.samples", op_ms.len() as f64);
    layers.set("harness.pass_s_iqr_ratio", stats::iqr_ratio(&result.pass_s));
    layers.set("obs.host_overhead_ratio", traced.wall_s / median_pass_s);
    layers.set("obs.trace_events", (tracer.len() + recorder.len()) as f64);

    result.self_times = span::self_times(&traced_spans, traced_mark);
    let trace_bytes = write_trace_file(
        config,
        &tracer,
        traced_mark,
        &result.self_times,
        &registry.snapshot(),
        &recorder.chrome_trace_json(),
    );
    layers.set("obs.trace_bytes", trace_bytes as f64);

    result.layers = Some(layers);
    result
}
