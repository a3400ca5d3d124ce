//! The normative names: workloads, end-to-end metrics and per-layer metrics.
//! `BENCHMARK.json` at the repo root repeats them for the driver; a self-test
//! keeps the two in step.

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 8;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number comes from. `Sim` values are produced by the
/// deterministic cost model and repeat exactly for one seed on any machine;
/// `Host` values are wall-clock or memory readings of this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sim,
    Host,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Host => "host",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// For `BENCHMARK.json`, which the self-test holds to this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "build-web",
        why: "write side of the format: encode (exact-cost reference search), write, eager load, prepare; no traversal layer runs",
    },
    Workload {
        name: "traverse-incore",
        why: "the paper's Figure 8 path: GCGT kernels, SIMT model and CGR decode do all the work; ooc, shard and serve do none",
    },
    Workload {
        name: "traverse-ooc",
        why: "graph larger than device memory: modeled time is mostly PCIe transfer, so partition and cache changes show here only",
    },
    Workload {
        name: "traverse-shard8",
        why: "8 modeled devices over NVLink: exchange dominates modeled time while kernel time stays bitwise the in-core value",
    },
    Workload {
        name: "traverse-pull",
        why: "direction-optimizing BFS on a skewed symmetric graph: early-exit scans use the decoder differently from full expansion",
    },
    Workload {
        name: "serve-mixed",
        why: "outermost layer: a 2-worker pool drains a mixed batch; queue wait, fan-out and the failure path sit only here",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may get worse. The
    /// driver also requires the metric's spread over ten *different* seeds
    /// to stay inside it, so it covers input dependence (for `Sim` metrics,
    /// which at one seed repeat exactly — `compare` holds them to that) and
    /// the sandbox's ±10 % drift in machine speed (for `Host` metrics). The
    /// README gives the measured spreads.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json` order.
/// `fail_ratio` (see [`FAIL_RATIO`]) rides along in result files but not
/// here: the driver's contract wants metrics that are never 0 and carries
/// failures in its own `attempted` / `failed` / `correct` keys.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    EndToEnd {
        name: "modeled_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.20,
    },
    EndToEnd {
        name: "modeled_latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.25,
    },
    EndToEnd {
        name: "bits_per_edge",
        unit: "bits",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.10,
    },
    EndToEnd {
        name: "device_bytes",
        unit: "bytes",
        better: Better::Lower,
        kind: Kind::Sim,
        bound: 0.15,
    },
];

/// Ops that returned `Err`, panicked, differed from `refalgo`, or differed
/// bitwise between passes, over ops attempted. Must be 0.
pub const FAIL_RATIO: &str = "fail_ratio";

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// For `BENCHMARK.json`, which the self-test holds to this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics, named `<crate>.<metric>`. Every workload reports every
/// one; a layer the workload does not run reports exactly 0. Counts that
/// describe the input rather than a cost (`graph.nodes`, `serve.completed`)
/// are marked `higher` only because the schema wants a direction.
pub const PER_LAYER: [Layer; 92] = [
    // gcgt-graph: input generation and preprocessing (→ setup_s everywhere).
    lower("graph.gen_s", "s"),
    lower("graph.vnode_s", "s"),
    lower("graph.reorder_s", "s"),
    lower("graph.permute_s", "s"),
    higher("graph.nodes", "count"),
    higher("graph.edges", "count"),
    // gcgt-bits: standalone ζ3 probes over `residual_gap_values`.
    lower("bits.table_build_ms", "ms"),
    higher("bits.zeta3_table_mvals_per_s", "M/s"),
    higher("bits.zeta3_slow_mvals_per_s", "M/s"),
    // gcgt-cgr: encode / load probes on the workload's primary graph.
    higher("cgr.encode_medges_per_s.w0", "M/s"),
    higher("cgr.encode_medges_per_s.w32", "M/s"),
    lower("cgr.autotune_ms", "ms"),
    lower("cgr.write_ms", "ms"),
    lower("cgr.load_eager_ms", "ms"),
    lower("cgr.load_deferred_ms", "ms"),
    lower("cgr.validate_ms", "ms"),
    higher("cgr.decode_all_medges_per_s", "M/s"),
    higher("cgr.scan_medges_per_s", "M/s"),
    higher("cgr.compression_rate", "ratio"),
    higher("cgr.ref_nodes", "count"),
    lower("cgr.file_bytes", "bytes"),
    lower("cgr.index_bytes", "bytes"),
    // gcgt-simt: the modeled device, summed over one pass.
    lower("simt.est_ms", "ms"),
    lower("simt.cycles", "cycles"),
    lower("simt.launches", "count"),
    lower("simt.issues.Header", "count"),
    lower("simt.issues.ItvDecode", "count"),
    lower("simt.issues.ResDecode", "count"),
    lower("simt.issues.Handle", "count"),
    lower("simt.issues.Scan", "count"),
    lower("simt.issues.Shfl", "count"),
    lower("simt.issues.Sync", "count"),
    lower("simt.issues.Atomic", "count"),
    lower("simt.issues.ParDecode", "count"),
    lower("simt.issues.Jump", "count"),
    lower("simt.issues.Generic", "count"),
    lower("simt.issues.TableDecode", "count"),
    lower("simt.issues.RefChase", "count"),
    lower("simt.mem_transactions", "count"),
    higher("simt.cache_hit_rate", "ratio"),
    lower("simt.lines_per_step", "ratio"),
    higher("simt.issue_slots_per_host_s", "1/s"),
    // gcgt-core: traversal kernels.
    lower("core.pushed_edges", "count"),
    lower("core.pulled_edges", "count"),
    lower("core.push_steps", "count"),
    lower("core.pull_steps", "count"),
    lower("core.host_ms.bfs", "ms"),
    lower("core.host_ms.cc", "ms"),
    lower("core.host_ms.bc", "ms"),
    lower("core.host_ms.pagerank", "ms"),
    lower("core.host_ms.labelprop", "ms"),
    // gcgt-ooc: exactly 0 outside traverse-ooc.
    lower("ooc.plan_ms", "ms"),
    lower("ooc.partitions", "count"),
    lower("ooc.partition_faults", "count"),
    lower("ooc.partition_evictions", "count"),
    lower("ooc.transfer_ms", "ms"),
    lower("ooc.transfer_share", "ratio"),
    lower("ooc.refault_ratio", "ratio"),
    // gcgt-shard: exactly 0 outside traverse-shard8.
    lower("shard.plan_ms", "ms"),
    lower("shard.exchange_ms", "ms"),
    lower("shard.exchange_share", "ratio"),
    lower("shard.boundary_nodes", "count"),
    lower("shard.sync_steps", "count"),
    lower("shard.max_resident_bytes", "bytes"),
    // gcgt-session.
    lower("session.prepare_ms", "ms"),
    lower("session.executor_new_ms", "ms"),
    lower("session.upload_ms", "ms"),
    lower("session.footprint_bytes", "bytes"),
    lower("session.structure_bytes", "bytes"),
    // gcgt-serve: exactly 0 outside serve-mixed.
    higher("serve.modeled_qps", "1/s"),
    lower("serve.makespan_ms", "ms"),
    lower("serve.queue_wait_p50_ms", "ms"),
    lower("serve.queue_wait_p95_ms", "ms"),
    lower("serve.service_p50_ms", "ms"),
    lower("serve.service_p95_ms", "ms"),
    higher("serve.worker_utilization", "ratio"),
    higher("serve.host_scaling_2w", "ratio"),
    higher("serve.completed", "count"),
    lower("serve.shed", "count"),
    lower("serve.failed", "count"),
    // gcgt-chaos: no plan is installed, so exactly 0 everywhere.
    lower("chaos.faults_injected", "count"),
    lower("chaos.retries", "count"),
    lower("chaos.backoff_ms", "ms"),
    // gcgt-baselines: the uncompressed reference, traverse-incore only.
    lower("baselines.gpucsr_modeled_ms_per_op", "ms"),
    lower("baselines.gcgt_over_gpucsr", "ratio"),
    // The harness and the traced pass themselves.
    lower("harness.op_ms_tail", "ms"),
    higher("harness.tail_pct", "%"),
    higher("harness.samples", "count"),
    lower("harness.pass_s_iqr_ratio", "ratio"),
    lower("obs.host_overhead_ratio", "ratio"),
    lower("obs.trace_events", "count"),
    lower("obs.trace_bytes", "bytes"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn every_op_class_has_an_issue_metric() {
        for class in gcgt_simt::tally::ALL_CLASSES {
            let name = format!("simt.issues.{}", class.name());
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` must list exactly these names, in this order, with
    /// these units, directions and bounds, and the same run length.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(f64::from(RUN_SECONDS))
        );

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
        let end_to_end = listed("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (got, want) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let per_layer = listed("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (got, want) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "unit"), want.unit);
            assert_eq!(field(got, "better"), want.better.as_str());
        }
    }
}
