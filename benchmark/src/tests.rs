//! Self-tests of the harness as a whole, on inputs small enough to run in
//! a second or two each.

use std::path::PathBuf;

use crate::harness::{self, RunConfig, RunResult};
use crate::spec::{Kind, END_TO_END, WORKLOADS};

/// Small enough for a debug build, large enough that every layer engages
/// (the out-of-core budget still splits the graph into several partitions).
const TINY_N: usize = 2_000;

fn config(workload: &str, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        // One set-up, one timed pass.
        quick: true,
        n: Some(TINY_N * 10),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("self-test-{workload}-{seed}")),
    }
}

fn sim_metrics(result: &RunResult) -> Vec<(&'static str, u64)> {
    END_TO_END
        .iter()
        .filter(|m| m.kind == Kind::Sim)
        .map(|m| (m.name, result.metric(m.name).to_bits()))
        .collect()
}

fn op_labels(result: &RunResult) -> Vec<&str> {
    result.ops.iter().map(|op| op.label.as_str()).collect()
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_changes_the_ops() {
    for workload in ["build-web", "traverse-incore", "serve-mixed"] {
        let first = harness::run(&config(workload, 7, false));
        let again = harness::run(&config(workload, 7, false));
        let other = harness::run(&config(workload, 8, false));
        assert_eq!(first.failed, 0, "{workload}");
        assert_eq!(op_labels(&first), op_labels(&again), "{workload}");
        assert_eq!(sim_metrics(&first), sim_metrics(&again), "{workload}");
        assert_ne!(op_labels(&first), op_labels(&other), "{workload}");
    }
}

#[test]
fn a_wrong_answer_is_a_failure() {
    for workload in ["build-web", "traverse-pull"] {
        let result =
            harness::run_with(&config(workload, 3, false), |case| case.sabotage_expected());
        assert_eq!(result.failed, 1, "{workload}");
        assert!(result.fail_ratio() > 0.0 && !result.correct(), "{workload}");
    }
}

/// Every workload runs clean, reports every metric, and the layers it does
/// not use stay at exactly 0.
#[test]
fn layers_stay_isolated() {
    let mut incore_est_ms = 0.0;
    for workload in &WORKLOADS {
        let name = workload.name;
        let result = harness::run(&config(name, 5, true));
        assert_eq!(result.failed, 0, "{name}");
        for metric in &END_TO_END {
            assert!(result.metric(metric.name) > 0.0, "{name}.{}", metric.name);
        }
        let layers = result.layers.as_ref().expect("traced run");
        // Metrics under `prefix` are 0 away from `home`; at home, those in
        // `engaged` are not.
        let belongs_to = |prefix: &str, home: &str, engaged: &[&str]| {
            for (metric, _, value) in layers.iter().filter(|(m, ..)| m.starts_with(prefix)) {
                if name != home {
                    assert_eq!(value, 0.0, "{name}: {metric}");
                } else if engaged.contains(&metric) {
                    assert!(value > 0.0, "{name}: {metric}");
                }
            }
        };
        belongs_to(
            "ooc.",
            "traverse-ooc",
            &[
                "ooc.plan_ms",
                "ooc.partitions",
                "ooc.partition_faults",
                "ooc.transfer_ms",
            ],
        );
        belongs_to(
            "shard.",
            "traverse-shard8",
            &["shard.plan_ms", "shard.exchange_ms", "shard.sync_steps"],
        );
        belongs_to(
            "serve.",
            "serve-mixed",
            &[
                "serve.makespan_ms",
                "serve.completed",
                "serve.host_scaling_2w",
            ],
        );
        belongs_to(
            "baselines.",
            "traverse-incore",
            &["baselines.gpucsr_modeled_ms_per_op"],
        );
        belongs_to(
            "core.pull",
            "traverse-pull",
            &["core.pull_steps", "core.pulled_edges"],
        );
        if name == "serve-mixed" {
            // `modeled_ms_per_op` is service cost, without queue wait: two
            // workers cannot be busy for longer than twice the makespan.
            let busy_ms = result.metric("modeled_ms_per_op") * layers.get("serve.completed");
            assert!(
                busy_ms <= 2.0 * layers.get("serve.makespan_ms") * (1.0 + 1e-9),
                "{name}"
            );
            assert!(
                result.metric("modeled_latency_p95_ms") > result.metric("modeled_ms_per_op"),
                "{name}"
            );
        }
        for (metric, _, value) in layers.iter().filter(|(m, ..)| m.starts_with("chaos.")) {
            assert_eq!(value, 0.0, "{name}: {metric}");
        }
        assert!(layers.get("obs.host_overhead_ratio") > 0.0, "{name}");
        let trace = config(name, 5, true)
            .out_dir
            .join(format!("{name}.trace.json"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let doc = crate::json::Json::parse(&text).expect("trace file is JSON");
        let spans = doc.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("parent").unwrap().as_f64().is_some()));
        assert!(!doc
            .get("self_time")
            .and_then(|s| s.as_arr())
            .unwrap()
            .is_empty());

        // Sharding changes placement and exchange, never the kernels: the
        // ops the two workloads share cost bitwise the same kernel time.
        // (shard8 swaps incore's BC + LabelProp + twitter ops for nothing,
        // so compare BFS + CC + PageRank on the web graph only — which is
        // all of shard8.)
        if name == "traverse-incore" {
            incore_est_ms = shared_web_est_ms(&result);
        } else if name == "traverse-shard8" {
            assert_eq!(
                shared_web_est_ms(&result).to_bits(),
                incore_est_ms.to_bits(),
                "kernel est_ms differs between incore and shard8"
            );
        }
    }
}

/// Sum of modeled kernel time over the ops `traverse-incore` and
/// `traverse-shard8` share: the web-graph BFS list, CC and PageRank.
fn shared_web_est_ms(result: &RunResult) -> f64 {
    result
        .ops
        .iter()
        .filter(|op| {
            op.label.contains(" on web")
                && ["Bfs", "Cc", "Pagerank"]
                    .iter()
                    .any(|app| op.label.starts_with(app))
        })
        .map(|op| op.est_ms)
        .sum()
}
