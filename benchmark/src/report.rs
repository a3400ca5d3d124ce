//! `all`: every workload in its own child process, aggregated over repeats
//! into a result set. `compare`: two result sets, one verdict per workload ×
//! end-to-end metric.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::spec::{Better, Kind, END_TO_END, FAIL_RATIO, PER_LAYER, WORKLOADS};
use crate::stats;

pub struct AllConfig {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

const COST_MODEL_NOTE: &str = "sim metrics come from the repo's SIMT cost model, which is \
    unvalidated: the repo holds no hardware reference, so no error figure is given";

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// The checked-out commit, read from `.git` directly (no process to spawn;
/// the driver's checkout is not a repository at all).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs one workload in a child process and returns its full result.
fn run_child(workload: &str, config: &AllConfig, result_path: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", "1"])
        .arg("--result")
        .arg(result_path);
    if config.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = std::fs::read_to_string(result_path).map_err(|e| e.to_string())?;
    Json::parse(&text)
}

fn field_f64(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("result file lacks {}", path.join(".")))
}

/// `(name, unit, kind, better, bound)` of every metric `compare` judges:
/// the end-to-end list plus `fail_ratio`, which must be exactly 0.
fn judged_metrics() -> Vec<(&'static str, &'static str, Kind, Better, f64)> {
    let mut metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.kind, m.better, m.bound))
        .collect();
    metrics.push((FAIL_RATIO, "ratio", Kind::Sim, Better::Lower, 0.0));
    metrics
}

pub fn all(config: &AllConfig) -> Result<(), String> {
    let out_dir = crate::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let load_start = load_average();
    if load_start > nproc() as f64 {
        eprintln!(
            "warning: 1-minute load average {load_start} exceeds {} cores; host metrics will be noisy",
            nproc()
        );
    }

    let mut workloads = Vec::new();
    let mut vm_hwm_source = String::new();
    let mut any_failed = false;
    for workload in &WORKLOADS {
        let mut runs = Vec::with_capacity(config.repeat);
        for repeat in 0..config.repeat {
            eprintln!(
                "{} (run {} of {})",
                workload.name,
                repeat + 1,
                config.repeat
            );
            let path = out_dir.join(format!("{}.result.json", workload.name));
            runs.push(run_child(workload.name, config, &path)?);
        }
        let last = runs.last().expect("repeat >= 1");
        vm_hwm_source = last
            .get("vm_hwm_source")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();

        println!(
            "\n{}  (n={}, passes={}, ops/pass={}, op samples={})",
            workload.name,
            field_f64(last, &["n"]),
            field_f64(last, &["passes"]),
            field_f64(last, &["ops_per_pass"]),
            field_f64(last, &["samples"]),
        );
        let mut end_to_end = Vec::new();
        for (name, unit, kind, better, bound) in judged_metrics() {
            let values: Vec<f64> = runs
                .iter()
                .map(|run| field_f64(run, &["end_to_end", name]))
                .collect();
            let (q1, q3) = stats::quartiles(&values);
            let median = stats::median(&values);
            println!(
                "  {name:<24} {median:>16.6} {unit:<6} [{}; q1 {q1:.6}, q3 {q3:.6}; {} is better; bound {bound}]",
                kind.as_str(),
                better.as_str(),
            );
            // One failing run in three has a median of 0; it still failed.
            if name == FAIL_RATIO && values.iter().any(|&v| v > 0.0) {
                any_failed = true;
            }
            end_to_end.push((
                name,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("kind", Json::str(kind.as_str())),
                    ("better", Json::str(better.as_str())),
                    ("bound", Json::Num(bound)),
                    ("median", Json::Num(median)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("values", Json::nums(&values)),
                ]),
            ));
        }
        println!("  per-layer (last run):");
        for layer in &PER_LAYER {
            let value = field_f64(last, &["per_layer", layer.name]);
            println!("    {:<36} {value:>18.6} {}", layer.name, layer.unit);
        }
        workloads.push(Json::obj([
            ("name", Json::str(workload.name)),
            ("n", Json::Num(field_f64(last, &["n"]))),
            ("passes", Json::Num(field_f64(last, &["passes"]))),
            (
                "ops_per_pass",
                Json::Num(field_f64(last, &["ops_per_pass"])),
            ),
            ("samples", Json::Num(field_f64(last, &["samples"]))),
            ("end_to_end", Json::obj(end_to_end)),
            (
                "per_layer",
                last.get("per_layer").cloned().unwrap_or(Json::Null),
            ),
            ("ops", last.get("ops").cloned().unwrap_or(Json::Null)),
        ]));
    }

    // Recorded, not warned about: by now the load is this program's own.
    let load_end = load_average();
    let document = Json::obj([
        ("schema", Json::Num(1.0)),
        ("quick", Json::Bool(config.quick)),
        ("repeat", Json::Num(config.repeat as f64)),
        (
            "provenance",
            Json::obj([
                ("seed", Json::str(config.seed.to_string())),
                ("seconds", Json::Num(config.seconds)),
                ("git_commit", Json::str(git_commit())),
                ("rustc", Json::str(rustc_version())),
                ("available_parallelism", Json::Num(nproc() as f64)),
                ("load_average_start", Json::Num(load_start)),
                ("load_average_end", Json::Num(load_end)),
                ("vm_hwm_source", Json::str(vm_hwm_source)),
                ("cost_model", Json::str(COST_MODEL_NOTE)),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = config.out.clone().unwrap_or_else(|| {
        let kind = if config.quick { "quick" } else { "results" };
        out_dir.join(format!("{kind}-seed{}.json", config.seed))
    });
    std::fs::write(&path, document.render_pretty()).map_err(|e| e.to_string())?;
    println!("\nresult set written to {}", path.display());
    println!("note: {COST_MODEL_NOTE}");
    if any_failed {
        return Err("some ops failed (fail_ratio > 0)".into());
    }
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative tolerance within which two `sim` values count as bit-equal
/// (they are printed and parsed with all their digits).
const EXACT: f64 = 1e-12;

/// Judges metric values `b` (the change) against `a` (the parent).
///
/// * A metric that must repeat exactly (`exact`: a `sim` metric at one seed,
///   or `fail_ratio`) is `same` only when the medians agree to 1e-12.
/// * Otherwise `worse` means the median moved the wrong way by more than
///   `bound`, as a share of the parent's median (the delta column's
///   denominator, whichever direction is better). When the spread of either side (interquartile range over
///   median) exceeds the bound the medians cannot decide: the verdict is
///   `unresolved` unless every run of one side beats every run of the other.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, exact: bool) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    // Positive when b is worse than a.
    let shift = match better {
        Better::Lower => med_b - med_a,
        Better::Higher => med_a - med_b,
    };
    let worse_by = if shift == 0.0 {
        0.0
    } else if med_a == 0.0 {
        // Any move away from a parent of 0 is beyond every bound.
        shift.signum() * f64::INFINITY
    } else {
        shift / med_a.abs()
    };
    if exact {
        return match worse_by {
            w if w.abs() <= EXACT => Verdict::Same,
            w if w > 0.0 => Verdict::Worse,
            _ => Verdict::Better,
        };
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let spread = stats::iqr_ratio(a).max(stats::iqr_ratio(b));
    if worse_by > bound {
        if spread > bound && !all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if -worse_by > spread.max(EXACT) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct ResultSet {
    seed: String,
    workloads: Vec<(String, Json)>,
}

fn load_result_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{}: not a full result set (--quick runs are for sanity only and are not compared)",
            path.display()
        ));
    }
    let seed = doc
        .get("provenance")
        .and_then(|p| p.get("seed"))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: no provenance.seed", path.display()))?
        .to_string();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no workloads", path.display()))?
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w.clone())))
        .collect();
    Ok(ResultSet { seed, workloads })
}

fn series(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints one row per workload × metric; `Ok(true)` when nothing is worse.
pub fn compare(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let a = load_result_set(path_a)?;
    let b = load_result_set(path_b)?;
    let same_seed = a.seed == b.seed;
    if !same_seed {
        println!(
            "seeds differ ({} vs {}): sim metrics are judged by their bounds, not exactly",
            a.seed, b.seed
        );
    }
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    let mut clean = true;
    for (name, workload_a) in &a.workloads {
        let Some((_, workload_b)) = b.workloads.iter().find(|(n, _)| n == name) else {
            return Err(format!("{name} is missing from {}", path_b.display()));
        };
        for (metric, _unit, kind, better, bound) in judged_metrics() {
            let missing = |p: &Path| format!("{name}.{metric} is missing from {}", p.display());
            let mut values_a = series(workload_a, metric).ok_or_else(|| missing(path_a))?;
            let mut values_b = series(workload_b, metric).ok_or_else(|| missing(path_b))?;
            if metric == FAIL_RATIO {
                // Must be 0 in every run: the worst run stands for the set.
                let worst = |values: &[f64]| vec![values.iter().copied().fold(0.0, f64::max)];
                values_a = worst(&values_a);
                values_b = worst(&values_b);
            }
            let exact = metric == FAIL_RATIO || (kind == Kind::Sim && same_seed);
            let verdict = judge(&values_a, &values_b, better, bound, exact);
            let (med_a, med_b) = (stats::median(&values_a), stats::median(&values_b));
            let delta = if med_b == med_a {
                0.0
            } else {
                // Infinite away from a parent of 0, as `judge` treats it.
                (med_b - med_a) / med_a.abs() * 100.0
            };
            println!(
                "{name:<16} {metric:<24} {med_a:>16.6} {med_b:>16.6} {delta:>+8.2}% {:>6}  {}",
                if exact { 0.0 } else { bound },
                verdict.as_str()
            );
            clean &= verdict != Verdict::Worse;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_metrics_tolerate_nothing() {
        assert_eq!(
            judge(&[1.0], &[1.0], Better::Lower, 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&[1.0], &[1.000001], Better::Lower, 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[1.0], &[0.999999], Better::Lower, 0.1, true),
            Verdict::Better
        );
        assert_eq!(
            judge(&[0.0], &[0.0], Better::Lower, 0.0, true),
            Verdict::Same
        );
        assert_eq!(
            judge(&[0.0], &[0.5], Better::Lower, 0.0, true),
            Verdict::Worse
        );
    }

    #[test]
    fn host_metrics_use_bound_and_spread() {
        let a = [10.0, 10.1, 9.9];
        // Within the bound either way.
        assert_eq!(
            judge(&a, &[10.3, 10.4, 10.2], Better::Lower, 0.1, false),
            Verdict::Same
        );
        // Beyond the bound, tight spread.
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], Better::Lower, 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], Better::Higher, 0.1, false),
            Verdict::Better
        );
        // The bound is a share of the parent's median, in both directions.
        assert_eq!(
            judge(&[10.0], &[13.0], Better::Lower, 0.25, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[10.0], &[12.4], Better::Lower, 0.25, false),
            Verdict::Same
        );
        assert_eq!(
            judge(&[10.0], &[7.4], Better::Higher, 0.25, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[10.0], &[7.6], Better::Higher, 0.25, false),
            Verdict::Same
        );
        // Beyond the bound but the runs overlap and scatter: undecided.
        assert_eq!(
            judge(
                &[10.0, 14.0, 6.0],
                &[12.0, 5.0, 16.0],
                Better::Lower,
                0.1,
                false
            ),
            Verdict::Unresolved
        );
        // Noisy, yet every run of B beats every run of A.
        assert_eq!(
            judge(
                &[10.0, 14.0, 12.0],
                &[5.0, 8.0, 6.0],
                Better::Lower,
                0.1,
                false
            ),
            Verdict::Better
        );
    }
}
