//! The repo benchmark. See `README.md` in this directory; `BENCHMARK.json` at
//! the repo root is the driver's view of the same definitions.

mod harness;
mod inputs;
mod json;
mod layers;
mod probes;
mod report;
mod span;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{RunConfig, RunResult};
use spec::{END_TO_END, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage (from the repo root):
  cargo run --release --manifest-path benchmark/Cargo.toml -- <command>

commands:
  --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--result <file>]
        one run of one workload; the last line of stdout is the result as JSON
        (end-to-end metrics with --trace 0, per-layer metrics with --trace 1);
        --result also writes everything the run measured to a file
  run <workload> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
        the same, with defaults (seed 1, the BENCHMARK.json run length, trace 1)
  all [--seed <u64>] [--repeat <n>] [--seconds <n>] [--out <file>]
        every workload in a child process, repeated; writes a result set
  compare <A.json> <B.json>
        one row per workload x end-to-end metric; exits 1 on any `worse`

options for run / all:
  --quick   sanity mode: n / 10, one timed pass (refused by compare)";

/// Where trace and result files go: `benchmark/out` under the current
/// directory, which the documented command makes the repo root.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--flag value` pairs and bare words; `--quick` alone takes no value.
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("quick") => args.options.push(("quick".into(), None)),
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), Some(value)));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(name, _)| !known.contains(&name.as_str()))
        {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
        }
    }
}

fn run_config(args: &Args, workload: &str) -> Result<RunConfig, String> {
    if !spec::is_workload(workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?}; the workloads are {}",
            names.join(", ")
        ));
    }
    let seconds: f64 = args.parsed("seconds", f64::from(RUN_SECONDS))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match args.value("trace").unwrap_or("1") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(RunConfig {
        workload: workload.to_string(),
        seed: args.parsed("seed", 1u64)?,
        seconds,
        trace,
        quick: args.has("quick"),
        n: None,
        out_dir: out_dir(),
    })
}

/// Every metric by name with its unit, then the self-time table.
fn print_run(result: &RunResult) {
    println!(
        "{}  seed={} n={} set-ups={} passes={} ops/pass={} op samples={}{}",
        result.workload,
        result.seed,
        result.n,
        result.setups,
        result.passes,
        result.ops_per_pass,
        result.samples,
        if result.quick { "  (quick)" } else { "" },
    );
    for (metric, &(_, value)) in END_TO_END.iter().zip(&result.end_to_end) {
        println!(
            "  {:<24} {value:>16.6} {:<6} [{}; {} is better]",
            metric.name,
            metric.unit,
            metric.kind.as_str(),
            metric.better.as_str()
        );
    }
    println!(
        "  {:<24} {:>16.6} {:<6} [{} of {} ops failed]",
        spec::FAIL_RATIO,
        result.fail_ratio(),
        "ratio",
        result.failed,
        result.attempted
    );
    if let Some(layers) = &result.layers {
        println!("  per-layer:");
        for (name, unit, value) in layers.iter() {
            println!("    {name:<36} {value:>18.6} {unit}");
        }
        println!("  self time of the traced pass (span minus children):");
        for row in &result.self_times {
            println!(
                "    {:<24} calls {:>5}  total {:>10.3} ms  self {:>10.3} ms",
                row.name,
                row.calls,
                row.total_s * 1e3,
                row.self_s * 1e3
            );
        }
    }
}

fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    args.reject_unknown(&["workload", "seed", "seconds", "trace", "quick", "result"])?;
    let config = run_config(args, workload)?;
    let result = harness::run(&config);
    print_run(&result);
    if let Some(path) = args.value("result") {
        if let Err(e) = std::fs::write(path, result.full_json().render_pretty()) {
            return Ok(failed(format!("cannot write {path}: {e}")));
        }
    }
    // The driver reads the last line.
    println!("{}", result.contract_json().render());
    Ok(ExitCode::SUCCESS)
}

/// A failure while running (exit 3), as opposed to a malformed command line
/// (exit 2, with the usage text) or a `worse` verdict (exit 1).
fn failed(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(3)
}

fn dispatch(args: Args) -> Result<ExitCode, String> {
    let command = args.positional.first().map(String::as_str);
    match command {
        // The driver's form: no subcommand, the workload named by option.
        None => match args.value("workload") {
            Some(workload) => run_one(&args, workload),
            None => Err("no command".into()),
        },
        Some("run") => match args.positional.as_slice() {
            [_, workload] => run_one(&args, workload),
            _ => Err("run takes exactly one workload".into()),
        },
        Some("all") => {
            args.reject_unknown(&["seed", "seconds", "repeat", "quick", "out"])?;
            let repeat: usize = args.parsed("repeat", 1)?;
            if repeat == 0 || args.positional.len() != 1 {
                return Err("all takes no workload, and --repeat at least 1".into());
            }
            let config = report::AllConfig {
                seed: args.parsed("seed", 1u64)?,
                seconds: args.parsed("seconds", f64::from(RUN_SECONDS))?,
                repeat,
                quick: args.has("quick"),
                out: args.value("out").map(PathBuf::from),
            };
            Ok(report::all(&config).map_or_else(failed, |()| ExitCode::SUCCESS))
        }
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] if args.options.is_empty() => {
                Ok(match report::compare(a.as_ref(), b.as_ref()) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::from(1),
                    Err(message) => failed(message),
                })
            }
            _ => Err("compare takes exactly two result-set files".into()),
        },
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(dispatch) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
