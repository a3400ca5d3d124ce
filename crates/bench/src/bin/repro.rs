//! `repro` — regenerates every table and figure of the paper's evaluation.
//! `repro --help` prints the experiments (the [`EXPERIMENTS`] table) and the
//! flags; unknown names and malformed flags print the same usage to stderr
//! and exit with status 2. `repro bench-diff OLD NEW` compares two
//! `BENCH.json` baselines instead of running anything.

use std::process::ExitCode;

use gcgt_bench::bench_json;
use gcgt_bench::datasets::Scale;
use gcgt_bench::experiments::{
    ablations, chaos, decode, direction, fig11, fig12, fig13, fig14, fig15, fig8, fig9, load, ooc,
    refs, serve, shard, table1, table3, ExperimentContext,
};
use gcgt_bench::Table;

/// How an experiment runs.
enum Run {
    /// Needs no datasets.
    Standalone(fn()),
    /// Runs over the shared dataset context (built once, on first need).
    Datasets(fn(&ExperimentContext)),
}

/// `(name, by_name_only, run)`. `by_name_only` is `Some(why)` for experiments
/// that run only when asked for by name — `all` skips them, because they
/// write a file to the cwd.
type Experiment = (&'static str, Option<&'static str>, Run);

/// Every experiment, in run order: the one list behind the help text, name
/// validation, the decision to build the datasets, and dispatch.
const EXPERIMENTS: &[Experiment] = &[
    ("table3", None, Run::Standalone(|| show(table3::run()))),
    (
        "trace",
        Some("fixed observability smoke workload; writes trace.json"),
        Run::Standalone(trace),
    ),
    ("table1", None, Run::Datasets(|ctx| show(table1::run(ctx)))),
    ("fig8", None, Run::Datasets(|ctx| show(fig8::run(ctx)))),
    ("fig9", None, Run::Datasets(|ctx| show(fig9::run(ctx)))),
    ("fig11", None, Run::Datasets(|ctx| show(fig11::run(ctx)))),
    ("fig12", None, Run::Datasets(|ctx| show(fig12::run(ctx)))),
    ("fig13", None, Run::Datasets(|ctx| show(fig13::run(ctx)))),
    ("fig14", None, Run::Datasets(|ctx| show(fig14::run(ctx)))),
    ("fig15", None, Run::Datasets(|ctx| show(fig15::run(ctx)))),
    ("ooc", None, Run::Datasets(|ctx| show(ooc::run(ctx)))),
    ("serve", None, Run::Datasets(|ctx| show(serve::run(ctx)))),
    ("shard", None, Run::Datasets(|ctx| show(shard::run(ctx)))),
    (
        "direction",
        None,
        Run::Datasets(|ctx| show(direction::run(ctx))),
    ),
    ("load", None, Run::Datasets(|ctx| show(load::run(ctx)))),
    ("chaos", None, Run::Datasets(|ctx| show(chaos::run(ctx)))),
    ("ref", None, Run::Datasets(|ctx| show(refs::run(ctx)))),
    (
        "decode",
        None,
        Run::Datasets(|ctx| {
            show(decode::render_host(&decode::host_rows(ctx)));
            show(decode::run(ctx));
        }),
    ),
    (
        "ablations",
        None,
        Run::Datasets(|ctx| {
            show(ablations::warp_width(ctx));
            show(ablations::cache_size(ctx));
            show(ablations::delta_code(ctx));
        }),
    ),
    (
        "bench-json",
        Some("the whole suite, timed per experiment; writes BENCH.json"),
        Run::Datasets(bench_json),
    ),
];

fn show(table: Table) {
    println!("{}", table.render());
}

/// Deliberately ignores `--scale` / `--sources` / `--smoke`: the workload
/// is fixed so the exported trace can be diffed byte-for-byte against the
/// committed golden fixture.
fn trace() {
    let report = gcgt_bench::trace::smoke(2);
    let path = std::path::Path::new("trace.json");
    std::fs::write(path, &report.trace_json).expect("write trace.json");
    for (label, table) in &report.explains {
        println!("== {label} ==\n{table}");
    }
    println!("== metrics ==\n{}", report.metrics);
    eprintln!(
        "[trace] wrote {} bytes to {}",
        report.trace_json.len(),
        path.display()
    );
}

fn bench_json(ctx: &ExperimentContext) {
    eprintln!("running the bench-json suite ...");
    let entries = bench_json::run_suite(ctx);
    let path = std::path::Path::new("BENCH.json");
    bench_json::write_file(path, &entries, ctx.scale.0, ctx.sources).expect("write BENCH.json");
    println!("{}", bench_json::render(&entries, ctx.scale.0, ctx.sources));
    eprintln!(
        "[bench-json] wrote {} entries to {}",
        entries.len(),
        path.display()
    );
}

/// `repro bench-diff OLD NEW`: prints every experiment whose modeled
/// headline (`modeled_ms` or `gain`) differs between two `BENCH.json`
/// baselines, `fig8` exempt ([`bench_json::diff`]). Exits 1 if any does,
/// and 2 when the arguments or files are bad.
fn bench_diff(paths: &[String]) -> ExitCode {
    let [old, new] = paths else {
        eprint!("repro: bench-diff needs two files\n\n{}", usage());
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|json| bench_json::parse(&json))
            .map_err(|e| format!("repro: {path}: {e}"))
    };
    let (old, new) = match (read(old), read(new)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let changes = bench_json::diff(&old, &new);
    if changes.is_empty() {
        println!("modeled headlines identical");
        return ExitCode::SUCCESS;
    }
    for change in &changes {
        println!("{change}");
    }
    ExitCode::FAILURE
}

fn usage() -> String {
    let mut out = String::from(
        "repro [EXPERIMENT...] [--scale F] [--sources N] [--smoke]\n\
         repro bench-diff OLD NEW\n\
         \n\
         --scale F    dataset scale factor   (default: 1.0)\n\
         --sources N  BFS sources averaged   (default: 3)\n\
         --smoke      CI smoke mode: tiny scale, one source (overrides both)\n\
         \n\
         experiments (default: all):\n ",
    );
    for (name, _, _) in EXPERIMENTS.iter().filter(|e| e.1.is_none()) {
        out.push_str(&format!(" {name}"));
    }
    out.push_str(" all\nonly when named:\n");
    for (name, by_name_only, _) in EXPERIMENTS {
        if let Some(why) = by_name_only {
            out.push_str(&format!("  {name}: {why}\n"));
        }
    }
    out.push_str(
        "\nbench-diff prints every modeled_ms / gain that differs between two\n\
         BENCH.json files (fig8 exempt) and exits 1 if any does.\n",
    );
    out
}

struct Options {
    scale: f64,
    sources: usize,
    wanted: Vec<String>,
}

/// Parses the command line; `Ok(None)` is `--help`.
fn parse(args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>, kind: &str) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs {kind}"))?;
        v.parse()
            .map_err(|_| format!("{flag} needs {kind}, got `{v}`"))
    }
    let mut opts = Options {
        scale: 1.0,
        sources: 3,
        wanted: Vec::new(),
    };
    let mut smoke = false;
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => opts.scale = value(&a, args.next(), "a float")?,
            "--sources" => opts.sources = value(&a, args.next(), "an integer")?,
            "--smoke" => smoke = true,
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if name == "all" || EXPERIMENTS.iter().any(|e| e.0 == name) => {
                opts.wanted.push(a);
            }
            name => return Err(format!("unknown experiment `{name}`")),
        }
    }
    // Smoke mode wins regardless of flag order, as the help text promises.
    if smoke {
        opts.scale = Scale::TEST.0;
        opts.sources = 1;
    }
    if opts.wanted.is_empty() {
        opts.wanted.push("all".to_string());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "bench-diff") {
        return bench_diff(&args[1..]);
    }
    let opts = match parse(args.into_iter()) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprint!("repro: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let all = opts.wanted.iter().any(|w| w == "all");

    println!(
        "GCGT reproduction — scale {}, {} BFS source(s) per measurement",
        opts.scale, opts.sources
    );
    println!(
        "Parameters (Table 2): VLC = zeta3, min interval length = 4, \
         reordering = LLP, residual segment length = 32 bytes\n"
    );

    let timed = |name: &str, run: &dyn Fn()| {
        let t = std::time::Instant::now();
        run();
        eprintln!("[{name}] done in {:.1}s\n", t.elapsed().as_secs_f64());
    };
    let mut ctx: Option<ExperimentContext> = None;
    for (name, by_name_only, run) in EXPERIMENTS {
        if !(opts.wanted.iter().any(|w| w == name) || (all && by_name_only.is_none())) {
            continue;
        }
        match run {
            Run::Standalone(run) => timed(name, run),
            Run::Datasets(run) => {
                let ctx = ctx.get_or_insert_with(|| {
                    let t = std::time::Instant::now();
                    eprintln!("building datasets (scale {}) ...", opts.scale);
                    let ctx = ExperimentContext::new(Scale(opts.scale), opts.sources);
                    eprintln!("datasets ready in {:.1}s\n", t.elapsed().as_secs_f64());
                    ctx
                });
                timed(name, &|| run(ctx));
            }
        }
    }
    ExitCode::SUCCESS
}
