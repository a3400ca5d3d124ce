//! `BENCH.json` — the machine-readable perf baseline emitted by
//! `repro -- bench-json`.
//!
//! One entry per experiment, each with two numbers:
//!
//! * `modeled_ms` — the experiment's simulated-cost headline (the sum of
//!   the `ms` columns of its table, see `Table::modeled_ms_sum`), which is
//!   **bit-deterministic**: any change is a real cost-model or algorithm
//!   change, so regressions diff cleanly across commits;
//! * `host_ms` — wall-clock milliseconds the experiment took on this
//!   machine, the noisy-but-honest end-to-end number.
//!
//! An entry may additionally pin a dimensionless `gain` headline — the
//! `ref` experiment records its deterministic bits/edge improvement on
//! the boilerplate web generator at the widest reference window there.
//!
//! The file is versioned with a `schema` field and records the scale and
//! source count it was measured at, so baselines are only compared
//! like-for-like.

use std::io::Write;
use std::time::Instant;

use crate::experiments::refs::WINDOWS;
use crate::experiments::{
    ablations, chaos, decode, direction, fig11, fig12, fig13, fig14, fig15, fig8, fig9, load, ooc,
    refs, serve, shard, table1, table3, ExperimentContext,
};
use crate::table::Table;

/// One experiment's baseline numbers.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Experiment name (matches the `repro` CLI name).
    pub name: String,
    /// Deterministic modeled milliseconds (`None` when the experiment's
    /// table reports no time column, e.g. pure compression-rate sweeps).
    pub modeled_ms: Option<f64>,
    /// Host wall-clock milliseconds spent producing the experiment.
    pub host_ms: f64,
    /// Optional deterministic dimensionless headline (the `ref`
    /// experiment's bits/edge gain on the web generator; fraction, not
    /// percent).
    pub gain: Option<f64>,
}

/// Runs the full experiment suite, timing each and extracting its modeled
/// headline. The suite mirrors `repro all` plus the decode fast-path
/// experiment's two tables.
pub fn run_suite(ctx: &ExperimentContext) -> Vec<BenchEntry> {
    type Runner<'a> = (&'a str, Box<dyn Fn(&ExperimentContext) -> Table>);
    let runners: Vec<Runner> = vec![
        ("table3", Box::new(|_| table3::run())),
        ("table1", Box::new(table1::run)),
        ("fig8", Box::new(fig8::run)),
        ("fig9", Box::new(fig9::run)),
        ("fig11", Box::new(fig11::run)),
        ("fig12", Box::new(fig12::run)),
        ("fig13", Box::new(fig13::run)),
        ("fig14", Box::new(fig14::run)),
        ("fig15", Box::new(fig15::run)),
        ("ooc", Box::new(ooc::run)),
        ("serve", Box::new(serve::run)),
        ("shard", Box::new(shard::run)),
        ("direction", Box::new(direction::run)),
        ("decode", Box::new(decode::run)),
        (
            "decode-throughput",
            Box::new(|ctx| decode::render_host(&decode::host_rows(ctx))),
        ),
        ("ablations-warp-width", Box::new(ablations::warp_width)),
        ("ablations-cache-size", Box::new(ablations::cache_size)),
        ("ablations-delta-code", Box::new(ablations::delta_code)),
        ("load", Box::new(load::run)),
        ("chaos", Box::new(chaos::run)),
    ];
    let mut entries: Vec<BenchEntry> = runners
        .into_iter()
        .map(|(name, run)| {
            let t = Instant::now();
            let table = run(ctx);
            let host_ms = t.elapsed().as_secs_f64() * 1e3;
            BenchEntry {
                name: name.to_string(),
                modeled_ms: table.modeled_ms_sum(),
                host_ms,
                gain: None,
            }
        })
        .collect();
    // The ref experiment also pins its ratio headline: the bits/edge gain
    // on the boilerplate web generator at the widest swept window.
    let t = Instant::now();
    let rows = refs::rows(ctx);
    let gain = rows
        .iter()
        .find(|r| r.dataset.starts_with("eu-") && r.ref_window == WINDOWS[WINDOWS.len() - 1])
        .map(|r| r.gain);
    let table = refs::render(&rows);
    entries.push(BenchEntry {
        name: "ref".to_string(),
        modeled_ms: table.modeled_ms_sum(),
        host_ms: t.elapsed().as_secs_f64() * 1e3,
        gain,
    });
    entries
}

/// Renders the baseline as pretty-printed JSON (hand-rolled: names are
/// fixed ASCII identifiers, no escaping needed).
pub fn render(entries: &[BenchEntry], scale: f64, sources: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str(&format!("  \"sources\": {sources},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let modeled = match e.modeled_ms {
            Some(ms) => format!("{ms:.6}"),
            None => "null".to_string(),
        };
        let gain = match e.gain {
            Some(g) => format!(", \"gain\": {g:.6}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"modeled_ms\": {}, \"host_ms\": {:.3}{}}}{}\n",
            e.name,
            modeled,
            e.host_ms,
            gain,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads a `BENCH.json` baseline back into its entries, checking that it
/// is well formed: schema version 1, parseable `scale`/`sources` headers,
/// and a non-empty `experiments` array whose entries each carry a `name`,
/// a `modeled_ms` that is `null` or a finite number, a numeric `host_ms`
/// and, when present, a numeric `gain`.
///
/// Line-oriented by design: [`render`] is the only writer, so its layout
/// *is* the schema and a full JSON parser would add a dependency for
/// nothing. CI runs this against the committed baseline to catch hand
/// edits and renderer drift in the same breath.
pub fn parse(json: &str) -> Result<Vec<BenchEntry>, String> {
    let field = |name: &str| -> Result<String, String> {
        let tag = format!("\"{name}\": ");
        json.lines()
            .find_map(|l| l.trim().strip_prefix(&tag))
            .map(|v| v.trim_end_matches(',').to_string())
            .ok_or_else(|| format!("missing \"{name}\" field"))
    };
    if field("schema")? != "1" {
        return Err(format!("unsupported schema version {}", field("schema")?));
    }
    field("scale")?
        .parse::<f64>()
        .map_err(|e| format!("bad scale: {e}"))?;
    field("sources")?
        .parse::<usize>()
        .map_err(|e| format!("bad sources: {e}"))?;
    if !json.contains("\"experiments\": [") {
        return Err("missing \"experiments\" array".into());
    }
    let mut entries = Vec::new();
    for line in json.lines().map(str::trim) {
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let name = rest.split('"').next().unwrap_or("");
        if name.is_empty() {
            return Err(format!("entry {} has an empty name", entries.len() + 1));
        }
        // `Ok(None)` is a `null` value (where allowed) or an absent `gain`.
        let number = |key: &str, null_ok: bool| -> Result<Option<f64>, String> {
            let tag = format!("\"{key}\": ");
            let Some(value) = rest.split(&tag).nth(1) else {
                return match key {
                    "gain" => Ok(None),
                    _ => Err(format!("entry \"{name}\" is missing {key}")),
                };
            };
            let value = value
                .trim_end_matches(['}', ','])
                .split(',')
                .next()
                .unwrap_or("")
                .trim();
            if null_ok && value == "null" {
                return Ok(None);
            }
            match value.parse::<f64>() {
                Ok(ms) if ms.is_finite() => Ok(Some(ms)),
                _ => Err(format!("entry \"{name}\" has bad {key}: {value:?}")),
            }
        };
        entries.push(BenchEntry {
            name: name.to_string(),
            modeled_ms: number("modeled_ms", true)?,
            host_ms: number("host_ms", false)?.unwrap_or_default(),
            gain: number("gain", false)?,
        });
    }
    if entries.is_empty() {
        return Err("no experiment entries".into());
    }
    if json.matches('{').count() != json.matches('}').count()
        || json.matches('[').count() != json.matches(']').count()
    {
        return Err("unbalanced braces/brackets".into());
    }
    if json.contains(",\n  ]") {
        return Err("trailing comma before array close".into());
    }
    Ok(entries)
}

/// The modeled headlines that differ between two baselines, one
/// `name.key: old -> new` line per experiment and key (`modeled_ms`,
/// `gain`), an experiment missing on one side reading `null` there. `fig8`
/// is left out: it mixes the CPU baselines' wall clock in by design.
/// `host_ms` is wall clock and never compared.
pub fn diff(old: &[BenchEntry], new: &[BenchEntry]) -> Vec<String> {
    type Headline = fn(&BenchEntry) -> Option<f64>;
    let headlines: [(&str, Headline); 2] = [("modeled_ms", |e| e.modeled_ms), ("gain", |e| e.gain)];
    let names: std::collections::BTreeSet<&str> = old
        .iter()
        .chain(new)
        .map(|e| e.name.as_str())
        .filter(|&name| name != "fig8")
        .collect();
    let value = |entries: &[BenchEntry], name: &str, headline: Headline| {
        entries.iter().find(|e| e.name == name).and_then(headline)
    };
    let show = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let mut changes = Vec::new();
    for name in names {
        for (key, headline) in headlines {
            let (was, now) = (value(old, name, headline), value(new, name, headline));
            if was != now {
                changes.push(format!("{name}.{key}: {} -> {}", show(was), show(now)));
            }
        }
    }
    changes
}

/// Writes `BENCH.json` at `path`.
pub fn write_file(
    path: &std::path::Path,
    entries: &[BenchEntry],
    scale: f64,
    sources: usize,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render(entries, scale, sources).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_well_formed_json() {
        let entries = vec![
            BenchEntry {
                name: "fig8".into(),
                modeled_ms: Some(12.5),
                host_ms: 340.2,
                gain: None,
            },
            BenchEntry {
                name: "fig11".into(),
                modeled_ms: None,
                host_ms: 10.0,
                gain: Some(0.55),
            },
        ];
        let json = render(&entries, 0.05, 1);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"gain\": 0.550000"));
        assert!(json.contains("\"name\": \"fig8\""));
        assert!(json.contains("\"modeled_ms\": 12.5"));
        assert!(json.contains("\"modeled_ms\": null"));
        assert!(json.contains("\"scale\": 0.05"));
        // Brace/bracket balance (cheap well-formedness check without a
        // JSON parser in the dependency-free build).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "trailing comma:\n{json}");
    }

    #[test]
    fn validate_accepts_render_output_and_committed_baseline() {
        let entries = vec![
            BenchEntry {
                name: "fig8".into(),
                modeled_ms: Some(12.5),
                host_ms: 340.2,
                gain: None,
            },
            BenchEntry {
                name: "fig11".into(),
                modeled_ms: None,
                host_ms: 10.0,
                gain: Some(0.55),
            },
        ];
        let json = render(&entries, 0.05, 1);
        parse(&json).expect("render output validates");
        // The baseline committed at the repo root must always stay valid.
        parse(include_str!("../../../BENCH.json")).expect("committed BENCH.json validates");
    }

    #[test]
    fn validate_rejects_malformed_baselines() {
        let good = render(
            &[BenchEntry {
                name: "fig8".into(),
                modeled_ms: Some(1.0),
                host_ms: 2.0,
                gain: None,
            }],
            1.0,
            3,
        );
        assert!(parse("{}").is_err(), "empty object");
        assert!(
            parse(&good.replace("\"schema\": 1", "\"schema\": 2")).is_err(),
            "wrong schema version"
        );
        assert!(
            parse(&good.replace("\"modeled_ms\": 1.000000", "\"modeled_ms\": NaN")).is_err(),
            "non-finite modeled_ms"
        );
        assert!(
            parse(&good.replace("\"host_ms\": 2.000", "\"host_ms\": oops")).is_err(),
            "non-numeric host_ms"
        );
        assert!(
            parse(&good.replace("\"scale\": 1", "\"scale\": big")).is_err(),
            "non-numeric scale"
        );
    }

    #[test]
    fn diff_reports_every_moved_headline_but_fig8() {
        let entry = |name: &str, modeled_ms: Option<f64>, gain: Option<f64>| BenchEntry {
            name: name.into(),
            modeled_ms,
            host_ms: 1.0,
            gain,
        };
        let old = vec![
            entry("fig8", Some(2.0), None),
            entry("fig9", Some(0.5), None),
            entry("ref", Some(0.1), Some(0.55)),
            entry("table3", None, None),
        ];
        let mut same = old.clone();
        same[1].host_ms = 99.0;
        assert!(diff(&old, &same).is_empty(), "host_ms is not compared");
        let new = vec![
            entry("fig8", Some(3.0), None),
            entry("fig9", Some(0.25), None),
            entry("ref", Some(0.1), None),
            entry("direction", Some(0.1), None),
        ];
        assert_eq!(
            diff(&old, &new),
            [
                "direction.modeled_ms: null -> 0.1",
                "fig9.modeled_ms: 0.5 -> 0.25",
                "ref.gain: 0.55 -> null",
            ]
        );
        // The committed baseline reads back and equals itself.
        let committed = parse(include_str!("../../../BENCH.json")).unwrap();
        assert!(committed
            .iter()
            .any(|e| e.name == "ref" && e.gain.is_some()));
        assert!(diff(&committed, &committed).is_empty());
    }

    #[test]
    fn table_ms_sum_extraction() {
        let mut t = Table::new("demo", &["Name", "Push ms", "Rate"]);
        t.row(vec!["a".into(), "10.5".into(), "3.1x".into()]);
        t.row(vec!["b".into(), "OOM".into(), "2.0x".into()]);
        t.row(vec!["c".into(), "4.5".into(), "1.0x".into()]);
        assert_eq!(t.modeled_ms_sum(), Some(15.0));
        let no_ms = Table::new("demo", &["Name", "Rate"]);
        assert_eq!(no_ms.modeled_ms_sum(), None);
    }
}
