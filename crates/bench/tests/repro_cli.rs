//! The `repro` command line: bad input is a usage error (status 2, nothing
//! run), a valid experiment runs and exits 0, and `bench-diff` exits 1
//! exactly when a modeled headline moved.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn bad_input_is_a_usage_error() {
    for args in [
        &["fig99"][..],
        &["table3", "fig99"],
        &["--scale", "x"],
        &["--scale"],
        &["--sources", "1.5"],
        &["--frobnicate"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("repro [EXPERIMENT...]"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_known_experiment_runs() {
    let out = repro(&["table3"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 3"));
}

#[test]
fn bench_diff_fails_exactly_when_a_modeled_headline_moves() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");
    let json = std::fs::read_to_string(committed).unwrap();
    let dir = std::env::temp_dir().join(format!("repro-bench-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, json: &str| {
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    };
    // Wall clock and fig8 may move.
    let host = write(
        "host.json",
        &json.replace("\"host_ms\": ", "\"host_ms\": 1"),
    );
    let fig8 = write(
        "fig8.json",
        &json.replace(
            "\"name\": \"fig8\", \"modeled_ms\": ",
            "\"name\": \"fig8\", \"modeled_ms\": 9",
        ),
    );
    let moved = write(
        "moved.json",
        &json.replace(
            "\"name\": \"fig9\", \"modeled_ms\": ",
            "\"name\": \"fig9\", \"modeled_ms\": 9",
        ),
    );
    for (new, code) in [(&host, 0), (&fig8, 0), (&moved, 1)] {
        let out = repro(&["bench-diff", committed, new]);
        assert_eq!(out.status.code(), Some(code), "{new}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.contains("fig9.modeled_ms: "), code == 1, "{stdout}");
    }
    for args in [
        &["bench-diff", committed][..],
        &["bench-diff", committed, "no-such-file"],
    ] {
        assert_eq!(repro(args).status.code(), Some(2), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
