//! The `repro` command line: bad input is a usage error (status 2, nothing
//! run), a valid experiment runs and exits 0.

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
