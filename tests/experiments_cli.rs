//! The `experiments` binary's command line: the name table is the only
//! list, an unknown name is a usage error (exit 2), a malformed or zero
//! scale knob is refused before any `results/*.tsv` is touched, and the
//! tables land under the workspace root via cargo, else under the cwd.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch() -> PathBuf {
    std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()))
}

fn experiments(args: &[&str], env: &[(&str, &str)]) -> Output {
    let scratch = scratch();
    std::fs::create_dir_all(&scratch).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    // Outside cargo the binary writes `results/` under its cwd.
    cmd.args(args)
        .current_dir(&scratch)
        .env_remove("CARGO_MANIFEST_DIR")
        .env_remove("REPRO_REQUESTS")
        .env_remove("REPRO_SEED");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run experiments binary")
}

fn listed() -> Vec<String> {
    let out = experiments(&["--list"], &[]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn unknown_name_exits_2_and_lists_the_valid_ones() {
    let names = listed();
    assert!(names.contains(&"table1".to_string()) && names.contains(&"fig12".to_string()));
    let out = experiments(&["fig7", "fig99"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment `fig99`"), "{stderr}");
    for name in names.iter().map(String::as_str).chain(["all"]) {
        assert!(stderr.contains(name), "`{name}` missing from: {stderr}");
    }
    assert_eq!(experiments(&[], &[]).status.code(), Some(2));
}

#[test]
fn malformed_scale_knob_is_refused_not_defaulted() {
    // A malformed knob is a usage error (`knob`), like an unknown name.
    for (var, value) in [
        ("REPRO_REQUESTS", "500k"),
        ("REPRO_REQUESTS", "0"),
        ("REPRO_SEED", "forty-two"),
    ] {
        let out = experiments(&["table1"], &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("error: {var}: `{value}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may run at a guessed scale");
    }
}

#[test]
fn valid_scale_knob_runs_and_saves_under_results() {
    let out = experiments(&["table1"], &[("REPRO_REQUESTS", "2000")]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("2000 requests/trace, seed 42"), "{stderr}");
    assert!(stderr.contains("table1.tsv"), "{stderr}");
    assert!(scratch().join("results/table1.tsv").is_file());
}

#[test]
fn results_land_at_the_workspace_root_under_cargo() {
    // This package's manifest is the workspace root's, one level above the
    // `crates/cdn-sim` that owns `results_dir`.
    assert!(std::env::var_os("CARGO_MANIFEST_DIR").is_some());
    assert_eq!(
        scip_repro::cdn_sim::table::results_dir(),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
    );
}
