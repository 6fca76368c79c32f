//! The `replaytool` binary's command line: a hostile cache fraction, an
//! unknown policy label and an empty trace are usage errors (exit 2,
//! `error: …` on stderr), never a panic and never a silently meaningless
//! replay.

use std::path::PathBuf;
use std::process::{Command, Output};

use cdn_sim::PolicyKind;
use cdn_trace::{GeneratorConfig, TraceGenerator};

/// A small trace on disk; `name` keeps concurrently running tests apart.
fn trace_file(name: &str, requests: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("replaytool-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let trace = TraceGenerator::generate(GeneratorConfig {
        requests,
        core_objects: 200,
        ..GeneratorConfig::default()
    });
    cdn_trace::io::write_binary(&path, &trace).unwrap();
    path
}

fn replaytool(trace: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_replaytool"))
        .arg(trace)
        .args(args)
        .output()
        .expect("run replaytool binary")
}

#[test]
fn hostile_fraction_exits_2_with_a_structured_error() {
    let trace = trace_file("fraction.bin", 2_000);
    for fraction in ["nan", "0", "-1", "inf", "1e30", "1.5", "half"] {
        let out = replaytool(&trace, &[fraction, "LRU"]);
        assert_eq!(out.status.code(), Some(2), "fraction {fraction}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("error: bad fraction `{fraction}`")),
            "fraction {fraction}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "fraction {fraction} replayed anyway");
    }
    for fraction in ["1", "0.05"] {
        let out = replaytool(&trace, &[fraction, "LRU"]);
        assert!(out.status.success(), "fraction {fraction}");
    }
    // A fine fraction of nothing: no table with an invented ns/req.
    let out = replaytool(&trace_file("empty.bin", 0), &["0.05", "LRU"]);
    assert_eq!(out.status.code(), Some(2), "empty trace");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: trace holds no requests"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "an empty trace was replayed anyway");
}

#[test]
fn every_policy_label_parses_and_an_unknown_one_lists_them() {
    let trace = trace_file("labels.bin", 2_000);
    let labels: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
    let mut args = vec!["0.05"];
    args.extend(&labels);
    let out = replaytool(&trace, &args);
    assert!(out.status.success(), "a PolicyKind::ALL label was refused");
    let stdout = String::from_utf8(out.stdout).unwrap();

    let out = replaytool(&trace, &["0.05", "LRU", "NOPE"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.starts_with("error: unknown policy `NOPE`"),
        "{stderr}"
    );
    for label in labels {
        assert!(stdout.contains(label), "`{label}` row missing: {stdout}");
        assert!(stderr.contains(label), "`{label}` missing from: {stderr}");
    }
}
