//! The daemon binaries' environment knobs: a numeric knob that is set but
//! does not parse, or that parses into a config the daemon cannot run,
//! is a usage error (exit 2) before anything is served — never a silent
//! default, never a panic.

use std::process::{Command, Output};

const CDND: &str = env!("CARGO_BIN_EXE_cdnd");
const CDND_CHAOS: &str = env!("CARGO_BIN_EXE_cdnd_chaos");

fn run(bin: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("CDND_")) {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_REQUESTS", "2000");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run daemon binary")
}

#[test]
fn malformed_knob_is_refused_not_defaulted() {
    // `None`: the knob does not parse; the error comes first and quotes it.
    const UNRUNNABLE: Option<&str> = Some("error: invalid daemon config: ");
    for (bin, var, value, refusal) in [
        (CDND, "CDND_SHARDS", "four", None),
        (CDND, "CDND_CAPACITY_MB", "64MB", None),
        (CDND, "CDND_ROUTE_FAILOVER", "maybe", None),
        (CDND, "REPRO_REQUESTS", "500k", None),
        (CDND_CHAOS, "REPRO_REQUESTS", "500k", None),
        // Parsable, but no daemon can run it: refused before the shard
        // plan is built (0 shards used to panic in the partitioner,
        // 70 000 to start 70 000 threads, an empty trace to `expect`).
        (CDND, "CDND_SHARDS", "0", UNRUNNABLE),
        (CDND, "CDND_SHARDS", "70000", UNRUNNABLE),
        (CDND_CHAOS, "REPRO_REQUESTS", "0", UNRUNNABLE),
        (
            CDND_CHAOS,
            "REPRO_REQUESTS",
            "10",
            Some("error: REPRO_REQUESTS: 10 requests leave shard"),
        ),
    ] {
        let out = run(bin, &[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let refused = match refusal {
            None => stderr.starts_with(&format!("error: {var}: `{value}`")),
            Some(error) => stderr.lines().any(|l| l.starts_with(error)),
        };
        assert!(refused, "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing may be served on a guess");
    }
}

#[test]
fn valid_knobs_are_applied() {
    let out = run(CDND, &[("CDND_SHARDS", "2"), ("CDND_ROUTE_FAILOVER", "on")]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cdnd: 2 shards x"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("served 2000 of 2000"), "{stdout}");
}
