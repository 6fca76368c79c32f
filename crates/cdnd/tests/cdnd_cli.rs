//! The `cdnd` binary's environment knobs: a numeric knob that is set but
//! does not parse is a usage error naming the variable (exit 2) before
//! anything is generated or served — never a silent default.

use std::process::{Command, Output};

fn cdnd(env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cdnd"));
    for (var, _) in std::env::vars().filter(|(k, _)| k.starts_with("CDND_")) {
        cmd.env_remove(var);
    }
    cmd.env("REPRO_REQUESTS", "2000");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run cdnd binary")
}

#[test]
fn malformed_knob_is_refused_not_defaulted() {
    for (var, value) in [
        ("CDND_SHARDS", "four"),
        ("CDND_QUEUE_CAP", "4k"),
        ("CDND_CAPACITY_MB", "64MB"),
        ("CDND_ADMIT_LOW_PCT", "300"),
        ("CDND_ROUTE_FAILOVER", "maybe"),
        ("REPRO_REQUESTS", "500k"),
    ] {
        let out = cdnd(&[(var, value)]);
        assert_eq!(out.status.code(), Some(2), "{var}={value}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with(&format!("error: {var}: `{value}`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "nothing may be served on a guess");
    }
}

#[test]
fn valid_knobs_are_applied() {
    let out = cdnd(&[("CDND_SHARDS", "2"), ("CDND_ROUTE_FAILOVER", "on")]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("cdnd: 2 shards x"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("served 2000 of 2000"), "{stdout}");
}
