//! Running workloads and reporting: the contract's one-line result for a
//! single workload, and the all-workloads mode that runs each in its own
//! child process, prints every metric by name with its unit and writes
//! the result set.

use std::process::{Command, Stdio};

use crate::json::{parse, Value};
use crate::layers;
use crate::replay::{Hit, Miss, RamReplay, StreamReplay};
use crate::serve::{Paced, Saturated};
use crate::workload::{run_end_to_end, Ctx, Outcome, WORKLOADS};
use crate::Args;

/// Untraced run of the workload called `name`.
fn end_to_end(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "replay_hit" => run_end_to_end::<RamReplay<Hit>>(ctx),
        "replay_miss" => run_end_to_end::<RamReplay<Miss>>(ctx),
        "replay_stream" => run_end_to_end::<StreamReplay>(ctx),
        "serve_saturated" => run_end_to_end::<Saturated>(ctx),
        "serve_paced" => run_end_to_end::<Paced>(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The contract's result object.
pub fn result_object(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Value {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Value::Obj(vec![
                                ("value".into(), Value::Num(*value)),
                                ("unit".into(), Value::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Contract mode: run one workload in this process and print one JSON
/// object as the last line of stdout. Returns whether every output was
/// correct and nothing failed.
pub fn run_one(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .expect("contract mode has a workload");
    let run = if args.trace {
        layers::run_traced(name, args)?
    } else {
        end_to_end(name, &args.ctx())?
    };
    for note in &run.notes {
        eprintln!("{note}");
    }
    for error in &run.errors {
        eprintln!("INCORRECT: {error}");
    }
    let missing: Vec<&str> = run
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|&(n, _, _)| n)
        .collect();
    if !missing.is_empty() {
        return Err(format!("no measurement for {missing:?}"));
    }
    let correct = run.errors.is_empty();
    println!(
        "{}",
        result_object(correct, run.attempted.max(1), run.failed, &run.metrics).render()
    );
    Ok(correct && run.failed == 0)
}

/// All-workloads mode: each workload in its own child process (so peak
/// RSS is per workload), results gathered, printed and written to
/// `<out>/results.json` (`results-trace.json` for a traced set).
pub fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let mut results: Vec<(String, Value)> = Vec::new();
    let mut all_ok = true;
    for name in WORKLOADS {
        eprintln!("== {name} ==");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        match last.map(parse) {
            Some(Ok(v)) => results.push((name.to_string(), v)),
            _ => {
                eprintln!("{name}: no result line (exit {:?})", out.status.code());
                all_ok = false;
                continue;
            }
        }
        all_ok &= out.status.success();
    }

    let set = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("quick".into(), Value::Bool(args.quick)),
        (
            "cores".into(),
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads".into(), Value::Obj(results.clone())),
    ]);
    if args.trace {
        layers::print_table(&results);
    } else {
        print_end_to_end(&results);
    }
    let file = args.out_dir.join(if args.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    std::fs::write(&file, set.render() + "\n")
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    println!(
        "{}",
        if all_ok {
            "OK: every workload correct, nothing failed"
        } else {
            "FAILED"
        }
    );
    Ok(all_ok)
}

/// `value` of metric `metric` in one workload's result object.
pub fn metric_of(result: &Value, metric: &str) -> Option<(f64, String)> {
    let m = result.get("metrics")?.get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("unit")?.as_str()?.to_string(),
    ))
}

/// Print every end-to-end metric by name, with its unit, per workload.
fn print_end_to_end(results: &[(String, Value)]) {
    let Some((_, first)) = results.first() else {
        return;
    };
    let names: Vec<String> = first
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    print!("{:<22}{:<9}", "metric", "unit");
    for (w, _) in results {
        print!("{w:>17}");
    }
    println!();
    for name in &names {
        let unit = results
            .iter()
            .find_map(|(_, r)| metric_of(r, name))
            .map_or(String::new(), |(_, u)| u);
        print!("{name:<22}{unit:<9}");
        for (_, r) in results {
            match metric_of(r, name) {
                Some((v, _)) => print!("{:>17}", format_sig(v)),
                None => print!("{:>17}", "-"),
            }
        }
        println!();
    }
    print!("{:<31}", "failed / attempted");
    for (_, r) in results {
        let f = r.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let a = r
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        print!("{:>17}", format!("{f}/{a}"));
    }
    println!();
}

/// Five significant digits, without exponent for everyday magnitudes.
pub fn format_sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    if !(-4..9).contains(&mag) {
        return format!("{v:.4e}");
    }
    let decimals = (4 - mag).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = result_object(true, 1000, 0, &[("latency_ms", 1.2034, "ms")]);
        let text = v.render();
        assert_eq!(
            text,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        assert_eq!(
            metric_of(&parse(&text).unwrap(), "latency_ms"),
            Some((1.2034, "ms".into()))
        );
    }

    #[test]
    fn significant_digit_formatting() {
        assert_eq!(format_sig(46.318_27), "46.318");
        assert_eq!(format_sig(0.071_234_5), "0.071235");
        assert_eq!(format_sig(12_000_000.0), "12000000");
        assert_eq!(format_sig(1.0), "1.0000");
        assert_eq!(format_sig(0.0), "0");
    }
}
