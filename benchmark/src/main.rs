//! `scipbench` — the repository's benchmark.
//!
//! Two users, five workloads, ten end-to-end metrics, and a per-layer
//! table measured from outside, by timing calls into each crate's public
//! functions. See `benchmark/README.md` for definitions and bounds.
//!
//! ```text
//! scipbench --workload W --seed S --seconds T --trace 0|1   one workload, one JSON result line
//! scipbench [--seed S] [--seconds T] [--trace] [--quick]    every workload, each in its own process
//! scipbench agree A.json B.json                             compare two result sets against the bounds
//! ```

mod agree;
mod json;
mod layers;
mod pace;
mod probes;
mod replay;
mod report;
mod serve;
mod span;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Ctx, Scale, WORKLOADS};

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One workload (contract mode) or all of them.
    pub workload: Option<String>,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// N ÷ 16, three passes, no bounds: smoke-test the harness.
    pub quick: bool,
    /// Where corpus, span and result files go: `benchmark/out` under the
    /// working directory, which `run.sh` makes the repository root.
    pub out_dir: PathBuf,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workload: None,
            seed: 42,
            seconds: 12.0,
            trace: false,
            quick: false,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

/// Parse run arguments. `--trace` takes an optional `0|1` so both the
/// driver's `--trace 1` and a bare `--trace` work.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    args.trace = true;
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(args)
}

impl Args {
    /// The workload context these arguments describe.
    pub fn ctx(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            budget_s: self.seconds,
            scale: if self.quick {
                Scale::Quick
            } else {
                Scale::Full
            },
            out_dir: self.out_dir.clone(),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("agree") => agree::main(&argv[1..]),
        Some("-h" | "--help") => {
            println!(
                "usage: scipbench [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--quick]\n       \
                 scipbench agree A.json B.json"
            );
            Ok(true)
        }
        _ => parse_args(&argv).and_then(|args| match &args.workload {
            Some(_) => report::run_one(&args),
            None => report::run_all(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scipbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_human_forms_parse() {
        let a = parse_args(&argv(
            "--workload serve_paced --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_paced"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        let a = parse_args(&argv(
            "--workload replay_hit --seed 1 --seconds 3 --trace 0",
        ))
        .unwrap();
        assert!(!a.trace);
        let a = parse_args(&argv("--trace --quick")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.quick),
            (None, 42, true, true)
        );
        assert_eq!(parse_args(&[]).unwrap(), Args::default());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
