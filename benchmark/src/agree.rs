//! `scipbench agree A.json B.json` — compare two result sets metric by
//! workload against the bounds `BENCHMARK.json` fixes.
//!
//! `A` is the baseline and `B` the candidate (two back-to-back sets of
//! one commit, or parent and change). `B` breaches a pairing when it is
//! *worse* than `A` by more than the metric's bound; the four
//! exact-repeat metrics must be bit-equal, in either direction. A `B`
//! that is better beyond the bound is printed as such and does not fail
//! the comparison — whether it is a gain is decided by paired runs, not
//! by this tool.

use crate::json::{parse, Value};
use crate::report::{format_sig, metric_of};

/// Metrics that are pure functions of the seed and the code: two runs of
/// one commit on one seed must agree to the last bit.
pub const EXACT_REPEAT: [&str; 4] = [
    "object_miss_ratio",
    "byte_miss_ratio",
    "meta_bytes_per_obj",
    "served_share",
];

/// One end-to-end metric as the manifest declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
}

/// The `end_to_end` block of a parsed `BENCHMARK.json`.
pub fn bounds_of(manifest: &Value) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("manifest has no end_to_end array")?
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = e
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = e
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: match better {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("{name}: better = `{other}`")),
                },
                bound,
            })
        })
        .collect()
}

/// How one pairing of metric and workload compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within the bound (or bit-equal, for an exact-repeat metric).
    Within,
    /// `B` is better than `A` by more than the bound.
    BetterBeyondBound,
    /// `B` is worse than `A` by more than the bound, or an exact-repeat
    /// metric differs.
    Breach,
}

/// Relative change from `a` to `b`, signed so that positive means worse.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Judge one pairing.
pub fn judge(bound: &Bound, a: f64, b: f64) -> Verdict {
    if EXACT_REPEAT.contains(&bound.name.as_str()) {
        return if a.to_bits() == b.to_bits() {
            Verdict::Within
        } else {
            Verdict::Breach
        };
    }
    let w = worsening(a, b, bound.lower_is_better);
    if !w.is_finite() || w > bound.bound {
        Verdict::Breach
    } else if w < -bound.bound {
        Verdict::BetterBeyondBound
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Compare two parsed result sets; prints every pairing and returns
/// whether none breached.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<bool, String> {
    if a.get("seed") != b.get("seed") {
        return Err(format!(
            "the sets were run on different seeds ({:?} vs {:?}); exact-repeat metrics \
             only compare on one seed",
            a.get("seed"),
            b.get("seed")
        ));
    }
    let workloads = |set: &Value| -> Result<Vec<(String, Value)>, String> {
        Ok(set
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("result set has no workloads object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut ok = true;
    println!(
        "{:<17}{:<20}{:>14}{:>14}{:>10}{:>8}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name}: missing from B");
            ok = false;
            continue;
        };
        for (label, r) in [("A", ra), ("B", rb)] {
            let failed = r.get("failed").and_then(Value::as_f64).unwrap_or(f64::NAN);
            if r.get("correct") != Some(&Value::Bool(true)) || failed != 0.0 {
                println!("{name}: set {label} is incorrect or has failures (failed = {failed})");
                ok = false;
            }
        }
        for bound in bounds {
            let (Some((va, _)), Some((vb, _))) =
                (metric_of(ra, &bound.name), metric_of(rb, &bound.name))
            else {
                println!("{name:<17}{:<20} missing from a set", bound.name);
                ok = false;
                continue;
            };
            let verdict = judge(bound, va, vb);
            let exact = EXACT_REPEAT.contains(&bound.name.as_str());
            println!(
                "{name:<17}{:<20}{:>14}{:>14}{:>9.2}%{:>8}  {}",
                bound.name,
                format_sig(va),
                format_sig(vb),
                worsening(va, vb, bound.lower_is_better) * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{}%", bound.bound * 100.0)
                },
                match verdict {
                    Verdict::Within => "ok",
                    Verdict::BetterBeyondBound => "better beyond bound (not a claim)",
                    Verdict::Breach => "BREACH",
                }
            );
            ok &= verdict != Verdict::Breach;
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            println!("{name}: missing from A");
            ok = false;
        }
    }
    println!("{}", if ok { "AGREE" } else { "DISAGREE" });
    Ok(ok)
}

/// Entry point of the `agree` subcommand.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: scipbench agree A.json B.json".to_string());
    };
    let bounds = bounds_of(&load("BENCHMARK.json")?)?;
    compare(&load(a)?, &load(b)?, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_object;

    fn bound(name: &str, lower: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_string(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn worse_is_positive_whichever_way_is_better() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn bounds_and_exact_metrics_are_judged_differently() {
        let thr = bound("throughput_mreq_s", false, 0.10);
        assert_eq!(judge(&thr, 10.0, 9.5), Verdict::Within);
        assert_eq!(judge(&thr, 10.0, 8.9), Verdict::Breach);
        assert_eq!(judge(&thr, 10.0, 11.5), Verdict::BetterBeyondBound);
        assert_eq!(judge(&thr, 10.0, f64::NAN), Verdict::Breach);
        // An exact-repeat metric ignores its bound: one ulp is a breach,
        // in the "better" direction too.
        let omr = bound("object_miss_ratio", true, 0.05);
        let x = 0.0774_f64;
        assert_eq!(judge(&omr, x, x), Verdict::Within);
        assert_eq!(
            judge(&omr, x, f64::from_bits(x.to_bits() + 1)),
            Verdict::Breach
        );
        assert_eq!(
            judge(&omr, x, f64::from_bits(x.to_bits() - 1)),
            Verdict::Breach
        );
    }

    fn set(seed: f64, thr: f64, omr: f64, failed: u64) -> Value {
        let result = result_object(
            true,
            100,
            failed,
            &[
                ("throughput_mreq_s", thr, "Mreq/s"),
                ("object_miss_ratio", omr, "ratio"),
            ],
        );
        Value::Obj(vec![
            ("seed".into(), Value::Num(seed)),
            (
                "workloads".into(),
                Value::Obj(vec![("replay_hit".into(), result)]),
            ),
        ])
    }

    #[test]
    fn whole_sets_compare_against_manifest_bounds() {
        let manifest = parse(
            r#"{"end_to_end": [
                {"name": "throughput_mreq_s", "unit": "Mreq/s", "better": "higher", "bound": 0.1},
                {"name": "object_miss_ratio", "unit": "ratio", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap();
        let bounds = bounds_of(&manifest).unwrap();
        assert_eq!(bounds[0], bound("throughput_mreq_s", false, 0.1));
        let base = set(42.0, 26.0, 0.0774, 0);
        assert_eq!(
            compare(&base, &set(42.0, 25.0, 0.0774, 0), &bounds),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &set(42.0, 22.0, 0.0774, 0), &bounds),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &set(42.0, 26.0, 0.0775, 0), &bounds),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &set(42.0, 26.0, 0.0774, 3), &bounds),
            Ok(false)
        );
        assert!(compare(&base, &set(1337.0, 26.0, 0.0774, 0), &bounds).is_err());
    }
}
