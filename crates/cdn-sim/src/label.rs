//! The paper's LRU labels: [`label_trace`] replays [`PolicyKind::Lru`]
//! through the one replay loop and labels its outcome stream with
//! [`label_outcomes`] (Figure 1's bars, Figure 3's oracle placement,
//! Figure 4's datasets).

use cdn_cache::Request;
use cdn_trace::label::{label_outcomes, TraceLabels};

use crate::runner::{one_chunk, BatchMode, PolicyKind, TraceCtx};

/// Replay `trace` through LRU at `cache_bytes` and label every request.
pub fn label_trace(trace: &[Request], cache_bytes: u64) -> TraceLabels {
    let ctx = TraceCtx::new(trace, 0);
    let mut outcomes = Vec::with_capacity(trace.len());
    let Ok(_) = PolicyKind::Lru.run_with_observer(
        cache_bytes,
        one_chunk(trace),
        &ctx,
        BatchMode::Auto,
        |_, _, outcome, _, _| outcomes.push(outcome),
    );
    label_outcomes(&outcomes, &ctx.next_access)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;
    use cdn_policies::insertion::{InsertionCache, OraclePlacement, OracleTreatment};
    use cdn_trace::label::RequestLabel;

    /// Miss ratio of LRU under oracle placement of `labels`' classes.
    fn oracle_replay(
        trace: &[Request],
        labels: &TraceLabels,
        cache_bytes: u64,
        treatment: OracleTreatment,
        fraction: f64,
    ) -> f64 {
        let placement = OraclePlacement::new(labels, treatment, fraction);
        let mut cache = InsertionCache::new(placement, cache_bytes, "oracle");
        cdn_policies::replay(&mut cache, trace).miss_ratio()
    }

    // Cache of 2 unit-size objects: a classic pedagogical setting.
    const UNIT: u64 = 1;

    #[test]
    fn pure_one_hit_wonders_are_all_zro() {
        let t = micro_trace(&[(1, UNIT), (2, UNIT), (3, UNIT), (4, UNIT)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.summary.misses, 4);
        assert_eq!(l.summary.zro, 4);
        assert_eq!(l.summary.azro, 0);
        assert_eq!(l.summary.pzro, 0);
        assert!(l.labels.iter().all(|lb| lb.is_zro()));
    }

    #[test]
    fn final_hit_is_pzro() {
        // 1 inserted, hit once, then displaced by 2,3.
        let t = micro_trace(&[(1, UNIT), (1, UNIT), (2, UNIT), (3, UNIT)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.summary.hits, 1);
        assert_eq!(l.summary.pzro, 1);
        assert_eq!(l.labels[1], RequestLabel::HitPZro { reaccessed: false });
        // The miss at t=0 led to a residency with a hit: not a ZRO.
        assert_eq!(l.labels[0], RequestLabel::MissReused);
    }

    #[test]
    fn intermediate_hits_are_reused() {
        let t = micro_trace(&[(1, UNIT), (1, UNIT), (1, UNIT)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.labels[1], RequestLabel::HitReused);
        // Final hit at t=2 closes at end-of-trace as P-ZRO.
        assert_eq!(l.labels[2], RequestLabel::HitPZro { reaccessed: false });
        assert_eq!(l.summary.pzro, 1);
    }

    #[test]
    fn azro_detected_on_reaccess_after_eviction() {
        // 1 evicted hitless by 2,3, then requested again: its first miss is
        // an A-ZRO.
        let t = micro_trace(&[(1, UNIT), (2, UNIT), (3, UNIT), (1, UNIT)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.labels[0], RequestLabel::MissZro { reaccessed: true });
        assert_eq!(l.summary.azro, 1);
        assert!(l.summary.zro >= 2); // 1 (twice? second still open) + 2
    }

    #[test]
    fn apzro_detected() {
        // 1 hit (t=1), evicted by 2,3, then re-requested (t=4): the hit at
        // t=1 is an A-P-ZRO.
        let t = micro_trace(&[(1, UNIT), (1, UNIT), (2, UNIT), (3, UNIT), (1, UNIT)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.labels[1], RequestLabel::HitPZro { reaccessed: true });
        assert_eq!(l.summary.apzro, 1);
    }

    #[test]
    fn inadmissible_objects_labeled() {
        let t = micro_trace(&[(1, 10)]);
        let l = label_trace(&t, 2);
        assert_eq!(l.labels[0], RequestLabel::Inadmissible);
        assert_eq!(l.summary.misses, 1);
        assert_eq!(l.summary.zro, 0);
    }

    #[test]
    fn counts_are_consistent() {
        let t = micro_trace(&[
            (1, UNIT),
            (2, UNIT),
            (1, UNIT),
            (3, UNIT),
            (4, UNIT),
            (2, UNIT),
            (1, UNIT),
        ]);
        let l = label_trace(&t, 2);
        assert_eq!(l.summary.hits + l.summary.misses, 7);
        assert!(l.summary.azro <= l.summary.zro);
        assert!(l.summary.apzro <= l.summary.pzro);
        assert!(l.summary.zro <= l.summary.misses);
        assert!(l.summary.pzro <= l.summary.hits);
    }

    #[test]
    fn oracle_zro_placement_reduces_misses() {
        // ZRO-heavy stream with a stable pair of hot objects: placing the
        // one-hit wonders at LRU protects the hot pair.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..200u64 {
            if i % 4 == 0 {
                reqs.push((1, UNIT));
            } else if i % 4 == 2 {
                reqs.push((2, UNIT));
            } else {
                reqs.push((next, UNIT));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cache = 2;
        let l = label_trace(&t, cache);
        let base = l.summary.miss_ratio();
        let treated = oracle_replay(&t, &l, cache, OracleTreatment::Zro, 1.0);
        assert!(
            treated < base,
            "oracle ZRO placement should help: {treated} vs {base}"
        );
        // Fraction 0 reproduces plain LRU exactly.
        let zero = oracle_replay(&t, &l, cache, OracleTreatment::Zro, 0.0);
        assert!((zero - base).abs() < 1e-12);
    }

    #[test]
    fn oracle_fraction_monotone_in_expectation() {
        // More treated ZROs should not hurt on this adversarial stream.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..400u64 {
            if i % 3 == 0 {
                reqs.push((i % 9 / 3 + 1, UNIT)); // rotating trio of hot ids
            } else {
                reqs.push((next, UNIT));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let l = label_trace(&t, 3);
        let m25 = oracle_replay(&t, &l, 3, OracleTreatment::Zro, 0.25);
        let m100 = oracle_replay(&t, &l, 3, OracleTreatment::Zro, 1.0);
        assert!(m100 <= m25 + 1e-9, "{m100} vs {m25}");
    }

    #[test]
    fn oracle_both_at_least_as_good_as_each() {
        let mut reqs = Vec::new();
        let mut next = 1000u64;
        for i in 0..600u64 {
            match i % 5 {
                0 => reqs.push((1, UNIT)),
                1 => reqs.push((2, UNIT)),
                2 => {
                    // Burst object: inserted, hit once shortly after, gone.
                    reqs.push((next, UNIT));
                }
                3 => {
                    reqs.push((next, UNIT));
                    next += 1;
                }
                _ => {
                    reqs.push((next + 10_000, UNIT)); // one-hit wonder
                    next += 1;
                }
            }
        }
        let t = micro_trace(&reqs);
        let l = label_trace(&t, 3);
        let z = oracle_replay(&t, &l, 3, OracleTreatment::Zro, 1.0);
        let p = oracle_replay(&t, &l, 3, OracleTreatment::PZro, 1.0);
        let b = oracle_replay(&t, &l, 3, OracleTreatment::Both, 1.0);
        assert!(
            b <= z + 0.02 && b <= p + 0.02,
            "both {b}, zro {z}, pzro {p}"
        );
    }
}
