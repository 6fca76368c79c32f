//! Property tests for the workload substrate: next-access consistency and
//! generator determinism over random parameter draws, and differential
//! checks of the generator's two shortcuts — the
//! Zipf guide table against a plain binary search over the whole CDF, and
//! memoized object sizes against `SizeModel::size_of`.

use cdn_cache::Request;
use cdn_trace::{
    next_access_table, DriftEvent, GeneratorConfig, SizeModel, TraceGenerator, Zipf, NO_NEXT,
};
use proptest::prelude::*;

/// The draws a guide table could mis-bucket: 0.0, every bucket edge `b/K`
/// with its two `f64` neighbours, and the largest `f64` below 1.0.
fn adversarial_draws(n: usize) -> impl Iterator<Item = f64> {
    let buckets = n.next_power_of_two();
    (0..=buckets)
        .flat_map(move |b| {
            let edge = b as f64 / buckets as f64;
            [edge.next_down(), edge, edge.next_up()]
        })
        .filter(|u| (0.0..1.0).contains(u))
}

/// First draw on which the guided inversion and a plain binary search
/// over the whole CDF disagree, as `(u, guided, plain)`.
fn guide_mismatch(z: &Zipf, draws: impl Iterator<Item = f64>) -> Option<(f64, usize, usize)> {
    draws
        .map(|u| (u, z.rank_of(u), z.cdf().partition_point(|&c| c < u)))
        .find(|&(_, guided, plain)| guided != plain)
}

/// A trace whose rank→id map is rewritten constantly — background drift
/// every 200 requests, three head rotations, a flash crowd and a
/// popularity cycle — with `wonder_size_factor` 1.0, so *every* request's
/// size must equal `size_of(id, seed)`. Returns the first that does not.
fn stale_size(size_model: SizeModel, seed: u64) -> Option<Request> {
    let requests = 20_000;
    let cfg = GeneratorConfig {
        requests,
        core_objects: 1_000,
        burst_start_prob: 0.02,
        burst_gap_mean: 50.0,
        drift_interval: 200,
        drift_fraction: 0.2,
        size_model,
        wonder_size_factor: 1.0,
        events: vec![
            DriftEvent::FlashCrowd {
                start: requests / 4,
                duration: requests / 2,
                share: 0.3,
                objects: 32,
            },
            DriftEvent::WorkingSetRotation {
                at: requests / 4,
                fraction: 0.5,
            },
            DriftEvent::WorkingSetRotation {
                at: requests / 2,
                fraction: 1.0,
            },
            DriftEvent::WorkingSetRotation {
                at: 3 * requests / 4,
                fraction: 0.1,
            },
            DriftEvent::PopularityCycle {
                period: requests / 5,
                amplitude: 0.8,
            },
        ],
        seed,
        ..GeneratorConfig::default()
    };
    TraceGenerator::new(cfg).find(|r| r.size != size_model.size_of(r.id.0, seed))
}

/// Corner cases the random draw below rarely lands on.
#[test]
fn guided_zipf_matches_plain_search_at_the_corners() {
    // One rank; not a power of two; exactly a power of two; uniform; an
    // exponent so large the CDF is 1.0 from the second rank on.
    for (n, s) in [
        (1, 0.0),
        (1, 1.2),
        (2, 0.8),
        (3, 1.5),
        (1_000, 0.0),
        (1_024, 0.9),
        (1_025, 0.9),
        (50_000, 1.5),
        (777, 40.0),
    ] {
        let z = Zipf::new(n, s);
        assert_eq!(
            guide_mismatch(&z, adversarial_draws(n)),
            None,
            "n {n} s {s}"
        );
    }
    let saturated = Zipf::new(777, 40.0);
    assert!(saturated.cdf()[1..].iter().all(|&c| c == 1.0));
}

#[test]
#[should_panic(expected = "at most u32::MAX ranks")]
fn zipf_refuses_more_ranks_than_the_guide_can_index() {
    let _ = Zipf::new(u32::MAX as usize + 1, 1.0);
}

/// Sizes the memo cannot hold are recomputed, not mangled: 0 is its "not
/// yet computed" value (and every `SizeModel` field is `pub`, so a clamp
/// of `min: 0` can be written), and a burst slot keeps 32 bits.
#[test]
fn sizes_the_memo_cannot_hold_are_recomputed() {
    let tiny = SizeModel {
        min: 0,
        ..SizeModel::lognormal(1.0, 1.0)
    };
    let zeros = (0..1_000).filter(|&id| tiny.size_of(id, 9) == 0).count();
    assert!(zeros > 300, "model must emit 0-byte objects, got {zeros}");
    assert_eq!(stale_size(tiny, 9), None);

    let huge = SizeModel::lognormal(1e12, 0.5);
    assert!((0..1_000).all(|id| huge.size_of(id, 9) > u64::from(u32::MAX)));
    assert_eq!(stale_size(huge, 9), None);
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..60, 1u64..100), 1..500)
}

proptest! {
    /// The next-access table is self-consistent: `next[i]` points to a
    /// strictly later request for the same object, and nothing in between
    /// touches that object.
    #[test]
    fn next_access_table_consistent(pairs in arb_pairs()) {
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        let next = next_access_table(&trace);
        for (i, &n) in next.iter().enumerate() {
            if n == NO_NEXT {
                for later in &trace[i + 1..] {
                    prop_assert_ne!(later.id, trace[i].id);
                }
            } else {
                let n = n as usize;
                prop_assert!(n > i);
                prop_assert_eq!(trace[n].id, trace[i].id);
                for between in &trace[i + 1..n] {
                    prop_assert_ne!(between.id, trace[i].id);
                }
            }
        }
    }

    /// The guide table narrows the search, never moves its result: same
    /// rank as a binary search over the whole CDF, on the adversarial
    /// draws and on random ones.
    #[test]
    fn guided_zipf_matches_plain_search(
        n in 1usize..50_001,
        s in 0.0f64..1.5,
        draws in proptest::collection::vec(0.0f64..1.0, 1..2000),
    ) {
        let z = Zipf::new(n, s);
        prop_assert_eq!(guide_mismatch(&z, adversarial_draws(n)), None);
        prop_assert_eq!(guide_mismatch(&z, draws.into_iter()), None);
    }

    /// A remapped rank never keeps its predecessor's size, and burst and
    /// flash-crowd objects carry their own.
    #[test]
    fn memoized_sizes_match_the_size_model(seed in 0u64..1_000_000) {
        let model = SizeModel::lognormal(15_000.0, 1.3).clamped(10, 1 << 20);
        prop_assert_eq!(stale_size(model, seed), None);
    }

    /// The generator is a pure function of its config.
    #[test]
    fn generator_deterministic(
        requests in 100u64..3000,
        core in 100usize..2000,
        s in 0.3f64..1.2,
        ohw in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let cfg = GeneratorConfig {
            requests,
            core_objects: core,
            zipf_s: s,
            one_hit_fraction: ohw,
            burst_start_prob: 0.01,
            seed,
            ..GeneratorConfig::default()
        };
        let a = TraceGenerator::generate(cfg.clone());
        let b = TraceGenerator::generate(cfg);
        prop_assert_eq!(a.len() as u64, requests);
        prop_assert_eq!(a, b);
    }
}
