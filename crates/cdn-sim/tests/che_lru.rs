//! An outside anchor for LRU replay: the Che approximation.
//!
//! Every other exactness suite checks the replay engine against itself
//! (mono = dyn = stream = sharded = model). This one checks it against a
//! closed form from the literature. Under the independent reference
//! model (IRM) with unit-size objects, object `k` requested with
//! probability `p_k` and an LRU cache of `C` objects, Che's approximation
//! takes the cache's characteristic time `T` as the root of
//!
//! ```text
//! Σ_k (1 − e^{−p_k T}) = C
//! ```
//!
//! and predicts object `k`'s hit ratio `h_k = 1 − e^{−p_k T}` and the
//! overall hit ratio `Σ_k p_k h_k` (Che, Tung and Wang, IEEE JSAC 2002).
//! Analyses of networks of caches, Gallo et al.'s among them (PAPERS.md),
//! build on it. For Zipf popularity over a few thousand objects it is
//! accurate to a fraction of a percentage point, which is what makes it
//! usable as a gate.
//!
//! The trace is drawn from [`cdn_trace::Zipf`] — the sampler the trace
//! generator's core pool uses — one chunk at a time, so it streams
//! through the replay loop in flat memory and is never resident.

use std::convert::Infallible;

use cdn_cache::{Request, SimRng};
use cdn_sim::{BatchMode, PolicyKind, TraceCtx};
use cdn_trace::{TraceColumns, Zipf};

/// Objects in the IRM catalogue.
const OBJECTS: usize = 4_000;
/// Requests replayed before counting, so the cache starts from its
/// stationary regime rather than empty (at least ten characteristic
/// times in every case below).
const WARMUP: u64 = 100_000;
/// Requests counted.
const MEASURED: u64 = 500_000;
/// Requests per streamed chunk.
const CHUNK: u64 = 1 << 16;
/// Ranks whose own hit ratios are checked.
const TOP: usize = 8;

/// Allowed gap between measured and predicted hit ratio, overall. The
/// cases below land within 0.001 of Che.
const OVERALL_TOL: f64 = 0.005;
/// Allowed gap per top rank. Each sees at least 3 000 counted requests
/// in every case (rank 7 at `s = 0.7`), a binomial standard error of up
/// to 0.009; the cases below land within 0.013 of Che.
const RANK_TOL: f64 = 0.02;

/// An IRM trace of unit-size objects, object id = Zipf rank, generated
/// chunk by chunk as the replay loop asks for it.
struct IrmChunks<'a> {
    zipf: &'a Zipf,
    rng: SimRng,
    next: u64,
    end: u64,
}

impl Iterator for IrmChunks<'_> {
    type Item = Result<TraceColumns, Infallible>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.end {
            return None;
        }
        let stop = self.end.min(self.next + CHUNK);
        let chunk = (self.next..stop)
            .map(|tick| Request {
                tick,
                id: (self.zipf.sample(&mut self.rng) as u64).into(),
                size: 1,
                wall_secs: tick as f64,
            })
            .collect();
        self.next = stop;
        Some(Ok(chunk))
    }
}

/// Che's characteristic time: the root of `Σ (1 − e^{−p_k T}) = C`, by
/// bisection (the left side rises strictly from 0 towards `p.len()`).
fn characteristic_time(p: &[f64], capacity: f64) -> f64 {
    assert!(
        capacity < p.len() as f64,
        "a cache holding everything never misses"
    );
    let occupancy = |t: f64| p.iter().map(|&pk| 1.0 - (-pk * t).exp()).sum::<f64>();
    let mut hi = 1.0;
    while occupancy(hi) < capacity {
        hi *= 2.0;
    }
    let mut lo = 0.0;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < capacity {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Che's prediction for Zipf(`s`) over [`OBJECTS`] at `capacity`
/// objects: the overall hit ratio and the hit ratio of each of the
/// [`TOP`] most popular ranks.
fn che(s: f64, capacity: u64) -> (f64, [f64; TOP]) {
    let zipf = Zipf::new(OBJECTS, s);
    let p: Vec<f64> = (0..OBJECTS).map(|k| zipf.pmf(k)).collect();
    let t = characteristic_time(&p, capacity as f64);
    let h = |pk: f64| 1.0 - (-pk * t).exp();
    let overall = p.iter().map(|&pk| pk * h(pk)).sum();
    (overall, std::array::from_fn(|k| h(p[k])))
}

/// Replay an IRM Zipf(`s`) trace through LRU at `capacity` objects: the
/// measured overall and top-rank hit ratios, after [`WARMUP`].
fn replay_lru(s: f64, capacity: u64, seed: u64) -> (f64, [f64; TOP]) {
    let zipf = Zipf::new(OBJECTS, s);
    let total = WARMUP + MEASURED;
    let chunks = IrmChunks {
        zipf: &zipf,
        rng: SimRng::new(seed),
        next: 0,
        end: total,
    };
    let mut hits = 0u64;
    let mut rank_hits = [0u64; TOP];
    let mut rank_requests = [0u64; TOP];
    let ctx = TraceCtx::without_oracle(total, seed);
    let run = PolicyKind::Lru
        .run_with_observer(
            capacity,
            chunks,
            &ctx,
            BatchMode::Auto,
            |i, req, outcome, _, _| {
                if (i as u64) < WARMUP {
                    return;
                }
                let hit = u64::from(outcome.is_hit());
                hits += hit;
                if let Some(k) = usize::try_from(req.id.0).ok().filter(|&k| k < TOP) {
                    rank_requests[k] += 1;
                    rank_hits[k] += hit;
                }
            },
        )
        .unwrap_or_else(|never| match never {});
    assert_eq!(run.hits + run.misses, total);
    let overall = hits as f64 / MEASURED as f64;
    (
        overall,
        std::array::from_fn(|k| rank_hits[k] as f64 / rank_requests[k] as f64),
    )
}

/// One line per ratio further from its prediction than its tolerance.
fn mismatches(label: &str, got: (f64, [f64; TOP]), want: (f64, [f64; TOP])) -> Vec<String> {
    let mut bad = Vec::new();
    if (got.0 - want.0).abs() > OVERALL_TOL {
        bad.push(format!(
            "{label}: hit ratio {:.4}, Che predicts {:.4}",
            got.0, want.0
        ));
    }
    for k in 0..TOP {
        if (got.1[k] - want.1[k]).abs() > RANK_TOL {
            bad.push(format!(
                "{label} rank {k}: hit ratio {:.4}, Che predicts {:.4}",
                got.1[k], want.1[k]
            ));
        }
    }
    bad
}

#[test]
fn lru_over_irm_zipf_matches_the_che_approximation() {
    let mut bad = Vec::new();
    for s in [0.7, 1.0] {
        for capacity in [40, 200, 800] {
            let label = format!("s={s} C={capacity}");
            bad.extend(mismatches(
                &label,
                replay_lru(s, capacity, 42),
                che(s, capacity),
            ));
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

/// The comparison has teeth: LRU at 300 objects is not Che's prediction
/// at 200.
#[test]
fn a_wrong_capacity_is_caught() {
    let got = replay_lru(0.7, 300, 42);
    assert!(!mismatches("C=300 vs 200", got, che(0.7, 200)).is_empty());
}
