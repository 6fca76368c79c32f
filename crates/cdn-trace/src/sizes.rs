//! Per-object size models.
//!
//! CDN object sizes are heavy-tailed: most objects are tens of kilobytes
//! (thumbnails, page assets) with a long tail of large objects (originals,
//! media segments). We model them as a clamped lognormal body mixed with a
//! Pareto-ish tail, tuned per profile to land on Table 1's min / max / mean.
//!
//! Sizes are a *stable property of the object*: the sampler is keyed by
//! object id through a hash so the same id always gets the same size with
//! no per-object state.

use cdn_cache::hash::mix64;
use cdn_cache::SimRng;

/// A deterministic object-size distribution.
#[derive(Debug, Clone, Copy)]
pub struct SizeModel {
    /// `mu` of the underlying normal (log of bytes).
    pub mu: f64,
    /// `sigma` of the underlying normal.
    pub sigma: f64,
    /// Probability an object is drawn from the heavy tail instead.
    pub tail_prob: f64,
    /// Tail Pareto exponent (smaller = heavier); must be > 1.
    pub tail_alpha: f64,
    /// Tail scale: minimum size of tail objects, bytes.
    pub tail_min: u64,
    /// Clamp: minimum object size, bytes.
    pub min: u64,
    /// Clamp: maximum object size, bytes.
    pub max: u64,
}

impl SizeModel {
    /// A model whose lognormal body has the given median bytes and shape.
    pub fn lognormal(median_bytes: f64, sigma: f64) -> Self {
        SizeModel {
            mu: median_bytes.ln(),
            sigma,
            tail_prob: 0.0,
            tail_alpha: 2.0,
            tail_min: 1 << 20,
            min: 1,
            max: u64::MAX,
        }
    }

    /// Add a Pareto tail.
    pub fn with_tail(mut self, prob: f64, alpha: f64, min_bytes: u64) -> Self {
        assert!((0.0..1.0).contains(&prob));
        assert!(alpha > 1.0, "tail must have finite mean");
        self.tail_prob = prob;
        self.tail_alpha = alpha;
        self.tail_min = min_bytes;
        self
    }

    /// Clamp sizes to `[min, max]` bytes.
    pub fn clamped(mut self, min: u64, max: u64) -> Self {
        assert!(min >= 1 && min <= max);
        self.min = min;
        self.max = max;
        self
    }

    /// Deterministic size of object `id` (same id ⇒ same size).
    pub fn size_of(&self, id: u64, seed: u64) -> u64 {
        let mut rng = SimRng::new(mix64(id ^ mix64(seed)));
        let raw = if rng.chance(self.tail_prob) {
            // Pareto(alpha, tail_min) by inversion.
            let u = loop {
                let u = rng.f64();
                if u > 0.0 {
                    break u;
                }
            };
            self.tail_min as f64 * u.powf(-1.0 / self.tail_alpha)
        } else {
            rng.lognormal(self.mu, self.sigma)
        };
        (raw as u64).clamp(self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Monte-Carlo mean of `m` over ids `0..samples`.
    fn empirical_mean(m: &SizeModel, samples: u64, seed: u64) -> f64 {
        let sum: u128 = (0..samples).map(|i| m.size_of(i, seed) as u128).sum();
        sum as f64 / samples as f64
    }

    #[test]
    fn deterministic_per_id() {
        let m = SizeModel::lognormal(30_000.0, 1.0);
        assert_eq!(m.size_of(7, 42), m.size_of(7, 42));
        // Different seeds decouple sizes.
        assert_ne!(m.size_of(7, 42), m.size_of(7, 43));
    }

    #[test]
    fn respects_clamp() {
        let m = SizeModel::lognormal(30_000.0, 2.5).clamped(100, 1_000_000);
        for id in 0..50_000 {
            let s = m.size_of(id, 1);
            assert!((100..=1_000_000).contains(&s));
        }
    }

    #[test]
    fn median_roughly_matches() {
        let m = SizeModel::lognormal(30_000.0, 1.2);
        let mut v: Vec<u64> = (0..20_001).map(|i| m.size_of(i, 5)).collect();
        v.sort_unstable();
        let median = v[v.len() / 2] as f64;
        assert!(
            (median / 30_000.0 - 1.0).abs() < 0.1,
            "median {median} vs 30000"
        );
    }

    #[test]
    fn tail_increases_mean() {
        let body = SizeModel::lognormal(30_000.0, 1.0);
        let tailed = body.with_tail(0.02, 1.5, 5 << 20);
        let m0 = empirical_mean(&body, 20_000, 9);
        let m1 = empirical_mean(&tailed, 20_000, 9);
        assert!(m1 > 1.5 * m0, "tail mean {m1} vs body {m0}");
    }

    #[test]
    #[should_panic(expected = "finite mean")]
    fn rejects_infinite_mean_tail() {
        let _ = SizeModel::lognormal(1000.0, 1.0).with_tail(0.1, 1.0, 1 << 20);
    }
}
