//! Seeded, allocation-free pseudo-random number generation.
//!
//! Every stochastic component of the workspace (trace generators, BIP coin
//! flips, SCIP's `γ` draws, hill-climbing restarts, model initialisation)
//! draws from [`SimRng`], a xoshiro256++ generator seeded through SplitMix64.
//! Using our own generator instead of the `rand` crate keeps simulations
//! bit-for-bit reproducible across crate-version bumps and avoids API churn
//! in ~40 call sites.

/// xoshiro256++ PRNG (Blackman & Vigna, 2019).
///
/// Passes BigCrush; period `2^256 - 1`. Not cryptographically secure —
/// which is fine, simulation only.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    ///
    /// The seed is expanded with SplitMix64 as recommended by the xoshiro
    /// authors, so even seeds 0, 1, 2... yield well-mixed states.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "u64_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial: `true` with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (uses two uniforms per pair; the
    /// second variate is discarded for simplicity — generation is not hot
    /// enough to warrant caching it).
    pub fn normal(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal sample with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential sample with rate `lambda`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / lambda
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.usize_below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn u64_below_respects_bound() {
        let mut r = SimRng::new(9);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(r.u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn u64_below_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.usize_below(10)] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).abs() < (expected as i64) / 10,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn normal_mean_and_var() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(17);
        let n = 200_000;
        let lambda = 0.5;
        let mean: f64 = (0..n).map(|_| r.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Extremely unlikely to be identity.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(23);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
