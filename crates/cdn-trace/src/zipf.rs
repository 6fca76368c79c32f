//! Exact finite-support Zipf sampling in O(1) expected time.
//!
//! CDN object popularity is classically Zipf-like: the r-th most popular
//! object is requested with probability proportional to `1 / r^s`. The
//! cumulative distribution is precomputed once (8 B per rank) and a
//! uniform draw `u` is inverted to the first rank whose CDF reaches it —
//! `cdf.partition_point(|c| c < u)`. Every core request of every trace
//! pays that inversion, and over a whole CDF it is a binary search of
//! ~`log2 n` dependent loads across megabytes, so it is narrowed first by
//! a **guide table**:
//!
//! - `K` is the smallest power of two `≥ n`, and `guide[b]` for
//!   `b in 0..=K` is the first rank whose CDF is `≥ b/K`, i.e. the
//!   inversion of the bucket edge `b/K` itself.
//! - A draw `u ∈ [0, 1)` falls in bucket `b = ⌊u·K⌋`, so
//!   `b/K ≤ u < (b+1)/K`. Inversion is monotone in `u`, hence the rank of
//!   `u` lies in `guide[b] ..= guide[b+1]`: every rank below `guide[b]`
//!   has CDF `< b/K ≤ u`, and if no rank in `guide[b] .. guide[b+1]`
//!   reaches `u` the answer is `guide[b+1]`, whose CDF is
//!   `≥ (b+1)/K > u`. Searching only `cdf[guide[b] .. guide[b+1]]`
//!   therefore returns the *same index* as searching all of `cdf` — the
//!   guide changes how far the search walks, never where it lands.
//! - `K` is a power of two so that `u·K` and `b/K` are exact in `f64`
//!   (they only move the exponent): the bucket a draw is assigned to and
//!   the edges the table was built from agree to the last bit, which the
//!   containment argument above needs. With `K ≥ n` a bucket holds under
//!   one rank on average (a handful in the flat tail), so the residual
//!   search is a few adjacent loads.
//!
//! The table costs `4·(K+1)` bytes (`u32` ranks), at most `8 B` per rank.
//!
//! # Staged inversion
//!
//! [`Zipf::rank_of`] is three stages, each reading one table: the
//! **bucket** `⌊u·K⌋` (arithmetic, no load), the **window**
//! `guide[b] ..= guide[b+1]` (one guide line), and the **search** over
//! `cdf[lo .. hi]` (usually one CDF line). Once the tables outgrow the
//! L2 cache, each of those loads is a miss, and each depends on the one
//! before. Inside the crate the stages are callable one by one, so a
//! caller with many draws in hand can run each stage over all of them
//! before the next, hinting the line the next stage reads: the misses of
//! different draws then overlap ([`crate::gen`]'s block pipeline).
//! `rank_of` is the composition of the same stages, so the two routes
//! cannot disagree.

use cdn_cache::prefetch::prefetch_read;
use cdn_cache::SimRng;

/// Finite Zipf(s) distribution over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[b]` = first rank with `cdf >= b / K`, for `b in 0..=K`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Distribution over `n` ranks with exponent `s ≥ 0`. `s = 0` is
    /// uniform; CDN workloads typically fit `s ∈ [0.6, 1.1]`.
    ///
    /// # Panics
    /// If `n` is zero or exceeds `u32::MAX` (the guide table stores ranks
    /// as `u32`), or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            u32::try_from(n).is_ok(),
            "Zipf supports at most u32::MAX ranks, got {n}"
        );
        assert!(s >= 0.0 && s.is_finite(), "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against FP round-off so the final bucket always catches.
        *cdf.last_mut().expect("n > 0") = 1.0;
        let guide = build_guide(&cdf);
        Zipf { cdf, guide }
    }

    /// Probability mass of rank `r` (0-based).
    pub fn pmf(&self, r: usize) -> f64 {
        if r == 0 {
            self.cdf[0]
        } else {
            self.cdf[r] - self.cdf[r - 1]
        }
    }

    /// The cumulative distribution: `cdf()[r]` is the probability of a
    /// rank `<= r`; non-decreasing, last entry exactly 1.0.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Sample a rank (0-based; rank 0 is the most popular) from one
    /// `rng.f64()` draw.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank_of(rng.f64())
    }

    /// Inverse CDF: the first rank whose cumulative probability is `>= u`,
    /// for `u` in `[0, 1)` — equal to `cdf().partition_point(|&c| c < u)`,
    /// found through the guide table's three stages (module docs).
    ///
    /// # Panics
    /// If `u >= 1.0`.
    #[inline]
    pub fn rank_of(&self, u: f64) -> usize {
        let (lo, hi) = self.window(self.bucket(u));
        self.search(u, lo, hi)
    }

    /// Stage 1: the guide bucket `⌊u·K⌋` of a draw `u` in `[0, 1)`.
    #[inline]
    pub(crate) fn bucket(&self, u: f64) -> usize {
        (u * (self.guide.len() - 1) as f64) as usize
    }

    /// Hint the guide line [`Zipf::window`] reads for bucket `b`.
    #[inline]
    pub(crate) fn prefetch_guide(&self, b: usize) {
        prefetch_read(&self.guide[b]);
    }

    /// Stage 2: the rank window `(guide[b], guide[b+1])` that holds the
    /// rank of every draw in bucket `b`.
    #[inline]
    pub(crate) fn window(&self, b: usize) -> (usize, usize) {
        (self.guide[b] as usize, self.guide[b + 1] as usize)
    }

    /// Hint the CDF line [`Zipf::search`] starts at.
    #[inline]
    pub(crate) fn prefetch_cdf(&self, lo: usize) {
        prefetch_read(&self.cdf[lo]);
    }

    /// Stage 3: the rank of `u` inside its window `lo ..= hi`.
    #[inline]
    pub(crate) fn search(&self, u: f64, lo: usize, hi: usize) -> usize {
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

/// The guide table for `cdf` (module docs): one sweep over ranks and
/// bucket edges together, both ascending.
fn build_guide(cdf: &[f64]) -> Vec<u32> {
    let buckets = cdf.len().next_power_of_two();
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut rank = 0usize;
    for b in 0..=buckets {
        let edge = b as f64 / buckets as f64;
        // Stops by the last rank at the latest: its CDF is 1.0 >= edge.
        while cdf[rank] < edge {
            rank += 1;
        }
        guide.push(rank as u32);
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 0.9);
        let sum: f64 = (0..1000).map(|r| z.pmf(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(1);
        let mut top10 = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        // With s=1, N=1000 the top-10 mass is H(10)/H(1000) ≈ 0.39.
        let frac = top10 as f64 / n as f64;
        assert!((0.34..0.44).contains(&frac), "top-10 fraction {frac}");
    }

    #[test]
    fn empirical_matches_pmf() {
        let z = Zipf::new(50, 0.8);
        let mut rng = SimRng::new(7);
        let mut counts = [0u32; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 20, 49] {
            let emp = counts[r] as f64 / n as f64;
            let exp = z.pmf(r);
            assert!(
                (emp - exp).abs() < 0.01 + exp * 0.1,
                "rank {r}: emp {emp} vs pmf {exp}"
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.2);
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
