//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, and the rule that picks which tail percentile a sample
//! is large enough to support.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice so a missing sample can never pass
/// for a measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending-sorted
/// sample: the smallest value with at least `p` % of the sample at or
/// below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// `ceil(p % of n)`, in integers: `p` is taken to the nearest hundredth
/// of a percent so that 99.9 % of 10 000 is 9 990, not 9 990.000…002
/// rounded up.
fn rank(n: usize, p: f64) -> usize {
    let per_myriad = (p * 100.0).round() as u128;
    (per_myriad * n as u128).div_ceil(10_000) as usize
}

/// The percentiles the benchmark ever reports, ascending.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` — a tail percentile with fewer
/// is a handful of outliers, not a distribution. `None` below 20
/// samples, where not even the median qualifies.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        // A tiny sample clamps to its extremes instead of indexing out.
        assert_eq!(percentile_sorted(&[5.0], 99.9), 5.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 1.0), 1.0);
    }

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(19), None);
        // 20 samples: exactly ten lie beyond the median.
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        // 100 samples: ten beyond p90, one beyond p99.
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.99));
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(101, 90.0), 10);
        assert_eq!(samples_beyond(109, 90.0), 10);
        assert_eq!(samples_beyond(110, 90.0), 11);
    }
}
