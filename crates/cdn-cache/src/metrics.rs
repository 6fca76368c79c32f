//! Replay ledgers and latency distributions.
//!
//! [`MissRatio`] is the hit/miss ledger every replay keeps: object and
//! byte miss ratios (the paper's "miss ratio" and "BTO-ratio"), with
//! saturating byte counters and [`MissRatio::absorb`] for sharded
//! replays. [`LatencyHistogram`] is the deterministic log-bucket
//! histogram behind the deployment and chaos studies' latency
//! percentiles.

/// Cumulative hit/miss statistics.
#[derive(Debug, Clone, Default)]
pub struct MissRatio {
    hits: u64,
    misses: u64,
    hit_bytes: u64,
    miss_bytes: u64,
}

impl MissRatio {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a hit of `size` bytes. The byte ledger saturates: an
    /// adversarial trace of near-`u64::MAX` objects must skew the byte
    /// ratio, not wrap (or abort) the counter.
    #[inline]
    pub fn record_hit(&mut self, size: u64) {
        self.hits += 1;
        self.hit_bytes = self.hit_bytes.saturating_add(size);
    }

    /// Record a miss of `size` bytes (byte ledger saturating, as above).
    #[inline]
    pub fn record_miss(&mut self, size: u64) {
        self.misses += 1;
        self.miss_bytes = self.miss_bytes.saturating_add(size);
    }

    /// Total requests seen.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Object miss ratio over the whole run; 0 when no requests were seen.
    pub fn miss_ratio(&self) -> f64 {
        let n = self.requests();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }

    /// Byte miss ratio (fraction of requested bytes that missed).
    pub fn byte_miss_ratio(&self) -> f64 {
        let b = self.hit_bytes.saturating_add(self.miss_bytes);
        if b == 0 {
            0.0
        } else {
            self.miss_bytes as f64 / b as f64
        }
    }

    /// Bytes that missed (back-to-origin traffic).
    pub fn miss_bytes(&self) -> u64 {
        self.miss_bytes
    }

    /// Bytes served from cache.
    pub fn hit_bytes(&self) -> u64 {
        self.hit_bytes
    }

    /// Fold another tracker's cumulative counters into this one — the
    /// aggregation step of sharded replay, where each shard owns a private
    /// tracker and the merged ledgers must equal a single tracker fed every
    /// request. Saturating, like the recording paths.
    pub fn absorb(&mut self, other: &MissRatio) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.hit_bytes = self.hit_bytes.saturating_add(other.hit_bytes);
        self.miss_bytes = self.miss_bytes.saturating_add(other.miss_bytes);
    }
}

/// Fixed-bucket latency histogram with deterministic percentile readout.
///
/// Buckets are log-spaced (8 per octave) from 0.1 ms up to ~1.7 h, which
/// keeps the relative quantile error under ~9 % across the whole range
/// while the memory footprint stays a few hundred bytes. Everything is
/// integer counting over a fixed layout, so two runs that record the same
/// latency sequence produce bit-identical percentiles — the property the
/// chaos experiments rely on for byte-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ms: f64,
    max_ms: f64,
}

impl LatencyHistogram {
    /// Smallest bucket upper bound, ms.
    const MIN_MS: f64 = 0.1;
    /// Buckets per factor-of-two of latency.
    const PER_OCTAVE: f64 = 8.0;
    /// Bucket count: 26 octaves above `MIN_MS` (~1.7 h) plus an underflow
    /// bucket at index 0 and an overflow bucket at the end.
    const BUCKETS: usize = 1 + 26 * 8 + 1;

    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
        }
    }

    fn bucket_index(ms: f64) -> usize {
        if ms.is_nan() || ms <= Self::MIN_MS {
            // NaN, negative and tiny latencies all land in the underflow
            // bucket — they only ever shift quantiles downwards.
            return 0;
        }
        let octaves = (ms / Self::MIN_MS).log2();
        let idx = 1 + (octaves * Self::PER_OCTAVE) as usize;
        idx.min(Self::BUCKETS - 1)
    }

    /// Upper latency bound of bucket `i`, ms.
    fn bucket_upper_ms(i: usize) -> f64 {
        if i == 0 {
            Self::MIN_MS
        } else {
            Self::MIN_MS * 2f64.powf((i as f64) / Self::PER_OCTAVE)
        }
    }

    /// Record one latency sample.
    pub fn record(&mut self, ms: f64) {
        self.counts[Self::bucket_index(ms)] += 1;
        self.total += 1;
        self.sum_ms += ms.max(0.0);
        if ms > self.max_ms {
            self.max_ms = ms;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_ms / self.total as f64
        }
    }

    /// Largest recorded sample.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q·total)`; the top
    /// bucket reports the exact observed maximum. Returns 0 when empty.
    fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == Self::BUCKETS - 1 {
                    self.max_ms
                } else {
                    Self::bucket_upper_ms(i).min(self.max_ms)
                };
            }
        }
        self.max_ms
    }

    /// Median.
    pub fn p50_ms(&self) -> f64 {
        self.quantile_ms(0.50)
    }

    /// 99th percentile.
    pub fn p99_ms(&self) -> f64 {
        self.quantile_ms(0.99)
    }

    /// 99.9th percentile.
    pub fn p999_ms(&self) -> f64 {
        self.quantile_ms(0.999)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ms += other.sum_ms;
        if other.max_ms > self.max_ms {
            self.max_ms = other.max_ms;
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_basic() {
        let mut m = MissRatio::new();
        m.record_hit(100);
        m.record_miss(300);
        m.record_miss(100);
        m.record_hit(100);
        assert_eq!(m.requests(), 4);
        assert!((m.miss_ratio() - 0.5).abs() < 1e-12);
        assert!((m.byte_miss_ratio() - 400.0 / 600.0).abs() < 1e-12);
        assert_eq!(m.miss_bytes(), 400);
    }

    #[test]
    fn empty_tracker_is_zero() {
        let m = MissRatio::new();
        assert_eq!(m.miss_ratio(), 0.0);
        assert_eq!(m.byte_miss_ratio(), 0.0);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50_ms(), 0.0);
        assert_eq!(h.p999_ms(), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        // 1000 samples: 980 at ~10ms, 18 at ~200ms, 2 at 5000ms.
        for _ in 0..980 {
            h.record(10.0);
        }
        for _ in 0..18 {
            h.record(200.0);
        }
        h.record(5000.0);
        h.record(5000.0);
        assert_eq!(h.count(), 1000);
        // Log buckets are 2^(1/8) wide, so quantiles are within ~9 %.
        let p50 = h.p50_ms();
        assert!((9.0..11.0).contains(&p50), "p50 {p50}");
        let p99 = h.p99_ms();
        assert!((180.0..220.0).contains(&p99), "p99 {p99}");
        let p999 = h.p999_ms();
        assert!((4500.0..=5000.0).contains(&p999), "p999 {p999}");
        assert_eq!(h.max_ms(), 5000.0);
        assert!((h.mean_ms() - (980.0 * 10.0 + 18.0 * 200.0 + 10000.0) / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record((i % 977) as f64 * 1.3);
        }
        let mut last = 0.0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile_ms(q);
            assert!(v >= last, "q={q}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(1e12); // far past the top bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile_ms(1.0), 1e12);
        assert!(h.quantile_ms(0.34) <= 0.1);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..500u64 {
            let x = (i * 37 % 991) as f64;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn histogram_is_deterministic() {
        let run = || {
            let mut h = LatencyHistogram::new();
            for i in 0..5000u64 {
                h.record((i as f64).sqrt() * 7.3 + (i % 13) as f64);
            }
            (h.p50_ms(), h.p99_ms(), h.p999_ms(), h.mean_ms())
        };
        assert_eq!(run(), run());
    }
}
