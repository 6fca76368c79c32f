//! Table-1 style trace statistics.

use std::fmt;

use cdn_cache::{FusedIndex, FxHashMap, Request};

/// How far [`TraceStats::compute`]'s dedup prefetch runs ahead of its
/// probe: 16 requests are several hundred ns of work, longer than a DRAM
/// miss, and a hinted line is still in L1 when its probe comes. (8 to 64
/// measured alike on a 13 M-request CDN-T trace.)
const DEDUP_AHEAD: usize = 16;

/// Summary statistics of a trace (the paper's Table 1 row set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total requests.
    pub total_requests: u64,
    /// Distinct object ids.
    pub unique_objects: u64,
    /// Largest object size, bytes.
    pub max_size: u64,
    /// Smallest object size, bytes.
    pub min_size: u64,
    /// Sum of requested bytes (over all requests).
    pub total_bytes: u64,
    /// Working-set size: sum of unique objects' sizes, bytes.
    pub wss_bytes: u64,
}

impl TraceStats {
    /// Compute statistics in one pass. Byte totals saturate at
    /// `u64::MAX` rather than wrap: a trace may carry `u64::MAX`-byte
    /// objects, and a wrapped working set would size a cache from garbage.
    ///
    /// The distinct-id set is a [`FusedIndex`] probed `DEDUP_AHEAD` (16)
    /// requests behind its prefetch, so the set's bucket misses overlap.
    pub fn compute(trace: &[Request]) -> Self {
        let mut seen = FusedIndex::new();
        let mut max_size = 0u64;
        let mut min_size = u64::MAX;
        let mut total_bytes = 0u64;
        let mut wss_bytes = 0u64;
        for (i, r) in trace.iter().enumerate() {
            if let Some(ahead) = trace.get(i + DEDUP_AHEAD) {
                seen.prefetch(ahead.id.0);
            }
            // An id's first request carries its size; the payload is unused.
            if seen.insert(r.id.0, 0).is_none() {
                wss_bytes = wss_bytes.saturating_add(r.size);
            }
            max_size = max_size.max(r.size);
            min_size = min_size.min(r.size);
            total_bytes = total_bytes.saturating_add(r.size);
        }
        TraceStats {
            total_requests: trace.len() as u64,
            unique_objects: seen.len() as u64,
            max_size,
            min_size: if trace.is_empty() { 0 } else { min_size },
            total_bytes,
            wss_bytes,
        }
    }

    /// Mean size over *unique objects*, bytes (Table 1's "Mean Object Size").
    pub fn mean_size_bytes(&self) -> f64 {
        if self.unique_objects == 0 {
            0.0
        } else {
            self.wss_bytes as f64 / self.unique_objects as f64
        }
    }

    /// Requests per unique object.
    pub fn requests_per_object(&self) -> f64 {
        if self.unique_objects == 0 {
            0.0
        } else {
            self.total_requests as f64 / self.unique_objects as f64
        }
    }

    /// Working-set size in GB.
    pub fn wss_gb(&self) -> f64 {
        self.wss_bytes as f64 / 1e9
    }

    /// A cache capacity in bytes for a given fraction of this trace's WSS.
    pub fn cache_bytes_for_fraction(&self, fraction: f64) -> u64 {
        assert!(fraction > 0.0);
        ((self.wss_bytes as f64 * fraction) as u64).max(1)
    }
}

/// Ids of the `k` most-requested objects in `trace`, by descending
/// request count (ties broken by ascending id, so the set is a pure
/// function of the trace). Fewer than `k` when the trace has fewer
/// unique ids.
fn top_k_ids(trace: &[Request], k: usize) -> Vec<u64> {
    let mut counts: FxHashMap<u64, u64> = FxHashMap::default();
    for r in trace {
        *counts.entry(r.id.0).or_insert(0) += 1;
    }
    let mut by_count: Vec<(u64, u64)> = counts.into_iter().collect();
    by_count.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_count.truncate(k);
    by_count.into_iter().map(|(id, _)| id).collect()
}

/// Overlap of the top-`k` hot sets of two trace slices, as a fraction of
/// `k`: 1.0 = identical hot sets, 0.0 = disjoint. The drift suite uses
/// this across a rotation boundary (overlap collapses) and across an
/// arbitrary stationary split (overlap stays high).
pub fn hot_set_overlap(a: &[Request], b: &[Request], k: usize) -> f64 {
    assert!(k > 0, "hot_set_overlap: k must be >= 1");
    let ha: cdn_cache::FxHashSet<u64> = top_k_ids(a, k).into_iter().collect();
    let shared = top_k_ids(b, k).iter().filter(|id| ha.contains(id)).count();
    shared as f64 / k as f64
}

/// Fraction of requests landing on the trace's own top-`k` ids — the
/// concentration measure the flash-crowd check gates on (a crowd window
/// funnels a large share onto a tiny pool).
pub fn top_k_share(trace: &[Request], k: usize) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let top: cdn_cache::FxHashSet<u64> = top_k_ids(trace, k).into_iter().collect();
    let hits = trace.iter().filter(|r| top.contains(&r.id.0)).count();
    hits as f64 / trace.len() as f64
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Total Requests        : {}", self.total_requests)?;
        writeln!(f, "Unique Objects        : {}", self.unique_objects)?;
        writeln!(
            f,
            "Max Object Size (MB)  : {:.2}",
            self.max_size as f64 / 1e6
        )?;
        writeln!(f, "Min Object Size (B)   : {}", self.min_size)?;
        writeln!(
            f,
            "Mean Object Size (KB) : {:.2}",
            self.mean_size_bytes() / 1024.0
        )?;
        write!(f, "Working Set Size (GB) : {:.2}", self.wss_gb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;

    #[test]
    fn basic_stats() {
        let t = micro_trace(&[(1, 100), (2, 200), (1, 100), (3, 50)]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.total_requests, 4);
        assert_eq!(s.unique_objects, 3);
        assert_eq!(s.max_size, 200);
        assert_eq!(s.min_size, 50);
        assert_eq!(s.total_bytes, 450);
        assert_eq!(s.wss_bytes, 350);
        assert!((s.mean_size_bytes() - 350.0 / 3.0).abs() < 1e-9);
        assert!((s.requests_per_object() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::compute(&[]);
        assert_eq!(s.total_requests, 0);
        assert_eq!(s.min_size, 0);
        assert_eq!(s.mean_size_bytes(), 0.0);
    }

    #[test]
    fn cache_fraction() {
        let t = micro_trace(&[(1, 1000)]);
        let s = TraceStats::compute(&t);
        assert_eq!(s.cache_bytes_for_fraction(0.1), 100);
        assert_eq!(s.cache_bytes_for_fraction(1.0), 1000);
    }

    /// Reference: the same statistics through a hash map, summed with
    /// saturation.
    fn naive(trace: &[Request]) -> TraceStats {
        let mut sizes: FxHashMap<u64, u64> = FxHashMap::default();
        for r in trace {
            sizes.entry(r.id.0).or_insert(r.size);
        }
        TraceStats {
            total_requests: trace.len() as u64,
            unique_objects: sizes.len() as u64,
            max_size: trace.iter().map(|r| r.size).max().unwrap_or(0),
            min_size: trace.iter().map(|r| r.size).min().unwrap_or(0),
            total_bytes: trace.iter().fold(0, |a, r| a.saturating_add(r.size)),
            wss_bytes: sizes.values().fold(0, |a, &s| a.saturating_add(s)),
        }
    }

    #[test]
    fn degenerate_corpus_stats_saturate_and_match_a_naive_count() {
        for (name, trace) in crate::gen::degenerate_corpus(1_000) {
            let got = TraceStats::compute(&trace);
            assert_eq!(got, naive(&trace), "{name}");
            if name == "oversized" {
                assert_eq!((got.total_bytes, got.wss_bytes), (u64::MAX, u64::MAX));
                assert_eq!(got.unique_objects, 3);
            }
        }
    }

    #[test]
    fn display_contains_rows() {
        let t = micro_trace(&[(1, 1 << 20)]);
        let s = TraceStats::compute(&t).to_string();
        assert!(s.contains("Total Requests"));
        assert!(s.contains("Working Set Size"));
    }
}
