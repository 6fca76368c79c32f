//! ASC-IP: Adaptive Size-aware Cache Insertion Policy (Wang et al.,
//! ICCD 2022) — the paper's direct predecessor and strongest insertion
//! baseline.
//!
//! ASC-IP observes that in CDN workloads object size is the dominant
//! predictor of zero reuse, and maintains an adaptive size threshold `T`:
//! missing objects of size ≥ `T` are suspected ZROs and inserted at the LRU
//! position; smaller ones go to MRU. The threshold adapts from eviction
//! feedback:
//!
//! - a victim evicted *without* any hit whose residency began at MRU was a
//!   missed ZRO → lower `T` multiplicatively to catch similar objects;
//! - a hit on an object that had been inserted at the LRU position was a
//!   false ZRO call → raise `T`.
//!
//! All hit objects are promoted to MRU — exactly the limitation (no P-ZRO
//! handling) that motivates SCIP.

use cdn_cache::{EntryMeta, InsertPos, Request, Tick};

use super::{InsertionDecider, MissDecision, PromoteAction};

/// Adaptive size-aware insertion.
#[derive(Debug, Clone)]
pub struct AscIp {
    threshold: f64,
    /// Multiplicative adaptation step.
    pub delta: f64,
    min_threshold: f64,
    max_threshold: f64,
}

impl AscIp {
    /// Start with a permissive threshold (most objects go to MRU until the
    /// workload proves otherwise).
    pub fn new(initial_threshold: f64) -> Self {
        assert!(initial_threshold > 0.0);
        AscIp {
            threshold: initial_threshold,
            delta: 0.02,
            min_threshold: 64.0,
            max_threshold: 1e12,
        }
    }

    /// Default: 1 MB initial threshold.
    pub fn default_for_cdn() -> Self {
        Self::new(1.0 * 1024.0 * 1024.0)
    }

    /// Current threshold in bytes (diagnostics).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl InsertionDecider for AscIp {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let pos = if (req.size as f64) >= self.threshold {
            InsertPos::Lru
        } else {
            InsertPos::Mru
        };
        MissDecision::at(pos)
    }

    fn on_hit(&mut self, _req: &Request, meta: &EntryMeta) -> PromoteAction {
        if meta.hits == 1 && !meta.inserted_at_mru {
            // We called this object a ZRO and it got reused: threshold was
            // too aggressive for its size range.
            self.threshold = (self.threshold * (1.0 + self.delta)).min(self.max_threshold);
        }
        PromoteAction::ToMru
    }

    fn on_evict(&mut self, victim: &EntryMeta, _tick: Tick) {
        // "the evicted object's hit token equals False" — a ZRO we failed
        // to detect (it entered at MRU and wasted a full queue traversal).
        if victim.hits == 0 && victim.inserted_at_mru {
            self.threshold = (self.threshold * (1.0 - self.delta)).max(self.min_threshold);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::deciders::Mip;
    use crate::insertion::InsertionCache;
    use crate::replay;
    use cdn_cache::object::micro_trace;

    #[test]
    fn threshold_decreases_under_pure_zro_traffic() {
        let mut p = InsertionCache::new(AscIp::new(1e6), 100, "ASC-IP");
        let reqs: Vec<(u64, u64)> = (0..400).map(|i| (i, 10)).collect();
        let t0 = p.decider().threshold();
        replay(&mut p, &micro_trace(&reqs));
        assert!(p.decider().threshold() < t0);
    }

    #[test]
    fn threshold_recovers_on_false_positives() {
        let mut asc = AscIp::new(1e6);
        asc.threshold = 100.0; // force aggressive state
        let mut p = InsertionCache::new(asc, 10_000, "ASC-IP");
        // Large objects that ARE reused: every LRU insert that hits raises T.
        let mut reqs = Vec::new();
        for i in 0..50u64 {
            reqs.push((i, 500));
            reqs.push((i, 500));
        }
        replay(&mut p, &micro_trace(&reqs));
        assert!(p.decider().threshold() > 100.0);
    }

    #[test]
    fn separates_by_size_on_mixed_traffic() {
        // Small hot working set + large one-hit objects (the CDN pattern
        // ASC-IP was designed for): it should beat plain LRU.
        let mut reqs = Vec::new();
        let mut next = 1000u64;
        for i in 0..3000u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 4, 50)); // hot small
            } else {
                reqs.push((next, 5_000)); // cold large
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cap = 10_200;
        let mut asc = InsertionCache::new(AscIp::new(1e6), cap, "ASC-IP");
        let mut lru = InsertionCache::new(Mip, cap, "LRU");
        let a = replay(&mut asc, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(a < l, "ASC-IP {a} vs LRU {l}");
    }

    #[test]
    fn threshold_stays_bounded() {
        let mut asc = AscIp::new(1e6);
        for _ in 0..10_000 {
            asc.on_evict(
                &cdn_cache::EntryMeta {
                    id: cdn_cache::ObjectId(1),
                    size: 10,
                    inserted_at_mru: true,
                    inserted_tick: 0,
                    last_access: 0,
                    hits: 0,
                    tag: 0,
                },
                0,
            );
        }
        assert!(asc.threshold() >= 64.0);
    }
}
