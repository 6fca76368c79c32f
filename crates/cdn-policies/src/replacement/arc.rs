//! ARC: Adaptive Replacement Cache (Megiddo & Modha, FAST 2003),
//! generalised to variable object sizes by running the adaptation target
//! `p` in bytes.
//!
//! Two resident lists — T1 (recency, seen once) and T2 (frequency, seen at
//! least twice) — shadowed by ghost lists B1/B2. Ghost hits steer `p`, the
//! byte budget T1 is allowed to occupy. B1 is T1's `Hm` history and B2 is
//! T2's, each in its queue's own index, so one probe per queue classifies
//! a key.

use cdn_cache::policy::RejectReason;
use cdn_cache::HistoryList::Hm;
use cdn_cache::{AccessKind, CachePolicy, LruQueue, PolicyStats, Probe, Request};

/// Adaptive replacement cache.
#[derive(Debug, Clone)]
pub struct Arc {
    /// Target byte budget for T1.
    p: u64,
    /// T1, with B1 as its `Hm` history.
    t1: LruQueue,
    /// T2, with B2 as its `Hm` history.
    t2: LruQueue,
    stats: PolicyStats,
}

impl Arc {
    /// ARC with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Arc {
            p: 0,
            // The ARC logic holds T1 + T2 to the capacity jointly; each
            // ghost list remembers up to a cache's worth of bytes.
            t1: LruQueue::with_history(capacity, capacity),
            t2: LruQueue::with_history(capacity, capacity),
            stats: PolicyStats::default(),
        }
    }

    /// Evict from T1 or T2 according to `p` until `incoming` fits.
    fn replace(&mut self, incoming: u64, from_b2: bool) {
        while cdn_cache::needs_eviction(self.capacity(), self.used_bytes(), incoming) {
            let prefer_t1 = !self.t1.is_empty()
                && (self.t1.used_bytes() > self.p
                    || (from_b2 && self.t1.used_bytes() >= self.p)
                    || self.t2.is_empty());
            let queue = if prefer_t1 {
                &mut self.t1
            } else {
                &mut self.t2
            };
            queue.evict_lru_into_history(|_| (Hm, 0)).expect("nonempty");
            self.stats.evictions += 1;
        }
    }

    fn serve(&mut self, req: &Request) -> AccessKind {
        // Case I: hit in T1 or T2 → move to T2 MRU.
        let in_t1 = self.t1.probe(req.id);
        if let Probe::Resident(_) = in_t1 {
            let mut meta = self.t1.remove(req.id).expect("resident");
            meta.hits += 1;
            meta.last_access = req.tick;
            self.t2.insert_meta_mru(meta);
            return AccessKind::Hit;
        }
        let in_t2 = self.t2.probe(req.id);
        if let Probe::Resident(h) = in_t2 {
            self.t2.record_hit_at(h, req.tick);
            self.t2.promote_to_mru_at(h);
            return AccessKind::Hit;
        }
        if !self.t1.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        let b1 = self.t1.history_used_bytes(Hm);
        let b2 = self.t2.history_used_bytes(Hm);
        match (in_t1, in_t2) {
            // Case II: ghost hit in B1 → grow p; the object joins T2.
            (Probe::History(slot), _) => {
                let delta = (req.size as f64 * ghost_ratio(b2, b1)) as u64;
                self.p = self.p.saturating_add(delta).min(self.capacity());
                self.t1.forget(slot);
                self.replace(req.size, false);
                self.t2.insert_mru(req.id, req.size, req.tick);
            }
            // Case III: ghost hit in B2 → shrink p.
            (_, Probe::History(slot)) => {
                let delta = (req.size as f64 * ghost_ratio(b1, b2)) as u64;
                self.p = self.p.saturating_sub(delta);
                self.t2.take_history(slot);
                self.replace(req.size, true);
                self.t2.insert_mru(req.id, req.size, req.tick);
            }
            // Case IV: brand-new object → T1. (Directory trimming is
            // handled by the ghost lists' own byte budgets.)
            _ => {
                self.replace(req.size, false);
                self.t1.insert_mru(req.id, req.size, req.tick);
            }
        }
        self.stats.insertions += 1;
        AccessKind::Miss
    }
}

/// How far a ghost hit moves `p`, per byte requested: the other ghost
/// list's bytes over the hit list's, at least 1.
fn ghost_ratio(other: u64, hit: u64) -> f64 {
    if hit == 0 {
        1.0
    } else {
        (other as f64 / hit as f64).max(1.0)
    }
}

impl CachePolicy for Arc {
    fn name(&self) -> &str {
        "ARC"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let outcome = self.serve(req);
        #[cfg(feature = "audit")]
        {
            self.t1.audit().expect("ARC T1/B1 invariants");
            self.t2.audit().expect("ARC T2/B2 invariants");
        }
        outcome
    }

    fn capacity(&self) -> u64 {
        self.t1.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.t1.used_bytes() + self.t2.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.t1.memory_bytes() + self.t2.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.t1.len() + self.t2.len(),
            resident_bytes: self.used_bytes(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::lru::Lru;
    use crate::replay;
    use cdn_cache::object::micro_trace;
    use cdn_cache::ObjectId;

    #[test]
    fn second_access_promotes_to_t2() {
        let mut p = Arc::new(10);
        for r in micro_trace(&[(1, 1), (1, 1)]) {
            p.on_request(&r);
        }
        assert!(!p.t1.contains(ObjectId(1)));
        assert!(p.t2.contains(ObjectId(1)));
    }

    #[test]
    fn ghost_hit_in_b1_grows_p() {
        let mut p = Arc::new(2);
        // 1 and 2 fill T1; 3 evicts 1 into B1; re-request 1 → p grows.
        for r in micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1)]) {
            p.on_request(&r);
        }
        assert!(p.p > 0);
        assert!(p.t2.contains(ObjectId(1)));
    }

    #[test]
    fn scan_does_not_flush_frequent_set() {
        // Rounds of (hot set touched twice, then a scan longer than the
        // cache): LRU loses the hot set to every scan; ARC's T2 keeps it.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for _round in 0..100 {
            for _pass in 0..2 {
                for hot in 0..4u64 {
                    reqs.push((hot, 1));
                }
            }
            for _ in 0..16 {
                reqs.push((next, 1));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let mut arc = Arc::new(8);
        let mut lru = Lru::new(8);
        let a = replay(&mut arc, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(a < l, "ARC {a} vs LRU {l}");
    }

    #[test]
    fn capacity_never_exceeded() {
        let reqs: Vec<(u64, u64)> = (0..3000).map(|i| (i * 11 % 120, 1 + i % 17)).collect();
        let t = micro_trace(&reqs);
        let mut p = Arc::new(100);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 100);
            assert!(p.p <= 100);
        }
    }

    #[test]
    fn recency_and_frequency_hits_both_served() {
        let t = micro_trace(&[(1, 1), (1, 1), (1, 1), (2, 1), (2, 1)]);
        let mut p = Arc::new(4);
        let m = replay(&mut p, &t);
        assert_eq!(m.hits(), 3);
    }
}
