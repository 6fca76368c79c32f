//! 2Q (Johnson & Shasha, VLDB 1994), simplified to its full version's
//! object-cache form: a FIFO probation queue `A1in`, a ghost `A1out`, and
//! a main LRU `Am`. First-time objects enter `A1in`; objects re-referenced
//! while in `A1in` or remembered in `A1out` are promoted into `Am`. One-hit
//! wonders therefore never pollute the main queue — the admission-side
//! answer to the ZRO problem. `A1out` is `A1in`'s `Hm` history, keyed
//! through `A1in`'s own index.

use cdn_cache::policy::RejectReason;
use cdn_cache::HistoryList::Hm;
use cdn_cache::{AccessKind, CachePolicy, LruQueue, PolicyStats, Probe, Request};

/// 2Q with byte-budgeted regions.
#[derive(Debug, Clone)]
pub struct TwoQ {
    /// Probation FIFO (classic Kin ≈ 25 % of the cache). Its `Hm` history
    /// is the ghost of recent probation evictions, `A1out` (Kout: one
    /// cache's worth of bytes — byte-budgeted ghosts need the full budget
    /// to cover the reuse distances the page-count Kout=50 % covered in
    /// the original).
    a1in: LruQueue,
    /// Main protected LRU.
    am: LruQueue,
    a1in_budget: u64,
    stats: PolicyStats,
}

impl TwoQ {
    /// 2Q with the classic Kin = 25 %, Kout = 50 % split.
    pub fn new(capacity: u64) -> Self {
        TwoQ {
            a1in: LruQueue::with_history(capacity, capacity),
            am: LruQueue::new(capacity),
            a1in_budget: capacity / 4,
            stats: PolicyStats::default(),
        }
    }

    fn used(&self) -> u64 {
        self.a1in.used_bytes() + self.am.used_bytes()
    }

    /// Free space: drain over-budget probation first (FIFO → A1out), then
    /// the main queue's LRU end.
    fn reclaim(&mut self, incoming: u64) {
        while cdn_cache::needs_eviction(self.capacity(), self.used(), incoming) {
            let from_a1in = self.a1in.used_bytes() > self.a1in_budget || self.am.is_empty();
            if from_a1in {
                self.a1in
                    .evict_lru_into_history(|_| (Hm, 0))
                    .expect("probation nonempty");
            } else {
                self.am.evict_lru().expect("main nonempty");
            }
            self.stats.evictions += 1;
        }
    }

    fn serve(&mut self, req: &Request) -> AccessKind {
        if let Some(h) = self.am.lookup(req.id) {
            self.am.record_hit_at(h, req.tick);
            self.am.promote_to_mru_at(h);
            return AccessKind::Hit;
        }
        if self.a1in.contains(req.id) {
            // Second touch while on probation: promote into Am.
            let mut meta = self.a1in.remove(req.id).expect("resident");
            meta.hits += 1;
            meta.last_access = req.tick;
            self.am.insert_meta_mru(meta);
            return AccessKind::Hit;
        }
        if !self.am.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        // Reclaim first: the object's A1out entry may fall off meanwhile.
        self.reclaim(req.size);
        if let Probe::History(slot) = self.a1in.probe(req.id) {
            // Remembered from probation: admit straight into Am.
            self.a1in.forget(slot);
            self.am.insert_mru(req.id, req.size, req.tick);
        } else {
            self.a1in.insert_mru(req.id, req.size, req.tick);
        }
        self.stats.insertions += 1;
        AccessKind::Miss
    }
}

impl CachePolicy for TwoQ {
    fn name(&self) -> &str {
        "2Q"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let outcome = self.serve(req);
        #[cfg(feature = "audit")]
        {
            self.a1in.audit().expect("2Q A1in/A1out invariants");
            self.am.audit().expect("2Q Am invariants");
        }
        outcome
    }

    fn capacity(&self) -> u64 {
        self.am.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.used()
    }

    fn memory_bytes(&self) -> usize {
        self.a1in.memory_bytes() + self.am.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.a1in.len() + self.am.len(),
            resident_bytes: self.used(),
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
    fn second_touch_promotes_to_main() {
        let mut p = TwoQ::new(100);
        for r in micro_trace(&[(1, 10), (1, 10)]) {
            p.on_request(&r);
        }
        assert!(p.am.contains(ObjectId(1)));
        assert!(!p.a1in.contains(ObjectId(1)));
    }

    #[test]
    fn ghost_memory_readmits_into_main() {
        let mut p = TwoQ::new(40); // a1in budget 10 = 1 object
                                   // 1 enters probation, 2 pushes it to A1out, then 1 returns.
        for r in micro_trace(&[(1, 10), (2, 10), (3, 10), (4, 10), (5, 10), (1, 10)]) {
            p.on_request(&r);
        }
        assert!(p.am.contains(ObjectId(1)), "readmitted via A1out");
    }

    #[test]
    fn reclaim_runs_before_the_a1out_check() {
        let mut p = TwoQ::new(40); // A1out holds 4 objects of 10 bytes
        for r in micro_trace(&[(1, 10), (2, 10), (3, 10), (4, 10)]) {
            p.on_request(&r);
        }
        // 5..8 push 1..4 into A1out, 1 the oldest.
        for r in micro_trace(&[(5, 10), (6, 10), (7, 10), (8, 10)]) {
            p.on_request(&r);
        }
        assert_eq!(p.a1in.history_len(Hm), 4);
        // Making room for 1 files 5 into A1out, and 1 falls off first.
        p.on_request(&Request::new(9, 1, 10));
        assert!(p.a1in.contains(ObjectId(1)), "back on probation");
        assert!(!p.am.contains(ObjectId(1)));
    }

    #[test]
    fn one_hit_wonders_never_reach_main() {
        let mut p = TwoQ::new(200);
        let reqs: Vec<(u64, u64)> = (0..100).map(|i| (i, 10)).collect();
        replay(&mut p, &micro_trace(&reqs));
        assert_eq!(p.am.len(), 0);
    }

    #[test]
    fn capacity_respected() {
        let reqs: Vec<(u64, u64)> = (0..3000).map(|i| (i * 7 % 120, 1 + i % 15)).collect();
        let t = micro_trace(&reqs);
        let mut p = TwoQ::new(150);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 150);
        }
    }

    #[test]
    fn beats_lru_on_wonder_heavy_traffic() {
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for i in 0..6_000u64 {
            if i % 2 == 0 {
                reqs.push((i / 2 % 20, 10));
            } else {
                reqs.push((next, 10));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cap = 300;
        let mut q = TwoQ::new(cap);
        let mut lru = Lru::new(cap);
        let a = replay(&mut q, &t).miss_ratio();
        let b = replay(&mut lru, &t).miss_ratio();
        assert!(a < b, "2Q {a} vs LRU {b}");
    }
}
