//! CACHEUS (Rodriguez et al., FAST 2021).
//!
//! CACHEUS refines LeCaR along three axes, all reproduced here:
//! 1. **SR-LRU** — a scan-resistant recency expert: a small probation
//!    segment absorbs new objects; only reused objects enter the protected
//!    segment. Here the two are plain LRU lists that share the cache's
//!    budget: neither has a byte budget of its own.
//! 2. **CR-LFU** — churn resistance: frequency ties break by recency
//!    (encoded in the ordered key), so churning unit-frequency objects
//!    don't evict each other pathologically.
//! 3. **Adaptive learning rate** — λ is no longer fixed: every window the
//!    hit-rate gradient doubles λ when performance degrades under the
//!    current mixture and decays it when stable (the original's
//!    performance-driven lr schedule, simplified to its
//!    double-on-regress / decay-on-progress core).
//!
//! Both experts' ghost lists live in the probation list's index, as its
//! `Hm` (SR-LRU's victims) and `Hl` (CR-LFU's) histories, whichever list
//! a victim left.

use std::collections::BTreeSet;

use cdn_cache::policy::RejectReason;
use cdn_cache::HistoryList::{Hl, Hm};
use cdn_cache::{
    AccessKind, CachePolicy, FxHashMap, HistoryEntry, LruQueue, ObjectId, PolicyStats, Probe,
    Request, SimRng, Tick,
};

const WINDOW: u64 = 4_096;
const LAMBDA_MIN: f64 = 0.001;
const LAMBDA_MAX: f64 = 1.0;

/// CACHEUS: SR-LRU + CR-LFU experts with an adaptive learning rate.
#[derive(Debug, Clone)]
pub struct Cacheus {
    /// SR-LRU: new objects enter probation, reused ones move to protected.
    /// Probation also remembers every victim: `Hm` = the SR-LRU expert's,
    /// `Hl` = the CR-LFU expert's.
    probation: LruQueue,
    protected: LruQueue,
    freq_queue: BTreeSet<(u64, Tick, ObjectId)>,
    freq: FxHashMap<ObjectId, (u64, Tick)>,
    w_lru: f64,
    lambda: f64,
    // Window bookkeeping for the adaptive lr.
    window_hits: u64,
    window_reqs: u64,
    prev_hit_rate: f64,
    rng: SimRng,
    stats: PolicyStats,
}

impl Cacheus {
    /// CACHEUS with the given byte capacity.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Cacheus {
            probation: LruQueue::with_history(capacity, capacity / 2),
            protected: LruQueue::new(capacity),
            freq_queue: BTreeSet::new(),
            freq: FxHashMap::default(),
            w_lru: 0.5,
            lambda: 0.45,
            window_hits: 0,
            window_reqs: 0,
            prev_hit_rate: 0.0,
            rng: SimRng::new(seed),
            stats: PolicyStats::default(),
        }
    }

    fn penalise(&mut self, lru_expert: bool) {
        let decay = (-self.lambda).exp();
        let (mut a, mut b) = (self.w_lru, 1.0 - self.w_lru);
        if lru_expert {
            a *= decay;
        } else {
            b *= decay;
        }
        self.w_lru = (a / (a + b)).clamp(0.01, 0.99);
    }

    fn adapt_lambda(&mut self) {
        let rate = if self.window_reqs == 0 {
            0.0
        } else {
            self.window_hits as f64 / self.window_reqs as f64
        };
        if rate < self.prev_hit_rate {
            // Regressing: explore faster.
            self.lambda = (self.lambda * 2.0).min(LAMBDA_MAX);
        } else {
            // Stable or improving: settle down.
            self.lambda = (self.lambda * 0.9).max(LAMBDA_MIN);
        }
        self.prev_hit_rate = rate;
        self.window_hits = 0;
        self.window_reqs = 0;
    }

    fn evict_one(&mut self) {
        let use_lru = self.rng.chance(self.w_lru);
        let meta = if use_lru {
            // SR-LRU victim: globally least-recent (probation first). O(1).
            self.probation
                .evict_lru()
                .or_else(|| self.protected.evict_lru())
        } else {
            let victim_id = self.freq_queue.iter().next().expect("nonempty").2;
            self.probation
                .remove(victim_id)
                .or_else(|| self.protected.remove(victim_id))
        };
        let meta = meta.expect("resident");
        let victim_id = meta.id;
        let (f, last) = self.freq.remove(&victim_id).expect("tracked");
        self.freq_queue.remove(&(f, last, victim_id));
        let entry = HistoryEntry {
            id: victim_id,
            size: meta.size,
            tag: f,
        };
        let list = if use_lru { Hm } else { Hl };
        self.probation.remember(list, entry);
        self.stats.evictions += 1;
    }

    fn serve(&mut self, req: &Request) -> AccessKind {
        self.window_reqs += 1;
        if self.window_reqs >= WINDOW {
            self.adapt_lambda();
        }
        let resident = self.probation.remove(req.id);
        if let Some(mut meta) = resident.or_else(|| self.protected.remove(req.id)) {
            // SR-LRU: reuse moves to the protected list's MRU end.
            meta.hits += 1;
            meta.last_access = req.tick;
            self.protected.insert_meta_mru(meta);
            self.window_hits += 1;
            let (f, last) = self.freq[&req.id];
            self.freq_queue.remove(&(f, last, req.id));
            self.freq.insert(req.id, (f + 1, req.tick));
            self.freq_queue.insert((f + 1, req.tick, req.id));
            return AccessKind::Hit;
        }
        if !self.probation.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        let mut restored_freq = 0;
        if let Probe::History(slot) = self.probation.probe(req.id) {
            let (list, e) = self.probation.take_history(slot);
            self.penalise(list == Hm);
            restored_freq = e.tag;
        }
        while cdn_cache::needs_eviction(self.capacity(), self.used_bytes(), req.size) {
            self.evict_one();
        }
        self.probation.insert_mru(req.id, req.size, req.tick);
        self.freq.insert(req.id, (restored_freq + 1, req.tick));
        self.freq_queue
            .insert((restored_freq + 1, req.tick, req.id));
        self.stats.insertions += 1;
        AccessKind::Miss
    }
}

impl CachePolicy for Cacheus {
    fn name(&self) -> &str {
        "CACHEUS"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let outcome = self.serve(req);
        #[cfg(feature = "audit")]
        {
            self.probation
                .audit()
                .expect("CACHEUS probation/history invariants");
            self.protected
                .audit()
                .expect("CACHEUS protected invariants");
        }
        outcome
    }

    fn capacity(&self) -> u64 {
        self.probation.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.probation.used_bytes() + self.protected.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.probation.memory_bytes()
            + self.protected.memory_bytes()
            + self.freq.capacity() * 32
            + self.freq_queue.len() * 48
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.probation.len() + self.protected.len(),
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

    #[test]
    fn invariants_hold_under_churn() {
        let reqs: Vec<(u64, u64)> = (0..4000).map(|i| (i * 11 % 120, 1 + i % 6)).collect();
        let t = micro_trace(&reqs);
        let mut p = Cacheus::new(80, 1);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 80);
            assert_eq!(p.freq.len(), p.probation.len() + p.protected.len());
            assert!((LAMBDA_MIN..=LAMBDA_MAX).contains(&p.lambda));
            assert!((0.01..=0.99).contains(&p.w_lru));
        }
    }

    #[test]
    fn scan_resistant_vs_lru() {
        // Hot set touched twice per round, then a scan longer than the
        // cache: probation absorbs the scan, the protected segment and the
        // LFU expert keep the hot set.
        let mut reqs = Vec::new();
        let mut next = 1000u64;
        for _round in 0..150 {
            for _pass in 0..2 {
                for hot in 0..6u64 {
                    reqs.push((hot, 1));
                }
            }
            for _ in 0..24 {
                reqs.push((next, 1));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cap = 12;
        let mut c = Cacheus::new(cap, 3);
        let mut lru = Lru::new(cap);
        let a = replay(&mut c, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(a < l, "CACHEUS {a} vs LRU {l}");
    }

    #[test]
    fn lambda_adapts_over_time() {
        let mut p = Cacheus::new(10, 5);
        let start = p.lambda;
        // Alternating hot/cold phases force hit-rate swings.
        let mut reqs = Vec::new();
        for phase in 0..6u64 {
            for i in 0..2 * WINDOW {
                if phase % 2 == 0 {
                    reqs.push((i % 5, 1)); // cacheable
                } else {
                    reqs.push((1_000_000 + phase * 100_000 + i, 1)); // all-miss
                }
            }
        }
        replay(&mut p, &micro_trace(&reqs));
        assert_ne!(p.lambda, start);
    }
}
