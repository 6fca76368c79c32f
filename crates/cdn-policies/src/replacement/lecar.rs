//! LeCaR: Learning Cache Replacement (Vietri et al., HotStorage 2018).
//!
//! Two experts — LRU and LFU — each with a ghost list of its own eviction
//! mistakes. On a miss that hits expert E's ghost list, E's weight decays
//! multiplicatively (`w ← w·e^{-λ}`, then renormalise): regret
//! minimisation. Evictions follow a coin flip weighted by the current
//! expert weights. Object frequency survives eviction by riding in the
//! ghost entry's tag, as the original's history requires. Both ghost
//! lists live in the resident queue's index: the LRU expert's victims in
//! its `Hm` history, the LFU expert's in its `Hl`.

use std::collections::BTreeSet;

use cdn_cache::policy::RejectReason;
use cdn_cache::HistoryList::{Hl, Hm};
use cdn_cache::{
    AccessKind, CachePolicy, FxHashMap, HistoryEntry, LruQueue, ObjectId, PolicyStats, Probe,
    Request, SimRng, Tick,
};

/// LeCaR's default learning rate.
pub const DEFAULT_LAMBDA: f64 = 0.45;

/// Learning cache replacement with LRU + LFU experts.
#[derive(Debug, Clone)]
pub struct LeCar {
    /// Residents, with `Hm` = the LRU expert's history and `Hl` = the LFU
    /// expert's.
    recency: LruQueue,
    /// (freq, last access, id) — min element is the LFU victim.
    freq_queue: BTreeSet<(u64, Tick, ObjectId)>,
    freq: FxHashMap<ObjectId, (u64, Tick)>,
    w_lru: f64,
    /// Multiplicative penalty exponent.
    pub lambda: f64,
    rng: SimRng,
    stats: PolicyStats,
    name: String,
}

impl LeCar {
    /// LeCaR with the given byte capacity.
    pub fn new(capacity: u64, seed: u64) -> Self {
        LeCar {
            // LeCaR sizes each expert's history at the cache size.
            recency: LruQueue::with_history(capacity, capacity),
            freq_queue: BTreeSet::new(),
            freq: FxHashMap::default(),
            w_lru: 0.5,
            lambda: DEFAULT_LAMBDA,
            rng: SimRng::new(seed),
            stats: PolicyStats::default(),
            name: "LeCaR".to_string(),
        }
    }

    /// Penalise an expert and renormalise.
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

    fn bump_freq(&mut self, id: ObjectId, tick: Tick, base: u64) {
        let (f, last) = self.freq.get(&id).copied().unwrap_or((base, tick));
        self.freq_queue.remove(&(f, last, id));
        self.freq.insert(id, (f + 1, tick));
        self.freq_queue.insert((f + 1, tick, id));
    }

    fn evict_one(&mut self) {
        let use_lru = self.rng.chance(self.w_lru);
        let victim_id = if use_lru {
            self.recency.peek_lru().expect("nonempty").id
        } else {
            self.freq_queue.iter().next().expect("nonempty").2
        };
        let meta = self.recency.remove(victim_id).expect("resident");
        let (f, last) = self.freq.remove(&victim_id).expect("tracked");
        self.freq_queue.remove(&(f, last, victim_id));
        let entry = HistoryEntry {
            id: victim_id,
            size: meta.size,
            tag: f, // frequency survives in history
        };
        let list = if use_lru { Hm } else { Hl };
        self.recency.remember(list, entry);
        self.stats.evictions += 1;
    }

    fn serve(&mut self, req: &Request) -> AccessKind {
        let slot = match self.recency.probe(req.id) {
            Probe::Resident(h) => {
                self.recency.record_hit_at(h, req.tick);
                self.recency.promote_to_mru_at(h);
                self.bump_freq(req.id, req.tick, 0);
                return AccessKind::Hit;
            }
            Probe::History(slot) => Some(slot),
            Probe::Absent => None,
        };
        if !self.recency.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        // Regret updates from ghost hits.
        let mut restored_freq = 0;
        if let Some(slot) = slot {
            let (list, e) = self.recency.take_history(slot);
            self.penalise(list == Hm);
            restored_freq = e.tag;
        }
        while self.recency.needs_eviction_for(req.size) {
            self.evict_one();
        }
        self.recency.insert_mru(req.id, req.size, req.tick);
        self.freq.insert(req.id, (restored_freq + 1, req.tick));
        self.freq_queue
            .insert((restored_freq + 1, req.tick, req.id));
        self.stats.insertions += 1;
        AccessKind::Miss
    }
}

impl CachePolicy for LeCar {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let outcome = self.serve(req);
        #[cfg(feature = "audit")]
        self.recency
            .audit()
            .expect("LeCaR queue/history invariants");
        outcome
    }

    fn capacity(&self) -> u64 {
        self.recency.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.recency.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.recency.memory_bytes() + self.freq.capacity() * 32 + self.freq_queue.len() * 48
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.recency.len(),
            resident_bytes: self.recency.used_bytes(),
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
    fn structures_stay_consistent() {
        let reqs: Vec<(u64, u64)> = (0..3000).map(|i| (i * 7 % 90, 1 + i % 5)).collect();
        let t = micro_trace(&reqs);
        let mut p = LeCar::new(60, 1);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 60);
            assert_eq!(p.freq.len(), p.recency.len());
            assert_eq!(p.freq_queue.len(), p.recency.len());
        }
    }

    #[test]
    fn weights_stay_normalised() {
        let reqs: Vec<(u64, u64)> = (0..5000).map(|i| (i * 13 % 200, 1)).collect();
        let t = micro_trace(&reqs);
        let mut p = LeCar::new(20, 3);
        for r in &t {
            p.on_request(r);
            assert!((0.01..=0.99).contains(&p.w_lru));
        }
    }

    #[test]
    fn lfu_expert_wins_on_frequency_skew() {
        // Frequent objects re-referenced at long distance + recency churn:
        // LFU protects them, plain LRU cannot.
        let mut reqs = Vec::new();
        let mut next = 1000u64;
        for round in 0..200u64 {
            for hot in 0..4u64 {
                reqs.push((hot, 1));
            }
            for _ in 0..8 {
                reqs.push((next, 1));
                next += 1;
            }
            let _ = round;
        }
        let t = micro_trace(&reqs);
        let cap = 8;
        let mut lecar = LeCar::new(cap, 5);
        let mut lru = Lru::new(cap);
        let a = replay(&mut lecar, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(a < l, "LeCaR {a} vs LRU {l}");
    }

    #[test]
    fn ghost_frequency_restored() {
        let mut p = LeCar::new(2, 7);
        // Access 1 three times, evict it, bring it back: frequency > 1.
        for r in micro_trace(&[(1, 1), (1, 1), (1, 1), (2, 1), (3, 1), (4, 1), (1, 1)]) {
            p.on_request(&r);
        }
        let (f, _) = p.freq[&cdn_cache::ObjectId(1)];
        assert!(f > 1, "restored frequency {f}");
    }
}
