//! LHD: Least Hit Density (Beckmann, Chen & Cidon, NSDI 2018).
//!
//! LHD ranks objects by *hit density* — expected hits per byte of
//! space-time the object will consume — estimated from the empirical
//! age-conditioned behaviour of that object's class, and evicts the lowest
//! density among a random sample of residents. Our classes are
//! (log₂ size, log₂ current age) buckets whose hit/eviction counters decay
//! periodically, which reproduces LHD's adaptivity without its full
//! conditional-probability machinery.

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request, SimRng, Tick};

const SIZE_BUCKETS: usize = 32;
const AGE_BUCKETS: usize = 32;
const SAMPLE: usize = 16;
/// Counter decay period (events) and factor.
const DECAY_EVERY: u64 = 1 << 14;
const DECAY: f64 = 0.9;

#[derive(Debug, Clone, Copy)]
struct Resident {
    size: u64,
    last_access: Tick,
    pool_slot: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct ClassStats {
    hits: f64,
    evictions: f64,
}

/// Least-hit-density replacement with sampled eviction.
#[derive(Debug, Clone)]
pub struct Lhd {
    capacity: u64,
    used: u64,
    resident: FxHashMap<ObjectId, Resident>,
    /// Random-sampling pool; swap-remove keeps it dense.
    pool: Vec<ObjectId>,
    classes: Vec<ClassStats>,
    events: u64,
    rng: SimRng,
    stats: PolicyStats,
}

fn bucket_log2(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).min(SIZE_BUCKETS - 1)
}

fn class_index(size: u64, age: u64) -> usize {
    let s = bucket_log2(size);
    let a = bucket_log2(age.max(1)).min(AGE_BUCKETS - 1);
    s * AGE_BUCKETS + a
}

impl Lhd {
    /// LHD with the given byte capacity.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Lhd {
            capacity,
            used: 0,
            resident: FxHashMap::default(),
            pool: Vec::new(),
            classes: vec![ClassStats::default(); SIZE_BUCKETS * AGE_BUCKETS],
            events: 0,
            rng: SimRng::new(seed),
            stats: PolicyStats::default(),
        }
    }

    fn tick_event(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(DECAY_EVERY) {
            for c in &mut self.classes {
                c.hits *= DECAY;
                c.evictions *= DECAY;
            }
        }
    }

    /// Estimated hit density of a resident object at `now`.
    fn density(&self, r: &Resident, now: Tick) -> f64 {
        let age = now.saturating_sub(r.last_access);
        let c = &self.classes[class_index(r.size, age)];
        let total = c.hits + c.evictions;
        // Unseen classes get an optimistic prior so new behaviour is
        // explored rather than insta-evicted.
        let hit_prob = if total < 1.0 { 0.5 } else { c.hits / total };
        // Expected remaining space-time ∝ age (older without reuse means a
        // longer expected wait) × size.
        hit_prob / ((age.max(1) as f64) * r.size.max(1) as f64)
    }

    fn pool_remove(&mut self, id: ObjectId) {
        let slot = self.resident[&id].pool_slot as usize;
        let last = self.pool.len() - 1;
        self.pool.swap(slot, last);
        let moved = self.pool[slot];
        self.pool.pop();
        if moved != id {
            self.resident.get_mut(&moved).expect("resident").pool_slot = slot as u32;
        }
    }

    fn evict_one(&mut self, now: Tick) {
        debug_assert!(!self.pool.is_empty());
        let mut victim: Option<(f64, ObjectId)> = None;
        let samples = SAMPLE.min(self.pool.len());
        for _ in 0..samples {
            let id = self.pool[self.rng.usize_below(self.pool.len())];
            let r = self.resident[&id];
            let d = self.density(&r, now);
            if victim.is_none_or(|(vd, _)| d < vd) {
                victim = Some((d, id));
            }
        }
        let (_, id) = victim.expect("sampled at least once");
        let r = self.resident[&id];
        let age = now.saturating_sub(r.last_access);
        self.classes[class_index(r.size, age)].evictions += 1.0;
        self.pool_remove(id);
        self.resident.remove(&id);
        self.used -= r.size;
        self.stats.evictions += 1;
    }
}

impl CachePolicy for Lhd {
    fn name(&self) -> &str {
        "LHD"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.tick_event();
        if let Some(r) = self.resident.get_mut(&req.id) {
            let age = req.tick.saturating_sub(r.last_access);
            r.last_access = req.tick;
            let size = r.size;
            self.classes[class_index(size, age)].hits += 1.0;
            return AccessKind::Hit;
        }
        if req.size > self.capacity {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            self.evict_one(req.tick);
        }
        self.resident.insert(
            req.id,
            Resident {
                size: req.size,
                last_access: req.tick,
                pool_slot: self.pool.len() as u32,
            },
        );
        self.pool.push(req.id);
        self.used += req.size;
        self.stats.insertions += 1;
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn memory_bytes(&self) -> usize {
        self.resident.capacity() * (8 + std::mem::size_of::<Resident>() + 8)
            + self.pool.capacity() * 8
            + self.classes.len() * std::mem::size_of::<ClassStats>()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.resident.len(),
            resident_bytes: self.used,
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
    fn pool_and_map_stay_consistent() {
        let reqs: Vec<(u64, u64)> = (0..3000).map(|i| (i * 7 % 150, 1 + i % 9)).collect();
        let t = micro_trace(&reqs);
        let mut p = Lhd::new(100, 1);
        for r in &t {
            p.on_request(r);
            assert_eq!(p.pool.len(), p.resident.len());
            assert!(p.used_bytes() <= 100);
            // Spot-check slot backlinks.
            if let Some(&id) = p.pool.first() {
                assert_eq!(p.resident[&id].pool_slot, 0);
            }
        }
        let sum: u64 = p.resident.values().map(|r| r.size).sum();
        assert_eq!(sum, p.used_bytes());
    }

    #[test]
    fn favours_reused_class_over_one_hit_class() {
        // Hot small objects (reused) vs cold large scan: after learning,
        // LHD should beat LRU.
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for i in 0..12_000u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 16, 4));
            } else {
                reqs.push((next, 64));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cap = 700;
        let mut lhd = Lhd::new(cap, 3);
        let mut lru = Lru::new(cap);
        let a = replay(&mut lhd, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(a < l, "LHD {a} vs LRU {l}");
    }

    #[test]
    fn decay_keeps_counters_bounded() {
        let mut p = Lhd::new(50, 5);
        let reqs: Vec<(u64, u64)> = (0..200_000).map(|i| (i % 20, 1)).collect();
        replay(&mut p, &micro_trace(&reqs));
        let max = p
            .classes
            .iter()
            .map(|c| c.hits + c.evictions)
            .fold(0.0f64, f64::max);
        // Without decay a single class could reach ~200k; with decay the
        // steady state is DECAY_EVERY · DECAY/(1-DECAY) ≈ 9 · DECAY_EVERY.
        assert!(max < 12.0 * DECAY_EVERY as f64, "max counter {max}");
    }
}
