//! LRU-K (O'Neil, O'Neil & Weikum, SIGMOD 1993).
//!
//! Evicts the object with the largest *backward K-distance*: the object
//! whose K-th most recent reference is oldest. Objects with fewer than K
//! references have infinite backward K-distance and are evicted first (LRU
//! among themselves). Reference history is retained across evictions in a
//! bounded table, as the original requires.

use std::collections::BTreeSet;

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request, Tick};

/// Eviction key: `(band, time)` — band 0 = fewer than K references
/// (infinite K-distance, evicted first, oldest last-reference first),
/// band 1 = K-th most recent reference time. Min element = victim.
type Key = (u8, Tick, ObjectId);

#[derive(Debug, Clone)]
struct History {
    /// Most recent K reference times, newest last.
    times: Vec<Tick>,
}

/// LRU-K replacement (default K = 2).
#[derive(Debug, Clone)]
pub struct LruK {
    k: usize,
    capacity: u64,
    used: u64,
    resident: FxHashMap<ObjectId, (u64, Key)>, // id -> (size, eviction key)
    queue: BTreeSet<Key>,
    history: FxHashMap<ObjectId, History>,
    history_budget: usize,
    stats: PolicyStats,
    name: String,
}

impl LruK {
    /// LRU-K with the given byte capacity and K.
    pub fn with_k(capacity: u64, k: usize) -> Self {
        assert!(k >= 1);
        LruK {
            k,
            capacity,
            used: 0,
            resident: FxHashMap::default(),
            queue: BTreeSet::new(),
            history: FxHashMap::default(),
            history_budget: 1 << 16,
            stats: PolicyStats::default(),
            name: format!("LRU-{k}"),
        }
    }

    /// The classic K = 2 configuration.
    pub fn new(capacity: u64) -> Self {
        Self::with_k(capacity, 2)
    }

    fn key_for(&self, id: ObjectId, hist: &History) -> Key {
        if hist.times.len() >= self.k {
            (1, hist.times[hist.times.len() - self.k], id)
        } else {
            (0, *hist.times.last().expect("nonempty history"), id)
        }
    }

    fn record_reference(&mut self, id: ObjectId, tick: Tick) {
        if self.history.len() >= self.history_budget && !self.history.contains_key(&id) {
            // Amortised trim: drop the older half by last reference time.
            let mut lasts: Vec<Tick> = self
                .history
                .values()
                .map(|h| *h.times.last().expect("nonempty"))
                .collect();
            lasts.sort_unstable();
            let median = lasts[lasts.len() / 2];
            let resident = &self.resident;
            self.history.retain(|hid, h| {
                resident.contains_key(hid) || *h.times.last().expect("nonempty") > median
            });
        }
        let k = self.k;
        let h = self
            .history
            .entry(id)
            .or_insert(History { times: Vec::new() });
        h.times.push(tick);
        if h.times.len() > k {
            h.times.remove(0);
        }
    }

    fn reindex(&mut self, id: ObjectId) {
        let hist = self.history.get(&id).expect("referenced").clone();
        let new_key = self.key_for(id, &hist);
        if let Some((_, old_key)) = self.resident.get(&id) {
            self.queue.remove(old_key);
            self.queue.insert(new_key);
            self.resident.get_mut(&id).expect("resident").1 = new_key;
        }
    }

    fn evict_one(&mut self) {
        let &victim_key = self.queue.iter().next().expect("evict on nonempty");
        self.queue.remove(&victim_key);
        let (_, _, id) = victim_key;
        let (size, _) = self.resident.remove(&id).expect("indexed");
        self.used -= size;
        self.stats.evictions += 1;
    }

    // ------ core-manipulation API for enhancement wrappers (SCIP §4) ------

    /// Record a reference and refresh the K-distance index (hit path for
    /// wrappers that manage hits themselves).
    pub fn touch(&mut self, id: ObjectId, tick: Tick) {
        self.record_reference(id, tick);
        if self.resident.contains_key(&id) {
            self.reindex(id);
        }
    }

    /// Admit an object without capacity enforcement (the wrapper owns the
    /// byte budget). Also records the reference.
    pub fn admit(&mut self, req: &Request) {
        debug_assert!(!self.resident.contains_key(&req.id));
        self.record_reference(req.id, req.tick);
        let hist = self.history.get(&req.id).expect("just recorded").clone();
        let key = self.key_for(req.id, &hist);
        self.resident.insert(req.id, (req.size, key));
        self.queue.insert(key);
        self.used += req.size;
        self.stats.insertions += 1;
    }

    /// Remove a resident object, returning its size.
    pub fn remove(&mut self, id: ObjectId) -> Option<u64> {
        let (size, key) = self.resident.remove(&id)?;
        self.queue.remove(&key);
        self.used -= size;
        Some(size)
    }

    /// Evict this policy's preferred victim, returning `(id, size)`.
    pub fn evict_victim(&mut self) -> Option<(ObjectId, u64)> {
        let &victim_key = self.queue.iter().next()?;
        let (_, _, id) = victim_key;
        let size = self.remove(id).expect("indexed");
        self.stats.evictions += 1;
        Some((id, size))
    }

    /// Whether an object is resident.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.resident.contains_key(&id)
    }
}

impl CachePolicy for LruK {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.record_reference(req.id, req.tick);
        if self.resident.contains_key(&req.id) {
            self.reindex(req.id);
            return AccessKind::Hit;
        }
        if req.size > self.capacity {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            self.evict_one();
        }
        let hist = self.history.get(&req.id).expect("just recorded").clone();
        let key = self.key_for(req.id, &hist);
        self.resident.insert(req.id, (req.size, key));
        self.queue.insert(key);
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
        self.resident.capacity() * (8 + 8 + std::mem::size_of::<Key>())
            + self.queue.len() * std::mem::size_of::<Key>() * 2
            + self.history.capacity() * (8 + self.k * 8 + 24)
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
    use crate::replay;
    use cdn_cache::object::micro_trace;

    #[test]
    fn single_reference_objects_evicted_first() {
        // 1 referenced twice (K=2 satisfied), 2 and 3 once each: inserting
        // 4 must evict 2 (oldest single-reference), not 1.
        let t = micro_trace(&[(1, 1), (1, 1), (2, 1), (3, 1), (4, 1), (1, 1)]);
        let mut p = LruK::new(3);
        let m = replay(&mut p, &t);
        // Hits: second access of 1, and final access of 1.
        assert_eq!(m.hits(), 2);
        assert!(!p.resident.contains_key(&ObjectId(2)));
        assert!(p.resident.contains_key(&ObjectId(1)));
    }

    #[test]
    fn history_survives_eviction() {
        // Object 1 referenced once, evicted, then referenced again: its
        // second reference makes it a 2-reference object immediately.
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1), (4, 1), (5, 1)]);
        let mut p = LruK::new(2);
        replay(&mut p, &t);
        // After 1's second reference it holds band-1 status: 4 and 5 (one
        // reference each) should be evicted in preference to it.
        assert!(p.resident.contains_key(&ObjectId(1)));
    }

    #[test]
    fn resists_scan_better_than_lru() {
        use crate::replacement::lru::Lru;
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..3000u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 3, 1)); // hot trio, re-referenced often
            } else {
                reqs.push((next, 1)); // single-reference scan
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let mut lruk = LruK::new(4);
        let mut lru = Lru::new(4);
        let a = replay(&mut lruk, &t).miss_ratio();
        let b = replay(&mut lru, &t).miss_ratio();
        assert!(a < b, "LRU-K {a} vs LRU {b}");
    }

    #[test]
    fn capacity_and_accounting_hold() {
        let reqs: Vec<(u64, u64)> = (0..2000).map(|i| (i * 13 % 97, 1 + i % 10)).collect();
        let t = micro_trace(&reqs);
        let mut p = LruK::new(50);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 50);
            assert_eq!(p.queue.len(), p.resident.len());
            let sum: u64 = p.resident.values().map(|(s, _)| s).sum();
            assert_eq!(sum, p.used_bytes());
        }
    }

    #[test]
    fn history_table_bounded() {
        let mut p = LruK::new(10);
        p.history_budget = 256;
        let reqs: Vec<(u64, u64)> = (0..10_000).map(|i| (i, 1)).collect();
        replay(&mut p, &micro_trace(&reqs));
        assert!(p.history.len() <= 300, "history {}", p.history.len());
    }
}
