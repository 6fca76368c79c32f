//! GDSF: GreedyDual-Size with Frequency (Cherkasova & Ciardo, HPCN 2001).
//!
//! Each resident object carries priority `H = L + F·C/S` where `F` is its
//! access frequency, `S` its size, `C` a uniform retrieval cost (1), and
//! `L` the inflation value — the priority of the last evicted object. The
//! object with minimal `H` is evicted, which favours small, frequently
//! accessed, recently touched objects without timestamps.
//!
//! ## Lazy rekeying
//!
//! The min-tracking structure is a binary min-heap with *deferred* key
//! updates, not an ordered set. A hit only rewrites the entry's priority
//! in the hash map — O(1), no tree surgery — leaving the heap's copy
//! stale. Staleness is one-sided: priorities only grow (frequency
//! increments, inflation is non-decreasing), so a heap key is always ≤
//! the entry's current priority. Eviction pops the heap minimum and
//! checks it against the map: stale copies are re-pushed at their current
//! priority and the pop retries. When an up-to-date copy surfaces, every
//! remaining heap key (and hence every current priority) is ≥ it — it is
//! the true minimum, with ties broken by object id exactly as the ordered
//! set version broke them. The heap holds exactly one entry per resident
//! object (pop either evicts or re-pushes), so memory stays O(residents)
//! with no compaction pass. This replaced a `BTreeSet` remove+insert per
//! hit that made GDSF the slowest policy in the workspace at 514
//! ns/request; behaviour is bit-identical (pinned by the golden
//! recordings).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request};

use super::OrdF64;

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    freq: u64,
    priority: f64,
}

/// GreedyDual-Size-Frequency replacement.
#[derive(Debug, Clone)]
pub struct Gdsf {
    capacity: u64,
    used: u64,
    inflation: f64,
    entries: FxHashMap<ObjectId, Entry>,
    /// Min-heap over `(priority, id)` with lazily updated keys: one entry
    /// per resident object, possibly at an outdated (lower) priority.
    heap: BinaryHeap<Reverse<(OrdF64, ObjectId)>>,
    stats: PolicyStats,
}

impl Gdsf {
    /// GDSF with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Gdsf {
            capacity,
            used: 0,
            inflation: 0.0,
            entries: FxHashMap::default(),
            heap: BinaryHeap::new(),
            stats: PolicyStats::default(),
        }
    }

    fn priority(&self, freq: u64, size: u64) -> f64 {
        self.inflation + freq as f64 / size.max(1) as f64
    }

    /// Pop the resident object with minimal current `(priority, id)`,
    /// skipping (and refreshing) stale heap keys.
    fn pop_min(&mut self) -> (f64, ObjectId, Entry) {
        loop {
            let Reverse((OrdF64(h), victim)) = self.heap.pop().expect("over capacity");
            let e = *self.entries.get(&victim).expect("heap and entries agree");
            if e.priority != h {
                // Stale key from before a hit bumped this entry; its
                // current priority is strictly higher. Re-push at the
                // current key and retry — the next up-to-date pop is the
                // true minimum.
                debug_assert!(e.priority > h, "priorities only grow");
                self.heap.push(Reverse((OrdF64(e.priority), victim)));
                continue;
            }
            self.entries.remove(&victim);
            return (h, victim, e);
        }
    }
}

impl CachePolicy for Gdsf {
    fn name(&self) -> &str {
        "GDSF"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let inflation = self.inflation;
        if let Some(e) = self.entries.get_mut(&req.id) {
            // Hit path is a single map probe: the heap keeps its stale
            // (lower) key and learns the new one lazily at eviction time.
            e.freq += 1;
            e.priority = inflation + e.freq as f64 / e.size.max(1) as f64;
            return AccessKind::Hit;
        }
        if req.size > self.capacity {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            let (h, _victim, e) = self.pop_min();
            self.used -= e.size;
            self.inflation = h; // L := H of the evicted object
            self.stats.evictions += 1;
        }
        let priority = self.priority(1, req.size);
        self.entries.insert(
            req.id,
            Entry {
                size: req.size,
                freq: 1,
                priority,
            },
        );
        self.heap.push(Reverse((OrdF64(priority), req.id)));
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
        self.entries.capacity() * (8 + std::mem::size_of::<Entry>() + 8)
            + self.heap.len() * std::mem::size_of::<Reverse<(OrdF64, ObjectId)>>()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.entries.len(),
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
    fn prefers_evicting_large_cold_objects() {
        // Capacity 100: small object (1B) and large (90B) inserted, then a
        // 50B object arrives: the large one has lower F/S and is evicted.
        let t = micro_trace(&[(1, 1), (2, 90), (3, 50)]);
        let mut p = Gdsf::new(100);
        replay(&mut p, &t);
        assert!(p.entries.contains_key(&ObjectId(1)));
        assert!(!p.entries.contains_key(&ObjectId(2)));
        assert!(p.entries.contains_key(&ObjectId(3)));
    }

    #[test]
    fn frequency_protects_objects() {
        // Large object hit many times (H = 20/80 = 0.25) outranks a cold
        // small one (H = 1/30 ≈ 0.03): the cold one is evicted.
        let mut reqs = vec![(1, 80); 20];
        reqs.push((2, 30));
        reqs.push((3, 50)); // 80+30+50 > 150: forces one eviction
        let t = micro_trace(&reqs);
        let mut p = Gdsf::new(150);
        replay(&mut p, &t);
        assert!(
            p.entries.contains_key(&ObjectId(1)),
            "hot large object kept"
        );
        assert!(!p.entries.contains_key(&ObjectId(2)), "cold small evicted");
    }

    #[test]
    fn inflation_monotone_nondecreasing() {
        let reqs: Vec<(u64, u64)> = (0..500).map(|i| (i * 3 % 40, 5 + i % 20)).collect();
        let t = micro_trace(&reqs);
        let mut p = Gdsf::new(100);
        let mut last = 0.0;
        for r in &t {
            p.on_request(r);
            assert!(p.inflation >= last);
            last = p.inflation;
        }
    }

    #[test]
    fn aging_lets_new_objects_displace_stale_hot_ones() {
        // Hot object accumulates priority, goes cold; inflation from later
        // evictions lets fresh objects eventually displace it.
        let mut reqs = vec![(1, 50); 10];
        for i in 0..200u64 {
            reqs.push((100 + i, 60)); // stream of new objects
        }
        let t = micro_trace(&reqs);
        let mut p = Gdsf::new(100);
        replay(&mut p, &t);
        assert!(
            !p.entries.contains_key(&ObjectId(1)),
            "stale object aged out"
        );
    }

    #[test]
    fn accounting_invariants() {
        let reqs: Vec<(u64, u64)> = (0..2000).map(|i| (i * 7 % 80, 1 + i % 30)).collect();
        let t = micro_trace(&reqs);
        let mut p = Gdsf::new(200);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 200);
            // Lazy-rekey invariant: exactly one heap key per resident
            // object (stale or fresh), never an orphan for an evicted one.
            assert_eq!(p.heap.len(), p.entries.len());
        }
    }

    #[test]
    fn lazy_heap_matches_ordered_set_reference() {
        // Differential check against a straightforward BTreeSet
        // implementation of the same eviction rule (the pre-optimization
        // structure): identical outcome streams and identical inflation
        // trajectory over an eviction-heavy adversarial mix.
        use std::collections::BTreeSet;
        let mut reqs: Vec<(u64, u64)> = Vec::new();
        for i in 0..6_000u64 {
            // Hot set rehit often (stale-key churn), cold stream forces
            // evictions, occasional giants force multi-evictions.
            reqs.push(match i % 7 {
                0..=2 => (i % 5, 3 + i % 4),
                3 | 4 => (1_000 + i, 10 + i % 50),
                5 => (i % 40, 1),
                _ => (2_000 + i, 90),
            });
        }
        let t = micro_trace(&reqs);

        let mut fast = Gdsf::new(300);
        // Reference: map + ordered set, rekeyed eagerly on every hit.
        let mut ref_entries: std::collections::HashMap<ObjectId, Entry> = Default::default();
        let mut ref_queue: BTreeSet<(OrdF64, ObjectId)> = BTreeSet::new();
        let mut ref_used = 0u64;
        let mut ref_inflation = 0f64;
        for r in &t {
            let got = fast.on_request(r);
            let want = if let Some(&e) = ref_entries.get(&r.id) {
                ref_queue.remove(&(OrdF64(e.priority), r.id));
                let freq = e.freq + 1;
                let priority = ref_inflation + freq as f64 / e.size.max(1) as f64;
                ref_entries.insert(
                    r.id,
                    Entry {
                        size: e.size,
                        freq,
                        priority,
                    },
                );
                ref_queue.insert((OrdF64(priority), r.id));
                AccessKind::Hit
            } else if r.size > 300 {
                AccessKind::Rejected(RejectReason::TooLarge)
            } else {
                while r.size > 300 - ref_used {
                    let &(OrdF64(h), victim) = ref_queue.iter().next().expect("over capacity");
                    ref_queue.remove(&(OrdF64(h), victim));
                    let e = ref_entries.remove(&victim).expect("indexed");
                    ref_used -= e.size;
                    ref_inflation = h;
                }
                let priority = ref_inflation + 1.0 / r.size.max(1) as f64;
                ref_entries.insert(
                    r.id,
                    Entry {
                        size: r.size,
                        freq: 1,
                        priority,
                    },
                );
                ref_queue.insert((OrdF64(priority), r.id));
                ref_used += r.size;
                AccessKind::Miss
            };
            assert_eq!(got, want, "outcome diverged at tick {}", r.tick);
            assert_eq!(fast.inflation.to_bits(), ref_inflation.to_bits());
            assert_eq!(fast.used_bytes(), ref_used);
        }
        // Residency sets must be identical at the end, not just counts.
        let mut fast_ids: Vec<u64> = fast.entries.keys().map(|id| id.0).collect();
        let mut ref_ids: Vec<u64> = ref_entries.keys().map(|id| id.0).collect();
        fast_ids.sort_unstable();
        ref_ids.sort_unstable();
        assert_eq!(fast_ids, ref_ids);
    }
}
