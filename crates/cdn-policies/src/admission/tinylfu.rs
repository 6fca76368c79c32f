//! TinyLFU (Einziger, Friedman & Manes, ACM TOS 2017): a counting-sketch
//! admission filter in front of an LRU cache (the W-TinyLFU arrangement,
//! with a small LRU window absorbing bursts).
//!
//! A 4-bit count-min sketch approximates each object's recent request
//! frequency; on a miss that would force an eviction, the candidate is
//! admitted only if its estimated frequency beats the would-be victim's.
//! The sketch halves all counters periodically (the "reset" aging), so the
//! frequency estimate tracks a sliding sample window.

use cdn_cache::hash::mix64;
use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, LruQueue, ObjectId, PolicyStats, Request};

/// 4-bit count-min sketch with periodic halving.
#[derive(Debug, Clone)]
pub struct FrequencySketch {
    /// Packed 4-bit counters.
    table: Vec<u64>,
    /// Mask over counter slots (power of two).
    slot_mask: u64,
    additions: u64,
    reset_after: u64,
}

impl FrequencySketch {
    /// Sketch sized for roughly `expected_objects` distinct keys.
    pub fn new(expected_objects: usize) -> Self {
        let slots = expected_objects.next_power_of_two().max(1 << 10) as u64;
        FrequencySketch {
            table: vec![0u64; (slots / 16).max(1) as usize], // 16 counters/u64
            slot_mask: slots - 1,
            additions: 0,
            reset_after: slots * 10,
        }
    }

    #[inline]
    fn slot(&self, hash: u64) -> (usize, u32) {
        let idx = hash & self.slot_mask;
        ((idx / 16) as usize, ((idx % 16) * 4) as u32)
    }

    fn counter(&self, hash: u64) -> u64 {
        let (word, shift) = self.slot(hash);
        (self.table[word] >> shift) & 0xF
    }

    fn bump(&mut self, hash: u64) {
        let (word, shift) = self.slot(hash);
        let cur = (self.table[word] >> shift) & 0xF;
        if cur < 15 {
            self.table[word] += 1u64 << shift;
        }
    }

    /// Record one access.
    pub fn increment(&mut self, id: ObjectId) {
        for i in 0..4u64 {
            self.bump(mix64(id.0 ^ (i.wrapping_mul(0x9E3779B97F4A7C15))));
        }
        self.additions += 1;
        if self.additions >= self.reset_after {
            self.additions /= 2;
            for w in &mut self.table {
                // Halve every 4-bit lane.
                *w = (*w >> 1) & 0x7777_7777_7777_7777;
            }
        }
    }

    /// Estimated frequency (count-min: minimum over the hash lanes).
    pub fn estimate(&self, id: ObjectId) -> u64 {
        (0..4u64)
            .map(|i| self.counter(mix64(id.0 ^ (i.wrapping_mul(0x9E3779B97F4A7C15)))))
            .min()
            .expect("four lanes")
    }

    /// Sketch footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.table.capacity() * 8
    }
}

/// W-TinyLFU: window LRU (1 %) + main LRU behind the sketch filter.
#[derive(Debug, Clone)]
pub struct TinyLfu {
    sketch: FrequencySketch,
    /// Held to its budget by the duel, so it may briefly hold up to the
    /// whole capacity.
    window: LruQueue,
    main: LruQueue,
    window_budget: u64,
    stats: PolicyStats,
}

impl TinyLfu {
    /// TinyLFU sized for the given byte capacity (sketch sized from an
    /// assumed ~32 KB mean object size, for at most 2^26 objects: 2 TiB
    /// of such objects, a 128 MiB sketch).
    pub fn new(capacity: u64) -> Self {
        let expected = (capacity / 32_768).clamp(1024, 1 << 26) as usize;
        let window_budget = (capacity / 100).max(1);
        TinyLfu {
            sketch: FrequencySketch::new(expected * 4),
            window: LruQueue::new(capacity),
            main: LruQueue::new(capacity.saturating_sub(window_budget)),
            window_budget,
            stats: PolicyStats::default(),
        }
    }

    fn used(&self) -> u64 {
        self.window.used_bytes() + self.main.used_bytes()
    }

    /// Structural invariant check over both compartments: each queue's own
    /// `audit` plus window/main disjointness and the shared capacity bound.
    pub fn audit(&self) -> Result<(), String> {
        self.window.audit().map_err(|e| format!("window: {e}"))?;
        self.main.audit().map_err(|e| format!("main: {e}"))?;
        if let Some(meta) = self.window.iter().find(|m| self.main.contains(m.id)) {
            return Err(format!(
                "object {:?} resident in both window and main",
                meta.id
            ));
        }
        if self.used() > self.capacity() {
            return Err(format!(
                "used {} exceeds capacity {}",
                self.used(),
                self.capacity()
            ));
        }
        Ok(())
    }

    /// The admission duel: window overflow candidates fight the main
    /// queue's LRU victim on sketch frequency.
    fn rebalance(&mut self, tick: u64) {
        while self.window.used_bytes() > self.window_budget {
            let candidate = self.window.evict_lru().expect("over budget");
            // The candidate's estimate is loop-invariant across the duel
            // (evictions don't touch the sketch); hoist the 4-lane probe.
            let candidate_freq = self.sketch.estimate(candidate.id);
            // Make room in main, dueling candidate vs victims.
            let mut admitted = true;
            while self.main.needs_eviction_for(candidate.size) {
                let victim = match self.main.peek_lru() {
                    Some(v) => v,
                    None => break,
                };
                if candidate_freq > self.sketch.estimate(victim.id) {
                    self.main.evict_lru();
                    self.stats.evictions += 1;
                } else {
                    admitted = false;
                    self.stats.evictions += 1; // the candidate is dropped
                    break;
                }
            }
            if admitted && !self.main.needs_eviction_for(candidate.size) {
                let mut meta = candidate;
                meta.last_access = tick;
                self.main.insert_meta_mru(meta);
            }
        }
    }
}

impl CachePolicy for TinyLfu {
    fn name(&self) -> &str {
        "TinyLFU"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.sketch.increment(req.id);
        // Single-probe hit paths: one index lookup yields a handle that
        // drives the hit bookkeeping and the MRU move. The previous
        // contains → record_hit → promote_to_mru sequence probed the same
        // fused-index bucket three times per hit (the post-PR-5 regression
        // this recovers; see DESIGN.md §15).
        if let Some(h) = self.window.lookup(req.id) {
            self.window.record_hit_at(h, req.tick);
            self.window.promote_to_mru_at(h);
            return AccessKind::Hit;
        }
        if let Some(h) = self.main.lookup(req.id) {
            self.main.record_hit_at(h, req.tick);
            self.main.promote_to_mru_at(h);
            return AccessKind::Hit;
        }
        if !self.window.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        // New arrivals always enter the window (burst absorption), then
        // duel for main admission on window overflow.
        while cdn_cache::needs_eviction(self.capacity(), self.used(), req.size) {
            if self.window.evict_lru().is_none() {
                self.main.evict_lru();
            }
            self.stats.evictions += 1;
        }
        self.window.insert_mru(req.id, req.size, req.tick);
        self.stats.insertions += 1;
        self.rebalance(req.tick);
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.window.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.used()
    }

    fn memory_bytes(&self) -> usize {
        self.window.memory_bytes() + self.main.memory_bytes() + self.sketch.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.window.len() + self.main.len(),
            resident_bytes: self.used(),
            ..self.stats
        }
    }

    #[inline]
    fn prefetch_hint(&self, id: ObjectId) {
        self.window.prefetch_lookup(id);
        self.main.prefetch_lookup(id);
    }

    fn for_each_resident(&self, visit: &mut dyn FnMut(&cdn_cache::ResidentEntry)) -> bool {
        // Window (bucket 0) is the burst-absorbing front, main (bucket 1)
        // the protected bulk; each MRU→LRU.
        cdn_cache::export_lru_queue(&self.window, 0, visit);
        cdn_cache::export_lru_queue(&self.main, 1, visit);
        true
    }

    fn restore_resident(&mut self, entries: &[cdn_cache::ResidentEntry]) -> bool {
        for e in entries.iter().rev() {
            let skip = self.window.contains(e.id)
                || self.main.contains(e.id)
                || cdn_cache::needs_eviction(self.capacity(), self.used(), e.size);
            let queue = if e.bucket == 0 {
                &mut self.window
            } else {
                &mut self.main
            };
            if skip || queue.needs_eviction_for(e.size) {
                continue;
            }
            queue.insert_meta_mru(e.to_meta());
            // The sketch itself restarts cold (it is approximate sampled
            // state); one increment per restored object keeps restored
            // entries from losing every admission duel to fresh arrivals.
            self.sketch.increment(e.id);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::lru::Lru;
    use crate::replay;
    use cdn_cache::object::micro_trace;

    #[test]
    fn sketch_counts_and_ages() {
        let mut s = FrequencySketch::new(1024);
        let id = ObjectId(7);
        assert_eq!(s.estimate(id), 0);
        for _ in 0..10 {
            s.increment(id);
        }
        assert!(s.estimate(id) >= 8, "estimate {}", s.estimate(id));
        // Saturation at 15.
        for _ in 0..100 {
            s.increment(id);
        }
        assert!(s.estimate(id) <= 15);
    }

    #[test]
    fn sketch_reset_halves() {
        let mut s = FrequencySketch::new(64);
        s.reset_after = 32;
        let id = ObjectId(3);
        for _ in 0..8 {
            s.increment(id);
        }
        let before = s.estimate(id);
        // Push unrelated traffic past the reset threshold.
        for i in 0..64u64 {
            s.increment(ObjectId(1000 + i));
        }
        assert!(
            s.estimate(id) < before,
            "aged: {} -> {}",
            before,
            s.estimate(id)
        );
    }

    #[test]
    fn frequent_objects_survive_scans() {
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for round in 0..200u64 {
            for hot in 0..4u64 {
                reqs.push((hot, 10));
            }
            for _ in 0..30 {
                reqs.push((next, 10));
                next += 1;
            }
            let _ = round;
        }
        let t = micro_trace(&reqs);
        let cap = 200;
        let mut tiny = TinyLfu::new(cap);
        let mut lru = Lru::new(cap);
        let a = replay(&mut tiny, &t).miss_ratio();
        let b = replay(&mut lru, &t).miss_ratio();
        assert!(a < b, "TinyLFU {a} vs LRU {b}");
    }

    #[test]
    fn capacity_respected() {
        let reqs: Vec<(u64, u64)> = (0..4000).map(|i| (i * 11 % 150, 1 + i % 12)).collect();
        let t = micro_trace(&reqs);
        let mut p = TinyLfu::new(120);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 120, "used {}", p.used_bytes());
        }
    }
}
