//! DAAIP: Deadblock Aware Adaptive Insertion Policy (Mahto et al.,
//! ICCD 2017).
//!
//! **Adaptation from CPU caches**: DAAIP predicts dead-on-arrival blocks
//! from per-region history and inserts predicted-dead blocks at low
//! priority, with an adaptive fallback when the predictor misbehaves. Our
//! object-cache port keeps both halves: a table of 2-bit "deadness"
//! counters keyed by size-class × popularity-class (the object analog of a
//! code region), trained by eviction outcomes, and an adaptive confidence
//! throttle — when predictions keep getting refuted by hits on
//! LRU-inserted objects, the policy backs off to MRU insertion.

use cdn_cache::hash::mix64;
use cdn_cache::{EntryMeta, FxHashMap, InsertPos, ObjectId, Request, Tick};

use super::{InsertionDecider, MissDecision, PromoteAction};

const N_CLASSES: usize = 256;
const DEAD_MAX: u8 = 3;
/// Predict dead when the class counter reaches this value.
const DEAD_THRESHOLD: u8 = 2;
const CONF_MAX: i32 = 256;

/// Deadblock-aware adaptive insertion.
#[derive(Debug, Clone)]
pub struct Daaip {
    dead: [u8; N_CLASSES],
    /// Confidence: positive = trust the predictor, negative = back off.
    conf: i32,
    /// Recent access counts per object, to derive the popularity class.
    freq: FxHashMap<ObjectId, u32>,
    freq_budget: usize,
}

fn size_class(size: u64) -> u64 {
    64 - size.max(1).leading_zeros() as u64
}

fn class_index(size: u64, freq: u32) -> usize {
    let pop_class = 32 - freq.min(7).leading_zeros() as u64; // 0..=3ish
    (mix64(size_class(size) ^ (pop_class << 32)) % N_CLASSES as u64) as usize
}

impl Daaip {
    /// Fresh predictor; `freq_budget` bounds the frequency table (object
    /// count, roughly the cache's object population).
    pub fn new(freq_budget: usize) -> Self {
        Daaip {
            dead: [0; N_CLASSES],
            conf: CONF_MAX / 2,
            freq: FxHashMap::default(),
            freq_budget: freq_budget.max(1024),
        }
    }

    fn bump_freq(&mut self, id: ObjectId) -> u32 {
        if self.freq.len() >= self.freq_budget && !self.freq.contains_key(&id) {
            // Cheap wholesale aging: halve and drop cold entries.
            self.freq.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        let c = self.freq.entry(id).or_insert(0);
        *c = c.saturating_add(1);
        *c
    }
}

impl InsertionDecider for Daaip {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let f = self.bump_freq(req.id);
        let class = class_index(req.size, f.saturating_sub(1));
        let predicted_dead = self.dead[class] >= DEAD_THRESHOLD;
        let pos = if predicted_dead && self.conf > 0 {
            InsertPos::Lru
        } else {
            InsertPos::Mru
        };
        MissDecision {
            pos,
            tag: class as u64 + 1,
        }
    }

    fn on_hit(&mut self, req: &Request, meta: &EntryMeta) -> PromoteAction {
        self.bump_freq(req.id);
        if meta.hits == 1 && meta.tag != 0 {
            let class = (meta.tag - 1) as usize;
            // A hit refutes deadness for the class.
            self.dead[class] = self.dead[class].saturating_sub(1);
            if !meta.inserted_at_mru {
                // We inserted it at LRU and it was still reused: the
                // predictor cost us recency; lose confidence.
                self.conf = (self.conf - 4).max(-CONF_MAX);
            }
        }
        PromoteAction::ToMru
    }

    fn on_evict(&mut self, victim: &EntryMeta, _tick: Tick) {
        if victim.tag == 0 {
            return;
        }
        let class = (victim.tag - 1) as usize;
        if victim.hits == 0 {
            self.dead[class] = (self.dead[class] + 1).min(DEAD_MAX);
            if victim.inserted_at_mru {
                // Dead object rode the whole queue: predictor would have
                // helped; gain confidence.
                self.conf = (self.conf + 1).min(CONF_MAX);
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self) + self.freq.capacity() * 16
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
    fn class_index_in_range() {
        for size in [1u64, 100, 10_000, u64::MAX] {
            for f in [0u32, 1, 5, 100] {
                assert!(class_index(size, f) < N_CLASSES);
            }
        }
    }

    #[test]
    fn learns_dead_scan_class() {
        // Hot pair of 10-byte objects + one-hit 1000-byte scan: DAAIP
        // should learn the scan class is dead and beat LRU.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..1200u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 2, 10));
            } else {
                reqs.push((next, 1000));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let mut daaip = InsertionCache::new(Daaip::new(4096), 2020, "DAAIP");
        let mut lru = InsertionCache::new(Mip, 2020, "LRU");
        let d = replay(&mut daaip, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(d < l, "DAAIP {d} vs LRU {l}");
    }

    #[test]
    fn confidence_drops_on_refuted_predictions() {
        let mut p = InsertionCache::new(Daaip::new(4096), 100, "DAAIP");
        // First train a dead class (ids never reused)…
        let mut reqs: Vec<(u64, u64)> = (0..300).map(|i| (i, 30)).collect();
        // …then reuse that class heavily so LRU-inserted objects get hits.
        for i in 300..360u64 {
            reqs.push((i, 30));
            reqs.push((i, 30));
        }
        let conf_start = CONF_MAX / 2;
        let t = micro_trace(&reqs);
        replay(&mut p, &t);
        assert!(p.decider().conf != conf_start);
    }

    #[test]
    fn freq_table_stays_bounded() {
        let mut p = InsertionCache::new(Daaip::new(1024), 10_000, "DAAIP");
        let reqs: Vec<(u64, u64)> = (0..20_000).map(|i| (i, 1)).collect();
        replay(&mut p, &micro_trace(&reqs));
        assert!(
            p.decider().freq.len() <= 1100,
            "freq {}",
            p.decider().freq.len()
        );
    }
}
