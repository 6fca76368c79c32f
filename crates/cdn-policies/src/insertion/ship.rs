//! SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).
//!
//! **Adaptation from CPU caches**: SHiP keys its Signature History Counter
//! Table (SHCT) by the PC of the missing instruction. Object caches have no
//! PCs, so we use the strongest stable object signature available to a CDN:
//! the size class (log₂ bucket), which both the paper's ASC-IP and
//! AdaptSize identify as the dominant reuse predictor for CDN objects. The
//! mechanics are unchanged: a 3-bit saturating counter per signature,
//! incremented when a resident object is re-referenced, decremented when an
//! object is evicted without reuse; a zero counter predicts "distant
//! re-reference" and sends the insert to the LRU position.

use cdn_cache::{EntryMeta, InsertPos, Request, Tick};

use super::{InsertionDecider, MissDecision, PromoteAction};

const COUNTER_MAX: u8 = 7;
const N_SIGNATURES: usize = 64;

/// Signature-based hit predictor.
#[derive(Debug, Clone)]
pub struct Ship {
    shct: [u8; N_SIGNATURES],
}

/// Size-class signature: log₂ of the object size, clamped to the table.
fn signature(size: u64) -> usize {
    (64 - size.max(1).leading_zeros() as usize).min(N_SIGNATURES - 1)
}

impl Ship {
    /// Fresh predictor with weakly-reusable priors (counters start at 1, so
    /// unseen classes insert at MRU until proven dead).
    pub fn new() -> Self {
        Ship {
            shct: [1; N_SIGNATURES],
        }
    }
}

impl Default for Ship {
    fn default() -> Self {
        Self::new()
    }
}

impl InsertionDecider for Ship {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let sig = signature(req.size);
        let pos = if self.shct[sig] == 0 {
            InsertPos::Lru
        } else {
            InsertPos::Mru
        };
        MissDecision {
            pos,
            tag: sig as u64 + 1, // +1 so tag 0 still means "untagged"
        }
    }

    fn on_hit(&mut self, req: &Request, meta: &EntryMeta) -> PromoteAction {
        // Re-reference: strengthen the signature. Only the first hit of a
        // residency trains (SHiP's outcome bit), matching the original.
        if meta.hits == 1 {
            let sig = signature(req.size);
            self.shct[sig] = (self.shct[sig] + 1).min(COUNTER_MAX);
        }
        PromoteAction::ToMru
    }

    fn on_evict(&mut self, victim: &EntryMeta, _tick: Tick) {
        if victim.hits == 0 && victim.tag != 0 {
            let sig = (victim.tag - 1) as usize;
            self.shct[sig] = self.shct[sig].saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::InsertionCache;
    use crate::replay;
    use cdn_cache::object::micro_trace;
    use cdn_cache::CachePolicy;

    #[test]
    fn signatures_bucket_by_log_size() {
        assert_eq!(signature(1024), signature(1500));
        assert_ne!(signature(1024), signature(4096));
        assert!(signature(u64::MAX) < N_SIGNATURES);
        assert!(signature(0) < N_SIGNATURES);
    }

    #[test]
    fn dead_class_counter_decays_to_lru_insert() {
        let mut p = InsertionCache::new(Ship::new(), 4, "SHiP");
        // Stream of never-reused 1-byte objects: counter for that class
        // decays to 0 and later inserts go to the LRU position.
        let reqs: Vec<(u64, u64)> = (0..50).map(|i| (i, 1)).collect();
        for r in micro_trace(&reqs) {
            p.on_request(&r);
        }
        assert_eq!(p.decider().shct[signature(1)], 0);
        assert!(!p.queue().peek_lru().unwrap().inserted_at_mru);
    }

    #[test]
    fn reused_class_counter_recovers() {
        let mut ship = Ship::new();
        ship.shct[signature(1)] = 0;
        let mut p = InsertionCache::new(ship, 10, "SHiP");
        // The same small object re-referenced repeatedly trains the class up.
        let reqs: Vec<(u64, u64)> = (0..20).map(|_| (7, 1)).collect();
        for r in micro_trace(&reqs) {
            p.on_request(&r);
        }
        assert!(p.decider().shct[signature(1)] >= 1);
    }

    #[test]
    fn protects_hot_set_against_dead_size_class() {
        // Hot pair of 10-byte objects + scan of dead 1000-byte objects.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..900u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 2, 10));
            } else {
                reqs.push((next, 1000));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let mut ship = InsertionCache::new(Ship::new(), 2020, "SHiP");
        let mut lru = InsertionCache::new(super::super::deciders::Mip, 2020, "LRU");
        let s = replay(&mut ship, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(s < l, "SHiP {s} vs LRU {l}");
    }
}
