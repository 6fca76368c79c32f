//! Insertion/promotion policies on an LRU victim-selection backbone.
//!
//! The paper's §6.3 baselines all share the same victim policy (evict from
//! the LRU end) and differ only in *placement*: where a missing object is
//! inserted and where a hit object is re-placed. [`InsertionDecider`]
//! captures exactly those two decisions plus eviction feedback, and
//! [`InsertionCache`] lifts any decider into a full [`CachePolicy`].
//!
//! The trait is the workspace's one placement vocabulary: a decider sees
//! requests and the queue's own [`EntryMeta`], never the queue, so the same
//! decider also steers a host with no recency queue at all —
//! `scip::Enhanced` plugs [`AscIp`] (and SCIP's bandit) into LRU-K and LRB
//! through it.
//!
//! PIPP and DGIPPR need interior queue positions and live in their own
//! modules on top of [`cdn_cache::SegmentedQueue`].

pub mod ascip;
pub mod daaip;
pub mod deciders;
pub mod dgippr;
pub mod dip;
pub mod dta;
pub mod oracle;
pub mod pipp;
pub mod ship;

pub use ascip::AscIp;
pub use daaip::Daaip;
pub use deciders::{Bip, Lip, Mip};
pub use dgippr::Dgippr;
pub use dip::Dip;
pub use dta::Dta;
pub use oracle::{OraclePlacement, OracleTreatment};
pub use pipp::Pipp;
pub use ship::Ship;

use cdn_cache::policy::RejectReason;
use cdn_cache::{
    AccessKind, CachePolicy, EntryMeta, InsertPos, LruQueue, PolicyStats, Request, Tick,
};

/// What to do with a hit object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteAction {
    /// Move to the MRU position (classic promotion).
    ToMru,
    /// Move one slot toward MRU (PIPP-style).
    OneStep,
    /// Move to the LRU position (demotion — what SCIP does to P-ZROs).
    ToLru,
    /// Leave in place.
    Stay,
}

/// Placement decision for a missing object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissDecision {
    /// Queue end to insert at.
    pub pos: InsertPos,
    /// Policy-private tag stored in the entry (signatures, class ids...).
    pub tag: u64,
}

impl MissDecision {
    /// Tag-less decision.
    pub fn at(pos: InsertPos) -> Self {
        MissDecision { pos, tag: 0 }
    }
}

/// The two placement decisions + feedback hooks of an insertion policy.
pub trait InsertionDecider {
    /// Placement of a missing, admissible object (about to be inserted).
    /// Called once per miss, before the evictions that make room for it.
    fn on_miss(&mut self, req: &Request) -> MissDecision;

    /// Action for a hit object; `meta` is its entry with this hit already
    /// counted (`hits >= 1`, `last_access == req.tick`).
    fn on_hit(&mut self, req: &Request, meta: &EntryMeta) -> PromoteAction;

    /// Feedback: `victim` was just evicted at `tick`.
    fn on_evict(&mut self, _victim: &EntryMeta, _tick: Tick) {}

    /// Per-request clock, after the request was served (`hit` = it was a
    /// hit): learning-rate windows and the like.
    fn on_request_end(&mut self, _hit: bool) {}

    /// Approximate decider state size in bytes.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }
}

/// An LRU-victim cache driven by an [`InsertionDecider`].
#[derive(Debug, Clone)]
pub struct InsertionCache<D> {
    decider: D,
    cache: LruQueue,
    name: String,
    stats: PolicyStats,
}

impl<D: InsertionDecider> InsertionCache<D> {
    /// Build with the given decider, capacity and display name.
    pub fn new(decider: D, capacity: u64, name: &str) -> Self {
        InsertionCache {
            decider,
            cache: LruQueue::new(capacity),
            name: name.to_string(),
            stats: PolicyStats::default(),
        }
    }

    /// The wrapped decider (for tests and ablations).
    pub fn decider(&self) -> &D {
        &self.decider
    }

    /// The underlying queue (read-only).
    pub fn queue(&self) -> &LruQueue {
        &self.cache
    }
}

impl<D: InsertionDecider> CachePolicy for InsertionCache<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        // Hit path: one hash probe; all follow-up work goes through the
        // handle. This loop dominates replay throughput.
        let outcome = if let Some(h) = self.cache.lookup(req.id) {
            self.cache.record_hit_at(h, req.tick);
            let meta = self.cache.get_at(h);
            match self.decider.on_hit(req, &meta) {
                PromoteAction::ToMru => self.cache.promote_to_mru_at(h),
                PromoteAction::OneStep => self.cache.promote_one_at(h),
                PromoteAction::ToLru => self.cache.demote_to_lru_at(h),
                PromoteAction::Stay => {}
            }
            AccessKind::Hit
        } else if !self.cache.admissible(req.size) {
            AccessKind::Rejected(RejectReason::TooLarge)
        } else {
            let decision = self.decider.on_miss(req);
            while self.cache.needs_eviction_for(req.size) {
                let victim = self.cache.evict_lru().expect("nonempty");
                self.stats.evictions += 1;
                self.decider.on_evict(&victim, req.tick);
            }
            let h = match decision.pos {
                InsertPos::Mru => self.cache.insert_mru(req.id, req.size, req.tick),
                InsertPos::Lru => self.cache.insert_lru(req.id, req.size, req.tick),
            };
            if decision.tag != 0 {
                self.cache.set_tag_at(h, decision.tag);
            }
            self.stats.insertions += 1;
            AccessKind::Miss
        };
        self.decider.on_request_end(outcome.is_hit());
        #[cfg(feature = "audit")]
        self.cache.audit().expect("insertion-cache invariants");
        outcome
    }

    fn capacity(&self) -> u64 {
        self.cache.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.cache.memory_bytes() + self.decider.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.cache.len(),
            resident_bytes: self.cache.used_bytes(),
            ..self.stats
        }
    }

    #[inline]
    fn prefetch_hint(&self, id: cdn_cache::ObjectId) {
        self.cache.prefetch_lookup(id);
    }

    fn for_each_resident(&self, visit: &mut dyn FnMut(&cdn_cache::ResidentEntry)) -> bool {
        cdn_cache::export_lru_queue(&self.cache, 0, visit);
        true
    }

    fn restore_resident(&mut self, entries: &[cdn_cache::ResidentEntry]) -> bool {
        // Queue order and per-entry statistics are reconstructed exactly;
        // the decider's own state (set-dueling counters, SHiP tables...)
        // restarts cold.
        cdn_cache::restore_lru_queue(&mut self.cache, entries);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::deciders::{Lip, Mip};
    use super::*;
    use cdn_cache::object::micro_trace;

    #[test]
    fn mip_behaves_like_lru() {
        // Capacity 2 (unit sizes), sequence 1 2 3 1: LRU misses all four.
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1)]);
        let mut p = InsertionCache::new(Mip, 2, "LRU");
        let m = crate::replay(&mut p, &t);
        assert_eq!(m.misses(), 4);
    }

    #[test]
    fn lip_protects_working_set() {
        // With LIP, 3 is inserted at LRU and evicted before it can damage
        // the {1,2} working set: 1 still hits afterwards.
        let t = micro_trace(&[(1, 1), (2, 1), (1, 1), (3, 1), (1, 1), (2, 1)]);
        let mut p = InsertionCache::new(Lip, 2, "LIP");
        let m = crate::replay(&mut p, &t);
        // 1,2 miss; 1 hits (promoted); 3 misses to LRU evicting 2 (LRU end
        // after 1's promotion)… then 1 hits, 2 misses.
        assert!(m.hits() >= 2, "hits {}", m.hits());
    }

    #[test]
    fn oversized_objects_bypass() {
        let t = micro_trace(&[(1, 100), (1, 100)]);
        let mut p = InsertionCache::new(Mip, 10, "LRU");
        let m = crate::replay(&mut p, &t);
        assert_eq!(m.misses(), 2);
        assert_eq!(p.used_bytes(), 0);
    }

    #[test]
    fn stats_track_insertions_and_evictions() {
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1)]);
        let mut p = InsertionCache::new(Mip, 2, "LRU");
        crate::replay(&mut p, &t);
        let s = p.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_objects, 2);
    }
}
