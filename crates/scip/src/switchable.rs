//! A cache node whose insertion/promotion policy flips from LRU to SCIP
//! at a deployment tick — *warm*, exactly like the production rollout
//! (§5.1: "engineers have deployed LRU in TDC, we have merely replaced
//! LRU's insertion policy with SCIP").
//!
//! Before the deploy tick the node forces classic LRU behaviour (MRU
//! insertion, MRU promotion) while still filling SCIP's history lists, so
//! the bandit starts with a realistic view of eviction outcomes the moment
//! it takes over.

use crate::core::VictimInfo;
use crate::{ScipConfig, ScipCore};
use cdn_cache::policy::RejectReason;
use cdn_cache::{
    AccessKind, CachePolicy, InsertPos, LruQueue, ObjectId, PolicyStats, Request, Tick,
};

/// LRU-until-deploy, SCIP-after node policy.
#[derive(Debug, Clone)]
pub struct SwitchableScip {
    cache: LruQueue,
    core: ScipCore,
    /// Tick at which SCIP takes over placement decisions.
    pub deploy_at: Tick,
    stats: PolicyStats,
    /// When set, evicted `(id, size)` pairs accumulate for the caller to
    /// drain — the resilience layer feeds them into its serve-stale store.
    record_evictions: bool,
    pending_evictions: Vec<(ObjectId, u64)>,
}

impl SwitchableScip {
    /// Node with the given capacity, deploying SCIP at `deploy_at`.
    pub fn new(capacity: u64, deploy_at: Tick, seed: u64) -> Self {
        SwitchableScip {
            cache: LruQueue::new(capacity),
            core: ScipCore::new(
                capacity,
                ScipConfig {
                    seed,
                    ..ScipConfig::default()
                },
            ),
            deploy_at,
            stats: PolicyStats::default(),
            record_evictions: false,
            pending_evictions: Vec::new(),
        }
    }

    fn scip_active(&self, tick: Tick) -> bool {
        tick >= self.deploy_at
    }

    /// The SCIP engine (diagnostics).
    pub fn core(&self) -> &ScipCore {
        &self.core
    }

    /// Is `id` currently resident? Read-only: unlike
    /// [`CachePolicy::on_request`] this neither promotes nor inserts, so
    /// peeking first and replaying the real access after is side-effect
    /// equivalent to the single blind access the plain path makes.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.cache.contains(id)
    }

    /// Start (or stop) accumulating evicted `(id, size)` pairs for
    /// [`Self::take_evictions`]. Off by default: the plain serving path
    /// pays nothing for the mechanism.
    pub fn set_record_evictions(&mut self, on: bool) {
        self.record_evictions = on;
        if !on {
            self.pending_evictions.clear();
        }
    }

    /// Drain the evictions recorded since the last call.
    pub fn take_evictions(&mut self) -> Vec<(ObjectId, u64)> {
        std::mem::take(&mut self.pending_evictions)
    }
}

impl CachePolicy for SwitchableScip {
    fn name(&self) -> &str {
        "TDC-node(LRU→SCIP)"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let active = self.scip_active(req.tick);
        let outcome = if self.cache.contains(req.id) {
            let mut meta = self.cache.remove(req.id).expect("resident");
            meta.hits += 1;
            meta.last_access = req.tick;
            let pos = if active {
                self.core.decide_promotion(meta.hits)
            } else {
                InsertPos::Mru
            };
            match pos {
                InsertPos::Mru => {
                    meta.inserted_at_mru = true;
                    self.cache.insert_meta_mru(meta);
                }
                InsertPos::Lru => {
                    meta.inserted_at_mru = false;
                    self.cache.insert_meta_lru(meta);
                }
            }
            AccessKind::Hit
        } else if !self.cache.admissible(req.size) {
            AccessKind::Rejected(RejectReason::TooLarge)
        } else {
            let verdict = self.core.on_miss_lookup(req.id, req.tick);
            {
                while self.cache.needs_eviction_for(req.size) {
                    let v = self.cache.evict_lru().expect("nonempty");
                    if self.record_evictions {
                        self.pending_evictions.push((v.id, v.size));
                    }
                    self.core.on_evict(VictimInfo {
                        id: v.id,
                        size: v.size,
                        tick: req.tick,
                        inserted_at_mru: v.inserted_at_mru,
                        hits: v.hits,
                        last_access: v.last_access,
                        inserted_tick: v.inserted_tick,
                    });
                    self.stats.evictions += 1;
                }
                let pos = if active {
                    verdict.unwrap_or_else(|| self.core.decide(req.size))
                } else {
                    InsertPos::Mru
                };
                match pos {
                    InsertPos::Mru => self.cache.insert_mru(req.id, req.size, req.tick),
                    InsertPos::Lru => self.cache.insert_lru(req.id, req.size, req.tick),
                };
                self.stats.insertions += 1;
            }
            AccessKind::Miss
        };
        self.core.on_request_end(outcome.is_hit());
        outcome
    }

    fn capacity(&self) -> u64 {
        self.cache.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.cache.memory_bytes() + self.core.memory_bytes()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.cache.len(),
            resident_bytes: self.cache.used_bytes(),
            ..self.stats
        }
    }

    fn for_each_resident(&self, visit: &mut dyn FnMut(&cdn_cache::ResidentEntry)) -> bool {
        cdn_cache::export_lru_queue(&self.cache, 0, visit);
        true
    }

    fn restore_resident(&mut self, entries: &[cdn_cache::ResidentEntry]) -> bool {
        cdn_cache::restore_lru_queue(&mut self.cache, entries);
        true
    }

    fn export_learned(&self) -> Option<Vec<u8>> {
        Some(self.core.export_learned())
    }

    fn restore_learned(&mut self, block: &[u8]) -> bool {
        self.core.restore_learned(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;

    #[test]
    fn behaves_as_lru_before_deploy() {
        let mut p = SwitchableScip::new(100, u64::MAX, 1);
        for r in micro_trace(&[(1, 10), (2, 10), (1, 10)]) {
            p.on_request(&r);
        }
        // Pure LRU: hit object at MRU.
        assert_eq!(p.cache.peek_mru().unwrap().id.0, 1);
        assert!(p.cache.peek_mru().unwrap().inserted_at_mru);
    }

    #[test]
    fn histories_warm_before_deploy() {
        let mut p = SwitchableScip::new(20, u64::MAX, 1);
        for r in micro_trace(&(0..50).map(|i| (i, 10)).collect::<Vec<_>>()) {
            p.on_request(&r);
        }
        assert!(!p.core().h_m.is_empty(), "history warmed pre-deploy");
    }

    #[test]
    fn scip_takes_over_after_deploy() {
        let mut p = SwitchableScip::new(1000, 10, 3);
        // After the deploy tick, at least some inserts should land at LRU
        // once ω_l is nonzero — with the 0.5 prior that's immediate.
        let reqs: Vec<(u64, u64)> = (0..200).map(|i| (i, 10)).collect();
        let mut saw_lru_insert = false;
        for r in micro_trace(&reqs) {
            p.on_request(&r);
            saw_lru_insert |= p.cache.iter().any(|m| !m.inserted_at_mru);
        }
        assert!(saw_lru_insert, "SCIP active after deploy");
        // And some of those LRU-inserted victims must have reached H_l.
        assert!(!p.core().h_l.is_empty());
    }
}
