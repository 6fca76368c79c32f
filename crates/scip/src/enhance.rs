//! §4 integration: SCIP (or ASC-IP) as a placement layer over existing
//! replacement algorithms — producing LRU-K-SCIP, LRB-SCIP and the ASC-IP
//! reference enhancements of Figure 12.
//!
//! The mechanics follow the paper's Figure 5: the wrapped algorithm keeps
//! its victim-selection brain, while the placement brain decides, for
//! every missing *and* hit object, whether it deserves the protected
//! region (the wrapped algorithm's own structure) or the "LRU position".
//!
//! **Realising the LRU position on a non-queue host.** LRU-K and LRB have
//! no recency queue, so "insert at the LRU position" has no literal
//! analog. We use the steady-state equivalence: in a full cache, an object
//! placed at the eviction frontier is reclaimed before its next access
//! anyway, so the LRU position degenerates to *bypass* (for misses) and
//! *early drop* (for demoted hits). This preserves Algorithm 1's ghost
//! semantics exactly — bypassed/dropped objects are recorded in `H_l` as
//! if they had been inserted and immediately evicted, and a quick return
//! triggers the §3.2 rescue — while leaving the host's victim selection
//! untouched (a probationary region that is drained first was measured to
//! *fight* the host's eviction intelligence instead of complementing it).
//! Victims chosen by the host itself populate `H_m`.

use cdn_cache::policy::RejectReason;
use cdn_cache::{
    AccessKind, CachePolicy, EntryMeta, FxHashMap, GhostEntry, GhostList, HistoryEntry,
    HistoryList, InsertPos, ObjectId, PolicyStats, Request, Tick,
};
use cdn_policies::insertion::{AscIp, InsertionDecider, MissDecision, PromoteAction};
use cdn_policies::replacement::{Lrb, LruK};

use crate::core::{ScipConfig, ScipCore};

/// SCIP's bandit as an [`InsertionDecider`] for non-queue hosts.
///
/// Unlike the standalone [`crate::Scip`] (which follows Algorithm 1's
/// probabilistic SELECT exactly), the enhancement brain acts
/// *conservatively*: it only overrides the host policy when the learned
/// weights carry strong evidence (`ω < DEMOTE_THRESHOLD`). A coin flip at
/// ω = 0.5 demotes half the traffic, which measurably fights a host whose
/// own victim selection is already good (LRU-K, LRB); thresholding keeps
/// cold-start behaviour identical to the host and lets SCIP carve out
/// only the confidently-dead classes.
///
/// A host has no queue to key histories through, so the brain keeps
/// `H_m`/`H_l` as two standalone [`GhostList`]s.
#[derive(Debug, Clone)]
pub struct ScipBrain {
    core: ScipCore,
    h_m: GhostList,
    h_l: GhostList,
    /// Demote only when the relevant arm's weight falls below this.
    pub demote_threshold: f64,
}

impl ScipBrain {
    /// Brain for a cache of `capacity` bytes. Always runs the core in
    /// host mode (see [`ScipConfig::host_mode`]).
    pub fn new(capacity: u64, cfg: ScipConfig) -> Self {
        let cfg = ScipConfig {
            host_mode: true,
            ..cfg
        };
        let core = ScipCore::new(capacity, cfg);
        ScipBrain {
            h_m: GhostList::new(core.history_budget()),
            h_l: GhostList::new(core.history_budget()),
            core,
            demote_threshold: 0.05,
        }
    }

    /// `DELETE` the missing object from whichever history remembers it.
    fn take_history(&mut self, id: ObjectId) -> Option<(HistoryList, HistoryEntry)> {
        let (list, e) = match self.h_m.delete(id) {
            Some(e) => (HistoryList::Hm, e),
            None => (HistoryList::Hl, self.h_l.delete(id)?),
        };
        let entry = HistoryEntry {
            id: e.id,
            size: e.size,
            tag: e.tag,
        };
        Some((list, entry))
    }

    /// The wrapped engine (diagnostics).
    pub fn core(&self) -> &ScipCore {
        &self.core
    }
}

impl InsertionDecider for ScipBrain {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        // Algorithm 1 lines 6-13; host mode in the core: only rescue
        // verdicts are produced.
        let hit = self.take_history(req.id);
        let pos = match self.core.on_history_hit(hit, req.tick) {
            Some(verdict) => verdict,
            None if self.core.omega_m_for(req.size) < self.demote_threshold => InsertPos::Lru,
            None => InsertPos::Mru,
        };
        MissDecision::at(pos)
    }

    fn on_hit(&mut self, _req: &Request, _meta: &EntryMeta) -> PromoteAction {
        // Non-queue hosts have no promotion position: a hit just updates
        // the host's own bookkeeping. The P-ZRO eviction signal that tunes
        // ω_p is queue-relative (it compares time-since-last-hit with an
        // LRU traversal estimate) and mis-fires on hosts whose victims die
        // young by design, so drop-on-hit is disabled here; the insertion
        // half carries the enhancement (§4's "complement to a
        // machine-learning model to determine the insertion position").
        PromoteAction::ToMru
    }

    fn on_evict(&mut self, victim: &EntryMeta, tick: Tick) {
        let (list, tag) = self.core.on_evict(victim, tick);
        let entry = GhostEntry {
            id: victim.id,
            size: victim.size,
            evicted_tick: tick,
            tag,
        };
        match list {
            HistoryList::Hm => self.h_m.add(entry),
            HistoryList::Hl => self.h_l.add(entry),
        }
    }

    fn on_request_end(&mut self, hit: bool) {
        self.core.on_request_end(hit);
    }

    fn memory_bytes(&self) -> usize {
        self.core.memory_bytes() + self.h_m.memory_bytes() + self.h_l.memory_bytes()
    }
}

/// What an algorithm must expose, beyond [`CachePolicy`], to be
/// SCIP-enhanced: admit, remove, victim selection and hit bookkeeping,
/// with the *wrapper* holding the core to its own capacity.
pub trait EvictionCore: CachePolicy {
    /// Residency test.
    fn contains(&self, id: ObjectId) -> bool;
    /// Hit bookkeeping (frequency updates, model sampling…).
    fn touch(&mut self, req: &Request);
    /// Admit without capacity enforcement.
    fn admit(&mut self, req: &Request);
    /// Remove a resident object, returning its size.
    fn remove(&mut self, id: ObjectId) -> Option<u64>;
    /// Pick and remove this algorithm's preferred victim.
    fn evict_victim(&mut self, now: Tick) -> Option<(ObjectId, u64)>;
}

impl EvictionCore for LruK {
    fn contains(&self, id: ObjectId) -> bool {
        LruK::contains(self, id)
    }
    fn touch(&mut self, req: &Request) {
        LruK::touch(self, req.id, req.tick);
    }
    fn admit(&mut self, req: &Request) {
        LruK::admit(self, req);
    }
    fn remove(&mut self, id: ObjectId) -> Option<u64> {
        LruK::remove(self, id)
    }
    fn evict_victim(&mut self, _now: Tick) -> Option<(ObjectId, u64)> {
        LruK::evict_victim(self)
    }
}

impl EvictionCore for Lrb {
    fn contains(&self, id: ObjectId) -> bool {
        Lrb::contains(self, id)
    }
    fn touch(&mut self, req: &Request) {
        Lrb::touch(self, req);
    }
    fn admit(&mut self, req: &Request) {
        Lrb::admit(self, req);
    }
    fn remove(&mut self, id: ObjectId) -> Option<u64> {
        Lrb::remove(self, id)
    }
    fn evict_victim(&mut self, now: Tick) -> Option<(ObjectId, u64)> {
        Lrb::evict_victim(self, now)
    }
}

/// Residency bookkeeping the wrapper keeps for every object (the cores
/// don't expose per-residency timestamps).
#[derive(Debug, Clone, Copy)]
struct Residency {
    hits: u32,
    inserted_tick: Tick,
    last_access: Tick,
}

impl Residency {
    fn starting_at(tick: Tick) -> Self {
        Residency {
            hits: 0,
            inserted_tick: tick,
            last_access: tick,
        }
    }

    /// The queue entry a decider expects to see. Objects living in the
    /// host count as MRU-inserted; `demoted` marks one sent to the "LRU
    /// position" (bypassed or dropped).
    fn meta(self, id: ObjectId, size: u64, demoted: bool) -> EntryMeta {
        EntryMeta {
            id,
            size,
            inserted_at_mru: !demoted,
            inserted_tick: self.inserted_tick,
            last_access: self.last_access,
            hits: self.hits,
            tag: 0,
        }
    }
}

/// A replacement algorithm enhanced with a placement decider.
/// Hosts keep no per-entry tag, so a decider's [`MissDecision::tag`] is
/// dropped: tag-driven deciders (SHiP, DAAIP) need a queue.
#[derive(Debug)]
pub struct Enhanced<C, D> {
    core: C,
    decider: D,
    residency: FxHashMap<ObjectId, Residency>,
    name: String,
    stats: PolicyStats,
}

impl<C: EvictionCore, D: InsertionDecider> Enhanced<C, D> {
    /// Wrap `core` with `decider`, displayed as `<core>-<suffix>`. The
    /// wrapper holds the core to the core's own capacity.
    pub fn new(core: C, decider: D, suffix: &str) -> Self {
        let name = format!("{}-{suffix}", core.name());
        Enhanced {
            core,
            decider,
            residency: FxHashMap::default(),
            name,
            stats: PolicyStats::default(),
        }
    }

    /// The placement decider (diagnostics).
    pub fn decider(&self) -> &D {
        &self.decider
    }

    fn evict_for(&mut self, size: u64, tick: Tick) {
        while cdn_cache::needs_eviction(self.core.capacity(), self.core.used_bytes(), size) {
            let (id, vsize) = self
                .core
                .evict_victim(tick)
                .expect("over budget implies nonempty");
            let r = self
                .residency
                .remove(&id)
                .unwrap_or(Residency::starting_at(tick));
            self.decider.on_evict(&r.meta(id, vsize, false), tick);
            self.stats.evictions += 1;
        }
    }
}

impl<C: EvictionCore, D: InsertionDecider> CachePolicy for Enhanced<C, D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let outcome = if self.core.contains(req.id) {
            let r = self
                .residency
                .get_mut(&req.id)
                .expect("resident objects are tracked");
            r.hits += 1;
            r.last_access = req.tick;
            let r = *r;
            match self.decider.on_hit(req, &r.meta(req.id, req.size, false)) {
                PromoteAction::ToLru => {
                    // P-ZRO suspected: early drop = LRU-position placement,
                    // recorded as an immediate `H_l` eviction.
                    self.core.remove(req.id).expect("resident");
                    self.residency.remove(&req.id);
                    let dropped = r.meta(req.id, req.size, true);
                    self.decider.on_evict(&dropped, req.tick);
                }
                _ => self.core.touch(req),
            }
            AccessKind::Hit
        } else if req.size > self.core.capacity() {
            AccessKind::Rejected(RejectReason::TooLarge)
        } else {
            match self.decider.on_miss(req).pos {
                InsertPos::Mru => {
                    self.evict_for(req.size, req.tick);
                    self.residency
                        .insert(req.id, Residency::starting_at(req.tick));
                    self.core.admit(req);
                    self.stats.insertions += 1;
                }
                InsertPos::Lru => {
                    // ZRO suspected: bypass = LRU-position placement,
                    // recorded as an immediate `H_l` eviction.
                    let bypassed = Residency::starting_at(req.tick).meta(req.id, req.size, true);
                    self.decider.on_evict(&bypassed, req.tick);
                }
            }
            AccessKind::Miss
        };
        self.decider.on_request_end(outcome.is_hit());
        outcome
    }

    fn capacity(&self) -> u64 {
        self.core.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.core.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.core.memory_bytes()
            + self.decider.memory_bytes()
            + self.residency.capacity() * (8 + std::mem::size_of::<Residency>() + 8)
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.residency.len(),
            resident_bytes: self.core.used_bytes(),
            ..self.stats
        }
    }
}

fn scip_brain(capacity: u64, seed: u64) -> ScipBrain {
    ScipBrain::new(
        capacity,
        ScipConfig {
            seed,
            initial_omega_m: 0.8,
            ..ScipConfig::default()
        },
    )
}

/// LRU-K enhanced with SCIP (Figure 12).
pub fn lruk_scip(capacity: u64, k: usize, seed: u64) -> Enhanced<LruK, ScipBrain> {
    let brain = scip_brain(capacity, seed);
    Enhanced::new(LruK::with_k(capacity, k), brain, "SCIP")
}

/// LRU-K enhanced with ASC-IP (Figure 12 reference): hits always stay
/// protected; only the insertion of missing objects is size-gated.
pub fn lruk_ascip(capacity: u64, k: usize) -> Enhanced<LruK, AscIp> {
    let decider = AscIp::default_for_cdn();
    Enhanced::new(LruK::with_k(capacity, k), decider, "ASC-IP")
}

/// LRB enhanced with SCIP (Figure 12).
pub fn lrb_scip(
    capacity: u64,
    cfg: cdn_policies::replacement::LrbConfig,
    seed: u64,
) -> Enhanced<Lrb, ScipBrain> {
    let brain = scip_brain(capacity, seed);
    Enhanced::new(Lrb::with_config(capacity, cfg, seed), brain, "SCIP")
}

/// LRB enhanced with ASC-IP (Figure 12 reference).
pub fn lrb_ascip(
    capacity: u64,
    cfg: cdn_policies::replacement::LrbConfig,
    seed: u64,
) -> Enhanced<Lrb, AscIp> {
    let decider = AscIp::default_for_cdn();
    Enhanced::new(Lrb::with_config(capacity, cfg, seed), decider, "ASC-IP")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;
    use cdn_policies::replay;

    fn churn_trace() -> Vec<Request> {
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for i in 0..20_000u64 {
            if i % 4 == 0 {
                reqs.push((i / 4 % 25, 10));
            } else {
                reqs.push((next, 10));
                next += 1;
            }
        }
        micro_trace(&reqs)
    }

    #[test]
    fn budget_enforced_for_lruk_scip() {
        let mut p = lruk_scip(300, 2, 1);
        for r in churn_trace() {
            p.on_request(&r);
            assert!(p.used_bytes() <= 300, "used {}", p.used_bytes());
        }
        assert_eq!(p.name(), "LRU-2-SCIP");
    }

    #[test]
    fn budget_enforced_for_lrb_scip() {
        let cfg = cdn_policies::replacement::LrbConfig {
            memory_window: 4_000,
            train_interval: 2_000,
            min_train_samples: 256,
            ..Default::default()
        };
        let mut p = lrb_scip(300, cfg, 1);
        for r in churn_trace() {
            p.on_request(&r);
            assert!(p.used_bytes() <= 300);
        }
        assert_eq!(p.name(), "LRB-SCIP");
    }

    #[test]
    fn scip_enhancement_helps_lruk_on_wonder_heavy_load() {
        use cdn_policies::replacement::LruK;
        let t = churn_trace();
        let cap = 300;
        let mut plain = LruK::new(cap);
        let mut enhanced = lruk_scip(cap, 2, 3);
        let a = replay(&mut plain, &t).miss_ratio();
        let b = replay(&mut enhanced, &t).miss_ratio();
        assert!(b <= a + 0.02, "LRU-K-SCIP {b} vs LRU-K {a}");
    }

    #[test]
    fn demoted_misses_are_bypassed_into_hl() {
        // Force all inserts demoted by an aggressive threshold.
        let mut p = Enhanced::new(LruK::with_k(30, 2), AscIp::new(1.0), "ASC-IP");
        for r in micro_trace(&[(1, 10), (2, 10), (3, 10), (4, 10)]) {
            p.on_request(&r);
        }
        // Nothing admitted; the cache stays empty.
        assert_eq!(p.used_bytes(), 0);
        assert!(!p.core.contains(cdn_cache::ObjectId(4)));
    }

    #[test]
    fn bypassed_object_rescued_on_quick_return() {
        let mut p = lruk_scip(1000, 2, 5);
        // Hammer one object: whatever the first decisions were, the ghost
        // rescue (H_l quick return → forced MRU) must converge to hits.
        let mut last_hit = false;
        for i in 0..50u64 {
            last_hit = p.on_request(&cdn_cache::Request::new(i, 7, 10)).is_hit();
        }
        assert!(last_hit, "object must end up cached and hitting");
    }

    #[test]
    fn ascip_brain_threshold_adapts() {
        // The host's own hitless victims are ASC-IP's missed ZROs: a scan
        // through LRU-K-ASC-IP must lower the real decider's threshold.
        let mut p = lruk_ascip(30, 2);
        let t0 = p.decider().threshold();
        for r in micro_trace(&(0..100).map(|i| (i, 10)).collect::<Vec<_>>()) {
            p.on_request(&r);
        }
        assert!(p.decider().threshold() < t0);
    }
}
