//! SCIP on the LRU victim policy: Algorithm 1, its insertion-only half
//! (Algorithm 3, "SCI") and the §5 rollout node that runs plain LRU
//! placement until a deploy tick — one type, one request path.

use cdn_cache::policy::RejectReason;
use cdn_cache::{
    AccessKind, CachePolicy, InsertPos, LruQueue, ObjectId, PolicyStats, Probe, Request, Tick,
};

use crate::core::{ScipConfig, ScipCore};

/// Which of the two placement decisions the bandit takes. The rest of the
/// request path — history lookup, eviction feedback, the λ clock — runs
/// the same in every mode, so the histories are warm whenever the bandit
/// takes a decision over.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// Algorithm 1: missing and hit objects both go through SELECT.
    Full,
    /// Algorithm 3: only missing objects do; hits always go to MRU.
    InsertionOnly,
    /// §5.1 ("we have merely replaced LRU's insertion policy with SCIP"):
    /// MRU insertion and MRU promotion before this tick, Algorithm 1 from
    /// it on.
    DeployAt(Tick),
}

/// SCIP-LRU: the paper's Algorithm 1.
///
/// - Hits are treated as special misses: the object is `REMOVE`d (no
///   history write) and re-inserted through the same bimodal SELECT as a
///   missing object — this is the promotion-as-insertion unification.
/// - Misses consult `H_m`/`H_l` (adjusting `ω`), evict as needed
///   (recording victims in the history list matching their `insert_pos`),
///   then insert by SELECT.
///
/// Both histories live inside the queue, keyed through its own index (see
/// [`LruQueue::with_history`]): one probe tells a hit, a ghost hit and a
/// cold miss apart, and an eviction turns the victim's index entry into a
/// history entry in place.
///
/// [`Scip::insertion_only`] builds the Figure 7 ablation (SCI) and
/// [`Scip::deploying_at`] the §5 rollout node `tdc` serves through.
#[derive(Debug, Clone)]
pub struct Scip {
    cache: LruQueue,
    core: ScipCore,
    placement: Placement,
    stats: PolicyStats,
    /// Evicted `(id, size)` pairs since the last [`Scip::take_evictions`];
    /// `None` (the default) records nothing.
    evicted: Option<Vec<(ObjectId, u64)>>,
}

impl Scip {
    /// SCIP with the paper's defaults.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Self::with_config(
            capacity,
            ScipConfig {
                seed,
                ..ScipConfig::default()
            },
        )
    }

    /// SCIP with explicit configuration.
    pub fn with_config(capacity: u64, cfg: ScipConfig) -> Self {
        Self::build(capacity, cfg, Placement::Full)
    }

    /// SCI: Algorithm 3 — SCIP without the promotion half. Hits always go
    /// to the MRU position; only missing objects pass through the bandit.
    pub fn insertion_only(capacity: u64, cfg: ScipConfig) -> Self {
        Self::build(capacity, cfg, Placement::InsertionOnly)
    }

    /// A node that is classic LRU (MRU insertion, MRU promotion) until
    /// tick `deploy_at` and SCIP from it on — *warm*, like the production
    /// rollout: the history lists fill before the tick, so the bandit
    /// starts with a realistic view of eviction outcomes the moment it
    /// takes over. `u64::MAX` never deploys.
    pub fn deploying_at(capacity: u64, deploy_at: Tick, seed: u64) -> Self {
        let cfg = ScipConfig {
            seed,
            ..ScipConfig::default()
        };
        Self::build(capacity, cfg, Placement::DeployAt(deploy_at))
    }

    fn build(capacity: u64, cfg: ScipConfig, placement: Placement) -> Self {
        let core = ScipCore::new(capacity, cfg);
        Scip {
            cache: LruQueue::with_history(capacity, core.history_budget()),
            core,
            placement,
            stats: PolicyStats::default(),
            evicted: None,
        }
    }

    /// The decision engine (diagnostics/ablations).
    pub fn core(&self) -> &ScipCore {
        &self.core
    }

    /// The queue and its history lists: read-only, so peeking at residency
    /// first and replaying the real access after is side-effect equivalent
    /// to one blind access.
    pub fn queue(&self) -> &LruQueue {
        &self.cache
    }

    /// Start (or stop) accumulating evicted `(id, size)` pairs for
    /// [`Scip::take_evictions`]. Off by default.
    pub fn set_record_evictions(&mut self, on: bool) {
        self.evicted = on.then(Vec::new);
    }

    /// Drain the evictions recorded since the last call.
    pub fn take_evictions(&mut self) -> Vec<(ObjectId, u64)> {
        self.evicted
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Full invariant walk: queue structure, ledgers and history lists (see
    /// [`LruQueue::audit`]) and the SCIP learned state (see
    /// [`ScipCore::audit`]). Called on every request, in every placement
    /// mode, when built with `--features audit`.
    pub fn audit(&self) -> Result<(), String> {
        self.cache.audit()?;
        self.core.audit()
    }
}

impl CachePolicy for Scip {
    fn name(&self) -> &str {
        match self.placement {
            Placement::Full => "SCIP",
            Placement::InsertionOnly => "SCI",
            Placement::DeployAt(_) => "TDC-node(LRU→SCIP)",
        }
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        // Where the bandit does not decide, placement is classic LRU's and
        // no γ is drawn.
        let (select_insertion, select_promotion) = match self.placement {
            Placement::Full => (true, true),
            Placement::InsertionOnly => (true, false),
            Placement::DeployAt(tick) => {
                let deployed = req.tick >= tick;
                (deployed, deployed)
            }
        };
        let outcome = match self.cache.probe(req.id) {
            Probe::Resident(h) => {
                // PROMOTE = REMOVE (no history write) + INSERT by SELECT,
                // realised as an in-place move: one hash probe, no slab churn,
                // identical queue order and metadata.
                let pos = if select_promotion {
                    self.core.decide_promotion(self.cache.hits_at(h) + 1)
                } else {
                    InsertPos::Mru
                };
                match pos {
                    InsertPos::Mru => {
                        self.cache.record_promotion_at(h, true, req.tick);
                        self.cache.promote_to_mru_at(h);
                    }
                    InsertPos::Lru => {
                        self.cache.record_promotion_at(h, false, req.tick);
                        self.cache.demote_to_lru_at(h);
                    }
                }
                AccessKind::Hit
            }
            // Oversized: rejected before the history lookup so neither the
            // history lists nor the weights see the hopeless object.
            _ if !self.cache.admissible(req.size) => AccessKind::Rejected(RejectReason::TooLarge),
            probe => {
                // A ghost hit frees its history bytes before the evictions
                // below refill the lists; the insert then reuses its bucket.
                let hit = match probe {
                    Probe::History(slot) => Some(self.cache.take_history(slot)),
                    _ => None,
                };
                let verdict = self.core.on_history_hit(hit, req.tick);
                while self.cache.needs_eviction_for(req.size) {
                    let core = &mut self.core;
                    let victim = self
                        .cache
                        .evict_lru_into_history(|v| core.on_evict(v, req.tick))
                        .expect("nonempty");
                    if let Some(log) = &mut self.evicted {
                        log.push((victim.id, victim.size));
                    }
                    self.stats.evictions += 1;
                }
                let pos = if select_insertion {
                    // §3.2 judgement: the object's own history decides; with
                    // no history, bimodal SELECT on the learned weights.
                    verdict.unwrap_or_else(|| self.core.decide(req.size))
                } else {
                    InsertPos::Mru
                };
                match pos {
                    InsertPos::Mru => self.cache.insert_mru(req.id, req.size, req.tick),
                    InsertPos::Lru => self.cache.insert_lru(req.id, req.size, req.tick),
                };
                self.stats.insertions += 1;
                AccessKind::Miss
            }
        };
        self.core.on_request_end(outcome.is_hit());
        #[cfg(feature = "audit")]
        self.audit().expect("SCIP invariants");
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

    #[inline]
    fn prefetch_hint(&self, id: ObjectId) {
        self.cache.prefetch_lookup(id);
    }

    fn for_each_resident(&self, visit: &mut dyn FnMut(&cdn_cache::ResidentEntry)) -> bool {
        cdn_cache::export_lru_queue(&self.cache, 0, visit);
        true
    }

    fn restore_resident(&mut self, entries: &[cdn_cache::ResidentEntry]) -> bool {
        // Queue order and per-entry residency marks (insert position, hit
        // counts) are reconstructed exactly; the history lists restart
        // empty and re-accumulate from post-restart evictions.
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
    use cdn_cache::HistoryList::{Hl, Hm};
    use cdn_cache::ObjectId;
    use cdn_policies::replacement::lru::Lru;
    use cdn_policies::replay;

    fn sci(capacity: u64, seed: u64) -> Scip {
        Scip::insertion_only(
            capacity,
            ScipConfig {
                seed,
                ..ScipConfig::default()
            },
        )
    }

    #[test]
    fn capacity_and_accounting() {
        let reqs: Vec<(u64, u64)> = (0..5000).map(|i| (i * 7 % 300, 1 + i % 10)).collect();
        let t = micro_trace(&reqs);
        let mut p = Scip::new(200, 1);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 200);
        }
        let s = p.stats();
        assert!(s.evictions > 0 && s.insertions > 0);
    }

    #[test]
    fn promotion_does_not_write_history() {
        let mut p = Scip::new(100, 1);
        for r in micro_trace(&[(1, 10), (1, 10), (1, 10)]) {
            p.on_request(&r);
        }
        // Hits only re-place the object; no eviction ⇒ empty histories.
        assert_eq!(p.queue().history_len(Hm), 0);
        assert_eq!(p.queue().history_len(Hl), 0);
        assert_eq!(p.queue().get(ObjectId(1)).unwrap().hits, 2);
    }

    #[test]
    fn evictions_route_to_matching_history_list() {
        let mut p = Scip::new(20, 3);
        p.set_record_evictions(true);
        // Fill and churn; every ghost entry must match its insert mark.
        let reqs: Vec<(u64, u64)> = (0..400).map(|i| (i, 10)).collect();
        for r in micro_trace(&reqs) {
            let before: Vec<_> = p.queue().iter().collect();
            p.on_request(&r);
            for (id, _) in p.take_evictions() {
                let victim = before
                    .iter()
                    .find(|m| m.id == id)
                    .expect("victim was resident");
                let want = if victim.inserted_at_mru { Hm } else { Hl };
                assert_eq!(p.queue().history_get(id).map(|(l, _)| l), Some(want));
            }
        }
        assert!(p.queue().history_len(Hm) + p.queue().history_len(Hl) > 0);
    }

    #[test]
    fn learns_to_demote_one_hit_wonders() {
        // 80% one-hit wonders + small hot set: ω_m should fall well below
        // its 0.5 prior as H_m ghost hits accumulate… but note ghost hits
        // require *re-access* of an evicted object. One-hit wonders never
        // re-access, so the signal comes from hot objects evicted after
        // MRU inserts. Either way SCIP must beat LRU here.
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for i in 0..30_000u64 {
            if i % 5 == 0 {
                reqs.push((i / 5 % 30, 10)); // hot set of 30, distance 150
            } else {
                reqs.push((next, 10));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let cap = 500; // 50 objects: hot set doesn't survive MRU churn
        let mut scip = Scip::new(cap, 5);
        let mut lru = Lru::new(cap);
        let s = replay(&mut scip, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(s < l, "SCIP {s} vs LRU {l}");
    }

    #[test]
    fn scip_beats_sci_on_pzro_heavy_workload() {
        // Burst objects: hit exactly once shortly after insertion, then
        // dead (textbook P-ZROs). SCI promotes them to MRU where they rot;
        // SCIP learns to demote on promotion too.
        let mut reqs = Vec::new();
        let mut next = 100_000u64;
        for i in 0..40_000u64 {
            match i % 5 {
                0 => {
                    reqs.push((next, 10)); // burst insert
                }
                1 => {
                    reqs.push((next, 10)); // burst hit → P-ZRO
                    next += 1;
                }
                _ => {
                    reqs.push((i / 5 % 40, 10)); // hot set, distance ~120
                }
            }
        }
        let t = micro_trace(&reqs);
        let cap = 350;
        let mut scip = Scip::new(cap, 7);
        let mut sci = sci(cap, 7);
        let s = replay(&mut scip, &t).miss_ratio();
        let c = replay(&mut sci, &t).miss_ratio();
        assert!(s <= c + 0.01, "SCIP {s} vs SCI {c}");
    }

    #[test]
    fn sci_promotes_hits_to_mru_always() {
        let mut p = sci(100, 1);
        for r in micro_trace(&[(1, 10), (2, 10), (1, 10)]) {
            p.on_request(&r);
        }
        assert_eq!(p.cache.peek_mru().unwrap().id, ObjectId(1));
        assert!(p.cache.peek_mru().unwrap().inserted_at_mru);
    }

    #[test]
    fn deterministic_given_seed() {
        let reqs: Vec<(u64, u64)> = (0..3000).map(|i| (i * 11 % 200, 1 + i % 7)).collect();
        let t = micro_trace(&reqs);
        let mut a = Scip::new(100, 9);
        let mut b = Scip::new(100, 9);
        assert_eq!(replay(&mut a, &t).misses(), replay(&mut b, &t).misses());
    }

    #[test]
    fn behaves_as_lru_before_deploy() {
        let mut p = Scip::deploying_at(100, u64::MAX, 1);
        for r in micro_trace(&[(1, 10), (2, 10), (1, 10)]) {
            p.on_request(&r);
        }
        // Pure LRU: hit object at MRU.
        assert_eq!(p.cache.peek_mru().unwrap().id.0, 1);
        assert!(p.cache.peek_mru().unwrap().inserted_at_mru);
    }

    #[test]
    fn histories_warm_before_deploy() {
        let mut p = Scip::deploying_at(20, u64::MAX, 1);
        for r in micro_trace(&(0..50).map(|i| (i, 10)).collect::<Vec<_>>()) {
            p.on_request(&r);
        }
        assert!(p.queue().history_len(Hm) > 0, "history warmed pre-deploy");
    }

    #[test]
    fn scip_takes_over_after_deploy() {
        let mut p = Scip::deploying_at(1000, 10, 3);
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
        assert!(p.queue().history_len(Hl) > 0);
    }
}
