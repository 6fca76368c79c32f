//! The three elementary placement deciders: MIP, LIP and BIP
//! (Qureshi et al., "Adaptive insertion policies for high performance
//! caching", ISCA 2007).

use cdn_cache::{EntryMeta, InsertPos, Request, SimRng};

use super::{InsertionDecider, MissDecision, PromoteAction};

/// MRU insertion policy — the classic LRU algorithm's insertion half.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mip;

impl InsertionDecider for Mip {
    fn on_miss(&mut self, _req: &Request) -> MissDecision {
        MissDecision::at(InsertPos::Mru)
    }

    fn on_hit(&mut self, _req: &Request, _meta: &EntryMeta) -> PromoteAction {
        PromoteAction::ToMru
    }
}

/// LRU insertion policy: every missing object enters at the LRU end; a hit
/// promotes to MRU. Thrash-resistant, but new popular objects struggle to
/// establish themselves (the paper's Figure 8 discussion).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lip;

impl InsertionDecider for Lip {
    fn on_miss(&mut self, _req: &Request) -> MissDecision {
        MissDecision::at(InsertPos::Lru)
    }

    fn on_hit(&mut self, _req: &Request, _meta: &EntryMeta) -> PromoteAction {
        PromoteAction::ToMru
    }
}

/// Bimodal insertion policy: LIP, except a small fraction `epsilon` of
/// misses insert at MRU so genuinely popular newcomers can take hold.
#[derive(Debug, Clone)]
pub struct Bip {
    /// Probability of an MRU insert.
    pub epsilon: f64,
    rng: SimRng,
}

impl Bip {
    /// Qureshi's ε = 1/32 default.
    pub fn new(seed: u64) -> Self {
        Self::with_epsilon(1.0 / 32.0, seed)
    }

    /// Custom throttle.
    fn with_epsilon(epsilon: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon));
        Bip {
            epsilon,
            rng: SimRng::new(seed),
        }
    }
}

impl InsertionDecider for Bip {
    fn on_miss(&mut self, _req: &Request) -> MissDecision {
        if self.rng.chance(self.epsilon) {
            MissDecision::at(InsertPos::Mru)
        } else {
            MissDecision::at(InsertPos::Lru)
        }
    }

    fn on_hit(&mut self, _req: &Request, _meta: &EntryMeta) -> PromoteAction {
        PromoteAction::ToMru
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
    fn mip_inserts_at_mru() {
        let mut p = InsertionCache::new(Mip, 10, "LRU");
        for r in micro_trace(&[(1, 1), (2, 1)]) {
            p.on_request(&r);
        }
        assert_eq!(p.queue().peek_mru().unwrap().id.0, 2);
        assert!(p.queue().peek_mru().unwrap().inserted_at_mru);
    }

    #[test]
    fn lip_inserts_at_lru() {
        let mut p = InsertionCache::new(Lip, 10, "LIP");
        for r in micro_trace(&[(1, 1), (2, 1)]) {
            p.on_request(&r);
        }
        assert_eq!(p.queue().peek_lru().unwrap().id.0, 2);
        assert!(!p.queue().peek_lru().unwrap().inserted_at_mru);
    }

    #[test]
    fn bip_mixes_positions() {
        let mut p = InsertionCache::new(Bip::with_epsilon(0.5, 3), 1_000_000, "BIP");
        for r in micro_trace(&(0..1000).map(|i| (i, 1)).collect::<Vec<_>>()) {
            p.on_request(&r);
        }
        let mru_inserts = p.queue().iter().filter(|m| m.inserted_at_mru).count();
        assert!(
            (300..700).contains(&mru_inserts),
            "mru inserts {mru_inserts}"
        );
    }

    #[test]
    fn bip_epsilon_zero_is_lip() {
        let t = micro_trace(&(0..200).map(|i| (i % 7, 1)).collect::<Vec<_>>());
        let mut bip = InsertionCache::new(Bip::with_epsilon(0.0, 1), 3, "BIP0");
        let mut lip = InsertionCache::new(Lip, 3, "LIP");
        let a = replay(&mut bip, &t).miss_ratio();
        let b = replay(&mut lip, &t).miss_ratio();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn lip_beats_mip_on_scan_workload() {
        // Working set {0,1} with an interleaved one-hit-wonder scan: LIP
        // keeps the hot pair, MIP thrashes.
        let mut reqs = Vec::new();
        let mut next = 100u64;
        for i in 0..600u64 {
            if i % 3 == 0 {
                reqs.push((i / 3 % 2, 1));
            } else {
                reqs.push((next, 1));
                next += 1;
            }
        }
        let t = micro_trace(&reqs);
        let mut lip = InsertionCache::new(Lip, 2, "LIP");
        let mut mip = InsertionCache::new(Mip, 2, "LRU");
        let lip_mr = replay(&mut lip, &t).miss_ratio();
        let mip_mr = replay(&mut mip, &t).miss_ratio();
        assert!(lip_mr < mip_mr, "LIP {lip_mr} vs MIP {mip_mr}");
    }
}
