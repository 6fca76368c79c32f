//! DIP: Dynamic Insertion Policy via set dueling (Qureshi et al. 2007).
//!
//! **Adaptation from CPU caches**: DIP dedicates a few cache *sets* to pure
//! LRU (MIP) and a few to BIP, and a saturating policy-selector counter
//! (PSEL) tallies which leader group misses less; follower sets use the
//! winner. An object cache has no sets, so we hash object ids into leader
//! groups instead: ids with `mix64(id) % 32 == 0` are MIP leaders,
//! `== 1` are BIP leaders, everything else follows PSEL. This preserves
//! DIP's property that the duel is decided by real misses on a sampled
//! ~1/32 of the traffic.

use cdn_cache::hash::mix64;
use cdn_cache::{EntryMeta, InsertPos, Request, SimRng};

use super::{InsertionDecider, MissDecision, PromoteAction};

const LEADER_MOD: u64 = 32;
const PSEL_MAX: i32 = 1024;

/// Set-dueling dynamic insertion.
#[derive(Debug, Clone)]
pub struct Dip {
    /// PSEL > 0 favours BIP, ≤ 0 favours MIP.
    psel: i32,
    epsilon: f64,
    rng: SimRng,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    MipLeader,
    BipLeader,
    Follower,
}

fn group_of(id: u64) -> Group {
    match mix64(id) % LEADER_MOD {
        0 => Group::MipLeader,
        1 => Group::BipLeader,
        _ => Group::Follower,
    }
}

impl Dip {
    /// DIP with BIP's classic ε = 1/32.
    pub fn new(seed: u64) -> Self {
        Dip {
            psel: 0,
            epsilon: 1.0 / 32.0,
            rng: SimRng::new(seed),
        }
    }

    fn bip_pos(&mut self) -> InsertPos {
        if self.rng.chance(self.epsilon) {
            InsertPos::Mru
        } else {
            InsertPos::Lru
        }
    }
}

impl InsertionDecider for Dip {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let pos = match group_of(req.id.0) {
            Group::MipLeader => {
                // A miss on a MIP leader is evidence against MIP.
                self.psel = (self.psel + 1).min(PSEL_MAX);
                InsertPos::Mru
            }
            Group::BipLeader => {
                self.psel = (self.psel - 1).max(-PSEL_MAX);
                self.bip_pos()
            }
            Group::Follower => {
                if self.psel > 0 {
                    self.bip_pos()
                } else {
                    InsertPos::Mru
                }
            }
        };
        MissDecision::at(pos)
    }

    fn on_hit(&mut self, _req: &Request, _meta: &EntryMeta) -> PromoteAction {
        PromoteAction::ToMru
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::deciders::{Lip, Mip};
    use crate::insertion::InsertionCache;
    use crate::replay;
    use cdn_cache::object::micro_trace;

    #[test]
    fn leader_groups_are_sparse_and_disjoint() {
        let mut mip = 0;
        let mut bip = 0;
        for id in 0..32_000u64 {
            match group_of(id) {
                Group::MipLeader => mip += 1,
                Group::BipLeader => bip += 1,
                Group::Follower => {}
            }
        }
        assert!((800..1200).contains(&mip), "mip leaders {mip}");
        assert!((800..1200).contains(&bip), "bip leaders {bip}");
    }

    #[test]
    fn psel_moves_toward_bip_on_thrash() {
        // Cyclic scan larger than the cache: MIP leaders miss every time,
        // BIP leaders eventually hold their objects.
        let reqs: Vec<(u64, u64)> = (0..4000).map(|i| (i % 40, 1)).collect();
        let t = micro_trace(&reqs);
        let mut p = InsertionCache::new(Dip::new(5), 20, "DIP");
        replay(&mut p, &t);
        assert!(p.decider().psel > 0, "psel {}", p.decider().psel);
    }

    #[test]
    fn dip_tracks_the_better_of_lip_and_mip() {
        // On a thrashing loop DIP should land near BIP/LIP, far from MIP.
        let reqs: Vec<(u64, u64)> = (0..6000).map(|i| (i % 60, 1)).collect();
        let t = micro_trace(&reqs);
        let mr = |mr: f64| mr;
        let mut dip = InsertionCache::new(Dip::new(7), 30, "DIP");
        let mut lipc = InsertionCache::new(Lip, 30, "LIP");
        let mut mipc = InsertionCache::new(Mip, 30, "LRU");
        let d = mr(replay(&mut dip, &t).miss_ratio());
        let l = mr(replay(&mut lipc, &t).miss_ratio());
        let m = mr(replay(&mut mipc, &t).miss_ratio());
        assert!(m > l, "sanity: MIP should thrash ({m} vs {l})");
        assert!(
            d < (l + m) / 2.0,
            "DIP {d} should be near LIP {l}, not MIP {m}"
        );
    }

    #[test]
    fn dip_follows_mip_on_recency_friendly_stream() {
        // Strong temporal locality: MIP wins and PSEL should stay ≤ ~0.
        let mut reqs = Vec::new();
        for i in 0..3000u64 {
            reqs.push((i / 10 % 8, 1)); // slowly rotating hot set that fits
        }
        let t = micro_trace(&reqs);
        let mut dip = InsertionCache::new(Dip::new(9), 8, "DIP");
        let mut mipc = InsertionCache::new(Mip, 8, "LRU");
        let d = replay(&mut dip, &t).miss_ratio();
        let m = replay(&mut mipc, &t).miss_ratio();
        assert!(d <= m + 0.02, "DIP {d} vs MIP {m}");
    }
}
