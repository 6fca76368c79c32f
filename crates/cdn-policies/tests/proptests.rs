//! Property tests over the whole policy zoo: every algorithm must honour
//! its byte budget, never report impossible hits, and (for the LRU-victim
//! family) agree with a reference model on the hit/miss sequence; Belady
//! lower-bounds LRU.

use std::sync::Arc as StdArc;

use cdn_cache::{CachePolicy, FxHashSet, Request};
use cdn_policies::admission::{AdaptSize, TinyLfu, TwoQ};
use cdn_policies::insertion::{
    deciders::{Bip, Lip, Mip},
    AscIp, Daaip, Dgippr, Dip, Dta, InsertionCache, Pipp, Ship,
};
use cdn_policies::replacement::{
    Arc as ArcPolicy, BeladyPolicy, Cacheus, Gdsf, GlCache, LeCar, Lhd, Lrb, Lru, LruK, S4Lru,
    SsLru,
};
use cdn_policies::replay;
use cdn_trace::next_access_table;
use proptest::prelude::*;

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..80, 1u64..200), 1..400)
}

/// Every policy in one boxed list (capacity fixed inside).
fn zoo(capacity: u64) -> Vec<Box<dyn CachePolicy>> {
    vec![
        Box::new(Lru::new(capacity)),
        Box::new(InsertionCache::new(Mip, capacity, "LRU")),
        Box::new(InsertionCache::new(Lip, capacity, "LIP")),
        Box::new(InsertionCache::new(Bip::new(1), capacity, "BIP")),
        Box::new(InsertionCache::new(Dip::new(1), capacity, "DIP")),
        Box::new(Pipp::new(capacity, 1)),
        Box::new(InsertionCache::new(Dta::new(2048), capacity, "DTA")),
        Box::new(InsertionCache::new(Ship::new(), capacity, "SHiP")),
        Box::new(Dgippr::new(capacity, 1)),
        Box::new(InsertionCache::new(Daaip::new(2048), capacity, "DAAIP")),
        Box::new(InsertionCache::new(
            AscIp::default_for_cdn(),
            capacity,
            "ASC-IP",
        )),
        Box::new(LruK::new(capacity)),
        Box::new(S4Lru::new(capacity)),
        Box::new(SsLru::new(capacity)),
        Box::new(Gdsf::new(capacity)),
        Box::new(Lhd::new(capacity, 1)),
        Box::new(ArcPolicy::new(capacity)),
        Box::new(LeCar::new(capacity, 1)),
        Box::new(Cacheus::new(capacity, 1)),
        Box::new(Lrb::new(capacity, 1)),
        Box::new(GlCache::new(capacity)),
        Box::new(TwoQ::new(capacity)),
        Box::new(TinyLfu::new(capacity)),
        Box::new(AdaptSize::new(capacity, 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Budget + sanity invariants for the entire zoo on random streams.
    #[test]
    fn all_policies_honour_budget(pairs in arb_pairs(), capacity in 100u64..2000) {
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        for mut p in zoo(capacity) {
            let mut seen: FxHashSet<u64> = FxHashSet::default();
            for r in &trace {
                let outcome = p.on_request(r);
                // A hit on a never-seen object is impossible.
                if outcome.is_hit() {
                    prop_assert!(
                        seen.contains(&r.id.0),
                        "{}: hit on first access of {}",
                        p.name(),
                        r.id
                    );
                }
                seen.insert(r.id.0);
                prop_assert!(
                    p.used_bytes() <= capacity,
                    "{}: {} > {capacity}",
                    p.name(),
                    p.used_bytes()
                );
            }
            prop_assert!(p.memory_bytes() > 0, "{}", p.name());
            let s = p.stats();
            prop_assert_eq!(s.resident_bytes, p.used_bytes());
        }
    }

    /// The InsertionCache-with-Mip must be byte-for-byte identical to LRU.
    #[test]
    fn mip_is_lru(pairs in arb_pairs(), capacity in 100u64..2000) {
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        let mut a = Lru::new(capacity);
        let mut b = InsertionCache::new(Mip, capacity, "LRU");
        for r in &trace {
            prop_assert_eq!(a.on_request(r), b.on_request(r));
        }
    }
}

proptest! {
    /// Belady lower-bounds LRU on arbitrary request streams.
    #[test]
    fn belady_lower_bounds_lru(
        pairs in proptest::collection::vec((0u64..60, 1u64..100), 1..500),
        cap in 50u64..2000,
    ) {
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        let mut oracle = BeladyPolicy::new(cap, StdArc::new(next_access_table(&trace)));
        let belady = replay(&mut oracle, &trace).miss_ratio();
        let lru = replay(&mut Lru::new(cap), &trace).miss_ratio();
        prop_assert!(belady <= lru + 1e-9, "belady {belady} vs lru {lru}");
    }
}
