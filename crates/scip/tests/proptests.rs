//! Property tests for SCIP's invariants: weight normalisation, λ bounds,
//! history budgets and byte accounting under arbitrary request streams.

use cdn_cache::HistoryList::{Hl, Hm};
use cdn_cache::{CachePolicy, Request};
use proptest::prelude::*;
use scip::{Scip, ScipConfig, UpdateLr};

fn arb_trace() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..200, 1u64..500), 1..400)
}

proptest! {
    /// Scip never exceeds capacity, and its bandit state stays in range
    /// for any request stream.
    #[test]
    fn scip_invariants(pairs in arb_trace(), seed in 0u64..1000) {
        let capacity = 2_000u64;
        let mut p = Scip::with_config(
            capacity,
            ScipConfig {
                seed,
                update_interval: 50,
                ..ScipConfig::default()
            },
        );
        for (tick, &(id, size)) in pairs.iter().enumerate() {
            p.on_request(&Request::new(tick as u64, id, size));
            prop_assert!(p.used_bytes() <= capacity);
            let c = p.core();
            prop_assert!((0.0..=1.0).contains(&c.omega_m()));
            prop_assert!((0.0..=1.0).contains(&c.omega_p()));
            prop_assert!((c.omega_m_for(size) + c.omega_l_for(size) - 1.0).abs() < 1e-9);
            prop_assert!((0.001..=1.0).contains(&c.lambda()));
            let q = p.queue();
            prop_assert!(q.history_used_bytes(Hm) <= q.history_budget());
            prop_assert!(q.history_used_bytes(Hl) <= q.history_budget());
        }
    }

    /// SCI (insertion only) keeps the same invariants.
    #[test]
    fn sci_invariants(pairs in arb_trace(), seed in 0u64..1000) {
        let capacity = 2_000u64;
        let mut p = Scip::insertion_only(
            capacity,
            ScipConfig {
                seed,
                update_interval: 50,
                ..ScipConfig::default()
            },
        );
        for (tick, &(id, size)) in pairs.iter().enumerate() {
            p.on_request(&Request::new(tick as u64, id, size));
            prop_assert!(p.used_bytes() <= capacity);
        }
    }

    /// Algorithm 2 keeps λ within [0.001, 1] for any hit-rate sequence.
    #[test]
    fn updatelr_lambda_bounded(rates in proptest::collection::vec(0.0f64..1.0, 1..200)) {
        let mut u = UpdateLr::new(0.1, 10, 7);
        for pi in rates {
            u.update(pi);
            prop_assert!((0.001..=1.0).contains(&u.lambda()), "λ {}", u.lambda());
        }
    }

    /// A resident object is never simultaneously in a history list (the
    /// paper's REMOVE-vs-EVICT distinction): ghost hits on resident ids
    /// are impossible because insertion consumes the ghost entry, and
    /// every remembered id still resolves to its history slot.
    #[test]
    fn resident_objects_not_in_history(pairs in arb_trace()) {
        let capacity = 1_000u64;
        let mut p = Scip::new(capacity, 3);
        for (tick, &(id, size)) in pairs.iter().enumerate() {
            p.on_request(&Request::new(tick as u64, id, size));
        }
        let q = p.queue();
        for meta in q.iter() {
            prop_assert!(q.history_get(meta.id).is_none(), "{} in a history", meta.id);
        }
        for list in [Hm, Hl] {
            for e in q.history_iter(list) {
                prop_assert!(!q.contains(e.id), "{} resident", e.id);
                prop_assert_eq!(q.history_get(e.id), Some((list, e)));
            }
        }
        prop_assert!(p.audit().is_ok(), "{:?}", p.audit());
    }

    /// The enhancement wrapper honours the byte budget for any stream.
    #[test]
    fn enhanced_lruk_budget(pairs in arb_trace(), seed in 0u64..100) {
        let capacity = 2_000u64;
        let mut p = scip::enhance::lruk_scip(capacity, 2, seed);
        for (tick, &(id, size)) in pairs.iter().enumerate() {
            p.on_request(&Request::new(tick as u64, id, size));
            prop_assert!(p.used_bytes() <= capacity);
        }
    }

    /// Determinism: identical seeds and streams give identical outcomes.
    #[test]
    fn scip_deterministic(pairs in arb_trace(), seed in 0u64..50) {
        let run = |s: u64| {
            let mut p = Scip::new(1_500, s);
            let mut hits = 0u64;
            for (tick, &(id, size)) in pairs.iter().enumerate() {
                hits += u64::from(p.on_request(&Request::new(tick as u64, id, size)).is_hit());
            }
            hits
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
