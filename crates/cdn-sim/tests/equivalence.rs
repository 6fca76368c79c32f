//! Equivalence property tests for `cdn_policies`' bare replay loop: a
//! concrete policy, the same policy behind `&mut dyn CachePolicy`, and the
//! SoA-columns layout must produce bit-identical `MissRatio` counters on
//! random traces, for a representative policy slice (LRU, DIP, TinyLFU,
//! SCIP).

use cdn_cache::{CachePolicy, MissRatio, Request};
use cdn_policies::admission::TinyLfu;
use cdn_policies::insertion::{Dip, InsertionCache};
use cdn_policies::replacement::Lru;
use cdn_policies::{replay, replay_columns};
use cdn_trace::TraceColumns;
use proptest::prelude::*;
use scip::Scip;

fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec((0u64..120, 1u64..500), 1..600).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(t, (id, size))| Request::new(t as u64, id, size))
            .collect()
    })
}

fn assert_same_totals(label: &str, a: &MissRatio, b: &MissRatio) {
    assert_eq!(a.requests(), b.requests(), "{label}: requests diverge");
    assert_eq!(a.hits(), b.hits(), "{label}: hits diverge");
    assert_eq!(a.misses(), b.misses(), "{label}: misses diverge");
    assert_eq!(
        a.miss_bytes(),
        b.miss_bytes(),
        "{label}: miss bytes diverge"
    );
}

/// `policy` replays as its concrete type, behind `&mut dyn CachePolicy`,
/// and over SoA columns, from the same initial state. All three replay
/// flavours must agree exactly.
fn check_one<P: CachePolicy + Clone>(policy: P, trace: &[Request]) {
    let label = policy.name().to_string();
    let columns = TraceColumns::from_requests(trace);

    let mut mono = policy.clone();
    let mut cols = policy.clone();
    let mut boxed: Box<dyn CachePolicy> = Box::new(policy);
    let a = replay(&mut mono, trace);
    let b = replay(&mut *boxed, trace);
    let c = replay_columns(&mut cols, &columns);
    assert_same_totals(&label, &a, &b);
    assert_same_totals(&label, &a, &c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concrete, `dyn` and SoA-columns replays all agree exactly across
    /// the policy slice on random traces.
    #[test]
    fn replay_paths_identical(trace in arb_trace(), capacity in 200u64..4000) {
        check_one(Lru::new(capacity), &trace);
        check_one(InsertionCache::new(Dip::new(1), capacity, "DIP"), &trace);
        check_one(TinyLfu::new(capacity), &trace);
        check_one(Scip::new(capacity, 7), &trace);
    }
}
