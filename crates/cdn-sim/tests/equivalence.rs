//! Equivalence property tests for the replay engine: the monomorphized
//! fast path, the `dyn CachePolicy` reference path, and the SoA-columns
//! path must be bit-identical — same `MissRatio` counters and the same
//! `MetricsRecorder` interval snapshots — on random traces, for a
//! representative policy slice (LRU, DIP, TinyLFU, SCIP).

use cdn_cache::{CachePolicy, MissRatio, Request};
use cdn_policies::admission::TinyLfu;
use cdn_policies::insertion::{Dip, InsertionCache};
use cdn_policies::replacement::Lru;
use cdn_policies::{replay, replay_columns, replay_with_recorder};
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

/// `fast` replays through the statically-dispatched generic (`P` is the
/// concrete policy type, as in the sweep fast path); `slow` is the same
/// initial state behind `&mut dyn CachePolicy`. All three replay flavours
/// must agree exactly.
fn check_one<P: CachePolicy + Clone>(fast: P, trace: &[Request], interval: u64) {
    let label = fast.name().to_string();
    let columns = TraceColumns::from_requests(trace);

    let mut mono = fast.clone();
    let mut cols = fast.clone();
    let mut boxed: Box<dyn CachePolicy> = Box::new(fast.clone());
    let a = replay(&mut mono, trace);
    let b = replay(&mut *boxed, trace);
    let c = replay_columns(&mut cols, &columns);
    assert_same_totals(&label, &a, &b);
    assert_same_totals(&label, &a, &c);

    let mut mono_rec = fast.clone();
    let mut boxed_rec: Box<dyn CachePolicy> = Box::new(fast);
    let ra = replay_with_recorder(&mut mono_rec, trace, interval);
    let rb = replay_with_recorder(&mut *boxed_rec, trace, interval);
    assert_same_totals(&label, ra.totals(), rb.totals());
    assert_eq!(
        ra.snapshots(),
        rb.snapshots(),
        "{label}: interval snapshots diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Monomorphized, `dyn`, SoA-columns and recorder replays all agree
    /// exactly across the policy slice on random traces.
    #[test]
    fn replay_paths_identical(trace in arb_trace(), capacity in 200u64..4000, interval in 1u64..64) {
        check_one(Lru::new(capacity), &trace, interval);
        check_one(InsertionCache::new(Dip::new(1), capacity, "DIP"), &trace, interval);
        check_one(TinyLfu::new(capacity), &trace, interval);
        check_one(Scip::new(capacity, 7), &trace, interval);
    }
}
