//! Drive a policy over a trace and collect metrics.
//!
//! The bare, unmeasured loop for callers that hold a policy value
//! (examples, per-policy unit tests, ablations that configure a policy
//! by hand); measured and streamed replays of a
//! `cdn_sim::PolicyKind` go through `cdn_sim::runner` instead. Generic over
//! `P: CachePolicy + ?Sized`, so a concrete policy and
//! `&mut dyn CachePolicy` both work. Both the interleaved `&[Request]` and
//! the structure-of-arrays [`TraceColumns`] layouts are supported; they
//! produce bit-identical metrics.

use cdn_cache::{CachePolicy, MissRatio, Request};
use cdn_trace::TraceColumns;

/// Replay a trace through a policy, returning cumulative metrics.
pub fn replay<P: CachePolicy + ?Sized>(policy: &mut P, trace: &[Request]) -> MissRatio {
    replay_iter(policy, trace.iter().copied())
}

/// Replay a structure-of-arrays trace (same metrics as [`replay`]).
pub fn replay_columns<P: CachePolicy + ?Sized>(policy: &mut P, trace: &TraceColumns) -> MissRatio {
    replay_iter(policy, trace.iter())
}

fn replay_iter<P: CachePolicy + ?Sized>(
    policy: &mut P,
    requests: impl Iterator<Item = Request>,
) -> MissRatio {
    let mut m = MissRatio::new();
    for r in requests {
        if policy.on_request(&r).is_hit() {
            m.record_hit(r.size);
        } else {
            m.record_miss(r.size);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::{deciders::Mip, InsertionCache};
    use crate::replacement::Lru;
    use cdn_cache::object::micro_trace;

    #[test]
    fn replay_counts_hits() {
        let t = micro_trace(&[(1, 1), (1, 1), (2, 1), (1, 1)]);
        let mut p = InsertionCache::new(Mip, 10, "LRU");
        let m = replay(&mut p, &t);
        assert_eq!(m.hits(), 2);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn generic_dyn_and_columns_agree() {
        let reqs: Vec<(u64, u64)> = (0..2_000).map(|i| (i * 11 % 90, 1 + i % 40)).collect();
        let t = micro_trace(&reqs);
        let cols = TraceColumns::from_requests(&t);
        let mono = replay(&mut Lru::new(500), &t);
        let via_cols = replay_columns(&mut Lru::new(500), &cols);
        let mut boxed: Box<dyn CachePolicy> = Box::new(Lru::new(500));
        let dynamic = replay(&mut *boxed, &t);
        for m in [&via_cols, &dynamic] {
            assert_eq!(mono.hits(), m.hits());
            assert_eq!(mono.misses(), m.misses());
            assert_eq!(mono.miss_bytes(), m.miss_bytes());
        }
    }
}
