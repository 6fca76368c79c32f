//! Property-based tests for the cache substrate: the queues' and ghost
//! lists' byte accounting invariants are exercised with random operation
//! sequences.

use cdn_cache::ghost::GhostEntry;
use cdn_cache::{GhostList, LruQueue, ObjectId, SegmentedQueue};
use proptest::prelude::*;

proptest! {
    /// LruQueue never exceeds capacity when evictions are honoured, and its
    /// byte accounting matches a recomputed sum.
    #[test]
    fn lru_queue_byte_accounting(
        ops in proptest::collection::vec((0u64..50, 1u64..200, any::<bool>()), 1..300)
    ) {
        let capacity = 1000u64;
        let mut q = LruQueue::new(capacity);
        for (tick, (id, size, at_mru)) in ops.into_iter().enumerate() {
            let id = ObjectId(id);
            if q.contains(id) {
                q.record_hit(id, tick as u64);
                q.promote_to_mru(id);
            } else if size <= capacity {
                while q.needs_eviction_for(size) {
                    prop_assert!(q.evict_lru().is_some());
                }
                if at_mru {
                    q.insert_mru(id, size, tick as u64);
                } else {
                    q.insert_lru(id, size, tick as u64);
                }
            }
            prop_assert!(q.used_bytes() <= capacity);
            let recomputed: u64 = q.iter().map(|m| m.size).sum();
            prop_assert_eq!(recomputed, q.used_bytes());
            prop_assert_eq!(q.iter().count(), q.len());
        }
    }

    /// GhostList stays within its byte budget and membership matches its
    /// iterated contents.
    #[test]
    fn ghost_list_budget(
        ops in proptest::collection::vec((0u64..40, 1u64..150), 1..300)
    ) {
        let budget = 500u64;
        let mut g = GhostList::new(budget);
        for (tick, (id, size)) in ops.into_iter().enumerate() {
            g.add(GhostEntry {
                id: ObjectId(id),
                size,
                evicted_tick: tick as u64,
                tag: 0,
            });
            prop_assert!(g.used_bytes() <= budget);
            let sum: u64 = g.iter().map(|e| e.size).sum();
            prop_assert_eq!(sum, g.used_bytes());
            for e in g.iter() {
                prop_assert!(g.contains(e.id));
            }
        }
    }

    /// SegmentedQueue conserves bytes: inserted = resident + evicted, and
    /// per-segment budgets hold after every insert.
    #[test]
    fn segmented_queue_conservation(
        n_segments in 1usize..5,
        ops in proptest::collection::vec((0u64..60, 1u64..100, 0usize..8), 1..200)
    ) {
        let capacity = 800u64;
        let mut q = SegmentedQueue::equal(capacity, n_segments);
        let mut inserted = 0u64;
        let mut evicted = 0u64;
        for (tick, (id, size, seg)) in ops.into_iter().enumerate() {
            let id = ObjectId(id);
            let seg = seg % n_segments;
            if q.contains(id) {
                let target = (q.segment_of(id).unwrap() + 1).min(n_segments - 1);
                for v in q.hit_move_to(id, target, tick as u64) {
                    evicted += v.size;
                }
            } else {
                inserted += size;
                for v in q.insert(seg, id, size, tick as u64) {
                    evicted += v.size;
                }
            }
            prop_assert_eq!(q.used_bytes(), inserted - evicted);
            prop_assert!(q.used_bytes() <= capacity);
        }
    }
}
