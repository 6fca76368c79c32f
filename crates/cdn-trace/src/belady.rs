//! Belady's MIN: next-access precomputation and the offline reference.
//!
//! Belady (1966) evicts the object whose next access is farthest in the
//! future. When every object has the same size, this is optimal: its
//! object miss ratio is an exact floor under every online policy's (the
//! paper plots it in Figures 8-11 as the unachievable floor). For
//! variable-size objects we use the standard CDN extension: evict
//! farthest-next-access first until the new object fits, and bypass
//! objects with no future access at all (keeping them can never produce a
//! hit). With variable sizes that extension is a heuristic, not a bound:
//! an online policy can beat its object miss ratio, and it is no floor at
//! all on byte miss ratio ("Beyond Belady", arXiv 2212.13671).

use std::collections::BTreeSet;

use cdn_cache::{FxHashMap, MissRatio, ObjectId, Request};

/// Sentinel "no further access" value in a next-access table.
pub const NO_NEXT: u64 = u64::MAX;

/// For each request index `i`, the index of the next request to the same
/// object, or [`NO_NEXT`]. O(n) time, one backward pass.
pub fn next_access_table(trace: &[Request]) -> Vec<u64> {
    let mut next: Vec<u64> = vec![NO_NEXT; trace.len()];
    let mut last_seen: FxHashMap<ObjectId, u64> = FxHashMap::default();
    for (i, r) in trace.iter().enumerate().rev() {
        if let Some(&j) = last_seen.get(&r.id) {
            next[i] = j;
        }
        last_seen.insert(r.id, i as u64);
    }
    next
}

/// Offline Belady MIN replay over a trace.
#[derive(Debug)]
pub struct BeladyOracle {
    capacity: u64,
    used: u64,
    /// (next_access, id) ordered so the farthest future is the last element.
    by_next: BTreeSet<(u64, ObjectId)>,
    resident: FxHashMap<ObjectId, (u64, u64)>, // id -> (next_access, size)
}

impl BeladyOracle {
    /// Oracle with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        BeladyOracle {
            capacity,
            used: 0,
            by_next: BTreeSet::new(),
            resident: FxHashMap::default(),
        }
    }

    /// Process one request with its precomputed next access; returns hit.
    pub fn access(&mut self, req: &Request, next_access: u64) -> bool {
        if let Some(&(old_next, size)) = self.resident.get(&req.id) {
            // Hit: re-key to the new next access.
            self.by_next.remove(&(old_next, req.id));
            if next_access == NO_NEXT {
                // No future use: free the space immediately (optimal).
                self.resident.remove(&req.id);
                self.used -= size;
            } else {
                self.by_next.insert((next_access, req.id));
                self.resident.insert(req.id, (next_access, size));
            }
            return true;
        }
        // Miss. Bypass objects that are never requested again or too big.
        if next_access == NO_NEXT || req.size > self.capacity {
            return false;
        }
        // Evict farthest-future objects until the new one fits, but never
        // evict an object whose next access is *sooner* than the incoming
        // one's (keeping those dominates admitting the newcomer).
        while self.used.saturating_add(req.size) > self.capacity {
            let &(far_next, victim) = self.by_next.iter().next_back().expect("over capacity");
            if far_next <= next_access {
                // Everything resident is more urgent: bypass the newcomer.
                return false;
            }
            self.by_next.remove(&(far_next, victim));
            let (_, vsize) = self.resident.remove(&victim).expect("resident");
            self.used -= vsize;
        }
        self.by_next.insert((next_access, req.id));
        self.resident.insert(req.id, (next_access, req.size));
        self.used += req.size;
        false
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Replay an entire trace and return its object miss ratio.
    pub fn run(trace: &[Request], capacity: u64) -> f64 {
        let next = next_access_table(trace);
        let mut oracle = BeladyOracle::new(capacity);
        let mut m = MissRatio::new();
        for (i, r) in trace.iter().enumerate() {
            if oracle.access(r, next[i]) {
                m.record_hit(r.size);
            } else {
                m.record_miss(r.size);
            }
        }
        m.miss_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;
    use cdn_cache::SimRng;

    #[test]
    fn next_access_table_basics() {
        let t = micro_trace(&[(1, 1), (2, 1), (1, 1), (1, 1)]);
        let n = next_access_table(&t);
        assert_eq!(n, vec![2, NO_NEXT, 3, NO_NEXT]);
    }

    #[test]
    fn classic_belady_example() {
        // Sequence 1 2 3 1 2 3 with capacity 2 (unit sizes):
        // MIN keeps {1,2} through t=4 by never admitting 3 (its reuse is
        // farther), giving hits at t=3 and t=4: miss ratio 4/6.
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (3, 1)]);
        let mr = BeladyOracle::run(&t, 2);
        assert!((mr - 4.0 / 6.0).abs() < 1e-12, "mr {mr}");
    }

    #[test]
    fn no_future_objects_bypass() {
        let t = micro_trace(&[(1, 1), (2, 1), (1, 1)]);
        let next = next_access_table(&t);
        let mut o = BeladyOracle::new(1);
        assert!(!o.access(&t[0], next[0])); // 1 admitted (future at 2)
        assert!(!o.access(&t[1], next[1])); // 2 bypassed (no future)
        assert!(o.access(&t[2], next[2])); // 1 hits
        assert_eq!(o.used_bytes(), 0); // final access had no future: freed
    }

    #[test]
    fn belady_lower_bounds_lru_on_random_traces() {
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            let trace: Vec<_> = (0..2000)
                .map(|t| cdn_cache::Request::new(t, rng.u64_below(50), 1 + rng.u64_below(100)))
                .collect();
            let cap = 500;
            let belady = BeladyOracle::run(&trace, cap);
            // Plain LRU replay.
            let mut cache = cdn_cache::LruQueue::new(cap);
            let mut m = MissRatio::new();
            for r in &trace {
                if cache.contains(r.id) {
                    m.record_hit(r.size);
                    cache.record_hit(r.id, r.tick);
                    cache.promote_to_mru(r.id);
                } else {
                    m.record_miss(r.size);
                    if !cache.admissible(r.size) {
                        continue;
                    }
                    while cache.needs_eviction_for(r.size) {
                        cache.evict_lru();
                    }
                    cache.insert_mru(r.id, r.size, r.tick);
                }
            }
            assert!(
                belady <= m.miss_ratio() + 1e-9,
                "belady {belady} > lru {}",
                m.miss_ratio()
            );
        }
    }

    #[test]
    fn belady_optimal_on_tiny_traces_vs_brute_force() {
        // Exhaustively verify MIN is a lower bound on every possible online
        // eviction schedule for tiny unit-size traces: compare against the
        // best of all "evict one of the residents" decision trees.
        fn best_hits(trace: &[(u64, u64)], i: usize, cache: &mut Vec<u64>, cap: usize) -> u32 {
            if i == trace.len() {
                return 0;
            }
            let (id, _) = trace[i];
            if cache.contains(&id) {
                return 1 + best_hits(trace, i + 1, cache, cap);
            }
            // Option A: bypass.
            let mut best = best_hits(trace, i + 1, cache, cap);
            // Option B: admit (evicting each possible victim if full).
            if cache.len() < cap {
                cache.push(id);
                best = best.max(best_hits(trace, i + 1, cache, cap));
                cache.pop();
            } else {
                for v in 0..cache.len() {
                    let old = cache[v];
                    cache[v] = id;
                    best = best.max(best_hits(trace, i + 1, cache, cap));
                    cache[v] = old;
                }
            }
            best
        }

        let mut rng = SimRng::new(11);
        for _ in 0..20 {
            let pairs: Vec<(u64, u64)> = (0..10).map(|_| (rng.u64_below(4), 1)).collect();
            let t = micro_trace(&pairs);
            let belady_mr = BeladyOracle::run(&t, 2);
            let opt_hits = best_hits(&pairs, 0, &mut Vec::new(), 2);
            let opt_mr = 1.0 - opt_hits as f64 / pairs.len() as f64;
            assert!(
                (belady_mr - opt_mr).abs() < 1e-9,
                "belady {belady_mr} vs brute-force optimum {opt_mr} on {pairs:?}"
            );
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut rng = SimRng::new(13);
        let trace: Vec<_> = (0..3000)
            .map(|t| cdn_cache::Request::new(t, rng.u64_below(100), 1 + rng.u64_below(300)))
            .collect();
        let next = next_access_table(&trace);
        let mut o = BeladyOracle::new(1000);
        for (i, r) in trace.iter().enumerate() {
            o.access(r, next[i]);
            assert!(o.used_bytes() <= 1000);
        }
    }
}
