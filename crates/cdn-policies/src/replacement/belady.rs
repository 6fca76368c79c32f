//! Belady's MIN as a [`CachePolicy`], for plotting the offline reference
//! alongside online policies in every figure.
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
use std::sync::Arc as StdArc;

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request};
use cdn_trace::NO_NEXT;

/// The offline optimal policy. Construct with the trace's precomputed
/// next-access table ([`cdn_trace::next_access_table`]); requests must then
/// be replayed in order, and `req.tick` must index that table.
#[derive(Debug)]
pub struct BeladyPolicy {
    next: StdArc<Vec<u64>>,
    capacity: u64,
    used: u64,
    /// (next_access, id) ordered so the farthest future is the last element.
    by_next: BTreeSet<(u64, ObjectId)>,
    resident: FxHashMap<ObjectId, (u64, u64)>, // id -> (next_access, size)
    stats: PolicyStats,
}

impl BeladyPolicy {
    /// Oracle policy over a specific trace's next-access table.
    pub fn new(capacity: u64, next: StdArc<Vec<u64>>) -> Self {
        BeladyPolicy {
            next,
            capacity,
            used: 0,
            by_next: BTreeSet::new(),
            resident: FxHashMap::default(),
            stats: PolicyStats::default(),
        }
    }

    /// Admit a missing object with next access `next_access`, evicting
    /// farthest-future objects until it fits, or bypass it.
    fn admit(&mut self, req: &Request, next_access: u64) {
        // No future use: keeping it can never produce a hit.
        if next_access == NO_NEXT {
            return;
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            let &(far_next, victim) = self.by_next.iter().next_back().expect("over capacity");
            if far_next <= next_access {
                // Everything resident is more urgent: bypass the newcomer.
                return;
            }
            self.by_next.remove(&(far_next, victim));
            let (_, vsize) = self.resident.remove(&victim).expect("resident");
            self.used -= vsize;
        }
        self.by_next.insert((next_access, req.id));
        self.resident.insert(req.id, (next_access, req.size));
        self.used += req.size;
    }
}

impl CachePolicy for BeladyPolicy {
    fn name(&self) -> &str {
        "Belady"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let next_access = self.next[req.tick as usize];
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
            return AccessKind::Hit;
        }
        if req.size > self.capacity {
            // Uniform oversized contract: the bypass of a can-never-fit
            // object is a rejection, not an ordinary miss.
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        self.admit(req, next_access);
        self.stats.insertions += 1;
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn memory_bytes(&self) -> usize {
        self.next.len() * 8
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::lru::Lru;
    use crate::replay;
    use cdn_cache::object::micro_trace;
    use cdn_cache::SimRng;
    use cdn_trace::next_access_table;

    fn belady(capacity: u64, trace: &[Request]) -> BeladyPolicy {
        BeladyPolicy::new(capacity, StdArc::new(next_access_table(trace)))
    }

    fn miss_ratio(p: &mut dyn CachePolicy, trace: &[Request]) -> f64 {
        replay(p, trace).miss_ratio()
    }

    #[test]
    fn classic_belady_example() {
        // Sequence 1 2 3 1 2 3 with capacity 2 (unit sizes):
        // MIN keeps {1,2} through t=4 by never admitting 3 (its reuse is
        // farther), giving hits at t=3 and t=4: miss ratio 4/6.
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (3, 1)]);
        let mr = miss_ratio(&mut belady(2, &t), &t);
        assert!((mr - 4.0 / 6.0).abs() < 1e-12, "mr {mr}");
    }

    #[test]
    fn no_future_objects_bypass() {
        let t = micro_trace(&[(1, 1), (2, 1), (1, 1)]);
        let mut p = belady(1, &t);
        assert_eq!(p.on_request(&t[0]), AccessKind::Miss); // 1 admitted (future at 2)
        assert_eq!(p.on_request(&t[1]), AccessKind::Miss); // 2 bypassed (no future)
        assert_eq!(p.on_request(&t[2]), AccessKind::Hit); // 1 hits
        assert_eq!(p.used_bytes(), 0); // final access had no future: freed
    }

    #[test]
    fn classic_outcome_sequence() {
        // The MIN schedule of the classic example, request by request: 3 is
        // bypassed at t=2, 1 and 2 hit, and the last 3 (no future) misses.
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (3, 1)]);
        let mut p = belady(2, &t);
        let got: Vec<_> = t.iter().map(|r| p.on_request(r)).collect();
        use AccessKind::{Hit, Miss};
        assert_eq!(got, vec![Miss, Miss, Miss, Hit, Hit, Miss]);
    }

    #[test]
    fn lower_bounds_lru() {
        let mut rng = SimRng::new(3);
        let trace: Vec<_> = (0..3000)
            .map(|t| Request::new(t, rng.u64_below(80), 1 + rng.u64_below(50)))
            .collect();
        let bm = miss_ratio(&mut belady(600, &trace), &trace);
        let lm = miss_ratio(&mut Lru::new(600), &trace);
        assert!(bm <= lm + 1e-12, "belady {bm} vs lru {lm}");
    }

    #[test]
    fn lower_bounds_lru_on_random_traces() {
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            let trace: Vec<_> = (0..2000)
                .map(|t| Request::new(t, rng.u64_below(50), 1 + rng.u64_below(100)))
                .collect();
            let bm = miss_ratio(&mut belady(500, &trace), &trace);
            let lm = miss_ratio(&mut Lru::new(500), &trace);
            assert!(bm <= lm + 1e-9, "belady {bm} > lru {lm}");
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
            let belady_mr = miss_ratio(&mut belady(2, &t), &t);
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
            .map(|t| Request::new(t, rng.u64_below(100), 1 + rng.u64_below(300)))
            .collect();
        let mut p = belady(1000, &trace);
        for r in &trace {
            p.on_request(r);
            assert!(p.used_bytes() <= 1000);
        }
    }
}
