//! Belady's MIN wrapped as a [`CachePolicy`], for plotting the offline
//! reference alongside online policies in every figure (an exact floor
//! on object miss ratio only when all objects have the same size; see
//! [`cdn_trace::belady`]).

use std::sync::Arc as StdArc;

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, PolicyStats, Request};
use cdn_trace::belady::BeladyOracle;

/// The offline optimal policy. Construct with the trace's precomputed
/// next-access table ([`cdn_trace::next_access_table`]); requests must then
/// be replayed in order, and `req.tick` must index that table.
#[derive(Debug)]
pub struct BeladyPolicy {
    oracle: BeladyOracle,
    next: StdArc<Vec<u64>>,
    capacity: u64,
    stats: PolicyStats,
}

impl BeladyPolicy {
    /// Oracle policy over a specific trace's next-access table.
    pub fn new(capacity: u64, next: StdArc<Vec<u64>>) -> Self {
        BeladyPolicy {
            oracle: BeladyOracle::new(capacity),
            next,
            capacity,
            stats: PolicyStats::default(),
        }
    }
}

impl CachePolicy for BeladyPolicy {
    fn name(&self) -> &str {
        "Belady"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let na = self.next[req.tick as usize];
        if self.oracle.access(req, na) {
            AccessKind::Hit
        } else if req.size > self.capacity {
            // Uniform oversized contract: the oracle's bypass of a
            // can-never-fit object is a rejection, not an ordinary miss.
            AccessKind::Rejected(RejectReason::TooLarge)
        } else {
            self.stats.insertions += 1;
            AccessKind::Miss
        }
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.oracle.used_bytes()
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
    use cdn_trace::next_access_table;

    #[test]
    fn policy_matches_oracle_run() {
        let t = micro_trace(&[(1, 1), (2, 1), (3, 1), (1, 1), (2, 1), (3, 1)]);
        let next = StdArc::new(next_access_table(&t));
        let mut p = BeladyPolicy::new(2, next);
        let m = replay(&mut p, &t);
        assert!((m.miss_ratio() - BeladyOracle::run(&t, 2)).abs() < 1e-12);
    }

    #[test]
    fn lower_bounds_lru() {
        let mut rng = cdn_cache::SimRng::new(3);
        let trace: Vec<_> = (0..3000)
            .map(|t| cdn_cache::Request::new(t, rng.u64_below(80), 1 + rng.u64_below(50)))
            .collect();
        let next = StdArc::new(next_access_table(&trace));
        let mut b = BeladyPolicy::new(600, next);
        let mut l = Lru::new(600);
        let bm = replay(&mut b, &trace).miss_ratio();
        let lm = replay(&mut l, &trace).miss_ratio();
        assert!(bm <= lm + 1e-12, "belady {bm} vs lru {lm}");
    }
}
