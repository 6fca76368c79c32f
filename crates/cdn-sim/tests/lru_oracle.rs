//! An outside check of LRU replay: Mattson's stack distance, weighted
//! by bytes.
//!
//! An LRU cache of `C` bytes always holds the longest prefix of the
//! recency stack of cacheable objects (most recent first) whose sizes sum
//! to at most `C` — a hit moves an object within that prefix, and a miss
//! puts the object on top and evicts from the bottom until it fits. So
//! request *i* for an object of size `s` hits iff `s ≤ C` and the object
//! was requested before, at *j*, and `s` plus the sizes of the distinct
//! cacheable objects requested in (*j*, *i*) is at most `C` (Mattson et
//! al., IBM Systems Journal 1970, with bytes for slots).
//!
//! The oracle computes that sum with a Fenwick tree over request
//! positions holding each cacheable object's size at its latest request.
//! It shares no code with the replay engine or `LruQueue`; it is checked
//! against `PolicyKind::Lru` request by request.

use cdn_cache::{AccessKind, FxHashMap, Request};
use cdn_sim::{one_chunk, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::{degenerate_corpus, TraceGenerator, TraceStats, Workload};

/// Fenwick tree of byte sums over request positions (`i128`: sizes up
/// to `u64::MAX` sum without overflow over any trace used here).
struct Fenwick(Vec<i128>);

impl Fenwick {
    fn add(&mut self, pos: usize, delta: i128) {
        let mut k = pos + 1;
        while k < self.0.len() {
            self.0[k] += delta;
            k += k & k.wrapping_neg();
        }
    }

    /// Sum over positions `0..end`.
    fn prefix(&self, end: usize) -> i128 {
        let (mut k, mut sum) = (end, 0);
        while k > 0 {
            sum += self.0[k];
            k -= k & k.wrapping_neg();
        }
        sum
    }
}

/// Per request: would an LRU cache of `capacity` bytes hit it?
fn lru_oracle(trace: &[Request], capacity: u64) -> Vec<bool> {
    let mut tree = Fenwick(vec![0; trace.len() + 1]);
    let mut last: FxHashMap<u64, (usize, u64)> = FxHashMap::default();
    let mut hits = Vec::with_capacity(trace.len());
    for (i, r) in trace.iter().enumerate() {
        let cacheable = r.size <= capacity;
        let prev = if cacheable {
            last.insert(r.id.0, (i, r.size))
        } else {
            None
        };
        hits.push(prev.is_some_and(|(j, size)| {
            assert_eq!(size, r.size, "object {} changed size", r.id.0);
            let between = tree.prefix(i) - tree.prefix(j + 1);
            r.size as i128 + between <= capacity as i128
        }));
        if let Some((j, size)) = prev {
            tree.add(j, -(size as i128));
        }
        if cacheable {
            tree.add(i, r.size as i128);
        }
    }
    hits
}

/// Assert `PolicyKind::Lru` at `capacity` hits exactly where the oracle
/// does, misses elsewhere, and rejects exactly the objects larger than
/// the cache.
fn check(name: &str, trace: &[Request], capacity: u64) {
    let want = lru_oracle(trace, capacity);
    let ctx = TraceCtx::new(trace, 5);
    PolicyKind::Lru
        .run_with_observer(
            capacity,
            one_chunk(trace),
            &ctx,
            BatchMode::Off,
            |i, req, outcome, _, _| {
                let expected = match (req.size > capacity, want[i]) {
                    (true, _) => outcome.is_rejected(),
                    (false, true) => outcome == AccessKind::Hit,
                    (false, false) => outcome == AccessKind::Miss,
                };
                assert!(
                    expected,
                    "{name} @ capacity {capacity}, request {i} (id {}, {} B): LRU {outcome:?}, \
                     oracle hit = {}",
                    req.id.0, req.size, want[i]
                );
            },
        )
        .unwrap();
}

#[test]
fn lru_matches_the_stack_distance_oracle_on_cdn_traces() {
    for w in [Workload::CdnT, Workload::CdnW, Workload::CdnA] {
        let trace = TraceGenerator::generate(w.profile().config(20_000, 31));
        let stats = TraceStats::compute(&trace);
        for fraction in [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0] {
            let capacity = stats.cache_bytes_for_fraction(fraction);
            check(w.name(), &trace, capacity);
        }
    }
}

/// The degenerate corpus, plus residents that fill the cache to the last
/// byte: two halves taking turns, then one object of the whole capacity
/// requested twice.
#[test]
fn lru_matches_the_stack_distance_oracle_on_degenerate_traces() {
    for capacity in [1 << 16, u64::MAX] {
        let half = capacity / 2;
        let exact_fit: Vec<_> = (0..8)
            .map(|t| (1 + t % 2, if t % 2 == 0 { half } else { capacity - half }))
            .chain([(3, capacity), (3, capacity)])
            .enumerate()
            .map(|(t, (id, size))| Request::new(t as u64, id, size))
            .collect();
        let mut corpus = degenerate_corpus(capacity);
        corpus.push(("exact-fit", exact_fit));
        for (name, trace) in corpus {
            check(name, &trace, capacity);
        }
    }
}

/// The oracle is not vacuous: on a CDN trace it sees hits and misses at
/// a small cache, and more hits at a larger one.
#[test]
fn oracle_sees_hits_and_misses() {
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(20_000, 31));
    let stats = TraceStats::compute(&trace);
    let count = |f| {
        let hits = lru_oracle(&trace, stats.cache_bytes_for_fraction(f));
        hits.iter().filter(|&&h| h).count()
    };
    let (small, large) = (count(0.01), count(0.1));
    assert!(0 < small && small < large && large < trace.len());
}
