//! Key-partitioning of a trace into per-shard column sets.
//!
//! The sharded replay engine (and later the sharded `cdnd` daemon) wants
//! one independent cache instance per shard, each fed only the
//! requests whose object ids map to it. The partition is computed once
//! over [`TraceColumns`] with the workspace-wide
//! [`cdn_cache::hash::key_shard`] fibonacci mapping, so the trace side and
//! the serving side agree on where every key lives.
//!
//! Guarantees (property-tested in `tests/shard_prop.rs` and relied on by
//! the exact-equality proofs in `cdn-sim`):
//! - **per-key order**: all requests for an object land on one shard, in
//!   their original relative order (the partition is a subsequence);
//! - **multiset union**: every input request appears on exactly one shard;
//! - **validity**: each shard's columns still pass
//!   [`TraceColumns::validate`] (ticks strictly increasing, wall clock
//!   non-decreasing — subsequences of a valid trace remain valid).

use cdn_cache::hash::key_shard;
use cdn_cache::FxHashSet;

use crate::columns::TraceColumns;

/// Per-shard request-stream statistics, computed during partitioning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests routed to this shard.
    pub requests: u64,
    /// Distinct object ids routed to this shard.
    pub unique_objects: u64,
    /// Sum of requested bytes routed to this shard.
    pub bytes: u64,
}

/// A trace split into per-shard column sets by object id.
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    /// Per-shard request streams, order-preserving subsequences of the
    /// input. `shards.len()` is the shard count the mapping was built for.
    pub shards: Vec<TraceColumns>,
    /// Per-shard statistics (same indexing as `shards`).
    pub stats: Vec<ShardStats>,
}

impl ShardedTrace {
    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total requests across all shards (equals the input length).
    pub fn total_requests(&self) -> u64 {
        self.stats.iter().map(|s| s.requests).sum()
    }

    /// The largest shard's request count divided by the ideal per-shard
    /// share — 1.0 is a perfectly balanced partition. Values well above 1
    /// mean one shard will straggle and cap aggregate replay throughput.
    pub fn imbalance(&self) -> f64 {
        let total = self.total_requests();
        if total == 0 || self.shards.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / self.shards.len() as f64;
        let max = self.stats.iter().map(|s| s.requests).max().unwrap_or(0);
        max as f64 / ideal
    }
}

/// Split `cols` into `shards` order-preserving per-key partitions.
///
/// Single pass; each request is appended to the shard
/// [`key_shard`]`(id, shards)` selects. With `shards == 1` the output is a
/// copy of the input.
///
/// # Panics
/// If `shards` is zero.
pub fn partition_columns(cols: &TraceColumns, shards: usize) -> ShardedTrace {
    assert!(shards > 0, "partition_columns: shard count must be >= 1");
    let per_shard_hint = cols.len() / shards + 1;
    let mut out: Vec<TraceColumns> = (0..shards)
        .map(|_| TraceColumns::with_capacity(per_shard_hint))
        .collect();
    let mut stats = vec![ShardStats::default(); shards];
    let mut seen: Vec<FxHashSet<u64>> = vec![FxHashSet::default(); shards];
    for i in 0..cols.len() {
        let r = cols.get(i);
        let s = key_shard(r.id.0, shards);
        out[s].push(r);
        stats[s].requests += 1;
        stats[s].bytes = stats[s].bytes.saturating_add(r.size);
        if seen[s].insert(r.id.0) {
            stats[s].unique_objects += 1;
        }
    }
    ShardedTrace { shards: out, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GeneratorConfig, TraceGenerator};

    fn sample_columns() -> TraceColumns {
        let trace = TraceGenerator::generate(GeneratorConfig {
            requests: 20_000,
            core_objects: 1_500,
            ..GeneratorConfig::default()
        });
        TraceColumns::from_requests(&trace)
    }

    #[test]
    fn one_shard_is_identity() {
        let cols = sample_columns();
        let sharded = partition_columns(&cols, 1);
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.shards[0], cols);
        assert_eq!(sharded.stats[0].requests, cols.len() as u64);
        assert!((sharded.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shards_are_valid_subsequences_and_cover_input() {
        let cols = sample_columns();
        for n in [2usize, 3, 4, 8] {
            let sharded = partition_columns(&cols, n);
            assert_eq!(sharded.total_requests(), cols.len() as u64);
            let mut covered = 0usize;
            for (s, shard) in sharded.shards.iter().enumerate() {
                shard.validate().unwrap_or_else(|e| {
                    panic!("shard {s}/{n} failed validation: {e}");
                });
                for i in 0..shard.len() {
                    assert_eq!(key_shard(shard.ids[i].0, n), s, "misrouted key");
                }
                covered += shard.len();
            }
            assert_eq!(covered, cols.len());
        }
    }

    #[test]
    fn stats_count_uniques_and_bytes() {
        let cols = TraceColumns::from_requests(&cdn_cache::object::micro_trace(&[
            (1, 10),
            (2, 20),
            (1, 10),
            (3, 30),
        ]));
        let sharded = partition_columns(&cols, 2);
        let uniques: u64 = sharded.stats.iter().map(|s| s.unique_objects).sum();
        let bytes: u64 = sharded.stats.iter().map(|s| s.bytes).sum();
        assert_eq!(uniques, 3, "ids 1,2,3 each counted once");
        assert_eq!(bytes, 70);
    }

    #[test]
    fn realistic_trace_is_roughly_balanced() {
        // A Zipf-heavy trace concentrates requests on few hot keys, so some
        // imbalance is expected — but the fibonacci mapping must not send
        // everything to one shard.
        let cols = sample_columns();
        for n in [2usize, 4, 8] {
            let sharded = partition_columns(&cols, n);
            assert!(
                sharded.imbalance() < 2.0,
                "{n} shards: imbalance {}",
                sharded.imbalance()
            );
            for s in &sharded.stats {
                assert!(s.requests > 0, "empty shard at n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn zero_shards_panics() {
        partition_columns(&TraceColumns::new(), 0);
    }
}
