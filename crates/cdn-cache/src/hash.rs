//! Fx-style hashing for integer-keyed metadata tables.
//!
//! Cache policies index object metadata by [`crate::ObjectId`] on every
//! request; SipHash's HashDoS resistance buys nothing on synthetic ids while
//! costing a measurable fraction of simulation time. This module provides
//! the rustc Fx hash (a multiply-xor construction) plus map/set aliases.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc Fx hasher: fast, low-quality, excellent for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hash a single `u64` — used for leader-set selection (DIP), signature
/// tables (SHiP) and sharding, where we need a cheap stateless mix.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    // SplitMix64 finaliser.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// 2^64 / φ — the fibonacci-hashing multiplier. One `wrapping_mul` by
/// this constant spreads sequential keys across the *high* bits, which is
/// exactly what multiply-shift range reduction consumes.
pub const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Deterministic key→shard mapping shared by the trace partitioner and
/// (later) the sharded daemon: [`mix64`] the key, then multiply-shift
/// the hash onto `[0, shards)`.
///
/// Properties the sharded replay engine depends on:
/// - **stateless + deterministic**: the same key always lands on the same
///   shard for a given shard count, on every thread and every run;
/// - **no power-of-two requirement**: multiply-shift range reduction works
///   for any `shards ≥ 1` without a division on the hot path;
/// - **uniform**: sequential object ids (the generator's common case)
///   spread evenly because the mix randomises the high bits;
/// - **independent of the index hash**: the shard function must NOT be the
///   fibonacci product the fused index derives home slots from. Sharding
///   on the top bits of `key · FIB_MUL` hands each shard exactly the keys
///   whose home slots fall in one contiguous `1/shards` slice of its
///   index — one table-spanning probe cluster and an ~18× per-request
///   slowdown (measured; see DESIGN.md §15). [`mix64`] is a full-avalanche
///   finaliser with no bit in common with the fibonacci multiply, so a
///   shard's keys still cover its index's whole bucket range.
///
/// # Panics
/// If `shards` is zero.
#[inline]
pub fn key_shard(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "key_shard: shard count must be >= 1");
    let h = mix64(key);
    // Multiply-shift: (h / 2^64) * shards, computed in 128-bit.
    ((h as u128 * shards as u128) >> 64) as usize
}

/// Rendezvous (highest-random-weight) weight of `key` on `node`.
///
/// Shared seam between the `tdc` origin-cluster sibling picker and the
/// `cdnd` shard failover router: every candidate node scores
/// `(key, node)` and the highest weight wins, so one node's death
/// remaps only that node's keys and its revival restores exactly the
/// original assignment. The per-node salt is `(node + 1) · FIB_MUL` so
/// node 0 does not degenerate into the identity salt.
#[inline]
pub fn rendezvous_weight(key: u64, node: usize) -> u64 {
    mix64(key ^ (node as u64 + 1).wrapping_mul(FIB_MUL))
}

/// The highest-[`rendezvous_weight`] node of `0..nodes` that `skip` does
/// not rule out (first-seen, i.e. lowest index, wins a weight tie, keeping
/// the order total), or `None` when every node is skipped. The one
/// highest-random-weight loop: `cdnd`'s failover router and `tdc`'s
/// failover / hedge-sibling choice both pick through it.
pub fn rendezvous_pick(key: u64, nodes: usize, skip: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for node in (0..nodes).filter(|&node| !skip(node)) {
        let w = rendezvous_weight(key, node);
        if best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, node));
        }
    }
    best.map(|(_, node)| node)
}

/// Deterministic failover route for `key` over `shards` shards, given a
/// predicate marking shards as down.
///
/// Order tried: the [`key_shard`] primary first, then every other shard
/// by descending [`rendezvous_weight`] ([`rendezvous_pick`]). Returns the
/// first shard the predicate reports up, or `None` when every shard is
/// down. Pure in `(key, shards, down-set)`, which is what lets the
/// daemon's router and the serial oracle replay identical decisions.
///
/// # Panics
/// If `shards` is zero (via [`key_shard`]).
pub fn route_with_failover(
    key: u64,
    shards: usize,
    is_down: impl Fn(usize) -> bool,
) -> Option<usize> {
    let primary = key_shard(key, shards);
    if !is_down(primary) {
        return Some(primary);
    }
    rendezvous_pick(key, shards, |node| node == primary || is_down(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hasher_differentiates_close_keys() {
        use std::hash::Hash;
        let h = |k: u64| {
            let mut hasher = FxHasher::default();
            k.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(h(0), h(1));
        assert_ne!(h(1), h(2));
        assert_ne!(h(u64::MAX), h(u64::MAX - 1));
    }

    #[test]
    fn write_bytes_tail_handled() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn key_shard_is_deterministic_and_in_range() {
        for shards in 1..=9usize {
            for key in [0u64, 1, 2, 1000, u64::MAX, u64::MAX / 2] {
                let s = key_shard(key, shards);
                assert!(s < shards, "key {key} -> shard {s} of {shards}");
                assert_eq!(s, key_shard(key, shards), "must be stable");
            }
        }
    }

    #[test]
    fn key_shard_spreads_sequential_ids() {
        // Sequential ids are the trace generator's id space; fibonacci
        // hashing must not funnel them into a few shards.
        for shards in [2usize, 3, 4, 7, 8] {
            let mut counts = vec![0u32; shards];
            let n = 80_000u64;
            for key in 0..n {
                counts[key_shard(key, shards)] += 1;
            }
            let expected = n as i64 / shards as i64;
            for (s, &c) in counts.iter().enumerate() {
                assert!(
                    (c as i64 - expected).abs() < expected / 5,
                    "shard {s}/{shards}: {c} vs expected {expected}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn key_shard_rejects_zero_shards() {
        key_shard(1, 0);
    }

    #[test]
    fn shard_keys_cover_index_home_slots() {
        // Regression: one shard's keys must still spread over the whole
        // fibonacci home-slot range the fused index probes. When sharding
        // reused the index's own hash, shard 0 of 4 owned exactly the keys
        // homing into the first quarter of every table — a table-spanning
        // probe cluster and an ~18x replay slowdown.
        let buckets = 1u64 << 10;
        let mut seen = vec![false; buckets as usize];
        for key in 0..200_000u64 {
            if key_shard(key, 4) == 0 {
                let home = key.wrapping_mul(FIB_MUL) >> (64 - 10);
                seen[home as usize] = true;
            }
        }
        let covered = seen.iter().filter(|&&b| b).count() as u64;
        assert!(
            covered > buckets * 9 / 10,
            "shard 0 keys cover only {covered}/{buckets} home slots"
        );
    }

    #[test]
    fn route_prefers_primary_when_up() {
        for key in [0u64, 1, 7, 1000, u64::MAX] {
            for shards in [1usize, 2, 4, 7] {
                assert_eq!(
                    route_with_failover(key, shards, |_| false),
                    Some(key_shard(key, shards))
                );
            }
        }
    }

    #[test]
    fn route_failover_is_consistent_and_minimal() {
        // A downed shard remaps only its own keys; revival restores the
        // original assignment exactly (rendezvous consistency).
        let shards = 4usize;
        for key in 0..5000u64 {
            let primary = key_shard(key, shards);
            let down = (primary + 1) % shards; // some *other* shard down
            let routed = route_with_failover(key, shards, |s| s == down).unwrap();
            assert_eq!(routed, primary, "non-primary death must not move key {key}");

            let failover = route_with_failover(key, shards, |s| s == primary).unwrap();
            assert_ne!(failover, primary);
            // Deterministic: same decision every time.
            assert_eq!(
                failover,
                route_with_failover(key, shards, |s| s == primary).unwrap()
            );
        }
    }

    #[test]
    fn route_walks_rendezvous_order_past_dead_secondary() {
        let shards = 4usize;
        for key in 0..2000u64 {
            let primary = key_shard(key, shards);
            let second = route_with_failover(key, shards, |s| s == primary).unwrap();
            let third = route_with_failover(key, shards, |s| s == primary || s == second).unwrap();
            assert!(third != primary && third != second);
            // third must be the best remaining rendezvous weight.
            for node in 0..shards {
                if node != primary && node != second && node != third {
                    assert!(
                        rendezvous_weight(key, third) >= rendezvous_weight(key, node),
                        "key {key}: rendezvous order violated"
                    );
                }
            }
        }
    }

    #[test]
    fn route_none_when_all_down() {
        assert_eq!(route_with_failover(42, 4, |_| true), None);
    }

    #[test]
    fn route_spreads_failover_load() {
        // Keys homed on a dead shard must spread across survivors, not
        // funnel into one (that is the point of rendezvous vs key+1).
        let shards = 4usize;
        let mut counts = vec![0u32; shards];
        let mut total = 0u32;
        for key in 0..40_000u64 {
            if key_shard(key, shards) == 0 {
                counts[route_with_failover(key, shards, |s| s == 0).unwrap()] += 1;
                total += 1;
            }
        }
        assert_eq!(counts[0], 0);
        let expected = (total / 3) as i64;
        for (s, &c) in counts.iter().enumerate().skip(1) {
            assert!(
                (c as i64 - expected).abs() < expected / 4,
                "survivor {s}: {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn mix64_spreads_sequential_ids() {
        let buckets = 64u64;
        let mut counts = vec![0u32; buckets as usize];
        for i in 0..64_000u64 {
            counts[(mix64(i) % buckets) as usize] += 1;
        }
        let expected = 1000;
        for &c in &counts {
            assert!((c as i64 - expected).abs() < 200, "bucket {c}");
        }
    }
}
