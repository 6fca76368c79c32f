//! Fused open-addressing index: the one-probe id→payload table behind
//! [`crate::LruQueue`] (resident handles and history-ring positions),
//! [`crate::GhostList`] (ring positions) and [`crate::SegmentedQueue`]
//! (segment numbers).
//!
//! The map-beside-slab design paid two dependent cache misses per request:
//! a `FxHashMap<ObjectId, Handle>` probe (SwissTable control bytes + slot
//! array) followed by a scattered slab-node touch. This table stores the
//! `(key, payload)` pair inline in a flat power-of-two bucket array, so a
//! lookup is a single linear probe sequence over 16-byte buckets.
//!
//! Design points:
//!
//! - **Fibonacci hashing**: the home bucket is the *top* bits of
//!   `key * 2^64/φ`, which scatter well even for sequential object ids
//!   (the low bits of a multiply are weak, the top bits mix every input
//!   bit). A second, independent slice of the same product (`h2`, 7 bits)
//!   is stored per slot in a control-byte array.
//! - **Group-scanned linear probing**: the probe loop inspects 16 control
//!   bytes per step with one SSE2 compare (scalar fallback elsewhere),
//!   so h2 candidates and empty slots across 16 buckets cost one load
//!   each. This matters at high load: plain one-slot-at-a-time linear
//!   probing at the 7/8 cap pays ~10-slot unsuccessful probes from
//!   primary clustering, and miss-heavy replay traces (≈50% miss ratio)
//!   hit the unsuccessful path on every miss. Group scanning covers a
//!   whole cluster per iteration, and an empty slot anywhere in the
//!   group terminates a miss immediately.
//! - **Backward-shift deletion**: removing a key shifts displaced
//!   successors back toward their home bucket instead of leaving a
//!   tombstone, so tables never degrade under churn — delete-heavy
//!   workloads (eviction storms) keep the exact probe distances a fresh
//!   rebuild would produce.
//! - The **empty sentinel lives in the payload** (`EMPTY_PAYLOAD`), not the
//!   key, so every `u64` — including `u64::MAX`, which adversarial traces
//!   use as an object id — is a valid key. (Emptiness is tracked by the
//!   control bytes; the payload sentinel is kept in sync as a cross-check
//!   for `audit()` and `iter()`.)

use crate::prefetch::prefetch_read;

/// Reserved payload marking an empty bucket. Callers may store any payload
/// except this value; the structures in this crate pack `Handle { idx, gen }`
/// as `gen << 32 | idx` with `idx < u32::MAX`, history-ring entries (in an
/// `LruQueue` or a `GhostList`) use bits 0..34 only, and segment numbers
/// are small, so none can collide.
pub const EMPTY_PAYLOAD: u64 = u64::MAX;

/// 2^64 / φ — the multiplicative constant of fibonacci hashing.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Grow when `len * 8 >= capacity * 7` (load factor 7/8).
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 8;

/// Control bytes scanned per probe step.
const GROUP: usize = 16;

/// Control byte for an empty slot (high bit set; live slots store a 7-bit
/// `h2` fingerprint with the high bit clear).
const CTRL_EMPTY: u8 = 0x80;

/// Buckets allocated by the first insert into an empty table. One group,
/// so a single probe step always covers the whole table at minimum size.
const MIN_CAPACITY: usize = GROUP;

#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Bucket {
    key: u64,
    payload: u64,
}

// One cache line holds exactly four buckets.
const _: () = assert!(std::mem::size_of::<Bucket>() == 16);

const EMPTY_BUCKET: Bucket = Bucket {
    key: 0,
    payload: EMPTY_PAYLOAD,
};

/// Bitmask of positions within a probed group: which slots match the `h2`
/// fingerprint, and which are empty.
#[derive(Clone, Copy)]
struct GroupScan {
    matches: u32,
    empties: u32,
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn scan_group(ctrl: &[u8], start: usize, h2: u8) -> GroupScan {
    // SAFETY: callers guarantee `start + GROUP <= ctrl.len()` (the control
    // array carries a GROUP-byte mirror tail past the last bucket).
    unsafe {
        use std::arch::x86_64::{
            _mm_cmpeq_epi8, _mm_loadu_si128, _mm_movemask_epi8, _mm_set1_epi8,
        };
        let group = _mm_loadu_si128(ctrl.as_ptr().add(start) as *const _);
        let matches = _mm_movemask_epi8(_mm_cmpeq_epi8(group, _mm_set1_epi8(h2 as i8))) as u32;
        // Only CTRL_EMPTY has the high bit set, so the sign mask of the raw
        // group is exactly the empty mask.
        let empties = _mm_movemask_epi8(group) as u32;
        GroupScan { matches, empties }
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn scan_group(ctrl: &[u8], start: usize, h2: u8) -> GroupScan {
    let mut matches = 0u32;
    let mut empties = 0u32;
    for (j, &c) in ctrl[start..start + GROUP].iter().enumerate() {
        if c == h2 {
            matches |= 1 << j;
        }
        if c == CTRL_EMPTY {
            empties |= 1 << j;
        }
    }
    GroupScan { matches, empties }
}

/// Open-addressing `u64 → u64` table with inline buckets (see module docs).
#[derive(Debug, Clone, Default)]
pub struct FusedIndex {
    /// One byte per bucket (`h2` fingerprint or [`CTRL_EMPTY`]), plus a
    /// GROUP-byte mirror of the first GROUP bytes so group loads never
    /// need explicit wraparound.
    ctrl: Vec<u8>,
    buckets: Vec<Bucket>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Right-shift turning a fibonacci product into a home bucket index.
    shift: u32,
    len: usize,
}

impl FusedIndex {
    /// Empty table. Allocates nothing until the first insert.
    pub fn new() -> Self {
        FusedIndex {
            ctrl: Vec::new(),
            buckets: Vec::new(),
            mask: 0,
            shift: 0,
            len: 0,
        }
    }

    /// Empty table pre-sized so `n` entries fit without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = Self::new();
        if n > 0 {
            t.grow_to(Self::buckets_for(n));
        }
        t
    }

    fn buckets_for(n: usize) -> usize {
        (n * MAX_LOAD_DEN / MAX_LOAD_NUM + 1)
            .next_power_of_two()
            .max(MIN_CAPACITY)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated bucket count (0 or a power of two).
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// True heap footprint of the table: bucket array plus control bytes.
    pub fn memory_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<Bucket>() + self.ctrl.capacity()
    }

    #[inline(always)]
    fn home(&self, key: u64) -> usize {
        // Top bits of the fibonacci product, so the shift depends on the
        // table size: (key * FIB) >> (64 - log2(buckets)).
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// 7-bit fingerprint stored in the control byte: a low slice of the
    /// fibonacci product, independent of the top bits that pick the home
    /// bucket (keys colliding on `home` still disagree on `h2` with
    /// probability ~127/128).
    #[inline(always)]
    fn h2(key: u64) -> u8 {
        (key.wrapping_mul(FIB) & 0x7f) as u8
    }

    /// Write a control byte, keeping the wraparound mirror tail in sync.
    #[inline(always)]
    fn set_ctrl(&mut self, i: usize, v: u8) {
        self.ctrl[i] = v;
        if i < GROUP {
            let n = self.buckets.len();
            self.ctrl[n + i] = v;
        }
    }

    /// Touch the home bucket of `key` so a subsequent
    /// [`FusedIndex::get`] probe starts from warm cache lines. No-op on
    /// an unallocated table and on non-x86_64 targets.
    #[inline(always)]
    pub fn prefetch(&self, key: u64) {
        if !self.buckets.is_empty() {
            let home = self.home(key);
            prefetch_read(&self.ctrl[home]);
            prefetch_read(&self.buckets[home]);
        }
    }

    /// Bucket holding `key`, if present. One group scan covers 16
    /// buckets; an empty slot anywhere in the group ends a miss.
    #[inline(always)]
    fn find(&self, key: u64) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let h2 = Self::h2(key);
        let mut i = self.home(key);
        loop {
            let scan = scan_group(&self.ctrl, i, h2);
            let mut m = scan.matches;
            while m != 0 {
                let j = (i + m.trailing_zeros() as usize) & self.mask;
                if self.buckets[j].key == key {
                    return Some(j);
                }
                m &= m - 1;
            }
            if scan.empties != 0 {
                return None;
            }
            i = (i + GROUP) & self.mask;
        }
    }

    /// Payload stored for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.find(key).map(|j| self.buckets[j].payload)
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace. Returns the previous payload if `key` was
    /// present. `payload` must not be [`EMPTY_PAYLOAD`].
    #[inline]
    pub fn insert(&mut self, key: u64, payload: u64) -> Option<u64> {
        debug_assert!(payload != EMPTY_PAYLOAD, "payload is the empty sentinel");
        if self.buckets.is_empty()
            || (self.len + 1) * MAX_LOAD_DEN > self.buckets.len() * MAX_LOAD_NUM
        {
            self.grow_to(Self::buckets_for(self.len + 1));
        }
        let h2 = Self::h2(key);
        let mut i = self.home(key);
        loop {
            let scan = scan_group(&self.ctrl, i, h2);
            let mut m = scan.matches;
            while m != 0 {
                let j = (i + m.trailing_zeros() as usize) & self.mask;
                let b = &mut self.buckets[j];
                if b.key == key {
                    return Some(std::mem::replace(&mut b.payload, payload));
                }
                m &= m - 1;
            }
            if scan.empties != 0 {
                // The chain ends inside this group: the key is absent, and
                // linear probing places it at the chain's first empty slot.
                let j = (i + scan.empties.trailing_zeros() as usize) & self.mask;
                self.buckets[j] = Bucket { key, payload };
                self.set_ctrl(j, h2);
                self.len += 1;
                return None;
            }
            i = (i + GROUP) & self.mask;
        }
    }

    /// Rewrite the payload of a present `key` in place, returning the old
    /// one; `None` (and no change) if `key` is absent. Never grows or
    /// moves a bucket. `payload` must not be [`EMPTY_PAYLOAD`].
    #[inline]
    pub fn replace(&mut self, key: u64, payload: u64) -> Option<u64> {
        debug_assert!(payload != EMPTY_PAYLOAD, "payload is the empty sentinel");
        let j = self.find(key)?;
        Some(std::mem::replace(&mut self.buckets[j].payload, payload))
    }

    /// Remove `key`, returning its payload. Backward-shift deletion: the
    /// probe chain after the hole is compacted in place, so no tombstones
    /// exist and lookups never scan dead buckets.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let pos = self.find(key)?;
        let removed = self.buckets[pos].payload;
        // Shift successors back one slot at a time: bucket j can fill hole
        // iff its home position lies at or before the hole in probe order,
        // i.e. the cyclic distance home(j)→j is at least the distance
        // hole→j.
        let mut hole = pos;
        let mut j = pos;
        loop {
            j = (j + 1) & self.mask;
            if self.ctrl[j] == CTRL_EMPTY {
                break;
            }
            let b = self.buckets[j];
            let home = self.home(b.key);
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.buckets[hole] = b;
                let c = self.ctrl[j];
                self.set_ctrl(hole, c);
                hole = j;
            }
        }
        self.buckets[hole] = EMPTY_BUCKET;
        self.set_ctrl(hole, CTRL_EMPTY);
        self.len -= 1;
        Some(removed)
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.ctrl.fill(CTRL_EMPTY);
        self.buckets.fill(EMPTY_BUCKET);
        self.len = 0;
    }

    /// Iterate `(key, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .filter(|b| b.payload != EMPTY_PAYLOAD)
            .map(|b| (b.key, b.payload))
    }

    fn grow_to(&mut self, new_buckets: usize) {
        debug_assert!(new_buckets.is_power_of_two());
        if new_buckets <= self.buckets.len() {
            return;
        }
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY_BUCKET; new_buckets]);
        self.ctrl = vec![CTRL_EMPTY; new_buckets + GROUP];
        self.mask = new_buckets - 1;
        self.shift = 64 - new_buckets.trailing_zeros();
        for b in old {
            if b.payload == EMPTY_PAYLOAD {
                continue;
            }
            // Keys are unique, so rehash placement is a plain first-empty
            // linear scan from home.
            let mut i = self.home(b.key);
            while self.ctrl[i] != CTRL_EMPTY {
                i = (i + 1) & self.mask;
            }
            self.buckets[i] = b;
            let h2 = Self::h2(b.key);
            self.set_ctrl(i, h2);
        }
    }

    /// Structural invariant walk (O(buckets)): control bytes agree with
    /// the payload sentinel and the stored keys' fingerprints, the mirror
    /// tail matches, live-bucket count matches `len`, every key resolves
    /// through its own probe chain (no key is stranded behind an empty
    /// bucket), and the load factor bound holds.
    pub fn audit(&self) -> Result<(), String> {
        let live = self
            .buckets
            .iter()
            .filter(|b| b.payload != EMPTY_PAYLOAD)
            .count();
        if live != self.len {
            return Err(format!("index: {live} live buckets but len={}", self.len));
        }
        if !self.buckets.is_empty() {
            let n = self.buckets.len();
            if !n.is_power_of_two() {
                return Err(format!("index: {n} buckets not a power of two"));
            }
            if self.ctrl.len() != n + GROUP {
                return Err(format!(
                    "index: {} control bytes for {n} buckets",
                    self.ctrl.len()
                ));
            }
            if self.len * MAX_LOAD_DEN > n * MAX_LOAD_NUM {
                return Err(format!(
                    "index: load {}/{n} exceeds {MAX_LOAD_NUM}/{MAX_LOAD_DEN}",
                    self.len
                ));
            }
            for (i, b) in self.buckets.iter().enumerate() {
                let want = if b.payload == EMPTY_PAYLOAD {
                    CTRL_EMPTY
                } else {
                    Self::h2(b.key)
                };
                if self.ctrl[i] != want {
                    return Err(format!(
                        "index: ctrl[{i}]={:#04x} disagrees with bucket ({want:#04x})",
                        self.ctrl[i]
                    ));
                }
                if i < GROUP && self.ctrl[n + i] != self.ctrl[i] {
                    return Err(format!("index: mirror byte {i} out of sync"));
                }
                if b.payload != EMPTY_PAYLOAD && self.get(b.key) != Some(b.payload) {
                    return Err(format!("index: key {} unreachable from its home", b.key));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_allocates_nothing() {
        let t = FusedIndex::new();
        assert_eq!(t.memory_bytes(), 0);
        assert_eq!(t.get(7), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn insert_get_replace() {
        let mut t = FusedIndex::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(1), Some(11));
        assert_eq!(t.len(), 2);
        assert_eq!(t.replace(2, 21), Some(20));
        assert_eq!(t.replace(3, 30), None, "replace never inserts");
        assert_eq!((t.get(2), t.get(3), t.len()), (Some(21), None, 2));
    }

    #[test]
    fn remove_with_backward_shift_keeps_chains_reachable() {
        let mut t = FusedIndex::new();
        for k in 0..100u64 {
            t.insert(k, k * 2);
        }
        for k in (0..100).step_by(2) {
            assert_eq!(t.remove(k), Some(k * 2));
        }
        for k in 0..100u64 {
            let want = (k % 2 == 1).then_some(k * 2);
            assert_eq!(t.get(k), want, "key {k}");
        }
        t.audit().unwrap();
    }

    #[test]
    fn extreme_keys_are_valid() {
        let mut t = FusedIndex::new();
        t.insert(u64::MAX, 1);
        t.insert(0, 2);
        t.insert(u64::MAX / 2, 3);
        assert_eq!(t.get(u64::MAX), Some(1));
        assert_eq!(t.get(0), Some(2));
        assert_eq!(t.remove(u64::MAX), Some(1));
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.get(0), Some(2));
        t.audit().unwrap();
    }

    #[test]
    fn colliding_fingerprints_disambiguate_on_keys() {
        // Keys crafted to share h2 (same low 7 bits of the fibonacci
        // product modulo the multiplier's group structure are hard to hit
        // directly, so brute-force a few collisions instead).
        let mut t = FusedIndex::new();
        let base = 3u64;
        let h = FusedIndex::h2(base);
        let twins: Vec<u64> = (0..100_000u64)
            .filter(|&k| FusedIndex::h2(k) == h)
            .take(20)
            .collect();
        assert!(twins.len() >= 2, "no h2 collisions found");
        for (v, &k) in twins.iter().enumerate() {
            t.insert(k, v as u64 + 1);
        }
        for (v, &k) in twins.iter().enumerate() {
            assert_eq!(t.get(k), Some(v as u64 + 1), "key {k}");
        }
        t.audit().unwrap();
    }

    #[test]
    fn churn_never_degrades() {
        // Tombstone-style tables degrade when deletes equal inserts; the
        // backward-shift table must keep len and reachability exact.
        let mut t = FusedIndex::new();
        for round in 0u64..50 {
            for k in 0..64u64 {
                t.insert(round * 64 + k, k + 1);
            }
            for k in 0..64u64 {
                assert_eq!(t.remove(round * 64 + k), Some(k + 1));
            }
            assert!(t.is_empty());
        }
        t.audit().unwrap();
        // Capacity is bounded by the high-water mark, not the churn volume.
        assert!(t.capacity() <= 128, "capacity {}", t.capacity());
    }

    #[test]
    fn clear_keeps_allocation() {
        let mut t = FusedIndex::with_capacity(100);
        let cap = t.capacity();
        for k in 0..100u64 {
            t.insert(k, 1);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap.max(FusedIndex::buckets_for(100)));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn iter_sees_every_pair() {
        let mut t = FusedIndex::new();
        for k in 0..40u64 {
            t.insert(k, k + 100);
        }
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs.len(), 40);
        for (i, &(k, v)) in pairs.iter().enumerate() {
            assert_eq!((k, v), (i as u64, i as u64 + 100));
        }
    }
}
