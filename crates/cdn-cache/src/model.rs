//! Deliberately naive reference implementations for differential testing.
//!
//! Each `Model*` structure mirrors the public semantics of a real substrate
//! structure ([`crate::LruQueue`], [`crate::GhostList`],
//! [`crate::SegmentedQueue`]) using the most obviously-correct encoding
//! available: a plain `Vec` ordered MRU→first, linear scans for every
//! lookup, and a size ledger recomputed with u128 arithmetic so the model
//! itself can never overflow. None of this is fast — O(n) per operation —
//! and that is the point: the model is small enough to review by eye, and
//! `cdn-sim/tests/model_check.rs` drives it in lockstep with the real
//! structures over long seeded operation sequences, asserting identical
//! observable behavior at every step.
//!
//! [`ModelLruPolicy`] additionally lifts the model queue into a full
//! [`CachePolicy`] implementing the workspace-wide oversized-object
//! contract (`Rejected(TooLarge)` for `size > capacity`, state untouched),
//! so the policy-level differential can compare the real LRU/LIP policies
//! outcome-for-outcome.

use crate::ghost::GhostEntry;
use crate::object::{ObjectId, Request, Tick};
use crate::policy::{AccessKind, CachePolicy, InsertPos, PolicyStats, RejectReason};
use crate::queue::{EntryMeta, EvictedEntry};

fn meta(id: ObjectId, size: u64, tick: Tick, at_mru: bool) -> EntryMeta {
    EntryMeta {
        id,
        size,
        inserted_at_mru: at_mru,
        inserted_tick: tick,
        last_access: tick,
        hits: 0,
        tag: 0,
    }
}

/// Reference LRU queue: `Vec` of entries, index 0 = MRU, last = LRU.
#[derive(Debug, Clone)]
pub struct ModelLru {
    entries: Vec<EntryMeta>,
    capacity: u64,
}

impl ModelLru {
    /// Queue with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        ModelLru {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident (recomputed by scan, in u128).
    pub fn used_bytes(&self) -> u64 {
        let sum: u128 = self.entries.iter().map(|e| e.size as u128).sum();
        u64::try_from(sum).expect("model never admits past capacity")
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Linear-scan residency test.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Shared access to a resident entry.
    pub fn get(&self, id: ObjectId) -> Option<&EntryMeta> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Mutable access to a resident entry.
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut EntryMeta> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Whether inserting `size` bytes would require evictions (u128 math).
    pub fn needs_eviction_for(&self, size: u64) -> bool {
        self.used_bytes() as u128 + size as u128 > self.capacity as u128
    }

    /// Whether an object of `size` bytes can ever fit.
    pub fn admissible(&self, size: u64) -> bool {
        size <= self.capacity
    }

    /// Insert at the MRU position (callers evict first, as with the real
    /// queue).
    pub fn insert_mru(&mut self, id: ObjectId, size: u64, tick: Tick) {
        debug_assert!(!self.contains(id));
        self.entries.insert(0, meta(id, size, tick, true));
    }

    /// Insert at the LRU position.
    pub fn insert_lru(&mut self, id: ObjectId, size: u64, tick: Tick) {
        debug_assert!(!self.contains(id));
        self.entries.push(meta(id, size, tick, false));
    }

    /// Re-insert preserved metadata at the MRU position.
    pub fn insert_meta_mru(&mut self, m: EntryMeta) {
        debug_assert!(!self.contains(m.id));
        self.entries.insert(0, m);
    }

    /// Re-insert preserved metadata at the LRU position.
    pub fn insert_meta_lru(&mut self, m: EntryMeta) {
        debug_assert!(!self.contains(m.id));
        self.entries.push(m);
    }

    /// Bump hit statistics without moving the entry.
    pub fn record_hit(&mut self, id: ObjectId, tick: Tick) {
        if let Some(e) = self.get_mut(id) {
            e.hits += 1;
            e.last_access = tick;
        }
    }

    /// Move a resident entry to index 0.
    pub fn promote_to_mru(&mut self, id: ObjectId) {
        if let Some(i) = self.entries.iter().position(|e| e.id == id) {
            let e = self.entries.remove(i);
            self.entries.insert(0, e);
        }
    }

    /// Move a resident entry to the last index.
    pub fn demote_to_lru(&mut self, id: ObjectId) {
        if let Some(i) = self.entries.iter().position(|e| e.id == id) {
            let e = self.entries.remove(i);
            self.entries.push(e);
        }
    }

    /// Swap a resident entry one slot toward MRU.
    pub fn promote_one(&mut self, id: ObjectId) {
        if let Some(i) = self.entries.iter().position(|e| e.id == id) {
            if i > 0 {
                self.entries.swap(i, i - 1);
            }
        }
    }

    /// Remove a resident entry.
    pub fn remove(&mut self, id: ObjectId) -> Option<EntryMeta> {
        let i = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(i))
    }

    /// Evict the LRU-end entry.
    pub fn evict_lru(&mut self) -> Option<EvictedEntry> {
        self.entries.pop()
    }

    /// Peek the LRU-end entry.
    pub fn peek_lru(&self) -> Option<&EntryMeta> {
        self.entries.last()
    }

    /// Peek the MRU-end entry.
    pub fn peek_mru(&self) -> Option<&EntryMeta> {
        self.entries.first()
    }

    /// Iterate MRU→LRU.
    pub fn iter(&self) -> impl Iterator<Item = &EntryMeta> {
        self.entries.iter()
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Reference ghost list: `Vec` of entries, index 0 = newest.
#[derive(Debug, Clone)]
pub struct ModelGhost {
    entries: Vec<GhostEntry>,
    capacity_bytes: u64,
}

impl ModelGhost {
    /// Ghost list with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        ModelGhost {
            entries: Vec::new(),
            capacity_bytes,
        }
    }

    /// Byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes of tracked object sizes (recomputed by scan, in u128).
    pub fn used_bytes(&self) -> u64 {
        let sum: u128 = self.entries.iter().map(|e| e.size as u128).sum();
        u64::try_from(sum).expect("model never tracks past budget")
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Linear-scan membership test.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Shared access to a tracked entry.
    pub fn get(&self, id: ObjectId) -> Option<&GhostEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// The paper's `ADD`, with [`crate::GhostList::add`]'s exact semantics:
    /// oversized entries are not tracked (and forget any stale record),
    /// re-adds refresh to the head, overflow drops oldest-first.
    pub fn add(&mut self, entry: GhostEntry) {
        if entry.size > self.capacity_bytes {
            self.delete(entry.id);
            return;
        }
        self.delete(entry.id);
        self.entries.insert(0, entry);
        while self.used_bytes() > self.capacity_bytes {
            let victim = self.entries.pop().expect("over budget implies nonempty");
            debug_assert_ne!(victim.id, entry.id, "new head entry always fits");
        }
    }

    /// The paper's `DELETE`.
    pub fn delete(&mut self, id: ObjectId) -> Option<GhostEntry> {
        let i = self.entries.iter().position(|e| e.id == id)?;
        Some(self.entries.remove(i))
    }

    /// Iterate newest→oldest.
    pub fn iter(&self) -> impl Iterator<Item = &GhostEntry> {
        self.entries.iter()
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Reference segmented queue: `Vec` of model segments, same cascade rules
/// as [`crate::SegmentedQueue`]. Index 0 = eviction end; within a segment,
/// index 0 = MRU.
#[derive(Debug, Clone)]
pub struct ModelSegQ {
    segments: Vec<Vec<EntryMeta>>,
    budgets: Vec<u64>,
    total_capacity: u64,
}

impl ModelSegQ {
    /// Build with the same fraction→budget rounding as the real queue.
    pub fn new(total_capacity: u64, fractions: &[f64]) -> Self {
        assert!(!fractions.is_empty(), "need at least one segment");
        let mut budgets: Vec<u64> = fractions
            .iter()
            .map(|&f| {
                assert!(f > 0.0, "segment fraction must be positive");
                (total_capacity as f64 * f) as u64
            })
            .collect();
        let last = budgets.len() - 1;
        let sum_head: u64 = budgets[..last].iter().sum();
        budgets[last] = total_capacity.saturating_sub(sum_head).max(1);
        ModelSegQ {
            segments: fractions.iter().map(|_| Vec::new()).collect(),
            budgets,
            total_capacity,
        }
    }

    /// Equal-share segmentation.
    pub fn equal(total_capacity: u64, n_segments: usize) -> Self {
        let frac = vec![1.0 / n_segments as f64; n_segments];
        Self::new(total_capacity, &frac)
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> u64 {
        self.total_capacity
    }

    /// Bytes resident across all segments (u128 scan).
    pub fn used_bytes(&self) -> u64 {
        let sum: u128 = self
            .segments
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.size as u128)
            .sum();
        u64::try_from(sum).unwrap_or(u64::MAX)
    }

    /// Objects resident across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear-scan residency test.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.segment_of(id).is_some()
    }

    /// Segment currently holding `id`.
    pub fn segment_of(&self, id: ObjectId) -> Option<usize> {
        self.segments
            .iter()
            .position(|s| s.iter().any(|e| e.id == id))
    }

    /// Entry metadata of a resident object.
    pub fn get(&self, id: ObjectId) -> Option<&EntryMeta> {
        self.segments
            .iter()
            .flat_map(|s| s.iter())
            .find(|e| e.id == id)
    }

    fn seg_used(&self, i: usize) -> u128 {
        self.segments[i].iter().map(|e| e.size as u128).sum()
    }

    fn rebalance(&mut self, from: usize, evicted: &mut Vec<EvictedEntry>) {
        for i in (0..=from).rev() {
            while self.seg_used(i) > self.budgets[i] as u128 {
                let victim = self.segments[i].pop().expect("overfull segment nonempty");
                if i == 0 {
                    evicted.push(victim);
                } else {
                    self.segments[i - 1].insert(0, victim);
                }
            }
        }
    }

    /// Insert a new object at the MRU position of segment `seg`.
    pub fn insert(&mut self, seg: usize, id: ObjectId, size: u64, tick: Tick) -> Vec<EvictedEntry> {
        assert!(seg < self.segments.len());
        debug_assert!(!self.contains(id));
        self.segments[seg].insert(0, meta(id, size, tick, true));
        let mut evicted = Vec::new();
        self.rebalance(self.segments.len() - 1, &mut evicted);
        evicted
    }

    /// Record a hit and move to the MRU position of `target_seg`.
    pub fn hit_move_to(
        &mut self,
        id: ObjectId,
        target_seg: usize,
        tick: Tick,
    ) -> Vec<EvictedEntry> {
        assert!(target_seg < self.segments.len());
        let cur = self.segment_of(id).expect("hit on non-resident object");
        let i = self.segments[cur]
            .iter()
            .position(|e| e.id == id)
            .expect("resident");
        let mut m = self.segments[cur].remove(i);
        m.hits += 1;
        m.last_access = tick;
        m.inserted_at_mru = true;
        self.segments[target_seg].insert(0, m);
        let mut evicted = Vec::new();
        self.rebalance(self.segments.len() - 1, &mut evicted);
        evicted
    }

    /// Move one position toward the global MRU end (crossing a boundary
    /// enters the LRU position of the segment above; never rebalances).
    pub fn promote_one_global(&mut self, id: ObjectId) {
        let Some(seg) = self.segment_of(id) else {
            return;
        };
        let i = self.segments[seg]
            .iter()
            .position(|e| e.id == id)
            .expect("resident");
        if i == 0 {
            if seg + 1 < self.segments.len() {
                let m = self.segments[seg].remove(0);
                self.segments[seg + 1].push(m);
            }
        } else {
            self.segments[seg].swap(i, i - 1);
        }
    }

    /// Iterate all entries in global recency order (most protected first).
    pub fn iter_global(&self) -> impl Iterator<Item = &EntryMeta> {
        self.segments.iter().rev().flat_map(|s| s.iter())
    }
}

/// Reference LRU/LIP policy over [`ModelLru`], implementing the
/// workspace-wide oversized-object contract. Mirrors the semantics of
/// `InsertionCache<Mip>` / `InsertionCache<Lip>`: hit promotes to MRU,
/// miss inserts at `insert_pos`, `size > capacity` is rejected untouched.
#[derive(Debug, Clone)]
pub struct ModelLruPolicy {
    cache: ModelLru,
    insert_pos: InsertPos,
    name: &'static str,
    stats: PolicyStats,
}

impl ModelLruPolicy {
    /// Reference policy with the given capacity and insertion end.
    pub fn new(capacity: u64, insert_pos: InsertPos) -> Self {
        ModelLruPolicy {
            cache: ModelLru::new(capacity),
            insert_pos,
            name: match insert_pos {
                InsertPos::Mru => "ModelLRU",
                InsertPos::Lru => "ModelLIP",
            },
            stats: PolicyStats::default(),
        }
    }

    /// The underlying model queue (for order comparisons).
    pub fn queue(&self) -> &ModelLru {
        &self.cache
    }
}

impl CachePolicy for ModelLruPolicy {
    fn name(&self) -> &str {
        self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        if self.cache.contains(req.id) {
            self.cache.record_hit(req.id, req.tick);
            self.cache.promote_to_mru(req.id);
            return AccessKind::Hit;
        }
        if !self.cache.admissible(req.size) {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while self.cache.needs_eviction_for(req.size) {
            self.cache.evict_lru().expect("nonempty");
            self.stats.evictions += 1;
        }
        match self.insert_pos {
            InsertPos::Mru => self.cache.insert_mru(req.id, req.size, req.tick),
            InsertPos::Lru => self.cache.insert_lru(req.id, req.size, req.tick),
        }
        self.stats.insertions += 1;
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.cache.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.cache.entries.capacity() * std::mem::size_of::<EntryMeta>()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.cache.len(),
            resident_bytes: self.cache.used_bytes(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_lru_basics() {
        let mut m = ModelLru::new(300);
        m.insert_mru(ObjectId(1), 100, 0);
        m.insert_mru(ObjectId(2), 100, 1);
        m.insert_lru(ObjectId(3), 100, 2);
        assert_eq!(m.used_bytes(), 300);
        let order: Vec<u64> = m.iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(m.evict_lru().unwrap().id, ObjectId(3));
        m.promote_to_mru(ObjectId(1));
        assert_eq!(m.peek_mru().unwrap().id, ObjectId(1));
    }

    #[test]
    fn model_ghost_mirrors_real_semantics() {
        let mut g = ModelGhost::new(250);
        for i in 0..3 {
            g.add(GhostEntry {
                id: ObjectId(i),
                size: 100,
                evicted_tick: i,
                tag: 0,
            });
        }
        assert!(!g.contains(ObjectId(0)));
        assert_eq!(g.used_bytes(), 200);
        g.add(GhostEntry {
            id: ObjectId(9),
            size: 500,
            evicted_tick: 3,
            tag: 0,
        });
        assert!(!g.contains(ObjectId(9)));
    }

    #[test]
    fn model_policy_rejects_oversized_untouched() {
        let mut p = ModelLruPolicy::new(10, InsertPos::Mru);
        let r = Request::new(0, 1, 100);
        assert_eq!(
            p.on_request(&r),
            AccessKind::Rejected(RejectReason::TooLarge)
        );
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.stats().insertions, 0);
    }
}
