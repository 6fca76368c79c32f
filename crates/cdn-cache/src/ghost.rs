//! FIFO ghost (history) lists of evicted-object metadata.
//!
//! The paper keeps two such lists: `H_m` for victims whose residency began
//! at the MRU position and `H_l` for victims inserted at the LRU position,
//! each logically sized at half the real cache. Only metadata (key + size)
//! is stored, so the memory overhead is small — this mirrors the TDC
//! deployment where shadow caches live in RAM next to the inode index.
//!
//! It is the history ring of [`crate::LruQueue::with_history`] under its
//! own index: every key maps to its ring position, and the index holds no
//! resident keys. A policy that evicts from an [`crate::LruQueue`] keeps
//! its histories in that queue instead (SCIP, ARC, LeCaR, 2Q, CACHEUS), so
//! one probe classifies a key. This list serves the users with no queue
//! to key through: host-mode SCIP (`ScipBrain` on LRU-K and LRB) and
//! `tdc`'s stale store.

use crate::index::FusedIndex;
use crate::object::{ObjectId, Tick};
use crate::queue::{hist_decode, hist_payload, HistoryList, HistoryRing, RingEntry};

/// A ghost list is one ring; every index payload names this list.
const LIST: HistoryList = HistoryList::Hm;

/// Metadata remembered about an evicted object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhostEntry {
    /// Object identity.
    pub id: ObjectId,
    /// Size at eviction time (counts against the list's byte budget).
    pub size: u64,
    /// Tick at which the object was evicted from the real cache.
    pub evicted_tick: Tick,
    /// Policy-private tag carried over from the residency.
    pub tag: u64,
}

impl RingEntry for GhostEntry {
    const EMPTY: Self = GhostEntry {
        id: ObjectId(0),
        size: 0,
        evicted_tick: 0,
        tag: 0,
    };

    #[inline]
    fn id(&self) -> ObjectId {
        self.id
    }

    #[inline]
    fn size(&self) -> u64 {
        self.size
    }
}

/// Byte-budgeted FIFO list of [`GhostEntry`]s with O(1) membership tests.
///
/// `ADD` inserts at the head; when the budget is exceeded the oldest entries
/// fall off the tail (Algorithm 1, lines 34-38).
#[derive(Debug, Clone)]
pub struct GhostList {
    ring: HistoryRing<GhostEntry>,
    map: FusedIndex,
    capacity_bytes: u64,
}

impl GhostList {
    /// Ghost list with the given byte budget.
    pub fn new(capacity_bytes: u64) -> Self {
        GhostList {
            ring: HistoryRing::default(),
            map: FusedIndex::new(),
            capacity_bytes,
        }
    }

    /// Byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes of (logical) object sizes currently tracked.
    pub fn used_bytes(&self) -> u64 {
        self.ring.used
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.ring.live
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.ring.live == 0
    }

    /// True if `id` is tracked.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains(id.0)
    }

    /// Shared access to a tracked entry.
    pub fn get(&self, id: ObjectId) -> Option<&GhostEntry> {
        let (_, pos) = hist_decode(self.map.get(id.0)?);
        Some(&self.ring.slots[pos])
    }

    /// Record an eviction (the paper's `ADD`): insert at the head, dropping
    /// tail entries until the new entry fits. If the object is already
    /// tracked, its old entry is deleted first, so the refreshed one lands
    /// at the head.
    ///
    /// Objects larger than the whole budget are not tracked at all (they
    /// could never be re-found anyway without evicting everything).
    pub fn add(&mut self, entry: GhostEntry) {
        if entry.size > self.capacity_bytes {
            // Still forget any stale record of the same id.
            self.delete(entry.id);
            return;
        }
        // A refresh tombstones the old slot but keeps the key's bucket,
        // which the insert below then rewrites in place.
        if let Some(p) = self.map.get(entry.id.0) {
            self.ring.kill(hist_decode(p).1);
        }
        let pos = self
            .ring
            .add(entry, self.capacity_bytes, &mut self.map, LIST);
        self.map.insert(entry.id.0, hist_payload(LIST, pos));
        #[cfg(feature = "audit")]
        self.audit().expect("ghost-list invariants");
    }

    /// Forget an object (the paper's `DELETE`), returning its entry if it
    /// was tracked.
    pub fn delete(&mut self, id: ObjectId) -> Option<GhostEntry> {
        let (_, pos) = hist_decode(self.map.remove(id.0)?);
        let e = self.ring.kill(pos);
        #[cfg(feature = "audit")]
        self.audit().expect("ghost-list invariants");
        Some(e)
    }

    /// Iterate entries newest→oldest.
    pub fn iter(&self) -> impl Iterator<Item = &GhostEntry> {
        self.ring.iter().map(|(_, e)| e)
    }

    /// True metadata footprint in bytes: the ring's slots and tombstone
    /// bits plus the fused index's bucket array.
    pub fn memory_bytes(&self) -> usize {
        self.ring.memory_bytes() + self.map.memory_bytes()
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.map.clear();
    }

    /// Structural invariant walk (O(n)): ring consistency, every live slot
    /// indexed at its position, ledger == Σ tracked sizes (summed in u128)
    /// and within the byte budget, and an index holding nothing else.
    /// Returns a description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        self.ring
            .audit(LIST, self.capacity_bytes, &self.map)
            .map_err(|e| format!("ghost: {e}"))?;
        self.map.audit().map_err(|e| format!("ghost: {e}"))?;
        // Every live slot's key resolves to that slot, so equal counts
        // leave no key in the index without a slot.
        if self.ring.live != self.map.len() {
            return Err(format!(
                "ghost: ring has {} entries, index has {}",
                self.ring.live,
                self.map.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, size: u64, tick: Tick) -> GhostEntry {
        GhostEntry {
            id: ObjectId(id),
            size,
            evicted_tick: tick,
            tag: 0,
        }
    }

    #[test]
    fn add_and_contains() {
        let mut g = GhostList::new(1000);
        g.add(entry(1, 100, 0));
        assert!(g.contains(ObjectId(1)));
        assert_eq!(g.used_bytes(), 100);
        assert_eq!(g.get(ObjectId(1)).unwrap().size, 100);
    }

    #[test]
    fn budget_drops_oldest() {
        let mut g = GhostList::new(250);
        g.add(entry(1, 100, 0));
        g.add(entry(2, 100, 1));
        g.add(entry(3, 100, 2)); // 300 > 250: drop oldest (1)
        assert!(!g.contains(ObjectId(1)));
        assert!(g.contains(ObjectId(2)));
        assert!(g.contains(ObjectId(3)));
        assert_eq!(g.used_bytes(), 200);
    }

    #[test]
    fn delete_frees_budget() {
        let mut g = GhostList::new(200);
        g.add(entry(1, 100, 0));
        g.add(entry(2, 100, 1));
        let e = g.delete(ObjectId(1)).unwrap();
        assert_eq!(e.evicted_tick, 0);
        assert_eq!(g.used_bytes(), 100);
        assert_eq!(g.delete(ObjectId(1)), None);
        // Freed budget admits a new entry without dropping id 2.
        g.add(entry(3, 100, 2));
        assert!(g.contains(ObjectId(2)));
    }

    #[test]
    fn re_add_refreshes_position() {
        let mut g = GhostList::new(250);
        g.add(entry(1, 100, 0));
        g.add(entry(2, 100, 1));
        g.add(entry(1, 100, 2)); // refresh id 1 to the head
        assert_eq!(g.len(), 2);
        assert_eq!(g.used_bytes(), 200);
        g.add(entry(3, 100, 3)); // over budget: the oldest is now id 2
        assert!(g.contains(ObjectId(1)));
        assert!(!g.contains(ObjectId(2)));
    }

    #[test]
    fn oversized_entry_not_tracked() {
        let mut g = GhostList::new(100);
        g.add(entry(1, 500, 0));
        assert!(!g.contains(ObjectId(1)));
        assert_eq!(g.used_bytes(), 0);
    }

    #[test]
    fn oversized_re_add_forgets_previous() {
        let mut g = GhostList::new(100);
        g.add(entry(1, 50, 0));
        g.add(entry(1, 500, 1)); // grew beyond budget: must forget
        assert!(!g.contains(ObjectId(1)));
        assert_eq!(g.used_bytes(), 0);
    }

    #[test]
    fn fifo_order_iter() {
        let mut g = GhostList::new(1000);
        for i in 0..5 {
            g.add(entry(i, 10, i));
        }
        let order: Vec<u64> = g.iter().map(|e| e.id.0).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn ghost_ring_stays_within_four_times_live_under_readd_churn() {
        // An unbounded budget and a closed universe: entries leave the ring
        // only as tombstones (a re-add's old slot, or a delete), never for
        // budget, so compaction alone keeps the ring sized to its entries.
        use crate::queue::MIN_RING;
        use crate::rng::SimRng;
        let mut g = GhostList::new(u64::MAX);
        let mut rng = SimRng::new(0x6057);
        let (mut peak_live, mut readds) = (0usize, 0usize);
        for step in 0..100_000u64 {
            let id = ObjectId(rng.u64_below(100));
            if rng.u64_below(4) == 0 {
                g.delete(id);
            } else {
                readds += usize::from(g.contains(id));
                g.add(entry(id.0, 1 + rng.u64_below(1_000), step));
            }
            peak_live = peak_live.max(g.len());
            let slots = g.ring.slots.len();
            assert!(
                slots <= MIN_RING.max(4 * peak_live),
                "step {step}: {slots} slots for at most {peak_live} live"
            );
            if step % 1_000 == 0 {
                g.audit().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        g.audit().unwrap();
        assert!(readds >= 50_000, "only {readds} re-adds");
    }
}
