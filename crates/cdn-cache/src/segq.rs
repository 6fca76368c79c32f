//! A segmented recency queue: a stack of LRU queues with cascading demotion.
//!
//! Segment `n-1` is the most-protected end; segment `0` is the eviction end.
//! An entry enters a segment at its MRU position once the segment's LRU
//! entries have been demoted to the MRU position of the segment below
//! until it fits the segment's byte budget (demoted itself, last, when it
//! is larger than the budget); what leaves segment 0 is evicted. This is
//! the structure behind S4LRU and SS-LRU, and its segment boundaries give
//! PIPP and DGIPPR their O(1) "insert at queue fraction k/N" positions.
//!
//! The *global* recency order is the concatenation
//! `seg[n-1] (MRU→LRU) ++ ... ++ seg[0] (MRU→LRU)`.

use crate::index::FusedIndex;
use crate::object::{ObjectId, Tick};
use crate::queue::{needs_eviction, EntryMeta, EvictedEntry, LruQueue};

/// Stack of LRU queues with per-segment byte budgets.
#[derive(Debug, Clone)]
pub struct SegmentedQueue {
    /// Index 0 = eviction end. Each queue is built at the total capacity:
    /// [`SegmentedQueue::promote_one_global`] may leave a segment over its
    /// budget, never the stack over the total.
    segments: Vec<LruQueue>,
    budgets: Vec<u64>,
    /// id → segment index, stored in a fused open-addressing table
    /// (segment indices are ≤ 255, far from the empty sentinel).
    seg_of: FusedIndex,
}

impl SegmentedQueue {
    /// Build with `fractions.len()` segments; `fractions[i]` is segment
    /// `i`'s share of `total_capacity`. Fractions must be positive and sum
    /// to ~1.
    pub fn new(total_capacity: u64, fractions: &[f64]) -> Self {
        assert!(!fractions.is_empty(), "need at least one segment");
        assert!(fractions.len() <= 256, "at most 256 segments");
        let sum: f64 = fractions.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "segment fractions must sum to 1 (got {sum})"
        );
        let mut budgets: Vec<u64> = fractions
            .iter()
            .map(|&f| {
                assert!(f > 0.0, "segment fraction must be positive");
                (total_capacity as f64 * f) as u64
            })
            .collect();
        // Give rounding remainder to the top segment so budgets sum to the
        // total capacity exactly (f64 rounding can land on either side for
        // huge capacities, hence the saturating form).
        let last = budgets.len() - 1;
        let sum_head: u64 = budgets[..last].iter().sum();
        budgets[last] = total_capacity.saturating_sub(sum_head).max(1);
        SegmentedQueue {
            segments: fractions
                .iter()
                .map(|_| LruQueue::new(total_capacity))
                .collect(),
            budgets,
            seg_of: FusedIndex::new(),
        }
    }

    /// Equal-share segmentation (S4LRU uses 4 segments).
    pub fn equal(total_capacity: u64, n_segments: usize) -> Self {
        let frac = vec![1.0 / n_segments as f64; n_segments];
        Self::new(total_capacity, &frac)
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> u64 {
        self.segments[0].capacity()
    }

    /// Bytes resident across all segments.
    pub fn used_bytes(&self) -> u64 {
        self.segments.iter().map(LruQueue::used_bytes).sum()
    }

    /// Objects resident across all segments.
    pub fn len(&self) -> usize {
        self.seg_of.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.seg_of.is_empty()
    }

    /// True if `id` is resident (in any segment).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.seg_of.contains(id.0)
    }

    /// Pull the segment-index bucket for `id` toward L1 ahead of a lookup
    /// a few requests from now (batched replay).
    #[inline]
    pub fn prefetch_lookup(&self, id: ObjectId) {
        self.seg_of.prefetch(id.0);
    }

    /// Segment currently holding `id`.
    pub fn segment_of(&self, id: ObjectId) -> Option<usize> {
        self.seg_of.get(id.0).map(|s| s as usize)
    }

    /// Entry metadata of a resident object.
    pub fn get(&self, id: ObjectId) -> Option<EntryMeta> {
        let seg = self.seg_of.get(id.0)?;
        self.segments[seg as usize].get(id)
    }

    /// Record a hit on a resident object: bump hit count and last-access
    /// without moving it (the segment queues' hot arrays absorb the
    /// write).
    pub fn record_hit(&mut self, id: ObjectId, tick: Tick) {
        if let Some(seg) = self.seg_of.get(id.0) {
            self.segments[seg as usize].record_hit(id, tick);
        }
    }

    /// Place `entry` at the MRU position of segment `seg`, top segment
    /// first bringing each back within its budget, and return what leaves
    /// segment 0. A segment first demotes what a global promotion left
    /// over its budget, then [`enter`]s its arrivals oldest first: `entry`,
    /// then what the segment above let go. That demotes what inserting
    /// every arrival and then demoting from the LRU end until the segment
    /// fits would, in the same order, without overfilling the segment.
    fn place(&mut self, seg: usize, entry: EntryMeta) -> Vec<EvictedEntry> {
        assert!(seg < self.segments.len());
        self.seg_of.insert(entry.id.0, seg as u64);
        // `moving[next..]` arrive at segment `i`; what it lets go is pushed
        // behind them and arrives at segment `i - 1`.
        let mut moving = Vec::new();
        let mut next = 0;
        for i in (0..self.segments.len()).rev() {
            let (q, budget) = (&mut self.segments[i], self.budgets[i]);
            let arrivals = next..moving.len();
            while q.used_bytes() > budget {
                moving.push(q.evict_lru().expect("over budget"));
            }
            if i == seg {
                enter(q, budget, entry, &mut moving);
            }
            for k in arrivals.clone() {
                enter(q, budget, moving[k], &mut moving);
            }
            for e in &moving[arrivals.end..] {
                if i == 0 {
                    self.seg_of.remove(e.id.0);
                } else {
                    self.seg_of.insert(e.id.0, (i - 1) as u64);
                }
            }
            next = arrivals.end;
        }
        moving.drain(..next);
        moving
    }

    /// Insert a *new* object at the MRU position of segment `seg`,
    /// returning any entries evicted out the bottom.
    pub fn insert(&mut self, seg: usize, id: ObjectId, size: u64, tick: Tick) -> Vec<EvictedEntry> {
        self.insert_meta(seg, LruQueue::make_meta(id, size, tick, true))
    }

    /// Re-insert a preserved entry at the MRU position of segment `seg`
    /// without resetting its residency statistics, making room exactly as
    /// a normal insert would (snapshot restore path: replaying a
    /// previously exported resident set coldest-first reconstructs each
    /// segment's recency order).
    pub fn insert_meta(&mut self, seg: usize, meta: EntryMeta) -> Vec<EvictedEntry> {
        debug_assert!(!self.contains(meta.id), "insert of resident object");
        self.place(seg, meta)
    }

    /// Record a hit and move the object to the MRU position of segment
    /// `target_seg` (S4LRU: `min(cur + 1, n-1)`), returning overflow
    /// evictions.
    pub fn hit_move_to(
        &mut self,
        id: ObjectId,
        target_seg: usize,
        tick: Tick,
    ) -> Vec<EvictedEntry> {
        let cur = self.seg_of.get(id.0).expect("hit on non-resident object") as usize;
        self.segments[cur].record_hit(id, tick);
        let mut meta = self.segments[cur].remove(id).expect("resident");
        meta.inserted_at_mru = true;
        self.place(target_seg, meta)
    }

    /// Move the object one position toward the global MRU end. Crossing a
    /// segment boundary moves it to the LRU position of the segment above.
    pub fn promote_one_global(&mut self, id: ObjectId) {
        let Some(seg) = self.seg_of.get(id.0) else {
            return;
        };
        let seg = seg as usize;
        let at_front = self.segments[seg].peek_mru().is_some_and(|m| m.id == id);
        if at_front {
            if seg + 1 < self.segments.len() {
                let meta = self.segments[seg].remove(id).expect("resident");
                self.segments[seg + 1].insert_meta_lru(meta);
                self.seg_of.insert(id.0, (seg + 1) as u64);
                // Note: byte budgets are intentionally not rebalanced here;
                // promote-by-one must not evict. The next insert does.
            }
        } else {
            self.segments[seg].promote_one(id);
        }
    }

    /// Iterate a segment's entries MRU→LRU.
    pub fn iter_segment(&self, seg: usize) -> impl Iterator<Item = EntryMeta> + '_ {
        self.segments[seg].iter()
    }

    /// Iterate all entries in global recency order (most protected first).
    pub fn iter_global(&self) -> impl Iterator<Item = EntryMeta> + '_ {
        self.segments.iter().rev().flat_map(|s| s.iter())
    }

    /// Structural invariant walk (O(n)). Checks each segment's internal
    /// consistency (via [`LruQueue::audit`]), that `seg_of` and the segment
    /// queues describe the same resident set with matching indices, and
    /// that the total resident bytes (summed in u128) fit the queue's
    /// capacity. Per-segment byte *budgets* are deliberately not checked:
    /// [`SegmentedQueue::promote_one_global`] overfills them by design and
    /// the next insert rebalances.
    pub fn audit(&self) -> Result<(), String> {
        let mut sum: u128 = 0;
        let mut n = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            seg.audit().map_err(|e| format!("segq seg {i}: {e}"))?;
            for m in seg.iter() {
                match self.seg_of.get(m.id.0) {
                    None => {
                        return Err(format!("segq: resident {} missing from seg_of", m.id.0));
                    }
                    Some(s) if s as usize != i => {
                        return Err(format!(
                            "segq: {} resident in seg {i} but seg_of says {s}",
                            m.id.0
                        ));
                    }
                    _ => {}
                }
                sum += m.size as u128;
                n += 1;
            }
        }
        self.seg_of.audit().map_err(|e| format!("segq: {e}"))?;
        if n != self.seg_of.len() {
            return Err(format!(
                "segq: segments hold {n} entries, seg_of has {}",
                self.seg_of.len()
            ));
        }
        if sum > self.capacity() as u128 {
            return Err(format!(
                "segq: Σsizes={sum} exceeds capacity={}",
                self.capacity()
            ));
        }
        Ok(())
    }

    /// True metadata footprint: per-segment hot/cold arrays and index
    /// tables plus the global segment-index table.
    pub fn memory_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.memory_bytes())
            .sum::<usize>()
            + self.seg_of.memory_bytes()
    }
}

/// Place `e` at the MRU position of `q` after demoting `q`'s LRU entries
/// into `out` until it fits `budget`; an entry larger than the whole
/// budget is demoted itself, last.
fn enter(q: &mut LruQueue, budget: u64, e: EntryMeta, out: &mut Vec<EntryMeta>) {
    while needs_eviction(budget, q.used_bytes(), e.size) {
        match q.evict_lru() {
            Some(v) => out.push(v),
            None => return out.push(e),
        }
    }
    q.insert_meta_mru(e);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global_ids(q: &SegmentedQueue) -> Vec<u64> {
        q.iter_global().map(|m| m.id.0).collect()
    }

    #[test]
    fn budgets_sum_to_capacity() {
        let q = SegmentedQueue::new(1000, &[0.3, 0.3, 0.4]);
        assert_eq!(q.budgets.iter().sum::<u64>(), 1000);
        assert_eq!(q.n_segments(), 3);
    }

    #[test]
    fn insert_into_segment_and_lookup() {
        let mut q = SegmentedQueue::equal(400, 2);
        let ev = q.insert(1, ObjectId(1), 100, 0);
        assert!(ev.is_empty());
        assert_eq!(q.segment_of(ObjectId(1)), Some(1));
        assert_eq!(q.used_bytes(), 100);
        assert!(q.contains(ObjectId(1)));
    }

    #[test]
    fn overflow_cascades_downward() {
        let mut q = SegmentedQueue::equal(400, 2); // 200 per segment
        q.insert(1, ObjectId(1), 150, 0);
        q.insert(1, ObjectId(2), 150, 1); // seg1 over budget: demote id 1
        assert_eq!(q.segment_of(ObjectId(1)), Some(0));
        assert_eq!(q.segment_of(ObjectId(2)), Some(1));
        assert_eq!(q.used_bytes(), 300);
    }

    #[test]
    fn overflow_evicts_from_bottom() {
        let mut q = SegmentedQueue::equal(400, 2);
        q.insert(1, ObjectId(1), 150, 0);
        q.insert(1, ObjectId(2), 150, 1);
        let ev = q.insert(1, ObjectId(3), 150, 2);
        // id2,id3 in seg1 -> id2 demoted; seg0 holds id1+id2=300 > 200 ->
        // evict id1.
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, ObjectId(1));
        assert_eq!(q.used_bytes(), 300);
    }

    #[test]
    fn s4lru_style_hit_promotion() {
        let mut q = SegmentedQueue::equal(4000, 4);
        q.insert(0, ObjectId(1), 100, 0);
        assert_eq!(q.segment_of(ObjectId(1)), Some(0));
        q.hit_move_to(ObjectId(1), 1, 1);
        assert_eq!(q.segment_of(ObjectId(1)), Some(1));
        assert_eq!(q.get(ObjectId(1)).unwrap().hits, 1);
        q.hit_move_to(ObjectId(1), 2, 2);
        assert_eq!(q.segment_of(ObjectId(1)), Some(2));
        assert_eq!(q.get(ObjectId(1)).unwrap().hits, 2);
    }

    #[test]
    fn global_order_concatenates_segments() {
        let mut q = SegmentedQueue::equal(10_000, 2);
        q.insert(1, ObjectId(1), 10, 0);
        q.insert(1, ObjectId(2), 10, 1);
        q.insert(0, ObjectId(3), 10, 2);
        q.insert(0, ObjectId(4), 10, 3);
        // seg1: 2,1 ; seg0: 4,3 → global: 2 1 4 3
        assert_eq!(global_ids(&q), vec![2, 1, 4, 3]);
    }

    #[test]
    fn promote_one_within_and_across_segments() {
        let mut q = SegmentedQueue::equal(10_000, 2);
        q.insert(0, ObjectId(1), 10, 0);
        q.insert(0, ObjectId(2), 10, 1);
        // seg0 order: 2,1
        q.promote_one_global(ObjectId(1));
        assert_eq!(global_ids(&q), vec![1, 2]);
        // id 1 now at front of seg0: next promote crosses into seg1 (LRU
        // position of seg1).
        q.promote_one_global(ObjectId(1));
        assert_eq!(q.segment_of(ObjectId(1)), Some(1));
        q.insert(1, ObjectId(3), 10, 2);
        assert_eq!(global_ids(&q), vec![3, 1, 2]);
        // At front of the top segment: promote is a no-op.
        q.promote_one_global(ObjectId(3));
        assert_eq!(global_ids(&q), vec![3, 1, 2]);
    }

    #[test]
    fn meta_preserved_across_demotion() {
        let mut q = SegmentedQueue::equal(400, 2);
        q.insert(1, ObjectId(1), 150, 0);
        q.hit_move_to(ObjectId(1), 1, 5);
        q.insert(1, ObjectId(2), 150, 6); // demotes id 1 to seg0
        let m = q.get(ObjectId(1)).unwrap();
        assert_eq!(m.hits, 1);
        assert_eq!(m.inserted_tick, 0);
        assert_eq!(m.last_access, 5);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_fractions_rejected() {
        let _ = SegmentedQueue::new(100, &[0.5, 0.2]);
    }
}
