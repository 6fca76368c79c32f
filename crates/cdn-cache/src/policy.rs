//! The policy interface every caching algorithm in the workspace implements.
//!
//! A policy owns its cache structure(s) and is driven one request at a time
//! by the simulator. The trait is object-safe so the simulator can sweep
//! heterogeneous policy sets (`Box<dyn CachePolicy>`).

use crate::object::{ObjectId, Request, Tick};
use crate::queue::{needs_eviction, EntryMeta, LruQueue};
use crate::segq::SegmentedQueue;

/// Where an object is (re-)inserted in the recency queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertPos {
    /// Head of the queue (most-recently-used end).
    Mru,
    /// Tail of the queue (least-recently-used end).
    Lru,
}

/// Why a request was rejected without touching cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// `req.size > capacity`: the object can never fit, so admitting it
    /// would evict the whole cache for nothing. No insertion, no eviction,
    /// no ghost/history write.
    TooLarge,
}

/// Outcome of a single request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Object was resident.
    Hit,
    /// Object was not resident (and was fetched/inserted if admissible).
    Miss,
    /// Object was not resident and the policy refused to consider it.
    /// Counts as a miss for hit-ratio purposes ([`AccessKind::is_hit`] is
    /// false) but guarantees cache state was left untouched.
    Rejected(RejectReason),
}

impl AccessKind {
    /// True for [`AccessKind::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessKind::Hit)
    }

    /// True for [`AccessKind::Rejected`].
    pub fn is_rejected(self) -> bool {
        matches!(self, AccessKind::Rejected(_))
    }
}

/// Aggregate counters a policy can report for diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Objects currently resident.
    pub resident_objects: usize,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Evictions performed so far.
    pub evictions: u64,
    /// Insertions performed so far.
    pub insertions: u64,
}

/// One resident object as exported by
/// [`CachePolicy::for_each_resident`] and replayed by
/// [`CachePolicy::restore_resident`] — the whole [`EntryMeta`] plus a
/// policy-private `bucket` naming the compartment the entry lives in
/// (segment index for segmented queues, window/main for W-TinyLFU, 0 for
/// single-queue policies), so a restore can put it back where it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentEntry {
    /// Object identity.
    pub id: ObjectId,
    /// Object size in bytes.
    pub size: u64,
    /// Policy compartment the entry resides in (see struct docs).
    pub bucket: u32,
    /// Whether the current residency began at the MRU position.
    pub inserted_at_mru: bool,
    /// Tick when this residency began.
    pub inserted_tick: Tick,
    /// Tick of the most recent access.
    pub last_access: Tick,
    /// Hits during this residency.
    pub hits: u32,
    /// Policy-private tag (segment index, SHiP signature, ...).
    pub tag: u64,
}

impl ResidentEntry {
    /// Wrap a queue entry with its compartment index.
    fn from_meta(meta: &EntryMeta, bucket: u32) -> Self {
        ResidentEntry {
            id: meta.id,
            size: meta.size,
            bucket,
            inserted_at_mru: meta.inserted_at_mru,
            inserted_tick: meta.inserted_tick,
            last_access: meta.last_access,
            hits: meta.hits,
            tag: meta.tag,
        }
    }

    /// The queue-level view of this entry (drops the bucket).
    pub fn to_meta(&self) -> EntryMeta {
        EntryMeta {
            id: self.id,
            size: self.size,
            inserted_at_mru: self.inserted_at_mru,
            inserted_tick: self.inserted_tick,
            last_access: self.last_access,
            hits: self.hits,
            tag: self.tag,
        }
    }
}

/// A complete cache replacement algorithm (victim selection + insertion +
/// promotion) driven request by request.
pub trait CachePolicy {
    /// Short identifier used in tables and figures (e.g. `"SCIP"`).
    fn name(&self) -> &str;

    /// Process one request and report hit/miss.
    ///
    /// On a miss the policy is expected to admit the object (unless its own
    /// admission logic declines or the object exceeds capacity), evicting as
    /// needed. Requests must arrive with non-decreasing `tick`.
    fn on_request(&mut self, req: &Request) -> AccessKind;

    /// Byte capacity of the managed cache.
    fn capacity(&self) -> u64;

    /// Bytes currently resident.
    fn used_bytes(&self) -> u64;

    /// Approximate bytes of policy metadata (queues, maps, ghost lists,
    /// models). Basis of the paper's Figure 9(b)/11(b) memory comparison.
    fn memory_bytes(&self) -> usize;

    /// Aggregate counters.
    fn stats(&self) -> PolicyStats;

    /// Hint that `id` will be requested a few steps from now. Policies
    /// backed by a fused index pull the relevant bucket toward L1 so the
    /// eventual lookup probe starts warm; the default is a no-op, so
    /// correctness never depends on this being called (or implemented).
    #[inline]
    fn prefetch_hint(&self, _id: ObjectId) {}

    /// Walk the resident set read-only, hottest compartment first and
    /// MRU→LRU within each compartment, and return `true`. The seam the
    /// cdnd snapshot subsystem exports through: implementations must take
    /// `&self` semantics literally — no promotion, no counter bumps, no
    /// history writes — so exporting a snapshot can never perturb the
    /// ledger. The default returns `false` (export unsupported → the
    /// daemon restarts that shard cold).
    fn for_each_resident(&self, _visit: &mut dyn FnMut(&ResidentEntry)) -> bool {
        false
    }

    /// Rebuild warmth from a previously exported resident set, given in
    /// the order [`CachePolicy::for_each_resident`] yields (hottest
    /// first). Only call on a freshly built (empty) policy. Entries that
    /// no longer fit, duplicate ids, or out-of-range buckets are skipped
    /// defensively, never panicked on — snapshot files are CRC-validated
    /// upstream but restores must survive anything that slips through.
    /// Returns `false` when the policy cannot restore (cold restart);
    /// learned/approximate side state (sketches, ghost lists, models)
    /// restarts cold unless [`CachePolicy::restore_learned`] covers it.
    fn restore_resident(&mut self, _entries: &[ResidentEntry]) -> bool {
        false
    }

    /// Export the policy's small learned-parameter block (for SCIP: the
    /// per-size-class ω_m vector, ω_p, the λ learning-rate state and the
    /// traversal estimate) as an opaque, versioned byte blob. `None` means
    /// the policy has no learned block worth snapshotting.
    fn export_learned(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore a learned block previously produced by
    /// [`CachePolicy::export_learned`]. Implementations must validate the
    /// blob (version, length, finiteness) and re-clamp every parameter
    /// into its invariant range so `audit()` holds afterwards; `false`
    /// means the blob was unrecognized and ignored (state left as built).
    fn restore_learned(&mut self, _block: &[u8]) -> bool {
        false
    }
}

/// Walk `queue` MRU→LRU as [`ResidentEntry`]s in compartment `bucket` —
/// the shared body of [`CachePolicy::for_each_resident`] for policies
/// backed by a single [`LruQueue`]. Strictly read-only.
pub fn export_lru_queue(queue: &LruQueue, bucket: u32, visit: &mut dyn FnMut(&ResidentEntry)) {
    for meta in queue.iter() {
        visit(&ResidentEntry::from_meta(&meta, bucket));
    }
}

/// Replay exported `entries` (hottest-first) into `queue` coldest-first
/// at the MRU end, reconstructing the original recency order with all
/// residency statistics preserved — the shared body of
/// [`CachePolicy::restore_resident`] for single-[`LruQueue`] policies.
/// Duplicate ids and entries that no longer fit are skipped defensively.
pub fn restore_lru_queue(queue: &mut LruQueue, entries: &[ResidentEntry]) {
    for e in entries.iter().rev() {
        if queue.contains(e.id) || queue.needs_eviction_for(e.size) {
            continue;
        }
        queue.insert_meta_mru(e.to_meta());
    }
}

/// Walk a [`SegmentedQueue`] most-protected segment first, MRU→LRU within
/// each segment, recording the segment index as the entry's `bucket` —
/// the shared `for_each_resident` body for the segmented-queue family.
pub fn export_segmented_queue(queue: &SegmentedQueue, visit: &mut dyn FnMut(&ResidentEntry)) {
    for seg in (0..queue.n_segments()).rev() {
        for meta in queue.iter_segment(seg) {
            visit(&ResidentEntry::from_meta(&meta, seg as u32));
        }
    }
}

/// Replay exported `entries` into a [`SegmentedQueue`] coldest-first,
/// each at the MRU position of its recorded segment (clamped to the
/// queue's segment count), so per-segment recency order is reconstructed.
/// Overflow rebalances exactly like a live insert; skips are defensive.
pub fn restore_segmented_queue(queue: &mut SegmentedQueue, entries: &[ResidentEntry]) {
    let top = queue.n_segments() - 1;
    for e in entries.iter().rev() {
        if queue.contains(e.id) || needs_eviction(queue.capacity(), queue.used_bytes(), e.size) {
            continue;
        }
        queue.insert_meta((e.bucket as usize).min(top), e.to_meta());
    }
}

impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_request(&mut self, req: &Request) -> AccessKind {
        (**self).on_request(req)
    }
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn used_bytes(&self) -> u64 {
        (**self).used_bytes()
    }
    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }
    fn stats(&self) -> PolicyStats {
        (**self).stats()
    }
    fn prefetch_hint(&self, id: ObjectId) {
        (**self).prefetch_hint(id)
    }
    fn for_each_resident(&self, visit: &mut dyn FnMut(&ResidentEntry)) -> bool {
        (**self).for_each_resident(visit)
    }
    fn restore_resident(&mut self, entries: &[ResidentEntry]) -> bool {
        (**self).restore_resident(entries)
    }
    fn export_learned(&self) -> Option<Vec<u8>> {
        (**self).export_learned()
    }
    fn restore_learned(&mut self, block: &[u8]) -> bool {
        (**self).restore_learned(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_helpers() {
        assert!(AccessKind::Hit.is_hit());
        assert!(!AccessKind::Miss.is_hit());
        assert!(!AccessKind::Rejected(RejectReason::TooLarge).is_hit());
        assert!(AccessKind::Rejected(RejectReason::TooLarge).is_rejected());
        assert!(!AccessKind::Miss.is_rejected());
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: Box<dyn CachePolicy> must be constructible.
        struct Nop;
        impl CachePolicy for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn on_request(&mut self, _req: &Request) -> AccessKind {
                AccessKind::Miss
            }
            fn capacity(&self) -> u64 {
                0
            }
            fn used_bytes(&self) -> u64 {
                0
            }
            fn memory_bytes(&self) -> usize {
                0
            }
            fn stats(&self) -> PolicyStats {
                PolicyStats::default()
            }
        }
        let mut p: Box<dyn CachePolicy> = Box::new(Nop);
        let req = Request::new(0, 1, 10);
        assert_eq!(p.on_request(&req), AccessKind::Miss);
        assert_eq!(p.name(), "nop");
    }
}
