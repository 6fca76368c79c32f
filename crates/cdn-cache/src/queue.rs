//! A byte-budgeted LRU queue with bimodal insertion.
//!
//! This is the "real cache" structure of the paper: a recency queue whose
//! front is the MRU position and whose back is the LRU position, holding
//! variable-size objects under a byte capacity. Insertion policies choose
//! the end (or an interior point) at which an object enters; the victim
//! policy evicts from the back. Each entry carries the `insert_pos` mark the
//! paper stores in TDC inodes, plus residency statistics used by labelers
//! and learned policies.
//!
//! # Memory layout
//!
//! Residency is resolved by a fused open-addressing table
//! ([`FusedIndex`]) whose buckets hold `(id, packed handle)` inline — one
//! probe sequence, no second hashmap structure to miss on. Entry storage
//! is split hot/cold, structure-of-arrays:
//!
//! - **hot** (`HotEntry`, 24 bytes, `const`-asserted ≤ 32): the link
//!   words plus every field the hit path touches (`hits`,
//!   `inserted_at_mru`, `last_access`). `record_hit` + a promotion touch
//!   exactly one hot line per node involved.
//! - **cold** (`ColdEntry`, 32 bytes): `id`, `size`, `inserted_tick`,
//!   `tag` — read only on insert, evict and full-metadata reads.
//!
//! Free slots chain intrusively through `HotEntry::next`; liveness is the
//! generation's parity (even = live), so there is no `Option` per node and
//! no side free-list allocation. Because callers cannot hold references
//! into the split arrays, all metadata reads return [`EntryMeta`] by value
//! (56 bytes, cheaper than the pointer chase it replaces).
//!
//! # History lists
//!
//! [`LruQueue::with_history`] adds the paper's two byte-budgeted FIFO
//! histories `H_m`/`H_l` *inside* the queue, keyed through the same
//! [`FusedIndex`]: a key is resident, remembered by one history, or
//! absent, and its bucket payload says which. So one probe classifies a
//! missing object ([`LruQueue::probe`]), and an eviction into a history
//! ([`LruQueue::evict_lru_into_history`]) rewrites the victim's payload
//! in place — no index remove, no insert. Only the entry that falls off
//! a history's tail pays a remove.
//!
//! Each history is a ring of 24-byte [`HistoryEntry`] slots, newest at
//! the head. A history payload sets bit 32 (always 0 in a resident's
//! payload: live generations are even), bit 33 names the list, and the
//! low 32 bits hold the *ring position* — bounded by the ring's size, so
//! payloads never wrap however many entries pass through. Taking an entry
//! out of the middle (a ghost hit) sets a tombstone bit; when a ring is
//! full it compacts in place if at most half its slots are live, else it
//! doubles, and either way rewrites the payloads of the entries it moves.
//! Ring size therefore follows the live entries, not the request count.
//!
//! A victim that left some other way (LeCaR's, by [`LruQueue::remove`];
//! CACHEUS's, from either of its lists) is filed with
//! [`LruQueue::remember`], and a ghost hit whose object moves to another
//! queue drops its key with [`LruQueue::forget`] (ARC's B1 → T2, 2Q's
//! A1out → Am). So ARC, LeCaR, 2Q and CACHEUS keep their histories here
//! too, one index per queue. The same ring, generic over its entry, also
//! backs [`crate::GhostList`] under that list's own index, for the users
//! that have no queue to key through: there is one FIFO history in the
//! workspace, and one `ADD` (`HistoryRing::add`).

use crate::index::FusedIndex;
use crate::object::{ObjectId, Tick};
use crate::prefetch::prefetch_read;

const NIL: u32 = u32::MAX;

/// A stable reference to a resident entry of an [`LruQueue`]. Invalidated
/// when the entry leaves; reuse of the slot bumps the generation, so a
/// stale handle never aliases a new entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    idx: u32,
    generation: u32,
}

impl Handle {
    /// Pack into a single word (`generation << 32 | idx`) for storage in a
    /// [`FusedIndex`] payload. Never collides with
    /// [`crate::index::EMPTY_PAYLOAD`]: slot indices are `< u32::MAX`.
    #[inline(always)]
    fn pack(self) -> u64 {
        (self.generation as u64) << 32 | self.idx as u64
    }

    /// Inverse of [`Handle::pack`].
    #[inline(always)]
    fn unpack(word: u64) -> Handle {
        Handle {
            idx: word as u32,
            generation: (word >> 32) as u32,
        }
    }
}

/// Index-payload bit 32: the key is a history entry. A resident's payload
/// is a packed [`Handle`] whose generation (bits 32..64) is even.
const HIST_BIT: u64 = 1 << 32;
/// Index-payload bit 33 of a history entry: its [`HistoryList`].
const HIST_LIST_SHIFT: u32 = 33;
/// Slots a ring allocates on its first push.
pub(crate) const MIN_RING: usize = 16;

/// `HotEntry::hits_flag` bit 31: current residency began at the MRU end.
const MRU_FLAG: u32 = 1 << 31;
/// Low 31 bits of `hits_flag`: saturating hit counter.
const HITS_MASK: u32 = MRU_FLAG - 1;

/// Hot half of one entry: links + the hit-path fields. See module docs.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct HotEntry {
    prev: u32,
    next: u32,
    /// Even = live, odd = free slot.
    generation: u32,
    /// Bit 31 = `inserted_at_mru`; low 31 bits = hits this residency.
    hits_flag: u32,
    last_access: Tick,
}

/// Cold half of one entry: identity and bookkeeping the hit path never
/// touches.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct ColdEntry {
    id: ObjectId,
    size: u64,
    inserted_tick: Tick,
    tag: u64,
}

// Layout regressions fail the build, not the benchmark: the hot node must
// stay within half a cache line (two nodes + change per 64-byte line).
const _: () = assert!(
    std::mem::size_of::<HotEntry>() <= 32,
    "hot node exceeds 32 B"
);
const _: () = assert!(std::mem::size_of::<HotEntry>() == 24);
const _: () = assert!(std::mem::size_of::<ColdEntry>() == 32);

/// Metadata of one resident object (the paper's ~110-byte inode analog).
/// Assembled by value from the hot/cold halves on read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryMeta {
    /// Object identity.
    pub id: ObjectId,
    /// Object size in bytes.
    pub size: u64,
    /// The paper's `insert_pos`: true if the *current residency* began at
    /// the MRU position (set again on every promotion re-insert).
    pub inserted_at_mru: bool,
    /// Tick when this residency began.
    pub inserted_tick: Tick,
    /// Tick of the most recent access (insert or hit).
    pub last_access: Tick,
    /// Hits during this residency (0 on insert).
    pub hits: u32,
    /// Policy-private tag (segment index, SHiP signature, LRB group id...).
    pub tag: u64,
}

/// An entry evicted from the queue's LRU end.
pub type EvictedEntry = EntryMeta;

/// One of a history-keeping queue's two FIFO lists. In the paper's terms
/// `Hm` remembers victims whose residency began at the MRU end and `Hl`
/// those that began at the LRU end; the queue files each victim where the
/// caller of [`LruQueue::evict_lru_into_history`] says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryList {
    /// `H_m`.
    Hm = 0,
    /// `H_l`.
    Hl = 1,
}

/// What a history list remembers about an evicted object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Object identity.
    pub id: ObjectId,
    /// Size at eviction (counts against the list's byte budget).
    pub size: u64,
    /// Policy-private tag chosen at eviction.
    pub tag: u64,
}

const _: () = assert!(std::mem::size_of::<HistoryEntry>() == 24);

/// How one index probe classifies a key (see [`LruQueue::probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Resident, with its handle.
    Resident(Handle),
    /// Remembered by a history list; [`LruQueue::take_history`] consumes it.
    History(HistorySlot),
    /// Neither resident nor remembered.
    Absent,
}

/// A history entry found by [`LruQueue::probe`]. Valid until the queue is
/// next mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistorySlot {
    id: ObjectId,
    payload: u64,
}

/// The one byte-budget rule: whether `size` more bytes overflow a
/// `capacity`-byte budget holding `used <= capacity`. Compared against the
/// free space, so nothing wraps or saturates near `u64::MAX`.
#[inline]
pub fn needs_eviction(capacity: u64, used: u64, size: u64) -> bool {
    debug_assert!(used <= capacity, "used {used} over the budget {capacity}");
    size > capacity - used
}

/// Index payload of the history entry at ring position `pos` of `list`.
#[inline]
pub(crate) fn hist_payload(list: HistoryList, pos: usize) -> u64 {
    HIST_BIT | (list as u64) << HIST_LIST_SHIFT | pos as u64
}

/// `(list index, ring position)` of a history payload.
#[inline]
pub(crate) fn hist_decode(payload: u64) -> (usize, usize) {
    (
        (payload >> HIST_LIST_SHIFT) as usize & 1,
        payload as u32 as usize,
    )
}

#[inline]
fn list_of(i: usize) -> HistoryList {
    if i == 0 {
        HistoryList::Hm
    } else {
        HistoryList::Hl
    }
}

/// What a [`HistoryRing`] stores: an id it is indexed by and a size it
/// budgets. `EMPTY` fills the slots a ring allocates ahead of use.
pub(crate) trait RingEntry: Copy {
    const EMPTY: Self;
    fn id(&self) -> ObjectId;
    fn size(&self) -> u64;
}

impl RingEntry for HistoryEntry {
    const EMPTY: Self = HistoryEntry {
        id: ObjectId(0),
        size: 0,
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

/// One FIFO history: a power-of-two ring of entries, oldest at `tail`,
/// with a tombstone bit per slot for entries taken out of the middle.
/// Each live entry's key is held by an index the caller owns, with payload
/// [`hist_payload`]`(list, pos)`; the ring rewrites those payloads when it
/// moves entries and removes the keys of entries it drops.
#[derive(Debug, Clone)]
pub(crate) struct HistoryRing<E> {
    pub(crate) slots: Vec<E>,
    /// Bit set = the slot's entry was taken; meaningful inside the span.
    dead: Vec<u64>,
    /// Position of the oldest entry; live whenever `span > 0`.
    tail: usize,
    /// Positions from `tail` to the next push, live and dead.
    span: usize,
    pub(crate) live: usize,
    pub(crate) used: u64,
}

impl<E> Default for HistoryRing<E> {
    fn default() -> Self {
        HistoryRing {
            slots: Vec::new(),
            dead: Vec::new(),
            tail: 0,
            span: 0,
            live: 0,
            used: 0,
        }
    }
}

impl<E: RingEntry> HistoryRing<E> {
    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn is_dead(&self, pos: usize) -> bool {
        self.dead[pos / 64] >> (pos % 64) & 1 == 1
    }

    #[inline]
    fn set_dead(&mut self, pos: usize, dead: bool) {
        let bit = 1u64 << (pos % 64);
        if dead {
            self.dead[pos / 64] |= bit;
        } else {
            self.dead[pos / 64] &= !bit;
        }
    }

    /// Whether `pos` holds the live entry of `id`.
    #[inline]
    pub(crate) fn holds(&self, pos: usize, id: ObjectId) -> bool {
        pos < self.slots.len()
            && (pos.wrapping_sub(self.tail) & self.mask()) < self.span
            && !self.is_dead(pos)
            && self.slots[pos].id() == id
    }

    /// Advance `tail` past taken entries, so it names the oldest live one.
    #[inline]
    fn skip_dead(&mut self) {
        while self.span > 0 && self.is_dead(self.tail) {
            self.tail = (self.tail + 1) & self.mask();
            self.span -= 1;
        }
    }

    /// Drop the oldest entry. Requires `live > 0`.
    fn pop_oldest(&mut self) -> E {
        let e = self.slots[self.tail];
        self.tail = (self.tail + 1) & self.mask();
        self.span -= 1;
        self.live -= 1;
        self.used -= e.size();
        self.skip_dead();
        e
    }

    /// Take the live entry at `pos` out of the ring (the paper's `DELETE`).
    /// Its index key is the caller's to keep or remove.
    pub(crate) fn kill(&mut self, pos: usize) -> E {
        let e = self.slots[pos];
        self.set_dead(pos, true);
        self.live -= 1;
        self.used -= e.size();
        if pos == self.tail {
            self.skip_dead();
        }
        e
    }

    /// Make a free slot at the head of a full ring: compact in place when
    /// at most half the slots are live, else double. Every entry that
    /// moves gets its index payload rewritten.
    fn make_room(&mut self, index: &mut FusedIndex, list: HistoryList) {
        let cap = self.slots.len();
        if cap > 0 && self.live * 2 <= cap {
            let mask = cap - 1;
            let mut w = self.tail;
            for k in 0..self.span {
                let r = (self.tail + k) & mask;
                if self.is_dead(r) {
                    continue;
                }
                if r != w {
                    self.slots[w] = self.slots[r];
                    self.set_dead(w, false);
                    let moved = index.replace(self.slots[w].id().0, hist_payload(list, w));
                    debug_assert!(moved.is_some(), "ring entry missing from index");
                }
                w = (w + 1) & mask;
            }
        } else {
            let new_cap = (cap * 2).max(MIN_RING);
            assert!(new_cap <= 1 << 32, "history ring overflow");
            let mut slots = Vec::with_capacity(new_cap);
            for k in 0..self.span {
                let r = (self.tail + k) & cap.wrapping_sub(1);
                if !self.is_dead(r) {
                    let e = self.slots[r];
                    let moved = index.replace(e.id().0, hist_payload(list, slots.len()));
                    debug_assert!(moved.is_some(), "ring entry missing from index");
                    slots.push(e);
                }
            }
            slots.resize(new_cap, E::EMPTY);
            self.slots = slots;
            self.dead = vec![0; new_cap.div_ceil(64)];
            self.tail = 0;
        }
        self.span = self.live;
    }

    /// Append at the head, returning the entry's ring position.
    // Out of line: inlined, it more than triples the code of
    // `LruQueue::evict_lru_into_history`, SCIP's eviction path.
    #[inline(never)]
    fn push(&mut self, e: E, index: &mut FusedIndex, list: HistoryList) -> usize {
        if self.span == self.slots.len() {
            self.make_room(index, list);
        }
        let pos = (self.tail + self.span) & self.mask();
        self.slots[pos] = e;
        self.set_dead(pos, false);
        self.span += 1;
        self.live += 1;
        self.used += e.size();
        pos
    }

    /// The paper's `ADD` (Algorithm 1, lines 34-38): drop the oldest
    /// entries, removing their keys from `index`, until `e` fits `budget`,
    /// then append it, returning its ring position. The caller points
    /// `e`'s key at [`hist_payload`]`(list, pos)`. Requires
    /// `e.size() <= budget`.
    pub(crate) fn add(
        &mut self,
        e: E,
        budget: u64,
        index: &mut FusedIndex,
        list: HistoryList,
    ) -> usize {
        debug_assert!(e.size() <= budget, "entry larger than the budget");
        while needs_eviction(budget, self.used, e.size()) {
            let old = self.pop_oldest();
            index.remove(old.id().0);
        }
        self.push(e, index, list)
    }

    /// Live entries newest→oldest, with their positions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &E)> + '_ {
        (0..self.span).rev().filter_map(move |k| {
            let pos = (self.tail + k) & self.mask();
            (!self.is_dead(pos)).then(|| (pos, &self.slots[pos]))
        })
    }

    pub(crate) fn clear(&mut self) {
        self.tail = 0;
        self.span = 0;
        self.live = 0;
        self.used = 0;
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<E>()
            + self.dead.capacity() * std::mem::size_of::<u64>()
    }

    /// Ring structure, ledger and budget, and index agreement for every
    /// live slot (the converse direction is the owner's to check).
    pub(crate) fn audit(
        &self,
        list: HistoryList,
        budget: u64,
        index: &FusedIndex,
    ) -> Result<(), String> {
        let cap = self.slots.len();
        if cap != 0 && !cap.is_power_of_two() {
            return Err(format!("history {list:?}: {cap} slots not a power of two"));
        }
        if self.span > cap || self.dead.len() * 64 < cap {
            return Err(format!(
                "history {list:?}: span {} / tombstone words {} for {cap} slots",
                self.span,
                self.dead.len()
            ));
        }
        if self.span > 0 && self.is_dead(self.tail) {
            return Err(format!(
                "history {list:?}: tail {} is a tombstone",
                self.tail
            ));
        }
        let mut live = 0usize;
        let mut sum: u128 = 0;
        for (pos, e) in self.iter() {
            if index.get(e.id().0) != Some(hist_payload(list, pos)) {
                return Err(format!(
                    "history {list:?}: entry {} at slot {pos} not indexed there",
                    e.id().0
                ));
            }
            live += 1;
            sum += e.size() as u128;
        }
        if live != self.live {
            return Err(format!(
                "history {list:?}: {live} live slots but live={}",
                self.live
            ));
        }
        if sum != self.used as u128 {
            return Err(format!(
                "history {list:?}: ledger used={} but Σsizes={sum}",
                self.used
            ));
        }
        if self.used > budget {
            return Err(format!(
                "history {list:?}: used={} exceeds budget={budget}",
                self.used
            ));
        }
        Ok(())
    }
}

/// Byte-budgeted LRU queue, optionally with two history lists (see the
/// module docs). All operations are O(1), ring compaction amortised.
#[derive(Debug, Clone)]
pub struct LruQueue {
    hot: Vec<HotEntry>,
    cold: Vec<ColdEntry>,
    index: FusedIndex,
    free_head: u32,
    free_len: usize,
    head: u32,
    tail: u32,
    len: usize,
    capacity: u64,
    used: u64,
    hist: [HistoryRing<HistoryEntry>; 2],
    hist_budget: u64,
}

impl LruQueue {
    /// Queue with the given byte capacity and no history budget.
    pub fn new(capacity: u64) -> Self {
        Self::with_history(capacity, 0)
    }

    /// Queue whose [`HistoryList`]s may each remember `budget` bytes of
    /// victims. Victims larger than `budget` are never remembered.
    pub fn with_history(capacity: u64, budget: u64) -> Self {
        LruQueue {
            hot: Vec::new(),
            cold: Vec::new(),
            index: FusedIndex::new(),
            free_head: NIL,
            free_len: 0,
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
            used: 0,
            hist: Default::default(),
            hist_budget: budget,
        }
    }

    /// Byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no objects are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if the object is resident.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.lookup(id).is_some()
    }

    /// One-probe residency lookup: the entry's [`Handle`], if resident.
    /// The handle stays valid until the entry is removed or evicted, so a
    /// hot hit path can pay for the table probe once and drive the
    /// `*_at` methods with the handle.
    #[inline]
    pub fn lookup(&self, id: ObjectId) -> Option<Handle> {
        match self.index.get(id.0) {
            Some(p) if p & HIST_BIT == 0 => Some(Handle::unpack(p)),
            _ => None,
        }
    }

    /// One probe that tells a resident, a remembered and an unknown key
    /// apart.
    #[inline]
    pub fn probe(&self, id: ObjectId) -> Probe {
        match self.index.get(id.0) {
            None => Probe::Absent,
            Some(p) if p & HIST_BIT == 0 => Probe::Resident(Handle::unpack(p)),
            Some(payload) => Probe::History(HistorySlot { id, payload }),
        }
    }

    /// Byte budget of each history list.
    pub fn history_budget(&self) -> u64 {
        self.hist_budget
    }

    /// Entries remembered by `list`.
    pub fn history_len(&self, list: HistoryList) -> usize {
        self.hist[list as usize].live
    }

    /// Bytes of object sizes remembered by `list`.
    pub fn history_used_bytes(&self, list: HistoryList) -> u64 {
        self.hist[list as usize].used
    }

    /// The history entry of `id`, and the list holding it.
    pub fn history_get(&self, id: ObjectId) -> Option<(HistoryList, HistoryEntry)> {
        let Probe::History(s) = self.probe(id) else {
            return None;
        };
        let (l, pos) = hist_decode(s.payload);
        self.hist[l]
            .holds(pos, id)
            .then(|| (list_of(l), self.hist[l].slots[pos]))
    }

    /// Entries of `list`, newest→oldest.
    pub fn history_iter(&self, list: HistoryList) -> impl Iterator<Item = HistoryEntry> + '_ {
        self.hist[list as usize].iter().map(|(_, e)| *e)
    }

    /// Consume the history entry `probe` found (the paper's `DELETE` on a
    /// ghost hit), freeing its bytes in the list's budget at once.
    ///
    /// The key keeps its bucket, so the caller's following insert of the
    /// same id rewrites a payload instead of probing for a new slot;
    /// [`LruQueue::audit`] fails until that insert.
    ///
    /// # Panics
    /// If the queue changed since the probe and the entry has moved.
    pub fn take_history(&mut self, slot: HistorySlot) -> (HistoryList, HistoryEntry) {
        let (l, pos) = hist_decode(slot.payload);
        assert!(self.hist[l].holds(pos, slot.id), "stale history slot");
        (list_of(l), self.hist[l].kill(pos))
    }

    /// Consume the history entry `probe` found and drop its key: the
    /// ghost hit of an object that moves to another queue.
    ///
    /// # Panics
    /// If the queue changed since the probe and the entry has moved.
    pub fn forget(&mut self, slot: HistorySlot) -> (HistoryList, HistoryEntry) {
        let taken = self.take_history(slot);
        self.index.remove(slot.id.0);
        taken
    }

    /// Remember a key that is not resident (the paper's `ADD` for a victim
    /// that did not leave by [`LruQueue::evict_lru_into_history`]), by a
    /// ghost list's rules: a key already remembered, in either list, is
    /// refreshed to the head of `list`; an entry larger than the budget is
    /// not remembered and forgets any earlier record of its key.
    ///
    /// # Panics
    /// If `entry.id` is resident.
    pub fn remember(&mut self, list: HistoryList, entry: HistoryEntry) {
        let Self {
            index,
            hist,
            hist_budget,
            ..
        } = self;
        if let Some(old) = index.get(entry.id.0) {
            assert!(old & HIST_BIT != 0, "remember of a resident object");
            let (l, pos) = hist_decode(old);
            if hist[l].holds(pos, entry.id) {
                hist[l].kill(pos);
            }
        }
        if entry.size > *hist_budget {
            index.remove(entry.id.0);
            return;
        }
        let pos = hist[list as usize].add(entry, *hist_budget, index, list);
        index.insert(entry.id.0, hist_payload(list, pos));
    }

    /// Pull the index bucket for `id` toward L1 ahead of a
    /// [`LruQueue::lookup`] a few requests from now (batched replay).
    #[inline]
    pub fn prefetch_lookup(&self, id: ObjectId) {
        self.index.prefetch(id.0);
    }

    #[inline]
    fn check(&self, h: Handle) -> usize {
        // Handles are only minted with even (live) generations, so bare
        // equality also proves the slot has not been freed since.
        assert!(
            self.hot[h.idx as usize].generation == h.generation,
            "stale LruQueue handle"
        );
        h.idx as usize
    }

    #[inline]
    fn handle(&self, idx: u32) -> Handle {
        Handle {
            idx,
            generation: self.hot[idx as usize].generation,
        }
    }

    #[inline]
    fn meta_at_idx(&self, idx: usize) -> EntryMeta {
        let hot = &self.hot[idx];
        let cold = &self.cold[idx];
        EntryMeta {
            id: cold.id,
            size: cold.size,
            inserted_at_mru: hot.hits_flag & MRU_FLAG != 0,
            inserted_tick: cold.inserted_tick,
            last_access: hot.last_access,
            hits: hot.hits_flag & HITS_MASK,
            tag: cold.tag,
        }
    }

    /// Shared access to a resident entry's metadata.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<EntryMeta> {
        self.lookup(id).map(|h| self.get_at(h))
    }

    /// Metadata through a [`Handle`] obtained from [`LruQueue::lookup`]
    /// (no table probe).
    #[inline]
    pub fn get_at(&self, h: Handle) -> EntryMeta {
        let idx = self.check(h);
        self.meta_at_idx(idx)
    }

    /// Hit count of this residency, through a [`Handle`]. Touches only the
    /// hot array.
    #[inline]
    pub fn hits_at(&self, h: Handle) -> u32 {
        let idx = self.check(h);
        self.hot[idx].hits_flag & HITS_MASK
    }

    /// Whether inserting `size` bytes would require evictions
    /// ([`needs_eviction`] against this queue's capacity).
    #[inline]
    pub fn needs_eviction_for(&self, size: u64) -> bool {
        needs_eviction(self.capacity, self.used, size)
    }

    /// Whether an object of `size` bytes can ever fit.
    pub fn admissible(&self, size: u64) -> bool {
        size <= self.capacity
    }

    fn alloc(&mut self, id: ObjectId, size: u64, tick: Tick, hits_flag: u32, tag: u64) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let hot = &mut self.hot[idx as usize];
            debug_assert!(hot.generation % 2 == 1, "free slot with live parity");
            self.free_head = hot.next;
            self.free_len -= 1;
            hot.generation = hot.generation.wrapping_add(1); // odd → even: live
            hot.prev = NIL;
            hot.next = NIL;
            hot.hits_flag = hits_flag;
            hot.last_access = tick;
            self.cold[idx as usize] = ColdEntry {
                id,
                size,
                inserted_tick: tick,
                tag,
            };
            idx
        } else {
            let idx = self.hot.len() as u32;
            assert!(idx < NIL, "LruQueue slab overflow");
            self.hot.push(HotEntry {
                prev: NIL,
                next: NIL,
                generation: 0,
                hits_flag,
                last_access: tick,
            });
            self.cold.push(ColdEntry {
                id,
                size,
                inserted_tick: tick,
                tag,
            });
            idx
        }
    }

    #[inline]
    fn release(&mut self, idx: u32) {
        let hot = &mut self.hot[idx as usize];
        hot.generation = hot.generation.wrapping_add(1); // even → odd: free
        hot.next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
    }

    #[inline]
    fn link_front(&mut self, idx: u32) {
        self.hot[idx as usize].prev = NIL;
        self.hot[idx as usize].next = self.head;
        if self.head != NIL {
            self.hot[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    #[inline]
    fn link_back(&mut self, idx: u32) {
        self.hot[idx as usize].next = NIL;
        self.hot[idx as usize].prev = self.tail;
        if self.tail != NIL {
            self.hot[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
    }

    #[inline]
    fn unlink(&mut self, idx: u32) {
        let HotEntry { prev, next, .. } = self.hot[idx as usize];
        if prev != NIL {
            self.hot[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.hot[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn insert_entry(&mut self, meta: EntryMeta, front: bool) -> Handle {
        debug_assert!(!self.contains(meta.id), "insert of resident object");
        debug_assert!(meta.size <= self.capacity - self.used, "insert overflows");
        let hits_flag = (meta.hits & HITS_MASK) | if meta.inserted_at_mru { MRU_FLAG } else { 0 };
        let idx = self.alloc(meta.id, meta.size, meta.inserted_tick, hits_flag, meta.tag);
        self.hot[idx as usize].last_access = meta.last_access;
        if front {
            self.link_front(idx);
        } else {
            self.link_back(idx);
        }
        self.len += 1;
        self.used += meta.size;
        let h = self.handle(idx);
        if let Some(old) = self.index.insert(meta.id.0, h.pack()) {
            // The key was remembered (or just taken): retire the entry if
            // its slot still holds it.
            debug_assert!(old & HIST_BIT != 0, "insert of resident object");
            let (l, pos) = hist_decode(old);
            if self.hist[l].holds(pos, meta.id) {
                self.hist[l].kill(pos);
            }
        }
        h
    }

    pub(crate) fn make_meta(id: ObjectId, size: u64, tick: Tick, at_mru: bool) -> EntryMeta {
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

    /// Insert at the MRU position (front). The object must not be resident
    /// and must fit (callers evict first). Marks `inserted_at_mru = true`.
    /// Returns the new entry's [`Handle`] so callers can tag it without
    /// re-probing the table.
    #[inline]
    pub fn insert_mru(&mut self, id: ObjectId, size: u64, tick: Tick) -> Handle {
        self.insert_entry(Self::make_meta(id, size, tick, true), true)
    }

    /// Insert at the LRU position (back). Marks `inserted_at_mru = false`.
    /// Returns the new entry's [`Handle`].
    #[inline]
    pub fn insert_lru(&mut self, id: ObjectId, size: u64, tick: Tick) -> Handle {
        self.insert_entry(Self::make_meta(id, size, tick, false), false)
    }

    /// Re-insert a preserved entry at the MRU position without resetting
    /// its residency statistics (used when entries migrate between segments
    /// of a [`crate::SegmentedQueue`]).
    pub fn insert_meta_mru(&mut self, meta: EntryMeta) {
        self.insert_entry(meta, true);
    }

    /// Re-insert a preserved entry at the LRU position (see
    /// [`LruQueue::insert_meta_mru`]).
    pub fn insert_meta_lru(&mut self, meta: EntryMeta) {
        self.insert_entry(meta, false);
    }

    /// Record a hit: bump hit count and last-access *without* moving the
    /// entry. Promotion is a separate decision taken by the policy.
    #[inline]
    pub fn record_hit(&mut self, id: ObjectId, tick: Tick) {
        if let Some(h) = self.lookup(id) {
            self.record_hit_at(h, tick);
        }
    }

    /// [`LruQueue::record_hit`] through a [`Handle`] (no table probe).
    /// Touches only the hot array.
    #[inline]
    pub fn record_hit_at(&mut self, h: Handle, tick: Tick) {
        let idx = self.check(h);
        let hot = &mut self.hot[idx];
        let hits = hot.hits_flag & HITS_MASK;
        hot.hits_flag = (hot.hits_flag & MRU_FLAG) | hits.saturating_add(1).min(HITS_MASK);
        hot.last_access = tick;
    }

    /// Record a hit that re-marks the residency's insertion end (the
    /// paper's PROMOTE realised in place): bump hits and last-access and
    /// set `inserted_at_mru = at_mru`, all in the hot array. Callers pair
    /// this with [`LruQueue::promote_to_mru_at`] /
    /// [`LruQueue::demote_to_lru_at`] to actually move the entry.
    #[inline]
    pub fn record_promotion_at(&mut self, h: Handle, at_mru: bool, tick: Tick) {
        let idx = self.check(h);
        let hot = &mut self.hot[idx];
        let hits = (hot.hits_flag & HITS_MASK).saturating_add(1).min(HITS_MASK);
        hot.hits_flag = hits | if at_mru { MRU_FLAG } else { 0 };
        hot.last_access = tick;
    }

    /// Set the policy-private tag through a [`Handle`].
    #[inline]
    pub fn set_tag_at(&mut self, h: Handle, tag: u64) {
        let idx = self.check(h);
        self.cold[idx].tag = tag;
    }

    /// Move a resident object to the MRU position (classic promotion).
    #[inline]
    pub fn promote_to_mru(&mut self, id: ObjectId) {
        if let Some(h) = self.lookup(id) {
            self.promote_to_mru_at(h);
        }
    }

    /// [`LruQueue::promote_to_mru`] through a [`Handle`] (no table probe).
    #[inline]
    pub fn promote_to_mru_at(&mut self, h: Handle) {
        let idx = self.check(h) as u32;
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.link_front(idx);
    }

    /// Move a resident object to the LRU position (demotion), through a
    /// [`Handle`].
    #[inline]
    pub fn demote_to_lru_at(&mut self, h: Handle) {
        let idx = self.check(h) as u32;
        if self.tail == idx {
            return;
        }
        self.unlink(idx);
        self.link_back(idx);
    }

    /// Move a resident object one slot toward MRU (PIPP-style promotion).
    #[inline]
    pub fn promote_one(&mut self, id: ObjectId) {
        if let Some(h) = self.lookup(id) {
            self.promote_one_at(h);
        }
    }

    /// [`LruQueue::promote_one`] through a [`Handle`] (no table probe).
    #[inline]
    pub fn promote_one_at(&mut self, h: Handle) {
        let idx = self.check(h) as u32;
        let prev = self.hot[idx as usize].prev;
        if prev == NIL {
            return;
        }
        self.unlink(idx);
        let prev_prev = self.hot[prev as usize].prev;
        self.hot[idx as usize].prev = prev_prev;
        self.hot[idx as usize].next = prev;
        self.hot[prev as usize].prev = idx;
        if prev_prev != NIL {
            self.hot[prev_prev as usize].next = idx;
        } else {
            self.head = idx;
        }
    }

    fn remove_idx(&mut self, idx: u32) -> EntryMeta {
        let meta = self.meta_at_idx(idx as usize);
        self.unlink(idx);
        self.release(idx);
        self.index.remove(meta.id.0);
        self.used -= meta.size;
        self.len -= 1;
        meta
    }

    /// Remove a resident object (the paper's `C.REMOVE`: no history write).
    pub fn remove(&mut self, id: ObjectId) -> Option<EntryMeta> {
        let h = self.lookup(id)?;
        let idx = self.check(h) as u32;
        Some(self.remove_idx(idx))
    }

    /// Evict from the LRU end (the paper's `C.EVICT`), returning the victim.
    /// Prefetches the next victim's hot/cold nodes: eviction runs in
    /// make-room loops, so the node this call warms is touched by the next
    /// iteration.
    pub fn evict_lru(&mut self) -> Option<EvictedEntry> {
        let idx = self.prefetch_next_victim()?;
        Some(self.remove_idx(idx))
    }

    /// The LRU-end slot, after warming the one behind it.
    #[inline]
    fn prefetch_next_victim(&self) -> Option<u32> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        let prev = self.hot[idx as usize].prev;
        if prev != NIL {
            prefetch_read(&self.hot[prev as usize]);
            prefetch_read(&self.cold[prev as usize]);
        }
        Some(idx)
    }

    /// Evict from the LRU end into a history list (the paper's `C.EVICT`
    /// followed by `ADD`). `file` sees the victim and names its list and
    /// tag. The victim's index payload is rewritten in place; the list then
    /// drops its oldest entries until the victim fits its budget, and a
    /// victim larger than the whole budget is forgotten instead.
    pub fn evict_lru_into_history(
        &mut self,
        file: impl FnOnce(&EntryMeta) -> (HistoryList, u64),
    ) -> Option<EvictedEntry> {
        let idx = self.prefetch_next_victim()?;
        let meta = self.meta_at_idx(idx as usize);
        self.unlink(idx);
        self.release(idx);
        self.used -= meta.size;
        self.len -= 1;
        let (list, tag) = file(&meta);
        let Self {
            index,
            hist,
            hist_budget,
            ..
        } = self;
        if meta.size > *hist_budget {
            index.remove(meta.id.0);
            return Some(meta);
        }
        let entry = HistoryEntry {
            id: meta.id,
            size: meta.size,
            tag,
        };
        let pos = hist[list as usize].add(entry, *hist_budget, index, list);
        let was = index.replace(meta.id.0, hist_payload(list, pos));
        debug_assert!(was.is_some_and(|p| p & HIST_BIT == 0), "victim not indexed");
        Some(meta)
    }

    /// Peek at the LRU-end victim without evicting.
    pub fn peek_lru(&self) -> Option<EntryMeta> {
        (self.tail != NIL).then(|| self.meta_at_idx(self.tail as usize))
    }

    /// Peek at the MRU-end entry.
    pub fn peek_mru(&self) -> Option<EntryMeta> {
        (self.head != NIL).then(|| self.meta_at_idx(self.head as usize))
    }

    /// Iterate entries MRU→LRU (by value; the hot/cold split stores no
    /// whole `EntryMeta` to lend out).
    pub fn iter(&self) -> impl Iterator<Item = EntryMeta> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let idx = cur as usize;
            cur = self.hot[idx].next;
            Some(self.meta_at_idx(idx))
        })
    }

    /// True heap footprint of the structure in bytes: hot + cold arrays,
    /// the fused index table and the history rings.
    pub fn memory_bytes(&self) -> usize {
        self.hot.capacity() * std::mem::size_of::<HotEntry>()
            + self.cold.capacity() * std::mem::size_of::<ColdEntry>()
            + self.index.memory_bytes()
            + self
                .hist
                .iter()
                .map(HistoryRing::memory_bytes)
                .sum::<usize>()
    }

    /// Remove everything, histories included.
    pub fn clear(&mut self) {
        self.hot.clear();
        self.cold.clear();
        self.index.clear();
        self.hist.iter_mut().for_each(HistoryRing::clear);
        self.free_head = NIL;
        self.free_len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        self.used = 0;
    }

    /// Structural invariant walk (O(n)). Checks, in order:
    ///
    /// - the intrusive list is doubly-linked consistently (`prev` of each
    ///   node points at its actual predecessor), terminates at `tail`, and
    ///   visits exactly `len` live (even-parity) nodes without cycling;
    /// - the free chain holds exactly the remaining slots with free (odd)
    ///   parity, and the hot/cold arrays stay the same length;
    /// - `used_bytes()` equals the sum of resident entry sizes (computed in
    ///   u128 so the audit itself cannot overflow);
    /// - `used_bytes() <= capacity()`;
    /// - every listed id resolves through the fused index to its own slot,
    ///   and the index's own probe invariants hold;
    /// - each history ring is well formed, every live slot's id resolves
    ///   to that slot, its ledger equals the sum of its slot sizes, and the
    ///   ledger stays within the budget;
    /// - the index holds exactly the residents plus the history entries,
    ///   and every history payload resolves to a live slot with the same
    ///   id.
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        let mut sum: u128 = 0;
        while cur != NIL {
            if seen > self.hot.len() {
                return Err("lru: cycle detected walking head→tail".into());
            }
            let hot = &self.hot[cur as usize];
            if !hot.generation.is_multiple_of(2) {
                return Err(format!("lru: chained node {cur} has free parity"));
            }
            if hot.prev != prev {
                return Err(format!(
                    "lru: node {cur} has prev={} but predecessor is {prev}",
                    hot.prev
                ));
            }
            let cold = &self.cold[cur as usize];
            match self.index.get(cold.id.0).map(Handle::unpack) {
                None => {
                    return Err(format!(
                        "lru: listed entry {} missing from index",
                        cold.id.0
                    ));
                }
                Some(h) if h.idx != cur || h.generation != hot.generation => {
                    return Err(format!(
                        "lru: index handle for {} resolves elsewhere",
                        cold.id.0
                    ));
                }
                _ => {}
            }
            sum += cold.size as u128;
            prev = cur;
            cur = hot.next;
            seen += 1;
        }
        if prev != self.tail {
            return Err(format!(
                "lru: walk ended at {prev} but tail is {}",
                self.tail
            ));
        }
        if seen != self.len {
            return Err(format!("lru: walked {seen} nodes but len is {}", self.len));
        }
        let mut free_seen = 0usize;
        let mut f = self.free_head;
        while f != NIL {
            if free_seen > self.hot.len() {
                return Err("lru: cycle detected walking free chain".into());
            }
            if self.hot[f as usize].generation.is_multiple_of(2) {
                return Err(format!("lru: free slot {f} has live parity"));
            }
            f = self.hot[f as usize].next;
            free_seen += 1;
        }
        if free_seen != self.free_len {
            return Err(format!(
                "lru: free chain has {free_seen} slots but free_len is {}",
                self.free_len
            ));
        }
        if self.len + self.free_len != self.hot.len() {
            return Err(format!(
                "lru: {} live + {} free != {} slots",
                self.len,
                self.free_len,
                self.hot.len()
            ));
        }
        if self.hot.len() != self.cold.len() {
            return Err(format!(
                "lru: {} hot nodes but {} cold nodes",
                self.hot.len(),
                self.cold.len()
            ));
        }
        let mut remembered = 0usize;
        for (l, ring) in self.hist.iter().enumerate() {
            ring.audit(list_of(l), self.hist_budget, &self.index)
                .map_err(|e| format!("lru: {e}"))?;
            remembered += ring.live;
        }
        if seen + remembered != self.index.len() {
            return Err(format!(
                "lru: {seen} residents + {remembered} history entries, index has {}",
                self.index.len()
            ));
        }
        for (key, payload) in self.index.iter() {
            if payload & HIST_BIT == 0 {
                continue;
            }
            let (l, pos) = hist_decode(payload);
            if payload >> (HIST_LIST_SHIFT + 1) != 0 || !self.hist[l].holds(pos, ObjectId(key)) {
                return Err(format!(
                    "lru: history payload {payload:#x} of {key} resolves to no live slot"
                ));
            }
        }
        self.index.audit().map_err(|e| format!("lru: {e}"))?;
        if sum != self.used as u128 {
            return Err(format!("lru: ledger used={} but Σsizes={sum}", self.used));
        }
        if self.used > self.capacity {
            return Err(format!(
                "lru: used={} exceeds capacity={}",
                self.used, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(q: &LruQueue) -> Vec<u64> {
        q.iter().map(|m| m.id.0).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 200, 1);
        assert!(q.contains(ObjectId(1)));
        assert_eq!(q.used_bytes(), 300);
        assert_eq!(ids(&q), vec![2, 1]);
        assert!(q.get(ObjectId(2)).unwrap().inserted_at_mru);
    }

    #[test]
    fn insert_lru_goes_to_back() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_lru(ObjectId(2), 100, 1);
        assert_eq!(ids(&q), vec![1, 2]);
        assert!(!q.get(ObjectId(2)).unwrap().inserted_at_mru);
        assert_eq!(q.peek_lru().unwrap().id, ObjectId(2));
    }

    #[test]
    fn evict_from_lru_end() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 100, 1);
        let v = q.evict_lru().unwrap();
        assert_eq!(v.id, ObjectId(1));
        assert_eq!(q.used_bytes(), 100);
        assert!(!q.contains(ObjectId(1)));
    }

    #[test]
    fn record_hit_updates_stats_without_moving() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 100, 1);
        q.record_hit(ObjectId(1), 5);
        assert_eq!(ids(&q), vec![2, 1]);
        let m = q.get(ObjectId(1)).unwrap();
        assert_eq!(m.hits, 1);
        assert_eq!(m.last_access, 5);
    }

    #[test]
    fn promote_and_demote() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 100, 1);
        q.insert_mru(ObjectId(3), 100, 2);
        // order: 3 2 1
        q.promote_to_mru(ObjectId(1));
        assert_eq!(ids(&q), vec![1, 3, 2]);
        q.demote_to_lru_at(q.lookup(ObjectId(1)).unwrap());
        assert_eq!(ids(&q), vec![3, 2, 1]);
        q.promote_one(ObjectId(1));
        assert_eq!(ids(&q), vec![3, 1, 2]);
    }

    #[test]
    fn remove_does_not_touch_others() {
        let mut q = LruQueue::new(1000);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 150, 1);
        let m = q.remove(ObjectId(1)).unwrap();
        assert_eq!(m.size, 100);
        assert_eq!(q.used_bytes(), 150);
        assert_eq!(q.remove(ObjectId(1)), None);
    }

    #[test]
    fn eviction_loop_frees_space() {
        let mut q = LruQueue::new(300);
        q.insert_mru(ObjectId(1), 100, 0);
        q.insert_mru(ObjectId(2), 100, 1);
        q.insert_mru(ObjectId(3), 100, 2);
        // Need 150 bytes for a new object.
        let mut evicted = Vec::new();
        while q.needs_eviction_for(150) {
            evicted.push(q.evict_lru().unwrap().id.0);
        }
        assert_eq!(evicted, vec![1, 2]);
        q.insert_mru(ObjectId(4), 150, 3);
        assert_eq!(q.used_bytes(), 250);
    }

    #[test]
    fn admissibility() {
        let q = LruQueue::new(100);
        assert!(q.admissible(100));
        assert!(!q.admissible(101));
    }

    #[test]
    fn clear_empties() {
        let mut q = LruQueue::new(100);
        q.insert_mru(ObjectId(1), 50, 0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.used_bytes(), 0);
        assert!(!q.contains(ObjectId(1)));
    }

    #[test]
    fn record_promotion_sets_insertion_end() {
        let mut q = LruQueue::new(1000);
        let h = q.insert_lru(ObjectId(1), 100, 0);
        assert!(!q.get_at(h).inserted_at_mru);
        q.record_promotion_at(h, true, 7);
        let m = q.get_at(h);
        assert!(m.inserted_at_mru);
        assert_eq!(m.hits, 1);
        assert_eq!(m.last_access, 7);
        q.record_promotion_at(h, false, 9);
        let m = q.get_at(h);
        assert!(!m.inserted_at_mru);
        assert_eq!(m.hits, 2);
    }

    #[test]
    fn tag_set_through_handle() {
        let mut q = LruQueue::new(1000);
        let h = q.insert_mru(ObjectId(1), 100, 0);
        q.set_tag_at(h, 42);
        assert_eq!(q.get(ObjectId(1)).unwrap().tag, 42);
        // Tag writes must not disturb the hot half.
        assert!(q.get_at(h).inserted_at_mru);
        assert_eq!(q.hits_at(h), 0);
    }

    #[test]
    fn meta_roundtrips_through_reinsert() {
        let mut q = LruQueue::new(1000);
        let h = q.insert_mru(ObjectId(1), 100, 3);
        q.record_hit_at(h, 8);
        q.set_tag_at(h, 99);
        let m = q.remove(ObjectId(1)).unwrap();
        q.insert_meta_lru(m);
        let m2 = q.get(ObjectId(1)).unwrap();
        assert_eq!(m2, m);
        q.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_handle_rejected_after_eviction() {
        let mut q = LruQueue::new(1000);
        let h = q.insert_mru(ObjectId(1), 100, 0);
        q.evict_lru();
        q.insert_mru(ObjectId(2), 100, 1); // reuses the slot
        let _ = q.get_at(h);
    }

    #[test]
    fn handle_pack_roundtrip() {
        let h = Handle {
            idx: 12345,
            generation: 678,
        };
        assert_eq!(Handle::unpack(h.pack()), h);
    }

    #[test]
    fn memory_accounting_includes_index() {
        let mut q = LruQueue::new(u64::MAX);
        for i in 0..1000 {
            q.insert_mru(ObjectId(i), 1, i);
        }
        let per_entry = q.memory_bytes() as f64 / 1000.0;
        // 24 B hot + 32 B cold + ≤ 2×16 B index (load ≥ 1/2 after growth),
        // times vec over-allocation; the point is the bound is honest and
        // far below the old 64 B node + 24 B map-slot accounting would
        // suggest once hashmap overhead was truly counted.
        assert!(per_entry >= 56.0, "per-entry {per_entry} undercounts");
        assert!(per_entry <= 160.0, "per-entry {per_entry} is bloated");
        q.audit().unwrap();
    }

    use crate::rng::SimRng;
    use HistoryList::{Hl, Hm};

    fn evict_into(q: &mut LruQueue, list: HistoryList, tag: u64) -> EntryMeta {
        q.evict_lru_into_history(|_| (list, tag)).unwrap()
    }

    fn entry(id: u64, size: u64, tag: u64) -> HistoryEntry {
        HistoryEntry {
            id: ObjectId(id),
            size,
            tag,
        }
    }

    #[test]
    fn eviction_into_history_rewrites_the_victims_bucket() {
        let mut q = LruQueue::with_history(300, 250);
        for i in 1..=3 {
            q.insert_mru(ObjectId(i), 100, i);
        }
        assert_eq!(evict_into(&mut q, Hm, 7).id, ObjectId(1));
        assert_eq!(evict_into(&mut q, Hl, 8).id, ObjectId(2));
        assert_eq!(q.index.len(), 3, "no key added or removed");
        assert!(!q.contains(ObjectId(1)));
        assert_eq!(q.get(ObjectId(1)), None);
        assert_eq!(q.history_get(ObjectId(1)), Some((Hm, entry(1, 100, 7))));
        assert_eq!(q.history_get(ObjectId(2)), Some((Hl, entry(2, 100, 8))));
        assert!(matches!(q.probe(ObjectId(1)), Probe::History(_)));
        assert!(matches!(q.probe(ObjectId(3)), Probe::Resident(_)));
        assert_eq!(q.probe(ObjectId(9)), Probe::Absent);
        assert_eq!((q.len(), q.used_bytes()), (1, 100));
        assert_eq!(q.history_used_bytes(Hm), 100);
        q.audit().unwrap();
    }

    #[test]
    fn ghost_hit_frees_budget_before_the_insert_that_retires_the_key() {
        let mut q = LruQueue::with_history(200, 200);
        for i in 1..=2 {
            q.insert_mru(ObjectId(i), 100, i);
        }
        evict_into(&mut q, Hm, 0); // H_m: [1]
        let Probe::History(slot) = q.probe(ObjectId(1)) else {
            panic!("1 is remembered")
        };
        assert_eq!(q.take_history(slot), (Hm, entry(1, 100, 0)));
        assert_eq!(q.history_len(Hm), 0);
        // Evictions between the take and the insert see the freed budget.
        q.insert_mru(ObjectId(3), 100, 3);
        evict_into(&mut q, Hm, 0);
        evict_into(&mut q, Hm, 0);
        assert_eq!(q.history_used_bytes(Hm), 200);
        q.insert_lru(ObjectId(1), 100, 4);
        assert!(q.contains(ObjectId(1)));
        assert_eq!(q.history_get(ObjectId(1)), None);
        assert_eq!(
            q.history_iter(Hm).map(|e| e.id.0).collect::<Vec<_>>(),
            [3, 2]
        );
        q.audit().unwrap();
    }

    #[test]
    fn insert_over_a_remembered_key_retires_it() {
        let mut q = LruQueue::with_history(100, 100);
        q.insert_mru(ObjectId(1), 60, 0);
        evict_into(&mut q, Hl, 0);
        q.insert_mru(ObjectId(1), 60, 1);
        assert_eq!((q.history_len(Hl), q.history_used_bytes(Hl)), (0, 0));
        assert_eq!(q.index.len(), 1);
        q.audit().unwrap();
    }

    #[test]
    fn history_budget_drops_oldest_and_forgets_oversized() {
        let mut q = LruQueue::with_history(1000, 250);
        for i in 1..=3 {
            q.insert_mru(ObjectId(i), 100, i);
        }
        q.insert_mru(ObjectId(4), 251, 4);
        q.insert_mru(ObjectId(5), 0, 5);
        for _ in 0..3 {
            evict_into(&mut q, Hm, 0);
        }
        // 300 > 250: the oldest (1) fell off and left the index.
        assert_eq!(q.probe(ObjectId(1)), Probe::Absent);
        assert_eq!(q.history_used_bytes(Hm), 200);
        evict_into(&mut q, Hm, 0); // 251 > budget: forgotten, not tracked
        assert_eq!(q.probe(ObjectId(4)), Probe::Absent);
        evict_into(&mut q, Hm, 0); // size 0 always fits
        assert_eq!(
            q.history_iter(Hm).map(|e| e.id.0).collect::<Vec<_>>(),
            [5, 3, 2]
        );
        assert!(q.is_empty());
        assert_eq!(q.index.len(), 3);
        q.audit().unwrap();
        q.clear();
        assert_eq!(
            (q.history_len(Hm), q.probe(ObjectId(5))),
            (0, Probe::Absent)
        );
        q.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "stale history slot")]
    fn stale_history_slot_rejected() {
        let mut q = LruQueue::with_history(100, 100);
        q.insert_mru(ObjectId(1), 10, 0);
        evict_into(&mut q, Hm, 0);
        let Probe::History(slot) = q.probe(ObjectId(1)) else {
            panic!("1 is remembered")
        };
        q.take_history(slot);
        q.take_history(slot);
    }

    #[test]
    fn forget_drops_the_key_and_frees_the_budget() {
        let mut q = LruQueue::with_history(200, 200);
        for i in 1..=2 {
            q.insert_mru(ObjectId(i), 100, i);
        }
        evict_into(&mut q, Hm, 5);
        evict_into(&mut q, Hm, 6); // H_m: [2, 1]
        let Probe::History(slot) = q.probe(ObjectId(1)) else {
            panic!("1 is remembered")
        };
        assert_eq!(q.forget(slot), (Hm, entry(1, 100, 5)));
        assert_eq!(q.probe(ObjectId(1)), Probe::Absent);
        assert_eq!(q.index.len(), 1, "only 2's key is left");
        assert_eq!(q.history_used_bytes(Hm), 100);
        q.audit().unwrap();
    }

    #[test]
    fn remember_follows_the_ghost_list_rules() {
        let mut q = LruQueue::with_history(1000, 250);
        q.remember(Hm, entry(1, 100, 1));
        q.remember(Hm, entry(2, 100, 2));
        q.remember(Hl, entry(3, 100, 3));
        // A re-added key is refreshed, across lists too: 1 leaves H_m.
        q.remember(Hl, entry(1, 100, 4));
        assert_eq!(q.history_get(ObjectId(1)), Some((Hl, entry(1, 100, 4))));
        assert_eq!(q.history_iter(Hm).map(|e| e.id.0).collect::<Vec<_>>(), [2]);
        // 300 > 250: the oldest of H_l (3) falls off and leaves the index.
        q.remember(Hl, entry(4, 100, 5));
        assert_eq!(q.probe(ObjectId(3)), Probe::Absent);
        // Oversized: not remembered, and the earlier record is forgotten.
        q.remember(Hm, entry(2, 251, 6));
        q.remember(Hm, entry(5, 251, 7));
        assert_eq!(q.probe(ObjectId(2)), Probe::Absent);
        assert_eq!(q.probe(ObjectId(5)), Probe::Absent);
        assert_eq!((q.history_len(Hm), q.history_used_bytes(Hl)), (0, 200));
        assert_eq!(q.index.len(), 2);
        q.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "remember of a resident object")]
    fn remember_of_a_resident_key_panics() {
        let mut q = LruQueue::with_history(100, 100);
        q.insert_mru(ObjectId(1), 10, 0);
        q.remember(Hm, entry(1, 10, 0));
    }

    /// One request of a history-keeping policy: hit, or take the ghost
    /// entry, evict into a random list, then insert. Returns the number of
    /// victims filed into a history.
    fn serve(q: &mut LruQueue, rng: &mut SimRng, id: u64, tick: Tick) -> usize {
        let id = ObjectId(id);
        let slot = match q.probe(id) {
            Probe::Resident(h) => {
                q.record_hit_at(h, tick);
                q.promote_to_mru_at(h);
                return 0;
            }
            Probe::History(slot) => Some(slot),
            Probe::Absent => None,
        };
        if let Some(slot) = slot {
            q.take_history(slot);
        }
        let mut filed = 0;
        while q.needs_eviction_for(1) {
            let list = if rng.chance(0.5) { Hm } else { Hl };
            evict_into(q, list, tick);
            filed += 1;
        }
        q.insert_mru(id, 1, tick);
        filed
    }

    #[test]
    fn rings_cycle_through_many_compactions_and_keep_resolving() {
        // 64 residents, 24 remembered bytes per list, 160 ids: about a
        // third of misses are ghost hits, which tombstone ring slots
        // anywhere between tail and head.
        let mut q = LruQueue::with_history(64, 24);
        let mut rng = SimRng::new(0x51AB);
        let (mut pushes, mut peak_slots) = (0usize, 0usize);
        for t in 0..300_000u64 {
            let id = rng.u64_below(160);
            pushes += serve(&mut q, &mut rng, id, t);
            peak_slots = peak_slots.max(q.hist[0].slots.len().max(q.hist[1].slots.len()));
            if t % 1_000 == 0 {
                q.audit().unwrap_or_else(|e| panic!("tick {t}: {e}"));
            }
        }
        q.audit().unwrap();
        assert!(peak_slots <= 4 * 24, "rings grew to {peak_slots} slots");
        assert!(
            pushes / peak_slots >= 1_000,
            "only {pushes} history adds through {peak_slots}-slot rings"
        );
    }

    #[test]
    fn every_returning_victim_keeps_rings_within_four_times_live() {
        // An unbounded history budget and a closed universe: every evicted
        // object comes back, so entries leave a ring only when their
        // object returns (a tombstone), never for budget.
        let mut q = LruQueue::with_history(64, u64::MAX);
        let mut rng = SimRng::new(7);
        let mut peak_live = [0usize; 2];
        for t in 0..100_000u64 {
            let id = rng.u64_below(100);
            serve(&mut q, &mut rng, id, t);
            assert!(q.hist[0].live + q.hist[1].live <= 100 - q.len());
            for (ring, peak) in q.hist.iter().zip(&mut peak_live) {
                *peak = (*peak).max(ring.live);
                let slots = ring.slots.len();
                assert!(
                    slots <= MIN_RING.max(4 * *peak),
                    "tick {t}: {slots} slots for at most {peak} live"
                );
            }
        }
        q.audit().unwrap();
    }
}
