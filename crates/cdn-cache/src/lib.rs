//! Cache substrate for the SCIP reproduction.
//!
//! This crate contains everything a trace-driven CDN cache simulator needs
//! below the policy level:
//!
//! - [`rng`]: a small, fast, seedable xoshiro256++ PRNG so every simulation
//!   is deterministic and reproducible.
//! - [`hash`]: an Fx-style hasher and map/set aliases for integer-keyed
//!   metadata tables (hot path of every policy).
//! - [`object`]: object identifiers, request records and logical time.
//! - [`index`]: a fused open-addressing id→handle table (fibonacci probe,
//!   backward-shift deletion) whose buckets hold key and payload inline —
//!   one probe sequence resolves residency, no hashmap-then-slab chase.
//! - [`prefetch`]: a safe software-prefetch shim (`_mm_prefetch` on
//!   x86_64, no-op elsewhere) used by eviction loops and, through
//!   [`CachePolicy::prefetch_hint`], by the simulator's pipelined replay
//!   loop.
//! - [`queue`]: a byte-budgeted LRU queue with MRU/LRU bimodal insertion,
//!   per-entry policy tags, stable handles and tail eviction — the O(1)
//!   backbone of every queue-based policy; optionally with SCIP's two
//!   history FIFOs keyed through its own index.
//! - [`segq`]: a segmented queue (stack of LRU queues with overflow) used by
//!   S4LRU, SS-LRU, PIPP and DGIPPR.
//! - [`ghost`]: standalone FIFO ghost lists holding metadata of evicted
//!   objects under a byte budget (ARC, LeCaR, CACHEUS, 2Q, host-mode SCIP):
//!   the history ring under its own index.
//! - [`metrics`]: the replay ledger ([`MissRatio`]: object and byte miss
//!   ratios) and the latency histogram.
//! - [`model`]: deliberately naive reference implementations of the above
//!   structures (Vec + linear scans + u128 ledgers) for differential
//!   testing; every structure also exposes an O(n) `audit()` invariant
//!   walk, called from hot paths when built with `--features audit`.
//! - [`policy`]: the `CachePolicy` trait that every replacement algorithm
//!   and insertion policy in the workspace implements; the simulator
//!   replays every policy as a `Box<dyn CachePolicy>`.
//! - [`fault`]: a deterministic failpoint registry shared by the trace
//!   reader, the sweep executor, `tdc` and `cdnd`, so tests can prove
//!   every recovery path actually recovers; one atomic load per site
//!   while nothing is armed.

pub mod fault;
pub mod ghost;
pub mod hash;
pub mod index;
pub mod metrics;
pub mod model;
pub mod object;
pub mod policy;
pub mod prefetch;
pub mod queue;
pub mod rng;
pub mod segq;

pub use ghost::{GhostEntry, GhostList};
pub use hash::{
    key_shard, rendezvous_pick, rendezvous_weight, route_with_failover, FxHashMap, FxHashSet,
};
pub use index::FusedIndex;
pub use metrics::{LatencyHistogram, MissRatio};
pub use model::{ModelGhost, ModelLru, ModelLruPolicy, ModelSegQ};
pub use object::{ObjectId, Request, Tick};
pub use policy::{
    export_lru_queue, export_segmented_queue, restore_lru_queue, restore_segmented_queue,
    AccessKind, CachePolicy, InsertPos, PolicyStats, RejectReason, ResidentEntry,
};
pub use queue::{
    needs_eviction, EntryMeta, EvictedEntry, Handle, HistoryEntry, HistoryList, HistorySlot,
    LruQueue, Probe,
};
pub use rng::SimRng;
pub use segq::SegmentedQueue;
