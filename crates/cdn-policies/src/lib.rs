//! Baseline cache policies: the eight insertion/promotion policies and the
//! replacement algorithms the paper compares SCIP against.
//!
//! Two families, mirroring the paper's §6 grouping:
//!
//! - [`insertion`]: policies that keep LRU victim selection and only change
//!   *where* objects enter / re-enter the queue — LIP, MIP (classic LRU
//!   insertion), BIP, DIP, PIPP, DTA, SHiP, DGIPPR, DAAIP and ASC-IP, and
//!   Figures 1 and 3's label-driven oracle placement.
//!   Most are expressed against the [`insertion::InsertionDecider`]
//!   framework; PIPP and DGIPPR need positional inserts and are built on
//!   [`cdn_cache::SegmentedQueue`] directly.
//! - [`replacement`]: full replacement algorithms — LRU, LRU-K, S4LRU,
//!   SS-LRU, GDSF, LHD, ARC, LeCaR, CACHEUS, LRB, GL-Cache and the Belady
//!   oracle policy.
//!
//! A third family, [`admission`], implements the related work the paper's
//! §7 surveys (2Q, TinyLFU, AdaptSize): admission-side answers to the same
//! ZRO problem SCIP attacks with placement.
//!
//! CPU-cache-native baselines (DIP, SHiP, DAAIP, DGIPPR, PIPP, DTA) are
//! re-targeted from set-associative caches to one large object cache the
//! same way the paper had to: leader sets become hashed leader objects, PCs
//! become object signatures, and set positions become queue fractions. Each
//! module documents its adaptation.

pub mod admission;
pub mod insertion;
pub mod replacement;
pub mod replay;

pub use insertion::{InsertionCache, InsertionDecider, MissDecision, PromoteAction};
pub use replay::{replay, replay_columns};
