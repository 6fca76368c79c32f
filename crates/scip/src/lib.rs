//! SCIP — the Smart Cache Insertion and Promotion policy of Wang et al.
//! (ICPP 2023), the primary contribution this workspace reproduces.
//!
//! SCIP unifies the insertion policy (placement of *missing* objects) and
//! the promotion policy (re-placement of *hit* objects) by treating a hit
//! as a special miss. Two FIFO history lists record evicted objects by the
//! position their residency began at (`H_m` for MRU, `H_l` for LRU); ghost
//! hits in those lists drive multiplicative updates of the MRU/LRU
//! insertion probabilities `(ω_m, ω_l)` — a two-armed bandit — and the
//! learning rate `λ` follows the gradient-based stochastic hill climbing
//! of the paper's Algorithm 2, with random restarts after prolonged
//! stagnation.
//!
//! - [`core`]: [`ScipCore`] — the reusable MAB brain (ω, λ; it names each
//!   victim's history list and learns from the entry a miss finds), plus
//!   [`UpdateLr`], a standalone Algorithm 2.
//! - [`policy`]: [`Scip`], the one SCIP-on-an-LRU-queue type, with three
//!   constructors: [`Scip::with_config`] (Algorithm 1, "SCIP-LRU"),
//!   [`Scip::insertion_only`] (Algorithm 3, "SCI": hits always promote to
//!   MRU) and [`Scip::deploying_at`] (the §5 rollout node — LRU placement
//!   until a deploy tick, SCIP from it on, warm; `tdc` and `cdnd` both
//!   serve through it). Its `H_m`/`H_l` live inside its
//!   [`cdn_cache::LruQueue`], keyed through the queue's own index.
//! - [`enhance`]: the §4 integration harness — [`Enhanced`] hosts any
//!   [`cdn_policies::insertion::InsertionDecider`] on an [`EvictionCore`]
//!   with no recency queue (LRU-K, LRB), realising the "LRU position" as
//!   bypass. [`ScipBrain`] is SCIP's bandit as such a decider; with it and
//!   the stock `AscIp` the harness yields LRU-K-SCIP, LRB-SCIP and their
//!   ASC-IP counterparts for Figure 12.

pub mod core;
pub mod enhance;
pub mod policy;

pub use crate::core::{ScipConfig, ScipCore, UpdateLr};
pub use enhance::{Enhanced, EvictionCore, ScipBrain};
pub use policy::Scip;
