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
//! - [`core`]: [`ScipCore`] — the reusable MAB brain (histories, ω, λ),
//!   plus [`UpdateLr`], a standalone Algorithm 2.
//! - [`policy`]: [`Scip`] (Algorithm 1 on an LRU queue — "SCIP-LRU") and
//!   [`Sci`] (Algorithm 3: insertion only, hits always promote to MRU).
//! - [`enhance`]: the §4 integration harness — [`Enhanced`] puts a
//!   probationary region in front of any [`EvictionCore`] (LRU-K, LRB) and
//!   lets a [`PlacementBrain`] (SCIP or ASC-IP) steer placement, yielding
//!   LRU-K-SCIP, LRB-SCIP and their ASC-IP counterparts for Figure 12.
//! - [`switchable`]: [`SwitchableScip`] — an LRU node that hands placement
//!   to SCIP at a deploy tick, warm (the §5 rollout; `tdc` and `cdnd` both
//!   serve through it).

pub mod core;
pub mod enhance;
pub mod policy;
pub mod switchable;

pub use crate::core::{ScipConfig, ScipCore, UpdateLr};
pub use enhance::{AscIpBrain, Enhanced, EvictionCore, PlacementBrain, ScipBrain};
pub use policy::{Sci, Scip};
pub use switchable::SwitchableScip;
