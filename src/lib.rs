//! Umbrella crate for the SCIP (ICPP 2023) reproduction.
//!
//! Re-exports every workspace crate so examples and integration tests can
//! depend on a single package, and holds the per-figure experiment harness
//! ([`experiments`], driven by the `experiments` binary) — the one layer
//! that needs both the simulator and the TDC deployment study. See
//! README.md for a tour and DESIGN.md for the per-experiment index.

pub mod experiments;

pub use cdn_cache;
pub use cdn_learning;
pub use cdn_policies;
pub use cdn_sim;
pub use cdn_trace;
pub use scip;
pub use tdc;
