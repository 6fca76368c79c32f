//! TDC — a discrete-event analog of Tencent's T Disk Cache (the paper's
//! Figure 2 architecture and §5 deployment study).
//!
//! The real TDC is a production CDN: an **outside cache (OC) layer** close
//! to users, a **data-center cache (DC) layer** shielding the backing
//! object store (COS), and "back-to-origin" (BTO) traffic whenever both
//! layers miss. Reproducing §5's measurements needs exactly three things,
//! all functions of the cache decision sequence:
//!
//! 1. the BTO ratio (share of requests served from origin),
//! 2. BTO bandwidth (origin bytes per wall-clock second), and
//! 3. mean user access latency (a parametric model over which layer
//!    served each request).
//!
//! [`system::Tdc`] wires OC nodes (object-hash sharded), one DC node and a
//! latency model together; [`deploy::run_deployment`] replays a diurnal
//! trace and flips every node's insertion/promotion policy from LRU to
//! SCIP mid-timeline, warm — mirroring how engineers "merely replaced
//! LRU's insertion policy with SCIP" in the real system (§5.1).

pub mod deploy;
pub mod fault;
pub mod latency;
pub mod resilience;
pub mod system;

pub use deploy::{run_deployment, run_deployment_resilient, DeploymentConfig, DeploymentReport};
pub use fault::{FaultSchedule, LatencySpike, NodeCrash, SpikeTarget, Window};
pub use latency::{LatencyModel, ServedBy};
pub use resilience::{
    BreakerState, CircuitBreaker, ResilienceConfig, ResilienceCounters, ResilientTdc, ServeOutcome,
};
pub use system::{ConfigError, Tdc, TdcConfig};
