//! `cdnd` — a supervised, sharded cache-server daemon.
//!
//! Promotes the library-only SCIP stack into a long-running process
//! shape: N single-threaded shard workers, one
//! [`cdn_cache::CachePolicy`] instance each, key-partitioned with
//! [`cdn_cache::key_shard`], fed by bounded MPSC rings. Each worker
//! supervises itself; there is no supervisor thread. The crate's
//! contract is robustness, in this order:
//!
//! 1. **Crash isolation** — a panicking shard worker catches itself,
//!    declares its cache lost, and restarts with bounded exponential
//!    backoff behind a restart-storm breaker, while every other shard
//!    keeps serving ([`Daemon`], DESIGN.md §16). With snapshotting
//!    enabled ([`SnapshotConfig`]), the next incarnation restores warm
//!    from the newest readable CRC-framed epoch file before it reports
//!    the shard up and drains its ring ([`snapshot`], DESIGN.md §17).
//! 2. **Availability under failure** — when a key's primary shard is
//!    down and failover routing is enabled ([`RouteConfig`]), the
//!    [`route`] module re-routes it deterministically to its
//!    rendezvous-ordered secondary, served cold as an overlay miss —
//!    degraded, never dark (DESIGN.md §18).
//! 3. **Overload robustness** — bounded queues guarded by a
//!    class-watermark admission controller ([`Admit`],
//!    [`Priority::depth_limit`]): brownout sheds the lowest [`Priority`]
//!    class first at a fixed share of the ring, per-request
//!    deadlines refuse at the request's own depth bound, and every
//!    refusal is counted under exactly one [`SubmitError`] cause in
//!    [`DaemonStats`].
//! 4. **Graceful lifecycle** — a config validated once at spawn and
//!    fixed for the daemon's life ([`DaemonConfig`]), and drain-on-shutdown.
//!
//! The [`harness`] module is the deterministic in-process client used by
//! the `cdnd_chaos` binary and the test suite to prove the availability
//! and ledger-exactness gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod daemon;
pub mod harness;
pub mod ring;
pub mod route;
pub mod snapshot;

pub use config::{DaemonConfig, DaemonConfigError, RestartConfig, RouteConfig, SnapshotConfig};
pub use daemon::{
    worker_fault_key, Accepted, Daemon, DaemonStats, PolicyFactory, ShardSnapshot, ShardState,
    SubmitError, FP_ENQUEUE, FP_SHARD_WORKER,
};
pub use harness::{
    feed, feed_batched, feed_stream, force_snapshot, ledger_diff, oracle_free_factory, quiesce_all,
    routed_ledger_diff, run_outages, ClientTally, FeedMode, FeedReport, ShardPlan, FAIL_FAST,
    FEED_WINDOW, SETTLE, STAY_DOWN,
};
pub use ring::{BoundedRing, Pop, Popped, PushError};
pub use route::{route_fault_key, Admit, Priority, FP_ROUTE};
pub use snapshot::{
    snap_fault_key, RecoverOutcome, SnapError, SnapshotData, FP_SNAP_LOAD, FP_SNAP_WRITE,
};
