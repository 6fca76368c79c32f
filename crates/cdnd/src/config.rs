//! Validated daemon configuration, fixed for the life of a daemon.
//!
//! Follows the `tdc::ConfigError` pattern: every field is validated with a
//! structured error before [`crate::Daemon::spawn`] starts a worker, and
//! an invalid config spawns nothing. The daemon never changes its config
//! afterwards; a new config is a new daemon. A setting no caller varies is
//! a constant, not a field: the admission watermarks live in
//! [`crate::route`], and the `cdnd` binary's snapshot cadence is
//! [`SNAP_INTERVAL`].

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use cdn_sim::{scale_from_env, ScaleError};

/// Structured validation failure for a [`DaemonConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonConfigError {
    /// `shards` must be at least 1.
    ZeroShards,
    /// `shards` exceeds [`MAX_SHARDS`].
    TooManyShards(usize),
    /// `total_capacity` must provide at least one byte per shard.
    CapacityBelowShards {
        /// Offending capacity.
        total_capacity: u64,
        /// Configured shard count.
        shards: usize,
    },
    /// `queue_capacity` must be at least 1 (a zero queue can accept
    /// nothing and the daemon would shed every request).
    ZeroQueueCapacity,
    /// `worker_batch` must be at least 1.
    ZeroWorkerBatch,
    /// Restart backoff cap must be at least the base.
    BackoffCapBelowBase {
        /// Configured base delay (ms).
        base_ms: u64,
        /// Configured cap (ms).
        max_ms: u64,
    },
    /// Storm breaker threshold must be at least 1 restart.
    ZeroStormThreshold,
    /// Storm window must be positive.
    ZeroStormWindow,
    /// Snapshotting is enabled (`interval > 0`) but `keep` is 0 — every
    /// epoch would be pruned the moment it commits.
    ZeroSnapKeep,
    /// Snapshotting is enabled but no snapshot directory is configured.
    SnapDirRequired,
}

impl fmt::Display for DaemonConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaemonConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            DaemonConfigError::TooManyShards(shards) => {
                write!(f, "shards must be <= {MAX_SHARDS} (got {shards})")
            }
            DaemonConfigError::CapacityBelowShards {
                total_capacity,
                shards,
            } => write!(
                f,
                "total_capacity {total_capacity} cannot cover {shards} shards \
                 (need >= 1 byte per shard)"
            ),
            DaemonConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be >= 1")
            }
            DaemonConfigError::ZeroWorkerBatch => write!(f, "worker_batch must be >= 1"),
            DaemonConfigError::BackoffCapBelowBase { base_ms, max_ms } => write!(
                f,
                "restart backoff cap {max_ms} ms is below the base {base_ms} ms"
            ),
            DaemonConfigError::ZeroStormThreshold => {
                write!(f, "storm_threshold must be >= 1 restart")
            }
            DaemonConfigError::ZeroStormWindow => {
                write!(f, "storm_window_ms must be > 0")
            }
            DaemonConfigError::ZeroSnapKeep => {
                write!(
                    f,
                    "snapshot keep must be >= 1 epoch when snapshotting is enabled"
                )
            }
            DaemonConfigError::SnapDirRequired => {
                write!(f, "snapshot dir is required when snapshot interval > 0")
            }
        }
    }
}

impl std::error::Error for DaemonConfigError {}

/// Most shards a daemon may run: the failpoint keys
/// ([`crate::worker_fault_key`], [`crate::route_fault_key`]) give the
/// shard id 16 bits, and every shard is a thread with its own ring.
pub const MAX_SHARDS: usize = 1 << 16;

/// Supervision tunables: how a shard worker backs off and when its
/// restart-storm breaker opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartConfig {
    /// First restart delay; doubles per restart inside the storm window.
    pub backoff_base_ms: u64,
    /// Cap on the exponential backoff delay.
    pub backoff_max_ms: u64,
    /// Restarts within [`RestartConfig::storm_window_ms`] that trip the
    /// breaker: the shard goes Storm-Open and stays down until an
    /// operator [`crate::Daemon::reset_shard`].
    pub storm_threshold: u32,
    /// Sliding window the storm breaker counts restarts over.
    pub storm_window_ms: u64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            backoff_base_ms: 50,
            backoff_max_ms: 2_000,
            storm_threshold: 5,
            storm_window_ms: 10_000,
        }
    }
}

impl RestartConfig {
    /// Backoff delay before restart number `restarts_in_window + 1`:
    /// `base * 2^restarts_in_window`, saturating, capped at the max.
    pub fn backoff_delay(&self, restarts_in_window: u32) -> Duration {
        let factor = 1u64 << restarts_in_window.min(20);
        let ms = self
            .backoff_base_ms
            .saturating_mul(factor)
            .min(self.backoff_max_ms);
        Duration::from_millis(ms)
    }
}

/// Warm-restart snapshot tunables.
///
/// Snapshotting is **off by default** (`interval == 0`): a crashed shard
/// restarts cold, exactly the pre-snapshot behavior. Enabling it makes
/// every shard worker export its resident set (and any learned-parameter
/// block the policy offers) into CRC-framed epoch files under
/// [`SnapshotConfig::dir`], and makes replacement workers restore warm
/// from the newest readable epoch before draining their ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotConfig {
    /// Requests a shard processes between snapshot epochs; `0` disables
    /// snapshotting entirely.
    pub interval: u64,
    /// Committed epochs retained per shard (older ones are pruned after
    /// each successful commit). Must be at least 1 when enabled — the
    /// deeper the ladder, the more corruption rungs recovery can descend.
    pub keep: u32,
    /// Directory epoch files live in (`snap-<shard>-<epoch>.bin`).
    /// Required when `interval > 0`.
    pub dir: Option<PathBuf>,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            interval: 0,
            keep: 3,
            dir: None,
        }
    }
}

/// Requests a shard processes between snapshot epochs when `CDND_SNAP_DIR`
/// turns snapshotting on ([`DaemonConfig::overlay_env`]); each shard also
/// commits one final epoch at drain.
pub const SNAP_INTERVAL: u64 = 16_384;

impl SnapshotConfig {
    /// Whether snapshotting is active.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// Validate this block (called from [`DaemonConfig::validate`]).
    pub fn validate(&self) -> Result<(), DaemonConfigError> {
        if self.enabled() {
            if self.keep == 0 {
                return Err(DaemonConfigError::ZeroSnapKeep);
            }
            if self.dir.is_none() {
                return Err(DaemonConfigError::SnapDirRequired);
            }
        }
        Ok(())
    }
}

/// Failover-routing tunables.
///
/// Routing is **off by default**: a submit whose primary shard is down
/// fails fast with `Down`, exactly the pre-routing daemon, and the calm
/// serving path is bit-identical either way (the router only diverts when
/// a shard is actually down). Enabling failover makes the submit path
/// walk the key's rendezvous order (`cdn_cache::route_with_failover`) and
/// serve primaries of a dead shard on their live secondary as overlay
/// misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteConfig {
    /// Re-route primaries of a down shard to their rendezvous secondary
    /// instead of rejecting with `Down`.
    pub failover: bool,
}

/// Full daemon configuration, validated once at spawn and fixed for the
/// life of the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Number of single-threaded shard workers (key-partitioned via
    /// [`cdn_cache::key_shard`]).
    pub shards: usize,
    /// Total cache bytes, split evenly: each shard manages
    /// `total_capacity / shards` (floor, min 1) — the same split as
    /// `cdn_sim::run_sharded_serial`, so daemon ledgers are comparable
    /// u64-for-u64 against the library reference.
    pub total_capacity: u64,
    /// Per-shard bounded ring depth; arrivals beyond it are shed with
    /// [`crate::SubmitError::Shed`].
    pub queue_capacity: usize,
    /// Max requests a worker dequeues per ring lock acquisition.
    pub worker_batch: usize,
    /// Seed forwarded to stochastic policies.
    pub seed: u64,
    /// Supervision tunables.
    pub restart: RestartConfig,
    /// Warm-restart snapshot tunables.
    pub snap: SnapshotConfig,
    /// Failover-routing tunables.
    pub route: RouteConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: 4,
            total_capacity: 64 << 20,
            queue_capacity: 4_096,
            worker_batch: 64,
            seed: 42,
            restart: RestartConfig::default(),
            snap: SnapshotConfig::default(),
            route: RouteConfig::default(),
        }
    }
}

impl DaemonConfig {
    /// Validate every field; an `Err` means the config must not be
    /// applied.
    pub fn validate(&self) -> Result<(), DaemonConfigError> {
        if self.shards == 0 {
            return Err(DaemonConfigError::ZeroShards);
        }
        if self.shards > MAX_SHARDS {
            return Err(DaemonConfigError::TooManyShards(self.shards));
        }
        if self.total_capacity < self.shards as u64 {
            return Err(DaemonConfigError::CapacityBelowShards {
                total_capacity: self.total_capacity,
                shards: self.shards,
            });
        }
        if self.queue_capacity == 0 {
            return Err(DaemonConfigError::ZeroQueueCapacity);
        }
        if self.worker_batch == 0 {
            return Err(DaemonConfigError::ZeroWorkerBatch);
        }
        if self.restart.backoff_max_ms < self.restart.backoff_base_ms {
            return Err(DaemonConfigError::BackoffCapBelowBase {
                base_ms: self.restart.backoff_base_ms,
                max_ms: self.restart.backoff_max_ms,
            });
        }
        if self.restart.storm_threshold == 0 {
            return Err(DaemonConfigError::ZeroStormThreshold);
        }
        if self.restart.storm_window_ms == 0 {
            return Err(DaemonConfigError::ZeroStormWindow);
        }
        self.snap.validate()
    }

    /// Bytes each shard's policy instance manages (floor split, min 1 —
    /// identical to the sharded-replay reference decomposition).
    pub fn per_shard_capacity(&self) -> u64 {
        (self.total_capacity / self.shards as u64).max(1)
    }

    /// Overlay the daemon's environment knobs onto `self`; unset
    /// variables keep the current value, a variable that is set but does
    /// not parse is an error naming it (never a silent default):
    /// `CDND_SHARDS`, `CDND_CAPACITY_MB`, `REPRO_SEED`,
    /// `CDND_ROUTE_FAILOVER` (`1`/`true`/`on` enables, `0`/`false`/`off`
    /// disables) and `CDND_SNAP_DIR` (a non-empty path turns snapshots on
    /// at [`SNAP_INTERVAL`]).
    pub fn overlay_env(mut self) -> Result<Self, ScaleError> {
        self.shards = scale_from_env("CDND_SHARDS", self.shards)?;
        if std::env::var_os("CDND_CAPACITY_MB").is_some() {
            self.total_capacity = scale_from_env("CDND_CAPACITY_MB", 0u64)?.saturating_mul(1 << 20);
        }
        self.seed = scale_from_env("REPRO_SEED", self.seed)?;
        if let Some(dir) = std::env::var_os("CDND_SNAP_DIR").filter(|d| !d.is_empty()) {
            self.snap.interval = SNAP_INTERVAL;
            self.snap.dir = Some(PathBuf::from(dir));
        }
        if let Some(v) = std::env::var_os("CDND_ROUTE_FAILOVER") {
            self.route.failover = match v.to_string_lossy().trim() {
                "1" | "true" | "on" => true,
                "0" | "false" | "off" => false,
                other => {
                    return Err(ScaleError {
                        var: "CDND_ROUTE_FAILOVER",
                        value: other.to_string(),
                    })
                }
            };
        }
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        DaemonConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_each_bad_field() {
        let base = DaemonConfig::default();
        let cases: Vec<(DaemonConfig, DaemonConfigError)> = vec![
            (
                DaemonConfig {
                    shards: 0,
                    ..base.clone()
                },
                DaemonConfigError::ZeroShards,
            ),
            (
                DaemonConfig {
                    shards: MAX_SHARDS + 1,
                    ..base.clone()
                },
                DaemonConfigError::TooManyShards(MAX_SHARDS + 1),
            ),
            (
                DaemonConfig {
                    shards: 8,
                    total_capacity: 4,
                    ..base.clone()
                },
                DaemonConfigError::CapacityBelowShards {
                    total_capacity: 4,
                    shards: 8,
                },
            ),
            (
                DaemonConfig {
                    queue_capacity: 0,
                    ..base.clone()
                },
                DaemonConfigError::ZeroQueueCapacity,
            ),
            (
                DaemonConfig {
                    worker_batch: 0,
                    ..base.clone()
                },
                DaemonConfigError::ZeroWorkerBatch,
            ),
            (
                DaemonConfig {
                    restart: RestartConfig {
                        backoff_base_ms: 100,
                        backoff_max_ms: 10,
                        ..base.restart
                    },
                    ..base.clone()
                },
                DaemonConfigError::BackoffCapBelowBase {
                    base_ms: 100,
                    max_ms: 10,
                },
            ),
            (
                DaemonConfig {
                    restart: RestartConfig {
                        storm_threshold: 0,
                        ..base.restart
                    },
                    ..base.clone()
                },
                DaemonConfigError::ZeroStormThreshold,
            ),
            (
                DaemonConfig {
                    restart: RestartConfig {
                        storm_window_ms: 0,
                        ..base.restart
                    },
                    ..base.clone()
                },
                DaemonConfigError::ZeroStormWindow,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
    }

    #[test]
    fn snapshot_config_validates() {
        // Disabled: anything goes.
        SnapshotConfig::default().validate().unwrap();
        SnapshotConfig {
            interval: 0,
            keep: 0,
            dir: None,
        }
        .validate()
        .unwrap();
        // Enabled: needs keep >= 1 and a directory.
        assert_eq!(
            SnapshotConfig {
                interval: 100,
                keep: 0,
                dir: Some(PathBuf::from("/tmp/x")),
            }
            .validate(),
            Err(DaemonConfigError::ZeroSnapKeep)
        );
        assert_eq!(
            SnapshotConfig {
                interval: 100,
                keep: 3,
                dir: None,
            }
            .validate(),
            Err(DaemonConfigError::SnapDirRequired)
        );
        SnapshotConfig {
            interval: 100,
            keep: 3,
            dir: Some(PathBuf::from("/tmp/x")),
        }
        .validate()
        .unwrap();
        // And the daemon-level validate covers the block.
        let cfg = DaemonConfig {
            snap: SnapshotConfig {
                interval: 5,
                keep: 1,
                dir: None,
            },
            ..DaemonConfig::default()
        };
        assert_eq!(cfg.validate(), Err(DaemonConfigError::SnapDirRequired));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RestartConfig {
            backoff_base_ms: 10,
            backoff_max_ms: 50,
            ..RestartConfig::default()
        };
        assert_eq!(r.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(r.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(r.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(r.backoff_delay(3), Duration::from_millis(50));
        assert_eq!(r.backoff_delay(63), Duration::from_millis(50));
    }

    #[test]
    fn per_shard_capacity_matches_reference_split() {
        let cfg = DaemonConfig {
            shards: 3,
            total_capacity: 10,
            ..DaemonConfig::default()
        };
        assert_eq!(cfg.per_shard_capacity(), 3); // floor(10/3), as in run_sharded_serial
    }
}
