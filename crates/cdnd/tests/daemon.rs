//! Integration tests for the daemon's calm-path contracts: ledger
//! exactness against the library's serial sharded replay, bounded load
//! shedding, drain-on-shutdown, config validation at spawn, the snapshot
//! cadence and warm respawn, and the worker's prefetch pipeline (every
//! served request hinted once). (Crash/restart behaviour at an exact
//! request needs the failpoint registry and lives in
//! `supervision_check.rs`; a panic outside a request needs none and is
//! covered here.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cdn_cache::{AccessKind, CachePolicy, ObjectId, PolicyStats, Request, ResidentEntry, Tick};
use cdn_sim::PolicyKind;
use cdn_trace::{GeneratorConfig, TraceGenerator};
use cdnd::{
    feed, ledger_diff, quiesce_all, Daemon, DaemonConfig, DaemonConfigError, PolicyFactory,
    RouteConfig, ShardPlan, ShardState, SnapshotConfig, FAIL_FAST,
};
use scip::Scip;

fn small_trace(requests: u64, seed: u64) -> Vec<Request> {
    TraceGenerator::generate(GeneratorConfig {
        requests,
        core_objects: 2_000,
        seed,
        ..GeneratorConfig::default()
    })
}

const QUIESCE: Duration = Duration::from_secs(30);

/// Every shard serves a `Scip::deploying_at` node that never deploys:
/// LRU placement on SCIP's queue.
fn never_deploying(seed: u64) -> PolicyFactory {
    Arc::new(move |_shard, capacity| -> Box<dyn CachePolicy> {
        Box::new(Scip::deploying_at(capacity, Tick::MAX, seed))
    })
}

/// Calm daemon ledgers equal `run_sharded_serial` u64-for-u64, per shard,
/// for both a simple and a context-sensitive policy.
#[test]
fn calm_ledgers_match_serial_reference_exactly() {
    let trace = small_trace(30_000, 11);
    let total_capacity = 4 << 20;
    for kind in [PolicyKind::Lru, PolicyKind::Scip] {
        let cfg = DaemonConfig {
            shards: 4,
            total_capacity,
            ..DaemonConfig::default()
        };
        let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(kind)).unwrap();
        let report = feed(&daemon, &trace, FAIL_FAST);
        quiesce_all(&daemon);
        let stats = daemon.shutdown();
        // Calm path: everything accepted, nothing shed or rejected.
        report.check_against(&stats.shards, true).unwrap();
        assert_eq!(report.total_accepted(), trace.len() as u64);
        assert_eq!(report.outage_windows, 0);
        assert_eq!(report.overall_availability(), 1.0);
        let reference = plan.reference(kind, total_capacity);
        for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
            if let Some(diff) = ledger_diff(shard, snap, m) {
                panic!("{kind:?}: {diff}");
            }
        }
    }
}

/// Overload is bounded and observable: with queue capacity Q and a burst
/// of 3Q at a paused shard, exactly Q are admitted, the rest shed with
/// `Overloaded`, the ring never exceeds Q (exact high-water mark), and
/// the daemon counters match the client-side tally one-for-one.
#[test]
fn overload_sheds_boundedly_and_counters_reconcile() {
    let q = 64usize;
    let cfg = DaemonConfig {
        shards: 1,
        queue_capacity: q,
        worker_batch: 8,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn(cfg, never_deploying(7)).unwrap();
    daemon.pause_shard(0);
    let (mut accepted, mut shed) = (0u64, 0u64);
    for i in 0..(3 * q as u64) {
        match daemon.submit(Request {
            tick: 0,
            id: ObjectId(i),
            size: 1_000,
            wall_secs: 0.0,
        }) {
            Ok(_) => accepted += 1,
            Err((_, cdnd::SubmitError::Shed)) => shed += 1,
            Err((_, e)) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert_eq!(accepted, q as u64);
    assert_eq!(shed, 2 * q as u64);
    let mid = daemon.stats();
    assert_eq!(mid.shards[0].depth, q);
    assert_eq!(mid.shards[0].peak_depth, q, "queue grew past its bound");
    assert_eq!(mid.shards[0].enqueued, accepted);
    assert_eq!(mid.shards[0].shed, shed);
    // Recovery: resume, drain, everything admitted gets served.
    daemon.resume_shard(0);
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    assert_eq!(stats.shards[0].processed, accepted);
    assert_eq!(stats.shards[0].depth, 0);
    assert_eq!(stats.shards[0].peak_depth, q);
    assert_eq!(stats.shards[0].dropped_at_shutdown, 0);
    assert_eq!(
        stats.shards[0].hits + stats.shards[0].misses,
        stats.shards[0].processed
    );
}

/// Graceful shutdown drains: every accepted request is fully served
/// before the daemon exits, with nothing dropped.
#[test]
fn shutdown_drains_in_flight_requests() {
    let cfg = DaemonConfig {
        shards: 2,
        queue_capacity: 10_000,
        ..DaemonConfig::default()
    };
    let trace = small_trace(5_000, 3);
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();
    let report = feed(&daemon, &trace, FAIL_FAST);
    // No quiesce: shutdown itself must finish the queued work.
    let stats = daemon.shutdown();
    assert_eq!(report.total_accepted(), trace.len() as u64);
    assert_eq!(stats.total_processed(), trace.len() as u64);
    assert_eq!(stats.total_lost(), 0);
    for snap in &stats.shards {
        assert_eq!(snap.dropped_at_shutdown, 0);
        assert_eq!(snap.depth, 0);
        assert_eq!(snap.enqueued, snap.processed);
    }
}

/// Invalid configs never spawn a daemon.
#[test]
fn spawn_rejects_invalid_config() {
    let cfg = DaemonConfig {
        shards: 0,
        ..DaemonConfig::default()
    };
    match Daemon::spawn(cfg, never_deploying(1)) {
        Err(DaemonConfigError::ZeroShards) => {}
        Err(other) => panic!("expected ZeroShards, got {other:?}"),
        Ok(_) => panic!("expected ZeroShards, daemon spawned"),
    }
}

/// The snapshot cadence commits one epoch per `interval` requests served:
/// each commit needs a full interval since the last, and the worker
/// checks after every batch, so over `len` requests it commits between
/// `len / interval - 1` and `len / interval` epochs before the drain.
#[test]
fn snapshot_cadence_commits_an_epoch_per_interval() {
    let dir = std::env::temp_dir().join(format!("cdnd-test-cadence-snaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let interval = 500u64;
    let cfg = DaemonConfig {
        shards: 1,
        queue_capacity: 20_000,
        snap: SnapshotConfig {
            interval,
            keep: 2,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    let trace = small_trace(4_000, 5);
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();
    feed(&daemon, &trace, FAIL_FAST);
    assert!(daemon.await_quiesced(0, QUIESCE));
    let written = daemon.stats().shards[0].snapshots_written;
    let per_interval = trace.len() as u64 / interval;
    assert!(
        (per_interval - 1..=per_interval).contains(&written),
        "{written} epochs over {} requests at interval {interval}",
        trace.len()
    );
    let stats = daemon.shutdown();
    assert_eq!(
        stats.shards[0].snapshots_written,
        written + 1,
        "drain-final epoch"
    );
    assert_eq!(cdnd::snapshot::list_epochs(&dir, 0).len(), 2, "keep = 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Junk files numbered at the top of the epoch range neither take the
/// shard down nor cost it its valid epochs. `u64::MAX` is foreign: the
/// shard restores warm from the valid epoch beside it and numbers its
/// own epochs above that one, so pruning keeps them. `u64::MAX - 1` is a
/// corrupt rung whose only successor is `u64::MAX`: the shard restores
/// from the rung below and commits nothing, where wrapping its numbering
/// to 0 would have pruned the valid epoch.
#[test]
fn top_of_range_epoch_files_are_not_fatal() {
    let dir = std::env::temp_dir().join(format!("cdnd-test-top-epochs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DaemonConfig {
        shards: 1,
        queue_capacity: 20_000,
        snap: SnapshotConfig {
            interval: 1 << 40, // only the drain-final epochs
            keep: 1,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    let trace = small_trace(4_000, 29);
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    let serve = || {
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Lru)).unwrap();
        feed(&daemon, &trace, FAIL_FAST);
        daemon.shutdown().shards[0]
    };
    let newest_valid = || cdnd::snapshot::recover(&dir, 0).data.unwrap().epoch;

    serve();
    for (junk, discarded) in [(u64::MAX, 0), (u64::MAX - 1, 1)] {
        let before = newest_valid();
        let path = cdnd::snapshot::snapshot_path(&dir, 0, junk);
        std::fs::write(path, b"not a snapshot").unwrap();
        let s = serve();
        assert_eq!((s.crashes, s.restarts, s.lost), (0, 0, 0), "junk {junk}");
        assert!(
            s.restored_objects > 0,
            "junk {junk}: the valid epoch must restore"
        );
        assert_eq!(s.epochs_discarded, discarded, "junk {junk}");
        assert_eq!(s.processed, trace.len() as u64, "junk {junk}");
        assert_eq!(
            (s.rejected_down, s.dropped_at_shutdown),
            (0, 0),
            "junk {junk}"
        );
        let after = newest_valid();
        if junk == u64::MAX {
            assert!(
                after > before,
                "newest valid epoch {after} is not newer than {before}"
            );
        } else {
            assert_eq!(
                (after, s.snapshots_written),
                (before, 0),
                "nothing left to number"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm restart across daemon lifetimes: a drained daemon leaves final
/// epochs on disk; a new daemon over the same directory restores the
/// full resident set (objects and bytes) before serving, and reports it
/// through the restored counters.
#[test]
fn respawn_over_snapshot_dir_restores_residency() {
    let dir = std::env::temp_dir().join(format!("cdnd-test-respawn-snaps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DaemonConfig {
        shards: 2,
        total_capacity: 4 << 20,
        queue_capacity: 20_000,
        snap: SnapshotConfig {
            interval: 1 << 40, // only the drain-final epochs
            keep: 1,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    let trace = small_trace(20_000, 17);
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
    feed(&daemon, &trace, FAIL_FAST);
    let first = daemon.shutdown();
    for (shard, s) in first.shards.iter().enumerate() {
        assert!(s.snapshots_written >= 1, "shard {shard} wrote no epoch");
        assert_eq!(s.restored_objects, 0, "first run must start cold");
    }

    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Scip)).unwrap();
    // Restore runs in worker startup; quiesce-with-nothing-queued means
    // waiting for the restored counters is a bounded poll.
    let t0 = std::time::Instant::now();
    while daemon
        .stats()
        .shards
        .iter()
        .any(|s| s.restored_objects == 0)
    {
        assert!(t0.elapsed() < QUIESCE, "warm restore never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = daemon.shutdown();
    for (shard, (a, b)) in first.shards.iter().zip(&second.shards).enumerate() {
        assert_eq!(
            b.restored_objects, a.resident_objects as u64,
            "shard {shard} restored a different object count than it left"
        );
        assert_eq!(
            b.restored_bytes, a.resident_bytes,
            "shard {shard} restored different bytes than it left"
        );
        assert_eq!(b.epochs_discarded, 0, "clean epochs were discarded");
        assert_eq!(
            b.resident_objects, a.resident_objects,
            "shard {shard} residency after warm restore"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A policy without the resident-export seam (GDSF) has nothing to
/// snapshot. With snapshotting on it commits no epoch, and a respawn over
/// the same directory restarts **cold** and serves: the missing seam is
/// never a crashed or backed-off shard, and never a fabricated restore.
#[test]
fn respawn_without_export_seam_restarts_cold_not_failed() {
    let dir = std::env::temp_dir().join(format!("cdnd-test-cold-respawn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DaemonConfig {
        shards: 2,
        total_capacity: 4 << 20,
        queue_capacity: 20_000,
        snap: SnapshotConfig {
            interval: 1 << 40, // only the drain-final epochs
            keep: 1,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    let trace = small_trace(20_000, 19);
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    let run = || {
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Gdsf)).unwrap();
        feed(&daemon, &trace, FAIL_FAST);
        daemon.shutdown()
    };

    let first = run();
    let second = run();
    let served: u64 = second.shards.iter().map(|s| s.processed).sum();
    assert_eq!(served, trace.len() as u64, "respawned daemon must serve");
    for (shard, (a, b)) in first.shards.iter().zip(&second.shards).enumerate() {
        assert_eq!(
            a.snapshots_written, 0,
            "shard {shard}: GDSF exports nothing"
        );
        assert_eq!(
            (b.restored_objects, b.restored_bytes, b.epochs_discarded),
            (0, 0, 0),
            "shard {shard} must restart cold"
        );
        assert_eq!(
            (b.crashes, b.restarts, b.lost, b.rejected_down),
            (0, 0, 0, 0),
            "shard {shard}: a cold restart is not a failure"
        );
        // Cold means cold: the same trace yields the first run's ledger.
        assert_eq!(
            (b.hits, b.misses, b.hit_bytes, b.miss_bytes),
            (a.hits, a.misses, a.hit_bytes, a.miss_bytes),
            "shard {shard} ledger after cold restart"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With every shard up, enabling failover routing is invisible: ledgers
/// are bit-identical to the routing-off daemon (and to the serial
/// reference), nothing is failover-served, and the only observable
/// difference is the config flag itself.
#[test]
fn calm_routing_is_bit_identical_to_routing_off() {
    let trace = small_trace(20_000, 23);
    let total_capacity = 4 << 20;
    let base = DaemonConfig {
        shards: 4,
        total_capacity,
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(&trace, base.shards, base.seed);

    let run = |route_on: bool| {
        let mut cfg = base.clone();
        cfg.route = RouteConfig { failover: route_on };
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
        let report = feed(&daemon, &trace, FAIL_FAST);
        quiesce_all(&daemon);
        assert_eq!(report.failover_accepted, 0);
        assert_eq!(report.outage_windows, 0);
        daemon.shutdown()
    };
    let off = run(false);
    let on = run(true);

    assert_eq!(on.total_failover(), 0);
    let reference = plan.reference(PolicyKind::Scip, total_capacity);
    for shard in 0..base.shards {
        let (a, b) = (&off.shards[shard], &on.shards[shard]);
        assert_eq!(a.hits, b.hits, "shard {shard} hits");
        assert_eq!(a.misses, b.misses, "shard {shard} misses");
        assert_eq!(a.hit_bytes, b.hit_bytes, "shard {shard} hit bytes");
        assert_eq!(a.miss_bytes, b.miss_bytes, "shard {shard} miss bytes");
        assert_eq!(a.processed, b.processed, "shard {shard} processed");
        assert_eq!(b.failover_in, 0, "shard {shard} failover");
        if let Some(diff) = ledger_diff(shard, b, &reference.per_shard[shard]) {
            panic!("routing-on vs serial: {diff}");
        }
    }
}

/// Brownout sheds lowest class first with exact, per-cause counts: at a
/// paused shard with queue capacity Q, Low admits to 50 % of Q, Normal
/// to 75 %, High to Q; a per-request deadline tighter than the class
/// watermark refuses as `Deadline`, not `Shed`. Every refusal lands on
/// exactly one counter and the drill reconciles after drain.
#[test]
fn brownout_sheds_by_class_with_exact_counts() {
    use cdnd::{Admit, Priority};
    let q = 64usize;
    let cfg = DaemonConfig {
        shards: 1,
        queue_capacity: q,
        worker_batch: 8,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn(cfg, never_deploying(7)).unwrap();
    daemon.pause_shard(0);

    let mut id = 0u64;
    let mut drill = |class: Priority, n: usize, deadline: Option<usize>| {
        let (mut ok, mut shed, mut dead) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            let req = Request {
                tick: 0,
                id: ObjectId(id),
                size: 1_000,
                wall_secs: 0.0,
            };
            id += 1;
            match daemon.submit_classed(
                req,
                Admit {
                    class,
                    deadline_depth: deadline,
                },
                None,
            ) {
                Ok(acc) => {
                    assert!(!acc.failover);
                    ok += 1;
                }
                Err((_, cdnd::SubmitError::Shed)) => shed += 1,
                Err((_, cdnd::SubmitError::Deadline)) => dead += 1,
                Err((_, e)) => panic!("unexpected submit error: {e:?}"),
            }
        }
        (ok, shed, dead)
    };

    // Low admits to its 50 % watermark (32), then sheds.
    assert_eq!(
        drill(Priority::Low, q, None),
        (q as u64 / 2, q as u64 / 2, 0)
    );
    // Normal admits from depth 32 to its 75 % watermark (48).
    assert_eq!(
        drill(Priority::Normal, q, None),
        (q as u64 / 4, 3 * q as u64 / 4, 0)
    );
    // A deadline tighter than the current depth refuses as Deadline
    // (depth 48 is below High's watermark, so this is not a shed).
    assert_eq!(drill(Priority::High, 1, Some(40)), (0, 0, 1));
    // A deadline looser than the depth admits.
    assert_eq!(drill(Priority::High, 1, Some(q)), (1, 0, 0));
    // High fills the remaining capacity, then sheds at the full ring.
    assert_eq!(
        drill(Priority::High, q, None),
        (q as u64 / 4 - 1, 3 * q as u64 / 4 + 1, 0)
    );

    let mid = daemon.stats();
    assert_eq!(mid.shards[0].depth, q);
    assert_eq!(mid.shards[0].peak_depth, q);
    assert_eq!(mid.shards[0].enqueued, q as u64);
    assert_eq!(mid.shards[0].shed_low, q as u64 / 2);
    assert_eq!(mid.shards[0].shed_normal, 3 * q as u64 / 4);
    assert_eq!(mid.shards[0].shed_high, 3 * q as u64 / 4 + 1);
    assert_eq!(mid.shards[0].rejected_deadline, 1);
    assert_eq!(
        mid.shards[0].shed,
        mid.shards[0].shed_low + mid.shards[0].shed_normal + mid.shards[0].shed_high
    );

    // Recovery: everything admitted is served, nothing new is refused.
    daemon.resume_shard(0);
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    assert_eq!(stats.shards[0].processed, q as u64);
    assert_eq!(stats.shards[0].dropped_at_shutdown, 0);
}

/// An LRU whose resident-export seam panics while `armed` (a bug in a
/// policy's snapshot path, not in its request path).
struct ExportPanics {
    inner: Box<dyn CachePolicy>,
    armed: Arc<AtomicBool>,
}

impl CachePolicy for ExportPanics {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.inner.on_request(req)
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
    fn for_each_resident(&self, visit: &mut dyn FnMut(&ResidentEntry)) -> bool {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("export seam bug");
        }
        self.inner.for_each_resident(visit)
    }
}

/// A panic outside `on_request` — here in the snapshot export — is a
/// counted crash with a normal backoff and restart, and loses nothing: no
/// request was in flight. (Uncaught, it would kill the worker thread
/// unreported: the shard would stay `Closed`, its ring fill, and every
/// later submit be shed until shutdown.)
#[test]
fn panic_outside_a_request_is_a_counted_crash_that_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("cdnd-test-export-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: 1 << 20,
        // The shard stays in Backoff until the explicit reset below, so
        // the state and the counters can be read while it is down.
        restart: cdnd::STAY_DOWN,
        snap: SnapshotConfig {
            interval: 1 << 40, // only forced epochs
            keep: 2,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    let armed = Arc::new(AtomicBool::new(true));
    let factory = {
        let armed = Arc::clone(&armed);
        let ctx = cdn_sim::TraceCtx::without_oracle(0, cfg.seed);
        Arc::new(
            move |_shard: usize, capacity: u64| -> Box<dyn CachePolicy> {
                Box::new(ExportPanics {
                    inner: PolicyKind::Lru.build(capacity, &ctx),
                    armed: Arc::clone(&armed),
                })
            },
        )
    };
    let daemon = Daemon::spawn(cfg, factory).unwrap();
    for id in 0..5u64 {
        daemon.submit(Request::new(0, id, 100)).unwrap();
    }
    assert!(daemon.await_quiesced(0, QUIESCE));

    daemon.snapshot_shard(0); // the export panics, once
    assert!(
        daemon.await_shard_state(0, ShardState::Backoff, QUIESCE),
        "a worker that panicked outside a request must report itself down"
    );
    let down = daemon.stats().shards[0];
    assert_eq!((down.crashes, down.restarts, down.lost), (1, 0, 0));
    assert_eq!(down.processed, 5);

    daemon.reset_shard(0);
    assert!(daemon.await_shard_state(0, ShardState::Closed, QUIESCE));
    for id in 5..8u64 {
        daemon.submit(Request::new(0, id, 100)).unwrap();
    }
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    let s = &stats.shards[0];
    assert_eq!((s.crashes, s.restarts, s.lost), (1, 1, 0));
    assert_eq!(s.processed, 8, "later requests are served");
    assert_eq!(s.snapshots_written, 1, "the drain-final epoch commits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A policy that counts the prefetch hints it receives.
struct HintCounting {
    inner: Box<dyn CachePolicy>,
    hints: Arc<AtomicU64>,
}

impl CachePolicy for HintCounting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.inner.on_request(req)
    }
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }
    fn prefetch_hint(&self, id: ObjectId) {
        self.hints.fetch_add(1, Ordering::Relaxed);
        self.inner.prefetch_hint(id);
    }
}

/// The shard worker pipelines its index probes as the library's replay
/// loop does: every popped request is hinted exactly once, over batches
/// of every length the feed produces (full, partial, shorter than the
/// lookahead), and the hints change no outcome — the ledger is the
/// serial reference's, u64 for u64.
#[test]
fn worker_hints_every_served_request_once() {
    let trace = small_trace(20_000, 23);
    let total_capacity = 2 << 20;
    for worker_batch in [64, 5] {
        let cfg = DaemonConfig {
            shards: 2,
            total_capacity,
            worker_batch,
            ..DaemonConfig::default()
        };
        let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
        let hints: Arc<Vec<Arc<AtomicU64>>> =
            Arc::new((0..cfg.shards).map(|_| Arc::default()).collect());
        let factory = {
            let hints = Arc::clone(&hints);
            let ctxs = plan.ctxs.clone();
            Arc::new(move |shard: usize, capacity: u64| -> Box<dyn CachePolicy> {
                Box::new(HintCounting {
                    inner: PolicyKind::Lru.build(capacity, &ctxs[shard]),
                    hints: Arc::clone(&hints[shard]),
                })
            })
        };
        let daemon = Daemon::spawn(cfg.clone(), factory).unwrap();
        feed(&daemon, &trace, FAIL_FAST);
        quiesce_all(&daemon);
        let stats = daemon.shutdown();
        let reference = plan.reference(PolicyKind::Lru, total_capacity);
        for (shard, snap) in stats.shards.iter().enumerate() {
            assert_eq!(
                hints[shard].load(Ordering::Relaxed),
                snap.processed,
                "batch {worker_batch}, shard {shard}: hints != requests served"
            );
            assert_eq!(snap.processed, plan.shard_len(shard) as u64);
            if let Some(diff) = ledger_diff(shard, snap, &reference.per_shard[shard]) {
                panic!("batch {worker_batch}: {diff}");
            }
        }
    }
}
