//! Daemon chaos harness: replay a `cdn-trace` workload through a 4-shard
//! `cdnd` daemon under a calm schedule and (with `--features
//! fault-injection`) a deterministic kill schedule, then gate on
//! availability and ledger exactness.
//!
//! The kill schedule is deterministic by construction, not by timing
//! luck: the restart backoff is set far beyond the run length, so a
//! killed shard stays down for an exactly-known slice of the trace and
//! is revived with an explicit operator `reset_shard` — the outage
//! windows contain the same requests on every run with the same
//! trace/seed. The min-share shard is killed (twice) so the availability
//! floor has maximum headroom.
//!
//! Gates (nonzero exit on violation):
//! - calm: 100 % availability, zero outage windows, all-shard ledgers
//!   bit-identical to `run_sharded_serial`, client/daemon counters match.
//! - calm-snap: same trace with periodic snapshot epochs enabled — every
//!   ledger must still be bit-identical to the serial reference, proving
//!   the read-only export seam never perturbs policy state (snapshots-on
//!   equals snapshots-off, u64 for u64).
//! - kill: both injected kills fired, surviving-shard ledgers
//!   bit-identical to the serial reference, availability 100 % outside
//!   the outage windows and ≥ 75 % inside them.
//! - warm-kill: snapshot forced immediately before the kill; the revived
//!   shard must restore ≥ 90 % of its pre-crash resident bytes from the
//!   epoch file while the survivors stay bit-identical to the reference.
//! - corrupt: three restore rungs — torn-tail epoch (via the
//!   `cdnd.snap_write` failpoint), a bit-flipped committed epoch, and a
//!   missing-epoch directory — each must degrade to an older epoch or a
//!   cold start with zero panics beyond the intentional kills.
//! - calm-routed: the calm trace with failover routing *enabled*: every
//!   ledger must stay bit-identical to the serial reference with zero
//!   failover traffic — routing-on equals routing-off when nothing is
//!   down.
//! - flash-kill: a flash-crowd trace (drift event over the middle half)
//!   with failover routing enabled and both kills landing *inside* the
//!   crowd window. Availability inside the outage windows must be 100 %
//!   of admitted requests (victim keys answered as overlay misses on
//!   their rendezvous secondary, zero `Down` rejections), every shard —
//!   survivors *and* overlay receivers — must be u64-exact against the
//!   routing-aware serial reference (`run_routed_serial`), and every
//!   request must reconcile to exactly one client/daemon counter cause.
//!
//! Knobs: `CDND_CHAOS_REQUESTS` (default `REPRO_REQUESTS` or 200k),
//! `CDND_CHAOS_SEED` (default `REPRO_SEED`). Results land in
//! `results/cdnd_chaos.{md,json,tsv}` (schema `cdnd_chaos_v3`).

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use cdn_sim::PolicyKind;
use cdn_trace::{TraceGenerator, TraceStats, Workload};
use cdnd::{
    feed, ledger_diff, AdmitConfig, Daemon, DaemonConfig, FeedMode, RestartConfig, RouteConfig,
    ShardPlan, SnapshotConfig,
};

const SHARDS: usize = 4;
const POLICY: PolicyKind = PolicyKind::Scip;

fn env_u64(key: &str, fallback: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

fn calm_mode() -> FeedMode {
    FeedMode::FailFast {
        push_timeout: Duration::from_secs(30),
    }
}

/// One schedule's outcome row.
struct Row {
    schedule: &'static str,
    availability: f64,
    inside_availability: f64,
    outside_availability: f64,
    outage_windows: u64,
    kills: u64,
    restarts: u64,
    lost: u64,
    failover: u64,
    exact_shards: usize,
    compared_shards: usize,
    snapshots: u64,
    restored_objects: u64,
    restored_bytes: u64,
    epochs_discarded: u64,
}

/// A scratch snapshot directory under the OS temp dir, wiped on entry.
fn fresh_snap_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdnd-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Block until the shard has committed more than `before` snapshot epochs.
#[cfg(feature = "fault-injection")]
fn force_snapshot(daemon: &Daemon, shard: usize) {
    use std::time::Instant;
    let before = daemon.stats().shards[shard].snapshots_written;
    daemon.snapshot_shard(shard);
    let deadline = Instant::now() + Duration::from_secs(30);
    while daemon.stats().shards[shard].snapshots_written == before {
        assert!(
            Instant::now() < deadline,
            "shard {shard} never committed the forced snapshot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.failures.push(what);
        }
    }
}

#[cfg(feature = "fault-injection")]
fn merge_reports(reports: &[cdnd::FeedReport]) -> cdnd::FeedReport {
    let mut merged = reports[0].clone();
    for r in &reports[1..] {
        for (a, b) in merged.per_shard.iter_mut().zip(&r.per_shard) {
            a.submitted += b.submitted;
            a.accepted += b.accepted;
            a.failover_accepted += b.failover_accepted;
            a.shed += b.shed;
            a.rejected_down += b.rejected_down;
            a.deadline += b.deadline;
            a.faulted += b.faulted;
            a.shutting_down += b.shutting_down;
        }
        merged.inside_total += r.inside_total;
        merged.inside_accepted += r.inside_accepted;
        merged.outside_total += r.outside_total;
        merged.outside_accepted += r.outside_accepted;
        merged.outage_windows += r.outage_windows;
        merged.failover_accepted += r.failover_accepted;
    }
    merged
}

/// Calm schedule: the whole trace through a healthy daemon. Everything
/// must be accepted and every shard ledger must equal the reference.
fn run_calm(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn calm daemon");
    let report = feed(&daemon, trace, calm_mode());
    for shard in 0..SHARDS {
        assert!(
            daemon.await_quiesced(shard, Duration::from_secs(120)),
            "calm: shard {shard} never quiesced"
        );
    }
    let stats = daemon.shutdown();
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("calm: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
        match ledger_diff(shard, snap, m) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("calm: {diff}")),
        }
    }
    gate.check(
        report.overall_availability() == 1.0,
        format!(
            "calm: availability {:.4} < 1.0",
            report.overall_availability()
        ),
    );
    gate.check(
        report.outage_windows == 0,
        format!("calm: {} outage windows, expected 0", report.outage_windows),
    );
    Row {
        schedule: "calm",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills: 0,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS,
        snapshots: 0,
        restored_objects: 0,
        restored_bytes: 0,
        epochs_discarded: 0,
    }
}

/// Calm schedule with failover routing *enabled*: routing is consulted
/// on every submit, but with every shard healthy it must be a pure
/// pass-through — zero failover traffic, zero outage windows, and every
/// shard ledger bit-identical to the serial reference. This is the
/// chaos-scale proof of the calm-path bit-identity invariant.
fn run_calm_routed(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    let mut cfg = cfg.clone();
    cfg.route = RouteConfig { failover: true };
    let daemon =
        Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn calm-routed daemon");
    let report = feed(&daemon, trace, calm_mode());
    for shard in 0..SHARDS {
        assert!(
            daemon.await_quiesced(shard, Duration::from_secs(120)),
            "calm-routed: shard {shard} never quiesced"
        );
    }
    let stats = daemon.shutdown();
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("calm-routed: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
        match ledger_diff(shard, snap, m) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("calm-routed: {diff}")),
        }
    }
    gate.check(
        stats.total_failover() == 0,
        format!(
            "calm-routed: {} failover arrivals on a healthy daemon, expected 0",
            stats.total_failover()
        ),
    );
    gate.check(
        report.overall_availability() == 1.0,
        format!(
            "calm-routed: availability {:.4} < 1.0",
            report.overall_availability()
        ),
    );
    gate.check(
        report.outage_windows == 0,
        format!(
            "calm-routed: {} outage windows, expected 0",
            report.outage_windows
        ),
    );
    Row {
        schedule: "calm-rtd",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills: 0,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS,
        snapshots: 0,
        restored_objects: 0,
        restored_bytes: 0,
        epochs_discarded: 0,
    }
}

/// Calm schedule with periodic snapshot epochs enabled: the export seam
/// is read-only, so every shard ledger must still be bit-identical to
/// the serial reference — snapshots-on equals snapshots-off, u64 for
/// u64. Also gates that every shard actually committed epochs.
fn run_calm_snap(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    let dir = fresh_snap_dir("calm");
    let mut cfg = cfg.clone();
    cfg.snap = SnapshotConfig {
        interval: 2_048,
        keep: 2,
        dir: Some(dir.clone()),
    };
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn calm-snap daemon");
    let report = feed(&daemon, trace, calm_mode());
    for shard in 0..SHARDS {
        assert!(
            daemon.await_quiesced(shard, Duration::from_secs(120)),
            "calm-snap: shard {shard} never quiesced"
        );
    }
    let stats = daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("calm-snap: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
        match ledger_diff(shard, snap, m) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("calm-snap: {diff}")),
        }
    }
    let snapshots: u64 = stats.shards.iter().map(|s| s.snapshots_written).sum();
    for (shard, s) in stats.shards.iter().enumerate() {
        gate.check(
            s.snapshots_written > 0,
            format!("calm-snap: shard {shard} committed no snapshot epochs"),
        );
    }
    gate.check(
        report.overall_availability() == 1.0,
        format!(
            "calm-snap: availability {:.4} < 1.0",
            report.overall_availability()
        ),
    );
    Row {
        schedule: "calm-snap",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills: 0,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS,
        snapshots,
        restored_objects: 0,
        restored_bytes: 0,
        epochs_discarded: 0,
    }
}

/// Kill schedule: two deterministic outages of the min-share shard.
#[cfg(feature = "fault-injection")]
fn run_kill(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    use cdnd::{worker_fault_key, ShardState, FP_SHARD_WORKER};

    // Backoff far beyond the run: a killed shard stays down until the
    // explicit reset below, so each outage covers an exact trace slice.
    let mut cfg = cfg.clone();
    cfg.restart = RestartConfig {
        backoff_base_ms: 600_000,
        backoff_max_ms: 600_000,
        storm_threshold: 100,
        storm_window_ms: 600_000,
    };
    let n = trace.len();
    // Slices: calm warmup | outage 1 | recovery | outage 2 | calm tail.
    let cuts = [n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5];
    // Kill the shard with the smallest request share *within the outage
    // slices* — that share is exactly the availability loss while it is
    // down, so the ≥75 % floor gets its maximum (and deterministic)
    // headroom.
    let victim = (0..SHARDS)
        .min_by_key(|&shard| {
            trace[cuts[0]..cuts[1]]
                .iter()
                .chain(&trace[cuts[2]..cuts[3]])
                .filter(|r| cdn_cache::key_shard(r.id.0, SHARDS) == shard)
                .count()
        })
        .unwrap();

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn kill daemon");
    let quiesce_all = |daemon: &Daemon| {
        for shard in 0..SHARDS {
            if shard != victim {
                assert!(
                    daemon.await_quiesced(shard, Duration::from_secs(120)),
                    "kill: shard {shard} never quiesced"
                );
            }
        }
    };
    let arm_next_victim_tick = |daemon: &Daemon| {
        let s = &daemon.stats().shards[victim];
        fault::arm(
            FP_SHARD_WORKER,
            FaultRule::OnKeys(
                vec![worker_fault_key(victim, s.processed + s.lost)],
                FaultAction::Panic("cdnd_chaos kill".into()),
            ),
        );
    };

    let mut reports = Vec::new();
    let mut kills = 0u64;
    // Warmup, fully calm.
    reports.push(feed(&daemon, &trace[..cuts[0]], calm_mode()));
    assert!(daemon.await_quiesced(victim, Duration::from_secs(120)));
    quiesce_all(&daemon);

    for (start, end) in [(cuts[0], cuts[1]), (cuts[2], cuts[3])] {
        // Kill the victim on its next request, then feed the outage
        // slice: the crash request is accepted-then-lost, every later
        // victim-bound request in the slice is rejected ShardDown.
        arm_next_victim_tick(&daemon);
        reports.push(feed(&daemon, &trace[start..end], calm_mode()));
        assert!(
            daemon.await_shard_state(victim, ShardState::Backoff, Duration::from_secs(30)),
            "victim should be down at the end of the outage slice"
        );
        // `arm` resets the site's fired counter, so bank this outage's
        // count before the next arm.
        kills += fault::fired(FP_SHARD_WORKER);
        // Operator revival, then a recovery slice that closes the window.
        daemon.reset_shard(victim);
        assert!(
            daemon.await_shard_state(victim, ShardState::Closed, Duration::from_secs(30)),
            "reset did not revive the victim"
        );
        let tail = if end == cuts[1] { cuts[2] } else { n };
        reports.push(feed(&daemon, &trace[end..tail], calm_mode()));
        assert!(daemon.await_quiesced(victim, Duration::from_secs(120)));
        quiesce_all(&daemon);
    }
    let stats = daemon.shutdown();
    fault::clear();

    let report = merge_reports(&reports);
    gate.check(kills == 2, format!("kill: {kills} kills fired, expected 2"));
    gate.check(
        report.outage_windows == 2,
        format!("kill: {} outage windows, expected 2", report.outage_windows),
    );
    gate.check(
        report.outside_availability() == 1.0,
        format!(
            "kill: availability outside outage windows {:.4} < 1.0",
            report.outside_availability()
        ),
    );
    gate.check(
        report.inside_availability() >= 0.75,
        format!(
            "kill: availability inside outage windows {:.4} < 0.75",
            report.inside_availability()
        ),
    );
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("kill: counter reconciliation: {e}"));
    }
    // Survivors must be bit-identical to the serial reference; the victim
    // lost exactly the two panicked requests plus the rejected ones.
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for shard in 0..SHARDS {
        if shard == victim {
            continue;
        }
        match ledger_diff(shard, &stats.shards[shard], &reference.per_shard[shard]) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("kill: surviving {diff}")),
        }
    }
    gate.check(
        stats.shards[victim].lost == 2,
        format!(
            "kill: victim lost {}, expected 2",
            stats.shards[victim].lost
        ),
    );
    Row {
        schedule: "kill-2x",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS - 1,
        snapshots: 0,
        restored_objects: 0,
        restored_bytes: 0,
        epochs_discarded: 0,
    }
}

/// Warm-restart schedule: one deterministic kill of the min-share shard
/// with snapshotting enabled and an epoch forced immediately before the
/// kill. The revived shard must come back with ≥ 90 % of its pre-crash
/// resident bytes restored from the snapshot, while the surviving shards
/// stay bit-identical to the serial reference.
#[cfg(feature = "fault-injection")]
fn run_warm(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    use cdnd::{worker_fault_key, ShardState, FP_SHARD_WORKER};

    let dir = fresh_snap_dir("warm");
    let mut cfg = cfg.clone();
    cfg.restart = RestartConfig {
        backoff_base_ms: 600_000,
        backoff_max_ms: 600_000,
        storm_threshold: 100,
        storm_window_ms: 600_000,
    };
    // Huge interval: only the forced epoch (and the drain-final one)
    // exist, so the restore provenance is unambiguous.
    cfg.snap = SnapshotConfig {
        interval: 1 << 40,
        keep: 3,
        dir: Some(dir.clone()),
    };
    let n = trace.len();
    // Slices: warmup | outage | recovery tail.
    let cuts = [n / 3, 2 * n / 3];
    let victim = (0..SHARDS)
        .min_by_key(|&shard| {
            trace[cuts[0]..cuts[1]]
                .iter()
                .filter(|r| cdn_cache::key_shard(r.id.0, SHARDS) == shard)
                .count()
        })
        .unwrap();

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn warm daemon");
    let mut reports = Vec::new();
    reports.push(feed(&daemon, &trace[..cuts[0]], calm_mode()));
    for shard in 0..SHARDS {
        assert!(
            daemon.await_quiesced(shard, Duration::from_secs(120)),
            "warm: shard {shard} never quiesced"
        );
    }
    // Snapshot the quiesced victim, then kill it on its next request:
    // the epoch on disk is exactly the pre-crash resident set (the crash
    // request itself is lost, never applied).
    force_snapshot(&daemon, victim);
    let pre = daemon.stats().shards[victim];
    fault::arm(
        FP_SHARD_WORKER,
        FaultRule::OnKeys(
            vec![worker_fault_key(victim, pre.processed + pre.lost)],
            FaultAction::Panic("cdnd_chaos warm kill".into()),
        ),
    );
    reports.push(feed(&daemon, &trace[cuts[0]..cuts[1]], calm_mode()));
    assert!(
        daemon.await_shard_state(victim, ShardState::Backoff, Duration::from_secs(30)),
        "warm: victim should be down at the end of the outage slice"
    );
    let kills = fault::fired(FP_SHARD_WORKER);
    daemon.reset_shard(victim);
    assert!(
        daemon.await_shard_state(victim, ShardState::Closed, Duration::from_secs(30)),
        "warm: reset did not revive the victim"
    );
    let post = daemon.stats().shards[victim];
    reports.push(feed(&daemon, &trace[cuts[1]..], calm_mode()));
    for shard in 0..SHARDS {
        if shard != victim {
            assert!(
                daemon.await_quiesced(shard, Duration::from_secs(120)),
                "warm: shard {shard} never quiesced"
            );
        }
    }
    assert!(daemon.await_quiesced(victim, Duration::from_secs(120)));
    let stats = daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
    fault::clear();

    let report = merge_reports(&reports);
    gate.check(kills == 1, format!("warm: {kills} kills fired, expected 1"));
    gate.check(
        post.epochs_discarded == 0,
        format!(
            "warm: {} epochs discarded on a clean restore, expected 0",
            post.epochs_discarded
        ),
    );
    gate.check(
        post.restored_objects > 0,
        "warm: revived shard restored no objects".to_string(),
    );
    let floor = (pre.resident_bytes as f64 * 0.9).ceil() as u64;
    gate.check(
        post.restored_bytes >= floor,
        format!(
            "warm: restored {} of {} pre-crash resident bytes (< 90 % floor {})",
            post.restored_bytes, pre.resident_bytes, floor
        ),
    );
    gate.check(
        report.outside_availability() == 1.0,
        format!(
            "warm: availability outside the outage window {:.4} < 1.0",
            report.outside_availability()
        ),
    );
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("warm: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for shard in 0..SHARDS {
        if shard == victim {
            continue;
        }
        match ledger_diff(shard, &stats.shards[shard], &reference.per_shard[shard]) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("warm: surviving {diff}")),
        }
    }
    Row {
        schedule: "warm-kill",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS - 1,
        snapshots: stats.shards.iter().map(|s| s.snapshots_written).sum(),
        restored_objects: stats.shards[victim].restored_objects,
        restored_bytes: stats.shards[victim].restored_bytes,
        epochs_discarded: stats.shards[victim].epochs_discarded,
    }
}

/// Corruption-ladder schedule: three kill/restore rungs against a
/// damaged snapshot directory. Rung 1 tears the newest epoch's tail via
/// the `cdnd.snap_write` failpoint, rung 2 bit-flips a committed epoch
/// on disk, rung 3 deletes every epoch. Each rung must degrade to an
/// older epoch (or cold) with zero panics beyond the intentional kills.
#[cfg(feature = "fault-injection")]
fn run_corrupt(
    trace: &[cdn_cache::Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Row {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    use cdnd::snapshot::{list_epochs, snapshot_path};
    use cdnd::{snap_fault_key, worker_fault_key, ShardState, FP_SHARD_WORKER, FP_SNAP_WRITE};

    let dir = fresh_snap_dir("corrupt");
    let mut cfg = cfg.clone();
    cfg.restart = RestartConfig {
        backoff_base_ms: 600_000,
        backoff_max_ms: 600_000,
        storm_threshold: 100,
        storm_window_ms: 600_000,
    };
    cfg.snap = SnapshotConfig {
        interval: 1 << 40,
        keep: 4,
        dir: Some(dir.clone()),
    };
    let n = trace.len();
    // Slices: warmup | (outage | recovery) × 3 | tail.
    let cut = |i: usize| i * n / 8;
    let outages = [(cut(1), cut(2)), (cut(3), cut(4)), (cut(5), cut(6))];
    let victim = (0..SHARDS)
        .min_by_key(|&shard| {
            outages
                .iter()
                .flat_map(|&(a, b)| &trace[a..b])
                .filter(|r| cdn_cache::key_shard(r.id.0, SHARDS) == shard)
                .count()
        })
        .unwrap();

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn corrupt daemon");
    let quiesce_all = |daemon: &Daemon| {
        for shard in 0..SHARDS {
            if shard != victim {
                assert!(
                    daemon.await_quiesced(shard, Duration::from_secs(120)),
                    "corrupt: shard {shard} never quiesced"
                );
            }
        }
    };
    let mut reports = Vec::new();
    let mut kills = 0u64;
    reports.push(feed(&daemon, &trace[..cut(1)], calm_mode()));
    assert!(daemon.await_quiesced(victim, Duration::from_secs(120)));
    quiesce_all(&daemon);
    // Epoch 1: a good snapshot every later rung can fall back to.
    force_snapshot(&daemon, victim);

    // Per-rung damage, applied right before the rung's kill. Expected
    // ladder: rung 0 discards the torn newest epoch, rung 1 discards the
    // flipped epoch plus the still-torn one beneath it, rung 2 finds
    // nothing and starts cold.
    let damage: [&dyn Fn(&Daemon); 3] = [
        &|daemon: &Daemon| {
            // Tear the tail of the next committed epoch via the write
            // failpoint, then force that epoch.
            let next = list_epochs(&dir, victim as u32).last().unwrap() + 1;
            fault::arm(
                FP_SNAP_WRITE,
                FaultRule::OnKeys(
                    vec![snap_fault_key(victim as u32, next)],
                    FaultAction::ShortRead(64),
                ),
            );
            force_snapshot(daemon, victim);
        },
        &|daemon: &Daemon| {
            // Commit a good epoch, then flip one byte of it on disk.
            force_snapshot(daemon, victim);
            let newest = *list_epochs(&dir, victim as u32).last().unwrap();
            let path = snapshot_path(&dir, victim as u32, newest);
            let mut bytes = fs::read(&path).expect("read committed epoch");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            fs::write(&path, bytes).expect("write flipped epoch");
        },
        &|_daemon: &Daemon| {
            // Delete every epoch: the ladder bottoms out cold.
            for epoch in list_epochs(&dir, victim as u32) {
                let _ = fs::remove_file(snapshot_path(&dir, victim as u32, epoch));
            }
        },
    ];
    let expect_discarded: [u64; 3] = [1, 2, 0];
    let expect_warm: [bool; 3] = [true, true, false];

    for (rung, &(start, end)) in outages.iter().enumerate() {
        damage[rung](&daemon);
        let before = daemon.stats().shards[victim];
        fault::arm(
            FP_SHARD_WORKER,
            FaultRule::OnKeys(
                vec![worker_fault_key(victim, before.processed + before.lost)],
                FaultAction::Panic("cdnd_chaos corrupt kill".into()),
            ),
        );
        reports.push(feed(&daemon, &trace[start..end], calm_mode()));
        assert!(
            daemon.await_shard_state(victim, ShardState::Backoff, Duration::from_secs(30)),
            "corrupt rung {rung}: victim should be down"
        );
        kills += fault::fired(FP_SHARD_WORKER);
        daemon.reset_shard(victim);
        assert!(
            daemon.await_shard_state(victim, ShardState::Closed, Duration::from_secs(30)),
            "corrupt rung {rung}: reset did not revive the victim"
        );
        let after = daemon.stats().shards[victim];
        let discarded = after.epochs_discarded - before.epochs_discarded;
        gate.check(
            discarded == expect_discarded[rung],
            format!(
                "corrupt rung {rung}: {} epochs discarded, expected {}",
                discarded, expect_discarded[rung]
            ),
        );
        let warm = after.restored_objects > before.restored_objects;
        gate.check(
            warm == expect_warm[rung],
            format!(
                "corrupt rung {rung}: restore was {}, expected {}",
                if warm { "warm" } else { "cold" },
                if expect_warm[rung] { "warm" } else { "cold" }
            ),
        );
        let tail = if rung + 1 < outages.len() {
            outages[rung + 1].0
        } else {
            n
        };
        reports.push(feed(&daemon, &trace[end..tail], calm_mode()));
        assert!(daemon.await_quiesced(victim, Duration::from_secs(120)));
        quiesce_all(&daemon);
    }
    let stats = daemon.shutdown();
    let _ = fs::remove_dir_all(&dir);
    fault::clear();

    let report = merge_reports(&reports);
    gate.check(kills == 3, format!("corrupt: {kills} kills, expected 3"));
    // Zero panics beyond the intentional kills: every restart is
    // accounted for by a kill, and the victim lost exactly the three
    // crash requests.
    gate.check(
        stats.total_restarts() == kills,
        format!(
            "corrupt: {} restarts for {} kills — a restore panicked",
            stats.total_restarts(),
            kills
        ),
    );
    gate.check(
        stats.shards[victim].lost == 3,
        format!(
            "corrupt: victim lost {}, expected 3",
            stats.shards[victim].lost
        ),
    );
    gate.check(
        report.outside_availability() == 1.0,
        format!(
            "corrupt: availability outside outage windows {:.4} < 1.0",
            report.outside_availability()
        ),
    );
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("corrupt: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let mut exact = 0usize;
    for shard in 0..SHARDS {
        if shard == victim {
            continue;
        }
        match ledger_diff(shard, &stats.shards[shard], &reference.per_shard[shard]) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("corrupt: surviving {diff}")),
        }
    }
    Row {
        schedule: "corrupt",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS - 1,
        snapshots: stats.shards.iter().map(|s| s.snapshots_written).sum(),
        restored_objects: stats.shards[victim].restored_objects,
        restored_bytes: stats.shards[victim].restored_bytes,
        epochs_discarded: stats.shards[victim].epochs_discarded,
    }
}

/// Flash-crowd kill schedule: a drift trace whose middle half is a flash
/// crowd, failover routing enabled, and two deterministic kills of the
/// min-share shard landing *inside* the crowd window. While the victim
/// is down its keys are answered as overlay misses on their rendezvous
/// secondary — availability inside the outage windows must be 100 % of
/// admitted requests with zero `Down` rejections — and *all* shard
/// ledgers (survivors plus overlay receivers) must be u64-exact against
/// the routing-aware serial reference.
#[cfg(feature = "fault-injection")]
fn run_flash_kill(requests: u64, seed: u64, cfg: &DaemonConfig, gate: &mut Gate) -> Row {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    use cdn_cache::key_shard;
    use cdn_sim::{run_routed_serial, OutageWindow};
    use cdn_trace::flash_crowd_window;
    use cdnd::{routed_ledger_diff, worker_fault_key, ShardState, FP_SHARD_WORKER};

    eprintln!("generating {requests} flash-crowd requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config_with_events(
        requests,
        seed,
        vec![flash_crowd_window(requests)],
    ));
    let stats = TraceStats::compute(&trace);
    let mut cfg = cfg.clone();
    cfg.total_capacity = stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0));
    cfg.route = RouteConfig { failover: true };
    cfg.restart = RestartConfig {
        backoff_base_ms: 600_000,
        backoff_max_ms: 600_000,
        storm_threshold: 100,
        storm_window_ms: 600_000,
    };
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    // The flash crowd covers [n/4, 3n/4); both outage slices sit strictly
    // inside it, so every window is fully exposed to the crowd skew.
    let n = trace.len();
    let outages = [(3 * n / 8, 4 * n / 8), (5 * n / 8, 6 * n / 8)];
    let victim = (0..SHARDS)
        .min_by_key(|&shard| {
            outages
                .iter()
                .flat_map(|&(a, b)| &trace[a..b])
                .filter(|r| key_shard(r.id.0, SHARDS) == shard)
                .count()
        })
        .unwrap();

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn flash daemon");
    let quiesce_all = |daemon: &Daemon| {
        for shard in 0..SHARDS {
            assert!(
                daemon.await_quiesced(shard, Duration::from_secs(120)),
                "flash-kill: shard {shard} never quiesced"
            );
        }
    };

    let mut reports = Vec::new();
    let mut kills = 0u64;
    let mut windows = Vec::new();
    let mut pos = 0usize;
    for (round, &(start, end)) in outages.iter().enumerate() {
        // The crash request is the first victim-primary request in the
        // outage slice; everything before it is fed calm.
        let ci = (start..end)
            .find(|&i| key_shard(trace[i].id.0, SHARDS) == victim)
            .expect("no victim-primary request in the outage slice");
        reports.push(feed(&daemon, &trace[pos..ci], calm_mode()));
        // Quiesce everyone so the victim's local tick is deterministic
        // when the crash request arrives.
        quiesce_all(&daemon);
        let s = daemon.stats().shards[victim];
        fault::arm(
            FP_SHARD_WORKER,
            FaultRule::OnKeys(
                vec![worker_fault_key(victim, s.processed + s.lost)],
                FaultAction::Panic("cdnd_chaos flash kill".into()),
            ),
        );
        // The crash request alone, then wait for the supervisor to park
        // the victim in backoff: every later victim-primary submit in
        // the slice sees the outage and fails over — no enqueue race.
        reports.push(feed(&daemon, &trace[ci..=ci], calm_mode()));
        assert!(
            daemon.await_shard_state(victim, ShardState::Backoff, Duration::from_secs(30)),
            "flash-kill round {round}: victim never entered backoff"
        );
        kills += fault::fired(FP_SHARD_WORKER);
        reports.push(feed(&daemon, &trace[ci + 1..end], calm_mode()));
        // Operator revival at the slice boundary: the outage window is
        // exactly [ci, end) on every run.
        daemon.reset_shard(victim);
        assert!(
            daemon.await_shard_state(victim, ShardState::Closed, Duration::from_secs(30)),
            "flash-kill round {round}: reset did not revive the victim"
        );
        windows.push(OutageWindow {
            shard: victim,
            crash_index: ci,
            end_index: end,
        });
        pos = end;
    }
    reports.push(feed(&daemon, &trace[pos..], calm_mode()));
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    fault::clear();

    let report = merge_reports(&reports);
    gate.check(
        kills == 2,
        format!("flash-kill: {kills} kills fired, expected 2"),
    );
    gate.check(
        report.outage_windows == 2,
        format!(
            "flash-kill: {} outage windows, expected 2",
            report.outage_windows
        ),
    );
    // The tentpole availability gate: inside the outage windows every
    // admitted request is answered (as a failover miss), none dropped.
    gate.check(
        report.inside_availability() == 1.0,
        format!(
            "flash-kill: availability inside outage windows {:.4} < 1.0",
            report.inside_availability()
        ),
    );
    gate.check(
        report.outside_availability() == 1.0,
        format!(
            "flash-kill: availability outside outage windows {:.4} < 1.0",
            report.outside_availability()
        ),
    );
    let down: u64 = report.per_shard.iter().map(|t| t.rejected_down).sum();
    let shed: u64 = report.per_shard.iter().map(|t| t.shed).sum();
    gate.check(
        down == 0 && shed == 0,
        format!("flash-kill: {down} Down / {shed} Shed rejections, expected 0"),
    );
    gate.check(
        report.failover_accepted > 0,
        "flash-kill: no failover traffic observed".to_string(),
    );
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("flash-kill: counter reconciliation: {e}"));
    }
    // Every ledger — survivors and the overlay work they absorbed — must
    // equal the routing-aware serial reference u64-for-u64.
    let reference = run_routed_serial(
        POLICY,
        cfg.total_capacity,
        &trace,
        SHARDS,
        cfg.seed,
        &windows,
    );
    gate.check(
        reference.unroutable == 0,
        format!(
            "flash-kill: reference found {} unroutable requests",
            reference.unroutable
        ),
    );
    let overlay: u64 = reference.per_shard.iter().map(|l| l.failover_in).sum();
    gate.check(
        report.failover_accepted == overlay,
        format!(
            "flash-kill: client saw {} failover accepts, reference {}",
            report.failover_accepted, overlay
        ),
    );
    let mut exact = 0usize;
    for shard in 0..SHARDS {
        match routed_ledger_diff(shard, &stats.shards[shard], &reference.per_shard[shard]) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("flash-kill: {diff}")),
        }
    }
    gate.check(
        stats.shards[victim].lost == 2,
        format!(
            "flash-kill: victim lost {}, expected 2",
            stats.shards[victim].lost
        ),
    );
    Row {
        schedule: "flash-kill",
        availability: report.overall_availability(),
        inside_availability: report.inside_availability(),
        outside_availability: report.outside_availability(),
        outage_windows: report.outage_windows,
        kills,
        restarts: stats.total_restarts(),
        lost: stats.total_lost(),
        failover: stats.total_failover(),
        exact_shards: exact,
        compared_shards: SHARDS,
        snapshots: 0,
        restored_objects: 0,
        restored_bytes: 0,
        epochs_discarded: 0,
    }
}

fn main() {
    let requests = env_u64("CDND_CHAOS_REQUESTS", env_u64("REPRO_REQUESTS", 200_000));
    let seed = env_u64(
        "CDND_CHAOS_SEED",
        cdn_sim::or_die(cdn_sim::default_seed(), "REPRO_SEED"),
    );
    eprintln!("generating {requests} CDN-T requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(requests, seed));
    let stats = TraceStats::compute(&trace);
    let cache_bytes = stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0));
    let cfg = DaemonConfig {
        shards: SHARDS,
        total_capacity: cache_bytes,
        queue_capacity: 4_096,
        worker_batch: 64,
        seed,
        restart: RestartConfig::default(),
        snap: SnapshotConfig::default(),
        route: RouteConfig::default(),
        admit: AdmitConfig::default(),
    }
    .overlay_env();
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    eprintln!(
        "daemon: {} shards x {:.1} MiB, queue {}, policy {}",
        cfg.shards,
        cfg.per_shard_capacity() as f64 / (1 << 20) as f64,
        cfg.queue_capacity,
        POLICY.label()
    );

    let mut gate = Gate {
        failures: Vec::new(),
    };
    let rows: Vec<Row> = {
        #[cfg(feature = "fault-injection")]
        {
            vec![
                run_calm(&trace, &plan, &cfg, &mut gate),
                run_calm_routed(&trace, &plan, &cfg, &mut gate),
                run_calm_snap(&trace, &plan, &cfg, &mut gate),
                run_kill(&trace, &plan, &cfg, &mut gate),
                run_warm(&trace, &plan, &cfg, &mut gate),
                run_corrupt(&trace, &plan, &cfg, &mut gate),
                run_flash_kill(requests, seed, &cfg, &mut gate),
            ]
        }
        #[cfg(not(feature = "fault-injection"))]
        {
            eprintln!(
                "note: built without --features fault-injection; kill, warm-kill, \
                 corrupt and flash-kill schedules skipped (calm gates only)"
            );
            vec![
                run_calm(&trace, &plan, &cfg, &mut gate),
                run_calm_routed(&trace, &plan, &cfg, &mut gate),
                run_calm_snap(&trace, &plan, &cfg, &mut gate),
            ]
        }
    };

    // Human table.
    println!(
        "{:<10} {:>6} {:>8} {:>9} {:>8} {:>6} {:>9} {:>5} {:>8} {:>6} {:>6} {:>9} {:>9}",
        "schedule",
        "avail",
        "inside",
        "outside",
        "windows",
        "kills",
        "restarts",
        "lost",
        "failover",
        "exact",
        "snaps",
        "restored",
        "discarded"
    );
    for r in &rows {
        println!(
            "{:<10} {:>6.4} {:>8.4} {:>9.4} {:>8} {:>6} {:>9} {:>5} {:>8} {:>3}/{} {:>6} {:>9} {:>9}",
            r.schedule,
            r.availability,
            r.inside_availability,
            r.outside_availability,
            r.outage_windows,
            r.kills,
            r.restarts,
            r.lost,
            r.failover,
            r.exact_shards,
            r.compared_shards,
            r.snapshots,
            r.restored_objects,
            r.epochs_discarded
        );
    }

    // Persisted artifacts: markdown, TSV and JSON under results/.
    let dir = cdn_sim::table::results_dir();
    cdn_sim::or_die(fs::create_dir_all(&dir), "creating results dir");
    let mut md = String::from(
        "# cdnd chaos schedules\n\n\
         | schedule | availability | inside | outside | windows | kills | restarts | lost | failover | exact shards | snapshots | restored objects | restored bytes | epochs discarded |\n\
         |---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut tsv = String::from(
        "schedule\tavailability\tinside\toutside\twindows\tkills\trestarts\tlost\tfailover\texact\tcompared\tsnapshots\trestored_objects\trestored_bytes\tepochs_discarded\n",
    );
    let mut json = format!(
        "{{\n  \"schema\": \"cdnd_chaos_v3\",\n  \"requests\": {requests},\n  \
         \"seed\": {seed},\n  \"shards\": {SHARDS},\n  \"policy\": \"{}\",\n  \
         \"cache_bytes\": {cache_bytes},\n  \"schedules\": [\n",
        POLICY.label()
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            md,
            "| {} | {:.4} | {:.4} | {:.4} | {} | {} | {} | {} | {} | {}/{} | {} | {} | {} | {} |",
            r.schedule,
            r.availability,
            r.inside_availability,
            r.outside_availability,
            r.outage_windows,
            r.kills,
            r.restarts,
            r.lost,
            r.failover,
            r.exact_shards,
            r.compared_shards,
            r.snapshots,
            r.restored_objects,
            r.restored_bytes,
            r.epochs_discarded
        );
        let _ = writeln!(
            tsv,
            "{}\t{:.6}\t{:.6}\t{:.6}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.schedule,
            r.availability,
            r.inside_availability,
            r.outside_availability,
            r.outage_windows,
            r.kills,
            r.restarts,
            r.lost,
            r.failover,
            r.exact_shards,
            r.compared_shards,
            r.snapshots,
            r.restored_objects,
            r.restored_bytes,
            r.epochs_discarded
        );
        let _ = writeln!(
            json,
            "    {{\"schedule\": \"{}\", \"availability\": {:.6}, \
             \"inside_availability\": {:.6}, \"outside_availability\": {:.6}, \
             \"outage_windows\": {}, \"kills\": {}, \"restarts\": {}, \
             \"lost\": {}, \"failover\": {}, \"exact_shards\": {}, \
             \"compared_shards\": {}, \
             \"snapshots\": {}, \"restored_objects\": {}, \
             \"restored_bytes\": {}, \"epochs_discarded\": {}}}{}",
            r.schedule,
            r.availability,
            r.inside_availability,
            r.outside_availability,
            r.outage_windows,
            r.kills,
            r.restarts,
            r.lost,
            r.failover,
            r.exact_shards,
            r.compared_shards,
            r.snapshots,
            r.restored_objects,
            r.restored_bytes,
            r.epochs_discarded,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"gate_failures\": {},\n  \"fault_injection\": {}\n}}",
        gate.failures.len(),
        cfg!(feature = "fault-injection")
    );
    cdn_sim::or_die(fs::write(dir.join("cdnd_chaos.md"), md), "writing markdown");
    cdn_sim::or_die(fs::write(dir.join("cdnd_chaos.tsv"), tsv), "writing TSV");
    cdn_sim::or_die(fs::write(dir.join("cdnd_chaos.json"), json), "writing JSON");
    eprintln!("saved results/cdnd_chaos.{{md,tsv,json}}");

    if !gate.failures.is_empty() {
        for f in &gate.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("all cdnd chaos gates passed");
}
