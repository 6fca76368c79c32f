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
//! Knobs: `REPRO_REQUESTS` (default 200k), `REPRO_SEED`. `SHARDS`, ring
//! depth and batch size are constants of the gate, not `CDND_*` knobs: a
//! release gate must not be steerable by the ambient environment. The
//! table is printed and saved as `results/cdnd_chaos.tsv`.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use cdn_cache::Request;
use cdn_sim::{or_die, scale_from_env, PolicyKind, ShardedRunReport, Table};
use cdn_trace::{TraceGenerator, TraceStats, Workload};
use cdnd::{
    feed, ledger_diff, AdmitConfig, Daemon, DaemonConfig, DaemonStats, FeedMode, FeedReport,
    RestartConfig, RouteConfig, ShardPlan, SnapshotConfig,
};

const SHARDS: usize = 4;
const POLICY: PolicyKind = PolicyKind::Scip;
const QUIESCE: Duration = Duration::from_secs(120);

/// Backoff far beyond the run: a killed shard stays down until the
/// schedule's explicit `reset_shard`, so each outage covers an exact
/// trace slice.
#[cfg(feature = "fault-injection")]
const STAY_DOWN: RestartConfig = RestartConfig {
    backoff_base_ms: 600_000,
    backoff_max_ms: 600_000,
    storm_threshold: 100,
    storm_window_ms: 600_000,
};

fn calm_mode() -> FeedMode {
    FeedMode::FailFast {
        push_timeout: Duration::from_secs(30),
    }
}

const HEADER: [&str; 14] = [
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
    "restored_objects",
    "restored_bytes",
    "discarded",
];

/// One schedule's outcome as a [`HEADER`] row. Snapshot and restore
/// columns are daemon-wide sums: only a schedule's victim ever restores,
/// and schedules without snapshotting leave them 0.
fn row(
    schedule: &str,
    report: &FeedReport,
    stats: &DaemonStats,
    kills: u64,
    exact: usize,
    compared: usize,
) -> Vec<String> {
    let sum = |f: fn(&cdnd::ShardSnapshot) -> u64| stats.shards.iter().map(f).sum::<u64>();
    vec![
        schedule.to_string(),
        format!("{:.4}", report.overall_availability()),
        format!("{:.4}", report.inside_availability()),
        format!("{:.4}", report.outside_availability()),
        report.outage_windows.to_string(),
        kills.to_string(),
        stats.total_restarts().to_string(),
        stats.total_lost().to_string(),
        stats.total_failover().to_string(),
        format!("{exact}/{compared}"),
        sum(|s| s.snapshots_written).to_string(),
        sum(|s| s.restored_objects).to_string(),
        sum(|s| s.restored_bytes).to_string(),
        sum(|s| s.epochs_discarded).to_string(),
    ]
}

/// A scratch snapshot directory under the OS temp dir, wiped on entry.
fn fresh_snap_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdnd-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
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

fn quiesce_all(daemon: &Daemon, schedule: &str) {
    for shard in 0..SHARDS {
        assert!(
            daemon.await_quiesced(shard, QUIESCE),
            "{schedule}: shard {shard} never quiesced"
        );
    }
}

/// How many shards (all but `skip`) have a ledger bit-identical to the
/// serial reference; each mismatch fails the gate as `{what} {diff}`.
fn exact_shards(
    what: &str,
    stats: &DaemonStats,
    reference: &ShardedRunReport,
    skip: Option<usize>,
    gate: &mut Gate,
) -> usize {
    let mut exact = 0;
    for (shard, (snap, m)) in stats.shards.iter().zip(&reference.per_shard).enumerate() {
        if Some(shard) == skip {
            continue;
        }
        match ledger_diff(shard, snap, m) {
            None => exact += 1,
            Some(diff) => gate.check(false, format!("{what} {diff}")),
        }
    }
    exact
}

/// A calm schedule: `(name, config tweak, extra check)`. All three feed
/// the whole trace through a healthy daemon; everything must be accepted
/// and every shard ledger must equal the serial reference.
type Calm = (
    &'static str,
    fn(&mut DaemonConfig),
    fn(&DaemonStats, &mut Gate),
);

const CALM_SCHEDULES: [Calm; 3] = [
    ("calm", |_| {}, |_, _| {}),
    // Failover routing *enabled*: consulted on every submit, but with
    // every shard healthy it must be a pure pass-through — the chaos-scale
    // proof of the calm-path bit-identity invariant.
    (
        "calm-routed",
        |cfg| cfg.route = RouteConfig { failover: true },
        |stats, gate| {
            gate.check(
                stats.total_failover() == 0,
                format!(
                    "calm-routed: {} failover arrivals on a healthy daemon, expected 0",
                    stats.total_failover()
                ),
            )
        },
    ),
    // Periodic snapshot epochs enabled: the export seam is read-only, so
    // snapshots-on equals snapshots-off, u64 for u64 — and every shard
    // must actually have committed epochs.
    (
        "calm-snap",
        |cfg| {
            cfg.snap = SnapshotConfig {
                interval: 2_048,
                keep: 2,
                dir: Some(fresh_snap_dir("calm")),
            }
        },
        |stats, gate| {
            for (shard, s) in stats.shards.iter().enumerate() {
                gate.check(
                    s.snapshots_written > 0,
                    format!("calm-snap: shard {shard} committed no snapshot epochs"),
                );
            }
        },
    ),
];

fn run_calm(
    (name, tweak, extra): Calm,
    trace: &[Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Vec<String> {
    let mut cfg = cfg.clone();
    tweak(&mut cfg);
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn calm daemon");
    let report = feed(&daemon, trace, calm_mode());
    quiesce_all(&daemon, name);
    let stats = daemon.shutdown();
    if let Some(dir) = &cfg.snap.dir {
        let _ = fs::remove_dir_all(dir);
    }
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("{name}: counter reconciliation: {e}"));
    }
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let exact = exact_shards(&format!("{name}:"), &stats, &reference, None, gate);
    extra(&stats, gate);
    gate.check(
        report.overall_availability() == 1.0,
        format!(
            "{name}: availability {:.4} < 1.0",
            report.overall_availability()
        ),
    );
    gate.check(
        report.outage_windows == 0,
        format!(
            "{name}: {} outage windows, expected 0",
            report.outage_windows
        ),
    );
    row(name, &report, &stats, 0, exact, SHARDS)
}

/// The shard with the smallest request share *within the outage slices*
/// — that share is exactly the availability loss while it is down, so
/// killing it gives the availability floors their maximum (and
/// deterministic) headroom.
#[cfg(feature = "fault-injection")]
fn min_share_shard<'a>(outage: impl Iterator<Item = &'a Request>) -> usize {
    let mut share = [0usize; SHARDS];
    for r in outage {
        share[cdn_cache::key_shard(r.id.0, SHARDS)] += 1;
    }
    (0..SHARDS).min_by_key(|&shard| share[shard]).unwrap()
}

/// Arm the worker failpoint to kill `victim` on its next request.
#[cfg(feature = "fault-injection")]
fn arm_kill(daemon: &Daemon, victim: usize, why: &str) {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    let s = daemon.stats().shards[victim];
    fault::arm(
        cdnd::FP_SHARD_WORKER,
        FaultRule::OnKeys(
            vec![cdnd::worker_fault_key(victim, s.processed + s.lost)],
            FaultAction::Panic(why.into()),
        ),
    );
}

/// Wait for the armed kill to take `victim` down; returns the kills fired
/// since the last `arm` (which resets the site's counter, so the caller
/// banks this outage's count before arming the next).
#[cfg(feature = "fault-injection")]
fn await_down(daemon: &Daemon, victim: usize, what: &str) -> u64 {
    assert!(
        daemon.await_shard_state(victim, cdnd::ShardState::Backoff, Duration::from_secs(30)),
        "{what}: victim should be down"
    );
    cdn_cache::fault::fired(cdnd::FP_SHARD_WORKER)
}

/// Operator revival. `Closed` ⇒ the revived incarnation's restore
/// counters are final, so callers read them right after this returns.
#[cfg(feature = "fault-injection")]
fn revive(daemon: &Daemon, victim: usize, what: &str) {
    daemon.reset_shard(victim);
    assert!(
        daemon.await_shard_state(victim, cdnd::ShardState::Closed, Duration::from_secs(30)),
        "{what}: reset did not revive the victim"
    );
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

#[cfg(feature = "fault-injection")]
fn merge_reports(reports: &[FeedReport]) -> FeedReport {
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

/// Kill schedule: two deterministic outages of the min-share shard.
#[cfg(feature = "fault-injection")]
fn run_kill(
    trace: &[Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Vec<String> {
    use cdn_cache::fault;

    let mut cfg = cfg.clone();
    cfg.restart = STAY_DOWN;
    let n = trace.len();
    // Slices: calm warmup | outage 1 | recovery | outage 2 | calm tail.
    let cuts = [n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5];
    let victim = min_share_shard(
        trace[cuts[0]..cuts[1]]
            .iter()
            .chain(&trace[cuts[2]..cuts[3]]),
    );

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn kill daemon");
    let mut reports = Vec::new();
    let mut kills = 0u64;
    // Warmup, fully calm.
    reports.push(feed(&daemon, &trace[..cuts[0]], calm_mode()));
    quiesce_all(&daemon, "kill");

    for (start, end) in [(cuts[0], cuts[1]), (cuts[2], cuts[3])] {
        // Kill the victim on its next request, then feed the outage
        // slice: the crash request is accepted-then-lost, every later
        // victim-bound request in the slice is rejected ShardDown.
        arm_kill(&daemon, victim, "cdnd_chaos kill");
        reports.push(feed(&daemon, &trace[start..end], calm_mode()));
        kills += await_down(&daemon, victim, "kill");
        // Operator revival, then a recovery slice that closes the window.
        revive(&daemon, victim, "kill");
        let tail = if end == cuts[1] { cuts[2] } else { n };
        reports.push(feed(&daemon, &trace[end..tail], calm_mode()));
        quiesce_all(&daemon, "kill");
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
    let exact = exact_shards("kill: surviving", &stats, &reference, Some(victim), gate);
    gate.check(
        stats.shards[victim].lost == 2,
        format!(
            "kill: victim lost {}, expected 2",
            stats.shards[victim].lost
        ),
    );
    row("kill-2x", &report, &stats, kills, exact, SHARDS - 1)
}

/// Warm-restart schedule: one deterministic kill of the min-share shard
/// with snapshotting enabled and an epoch forced immediately before the
/// kill. The revived shard must come back with ≥ 90 % of its pre-crash
/// resident bytes restored from the snapshot, while the surviving shards
/// stay bit-identical to the serial reference.
#[cfg(feature = "fault-injection")]
fn run_warm(
    trace: &[Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Vec<String> {
    use cdn_cache::fault;

    let dir = fresh_snap_dir("warm");
    let mut cfg = cfg.clone();
    cfg.restart = STAY_DOWN;
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
    let victim = min_share_shard(trace[cuts[0]..cuts[1]].iter());

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn warm daemon");
    let mut reports = Vec::new();
    reports.push(feed(&daemon, &trace[..cuts[0]], calm_mode()));
    quiesce_all(&daemon, "warm");
    // Snapshot the quiesced victim, then kill it on its next request:
    // the epoch on disk is exactly the pre-crash resident set (the crash
    // request itself is lost, never applied).
    force_snapshot(&daemon, victim);
    let pre = daemon.stats().shards[victim];
    arm_kill(&daemon, victim, "cdnd_chaos warm kill");
    reports.push(feed(&daemon, &trace[cuts[0]..cuts[1]], calm_mode()));
    let kills = await_down(&daemon, victim, "warm");
    revive(&daemon, victim, "warm");
    let post = daemon.stats().shards[victim];
    reports.push(feed(&daemon, &trace[cuts[1]..], calm_mode()));
    quiesce_all(&daemon, "warm");
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
    let exact = exact_shards("warm: surviving", &stats, &reference, Some(victim), gate);
    row("warm-kill", &report, &stats, kills, exact, SHARDS - 1)
}

/// Corruption-ladder schedule: three kill/restore rungs against a
/// damaged snapshot directory. Rung 1 tears the newest epoch's tail via
/// the `cdnd.snap_write` failpoint, rung 2 bit-flips a committed epoch
/// on disk, rung 3 deletes every epoch. Each rung must degrade to an
/// older epoch (or cold) with zero panics beyond the intentional kills.
#[cfg(feature = "fault-injection")]
fn run_corrupt(
    trace: &[Request],
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Vec<String> {
    use cdn_cache::fault::{self, FaultAction, FaultRule};
    use cdnd::snapshot::{list_epochs, snapshot_path};
    use cdnd::{snap_fault_key, FP_SNAP_WRITE};

    let dir = fresh_snap_dir("corrupt");
    let mut cfg = cfg.clone();
    cfg.restart = STAY_DOWN;
    cfg.snap = SnapshotConfig {
        interval: 1 << 40,
        keep: 4,
        dir: Some(dir.clone()),
    };
    let n = trace.len();
    // Slices: warmup | (outage | recovery) × 3 | tail.
    let cut = |i: usize| i * n / 8;
    let outages = [(cut(1), cut(2)), (cut(3), cut(4)), (cut(5), cut(6))];
    let victim = min_share_shard(outages.iter().flat_map(|&(a, b)| &trace[a..b]));

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn corrupt daemon");
    let mut reports = Vec::new();
    let mut kills = 0u64;
    reports.push(feed(&daemon, &trace[..cut(1)], calm_mode()));
    quiesce_all(&daemon, "corrupt");
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
        arm_kill(&daemon, victim, "cdnd_chaos corrupt kill");
        reports.push(feed(&daemon, &trace[start..end], calm_mode()));
        kills += await_down(&daemon, victim, "corrupt");
        revive(&daemon, victim, "corrupt");
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
        quiesce_all(&daemon, "corrupt");
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
    let exact = exact_shards("corrupt: surviving", &stats, &reference, Some(victim), gate);
    row("corrupt", &report, &stats, kills, exact, SHARDS - 1)
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
fn run_flash_kill(requests: u64, seed: u64, cfg: &DaemonConfig, gate: &mut Gate) -> Vec<String> {
    use cdn_cache::{fault, key_shard};
    use cdn_sim::{run_routed_serial, OutageWindow};
    use cdn_trace::flash_crowd_window;
    use cdnd::routed_ledger_diff;

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
    cfg.restart = STAY_DOWN;
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    // The flash crowd covers [n/4, 3n/4); both outage slices sit strictly
    // inside it, so every window is fully exposed to the crowd skew.
    let n = trace.len();
    let outages = [(3 * n / 8, 4 * n / 8), (5 * n / 8, 6 * n / 8)];
    let victim = min_share_shard(outages.iter().flat_map(|&(a, b)| &trace[a..b]));

    fault::clear();
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn flash daemon");
    let mut reports = Vec::new();
    let mut kills = 0u64;
    let mut windows = Vec::new();
    let mut pos = 0usize;
    for &(start, end) in &outages {
        // The crash request is the first victim-primary request in the
        // outage slice; everything before it is fed calm.
        let ci = (start..end)
            .find(|&i| key_shard(trace[i].id.0, SHARDS) == victim)
            .expect("no victim-primary request in the outage slice");
        reports.push(feed(&daemon, &trace[pos..ci], calm_mode()));
        // Quiesce everyone so the victim's local tick is deterministic
        // when the crash request arrives.
        quiesce_all(&daemon, "flash-kill");
        arm_kill(&daemon, victim, "cdnd_chaos flash kill");
        // The crash request alone, then wait for the victim to park
        // itself in backoff: every later victim-primary submit in the
        // slice sees the outage and fails over — no enqueue race.
        reports.push(feed(&daemon, &trace[ci..=ci], calm_mode()));
        kills += await_down(&daemon, victim, "flash-kill");
        reports.push(feed(&daemon, &trace[ci + 1..end], calm_mode()));
        // Operator revival at the slice boundary: the outage window is
        // exactly [ci, end) on every run.
        revive(&daemon, victim, "flash-kill");
        windows.push(OutageWindow {
            shard: victim,
            crash_index: ci,
            end_index: end,
        });
        pos = end;
    }
    reports.push(feed(&daemon, &trace[pos..], calm_mode()));
    quiesce_all(&daemon, "flash-kill");
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
    row("flash-kill", &report, &stats, kills, exact, SHARDS)
}

fn main() {
    let requests: u64 = or_die(scale_from_env("REPRO_REQUESTS", 200_000), "REPRO_REQUESTS");
    let seed = or_die(cdn_sim::default_seed(), "REPRO_SEED");
    eprintln!("generating {requests} CDN-T requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(requests, seed));
    let stats = TraceStats::compute(&trace);
    let cfg = DaemonConfig {
        shards: SHARDS,
        total_capacity: stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0)),
        queue_capacity: 4_096,
        worker_batch: 64,
        seed,
        restart: RestartConfig::default(),
        snap: SnapshotConfig::default(),
        route: RouteConfig::default(),
        admit: AdmitConfig::default(),
    };
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    let mut gate = Gate {
        failures: Vec::new(),
    };
    #[cfg_attr(not(feature = "fault-injection"), allow(unused_mut))]
    let mut rows: Vec<Vec<String>> = CALM_SCHEDULES
        .into_iter()
        .map(|calm| run_calm(calm, &trace, &plan, &cfg, &mut gate))
        .collect();
    #[cfg(feature = "fault-injection")]
    rows.extend([
        run_kill(&trace, &plan, &cfg, &mut gate),
        run_warm(&trace, &plan, &cfg, &mut gate),
        run_corrupt(&trace, &plan, &cfg, &mut gate),
        run_flash_kill(requests, seed, &cfg, &mut gate),
    ]);
    #[cfg(not(feature = "fault-injection"))]
    eprintln!(
        "note: built without --features fault-injection; kill, warm-kill, \
         corrupt and flash-kill schedules skipped (calm gates only)"
    );

    let mut table = Table::new(
        &format!(
            "cdnd chaos — {requests} requests, seed {seed}, {SHARDS} shards x {:.1} MiB, \
             queue {}, policy {}, fault injection {}",
            cfg.per_shard_capacity() as f64 / (1 << 20) as f64,
            cfg.queue_capacity,
            POLICY.label(),
            if cfg!(feature = "fault-injection") {
                "on"
            } else {
                "off"
            }
        ),
        &HEADER,
    );
    for cells in rows {
        or_die(table.row(cells), "rendering chaos table");
    }
    table.print();
    let tsv = or_die(table.save_tsv("cdnd_chaos"), "writing results TSV");
    eprintln!("saved {}", tsv.display());

    if !gate.failures.is_empty() {
        for f in &gate.failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("all cdnd chaos gates passed");
}
