//! Daemon chaos harness: replay a `cdn-trace` workload through a 4-shard
//! `cdnd` daemon under three calm schedules and four deterministic kill
//! schedules, then gate on availability and ledger exactness.
//!
//! The kill schedules are deterministic by construction, not by timing
//! luck: each is a list of `cdn_sim::OutageWindow`s realised on the live
//! daemon by `cdnd::run_outages` (the one crash protocol, DESIGN.md §16),
//! so a killed shard is down for exactly the same requests on every run
//! and every cell of the table repeats. The min-share shard is killed so
//! the availability floor has maximum headroom.
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
//! Knobs: `REPRO_REQUESTS` (default 200k), `REPRO_SEED`; a value that
//! does not parse is a usage error (exit 2). `SHARDS`, ring
//! depth and batch size are constants of the gate, not `CDND_*` knobs: a
//! release gate must not be steerable by the ambient environment. The
//! table is printed and saved as `results/cdnd_chaos.tsv`.

use std::fs;
use std::path::PathBuf;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_sim::{
    knob, or_die, run_routed_serial, scale_from_env, OutageWindow, PolicyKind, ShardedRunReport,
    Table,
};
use cdn_trace::{flash_crowd_window, TraceGenerator, TraceStats, Workload};
use cdnd::snapshot::{list_epochs, snapshot_path};
use cdnd::{
    feed, force_snapshot, ledger_diff, quiesce_all, routed_ledger_diff, run_outages,
    snap_fault_key, Daemon, DaemonConfig, DaemonStats, FeedReport, RouteConfig, ShardPlan,
    SnapshotConfig, FAIL_FAST, FP_SNAP_WRITE, STAY_DOWN,
};

const SHARDS: usize = 4;
const POLICY: PolicyKind = PolicyKind::Scip;

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

#[derive(Default)]
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

/// The gates every schedule shares: exactly `windows` outage windows
/// seen, 100 % availability outside them, and client tallies that
/// reconcile with the daemon's counters cause for cause.
fn shared_gates(
    tag: &str,
    report: &FeedReport,
    stats: &DaemonStats,
    windows: u64,
    gate: &mut Gate,
) {
    gate.check(
        report.outage_windows == windows,
        format!(
            "{tag}: {} outage windows, expected {windows}",
            report.outage_windows
        ),
    );
    gate.check(
        report.outside_availability() == 1.0,
        format!(
            "{tag}: availability outside outage windows {:.4} < 1.0",
            report.outside_availability()
        ),
    );
    if let Err(e) = report.check_against(&stats.shards, true) {
        gate.check(false, format!("{tag}: counter reconciliation: {e}"));
    }
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
    plan: &ShardPlan,
    cfg: &DaemonConfig,
    gate: &mut Gate,
) -> Vec<String> {
    let mut cfg = cfg.clone();
    tweak(&mut cfg);
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(POLICY)).expect("spawn calm daemon");
    let report = feed(&daemon, &plan.requests, FAIL_FAST);
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    if let Some(dir) = &cfg.snap.dir {
        let _ = fs::remove_dir_all(dir);
    }
    // No windows, so "outside them" is the whole trace.
    shared_gates(name, &report, &stats, 0, gate);
    let reference = plan.reference(POLICY, cfg.total_capacity);
    let exact = exact_shards(&format!("{name}:"), &stats, &reference, None, gate);
    extra(&stats, gate);
    row(name, &report, &stats, 0, exact, SHARDS)
}

/// The shard with the smallest request share *within the outage slices*
/// — that share is exactly the availability loss while it is down, so
/// killing it gives the availability floors their maximum (and
/// deterministic) headroom.
fn min_share_shard(trace: &[cdn_cache::Request], slices: &[(usize, usize)]) -> usize {
    let mut share = [0usize; SHARDS];
    for r in slices.iter().flat_map(|&(a, b)| &trace[a..b]) {
        share[cdn_cache::key_shard(r.id.0, SHARDS)] += 1;
    }
    (0..SHARDS).min_by_key(|&shard| share[shard]).unwrap()
}

/// A kill schedule: the min-share shard of `slices` is killed on its
/// first request in each slice and revived at the slice's end.
struct Kills<'a> {
    /// Prefix of this schedule's gate messages.
    tag: &'a str,
    plan: &'a ShardPlan,
    /// Run with [`STAY_DOWN`] as its restart policy.
    cfg: DaemonConfig,
    slices: &'a [(usize, usize)],
}

/// What a kill schedule left behind, for its own gates and its row.
struct KillRun {
    windows: Vec<OutageWindow>,
    report: FeedReport,
    kills: u64,
    stats: DaemonStats,
}

impl Kills<'_> {
    /// Run the schedule through [`run_outages`] (the crash protocol
    /// lives there), calling the hooks as `(daemon, victim, outage)` right
    /// before each kill and right after each revival, and apply the gates
    /// every kill schedule shares; the caller adds its own.
    fn run(
        &self,
        mut before_kill: impl FnMut(&Daemon, usize, usize),
        mut after_revive: impl FnMut(&Daemon, usize, usize),
        gate: &mut Gate,
    ) -> KillRun {
        let (tag, trace) = (self.tag, &self.plan.requests[..]);
        let victim = min_share_shard(trace, self.slices);
        let windows: Vec<_> = (self.slices.iter())
            .map(|&(a, b)| {
                OutageWindow::first_in(trace, SHARDS, victim, a..b).unwrap_or_else(|| {
                    eprintln!(
                        "error: REPRO_REQUESTS: {} requests leave shard {victim} nothing \
                         to be killed on in {tag}'s outage slice {a}..{b}",
                        trace.len()
                    );
                    std::process::exit(2);
                })
            })
            .collect();
        let cfg = DaemonConfig {
            restart: STAY_DOWN,
            ..self.cfg.clone()
        };
        let daemon = Daemon::spawn(cfg, self.plan.factory(POLICY)).expect("spawn kill daemon");
        let (report, kills) = run_outages(
            &daemon,
            trace,
            &windows,
            |i| before_kill(&daemon, victim, i),
            |i| after_revive(&daemon, victim, i),
        );
        let stats = daemon.shutdown();
        // The corruption ladder leaves its snapshot failpoint armed.
        fault::clear();
        if let Some(dir) = &self.cfg.snap.dir {
            let _ = fs::remove_dir_all(dir);
        }

        let expected = windows.len() as u64;
        gate.check(
            kills == expected,
            format!("{tag}: {kills} kills fired, expected {expected}"),
        );
        gate.check(
            stats.shards[victim].lost == kills,
            format!(
                "{tag}: victim lost {}, expected {kills}",
                stats.shards[victim].lost
            ),
        );
        shared_gates(tag, &report, &stats, expected, gate);
        KillRun {
            windows,
            report,
            kills,
            stats,
        }
    }

    /// The row of a failover-off schedule: the survivors must be
    /// bit-identical to the serial reference (the victim lost the crash
    /// requests and everything rejected while it was down).
    fn survivors_row(&self, name: &str, run: &KillRun, gate: &mut Gate) -> Vec<String> {
        let reference = self.plan.reference(POLICY, self.cfg.total_capacity);
        let what = format!("{}: surviving", self.tag);
        let victim = Some(run.windows[0].shard);
        let exact = exact_shards(&what, &run.stats, &reference, victim, gate);
        row(name, &run.report, &run.stats, run.kills, exact, SHARDS - 1)
    }
}

/// Kill schedule: two deterministic outages of the min-share shard
/// (calm warmup | outage 1 | recovery | outage 2 | calm tail).
fn run_kill(plan: &ShardPlan, cfg: &DaemonConfig, gate: &mut Gate) -> Vec<String> {
    let n = plan.requests.len();
    let schedule = Kills {
        tag: "kill",
        plan,
        cfg: cfg.clone(),
        slices: &[(n / 5, 2 * n / 5), (3 * n / 5, 4 * n / 5)],
    };
    let run = schedule.run(|_, _, _| {}, |_, _, _| {}, gate);
    gate.check(
        run.report.inside_availability() >= 0.75,
        format!(
            "kill: availability inside outage windows {:.4} < 0.75",
            run.report.inside_availability()
        ),
    );
    schedule.survivors_row("kill-2x", &run, gate)
}

/// Warm-restart schedule (warmup | outage | recovery tail): the epoch is
/// forced on the quiesced victim, so what is on disk is exactly its
/// pre-crash resident set (the crash request is lost, never applied).
fn run_warm(plan: &ShardPlan, cfg: &DaemonConfig, gate: &mut Gate) -> Vec<String> {
    let n = plan.requests.len();
    let schedule = Kills {
        tag: "warm",
        plan,
        cfg: DaemonConfig {
            // Huge interval: only the forced epoch (and the drain-final
            // one) exist, so the restore provenance is unambiguous.
            snap: SnapshotConfig {
                interval: 1 << 40,
                keep: 3,
                dir: Some(fresh_snap_dir("warm")),
            },
            ..cfg.clone()
        },
        slices: &[(n / 3, 2 * n / 3)],
    };
    let (mut pre, mut post) = (None, None);
    let run = schedule.run(
        |daemon, victim, _| {
            force_snapshot(daemon, victim);
            pre = Some(daemon.stats().shards[victim]);
        },
        |daemon, victim, _| post = Some(daemon.stats().shards[victim]),
        gate,
    );
    let (pre, post) = (pre.expect("one kill"), post.expect("one revival"));
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
    schedule.survivors_row("warm-kill", &run, gate)
}

/// Corruption-ladder schedule: three kill/restore rungs against a
/// damaged snapshot directory (warmup | (outage | recovery) × 3 | tail).
fn run_corrupt(plan: &ShardPlan, cfg: &DaemonConfig, gate: &mut Gate) -> Vec<String> {
    let dir = fresh_snap_dir("corrupt");
    let cut = |i: usize| i * plan.requests.len() / 8;
    let schedule = Kills {
        tag: "corrupt",
        plan,
        cfg: DaemonConfig {
            snap: SnapshotConfig {
                interval: 1 << 40,
                keep: 4,
                dir: Some(dir.clone()),
            },
            ..cfg.clone()
        },
        slices: &[(cut(1), cut(2)), (cut(3), cut(4)), (cut(5), cut(6))],
    };
    // The victim's restore counters right after each revival; they only
    // move during a restore, so consecutive differences are per rung.
    let mut revived = Vec::new();
    let run = schedule.run(
        // Per-rung damage, applied to the quiesced victim right before the
        // rung's kill.
        |daemon, victim, rung| match rung {
            0 => {
                // A good epoch every later rung can fall back to, then
                // tear the tail of the next one via the write failpoint.
                force_snapshot(daemon, victim);
                let next = list_epochs(&dir, victim as u32).last().unwrap() + 1;
                fault::arm(
                    FP_SNAP_WRITE,
                    FaultRule::OnKeys(
                        vec![snap_fault_key(victim as u32, next)],
                        FaultAction::ShortRead(64),
                    ),
                );
                force_snapshot(daemon, victim);
            }
            1 => {
                // Commit a good epoch, then flip one byte of it on disk.
                force_snapshot(daemon, victim);
                let newest = *list_epochs(&dir, victim as u32).last().unwrap();
                let path = snapshot_path(&dir, victim as u32, newest);
                let mut bytes = fs::read(&path).expect("read committed epoch");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                fs::write(&path, bytes).expect("write flipped epoch");
            }
            _ => {
                // Delete every epoch: the ladder bottoms out cold.
                for epoch in list_epochs(&dir, victim as u32) {
                    let _ = fs::remove_file(snapshot_path(&dir, victim as u32, epoch));
                }
            }
        },
        |daemon, victim, _| {
            let s = daemon.stats().shards[victim];
            revived.push((s.epochs_discarded, s.restored_objects));
        },
        gate,
    );
    // Expected ladder: rung 0 discards the torn newest epoch, rung 1
    // discards the flipped epoch plus the still-torn one beneath it, rung
    // 2 finds nothing and starts cold.
    let expect: [(u64, bool); 3] = [(1, true), (2, true), (0, false)];
    let mut before = (0u64, 0u64);
    for (rung, (&after, (discarded, warm))) in revived.iter().zip(expect).enumerate() {
        gate.check(
            after.0 - before.0 == discarded,
            format!(
                "corrupt rung {rung}: {} epochs discarded, expected {discarded}",
                after.0 - before.0
            ),
        );
        let temp = |warm| if warm { "warm" } else { "cold" };
        gate.check(
            (after.1 > before.1) == warm,
            format!(
                "corrupt rung {rung}: restore was {}, expected {}",
                temp(after.1 > before.1),
                temp(warm)
            ),
        );
        before = after;
    }
    // Zero panics beyond the intentional kills: every restart is
    // accounted for by a kill.
    gate.check(
        run.stats.total_restarts() == run.kills,
        format!(
            "corrupt: {} restarts for {} kills — a restore panicked",
            run.stats.total_restarts(),
            run.kills
        ),
    );
    schedule.survivors_row("corrupt", &run, gate)
}

/// Flash-crowd kill schedule: a drift trace whose middle half is a flash
/// crowd, failover routing enabled, and both kills of the min-share
/// shard landing *inside* the crowd window.
fn run_flash_kill(requests: u64, seed: u64, cfg: &DaemonConfig, gate: &mut Gate) -> Vec<String> {
    eprintln!("generating {requests} flash-crowd requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config_with_events(
        requests,
        seed,
        vec![flash_crowd_window(requests)],
    ));
    let stats = TraceStats::compute(&trace);
    let cfg = DaemonConfig {
        total_capacity: stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0)),
        route: RouteConfig { failover: true },
        ..cfg.clone()
    };
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    // The flash crowd covers [n/4, 3n/4); both outage slices sit strictly
    // inside it, so every window is fully exposed to the crowd skew.
    let n = trace.len();
    let schedule = Kills {
        tag: "flash-kill",
        plan: &plan,
        cfg,
        slices: &[(3 * n / 8, 4 * n / 8), (5 * n / 8, 6 * n / 8)],
    };
    let cfg = &schedule.cfg;
    let run = schedule.run(|_, _, _| {}, |_, _, _| {}, gate);
    let (report, stats) = (&run.report, &run.stats);
    // The tentpole availability gate: inside the outage windows every
    // admitted request is answered (as a failover miss), none dropped.
    gate.check(
        report.inside_availability() == 1.0,
        format!(
            "flash-kill: availability inside outage windows {:.4} < 1.0",
            report.inside_availability()
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
    // Every ledger — survivors and the overlay work they absorbed — must
    // equal the routing-aware serial reference u64-for-u64.
    let reference = run_routed_serial(
        POLICY,
        cfg.total_capacity,
        &trace,
        SHARDS,
        cfg.seed,
        &run.windows,
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
    row("flash-kill", report, stats, run.kills, exact, SHARDS)
}

fn main() {
    let requests: u64 = knob(scale_from_env("REPRO_REQUESTS", 200_000));
    let seed = knob(cdn_sim::default_seed());
    eprintln!("generating {requests} CDN-T requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(requests, seed));
    let stats = TraceStats::compute(&trace);
    let cfg = DaemonConfig {
        shards: SHARDS,
        total_capacity: stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0)),
        queue_capacity: 4_096,
        worker_batch: 64,
        seed,
        ..DaemonConfig::default()
    };
    // A trace too small to give every shard a byte of cache is refused
    // here, not by a schedule's `expect` half-way through the run.
    if let Err(e) = cfg.validate() {
        eprintln!("error: invalid daemon config: {e}");
        std::process::exit(2);
    }
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    let mut gate = Gate::default();
    let mut rows: Vec<Vec<String>> = CALM_SCHEDULES
        .into_iter()
        .map(|calm| run_calm(calm, &plan, &cfg, &mut gate))
        .collect();
    rows.extend([
        run_kill(&plan, &cfg, &mut gate),
        run_warm(&plan, &cfg, &mut gate),
        run_corrupt(&plan, &cfg, &mut gate),
        run_flash_kill(requests, seed, &cfg, &mut gate),
    ]);

    let mut table = Table::new(
        &format!(
            "cdnd chaos — {requests} requests, seed {seed}, {SHARDS} shards x {:.1} MiB, \
             queue {}, policy {}, fault injection on",
            cfg.per_shard_capacity() as f64 / (1 << 20) as f64,
            cfg.queue_capacity,
            POLICY.label(),
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
