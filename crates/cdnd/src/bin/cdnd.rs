//! The daemon binary: generate (or size from) a CDN-T workload, serve it
//! through a supervised sharded daemon, drain, and print the per-shard
//! stats snapshot. This is the in-process serving shape — there is no
//! network listener; the deterministic client harness plays the role of
//! the frontend, which keeps every run reproducible.
//!
//! Knobs (see the README knob table): `CDND_SHARDS`, `CDND_CAPACITY_MB`,
//! `CDND_QUEUE_CAP`, `CDND_WORKER_BATCH`, `CDND_SEED`,
//! `CDND_BACKOFF_BASE_MS`, `CDND_BACKOFF_MAX_MS`, `CDND_STORM_THRESHOLD`,
//! `CDND_STORM_WINDOW_MS`, `CDND_SNAP_INTERVAL`, `CDND_SNAP_KEEP`,
//! `CDND_SNAP_DIR`, `CDND_ROUTE_FAILOVER`, `CDND_ADMIT_LOW_PCT`,
//! `CDND_ADMIT_NORMAL_PCT`, plus `REPRO_REQUESTS` (default 200k) and
//! `CDND_POLICY` (a `PolicyKind` label, default `SCIP`). A numeric knob
//! that is set but does not parse is a usage error (exit 2), never a
//! silent default.
//! With `CDND_SNAP_INTERVAL > 0` and a `CDND_SNAP_DIR`, each shard
//! commits snapshot epochs at that cadence (plus one final epoch at
//! drain) and a subsequent run over the same directory starts warm.

use std::time::Instant;

use cdn_sim::{knob, scale_from_env, PolicyKind};
use cdn_trace::{TraceGenerator, TraceStats, Workload};
use cdnd::{feed, Daemon, DaemonConfig, ShardPlan, FAIL_FAST};

fn policy_from_env() -> PolicyKind {
    let name = std::env::var("CDND_POLICY").unwrap_or_else(|_| "SCIP".to_string());
    name.parse().unwrap_or_else(|e| {
        eprintln!("error: CDND_POLICY: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let requests: u64 = knob(scale_from_env("REPRO_REQUESTS", 200_000));
    let kind = policy_from_env();
    let mut cfg = knob(DaemonConfig::default().overlay_env());
    let seed = cfg.seed;
    eprintln!("generating {requests} CDN-T requests (seed {seed})...");
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(requests, seed));
    let stats = TraceStats::compute(&trace);
    if std::env::var("CDND_CAPACITY_MB").is_err() {
        cfg.total_capacity =
            stats.cache_bytes_for_fraction(Workload::CdnT.paper_cache_fraction(64.0));
    }
    // Before the plan: partitioning needs a shard count it can trust.
    if let Err(e) = cfg.validate() {
        eprintln!("error: invalid daemon config: {e}");
        std::process::exit(2);
    }
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    eprintln!(
        "cdnd: {} shards x {:.1} MiB, queue {}, batch {}, policy {}",
        cfg.shards,
        cfg.per_shard_capacity() as f64 / (1 << 20) as f64,
        cfg.queue_capacity,
        cfg.worker_batch,
        kind.label()
    );

    let daemon = Daemon::spawn(cfg.clone(), plan.factory(kind)).expect("config validated above");
    let start = Instant::now();
    let report = feed(&daemon, &trace, FAIL_FAST);
    let final_stats = daemon.shutdown();
    let wall = start.elapsed().as_secs_f64();

    println!(
        "{:<5} {:>9} {:>9} {:>6} {:>5} {:>8} {:>6} {:>6} {:>8} {:>8} {:>7} {:>7} {:>10} {:>5} {:>8} {:>9} {:>8}",
        "shard",
        "enqueued",
        "processed",
        "shed",
        "down",
        "deadline",
        "fault",
        "lost",
        "failover",
        "hits",
        "misses",
        "peak_q",
        "resident",
        "snaps",
        "restored",
        "discarded",
        "state"
    );
    for (i, s) in final_stats.shards.iter().enumerate() {
        println!(
            "{:<5} {:>9} {:>9} {:>6} {:>5} {:>8} {:>6} {:>6} {:>8} {:>8} {:>7} {:>7} {:>10} {:>5} {:>8} {:>9} {:>8?}",
            i,
            s.enqueued,
            s.processed,
            s.shed,
            s.rejected_down,
            s.rejected_deadline,
            s.faulted_enqueues,
            s.lost,
            s.failover_in,
            s.hits,
            s.misses,
            s.peak_depth,
            s.resident_objects,
            s.snapshots_written,
            s.restored_objects,
            s.epochs_discarded,
            s.state
        );
    }
    let served = final_stats.total_processed();
    let hits: u64 = final_stats.shards.iter().map(|s| s.hits).sum();
    println!(
        "served {served} of {} in {wall:.2}s ({:.2} Mreq/s), miss ratio {:.4}, \
         availability {:.4}",
        trace.len(),
        served as f64 / wall.max(1e-9) / 1e6,
        1.0 - hits as f64 / served.max(1) as f64,
        report.overall_availability()
    );
}
