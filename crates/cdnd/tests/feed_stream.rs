//! Batched and out-of-core feed paths: same ledgers, same tallies, same
//! serial reference as the per-request [`feed`] loop.
//!
//! `feed_batched` submits shard-homogeneous windows through
//! `Daemon::submit_batch` (one ring-lock acquisition per run);
//! `feed_stream` drives the same batched windows from a chunk iterator —
//! including a real disk-backed [`StreamingTrace`] — without ever
//! holding the whole trace in RAM. Both must reproduce the per-request
//! path's exactness contract: every request accepted on a calm daemon,
//! client tallies reconciling with daemon counters one-for-one, and
//! per-shard ledgers equal to `run_sharded_serial` u64-for-u64.

use cdn_cache::Request;
use cdn_sim::PolicyKind;
use cdnd::{
    feed, feed_batched, feed_stream, ledger_diff, oracle_free_factory, quiesce_all, Daemon,
    DaemonConfig, ShardPlan, FAIL_FAST,
};

use cdn_trace::io::write_binary;
use cdn_trace::{GeneratorConfig, StreamingTrace, TraceColumns, TraceError, TraceGenerator};

fn small_trace(requests: u64, seed: u64) -> Vec<Request> {
    TraceGenerator::generate(GeneratorConfig {
        requests,
        core_objects: 2_000,
        seed,
        ..GeneratorConfig::default()
    })
}

/// Cut `cols` into owned chunks of `chunk_len` requests.
fn chunked(cols: &TraceColumns, chunk_len: usize) -> Vec<TraceColumns> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < cols.len() {
        let end = (at + chunk_len).min(cols.len());
        let mut c = TraceColumns::new();
        for i in at..end {
            c.push(cols.get(i));
        }
        out.push(c);
        at = end;
    }
    out
}

/// Batched feed on a calm daemon: everything accepted, tallies reconcile
/// strictly, and per-shard ledgers equal the serial reference — i.e. the
/// batch fast path is invisible to every ledger.
#[test]
fn batched_feed_matches_serial_reference_exactly() {
    let trace = small_trace(30_000, 13);
    let total_capacity = 4 << 20;
    for kind in [PolicyKind::Lru, PolicyKind::Scip] {
        let cfg = DaemonConfig {
            shards: 4,
            total_capacity,
            ..DaemonConfig::default()
        };
        let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(kind)).unwrap();
        let report = feed_batched(&daemon, &trace, FAIL_FAST);
        quiesce_all(&daemon);
        let stats = daemon.shutdown();
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

/// Batched feed under backpressure: a tiny ring forces the fast path to
/// wait and to hand stragglers to the per-request fallback, yet nothing
/// is shed and the report equals the per-request feed's.
#[test]
fn batched_feed_survives_tiny_rings_without_shedding() {
    let trace = small_trace(8_000, 17);
    let cfg = DaemonConfig {
        shards: 2,
        total_capacity: 1 << 20,
        queue_capacity: 16,
        worker_batch: 4,
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Lru)).unwrap();
    let report = feed_batched(&daemon, &trace, FAIL_FAST);
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    report.check_against(&stats.shards, true).unwrap();
    assert_eq!(report.total_accepted(), trace.len() as u64);
    assert_eq!(report.overall_availability(), 1.0);
}

/// Streamed feed from an on-disk trace through the real prefetch thread:
/// same acceptance, same reconciliation, same serial-reference ledgers
/// as feeding the in-RAM slice — the daemon cannot tell the difference.
#[test]
fn streamed_feed_from_disk_matches_in_ram_feed() {
    let trace = small_trace(30_000, 19);
    let total_capacity = 4 << 20;
    let dir = std::env::temp_dir().join("cdnd_feed_stream_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("feed.bin");
    write_binary(&path, &trace).unwrap();

    let cfg = DaemonConfig {
        shards: 3,
        total_capacity,
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(&trace, cfg.shards, cfg.seed);

    // Reference: per-request feed of the in-RAM slice.
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
    let in_ram_report = feed(&daemon, &trace, FAIL_FAST);
    quiesce_all(&daemon);
    let in_ram_stats = daemon.shutdown();

    // Streamed: same daemon shape fed from disk.
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
    let stream = StreamingTrace::open(&path).unwrap();
    let report = feed_stream(&daemon, stream, FAIL_FAST).unwrap();
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    std::fs::remove_file(&path).ok();

    report.check_against(&stats.shards, true).unwrap();
    assert_eq!(report.total_accepted(), trace.len() as u64);
    assert_eq!(report.per_shard, in_ram_report.per_shard);
    let reference = plan.reference(PolicyKind::Scip, total_capacity);
    for (shard, (snap, (in_ram, m))) in stats
        .shards
        .iter()
        .zip(in_ram_stats.shards.iter().zip(&reference.per_shard))
        .enumerate()
    {
        assert_eq!(
            (snap.hits, snap.misses, snap.hit_bytes, snap.miss_bytes),
            (
                in_ram.hits,
                in_ram.misses,
                in_ram.hit_bytes,
                in_ram.miss_bytes
            ),
            "shard {shard}: streamed feed diverged from in-RAM feed"
        );
        if let Some(diff) = ledger_diff(shard, snap, m) {
            panic!("streamed feed: {diff}");
        }
    }
}

/// An oracle-free factory feeds a streamed trace with no ShardPlan (no
/// in-RAM trace at all): the daemon still accepts everything. This is
/// the production-scale path (`scipbench`'s `serve_*` workloads build
/// their daemons the same way).
#[test]
fn oracle_free_streamed_feed_accepts_everything() {
    let trace = small_trace(12_000, 23);
    let cols = TraceColumns::from_requests(&trace);
    let cfg = DaemonConfig {
        shards: 2,
        total_capacity: 1 << 20,
        ..DaemonConfig::default()
    };
    let factory = oracle_free_factory(PolicyKind::TinyLfu, trace.len() as u64, cfg.seed);
    let daemon = Daemon::spawn(cfg.clone(), factory).unwrap();
    let chunks = chunked(&cols, 999).into_iter().map(Ok::<_, TraceError>);
    let report = feed_stream(&daemon, chunks, FAIL_FAST).unwrap();
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    report.check_against(&stats.shards, true).unwrap();
    assert_eq!(report.total_accepted(), trace.len() as u64);
}

/// A stream error aborts the feed: the error surfaces, and only the
/// requests from chunks before it ever reached the daemon.
#[test]
fn stream_error_aborts_feed_after_prior_chunks() {
    let trace = small_trace(6_000, 29);
    let cols = TraceColumns::from_requests(&trace);
    let good = chunked(&cols, 1_000);
    let fed_before_error: usize = good[..3].iter().map(|c| c.len()).sum();
    let chunks: Vec<Result<TraceColumns, TraceError>> = good
        .into_iter()
        .take(3)
        .map(Ok)
        .chain(std::iter::once(Err(TraceError::Io(std::io::Error::other(
            "disk went away",
        )))))
        .collect();
    let cfg = DaemonConfig {
        shards: 2,
        total_capacity: 1 << 20,
        ..DaemonConfig::default()
    };
    let factory = oracle_free_factory(PolicyKind::Lru, trace.len() as u64, cfg.seed);
    let daemon = Daemon::spawn(cfg.clone(), factory).unwrap();
    let err =
        feed_stream(&daemon, chunks, FAIL_FAST).expect_err("stream error must abort the feed");
    assert!(matches!(err, TraceError::Io(_)), "got {err:?}");
    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    let enqueued: u64 = stats.shards.iter().map(|s| s.enqueued).sum();
    assert_eq!(enqueued, fed_before_error as u64);
}
