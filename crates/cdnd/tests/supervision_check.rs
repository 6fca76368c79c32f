//! Supervision proofs under deterministic fault injection: crash
//! isolation preserves surviving-shard exactness (property test extending
//! `cdn-sim/tests/shard_check.rs`), also when the kill lands under the
//! batched feed; a kill inside a batch publishes exactly the served
//! prefix and hands the rest to the next incarnation; killed shards
//! restart empty (or warm, and then `Closed`
//! means the restore is over), the restart-storm breaker opens and is
//! operator-resettable, and the enqueue failpoint surfaces as a
//! client-visible fault.
//!
//! The failpoint registry is process-global, so every test serialises
//! on [`LOCK`] and clears the registry on entry and exit.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_cache::{AccessKind, CachePolicy, ObjectId, PolicyStats, Request};
use cdn_policies::replacement::Lru;
use cdn_sim::{OutageWindow, PolicyKind};
use cdnd::{
    feed, feed_batched, force_snapshot, ledger_diff, run_outages, worker_fault_key, Daemon,
    DaemonConfig, FeedMode, RestartConfig, ShardPlan, ShardSnapshot, ShardState, SnapshotConfig,
    SubmitError, FAIL_FAST, FP_ENQUEUE, FP_SHARD_WORKER, STAY_DOWN,
};
use proptest::prelude::*;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise on the registry and guarantee a clean slate before/after.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

/// Supervision config tuned for tests: near-instant restarts, a storm
/// breaker that stays out of the way unless a test wants it.
fn fast_restarts(storm_threshold: u32) -> RestartConfig {
    RestartConfig {
        backoff_base_ms: 1,
        backoff_max_ms: 8,
        storm_threshold,
        storm_window_ms: 60_000,
    }
}

/// Exactness-measuring feed: retry down/overloaded shards until accepted,
/// so every request reaches its shard in trace order.
fn await_recovery() -> FeedMode {
    FeedMode::AwaitRecovery {
        push_timeout: Duration::from_secs(1),
        retry: Duration::from_micros(500),
        give_up: Duration::from_secs(20),
    }
}

const QUIESCE: Duration = Duration::from_secs(30);

proptest! {
    // Each case spawns a daemon and real threads; a modest case count
    // still sweeps shard counts × kill positions × policies broadly.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded kill schedule against one shard, the surviving
    /// shards' daemon ledgers equal `run_sharded_serial` u64-for-u64, and
    /// the killed shard loses exactly the panicked requests (its cache
    /// restarts empty; every other accepted request is still served).
    #[test]
    fn kill_schedules_preserve_surviving_shard_exactness(
        pairs in proptest::collection::vec((0u64..150, 1u64..80), 50..600),
        shards in 2usize..5,
        victim_pick in 0usize..8,
        kill_fracs in proptest::collection::vec(0u64..1000, 1..3),
        policy_pick in 0usize..2,
    ) {
        let _g = exclusive();
        let kind = if policy_pick == 0 { PolicyKind::Lru } else { PolicyKind::Scip };
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        let cfg = DaemonConfig {
            shards,
            total_capacity: 2_000,
            queue_capacity: 4_096,
            worker_batch: 16,
            seed: 5,
            restart: fast_restarts(100),
            ..DaemonConfig::default()
        };
        let plan = ShardPlan::build(&trace, shards, cfg.seed);
        let victim = victim_pick % shards;
        // Kill positions inside the victim's stream, deduped; an empty
        // victim partition degenerates to a calm run.
        let victim_len = plan.shard_len(victim) as u64;
        let mut kill_ticks: Vec<u64> = kill_fracs
            .iter()
            .filter(|_| victim_len > 0)
            .map(|f| f * victim_len / 1000)
            .collect();
        kill_ticks.sort_unstable();
        kill_ticks.dedup();
        let kills = kill_ticks.len() as u64;
        fault::arm(
            FP_SHARD_WORKER,
            FaultRule::OnKeys(
                kill_ticks.iter().map(|t| worker_fault_key(victim, *t)).collect(),
                FaultAction::Panic("injected shard kill".into()),
            ),
        );

        let daemon = Daemon::spawn(cfg.clone(), plan.factory(kind)).unwrap();
        let report = feed(&daemon, &trace, await_recovery());
        for shard in 0..shards {
            prop_assert!(daemon.await_quiesced(shard, QUIESCE), "shard {} stuck", shard);
        }
        let stats = daemon.shutdown();
        prop_assert_eq!(fault::fired(FP_SHARD_WORKER), kills);
        fault::clear();

        // Every request was eventually accepted (retries outlast backoff).
        prop_assert_eq!(report.total_accepted(), trace.len() as u64);
        report.check_against(&stats.shards, false).unwrap();

        let reference = plan.reference(kind, cfg.total_capacity);
        for shard in 0..shards {
            let snap = &stats.shards[shard];
            if shard == victim {
                // The panicked requests are lost — everything else served.
                prop_assert_eq!(snap.lost, kills, "victim lost");
                prop_assert_eq!(snap.crashes, kills, "victim crashes");
                prop_assert_eq!(snap.restarts, kills, "victim restarts");
                prop_assert_eq!(
                    snap.processed,
                    plan.shard_len(victim) as u64 - kills,
                    "victim processed"
                );
            } else {
                prop_assert_eq!(snap.crashes, 0, "survivor {} crashed", shard);
                if let Some(diff) = ledger_diff(shard, snap, &reference.per_shard[shard]) {
                    panic!("{}", diff);
                }
            }
        }
    }
}

/// A killed shard restarts with an empty cache: objects hot before the
/// crash miss after it, and the lost request is exactly the panicked one.
#[test]
fn killed_shard_restarts_empty() {
    let _g = exclusive();
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: 1 << 20,
        restart: fast_restarts(100),
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(
        &(0..8u64)
            .map(|t| Request::new(t, 1, 100))
            .collect::<Vec<_>>(),
        1,
        cfg.seed,
    );
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();
    let submit = |id: u64| {
        let req = Request::new(0, id, 100);
        loop {
            match daemon.submit(req) {
                Ok(_) => return,
                Err((_, SubmitError::Down)) => {
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err((_, e)) => panic!("unexpected submit error: {e:?}"),
            }
        }
    };
    // Warm object 1: 1 miss + 4 hits.
    for _ in 0..5 {
        submit(1);
    }
    assert!(daemon.await_quiesced(0, QUIESCE));
    assert_eq!(daemon.stats().shards[0].hits, 4);
    assert!(daemon.stats().shards[0].resident_objects >= 1);

    // Kill the worker on its 6th request (local tick 5), then re-request
    // the warm object: the replacement's cache is empty, so it misses.
    fault::arm(
        FP_SHARD_WORKER,
        FaultRule::OnKeys(
            vec![worker_fault_key(0, 5)],
            FaultAction::Panic("injected kill".into()),
        ),
    );
    submit(2); // lost to the crash
    submit(1); // retried until the restarted worker accepts it
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    fault::clear();
    let s = &stats.shards[0];
    assert_eq!(s.crashes, 1);
    assert_eq!(s.restarts, 1);
    assert_eq!(s.lost, 1);
    assert_eq!(s.processed, 6); // 5 warmup + post-restart re-request
    assert_eq!(s.hits, 4, "post-restart request must miss an empty cache");
    assert_eq!(s.misses, 2); // initial warm miss + post-restart miss
}

/// `Closed` after a restart means the warm restore is over: the moment a
/// revived shard reads `Closed`, its `restored_*` / `epochs_discarded`
/// counters are that incarnation's final ones. (Were `Closed` published
/// before the restore — by whoever spawns the replacement, say — the
/// restore would race this read; 50 rounds make that all but certain to
/// show.)
#[test]
fn closed_after_restart_means_restore_finished() {
    let _g = exclusive();
    let dir =
        std::env::temp_dir().join(format!("cdnd-test-closed-restored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: 4 << 20,
        queue_capacity: 8_192,
        restart: STAY_DOWN,
        snap: SnapshotConfig {
            interval: 1 << 40, // only forced epochs
            keep: 2,
            dir: Some(dir.clone()),
        },
        ..DaemonConfig::default()
    };
    // A few thousand residents, so a restore takes long enough to lose
    // a race against; then 50 requests that each kill the shard.
    const WARM: usize = 5_000;
    let mut trace: Vec<Request> = (0..WARM as u64).map(|t| Request::new(t, t, 100)).collect();
    trace.extend((0..50).map(|_| Request::new(0, 1, 100)));
    let windows: Vec<OutageWindow> = (WARM..trace.len())
        .map(|crash_index| OutageWindow {
            shard: 0,
            crash_index,
            end_index: crash_index + 1,
        })
        .collect();
    let plan = ShardPlan::build(&trace, 1, cfg.seed);
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();

    // Snapshot before each kill; read the counters the moment the
    // revived shard is `Closed` — no settling sleep, no poll.
    let mut revived = Vec::new();
    let (_, kills) = run_outages(
        &daemon,
        &trace,
        &windows,
        |_| force_snapshot(&daemon, 0),
        |_| revived.push(daemon.stats().shards[0]),
    );
    let stats = daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(kills, 50);
    // `restored_objects` is cumulative and moves only during a restore.
    let mut restored = 0;
    for (round, after) in revived.iter().enumerate() {
        assert!(
            after.restored_objects > restored,
            "round {round}: shard is Closed but its warm restore has not been counted"
        );
        assert_eq!(after.epochs_discarded, 0, "round {round}");
        restored = after.restored_objects;
    }
    assert_eq!(
        (stats.shards[0].crashes, stats.shards[0].restarts),
        (50, 50)
    );
}

/// The outage executor is exact: the same two-outage schedule (failover
/// off, one outage per shard) on the same trace leaves the same client
/// report and the same shard counters run after run, and what was
/// rejected is what the windows say — every request of a down shard
/// strictly inside its window, no other.
#[test]
fn outage_schedule_repeats_exactly() {
    let _g = exclusive();
    let shards = 2usize;
    let trace: Vec<Request> = (0..8_000u64)
        .map(|t| Request::new(t, t * 13 % 700, 1 + t % 40))
        .collect();
    let cfg = DaemonConfig {
        shards,
        total_capacity: 4_000,
        worker_batch: 16,
        restart: STAY_DOWN,
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(&trace, shards, cfg.seed);
    let n = trace.len();
    let windows = [
        OutageWindow::first_in(&trace, shards, 0, n / 5..2 * n / 5).unwrap(),
        OutageWindow::first_in(&trace, shards, 1, 3 * n / 5..4 * n / 5).unwrap(),
    ];
    let run = || {
        let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
        let (report, kills) = run_outages(&daemon, &trace, &windows, |_| {}, |_| {});
        assert_eq!(kills, 2);
        // The ring's high-water mark is the one timing-dependent counter.
        let ledgers: Vec<ShardSnapshot> = (daemon.shutdown().shards.into_iter())
            .map(|s| ShardSnapshot { peak_depth: 0, ..s })
            .collect();
        (report, ledgers)
    };
    let (first, again) = (run(), run());
    assert_eq!(first, again);

    let (report, ledgers) = first;
    report.check_against(&ledgers, true).unwrap();
    assert_eq!(report.outage_windows, 2);
    assert_eq!(report.outside_availability(), 1.0);
    for w in &windows {
        let down = (w.crash_index + 1..w.end_index)
            .filter(|&i| cdn_cache::key_shard(trace[i].id.0, shards) == w.shard)
            .count() as u64;
        assert_eq!(report.per_shard[w.shard].rejected_down, down, "{w:?}");
        assert_eq!(ledgers[w.shard].lost, 1, "{w:?}");
    }
}

/// A shard killed while the client feeds through the batched fast path
/// ([`Daemon::submit_batch`] — the submit path the benchmark's saturated
/// workload measures): the fast path stops at the dead shard and hands
/// what is left to the per-request path, so exactly the crash request is
/// lost, every refusal is a counted `Down`, what the victim's ring still
/// held is counted at shutdown, and the survivors never notice.
#[test]
fn kill_under_batched_feed_loses_one_request_and_no_count() {
    let _g = exclusive();
    let shards = 3usize;
    let trace: Vec<Request> = (0..20_000u64)
        .map(|t| Request::new(t, t * 13 % 900, 1 + t % 40))
        .collect();
    let cfg = DaemonConfig {
        shards,
        total_capacity: 6_000,
        // Shallower than a feed window's per-shard run: the feeder is never
        // more than a ring ahead, so the kill lands while it is mid-feed
        // (and, run to run, mid-backpressure-wait inside `submit_batch`).
        queue_capacity: 256,
        worker_batch: 16,
        restart: STAY_DOWN,
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(&trace, shards, cfg.seed);
    let victim = 1usize;
    fault::arm(
        FP_SHARD_WORKER,
        FaultRule::OnKeys(
            vec![worker_fault_key(victim, plan.shard_len(victim) as u64 / 2)],
            FaultAction::Panic("injected kill under the batched feed".into()),
        ),
    );
    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
    let report = feed_batched(&daemon, &trace, FAIL_FAST);
    // Shutdown drains the survivors; the victim stays down (`STAY_DOWN`).
    let stats = daemon.shutdown();
    assert_eq!(fault::fired(FP_SHARD_WORKER), 1);
    fault::clear();

    report.check_against(&stats.shards, true).unwrap();
    let reference = plan.reference(PolicyKind::Scip, cfg.total_capacity);
    for (shard, snap) in stats.shards.iter().enumerate() {
        assert_eq!(
            snap.enqueued,
            snap.processed + snap.lost + snap.dropped_at_shutdown,
            "shard {shard}: an accepted request went uncounted"
        );
        if shard == victim {
            assert_eq!((snap.lost, snap.crashes, snap.restarts), (1, 1, 0));
            assert!(
                snap.rejected_down > 0,
                "the rest of the victim's stream must have been refused, not queued"
            );
        } else {
            assert_eq!((snap.crashes, snap.dropped_at_shutdown), (0, 0));
            if let Some(diff) = ledger_diff(shard, snap, &reference.per_shard[shard]) {
                panic!("{diff}");
            }
        }
    }
}

/// An LRU that logs every request it serves, across incarnations.
struct Logged {
    inner: Lru,
    log: Arc<Mutex<Vec<Request>>>,
}

impl CachePolicy for Logged {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.log.lock().unwrap().push(*req);
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
}

/// (processed, hits, misses, hit bytes, miss bytes) of `reqs` replayed
/// through a fresh library LRU.
fn lru_ledger(capacity: u64, reqs: &[Request]) -> (u64, u64, u64, u64, u64) {
    let mut lru = Lru::new(capacity);
    let mut l = (0, 0, 0, 0, 0);
    for req in reqs {
        l.0 += 1;
        if lru.on_request(req).is_hit() {
            l.1 += 1;
            l.3 += req.size;
        } else {
            l.2 += 1;
            l.4 += req.size;
        }
    }
    l
}

fn ledger_of(s: &ShardSnapshot) -> (u64, u64, u64, u64, u64) {
    (s.processed, s.hits, s.misses, s.hit_bytes, s.miss_bytes)
}

/// A kill at tick `k` inside one popped batch: the worker publishes
/// exactly the `k` requests it served (ledger == a library replay of
/// them), counts the panicking one `lost`, and returns the rest of the
/// batch to the ring, where the next incarnation serves it in order from
/// tick `k + 1` on a cold cache.
#[test]
fn kill_mid_batch_publishes_the_served_prefix() {
    let _g = exclusive();
    const BATCH: u64 = 48;
    const K: u64 = 29;
    // Eleven objects, 1–13 bytes, 60 bytes of cache: hits, misses and
    // evictions all inside the prefix.
    let trace: Vec<Request> = (0..BATCH)
        .map(|t| Request::new(t, t * 7 % 11, 1 + t % 13))
        .collect();
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: 60,
        worker_batch: 64,
        // Down until the reset below, so the crash state can be read.
        restart: STAY_DOWN,
        ..DaemonConfig::default()
    };
    let capacity = cfg.per_shard_capacity();
    let log: Arc<Mutex<Vec<Request>>> = Arc::default();
    let factory = {
        let log = Arc::clone(&log);
        Arc::new(
            move |_shard: usize, capacity: u64| -> Box<dyn CachePolicy> {
                Box::new(Logged {
                    inner: Lru::new(capacity),
                    log: Arc::clone(&log),
                })
            },
        )
    };
    let daemon = Daemon::spawn(cfg, factory).unwrap();
    // Queue the whole batch behind a pause, so the worker pops it at once.
    daemon.pause_shard(0);
    for req in &trace {
        daemon.submit(*req).unwrap();
    }
    fault::arm(
        FP_SHARD_WORKER,
        FaultRule::OnKeys(
            vec![worker_fault_key(0, K)],
            FaultAction::Panic("injected kill mid-batch".into()),
        ),
    );
    daemon.resume_shard(0);
    assert!(daemon.await_shard_state(0, ShardState::Backoff, QUIESCE));
    let down = daemon.stats().shards[0];
    let prefix = lru_ledger(capacity, &trace[..K as usize]);
    assert_eq!(ledger_of(&down), prefix, "the served prefix, exactly");
    assert_eq!((down.lost, down.crashes, down.restarts), (1, 1, 0));
    assert_eq!(down.depth as u64, BATCH - K - 1, "the rest went back");

    daemon.reset_shard(0);
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    assert_eq!(fault::fired(FP_SHARD_WORKER), 1);
    fault::clear();

    // Ticks 0..k in the first incarnation, then k + 1.. in the second,
    // each request the one submitted at that position.
    let served: Vec<(u64, u64)> = log
        .lock()
        .unwrap()
        .iter()
        .map(|r| (r.tick, r.id.0))
        .collect();
    let expect: Vec<(u64, u64)> = (0..K)
        .chain(K + 1..BATCH)
        .map(|t| (t, trace[t as usize].id.0))
        .collect();
    assert_eq!(served, expect);
    let s = &stats.shards[0];
    assert_eq!((s.lost, s.crashes, s.restarts), (1, 1, 1));
    let tail = lru_ledger(capacity, &trace[K as usize + 1..]);
    assert_eq!(
        ledger_of(s),
        (
            prefix.0 + tail.0,
            prefix.1 + tail.1,
            prefix.2 + tail.2,
            prefix.3 + tail.3,
            prefix.4 + tail.4
        ),
        "the tail is served by a cold cache"
    );
}

/// Three crashes against a threshold-2 breaker: the first two restart
/// with backoff, the third trips Storm-Open and the shard stays down —
/// until `reset_shard`, which clears the history and revives it.
#[test]
fn storm_breaker_opens_and_reset_revives() {
    let _g = exclusive();
    let cfg = DaemonConfig {
        shards: 1,
        restart: fast_restarts(2),
        ..DaemonConfig::default()
    };
    let plan = ShardPlan::build(
        &(0..4u64)
            .map(|t| Request::new(t, t, 100))
            .collect::<Vec<_>>(),
        1,
        cfg.seed,
    );
    // Kill the first three requests the worker ever processes.
    fault::arm(
        FP_SHARD_WORKER,
        FaultRule::OnKeys(
            (0..3).map(|t| worker_fault_key(0, t)).collect(),
            FaultAction::Panic("injected storm".into()),
        ),
    );
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();
    for id in 0..3u64 {
        loop {
            match daemon.submit(Request::new(0, id, 100)) {
                Ok(_) => break,
                Err((_, SubmitError::Down)) => {
                    if daemon.shard_state(0) == ShardState::StormOpen {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err((_, e)) => panic!("unexpected submit error: {e:?}"),
            }
        }
    }
    assert!(
        daemon.await_shard_state(0, ShardState::StormOpen, QUIESCE),
        "breaker never opened"
    );
    // Storm-Open is stable: no restart happens on its own.
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(daemon.shard_state(0), ShardState::StormOpen);
    assert!(matches!(
        daemon.submit(Request::new(0, 9, 100)),
        Err((0, SubmitError::Down))
    ));

    // Operator reset: history cleared, worker respawned, serving again.
    daemon.reset_shard(0);
    assert!(
        daemon.await_shard_state(0, ShardState::Closed, QUIESCE),
        "reset did not revive the shard"
    );
    loop {
        match daemon.submit(Request::new(0, 3, 100)) {
            Ok(_) => break,
            Err((_, SubmitError::Down)) => std::thread::sleep(Duration::from_micros(500)),
            Err((_, e)) => panic!("unexpected submit error: {e:?}"),
        }
    }
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    fault::clear();
    let s = &stats.shards[0];
    assert_eq!(s.crashes, 3);
    assert_eq!(s.restarts, 3); // two backoff restarts + the reset revival
    assert!(s.processed >= 1, "post-reset request must be served");
}

/// The `cdnd.enqueue` failpoint turns submits into client-visible
/// transport faults, counted per shard; non-matching keys are untouched
/// and non-Error actions are ignored at this site.
#[test]
fn enqueue_failpoint_faults_submit() {
    let _g = exclusive();
    let cfg = DaemonConfig {
        shards: 1,
        ..DaemonConfig::default()
    };
    let factory = Arc::new(|_shard: usize, capacity: u64| -> Box<dyn CachePolicy> {
        Box::new(scip::Scip::deploying_at(capacity, u64::MAX, 1))
    });
    let daemon = Daemon::spawn(cfg, factory).unwrap();
    fault::arm(
        FP_ENQUEUE,
        FaultRule::OnKeys(vec![7], FaultAction::Error("injected enqueue fault".into())),
    );
    assert!(matches!(
        daemon.submit(Request {
            tick: 0,
            id: ObjectId(7),
            size: 100,
            wall_secs: 0.0
        }),
        Err((0, SubmitError::Faulted))
    ));
    assert!(daemon
        .submit(Request {
            tick: 0,
            id: ObjectId(8),
            size: 100,
            wall_secs: 0.0
        })
        .is_ok());
    assert_eq!(fault::fired(FP_ENQUEUE), 1);
    // A Panic rule at this site is not an enqueue-fault: ignored.
    fault::arm(
        FP_ENQUEUE,
        FaultRule::OnKeys(vec![9], FaultAction::Panic("ignored here".into())),
    );
    assert!(daemon
        .submit(Request {
            tick: 0,
            id: ObjectId(9),
            size: 100,
            wall_secs: 0.0
        })
        .is_ok());
    assert!(daemon.await_quiesced(0, QUIESCE));
    let stats = daemon.shutdown();
    fault::clear();
    assert_eq!(stats.shards[0].faulted_enqueues, 1);
    assert_eq!(stats.shards[0].enqueued, 2);
    assert_eq!(stats.shards[0].processed, 2);
}
