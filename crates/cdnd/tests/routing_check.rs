//! Failover-routing proofs under deterministic fault injection: the
//! `cdnd.route` failpoint forces failover without a real outage, routing
//! stays inert when disabled, and a real mid-trace shard kill with
//! failover enabled ([`cdnd::run_outages`]) keeps *every* shard's ledger
//! u64-exact against the routing-aware serial reference
//! ([`cdn_sim::run_routed_serial`]) — overlay misses included.
//!
//! The failpoint registry is process-global, so every test serialises
//! on [`LOCK`] and clears the registry on entry.

use std::sync::Mutex;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_cache::{key_shard, route_with_failover, Request};
use cdn_sim::{run_routed_serial, OutageWindow, PolicyKind};
use cdn_trace::{GeneratorConfig, TraceGenerator};
use cdnd::{
    quiesce_all, route_fault_key, routed_ledger_diff, run_outages, Daemon, DaemonConfig,
    RouteConfig, ShardPlan, FP_ROUTE, STAY_DOWN,
};

static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

fn routed_cfg(shards: usize, total_capacity: u64, seed: u64) -> DaemonConfig {
    DaemonConfig {
        shards,
        total_capacity,
        queue_capacity: 4_096,
        worker_batch: 16,
        seed,
        route: RouteConfig { failover: true },
        restart: STAY_DOWN,
        ..DaemonConfig::default()
    }
}

/// The route failpoint forces a failover decision with no real outage:
/// the request is accepted on its rendezvous-ordered secondary, counted
/// as failover-in there, and the next (unforced) submit lands on the
/// primary again.
#[test]
fn fp_route_forces_failover_to_rendezvous_secondary() {
    let _g = exclusive();
    let shards = 4usize;
    let cfg = routed_cfg(shards, 1 << 20, 3);
    let plan = ShardPlan::build(&[Request::new(0, 1, 100)], shards, cfg.seed);
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();

    let key = 42u64;
    let primary = key_shard(key, shards);
    let secondary =
        route_with_failover(key, shards, |s| s == primary).expect("secondary must exist");
    assert_ne!(secondary, primary);

    // Submit ordinals start at 0; force only the first decision.
    fault::arm(
        FP_ROUTE,
        FaultRule::OnKeys(
            vec![route_fault_key(primary, 0)],
            FaultAction::Error("forced primary-down".into()),
        ),
    );
    let acc = daemon.submit(Request::new(0, key, 100)).unwrap();
    assert_eq!(acc, secondary, "forced failover must pick the secondary");
    // Second decision (seq 1) is unforced: primary serves again —
    // revival flip-back needs no state, routing is pure.
    let acc = daemon.submit(Request::new(1, key, 100)).unwrap();
    assert_eq!(acc, primary);
    assert_eq!(fault::fired(FP_ROUTE), 1);
    fault::clear();

    quiesce_all(&daemon);
    let stats = daemon.shutdown();
    assert_eq!(stats.shards[secondary].failover_in, 1);
    assert_eq!(stats.shards[primary].failover_in, 0);
    assert_eq!(stats.total_failover(), 1);
}

/// With failover routing disabled the route failpoint is never even
/// consulted: the decision sequence only advances for routed daemons.
#[test]
fn routing_off_never_consults_the_route_failpoint() {
    let _g = exclusive();
    let shards = 2usize;
    let mut cfg = routed_cfg(shards, 1 << 20, 3);
    cfg.route = RouteConfig { failover: false };
    let plan = ShardPlan::build(&[Request::new(0, 1, 100)], shards, cfg.seed);
    let daemon = Daemon::spawn(cfg, plan.factory(PolicyKind::Lru)).unwrap();

    // Arm every possible decision ordinal for the keys below: if the
    // router consulted the failpoint at all, it would fire.
    fault::arm(
        FP_ROUTE,
        FaultRule::OnKeys(
            (0..16u64)
                .flat_map(|seq| (0..shards).map(move |p| route_fault_key(p, seq)))
                .collect(),
            FaultAction::Error("forced primary-down".into()),
        ),
    );
    for i in 0..16u64 {
        let shard = daemon.submit(Request::new(i, i, 100)).unwrap();
        assert_eq!(shard, key_shard(i, shards), "must stay on the primary");
    }
    assert_eq!(fault::fired(FP_ROUTE), 0, "failpoint consulted while off");
    fault::clear();
    daemon.shutdown();
}

/// A real kill with failover enabled, the victim down from the middle
/// request to the end of the trace: its crash request is lost, every
/// later victim-primary request is served cold on its rendezvous
/// secondary, and *all four* ledgers — survivors plus the overlay work
/// they absorbed — equal `run_routed_serial` u64-for-u64. The client sees
/// zero `Down` rejections: availability inside the outage is 100 % of
/// admitted requests.
#[test]
fn kill_with_failover_matches_routed_serial_reference() {
    let _g = exclusive();
    let shards = 4usize;
    let trace = TraceGenerator::generate(GeneratorConfig {
        requests: 12_000,
        core_objects: 1_500,
        seed: 19,
        ..GeneratorConfig::default()
    });
    let cfg = routed_cfg(shards, 2 << 20, 19);
    let plan = ShardPlan::build(&trace, shards, cfg.seed);
    // The middle request kills its own shard — a victim guaranteed to
    // own traffic — and nothing revives it while requests still arrive.
    let crash_index = trace.len() / 2;
    let victim = key_shard(trace[crash_index].id.0, shards);
    let windows = [OutageWindow {
        shard: victim,
        crash_index,
        end_index: trace.len(),
    }];

    let daemon = Daemon::spawn(cfg.clone(), plan.factory(PolicyKind::Scip)).unwrap();
    let (report, kills) = run_outages(&daemon, &trace, &windows, |_| {}, |_| {});
    let stats = daemon.shutdown();
    assert_eq!(kills, 1);

    // Zero Down rejections: every admitted request was answered.
    for tally in &report.per_shard {
        assert_eq!(tally.rejected_down, 0);
        assert_eq!(tally.shed, 0);
    }
    assert!(report.failover_accepted > 0, "no failover traffic observed");
    assert_eq!(report.outage_windows, 1);
    assert_eq!(report.inside_availability(), 1.0);
    report.check_against(&stats.shards, true).unwrap();

    // The routing-aware serial reference reproduces every ledger.
    let reference = run_routed_serial(
        PolicyKind::Scip,
        cfg.total_capacity,
        &trace,
        shards,
        cfg.seed,
        &windows,
    );
    assert_eq!(reference.unroutable, 0);
    assert_eq!(reference.per_shard[victim].lost, 1);
    let total_overlay: u64 = reference.per_shard.iter().map(|l| l.failover_in).sum();
    assert_eq!(report.failover_accepted, total_overlay);
    for shard in 0..shards {
        if let Some(diff) =
            routed_ledger_diff(shard, &stats.shards[shard], &reference.per_shard[shard])
        {
            panic!("{diff}");
        }
    }
}
