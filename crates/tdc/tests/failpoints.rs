//! Composition of the scheduled fault model with the `cdn_cache::fault`
//! failpoint registry: the resilient path consults the
//! `tdc.origin_fetch` site (keyed by request tick) on every origin
//! attempt, so tests can force failures at exact ticks without authoring
//! a schedule.

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_cache::object::micro_trace;
use tdc::{FaultSchedule, LatencyModel, ResilienceConfig, ResilientTdc, ServedBy, TdcConfig};

const SITE: &str = "tdc.origin_fetch";

fn system() -> ResilientTdc {
    ResilientTdc::new(
        TdcConfig {
            oc_nodes: 2,
            oc_capacity: 1_000,
            dc_capacity: 3_000,
            deploy_at: u64::MAX,
            seed: 1,
        },
        LatencyModel::default(),
        FaultSchedule::calm(),
        ResilienceConfig::default(),
    )
    .unwrap()
}

/// One test drives all scenarios: the registry is process-global, so
/// splitting these into separate `#[test]`s would race on the site.
#[test]
fn failpoints_compose_with_the_resilient_path() {
    fault::clear();

    // Transient: the first origin attempt per tick errors; the bounded
    // retry absorbs it and the request is still served from origin.
    fault::arm(
        SITE,
        FaultRule::FirstAttempts(1, FaultAction::Error("flaky origin".into())),
    );
    let mut rt = system();
    let reqs = micro_trace(&[(1, 10), (2, 10)]);
    let o = rt.serve(&reqs[0]);
    assert_eq!(o.served, Some(ServedBy::Origin));
    assert!(!o.failed);
    let c = rt.counters();
    assert_eq!(c.retries, 1, "{c:?}");
    assert_eq!(c.timeouts, 1);
    assert_eq!(c.origin_fetches, 1);
    assert_eq!(fault::fired(SITE), 1);
    // The injected timeout shows up as accrued latency.
    let calm_origin = LatencyModel::default().latency_ms(10, ServedBy::Origin);
    assert!(o.latency_ms > calm_origin);

    // Hard: every attempt for tick 1 errors; retries are exhausted and
    // the request fails (nothing is stale yet).
    fault::disarm(SITE);
    fault::arm(
        SITE,
        FaultRule::OnKeys(vec![1], FaultAction::Error("dead origin".into())),
    );
    let o = rt.serve(&reqs[1]);
    assert!(o.failed, "{o:?}");
    assert_eq!(o.served, None);
    let c = rt.counters();
    assert_eq!(c.failures, 1);
    assert_eq!(c.retries, 3, "two more retries on the doomed request");
    assert_eq!(fault::fired(SITE), 3, "initial attempt + 2 retries");
    // A failed fetch must not populate any cache tier: the same object
    // succeeds from origin (not OC/DC) once the failpoint is gone.
    fault::disarm(SITE);
    let mut again = reqs[1];
    again.tick = 50;
    again.wall_secs = 50.0;
    let o = rt.serve(&again);
    assert_eq!(o.served, Some(ServedBy::Origin), "{o:?}");

    fault::clear();
}
