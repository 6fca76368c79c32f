//! End-to-end determinism and degradation checks for the `fig6_chaos`
//! study (small scale; the binary runs the full-size version).

use scip_repro::experiments::fig6_chaos;

#[test]
fn fig6_chaos_is_deterministic_and_calm_is_clean() {
    let a = fig6_chaos(20_000, 7);
    let b = fig6_chaos(20_000, 7);

    // Two same-seed runs produce the same study, field for field.
    assert_eq!(a, b);

    // The no-overhead gate: calm replay is bit-identical to the plain
    // path and serves everything.
    assert!(a.calm_matches_plain);
    assert!(a.calm_fully_available());
    for c in a.cells.iter().filter(|c| c.schedule == "calm") {
        assert_eq!(c.counters.failures, 0);
        assert_eq!(c.counters.stale_serves, 0);
        assert_eq!(c.counters.breaker_trips, 0);
        assert_eq!(c.counters.retries, 0);
        assert_eq!(c.counters.coalesced, 0);
    }

    // The brownout bites: open-circuit intervals, stale serves and an
    // availability dip, deterministically.
    let brown = a
        .cells
        .iter()
        .find(|c| c.schedule == "origin-brownout" && c.scip)
        .unwrap();
    assert!(brown.counters.breaker_trips > 0, "{:?}", brown.counters);
    assert!(brown.counters.stale_serves > 0, "{:?}", brown.counters);
    assert!(brown.stats.availability < 1.0);
    assert!(brown.stats.availability > 0.8, "graceful, not catastrophic");

    // OC churn fails over without losing a single request: the origin
    // stays up, so crashes only shift traffic deeper.
    let churn = a
        .cells
        .iter()
        .find(|c| c.schedule == "oc-churn" && c.scip)
        .unwrap();
    assert!(churn.counters.failovers > 0, "{:?}", churn.counters);
    assert!(churn.counters.node_resets > 0);
    assert_eq!(churn.stats.availability, 1.0, "{:?}", churn.counters);

    // A distinct seed yields a different study (the schedules moved).
    let c = fig6_chaos(20_000, 8);
    assert_ne!(a.cells, c.cells);
}
