//! The mid-timeline policy switch is *warm*: flipping `deploy_at` on a
//! node that has already replayed the pre-deploy prefix must behave
//! exactly like a node that knew the deploy tick from the start. This is
//! what makes the §5.2 deployment experiment meaningful — the switch
//! itself injects no discontinuity beyond the policy change.
//!
//! The two ends of the deploy-tick axis are other policies outright:
//! never deploying is LRU, deploying at tick 0 is plain SCIP.

use cdn_cache::{AccessKind, CachePolicy, Request};
use cdn_policies::replacement::Lru;
use cdn_trace::{TraceGenerator, Workload};
use scip::{Scip, ScipConfig};

/// 30 k CDN-T requests and a cache of 2 % of their working set.
fn cdn_t() -> (Vec<Request>, u64) {
    let profile = Workload::CdnT.profile();
    let trace = TraceGenerator::generate(profile.config(30_000, 23));
    let stats = cdn_trace::TraceStats::compute(&trace);
    let capacity = stats.cache_bytes_for_fraction(0.02);
    (trace, capacity)
}

fn outcomes(policy: &mut dyn CachePolicy, trace: &[Request]) -> Vec<AccessKind> {
    trace.iter().map(|r| policy.on_request(r)).collect()
}

#[test]
fn never_deploying_is_lru_outcome_for_outcome() {
    let (trace, capacity) = cdn_t();
    let mut node = Scip::deploying_at(capacity, u64::MAX, 42);
    let mut lru = Lru::new(capacity);
    assert_eq!(outcomes(&mut node, &trace), outcomes(&mut lru, &trace));
    assert_eq!(node.stats(), lru.stats());
}

#[test]
fn deploying_at_tick_zero_is_plain_scip() {
    let (trace, capacity) = cdn_t();
    let cfg = ScipConfig {
        seed: 42,
        ..ScipConfig::default()
    };
    let mut node = Scip::deploying_at(capacity, 0, 42);
    let mut scip = Scip::with_config(capacity, cfg);
    assert_eq!(outcomes(&mut node, &trace), outcomes(&mut scip, &trace));
    assert_eq!(node.stats(), scip.stats());
    assert_eq!(node.core().export_learned(), scip.core().export_learned());
}

#[test]
fn mid_timeline_switch_is_identical_to_standalone_runs() {
    let (trace, capacity) = cdn_t();
    let deploy_at = (trace.len() / 2) as u64;

    // A: knows the deploy tick from the start.
    let mut a = Scip::deploying_at(capacity, deploy_at, 42);
    // B: starts as never-deploying LRU, gets the deploy tick mid-run.
    let mut b = Scip::deploying_at(capacity, u64::MAX, 42);

    let split = deploy_at as usize;
    let mut a_prefix: Vec<AccessKind> = Vec::with_capacity(split);
    let mut b_prefix: Vec<AccessKind> = Vec::with_capacity(split);
    for r in &trace[..split] {
        a_prefix.push(a.on_request(r));
        b_prefix.push(b.on_request(r));
    }
    assert_eq!(a_prefix, b_prefix, "pre-deploy behavior is plain LRU");
    assert_eq!(a.stats(), b.stats());

    // Flip B's deploy tick mid-timeline — the warm switch.
    b.set_deploy_tick(deploy_at);

    let mut a_suffix: Vec<AccessKind> = Vec::new();
    let mut b_suffix: Vec<AccessKind> = Vec::new();
    for r in &trace[split..] {
        a_suffix.push(a.on_request(r));
        b_suffix.push(b.on_request(r));
    }
    assert_eq!(a_suffix, b_suffix, "post-deploy decisions bit-identical");
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.used_bytes(), b.used_bytes());
    // Sanity: the suffix actually exercised SCIP (some activity happened).
    assert!(a_suffix.iter().any(|k| k.is_hit()));
    assert!(a_suffix.iter().any(|k| !k.is_hit()));
}
