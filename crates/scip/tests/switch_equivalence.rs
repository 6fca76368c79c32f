//! The §5 rollout node (`Scip::deploying_at`) is LRU until its deploy
//! tick: up to the tick it must match plain LRU outcome for outcome, so
//! the §5.2 deployment experiment measures the policy change and nothing
//! else.
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
fn deploying_later_is_lru_until_the_tick() {
    let (trace, capacity) = cdn_t();
    let deploy_at = trace.len() / 2;
    let mut node = Scip::deploying_at(capacity, deploy_at as u64, 42);
    let mut lru = Lru::new(capacity);
    let prefix = &trace[..deploy_at];
    assert_eq!(outcomes(&mut node, prefix), outcomes(&mut lru, prefix));
    assert_eq!(node.stats(), lru.stats());
}
