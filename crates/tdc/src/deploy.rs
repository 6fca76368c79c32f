//! The §5.2 deployment experiment: replay a diurnal trace through TDC,
//! deploy SCIP mid-timeline, and report BTO bandwidth, BTO ratio and mean
//! latency time series plus before/after aggregates (Figure 6).
//!
//! Two runners share one timeline loop:
//!
//! - [`run_deployment`] — the plain happy-path replay (the original).
//! - [`run_deployment_resilient`] — the same replay through
//!   [`ResilientTdc`] under a [`FaultSchedule`]. Under
//!   [`FaultSchedule::calm`] its report is bit-identical to the plain one
//!   (same buckets, same aggregates, all degradation counters zero);
//!   tests pin this down.

use cdn_cache::{LatencyHistogram, Request};

use crate::fault::FaultSchedule;
use crate::latency::{LatencyModel, ServedBy};
use crate::resilience::{ResilienceConfig, ResilienceCounters, ResilientTdc, ServeOutcome};
use crate::system::{ConfigError, Tdc, TdcConfig};

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeploymentConfig {
    /// System shape (its `deploy_at` is overridden by `deploy_fraction`).
    pub tdc: TdcConfig,
    /// Latency model.
    pub latency: LatencyModel,
    /// Fraction of the trace after which SCIP deploys (paper: mid-run).
    pub deploy_fraction: f64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            tdc: TdcConfig::default(),
            latency: LatencyModel::default(),
            deploy_fraction: 0.5,
        }
    }
}

impl DeploymentConfig {
    /// Check every layer of the experiment config, returning the first
    /// structured rejection.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.tdc.validate()?;
        if !(self.deploy_fraction.is_finite() && self.deploy_fraction >= 0.0) {
            return Err(ConfigError::BadDeployFraction(self.deploy_fraction));
        }
        Ok(())
    }
}

/// One reporting bucket of the Figure 6 time series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Bucket start, wall seconds.
    pub start_secs: f64,
    /// Requests in the bucket.
    pub requests: u64,
    /// Requests that went back to origin (coalesced followers excluded —
    /// they issue no origin traffic of their own).
    pub bto_requests: u64,
    /// Bytes fetched from origin.
    pub bto_bytes: u64,
    /// Sum of user latencies, ms.
    pub latency_sum_ms: f64,
    /// Requests not served at all (resilient path only; 0 on the plain
    /// path and under a calm schedule).
    pub failed: u64,
    /// Requests answered from the stale store.
    pub stale: u64,
    /// Requests that rode an in-flight origin fetch.
    pub coalesced: u64,
}

impl Bucket {
    /// BTO ratio within the bucket.
    pub fn bto_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bto_requests as f64 / self.requests as f64
        }
    }

    /// BTO bandwidth in Gbps given the bucket width.
    pub fn bto_gbps(&self, bucket_secs: f64) -> f64 {
        self.bto_bytes as f64 * 8.0 / bucket_secs / 1e9
    }

    /// Mean user latency, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.requests as f64
        }
    }

    /// Fraction of requests answered (fresh or stale) rather than failed.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            1.0 - self.failed as f64 / self.requests as f64
        }
    }
}

/// Aggregate over a timeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// BTO (miss) ratio.
    pub bto_ratio: f64,
    /// Mean BTO bandwidth, Gbps.
    pub bto_gbps: f64,
    /// Mean user latency, ms.
    pub mean_latency_ms: f64,
    /// Fraction of requests answered (fresh or stale); 1.0 when no
    /// request failed.
    pub availability: f64,
    /// Median user latency, ms (histogram bucket upper bound).
    pub p50_ms: f64,
    /// 99th-percentile user latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile user latency, ms.
    pub p999_ms: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Time series.
    pub buckets: Vec<Bucket>,
    /// Bucket width used.
    pub bucket_secs: f64,
    /// Aggregate before the deployment.
    pub before: PhaseStats,
    /// Aggregate after the deployment.
    pub after: PhaseStats,
    /// Latency distribution before the deployment (full phase, no warmup
    /// skip — percentiles describe everything users experienced).
    pub hist_before: LatencyHistogram,
    /// Latency distribution after the deployment.
    pub hist_after: LatencyHistogram,
    /// Degradation/recovery event counts (all zero on the plain path).
    pub counters: ResilienceCounters,
}

impl DeploymentReport {
    /// Relative reduction helper: `(before − after) / before`.
    pub fn relative_reduction(before: f64, after: f64) -> f64 {
        if before == 0.0 {
            0.0
        } else {
            (before - after) / before
        }
    }

    /// Whole-timeline availability (every bucket, no warmup skip).
    pub fn availability(&self) -> f64 {
        let requests: u64 = self.buckets.iter().map(|b| b.requests).sum();
        let failed: u64 = self.buckets.iter().map(|b| b.failed).sum();
        if requests == 0 {
            1.0
        } else {
            1.0 - failed as f64 / requests as f64
        }
    }
}

fn phase_stats(buckets: &[Bucket], wall_span: f64, hist: &LatencyHistogram) -> PhaseStats {
    let requests: u64 = buckets.iter().map(|b| b.requests).sum();
    let bto: u64 = buckets.iter().map(|b| b.bto_requests).sum();
    let bytes: u64 = buckets.iter().map(|b| b.bto_bytes).sum();
    let lat: f64 = buckets.iter().map(|b| b.latency_sum_ms).sum();
    let failed: u64 = buckets.iter().map(|b| b.failed).sum();
    PhaseStats {
        bto_ratio: if requests == 0 {
            0.0
        } else {
            bto as f64 / requests as f64
        },
        bto_gbps: bytes as f64 * 8.0 / wall_span.max(1e-9) / 1e9,
        mean_latency_ms: if requests == 0 {
            0.0
        } else {
            lat / requests as f64
        },
        availability: if requests == 0 {
            1.0
        } else {
            1.0 - failed as f64 / requests as f64
        },
        p50_ms: hist.p50_ms(),
        p99_ms: hist.p99_ms(),
        p999_ms: hist.p999_ms(),
    }
}

/// Reporting buckets per timeline: a bucket is 1/48 of the trace's
/// wall-clock span.
const BUCKETS_PER_SPAN: f64 = 48.0;

/// The shared timeline loop: bucket accounting, before/after histograms
/// and phase aggregation over any per-request serving function.
fn run_timeline<F>(trace: &[Request], deploy_tick: u64, mut serve: F) -> DeploymentReport
where
    F: FnMut(&Request) -> ServeOutcome,
{
    let bucket_secs = (trace.last().expect("nonempty").wall_secs / BUCKETS_PER_SPAN).max(1e-6);
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut deploy_wall = f64::MAX;
    let mut hist_before = LatencyHistogram::new();
    let mut hist_after = LatencyHistogram::new();
    for r in trace {
        if r.tick == deploy_tick {
            deploy_wall = r.wall_secs;
        }
        let idx = (r.wall_secs / bucket_secs) as usize;
        while buckets.len() <= idx {
            buckets.push(Bucket {
                start_secs: buckets.len() as f64 * bucket_secs,
                ..Bucket::default()
            });
        }
        let o = serve(r);
        let b = &mut buckets[idx];
        b.requests += 1;
        b.latency_sum_ms += o.latency_ms;
        if o.served == Some(ServedBy::Origin) && !o.coalesced {
            b.bto_requests += 1;
        }
        b.bto_bytes += o.bto_bytes;
        if o.failed {
            b.failed += 1;
        }
        if o.stale {
            b.stale += 1;
        }
        if o.coalesced {
            b.coalesced += 1;
        }
        if r.tick < deploy_tick {
            hist_before.record(o.latency_ms);
        } else {
            hist_after.record(o.latency_ms);
        }
    }
    if deploy_wall == f64::MAX {
        deploy_wall = trace.last().expect("nonempty").wall_secs;
    }

    let split = buckets
        .iter()
        .position(|b| b.start_secs + bucket_secs > deploy_wall)
        .unwrap_or(buckets.len());
    // Skip the cold-start warmup (first 20 % of the before-phase buckets)
    // when aggregating, as the paper measures a warm production system.
    let warm = split / 5;
    let before = phase_stats(
        &buckets[warm..split],
        (split - warm).max(1) as f64 * bucket_secs,
        &hist_before,
    );
    let after = phase_stats(
        &buckets[split..],
        (buckets.len() - split).max(1) as f64 * bucket_secs,
        &hist_after,
    );
    DeploymentReport {
        buckets,
        bucket_secs,
        before,
        after,
        hist_before,
        hist_after,
        counters: ResilienceCounters::default(),
    }
}

/// Run the deployment replay (plain happy path, no fault model).
pub fn run_deployment(trace: &[Request], cfg: DeploymentConfig) -> DeploymentReport {
    assert!(!trace.is_empty());
    cfg.validate().expect("invalid DeploymentConfig");
    let deploy_tick = (trace.len() as f64 * cfg.deploy_fraction) as u64;
    let mut tdc_cfg = cfg.tdc;
    tdc_cfg.deploy_at = deploy_tick;
    let mut tdc = Tdc::new(tdc_cfg, cfg.latency);
    run_timeline(trace, deploy_tick, |r| {
        let (served, latency_ms) = tdc.serve(r);
        ServeOutcome {
            served: Some(served),
            latency_ms,
            stale: false,
            failed: false,
            coalesced: false,
            bto_bytes: if served == ServedBy::Origin {
                r.size
            } else {
                0
            },
        }
    })
}

/// Run the deployment replay through the resilient serving path under a
/// fault schedule. With [`FaultSchedule::calm`] the report is bit-identical
/// to [`run_deployment`]'s.
pub fn run_deployment_resilient(
    trace: &[Request],
    cfg: DeploymentConfig,
    schedule: FaultSchedule,
) -> Result<DeploymentReport, ConfigError> {
    assert!(!trace.is_empty());
    cfg.validate()?;
    let deploy_tick = (trace.len() as f64 * cfg.deploy_fraction) as u64;
    let mut tdc_cfg = cfg.tdc;
    tdc_cfg.deploy_at = deploy_tick;
    let mut rt = ResilientTdc::new(tdc_cfg, cfg.latency, schedule, ResilienceConfig)?;
    let mut report = run_timeline(trace, deploy_tick, |r| rt.serve(r));
    report.counters = rt.counters();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_trace::{TraceGenerator, Workload};

    #[test]
    fn deployment_improves_bto_and_latency() {
        let profile = Workload::CdnT.profile();
        let trace = TraceGenerator::generate(profile.config(120_000, 11));
        let stats = cdn_trace::TraceStats::compute(&trace);
        let cfg = DeploymentConfig {
            tdc: TdcConfig {
                oc_nodes: 2,
                oc_capacity: stats.cache_bytes_for_fraction(0.01),
                dc_capacity: stats.cache_bytes_for_fraction(0.04),
                deploy_at: u64::MAX,
                seed: 3,
            },
            ..DeploymentConfig::default()
        };
        let report = run_deployment(&trace, cfg);
        assert!(!report.buckets.is_empty());
        assert!(report.before.bto_ratio > 0.0);
        // SCIP should not make the system worse, and typically helps.
        assert!(
            report.after.bto_ratio <= report.before.bto_ratio + 0.02,
            "before {} after {}",
            report.before.bto_ratio,
            report.after.bto_ratio
        );
        assert!(report.after.mean_latency_ms <= report.before.mean_latency_ms * 1.1);
        // The plain path never degrades: full availability, zero counters.
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.counters, ResilienceCounters::default());
        assert!(report.before.p50_ms > 0.0);
        assert!(report.before.p50_ms <= report.before.p99_ms);
        assert!(report.before.p99_ms <= report.before.p999_ms);
    }

    #[test]
    fn buckets_cover_the_whole_timeline() {
        let profile = Workload::CdnW.profile();
        let trace = TraceGenerator::generate(profile.config(20_000, 5));
        let report = run_deployment(&trace, DeploymentConfig::default());
        let total: u64 = report.buckets.iter().map(|b| b.requests).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn relative_reduction_math() {
        assert!((DeploymentReport::relative_reduction(8.87, 6.59) - 0.257).abs() < 0.01);
        assert_eq!(DeploymentReport::relative_reduction(0.0, 1.0), 0.0);
    }

    #[test]
    fn config_validation_covers_every_layer() {
        let base = DeploymentConfig::default();
        assert!(base.validate().is_ok());
        let bad_fraction = DeploymentConfig {
            deploy_fraction: f64::NAN,
            ..base
        };
        assert!(matches!(
            bad_fraction.validate(),
            Err(ConfigError::BadDeployFraction(_))
        ));
        let bad_tdc = DeploymentConfig {
            tdc: TdcConfig {
                oc_nodes: 0,
                ..TdcConfig::default()
            },
            ..base
        };
        assert_eq!(bad_tdc.validate(), Err(ConfigError::ZeroOcNodes));
        // The resilient runner surfaces the error instead of panicking.
        let trace = cdn_cache::object::micro_trace(&[(1, 10)]);
        assert!(run_deployment_resilient(&trace, bad_tdc, FaultSchedule::calm()).is_err());
    }

    /// A 60k-request CDN-T trace dilated to a 600 s span (see
    /// [`crate::fault::dilate_wall_clock`]) plus a matching experiment
    /// config — the shared fixture for the chaos tests.
    fn chaos_fixture() -> (Vec<cdn_cache::Request>, DeploymentConfig, f64) {
        let profile = Workload::CdnT.profile();
        let raw = TraceGenerator::generate(profile.config(60_000, 17));
        let stats = cdn_trace::TraceStats::compute(&raw);
        let raw_span = raw.last().unwrap().wall_secs;
        let trace = crate::fault::dilate_wall_clock(&raw, 600.0 / raw_span);
        let span = trace.last().unwrap().wall_secs;
        let cfg = DeploymentConfig {
            tdc: TdcConfig {
                oc_nodes: 4,
                oc_capacity: stats.cache_bytes_for_fraction(0.01),
                dc_capacity: stats.cache_bytes_for_fraction(0.04),
                deploy_at: u64::MAX,
                seed: 9,
            },
            ..DeploymentConfig::default()
        };
        (trace, cfg, span)
    }

    /// The acceptance-criteria cornerstone: under a calm schedule the
    /// resilient path is *bit-identical* to the plain path — same bucket
    /// series (including latency sums), same aggregates, same histograms,
    /// zero degradation events.
    #[test]
    fn calm_resilient_run_is_bit_identical_to_plain() {
        let (trace, cfg, _span) = chaos_fixture();
        let plain = run_deployment(&trace, cfg);
        let calm = run_deployment_resilient(&trace, cfg, FaultSchedule::calm()).unwrap();
        assert_eq!(plain.buckets, calm.buckets);
        assert_eq!(plain.before, calm.before);
        assert_eq!(plain.after, calm.after);
        assert_eq!(plain.hist_before, calm.hist_before);
        assert_eq!(plain.hist_after, calm.hist_after);
        assert_eq!(
            calm.counters,
            ResilienceCounters {
                origin_fetches: calm.counters.origin_fetches,
                ..ResilienceCounters::default()
            },
            "no degradation events under calm"
        );
        assert_eq!(calm.availability(), 1.0);
    }

    #[test]
    fn brownout_degrades_and_recovers_deterministically() {
        let (trace, cfg, span) = chaos_fixture();
        let schedule = FaultSchedule::origin_brownout(span, 42);
        let run = || run_deployment_resilient(&trace, cfg, schedule.clone()).unwrap();
        let a = run();
        let b = run();
        // Deterministic: two same-seed runs agree exactly.
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.counters, b.counters);
        // The brownout bites: breaker trips, stale serves happen, and
        // availability dips below 100 % but stays high (graceful, not
        // catastrophic, degradation).
        assert!(a.counters.breaker_trips > 0, "{:?}", a.counters);
        assert!(a.counters.stale_serves > 0, "{:?}", a.counters);
        assert!(a.counters.retries > 0);
        let avail = a.availability();
        assert!(avail < 1.0, "brownout must cost something");
        // Outages cover ~12 % of the span; availability dips by a few
        // points (misses during the outage), not catastrophically.
        assert!(avail > 0.85, "degradation must stay graceful, got {avail}");
        // Outside outage windows the system still serves normally.
        assert!(a.counters.origin_fetches > 0);
    }

    #[test]
    fn oc_churn_fails_over_and_recovers() {
        let (trace, cfg, span) = chaos_fixture();
        let schedule = FaultSchedule::oc_churn(span, 4, 7);
        let report = run_deployment_resilient(&trace, cfg, schedule).unwrap();
        let c = report.counters;
        assert_eq!(c.node_resets, 3, "each of nodes 1..4 crashes once");
        assert!(c.failovers > 0, "{c:?}");
        // Crashes reroute to survivors; nothing fails outright and the
        // origin never goes away.
        assert_eq!(report.availability(), 1.0, "{c:?}");
        assert_eq!(c.breaker_trips, 0);
    }
}
