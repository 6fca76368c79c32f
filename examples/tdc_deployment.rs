//! Replay the paper's §5 production story: a two-tier TDC serving diurnal
//! traffic, with SCIP deployed warm at the midpoint of the timeline.
//!
//! ```bash
//! cargo run --release --example tdc_deployment
//! ```

use cdn_trace::{TraceGenerator, TraceStats, Workload};
use tdc::{run_deployment, DeploymentConfig, LatencyModel, TdcConfig};

fn main() {
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(300_000, 21));
    let stats = TraceStats::compute(&trace);
    let span = trace.last().map(|r| r.wall_secs).unwrap_or(1.0);
    let report = run_deployment(
        &trace,
        DeploymentConfig {
            tdc: TdcConfig {
                oc_nodes: 4,
                oc_capacity: stats.cache_bytes_for_fraction(0.01),
                dc_capacity: stats.cache_bytes_for_fraction(0.05),
                deploy_at: u64::MAX, // overridden by deploy_fraction
                seed: 7,
            },
            latency: LatencyModel::default(),
            deploy_fraction: 0.5,
        },
    );

    println!("TDC deployment study (SCIP deploys at the timeline midpoint)\n");
    println!("bucket  BTO-ratio  BTO-Gbps  latency(ms)");
    for (i, b) in report.buckets.iter().enumerate() {
        let marker = if (b.start_secs..b.start_secs + report.bucket_secs).contains(&(span * 0.5)) {
            "  <- SCIP deployed"
        } else {
            ""
        };
        println!(
            "{:>5}   {:>8.2}%  {:>8.3}  {:>10.1}{marker}",
            i,
            b.bto_ratio() * 100.0,
            b.bto_gbps(report.bucket_secs),
            b.mean_latency_ms()
        );
    }
    println!(
        "\nbefore: BTO {:.2}%, {:.3} Gbps, {:.1} ms",
        report.before.bto_ratio * 100.0,
        report.before.bto_gbps,
        report.before.mean_latency_ms
    );
    println!(
        "after : BTO {:.2}%, {:.3} Gbps, {:.1} ms",
        report.after.bto_ratio * 100.0,
        report.after.bto_gbps,
        report.after.mean_latency_ms
    );
    println!("\n(paper: miss 8.87%→6.59%, BTO traffic −25.7%, latency −26.1%)");
}
