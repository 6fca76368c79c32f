//! Replay a trace file through one or more policies.
//!
//! ```bash
//! cargo run --release -p cdn-sim --bin replaytool -- trace.bin 0.05 SCIP LRU ASC-IP
//! ```
//!
//! The second argument is the cache size as a fraction of the trace's
//! working-set size, in `(0, 1]`; remaining arguments are policy labels
//! (default: a representative set). Accepts `.bin` and `.csv` traces. A bad
//! fraction, an unknown label or a trace with no requests in it exits with
//! status 2.
//!
//! Unreadable or corrupt traces exit with status 1 and a structured
//! [`cdn_trace::TraceError`] message. Policies run through the
//! fault-tolerant sweep executor: a panicking policy prints a `FAIL` row
//! instead of killing the whole replay, and setting `CDN_SIM_CHECKPOINT`
//! to a sidecar path skips already-measured (policy, size, trace) cells
//! on re-runs.

use std::path::Path;
use std::process::exit;

use cdn_sim::checkpoint::run_checkpointed;
use cdn_sim::runner::{run_policy, PolicyKind, TraceCtx};
use cdn_sim::sweep::SweepConfig;
use cdn_sim::Checkpoint;
use cdn_trace::{TraceColumns, TraceStats};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: replaytool <trace.bin|trace.csv> <wss-fraction> [policy...]");
        exit(2);
    }
    let sweep = cdn_sim::knob(SweepConfig::from_env());
    let path = Path::new(&args[0]);
    let fraction = match args[1].parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => f,
        _ => {
            eprintln!(
                "error: bad fraction `{}`: expected a number in (0, 1]",
                args[1]
            );
            exit(2);
        }
    };
    let trace = match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => cdn_trace::io::read_binary(path),
        Some("csv") => cdn_trace::io::read_csv(path),
        _ => {
            eprintln!("trace must end in .bin or .csv");
            exit(2);
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("error: failed to read trace {}: {e}", path.display());
        exit(1);
    });
    if let Err(e) = TraceColumns::from_requests(&trace).validate() {
        eprintln!("error: trace {} failed validation: {e}", path.display());
        exit(1);
    }
    if trace.is_empty() {
        eprintln!("error: trace holds no requests");
        exit(2);
    }
    let stats = TraceStats::compute(&trace);
    let cap = stats.cache_bytes_for_fraction(fraction);
    println!("{stats}");
    println!(
        "cache: {:.1} MB ({:.2}% of WSS)\n",
        cap as f64 / 1e6,
        fraction * 100.0
    );

    let policies: Vec<PolicyKind> = if args.len() > 2 {
        args[2..]
            .iter()
            .map(|label| {
                label.parse().unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(2);
                })
            })
            .collect()
    } else {
        vec![
            PolicyKind::Belady,
            PolicyKind::Scip,
            PolicyKind::Lru,
            PolicyKind::AscIp,
            PolicyKind::S4Lru,
        ]
    };

    let seed = 42u64;
    let ctx = TraceCtx::new(&trace, seed);
    let trace_hash = cdn_trace::trace_content_hash(&trace);
    let checkpoint = Checkpoint::from_env();
    let cells: Vec<_> = policies
        .iter()
        .map(|&kind| {
            let trace = trace.clone();
            let ctx = ctx.clone();
            (kind.fingerprint(cap, trace_hash, seed), move || {
                run_policy(kind, cap, &trace, &ctx)
            })
        })
        .collect();
    let report = run_checkpointed(cells, checkpoint.as_ref(), &sweep);
    let failed = !report.failures().is_empty();
    if failed || report.cached() > 0 {
        eprintln!("replay: {}", report.summary());
    }

    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>12}",
        "policy", "miss", "byte-miss", "ns/req", "peak-MB"
    );
    for (kind, m) in policies.iter().zip(report.into_values()) {
        match m {
            Some(m) => println!(
                "{:<14} {:>8.2}% {:>8.2}% {:>10.0} {:>12.1}",
                m.policy,
                m.miss_ratio * 100.0,
                m.byte_miss_ratio * 100.0,
                m.ns_per_request,
                m.peak_memory_bytes as f64 / 1e6
            ),
            None => println!(
                "{:<14} {:>9} {:>9} {:>10} {:>12}",
                kind.label(),
                "FAIL",
                "FAIL",
                "FAIL",
                "FAIL"
            ),
        }
    }
    if failed {
        exit(1);
    }
}
