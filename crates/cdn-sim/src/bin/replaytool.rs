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
//! [`cdn_trace::TraceError`] message. Policies replay in parallel through
//! [`cdn_sim::parallel_runs`]; rows print in argument order.

use std::path::Path;
use std::process::exit;

use cdn_sim::parallel_runs;
use cdn_sim::runner::{run_policy, PolicyKind, TraceCtx};
use cdn_trace::{TraceColumns, TraceStats};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        eprintln!("usage: replaytool <trace.bin|trace.csv> <wss-fraction> [policy...]");
        exit(2);
    }
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
    let (trace, ctx) = (&trace, &ctx);
    let jobs: Vec<_> = policies
        .iter()
        .map(|&kind| move || run_policy(kind, cap, trace, ctx))
        .collect();

    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>12}",
        "policy", "miss", "byte-miss", "ns/req", "peak-MB"
    );
    for m in parallel_runs(jobs) {
        println!(
            "{:<14} {:>8.2}% {:>8.2}% {:>10.0} {:>12.1}",
            m.policy,
            m.miss_ratio * 100.0,
            m.byte_miss_ratio * 100.0,
            m.ns_per_request,
            m.peak_memory_bytes as f64 / 1e6
        );
    }
}
