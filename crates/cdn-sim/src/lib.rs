//! Trace-driven cache simulator: the replay, sweep and table layers the
//! per-figure experiments (`scip_repro::experiments`) are built on.
//!
//! - [`runner`]: a policy registry ([`runner::PolicyKind`]) that can build
//!   every algorithm in the workspace against a trace context, plus the
//!   instrumented replay that measures miss ratio, TPS, per-request CPU
//!   time and peak metadata memory — the quantities behind Figures 8-12.
//!   [`PolicyKind::build`] returns a `Box<dyn CachePolicy>`, and
//!   [`run_policy`], [`PolicyKind::replay_batched`],
//!   [`PolicyKind::replay_stream`] and the per-request observer hook
//!   [`PolicyKind::run_with_observer`] each drive it through one
//!   software-pipelined loop ([`BatchMode`]).
//! - [`label`]: [`label_trace`], the paper's ZRO / P-ZRO labels of an
//!   LRU replay (the outcome stream of [`PolicyKind::Lru`] through
//!   [`cdn_trace::label::label_outcomes`]).
//! - [`sweep`]: parallel execution of {workload × policy × cache size}
//!   grids ([`sweep::parallel_runs`]: workers take jobs off one shared
//!   queue, results come back in input order, and a panicking cell aborts
//!   the sweep once the others have drained — every cell is
//!   deterministic, so there is nothing to retry or resume);
//!   [`sweep::isolate`] is the quiet-panic-hook helper it shares with the
//!   `cdnd` shard workers.
//! - [`stream`]: the out-of-core seam — [`stream::TraceSource`] replays
//!   either in-RAM columns or a disk-backed chunk stream through the
//!   same replay loop (ledgers u64-identical).
//! - [`table`]: figure-style table formatting + TSV dumps under
//!   `results/`.
//!
//! Scale is controlled by the `REPRO_REQUESTS` environment variable
//! (default 500 000 requests per trace) so the full suite runs on a laptop
//! in minutes while keeping every ratio of the paper's setup.

use std::num::NonZeroU64;

pub mod label;
pub mod runner;
pub mod shard;
pub mod stream;
pub mod sweep;
pub mod table;

pub use label::label_trace;
pub use runner::{
    one_chunk, run_policy, run_policy_dyn, BatchMode, PolicyKind, RunMeasurement, TraceCtx,
    AUTO_PREFETCH_DIST,
};
pub use shard::{
    localized_shards, run_routed_serial, run_sharded, run_sharded_serial, AggregateMeasurement,
    OutageWindow, RoutedRunReport, RoutedShardLedger, ShardedRunReport,
};
pub use stream::TraceSource;
pub use sweep::parallel_runs;
pub use table::{Table, TableError};

/// Peak resident set size of this *process* in bytes, if the platform
/// exposes it.
///
/// Reads `VmHWM` from `/proc/self/status` — the kernel's process-wide
/// high-water mark, which includes every thread's stack and all
/// shard-replay allocations (RSS is a property of the address space, not
/// of any one thread). Taking the max with the current `VmRSS` guards
/// against the brief window where a just-grown mapping is visible in
/// `VmRSS` before the HWM line is refreshed. Call this at the *end* of a
/// run, after multi-threaded sections have joined, so the reported peak
/// covers them.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |key: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(key))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    };
    let hwm = field("VmHWM:");
    let rss = field("VmRSS:");
    match (hwm, rss) {
        (Some(h), Some(r)) => Some(h.max(r)),
        (h, r) => h.or(r),
    }
}

/// Unwrap a fallible step in a binary, exiting nonzero with context.
///
/// The library crates return structured errors instead of panicking; the
/// binaries funnel those through here so a failure prints
/// `error: <what>: <cause>` on stderr and exits with status 1.
pub fn or_die<T, E: std::fmt::Display>(res: Result<T, E>, what: &str) -> T {
    match res {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// A numeric environment knob that is set but does not parse. Binaries
/// report it with `var` as the context (`error: REPRO_REQUESTS: …` and a
/// nonzero exit) rather than fall back to the default and run — or
/// overwrite `results/*.tsv` — as if that value had been asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// The environment variable at fault.
    pub var: &'static str,
    /// Its rejected value.
    pub value: String,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` is not an unsigned integer in range", self.value)
    }
}

impl std::error::Error for ScaleError {}

/// Unwrap an environment knob in a binary: one that is set but unparsable
/// is a usage error, like an unknown policy label — name it
/// (`error: CDND_SHARDS: …`) and exit 2.
pub fn knob<T>(parsed: Result<T, ScaleError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", e.var);
        std::process::exit(2);
    })
}

/// `raw` as the value of knob `var`: absent means `default`, present must
/// parse.
fn parse_scale<T: std::str::FromStr>(
    var: &'static str,
    raw: Option<&str>,
    default: T,
) -> Result<T, ScaleError> {
    match raw {
        None => Ok(default),
        Some(v) => v.trim().parse().map_err(|_| ScaleError {
            var,
            value: v.to_string(),
        }),
    }
}

/// The numeric environment knob `var`: `default` when unset; a value that
/// is set must parse as a `T` — the one strict parser behind every
/// `REPRO_*` and `CDND_*` number.
pub fn scale_from_env<T: std::str::FromStr>(
    var: &'static str,
    default: T,
) -> Result<T, ScaleError> {
    // Lossy: a non-UTF-8 value cannot parse either, and is reported as set.
    let raw = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_scale(var, raw.as_deref(), default)
}

/// Requests per synthetic trace: `REPRO_REQUESTS`, 500 000 when unset.
/// Zero is out of range: a study of empty traces has nothing to report.
pub fn default_requests() -> Result<u64, ScaleError> {
    let default = NonZeroU64::new(500_000).expect("nonzero");
    scale_from_env("REPRO_REQUESTS", default).map(NonZeroU64::get)
}

/// Master seed for experiments: `REPRO_SEED`, 42 when unset.
pub fn default_seed() -> Result<u64, ScaleError> {
    scale_from_env("REPRO_SEED", 42)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_knob_unset_valid_and_invalid() {
        assert_eq!(parse_scale("REPRO_REQUESTS", None, 500_000), Ok(500_000));
        assert_eq!(
            parse_scale("REPRO_REQUESTS", Some("20000"), 500_000),
            Ok(20_000)
        );
        for bad in ["500k", "", "-1", "1e6"] {
            let err = parse_scale("REPRO_REQUESTS", Some(bad), 500_000u64).unwrap_err();
            assert_eq!((err.var, err.value.as_str()), ("REPRO_REQUESTS", bad));
        }
        // The knob's own type bounds the range.
        assert!(parse_scale("REPRO_REQUESTS", Some("18446744073709551616"), 0u64).is_err());
    }
}
