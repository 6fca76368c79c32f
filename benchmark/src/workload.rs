//! What every workload has in common: the set-up / pass contract, the
//! loop that times passes for a fixed budget, and the arithmetic that
//! turns passes into the ten end-to-end metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::span::Tracer;
use crate::stats::{highest_supported_percentile, median, percentile_sorted};
use crate::sys::process_cpu_seconds;

/// The five workloads, in reporting order.
pub const WORKLOADS: [&str; 5] = [
    "replay_hit",
    "replay_miss",
    "replay_stream",
    "serve_saturated",
    "serve_paced",
];

/// Set-ups per untraced run: at least [`MIN_SETUPS`], and more — up to
/// [`MAX_SETUPS`] — while they have taken under [`SETUP_FLOOR_S`] in
/// total, because the median of three 0.2 s set-ups still moved by a
/// quarter between runs. `setup_s` is the median.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 7;
/// See [`MIN_SETUPS`].
pub const SETUP_FLOOR_S: f64 = 1.5;
/// Passes a `--quick` run makes.
pub const QUICK_PASSES: usize = 3;
/// Divisor `--quick` (and a traced run's foreign workloads) applies to N.
pub const QUICK_DIVISOR: u64 = 16;

/// The four u64 counters every correctness check compares:
/// hits, misses, hit bytes, miss bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ledger {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (rejections included).
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes missed to origin.
    pub miss_bytes: u64,
}

impl Ledger {
    /// The ledger of a library replay.
    pub fn of(m: &cdn_sim::RunMeasurement) -> Ledger {
        Ledger {
            hits: m.hits,
            misses: m.misses,
            hit_bytes: m.hit_bytes,
            miss_bytes: m.miss_bytes,
        }
    }

    /// The serving ledger of one daemon shard.
    pub fn of_shard(s: &cdnd::ShardSnapshot) -> Ledger {
        Ledger {
            hits: s.hits,
            misses: s.misses,
            hit_bytes: s.hit_bytes,
            miss_bytes: s.miss_bytes,
        }
    }

    /// Counter-wise sum.
    pub fn plus(self, o: Ledger) -> Ledger {
        Ledger {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            hit_bytes: self.hit_bytes + o.hit_bytes,
            miss_bytes: self.miss_bytes + o.miss_bytes,
        }
    }

    /// Misses ÷ requests.
    pub fn object_miss_ratio(&self) -> f64 {
        self.misses as f64 / (self.hits + self.misses).max(1) as f64
    }

    /// Miss bytes ÷ requested bytes.
    pub fn byte_miss_ratio(&self) -> f64 {
        self.miss_bytes as f64 / (self.hit_bytes + self.miss_bytes).max(1) as f64
    }
}

/// How large a workload instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the end-to-end numbers are defined at.
    Full,
    /// N ÷ 16: smoke tests, and the foreign workloads of a traced run.
    Quick,
}

impl Scale {
    /// `full` requests at this scale.
    pub fn requests(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => full / QUICK_DIVISOR,
        }
    }
}

/// Everything a workload instance is parameterised by.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Wall-clock budget of one measured phase, seconds.
    pub budget_s: f64,
    /// Instance size.
    pub scale: Scale,
    /// Directory for corpus, snapshot and span files.
    pub out_dir: PathBuf,
}

/// One timed unit of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the timed region.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same region.
    pub cpu_s: f64,
    /// Requests the system completed in the region.
    pub completed: u64,
    /// Requests submitted to the system in the whole pass.
    pub attempted: u64,
    /// Requests refused, lost or dropped in the whole pass.
    pub failed: u64,
    /// Hits/misses ledger of the whole pass.
    pub ledger: Ledger,
    /// Peak policy-metadata bytes per resident object of the pass's
    /// last policy.
    pub meta_bytes_per_obj: f64,
    /// Completion-latency samples in µs, for workloads whose unit of
    /// work is smaller than a pass; empty means "the pass is the unit".
    pub lat_us: Vec<f64>,
    /// Workload-specific observations for the per-layer table.
    pub observed: Vec<(&'static str, f64)>,
    /// Correctness failures; any entry fails the whole pass.
    pub errors: Vec<String>,
}

impl Pass {
    /// The observation recorded under `name`, if any.
    pub fn observation(&self, name: &str) -> Option<f64> {
        self.observed
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A workload: deterministic inputs from a seed, then identical passes.
pub trait Workload {
    /// Name as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One pass spans the whole budget (open loop) instead of repeating.
    const SINGLE_PASS: bool = false;
    /// Everything set-up produces.
    type Input;

    /// Generate inputs, size the cache, compute the reference ledger.
    fn setup(ctx: &Ctx) -> Result<Self::Input, String>;
    /// Run one pass, recording spans at each call into a layer.
    fn pass(input: &Self::Input, ctx: &Ctx, tracer: &mut Tracer) -> Pass;
    /// Remove files set-up left under `ctx.out_dir`.
    fn cleanup(_input: &Self::Input) {}
}

/// A set of passes and what checking them found.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// The measured passes.
    pub passes: Vec<Pass>,
    /// Requests submitted over all passes.
    pub attempted: u64,
    /// Requests failed over all passes (a pass with an error fails whole).
    pub failed: u64,
    /// Every correctness failure, prefixed with its pass.
    pub errors: Vec<String>,
}

impl Phase {
    /// Median over passes of completed requests per wall second, in
    /// millions.
    pub fn throughput_mreq_s(&self) -> f64 {
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|p| p.completed as f64 / p.wall_s / 1e6)
            .collect();
        median(&per_pass)
    }

    /// Wall nanoseconds per completed request over the whole phase.
    pub fn ns_per_req(&self) -> f64 {
        let wall: f64 = self.passes.iter().map(|p| p.wall_s).sum();
        let done: u64 = self.passes.iter().map(|p| p.completed).sum();
        wall * 1e9 / done.max(1) as f64
    }
}

/// Run passes of `W` until `ctx.budget_s` is spent (at least `min_passes`;
/// exactly one for a single-pass workload; exactly `fixed` when given),
/// checking each against the first: every pass must reproduce the same
/// four u64 counters.
pub fn run_phase<W: Workload>(
    input: &W::Input,
    ctx: &Ctx,
    tracer: &mut Tracer,
    min_passes: usize,
    fixed: Option<usize>,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        let k = phase.passes.len();
        let done = match fixed {
            _ if W::SINGLE_PASS => k >= 1,
            Some(n) => k >= n,
            None => k >= min_passes && started.elapsed().as_secs_f64() >= ctx.budget_s,
        };
        if done {
            break;
        }
        tracer.set_pass(k as u32);
        let mut pass = W::pass(input, ctx, tracer);
        if let Some(first) = phase.passes.first() {
            if pass.ledger != first.ledger {
                pass.errors.push(format!(
                    "ledger {:?} differs from the first pass's {:?}",
                    pass.ledger, first.ledger
                ));
            }
        }
        phase.attempted += pass.attempted;
        phase.failed += if pass.errors.is_empty() {
            pass.failed
        } else {
            pass.attempted
        };
        phase.errors.extend(
            pass.errors
                .iter()
                .map(|e| format!("{} pass {k}: {e}", W::NAME)),
        );
        phase.passes.push(pass);
    }
    phase
}

/// Process CPU seconds between two readings; `NaN` when `/proc` is not
/// readable, so a missing reading cannot pass for "free".
pub fn cpu_between(before: Option<f64>, after: Option<f64>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) => a - b,
        _ => f64::NAN,
    }
}

/// Time `f`, returning its result, wall seconds and process CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_between(cpu0, process_cpu_seconds()))
}

/// Windows a burst-latency sample is cut into.
pub const LATENCY_WINDOWS: usize = 24;

/// First quartile, over [`LATENCY_WINDOWS`] consecutive and equally long
/// windows, of each window's percentile `p`. `in_order` is in arrival
/// order.
///
/// Why not the run's plain percentile, or the median window: on this
/// shared box a half-second window's p90 reads ≈ 47 µs when calm and
/// 55–100 µs while a neighbour is busy, and a stall now and then turns
/// one window into milliseconds. Interference only ever adds latency, so
/// the calm windows carry the system's own figure; the first quartile
/// reads it as long as a quarter of the run was calm, where the median
/// follows whichever state held the majority.
pub fn windowed_percentile(in_order: &[f64], p: f64) -> f64 {
    let mut per = window_percentiles(in_order, p);
    per.sort_by(f64::total_cmp);
    percentile_sorted(&per, 25.0)
}

/// Percentile `p` of each of the [`LATENCY_WINDOWS`] windows, in order.
pub fn window_percentiles(in_order: &[f64], p: f64) -> Vec<f64> {
    let per_window = in_order.len().div_ceil(LATENCY_WINDOWS).max(1);
    in_order
        .chunks(per_window)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile_sorted(&w, p)
        })
        .collect()
}

/// The metrics of one run — the ten end-to-end ones, or every per-layer
/// one for a traced run — plus what the contract's result line needs.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Correctness failures.
    pub errors: Vec<String>,
    /// Human-readable notes: pass and sample counts, tail percentiles.
    pub notes: Vec<String>,
}

/// Set up `W` several times, warm up, measure for the budget and fold
/// the passes into the end-to-end metrics.
pub fn run_end_to_end<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    let quick = ctx.scale == Scale::Quick;
    let mut setups = Vec::new();
    let mut input = None;
    loop {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(W::setup(ctx)?);
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= MIN_SETUPS
            && (setups.len() >= MAX_SETUPS || setups.iter().sum::<f64>() >= SETUP_FLOOR_S);
        if quick || enough {
            break;
        }
    }
    let input = input.expect("at least one set-up");
    let mut tracer = Tracer::new(false);
    if !W::SINGLE_PASS {
        // One unmeasured pass: page in the trace and let the allocator
        // reach its steady state before anything is timed.
        let warm = run_phase::<W>(&input, ctx, &mut tracer, 1, Some(1));
        if !warm.errors.is_empty() {
            W::cleanup(&input);
            return Err(warm.errors.join("; "));
        }
    }
    let phase = run_phase::<W>(&input, ctx, &mut tracer, 3, quick.then_some(QUICK_PASSES));
    let meta = phase.passes[0].meta_bytes_per_obj;
    W::cleanup(&input);

    let wall: f64 = phase.passes.iter().map(|p| p.wall_s).sum();
    let cpu: f64 = phase.passes.iter().map(|p| p.cpu_s).sum();
    let completed: u64 = phase.passes.iter().map(|p| p.completed).sum();
    let ledger = phase.passes[0].ledger;

    // The unit of work a caller waits on: a burst where the workload
    // has bursts, otherwise the whole pass. Burst samples arrive in due
    // order and are summarised per window first: a stall of this shared
    // box then spoils one window's percentile, not the run's.
    let bursts: Vec<f64> = phase.passes.iter().flat_map(|p| p.lat_us.clone()).collect();
    let (unit, samples, lat_p50, lat_p90, mut sorted) = if bursts.is_empty() {
        let mut walls: Vec<f64> = phase.passes.iter().map(|p| p.wall_s * 1e6).collect();
        walls.sort_by(f64::total_cmp);
        // A few dozen passes do not support a p90 (fewer than ten samples
        // would lie beyond it, and which passes a noisy neighbour hits
        // would decide it): the tail metric then carries the highest
        // percentile the sample does support, the median.
        let tail = highest_supported_percentile(walls.len()).map_or(50.0, |p| p.min(90.0));
        (
            "pass",
            walls.len(),
            percentile_sorted(&walls, 50.0),
            percentile_sorted(&walls, tail),
            walls,
        )
    } else {
        (
            "burst (first quartile over windows)",
            bursts.len(),
            windowed_percentile(&bursts, 50.0),
            windowed_percentile(&bursts, 90.0),
            bursts,
        )
    };
    sorted.sort_by(f64::total_cmp);

    let mut notes = vec![format!(
        "{}: {} passes, {completed} requests in {wall:.3} s measured, set-ups {:?} s",
        W::NAME,
        phase.passes.len(),
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    )];
    let supported = highest_supported_percentile(samples);
    notes.push(format!(
        "{}: latency unit = {unit}, {samples} samples, highest percentile with >= 10 samples beyond it: {}",
        W::NAME,
        supported.map_or("none".to_string(), |p| format!("p{p}"))
    ));
    if let Some(p) = supported.filter(|&p| p > 90.0) {
        notes.push(format!(
            "{}: whole-run lat_p{p}_us = {:.1} (per-layer, not gated)",
            W::NAME,
            percentile_sorted(&sorted, p)
        ));
    }

    let in_order = &phase.passes[0].lat_us;
    if !in_order.is_empty() {
        // Which windows were calm, and what the others read.
        for p in [50.0, 90.0] {
            let per: Vec<f64> = window_percentiles(in_order, p)
                .iter()
                .map(|us| us.round())
                .collect();
            notes.push(format!("{}: lat_p{p}_us per window = {per:?}", W::NAME));
        }
    }
    for (name, value) in &phase.passes[0].observed {
        notes.push(format!("{}: {name} = {value:.3}", W::NAME));
    }

    let rss_mb = cdn_sim::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6);
    let served = (phase.attempted - phase.failed) as f64 / phase.attempted.max(1) as f64;
    Ok(Outcome {
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("throughput_mreq_s", phase.throughput_mreq_s(), "Mreq/s"),
            (
                "cpu_us_per_req",
                cpu * 1e6 / completed.max(1) as f64,
                "core-us",
            ),
            ("object_miss_ratio", ledger.object_miss_ratio(), "ratio"),
            ("byte_miss_ratio", ledger.byte_miss_ratio(), "ratio"),
            ("meta_bytes_per_obj", meta, "B"),
            ("peak_rss_mb", rss_mb, "MB"),
            ("served_share", served, "ratio"),
            ("lat_p50_us", lat_p50, "us"),
            ("lat_p90_us", lat_p90, "us"),
        ],
        attempted: phase.attempted,
        failed: phase.failed,
        errors: phase.errors,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_percentile_reads_the_calm_windows() {
        // 24 000 bursts at 40–49 µs: 24 windows of 1 000.
        let calm: Vec<f64> = (0..24_000).map(|i| 40.0 + (i % 10) as f64).collect();
        assert_eq!(windowed_percentile(&calm, 90.0), 48.0);
        assert_eq!(windowed_percentile(&calm, 50.0), 44.0);
        // A stall turns 600 consecutive bursts into milliseconds, and a
        // noisy neighbour adds 30 µs to fourteen whole windows — more
        // than half the run. The calm quarter still carries the figure.
        let mut disturbed = calm.clone();
        for v in &mut disturbed[3_100..3_700] {
            *v = 5_000.0;
        }
        for v in &mut disturbed[10_000..24_000] {
            *v += 30.0;
        }
        assert_eq!(windowed_percentile(&disturbed, 90.0), 48.0);
        assert_eq!(windowed_percentile(&disturbed, 50.0), 44.0);
        // The whole-run percentiles of the same sample do move.
        let mut all = disturbed.clone();
        all.sort_by(f64::total_cmp);
        assert!(percentile_sorted(&all, 90.0) > 70.0);
        assert!(percentile_sorted(&all, 99.0) > 1_000.0);
        // Fewer samples than windows still yields a number.
        assert_eq!(windowed_percentile(&[7.0, 9.0], 50.0), 7.0);
    }
}
