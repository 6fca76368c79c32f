//! Parallel execution of experiment grids, with per-job fault isolation.
//!
//! Workers take the next `(index, job)` off one shared queue and hand
//! their `(index, outcome)` pairs back through their join handles; the
//! caller scatters them, so results come back in input order. Jobs are
//! whole replays (milliseconds and up), so one uncontended lock per job
//! is not measurable.
//!
//! Two entry points, one executor:
//!
//! - [`run_jobs`] — fault-tolerant: each attempt runs under [`isolate`],
//!   panics are converted to [`JobOutcome::Panicked`] after a bounded
//!   number of retries ([`SweepConfig::max_attempts`], with linear
//!   backoff), and the sweep always completes, reporting exactly which
//!   cells failed.
//! - [`parallel_runs`] — `run_jobs` under [`SweepConfig::strict`] for
//!   run-once (`FnOnce`) jobs: every job gets one attempt and a panicking
//!   job aborts the sweep once the others have finished. Use for small
//!   grids where partial results are useless.
//!
//! Worker count: `available_parallelism`, overridable with the
//! `CDN_SIM_THREADS` environment variable (unset or 0 = not overridden;
//! anything unparsable is refused, see [`SweepConfig::from_env`]); the
//! fallback of 4 only applies on platforms where the available
//! parallelism cannot be queried at all.
//!
//! [`run_jobs`] evaluates the `sweep.job` failpoint (key = job index,
//! see `cdn_cache::fault`) inside the isolation boundary before each
//! attempt, so tests can inject deterministic panics — including
//! transient ones that exercise the retry path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Duration;

use crate::{scale_from_env, ScaleError};

/// Failpoint evaluated before each job attempt (key = job index).
pub const FP_SWEEP_JOB: &str = "sweep.job";

/// `CDN_SIM_THREADS` if set (and not 0), else the machine's available
/// parallelism, else 4 (the documented fallback for platforms where
/// `available_parallelism` errors, e.g. restricted sandboxes).
fn threads_from_env() -> Result<usize, ScaleError> {
    Ok(match scale_from_env("CDN_SIM_THREADS", 0usize)? {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    })
}

/// Worker-thread count: [`threads_from_env`], clamped to `jobs` so tiny
/// sweeps don't spawn idle threads.
///
/// # Panics
/// If `CDN_SIM_THREADS` is set but unparsable — binaries refuse that at
/// startup through [`SweepConfig::from_env`]; a guessed thread count is
/// never run.
fn worker_count(jobs: usize) -> usize {
    threads_from_env()
        .unwrap_or_else(|e| panic!("{}: {e}", e.var))
        .min(jobs.max(1))
}

/// Run `jobs` closures on worker threads (`CDN_SIM_THREADS`, see the
/// module docs) and collect results in input order. A panic in a job
/// aborts the sweep (after the other jobs have run) — prefer [`run_jobs`]
/// for long grids where losing completed work to one bad cell is
/// unacceptable.
pub fn parallel_runs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let once: Vec<_> = jobs
        .into_iter()
        .map(|f| {
            let mut f = Some(f);
            move || f.take().expect("a strict sweep attempts each job once")()
        })
        .collect();
    run_jobs(once, &SweepConfig::strict()).expect_complete("parallel_runs")
}

/// How a fault-tolerant sweep treats failing jobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Attempts per job (≥ 1). 1 means no retry; transient failures get
    /// `max_attempts - 1` more chances before the job is declared failed.
    pub max_attempts: u32,
    /// Sleep before retry `k` is `backoff * k` (linear). Zero by default:
    /// simulation faults are rarely time-dependent, and tests should not
    /// wait.
    pub backoff: Duration,
    /// Abort (re-panic) after the sweep if any job exhausted its
    /// attempts — the historical `parallel_runs` semantics, but with
    /// retries and with every other job's result still computed.
    pub strict: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_attempts: 2,
            backoff: Duration::ZERO,
            strict: false,
        }
    }
}

impl SweepConfig {
    /// Config from the environment: `CDN_SIM_RETRIES` (extra attempts
    /// beyond the first, default 1), `CDN_SIM_STRICT` (non-empty and not
    /// `0` aborts on failed cells). The thread count is read by the
    /// executor itself (see module docs) but validated here too, so a
    /// binary that builds its config first refuses either knob before
    /// any job runs.
    pub fn from_env() -> Result<Self, ScaleError> {
        threads_from_env()?;
        let retries: u32 = scale_from_env("CDN_SIM_RETRIES", 1)?;
        let strict = std::env::var("CDN_SIM_STRICT").is_ok_and(|v| !v.is_empty() && v != "0");
        Ok(SweepConfig {
            max_attempts: retries.saturating_add(1),
            strict,
            ..SweepConfig::default()
        })
    }

    /// Today's abort semantics: one attempt, re-panic on any failure.
    pub fn strict() -> Self {
        SweepConfig {
            max_attempts: 1,
            strict: true,
            ..SweepConfig::default()
        }
    }
}

/// What became of one sweep job.
#[derive(Debug, Clone)]
pub enum JobOutcome<T> {
    /// Succeeded on the first attempt.
    Ok(T),
    /// Succeeded after one or more retries (`attempts` counts every run).
    Retried {
        /// The successful result.
        value: T,
        /// Total attempts including the successful one.
        attempts: u32,
    },
    /// Every attempt panicked; the job contributes no result.
    Panicked {
        /// Attempts made before giving up.
        attempts: u32,
        /// Panic payload of the final attempt, stringified.
        message: String,
    },
    /// Result restored from a checkpoint sidecar; the job never ran.
    Cached(T),
}

impl<T> JobOutcome<T> {
    /// The successful value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) | JobOutcome::Retried { value: v, .. } | JobOutcome::Cached(v) => {
                Some(v)
            }
            JobOutcome::Panicked { .. } => None,
        }
    }

    /// The successful value by move, if any.
    pub fn into_value(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) | JobOutcome::Retried { value: v, .. } | JobOutcome::Cached(v) => {
                Some(v)
            }
            JobOutcome::Panicked { .. } => None,
        }
    }

    /// True when the job produced no result.
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Panicked { .. })
    }
}

/// Per-job outcomes of a fault-tolerant sweep, in input order.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// One outcome per submitted job.
    pub outcomes: Vec<JobOutcome<T>>,
}

impl<T> SweepReport<T> {
    /// `(index, final panic message)` of every failed cell.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                JobOutcome::Panicked { message, .. } => Some((i, message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Count of jobs that produced a result (including cached ones).
    pub fn succeeded(&self) -> usize {
        self.outcomes.len() - self.failures().len()
    }

    /// Count of jobs restored from a checkpoint instead of running.
    pub fn cached(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Cached(_)))
            .count()
    }

    /// Count of jobs that needed at least one retry.
    pub fn retried(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Retried { .. }))
            .count()
    }

    /// One-line human summary ("50 jobs: 45 ok, 2 retried, 3 failed").
    pub fn summary(&self) -> String {
        let failed = self.failures().len();
        let cached = self.cached();
        let retried = self.retried();
        let ok = self.outcomes.len() - failed - cached - retried;
        let mut s = format!("{} jobs: {ok} ok", self.outcomes.len());
        if cached > 0 {
            s.push_str(&format!(", {cached} from checkpoint"));
        }
        if retried > 0 {
            s.push_str(&format!(", {retried} retried"));
        }
        s.push_str(&format!(", {failed} failed"));
        s
    }

    /// Successful values in input order, `None` holding failed cells'
    /// places.
    pub fn into_values(self) -> Vec<Option<T>> {
        self.outcomes
            .into_iter()
            .map(JobOutcome::into_value)
            .collect()
    }

    /// All values, panicking with the failure summary if any cell failed
    /// — the strict unwrap for callers that need a complete grid.
    pub fn expect_complete(self, what: &str) -> Vec<T> {
        let failures = self.failures();
        if !failures.is_empty() {
            let (idx, msg) = failures[0];
            panic!(
                "{what}: {} of {} jobs failed (first: job {idx}: {msg})",
                failures.len(),
                self.outcomes.len()
            );
        }
        self.outcomes
            .into_iter()
            .map(|o| o.into_value().expect("no failures"))
            .collect()
    }
}

thread_local! {
    /// Set while this thread runs inside [`isolate`], so the global panic
    /// hook stays quiet for panics that are about to be caught.
    static ISOLATING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` under `catch_unwind` with the default panic report (message
/// and backtrace on stderr) suppressed on this thread: for panics the
/// caller expects, catches and accounts for — a sweep job about to be
/// retried, a `cdnd` shard worker about to be restarted. The first call
/// installs the process's one quiet panic hook; panics outside `isolate`
/// still reach the hook that was installed before it.
///
/// `f` must leave nothing half-updated that the caller reads after an
/// `Err`: sweep jobs rebuild all per-run state inside the call, and a
/// shard worker drops its policy with the failed incarnation.
pub fn isolate<T>(f: impl FnOnce() -> T) -> std::thread::Result<T> {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATING.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
    let outer = ISOLATING.with(|flag| flag.replace(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    ISOLATING.with(|flag| flag.set(outer));
    result
}

/// Stringify a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one job with bounded retries; returns its outcome.
///
/// The closure runs under [`isolate`] each attempt. Jobs must be
/// *retry-safe*: they rebuild all per-run state internally (every
/// `run_policy` cell does — the policy is constructed inside the call).
fn attempt_job<T>(
    f: &mut (impl FnMut() -> T + Send),
    idx: usize,
    cfg: &SweepConfig,
) -> JobOutcome<T> {
    let max_attempts = cfg.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let caught = isolate(|| {
            cdn_cache::fault::maybe_panic(FP_SWEEP_JOB, idx as u64);
            f()
        });
        match caught {
            Ok(value) if attempt == 1 => return JobOutcome::Ok(value),
            Ok(value) => {
                return JobOutcome::Retried {
                    value,
                    attempts: attempt,
                }
            }
            Err(payload) => {
                if attempt >= max_attempts {
                    return JobOutcome::Panicked {
                        attempts: attempt,
                        message: panic_message(payload),
                    };
                }
                if !cfg.backoff.is_zero() {
                    std::thread::sleep(cfg.backoff * attempt);
                }
            }
        }
    }
}

/// Run `jobs` with per-job panic isolation and bounded retry; the sweep
/// always completes and the report names exactly the failed cells.
///
/// Jobs are `FnMut` (not `FnOnce`) because a retried job runs more than
/// once; each invocation must rebuild its own state.
///
/// # Panics
/// Only in [`SweepConfig::strict`] mode, after all jobs have finished, if
/// any job exhausted its attempts.
pub fn run_jobs<T, F>(jobs: Vec<F>, cfg: &SweepConfig) -> SweepReport<T>
where
    T: Send,
    F: FnMut() -> T + Send,
{
    let n_workers = worker_count(jobs.len());
    let mut outcomes: Vec<Option<JobOutcome<T>>> = jobs.iter().map(|_| None).collect();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement: no
                        // job ever runs under the lock.
                        let next = queue.lock().expect("job queue poisoned").next();
                        let Some((idx, mut f)) = next else { break };
                        done.push((idx, attempt_job(&mut f, idx, cfg)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (idx, outcome) in worker.join().expect("sweep worker panicked") {
                outcomes[idx] = Some(outcome);
            }
        }
    });
    let report = SweepReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every job ran"))
            .collect(),
    };
    if cfg.strict {
        let failures = report.failures();
        if let Some((idx, msg)) = failures.first() {
            panic!(
                "strict sweep: {} of {} jobs failed (first: job {idx}: {msg})",
                failures.len(),
                report.outcomes.len()
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..50)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = parallel_runs(jobs);
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = Vec::new();
        assert!(parallel_runs(jobs).is_empty());
        let jobs: Vec<Box<dyn FnMut() -> u32 + Send>> = Vec::new();
        assert!(run_jobs(jobs, &SweepConfig::default()).outcomes.is_empty());
    }

    #[test]
    #[should_panic]
    fn job_panic_aborts_strict_sweep() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0u32..8)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("job failure");
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        parallel_runs(jobs);
    }

    #[test]
    fn more_jobs_than_workers() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..1000)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = parallel_runs(jobs);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[999], 1000);
    }

    #[test]
    fn thread_env_override_is_respected_and_safe() {
        // worker_count is pure arithmetic over the env value; exercise the
        // clamps directly.
        assert!(worker_count(1) == 1);
        assert!(worker_count(0) >= 1);
        assert!(worker_count(10_000) >= 1);
    }

    #[test]
    fn isolated_sweep_survives_panics_and_reports_them() {
        let jobs: Vec<Box<dyn FnMut() -> u32 + Send>> = (0u32..10)
            .map(|i| {
                Box::new(move || {
                    if i % 4 == 1 {
                        panic!("cell {i} down");
                    }
                    i * 10
                }) as Box<dyn FnMut() -> u32 + Send>
            })
            .collect();
        let cfg = SweepConfig {
            max_attempts: 2,
            ..SweepConfig::default()
        };
        let report = run_jobs(jobs, &cfg);
        assert_eq!(report.outcomes.len(), 10);
        let failures = report.failures();
        assert_eq!(
            failures.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert!(failures.iter().all(|(_, m)| m.contains("down")));
        assert_eq!(report.succeeded(), 7);
        for (i, o) in report.outcomes.iter().enumerate() {
            match o {
                JobOutcome::Ok(v) => assert_eq!(*v, i as u32 * 10),
                JobOutcome::Panicked { attempts, .. } => assert_eq!(*attempts, 2),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counters: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let jobs: Vec<_> = (0usize..6)
            .map(|i| {
                let counter = &counters[i];
                move || {
                    let run = counter.fetch_add(1, Ordering::SeqCst);
                    // Jobs 2 and 4 fail on their first attempt only.
                    if (i == 2 || i == 4) && run == 0 {
                        panic!("transient");
                    }
                    i
                }
            })
            .collect();
        let cfg = SweepConfig {
            max_attempts: 3,
            ..SweepConfig::default()
        };
        let report = run_jobs(jobs, &cfg);
        assert!(report.failures().is_empty());
        assert_eq!(report.retried(), 2);
        for (i, o) in report.outcomes.iter().enumerate() {
            match o {
                JobOutcome::Ok(v) => assert_eq!(*v, i),
                JobOutcome::Retried { value, attempts } => {
                    assert_eq!(*value, i);
                    assert_eq!(*attempts, 2);
                    assert!(i == 2 || i == 4);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(report.summary(), "6 jobs: 4 ok, 2 retried, 0 failed");
    }

    #[test]
    #[should_panic(expected = "strict sweep")]
    fn strict_mode_aborts_after_completion() {
        let jobs: Vec<Box<dyn FnMut() -> u32 + Send>> = (0u32..4)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("unrecoverable");
                    }
                    i
                }) as Box<dyn FnMut() -> u32 + Send>
            })
            .collect();
        run_jobs(jobs, &SweepConfig::strict());
    }

    #[test]
    fn expect_complete_passes_clean_grids() {
        let jobs: Vec<_> = (0u32..5).map(|i| move || i + 1).collect();
        let vals = run_jobs(jobs, &SweepConfig::default()).expect_complete("grid");
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn actually_parallel_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(live, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    LIVE.fetch_sub(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        parallel_runs(jobs);
        // On any multi-core runner at least two jobs overlap.
        if std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            > 1
        {
            assert!(PEAK.load(Ordering::SeqCst) >= 2);
        }
    }
}
