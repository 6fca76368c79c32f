//! Parallel execution of experiment grids.
//!
//! Workers take the next `(index, job)` off one shared queue and hand
//! their `(index, result)` pairs back through their join handles; the
//! caller scatters them, so results come back in input order. Jobs are
//! whole replays (milliseconds and up), so one uncontended lock per job
//! is not measurable.
//!
//! Every grid cell is a pure function of (policy, cache size, trace,
//! seed), so a cell that panics will panic again: [`parallel_runs`] lets
//! the other jobs drain, then aborts the sweep naming the failed cell.
//!
//! Worker count: `available_parallelism` (which on Linux honours
//! `taskset` and cgroup CPU quotas), clamped to the job count; the
//! fallback of 4 only applies on platforms where it cannot be queried.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Run `jobs` on worker threads and collect results in input order.
///
/// # Panics
/// After every job has run, if any job panicked: the message names the
/// first failed job's index and its panic message.
pub fn parallel_runs<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let n_workers = std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(n.max(1));
    let mut results: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
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
                        let Some((idx, f)) = next else { break };
                        done.push((idx, isolate(f)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (idx, result) in worker.join().expect("sweep worker panicked") {
                results[idx] = Some(result);
            }
        }
    });
    let failed = results.iter().filter(|r| matches!(r, Some(Err(_)))).count();
    results
        .into_iter()
        .enumerate()
        .map(|(idx, r)| match r.expect("every job ran") {
            Ok(value) => value,
            Err(payload) => panic!(
                "parallel_runs: {failed} of {n} jobs failed (first: job {idx}: {})",
                panic_message(payload)
            ),
        })
        .collect()
}

thread_local! {
    /// Set while this thread runs inside [`isolate`], so the global panic
    /// hook stays quiet for panics that are about to be caught.
    static ISOLATING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` under `catch_unwind` with the default panic report (message
/// and backtrace on stderr) suppressed on this thread: for panics the
/// caller expects, catches and accounts for — a sweep job whose failure
/// [`parallel_runs`] reports once the others have drained, a `cdnd` shard
/// worker about to be restarted. The first call installs the process's
/// one quiet panic hook; panics outside `isolate` still reach the hook
/// that was installed before it.
///
/// `f` must leave nothing half-updated that the caller reads after an
/// `Err`: a shard worker drops its policy with the failed incarnation.
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
    }

    #[test]
    #[should_panic(expected = "job 5")]
    fn job_panic_aborts_strict_sweep() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0u32..8)
            .map(|i| {
                Box::new(move || {
                    if i == 5 {
                        panic!("job failure");
                    }
                    RAN.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let payload = catch_unwind(AssertUnwindSafe(|| parallel_runs(jobs))).unwrap_err();
        // The other jobs drained before the sweep re-panicked.
        assert_eq!(RAN.load(Ordering::SeqCst), 7);
        std::panic::resume_unwind(payload);
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
