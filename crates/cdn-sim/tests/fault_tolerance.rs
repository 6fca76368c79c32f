//! End-to-end recovery proofs under deterministic fault injection.
//!
//! The failpoint registry is process-global, so every test serialises
//! on [`LOCK`] and clears the registry on entry and exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_sim::sweep::FP_SWEEP_JOB;
use cdn_sim::{
    job_fingerprint, run_checkpointed, run_jobs, Checkpoint, JobOutcome, RunMeasurement,
    SweepConfig,
};
use cdn_trace::io::{read_binary, read_binary_columns, write_binary, FP_READ_CHUNK};
use cdn_trace::TraceError;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise on the registry and guarantee a clean slate before/after.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

fn measurement(mr: f64) -> RunMeasurement {
    RunMeasurement {
        policy: "LRU".to_string(),
        miss_ratio: mr,
        byte_miss_ratio: mr / 2.0,
        tps: 1e6,
        ns_per_request: 100.0,
        peak_memory_bytes: 1 << 12,
        resident_objects: 8,
        hits: 300,
        misses: 100,
        hit_bytes: 3_000,
        miss_bytes: 1_000,
    }
}

fn no_retry() -> SweepConfig {
    SweepConfig {
        max_attempts: 1,
        backoff: Duration::ZERO,
        strict: false,
    }
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cdn_sim_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Satellite S3: a 50-job sweep with 3 injected panics yields 47 results
/// plus 3 reported failures, and resuming against the checkpoint sidecar
/// re-executes only the 3 failed cells.
#[test]
fn fifty_job_sweep_survives_three_panics_then_resumes_only_the_failures() {
    let _guard = exclusive();
    let path = tmpfile("resume_after_panics.jsonl");
    std::fs::remove_file(&path).ok();

    const FAILING: [u64; 3] = [7, 23, 41];
    let fps: Vec<String> = (0..50)
        .map(|i| job_fingerprint("LRU", i, 0xFEED, 9))
        .collect();
    fn cells<'a>(
        fps: &[String],
        ran: &'a AtomicUsize,
    ) -> Vec<(String, impl FnMut() -> RunMeasurement + Send + 'a)> {
        fps.iter()
            .enumerate()
            .map(|(i, fp)| {
                (fp.clone(), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    measurement(i as f64 / 100.0)
                })
            })
            .collect()
    }

    // First run: jobs 7, 23 and 41 panic inside the sweep executor.
    fault::arm(
        FP_SWEEP_JOB,
        FaultRule::OnKeys(
            FAILING.to_vec(),
            FaultAction::Panic("injected fault".into()),
        ),
    );
    let ran = AtomicUsize::new(0);
    let checkpoint = Checkpoint::open(&path).unwrap();
    let report = run_checkpointed(cells(&fps, &ran), Some(&checkpoint), &no_retry());
    assert_eq!(report.succeeded(), 47);
    let failures = report.failures();
    assert_eq!(
        failures.iter().map(|(i, _)| *i as u64).collect::<Vec<_>>(),
        FAILING
    );
    for (_, msg) in &failures {
        assert!(msg.contains("injected fault"), "got: {msg}");
    }
    assert_eq!(fault::fired(FP_SWEEP_JOB), 3);
    assert_eq!(checkpoint.len(), 47, "only completed cells checkpointed");
    let values = report.into_values();
    assert_eq!(values.iter().filter(|v| v.is_none()).count(), 3);

    // Resume with the fault gone: exactly the 3 failed cells re-execute.
    fault::clear();
    let ran = AtomicUsize::new(0);
    let checkpoint = Checkpoint::open(&path).unwrap();
    let report = run_checkpointed(cells(&fps, &ran), Some(&checkpoint), &no_retry());
    assert_eq!(ran.load(Ordering::SeqCst), 3);
    assert_eq!(report.cached(), 47);
    assert!(report.failures().is_empty());
    for (i, v) in report.into_values().into_iter().enumerate() {
        let v = v.expect("complete after resume");
        assert!((v.miss_ratio - i as f64 / 100.0).abs() < 1e-12, "cell {i}");
    }
    std::fs::remove_file(&path).ok();
}

/// A fault armed for only the first attempt of each job exercises the
/// bounded-retry path: every job ends up `Retried`, none fail.
#[test]
fn transient_injected_panics_are_retried_to_success() {
    let _guard = exclusive();
    fault::arm(
        FP_SWEEP_JOB,
        FaultRule::FirstAttempts(1, FaultAction::Panic("flaky once".into())),
    );
    let jobs: Vec<_> = (0..5).map(|i| move || i * 10).collect();
    let cfg = SweepConfig {
        max_attempts: 2,
        backoff: Duration::ZERO,
        strict: false,
    };
    let report = run_jobs(jobs, &cfg);
    assert_eq!(report.summary(), "5 jobs: 0 ok, 5 retried, 0 failed");
    for (i, o) in report.outcomes.iter().enumerate() {
        match o {
            JobOutcome::Retried { value, attempts } => {
                assert_eq!(*value, i * 10);
                assert_eq!(*attempts, 2);
            }
            other => panic!("job {i}: expected Retried, got {other:?}"),
        }
    }
    assert_eq!(fault::fired(FP_SWEEP_JOB), 5);
    fault::clear();
}

/// Injected trace-read faults surface as the right structured
/// [`TraceError`] from both readers, and reads heal once disarmed.
#[test]
fn injected_trace_faults_yield_structured_errors_then_heal() {
    let _guard = exclusive();
    let path = tmpfile("faulty_trace.bin");
    let trace = cdn_cache::object::micro_trace(&[(1, 100), (2, 200), (3, 300), (4, 400)]);
    write_binary(&path, &trace).unwrap();

    // Short read: the chunk stops mid-record.
    fault::arm(
        FP_READ_CHUNK,
        FaultRule::OnKeys(vec![0], FaultAction::ShortRead(10)),
    );
    assert!(matches!(
        read_binary(&path).unwrap_err(),
        TraceError::TruncatedMidRecord { .. }
    ));

    // Corrupt byte: the v2 chunk CRC catches the flip, in both readers.
    fault::arm(
        FP_READ_CHUNK,
        FaultRule::OnKeys(vec![0], FaultAction::CorruptByte(17)),
    );
    assert!(matches!(
        read_binary(&path).unwrap_err(),
        TraceError::ChecksumMismatch { chunk: 0, .. }
    ));
    fault::arm(
        FP_READ_CHUNK,
        FaultRule::OnKeys(vec![0], FaultAction::CorruptByte(17)),
    );
    assert!(matches!(
        read_binary_columns(&path).unwrap_err(),
        TraceError::ChecksumMismatch { chunk: 0, .. }
    ));

    // I/O error action maps to TraceError::Io.
    fault::arm(
        FP_READ_CHUNK,
        FaultRule::OnKeys(vec![0], FaultAction::Error("disk vanished".into())),
    );
    assert!(matches!(read_binary(&path).unwrap_err(), TraceError::Io(_)));

    // Disarmed, the same file reads back intact.
    fault::clear();
    assert_eq!(read_binary(&path).unwrap(), trace);
    std::fs::remove_file(&path).ok();
}

/// Strict mode still aborts the sweep when an injected panic survives its
/// retry budget — the pre-existing fail-fast contract is preserved.
#[test]
fn strict_mode_aborts_on_injected_panic() {
    let _guard = exclusive();
    fault::arm(
        FP_SWEEP_JOB,
        FaultRule::OnKeys(vec![1], FaultAction::Panic("fatal".into())),
    );
    let jobs: Vec<_> = (0..3).map(|i| move || i).collect();
    let cfg = SweepConfig {
        max_attempts: 1,
        backoff: Duration::ZERO,
        strict: true,
    };
    let caught = std::panic::catch_unwind(|| run_jobs(jobs, &cfg));
    fault::clear();
    let msg = *caught.unwrap_err().downcast::<String>().unwrap();
    assert!(msg.contains("strict sweep"), "got: {msg}");
}
