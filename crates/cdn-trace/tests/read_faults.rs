//! Trace reads under deterministic fault injection at `trace.read_chunk`.
//!
//! The failpoint registry is process-global, so every test serialises
//! on [`LOCK`] and clears the registry on entry and exit.

use std::path::PathBuf;
use std::sync::Mutex;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_trace::io::{read_binary, read_binary_columns, write_binary, FP_READ_CHUNK};
use cdn_trace::TraceError;

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise on the registry and guarantee a clean slate before/after.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cdn_trace_fault_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
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
