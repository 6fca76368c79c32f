//! Out-of-core replay seam: one entry point over an in-RAM trace or a
//! disk-backed chunk stream.
//!
//! [`TraceSource`] is the seam the binaries and drills program against:
//! `Columns` replays zero-copy through the batched in-RAM hot loop,
//! `Stream` replays through the chunked variant of the *same*
//! monomorphized loop fed by `cdn-trace`'s double-buffered prefetch
//! thread. Ledgers are u64-identical either way (pinned for every
//! [`PolicyKind`] in `tests/stream_identity.rs`), so callers choose by
//! memory budget, not by semantics: the streamed side's peak RSS is
//! bounded by chunk buffers plus policy state, independent of trace
//! length.
//!
//! [`sweep_streamed`] extends the checkpoint/resume machinery to
//! out-of-core sweeps: each cell opens its own [`StreamingTrace`] (jobs
//! are retry-safe and share no reader state), and fingerprints are keyed
//! by [`file_content_hash`] — which equals the in-RAM
//! [`TraceColumns::content_hash`] of the same records, so sidecars
//! written by in-RAM sweeps of the same trace remain valid and vice
//! versa.

use std::path::Path;

use cdn_trace::{file_content_hash, ChunkIter, StreamingTrace, TraceColumns, TraceError};

use crate::checkpoint::{run_checkpointed, Checkpoint};
use crate::runner::{BatchMode, PolicyKind, RunMeasurement, TraceCtx};
use crate::sweep::{SweepConfig, SweepReport};

/// Where a replay's requests come from: RAM or a bounded-memory stream.
pub enum TraceSource<'a> {
    /// Whole trace resident in RAM (structure-of-arrays, zero-copy).
    Columns(&'a TraceColumns),
    /// Double-buffered chunk stream off disk; only
    /// [`cdn_trace::STREAM_SLOTS`]` + 1` chunks exist at once.
    Stream(StreamingTrace),
}

impl TraceSource<'static> {
    /// Open `path` as a streaming source (format v1 or v2).
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(TraceSource::Stream(StreamingTrace::open(path)?))
    }
}

impl TraceSource<'_> {
    /// Requests this source claims to hold: exact for `Columns`, the
    /// (untrusted, advisory) header count for `Stream`.
    pub fn requests_hint(&self) -> u64 {
        match self {
            TraceSource::Columns(c) => c.len() as u64,
            TraceSource::Stream(s) => s.header_count() as u64,
        }
    }

    /// Replay this source through a freshly built `kind`. The in-RAM arm
    /// is exactly [`PolicyKind::replay_batched`]; the streamed arm is
    /// [`PolicyKind::replay_stream`] and surfaces the first
    /// [`TraceError`] (corruption, truncation, I/O, prefetch-thread
    /// death) instead of returning a partial measurement.
    pub fn replay(
        self,
        kind: PolicyKind,
        capacity: u64,
        ctx: &TraceCtx,
        mode: BatchMode,
    ) -> Result<RunMeasurement, TraceError> {
        match self {
            TraceSource::Columns(cols) => Ok(kind.replay_batched(capacity, cols, ctx, mode)),
            TraceSource::Stream(stream) => kind.replay_stream(capacity, stream, ctx, mode),
        }
    }
}

/// Checkpointable sweep over an on-disk trace that never loads it whole:
/// every `(policy, cache_bytes)` cell opens its own [`StreamingTrace`]
/// over `path` and replays it out-of-core, with panic isolation and
/// bounded retry from the regular sweep executor. Peak RSS is bounded by
/// `workers × (chunk buffers + policy state)`, independent of trace
/// length.
///
/// Cell fingerprints are `label|cap|file_content_hash|seed` — identical
/// to the fingerprints an in-RAM sweep of the same records computes, so
/// a sidecar survives switching a sweep between in-RAM and streamed
/// execution. The hash pass and the per-cell replays each stream the
/// file separately; a cell whose stream errors mid-replay panics inside
/// the isolation boundary and surfaces as a `Panicked` outcome naming
/// the [`TraceError`] (suppressed, never fabricated).
///
/// # Panics
/// If `cells` contains [`PolicyKind::Belady`]: the MIN oracle needs the
/// whole trace in RAM to index its next-access table, which is exactly
/// what an out-of-core sweep does not have.
pub fn sweep_streamed(
    path: &Path,
    cells: &[(PolicyKind, u64)],
    seed: u64,
    mode: BatchMode,
    checkpoint: Option<&Checkpoint>,
    cfg: &SweepConfig,
) -> Result<SweepReport<RunMeasurement>, TraceError> {
    assert!(
        cells.iter().all(|(k, _)| *k != PolicyKind::Belady),
        "sweep_streamed: Belady needs the trace in RAM (next-access oracle)"
    );
    let trace_hash = file_content_hash(path)?;
    let header_count = ChunkIter::open(path)?.header_count() as u64;
    let jobs: Vec<(String, _)> = cells
        .iter()
        .map(|&(kind, cache_bytes)| {
            let fp = kind.fingerprint(cache_bytes, trace_hash, seed);
            let job = move || {
                let ctx = TraceCtx::without_oracle(header_count, seed);
                let stream = StreamingTrace::open(path)
                    .unwrap_or_else(|e| panic!("streamed sweep cell {kind:?}: {e}"));
                kind.replay_stream(cache_bytes, stream, &ctx, mode)
                    .unwrap_or_else(|e| panic!("streamed sweep cell {kind:?}: {e}"))
            };
            (fp, job)
        })
        .collect();
    Ok(run_checkpointed(jobs, checkpoint, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_trace::io::write_binary;
    use cdn_trace::{GeneratorConfig, TraceGenerator};
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cdn_sim_stream_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_trace() -> Vec<cdn_cache::Request> {
        TraceGenerator::generate(GeneratorConfig {
            requests: 30_000,
            core_objects: 2_000,
            ..GeneratorConfig::default()
        })
    }

    #[test]
    fn seam_arms_produce_identical_ledgers() {
        let trace = sample_trace();
        let cols = TraceColumns::from_requests(&trace);
        let path = tmpfile("seam.bin");
        write_binary(&path, &trace).unwrap();
        let ctx = TraceCtx::new(&trace, 7);
        for kind in [PolicyKind::Lru, PolicyKind::Scip, PolicyKind::TinyLfu] {
            let in_ram = TraceSource::Columns(&cols)
                .replay(kind, 50_000, &ctx, BatchMode::Off)
                .unwrap();
            let streamed = TraceSource::open(&path)
                .unwrap()
                .replay(kind, 50_000, &ctx, BatchMode::Off)
                .unwrap();
            assert_eq!(
                (
                    in_ram.hits,
                    in_ram.misses,
                    in_ram.hit_bytes,
                    in_ram.miss_bytes
                ),
                (
                    streamed.hits,
                    streamed.misses,
                    streamed.hit_bytes,
                    streamed.miss_bytes
                ),
                "{kind:?}"
            );
            assert_eq!(
                in_ram.resident_objects, streamed.resident_objects,
                "{kind:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn requests_hint_matches_header() {
        let trace = sample_trace();
        let path = tmpfile("hint.bin");
        write_binary(&path, &trace).unwrap();
        let src = TraceSource::open(&path).unwrap();
        assert_eq!(src.requests_hint(), trace.len() as u64);
        let cols = TraceColumns::from_requests(&trace);
        assert_eq!(
            TraceSource::Columns(&cols).requests_hint(),
            trace.len() as u64
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_streamed_checkpoints_with_in_ram_compatible_fingerprints() {
        let trace = sample_trace();
        let cols = TraceColumns::from_requests(&trace);
        let path = tmpfile("sweep.bin");
        write_binary(&path, &trace).unwrap();
        let sidecar = tmpfile("sweep.jsonl");
        std::fs::remove_file(&sidecar).ok();

        let cells = [(PolicyKind::Lru, 50_000u64), (PolicyKind::Scip, 50_000u64)];
        let ckpt = Checkpoint::open(&sidecar).unwrap();
        let report = sweep_streamed(
            &path,
            &cells,
            7,
            BatchMode::Off,
            Some(&ckpt),
            &SweepConfig::default(),
        )
        .unwrap();
        assert!(report.failures().is_empty());
        assert_eq!(report.cached(), 0);

        // The sidecar key is the same fingerprint an in-RAM sweep
        // computes: label|cap|content_hash|seed.
        let in_ram_fp = PolicyKind::Lru.fingerprint(50_000, cols.content_hash(), 7);
        let ckpt = Checkpoint::open(&sidecar).unwrap();
        assert!(
            ckpt.get(&in_ram_fp).is_some(),
            "streamed sidecar must be keyed by the trace content hash"
        );

        // Resume: everything restored, nothing re-runs (and restored
        // ledgers match a fresh in-RAM replay).
        let report = sweep_streamed(
            &path,
            &cells,
            7,
            BatchMode::Off,
            Some(&ckpt),
            &SweepConfig::default(),
        )
        .unwrap();
        assert_eq!(report.cached(), cells.len());
        let ctx = TraceCtx::new(&trace, 7);
        let fresh = PolicyKind::Lru.replay_batched(50_000, &cols, &ctx, BatchMode::Off);
        let cached = report.outcomes[0].value().unwrap();
        assert_eq!((cached.hits, cached.misses), (fresh.hits, fresh.misses));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    #[should_panic(expected = "Belady")]
    fn sweep_streamed_rejects_belady() {
        let path = tmpfile("belady.bin");
        write_binary(&path, &sample_trace()).unwrap();
        let _ = sweep_streamed(
            &path,
            &[(PolicyKind::Belady, 1_000)],
            7,
            BatchMode::Off,
            None,
            &SweepConfig::default(),
        );
    }
}
