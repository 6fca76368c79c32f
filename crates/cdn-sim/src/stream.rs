//! Out-of-core replay seam: one entry point over an in-RAM trace or a
//! disk-backed chunk stream.
//!
//! [`TraceSource`] is the seam the binaries and drills program against:
//! `Columns` replays zero-copy as a one-chunk stream, `Stream` replays
//! through the *same* loop one chunk at a time, fed by `cdn-trace`'s
//! double-buffered prefetch thread. Ledgers are u64-identical either way (pinned for every
//! [`PolicyKind`] in `tests/stream_identity.rs`), so callers choose by
//! memory budget, not by semantics: the streamed side's peak RSS is
//! bounded by chunk buffers plus policy state, independent of trace
//! length.

use std::path::Path;

use cdn_trace::{StreamingTrace, TraceColumns, TraceError};

use crate::runner::{BatchMode, PolicyKind, RunMeasurement, TraceCtx};

/// Where a replay's requests come from: RAM or a bounded-memory stream.
pub enum TraceSource<'a> {
    /// Whole trace resident in RAM (structure-of-arrays, zero-copy).
    Columns(&'a TraceColumns),
    /// Double-buffered chunk stream off disk; only
    /// [`cdn_trace::STREAM_SLOTS`]` + 1` chunks exist at once.
    Stream(StreamingTrace),
}

impl TraceSource<'static> {
    /// Open the binary trace at `path` as a streaming source.
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
}
