//! Out-of-core streaming: double-buffered trace prefetch and the
//! direct-to-disk corpus generator.
//!
//! Two halves, both bounded-memory by construction:
//!
//! - **Read side** — [`StreamingTrace`] wraps a [`ChunkIter`] in a
//!   prefetch thread connected to the consumer by one bounded two-slot
//!   channel ([`STREAM_SLOTS`]): while the consumer replays chunk *N*,
//!   the reader decodes (and CRC-verifies) chunk *N+1* into the free
//!   slot, overlapping I/O + decode with compute. Peak memory on the
//!   read path is `(STREAM_SLOTS + 2) × chunk bytes` — the slots, the
//!   chunk being decoded, and the chunk being consumed — independent of
//!   trace length. Decode errors travel through the channel as values;
//!   a reader panic is caught and surfaces as a structured
//!   [`TraceError`], never a hang or a silently short stream.
//!
//! - **Write side** — [`generate_binary`] feeds the deterministic
//!   [`TraceGenerator`] to the one v2 writer
//!   ([`write_binary_stream`]), one chunk buffer at a time. Generation
//!   is sequential (the RNG state is the determinism); the writer's one
//!   thread overlaps the file write with it. The output is
//!   byte-identical to
//!   `write_binary(path, &TraceGenerator::generate(cfg))` without ever
//!   materializing the trace.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;

use cdn_cache::Request;

use crate::columns::TraceColumns;
use crate::gen::{GeneratorConfig, TraceGenerator};
use crate::io::{write_binary_stream, ChunkIter, TraceError, CHUNK_RECORDS};

/// Bounded channel depth between the prefetch thread and the consumer:
/// one slot being consumed-from, one being filled — classic double
/// buffering.
pub const STREAM_SLOTS: usize = 2;

/// A trace streamed off disk through a prefetch thread. Iterate it like
/// any chunk source: `Item = Result<TraceColumns, TraceError>`, fused
/// after the first error.
pub struct StreamingTrace {
    rx: Option<Receiver<Result<TraceColumns, TraceError>>>,
    handle: Option<JoinHandle<()>>,
    header_count: usize,
    failed: bool,
}

impl StreamingTrace {
    /// Open `path` and start prefetching. Header errors (missing file,
    /// bad magic, unsupported version) surface synchronously here;
    /// everything later arrives through the stream, one disk chunk
    /// ([`CHUNK_RECORDS`]) per yielded chunk.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::open_with_chunk_records(path, CHUNK_RECORDS)
    }

    /// [`Self::open`] with an explicit records-per-yielded-chunk target
    /// (rounded up to whole disk chunks).
    pub fn open_with_chunk_records(path: &Path, records: usize) -> Result<Self, TraceError> {
        let iter = ChunkIter::open(path)?;
        let header_count = iter.header_count();
        Ok(Self::spawn_coalescing(iter, records.max(1), header_count))
    }

    /// Wrap an arbitrary chunk source in the prefetch thread. Tests use
    /// synthetic sources to prove error and panic propagation.
    pub fn spawn<I>(chunks: I) -> Self
    where
        I: Iterator<Item = Result<TraceColumns, TraceError>> + Send + 'static,
    {
        Self::spawn_coalescing(chunks, 1, 0)
    }

    fn spawn_coalescing<I>(chunks: I, target_records: usize, header_count: usize) -> Self
    where
        I: Iterator<Item = Result<TraceColumns, TraceError>> + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(STREAM_SLOTS);
        // A panic anywhere in here drops `tx`; the consumer tells a panic
        // apart from a clean end by joining the thread on disconnect.
        let handle = std::thread::Builder::new()
            .name("trace-prefetch".to_string())
            .spawn(move || {
                let mut pending: Option<TraceColumns> = None;
                for item in chunks {
                    match item {
                        Ok(cols) => {
                            let merged = match pending.take() {
                                None => cols,
                                Some(mut acc) => {
                                    acc.append_columns(&cols);
                                    acc
                                }
                            };
                            if merged.len() >= target_records {
                                if tx.send(Ok(merged)).is_err() {
                                    return; // consumer gone
                                }
                            } else {
                                pending = Some(merged);
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
                if let Some(acc) = pending {
                    let _ = tx.send(Ok(acc));
                }
            })
            .expect("spawn trace-prefetch thread");
        StreamingTrace {
            rx: Some(rx),
            handle: Some(handle),
            header_count,
            failed: false,
        }
    }

    /// Record count the file header claims (untrusted; sizing hint only).
    pub fn header_count(&self) -> usize {
        self.header_count
    }
}

impl Iterator for StreamingTrace {
    type Item = Result<TraceColumns, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.rx.as_ref()?.recv() {
            Ok(Ok(cols)) => Some(Ok(cols)),
            Ok(Err(e)) => {
                self.failed = true;
                Some(Err(e))
            }
            // Disconnect: either a clean end of stream or the reader
            // thread died without sending an error (a panic). Join it to
            // find out which — a panic must never masquerade as a clean,
            // shorter trace.
            Err(_) => {
                self.rx = None;
                match self.handle.take().map(|h| h.join()) {
                    Some(Err(panic)) => {
                        self.failed = true;
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".to_string());
                        Some(Err(TraceError::Io(io::Error::other(format!(
                            "trace prefetch thread panicked: {msg}"
                        )))))
                    }
                    _ => None,
                }
            }
        }
    }
}

impl Drop for StreamingTrace {
    fn drop(&mut self) {
        // Disconnect first so a reader blocked in `send` exits, then reap
        // the thread (panics were already surfaced through `next`).
        self.rx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Generate `cfg`'s trace straight to disk in format v2, byte-identical
/// to `write_binary(path, &TraceGenerator::generate(cfg))`, holding a
/// few chunk buffers in memory. Returns the record count written.
pub fn generate_binary(path: &Path, cfg: GeneratorConfig) -> io::Result<u64> {
    let count = cfg.requests;
    write_binary_stream(path, count, TraceGenerator::new(cfg))?;
    Ok(count)
}

/// Stream-write a CSV trace from an iterator (header row included).
pub fn write_csv_stream(path: &Path, iter: impl Iterator<Item = Request>) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "tick,id,size,wall_secs")?;
    let mut written = 0u64;
    for r in iter {
        writeln!(w, "{},{},{},{}", r.tick, r.id.0, r.size, r.wall_secs)?;
        written += 1;
    }
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::profiles::Workload;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_cfg(requests: u64) -> GeneratorConfig {
        Workload::CdnT.profile().config(requests, 11)
    }

    #[test]
    fn generate_binary_bit_identical_to_in_ram_writer() {
        // Crosses several chunk boundaries plus a partial tail, with the
        // PR 9 drift-event schedule included, so the streamed writer is
        // proven byte-identical on exactly the corpora it exists for.
        let n = CHUNK_RECORDS as u64 * 2 + 4_321;
        let cfg = crate::profiles::Workload::CdnT
            .profile()
            .config_with_events(
                n,
                11,
                vec![crate::gen::DriftEvent::FlashCrowd {
                    start: n / 4,
                    duration: n / 2,
                    share: 0.5,
                    objects: 64,
                }],
            );
        let dir = tmpdir("cdn_trace_stream_bitident");
        let streamed = dir.join("streamed.bin");
        let reference = dir.join("reference.bin");
        assert_eq!(generate_binary(&streamed, cfg.clone()).unwrap(), n);
        write_binary(&reference, &TraceGenerator::generate(cfg)).unwrap();
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&reference).unwrap(),
            "streamed generator output differs from the in-RAM writer"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_binary_stream_matches_write_binary() {
        let cfg = small_cfg(10_000);
        let trace = TraceGenerator::generate(cfg.clone());
        let dir = tmpdir("cdn_trace_stream_writer");
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        write_binary_stream(&a, cfg.requests, TraceGenerator::new(cfg)).unwrap();
        write_binary(&b, &trace).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_binary_stream_rejects_count_lies() {
        let cfg = small_cfg(100);
        let dir = tmpdir("cdn_trace_stream_countlie");
        let path = dir.join("lie.bin");
        let err = write_binary_stream(&path, 101, TraceGenerator::new(cfg)).unwrap_err();
        assert!(err.to_string().contains("yielded 100"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_trace_reproduces_file_in_order() {
        let cfg = small_cfg(CHUNK_RECORDS as u64 + 777);
        let trace = TraceGenerator::generate(cfg);
        let dir = tmpdir("cdn_trace_stream_roundtrip");
        let path = dir.join("t.bin");
        write_binary(&path, &trace).unwrap();
        let mut streamed = TraceColumns::new();
        let mut chunks = 0usize;
        for chunk in StreamingTrace::open(&path).unwrap() {
            streamed.append_columns(&chunk.unwrap());
            chunks += 1;
        }
        assert!(chunks >= 2, "expected multiple chunks, got {chunks}");
        assert_eq!(streamed.to_requests(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn coalescing_respects_target_and_order() {
        let cfg = small_cfg(CHUNK_RECORDS as u64 * 3 + 5);
        let trace = TraceGenerator::generate(cfg);
        let dir = tmpdir("cdn_trace_stream_coalesce");
        let path = dir.join("t.bin");
        write_binary(&path, &trace).unwrap();
        let mut streamed = TraceColumns::new();
        let mut chunks = 0usize;
        for chunk in StreamingTrace::open_with_chunk_records(&path, CHUNK_RECORDS * 2).unwrap() {
            streamed.append_columns(&chunk.unwrap());
            chunks += 1;
        }
        // 3 full disk chunks + tail coalesced pairwise: 2 yields.
        assert_eq!(chunks, 2, "coalescing changed the chunk count");
        assert_eq!(streamed.to_requests(), trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_error_propagates_through_prefetch_thread() {
        let chunks = vec![
            Ok(TraceColumns::from_requests(
                &cdn_cache::object::micro_trace(&[(1, 10), (2, 20)]),
            )),
            Err(TraceError::Io(io::Error::other("disk on fire"))),
            // Never reached: the stream must fuse at the first error.
            Ok(TraceColumns::from_requests(
                &cdn_cache::object::micro_trace(&[(3, 30)]),
            )),
        ];
        let mut stream = StreamingTrace::spawn(chunks.into_iter());
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("disk on fire"), "{err}");
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn reader_panic_surfaces_as_error_not_short_stream() {
        struct PanicAfter(usize);
        impl Iterator for PanicAfter {
            type Item = Result<TraceColumns, TraceError>;
            fn next(&mut self) -> Option<Self::Item> {
                if self.0 == 0 {
                    panic!("prefetch exploded mid-trace");
                }
                self.0 -= 1;
                Some(Ok(TraceColumns::from_requests(
                    &cdn_cache::object::micro_trace(&[(7, 70)]),
                )))
            }
        }
        let mut stream = StreamingTrace::spawn(PanicAfter(1));
        assert!(stream.next().unwrap().is_ok());
        let err = stream.next().unwrap().unwrap_err();
        assert!(
            err.to_string().contains("prefetch thread panicked"),
            "panic must not look like end-of-trace: {err}"
        );
        assert!(stream.next().is_none());
    }

    #[test]
    fn dropping_mid_stream_does_not_hang() {
        let cfg = small_cfg(CHUNK_RECORDS as u64 * 4);
        let dir = tmpdir("cdn_trace_stream_drop");
        let path = dir.join("t.bin");
        generate_binary(&path, cfg).unwrap();
        let mut stream = StreamingTrace::open(&path).unwrap();
        assert!(stream.next().unwrap().is_ok());
        drop(stream); // reader may be blocked in send; Drop must unwedge it
        std::fs::remove_dir_all(&dir).ok();
    }
}
