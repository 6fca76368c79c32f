//! Out-of-core replay correctness: chunk boundaries must be invisible.
//!
//! Three guarantees pinned here:
//!
//! 1. **Bit-identity** — for every policy in [`PolicyKind::ALL`]
//!    (Belady included, fed the same full oracle context on both sides),
//!    a chunk-streamed replay produces u64-identical ledgers, identical
//!    peak-metadata samples, and an identical per-request `AccessKind` +
//!    occupancy stream to the in-RAM replay of the same trace, for every
//!    degenerate-corpus entry and several chunk lengths.
//! 2. **No silent partial replay** — flipping any single byte of any v2
//!    chunk on disk surfaces a structured [`TraceError`] from the replay
//!    (property-tested over random offsets), and the policy never
//!    observes a request decoded at or past the corrupt chunk.
//! 3. **Untrusted header count** — a header claiming 2⁴⁰ requests must
//!    stream on per-chunk buffers (no count-sized allocation): every
//!    intact full chunk replays, then the first chunk whose framing
//!    contradicts the claimed count surfaces `ChunkLengthMismatch`.

use std::path::PathBuf;
use std::sync::OnceLock;

use cdn_cache::hash::mix64;
use cdn_cache::{AccessKind, Request};
use cdn_sim::{one_chunk, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::io::write_binary;
use cdn_trace::{
    degenerate_corpus, GeneratorConfig, StreamingTrace, TraceColumns, TraceError, TraceGenerator,
    CHUNK_RECORDS, RECORD_BYTES,
};
use proptest::prelude::*;

const CAPACITY: u64 = 1 << 16;
const SEED: u64 = 5;

/// Cut `cols` into owned chunks of `chunk_len` requests.
fn chunked(cols: &TraceColumns, chunk_len: usize) -> Vec<TraceColumns> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < cols.len() {
        let end = (at + chunk_len).min(cols.len());
        let mut c = TraceColumns::new();
        for i in at..end {
            c.push(cols.get(i));
        }
        out.push(c);
        at = end;
    }
    out
}

fn outcome_code(outcome: AccessKind) -> u64 {
    match outcome {
        AccessKind::Hit => 1,
        AccessKind::Miss => 2,
        AccessKind::Rejected(_) => 3,
    }
}

/// Order-sensitive digest over `(index, outcome, used_bytes)`.
fn fold(h: &mut u64, i: usize, outcome: AccessKind, used: u64) {
    *h = mix64(*h ^ mix64(((i as u64) << 2 | outcome_code(outcome)).wrapping_add(used << 34)));
}

#[test]
fn streamed_replay_is_bit_identical_for_every_policy() {
    let mut diverged = Vec::new();
    for (name, trace) in degenerate_corpus(CAPACITY) {
        let cols = TraceColumns::from_requests(&trace);
        // Full oracle context on BOTH sides so Belady participates; the
        // streamed path itself never needs the trace in RAM.
        let ctx = TraceCtx::new(&trace, SEED);
        for kind in PolicyKind::ALL {
            let in_ram = kind.replay_batched(CAPACITY, &cols, &ctx, BatchMode::Off);
            let mut plain: u64 = 0x9E37_79B9_7F4A_7C15;
            kind.run_with_observer(
                CAPACITY,
                one_chunk(&trace[..]),
                &ctx,
                BatchMode::Off,
                |i, _req, outcome, used, _cap| {
                    fold(&mut plain, i, outcome, used);
                },
            )
            .unwrap();
            for chunk_len in [1usize, 257, 4_096] {
                let chunks = chunked(&cols, chunk_len);
                let streamed = kind
                    .replay_stream(
                        CAPACITY,
                        chunks.clone().into_iter().map(Ok::<_, TraceError>),
                        &ctx,
                        BatchMode::Off,
                    )
                    .expect("synthetic stream cannot fail");
                let ledgers_equal = (in_ram.hits, in_ram.misses, in_ram.hit_bytes)
                    == (streamed.hits, streamed.misses, streamed.hit_bytes)
                    && in_ram.miss_bytes == streamed.miss_bytes
                    && in_ram.peak_memory_bytes == streamed.peak_memory_bytes
                    && in_ram.resident_objects == streamed.resident_objects;
                let mut stream_digest: u64 = 0x9E37_79B9_7F4A_7C15;
                kind.run_with_observer(
                    CAPACITY,
                    chunks.into_iter().map(Ok::<_, TraceError>),
                    &ctx,
                    BatchMode::Off,
                    |i, _req, outcome, used, _cap| {
                        fold(&mut stream_digest, i, outcome, used);
                    },
                )
                .expect("synthetic stream cannot fail");
                if !ledgers_equal || stream_digest != plain {
                    diverged.push(format!(
                        "{} on {} at chunk_len {}: ledgers_equal={} digest {:#018x} vs {:#018x}",
                        kind.label(),
                        name,
                        chunk_len,
                        ledgers_equal,
                        stream_digest,
                        plain
                    ));
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "streamed replay diverged from in-RAM replay:\n{}",
        diverged.join("\n")
    );
}

/// The on-disk fixture the corruption proptest flips bytes in: a
/// 2.5-chunk v2 trace, written once per test process.
fn corruption_fixture() -> &'static (PathBuf, Vec<u8>, usize) {
    static FIXTURE: OnceLock<(PathBuf, Vec<u8>, usize)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let requests = CHUNK_RECORDS * 5 / 2;
        let trace = TraceGenerator::generate(GeneratorConfig {
            requests: requests as u64,
            core_objects: 5_000,
            ..GeneratorConfig::default()
        });
        let dir = std::env::temp_dir().join("cdn_sim_stream_identity");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pristine.bin");
        write_binary(&path, &trace).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes, requests)
    })
}

/// v2 layout arithmetic: which chunk does a byte offset fall in, and at
/// which record index does that chunk start?
fn chunk_start_of_offset(offset: usize, total_records: usize) -> usize {
    const HEADER: usize = 16; // magic + version + count
    let mut at = HEADER;
    let mut first_record = 0usize;
    loop {
        let n = (total_records - first_record).min(CHUNK_RECORDS);
        let framed = 4 + n * RECORD_BYTES + 4; // len + payload + crc
        if offset < at + framed {
            return first_record;
        }
        at += framed;
        first_record += n;
        assert!(first_record < total_records, "offset beyond chunk region");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flip one byte anywhere in the chunk region: the streamed replay
    /// must return a structured error, and no request of the corrupt
    /// chunk (or later) may ever reach the policy.
    #[test]
    fn flipped_byte_surfaces_error_not_partial_replay(
        rel_offset in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let (_, pristine, total_records) = corruption_fixture();
        const HEADER: usize = 16;
        const FOOTER: usize = 12;
        let chunk_region = pristine.len() - HEADER - FOOTER;
        let offset = HEADER + ((rel_offset * chunk_region as f64) as usize).min(chunk_region - 1);
        let mut corrupted = pristine.clone();
        corrupted[offset] ^= mask;

        let dir = std::env::temp_dir().join("cdn_sim_stream_identity");
        let path = dir.join(format!("corrupt_{offset}_{mask}.bin"));
        std::fs::write(&path, &corrupted).unwrap();

        let safe_records = chunk_start_of_offset(offset, *total_records);
        let ctx = TraceCtx::without_oracle(*total_records as u64, SEED);
        let stream = StreamingTrace::open(&path).unwrap();
        let mut observed = 0usize;
        let result = PolicyKind::Lru.run_with_observer(
            CAPACITY,
            stream,
            &ctx,
            BatchMode::Off,
            |i, _req, _outcome, _used, _cap| {
                observed = i + 1;
            },
        );
        std::fs::remove_file(&path).ok();
        prop_assert!(result.is_err(), "corruption at {offset} went undetected");
        prop_assert!(
            observed <= safe_records,
            "policy observed {observed} requests but the chunk at record {safe_records} \
             (byte {offset}) was corrupt"
        );
    }
}

#[test]
fn lying_header_count_streams_on_capped_buffers_and_errors_at_footer() {
    let (path, pristine, total_records) = corruption_fixture();
    let mut lying = pristine.clone();
    // Header count lives at bytes 8..16 (LE). Claim 2^40 requests — a
    // reader that sizes any allocation from the header would need 24 TiB.
    let lie: u64 = 1 << 40;
    lying[8..16].copy_from_slice(&lie.to_le_bytes());
    let lying_path = path.with_file_name("lying_count.bin");
    std::fs::write(&lying_path, &lying).unwrap();

    let stream = StreamingTrace::open(&lying_path).unwrap();
    assert_eq!(stream.header_count(), lie as usize, "lie visible in header");
    let ctx = TraceCtx::without_oracle(lie, SEED);
    let mut observed = 0usize;
    let result = PolicyKind::Lru.run_with_observer(
        CAPACITY,
        stream,
        &ctx,
        BatchMode::Off,
        |i, _req, _outcome, _used, _cap| {
            observed = i + 1;
        },
    );
    std::fs::remove_file(&lying_path).ok();
    // Every intact full chunk replays on a capped scratch buffer (a
    // count-trusting reader would have tried a 24 TiB allocation), then
    // the final partial chunk — whose stored record count contradicts
    // the header's claim of 2^40 remaining — surfaces structurally.
    let full_chunks = (*total_records / CHUNK_RECORDS) * CHUNK_RECORDS;
    assert_eq!(observed, full_chunks, "intact full chunks must replay");
    match result {
        Err(TraceError::ChunkLengthMismatch {
            chunk,
            expected,
            actual,
        }) => {
            assert_eq!(chunk, total_records / CHUNK_RECORDS);
            assert_eq!(expected as usize, CHUNK_RECORDS);
            assert_eq!(actual as usize, total_records - full_chunks);
        }
        other => panic!("expected ChunkLengthMismatch, got {other:?}"),
    }
}

#[test]
fn prefetch_thread_errors_and_panics_propagate_through_replay() {
    // An I/O error mid-stream aborts the replay with that error.
    let trace: Vec<Request> = TraceGenerator::generate(GeneratorConfig {
        requests: 2_000,
        core_objects: 300,
        ..GeneratorConfig::default()
    });
    let cols = TraceColumns::from_requests(&trace);
    let good = chunked(&cols, 512);
    let chunks: Vec<Result<TraceColumns, TraceError>> = good
        .into_iter()
        .map(Ok)
        .take(2)
        .chain(std::iter::once(Err(TraceError::Io(std::io::Error::other(
            "disk pulled",
        )))))
        .collect();
    let ctx = TraceCtx::without_oracle(trace.len() as u64, SEED);
    let stream = StreamingTrace::spawn(chunks.into_iter());
    let err = PolicyKind::Lru
        .replay_stream(CAPACITY, stream, &ctx, BatchMode::Off)
        .expect_err("mid-stream I/O error must abort the replay");
    assert!(matches!(err, TraceError::Io(_)), "got {err:?}");

    // A panicking reader thread surfaces as an error, not a short stream.
    struct PanicAfter {
        left: usize,
        cols: TraceColumns,
    }
    impl Iterator for PanicAfter {
        type Item = Result<TraceColumns, TraceError>;
        fn next(&mut self) -> Option<Self::Item> {
            if self.left == 0 {
                panic!("reader thread lost its mind");
            }
            self.left -= 1;
            Some(Ok(self.cols.clone()))
        }
    }
    let stream = StreamingTrace::spawn(PanicAfter {
        left: 2,
        cols: TraceColumns::from_requests(&trace[..100]),
    });
    let err = PolicyKind::Lru
        .replay_stream(CAPACITY, stream, &ctx, BatchMode::Off)
        .expect_err("reader panic must abort the replay");
    let msg = err.to_string();
    assert!(msg.contains("panicked"), "error must name the panic: {msg}");
}
