//! Trace serialisation: a corruption-detecting binary format plus CSV.
//!
//! The binary format (version 2; little-endian throughout): magic `CDNT`,
//! `u32` version, `u64` request count; then chunks of up to
//! [`CHUNK_RECORDS`] records, each chunk `u32 record-count`, payload
//! (per record `u64 id`, `u64 size`, `f64 wall_secs`; ticks are implicit
//! record positions), `u32` IEEE CRC-32 of the payload; then a footer
//! (`u64` count repeated + magic `CDNE`). *Any* single corrupted byte —
//! header, payload, checksum or footer — and any truncation is reported
//! as a structured [`TraceError`] instead of a silent short trace. A file
//! whose header names any other version (the checksum-less version 1
//! included) is refused with [`TraceError::UnsupportedVersion`].
//!
//! The CSV flavour (`tick,id,size,wall_secs` with a header) matches what
//! the LRB simulator's tooling consumes after a one-column rename.
//!
//! The read path evaluates the `trace.read_chunk` failpoint per chunk,
//! letting tests deliver short reads and corrupted chunks
//! deterministically (see `cdn_cache::fault`).

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use cdn_cache::Request;

use crate::checksum::crc32;
use crate::columns::TraceColumns;

const MAGIC: &[u8; 4] = b"CDNT";
const END_MAGIC: &[u8; 4] = b"CDNE";
const VERSION: u32 = 2;

/// Bytes per on-disk record: `u64 id`, `u64 size`, `f64 wall_secs`.
pub const RECORD_BYTES: usize = 24;

/// Records per chunk and per bulk read (1.5 MiB of I/O per syscall
/// batch); also the granularity of corruption detection and the unit a
/// [`ChunkIter`] yields.
pub const CHUNK_RECORDS: usize = 64 * 1024;

/// Cap on up-front allocation derived from the (untrusted) header count,
/// so a corrupt count cannot OOM the reader; the vectors still grow to
/// the real size if the file actually holds that many records.
const PREALLOC_CAP_BYTES: usize = 64 << 20;

/// Failpoint evaluated once per chunk read (key = chunk index).
pub const FP_READ_CHUNK: &str = "trace.read_chunk";

/// Everything that can go wrong reading a trace, with enough structure
/// for callers to distinguish "file missing" from "file lying".
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure (open, read, write).
    Io(io::Error),
    /// The file does not start with the `CDNT` magic.
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion(u32),
    /// The file ends in the middle of record `tick` (or its chunk
    /// framing): the byte stream is shorter than the header promised.
    TruncatedMidRecord {
        /// Record index (= tick) at which the data ran out.
        tick: u64,
    },
    /// A chunk's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Zero-based chunk index.
        chunk: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// A chunk header disagrees with the record count the file header
    /// implies for that chunk (a corrupted length field).
    ChunkLengthMismatch {
        /// Zero-based chunk index.
        chunk: usize,
        /// Records this chunk must hold given the header count.
        expected: u32,
        /// Records the chunk claims to hold.
        actual: u32,
    },
    /// The footer is missing, malformed, or repeats a different count
    /// than the header (header/footer disagreement ⇒ one of them lies).
    CountMismatch {
        /// Count from the file header.
        header: u64,
        /// Count from the footer.
        footer: u64,
    },
    /// A record claims zero size — no valid CDN request is empty
    /// (reported by [`TraceColumns::validate`]).
    ZeroSizeRecord {
        /// Offending record index.
        tick: u64,
    },
    /// Ticks or wall-clock timestamps go backwards (reported by
    /// [`TraceColumns::validate`]).
    NonMonotonicTime {
        /// First offending record index.
        tick: u64,
    },
    /// A CSV line failed to parse.
    Csv {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a CDNT trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::TruncatedMidRecord { tick } => {
                write!(f, "trace truncated mid-record at tick {tick}")
            }
            TraceError::ChecksumMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceError::ChunkLengthMismatch {
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "chunk {chunk} length field corrupt (expected {expected} records, claims {actual})"
            ),
            TraceError::CountMismatch { header, footer } => write!(
                f,
                "header/footer record counts disagree ({header} vs {footer})"
            ),
            TraceError::ZeroSizeRecord { tick } => {
                write!(f, "zero-size record at tick {tick}")
            }
            TraceError::NonMonotonicTime { tick } => {
                write!(f, "non-monotonic tick/wall-clock at tick {tick}")
            }
            TraceError::Csv { line, msg } => write!(f, "csv line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Read exactly `buf.len()` bytes; an early EOF becomes
/// [`TraceError::TruncatedMidRecord`] at record index `tick`.
fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8], tick: u64) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::TruncatedMidRecord { tick }
        } else {
            TraceError::Io(e)
        }
    })
}

fn encode_record(out: &mut Vec<u8>, r: &Request) {
    out.extend_from_slice(&r.id.0.to_le_bytes());
    out.extend_from_slice(&r.size.to_le_bytes());
    out.extend_from_slice(&r.wall_secs.to_le_bytes());
}

/// Write a trace in the binary format (chunked, CRC-32 per chunk, length
/// footer).
pub fn write_binary(path: &Path, trace: &[Request]) -> io::Result<()> {
    write_binary_stream(path, trace.len() as u64, trace.iter().copied())
}

/// The writer: stream `iter`'s records to `path` one chunk buffer at a
/// time, so the trace never has to exist in memory. The header carries
/// `count` before the first record is seen; an iterator that yields a
/// different number is an error (the header and footer would otherwise
/// lie).
///
/// Full chunk buffers are handed to one scoped writer thread, which
/// checksums and writes them in arrival order: on a corpus larger than
/// the kernel's dirty-page budget `write` blocks on writeback, and that
/// wait overlaps the iterator instead of stalling it.
pub fn write_binary_stream(
    path: &Path,
    count: u64,
    iter: impl Iterator<Item = Request>,
) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&count.to_le_bytes())?;
    let chunk_bytes = CHUNK_RECORDS * RECORD_BYTES;
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
    let (written, w) = std::thread::scope(|s| {
        let writer = s.spawn(move || -> io::Result<BufWriter<File>> {
            for payload in rx {
                w.write_all(&((payload.len() / RECORD_BYTES) as u32).to_le_bytes())?;
                w.write_all(&payload)?;
                w.write_all(&crc32(&payload).to_le_bytes())?;
            }
            Ok(w)
        });
        let mut written = 0u64;
        let mut payload = Vec::with_capacity(chunk_bytes);
        for r in iter {
            encode_record(&mut payload, &r);
            written += 1;
            if payload.len() == chunk_bytes {
                let full = std::mem::replace(&mut payload, Vec::with_capacity(chunk_bytes));
                if tx.send(full).is_err() {
                    break; // the writer stopped on an I/O error, returned below
                }
            }
        }
        if !payload.is_empty() {
            let _ = tx.send(payload);
        }
        drop(tx);
        (
            written,
            writer.join().expect("trace writer thread panicked"),
        )
    });
    let mut w = w?;
    if written != count {
        return Err(io::Error::other(format!(
            "streaming writer: iterator yielded {written} records, header promised {count}"
        )));
    }
    w.write_all(&count.to_le_bytes())?;
    w.write_all(END_MAGIC)?;
    w.flush()
}

/// Validate the magic and the version, read the (untrusted) record count.
fn read_header(r: &mut impl Read) -> Result<usize, TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    Ok(u64::from_le_bytes(buf8) as usize)
}

/// Decode one chunk payload, feeding each record to `push` as
/// `(tick, id, size, wall_secs)`.
fn decode_payload(bytes: &[u8], first_tick: usize, mut push: impl FnMut(u64, u64, u64, f64)) {
    for (i, rec) in bytes.chunks_exact(RECORD_BYTES).enumerate() {
        let id = u64::from_le_bytes(rec[0..8].try_into().unwrap());
        let size = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let wall_secs = f64::from_le_bytes(rec[16..24].try_into().unwrap());
        push((first_tick + i) as u64, id, size, wall_secs);
    }
}

/// Apply any armed `trace.read_chunk` fault to a freshly read chunk
/// payload. Returns the (possibly shortened) payload length.
fn inject_chunk_fault(payload: &mut [u8], chunk: usize) -> Result<usize, TraceError> {
    use cdn_cache::fault::{self, FaultAction};
    match fault::check(FP_READ_CHUNK, chunk as u64) {
        Some(FaultAction::ShortRead(n)) => Ok(n.min(payload.len())),
        Some(FaultAction::CorruptByte(off)) => {
            if let Some(b) = payload.get_mut(off % payload.len().max(1)) {
                *b ^= 0x01;
            }
            Ok(payload.len())
        }
        Some(FaultAction::Error(msg)) => Err(TraceError::Io(io::Error::other(msg))),
        Some(FaultAction::Panic(msg)) => panic!("{msg}"),
        None => Ok(payload.len()),
    }
}

/// Streaming decoder over a binary trace: yields one decoded chunk at a
/// time, so working memory is bounded by a single chunk buffer regardless
/// of trace length — **the only binary decode path in the crate**
/// ([`read_binary`] and [`read_binary_columns`] are collectors over it).
///
/// Memory safety against hostile headers: the per-chunk scratch buffer is
/// sized by `min(header count, CHUNK_RECORDS)`, so a header claiming
/// `u64::MAX` records allocates at most one chunk (1.5 MiB) and then
/// fails with [`TraceError::TruncatedMidRecord`] when the bytes run out.
///
/// Error handling: the first error fuses the iterator (subsequent calls
/// yield nothing), so a corrupt chunk can never be followed by silently
/// decoded tail data. The footer is verified when the last chunk has
/// been consumed, before the stream reports a clean end.
pub struct ChunkIter<R> {
    r: R,
    /// Untrusted record count from the header — a *size hint*, never an
    /// allocation bound beyond one chunk.
    count: usize,
    tick: usize,
    chunk: usize,
    buf: Vec<u8>,
    done: bool,
}

impl ChunkIter<BufReader<File>> {
    /// Open a trace file and validate its header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> ChunkIter<R> {
    /// Wrap any byte stream positioned at the trace header.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let count = read_header(&mut r)?;
        Ok(ChunkIter {
            r,
            count,
            tick: 0,
            chunk: 0,
            // One chunk of scratch, no matter what the header claims.
            buf: vec![0u8; CHUNK_RECORDS.min(count.max(1)) * RECORD_BYTES],
            done: false,
        })
    }

    /// Record count the header claims. Untrusted: use it to size
    /// estimates, never allocations.
    pub fn header_count(&self) -> usize {
        self.count
    }

    /// Decode the next chunk, feeding each record to `push` as
    /// `(tick, id, size, wall_secs)`. Returns the number of records
    /// decoded; `Ok(0)` means clean end-of-trace (the footer has been
    /// verified). Any error fuses the stream.
    pub fn next_chunk_with(
        &mut self,
        mut push: impl FnMut(u64, u64, u64, f64),
    ) -> Result<usize, TraceError> {
        if self.done {
            return Ok(0);
        }
        match self.step_payload() {
            Ok(0) => Ok(0),
            Ok(n) => {
                decode_payload(&self.buf[..n * RECORD_BYTES], self.tick, &mut push);
                self.advance(n);
                Ok(n)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    /// Decode the next chunk straight into `cols` (appending) with one
    /// bulk pass per column instead of a per-record closure — the decode
    /// path the prefetch thread runs, where per-record call overhead is
    /// stolen directly from the replay loop on small hosts. Same
    /// semantics as [`Self::next_chunk_with`] otherwise.
    pub fn next_chunk_columns(&mut self, cols: &mut TraceColumns) -> Result<usize, TraceError> {
        if self.done {
            return Ok(0);
        }
        match self.step_payload() {
            Ok(0) => Ok(0),
            Ok(n) => {
                let bytes = &self.buf[..n * RECORD_BYTES];
                cols.ids.extend(bytes.chunks_exact(RECORD_BYTES).map(|r| {
                    cdn_cache::ObjectId::from(u64::from_le_bytes(r[0..8].try_into().unwrap()))
                }));
                cols.sizes.extend(
                    bytes
                        .chunks_exact(RECORD_BYTES)
                        .map(|r| u64::from_le_bytes(r[8..16].try_into().unwrap())),
                );
                cols.wall_secs.extend(
                    bytes
                        .chunks_exact(RECORD_BYTES)
                        .map(|r| f64::from_le_bytes(r[16..24].try_into().unwrap())),
                );
                cols.ticks.extend(self.tick as u64..(self.tick + n) as u64);
                self.advance(n);
                Ok(n)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    fn advance(&mut self, records: usize) {
        self.tick += records;
        self.chunk += 1;
    }

    /// Read and integrity-check the next chunk into `self.buf`, without
    /// decoding or advancing. Returns the record count (0 = clean end,
    /// footer verified); the payload is `self.buf[..n * RECORD_BYTES]`.
    fn step_payload(&mut self) -> Result<usize, TraceError> {
        if self.tick >= self.count {
            self.done = true;
            self.verify_footer()?;
            return Ok(0);
        }
        let expected = (self.count - self.tick).min(CHUNK_RECORDS);
        let mut buf4 = [0u8; 4];
        read_exact_or_truncated(&mut self.r, &mut buf4, self.tick as u64)?;
        let actual = u32::from_le_bytes(buf4);
        if actual != expected as u32 {
            return Err(TraceError::ChunkLengthMismatch {
                chunk: self.chunk,
                expected: expected as u32,
                actual,
            });
        }
        let bytes = &mut self.buf[..expected * RECORD_BYTES];
        read_exact_or_truncated(&mut self.r, bytes, self.tick as u64)?;
        read_exact_or_truncated(&mut self.r, &mut buf4, (self.tick + expected) as u64)?;
        let stored = u32::from_le_bytes(buf4);
        let usable = inject_chunk_fault(bytes, self.chunk)?;
        if usable < bytes.len() {
            return Err(TraceError::TruncatedMidRecord {
                tick: (self.tick + usable / RECORD_BYTES) as u64,
            });
        }
        let computed = crc32(bytes);
        if computed != stored {
            return Err(TraceError::ChecksumMismatch {
                chunk: self.chunk,
                stored,
                computed,
            });
        }
        Ok(expected)
    }

    /// The footer: repeated count + end magic.
    fn verify_footer(&mut self) -> Result<(), TraceError> {
        let mut buf8 = [0u8; 8];
        read_exact_or_truncated(&mut self.r, &mut buf8, self.count as u64)?;
        let footer = u64::from_le_bytes(buf8);
        if footer != self.count as u64 {
            return Err(TraceError::CountMismatch {
                header: self.count as u64,
                footer,
            });
        }
        let mut magic = [0u8; 4];
        read_exact_or_truncated(&mut self.r, &mut magic, self.count as u64)?;
        if &magic != END_MAGIC {
            return Err(TraceError::CountMismatch {
                header: self.count as u64,
                footer,
            });
        }
        Ok(())
    }
}

impl<R: Read> Iterator for ChunkIter<R> {
    type Item = Result<TraceColumns, TraceError>;

    /// Yield the next chunk as columns with global ticks. `None` after a
    /// clean end or a prior error.
    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut cols =
            TraceColumns::with_capacity(self.count.saturating_sub(self.tick).min(CHUNK_RECORDS));
        match self.next_chunk_columns(&mut cols) {
            Ok(0) => None,
            Ok(_) => Some(Ok(cols)),
            Err(e) => Some(Err(e)),
        }
    }
}

/// Pre-allocation for `count` records of `record_size` in-memory bytes,
/// capped at [`PREALLOC_CAP_BYTES`].
fn capped_prealloc(count: usize, record_size: usize) -> usize {
    count.min(PREALLOC_CAP_BYTES / record_size.max(1))
}

/// Read a binary trace written by [`write_binary`]. A collector over
/// [`ChunkIter`].
pub fn read_binary(path: &Path) -> Result<Vec<Request>, TraceError> {
    let mut it = ChunkIter::open(path)?;
    let mut trace = Vec::with_capacity(capped_prealloc(
        it.header_count(),
        std::mem::size_of::<Request>(),
    ));
    loop {
        let n = it.next_chunk_with(|tick, id, size, wall_secs| {
            trace.push(Request {
                tick,
                id: id.into(),
                size,
                wall_secs,
            });
        })?;
        if n == 0 {
            return Ok(trace);
        }
    }
}

/// Read a binary trace straight into structure-of-arrays form
/// (no intermediate `Vec<Request>`). A collector over [`ChunkIter`].
pub fn read_binary_columns(path: &Path) -> Result<TraceColumns, TraceError> {
    let mut it = ChunkIter::open(path)?;
    // 32 = the per-request total across the four columns.
    let mut cols = TraceColumns::with_capacity(capped_prealloc(it.header_count(), 32));
    loop {
        let n = it.next_chunk_with(|tick, id, size, wall_secs| {
            cols.ids.push(id.into());
            cols.sizes.push(size);
            cols.ticks.push(tick);
            cols.wall_secs.push(wall_secs);
        })?;
        if n == 0 {
            return Ok(cols);
        }
    }
}

/// Write a trace as CSV with a header row.
pub fn write_csv(path: &Path, trace: &[Request]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "tick,id,size,wall_secs")?;
    for r in trace {
        writeln!(w, "{},{},{},{}", r.tick, r.id.0, r.size, r.wall_secs)?;
    }
    w.flush()
}

/// Read a CSV trace written by [`write_csv`] (header required).
pub fn read_csv(path: &Path) -> Result<Vec<Request>, TraceError> {
    let r = BufReader::new(File::open(path)?);
    let mut trace = Vec::new();
    let bad = |line: usize, what: &str| TraceError::Csv {
        line,
        msg: what.to_string(),
    };
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if i == 0 {
            if !line.starts_with("tick,") {
                return Err(bad(1, "missing header"));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let tick: u64 = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(i + 1, "bad tick"))?;
        let id: u64 = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(i + 1, "bad id"))?;
        let size: u64 = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(i + 1, "bad size"))?;
        let wall_secs: f64 = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad(i + 1, "bad wall_secs"))?;
        trace.push(Request {
            tick,
            id: id.into(),
            size,
            wall_secs,
        });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GeneratorConfig, TraceGenerator};

    fn sample_trace() -> Vec<Request> {
        TraceGenerator::generate(GeneratorConfig {
            requests: 2_000,
            core_objects: 1_000,
            ..GeneratorConfig::default()
        })
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn binary_roundtrip_v2() {
        let dir = tmpdir("cdn_trace_io_test_bin");
        let path = dir.join("t.bin");
        let t = sample_trace();
        write_binary(&path, &t).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_roundtrip() {
        let dir = tmpdir("cdn_trace_io_test_csv");
        let path = dir.join("t.csv");
        let t = sample_trace();
        write_csv(&path, &t).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(t.len(), back.len());
        for (a, b) in t.iter().zip(&back) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.size, b.size);
            assert_eq!(a.tick, b.tick);
            assert!((a.wall_secs - b.wall_secs).abs() < 1e-9);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_roundtrip_large_crosses_chunks() {
        // > CHUNK_RECORDS so both decoders take several full chunks plus a
        // partial tail.
        let n = super::CHUNK_RECORDS as u64 * 2 + 1_234;
        let t = TraceGenerator::generate(GeneratorConfig {
            requests: n,
            core_objects: 5_000,
            ..GeneratorConfig::default()
        });
        let dir = tmpdir("cdn_trace_io_test_large");
        let path = dir.join("t.bin");
        write_binary(&path, &t).unwrap();
        assert_eq!(t, read_binary(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_columns_roundtrip() {
        let t = sample_trace();
        let dir = tmpdir("cdn_trace_io_test_cols");
        let path = dir.join("t.bin");
        write_binary(&path, &t).unwrap();
        let cols = read_binary_columns(&path).unwrap();
        assert_eq!(cols.to_requests(), t);
        cols.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_mid_record_is_an_error_both_readers() {
        // Regression: a trace cut mid-record (not just a garbage header)
        // must fail loudly from both `read_binary` and
        // `read_binary_columns`, never yield a silent short trace.
        let t = sample_trace();
        let dir = tmpdir("cdn_trace_io_test_trunc");
        let path = dir.join("t.bin");
        write_binary(&path, &t).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut mid-record, about half the trace before the end.
        let cut = full.len() - (t.len() / 2) * RECORD_BYTES - RECORD_BYTES / 2;
        std::fs::write(&path, &full[..cut]).unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedMidRecord { .. }),
            "{err}"
        );
        let err = read_binary_columns(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedMidRecord { .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_detects_any_single_byte_corruption() {
        // Flip one bit of *every* byte of a small v2 file in turn: each
        // variant must surface as some TraceError, never as a clean read
        // of wrong data. Small trace: the sweep re-reads the file once
        // per byte.
        let t = TraceGenerator::generate(GeneratorConfig {
            requests: 300,
            core_objects: 100,
            ..GeneratorConfig::default()
        });
        let dir = tmpdir("cdn_trace_io_test_flip");
        let path = dir.join("t.bin");
        write_binary(&path, &t).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[i] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            match read_binary(&path) {
                Err(_) => {}
                Ok(back) => panic!(
                    "flip at byte {i}/{} read cleanly ({} records)",
                    pristine.len(),
                    back.len()
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_count_fails_without_huge_alloc() {
        // Header claims u64::MAX records but carries only one: the reader
        // must cap its pre-allocation and fail with a structured error
        // instead of trying to reserve ~400 EiB.
        let dir = tmpdir("cdn_trace_io_test_corrupt");
        let path = dir.join("corrupt.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CDNT");
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(CHUNK_RECORDS as u32).to_le_bytes());
        bytes.extend_from_slice(&[0u8; super::RECORD_BYTES]);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_binary(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedMidRecord { .. }),
            "{err}"
        );
        let err = read_binary_columns(&path).unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedMidRecord { .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = tmpdir("cdn_trace_io_test_bad");
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"not a trace").unwrap();
        assert!(matches!(
            read_binary(&path).unwrap_err(),
            TraceError::BadMagic
        ));
        // Neither a future version nor the checksum-less version 1.
        let other = dir.join("other.bin");
        for version in [99u32, 1] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(b"CDNT");
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&0u64.to_le_bytes());
            std::fs::write(&other, &bytes).unwrap();
            assert!(matches!(
                read_binary(&other).unwrap_err(),
                TraceError::UnsupportedVersion(v) if v == version
            ));
        }
        let csv = dir.join("bad.csv");
        std::fs::write(&csv, "nope\n1,2\n").unwrap();
        assert!(matches!(
            read_csv(&csv).unwrap_err(),
            TraceError::Csv { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
