//! Crash-consistent per-shard snapshot epochs for warm restarts.
//!
//! Each shard worker periodically serialises its resident set (and, for
//! learning policies, the small learned-parameter block) into an epoch
//! file `snap-<shard>-<epoch>.bin`. The on-disk format reuses the trace
//! format v2 discipline: a magic-framed header, CRC32-guarded chunks, and
//! a footer that makes truncation detectable — so *any* torn write, bit
//! flip or short read is caught by validation rather than deserialised
//! into a poisoned cache.
//!
//! ## Epoch file format (`CDNS` v1)
//!
//! ```text
//! [magic "CDNS"][version u16][shard u32][epoch u64][crc32 of the 14
//!  header bytes]
//! per chunk (<= 1024 entries):
//!   [count u32][count * 49-byte entries][crc32 of the entry payload]
//! [0u32 sentinel chunk]
//! [learned-present u8][if present: len u32 + block + crc32]
//! [total entry count u64][end magic "SNPE"]
//! ```
//!
//! Entries are written hottest-first, exactly as
//! [`cdn_cache::CachePolicy::for_each_resident`] yields them, so a
//! restore replaying coldest-first rebuilds the recency order.
//!
//! ## Commit discipline
//!
//! Write to `.<name>.tmp`, `fsync` the file, atomically rename over the
//! final name, then `fsync` the directory. A crash at any point leaves
//! either the previous epoch set intact or a complete new epoch — never a
//! half-visible file under the committed name. (A torn *tail* under the
//! committed name — the failpoint below simulates a kernel/disk lying
//! about durability — is still caught by the CRC/footer validation and
//! falls down the epoch ladder.)
//!
//! ## Recovery ladder
//!
//! [`recover`] walks committed epochs newest-first: the first one that
//! passes full validation wins; every rejected rung is counted so the
//! daemon can surface `epochs_discarded`. An empty or unreadable
//! directory means a cold start — recovery never fails, it only degrades.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use cdn_cache::fault::{self, FaultAction};
use cdn_cache::ResidentEntry;
use cdn_trace::checksum::crc32;

/// Failpoint site: epoch serialisation/commit (`FaultAction::Error` fails
/// the write, `ShortRead(n)` commits a torn file truncated to `n` bytes,
/// `CorruptByte(i)` commits with byte `i mod len` flipped). Keyed by
/// [`snap_fault_key`].
pub const FP_SNAP_WRITE: &str = "cdnd.snap_write";
/// Failpoint site: epoch load (`FaultAction::Error` fails the read,
/// `ShortRead(n)` truncates the bytes read, `CorruptByte(i)` flips one).
/// Keyed by [`snap_fault_key`].
pub const FP_SNAP_LOAD: &str = "cdnd.snap_load";

/// Failpoint key for snapshot sites: shard in the high bits, epoch in the
/// low 48 (mirrors the worker-site key packing).
pub fn snap_fault_key(shard: u32, epoch: u64) -> u64 {
    ((shard as u64) << 48) | (epoch & 0xFFFF_FFFF_FFFF)
}

const SNAP_MAGIC: [u8; 4] = *b"CDNS";
const SNAP_END: [u8; 4] = *b"SNPE";
const SNAP_VERSION: u16 = 1;
/// Entries per CRC-guarded chunk.
const CHUNK_ENTRIES: usize = 1024;
/// Serialised entry size: id + size + bucket + flags + 3 ticks/counters.
const ENTRY_BYTES: usize = 8 + 8 + 4 + 1 + 8 + 8 + 4 + 8;

/// Everything one epoch file carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Shard the snapshot belongs to.
    pub shard: u32,
    /// Monotonic epoch number (per shard).
    pub epoch: u64,
    /// Resident set, hottest-first.
    pub entries: Vec<ResidentEntry>,
    /// Opaque learned-parameter block, if the policy exported one.
    pub learned: Option<Vec<u8>>,
}

impl SnapshotData {
    /// Total bytes of the snapshotted resident set.
    pub fn resident_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
    }
}

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem-level failure.
    Io(io::Error),
    /// The file exists but fails validation (torn, flipped, truncated,
    /// wrong magic/version/shard). The string names the first violation.
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<io::Error> for SnapError {
    fn from(e: io::Error) -> Self {
        SnapError::Io(e)
    }
}

/// Committed path of one epoch file.
pub fn snapshot_path(dir: &Path, shard: u32, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{shard}-{epoch}.bin"))
}

fn encode_entry(out: &mut Vec<u8>, e: &ResidentEntry) {
    out.extend_from_slice(&e.id.0.to_le_bytes());
    out.extend_from_slice(&e.size.to_le_bytes());
    out.extend_from_slice(&e.bucket.to_le_bytes());
    out.push(u8::from(e.inserted_at_mru));
    out.extend_from_slice(&e.inserted_tick.to_le_bytes());
    out.extend_from_slice(&e.last_access.to_le_bytes());
    out.extend_from_slice(&e.hits.to_le_bytes());
    out.extend_from_slice(&e.tag.to_le_bytes());
}

fn decode_entry(buf: &[u8]) -> Result<ResidentEntry, SnapError> {
    if buf.len() != ENTRY_BYTES {
        return Err(SnapError::Corrupt(format!(
            "entry record of {} bytes (want {ENTRY_BYTES})",
            buf.len()
        )));
    }
    let u64_at = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().expect("sized"));
    let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().expect("sized"));
    let flags = buf[20];
    if flags > 1 {
        return Err(SnapError::Corrupt(format!("entry flags byte {flags}")));
    }
    Ok(ResidentEntry {
        id: cdn_cache::ObjectId(u64_at(0)),
        size: u64_at(8),
        bucket: u32_at(16),
        inserted_at_mru: flags == 1,
        inserted_tick: u64_at(21),
        last_access: u64_at(29),
        hits: u32_at(37),
        tag: u64_at(41),
    })
}

/// Serialise an epoch to its on-disk byte image.
fn encode(data: &SnapshotData) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + data.entries.len() * (ENTRY_BYTES + 1));
    out.extend_from_slice(&SNAP_MAGIC);
    let header_start = out.len();
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&data.shard.to_le_bytes());
    out.extend_from_slice(&data.epoch.to_le_bytes());
    let header_crc = crc32(&out[header_start..]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    let mut payload = Vec::with_capacity(CHUNK_ENTRIES * ENTRY_BYTES);
    for chunk in data.entries.chunks(CHUNK_ENTRIES) {
        payload.clear();
        for e in chunk {
            encode_entry(&mut payload, e);
        }
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
    }
    out.extend_from_slice(&0u32.to_le_bytes()); // sentinel: no more chunks
    match &data.learned {
        Some(block) => {
            out.push(1);
            out.extend_from_slice(&(block.len() as u32).to_le_bytes());
            out.extend_from_slice(block);
            out.extend_from_slice(&crc32(block).to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(data.entries.len() as u64).to_le_bytes());
    out.extend_from_slice(&SNAP_END);
    out
}

/// Streaming validator/decoder over a complete byte image.
fn decode(bytes: &[u8]) -> Result<SnapshotData, SnapError> {
    let mut cur = io::Cursor::new(bytes);
    let mut magic = [0u8; 4];
    cur.read_exact(&mut magic)
        .map_err(|_| SnapError::Corrupt("file shorter than magic".into()))?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::Corrupt(format!("bad magic {magic:?}")));
    }
    let mut header = [0u8; 14];
    cur.read_exact(&mut header)
        .map_err(|_| SnapError::Corrupt("truncated header".into()))?;
    let mut crc_buf = [0u8; 4];
    cur.read_exact(&mut crc_buf)
        .map_err(|_| SnapError::Corrupt("truncated header crc".into()))?;
    if crc32(&header) != u32::from_le_bytes(crc_buf) {
        return Err(SnapError::Corrupt("header crc mismatch".into()));
    }
    let version = u16::from_le_bytes(header[0..2].try_into().expect("sized"));
    if version != SNAP_VERSION {
        return Err(SnapError::Corrupt(format!("unknown version {version}")));
    }
    let shard = u32::from_le_bytes(header[2..6].try_into().expect("sized"));
    let epoch = u64::from_le_bytes(header[6..14].try_into().expect("sized"));
    let mut entries = Vec::new();
    loop {
        let mut count_buf = [0u8; 4];
        cur.read_exact(&mut count_buf)
            .map_err(|_| SnapError::Corrupt("truncated chunk count".into()))?;
        let count = u32::from_le_bytes(count_buf) as usize;
        if count == 0 {
            break;
        }
        if count > CHUNK_ENTRIES {
            return Err(SnapError::Corrupt(format!("oversized chunk {count}")));
        }
        let mut payload = vec![0u8; count * ENTRY_BYTES];
        cur.read_exact(&mut payload)
            .map_err(|_| SnapError::Corrupt("truncated chunk payload".into()))?;
        cur.read_exact(&mut crc_buf)
            .map_err(|_| SnapError::Corrupt("truncated chunk crc".into()))?;
        if crc32(&payload) != u32::from_le_bytes(crc_buf) {
            return Err(SnapError::Corrupt("chunk crc mismatch".into()));
        }
        for rec in payload.chunks(ENTRY_BYTES) {
            entries.push(decode_entry(rec)?);
        }
    }
    let mut flag = [0u8; 1];
    cur.read_exact(&mut flag)
        .map_err(|_| SnapError::Corrupt("truncated learned flag".into()))?;
    let learned = match flag[0] {
        0 => None,
        1 => {
            let mut len_buf = [0u8; 4];
            cur.read_exact(&mut len_buf)
                .map_err(|_| SnapError::Corrupt("truncated learned len".into()))?;
            let len = u32::from_le_bytes(len_buf) as usize;
            // Learned blocks are small (a few hundred bytes for SCIP); a
            // huge length is corruption, not a real block.
            if len > 1 << 20 {
                return Err(SnapError::Corrupt(format!("learned block {len} bytes")));
            }
            let mut block = vec![0u8; len];
            cur.read_exact(&mut block)
                .map_err(|_| SnapError::Corrupt("truncated learned block".into()))?;
            cur.read_exact(&mut crc_buf)
                .map_err(|_| SnapError::Corrupt("truncated learned crc".into()))?;
            if crc32(&block) != u32::from_le_bytes(crc_buf) {
                return Err(SnapError::Corrupt("learned crc mismatch".into()));
            }
            Some(block)
        }
        other => return Err(SnapError::Corrupt(format!("learned flag byte {other}"))),
    };
    let mut total_buf = [0u8; 8];
    cur.read_exact(&mut total_buf)
        .map_err(|_| SnapError::Corrupt("truncated footer count".into()))?;
    let total = u64::from_le_bytes(total_buf);
    if total != entries.len() as u64 {
        return Err(SnapError::Corrupt(format!(
            "footer count {total} != {} entries",
            entries.len()
        )));
    }
    cur.read_exact(&mut magic)
        .map_err(|_| SnapError::Corrupt("truncated end magic".into()))?;
    if magic != SNAP_END {
        return Err(SnapError::Corrupt(format!("bad end magic {magic:?}")));
    }
    if cur.position() != bytes.len() as u64 {
        return Err(SnapError::Corrupt(format!(
            "{} trailing bytes after end magic",
            bytes.len() as u64 - cur.position()
        )));
    }
    Ok(SnapshotData {
        shard,
        epoch,
        entries,
        learned,
    })
}

/// Enact whatever `site` has armed for `(shard, epoch)` on an epoch image:
/// fail the operation (`Error`), tear the tail (`ShortRead(n)` keeps `n`
/// bytes), flip one byte (`CorruptByte(i)`), or panic.
fn inject_fault(site: &str, shard: u32, epoch: u64, bytes: &mut Vec<u8>) -> Result<(), SnapError> {
    match fault::check(site, snap_fault_key(shard, epoch)) {
        None => {}
        Some(FaultAction::Panic(msg)) => panic!("failpoint {site}: {msg}"),
        Some(FaultAction::Error(msg)) => {
            return Err(SnapError::Io(io::Error::other(format!(
                "failpoint {site}: {msg}"
            ))));
        }
        Some(FaultAction::ShortRead(n)) => bytes.truncate(n.min(bytes.len())),
        Some(FaultAction::CorruptByte(i)) => {
            let idx = i % bytes.len().max(1);
            bytes[idx] ^= 0x01;
        }
    }
    Ok(())
}

/// Serialise and atomically commit one epoch file; returns its committed
/// path. Commit order: tmp write → file fsync → rename → directory fsync.
///
/// An armed [`FP_SNAP_WRITE`] site can fail the write, or damage what is
/// *committed* — a torn tail or a flipped byte, simulating storage that
/// lied about durability.
pub fn write_epoch(dir: &Path, data: &SnapshotData) -> Result<PathBuf, SnapError> {
    let mut bytes = encode(data);
    inject_fault(FP_SNAP_WRITE, data.shard, data.epoch, &mut bytes)?;
    fs::create_dir_all(dir)?;
    let final_path = snapshot_path(dir, data.shard, data.epoch);
    let tmp_path = dir.join(format!(".snap-{}-{}.tmp", data.shard, data.epoch));
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable: fsync the containing directory.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Load and fully validate one committed epoch file.
///
/// An armed [`FP_SNAP_LOAD`] site can fail the read, truncate it, or flip
/// one byte of what was read — driving the recovery ladder without
/// touching the disk image.
pub fn load_epoch(path: &Path, shard: u32, epoch: u64) -> Result<SnapshotData, SnapError> {
    let mut bytes = fs::read(path)?;
    inject_fault(FP_SNAP_LOAD, shard, epoch, &mut bytes)?;
    decode(&bytes)
}

/// Committed epochs for `shard` in `dir`, ascending. Unreadable or foreign
/// files are ignored — listing never fails. A file numbered `u64::MAX` is
/// foreign: a worker numbers its next epoch above every one it lists, and
/// `u64::MAX` has no successor, so no worker ever commits it.
pub fn list_epochs(dir: &Path, shard: u32) -> Vec<u64> {
    let prefix = format!("snap-{shard}-");
    let mut epochs = Vec::new();
    let Ok(rd) = fs::read_dir(dir) else {
        return epochs;
    };
    for entry in rd.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(num) = rest.strip_suffix(".bin") else {
            continue;
        };
        match num.parse::<u64>() {
            Ok(u64::MAX) | Err(_) => {}
            Ok(epoch) => epochs.push(epoch),
        }
    }
    epochs.sort_unstable();
    epochs
}

/// What [`recover`] found.
#[derive(Debug)]
pub struct RecoverOutcome {
    /// The newest epoch that passed full validation, if any.
    pub data: Option<SnapshotData>,
    /// Epochs that existed but failed validation or could not be read
    /// (each one is a descended ladder rung).
    pub epochs_discarded: u64,
    /// Highest epoch number seen on disk, valid or not — the successor
    /// worker must number its own epochs above this so a discarded-but-
    /// newer corrupt file can never shadow future snapshots.
    pub latest_epoch_seen: u64,
}

/// Walk the epoch ladder newest-first and return the first epoch that
/// validates. Never fails: a directory with no readable epoch yields a
/// cold start (`data: None`) with every broken rung counted.
pub fn recover(dir: &Path, shard: u32) -> RecoverOutcome {
    let mut discarded = 0u64;
    let epochs = list_epochs(dir, shard);
    let latest = epochs.last().copied().unwrap_or(0);
    for &epoch in epochs.iter().rev() {
        match load_epoch(&snapshot_path(dir, shard, epoch), shard, epoch) {
            Ok(data) if data.shard == shard && data.epoch == epoch => {
                return RecoverOutcome {
                    data: Some(data),
                    epochs_discarded: discarded,
                    latest_epoch_seen: latest,
                };
            }
            // A file whose embedded identity disagrees with its name is as
            // untrustworthy as a bad CRC.
            Ok(_) | Err(_) => discarded += 1,
        }
    }
    RecoverOutcome {
        data: None,
        epochs_discarded: discarded,
        latest_epoch_seen: latest,
    }
}

/// Remove all but the newest `keep` committed epochs for `shard`; returns
/// how many files were removed. Removal failures are ignored (a stale
/// epoch is harmless; recovery validates whatever it finds).
pub fn prune(dir: &Path, shard: u32, keep: u32) -> u64 {
    let epochs = list_epochs(dir, shard);
    let keep = keep.max(1) as usize;
    if epochs.len() <= keep {
        return 0;
    }
    let mut removed = 0;
    for &epoch in &epochs[..epochs.len() - keep] {
        if fs::remove_file(snapshot_path(dir, shard, epoch)).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::ObjectId;

    fn entry(id: u64, size: u64, bucket: u32) -> ResidentEntry {
        ResidentEntry {
            id: ObjectId(id),
            size,
            bucket,
            inserted_at_mru: id.is_multiple_of(2),
            inserted_tick: id * 3,
            last_access: id * 5,
            hits: (id % 7) as u32,
            tag: id.wrapping_mul(0x9E37),
        }
    }

    fn sample(shard: u32, epoch: u64, n: u64) -> SnapshotData {
        SnapshotData {
            shard,
            epoch,
            entries: (0..n)
                .map(|i| entry(i, 1 + i % 9, (i % 3) as u32))
                .collect(),
            learned: Some(vec![7u8; 42]),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cdnd-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = tmpdir("roundtrip");
        // Cross a chunk boundary to exercise multi-chunk framing.
        let data = sample(2, 9, CHUNK_ENTRIES as u64 + 100);
        let path = write_epoch(&dir, &data).unwrap();
        assert_eq!(path, snapshot_path(&dir, 2, 9));
        let loaded = load_epoch(&path, 2, 9).unwrap();
        assert_eq!(loaded, data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_learnedless_snapshots_roundtrip() {
        let dir = tmpdir("empty");
        for data in [
            SnapshotData {
                shard: 0,
                epoch: 1,
                entries: vec![],
                learned: None,
            },
            SnapshotData {
                shard: 0,
                epoch: 2,
                entries: vec![entry(1, 5, 0)],
                learned: None,
            },
        ] {
            let path = write_epoch(&dir, &data).unwrap();
            assert_eq!(load_epoch(&path, 0, data.epoch).unwrap(), data);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_is_detected() {
        let data = sample(1, 4, 50);
        let bytes = encode(&data);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut}/{} bytes accepted",
                bytes.len()
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let data = sample(1, 4, 3);
        let mut bytes = encode(&data);
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn list_recover_and_prune_walk_the_ladder() {
        let dir = tmpdir("ladder");
        for epoch in [3u64, 5, 9] {
            write_epoch(&dir, &sample(7, epoch, 10)).unwrap();
        }
        assert_eq!(list_epochs(&dir, 7), vec![3, 5, 9]);
        assert_eq!(list_epochs(&dir, 8), Vec::<u64>::new());

        // Corrupt the newest epoch on disk: recovery descends one rung.
        let newest = snapshot_path(&dir, 7, 9);
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        let out = recover(&dir, 7);
        assert_eq!(out.data.as_ref().unwrap().epoch, 5);
        assert_eq!(out.epochs_discarded, 1);
        assert_eq!(out.latest_epoch_seen, 9);

        // Prune to 1: only the newest file (even though corrupt) survives,
        // and a follow-up recover degrades to cold with the rung counted.
        assert_eq!(prune(&dir, 7, 1), 2);
        assert_eq!(list_epochs(&dir, 7), vec![9]);
        let out = recover(&dir, 7);
        assert!(out.data.is_none());
        assert_eq!(out.epochs_discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_missing_dir_is_cold_not_error() {
        let out = recover(Path::new("/nonexistent/cdnd-snapshots"), 0);
        assert!(out.data.is_none());
        assert_eq!(out.epochs_discarded, 0);
        assert_eq!(out.latest_epoch_seen, 0);
    }

    #[test]
    fn mislabeled_file_is_discarded() {
        let dir = tmpdir("mislabel");
        // A valid shard-3 snapshot renamed to shard 4's name: the embedded
        // identity wins and the rung is discarded.
        write_epoch(&dir, &sample(3, 6, 5)).unwrap();
        fs::rename(snapshot_path(&dir, 3, 6), snapshot_path(&dir, 4, 6)).unwrap();
        let out = recover(&dir, 4);
        assert!(out.data.is_none());
        assert_eq!(out.epochs_discarded, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_is_atomic_no_tmp_left_behind() {
        let dir = tmpdir("atomic");
        write_epoch(&dir, &sample(0, 1, 20)).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
