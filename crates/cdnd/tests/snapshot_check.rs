//! Fault-injection checks for the snapshot/recovery ladder (DESIGN.md
//! §17): the committed-epoch corruption corpus (every single-byte flip
//! must be detected and degrade one rung, never panic), the
//! `cdnd.snap_write` torn-tail and write-error rungs, and the
//! `cdnd.snap_load` read-error rung. All tests drive the public
//! `cdnd::snapshot` API over real files.

use std::path::PathBuf;
use std::sync::Mutex;

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_cache::{ObjectId, ResidentEntry};
use cdnd::snapshot::{list_epochs, prune, recover, snapshot_path, write_epoch};
use cdnd::{snap_fault_key, SnapshotData, FP_SNAP_LOAD, FP_SNAP_WRITE};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialise tests that arm the (global) failpoint registry and
/// guarantee a clean slate on entry.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    guard
}

/// A scratch directory under the OS temp dir, wiped on entry.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdnd-snapcheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but structurally complete snapshot: two compartments, varied
/// metadata, and a learned block.
fn sample(shard: u32, epoch: u64, entries: usize) -> SnapshotData {
    SnapshotData {
        shard,
        epoch,
        entries: (0..entries as u64)
            .map(|i| ResidentEntry {
                id: ObjectId(1_000 * epoch + i),
                size: 100 + i * 7,
                bucket: (i % 2) as u32,
                inserted_at_mru: i % 3 != 0,
                inserted_tick: i,
                last_access: i + epoch,
                hits: (i % 5) as u32,
                tag: i.wrapping_mul(0x9E37),
            })
            .collect(),
        learned: Some((0..64u8).collect()),
    }
}

/// Every single-byte flip of a committed epoch file is detected by the
/// framing CRCs (or structural validation) and recovery descends exactly
/// one rung to the older epoch — zero panics across the whole corpus.
#[test]
fn every_byte_flip_descends_to_older_epoch() {
    let dir = scratch("flip");
    let old = sample(3, 1, 40);
    let new = sample(3, 2, 40);
    write_epoch(&dir, &old).unwrap();
    let path = write_epoch(&dir, &new).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = recover(&dir, 3);
        let data = outcome.data.unwrap_or_else(|| {
            panic!("flip at byte {i}: recovery went cold instead of descending")
        });
        assert_eq!(
            data.epoch, 1,
            "flip at byte {i} went undetected (recovered epoch {})",
            data.epoch
        );
        assert_eq!(
            data.entries, old.entries,
            "flip at byte {i}: stale rung mangled"
        );
        assert_eq!(outcome.epochs_discarded, 1, "flip at byte {i}");
        assert_eq!(outcome.latest_epoch_seen, 2, "flip at byte {i}");
    }
    // Control: the pristine file recovers as epoch 2 with no discards.
    std::fs::write(&path, &pristine).unwrap();
    let outcome = recover(&dir, 3);
    assert_eq!(outcome.data.unwrap().epoch, 2);
    assert_eq!(outcome.epochs_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cdnd.snap_write` torn-tail action commits a truncated file (a
/// simulated crash between write and fsync): recovery discards it and
/// serves the previous epoch.
#[test]
fn torn_write_failpoint_descends_one_rung() {
    let _guard = exclusive();
    let dir = scratch("torn");
    write_epoch(&dir, &sample(5, 1, 30)).unwrap();
    fault::arm(
        FP_SNAP_WRITE,
        FaultRule::OnKeys(
            vec![snap_fault_key(5, 2)],
            FaultAction::ShortRead(37), // commit only the first 37 bytes
        ),
    );
    write_epoch(&dir, &sample(5, 2, 30)).unwrap();
    fault::clear();
    assert_eq!(fault::fired(FP_SNAP_WRITE), 0); // cleared counters
    assert_eq!(list_epochs(&dir, 5), vec![1, 2], "torn epoch still listed");

    let outcome = recover(&dir, 5);
    assert_eq!(outcome.data.unwrap().epoch, 1);
    assert_eq!(outcome.epochs_discarded, 1);
    // Epoch numbering continues past the torn file, never shadowing it.
    assert_eq!(outcome.latest_epoch_seen, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cdnd.snap_write` error action fails the commit outright: no new
/// file appears and the previous epoch remains authoritative.
#[test]
fn write_error_failpoint_leaves_previous_epoch_authoritative() {
    let _guard = exclusive();
    let dir = scratch("werr");
    write_epoch(&dir, &sample(7, 1, 10)).unwrap();
    fault::arm(
        FP_SNAP_WRITE,
        FaultRule::OnKeys(
            vec![snap_fault_key(7, 2)],
            FaultAction::Error("disk full".into()),
        ),
    );
    assert!(write_epoch(&dir, &sample(7, 2, 10)).is_err());
    fault::clear();
    assert_eq!(list_epochs(&dir, 7), vec![1], "failed write left a file");
    let outcome = recover(&dir, 7);
    assert_eq!(outcome.data.unwrap().epoch, 1);
    assert_eq!(outcome.epochs_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `cdnd.snap_load` read-error rung: a clean file that cannot be
/// read is discarded like a corrupt one; with every epoch unreadable the
/// ladder bottoms out cold without panicking.
#[test]
fn load_failpoint_walks_ladder_to_cold() {
    let _guard = exclusive();
    let dir = scratch("lerr");
    write_epoch(&dir, &sample(9, 1, 20)).unwrap();
    write_epoch(&dir, &sample(9, 2, 20)).unwrap();

    // Newest unreadable → one rung down.
    fault::arm(
        FP_SNAP_LOAD,
        FaultRule::OnKeys(vec![snap_fault_key(9, 2)], FaultAction::Error("io".into())),
    );
    let outcome = recover(&dir, 9);
    assert_eq!(outcome.data.as_ref().unwrap().epoch, 1);
    assert_eq!(outcome.epochs_discarded, 1);

    // Both unreadable → cold, two discards, epoch numbering preserved.
    fault::arm(
        FP_SNAP_LOAD,
        FaultRule::OnKeys(
            vec![snap_fault_key(9, 1), snap_fault_key(9, 2)],
            FaultAction::Error("io".into()),
        ),
    );
    let outcome = recover(&dir, 9);
    assert!(outcome.data.is_none(), "cold start expected");
    assert_eq!(outcome.epochs_discarded, 2);
    assert_eq!(outcome.latest_epoch_seen, 2);
    fault::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Missing-epoch rung: pruning (or deletion) of every file yields a
/// clean cold start with nothing discarded.
#[test]
fn empty_ladder_is_a_clean_cold_start() {
    let dir = scratch("cold");
    write_epoch(&dir, &sample(2, 1, 5)).unwrap();
    write_epoch(&dir, &sample(2, 2, 5)).unwrap();
    for epoch in list_epochs(&dir, 2) {
        std::fs::remove_file(snapshot_path(&dir, 2, epoch)).unwrap();
    }
    let outcome = recover(&dir, 2);
    assert!(outcome.data.is_none());
    assert_eq!(outcome.epochs_discarded, 0);
    assert_eq!(outcome.latest_epoch_seen, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// keep-last-K pruning interacts with the ladder: after pruning to one
/// epoch, recovery still serves the survivor.
#[test]
fn prune_keeps_newest_and_recovery_survives() {
    let dir = scratch("prune");
    for epoch in 1..=5 {
        write_epoch(&dir, &sample(4, epoch, 8)).unwrap();
    }
    assert_eq!(prune(&dir, 4, 1), 4);
    assert_eq!(list_epochs(&dir, 4), vec![5]);
    let outcome = recover(&dir, 4);
    assert_eq!(outcome.data.unwrap().epoch, 5);
    assert_eq!(outcome.epochs_discarded, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
