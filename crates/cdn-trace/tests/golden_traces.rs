//! Golden traces: the generator's output is pinned bit for bit.
//!
//! Every experiment in this repository replays traces out of
//! [`TraceGenerator`], so a change to *how* the generator computes must
//! never change *what* it emits. These constants were recorded on the
//! commit before the generator's sampler and size path were rewritten
//! (guided Zipf search, memoized sizes); a mismatch here means the traces
//! are no longer the traces `results/*.tsv` and the benchmark's exact
//! metrics were measured on.
//!
//! Two hashes per trace: [`TraceColumns::content_hash`] (over id, size
//! and wall clock; skips ticks) and a fold over all four fields.

use cdn_trace::checksum::Fnv1a64;
use cdn_trace::{
    crc32, generate_binary, DriftEvent, GeneratorConfig, TraceColumns, TraceGenerator, Workload,
};

const REQUESTS: u64 = 200_000;

/// FNV-1a over `(tick, id, size, wall_secs bits)` of every record.
fn full_fold(cols: &TraceColumns) -> u64 {
    let mut h = Fnv1a64::new();
    for r in cols.iter() {
        h.update(&r.tick.to_le_bytes());
        h.update(&r.id.0.to_le_bytes());
        h.update(&r.size.to_le_bytes());
        h.update(&r.wall_secs.to_bits().to_le_bytes());
    }
    h.finish()
}

fn hashes(cfg: GeneratorConfig) -> (u64, u64) {
    let cols: TraceColumns = TraceGenerator::new(cfg).collect();
    assert_eq!(cols.len() as u64, REQUESTS);
    (cols.content_hash(), full_fold(&cols))
}

/// `(workload, seed, content_hash, full_fold)` at [`REQUESTS`] requests.
#[rustfmt::skip]
const STATIONARY: [(Workload, u64, u64, u64); 6] = [
    (Workload::CdnT, 42, 0x19f6_bb1e_2118_7b8d, 0x6ed1_e700_a3db_7109),
    (Workload::CdnT, 1337, 0x9767_f7fc_b41d_10b5, 0x4cca_2b17_e917_35c1),
    (Workload::CdnW, 42, 0xe63b_2044_1584_44bf, 0x6d04_9cf7_45d0_87a7),
    (Workload::CdnW, 1337, 0x75f8_46af_5f25_4c0b, 0x47fb_4f7a_e356_fd13),
    (Workload::CdnA, 42, 0x7497_9aa0_85bf_3d0b, 0xaeaa_e6b1_e2f7_3d5b),
    (Workload::CdnA, 1337, 0x5358_dbd9_7421_9a93, 0xb010_b33b_bc49_241f),
];

/// CDN-T, seed 42, under [`drift_schedule`].
const DRIFTING: (u64, u64) = (0xae7a_ff80_ab33_c67a, 0xc14a_38fe_dbc4_3852);

/// CRC-32 of the whole v2 file `generate_binary` writes for CDN-W,
/// 100 000 requests, seed 42 — the file `tracegen [--stream] cdn-w 100000`
/// writes; `scripts/check.sh` reads this constant and compares both CLI
/// paths against it.
const CDNW_100K_SEED42_FILE_CRC: u32 = 0xae71_29ee;

/// All three scheduled nonstationarities at once, with the background
/// drift still running: flash-crowd pool, head rotation and popularity
/// cycle each remap or redirect ranks in their own way.
fn drift_schedule() -> Vec<DriftEvent> {
    vec![
        DriftEvent::FlashCrowd {
            start: REQUESTS / 4,
            duration: REQUESTS / 2,
            share: 0.5,
            objects: 64,
        },
        DriftEvent::WorkingSetRotation {
            at: REQUESTS / 2,
            fraction: 0.5,
        },
        DriftEvent::PopularityCycle {
            period: REQUESTS / 3,
            amplitude: 0.8,
        },
    ]
}

#[test]
fn stationary_profiles_are_bit_identical() {
    // Rows are compared as hex text, all at once: one failing run prints
    // the whole table in the form the constants are written in.
    let row = |w: Workload, seed: u64, (content, fold): (u64, u64)| {
        format!("{} {seed} {content:#018x} {fold:#018x}", w.name())
    };
    let got: Vec<String> = STATIONARY
        .iter()
        .map(|&(w, seed, _, _)| row(w, seed, hashes(w.profile().config(REQUESTS, seed))))
        .collect();
    let want: Vec<String> = STATIONARY
        .iter()
        .map(|&(w, seed, content, fold)| row(w, seed, (content, fold)))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn drifting_trace_is_bit_identical() {
    let cfg = Workload::CdnT
        .profile()
        .config_with_events(REQUESTS, 42, drift_schedule());
    let got = hashes(cfg);
    assert_eq!(got, DRIFTING, "got ({:#018x}, {:#018x})", got.0, got.1);
}

#[test]
fn streamed_file_is_bit_identical() {
    let dir = std::env::temp_dir().join(format!("cdn_trace_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cdn-w.bin");
    generate_binary(&path, Workload::CdnW.profile().config(100_000, 42)).unwrap();
    let got = crc32(&std::fs::read(&path).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, CDNW_100K_SEED42_FILE_CRC, "got {got:#010x}");
}
