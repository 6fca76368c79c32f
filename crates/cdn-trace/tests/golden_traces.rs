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
//!
//! The generator works in blocks of requests (`gen.rs`'s "Per-request
//! cost"), so [`EDGES`] pins the configurations whose state changes can
//! land anywhere inside a block: a trace length, a drift period and a
//! rotation tick off the block grid, a flash crowd opening mid-block
//! under a popularity cycle, a one-rank core and a flat Zipf. Those
//! constants were recorded on the commit before the block pipeline.
//! The prefix test below checks every length up to a few blocks rather
//! than the block length itself, which is private.

use cdn_cache::Request;
use cdn_trace::checksum::Fnv1a64;
use cdn_trace::{
    crc32, flash_crowd_window, generate_binary, DriftEvent, GeneratorConfig, TraceColumns,
    TraceGenerator, Workload,
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
    let requests = cfg.requests;
    let cols: TraceColumns = TraceGenerator::new(cfg).collect();
    assert_eq!(cols.len() as u64, requests);
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
/// 100 000 requests, seed 42. This pins the file's *framing* only: every
/// chunk ends in the CRC-32 of its own bytes, and a CRC run over data
/// followed by that data's CRC lands in a fixed state, so any v2 file of
/// 100 000 records has this whole-file CRC-32 whatever its records say.
const CDNW_100K_SEED42_FILE_CRC: u32 = 0xae71_29ee;

/// POSIX `cksum` (MSB-first CRC-32 over the bytes and their length, see
/// [`posix_cksum`]) of that same file: this one pins the content, since
/// the chunk trailers are reflected CRCs and cancel nothing here. The
/// file `tracegen [--stream] cdn-w 100000` writes; `scripts/check.sh`
/// reads this constant and compares both CLI paths against it.
const CDNW_100K_SEED42_FILE_CKSUM: u32 = 0x116c_e105;

/// POSIX `cksum` of the v2 file for CDN-T, 100 000 requests, seed 42,
/// under [`flash_crowd_window`] — the file `tracegen [--stream]
/// --flash-crowd cdn-t 100000` writes. CDN-T's core tables outgrow L2 at
/// scale, where CDN-W's never do; `scripts/check.sh` compares both CLI
/// paths against it.
const CDNT_FLASH_100K_SEED42_FILE_CKSUM: u32 = 0xc982_fe4f;

/// A small stationary mix that is cheap to build many times over.
fn small_cfg(requests: u64) -> GeneratorConfig {
    GeneratorConfig {
        requests,
        core_objects: 5_000,
        drift_interval: 1_000,
        seed: 42,
        ..GeneratorConfig::default()
    }
}

/// Configurations whose state changes fall off the block grid.
fn edge_configs() -> Vec<(&'static str, GeneratorConfig)> {
    let cdn_t = Workload::CdnT.profile();
    vec![
        // Neither a multiple of the block length nor of its divisors.
        ("odd-length", cdn_t.config(100_003, 42)),
        // Every drift tick lands at a different offset inside a block.
        (
            "drift-off-grid",
            GeneratorConfig {
                drift_interval: 1_001,
                drift_fraction: 0.05,
                ..small_cfg(60_000)
            },
        ),
        // One request past a power-of-two boundary (20 032 = 64 · 313).
        (
            "rotation-at-1-mod-64",
            cdn_t.config_with_events(
                60_000,
                42,
                vec![DriftEvent::WorkingSetRotation {
                    at: 20_033,
                    fraction: 0.3,
                }],
            ),
        ),
        (
            "flash-mid-block-and-cycle",
            cdn_t.config_with_events(
                60_000,
                42,
                vec![
                    DriftEvent::FlashCrowd {
                        start: 10_030,
                        duration: 20_011,
                        share: 0.5,
                        objects: 64,
                    },
                    DriftEvent::PopularityCycle {
                        period: 7_777,
                        amplitude: 0.8,
                    },
                ],
            ),
        ),
        (
            "one-core-object",
            GeneratorConfig {
                core_objects: 1,
                ..small_cfg(20_000)
            },
        ),
        (
            "flat-zipf",
            GeneratorConfig {
                zipf_s: 0.0,
                ..small_cfg(20_000)
            },
        ),
    ]
}

/// `(name, content_hash, full_fold)` per [`edge_configs`] entry.
#[rustfmt::skip]
const EDGES: [(&str, u64, u64); 6] = [
    ("odd-length", 0x345d_5a2e_99da_74fd, 0x1792_e5fb_39af_1be5),
    ("drift-off-grid", 0x7d0a_464e_e7c6_718b, 0xcf49_b789_3c86_a97f),
    ("rotation-at-1-mod-64", 0x3c7a_8209_46c1_17f6, 0x33bb_0b0d_7998_50d2),
    ("flash-mid-block-and-cycle", 0x9377_18b7_4c18_031d, 0x9a21_5933_8f20_41a5),
    ("one-core-object", 0xce8b_20b8_33a2_dc1b, 0xc829_75a7_9134_85f3),
    ("flat-zipf", 0x6c11_ea10_e3a2_eee0, 0x1e2e_0a20_d4c5_ca64),
];

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
fn block_edge_traces_are_bit_identical() {
    let row =
        |name: &str, (content, fold): (u64, u64)| format!("{name} {content:#018x} {fold:#018x}");
    let got: Vec<String> = edge_configs()
        .into_iter()
        .map(|(name, cfg)| row(name, hashes(cfg)))
        .collect();
    let want: Vec<String> = EDGES
        .iter()
        .map(|&(name, content, fold)| row(name, (content, fold)))
        .collect();
    assert_eq!(got, want);
}

/// POSIX `cksum`: CRC-32 (polynomial 0x04C11DB7, MSB first, zero
/// initial value) over `data` and then its length's bytes, least
/// significant first, complemented.
fn posix_cksum(data: &[u8]) -> u32 {
    fn feed(crc: u32, byte: u8) -> u32 {
        let mut c = crc ^ (u32::from(byte) << 24);
        for _ in 0..8 {
            c = if c & 0x8000_0000 != 0 {
                (c << 1) ^ 0x04C1_1DB7
            } else {
                c << 1
            };
        }
        c
    }
    let mut crc = data.iter().fold(0, |c, &b| feed(c, b));
    let mut len = data.len();
    while len != 0 {
        crc = feed(crc, len as u8);
        len >>= 8;
    }
    !crc
}

/// `(crc32, posix_cksum)` of the file `generate_binary` writes for `cfg`.
fn file_sums(name: &str, cfg: GeneratorConfig) -> (u32, u32) {
    let dir = std::env::temp_dir().join(format!("cdn_trace_golden_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.bin");
    generate_binary(&path, cfg).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (crc32(&bytes), posix_cksum(&bytes))
}

#[test]
fn streamed_file_is_bit_identical() {
    let got = file_sums("cdn-w", Workload::CdnW.profile().config(100_000, 42));
    let want = (CDNW_100K_SEED42_FILE_CRC, CDNW_100K_SEED42_FILE_CKSUM);
    assert_eq!(got, want, "got ({:#010x}, {:#010x})", got.0, got.1);
}

#[test]
fn streamed_flash_crowd_file_is_bit_identical() {
    let cfg =
        Workload::CdnT
            .profile()
            .config_with_events(100_000, 42, vec![flash_crowd_window(100_000)]);
    let got = file_sums("cdn-t-flash", cfg);
    // The same framing CRC as every 100 000-record file (see above).
    let want = (CDNW_100K_SEED42_FILE_CRC, CDNT_FLASH_100K_SEED42_FILE_CKSUM);
    assert_eq!(got, want, "got ({:#010x}, {:#010x})", got.0, got.1);
}

/// Stopping early changes nothing already emitted: every prefix a caller
/// takes is the prefix of the whole trace, on either side of any block
/// boundary, under background drift and a mid-trace rotation.
#[test]
fn every_prefix_is_a_prefix_of_the_whole_trace() {
    let cfg = GeneratorConfig {
        events: vec![DriftEvent::WorkingSetRotation {
            at: 97,
            fraction: 0.5,
        }],
        drift_interval: 150,
        ..small_cfg(400)
    };
    let whole = TraceGenerator::generate(cfg.clone());
    for k in 0..=whole.len() {
        let prefix: Vec<Request> = TraceGenerator::new(cfg.clone()).take(k).collect();
        assert_eq!(prefix[..], whole[..k], "take({k})");
    }
}
