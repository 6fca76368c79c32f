//! Golden `AccessKind`-stream recordings for every policy over the
//! degenerate corpus.
//!
//! Each (policy × trace) pair's per-request outcome stream is folded into
//! a 64-bit rolling hash and compared against the committed recording in
//! `tests/data/golden_outcomes_v1.txt`. The recordings were captured
//! *before* the fused-index / hot-cold SoA refactor of the core
//! structures, so a pass here proves the ported `LruQueue` / `GhostList` /
//! `SegmentedQueue` (and every policy built on them) produce bit-identical
//! behaviour — not just "no panics".
//!
//! `golden_switch_v1.txt` does the same for the §5 deploy-tick node, which
//! has no [`PolicyKind`]: its streams were recorded from the separate
//! `SwitchableScip` type before that was folded into [`Scip`].
//!
//! Regenerate (only when an intentional behaviour change lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cdn-sim --test golden_outcomes
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use cdn_cache::hash::mix64;
use cdn_cache::{AccessKind, CachePolicy};
use cdn_sim::{one_chunk, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::{degenerate_corpus, TraceGenerator, TraceStats, Workload};
use scip::Scip;

/// Same capacity + seed as `model_check::all_policies_survive_degenerate_corpus`.
const CAPACITY: u64 = 1 << 16;
const SEED: u64 = 5;

fn outcome_code(outcome: AccessKind) -> u64 {
    match outcome {
        AccessKind::Hit => 1,
        AccessKind::Miss => 2,
        AccessKind::Rejected(_) => 3,
    }
}

const DIGEST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of the order-sensitive rolling hash of an outcome stream.
/// Folding the request index in with the code means a transposition
/// (hit@i, miss@j swapped with miss@i, hit@j) changes the digest even
/// though the multiset of outcomes is identical.
fn fold(h: u64, i: usize, outcome: AccessKind) -> u64 {
    mix64(h ^ mix64((i as u64) << 2 | outcome_code(outcome)))
}

fn stream_digest(kind: PolicyKind, trace: &[cdn_cache::Request], ctx: &TraceCtx) -> u64 {
    let mut h = DIGEST_SEED;
    kind.run_with_observer(
        CAPACITY,
        one_chunk(trace),
        ctx,
        BatchMode::Off,
        |i, _req, outcome, _used, _cap| h = fold(h, i, outcome),
    )
    .unwrap();
    h
}

fn data_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(file)
}

fn parse_recordings(text: &str) -> BTreeMap<(String, String), u64> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(policy), Some(trace), Some(hash)) = (parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed golden line: {line:?}");
        };
        let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
            .unwrap_or_else(|e| panic!("bad hash in golden line {line:?}: {e}"));
        map.insert((policy.to_string(), trace.to_string()), hash);
    }
    map
}

fn compute_all() -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for (name, trace) in degenerate_corpus(CAPACITY) {
        let ctx = TraceCtx::new(&trace, SEED);
        for kind in PolicyKind::ALL {
            let digest = stream_digest(kind, &trace, &ctx);
            out.insert((kind.label().to_string(), name.to_string()), digest);
        }
    }
    out
}

/// The deploy-tick node over the same corpus plus one realistic trace (a
/// 30 k CDN-T run at a 2 % cache — the degenerate traces alone do not
/// tell the three ticks apart), deploying at the first request, mid-trace
/// and never.
fn compute_switch() -> BTreeMap<(String, String), u64> {
    let cdn_t = TraceGenerator::generate(Workload::CdnT.profile().config(30_000, 23));
    let cdn_t_capacity = TraceStats::compute(&cdn_t).cache_bytes_for_fraction(0.02);
    let mut corpus: Vec<_> = degenerate_corpus(CAPACITY)
        .into_iter()
        .map(|(name, trace)| (name, trace, CAPACITY))
        .collect();
    corpus.push(("cdn-t-30k", cdn_t, cdn_t_capacity));

    let mut out = BTreeMap::new();
    for (name, trace, capacity) in &corpus {
        for (label, deploy_at) in [
            ("deploy@0", 0),
            ("deploy@half", trace.len() as u64 / 2),
            ("deploy@never", u64::MAX),
        ] {
            let mut node = Scip::deploying_at(*capacity, deploy_at, SEED);
            let digest = trace
                .iter()
                .enumerate()
                .fold(DIGEST_SEED, |h, (i, r)| fold(h, i, node.on_request(r)));
            out.insert((label.to_string(), name.to_string()), digest);
        }
    }
    out
}

/// Compare `actual` with the recordings in `file` (or rewrite the file
/// under `UPDATE_GOLDEN=1`, below `header`).
fn check_recordings(file: &str, header: &str, actual: &BTreeMap<(String, String), u64>) {
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let mut text = format!(
            "{header}# Regenerate: UPDATE_GOLDEN=1 cargo test -p cdn-sim --test golden_outcomes\n"
        );
        for ((policy, trace), hash) in actual {
            writeln!(text, "{policy} {trace} {hash:#018x}").unwrap();
        }
        std::fs::write(data_path(file), text).expect("write golden file");
        return;
    }

    let expected = parse_recordings(
        &std::fs::read_to_string(data_path(file)).expect("golden recordings file missing"),
    );
    assert_eq!(
        expected.len(),
        actual.len(),
        "recording count mismatch: expected {} (policy × trace) pairs, computed {}",
        expected.len(),
        actual.len()
    );
    let mut diverged = Vec::new();
    for (key, digest) in actual {
        match expected.get(key) {
            Some(want) if want == digest => {}
            Some(want) => diverged.push(format!(
                "{} on {}: recorded {want:#018x}, got {digest:#018x}",
                key.0, key.1
            )),
            None => diverged.push(format!("{} on {}: no recording", key.0, key.1)),
        }
    }
    assert!(
        diverged.is_empty(),
        "{} outcome stream(s) diverged from {file}:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn outcome_streams_match_pre_refactor_recordings() {
    check_recordings(
        "golden_outcomes_v1.txt",
        "# Golden AccessKind-stream digests: <policy> <trace> <hash>\n\
         # capacity 1<<16, TraceCtx seed 5, degenerate_corpus.\n",
        &compute_all(),
    );
}

#[test]
fn deploy_tick_node_matches_switchable_recordings() {
    check_recordings(
        "golden_switch_v1.txt",
        "# Golden AccessKind-stream digests of the deploy-tick node: <deploy tick> <trace> <hash>\n\
         # seed 5; degenerate_corpus at capacity 1<<16 + 30k CDN-T at 2%; recorded from SwitchableScip::new.\n",
        &compute_switch(),
    );
}
