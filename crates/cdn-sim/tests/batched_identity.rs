//! Prefetch hints are advisory: the software-pipelined replay loop must
//! produce the exact same `AccessKind` stream (and occupancy trajectory)
//! as the straight loop, for every policy over the degenerate corpus —
//! at fixed depths and on the default path (`BatchMode::Auto`), which
//! every measured replay takes.
//!
//! This is the batching analogue of `golden_outcomes`: instead of pinning
//! digests to a file, it pins the batched loop to the unbatched one —
//! if a policy ever lets `prefetch_hint` mutate state, this names the
//! policy, trace and mode that diverged.

use cdn_cache::hash::mix64;
use cdn_cache::AccessKind;
use cdn_sim::{one_chunk, BatchMode, PolicyKind, TraceCtx, AUTO_PREFETCH_DIST};
use cdn_trace::degenerate_corpus;

/// Same capacity + seed as `golden_outcomes` and `model_check`.
const CAPACITY: u64 = 1 << 16;
const SEED: u64 = 5;

fn outcome_code(outcome: AccessKind) -> u64 {
    match outcome {
        AccessKind::Hit => 1,
        AccessKind::Miss => 2,
        AccessKind::Rejected(_) => 3,
    }
}

/// Order-sensitive digest over `(index, outcome, used_bytes)` — folding
/// occupancy in catches a hint that perturbs eviction accounting even if
/// the outcome stream happens to survive.
fn fold(h: &mut u64, i: usize, outcome: AccessKind, used: u64) {
    *h = mix64(*h ^ mix64(((i as u64) << 2 | outcome_code(outcome)).wrapping_add(used << 34)));
}

#[test]
fn pipelined_loop_is_bit_identical_to_straight_loop() {
    let mut diverged = Vec::new();
    for (name, trace) in degenerate_corpus(CAPACITY) {
        let ctx = TraceCtx::new(&trace, SEED);
        for kind in PolicyKind::ALL {
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
            let modes = [
                BatchMode::Fixed(1),
                BatchMode::Fixed(AUTO_PREFETCH_DIST),
                BatchMode::Fixed(64),
                BatchMode::Auto,
            ];
            for mode in modes {
                let mut batched: u64 = 0x9E37_79B9_7F4A_7C15;
                kind.run_with_observer(
                    CAPACITY,
                    one_chunk(&trace[..]),
                    &ctx,
                    mode,
                    |i, _req, outcome, used, _cap| {
                        fold(&mut batched, i, outcome, used);
                    },
                )
                .unwrap();
                if batched != plain {
                    diverged.push(format!(
                        "{} on {} under {mode:?}: {batched:#018x} != {plain:#018x}",
                        kind.label(),
                        name
                    ));
                }
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "{} policy × trace × mode combination(s) diverged under pipelining:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
