//! The paper's miss anatomy for every policy: the ZRO / P-ZRO labels of
//! any [`PolicyKind`]'s outcome stream add up, in `u64`, to its measured
//! ledger. Each miss is the first request of its object (compulsory), the
//! request after an A-ZRO or an A-P-ZRO, or the request after an
//! inadmissible one; every hit is reused or a P-ZRO.

use cdn_cache::Request;
use cdn_sim::{one_chunk, run_policy, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::label::{label_outcomes, RequestLabel};
use cdn_trace::{degenerate_corpus, TraceGenerator, TraceStats, Workload, NO_NEXT};
use proptest::prelude::*;

/// Assert the anatomy identities of `kind`'s replay of `trace`.
fn check_anatomy(kind: PolicyKind, capacity: u64, trace: &[Request], ctx: &TraceCtx, at: &str) {
    let who = format!("{} on {at}", kind.label());
    let mut outcomes = Vec::with_capacity(trace.len());
    let Ok(observed) = kind.run_with_observer(
        capacity,
        one_chunk(trace),
        ctx,
        BatchMode::Auto,
        |_, _, outcome, _, _| outcomes.push(outcome),
    );
    let labels = label_outcomes(&outcomes, &ctx.next_access);
    let s = labels.summary;
    let count =
        |pick: fn(RequestLabel) -> bool| labels.labels.iter().filter(|&&l| pick(l)).count() as u64;

    assert_eq!(s.hits + s.misses, trace.len() as u64, "{who}");
    assert_eq!(
        (s.hits, s.misses),
        (observed.hits, observed.misses),
        "{who}"
    );
    assert_eq!(
        s.misses,
        run_policy(kind, capacity, trace, ctx).misses,
        "{who}"
    );
    let reused_or_pzro =
        count(|l| matches!(l, RequestLabel::HitReused | RequestLabel::HitPZro { .. }));
    assert_eq!(s.hits, reused_or_pzro, "{who}: hits");
    assert_eq!(s.zro, count(RequestLabel::is_zro), "{who}: ZRO count");
    assert_eq!(s.pzro, count(RequestLabel::is_pzro), "{who}: P-ZRO count");

    let mut previous = vec![NO_NEXT; trace.len()];
    for (i, &next) in ctx.next_access.iter().enumerate() {
        if next != NO_NEXT {
            previous[next as usize] = i as u64;
        }
    }
    let (mut compulsory, mut after_inadmissible) = (0u64, 0u64);
    for (j, outcome) in outcomes.iter().enumerate() {
        if outcome.is_hit() {
            continue;
        }
        match previous[j] {
            NO_NEXT => compulsory += 1,
            p if labels.labels[p as usize] == RequestLabel::Inadmissible => after_inadmissible += 1,
            _ => {}
        }
    }
    assert_eq!(
        s.misses,
        compulsory + s.azro + s.apzro + after_inadmissible,
        "{who}: misses = compulsory {compulsory} + A-ZRO {} + A-P-ZRO {} + after inadmissible \
         {after_inadmissible}",
        s.azro,
        s.apzro
    );

    for (i, label) in labels.labels.iter().enumerate() {
        if let RequestLabel::MissZro { reaccessed: true }
        | RequestLabel::HitPZro { reaccessed: true } = label
        {
            let next = ctx.next_access[i] as usize;
            assert!(
                !outcomes[next].is_hit(),
                "{who}: {label:?} @ {i} followed by a hit"
            );
        }
    }
}

#[test]
fn every_policy_labels_consistently() {
    let capacity = 1 << 16;
    for (name, trace) in degenerate_corpus(capacity) {
        let ctx = TraceCtx::new(&trace, 5);
        for kind in PolicyKind::ALL {
            check_anatomy(kind, capacity, &trace, &ctx, name);
        }
    }
    for w in Workload::ALL {
        let trace = TraceGenerator::generate(w.profile().config(5_000, 42));
        let capacity = TraceStats::compute(&trace).cache_bytes_for_fraction(0.05);
        let ctx = TraceCtx::new(&trace, 42);
        for kind in PolicyKind::ALL {
            check_anatomy(kind, capacity, &trace, &ctx, w.name());
        }
    }
}

proptest! {
    /// Labeling counts are internally consistent for any stream, under
    /// every policy.
    #[test]
    fn label_counts_consistent(
        pairs in proptest::collection::vec((0u64..60, 1u64..100), 1..500),
        cap in 20u64..500,
    ) {
        let trace: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(t, &(id, size))| Request::new(t as u64, id, size))
            .collect();
        let ctx = TraceCtx::new(&trace, 7);
        for kind in PolicyKind::ALL {
            check_anatomy(kind, cap, &trace, &ctx, "a random stream");
        }
    }
}
