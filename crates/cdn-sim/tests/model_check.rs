//! Model-based differential harness for the cache core (DESIGN.md §13).
//!
//! Every test here drives a *real* structure (the O(1) intrusive-list
//! implementations in `cdn-cache`, or a full policy) and an obviously
//! correct *reference model* (`ModelLru` / `ModelGhost` / `ModelSegQ` /
//! `ModelLruPolicy` — Vec-based, u128 ledgers; a history-keeping
//! `LruQueue` against one `ModelLru` plus two `ModelGhost`s) through the
//! same long, seeded operation sequence, asserting identical observable
//! behavior at every step: membership, order, byte ledger, return values,
//! and the hit/miss/rejected outcome stream. Op mixes deliberately include the
//! adversarial shapes from ISSUE.md: size 0, size == capacity,
//! size > capacity, sizes that would sum past `u64::MAX`, duplicate keys,
//! and reuse-after-ghost. `audit()` (always compiled; the `audit` cargo
//! feature only gates hot-path calls inside the library) is invoked on the
//! real structure after every mutation.

use cdn_cache::ghost::GhostEntry;
use cdn_cache::HistoryList::{self, Hl, Hm};
use cdn_cache::{
    CachePolicy, GhostList, HistoryEntry, InsertPos, LruQueue, ModelGhost, ModelLru,
    ModelLruPolicy, ModelSegQ, ObjectId, Probe, Request, SegmentedQueue, SimRng,
};
use cdn_policies::insertion::{Lip, Mip};
use cdn_policies::replacement::Lru;
use cdn_policies::InsertionCache;
use cdn_sim::{one_chunk, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::degenerate_corpus;
use scip::core::{LAMBDA_MAX, LAMBDA_MIN};
use scip::Scip;

const CAP: u64 = 1 << 20; // 1 MiB toy cache for structure differentials.

/// Sizes that exercise every boundary the size ledger has: zero, tiny,
/// around half capacity (so two residents overflow), exactly capacity,
/// just over, and values that would wrap a u64 accumulator.
fn adversarial_size(rng: &mut SimRng, capacity: u64) -> u64 {
    match rng.u64_below(12) {
        0 => 0,
        1 => 1,
        2 => capacity / 2,
        3 => capacity / 2 + 1,
        4 => capacity,
        5 => capacity + 1,
        6 => u64::MAX / 2,
        7 => u64::MAX,
        _ => 1 + rng.u64_below((capacity / 4).max(1)),
    }
}

/// Small id universe so duplicate keys and reuse-after-evict happen often.
fn pick_id(rng: &mut SimRng) -> ObjectId {
    ObjectId::from(1 + rng.u64_below(64))
}

fn assert_lru_equiv(real: &LruQueue, model: &ModelLru, step: usize) {
    real.audit().unwrap_or_else(|e| panic!("step {step}: {e}"));
    assert_eq!(real.capacity(), model.capacity(), "capacity @ step {step}");
    assert_eq!(
        real.used_bytes(),
        model.used_bytes(),
        "used_bytes @ step {step}"
    );
    assert_eq!(real.len(), model.len(), "len @ step {step}");
    // Full order + metadata equality, MRU first.
    let got: Vec<_> = real.iter().collect();
    let want: Vec<_> = model.iter().copied().collect();
    assert_eq!(got, want, "queue order/metadata diverged @ step {step}");
    assert_eq!(
        real.peek_lru(),
        model.peek_lru().copied(),
        "peek_lru @ step {step}"
    );
    assert_eq!(
        real.peek_mru(),
        model.peek_mru().copied(),
        "peek_mru @ step {step}"
    );
}

/// 12k seeded ops through LruQueue vs ModelLru: inserts at both ends,
/// hits, promotions, demotions, removals and explicit evictions, with
/// adversarial sizes throughout.
#[test]
fn differential_lru_queue_vs_model() {
    for seed in [1u64, 42, 0xC0FFEE] {
        let mut rng = SimRng::new(seed);
        let mut real = LruQueue::new(CAP);
        let mut model = ModelLru::new(CAP);
        for step in 0..12_000usize {
            let id = pick_id(&mut rng);
            let tick = step as u64;
            match rng.u64_below(10) {
                0 | 1 => {
                    // Insert (skipping duplicates exactly like callers must).
                    let size = adversarial_size(&mut rng, real.capacity());
                    assert_eq!(
                        real.admissible(size),
                        model.admissible(size),
                        "admissible({size}) @ step {step}"
                    );
                    if !real.contains(id) && real.admissible(size) {
                        while real.needs_eviction_for(size) {
                            let a = real.evict_lru();
                            let b = model.evict_lru();
                            assert_eq!(a, b, "evict-for-insert @ step {step}");
                        }
                        if rng.chance(0.5) {
                            real.insert_mru(id, size, tick);
                            model.insert_mru(id, size, tick);
                        } else {
                            real.insert_lru(id, size, tick);
                            model.insert_lru(id, size, tick);
                        }
                    }
                }
                2 | 3 => {
                    assert_eq!(real.contains(id), model.contains(id));
                    if real.contains(id) {
                        real.record_hit(id, tick);
                        model.record_hit(id, tick);
                        real.promote_to_mru(id);
                        model.promote_to_mru(id);
                    }
                }
                4 => {
                    if let Some(h) = real.lookup(id) {
                        real.demote_to_lru_at(h);
                        model.demote_to_lru(id);
                    }
                }
                5 => {
                    if real.contains(id) {
                        real.promote_one(id);
                        model.promote_one(id);
                    }
                }
                6 => {
                    let a = real.remove(id);
                    let b = model.remove(id);
                    assert_eq!(a, b, "remove @ step {step}");
                }
                7 => {
                    let a = real.evict_lru();
                    let b = model.evict_lru();
                    assert_eq!(a, b, "evict_lru @ step {step}");
                }
                8 => {
                    // Burst-insert a block of fresh ids well outside the
                    // 64-id universe, forcing the fused index to grow
                    // (and rehash) mid-sequence, then tear the block back
                    // down — either one key at a time (mass backward-shift
                    // deletion) or all at once (rebuild from zero).
                    let base = 1_000_000 + (step as u64) * 4096;
                    let burst = 64 + rng.u64_below(192);
                    for d in 0..burst {
                        let bid = ObjectId::from(base + d);
                        if real.admissible(1) {
                            while real.needs_eviction_for(1) {
                                assert_eq!(
                                    real.evict_lru(),
                                    model.evict_lru(),
                                    "burst evict @ step {step}"
                                );
                            }
                            real.insert_mru(bid, 1, tick);
                            model.insert_mru(bid, 1, tick);
                        }
                    }
                    if rng.chance(0.5) {
                        for d in 0..burst {
                            let bid = ObjectId::from(base + d);
                            assert_eq!(
                                real.remove(bid),
                                model.remove(bid),
                                "burst drain @ step {step}"
                            );
                        }
                    } else {
                        real.clear();
                        model.clear();
                    }
                }
                _ => {
                    assert_eq!(real.get(id), model.get(id).copied(), "get @ step {step}");
                }
            }
            assert_lru_equiv(&real, &model, step);
        }
    }
}

/// 12k seeded ops through GhostList vs ModelGhost: adds (with budget
/// truncation), duplicate re-adds, deletes, and membership probes.
#[test]
fn differential_ghost_list_vs_model() {
    for seed in [7u64, 99, 0xBEEF] {
        let mut rng = SimRng::new(seed);
        let mut real = GhostList::new(CAP / 8);
        let mut model = ModelGhost::new(CAP / 8);
        for step in 0..12_000usize {
            let id = pick_id(&mut rng);
            match rng.u64_below(8) {
                0..=4 => {
                    let entry = GhostEntry {
                        id,
                        size: adversarial_size(&mut rng, CAP / 8),
                        evicted_tick: step as u64,
                        tag: rng.next_u64() % 5,
                    };
                    real.add(entry);
                    model.add(entry);
                }
                5 => {
                    let a = real.delete(id);
                    let b = model.delete(id);
                    assert_eq!(a, b, "delete @ step {step}");
                }
                _ => {
                    assert_eq!(real.contains(id), model.contains(id));
                    assert_eq!(real.get(id).copied(), model.get(id).copied());
                }
            }
            real.audit().unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(real.used_bytes(), model.used_bytes(), "used @ step {step}");
            assert_eq!(real.len(), model.len(), "len @ step {step}");
            let got: Vec<_> = real.iter().copied().collect();
            let want: Vec<_> = model.iter().copied().collect();
            assert_eq!(got, want, "ghost order diverged @ step {step}");
        }
    }
}

/// Sizes for the history differential: the boundaries of the cache
/// ledger and of a history budget at once.
fn history_size(rng: &mut SimRng, budget: u64) -> u64 {
    match rng.u64_below(10) {
        0 => 0,
        1 => budget,
        2 => budget + 1,
        3 => budget / 2,
        4 => CAP,
        5 => u64::MAX,
        _ => 1 + rng.u64_below(budget / 4),
    }
}

fn pick_list(rng: &mut SimRng) -> HistoryList {
    if rng.chance(0.5) {
        Hm
    } else {
        Hl
    }
}

/// Evict one victim into `list` on both sides.
fn evict_both(
    real: &mut LruQueue,
    model: &mut ModelLru,
    ghosts: &mut [ModelGhost; 2],
    list: HistoryList,
    tag: u64,
    step: usize,
) {
    let a = real.evict_lru_into_history(|_| (list, tag));
    let b = model.evict_lru();
    assert_eq!(a, b, "evict into {list:?} @ step {step}");
    if let Some(v) = b {
        ghosts[list as usize].add(GhostEntry {
            id: v.id,
            size: v.size,
            evicted_tick: 0,
            tag,
        });
    }
}

fn assert_history_equiv(real: &LruQueue, model: &ModelLru, ghosts: &[ModelGhost; 2], step: usize) {
    assert_lru_equiv(real, model, step);
    for (list, ghost) in [Hm, Hl].into_iter().zip(ghosts) {
        assert_eq!(
            real.history_used_bytes(list),
            ghost.used_bytes(),
            "{list:?} ledger @ step {step}"
        );
        assert_eq!(
            real.history_len(list),
            ghost.len(),
            "{list:?} len @ step {step}"
        );
        let got: Vec<_> = real
            .history_iter(list)
            .map(|e| (e.id, e.size, e.tag))
            .collect();
        let want: Vec<_> = ghost.iter().map(|e| (e.id, e.size, e.tag)).collect();
        assert_eq!(got, want, "{list:?} FIFO order @ step {step}");
    }
}

/// 12k seeded ops through a history-keeping LruQueue vs ModelLru plus two
/// ModelGhosts: SCIP's miss path (probe, take the ghost entry or let the
/// insert retire it, evict into a random list, insert at either end),
/// hits, moves, removals, plain and history evictions, clears, bursts
/// that grow the index and cycle the rings, ghost hits that drop their key
/// (`forget`), and non-resident keys remembered by a ghost list's rules
/// (`remember`: refresh across lists, oversize forgotten). Per op: the
/// probe agrees with the model's membership; after every op: audit, queue
/// order, and each list's FIFO order and byte ledger.
#[test]
fn differential_history_queue_vs_model() {
    let budget = CAP / 8;
    for seed in [5u64, 77, 0xF00D] {
        let mut rng = SimRng::new(seed);
        let mut real = LruQueue::with_history(CAP, budget);
        let mut model = ModelLru::new(CAP);
        let mut ghosts = [ModelGhost::new(budget), ModelGhost::new(budget)];
        for step in 0..12_000usize {
            let id = pick_id(&mut rng);
            let tick = step as u64;
            let probe = real.probe(id);
            let remembered = ghosts.iter().position(|g| g.contains(id));
            match probe {
                Probe::Resident(_) => assert!(model.contains(id), "probe @ step {step}"),
                Probe::History(_) => {
                    assert!(
                        !model.contains(id) && remembered.is_some(),
                        "probe @ step {step}"
                    )
                }
                Probe::Absent => {
                    assert!(
                        !model.contains(id) && remembered.is_none(),
                        "probe @ step {step}"
                    )
                }
            }
            match rng.u64_below(13) {
                0..=3 => {
                    let size = history_size(&mut rng, budget);
                    if !model.contains(id) && real.admissible(size) {
                        // Either consume the ghost entry first (SCIP's
                        // path) or leave it for the insert to retire.
                        let take_first = rng.chance(0.5);
                        if let (true, Probe::History(slot)) = (take_first, probe) {
                            let (list, e) = real.take_history(slot);
                            let want = ghosts[list as usize].delete(id).expect("remembered");
                            assert_eq!((e.id, e.size, e.tag), (want.id, want.size, want.tag));
                        }
                        while real.needs_eviction_for(size) {
                            let (list, tag) = (pick_list(&mut rng), rng.u64_below(5));
                            evict_both(&mut real, &mut model, &mut ghosts, list, tag, step);
                        }
                        for g in &mut ghosts {
                            g.delete(id);
                        }
                        if rng.chance(0.5) {
                            real.insert_mru(id, size, tick);
                            model.insert_mru(id, size, tick);
                        } else {
                            real.insert_lru(id, size, tick);
                            model.insert_lru(id, size, tick);
                        }
                    }
                }
                4 => {
                    if let Probe::Resident(h) = probe {
                        real.record_hit_at(h, tick);
                        model.record_hit(id, tick);
                        real.promote_to_mru_at(h);
                        model.promote_to_mru(id);
                    }
                }
                5 => {
                    if let Probe::Resident(h) = probe {
                        real.demote_to_lru_at(h);
                        model.demote_to_lru(id);
                    }
                }
                6 => assert_eq!(real.remove(id), model.remove(id), "remove @ step {step}"),
                7 => {
                    let (list, tag) = (pick_list(&mut rng), rng.u64_below(5));
                    evict_both(&mut real, &mut model, &mut ghosts, list, tag, step);
                }
                8 => assert_eq!(real.evict_lru(), model.evict_lru(), "evict @ step {step}"),
                9 => match rng.u64_below(5) {
                    0 => {
                        real.clear();
                        model.clear();
                        ghosts.iter_mut().for_each(ModelGhost::clear);
                    }
                    _ => {
                        // A burst of fresh ids sized so each list holds
                        // 32: grows the index, then pushes the rings
                        // through growth, compaction and tail drops.
                        let base = 1_000_000 + (step as u64) * 4096;
                        let size = budget / 32;
                        for d in 0..64 + rng.u64_below(192) {
                            while real.needs_eviction_for(size) {
                                let list = pick_list(&mut rng);
                                evict_both(&mut real, &mut model, &mut ghosts, list, d, step);
                            }
                            real.insert_mru(ObjectId::from(base + d), size, tick);
                            model.insert_mru(ObjectId::from(base + d), size, tick);
                        }
                    }
                },
                10 => {
                    // A ghost hit whose object goes to another queue.
                    if let Probe::History(slot) = probe {
                        let (list, e) = real.forget(slot);
                        let want = ghosts[list as usize].delete(id).expect("remembered");
                        assert_eq!((e.id, e.size, e.tag), (want.id, want.size, want.tag));
                    }
                }
                11 => {
                    // A victim that left by another door.
                    if !model.contains(id) {
                        let (list, tag) = (pick_list(&mut rng), rng.u64_below(5));
                        let size = history_size(&mut rng, budget);
                        real.remember(list, HistoryEntry { id, size, tag });
                        ghosts[1 - list as usize].delete(id);
                        ghosts[list as usize].add(GhostEntry {
                            id,
                            size,
                            evicted_tick: 0,
                            tag,
                        });
                    }
                }
                _ => {
                    assert_eq!(real.get(id), model.get(id).copied(), "get @ step {step}");
                    let got = real.history_get(id).map(|(l, e)| (l, e.id, e.size, e.tag));
                    let want = remembered.map(|l| {
                        let e = ghosts[l].get(id).expect("remembered");
                        ([Hm, Hl][l], e.id, e.size, e.tag)
                    });
                    assert_eq!(got, want, "history_get @ step {step}");
                }
            }
            assert_history_equiv(&real, &model, &ghosts, step);
        }
    }
}

/// 10k seeded ops through SegmentedQueue vs ModelSegQ (4 uneven segments,
/// at 1 MiB and at `u64::MAX`): per-segment inserts with cascaded
/// evictions, entries larger than their segment's budget, hit-moves
/// between segments, and global promotions.
#[test]
fn differential_segq_vs_model() {
    let fractions = [0.4, 0.3, 0.2, 0.1];
    for (cap, seed) in [(CAP, 3u64), (CAP, 17), (CAP, 0xACE), (u64::MAX, 29)] {
        let mut rng = SimRng::new(seed);
        let mut real = SegmentedQueue::new(cap, &fractions);
        let mut model = ModelSegQ::new(cap, &fractions);
        assert_eq!(real.capacity(), model.capacity());
        for step in 0..10_000usize {
            let id = pick_id(&mut rng);
            let tick = step as u64;
            let seg = rng.usize_below(fractions.len());
            match rng.u64_below(6) {
                0..=2 => {
                    // Sizes capped at the capacity: SegmentedQueue requires
                    // callers to pre-filter (admission happens at the policy
                    // layer); oversize contracts are covered by the
                    // all-policy sweep below. One in four may exceed a
                    // segment's budget and pass straight through it.
                    let bound = if rng.u64_below(4) == 0 { cap } else { cap / 16 };
                    let size = 1 + rng.u64_below(bound);
                    if !real.contains(id) {
                        let a = real.insert(seg, id, size, tick);
                        let b = model.insert(seg, id, size, tick);
                        assert_eq!(a, b, "insert cascade @ step {step}");
                    }
                }
                3 | 4 => {
                    assert_eq!(real.segment_of(id), model.segment_of(id));
                    if real.contains(id) {
                        let a = real.hit_move_to(id, seg, tick);
                        let b = model.hit_move_to(id, seg, tick);
                        assert_eq!(a, b, "hit_move_to cascade @ step {step}");
                    }
                }
                _ => {
                    if real.contains(id) {
                        real.promote_one_global(id);
                        model.promote_one_global(id);
                    }
                }
            }
            real.audit().unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_eq!(real.used_bytes(), model.used_bytes(), "used @ step {step}");
            assert_eq!(real.len(), model.len(), "len @ step {step}");
            let got: Vec<_> = real.iter_global().collect();
            let want: Vec<_> = model.iter_global().copied().collect();
            assert_eq!(got, want, "global order diverged @ step {step}");
        }
    }
}

/// Seeded request stream with adversarial sizes for policy differentials.
fn adversarial_trace(seed: u64, n: usize, capacity: u64) -> Vec<Request> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|t| {
            let id = 1 + rng.u64_below(48);
            // Size is a pure function of the id so the trace is
            // well-formed (one object, one size) yet hits every
            // adversarial bucket across the id universe.
            let size = match id % 8 {
                0 => 0,
                1 => capacity,
                2 => capacity + 1,
                3 => u64::MAX,
                _ => 1 + (id * 131) % (capacity / 4),
            };
            Request {
                tick: t as u64,
                id: id.into(),
                size,
                wall_secs: t as f64 * 1e-3,
            }
        })
        .collect()
}

/// Exact AccessKind-sequence differential: the real `Lru` (MIP insertion)
/// and `InsertionCache<Lip>` must produce, request for request, the same
/// outcome stream and occupancy as the model policy over 10k adversarial
/// requests — including identical `Rejected(TooLarge)` decisions.
#[test]
fn differential_policies_vs_model_policy() {
    let capacity = 1 << 16;
    let trace = adversarial_trace(0xD1FF, 10_000, capacity);

    // (real policy, matching model insertion position)
    let runs: Vec<(Box<dyn CachePolicy>, InsertPos)> = vec![
        (Box::new(Lru::new(capacity)), InsertPos::Mru),
        (
            Box::new(InsertionCache::new(Mip, capacity, "MIP")),
            InsertPos::Mru,
        ),
        (
            Box::new(InsertionCache::new(Lip, capacity, "LIP")),
            InsertPos::Lru,
        ),
        // The node `tdc` and `cdnd` serve through, before its deploy tick.
        (
            Box::new(Scip::deploying_at(capacity, u64::MAX, 1)),
            InsertPos::Mru,
        ),
    ];
    for (mut real, pos) in runs {
        let mut model = ModelLruPolicy::new(capacity, pos);
        let name = real.name().to_string();
        for (i, req) in trace.iter().enumerate() {
            let a = real.on_request(req);
            let b = model.on_request(req);
            assert_eq!(a, b, "{name}: outcome diverged @ request {i} ({req:?})");
            assert_eq!(
                real.used_bytes(),
                model.used_bytes(),
                "{name}: occupancy diverged @ request {i}"
            );
            if req.size > capacity {
                assert!(
                    a.is_rejected(),
                    "{name}: oversized object must be rejected @ request {i}"
                );
            }
        }
        let got: Vec<_> = model.queue().iter().map(|m| (m.id, m.size)).collect();
        assert!(
            !got.is_empty(),
            "{name}: model ended empty — trace too weak"
        );
    }
}

/// All 30 policies, run through `run_with_observer`, over seeded
/// adversarial traces: no panics, occupancy never exceeds
/// capacity at any step, every oversized object is `Rejected`, and the
/// outcome stream is bit-identical across two runs (determinism).
#[test]
fn all_policies_survive_adversarial_traces() {
    let capacity = 1 << 16;
    for seed in [11u64, 0xFEED] {
        let trace = adversarial_trace(seed, 10_000, capacity);
        let ctx = TraceCtx::new(&trace, seed);
        for kind in PolicyKind::ALL {
            let mut outcomes = Vec::with_capacity(trace.len());
            kind.run_with_observer(
                capacity,
                one_chunk(&trace[..]),
                &ctx,
                BatchMode::Off,
                |i, req, outcome, used, cap| {
                    assert!(
                        used <= cap,
                        "{}: occupancy {used} > capacity {cap} @ request {i}",
                        kind.label()
                    );
                    if req.size > capacity {
                        assert!(
                            outcome.is_rejected(),
                            "{}: oversized object (size {}) not rejected @ request {i}",
                            kind.label(),
                            req.size
                        );
                    }
                    if outcome.is_rejected() {
                        assert!(
                            !outcome.is_hit(),
                            "{}: Rejected must count as a miss",
                            kind.label()
                        );
                    }
                    outcomes.push(outcome);
                },
            )
            .unwrap();
            assert_eq!(outcomes.len(), trace.len(), "{}", kind.label());

            let mut second = Vec::with_capacity(trace.len());
            kind.run_with_observer(
                capacity,
                one_chunk(&trace[..]),
                &ctx,
                BatchMode::Off,
                |_, _, outcome, _, _| second.push(outcome),
            )
            .unwrap();
            assert_eq!(
                outcomes,
                second,
                "{}: outcome stream not deterministic",
                kind.label()
            );
        }
    }
}

/// All 30 policies over the degenerate-trace corpus (empty, single object,
/// all-unique ZRO storm, all-same-key, max-size, oversized, zero-size,
/// mixed adversarial): no panics, occupancy bounded at every step.
#[test]
fn all_policies_survive_degenerate_corpus() {
    let capacity = 1 << 16;
    for (name, trace) in degenerate_corpus(capacity) {
        let ctx = TraceCtx::new(&trace, 5);
        for kind in PolicyKind::ALL {
            kind.run_with_observer(
                capacity,
                one_chunk(&trace[..]),
                &ctx,
                BatchMode::Off,
                |i, req, outcome, used, cap| {
                    assert!(
                        used <= cap,
                        "{} on {name:?}: occupancy {used} > {cap} @ request {i}",
                        kind.label()
                    );
                    if req.size > capacity {
                        assert!(
                            outcome.is_rejected(),
                            "{} on {name:?}: oversized not rejected @ request {i}",
                            kind.label()
                        );
                    }
                },
            )
            .unwrap();
        }
    }
}

/// Capacity `u64::MAX` — what `replaytool` asks for at fraction 1.0 once
/// the trace's working set saturates — for all 30 policies, over the
/// degenerate corpus plus a ghost-return trace: two objects of
/// `u64::MAX / 2 + 1` bytes taking turns, so each insert evicts the other
/// and every later miss is a ghost hit (ARC's `p` adaptation, LeCaR's and
/// CACHEUS's regret, 2Q's A1out, SCIP's histories). A byte ledger that
/// wraps (a release build; a test build traps the overflow) keeps objects
/// whose sizes sum past the capacity, and shows as a hit on an object
/// larger than the bytes resident before it. Every failing pair is named.
#[test]
fn every_policy_survives_u64_max_capacity() {
    let capacity = u64::MAX;
    let half = u64::MAX / 2 + 1;
    let ghost_return = (0..8).map(|t| Request::new(t, 1 + t % 2, half)).collect();
    let mut corpus = degenerate_corpus(capacity);
    corpus.push(("ghost-return", ghost_return));
    let mut failed = Vec::new();
    for (name, trace) in &corpus {
        let ctx = TraceCtx::new(trace, 5);
        for kind in PolicyKind::ALL {
            let run = || {
                let mut used_before = 0;
                let m = kind
                    .run_with_observer(
                        capacity,
                        one_chunk(&trace[..]),
                        &ctx,
                        BatchMode::Off,
                        |i, req, outcome, used, cap| {
                            assert!(used <= cap, "{} on {name:?} @ {i}", kind.label());
                            assert!(
                                !outcome.is_hit() || req.size <= used_before,
                                "{} on {name:?} @ {i}: hit on {} B with {used_before} B resident",
                                kind.label(),
                                req.size
                            );
                            used_before = used;
                        },
                    )
                    .unwrap();
                assert_eq!(m.hits + m.misses, trace.len() as u64, "{}", kind.label());
            };
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err() {
                failed.push(format!("{} on {name}", kind.label()));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "{} pairs failed: {failed:?}",
        failed.len()
    );
}

/// SCIP λ regression (ISSUE.md satellite): an all-unique ZRO storm never
/// produces a ghost hit, so a naive multiplicative decrease would drive
/// λ → 0 (or NaN via 0/0 windows). The clamp must keep λ finite and in
/// [LAMBDA_MIN, LAMBDA_MAX] on every request, and ω weights must stay
/// finite; `Scip::audit()` checks the full structural invariant set.
#[test]
fn scip_lambda_survives_zero_ghost_hit_windows() {
    let capacity = 1 << 16;
    let corpus = degenerate_corpus(capacity);
    let (_, storm) = corpus
        .iter()
        .find(|(n, _)| *n == "zro-storm-all-unique")
        .expect("corpus names are stable");
    let mut scip = Scip::new(capacity, 9);
    for (i, req) in storm.iter().enumerate() {
        scip.on_request(req);
        let lambda = scip.core().lambda();
        assert!(
            lambda.is_finite() && (LAMBDA_MIN..=LAMBDA_MAX).contains(&lambda),
            "λ = {lambda} escaped [{LAMBDA_MIN}, {LAMBDA_MAX}] @ request {i}"
        );
        let (wm, wp) = (scip.core().omega_m(), scip.core().omega_p());
        assert!(
            wm.is_finite() && wp.is_finite() && wm >= 0.0 && wp >= 0.0,
            "ω = ({wm}, {wp}) degenerate @ request {i}"
        );
    }
    scip.audit().expect("SCIP invariants after ZRO storm");
}
