//! Model-based property tests for [`BoundedRing`]: arbitrary
//! interleavings of `try_push` / `push_wait` / `try_push_within` /
//! `pop_into` / `unpop` against a plain `VecDeque` reference model,
//! asserting FIFO delivery and an *exact* `peak_depth` high-water mark —
//! including the crash-return path, where a worker pops a batch into the
//! buffer it reuses for every batch, "processes" a prefix and `unpop`s
//! the unprocessed tail (which may transiently exceed capacity, exactly
//! as a shard worker's catch_unwind handler does). The final drain goes
//! through the allocating `pop_many` wrapper.

use std::collections::VecDeque;
use std::time::Duration;

use cdnd::{BoundedRing, Pop, Popped, PushError};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Non-blocking push.
    TryPush,
    /// Watermark-limited push (`limit` as a raw value, clamped in-test).
    TryPushWithin(usize),
    /// Blocking push with a tiny timeout (single-threaded: full ⇒ Full).
    PushWait,
    /// Pop up to `max`, then crash-return all but `keep` of the batch.
    PopKeepUnpop { max: usize, keep: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::TryPush),
        (0usize..24).prop_map(Op::TryPushWithin),
        Just(Op::PushWait),
        ((1usize..12), (0usize..12)).prop_map(|(max, keep)| Op::PopKeepUnpop { max, keep }),
    ]
}

proptest! {
    #[test]
    fn ring_matches_model_under_interleavings(
        capacity in 1usize..12,
        ops in proptest::collection::vec(arb_op(), 1..120),
    ) {
        let ring: BoundedRing<u64> = BoundedRing::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut model_peak = 0usize;
        let mut next_val = 0u64;
        // Everything "processed" (kept from a popped batch), in order.
        let mut delivered: Vec<u64> = Vec::new();
        let mut pushed = 0u64;
        // The worker's batch buffer: cleared, never reallocated.
        let mut items: Vec<u64> = Vec::new();

        for op in &ops {
            match *op {
                Op::TryPush => {
                    let got = ring.try_push(next_val);
                    if model.len() < capacity {
                        prop_assert_eq!(got, Ok(()));
                        model.push_back(next_val);
                        model_peak = model_peak.max(model.len());
                        pushed += 1;
                    } else {
                        prop_assert_eq!(got, Err(PushError::Full));
                    }
                    next_val += 1;
                }
                Op::TryPushWithin(limit) => {
                    let got = ring.try_push_within(next_val, limit);
                    let bound = limit.min(capacity);
                    if model.len() < bound {
                        prop_assert_eq!(got, Ok(()));
                        model.push_back(next_val);
                        model_peak = model_peak.max(model.len());
                        pushed += 1;
                    } else {
                        // Refusal reports the exact depth seen under lock.
                        prop_assert_eq!(got, Err((model.len(), PushError::Full)));
                    }
                    next_val += 1;
                }
                Op::PushWait => {
                    let got = ring.push_wait(next_val, Duration::from_millis(1));
                    if model.len() < capacity {
                        prop_assert_eq!(got, Ok(()));
                        model.push_back(next_val);
                        model_peak = model_peak.max(model.len());
                        pushed += 1;
                    } else {
                        // No consumer thread: a full ring must time out.
                        prop_assert_eq!(got, Err(PushError::Full));
                    }
                    next_val += 1;
                }
                Op::PopKeepUnpop { max, keep } => {
                    items.clear();
                    match ring.pop_into(&mut items, max, Duration::from_millis(1)) {
                        Pop::Items => {
                            let take = model.len().min(max.max(1));
                            let expect: Vec<u64> = model.drain(..take).collect();
                            prop_assert_eq!(&items, &expect, "batch must be FIFO");
                            // Crash-return: keep a prefix, unpop the tail.
                            let keep = keep.min(items.len());
                            delivered.extend_from_slice(&items[..keep]);
                            let tail = &items[keep..];
                            for v in tail.iter().rev() {
                                model.push_front(*v);
                            }
                            ring.unpop(tail);
                            model_peak = model_peak.max(model.len());
                        }
                        Pop::TimedOut => {
                            prop_assert!(model.is_empty(), "TimedOut only when empty");
                            prop_assert!(items.is_empty(), "TimedOut appends nothing");
                        }
                        Pop::Drained => prop_assert!(false, "ring never closed"),
                    }
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.peak_depth(), model_peak, "peak must be exact");
        }

        // Drain what remains: delivered ++ residue must be exactly the
        // accepted pushes in submission order — crash-return loses and
        // reorders nothing.
        while let Popped::Items(items) = ring.pop_many(usize::MAX, Duration::from_millis(1)) {
            let expect: Vec<u64> = model.drain(..).collect();
            prop_assert_eq!(&items, &expect);
            delivered.extend_from_slice(&items);
        }
        prop_assert_eq!(delivered.len() as u64, pushed);
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &delivered, "FIFO: delivery order = push order");
        prop_assert_eq!(ring.peak_depth(), model_peak);
    }
}
