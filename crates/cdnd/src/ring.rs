//! Bounded MPSC request ring feeding one shard worker.
//!
//! A deliberately boring `Mutex<VecDeque>` + two condvars: the daemon's
//! robustness claims rest on this queue being **bounded** (overload turns
//! into explicit shedding, never unbounded growth) and **outliving the
//! worker** (a crashed worker's queued requests survive in the ring and
//! are served by its replacement, so crash isolation does not silently
//! drop accepted work). Both properties are easier to prove on a mutexed
//! deque than on a lock-free ring, and the daemon batches pops
//! ([`BoundedRing::pop_into`]) so the lock is taken once per batch, not
//! once per request, into a buffer the worker reuses for every batch.
//!
//! Wakeups are paid only when someone sleeps: a futex `Condvar::notify_*`
//! is a system call even with no waiter, so the ring records under its
//! lock how many consumers are parked and how many producers are
//! blocked, and a push or pop notifies only when that count is non-zero.
//! Both sides decide under the same mutex — a waiter registers before it
//! releases the lock to sleep, a notifier reads the registration after
//! taking it — so a wakeup cannot be lost.
//!
//! Depth accounting: the ring tracks its own high-water mark
//! ([`BoundedRing::peak_depth`]) under the same lock that admits pushes,
//! so the overload test's "peak depth ≤ capacity" assertion is exact, not
//! sampled.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The ring is at capacity — the caller must shed or wait.
    Full,
    /// The ring was closed (daemon shutting down).
    Closed,
}

/// Outcome of a timed [`BoundedRing::pop_many`].
#[derive(Debug)]
pub enum Popped<T> {
    /// Items were dequeued, in ring order.
    Items(Vec<T>),
    /// Nothing arrived within the timeout; the ring is still open.
    TimedOut,
    /// The ring is closed *and* fully drained — the worker may exit.
    Drained,
}

/// Outcome of a timed [`BoundedRing::pop_into`]: [`Popped`] with the
/// items in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// At least one item was appended to the buffer.
    Items,
    /// Nothing arrived within the timeout; the ring is still open.
    TimedOut,
    /// The ring is closed *and* fully drained — the worker may exit.
    Drained,
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    peak_depth: usize,
    /// Threads inside `not_empty.wait_timeout` (the consumer, normally).
    consumers_parked: usize,
    /// Threads inside `not_full.wait_timeout`.
    producers_waiting: usize,
}

/// Bounded multi-producer single-consumer queue with close/drain
/// semantics. `capacity` is a hard bound: pushes beyond it fail with
/// [`PushError::Full`] (or block, for the backpressure variant) rather
/// than allocate.
pub struct BoundedRing<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedRing<T> {
    /// Ring holding at most `capacity` queued items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedRing: capacity must be >= 1");
        BoundedRing {
            capacity,
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity.min(1 << 16)),
                closed: false,
                peak_depth: 0,
                consumers_parked: 0,
                producers_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Hard bound this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to enqueue without blocking; sheds with [`PushError::Full`] at
    /// capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_within(item, self.capacity)
            .map_err(|(_, e)| e)
    }

    /// Try to enqueue only while the current depth is below `limit`
    /// (clamped to `capacity`). On refusal reports the depth observed
    /// under the lock alongside the error, so an admission controller can
    /// attribute the refusal to the exact bound that was hit (class
    /// watermark vs per-request deadline) with no race between the depth
    /// read and the refusal — both happen under one lock acquisition.
    pub fn try_push_within(&self, item: T, limit: usize) -> Result<(), (usize, PushError)> {
        let bound = limit.min(self.capacity);
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err((g.queue.len(), PushError::Closed));
        }
        if g.queue.len() >= bound {
            return Err((g.queue.len(), PushError::Full));
        }
        g.queue.push_back(item);
        self.wake_consumer(g);
        Ok(())
    }

    /// Batched submit: move items from the front of `batch` into the ring
    /// while the depth stays below `limit` (clamped to `capacity`), under
    /// a **single** lock acquisition — the per-request daemon feed pays
    /// one lock round-trip per request; a chunked feeder pays one per
    /// batch. Returns the number enqueued (possibly 0 on a full ring);
    /// refused items stay in `batch` in order, so the caller's
    /// per-request fallback path keeps exact per-cause accounting.
    /// [`PushError::Closed`] leaves the whole batch with the caller.
    pub fn push_many(&self, batch: &mut VecDeque<T>, limit: usize) -> Result<usize, PushError> {
        if batch.is_empty() {
            return Ok(0);
        }
        let bound = limit.min(self.capacity);
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err(PushError::Closed);
        }
        let room = bound.saturating_sub(g.queue.len());
        let take = room.min(batch.len());
        if take == 0 {
            return Ok(0);
        }
        g.queue.extend(batch.drain(..take));
        self.wake_consumer(g);
        Ok(take)
    }

    /// Enqueue with backpressure: block while the ring is full, up to
    /// `timeout`. Returns [`PushError::Full`] only if the timeout expires
    /// with the ring still at capacity (a stuck consumer), or
    /// [`PushError::Closed`] if the ring closes while waiting.
    pub fn push_wait(&self, item: T, timeout: Duration) -> Result<(), PushError> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.closed {
                return Err(PushError::Closed);
            }
            if g.queue.len() < self.capacity {
                g.queue.push_back(item);
                self.wake_consumer(g);
                return Ok(());
            }
            g.producers_waiting += 1;
            let (g2, res) = self.not_full.wait_timeout(g, timeout).unwrap();
            g = g2;
            g.producers_waiting -= 1;
            if res.timed_out() && g.queue.len() >= self.capacity {
                return Err(PushError::Full);
            }
        }
    }

    /// Dequeue up to `max` items, waiting up to `timeout` for the first,
    /// into a fresh `Vec`: [`BoundedRing::pop_into`] for callers that do
    /// not keep a buffer.
    pub fn pop_many(&self, max: usize, timeout: Duration) -> Popped<T> {
        let mut items = Vec::new();
        match self.pop_into(&mut items, max, timeout) {
            Pop::Items => Popped::Items(items),
            Pop::TimedOut => Popped::TimedOut,
            Pop::Drained => Popped::Drained,
        }
    }

    /// Dequeue up to `max` items, waiting up to `timeout` for the first,
    /// and append them to `buf` in ring order. One lock acquisition
    /// serves the whole batch; a `buf` with room for `max` items is never
    /// grown, so a consumer that clears and reuses it pops without
    /// allocating. Single consumer only.
    pub fn pop_into(&self, buf: &mut Vec<T>, max: usize, timeout: Duration) -> Pop {
        let mut g = self.inner.lock().unwrap();
        loop {
            if !g.queue.is_empty() {
                let take = g.queue.len().min(max.max(1));
                buf.extend(g.queue.drain(..take));
                let wake = g.producers_waiting > 0;
                drop(g);
                if wake {
                    self.not_full.notify_all();
                }
                return Pop::Items;
            }
            if g.closed {
                return Pop::Drained;
            }
            g.consumers_parked += 1;
            let (g2, res) = self.not_empty.wait_timeout(g, timeout).unwrap();
            g = g2;
            g.consumers_parked -= 1;
            if res.timed_out() && g.queue.is_empty() {
                return if g.closed {
                    Pop::Drained
                } else {
                    Pop::TimedOut
                };
            }
        }
    }

    /// Put items back at the *front* of the ring, preserving their order.
    /// Used by a crashing worker to return the unprocessed tail of its
    /// popped batch, so the replacement worker sees the exact original
    /// stream (minus only the request that panicked). May transiently
    /// exceed `capacity` — the items were already admitted once, so
    /// re-queueing them must not shed.
    pub fn unpop(&self, items: &[T])
    where
        T: Clone,
    {
        if items.is_empty() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        for item in items.iter().rev() {
            g.queue.push_front(item.clone());
        }
        self.wake_consumer(g);
    }

    /// After an enqueue under `g`: record the depth, release the lock,
    /// and wake the consumer if (and only if) it is parked.
    fn wake_consumer(&self, mut g: MutexGuard<'_, Inner<T>>) {
        g.peak_depth = g.peak_depth.max(g.queue.len());
        let parked = g.consumers_parked > 0;
        drop(g);
        if parked {
            self.not_empty.notify_one();
        }
    }

    /// Close the ring: further pushes fail, pops drain what remains and
    /// then report [`Popped::Drained`]. Wakes all waiters.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest depth ever observed (updated under the push lock).
    pub fn peak_depth(&self) -> usize {
        self.inner.lock().unwrap().peak_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_at_capacity_and_tracks_peak() {
        let ring: BoundedRing<u32> = BoundedRing::new(4);
        for i in 0..4 {
            assert_eq!(ring.try_push(i), Ok(()));
        }
        assert_eq!(ring.try_push(99), Err(PushError::Full));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.peak_depth(), 4);
        match ring.pop_many(64, Duration::from_millis(1)) {
            Popped::Items(items) => assert_eq!(items, vec![0, 1, 2, 3]),
            other => panic!("expected items, got {other:?}"),
        }
        // Peak is a high-water mark: draining does not lower it.
        assert_eq!(ring.peak_depth(), 4);
        assert_eq!(ring.try_push(5), Ok(()));
    }

    #[test]
    fn push_within_enforces_limit_and_reports_depth() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        for i in 0..3 {
            assert_eq!(ring.try_push_within(i, 3), Ok(()));
        }
        // Refused at the limit with the exact depth observed.
        assert_eq!(ring.try_push_within(9, 3), Err((3, PushError::Full)));
        // A looser limit still admits (the ring itself has room).
        assert_eq!(ring.try_push_within(4, 8), Ok(()));
        // Limits beyond capacity clamp to capacity.
        for i in 0..4 {
            assert_eq!(ring.try_push_within(i, usize::MAX), Ok(()));
        }
        assert_eq!(
            ring.try_push_within(99, usize::MAX),
            Err((8, PushError::Full))
        );
        ring.close();
        assert_eq!(ring.try_push_within(1, 3), Err((8, PushError::Closed)));
    }

    #[test]
    fn push_many_fills_to_limit_and_leaves_the_rest() {
        let ring: BoundedRing<u32> = BoundedRing::new(4);
        let mut batch: VecDeque<u32> = (0..6).collect();
        // Class limit below capacity: only 3 admitted.
        assert_eq!(ring.push_many(&mut batch, 3), Ok(3));
        assert_eq!(batch, VecDeque::from(vec![3, 4, 5]));
        // Ring has one slot left under its hard capacity.
        assert_eq!(ring.push_many(&mut batch, usize::MAX), Ok(1));
        assert_eq!(batch, VecDeque::from(vec![4, 5]));
        // Full: nothing admitted, nothing lost.
        assert_eq!(ring.push_many(&mut batch, usize::MAX), Ok(0));
        assert_eq!(batch.len(), 2);
        assert_eq!(ring.peak_depth(), 4);
        match ring.pop_many(8, Duration::from_millis(1)) {
            Popped::Items(items) => assert_eq!(items, vec![0, 1, 2, 3]),
            other => panic!("expected items, got {other:?}"),
        }
        ring.close();
        assert_eq!(
            ring.push_many(&mut batch, usize::MAX),
            Err(PushError::Closed)
        );
        assert_eq!(batch.len(), 2, "closed ring leaves the batch intact");
    }

    #[test]
    fn close_drains_then_reports_drained() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        ring.try_push(1).unwrap();
        ring.try_push(2).unwrap();
        ring.close();
        assert_eq!(ring.try_push(3), Err(PushError::Closed));
        match ring.pop_many(1, Duration::from_millis(1)) {
            Popped::Items(items) => assert_eq!(items, vec![1]),
            other => panic!("expected items, got {other:?}"),
        }
        match ring.pop_many(8, Duration::from_millis(1)) {
            Popped::Items(items) => assert_eq!(items, vec![2]),
            other => panic!("expected items, got {other:?}"),
        }
        assert!(matches!(
            ring.pop_many(8, Duration::from_millis(1)),
            Popped::Drained
        ));
    }

    #[test]
    fn unpop_restores_front_order() {
        let ring: BoundedRing<u32> = BoundedRing::new(8);
        ring.try_push(4).unwrap();
        ring.unpop(&[1, 2, 3]);
        match ring.pop_many(8, Duration::from_millis(1)) {
            Popped::Items(items) => assert_eq!(items, vec![1, 2, 3, 4]),
            other => panic!("expected items, got {other:?}"),
        }
    }

    #[test]
    fn push_wait_blocks_until_space() {
        use std::sync::Arc;
        let ring: Arc<BoundedRing<u32>> = Arc::new(BoundedRing::new(1));
        ring.try_push(0).unwrap();
        let r2 = Arc::clone(&ring);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            match r2.pop_many(1, Duration::from_millis(100)) {
                Popped::Items(items) => assert_eq!(items, vec![0]),
                other => panic!("expected items, got {other:?}"),
            }
        });
        // Blocks until the consumer drains, then succeeds.
        assert_eq!(ring.push_wait(1, Duration::from_secs(5)), Ok(()));
        consumer.join().unwrap();
        assert_eq!(ring.len(), 1);
    }

    /// Long enough that a lost wakeup cannot pass for a timely one.
    const LONG: Duration = Duration::from_secs(20);

    /// Spin until `registered` holds of the state under the lock. A
    /// waiter registers under the lock it then sleeps on, so seeing the
    /// registration means the waiter is inside `wait_timeout`.
    fn wait_until(ring: &BoundedRing<u32>, registered: impl Fn(&Inner<u32>) -> bool) {
        while !registered(&ring.inner.lock().unwrap()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_consumer_is_woken_by_every_enqueue_and_by_close() {
        type Waker = fn(&BoundedRing<u32>);
        let wakers: [(&str, Waker); 5] = [
            ("try_push_within", |r| r.try_push_within(7, 4).unwrap()),
            ("push_many", |r| {
                assert_eq!(r.push_many(&mut VecDeque::from(vec![7]), 4), Ok(1))
            }),
            ("push_wait", |r| r.push_wait(7, LONG).unwrap()),
            ("unpop", |r| r.unpop(&[7])),
            ("close", |r| r.close()),
        ];
        for (name, wake) in wakers {
            let ring: BoundedRing<u32> = BoundedRing::new(4);
            let (popped, waited) = std::thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let start = std::time::Instant::now();
                    (ring.pop_many(8, LONG), start.elapsed())
                });
                wait_until(&ring, |g| g.consumers_parked == 1);
                wake(&ring);
                consumer.join().unwrap()
            });
            match popped {
                Popped::Items(items) if name != "close" => assert_eq!(items, vec![7], "{name}"),
                Popped::Drained if name == "close" => {}
                other => panic!("{name}: unexpected {other:?}"),
            }
            assert!(waited < LONG / 2, "{name}: consumer slept {waited:?}");
            assert_eq!(ring.inner.lock().unwrap().consumers_parked, 0, "{name}");
        }
    }

    #[test]
    fn blocked_producer_is_woken_by_pop() {
        let ring: BoundedRing<u32> = BoundedRing::new(1);
        ring.try_push(0).unwrap();
        let (pushed, waited) = std::thread::scope(|s| {
            let producer = s.spawn(|| {
                let start = std::time::Instant::now();
                (ring.push_wait(1, LONG), start.elapsed())
            });
            wait_until(&ring, |g| g.producers_waiting == 1);
            match ring.pop_many(1, LONG) {
                Popped::Items(items) => assert_eq!(items, vec![0]),
                other => panic!("expected items, got {other:?}"),
            }
            producer.join().unwrap()
        });
        assert_eq!(pushed, Ok(()));
        assert!(waited < LONG / 2, "producer slept {waited:?}");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.inner.lock().unwrap().producers_waiting, 0);
    }

    #[test]
    fn push_wait_times_out_on_stuck_consumer() {
        let ring: BoundedRing<u32> = BoundedRing::new(1);
        ring.try_push(0).unwrap();
        assert_eq!(
            ring.push_wait(1, Duration::from_millis(10)),
            Err(PushError::Full)
        );
    }
}
