//! The steady-state shard worker allocates nothing: once a hot set that
//! fits the cache is resident, popping, serving, publishing and idling
//! through further batches takes no heap allocation on the worker's
//! thread. A counting global allocator attributes every allocation to
//! the thread that made it; the policy factory marks the worker's thread
//! (it runs there at every incarnation start).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cdn_cache::{CachePolicy, Request};
use cdn_policies::replacement::Lru;
use cdnd::{Daemon, DaemonConfig};

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Allocations (and reallocations) made on a marked worker thread.
static WORKER_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

impl Counting {
    fn note(&self) {
        if IS_WORKER.try_with(Cell::get).unwrap_or(false) {
            WORKER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with its caller's arguments
// unchanged, so `Counting` upholds exactly the contract `System` does;
// the only extra work, `note`, neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `GlobalAlloc::alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from this allocator, hence from `System`; the
        // caller's `GlobalAlloc::realloc` contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`; the
        // caller's `GlobalAlloc::dealloc` contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const HOT: u64 = 500;
const WARMUP_BATCHES: u64 = 32;
const MEASURED_BATCHES: u64 = 400;
const QUIESCE: Duration = Duration::from_secs(30);

#[test]
fn steady_state_worker_allocates_nothing() {
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: 1 << 20,
        ..DaemonConfig::default()
    };
    let batch = cfg.worker_batch as u64;
    let factory = Arc::new(|_shard: usize, capacity: u64| -> Box<dyn CachePolicy> {
        IS_WORKER.with(|w| w.set(true));
        Box::new(Lru::new(capacity))
    });
    // Every batch is built before the daemon starts, so feeding one is
    // a ring-lock round-trip and nothing else.
    let mut batches: Vec<VecDeque<Request>> = (0..WARMUP_BATCHES + MEASURED_BATCHES)
        .map(|b| {
            (0..batch)
                .map(|i| Request::new(0, (b * batch + i) % HOT, 100 + (b * batch + i) % HOT))
                .collect()
        })
        .collect();
    let daemon = Daemon::spawn(cfg, factory).unwrap();
    let feed = |batches: &mut [VecDeque<Request>]| {
        for run in batches {
            while !run.is_empty() {
                daemon
                    .submit_batch(0, run, Some(Duration::from_secs(5)))
                    .unwrap();
            }
        }
        assert!(daemon.await_quiesced(0, QUIESCE));
    };
    let (warmup, measured) = batches.split_at_mut(WARMUP_BATCHES as usize);
    // The warm-up pass inserts the whole hot set: the index and the list
    // reach their steady size, and the worker's pop buffer exists.
    feed(warmup);
    let before = WORKER_ALLOCS.load(Ordering::Relaxed);
    let hits_before = daemon.stats().shards[0].hits;
    feed(measured);
    let allocs = WORKER_ALLOCS.load(Ordering::Relaxed) - before;
    let stats = daemon.shutdown();
    let s = &stats.shards[0];
    assert!(
        before > 0,
        "the factory must have marked the worker's thread"
    );
    assert_eq!(
        s.hits - hits_before,
        MEASURED_BATCHES * batch,
        "every measured request is a hit on the resident hot set"
    );
    assert_eq!(
        allocs, 0,
        "the worker allocated {allocs} times over {MEASURED_BATCHES} steady-state batches"
    );
}
