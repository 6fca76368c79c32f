//! The self-supervising, sharded daemon core.
//!
//! N single-threaded shard workers — one [`CachePolicy`] instance each,
//! key-partitioned with the workspace-wide [`cdn_cache::key_shard`]
//! mapping — are fed by bounded MPSC rings. There is no supervisor
//! thread: each worker owns its shard's restart state machine, so
//! `Daemon::spawn` starts exactly N threads. The robustness contract, in
//! order of importance:
//!
//! - **Crash isolation**: a panicking worker (its own bug, or the
//!   `cdnd.shard_worker` failpoint) is caught per request. Its cache is
//!   declared lost (the policy instance drops with the incarnation), the
//!   unprocessed tail of its popped batch is returned to the ring, and
//!   every other shard keeps serving untouched. Only the single request
//!   that panicked is lost, and it is counted (`lost`), never silent; a
//!   panic outside a request (factory, snapshot export or restore) is
//!   the same counted crash with nothing lost.
//! - **Self-supervised recovery**: the crashed worker waits out a bounded
//!   exponential backoff and starts its next incarnation; a restart
//!   storm (more than `storm_threshold` restarts inside
//!   `storm_window_ms`) trips a breaker to Storm-Open — the shard stays
//!   down, cheap and observable, until an operator
//!   [`Daemon::reset_shard`]. State machine: Closed → (crash) → Backoff →
//!   (restart, warm restore) → Closed, or → Storm-Open (DESIGN.md §16):
//!   `Closed` ⇒ that incarnation's `restored_*` counters are final.
//! - **Failover routing** (off by default, [`crate::RouteConfig`]): when a
//!   key's primary shard is down, the submit path re-routes it to its
//!   rendezvous-ordered live secondary ([`crate::route`]) where it is
//!   served cold as an overlay miss — degraded, never dark. The decision
//!   is pure in `(key, down-set)`, so the routing-aware serial reference
//!   (`cdn_sim::run_routed_serial`) replays it exactly and failover
//!   ledgers stay u64-reconcilable.
//! - **Admission, not blind shedding**: rings are bounded and guarded by
//!   a class-watermark admission controller ([`crate::Admit`],
//!   [`Priority::depth_limit`]): brownout sheds `Low` before `Normal` before
//!   `High`, per-request deadlines refuse at the request's own depth
//!   bound, and every refusal lands under exactly one counted cause
//!   ([`SubmitError`]). Queue memory stays
//!   `shards × queue_capacity × sizeof(Request)`, a constant.
//! - **Graceful drain**: [`Daemon::shutdown`] stops intake, lets every
//!   live worker finish all queued requests, then joins all threads.
//!
//! Ledger exactness: each worker assigns local ticks `0, 1, 2, …` to the
//! requests it processes and splits capacity exactly like
//! `cdn_sim::run_sharded_serial`, so a shard that never crashed produces
//! hit/miss/byte ledgers equal u64-for-u64 to the library's serial
//! sharded replay of the same stream (property-tested in
//! `tests/supervision_check.rs`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdn_cache::fault::{self, FaultAction};
use cdn_cache::{
    key_shard, route_with_failover, AccessKind, CachePolicy, Request, ResidentEntry, Tick,
};
use cdn_sim::sweep::isolate;
use cdn_sim::AUTO_PREFETCH_DIST;

use crate::config::{DaemonConfig, DaemonConfigError, SnapshotConfig};
use crate::ring::{BoundedRing, Pop, PushError};
use crate::route::{route_fault_key, Admit, Priority, FP_ROUTE};
use crate::snapshot::{self, SnapshotData};

/// Failpoint site evaluated once per request inside a shard worker, keyed
/// by [`worker_fault_key`]. Arm it with [`cdn_cache::fault::FaultRule`]
/// `Panic` actions to kill a shard at an exact point in its stream.
pub const FP_SHARD_WORKER: &str = "cdnd.shard_worker";
/// Failpoint site evaluated on every submit, keyed by the object id. An
/// armed `Error` action makes the submit fail with
/// [`SubmitError::Faulted`] (a client-visible transport fault); other
/// actions are ignored at this site.
pub const FP_ENQUEUE: &str = "cdnd.enqueue";

/// Failpoint key for [`FP_SHARD_WORKER`]: shard id in the top 16 bits,
/// the shard-local tick (request ordinal) in the low 48.
pub fn worker_fault_key(shard: usize, tick: Tick) -> u64 {
    ((shard as u64) << 48) | (tick & 0x0000_FFFF_FFFF_FFFF)
}

/// Why a submit was refused, by cause. Every variant is counted per
/// shard in [`ShardSnapshot`] (`Shed` further split by priority class),
/// so client-side tallies and daemon counters reconcile exactly — each
/// refused request lands under exactly one cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The routed shard's queue reached the request's class watermark
    /// (brownout) or the hard ring capacity — load was shed.
    Shed,
    /// No shard can serve this key: its primary is in Backoff or
    /// Storm-Open and either failover routing is disabled or every
    /// failover candidate is down too.
    Down,
    /// The routed shard's queue depth reached the request's own
    /// [`Admit::deadline_depth`] bound before its class watermark.
    Deadline,
    /// The `cdnd.enqueue` failpoint injected a transport fault.
    Faulted,
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed => write!(f, "shed (class watermark or queue full)"),
            SubmitError::Down => write!(f, "down (no live shard for key)"),
            SubmitError::Deadline => write!(f, "deadline (queue deeper than request tolerates)"),
            SubmitError::Faulted => write!(f, "injected enqueue fault"),
            SubmitError::ShuttingDown => write!(f, "daemon shutting down"),
        }
    }
}

/// Successful submit: where the request landed and whether the router
/// diverted it from its primary (served as an overlay miss on a
/// rendezvous secondary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accepted {
    /// Shard whose ring accepted the request.
    pub shard: usize,
    /// True when `shard` is not the key's primary (failover overlay).
    pub failover: bool,
}

/// Supervision state of one shard (the breaker states of DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Worker alive and serving (breaker closed).
    Closed,
    /// Worker crashed; a restart is pending after exponential backoff.
    Backoff,
    /// Restart storm detected; the shard stays down until
    /// [`Daemon::reset_shard`].
    StormOpen,
}

/// Builds a fresh policy for `(shard, per_shard_capacity)`. Called on the
/// worker's own thread at every (re)start, so the policy value never
/// crosses threads and need not be `Send`. Must be pure enough to call
/// repeatedly: restarts build replacement instances from scratch.
pub type PolicyFactory = Arc<dyn Fn(usize, u64) -> Box<dyn CachePolicy> + Send + Sync>;

fn residency(policy: &dyn CachePolicy) -> (usize, u64) {
    let stats = policy.stats();
    (stats.resident_objects, stats.resident_bytes)
}

/// Read-only export of the resident set (hottest-first), or `None` when
/// the policy does not support the seam — that shard snapshots nothing
/// and restarts cold.
fn export_resident(policy: &dyn CachePolicy) -> Option<Vec<ResidentEntry>> {
    let mut out = Vec::new();
    if policy.for_each_resident(&mut |e| out.push(*e)) {
        Some(out)
    } else {
        None
    }
}

/// Rebuild residency (and learned parameters, when present) from a
/// recovered snapshot. Returns false when the policy rejects the
/// resident-set restore (cold start).
fn restore_from(policy: &mut dyn CachePolicy, data: &SnapshotData) -> bool {
    if !policy.restore_resident(&data.entries) {
        return false;
    }
    if let Some(block) = &data.learned {
        // A stale/foreign learned block is skipped, not fatal: the
        // resident set alone is most of the warmth.
        let _ = policy.restore_learned(block);
    }
    true
}

/// No critical section in this module runs code that can panic, so a
/// poisoned lock is a bug, not a state to serve through.
const POISONED: &str = "cdnd lock poisoned: a holder panicked inside a critical section";

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(POISONED)
}

/// What a shard's worker and the admin plane agree on under one lock.
struct Supervision {
    state: ShardState,
    /// Operator resets so far ([`Daemon::reset_shard`]). A worker that sees
    /// the count move forgets its restart history and, if it is waiting in
    /// Backoff or Storm-Open, restarts at once.
    resets: u64,
}

/// A zero-sized field that starts the next field of a `#[repr(C)]`
/// struct on a fresh cache line.
#[repr(align(64))]
struct LineBreak;

/// Everything about one shard that outlives its worker incarnations.
///
/// Laid out in declaration order, one cache-line group per writer: the
/// ring (producers and worker, under its lock), the control block, the
/// producers' intake counters and the worker's ledger. A producer's
/// `enqueued` increment and the worker's once-per-batch ledger
/// publication ([`ShardShared::publish`]) never land on one line,
/// whatever offset the allocator hands the struct.
#[repr(C)]
struct ShardShared {
    id: usize,
    ring: BoundedRing<Request>,
    _control: LineBreak,
    sup: Mutex<Supervision>,
    /// Wakes a worker waiting in Backoff or Storm-Open (reset, shutdown).
    wake: Condvar,
    paused: AtomicBool,
    /// Set by [`Daemon::snapshot_shard`], cleared by the worker when it
    /// takes the request up: requests made before it looks coalesce.
    snapshot_requested: AtomicBool,
    // Intake counters (written by producers under submit).
    _intake: LineBreak,
    enqueued: AtomicU64,
    failover_in: AtomicU64,
    shed_low: AtomicU64,
    shed_normal: AtomicU64,
    shed_high: AtomicU64,
    rejected_down: AtomicU64,
    rejected_deadline: AtomicU64,
    faulted_enqueues: AtomicU64,
    // Serving ledger (written by the worker, once per batch; `processed`
    // and `lost` are the release points for the rest).
    _ledger: LineBreak,
    processed: AtomicU64,
    lost: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_bytes: AtomicU64,
    miss_bytes: AtomicU64,
    /// Next shard-local tick (attempt ordinal; survives restarts).
    ticks: AtomicU64,
    crashes: AtomicU64,
    restarts: AtomicU64,
    dropped_at_shutdown: AtomicU64,
    resident_objects: AtomicUsize,
    resident_bytes: AtomicU64,
    // Warm-restart bookkeeping (written by the worker).
    snapshots_written: AtomicU64,
    restored_objects: AtomicU64,
    restored_bytes: AtomicU64,
    epochs_discarded: AtomicU64,
    /// Next snapshot epoch to commit (monotonic across incarnations).
    snap_epoch: AtomicU64,
}

impl ShardShared {
    fn new(id: usize, queue_capacity: usize) -> Self {
        ShardShared {
            id,
            ring: BoundedRing::new(queue_capacity),
            _control: LineBreak,
            sup: Mutex::new(Supervision {
                state: ShardState::Closed,
                resets: 0,
            }),
            wake: Condvar::new(),
            paused: AtomicBool::new(false),
            snapshot_requested: AtomicBool::new(false),
            _intake: LineBreak,
            enqueued: AtomicU64::new(0),
            failover_in: AtomicU64::new(0),
            shed_low: AtomicU64::new(0),
            shed_normal: AtomicU64::new(0),
            shed_high: AtomicU64::new(0),
            rejected_down: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            faulted_enqueues: AtomicU64::new(0),
            _ledger: LineBreak,
            processed: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_bytes: AtomicU64::new(0),
            miss_bytes: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            dropped_at_shutdown: AtomicU64::new(0),
            resident_objects: AtomicUsize::new(0),
            resident_bytes: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            restored_objects: AtomicU64::new(0),
            restored_bytes: AtomicU64::new(0),
            epochs_discarded: AtomicU64::new(0),
            snap_epoch: AtomicU64::new(1),
        }
    }

    fn state(&self) -> ShardState {
        locked(&self.sup).state
    }

    fn set_state(&self, s: ShardState) {
        locked(&self.sup).state = s;
    }

    fn publish_residency(&self, policy: &dyn CachePolicy) {
        let (objects, bytes) = residency(policy);
        self.resident_objects.store(objects, Ordering::Relaxed);
        self.resident_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Publish one batch's ledger and the next tick: at most five shared
    /// RMWs per batch, `processed` last and with `Release`, so a reader
    /// that acquires `processed` (or `lost`, bumped after it on a crash)
    /// sees the hits, misses and bytes of every request it counts.
    fn publish(&self, batch: &BatchLedger, next_tick: Tick) {
        self.ticks.store(next_tick, Ordering::Relaxed);
        self.hits.fetch_add(batch.hits, Ordering::Relaxed);
        self.misses.fetch_add(batch.misses, Ordering::Relaxed);
        self.hit_bytes.fetch_add(batch.hit_bytes, Ordering::Relaxed);
        self.miss_bytes
            .fetch_add(batch.miss_bytes, Ordering::Relaxed);
        self.processed.fetch_add(batch.processed, Ordering::Release);
    }

    fn shed_counter(&self, class: Priority) -> &AtomicU64 {
        match class {
            Priority::Low => &self.shed_low,
            Priority::Normal => &self.shed_normal,
            Priority::High => &self.shed_high,
        }
    }
}

/// One batch's serving ledger, kept in the worker's locals until
/// [`ShardShared::publish`].
#[derive(Default)]
struct BatchLedger {
    processed: u64,
    hits: u64,
    misses: u64,
    hit_bytes: u64,
    miss_bytes: u64,
}

impl BatchLedger {
    fn record(&mut self, kind: AccessKind, size: u64) {
        self.processed += 1;
        if kind.is_hit() {
            self.hits += 1;
            self.hit_bytes += size;
        } else {
            self.misses += 1;
            self.miss_bytes += size;
        }
    }
}

/// Point-in-time counters for one shard. Consistency (once the daemon is
/// quiescent or shut down): `enqueued == processed + lost +
/// dropped_at_shutdown + depth`, `hits + misses == processed`, and
/// client-side tallies of submit outcomes equal `enqueued` / `shed` /
/// `rejected_down` / `rejected_deadline` / `faulted_enqueues` exactly —
/// every submitted request reconciles to exactly one counter cause.
/// While a shard serves, its worker publishes the serving ledger
/// (`processed`, `hits`, `misses`, `*_bytes`) once per batch, so those
/// fields trail the worker by at most `worker_batch` requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Supervision state at snapshot time.
    pub state: ShardState,
    /// Requests currently queued.
    pub depth: usize,
    /// High-water queue depth (exact, tracked under the ring lock).
    pub peak_depth: usize,
    /// Ring capacity (the shed bound).
    pub queue_capacity: usize,
    /// Requests accepted into the ring.
    pub enqueued: u64,
    /// Requests fully served by the policy, published once per batch;
    /// the ledger fields below cover at least these requests.
    pub processed: u64,
    /// Requests lost to a worker crash (the panicking request itself),
    /// counted after the crashed batch's served prefix is published.
    pub lost: u64,
    /// Requests shed with [`SubmitError::Shed`], all classes
    /// (`shed_low + shed_normal + shed_high`).
    pub shed: u64,
    /// `Low`-class requests shed at the brownout watermark.
    pub shed_low: u64,
    /// `Normal`-class requests shed at the brownout watermark.
    pub shed_normal: u64,
    /// `High`-class requests shed at the hard ring capacity.
    pub shed_high: u64,
    /// Requests rejected with [`SubmitError::Down`].
    pub rejected_down: u64,
    /// Requests refused with [`SubmitError::Deadline`] (queue deeper
    /// than the request's own bound, below its class watermark).
    pub rejected_deadline: u64,
    /// Requests failed by the `cdnd.enqueue` failpoint.
    pub faulted_enqueues: u64,
    /// Requests this shard accepted as failover overlay (their primary
    /// was down; served here cold).
    pub failover_in: u64,
    /// Cache hits (ledger, comparable to `RunMeasurement::hits`). Like
    /// `misses` and the byte counts, published per batch just before
    /// `processed`: mid-run it may include a batch `processed` does not
    /// count yet, never the reverse.
    pub hits: u64,
    /// Cache misses, rejections included.
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes missed to origin.
    pub miss_bytes: u64,
    /// Worker panics caught.
    pub crashes: u64,
    /// Worker restarts: after a backoff, or on an operator reset.
    pub restarts: u64,
    /// Requests still queued on a dead shard when the daemon shut down.
    pub dropped_at_shutdown: u64,
    /// Objects resident after the last processed batch.
    pub resident_objects: usize,
    /// Bytes resident after the last processed batch.
    pub resident_bytes: u64,
    /// Snapshot epochs committed by this shard's workers.
    pub snapshots_written: u64,
    /// Objects re-inserted from snapshots across all warm restarts.
    pub restored_objects: u64,
    /// Bytes re-inserted from snapshots across all warm restarts.
    pub restored_bytes: u64,
    /// Snapshot epochs found on disk but rejected by validation during
    /// recovery (each one is a descended fallback-ladder rung).
    pub epochs_discarded: u64,
}

/// Snapshot of every shard.
#[derive(Debug, Clone)]
pub struct DaemonStats {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl DaemonStats {
    /// Sum of `f` across shards.
    fn sum(&self, f: impl Fn(&ShardSnapshot) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Total requests served.
    pub fn total_processed(&self) -> u64 {
        self.sum(|s| s.processed)
    }

    /// Total requests served as failover overlay (accepted on a
    /// rendezvous secondary while their primary was down).
    pub fn total_failover(&self) -> u64 {
        self.sum(|s| s.failover_in)
    }

    /// Total requests lost to crashes.
    pub fn total_lost(&self) -> u64 {
        self.sum(|s| s.lost)
    }

    /// Total worker restarts.
    pub fn total_restarts(&self) -> u64 {
        self.sum(|s| s.restarts)
    }
}

/// How long a worker waits on an empty ring before re-checking control
/// state (pause flags, drain). Pure liveness knob; correctness never
/// depends on it.
const POP_TIMEOUT: Duration = Duration::from_millis(1);

/// Export the shard's resident set and commit one snapshot epoch.
/// Returns true when a file was committed. Never perturbs policy state:
/// the export seam is `&self` and a policy without the seam (or a write
/// failure) simply leaves the previous epoch set in place.
fn take_snapshot(shared: &ShardShared, policy: &dyn CachePolicy, snap: &SnapshotConfig) -> bool {
    let Some(dir) = snap.dir.as_ref().filter(|_| snap.enabled()) else {
        return false;
    };
    let Some(entries) = export_resident(policy) else {
        return false;
    };
    let learned = policy.export_learned();
    // Only this shard's worker numbers epochs. `u64::MAX` is never
    // committed: `snapshot::list_epochs` treats it as foreign, and the
    // numbering would wrap below every epoch already on disk.
    let epoch = shared.snap_epoch.load(Ordering::Relaxed);
    if epoch == u64::MAX {
        return false;
    }
    shared.snap_epoch.store(epoch + 1, Ordering::Relaxed);
    let data = SnapshotData {
        shard: shared.id as u32,
        epoch,
        entries,
        learned,
    };
    match snapshot::write_epoch(dir, &data) {
        Ok(_) => {
            shared.snapshots_written.fetch_add(1, Ordering::Relaxed);
            snapshot::prune(dir, shared.id as u32, snap.keep);
            true
        }
        Err(_) => false,
    }
}

/// Walk the epoch ladder and restore the newest readable snapshot into a
/// freshly built policy. Every discarded rung is counted; any failure —
/// missing dir, all epochs corrupt, policy rejects the restore, or a
/// panic inside the restore itself — degrades to a cold start.
fn restore_warm(shared: &ShardShared, policy: &mut dyn CachePolicy, snap: &SnapshotConfig) {
    let Some(dir) = snap.dir.as_ref().filter(|_| snap.enabled()) else {
        return;
    };
    let outcome = snapshot::recover(dir, shared.id as u32);
    shared
        .epochs_discarded
        .fetch_add(outcome.epochs_discarded, Ordering::Relaxed);
    // Future epochs must outnumber everything ever seen on disk, valid or
    // corrupt, so a discarded-but-newer file can never shadow them. The
    // add cannot overflow: `list_epochs` never reports `u64::MAX`.
    shared
        .snap_epoch
        .fetch_max(outcome.latest_epoch_seen + 1, Ordering::Relaxed);
    let Some(data) = outcome.data else { return };
    let restored = catch_unwind(AssertUnwindSafe(|| restore_from(policy, &data)));
    if let Ok(true) = restored {
        let (objects, bytes) = residency(policy);
        shared
            .restored_objects
            .fetch_add(objects as u64, Ordering::Relaxed);
        shared.restored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Serve one popped batch through `policy`. Ticks, hits, misses and bytes
/// are counted in locals and published once, at the end, so the loop
/// itself writes no shared cache line. Each request runs isolated, and
/// its closure first hints the id [`AUTO_PREFETCH_DIST`] ahead (request 0
/// also hints the first [`AUTO_PREFETCH_DIST`] ids), the index-probe
/// pipeline of the library's replay loop: every popped request is hinted
/// once, and a hint that panics costs its request, not the batch.
///
/// On a panic, in this order: the served prefix is published (the lost
/// request's tick included, so the next incarnation starts after it),
/// the request is counted `lost`, and the unserved rest goes back to the
/// front of the ring in order. Whoever sees `lost` move sees the prefix.
fn serve_batch(shared: &ShardShared, policy: &mut dyn CachePolicy, batch: &[Request]) {
    // Once per batch, not per request: whoever arms the kill site does so
    // before pushing the request it is aimed at, and the ring mutex orders
    // that before this pop.
    let kill_armed = fault::is_armed(FP_SHARD_WORKER);
    // Only this shard's worker writes `ticks`, and its incarnations run
    // one after another on one thread.
    let first_tick = shared.ticks.load(Ordering::Relaxed);
    let mut ledger = BatchLedger::default();
    let mut hinted = 0;
    for (i, req) in batch.iter().enumerate() {
        let tick = first_tick + i as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let ahead = (i + AUTO_PREFETCH_DIST + 1).min(batch.len());
            while hinted < ahead {
                policy.prefetch_hint(batch[hinted].id);
                hinted += 1;
            }
            if kill_armed {
                fault::maybe_panic(FP_SHARD_WORKER, worker_fault_key(shared.id, tick));
            }
            policy.on_request(&Request { tick, ..*req })
        }));
        match outcome {
            Ok(kind) => ledger.record(kind, req.size),
            Err(panic) => {
                // Crash isolation: the cache dies with this incarnation.
                shared.publish(&ledger, tick + 1);
                shared.lost.fetch_add(1, Ordering::Release);
                shared.ring.unpop(&batch[i + 1..]);
                resume_unwind(panic);
            }
        }
    }
    shared.publish(&ledger, first_tick + batch.len() as u64);
}

/// One shard's thread: it serves one incarnation of its policy after
/// another and supervises itself (crash count, backoff, breaker) between.
struct Worker {
    shared: Arc<ShardShared>,
    /// Set once, by [`Daemon::shutdown`] (or drop).
    shutting_down: Arc<AtomicBool>,
    factory: PolicyFactory,
    cfg: DaemonConfig,
    /// Operator resets already acted on.
    resets_seen: u64,
    /// When this worker restarted itself, inside the current storm window.
    history: Vec<Instant>,
}

impl Worker {
    fn run(mut self) {
        // A whole incarnation runs isolated, not only `on_request`: a panic
        // in the factory or a snapshot export or restore is a counted
        // crash too, with no request in flight and so none lost.
        while isolate(|| self.serve()).is_err() {
            self.shared.crashes.fetch_add(1, Ordering::Relaxed);
            self.shared.resident_objects.store(0, Ordering::Relaxed);
            self.shared.resident_bytes.store(0, Ordering::Relaxed);
            if !self.await_restart() {
                return;
            }
            self.shared.restarts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One incarnation: build the policy, restore it warm, publish
    /// `Closed`, then serve batches. Returns once the closed ring is
    /// drained; a crash leaves by unwinding.
    fn serve(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut policy = (self.factory)(shared.id, self.cfg.per_shard_capacity());
        // Warm restore happens before the first pop: the ring's queued
        // requests are served by a cache that already holds the snapshotted
        // resident set, in its snapshotted recency order. `Closed` is
        // published only after it, so whoever sees a restarted shard
        // `Closed` reads that incarnation's final `restored_*` counters.
        restore_warm(&shared, policy.as_mut(), &self.cfg.snap);
        shared.publish_residency(policy.as_ref());
        shared.set_state(ShardState::Closed);
        let mut since_snap: u64 = 0;
        // Every batch of this incarnation is popped into this one buffer.
        let mut batch: Vec<Request> = Vec::with_capacity(self.cfg.worker_batch);
        loop {
            if shared.snapshot_requested.swap(false, Ordering::Relaxed)
                && take_snapshot(&shared, policy.as_ref(), &self.cfg.snap)
            {
                since_snap = 0;
            }
            if shared.paused.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            batch.clear();
            match shared
                .ring
                .pop_into(&mut batch, self.cfg.worker_batch, POP_TIMEOUT)
            {
                Pop::Items => {
                    // A pause that raced the pop (the worker was already
                    // blocked inside `pop_into` when the flag went up) is
                    // honoured before any request is served: the batch goes
                    // back in order and the worker idles, so admission
                    // drills observe exact queue depths. The ring mutex
                    // orders the flag store before the popped push.
                    if shared.paused.load(Ordering::Acquire) {
                        shared.ring.unpop(&batch);
                        continue;
                    }
                    serve_batch(&shared, policy.as_mut(), &batch);
                    since_snap += batch.len() as u64;
                    shared.publish_residency(policy.as_ref());
                    // Cadence snapshots commit between batches, never inside
                    // one, so an epoch always captures a batch boundary.
                    if self.cfg.snap.enabled() && since_snap >= self.cfg.snap.interval {
                        take_snapshot(&shared, policy.as_ref(), &self.cfg.snap);
                        since_snap = 0;
                    }
                }
                Pop::TimedOut => continue,
                Pop::Drained => {
                    // Graceful drain: one final epoch so a subsequent process
                    // start (or the bench harness) can restore fully warm.
                    take_snapshot(&shared, policy.as_ref(), &self.cfg.snap);
                    shared.publish_residency(policy.as_ref());
                    return;
                }
            }
        }
    }

    /// The crashed half of the state machine: publish Backoff and wait out
    /// the exponential delay, or publish Storm-Open and wait for an
    /// operator. True when the next incarnation should start; false when
    /// the daemon is shutting down, and whatever is still queued is
    /// counted `dropped_at_shutdown`.
    fn await_restart(&mut self) -> bool {
        let restart = self.cfg.restart;
        let now = Instant::now();
        let window = Duration::from_millis(restart.storm_window_ms);
        let mut sup = locked(&self.shared.sup);
        if sup.resets != self.resets_seen {
            // Reset while this shard was up: only the history is forgotten.
            self.resets_seen = sup.resets;
            self.history.clear();
        }
        self.history.retain(|t| now.duration_since(*t) <= window);
        let in_window = self.history.len() as u32;
        // `None`: Storm-Open has no deadline, only a reset ends it.
        let due = if in_window >= restart.storm_threshold {
            sup.state = ShardState::StormOpen;
            None
        } else {
            sup.state = ShardState::Backoff;
            Some(now + restart.backoff_delay(in_window))
        };
        loop {
            if self.shutting_down.load(Ordering::Acquire) {
                return false;
            }
            if sup.resets != self.resets_seen {
                self.resets_seen = sup.resets;
                self.history.clear();
                return true;
            }
            sup = match due {
                None => self.shared.wake.wait(sup).expect(POISONED),
                Some(due) => {
                    let now = Instant::now();
                    if now >= due {
                        self.history.push(now);
                        return true;
                    }
                    self.shared
                        .wake
                        .wait_timeout(sup, due - now)
                        .expect(POISONED)
                        .0
                }
            };
        }
    }
}

/// The daemon: owns the shard rings and the worker threads. Submit from
/// any number of threads; call [`Daemon::shutdown`] to drain and collect
/// final stats.
pub struct Daemon {
    shards: Vec<Arc<ShardShared>>,
    workers: Vec<JoinHandle<()>>,
    shutting_down: Arc<AtomicBool>,
    route_failover: bool,
    /// Monotonic submit ordinal — the router's tick ([`FP_ROUTE`] key).
    route_seq: AtomicU64,
}

impl Daemon {
    /// Validate `cfg` and spawn one self-supervising worker per shard.
    pub fn spawn(cfg: DaemonConfig, factory: PolicyFactory) -> Result<Daemon, DaemonConfigError> {
        cfg.validate()?;
        let shards: Vec<Arc<ShardShared>> = (0..cfg.shards)
            .map(|id| Arc::new(ShardShared::new(id, cfg.queue_capacity)))
            .collect();
        let shutting_down = Arc::new(AtomicBool::new(false));
        let workers = shards
            .iter()
            .map(|shared| {
                let worker = Worker {
                    shared: Arc::clone(shared),
                    shutting_down: Arc::clone(&shutting_down),
                    factory: Arc::clone(&factory),
                    cfg: cfg.clone(),
                    resets_seen: 0,
                    history: Vec::new(),
                };
                std::thread::Builder::new()
                    .name(format!("cdnd-shard-{}", shared.id))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker")
            })
            .collect();
        Ok(Daemon {
            shards,
            workers,
            shutting_down,
            route_failover: cfg.route.failover,
            route_seq: AtomicU64::new(0),
        })
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The primary shard `id` routes to with everything up
    /// ([`cdn_cache::key_shard`]).
    pub fn route(&self, id: u64) -> usize {
        key_shard(id, self.shards.len())
    }

    /// Full-control submit: route `req` (with failover when enabled),
    /// admit it under `admit`'s class watermark and deadline bound, and
    /// enqueue. `wait` is the backpressure budget, used only when the
    /// effective admission bound is the full ring capacity (class `High`,
    /// no deadline): brownout classes and deadlines fail fast — a request
    /// unwilling to stand in a deep queue must not block on one.
    pub fn submit_classed(
        &self,
        req: Request,
        admit: Admit,
        wait: Option<Duration>,
    ) -> Result<Accepted, (usize, SubmitError)> {
        let primary = self.route(req.id.0);
        if self.shutting_down.load(Ordering::Acquire) {
            return Err((primary, SubmitError::ShuttingDown));
        }
        if let Some(FaultAction::Error(_)) = fault::check(FP_ENQUEUE, req.id.0) {
            self.shards[primary]
                .faulted_enqueues
                .fetch_add(1, Ordering::Relaxed);
            return Err((primary, SubmitError::Faulted));
        }
        let shard = if self.route_failover {
            let seq = self.route_seq.fetch_add(1, Ordering::Relaxed);
            let force_primary_down = matches!(
                fault::check(FP_ROUTE, route_fault_key(primary, seq)),
                Some(FaultAction::Error(_))
            );
            let routed = route_with_failover(req.id.0, self.shards.len(), |s| {
                (force_primary_down && s == primary) || self.shards[s].state() != ShardState::Closed
            });
            match routed {
                Some(shard) => shard,
                None => {
                    self.shards[primary]
                        .rejected_down
                        .fetch_add(1, Ordering::Relaxed);
                    return Err((primary, SubmitError::Down));
                }
            }
        } else {
            if self.shards[primary].state() != ShardState::Closed {
                self.shards[primary]
                    .rejected_down
                    .fetch_add(1, Ordering::Relaxed);
                return Err((primary, SubmitError::Down));
            }
            primary
        };
        let target = &self.shards[shard];
        let class_limit = admit.class.depth_limit(target.ring.capacity());
        let limit = class_limit.min(admit.deadline_depth.unwrap_or(usize::MAX));
        let result = match wait {
            Some(timeout) if limit >= target.ring.capacity() => target
                .ring
                .push_wait(req, timeout)
                .map_err(|e| (target.ring.capacity(), e)),
            _ => target.ring.try_push_within(req, limit),
        };
        match result {
            Ok(()) => {
                target.enqueued.fetch_add(1, Ordering::Relaxed);
                let failover = shard != primary;
                if failover {
                    target.failover_in.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Accepted { shard, failover })
            }
            Err((depth, PushError::Full)) => {
                // Cause attribution: the class watermark is charged when
                // the observed depth reached it; otherwise the request's
                // own (tighter) deadline bound refused first.
                if depth >= class_limit {
                    target
                        .shed_counter(admit.class)
                        .fetch_add(1, Ordering::Relaxed);
                    Err((shard, SubmitError::Shed))
                } else {
                    target.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    Err((shard, SubmitError::Deadline))
                }
            }
            Err((_, PushError::Closed)) => Err((shard, SubmitError::ShuttingDown)),
        }
    }

    /// Non-blocking submit at default admission (`High`, no deadline):
    /// sheds with [`SubmitError::Shed`] when the target ring is full.
    /// Returns the shard that accepted (or refused) the request.
    pub fn submit(&self, req: Request) -> Result<usize, (usize, SubmitError)> {
        self.submit_classed(req, Admit::default(), None)
            .map(|a| a.shard)
    }

    /// Batched fast-path submit of a shard-homogeneous run at default
    /// admission (`High`, no deadline): every request in `batch` must
    /// route to `shard` as its primary. Accepts as many as fit under one
    /// ring-lock acquisition per attempt ([`BoundedRing::push_many`]),
    /// waiting for queue space up to `wait`, and returns how many were
    /// enqueued. Refused requests stay in `batch` in submission order so
    /// the caller can fall back to the per-request path — which owns all
    /// refusal accounting (shed / down / deadline / failover). The fast
    /// path itself refuses nothing and counts nothing but `enqueued`: it
    /// stops (returning the partial count) the moment the shard leaves
    /// `Closed`, so requests are never silently queued behind a dead
    /// shard the per-request path would have rejected or re-routed.
    ///
    /// While the [`FP_ENQUEUE`] or [`FP_ROUTE`] failpoint is armed the
    /// fast path stands aside (returns `Ok(0)`), so every submit
    /// evaluates those sites on the per-request path.
    pub fn submit_batch(
        &self,
        shard: usize,
        batch: &mut std::collections::VecDeque<Request>,
        wait: Option<Duration>,
    ) -> Result<usize, (usize, SubmitError)> {
        debug_assert!(
            batch.iter().all(|r| self.route(r.id.0) == shard),
            "submit_batch: batch must be homogeneous on its primary shard"
        );
        if fault::is_armed(FP_ENQUEUE) || fault::is_armed(FP_ROUTE) {
            return Ok(0);
        }
        let target = &self.shards[shard];
        let deadline = wait.map(|w| Instant::now() + w);
        let mut pushed = 0usize;
        loop {
            if self.shutting_down.load(Ordering::Acquire) {
                return if pushed == 0 {
                    Err((shard, SubmitError::ShuttingDown))
                } else {
                    Ok(pushed)
                };
            }
            if batch.is_empty() || target.state() != ShardState::Closed {
                return Ok(pushed);
            }
            match target.ring.push_many(batch, target.ring.capacity()) {
                Ok(n) => {
                    if n > 0 {
                        target.enqueued.fetch_add(n as u64, Ordering::Relaxed);
                        pushed += n;
                        continue;
                    }
                    // Ring full: wait out the backpressure budget in
                    // short slices so a shard crash mid-wait is seen.
                    match deadline {
                        Some(d) if Instant::now() < d => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        _ => return Ok(pushed),
                    }
                }
                Err(PushError::Full) => unreachable!("push_many never reports Full"),
                Err(PushError::Closed) => {
                    return if pushed == 0 {
                        Err((shard, SubmitError::ShuttingDown))
                    } else {
                        Ok(pushed)
                    };
                }
            }
        }
    }

    /// Supervision state of `shard`.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.shards[shard].state()
    }

    /// Stop `shard`'s worker from consuming (requests keep queueing up to
    /// the ring bound, then shed). Admin/test hook.
    pub fn pause_shard(&self, shard: usize) {
        self.shards[shard].paused.store(true, Ordering::Release);
    }

    /// Resume a paused shard.
    pub fn resume_shard(&self, shard: usize) {
        self.shards[shard].paused.store(false, Ordering::Release);
    }

    /// Operator reset: clear the shard's restart history, cancel any
    /// pending backoff, and bring a dead shard (Backoff or Storm-Open)
    /// back up immediately with a fresh cache (warm, when a snapshot
    /// restores). No-op on a healthy shard.
    pub fn reset_shard(&self, shard: usize) {
        locked(&self.shards[shard].sup).resets += 1;
        self.shards[shard].wake.notify_all();
    }

    /// Ask `shard`'s worker to commit a snapshot epoch at its next batch
    /// boundary, regardless of the cadence. Requests made before the
    /// worker next looks coalesce into one epoch. No-op (nothing is
    /// written, `snapshots_written` does not advance) when snapshotting is
    /// disabled or the shard's policy lacks the export seam. Poll
    /// [`ShardSnapshot::snapshots_written`] to observe completion.
    pub fn snapshot_shard(&self, shard: usize) {
        self.shards[shard]
            .snapshot_requested
            .store(true, Ordering::Relaxed);
    }

    /// Point-in-time counters for every shard. `processed` and `lost` are
    /// read first, with `Acquire`: the ledger fields read after them cover
    /// at least every request they count, and run ahead by at most the
    /// batch the worker is publishing (`worker_batch` requests).
    pub fn stats(&self) -> DaemonStats {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let processed = s.processed.load(Ordering::Acquire);
                let lost = s.lost.load(Ordering::Acquire);
                let shed_low = s.shed_low.load(Ordering::Relaxed);
                let shed_normal = s.shed_normal.load(Ordering::Relaxed);
                let shed_high = s.shed_high.load(Ordering::Relaxed);
                ShardSnapshot {
                    state: s.state(),
                    depth: s.ring.len(),
                    peak_depth: s.ring.peak_depth(),
                    queue_capacity: s.ring.capacity(),
                    enqueued: s.enqueued.load(Ordering::Relaxed),
                    processed,
                    lost,
                    shed: shed_low + shed_normal + shed_high,
                    shed_low,
                    shed_normal,
                    shed_high,
                    rejected_down: s.rejected_down.load(Ordering::Relaxed),
                    rejected_deadline: s.rejected_deadline.load(Ordering::Relaxed),
                    faulted_enqueues: s.faulted_enqueues.load(Ordering::Relaxed),
                    failover_in: s.failover_in.load(Ordering::Relaxed),
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    hit_bytes: s.hit_bytes.load(Ordering::Relaxed),
                    miss_bytes: s.miss_bytes.load(Ordering::Relaxed),
                    crashes: s.crashes.load(Ordering::Relaxed),
                    restarts: s.restarts.load(Ordering::Relaxed),
                    dropped_at_shutdown: s.dropped_at_shutdown.load(Ordering::Relaxed),
                    resident_objects: s.resident_objects.load(Ordering::Relaxed),
                    resident_bytes: s.resident_bytes.load(Ordering::Relaxed),
                    snapshots_written: s.snapshots_written.load(Ordering::Relaxed),
                    restored_objects: s.restored_objects.load(Ordering::Relaxed),
                    restored_bytes: s.restored_bytes.load(Ordering::Relaxed),
                    epochs_discarded: s.epochs_discarded.load(Ordering::Relaxed),
                }
            })
            .collect();
        DaemonStats { shards }
    }

    /// Block until `shard` has fully served everything it accepted
    /// (`processed + lost == enqueued`); false on timeout. Once true, the
    /// shard's ledger fields are final for those requests: `processed`
    /// and `lost` are acquired, and the worker publishes them last.
    pub fn await_quiesced(&self, shard: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = &self.shards[shard];
            let done = s.processed.load(Ordering::Acquire) + s.lost.load(Ordering::Acquire)
                >= s.enqueued.load(Ordering::Relaxed);
            if done && s.ring.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Block until `shard` reaches `state`; false on timeout.
    pub fn await_shard_state(&self, shard: usize, state: ShardState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.shards[shard].state() != state {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        true
    }

    /// Stop intake, wake every worker — paused, backing off or storm-open
    /// — and join them all: live ones first serve everything queued.
    fn stop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.paused.store(false, Ordering::Release);
            shard.ring.close();
            // A waiting worker checks the flag under this lock; passing
            // through it puts the store before its check or the notify
            // after its wait began. Poison is ignored: `Drop` runs this.
            drop(shard.sup.lock());
            shard.wake.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful drain: stop intake, let every live worker finish all
    /// queued requests, join everything, and return the final stats.
    /// Requests still queued on crashed (un-restarted) shards are counted
    /// as `dropped_at_shutdown`, never silently discarded.
    pub fn shutdown(mut self) -> DaemonStats {
        self.stop();
        for shard in self.shards.iter() {
            let left = shard.ring.len() as u64;
            shard.dropped_at_shutdown.store(left, Ordering::Relaxed);
        }
        self.stats()
    }
}

impl Drop for Daemon {
    /// Best-effort teardown for daemons dropped without `shutdown()`
    /// (e.g. a failing test).
    fn drop(&mut self) {
        self.stop();
    }
}
