//! The supervised, sharded daemon core.
//!
//! N single-threaded shard workers — one [`CachePolicy`] instance each,
//! key-partitioned with the workspace-wide [`cdn_cache::key_shard`]
//! mapping — are fed by bounded MPSC rings and watched by one supervisor
//! thread. The robustness contract, in order of importance:
//!
//! - **Crash isolation**: a panicking worker (its own bug, or the
//!   `cdnd.shard_worker` failpoint) is caught per request. Its cache is
//!   declared lost (the policy instance drops with the worker), the
//!   unprocessed tail of its popped batch is returned to the ring, and
//!   every other shard keeps serving untouched. Only the single request
//!   that panicked is lost, and it is counted (`lost`), never silent.
//! - **Supervised recovery**: the supervisor restarts crashed shards with
//!   bounded exponential backoff; a restart storm (more than
//!   `storm_threshold` restarts inside `storm_window_ms`) trips a breaker
//!   to Storm-Open — the shard stays down, cheap and observable, until an
//!   operator [`Daemon::reset_shard`]. State machine: Closed → (crash) →
//!   Backoff → (restart) → Closed, or → Storm-Open (see DESIGN.md §16).
//! - **Failover routing** (off by default, [`RouteConfig`]): when a
//!   key's primary shard is down, the submit path re-routes it to its
//!   rendezvous-ordered live secondary ([`crate::route`]) where it is
//!   served cold as an overlay miss — degraded, never dark. The decision
//!   is pure in `(key, down-set)`, so the routing-aware serial reference
//!   (`cdn_sim::run_routed_serial`) replays it exactly and failover
//!   ledgers stay u64-reconcilable.
//! - **Admission, not blind shedding**: rings are bounded and guarded by
//!   a class-watermark admission controller ([`crate::Admit`],
//!   [`AdmitConfig`]): brownout sheds `Low` before `Normal` before
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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdn_cache::{
    key_shard, route_with_failover, AccessKind, CachePolicy, Request, ResidentEntry, Tick,
};
use scip::SwitchableScip;

use crate::config::{AdmitConfig, DaemonConfig, DaemonConfigError, RestartConfig, SnapshotConfig};
use crate::ring::{BoundedRing, Popped, PushError};
use crate::route::{Admit, Priority, ShardHealth};
use crate::snapshot::{self, SnapshotData};

#[cfg(feature = "fault-injection")]
use crate::route::{route_fault_key, FP_ROUTE};

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

/// The policy a shard worker drives. `Plain` wraps any boxed
/// [`CachePolicy`]; `Switchable` exposes the `scip::switchable` node so the
/// admin plane can flip its insertion/promotion policy from LRU to SCIP
/// live, at an exact shard-local tick ([`Daemon::switch_policy_at`]).
pub enum ShardPolicy {
    /// Any fixed policy.
    Plain(Box<dyn CachePolicy>),
    /// LRU-until-deploy-tick, SCIP-after (live-switchable).
    Switchable(Box<SwitchableScip>),
}

impl ShardPolicy {
    fn on_request(&mut self, req: &Request) -> AccessKind {
        match self {
            ShardPolicy::Plain(p) => p.on_request(req),
            ShardPolicy::Switchable(p) => p.on_request(req),
        }
    }

    fn residency(&self) -> (usize, u64) {
        let stats = match self {
            ShardPolicy::Plain(p) => p.stats(),
            ShardPolicy::Switchable(p) => p.stats(),
        };
        (stats.resident_objects, stats.resident_bytes)
    }

    /// Apply a live switch; false (counted, not fatal) when the shard
    /// runs a non-switchable policy.
    fn switch_at(&mut self, tick: Tick) -> bool {
        match self {
            ShardPolicy::Plain(_) => false,
            ShardPolicy::Switchable(p) => {
                p.deploy_at = tick;
                true
            }
        }
    }

    fn as_policy(&self) -> &dyn CachePolicy {
        match self {
            ShardPolicy::Plain(p) => p.as_ref(),
            ShardPolicy::Switchable(p) => p.as_ref(),
        }
    }

    fn as_policy_mut(&mut self) -> &mut dyn CachePolicy {
        match self {
            ShardPolicy::Plain(p) => p.as_mut(),
            ShardPolicy::Switchable(p) => p.as_mut(),
        }
    }

    /// Read-only export of the resident set (hottest-first), or `None`
    /// when the policy does not support the seam — that shard snapshots
    /// nothing and restarts cold.
    fn export_resident(&self) -> Option<Vec<ResidentEntry>> {
        let mut out = Vec::new();
        if self.as_policy().for_each_resident(&mut |e| out.push(*e)) {
            Some(out)
        } else {
            None
        }
    }

    /// Rebuild residency (and learned parameters, when present) from a
    /// recovered snapshot. Returns false when the policy rejects the
    /// resident-set restore (cold start).
    fn restore_from(&mut self, data: &SnapshotData) -> bool {
        let policy = self.as_policy_mut();
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
}

/// Builds a fresh policy for `(shard, per_shard_capacity)`. Called on the
/// worker's own thread at every (re)start, so the policy value never
/// crosses threads and need not be `Send`. Must be pure enough to call
/// repeatedly: restarts build replacement instances from scratch.
pub type PolicyFactory = Arc<dyn Fn(usize, u64) -> ShardPolicy + Send + Sync>;

/// Admin commands delivered to a worker between batches.
enum Ctl {
    /// Set the switchable policy's deploy tick.
    SwitchAt(Tick),
    /// Commit a snapshot epoch now (regardless of the cadence), if
    /// snapshotting is enabled and the policy supports export.
    SnapshotNow,
}

/// Everything about one shard that outlives its worker incarnations.
struct ShardShared {
    id: usize,
    ring: BoundedRing<Request>,
    state: Mutex<ShardState>,
    paused: AtomicBool,
    ctl: Mutex<Vec<Ctl>>,
    ctl_pending: AtomicBool,
    // Intake counters (written by producers under submit).
    enqueued: AtomicU64,
    failover_in: AtomicU64,
    shed_low: AtomicU64,
    shed_normal: AtomicU64,
    shed_high: AtomicU64,
    rejected_down: AtomicU64,
    rejected_deadline: AtomicU64,
    faulted_enqueues: AtomicU64,
    // Serving ledger (written by the worker).
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
    switches: AtomicU64,
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
            state: Mutex::new(ShardState::Closed),
            paused: AtomicBool::new(false),
            ctl: Mutex::new(Vec::new()),
            ctl_pending: AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            failover_in: AtomicU64::new(0),
            shed_low: AtomicU64::new(0),
            shed_normal: AtomicU64::new(0),
            shed_high: AtomicU64::new(0),
            rejected_down: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            faulted_enqueues: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hit_bytes: AtomicU64::new(0),
            miss_bytes: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            switches: AtomicU64::new(0),
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
        *self.state.lock().unwrap()
    }

    fn set_state(&self, s: ShardState) {
        *self.state.lock().unwrap() = s;
    }

    fn publish_residency(&self, policy: &ShardPolicy) {
        let (objects, bytes) = policy.residency();
        self.resident_objects.store(objects, Ordering::Relaxed);
        self.resident_bytes.store(bytes, Ordering::Relaxed);
    }

    fn shed_counter(&self, class: Priority) -> &AtomicU64 {
        match class {
            Priority::Low => &self.shed_low,
            Priority::Normal => &self.shed_normal,
            Priority::High => &self.shed_high,
        }
    }
}

/// Point-in-time counters for one shard. Consistency (once the daemon is
/// quiescent or shut down): `enqueued == processed + lost +
/// dropped_at_shutdown + depth`, and client-side tallies of submit
/// outcomes equal `enqueued` / `shed` / `rejected_down` /
/// `rejected_deadline` / `faulted_enqueues` exactly — every submitted
/// request reconciles to exactly one counter cause.
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
    /// Requests fully served by the policy.
    pub processed: u64,
    /// Requests lost to a worker crash (the panicking request itself).
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
    /// Cache hits (ledger, comparable to `RunMeasurement::hits`).
    pub hits: u64,
    /// Cache misses, rejections included.
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes missed to origin.
    pub miss_bytes: u64,
    /// Worker panics caught.
    pub crashes: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Live policy switches applied.
    pub switches: u64,
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

/// Snapshot of every shard plus daemon-level reload counters.
#[derive(Debug, Clone)]
pub struct DaemonStats {
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
    /// Config reloads applied.
    pub reloads_applied: u64,
    /// Config reloads rejected (validation or immutable-field failures).
    pub reloads_rejected: u64,
}

impl DaemonStats {
    /// Sum of `f` across shards.
    fn sum(&self, f: impl Fn(&ShardSnapshot) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Total requests accepted.
    pub fn total_enqueued(&self) -> u64 {
        self.sum(|s| s.enqueued)
    }

    /// Total requests served.
    pub fn total_processed(&self) -> u64 {
        self.sum(|s| s.processed)
    }

    /// Total requests shed under overload.
    pub fn total_shed(&self) -> u64 {
        self.sum(|s| s.shed)
    }

    /// Total requests rejected while shards were down.
    pub fn total_rejected_down(&self) -> u64 {
        self.sum(|s| s.rejected_down)
    }

    /// Total requests refused on their own deadline bound.
    pub fn total_rejected_deadline(&self) -> u64 {
        self.sum(|s| s.rejected_deadline)
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

enum SupEvent {
    Crashed { shard: usize },
    Reset { shard: usize },
    Shutdown,
}

thread_local! {
    /// Set while a worker processes a request under `catch_unwind`, so
    /// the global panic hook stays quiet for crashes the supervisor is
    /// about to catch, account for and recover from.
    static ISOLATING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once) a panic hook that suppresses backtrace spew for panics
/// the daemon isolates (same pattern as the sweep executor's quiet hook).
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !ISOLATING.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// How long a worker waits on an empty ring before re-checking control
/// state (pause flags, drain). Pure liveness knob; correctness never
/// depends on it.
const POP_TIMEOUT: Duration = Duration::from_millis(1);
/// Supervisor idle wake interval when no restart is pending.
const SUP_IDLE: Duration = Duration::from_millis(200);

/// Export the shard's resident set and commit one snapshot epoch.
/// Returns true when a file was committed. Never perturbs policy state:
/// the export seam is `&self` and a policy without the seam (or a write
/// failure) simply leaves the previous epoch set in place.
fn take_snapshot(shared: &ShardShared, policy: &ShardPolicy, snap: &SnapshotConfig) -> bool {
    if !snap.enabled() {
        return false;
    }
    let Some(dir) = &snap.dir else { return false };
    let Some(entries) = policy.export_resident() else {
        return false;
    };
    let learned = policy.as_policy().export_learned();
    let epoch = shared.snap_epoch.fetch_add(1, Ordering::Relaxed);
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
fn restore_warm(shared: &ShardShared, policy: &mut ShardPolicy, snap: &SnapshotConfig) {
    if !snap.enabled() {
        return;
    }
    let Some(dir) = &snap.dir else { return };
    let outcome = snapshot::recover(dir, shared.id as u32);
    shared
        .epochs_discarded
        .fetch_add(outcome.epochs_discarded, Ordering::Relaxed);
    // Future epochs must outnumber everything ever seen on disk, valid or
    // corrupt, so a discarded-but-newer file can never shadow them.
    shared
        .snap_epoch
        .fetch_max(outcome.latest_epoch_seen + 1, Ordering::Relaxed);
    let Some(data) = outcome.data else { return };
    ISOLATING.with(|f| f.set(true));
    let restored = catch_unwind(AssertUnwindSafe(|| policy.restore_from(&data)));
    ISOLATING.with(|f| f.set(false));
    if let Ok(true) = restored {
        let (objects, bytes) = policy.residency();
        shared
            .restored_objects
            .fetch_add(objects as u64, Ordering::Relaxed);
        shared.restored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn worker_loop(
    shared: Arc<ShardShared>,
    factory: PolicyFactory,
    per_shard_capacity: u64,
    batch: usize,
    snap_cfg: Arc<Mutex<SnapshotConfig>>,
    events: Sender<SupEvent>,
) {
    let built = catch_unwind(AssertUnwindSafe(|| factory(shared.id, per_shard_capacity)));
    let mut policy = match built {
        Ok(p) => p,
        Err(_) => {
            shared.crashes.fetch_add(1, Ordering::Relaxed);
            shared.set_state(ShardState::Backoff);
            let _ = events.send(SupEvent::Crashed { shard: shared.id });
            return;
        }
    };
    // Warm restore happens before the first pop: the ring's queued
    // requests are served by a cache that already holds the snapshotted
    // resident set, in its snapshotted recency order.
    {
        let snap = snap_cfg.lock().unwrap().clone();
        restore_warm(&shared, &mut policy, &snap);
    }
    shared.publish_residency(&policy);
    let mut since_snap: u64 = 0;
    loop {
        if shared.ctl_pending.swap(false, Ordering::AcqRel) {
            let cmds: Vec<Ctl> = std::mem::take(&mut *shared.ctl.lock().unwrap());
            for cmd in cmds {
                match cmd {
                    Ctl::SwitchAt(tick) => {
                        if policy.switch_at(tick) {
                            shared.switches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ctl::SnapshotNow => {
                        let snap = snap_cfg.lock().unwrap().clone();
                        if take_snapshot(&shared, &policy, &snap) {
                            since_snap = 0;
                        }
                    }
                }
            }
        }
        if shared.paused.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        match shared.ring.pop_many(batch, POP_TIMEOUT) {
            Popped::Items(items) => {
                // A pause that raced the pop (the worker was already
                // blocked inside `pop_many` when the flag went up) is
                // honoured before any request is served: the batch goes
                // back in order and the worker idles, so admission
                // drills observe exact queue depths. The ring mutex
                // orders the flag store before the popped push.
                if shared.paused.load(Ordering::Acquire) {
                    shared.ring.unpop(items.into_iter().collect());
                    continue;
                }
                let mut pending = items.into_iter();
                while let Some(mut req) = pending.next() {
                    let tick = shared.ticks.fetch_add(1, Ordering::Relaxed);
                    req.tick = tick;
                    let outcome = {
                        ISOLATING.with(|f| f.set(true));
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            #[cfg(feature = "fault-injection")]
                            cdn_cache::fault::maybe_panic(
                                FP_SHARD_WORKER,
                                worker_fault_key(shared.id, tick),
                            );
                            policy.on_request(&req)
                        }));
                        ISOLATING.with(|f| f.set(false));
                        r
                    };
                    match outcome {
                        Ok(kind) => {
                            if kind.is_hit() {
                                shared.hits.fetch_add(1, Ordering::Relaxed);
                                shared.hit_bytes.fetch_add(req.size, Ordering::Relaxed);
                            } else {
                                shared.misses.fetch_add(1, Ordering::Relaxed);
                                shared.miss_bytes.fetch_add(req.size, Ordering::Relaxed);
                            }
                            shared.processed.fetch_add(1, Ordering::Relaxed);
                            since_snap += 1;
                        }
                        Err(_) => {
                            // Crash isolation: the panicking request is
                            // lost (counted), the rest of the batch goes
                            // back to the ring in order, the cache dies
                            // with this incarnation.
                            shared.lost.fetch_add(1, Ordering::Relaxed);
                            shared.crashes.fetch_add(1, Ordering::Relaxed);
                            shared.ring.unpop(pending.collect());
                            shared.set_state(ShardState::Backoff);
                            shared.resident_objects.store(0, Ordering::Relaxed);
                            shared.resident_bytes.store(0, Ordering::Relaxed);
                            let _ = events.send(SupEvent::Crashed { shard: shared.id });
                            return;
                        }
                    }
                }
                shared.publish_residency(&policy);
                // Cadence snapshots commit between batches, never inside
                // one, so an epoch always captures a batch boundary.
                let snap = snap_cfg.lock().unwrap().clone();
                if snap.enabled() && since_snap >= snap.interval {
                    take_snapshot(&shared, &policy, &snap);
                    since_snap = 0;
                }
            }
            Popped::TimedOut => continue,
            Popped::Drained => {
                // Graceful drain: one final epoch so a subsequent process
                // start (or the bench harness) can restore fully warm.
                let snap = snap_cfg.lock().unwrap().clone();
                take_snapshot(&shared, &policy, &snap);
                break;
            }
        }
    }
    shared.publish_residency(&policy);
}

type WorkerSlots = Arc<Vec<Mutex<Option<JoinHandle<()>>>>>;

struct SupervisorCtx {
    shards: Vec<Arc<ShardShared>>,
    workers: WorkerSlots,
    factory: PolicyFactory,
    per_shard_capacity: u64,
    worker_batch: usize,
    restart_cfg: Arc<Mutex<RestartConfig>>,
    snap_cfg: Arc<Mutex<SnapshotConfig>>,
    events_tx: Sender<SupEvent>,
    shutting_down: Arc<AtomicBool>,
}

fn spawn_worker(ctx: &SupervisorCtx, shard: usize) {
    let shared = Arc::clone(&ctx.shards[shard]);
    let factory = Arc::clone(&ctx.factory);
    let events = ctx.events_tx.clone();
    let capacity = ctx.per_shard_capacity;
    let batch = ctx.worker_batch;
    let snap_cfg = Arc::clone(&ctx.snap_cfg);
    let handle = std::thread::Builder::new()
        .name(format!("cdnd-shard-{shard}"))
        .spawn(move || worker_loop(shared, factory, capacity, batch, snap_cfg, events))
        .expect("spawn shard worker");
    *ctx.workers[shard].lock().unwrap() = Some(handle);
}

fn supervisor_loop(ctx: SupervisorCtx, events_rx: std::sync::mpsc::Receiver<SupEvent>) {
    let n = ctx.shards.len();
    // (shard, due) pending restarts and per-shard restart timestamps
    // inside the current storm window.
    let mut pending: Vec<(usize, Instant)> = Vec::new();
    let mut history: Vec<Vec<Instant>> = vec![Vec::new(); n];
    loop {
        let now = Instant::now();
        let timeout = pending
            .iter()
            .map(|(_, due)| due.saturating_duration_since(now))
            .min()
            .unwrap_or(SUP_IDLE);
        match events_rx.recv_timeout(timeout) {
            Ok(SupEvent::Crashed { shard }) => {
                if let Some(handle) = ctx.workers[shard].lock().unwrap().take() {
                    let _ = handle.join();
                }
                if ctx.shutting_down.load(Ordering::Acquire) {
                    continue;
                }
                let cfg = *ctx.restart_cfg.lock().unwrap();
                let now = Instant::now();
                let window = Duration::from_millis(cfg.storm_window_ms);
                history[shard].retain(|t| now.duration_since(*t) <= window);
                let in_window = history[shard].len() as u32;
                if in_window >= cfg.storm_threshold {
                    ctx.shards[shard].set_state(ShardState::StormOpen);
                } else {
                    pending.push((shard, now + cfg.backoff_delay(in_window)));
                }
            }
            Ok(SupEvent::Reset { shard }) => {
                // Operator reset: forget the restart history, cancel any
                // pending backoff, and if the worker is dead (Backoff or
                // Storm-Open) respawn it immediately.
                history[shard].clear();
                pending.retain(|(s, _)| *s != shard);
                if ctx.shards[shard].state() != ShardState::Closed
                    && !ctx.shutting_down.load(Ordering::Acquire)
                {
                    spawn_worker(&ctx, shard);
                    ctx.shards[shard].restarts.fetch_add(1, Ordering::Relaxed);
                    ctx.shards[shard].set_state(ShardState::Closed);
                }
            }
            Ok(SupEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        let due: Vec<usize> = pending
            .iter()
            .filter(|(_, at)| *at <= now)
            .map(|(s, _)| *s)
            .collect();
        pending.retain(|(_, at)| *at > now);
        for shard in due {
            if ctx.shutting_down.load(Ordering::Acquire) {
                continue;
            }
            history[shard].push(now);
            spawn_worker(&ctx, shard);
            ctx.shards[shard].restarts.fetch_add(1, Ordering::Relaxed);
            ctx.shards[shard].set_state(ShardState::Closed);
        }
    }
}

/// The daemon: owns the shard rings, the worker threads and the
/// supervisor. Submit from any number of threads; call
/// [`Daemon::shutdown`] to drain and collect final stats.
pub struct Daemon {
    shards: Vec<Arc<ShardShared>>,
    workers: WorkerSlots,
    supervisor: Option<JoinHandle<()>>,
    events_tx: Sender<SupEvent>,
    cfg: Mutex<DaemonConfig>,
    restart_cfg: Arc<Mutex<RestartConfig>>,
    snap_cfg: Arc<Mutex<SnapshotConfig>>,
    // Routing/admission tunables, mirrored into atomics so the submit
    // hot path never takes a config lock.
    route_failover: AtomicBool,
    admit_low_pct: std::sync::atomic::AtomicU8,
    admit_normal_pct: std::sync::atomic::AtomicU8,
    /// Monotonic submit ordinal — the router's tick ([`FP_ROUTE`] key).
    route_seq: AtomicU64,
    shutting_down: Arc<AtomicBool>,
    reloads_applied: AtomicU64,
    reloads_rejected: AtomicU64,
}

impl Daemon {
    /// Validate `cfg`, spawn one worker per shard plus the supervisor.
    pub fn spawn(cfg: DaemonConfig, factory: PolicyFactory) -> Result<Daemon, DaemonConfigError> {
        cfg.validate()?;
        install_quiet_hook();
        let n = cfg.shards;
        let shards: Vec<Arc<ShardShared>> = (0..n)
            .map(|id| Arc::new(ShardShared::new(id, cfg.queue_capacity)))
            .collect();
        let workers: WorkerSlots = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let restart_cfg = Arc::new(Mutex::new(cfg.restart));
        let snap_cfg = Arc::new(Mutex::new(cfg.snap.clone()));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let (events_tx, events_rx) = channel();
        let ctx = SupervisorCtx {
            shards: shards.clone(),
            workers: Arc::clone(&workers),
            factory,
            per_shard_capacity: cfg.per_shard_capacity(),
            worker_batch: cfg.worker_batch,
            restart_cfg: Arc::clone(&restart_cfg),
            snap_cfg: Arc::clone(&snap_cfg),
            events_tx: events_tx.clone(),
            shutting_down: Arc::clone(&shutting_down),
        };
        for shard in 0..n {
            spawn_worker(&ctx, shard);
        }
        let supervisor = std::thread::Builder::new()
            .name("cdnd-supervisor".to_string())
            .spawn(move || supervisor_loop(ctx, events_rx))
            .expect("spawn supervisor");
        Ok(Daemon {
            shards,
            workers,
            supervisor: Some(supervisor),
            events_tx,
            route_failover: AtomicBool::new(cfg.route.failover),
            admit_low_pct: std::sync::atomic::AtomicU8::new(cfg.admit.low_watermark_pct),
            admit_normal_pct: std::sync::atomic::AtomicU8::new(cfg.admit.normal_watermark_pct),
            route_seq: AtomicU64::new(0),
            cfg: Mutex::new(cfg),
            restart_cfg,
            snap_cfg,
            shutting_down,
            reloads_applied: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
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

    /// Point-in-time router view of every shard: supervision state plus
    /// queue pressure.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .map(|s| ShardHealth {
                up: s.state() == ShardState::Closed,
                depth: s.ring.len(),
                queue_capacity: s.ring.capacity(),
            })
            .collect()
    }

    /// Route + admit + enqueue. `wait` is the backpressure budget used
    /// only when the effective admission bound is the full ring capacity
    /// (class `High`, no deadline): brownout classes and deadlines fail
    /// fast — a request unwilling to stand in a deep queue must not block
    /// on one.
    fn submit_inner(
        &self,
        req: Request,
        admit: Admit,
        wait: Option<Duration>,
    ) -> Result<Accepted, (usize, SubmitError)> {
        let primary = self.route(req.id.0);
        if self.shutting_down.load(Ordering::Acquire) {
            return Err((primary, SubmitError::ShuttingDown));
        }
        #[cfg(feature = "fault-injection")]
        if let Some(cdn_cache::fault::FaultAction::Error(_)) =
            cdn_cache::fault::check(FP_ENQUEUE, req.id.0)
        {
            self.shards[primary]
                .faulted_enqueues
                .fetch_add(1, Ordering::Relaxed);
            return Err((primary, SubmitError::Faulted));
        }
        let shard = if self.route_failover.load(Ordering::Relaxed) {
            let _seq = self.route_seq.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "fault-injection")]
            let force_primary_down = matches!(
                cdn_cache::fault::check(FP_ROUTE, route_fault_key(primary, _seq)),
                Some(cdn_cache::fault::FaultAction::Error(_))
            );
            #[cfg(not(feature = "fault-injection"))]
            let force_primary_down = false;
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
        let admit_cfg = AdmitConfig {
            low_watermark_pct: self.admit_low_pct.load(Ordering::Relaxed),
            normal_watermark_pct: self.admit_normal_pct.load(Ordering::Relaxed),
        };
        let class_limit = admit_cfg.class_limit(admit.class, target.ring.capacity());
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

    /// Full-control submit: route `req` (with failover when enabled),
    /// admit it under `admit`'s class watermark and deadline bound, and
    /// enqueue. `wait` bounds backpressure blocking and only applies when
    /// the effective admission bound is the whole ring (class `High`
    /// with no deadline); otherwise the call fails fast.
    pub fn submit_classed(
        &self,
        req: Request,
        admit: Admit,
        wait: Option<Duration>,
    ) -> Result<Accepted, (usize, SubmitError)> {
        self.submit_inner(req, admit, wait)
    }

    /// Non-blocking submit at default admission (`High`, no deadline):
    /// sheds with [`SubmitError::Shed`] when the target ring is full.
    /// Returns the shard that accepted (or refused) the request.
    pub fn submit(&self, req: Request) -> Result<usize, (usize, SubmitError)> {
        self.submit_inner(req, Admit::default(), None)
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
    /// Compiled with `fault-injection`, the fast path disables itself
    /// (always returns `Ok(0)`) so every submit evaluates its enqueue
    /// and routing failpoints on the per-request path.
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
        #[cfg(feature = "fault-injection")]
        {
            let _ = (shard, &batch, wait);
            Ok(0)
        }
        #[cfg(not(feature = "fault-injection"))]
        {
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
    }

    /// Backpressure submit at default admission: blocks while the target
    /// ring is full (up to `timeout`, then sheds). Still fails fast with
    /// [`SubmitError::Down`] when no shard can serve the key — waiting
    /// on a dead shard would stall the producer for the whole backoff.
    pub fn submit_wait(
        &self,
        req: Request,
        timeout: Duration,
    ) -> Result<usize, (usize, SubmitError)> {
        self.submit_inner(req, Admit::default(), Some(timeout))
            .map(|a| a.shard)
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

    /// Ask `shard`'s switchable policy to deploy SCIP at shard-local tick
    /// `deploy_at` (past ticks switch immediately). Applied between
    /// worker batches; quiesce the shard first for a deterministic
    /// boundary. Ignored (counted nowhere) on non-switchable policies.
    pub fn switch_policy_at(&self, shard: usize, deploy_at: Tick) {
        self.shards[shard]
            .ctl
            .lock()
            .unwrap()
            .push(Ctl::SwitchAt(deploy_at));
        self.shards[shard]
            .ctl_pending
            .store(true, Ordering::Release);
    }

    /// Operator reset: clear the shard's restart history, cancel any
    /// pending backoff, and bring a dead shard (Backoff or Storm-Open)
    /// back up immediately with a fresh, empty cache. No-op on a healthy
    /// shard.
    pub fn reset_shard(&self, shard: usize) {
        let _ = self.events_tx.send(SupEvent::Reset { shard });
    }

    /// Validate and apply a new config. Only supervision tunables
    /// ([`RestartConfig`]), snapshot tunables ([`SnapshotConfig`]),
    /// routing ([`RouteConfig`]) and admission ([`AdmitConfig`]) may
    /// change live; an invalid candidate or a changed immutable field is
    /// rejected whole and the daemon keeps the old config — including the
    /// running snapshot cadence ([`DaemonConfigError::ImmutableField`]).
    pub fn reload(&self, candidate: DaemonConfig) -> Result<(), DaemonConfigError> {
        let result = candidate.validate().and_then(|()| {
            let current = self.cfg.lock().unwrap();
            current.reload_compatible(&candidate)
        });
        match result {
            Ok(()) => {
                *self.restart_cfg.lock().unwrap() = candidate.restart;
                *self.snap_cfg.lock().unwrap() = candidate.snap.clone();
                self.route_failover
                    .store(candidate.route.failover, Ordering::Relaxed);
                self.admit_low_pct
                    .store(candidate.admit.low_watermark_pct, Ordering::Relaxed);
                self.admit_normal_pct
                    .store(candidate.admit.normal_watermark_pct, Ordering::Relaxed);
                *self.cfg.lock().unwrap() = candidate;
                self.reloads_applied.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.reloads_rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Ask `shard`'s worker to commit a snapshot epoch at its next batch
    /// boundary, regardless of the cadence. No-op (nothing is written,
    /// `snapshots_written` does not advance) when snapshotting is
    /// disabled or the shard's policy lacks the export seam. Poll
    /// [`ShardSnapshot::snapshots_written`] to observe completion.
    pub fn snapshot_shard(&self, shard: usize) {
        self.shards[shard]
            .ctl
            .lock()
            .unwrap()
            .push(Ctl::SnapshotNow);
        self.shards[shard]
            .ctl_pending
            .store(true, Ordering::Release);
    }

    /// Current config (a copy).
    pub fn config(&self) -> DaemonConfig {
        self.cfg.lock().unwrap().clone()
    }

    /// Point-in-time counters for every shard.
    pub fn stats(&self) -> DaemonStats {
        let shards = self
            .shards
            .iter()
            .map(|s| ShardSnapshot {
                state: s.state(),
                depth: s.ring.len(),
                peak_depth: s.ring.peak_depth(),
                queue_capacity: s.ring.capacity(),
                enqueued: s.enqueued.load(Ordering::Relaxed),
                processed: s.processed.load(Ordering::Relaxed),
                lost: s.lost.load(Ordering::Relaxed),
                shed: s.shed_low.load(Ordering::Relaxed)
                    + s.shed_normal.load(Ordering::Relaxed)
                    + s.shed_high.load(Ordering::Relaxed),
                shed_low: s.shed_low.load(Ordering::Relaxed),
                shed_normal: s.shed_normal.load(Ordering::Relaxed),
                shed_high: s.shed_high.load(Ordering::Relaxed),
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
                switches: s.switches.load(Ordering::Relaxed),
                dropped_at_shutdown: s.dropped_at_shutdown.load(Ordering::Relaxed),
                resident_objects: s.resident_objects.load(Ordering::Relaxed),
                resident_bytes: s.resident_bytes.load(Ordering::Relaxed),
                snapshots_written: s.snapshots_written.load(Ordering::Relaxed),
                restored_objects: s.restored_objects.load(Ordering::Relaxed),
                restored_bytes: s.restored_bytes.load(Ordering::Relaxed),
                epochs_discarded: s.epochs_discarded.load(Ordering::Relaxed),
            })
            .collect();
        DaemonStats {
            shards,
            reloads_applied: self.reloads_applied.load(Ordering::Relaxed),
            reloads_rejected: self.reloads_rejected.load(Ordering::Relaxed),
        }
    }

    /// Block until `shard` has fully served everything it accepted
    /// (`processed + lost == enqueued`); false on timeout.
    pub fn await_quiesced(&self, shard: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = &self.shards[shard];
            let done = s.processed.load(Ordering::Relaxed) + s.lost.load(Ordering::Relaxed)
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

    /// Graceful drain: stop intake, let every live worker finish all
    /// queued requests, stop the supervisor, join everything, and return
    /// the final stats. Requests still queued on crashed (un-restarted)
    /// shards are counted as `dropped_at_shutdown`, never silently
    /// discarded.
    pub fn shutdown(mut self) -> DaemonStats {
        self.shutting_down.store(true, Ordering::Release);
        // Stop the supervisor first so no restart races the join below.
        let _ = self.events_tx.send(SupEvent::Shutdown);
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        for shard in self.shards.iter() {
            shard.paused.store(false, Ordering::Release);
            shard.ring.close();
        }
        for slot in self.workers.iter() {
            if let Some(handle) = slot.lock().unwrap().take() {
                let _ = handle.join();
            }
        }
        for shard in self.shards.iter() {
            let left = shard.ring.len() as u64;
            shard.dropped_at_shutdown.store(left, Ordering::Relaxed);
        }
        self.stats()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Best-effort teardown for daemons dropped without `shutdown()`
        // (e.g. a failing test): stop intake, wake everyone, join.
        self.shutting_down.store(true, Ordering::Release);
        let _ = self.events_tx.send(SupEvent::Shutdown);
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        for shard in self.shards.iter() {
            shard.paused.store(false, Ordering::Release);
            shard.ring.close();
        }
        for slot in self.workers.iter() {
            if let Some(handle) = slot.lock().unwrap().take() {
                let _ = handle.join();
            }
        }
    }
}
