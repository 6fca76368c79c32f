//! Deterministic in-process client harness.
//!
//! Drives a [`Daemon`] with a `cdn-trace` workload from a single client
//! thread (so per-shard arrival order equals trace order), keeps an
//! independent client-side tally of every submit outcome, and tracks
//! per-shard outage windows for availability accounting. The harness is
//! what `cdnd_chaos`, the daemon tests and the supervision proptest all
//! build on, so its accounting rules are worth stating precisely:
//!
//! - A shard's **outage window** is the half-open interval from the first
//!   [`SubmitError::Down`] rejection *or* failover-served request after a
//!   crash to the first subsequent submit served on that shard as
//!   primary. A request is *inside* an outage when, after its own outcome
//!   is applied, at least one shard is marked down.
//! - **Availability** is accepted/submitted over a region (inside
//!   windows, outside windows, overall). The chaos gates require 100 %
//!   outside all windows and a floor inside them.
//! - **Exactness**: a surviving (never-crashed) shard's daemon ledger
//!   must equal the corresponding [`RunMeasurement`] from
//!   [`cdn_sim::run_sharded_serial`] u64-for-u64 — same capacity split,
//!   same local tick assignment, same per-shard replay context.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdn_cache::fault::{self, FaultAction, FaultRule};
use cdn_cache::Request;
use cdn_sim::{
    BatchMode, OutageWindow, PolicyKind, RoutedShardLedger, RunMeasurement, ShardedRunReport,
    TraceCtx,
};
use cdn_trace::{partition_columns, ShardedTrace, TraceColumns};

use crate::config::RestartConfig;
use crate::daemon::{
    worker_fault_key, Accepted, Daemon, PolicyFactory, ShardSnapshot, ShardState, SubmitError,
    FP_SHARD_WORKER,
};
use crate::route::Admit;

/// A workload pre-partitioned exactly like the library's sharded replay:
/// the partition, the per-shard localized replay contexts, and the
/// original request stream in trace order.
pub struct ShardPlan {
    /// Order-preserving key partition ([`cdn_trace::partition_columns`]).
    pub sharded: ShardedTrace,
    /// Per-shard replay contexts over the *localized* (re-ticked 0..len)
    /// shard streams — identical to what `run_sharded_serial` builds, so
    /// context-sensitive policies (SCIP's update interval, Belady's
    /// next-access table) behave identically in the daemon.
    pub ctxs: Vec<TraceCtx>,
    /// Full stream in trace order (what the client submits).
    pub requests: Vec<Request>,
    /// Seed the contexts were built with.
    pub seed: u64,
}

impl ShardPlan {
    /// Partition `requests` into `shards` and build each shard's replay
    /// context with [`cdn_sim::localized_shards`], as the reference does.
    pub fn build(requests: &[Request], shards: usize, seed: u64) -> ShardPlan {
        let cols = TraceColumns::from_requests(requests);
        let sharded = partition_columns(&cols, shards);
        let ctxs = cdn_sim::localized_shards(&sharded, seed)
            .into_iter()
            .map(|(_, ctx)| ctx)
            .collect();
        ShardPlan {
            sharded,
            ctxs,
            requests: requests.to_vec(),
            seed,
        }
    }

    /// Requests routed to `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.sharded.shards[shard].len()
    }

    /// The serial reference decomposition for this plan: per-shard
    /// ledgers the daemon must reproduce exactly on surviving shards.
    pub fn reference(&self, kind: PolicyKind, total_capacity: u64) -> ShardedRunReport {
        cdn_sim::run_sharded_serial(
            kind,
            total_capacity,
            &self.sharded,
            self.seed,
            BatchMode::Off,
        )
    }

    /// A [`PolicyFactory`] building `kind` with this plan's per-shard
    /// contexts — the daemon-side mirror of the reference replay. Fresh
    /// instances on every (re)start, constructed on the worker thread.
    pub fn factory(&self, kind: PolicyKind) -> PolicyFactory {
        let ctxs: Arc<Vec<TraceCtx>> = Arc::new(self.ctxs.clone());
        Arc::new(move |shard, capacity| kind.build(capacity, &ctxs[shard]))
    }
}

/// A [`PolicyFactory`] for out-of-core drills: builds `kind` with an
/// oracle-free [`TraceCtx`] (requests-count hint + seed only), so no
/// per-shard context — and therefore no in-RAM copy of the trace — is
/// ever materialized. Every policy except Belady accepts it.
pub fn oracle_free_factory(kind: PolicyKind, requests: u64, seed: u64) -> PolicyFactory {
    Arc::new(move |_shard, capacity| {
        let ctx = TraceCtx::without_oracle(requests, seed);
        kind.build(capacity, &ctx)
    })
}

/// How the client reacts to submit failures.
#[derive(Debug, Clone, Copy)]
pub enum FeedMode {
    /// Backpressure on full rings (block up to `push_timeout`), but a
    /// down shard fails fast: the rejection is tallied and the client
    /// moves on. This is the availability-measuring mode — rejections
    /// are the outage signal.
    FailFast {
        /// How long to wait for ring space before shedding.
        push_timeout: Duration,
    },
    /// Retry `Down` / `Shed` until accepted or `give_up`
    /// elapses for that request. This is the exactness-measuring mode:
    /// every request (except crash-lost ones) eventually reaches its
    /// shard in trace order, so surviving-shard ledgers are comparable
    /// to the serial reference.
    AwaitRecovery {
        /// How long to wait for ring space per attempt.
        push_timeout: Duration,
        /// Sleep between retries of a down shard.
        retry: Duration,
        /// Per-request retry budget.
        give_up: Duration,
    },
}

/// Client-side tally of submit outcomes for one shard. Cross-checkable
/// against [`ShardSnapshot`]: `accepted == enqueued` always, and in
/// [`FeedMode::FailFast`] `shed`/`rejected_down`/`faulted` match the
/// daemon counters one-for-one (each request is attempted exactly once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Requests whose final outcome (accept or refusal) landed on this
    /// shard — with failover routing, the serving shard, not the primary.
    pub submitted: u64,
    /// Accepted into the shard's ring.
    pub accepted: u64,
    /// Accepted as failover overlay (this shard served for a down
    /// primary).
    pub failover_accepted: u64,
    /// Final `Shed` outcomes.
    pub shed: u64,
    /// Final `Down` outcomes.
    pub rejected_down: u64,
    /// Final `Deadline` outcomes.
    pub deadline: u64,
    /// Final `Faulted` outcomes (injected enqueue faults).
    pub faulted: u64,
    /// Final `ShuttingDown` outcomes.
    pub shutting_down: u64,
}

/// What the client observed while feeding a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedReport {
    /// Per-shard tallies, indexed by shard id.
    pub per_shard: Vec<ClientTally>,
    /// Requests classified inside an outage window.
    pub inside_total: u64,
    /// Accepted requests inside outage windows.
    pub inside_accepted: u64,
    /// Requests classified outside all outage windows.
    pub outside_total: u64,
    /// Accepted requests outside all outage windows.
    pub outside_accepted: u64,
    /// Down transitions observed (one per outage window opened).
    pub outage_windows: u64,
    /// Requests accepted on a failover secondary (their primary was
    /// down). These count toward availability — answered, degraded.
    pub failover_accepted: u64,
}

impl FeedReport {
    fn empty(shards: usize) -> FeedReport {
        FeedReport {
            per_shard: vec![ClientTally::default(); shards],
            inside_total: 0,
            inside_accepted: 0,
            outside_total: 0,
            outside_accepted: 0,
            outage_windows: 0,
            failover_accepted: 0,
        }
    }

    /// Add `later` — the report of the next slice of the same stream, fed
    /// to the same daemon — into this one, counter by counter. Each feed
    /// tracks its outage windows from "every shard up", so a window still
    /// open when a slice ends is closed by the slice boundary.
    pub fn absorb(&mut self, later: &FeedReport) {
        for (a, b) in self.per_shard.iter_mut().zip(&later.per_shard) {
            a.submitted += b.submitted;
            a.accepted += b.accepted;
            a.failover_accepted += b.failover_accepted;
            a.shed += b.shed;
            a.rejected_down += b.rejected_down;
            a.deadline += b.deadline;
            a.faulted += b.faulted;
            a.shutting_down += b.shutting_down;
        }
        self.inside_total += later.inside_total;
        self.inside_accepted += later.inside_accepted;
        self.outside_total += later.outside_total;
        self.outside_accepted += later.outside_accepted;
        self.outage_windows += later.outage_windows;
        self.failover_accepted += later.failover_accepted;
    }

    /// Accepted / submitted over the whole stream.
    pub fn overall_availability(&self) -> f64 {
        let total = self.inside_total + self.outside_total;
        if total == 0 {
            return 1.0;
        }
        (self.inside_accepted + self.outside_accepted) as f64 / total as f64
    }

    /// Accepted / submitted inside outage windows (1.0 when none).
    pub fn inside_availability(&self) -> f64 {
        if self.inside_total == 0 {
            return 1.0;
        }
        self.inside_accepted as f64 / self.inside_total as f64
    }

    /// Accepted / submitted outside outage windows (1.0 when none).
    pub fn outside_availability(&self) -> f64 {
        if self.outside_total == 0 {
            return 1.0;
        }
        self.outside_accepted as f64 / self.outside_total as f64
    }

    /// Total accepted across shards.
    pub fn total_accepted(&self) -> u64 {
        self.per_shard.iter().map(|t| t.accepted).sum()
    }

    /// Cross-check the client tally against the daemon's own counters.
    /// `strict_rejections` additionally requires shed / rejected-down /
    /// faulted counts to match one-for-one (valid in
    /// [`FeedMode::FailFast`], where each request is attempted exactly
    /// once; retry modes re-attempt, so daemon rejection counters run
    /// higher than final client outcomes).
    pub fn check_against(
        &self,
        shards: &[ShardSnapshot],
        strict_rejections: bool,
    ) -> Result<(), String> {
        if shards.len() != self.per_shard.len() {
            return Err(format!(
                "shard count mismatch: client {} vs daemon {}",
                self.per_shard.len(),
                shards.len()
            ));
        }
        for (i, (tally, snap)) in self.per_shard.iter().zip(shards).enumerate() {
            if tally.accepted != snap.enqueued {
                return Err(format!(
                    "shard {i}: client accepted {} != daemon enqueued {}",
                    tally.accepted, snap.enqueued
                ));
            }
            if tally.failover_accepted != snap.failover_in {
                return Err(format!(
                    "shard {i}: client failover-accepted {} != daemon failover-in {}",
                    tally.failover_accepted, snap.failover_in
                ));
            }
            if strict_rejections {
                if tally.shed != snap.shed {
                    return Err(format!(
                        "shard {i}: client shed {} != daemon shed {}",
                        tally.shed, snap.shed
                    ));
                }
                if tally.rejected_down != snap.rejected_down {
                    return Err(format!(
                        "shard {i}: client rejected-down {} != daemon {}",
                        tally.rejected_down, snap.rejected_down
                    ));
                }
                if tally.deadline != snap.rejected_deadline {
                    return Err(format!(
                        "shard {i}: client deadline {} != daemon {}",
                        tally.deadline, snap.rejected_deadline
                    ));
                }
                if tally.faulted != snap.faulted_enqueues {
                    return Err(format!(
                        "shard {i}: client faulted {} != daemon {}",
                        tally.faulted, snap.faulted_enqueues
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Requests per grouping window in [`feed_batched`]: big enough that
/// per-shard runs amortize the ring lock, small enough that cross-shard
/// reordering stays local (per-shard order is always exact).
pub const FEED_WINDOW: usize = 1024;

/// The accounting core every feed variant shares: per-shard tallies, the
/// client-side down-set and the inside/outside outage classification.
/// One instance per feed; the variants differ only in how requests reach
/// [`FeedState::submit_one`] / [`FeedState::submit_window`].
struct FeedState {
    report: FeedReport,
    down: Vec<bool>,
}

impl FeedState {
    fn new(shards: usize) -> FeedState {
        FeedState {
            report: FeedReport::empty(shards),
            down: vec![false; shards],
        }
    }

    /// Apply one submit outcome to the tallies and the outage windows.
    /// A failover accept and a Down rejection both signal the primary is
    /// down (window opens); a request served on its own primary signals
    /// that shard up (window closes). Inside/outside is judged *after*
    /// applying the outcome, so the first rejection of a window counts
    /// inside it and the accept that closes the window counts outside
    /// (half-open interval).
    fn apply(&mut self, primary: usize, outcome: Result<Accepted, (usize, SubmitError)>) {
        let accepted = match outcome {
            Ok(acc) => {
                let tally = &mut self.report.per_shard[acc.shard];
                tally.submitted += 1;
                tally.accepted += 1;
                if acc.failover {
                    tally.failover_accepted += 1;
                    self.report.failover_accepted += 1;
                    if !self.down[primary] {
                        self.down[primary] = true;
                        self.report.outage_windows += 1;
                    }
                } else {
                    self.down[acc.shard] = false;
                }
                true
            }
            Err((shard, e)) => {
                let tally = &mut self.report.per_shard[shard];
                tally.submitted += 1;
                match e {
                    SubmitError::Down => {
                        tally.rejected_down += 1;
                        if !self.down[shard] {
                            self.down[shard] = true;
                            self.report.outage_windows += 1;
                        }
                    }
                    SubmitError::Shed => tally.shed += 1,
                    SubmitError::Deadline => tally.deadline += 1,
                    SubmitError::Faulted => tally.faulted += 1,
                    SubmitError::ShuttingDown => tally.shutting_down += 1,
                }
                false
            }
        };
        if self.down.iter().any(|d| *d) {
            self.report.inside_total += 1;
            if accepted {
                self.report.inside_accepted += 1;
            }
        } else {
            self.report.outside_total += 1;
            if accepted {
                self.report.outside_accepted += 1;
            }
        }
    }

    /// Submit one request through the per-request path.
    fn submit_one(&mut self, daemon: &Daemon, req: Request, mode: FeedMode) {
        let primary = daemon.route(req.id.0);
        let outcome = submit_with_mode(daemon, req, mode);
        self.apply(primary, outcome);
    }

    /// Submit a window of requests, batching each shard-homogeneous
    /// group through [`Daemon::submit_batch`] and falling back to the
    /// per-request path for whatever the fast path refused. Per-shard
    /// submission order equals trace order (the exactness contract);
    /// only the interleaving *across* shards changes, which no ledger
    /// observes.
    fn submit_window(&mut self, daemon: &Daemon, window: &[Request], mode: FeedMode) {
        let n = daemon.shard_count();
        let mut groups: Vec<VecDeque<Request>> = vec![VecDeque::new(); n];
        for req in window {
            groups[daemon.route(req.id.0)].push_back(*req);
        }
        let wait = match mode {
            FeedMode::FailFast { push_timeout } => push_timeout,
            FeedMode::AwaitRecovery { push_timeout, .. } => push_timeout,
        };
        for (shard, mut group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // A refused whole batch (daemon draining) pushes nothing and
            // falls through to the per-request path, which tallies the cause.
            let pushed = daemon
                .submit_batch(shard, &mut group, Some(wait))
                .unwrap_or(0);
            for _ in 0..pushed {
                self.apply(
                    shard,
                    Ok(Accepted {
                        shard,
                        failover: false,
                    }),
                );
            }
            for req in group {
                self.submit_one(daemon, req, mode);
            }
        }
    }
}

/// Feed `requests` (trace order) into `daemon` from the calling thread,
/// at default admission (`High`, no deadline).
pub fn feed(daemon: &Daemon, requests: &[Request], mode: FeedMode) -> FeedReport {
    let mut state = FeedState::new(daemon.shard_count());
    for req in requests {
        state.submit_one(daemon, *req, mode);
    }
    state.report
}

/// Like [`feed`], but submits [`FEED_WINDOW`]-request windows through
/// the batched fast path ([`Daemon::submit_batch`], one ring-lock
/// acquisition per shard run) with per-request fallback for anything the
/// fast path refuses. Per-shard arrival order still equals trace order,
/// so surviving-shard ledgers stay comparable to the serial reference
/// and [`FeedReport::check_against`] holds exactly.
pub fn feed_batched(daemon: &Daemon, requests: &[Request], mode: FeedMode) -> FeedReport {
    let mut state = FeedState::new(daemon.shard_count());
    for window in requests.chunks(FEED_WINDOW) {
        state.submit_window(daemon, window, mode);
    }
    state.report
}

/// Feed an out-of-core chunk stream (e.g. [`cdn_trace::StreamingTrace`])
/// into `daemon`, one batched window per chunk, without ever holding the
/// whole trace in RAM. The first stream error aborts the feed and is
/// returned — everything submitted before it has already reached the
/// daemon (no partial report is fabricated for a broken trace).
pub fn feed_stream<I, E>(daemon: &Daemon, chunks: I, mode: FeedMode) -> Result<FeedReport, E>
where
    I: IntoIterator<Item = Result<TraceColumns, E>>,
{
    let mut state = FeedState::new(daemon.shard_count());
    for chunk in chunks {
        let chunk = chunk?;
        for window_start in (0..chunk.len()).step_by(FEED_WINDOW) {
            let window_end = (window_start + FEED_WINDOW).min(chunk.len());
            let window: Vec<Request> = (window_start..window_end).map(|i| chunk.get(i)).collect();
            state.submit_window(daemon, &window, mode);
        }
    }
    Ok(state.report)
}

fn submit_with_mode(
    daemon: &Daemon,
    req: Request,
    mode: FeedMode,
) -> Result<Accepted, (usize, SubmitError)> {
    match mode {
        FeedMode::FailFast { push_timeout } => {
            daemon.submit_classed(req, Admit::default(), Some(push_timeout))
        }
        FeedMode::AwaitRecovery {
            push_timeout,
            retry,
            give_up,
        } => {
            let deadline = Instant::now() + give_up;
            loop {
                match daemon.submit_classed(req, Admit::default(), Some(push_timeout)) {
                    Err((shard, e @ (SubmitError::Down | SubmitError::Shed))) => {
                        if Instant::now() >= deadline {
                            return Err((shard, e));
                        }
                        std::thread::sleep(retry);
                    }
                    other => return other,
                }
            }
        }
    }
}

/// How long the harness waits for a daemon to settle (a ring to drain, a
/// forced snapshot to commit, a shard to change state) before declaring
/// it stuck.
pub const SETTLE: Duration = Duration::from_secs(120);

/// The availability-measuring [`FeedMode`] of the chaos schedules: wait
/// out a full ring, take a down shard's rejection as the outage signal.
pub const FAIL_FAST: FeedMode = FeedMode::FailFast {
    push_timeout: Duration::from_secs(30),
};

/// The restart policy [`run_outages`] needs of its daemon: a backoff far
/// beyond any run, so a killed shard stays down until it is reset and
/// each outage covers an exact trace slice.
pub const STAY_DOWN: RestartConfig = RestartConfig {
    backoff_base_ms: 600_000,
    backoff_max_ms: 600_000,
    storm_threshold: 100,
    storm_window_ms: 600_000,
};

/// Block until every shard has served everything it accepted.
///
/// # Panics
/// If a shard has not quiesced within [`SETTLE`].
pub fn quiesce_all(daemon: &Daemon) {
    for shard in 0..daemon.shard_count() {
        assert!(
            daemon.await_quiesced(shard, SETTLE),
            "shard {shard} never quiesced"
        );
    }
}

/// Ask `shard` for a snapshot epoch now and block until at least one new
/// epoch is committed.
///
/// # Panics
/// If no new epoch is committed within [`SETTLE`].
pub fn force_snapshot(daemon: &Daemon, shard: usize) {
    let before = daemon.stats().shards[shard].snapshots_written;
    daemon.snapshot_shard(shard);
    let deadline = Instant::now() + SETTLE;
    while daemon.stats().shards[shard].snapshots_written == before {
        assert!(
            Instant::now() < deadline,
            "shard {shard} never committed the forced snapshot"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The crash protocol, once: realise `windows` — the very list
/// [`cdn_sim::run_routed_serial`] takes as its reference schedule — on a
/// live daemon fed `trace` in [`FAIL_FAST`] mode, and return the merged
/// client report plus the kills that fired.
///
/// Per window: feed calm up to `crash_index`; quiesce every shard, so the
/// victim's next tick is `processed + lost`; `before_kill(i)`; arm
/// [`FP_SHARD_WORKER`] at that tick; feed the crash request *alone* and
/// wait for the victim to park in `Backoff`, so that no later submit can
/// race the crash into the victim's ring; feed up to `end_index`;
/// `reset_shard` and wait for `Closed` (⇒ the revived incarnation's
/// restore counters are final); `after_revive(i)`. Then the tail of the
/// trace, and a last quiesce. The daemon must run under [`STAY_DOWN`]
/// ([`reset_shard`](Daemon::reset_shard) is the only revival), so the
/// victim is down for exactly `(crash_index, end_index)` on every run:
/// every counter of the report and of every shard is repeatable.
///
/// # Panics
/// If the windows are not in trace order and disjoint, a `crash_index` is
/// not a primary request of its `shard`, or the daemon does not reach an
/// expected state within [`SETTLE`].
pub fn run_outages(
    daemon: &Daemon,
    trace: &[Request],
    windows: &[OutageWindow],
    mut before_kill: impl FnMut(usize),
    mut after_revive: impl FnMut(usize),
) -> (FeedReport, u64) {
    let mut report = FeedReport::empty(daemon.shard_count());
    let mut feed_slice = |slice: std::ops::Range<usize>| {
        report.absorb(&feed(daemon, &trace[slice], FAIL_FAST));
    };
    let mut kills = 0u64;
    let mut pos = 0usize;
    for (i, w) in windows.iter().enumerate() {
        assert!(
            pos <= w.crash_index && w.crash_index < w.end_index && w.end_index <= trace.len(),
            "outage {i}: {w:?} out of order at trace position {pos}"
        );
        assert_eq!(
            daemon.route(trace[w.crash_index].id.0),
            w.shard,
            "outage {i}: the crash request is not a primary request of the victim"
        );
        feed_slice(pos..w.crash_index);
        quiesce_all(daemon);
        before_kill(i);
        let victim = daemon.stats().shards[w.shard];
        fault::arm(
            FP_SHARD_WORKER,
            FaultRule::OnKeys(
                vec![worker_fault_key(w.shard, victim.processed + victim.lost)],
                FaultAction::Panic(format!("injected kill of shard {}", w.shard)),
            ),
        );
        feed_slice(w.crash_index..w.crash_index + 1);
        assert!(
            daemon.await_shard_state(w.shard, ShardState::Backoff, SETTLE),
            "outage {i}: shard {} never went down",
            w.shard
        );
        kills += fault::fired(FP_SHARD_WORKER);
        fault::disarm(FP_SHARD_WORKER);
        feed_slice(w.crash_index + 1..w.end_index);
        daemon.reset_shard(w.shard);
        assert!(
            daemon.await_shard_state(w.shard, ShardState::Closed, SETTLE),
            "outage {i}: reset did not revive shard {}",
            w.shard
        );
        after_revive(i);
        pos = w.end_index;
    }
    feed_slice(pos..trace.len());
    quiesce_all(daemon);
    (report, kills)
}

/// Human-readable diff of a daemon shard ledger against the reference
/// [`RunMeasurement`] (None when u64-exact).
pub fn ledger_diff(
    shard: usize,
    snap: &ShardSnapshot,
    reference: &RunMeasurement,
) -> Option<String> {
    if snap.hits == reference.hits
        && snap.misses == reference.misses
        && snap.hit_bytes == reference.hit_bytes
        && snap.miss_bytes == reference.miss_bytes
    {
        return None;
    }
    Some(format!(
        "shard {shard}: daemon (hits {}, misses {}, hit_bytes {}, miss_bytes {}) \
         != reference (hits {}, misses {}, hit_bytes {}, miss_bytes {})",
        snap.hits,
        snap.misses,
        snap.hit_bytes,
        snap.miss_bytes,
        reference.hits,
        reference.misses,
        reference.hit_bytes,
        reference.miss_bytes
    ))
}

/// Human-readable diff of a daemon shard ledger against the routing-aware
/// reference [`RoutedShardLedger`] — including the work it absorbed as a
/// failover secondary and the requests it lost to its own crashes (None
/// when u64-exact).
pub fn routed_ledger_diff(
    shard: usize,
    snap: &ShardSnapshot,
    reference: &RoutedShardLedger,
) -> Option<String> {
    if snap.processed == reference.processed
        && snap.lost == reference.lost
        && snap.hits == reference.hits
        && snap.misses == reference.misses
        && snap.hit_bytes == reference.hit_bytes
        && snap.miss_bytes == reference.miss_bytes
        && snap.failover_in == reference.failover_in
    {
        return None;
    }
    Some(format!(
        "shard {shard}: daemon (processed {}, lost {}, hits {}, misses {}, \
         hit_bytes {}, miss_bytes {}, failover_in {}) \
         != routed reference (processed {}, lost {}, hits {}, misses {}, \
         hit_bytes {}, miss_bytes {}, failover_in {})",
        snap.processed,
        snap.lost,
        snap.hits,
        snap.misses,
        snap.hit_bytes,
        snap.miss_bytes,
        snap.failover_in,
        reference.processed,
        reference.lost,
        reference.hits,
        reference.misses,
        reference.hit_bytes,
        reference.miss_bytes,
        reference.failover_in
    ))
}
