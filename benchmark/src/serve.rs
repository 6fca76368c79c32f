//! The operator's workloads: the in-process `cdnd` daemon fed as fast as
//! it will take requests (closed loop, batched submits) and at a fixed
//! arrival rate (open loop, one classed submit per request).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cdn_cache::Request;
use cdn_sim::{BatchMode, PolicyKind, TraceCtx, TraceSource};
use cdn_trace::{TraceColumns, Workload as Profile};
use cdnd::{
    feed_batched, oracle_free_factory, Admit, ClientTally, Daemon, DaemonConfig, DaemonStats,
    FeedMode, Priority, RouteConfig, SnapshotConfig, SubmitError, FEED_WINDOW,
};

use crate::pace::{lateness_ns, Schedule};
use crate::replay::{density_of, generate_sized};
use crate::span::Tracer;
use crate::stats::percentile_sorted;
use crate::sys::{process_cpu_seconds, Placement};
use crate::workload::{cpu_between, Ctx, Ledger, Pass, Scale, Workload};

/// Requests of the closed-loop workload at full scale.
pub const SATURATED_REQUESTS: u64 = 2_000_000;
/// Ring depth of the closed-loop daemon.
pub const SATURATED_QUEUE: usize = 4_096;
/// Ring depth of the open-loop daemon. Class `Low` is shed at half of
/// it, and this shared box was seen to stall for 200 ms (200 k arrivals
/// at 1 Mreq/s), so half of it must hold half a second of traffic.
pub const PACED_QUEUE: usize = 1 << 20;
/// Requests per burst of the open loop.
pub const PACED_BURST: u64 = 64;
/// Offered rate of the open loop, requests per second.
pub const PACED_RATE: f64 = 1.0e6;
/// Seconds of open-loop traffic sent before anything is measured.
pub const PACED_WARMUP_S: f64 = 1.0;
/// Minimum gap between two `Daemon::stats()` polls (it takes the ring
/// lock twice, which the worker also needs).
pub const POLL_GAP_NS: u64 = 10_000;
/// A `submit_batch` call this long did not just copy a window: it found
/// the ring full and slept at least one 200 µs backpressure slice.
pub const BLOCKED_CALL_NS: u64 = 100_000;
/// How long after a `snapshot_shard` call burst latencies are attributed
/// to that snapshot's stall.
pub const STALL_WINDOW_NS: u64 = 250_000_000;

/// Inputs shared by both daemon workloads.
pub struct ServeInput {
    /// The trace, in submission order.
    pub trace: Vec<Request>,
    /// Cache bytes: the paper's 64 GB as a share of the working set.
    pub capacity: u64,
    /// Seed forwarded to the policy factory.
    pub seed: u64,
    /// Ledger of the library replay of the same trace.
    pub reference: Ledger,
    /// Policy-metadata bytes per resident object of that replay (the
    /// daemon exposes no footprint of its own).
    pub density: f64,
    /// Requests sent before the measured phase (open loop only).
    pub warmup_requests: u64,
    /// Spinners that keep the cores awake for as long as the input lives
    /// (closed loop only; the open loop places itself per pass). Held
    /// here and not per pass: fifty passes each starting two threads made
    /// peak RSS read anything from 139 to 167 MB.
    pub awake: Placement,
}

fn setup_serve(requests: u64, warmup_requests: u64, seed: u64) -> ServeInput {
    let (trace, capacity) = generate_sized(Profile::CdnT, requests, seed);
    let reference = {
        let cols = TraceColumns::from_requests(&trace);
        TraceSource::Columns(&cols)
            .replay(
                PolicyKind::Lru,
                capacity,
                &TraceCtx::without_oracle(requests, seed),
                BatchMode::Auto,
            )
            .expect("an in-RAM replay has no I/O to fail")
    };
    ServeInput {
        trace,
        capacity,
        seed,
        reference: Ledger::of(&reference),
        density: density_of(&reference),
        warmup_requests,
        awake: Placement::default(),
    }
}

/// One-shard LRU daemon over `input`'s cache.
fn spawn_daemon(
    input: &ServeInput,
    queue_capacity: usize,
    failover: bool,
    snap: SnapshotConfig,
) -> Result<Daemon, String> {
    let cfg = DaemonConfig {
        shards: 1,
        total_capacity: input.capacity,
        queue_capacity,
        worker_batch: 64,
        seed: input.seed,
        route: RouteConfig { failover },
        snap,
        ..DaemonConfig::default()
    };
    Daemon::spawn(
        cfg,
        oracle_free_factory(PolicyKind::Lru, input.trace.len() as u64, input.seed),
    )
    .map_err(|e| format!("daemon config rejected: {e}"))
}

/// Requests the client saw refused, by any cause.
fn refused(t: &ClientTally) -> u64 {
    t.shed + t.rejected_down + t.deadline + t.faulted + t.shutting_down
}

/// Fold a finished daemon run into `pass`: failures, ledger, and the
/// reconciliation of the client's tally with the daemon's own counters.
fn account(pass: &mut Pass, input: &ServeInput, tally: &ClientTally, stats: &DaemonStats) {
    let shard = &stats.shards[0];
    pass.attempted = tally.submitted;
    pass.failed = refused(tally) + shard.lost + shard.dropped_at_shutdown;
    pass.ledger = Ledger::of_shard(shard);
    pass.meta_bytes_per_obj = input.density;
    pass.observed.extend([
        ("refused_shed", tally.shed as f64),
        ("refused_down", tally.rejected_down as f64),
        ("refused_deadline", tally.deadline as f64),
        ("lost", shard.lost as f64),
        ("ring_peak_depth", shard.peak_depth as f64),
    ]);
    if pass.ledger != input.reference {
        pass.errors.push(format!(
            "shard ledger {:?} != library replay {:?}",
            pass.ledger, input.reference
        ));
    }
    let daemon_view = (
        shard.enqueued,
        shard.shed,
        shard.rejected_down,
        shard.rejected_deadline,
        shard.faulted_enqueues,
    );
    let client_view = (
        tally.accepted,
        tally.shed,
        tally.rejected_down,
        tally.deadline,
        tally.faulted,
    );
    if daemon_view != client_view {
        pass.errors.push(format!(
            "client tally (accepted, shed, down, deadline, faulted) {client_view:?} \
             != DaemonStats {daemon_view:?}"
        ));
    }
    if shard.processed + shard.lost + shard.dropped_at_shutdown != shard.enqueued {
        pass.errors.push(format!(
            "processed {} + lost {} + dropped {} != enqueued {}",
            shard.processed, shard.lost, shard.dropped_at_shutdown, shard.enqueued
        ));
    }
}

/// Closed loop: a fresh daemon per pass, the whole trace through
/// `feed_batched`, timed from the first submit until `shutdown` returns.
pub struct Saturated;

impl Workload for Saturated {
    const NAME: &'static str = "serve_saturated";
    type Input = ServeInput;

    fn setup(ctx: &Ctx) -> Result<ServeInput, String> {
        // Feeder and worker both sleep on the ring; keep their cores awake.
        Ok(ServeInput {
            awake: Placement::awake(),
            ..setup_serve(ctx.scale.requests(SATURATED_REQUESTS), 0, ctx.seed)
        })
    }

    fn pass(input: &ServeInput, _ctx: &Ctx, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let whole = tracer.begin("pass", "bench");
        let spawn = tracer.begin("Daemon::spawn", "cdnd");
        let daemon = match spawn_daemon(input, SATURATED_QUEUE, false, SnapshotConfig::default()) {
            Ok(d) => d,
            Err(e) => {
                pass.errors.push(e);
                return pass;
            }
        };
        tracer.end(spawn, 0);
        let mode = FeedMode::FailFast {
            push_timeout: Duration::from_secs(60),
        };

        let spun0 = input.awake.spinner_cpu_seconds();
        let cpu0 = process_cpu_seconds();
        let t0 = Instant::now();
        let tally = if tracer.enabled() {
            feed_windows_traced(&daemon, &input.trace, tracer)
        } else {
            feed_batched(&daemon, &input.trace, mode).per_shard[0]
        };
        let drain = tracer.begin("Daemon::shutdown", "cdnd");
        let stats = daemon.shutdown();
        tracer.end(drain, stats.shards[0].processed);
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass.cpu_s =
            cpu_between(cpu0, process_cpu_seconds()) - (input.awake.spinner_cpu_seconds() - spun0);
        tracer.end(whole, stats.shards[0].processed);

        pass.completed = stats.shards[0].processed;
        account(&mut pass, input, &tally, &stats);
        pass
    }
}

/// What `feed_batched` does at one shard, with a span around every
/// `submit_batch` call: one window of [`FEED_WINDOW`] requests per call,
/// per-request fallback for anything the fast path hands back.
fn feed_windows_traced(daemon: &Daemon, trace: &[Request], tracer: &mut Tracer) -> ClientTally {
    let mut tally = ClientTally::default();
    let wait = Duration::from_secs(60);
    for window in trace.chunks(FEED_WINDOW) {
        let mut batch: VecDeque<Request> = window.iter().copied().collect();
        let span = tracer.begin("Daemon::submit_batch", "cdnd");
        let pushed = daemon.submit_batch(0, &mut batch, Some(wait)).unwrap_or(0) as u64;
        tracer.end(span, pushed);
        tally.submitted += pushed;
        tally.accepted += pushed;
        for req in batch {
            let span = tracer.begin("Daemon::submit_classed", "cdnd");
            let outcome = daemon.submit_classed(req, Admit::default(), Some(wait));
            tracer.end(span, 1);
            tally_outcome(&mut tally, outcome.map(|_| ()).map_err(|(_, e)| e));
        }
    }
    tally
}

fn tally_outcome(tally: &mut ClientTally, outcome: Result<(), SubmitError>) {
    tally.submitted += 1;
    match outcome {
        Ok(()) => tally.accepted += 1,
        Err(SubmitError::Shed) => tally.shed += 1,
        Err(SubmitError::Down) => tally.rejected_down += 1,
        Err(SubmitError::Deadline) => tally.deadline += 1,
        Err(SubmitError::Faulted) => tally.faulted += 1,
        Err(SubmitError::ShuttingDown) => tally.shutting_down += 1,
    }
}

/// Open loop: bursts of 64 classed submits due every 64 µs, each burst
/// timed from when it was *due* until the daemon counts its last
/// request processed.
pub struct Paced;

/// Bursts sent but not yet seen served, and the latencies of those that
/// were.
#[derive(Default)]
struct Watcher {
    /// (accepted-so-far once this burst is in, due ns, measured?)
    in_flight: VecDeque<(u64, u64, bool)>,
    /// (due ns, latency µs) of every measured burst seen served.
    lat: Vec<(u64, f64)>,
    last_poll_ns: u64,
    /// When the most recent burst was seen served.
    done_ns: u64,
    polls: u64,
}

impl Watcher {
    /// Read the daemon's `processed` counter once and retire every burst
    /// it covers, stamping each with the time the read returned.
    fn poll(&mut self, daemon: &Daemon, origin: &Instant, tracer: &mut Tracer) -> u64 {
        let span = tracer.begin("Daemon::stats", "cdnd");
        let processed = daemon.stats().shards[0].processed;
        tracer.end(span, 0);
        self.polls += 1;
        let seen = origin.elapsed().as_nanos() as u64;
        while self
            .in_flight
            .front()
            .is_some_and(|&(upto, _, _)| upto <= processed)
        {
            let (_, due, measured) = self.in_flight.pop_front().expect("front checked");
            if measured {
                self.lat.push((due, seen.saturating_sub(due) as f64 / 1e3));
            }
            self.done_ns = seen;
        }
        self.last_poll_ns = seen;
        processed
    }
}

impl Paced {
    /// Requests the open loop sends, and how many of them are warm-up.
    pub fn requests_for(ctx: &Ctx) -> (u64, u64) {
        match ctx.scale {
            Scale::Full => (
                ((PACED_WARMUP_S + ctx.budget_s) * PACED_RATE) as u64,
                (PACED_WARMUP_S * PACED_RATE) as u64,
            ),
            Scale::Quick => (750_000, 125_000),
        }
    }

    /// Where the traced run keeps its snapshot epochs.
    fn snapshot_dir(ctx: &Ctx) -> PathBuf {
        ctx.out_dir.join(format!("snap-{}", ctx.seed))
    }
}

impl Workload for Paced {
    const NAME: &'static str = "serve_paced";
    const SINGLE_PASS: bool = true;
    type Input = ServeInput;

    fn setup(ctx: &Ctx) -> Result<ServeInput, String> {
        let (requests, warmup) = Self::requests_for(ctx);
        Ok(setup_serve(requests, warmup, ctx.seed))
    }

    /// One open-loop run. With the tracer on, snapshots are enabled
    /// (manual epochs only), four are requested during the measured
    /// phase and the daemon is respawned over them afterwards.
    fn pass(input: &ServeInput, ctx: &Ctx, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let traced = tracer.enabled();
        let snap = if traced {
            let dir = Self::snapshot_dir(ctx);
            let _ = std::fs::remove_dir_all(&dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                pass.errors.push(format!("create {}: {e}", dir.display()));
                return pass;
            }
            SnapshotConfig {
                // Never on cadence: only the four explicit requests and
                // the final epoch at drain.
                interval: u64::MAX,
                keep: 3,
                dir: Some(dir),
            }
        } else {
            SnapshotConfig::default()
        };
        // Generator on one core, daemon on the other, which is kept awake.
        let (daemon, placement) =
            Placement::split(|| spawn_daemon(input, PACED_QUEUE, true, snap.clone()));
        let daemon = match daemon {
            Ok(d) => d,
            Err(e) => {
                pass.errors.push(e);
                return pass;
            }
        };

        let sched = Schedule::at_rate(PACED_BURST, PACED_RATE);
        let n = input.trace.len() as u64;
        let bursts = sched.bursts_for(n);
        let warm_bursts = input.warmup_requests / PACED_BURST;
        let measured_bursts = bursts - warm_bursts;
        let snapshot_at: Vec<u64> = if traced {
            (1..=4)
                .map(|i| warm_bursts + measured_bursts * i / 5)
                .collect()
        } else {
            Vec::new()
        };
        let mut snapshot_called_ns: Vec<u64> = Vec::new();

        let mut watch = Watcher {
            lat: Vec::with_capacity(measured_bursts as usize),
            ..Watcher::default()
        };
        let mut late_us: Vec<f64> = Vec::with_capacity(measured_bursts as usize);
        let mut tally = ClientTally::default();
        let mut cpu0 = None;
        let mut spun0 = 0.0;
        let mut measured_from_ns = 0u64;
        let mut processed_at_start = 0u64;

        let whole = tracer.begin("pass", "bench");
        let origin = Instant::now();
        let now_ns = || origin.elapsed().as_nanos() as u64;

        for k in 0..bursts {
            let due = sched.due_ns(k);
            if k == warm_bursts {
                // The measured phase starts at this burst's due time; the
                // reading costs tens of µs, inside the slack before it.
                cpu0 = process_cpu_seconds();
                spun0 = placement.spinner_cpu_seconds();
                processed_at_start = watch.poll(&daemon, &origin, tracer);
                measured_from_ns = due;
            }
            if snapshot_at.contains(&k) {
                let span = tracer.begin("Daemon::snapshot_shard", "cdnd");
                daemon.snapshot_shard(0);
                tracer.end(span, 0);
                snapshot_called_ns.push(now_ns());
            }
            let sent = loop {
                let now = now_ns();
                if now >= due {
                    break now;
                }
                if !watch.in_flight.is_empty() && now - watch.last_poll_ns >= POLL_GAP_NS {
                    watch.poll(&daemon, &origin, tracer);
                } else {
                    std::hint::spin_loop();
                }
            };
            let range = sched.burst_range(k, n);
            let span = tracer.begin("Daemon::submit_classed x burst", "cdnd");
            for (i, req) in input.trace[range.clone()].iter().enumerate() {
                let class = match (range.start + i) & 3 {
                    0 => Priority::High,
                    3 => Priority::Low,
                    _ => Priority::Normal,
                };
                let admit = Admit {
                    class,
                    deadline_depth: None,
                };
                let outcome = daemon.submit_classed(*req, admit, None);
                tally_outcome(&mut tally, outcome.map(|_| ()).map_err(|(_, e)| e));
            }
            tracer.end(span, range.len() as u64);
            let measured = k >= warm_bursts;
            if measured {
                late_us.push(lateness_ns(sent, due) as f64 / 1e3);
            }
            watch.in_flight.push_back((tally.accepted, due, measured));
        }
        // Everything is sent; watch the tail drain.
        let give_up = now_ns() + 60_000_000_000;
        while !watch.in_flight.is_empty() && now_ns() < give_up {
            if now_ns() - watch.last_poll_ns >= POLL_GAP_NS {
                watch.poll(&daemon, &origin, tracer);
            } else {
                std::hint::spin_loop();
            }
        }
        let processed_at_end = watch.poll(&daemon, &origin, tracer);
        pass.cpu_s =
            cpu_between(cpu0, process_cpu_seconds()) - (placement.spinner_cpu_seconds() - spun0);
        pass.wall_s = watch.done_ns.saturating_sub(measured_from_ns) as f64 / 1e9;
        pass.completed = processed_at_end - processed_at_start;
        if !watch.in_flight.is_empty() {
            pass.errors.push(format!(
                "{} bursts still unserved 60 s after the last submit",
                watch.in_flight.len()
            ));
        }
        let drain = tracer.begin("Daemon::shutdown", "cdnd");
        let stats = daemon.shutdown();
        tracer.end(drain, 0);
        tracer.end(whole, stats.shards[0].processed);
        drop(placement);
        account(&mut pass, input, &tally, &stats);

        late_us.sort_by(f64::total_cmp);
        pass.observed.extend([
            ("generator_late_p50_us", percentile_sorted(&late_us, 50.0)),
            ("generator_late_p99_us", percentile_sorted(&late_us, 99.0)),
        ]);
        pass.observed.push(("stats_polls", watch.polls as f64));
        let stall_ms = snapshot_called_ns
            .iter()
            .map(|&called| {
                watch
                    .lat
                    .iter()
                    .filter(|(due, _)| (called..called + STALL_WINDOW_NS).contains(due))
                    .map(|&(_, us)| us / 1e3)
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        pass.observed.push(("snapshot_stall_ms", stall_ms));
        pass.lat_us = watch.lat.into_iter().map(|(_, us)| us).collect();

        if traced {
            let span = tracer.begin("warm restart", "cdnd");
            let t0 = Instant::now();
            match spawn_daemon(input, PACED_QUEUE, true, snap) {
                Ok(daemon) => {
                    while daemon.stats().shards[0].restored_objects == 0
                        && t0.elapsed() < Duration::from_secs(30)
                    {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    if daemon.stats().shards[0].restored_objects > 0 {
                        pass.observed
                            .push(("restore_ms", t0.elapsed().as_secs_f64() * 1e3));
                    } else {
                        pass.errors
                            .push("respawn over the snapshot directory restored nothing".into());
                    }
                    daemon.shutdown();
                }
                Err(e) => pass.errors.push(e),
            }
            tracer.end(span, 0);
            let _ = std::fs::remove_dir_all(Self::snapshot_dir(ctx));
        }
        pass
    }
}
