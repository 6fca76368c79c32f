//! The traced run: per-layer metrics, measured from outside.
//!
//! A traced run of workload `W` reruns `W` with spans recorded around
//! every call into a layer, reruns the other four workloads the same way
//! at 1/16 scale (so the result line carries every per-layer metric,
//! whichever workload was asked for), and then runs the isolated probes.
//! A metric that a workload owns is authoritative on that workload's own
//! traced run; `run.sh --trace` assembles its table that way.

use std::collections::BTreeMap;
use std::time::Instant;

use cdn_cache::CachePolicy;
use cdn_policies::replacement::Lru;
use cdn_sim::{run_policy, run_policy_dyn, run_sharded_serial, BatchMode, PolicyKind, TraceCtx};
use cdn_trace::io::read_binary_columns;
use cdn_trace::{partition_columns, ChunkIter, TraceColumns};
use scip::Scip;

use crate::json::Value;
use crate::probes::{self, Readings};
use crate::replay::{
    Hit, Miss, RamInput, RamProfile, RamReplay, StreamInput, StreamReplay, RAM_POLICIES,
    STREAM_CAPACITY,
};
use crate::report::{format_sig, metric_of};
use crate::serve::{Paced, Saturated, ServeInput, BLOCKED_CALL_NS};
use crate::span::{self_time_by_layer, Span, Tracer};
use crate::stats::{median, percentile_sorted};
use crate::workload::{run_phase, Ctx, Outcome, Phase, Scale, Workload, WORKLOADS};
use crate::Args;

/// One per-layer metric: its unit, which way is better, the workload
/// whose traced run owns it (`None`: an isolated probe, the same in
/// every run) and the end-to-end metric@workload it should move.
pub struct LayerMetric {
    /// Name, prefixed with the crate it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Owning workload, if measured inside one.
    pub owner: Option<&'static str>,
    /// The end-to-end metric@workload this should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    owner: Option<&'static str>,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        owner,
        moves,
    }
}

const HIT: Option<&str> = Some("replay_hit");
const MISS: Option<&str> = Some("replay_miss");
const STREAM: Option<&str> = Some("replay_stream");
const SAT: Option<&str> = Some("serve_saturated");
const PACED: Option<&str> = Some("serve_paced");

/// Every per-layer metric, in reporting order. `BENCHMARK.json` lists the
/// same names (a unit test keeps the two in step).
pub const PER_LAYER: &[LayerMetric] = &[
    m("cdn-trace.generate_ns_per_req", "ns", "lower", None, "setup_s@all"),
    m("cdn-trace.generate_binary_ns_per_req", "ns", "lower", STREAM, "setup_s@replay_stream"),
    m("cdn-trace.crc32_gb_s", "GB/s", "higher", None, "cpu_us_per_req@replay_stream"),
    m("cdn-trace.decode_ns_per_req", "ns", "lower", STREAM, "cpu_us_per_req@replay_stream; throughput_mreq_s there only if decode becomes the slower stage"),
    m("cdn-trace.chunks", "count", "lower", STREAM, "cpu_us_per_req@replay_stream"),
    m("cdn-trace.stream_wait_share", "ratio", "lower", STREAM, "throughput_mreq_s@replay_stream"),
    m("cdn-trace.stream_tax_ns", "ns", "lower", STREAM, "throughput_mreq_s@replay_stream; zero on replay_hit"),
    m("cdn-trace.partition_ns_per_req", "ns", "lower", None, "none end-to-end (feeds cdn-sim.sharded2_mreq_s)"),
    m("cdn-cache.index_get_hit_ns", "ns", "lower", None, "throughput_mreq_s@replay_hit"),
    m("cdn-cache.index_get_miss_ns", "ns", "lower", None, "throughput_mreq_s@replay_miss"),
    m("cdn-cache.index_insert_remove_ns", "ns", "lower", None, "throughput_mreq_s@replay_miss"),
    m("cdn-cache.lruqueue_hit_ns", "ns", "lower", None, "throughput_mreq_s@replay_hit"),
    m("cdn-cache.lruqueue_miss_ns", "ns", "lower", None, "throughput_mreq_s@replay_miss"),
    m("cdn-cache.lruqueue_bytes_per_obj", "B", "lower", None, "meta_bytes_per_obj@replay_stream"),
    m("cdn-cache.ghost_add_delete_ns", "ns", "lower", None, "throughput_mreq_s@replay_miss"),
    m("cdn-cache.key_shard_ns", "ns", "lower", None, "lat_p50_us@serve_paced, cpu_us_per_req@serve_saturated"),
    m("cdn-cache.route_failover_ns", "ns", "lower", None, "lat_p50_us@serve_paced"),
    m("cdn-policies.lru_ns_per_req", "ns", "lower", None, "throughput_mreq_s@replay_*"),
    m("cdn-policies.lru_bytes_per_obj", "B", "lower", None, "meta_bytes_per_obj@replay_stream"),
    m("cdn-policies.dip_ns_per_req", "ns", "lower", None, "guard: no workload replays DIP"),
    m("cdn-policies.dip_bytes_per_obj", "B", "lower", None, "guard: no workload replays DIP"),
    m("cdn-policies.ship_ns_per_req", "ns", "lower", None, "guard: no workload replays SHiP"),
    m("cdn-policies.ship_bytes_per_obj", "B", "lower", None, "guard: no workload replays SHiP"),
    m("cdn-policies.ascip_ns_per_req", "ns", "lower", None, "guard: no workload replays ASC-IP"),
    m("cdn-policies.ascip_bytes_per_obj", "B", "lower", None, "guard: no workload replays ASC-IP"),
    m("cdn-policies.s4lru_ns_per_req", "ns", "lower", None, "guard: no workload replays S4LRU"),
    m("cdn-policies.s4lru_bytes_per_obj", "B", "lower", None, "guard: no workload replays S4LRU"),
    m("cdn-policies.gdsf_ns_per_req", "ns", "lower", None, "guard: no workload replays GDSF"),
    m("cdn-policies.gdsf_bytes_per_obj", "B", "lower", None, "guard: no workload replays GDSF"),
    m("cdn-policies.tinylfu_ns_per_req", "ns", "lower", None, "guard: no workload replays TinyLFU"),
    m("cdn-policies.tinylfu_bytes_per_obj", "B", "lower", None, "guard: no workload replays TinyLFU"),
    m("scip.ns_per_req", "ns", "lower", None, "throughput_mreq_s@replay_*"),
    m("scip.bytes_per_obj", "B", "lower", None, "meta_bytes_per_obj@replay_hit, @replay_miss"),
    m("cdn-policies.lru_hit_ns", "ns", "lower", HIT, "throughput_mreq_s@replay_hit"),
    m("scip.hit_ns", "ns", "lower", HIT, "throughput_mreq_s@replay_hit"),
    m("cdn-policies.lru_miss_ns", "ns", "lower", MISS, "throughput_mreq_s@replay_miss"),
    m("scip.miss_ns", "ns", "lower", MISS, "throughput_mreq_s@replay_miss"),
    m("scip.omega_m_final", "ratio", "higher", MISS, "object_miss_ratio@replay_miss (explains a shift)"),
    m("scip.lambda_final", "ratio", "lower", MISS, "object_miss_ratio@replay_miss (explains a shift)"),
    m("cdn-sim.replay_overhead_ns", "ns", "lower", None, "throughput_mreq_s@replay_hit"),
    m("cdn-sim.dyn_minus_mono_ns", "ns", "lower", MISS, "throughput_mreq_s@replay_miss (ROADMAP item 3: keep or delete)"),
    m("cdn-sim.batch8_minus_off_ns", "ns", "lower", MISS, "throughput_mreq_s@replay_miss (ROADMAP item 3: keep or delete)"),
    m("cdn-sim.sharded2_mreq_s", "Mreq/s", "higher", None, "none end-to-end (2 threads, no spare core)"),
    m("cdnd.ring_push_pop_ns", "ns", "lower", None, "lat_p50_us@serve_paced"),
    m("cdnd.ring_push_many_ns", "ns", "lower", None, "throughput_mreq_s@serve_saturated"),
    m("cdnd.submit_classed_ns", "ns", "lower", PACED, "lat_p50_us@serve_paced"),
    m("cdnd.submit_batch_ns", "ns", "lower", SAT, "cpu_us_per_req@serve_saturated"),
    m("cdnd.feeder_blocked_share", "ratio", "higher", SAT, "tells worker-bound (high) from feeder-bound (low)"),
    m("cdnd.ring_peak_depth", "count", "lower", SAT, "tells worker-bound from feeder-bound"),
    m("cdnd.worker_ns_per_req", "ns", "lower", SAT, "throughput_mreq_s@serve_saturated"),
    m("cdnd.daemon_tax_ns", "ns", "lower", SAT, "throughput_mreq_s@serve_saturated (ROADMAP item 2)"),
    m("cdnd.worker_unattributed_ns", "ns", "lower", SAT, "throughput_mreq_s@serve_saturated; what inside tracing must split"),
    m("cdnd.library_ratio", "ratio", "higher", SAT, "throughput_mreq_s@serve_saturated (ROADMAP item 2 target >= 0.8)"),
    m("cdnd.refused_shed", "count", "lower", PACED, "served_share@serve_*"),
    m("cdnd.refused_down", "count", "lower", PACED, "served_share@serve_*"),
    m("cdnd.refused_deadline", "count", "lower", PACED, "served_share@serve_*"),
    m("cdnd.lost", "count", "lower", PACED, "served_share@serve_*"),
    m("cdnd.window_lat_p99_us", "us", "lower", PACED, "informational: the tail lat_p90_us stops short of"),
    m("cdnd.generator_late_p99_us", "us", "lower", PACED, "informational: how late the open loop itself ran"),
    m("cdnd.stats_poll_ns", "ns", "lower", PACED, "informational: resolution of the latency measurement"),
    m("cdnd.snapshot_write_ms", "ms", "lower", None, "none gated (fsync on a shared disk does not repeat)"),
    m("cdnd.snapshot_write_ns_per_obj", "ns", "lower", None, "none gated"),
    m("cdnd.snapshot_load_ns_per_obj", "ns", "lower", None, "none gated"),
    m("cdnd.snapshot_stall_ms", "ms", "lower", PACED, "none gated; foreground stall of one epoch (ROADMAP items 1, 4)"),
    m("cdnd.restore_ms", "ms", "lower", PACED, "none gated"),
    m("cdnd.spawn_ms", "ms", "lower", SAT, "none gated"),
    m("cdnd.drain_ms", "ms", "lower", SAT, "none gated"),
    m("tdc.serve_ns_per_req", "ns", "lower", None, "none end-to-end; guard for ROADMAP item 3's breaker/router merge"),
    m("tdc.resilient_serve_ns_per_req", "ns", "lower", None, "none end-to-end; guard for ROADMAP item 3"),
    m("bench.trace_overhead_share.replay_hit", "ratio", "lower", HIT, "1 - traced / untraced throughput_mreq_s"),
    m("bench.trace_overhead_share.replay_miss", "ratio", "lower", MISS, "1 - traced / untraced throughput_mreq_s"),
    m("bench.trace_overhead_share.replay_stream", "ratio", "lower", STREAM, "1 - traced / untraced throughput_mreq_s"),
    m("bench.trace_overhead_share.serve_saturated", "ratio", "lower", SAT, "1 - traced / untraced throughput_mreq_s"),
    m("bench.trace_overhead_share.serve_paced", "ratio", "lower", PACED, "1 - traced / untraced throughput_mreq_s"),
    m("bench.unattributed_share.replay_hit", "ratio", "lower", HIT, "share of traced ns/req no layer span covers"),
    m("bench.unattributed_share.replay_miss", "ratio", "lower", MISS, "share of traced ns/req no layer span covers"),
    m("bench.unattributed_share.replay_stream", "ratio", "lower", STREAM, "share of traced ns/req no layer span covers"),
    m("bench.unattributed_share.serve_saturated", "ratio", "lower", SAT, "share of traced ns/req no layer span covers"),
    m("bench.unattributed_share.serve_paced", "ratio", "lower", PACED, "share of traced ns/req no layer span covers"),
];

/// A workload that can say what its traced passes showed about the
/// layers it calls.
trait Layered: Workload {
    /// Layer metrics this workload owns, from its untraced and traced
    /// phases, the traced spans, and whatever extra it runs on its input.
    fn layer_metrics(
        input: &Self::Input,
        untraced: &Phase,
        traced: &Phase,
        spans: &[Span],
        out: &mut Readings,
    );
}

/// Total duration and count of the spans called `name`.
fn span_totals(spans: &[Span], name: &str) -> (u64, u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0, 0), |(ns, count, calls), s| {
            (ns + (s.end_ns - s.start_ns), count + s.count, calls + 1)
        })
}

/// Nanoseconds per covered request of the spans called `name`.
fn span_ns_per_count(spans: &[Span], name: &str) -> f64 {
    let (ns, count, _) = span_totals(spans, name);
    ns as f64 / count.max(1) as f64
}

/// Median duration in ms of the spans called `name`.
fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    median(&durations)
}

impl<P: RamProfile> Layered for RamReplay<P> {
    fn layer_metrics(
        input: &RamInput,
        _untraced: &Phase,
        _traced: &Phase,
        spans: &[Span],
        out: &mut Readings,
    ) {
        let hit = P::NAME == "replay_hit";
        out.push((
            if hit {
                "cdn-policies.lru_hit_ns"
            } else {
                "cdn-policies.lru_miss_ns"
            },
            span_ns_per_count(spans, RAM_POLICIES[0].1),
        ));
        out.push((
            if hit { "scip.hit_ns" } else { "scip.miss_ns" },
            span_ns_per_count(spans, RAM_POLICIES[1].1),
        ));
        if hit {
            return;
        }
        // The rest is measured on the replay_miss trace.
        let n = input.cols.len() as u64;
        let mut scip = Scip::with_config(input.capacity, probes::scip_config(n, input.seed));
        cdn_policies::replay_columns(&mut scip, &input.cols);
        out.push(("scip.omega_m_final", scip.core().omega_m()));
        out.push(("scip.lambda_final", scip.core().lambda()));

        let both = |f: &dyn Fn(PolicyKind) -> f64| -> f64 {
            RAM_POLICIES
                .iter()
                .map(|&(kind, _, _)| f(kind))
                .sum::<f64>()
                / 2.0
        };
        let requests = input.cols.to_requests();
        let ctx = TraceCtx::without_oracle(n, input.seed);
        let dynamic =
            both(&|kind| run_policy_dyn(kind, input.capacity, &requests, &ctx).ns_per_request);
        let mono = both(&|kind| run_policy(kind, input.capacity, &requests, &ctx).ns_per_request);
        out.push(("cdn-sim.dyn_minus_mono_ns", dynamic - mono));
        drop(requests);
        let batch8 = both(&|kind| input.replay(kind, BatchMode::Fixed(8)).ns_per_request);
        let off = both(&|kind| input.replay(kind, BatchMode::Off).ns_per_request);
        out.push(("cdn-sim.batch8_minus_off_ns", batch8 - off));
    }
}

impl Layered for StreamReplay {
    fn layer_metrics(
        input: &StreamInput,
        untraced: &Phase,
        _traced: &Phase,
        spans: &[Span],
        out: &mut Readings,
    ) {
        out.push((
            "cdn-trace.generate_binary_ns_per_req",
            input.generate_s * 1e9 / input.requests as f64,
        ));
        let (waited, _, _) = span_totals(spans, "StreamingTrace::next");
        let (wall, _, _) = span_totals(spans, "pass");
        out.push((
            "cdn-trace.stream_wait_share",
            waited as f64 / wall.max(1) as f64,
        ));

        // Decode alone: read + CRC + columnar decode, one thread.
        let t0 = Instant::now();
        let mut chunks = 0u64;
        let mut decoded = 0u64;
        if let Ok(mut iter) = ChunkIter::open(&input.path) {
            let mut cols = TraceColumns::new();
            while let Ok(n) = iter.next_chunk_columns(&mut cols) {
                if n == 0 {
                    break;
                }
                chunks += 1;
                decoded += n as u64;
                cols = TraceColumns::new();
            }
        }
        let decode_ns = t0.elapsed().as_nanos() as f64;
        let complete = decoded == input.requests;
        out.push((
            "cdn-trace.decode_ns_per_req",
            if complete {
                decode_ns / decoded as f64
            } else {
                f64::NAN
            },
        ));
        out.push(("cdn-trace.chunks", chunks as f64));

        // The same records replayed from RAM, same policy, same cache.
        let in_ram = read_binary_columns(&input.path).map(|cols| {
            PolicyKind::Lru
                .replay_batched(STREAM_CAPACITY, &cols, &input.trace_ctx(), BatchMode::Auto)
                .ns_per_request
        });
        out.push((
            "cdn-trace.stream_tax_ns",
            in_ram.map_or(f64::NAN, |ram| untraced.ns_per_req() - ram),
        ));
    }
}

impl Layered for Saturated {
    fn layer_metrics(
        input: &ServeInput,
        untraced: &Phase,
        traced: &Phase,
        spans: &[Span],
        out: &mut Readings,
    ) {
        let calls: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "Daemon::submit_batch")
            .collect();
        let unblocked: Vec<f64> = calls
            .iter()
            .filter(|s| s.end_ns - s.start_ns < BLOCKED_CALL_NS && s.count > 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.count as f64)
            .collect();
        out.push(("cdnd.submit_batch_ns", median(&unblocked)));
        out.push((
            "cdnd.feeder_blocked_share",
            1.0 - unblocked.len() as f64 / calls.len().max(1) as f64,
        ));
        out.push((
            "cdnd.ring_peak_depth",
            traced.passes[0]
                .observation("ring_peak_depth")
                .unwrap_or(f64::NAN),
        ));
        out.push(("cdnd.spawn_ms", span_median_ms(spans, "Daemon::spawn")));
        out.push(("cdnd.drain_ms", span_median_ms(spans, "Daemon::shutdown")));

        let worker_ns = traced.ns_per_req();
        out.push(("cdnd.worker_ns_per_req", worker_ns));
        // The bare loop on a concrete LRU, same trace, same cache.
        let mut lru = Lru::new(input.capacity);
        let t0 = Instant::now();
        std::hint::black_box(cdn_policies::replay(&mut lru, &input.trace));
        let bare_ns = t0.elapsed().as_nanos() as f64 / input.trace.len() as f64;
        std::hint::black_box(lru.used_bytes());
        // `cdnd.worker_unattributed_ns` = this minus the ring probe, which
        // runs later; `run_traced` derives it.
        out.push(("cdnd.daemon_tax_ns", worker_ns - bare_ns));

        let sharded = partition_columns(&TraceColumns::from_requests(&input.trace), 1);
        let library = run_sharded_serial(
            PolicyKind::Lru,
            input.capacity,
            &sharded,
            input.seed,
            BatchMode::Off,
        );
        out.push((
            "cdnd.library_ratio",
            untraced.throughput_mreq_s() * 1e6 / library.aggregate_tps(),
        ));
    }
}

impl Layered for Paced {
    fn layer_metrics(
        _input: &ServeInput,
        untraced: &Phase,
        traced: &Phase,
        spans: &[Span],
        out: &mut Readings,
    ) {
        out.push((
            "cdnd.submit_classed_ns",
            span_ns_per_count(spans, "Daemon::submit_classed x burst"),
        ));
        let (poll_ns, _, polls) = span_totals(spans, "Daemon::stats");
        out.push(("cdnd.stats_poll_ns", poll_ns as f64 / polls.max(1) as f64));
        let quiet = &untraced.passes[0];
        let mut lat = quiet.lat_us.clone();
        lat.sort_by(f64::total_cmp);
        out.push(("cdnd.window_lat_p99_us", percentile_sorted(&lat, 99.0)));
        let observed =
            |pass: &crate::workload::Pass, name: &str| pass.observation(name).unwrap_or(f64::NAN);
        out.push((
            "cdnd.generator_late_p99_us",
            observed(quiet, "generator_late_p99_us"),
        ));
        let noisy = &traced.passes[0];
        for (metric, name) in [
            ("cdnd.refused_shed", "refused_shed"),
            ("cdnd.refused_down", "refused_down"),
            ("cdnd.refused_deadline", "refused_deadline"),
            ("cdnd.lost", "lost"),
        ] {
            out.push((metric, observed(quiet, name) + observed(noisy, name)));
        }
        out.push((
            "cdnd.snapshot_stall_ms",
            observed(noisy, "snapshot_stall_ms"),
        ));
        out.push(("cdnd.restore_ms", observed(noisy, "restore_ms")));
    }
}

/// Passes per phase of a quick-scale traced instance.
const QUICK_TRACED_PASSES: usize = 2;

/// One traced instance of `W`: set up, warm up, an untraced phase, a
/// traced phase, then the workload's layer metrics plus the tracing
/// overhead and the share of the traced time no layer span covers.
fn traced_instance<W: Layered>(
    ctx: &Ctx,
    write_spans: bool,
    readings: &mut Readings,
    run: &mut Outcome,
) -> Result<(), String> {
    let input = W::setup(ctx)?;
    let fixed = (ctx.scale == Scale::Quick).then_some(QUICK_TRACED_PASSES);
    let mut off = Tracer::new(false);
    if !W::SINGLE_PASS {
        run_phase::<W>(&input, ctx, &mut off, 1, Some(1));
    }
    let untraced = run_phase::<W>(&input, ctx, &mut off, 2, fixed);
    let mut tracer = Tracer::new(true);
    let traced = run_phase::<W>(&input, ctx, &mut tracer, 2, fixed);

    let overhead = 1.0 - traced.throughput_mreq_s() / untraced.throughput_mreq_s();
    // Attribution is over the `pass` spans and everything under them.
    let spans = tracer.spans();
    let (pass_ns, pass_requests, _) = span_totals(spans, "pass");
    let by_layer = self_time_by_layer(spans, "pass");
    let bench_ns = by_layer
        .iter()
        .find(|(layer, _)| *layer == "bench")
        .map_or(0, |&(_, ns)| ns);
    readings.push((bench_metric("trace_overhead_share", W::NAME), overhead));
    readings.push((
        bench_metric("unattributed_share", W::NAME),
        bench_ns as f64 / pass_ns.max(1) as f64,
    ));
    W::layer_metrics(&input, &untraced, &traced, spans, readings);

    if write_spans {
        let path = ctx.out_dir.join(format!("trace-{}.jsonl", W::NAME));
        std::fs::create_dir_all(&ctx.out_dir)
            .and_then(|()| tracer.write_jsonl(&path, W::NAME))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let per_req = |ns: u64| ns as f64 / pass_requests.max(1) as f64;
        run.notes.push(format!(
            "{}: {} spans -> {}; passes cost {:.1} ns/req traced ({:.1} untraced, timed region); \
             self time by layer: {}",
            W::NAME,
            spans.len(),
            path.display(),
            per_req(pass_ns),
            untraced.ns_per_req(),
            by_layer
                .iter()
                .map(|&(layer, ns)| format!("{layer} {:.1}", per_req(ns)))
                .collect::<Vec<_>>()
                .join(" + ")
        ));
    }
    W::cleanup(&input);
    for phase in [untraced, traced] {
        run.attempted += phase.attempted;
        run.failed += phase.failed;
        run.errors.extend(phase.errors);
    }
    Ok(())
}

/// The `bench.<kind>.<workload>` entry of [`PER_LAYER`].
fn bench_metric(kind: &str, workload: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|l| l.name)
        .find(|n| {
            n.strip_prefix("bench.")
                .and_then(|rest| rest.strip_prefix(kind))
                .and_then(|rest| rest.strip_prefix('.'))
                == Some(workload)
        })
        .expect("every workload has its bench.* metrics in PER_LAYER")
}

/// Traced run of `own`: that workload at the requested scale with a
/// quarter of the time budget per phase, the other four at quick scale,
/// then the isolated probes.
pub fn run_traced(own: &str, args: &Args) -> Result<Outcome, String> {
    let mut run = Outcome {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let mut readings = Readings::new();
    for name in WORKLOADS {
        let is_own = name == own;
        let mut ctx = args.ctx();
        ctx.budget_s = args.seconds / 4.0;
        if !is_own {
            ctx.scale = Scale::Quick;
        }
        match name {
            "replay_hit" => {
                traced_instance::<RamReplay<Hit>>(&ctx, is_own, &mut readings, &mut run)
            }
            "replay_miss" => {
                traced_instance::<RamReplay<Miss>>(&ctx, is_own, &mut readings, &mut run)
            }
            "replay_stream" => {
                traced_instance::<StreamReplay>(&ctx, is_own, &mut readings, &mut run)
            }
            "serve_saturated" => {
                traced_instance::<Saturated>(&ctx, is_own, &mut readings, &mut run)
            }
            "serve_paced" => traced_instance::<Paced>(&ctx, is_own, &mut readings, &mut run),
            other => Err(format!("unknown workload `{other}`")),
        }?;
    }
    let probe_scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    readings.extend(probes::run_all(args.seed, probe_scale, &args.out_dir));
    // What the daemon costs a request beyond the policy and the ring:
    // the remainder tracing inside `worker_loop` would have to split.
    let reading = |name: &str| {
        readings
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let unattributed = reading("cdnd.daemon_tax_ns") - reading("cdnd.ring_push_many_ns");
    readings.push(("cdnd.worker_unattributed_ns", unattributed));

    let by_name: BTreeMap<&str, f64> = readings.iter().copied().collect();
    if by_name.len() != readings.len() {
        return Err("a per-layer metric was measured twice".to_string());
    }
    for layer in PER_LAYER {
        let value = *by_name
            .get(layer.name)
            .ok_or_else(|| format!("per-layer metric `{}` was not measured", layer.name))?;
        run.metrics.push((layer.name, value, layer.unit));
    }
    if by_name.len() != PER_LAYER.len() {
        let known: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        let stray: Vec<&&str> = by_name.keys().filter(|k| !known.contains(k)).collect();
        return Err(format!(
            "measured metrics missing from PER_LAYER: {stray:?}"
        ));
    }
    Ok(run)
}

/// Print the layer table of a traced result set: a workload-owned metric
/// comes from its owner's run, an isolated probe is the median over the
/// runs, each with the end-to-end metric it should move.
pub fn print_table(results: &[(String, Value)]) {
    println!(
        "{:<44}{:>12} {:<7}{:<7} {:<16} -> should move",
        "per-layer metric", "value", "unit", "better", "measured on"
    );
    for layer in PER_LAYER {
        let (value, source) = match layer.owner {
            Some(owner) => (
                results
                    .iter()
                    .find(|(w, _)| w == owner)
                    .and_then(|(_, r)| metric_of(r, layer.name))
                    .map_or(f64::NAN, |(v, _)| v),
                owner,
            ),
            None => {
                let values: Vec<f64> = results
                    .iter()
                    .filter_map(|(_, r)| metric_of(r, layer.name))
                    .map(|(v, _)| v)
                    .collect();
                (median(&values), "probe (median)")
            }
        };
        println!(
            "{:<44}{:>12} {:<7}{:<7} {:<16} -> {}",
            layer.name,
            format_sig(value),
            layer.unit,
            layer.better,
            source,
            layer.moves
        );
    }
    // The serve_saturated budget: what the worker's time per request is
    // made of, against the end-to-end figure of the same run.
    let sat = |name: &str| {
        results
            .iter()
            .find(|(w, _)| w == "serve_saturated")
            .and_then(|(_, r)| metric_of(r, name))
            .map_or(f64::NAN, |(v, _)| v)
    };
    let worker = sat("cdnd.worker_ns_per_req");
    let tax = sat("cdnd.daemon_tax_ns");
    let unattributed = sat("cdnd.worker_unattributed_ns");
    // traced / untraced throughput = 1 - overhead, so untraced ns/req is
    // the traced figure scaled by the same factor.
    let untraced = worker * (1.0 - sat("bench.trace_overhead_share.serve_saturated"));
    let sum = (worker - tax) + (tax - unattributed) + unattributed;
    println!(
        "serve_saturated worker budget: policy {:.1} + ring {:.1} + unattributed {:.1} = {sum:.1} ns/req; \
         end-to-end {untraced:.1} ns/req untraced ({:+.1} %)",
        worker - tax,
        tax - unattributed,
        unattributed,
        (sum / untraced - 1.0) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn layer_names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|l| l.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "duplicate per-layer name");
        assert!(PER_LAYER.len() <= 128);
        for l in PER_LAYER {
            assert!(l.name.len() <= 64, "{}", l.name);
            assert!(l.unit.len() <= 16, "{}", l.unit);
            assert!(["lower", "higher"].contains(&l.better), "{}", l.name);
            if let Some(owner) = l.owner {
                assert!(WORKLOADS.contains(&owner), "{}", l.name);
            }
        }
        for w in WORKLOADS {
            bench_metric("trace_overhead_share", w);
            bench_metric("unattributed_share", w);
        }
    }

    #[test]
    fn manifest_lists_exactly_these_layers() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed: Vec<(String, String, String)> = manifest
            .get("per_layer")
            .and_then(Value::as_arr)
            .expect("per_layer array")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string(), l.better.to_string()))
            .collect();
        assert_eq!(listed, ours);
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
