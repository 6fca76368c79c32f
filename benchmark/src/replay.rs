//! The researcher's workloads: replaying a trace through policies with
//! the library — from RAM on a hit-heavy and on a miss-heavy profile, and
//! streamed off disk.

use std::marker::PhantomData;
use std::path::PathBuf;

use cdn_cache::CachePolicy;
use cdn_policies::replacement::Lru;
use cdn_sim::{BatchMode, PolicyKind, RunMeasurement, TraceCtx, TraceSource};
use cdn_trace::{
    generate_binary, ChunkIter, GeneratorConfig, StreamingTrace, TraceColumns, TraceError,
    TraceGenerator, TraceStats, Workload as Profile,
};

use crate::span::Tracer;
use crate::workload::{timed, Ctx, Ledger, Pass, Workload};

/// Which in-RAM replay workload: profile and full-scale N.
pub trait RamProfile {
    /// Workload name.
    const NAME: &'static str;
    /// Trace profile.
    const PROFILE: Profile;
    /// Requests at full scale.
    const REQUESTS: u64;
}

/// CDN-W: ≈ 7 % misses, so the hit/promotion path does nearly all the
/// work.
pub struct Hit;
impl RamProfile for Hit {
    const NAME: &'static str = "replay_hit";
    const PROFILE: Profile = Profile::CdnW;
    const REQUESTS: u64 = 4_000_000;
}

/// CDN-A: ≈ 72 % misses — insert, evict, ghost lists, MAB update.
pub struct Miss;
impl RamProfile for Miss {
    const NAME: &'static str = "replay_miss";
    const PROFILE: Profile = Profile::CdnA;
    const REQUESTS: u64 = 1_000_000;
}

/// LRU then SCIP over an in-RAM columnar trace.
pub struct RamReplay<P>(PhantomData<P>);

/// Inputs of an in-RAM replay.
pub struct RamInput {
    /// The trace, structure-of-arrays.
    pub cols: TraceColumns,
    /// Cache bytes: the paper's 64 GB as a share of the working set.
    pub capacity: u64,
    /// Seed forwarded to stochastic policies.
    pub seed: u64,
}

impl RamInput {
    /// Replay the trace through a fresh `kind`.
    pub fn replay(&self, kind: PolicyKind, mode: BatchMode) -> RunMeasurement {
        let ctx = TraceCtx::without_oracle(self.cols.len() as u64, self.seed);
        TraceSource::Columns(&self.cols)
            .replay(kind, self.capacity, &ctx, mode)
            .expect("an in-RAM replay has no I/O to fail")
    }
}

/// Largest object in any trace the benchmark generates. The profiles'
/// own maxima (674 MB on CDN-W) are the paper's, for working sets of
/// hundreds of GB; at a few million requests the working set is a few
/// GB, and one such object would be a quarter of it — whether a seed
/// happens to draw one then decides the miss ratio (0.07–0.14 across ten
/// seeds, measured). 4 MiB keeps the largest object near its paper share
/// of the working set (≈ 0.2 %), so every seed describes the same
/// workload.
pub const SIZE_CAP: u64 = 4 << 20;

/// `profile` at `requests`, sizes clamped at [`SIZE_CAP`].
pub fn trace_config(profile: Profile, requests: u64, seed: u64) -> GeneratorConfig {
    let mut cfg = profile.profile().config(requests, seed);
    cfg.size_model.max = cfg.size_model.max.min(SIZE_CAP);
    cfg
}

/// Generate `profile` at `requests` and size the cache at the paper's
/// 64 GB share of the generated working set.
pub fn generate_sized(
    profile: Profile,
    requests: u64,
    seed: u64,
) -> (Vec<cdn_cache::Request>, u64) {
    let trace = TraceGenerator::generate(trace_config(profile, requests, seed));
    let capacity =
        TraceStats::compute(&trace).cache_bytes_for_fraction(profile.paper_cache_fraction(64.0));
    (trace, capacity)
}

/// The two policies every in-RAM pass replays, with the layer each span
/// is attributed to.
pub const RAM_POLICIES: [(PolicyKind, &str, &str); 2] = [
    (PolicyKind::Lru, "replay[LRU]", "cdn-policies"),
    (PolicyKind::Scip, "replay[SCIP]", "scip"),
];

impl<P: RamProfile> Workload for RamReplay<P> {
    const NAME: &'static str = P::NAME;
    type Input = RamInput;

    fn setup(ctx: &Ctx) -> Result<RamInput, String> {
        let (trace, capacity) =
            generate_sized(P::PROFILE, ctx.scale.requests(P::REQUESTS), ctx.seed);
        Ok(RamInput {
            cols: TraceColumns::from_requests(&trace),
            capacity,
            seed: ctx.seed,
        })
    }

    fn pass(input: &RamInput, _ctx: &Ctx, tracer: &mut Tracer) -> Pass {
        let n = input.cols.len() as u64;
        let mut ledger = Ledger::default();
        let (mut peak_bytes, mut resident) = (0usize, 0usize);
        let ((), wall_s, cpu_s) = timed(|| {
            let pass = tracer.begin("pass", "bench");
            for (kind, name, layer) in RAM_POLICIES {
                let span = tracer.begin(name, layer);
                let m = input.replay(kind, BatchMode::Auto);
                tracer.end(span, n);
                ledger = ledger.plus(Ledger::of(&m));
                peak_bytes += m.peak_memory_bytes;
                resident += m.resident_objects;
            }
            tracer.end(pass, 2 * n);
        });
        Pass {
            wall_s,
            cpu_s,
            completed: 2 * n,
            attempted: 2 * n,
            ledger,
            // Both policies pooled: SCIP's resident count at the end of a
            // miss-heavy trace swings ±15 % with the seed, LRU's does not.
            meta_bytes_per_obj: peak_bytes as f64 / resident.max(1) as f64,
            errors: check_count(ledger, 2 * n),
            ..Pass::default()
        }
    }
}

/// Peak policy-metadata bytes per object resident at the end of a replay.
pub fn density_of(m: &RunMeasurement) -> f64 {
    m.peak_memory_bytes as f64 / m.resident_objects.max(1) as f64
}

/// A ledger must account for every request exactly once.
fn check_count(ledger: Ledger, requests: u64) -> Vec<String> {
    if ledger.hits + ledger.misses == requests {
        Vec::new()
    } else {
        vec![format!(
            "ledger counts {} requests, {requests} were replayed",
            ledger.hits + ledger.misses
        )]
    }
}

/// Fixed cache of the streamed workload — never derived from the trace,
/// so the corpus can grow without the cache growing with it.
pub const STREAM_CAPACITY: u64 = 2 << 30;
/// Requests of the streamed corpus at full scale (24 B each on disk).
pub const STREAM_REQUESTS: u64 = 4_000_000;

/// LRU over a v2 trace file through the prefetching stream reader.
pub struct StreamReplay;

/// Inputs of the streamed replay.
pub struct StreamInput {
    /// The corpus file.
    pub path: PathBuf,
    /// Requests in the corpus.
    pub requests: u64,
    /// Seed forwarded to the replay context.
    pub seed: u64,
    /// Ledger of the flat-memory reference replay.
    pub reference: Ledger,
    /// Seconds `generate_binary` took to write the corpus.
    pub generate_s: f64,
}

impl StreamInput {
    /// The replay context every pass and probe uses.
    pub fn trace_ctx(&self) -> TraceCtx {
        TraceCtx::without_oracle(self.requests, self.seed)
    }
}

/// Replay `path` through a concrete LRU with nothing but `ChunkIter`
/// and a bare `on_request` loop — no prefetch thread, no `cdn-sim` — in
/// memory bounded by one chunk.
pub fn flat_reference(path: &std::path::Path) -> Result<Ledger, TraceError> {
    let mut chunks = ChunkIter::open(path)?;
    let mut policy = Lru::new(STREAM_CAPACITY);
    let mut ledger = Ledger::default();
    let mut cols = TraceColumns::new();
    loop {
        cols.ids.clear();
        cols.sizes.clear();
        cols.ticks.clear();
        cols.wall_secs.clear();
        if chunks.next_chunk_columns(&mut cols)? == 0 {
            return Ok(ledger);
        }
        for i in 0..cols.len() {
            let r = cols.get(i);
            if policy.on_request(&r).is_hit() {
                ledger.hits += 1;
                ledger.hit_bytes += r.size;
            } else {
                ledger.misses += 1;
                ledger.miss_bytes += r.size;
            }
        }
    }
}

/// `StreamingTrace` with a span around every wait for the next chunk.
struct TracedStream<'a> {
    inner: StreamingTrace,
    tracer: &'a mut Tracer,
}

impl Iterator for TracedStream<'_> {
    type Item = Result<TraceColumns, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let span = self.tracer.begin("StreamingTrace::next", "cdn-trace");
        let item = self.inner.next();
        let got = item
            .as_ref()
            .map_or(0, |r| r.as_ref().map_or(0, |c| c.len() as u64));
        self.tracer.end(span, got);
        item
    }
}

impl Workload for StreamReplay {
    const NAME: &'static str = "replay_stream";
    type Input = StreamInput;

    fn setup(ctx: &Ctx) -> Result<StreamInput, String> {
        let requests = ctx.scale.requests(STREAM_REQUESTS);
        std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
        let path = ctx
            .out_dir
            .join(format!("corpus-{}-{requests}.bin", ctx.seed));
        let t0 = std::time::Instant::now();
        generate_binary(&path, trace_config(Profile::CdnW, requests, ctx.seed))
            .map_err(|e| format!("generate {}: {e}", path.display()))?;
        let generate_s = t0.elapsed().as_secs_f64();
        let reference = flat_reference(&path).map_err(|e| format!("reference replay: {e}"))?;
        Ok(StreamInput {
            path,
            requests,
            seed: ctx.seed,
            reference,
            generate_s,
        })
    }

    fn pass(input: &StreamInput, _ctx: &Ctx, tracer: &mut Tracer) -> Pass {
        let trace_ctx = input.trace_ctx();
        let (result, wall_s, cpu_s) = timed(|| -> Result<RunMeasurement, TraceError> {
            if !tracer.enabled() {
                return TraceSource::open(&input.path)?.replay(
                    PolicyKind::Lru,
                    STREAM_CAPACITY,
                    &trace_ctx,
                    BatchMode::Auto,
                );
            }
            let pass = tracer.begin("pass", "bench");
            let open = tracer.begin("StreamingTrace::open", "cdn-trace");
            let stream = StreamingTrace::open(&input.path);
            tracer.end(open, 0);
            let replay = tracer.begin("replay_stream[LRU]", "cdn-policies");
            let result = stream.and_then(|inner| {
                PolicyKind::Lru.replay_stream(
                    STREAM_CAPACITY,
                    TracedStream {
                        inner,
                        tracer: &mut *tracer,
                    },
                    &trace_ctx,
                    BatchMode::Auto,
                )
            });
            tracer.end(replay, input.requests);
            tracer.end(pass, input.requests);
            result
        });
        let mut pass = Pass {
            wall_s,
            cpu_s,
            attempted: input.requests,
            ..Pass::default()
        };
        match result {
            Ok(m) => {
                pass.completed = m.requests();
                pass.ledger = Ledger::of(&m);
                pass.meta_bytes_per_obj = density_of(&m);
                if pass.ledger != input.reference {
                    pass.errors.push(format!(
                        "streamed ledger {:?} != flat-memory reference {:?}",
                        pass.ledger, input.reference
                    ));
                }
            }
            Err(e) => pass.errors.push(format!("streamed replay failed: {e}")),
        }
        pass
    }

    fn cleanup(input: &StreamInput) {
        let _ = std::fs::remove_file(&input.path);
    }
}
