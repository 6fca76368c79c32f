//! Policy registry and instrumented replay.
//!
//! [`PolicyKind::build`] is the one place a concrete policy type is named:
//! it returns a `Box<dyn CachePolicy>`, and every replay — measured or
//! observed, in RAM or streamed — drives that box through the one
//! per-request loop in `replay`; an in-RAM trace is a one-chunk stream.
//! Per-request dispatch is a virtual call: paired runs measured it level
//! with a monomorphized loop on LRU and SCIP (DESIGN §10), so there is no
//! second, statically dispatched copy of the loop.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use cdn_cache::{AccessKind, CachePolicy, ObjectId, Request};
use cdn_policies::admission::{AdaptSize, TinyLfu, TwoQ};
use cdn_policies::insertion::{
    deciders::{Bip, Lip},
    AscIp, Daaip, Dgippr, Dip, Dta, InsertionCache, Pipp, Ship,
};
use cdn_policies::replacement::{
    Arc as ArcPolicy, BeladyPolicy, Cacheus, Gdsf, GlCache, LeCar, Lhd, Lrb, LrbConfig, Lru, LruK,
    S4Lru, SsLru,
};
use cdn_trace::next_access_table;
use cdn_trace::TraceColumns;
use scip::{Scip, ScipConfig};

/// Per-trace context a policy build may need (the next-access table that
/// Belady and [`crate::label_trace`]'s labels read, scale-dependent LRB
/// windows).
#[derive(Debug, Clone)]
pub struct TraceCtx {
    /// Precomputed next-access table of the trace being replayed.
    pub next_access: Arc<Vec<u64>>,
    /// Trace length in requests.
    pub requests: u64,
    /// Seed for stochastic policies.
    pub seed: u64,
}

impl TraceCtx {
    /// Build a context for a trace.
    pub fn new(trace: &[Request], seed: u64) -> Self {
        TraceCtx {
            next_access: Arc::new(next_access_table(trace)),
            requests: trace.len() as u64,
            seed,
        }
    }

    /// Context for an out-of-core replay, where no next-access oracle can
    /// exist (the trace never sits in RAM): empty table, scale fields
    /// from the stream's (untrusted) header count. Every policy except
    /// [`PolicyKind::Belady`] — which indexes the oracle positionally —
    /// works unchanged; streamed identity tests that include Belady build
    /// a full [`TraceCtx::new`] from the in-RAM trace and pass the *same*
    /// context to both sides instead.
    pub fn without_oracle(requests: u64, seed: u64) -> Self {
        TraceCtx {
            next_access: Arc::new(Vec::new()),
            requests,
            seed,
        }
    }

    fn lrb_config(&self) -> LrbConfig {
        LrbConfig {
            memory_window: (self.requests / 8).max(20_000),
            train_interval: (self.requests / 40).max(5_000),
            ..LrbConfig::default()
        }
    }
}

/// Every buildable algorithm in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PolicyKind {
    // Insertion/promotion policies (LRU victim selection).
    Lru,
    Lip,
    Bip,
    Dip,
    Pipp,
    Dta,
    Ship,
    Dgippr,
    Daaip,
    AscIp,
    Sci,
    Scip,
    // Replacement algorithms.
    LruK,
    S4Lru,
    SsLru,
    Gdsf,
    Lhd,
    Arc,
    LeCar,
    Cacheus,
    Lrb,
    GlCache,
    // Admission family (§7 related work, beyond the paper's figures).
    TwoQ,
    TinyLfu,
    AdaptSize,
    // Oracle.
    Belady,
    // §4 enhancements (Figure 12).
    LruKScip,
    LruKAscIp,
    LrbScip,
    LrbAscIp,
}

impl PolicyKind {
    /// Every buildable algorithm, in declaration order — the sweep the
    /// robustness harness drives adversarial and degenerate traces
    /// through. Keep in sync with the enum (the `all_is_exhaustive` test
    /// rebuilds each entry and checks for duplicates).
    pub const ALL: [PolicyKind; 30] = [
        PolicyKind::Lru,
        PolicyKind::Lip,
        PolicyKind::Bip,
        PolicyKind::Dip,
        PolicyKind::Pipp,
        PolicyKind::Dta,
        PolicyKind::Ship,
        PolicyKind::Dgippr,
        PolicyKind::Daaip,
        PolicyKind::AscIp,
        PolicyKind::Sci,
        PolicyKind::Scip,
        PolicyKind::LruK,
        PolicyKind::S4Lru,
        PolicyKind::SsLru,
        PolicyKind::Gdsf,
        PolicyKind::Lhd,
        PolicyKind::Arc,
        PolicyKind::LeCar,
        PolicyKind::Cacheus,
        PolicyKind::Lrb,
        PolicyKind::GlCache,
        PolicyKind::TwoQ,
        PolicyKind::TinyLfu,
        PolicyKind::AdaptSize,
        PolicyKind::Belady,
        PolicyKind::LruKScip,
        PolicyKind::LruKAscIp,
        PolicyKind::LrbScip,
        PolicyKind::LrbAscIp,
    ];

    /// The paper's eight insertion-policy baselines (Figure 8/9 order).
    pub const INSERTION_BASELINES: [PolicyKind; 8] = [
        PolicyKind::Lip,
        PolicyKind::Dip,
        PolicyKind::Pipp,
        PolicyKind::Dta,
        PolicyKind::Ship,
        PolicyKind::Dgippr,
        PolicyKind::Daaip,
        PolicyKind::AscIp,
    ];

    /// The paper's eight replacement-algorithm baselines (Figure 10/11;
    /// LRU-K, S4LRU, SS-LRU, GDSF, LHD, CACHEUS, LRB, GL-Cache).
    pub const REPLACEMENT_BASELINES: [PolicyKind; 8] = [
        PolicyKind::LruK,
        PolicyKind::S4Lru,
        PolicyKind::SsLru,
        PolicyKind::Gdsf,
        PolicyKind::Lhd,
        PolicyKind::Cacheus,
        PolicyKind::Lrb,
        PolicyKind::GlCache,
    ];

    /// Display name matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Lip => "LIP",
            PolicyKind::Bip => "BIP",
            PolicyKind::Dip => "DIP",
            PolicyKind::Pipp => "PIPP",
            PolicyKind::Dta => "DTA",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Dgippr => "DGIPPR",
            PolicyKind::Daaip => "DAAIP",
            PolicyKind::AscIp => "ASC-IP",
            PolicyKind::Sci => "SCI",
            PolicyKind::Scip => "SCIP",
            PolicyKind::LruK => "LRU-K",
            PolicyKind::S4Lru => "S4LRU",
            PolicyKind::SsLru => "SS-LRU",
            PolicyKind::Gdsf => "GDSF",
            PolicyKind::Lhd => "LHD",
            PolicyKind::Arc => "ARC",
            PolicyKind::LeCar => "LeCaR",
            PolicyKind::Cacheus => "CACHEUS",
            PolicyKind::Lrb => "LRB",
            PolicyKind::GlCache => "GL-Cache",
            PolicyKind::TwoQ => "2Q",
            PolicyKind::TinyLfu => "TinyLFU",
            PolicyKind::AdaptSize => "AdaptSize",
            PolicyKind::Belady => "Belady",
            PolicyKind::LruKScip => "LRU-K-SCIP",
            PolicyKind::LruKAscIp => "LRU-K-ASC-IP",
            PolicyKind::LrbScip => "LRB-SCIP",
            PolicyKind::LrbAscIp => "LRB-ASC-IP",
        }
    }

    /// Instantiate the policy at `capacity` bytes — the one place a
    /// concrete policy type is named; every replay runs the box it
    /// returns.
    pub fn build(self, capacity: u64, ctx: &TraceCtx) -> Box<dyn CachePolicy> {
        let seed = ctx.seed;
        match self {
            PolicyKind::Lru => Box::new(Lru::new(capacity)),
            PolicyKind::Lip => Box::new(InsertionCache::new(Lip, capacity, "LIP")),
            PolicyKind::Bip => Box::new(InsertionCache::new(Bip::new(seed), capacity, "BIP")),
            PolicyKind::Dip => Box::new(InsertionCache::new(Dip::new(seed), capacity, "DIP")),
            PolicyKind::Pipp => Box::new(Pipp::new(capacity, seed)),
            PolicyKind::Dta => Box::new(InsertionCache::new(Dta::new(1 << 15), capacity, "DTA")),
            PolicyKind::Ship => Box::new(InsertionCache::new(Ship::new(), capacity, "SHiP")),
            PolicyKind::Dgippr => Box::new(Dgippr::new(capacity, seed)),
            PolicyKind::Daaip => {
                Box::new(InsertionCache::new(Daaip::new(1 << 15), capacity, "DAAIP"))
            }
            PolicyKind::AscIp => Box::new(InsertionCache::new(
                AscIp::default_for_cdn(),
                capacity,
                "ASC-IP",
            )),
            PolicyKind::Sci => Box::new(Scip::insertion_only(
                capacity,
                ScipConfig {
                    seed,
                    ..ScipConfig::default()
                },
            )),
            PolicyKind::Scip => Box::new(Scip::with_config(
                capacity,
                ScipConfig {
                    seed,
                    update_interval: (ctx.requests / 40).max(2_000),
                    ..ScipConfig::default()
                },
            )),
            PolicyKind::LruK => Box::new(LruK::new(capacity)),
            PolicyKind::S4Lru => Box::new(S4Lru::new(capacity)),
            PolicyKind::SsLru => Box::new(SsLru::new(capacity)),
            PolicyKind::Gdsf => Box::new(Gdsf::new(capacity)),
            PolicyKind::Lhd => Box::new(Lhd::new(capacity, seed)),
            PolicyKind::Arc => Box::new(ArcPolicy::new(capacity)),
            PolicyKind::LeCar => Box::new(LeCar::new(capacity, seed)),
            PolicyKind::Cacheus => Box::new(Cacheus::new(capacity, seed)),
            PolicyKind::Lrb => Box::new(Lrb::with_config(capacity, ctx.lrb_config(), seed)),
            PolicyKind::GlCache => Box::new(GlCache::new(capacity)),
            PolicyKind::TwoQ => Box::new(TwoQ::new(capacity)),
            PolicyKind::TinyLfu => Box::new(TinyLfu::new(capacity)),
            PolicyKind::AdaptSize => Box::new(AdaptSize::new(capacity, seed)),
            PolicyKind::Belady => Box::new(BeladyPolicy::new(capacity, ctx.next_access.clone())),
            PolicyKind::LruKScip => Box::new(scip::enhance::lruk_scip(capacity, 2, seed)),
            PolicyKind::LruKAscIp => Box::new(scip::enhance::lruk_ascip(capacity, 2)),
            PolicyKind::LrbScip => {
                Box::new(scip::enhance::lrb_scip(capacity, ctx.lrb_config(), seed))
            }
            PolicyKind::LrbAscIp => {
                Box::new(scip::enhance::lrb_ascip(capacity, ctx.lrb_config(), seed))
            }
        }
    }

    /// Replay a chunk stream, invoking `observe` after every request with
    /// `(index, request, outcome, used_bytes, capacity)`; `index` is
    /// global across chunks. An in-RAM trace is passed as [`one_chunk`];
    /// `mode` selects the straight or the software-pipelined loop (hints
    /// must never change what the observer sees —
    /// `tests/batched_identity.rs`).
    ///
    /// This is the hook the model-check, golden and identity suites drive
    /// traces through: the observer can assert per-step invariants
    /// (occupancy ≤ capacity, oversized ⇒ [`AccessKind::Rejected`], …)
    /// against any [`PolicyKind`] without each test reimplementing
    /// dispatch. Returns the first stream error, after the observer has
    /// seen every request decoded before the failure point.
    pub fn run_with_observer<I, S, E, F>(
        self,
        capacity: u64,
        chunks: I,
        ctx: &TraceCtx,
        mode: BatchMode,
        observe: F,
    ) -> Result<RunMeasurement, E>
    where
        I: IntoIterator<Item = Result<S, E>>,
        S: RequestSource,
        F: FnMut(usize, &Request, AccessKind, u64, u64),
    {
        replay(
            self.build(capacity, ctx),
            self.label(),
            chunks,
            ctx.requests as usize,
            mode,
            observe,
        )
    }

    /// The batched replay entry point: replay a structure-of-arrays trace
    /// (the layout sweeps share across workers) with an explicit
    /// [`BatchMode`].
    pub fn replay_batched(
        self,
        capacity: u64,
        trace: &TraceColumns,
        ctx: &TraceCtx,
        mode: BatchMode,
    ) -> RunMeasurement {
        infallible(replay(
            self.build(capacity, ctx),
            self.label(),
            one_chunk(trace),
            trace.len(),
            mode,
            Unobserved,
        ))
    }

    /// Replay a chunk stream (out-of-core trace) through a freshly built
    /// policy. One policy instance and one ledger persist across every
    /// chunk, and each request runs the same loop body as the in-RAM
    /// [`PolicyKind::replay_batched`], so the returned ledgers
    /// (`hits`/`misses`/`hit_bytes`/`miss_bytes`) are u64-identical to an
    /// in-RAM replay of the concatenated trace (pinned for all of
    /// [`PolicyKind::ALL`] by `tests/stream_identity.rs`).
    ///
    /// The first `Err` in the stream aborts the replay and is returned —
    /// a corrupt chunk can never produce a silently partial measurement.
    /// `ctx.requests` should carry the stream's header count (it sizes
    /// the memory-sampling stride and scale-dependent policy windows).
    pub fn replay_stream<I, E>(
        self,
        capacity: u64,
        chunks: I,
        ctx: &TraceCtx,
        mode: BatchMode,
    ) -> Result<RunMeasurement, E>
    where
        I: IntoIterator<Item = Result<TraceColumns, E>>,
    {
        replay(
            self.build(capacity, ctx),
            self.label(),
            chunks,
            ctx.requests as usize,
            mode,
            Unobserved,
        )
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    /// Case-insensitive inverse of [`PolicyKind::label`]; the error names
    /// every valid label.
    fn from_str(label: &str) -> Result<Self, String> {
        Self::ALL
            .iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
            .copied()
            .ok_or_else(|| {
                let labels: Vec<_> = Self::ALL.iter().map(|k| k.label()).collect();
                format!(
                    "unknown policy `{label}`; known labels: {}",
                    labels.join(", ")
                )
            })
    }
}

/// Everything one instrumented replay measures.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Policy label.
    pub policy: String,
    /// Object miss ratio.
    pub miss_ratio: f64,
    /// Byte miss ratio.
    pub byte_miss_ratio: f64,
    /// Requests per wall-clock second (Figure 9(c)/11(c)'s TPS).
    pub tps: f64,
    /// Mean CPU time per request, nanoseconds (the peak-CPU-utilisation
    /// proxy of Figure 9(a)/11(a): relative policy compute cost).
    pub ns_per_request: f64,
    /// Peak policy-metadata bytes observed (Figure 9(b)/11(b)).
    pub peak_memory_bytes: usize,
    /// Objects resident at the end of the replay (steady-state working
    /// set). Divides into `peak_memory_bytes` for a bytes-per-resident-
    /// object density figure.
    pub resident_objects: usize,
    /// Raw hit count — the exact ledger behind `miss_ratio`, kept so
    /// sharded aggregates can be proven *exactly* equal to a serial
    /// per-partition reference (float ratios would only be approximately
    /// comparable).
    pub hits: u64,
    /// Raw miss count (rejections included, as in `miss_ratio`).
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes that missed (back-to-origin traffic).
    pub miss_bytes: u64,
}

impl RunMeasurement {
    /// Total requests this measurement covers.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The replay loop's software-pipelining lookahead.
///
/// With lookahead `K`, the loop issues a [`CachePolicy::prefetch_hint`]
/// for request `i + K` while processing request `i`, so the index-bucket
/// miss of a future probe overlaps policy work instead of serialising
/// behind it. Hints are advisory: outcomes are bit-identical to the
/// straight loop at every depth (pinned by `tests/batched_identity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// Straight-line loop, no hints: the reference the identity suites
    /// compare the pipelined loop against.
    Off,
    /// Pipeline at this depth (clamped to [`MAX_PREFETCH_DIST`]).
    Fixed(usize),
    /// Pipeline at [`AUTO_PREFETCH_DIST`] from the first request — what
    /// [`run_policy`] and the binaries use.
    Auto,
}

/// Pipeline depth of [`BatchMode::Auto`].
pub const AUTO_PREFETCH_DIST: usize = 8;
/// Hard cap on the pipeline depth (beyond this, hinted lines are evicted
/// again before their probe arrives).
pub const MAX_PREFETCH_DIST: usize = 64;

impl BatchMode {
    /// Lookahead depth for this mode.
    fn lookahead(self) -> usize {
        match self {
            BatchMode::Off => 0,
            BatchMode::Fixed(k) => k.min(MAX_PREFETCH_DIST),
            BatchMode::Auto => AUTO_PREFETCH_DIST,
        }
    }
}

/// Anything the replay loop can stream requests out of by index — the
/// interleaved `&[Request]` layout and the structure-of-arrays
/// [`TraceColumns`] both qualify. Indexed access (rather than an
/// iterator) is what lets the pipelined loop peek at the id of request
/// `i + K` without buffering `K` pending requests in a ring.
pub trait RequestSource {
    /// Requests available.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reassemble request `i`.
    fn get(&self, i: usize) -> Request;
    /// Object id of request `i` (the only field the lookahead needs — on
    /// the SoA layout this touches just the id column).
    fn id(&self, i: usize) -> ObjectId;
}

impl RequestSource for [Request] {
    #[inline]
    fn len(&self) -> usize {
        <[Request]>::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> Request {
        self[i]
    }
    #[inline]
    fn id(&self, i: usize) -> ObjectId {
        self[i].id
    }
}

impl RequestSource for TraceColumns {
    #[inline]
    fn len(&self) -> usize {
        TraceColumns::len(self)
    }
    #[inline]
    fn get(&self, i: usize) -> Request {
        TraceColumns::get(self, i)
    }
    #[inline]
    fn id(&self, i: usize) -> ObjectId {
        self.ids[i]
    }
}

/// Borrowed chunks (an in-RAM trace) replay like owned ones (a stream's).
impl<T: RequestSource + ?Sized> RequestSource for &T {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }
    #[inline]
    fn get(&self, i: usize) -> Request {
        (**self).get(i)
    }
    #[inline]
    fn id(&self, i: usize) -> ObjectId {
        (**self).id(i)
    }
}

/// An in-RAM trace as the one-chunk stream the replay loop consumes.
pub fn one_chunk<S: RequestSource>(source: S) -> std::iter::Once<Result<S, Infallible>> {
    std::iter::once(Ok(source))
}

/// Unwrap a replay whose chunk stream cannot fail.
fn infallible<T>(res: Result<T, Infallible>) -> T {
    match res {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Per-request hook of the replay loop. Any `FnMut(index, request,
/// outcome, used_bytes, capacity)` closure observes; [`Unobserved`] is the
/// measured path, whose `ACTIVE = false` compiles the hook — and the
/// `used_bytes()`/`capacity()` virtual calls that feed it — out of the
/// loop.
trait Observer {
    /// Whether the loop should call [`Observer::observe`] at all.
    const ACTIVE: bool = true;
    /// Called after request `i` (global index) produced `outcome`.
    fn observe(&mut self, i: usize, req: &Request, outcome: AccessKind, used: u64, capacity: u64);
}

impl<F: FnMut(usize, &Request, AccessKind, u64, u64)> Observer for F {
    #[inline]
    fn observe(&mut self, i: usize, req: &Request, outcome: AccessKind, used: u64, capacity: u64) {
        self(i, req, outcome, used, capacity)
    }
}

/// The no-op [`Observer`] of a measured replay.
struct Unobserved;

impl Observer for Unobserved {
    const ACTIVE: bool = false;
    #[inline]
    fn observe(&mut self, _: usize, _: &Request, _: AccessKind, _: u64, _: u64) {}
}

/// The instrumented replay behind every measurement and every observer
/// suite, and the one per-request loop in the simulator.
///
/// One policy instance and one ledger are threaded across every chunk, so
/// a streamed replay is indistinguishable from an in-RAM replay of the
/// concatenated trace (u64-identical ledgers) and an in-RAM replay is
/// simply the one-chunk case. A streamed source keeps only
/// `STREAM_SLOTS + 1` chunks of trace alive at once; policy state is the
/// sole length-dependent allocation. The first `Err` chunk aborts the
/// replay and is returned.
///
/// `total_hint` sizes the memory-sampling stride (`total_hint / 512`
/// requests, because `memory_bytes()` walks structures), sampled on the
/// global request index: the exact length in RAM, the stream's header
/// count otherwise. It is advisory only — a lying header changes sampling
/// granularity, never outcomes, and the measurement reports the requests
/// actually replayed.
///
/// Software pipelining: with lookahead `K` (one depth per replay, from
/// `mode`), each chunk hints its first `K` ids, then sustains a constant
/// distance — hint `i + K`, process `i` — by direct indexing into the
/// chunk (no pending ring, no per-request queue traffic), so every request
/// is hinted exactly once. The window never crosses a chunk boundary.
/// Ordering and outcomes are identical to the straight loop; only
/// memory-system timing changes.
fn replay<I, S, E, O>(
    mut policy: Box<dyn CachePolicy>,
    label: &str,
    chunks: I,
    total_hint: usize,
    mode: BatchMode,
    mut observer: O,
) -> Result<RunMeasurement, E>
where
    I: IntoIterator<Item = Result<S, E>>,
    S: RequestSource,
    O: Observer,
{
    let mut m = cdn_cache::MissRatio::new();
    let mut peak_mem = 0usize;
    let mem_stride = (total_hint / 512).max(1);
    let lookahead = mode.lookahead();
    let mut base = 0usize;
    let start = Instant::now();
    for chunk in chunks {
        let chunk = chunk?;
        let n = chunk.len();
        for i in 0..lookahead.min(n) {
            policy.prefetch_hint(chunk.id(i));
        }
        for i in 0..n {
            if lookahead > 0 && i + lookahead < n {
                policy.prefetch_hint(chunk.id(i + lookahead));
            }
            let r = chunk.get(i);
            let outcome = policy.on_request(&r);
            if outcome.is_hit() {
                m.record_hit(r.size);
            } else {
                m.record_miss(r.size);
            }
            if O::ACTIVE {
                observer.observe(
                    base + i,
                    &r,
                    outcome,
                    policy.used_bytes(),
                    policy.capacity(),
                );
            }
            if (base + i).is_multiple_of(mem_stride) {
                peak_mem = peak_mem.max(policy.memory_bytes());
            }
        }
        base += n;
    }
    let elapsed = start.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    Ok(RunMeasurement {
        policy: label.to_string(),
        miss_ratio: m.miss_ratio(),
        byte_miss_ratio: m.byte_miss_ratio(),
        tps: base as f64 / secs,
        ns_per_request: elapsed.as_nanos() as f64 / base.max(1) as f64,
        peak_memory_bytes: peak_mem.max(policy.memory_bytes()),
        resident_objects: policy.stats().resident_objects,
        hits: m.hits(),
        misses: m.misses(),
        hit_bytes: m.hit_bytes(),
        miss_bytes: m.miss_bytes(),
    })
}

/// Replay `trace` through a freshly built `kind`, measuring quality and
/// resource proxies, pipelined under [`BatchMode::Auto`].
pub fn run_policy(
    kind: PolicyKind,
    capacity: u64,
    trace: &[Request],
    ctx: &TraceCtx,
) -> RunMeasurement {
    infallible(replay(
        kind.build(capacity, ctx),
        kind.label(),
        one_chunk(trace),
        trace.len(),
        BatchMode::Auto,
        Unobserved,
    ))
}

/// Identical to [`run_policy`]: every replay already drives a
/// `Box<dyn CachePolicy>`.
pub fn run_policy_dyn(
    kind: PolicyKind,
    capacity: u64,
    trace: &[Request],
    ctx: &TraceCtx,
) -> RunMeasurement {
    run_policy(kind, capacity, trace, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn all_is_exhaustive() {
        // ALL must hold every distinct variant exactly once: labels are
        // unique per variant, so 30 distinct labels ⇒ 30 distinct kinds.
        let mut labels: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PolicyKind::ALL.len(), "duplicate in ALL");
    }

    #[test]
    fn run_with_observer_sees_every_request() {
        let reqs: Vec<(u64, u64)> = (0..500).map(|i| (i * 3 % 40, 1 + i % 9)).collect();
        let trace = micro_trace(&reqs);
        let ctx = TraceCtx::new(&trace, 3);
        let mut seen = 0usize;
        let observed = infallible(PolicyKind::Lru.run_with_observer(
            100,
            one_chunk(&trace[..]),
            &ctx,
            BatchMode::Off,
            |i, req, outcome, used, cap| {
                assert_eq!(i, seen);
                assert_eq!(req.id, trace[seen].id);
                assert!(used <= cap, "occupancy over capacity");
                assert!(outcome.is_hit() || !outcome.is_hit()); // exhaustive enum read
                seen += 1;
            },
        ));
        assert_eq!(seen, trace.len());
        // Observing is the measured loop plus a hook, not a second loop.
        let measured = run_policy(PolicyKind::Lru, 100, &trace, &ctx);
        assert_eq!(ledger(&observed), ledger(&measured));
    }

    #[test]
    fn every_policy_builds_and_runs() {
        let reqs: Vec<(u64, u64)> = (0..3_000).map(|i| (i * 7 % 200, 1 + i % 50)).collect();
        let trace = micro_trace(&reqs);
        let ctx = TraceCtx::new(&trace, 1);
        for kind in PolicyKind::ALL {
            let r = run_policy(kind, 1_000, &trace, &ctx);
            assert!(
                (0.0..=1.0).contains(&r.miss_ratio),
                "{}: mr {}",
                r.policy,
                r.miss_ratio
            );
            assert!(r.tps > 0.0);
            assert!(r.peak_memory_bytes > 0, "{}", r.policy);
        }
    }

    /// The four exact counters plus the two sampled/final-state fields.
    fn ledger(m: &RunMeasurement) -> (u64, u64, u64, u64, usize, usize) {
        (
            m.hits,
            m.misses,
            m.hit_bytes,
            m.miss_bytes,
            m.peak_memory_bytes,
            m.resident_objects,
        )
    }

    #[test]
    fn slices_columns_and_streams_agree() {
        let reqs: Vec<(u64, u64)> = (0..4_000).map(|i| (i * 17 % 250, 1 + i % 30)).collect();
        let trace = micro_trace(&reqs);
        let cols = TraceColumns::from_requests(&trace);
        let ctx = TraceCtx::new(&trace, 5);
        let stream = |chunk_len: usize| {
            trace
                .chunks(chunk_len)
                .map(|c| Ok::<_, Infallible>(TraceColumns::from_requests(c)))
                .collect::<Vec<_>>()
        };
        for kind in PolicyKind::ALL {
            let slice = run_policy(kind, 900, &trace, &ctx);
            assert_eq!(slice.requests(), trace.len() as u64, "{kind:?}");
            let arms = [
                (
                    "columns",
                    kind.replay_batched(900, &cols, &ctx, BatchMode::Auto),
                ),
                (
                    "one-chunk stream",
                    infallible(kind.replay_stream(900, stream(trace.len()), &ctx, BatchMode::Auto)),
                ),
                (
                    "multi-chunk stream",
                    infallible(kind.replay_stream(900, stream(333), &ctx, BatchMode::Auto)),
                ),
            ];
            for (arm, other) in &arms {
                assert_eq!(ledger(&slice), ledger(other), "{kind:?} via {arm}");
            }
        }
    }

    /// [`Lru`] that counts the prefetch hints it receives.
    struct HintCounting {
        inner: Lru,
        hints: Rc<Cell<usize>>,
    }

    impl CachePolicy for HintCounting {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn on_request(&mut self, req: &Request) -> AccessKind {
            self.inner.on_request(req)
        }
        fn capacity(&self) -> u64 {
            self.inner.capacity()
        }
        fn used_bytes(&self) -> u64 {
            self.inner.used_bytes()
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
        fn stats(&self) -> cdn_cache::PolicyStats {
            self.inner.stats()
        }
        fn prefetch_hint(&self, id: ObjectId) {
            self.hints.set(self.hints.get() + 1);
            self.inner.prefetch_hint(id);
        }
    }

    #[test]
    fn default_mode_hints_every_request_once() {
        let reqs: Vec<(u64, u64)> = (0..2_000).map(|i| (i * 7 % 300, 1 + i % 20)).collect();
        let trace = micro_trace(&reqs);
        let hints = |mode: BatchMode, chunk_len: usize| {
            let hints = Rc::new(Cell::new(0));
            let policy = Box::new(HintCounting {
                inner: Lru::new(900),
                hints: hints.clone(),
            });
            let chunks = trace.chunks(chunk_len).map(Ok::<_, Infallible>);
            infallible(replay(policy, "LRU", chunks, trace.len(), mode, Unobserved));
            hints.get()
        };
        // One chunk, many chunks, and chunks shorter than the lookahead.
        for chunk_len in [trace.len(), 333, AUTO_PREFETCH_DIST - 3] {
            assert_eq!(
                hints(BatchMode::Auto, chunk_len),
                trace.len(),
                "{chunk_len}"
            );
            assert_eq!(hints(BatchMode::Off, chunk_len), 0, "{chunk_len}");
        }
    }

    #[test]
    fn belady_is_the_floor() {
        let reqs: Vec<(u64, u64)> = (0..5_000).map(|i| (i * 13 % 300, 1 + i % 20)).collect();
        let trace = micro_trace(&reqs);
        let ctx = TraceCtx::new(&trace, 2);
        let belady = run_policy(PolicyKind::Belady, 800, &trace, &ctx).miss_ratio;
        for kind in [PolicyKind::Lru, PolicyKind::Scip, PolicyKind::S4Lru] {
            let mr = run_policy(kind, 800, &trace, &ctx).miss_ratio;
            assert!(belady <= mr + 1e-9, "{kind:?}: {mr} < belady {belady}");
        }
    }
}
