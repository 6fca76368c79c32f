//! The synthetic trace generator engine.
//!
//! A trace is a superposition of four request processes, each responsible
//! for one of the phenomena the paper's analysis depends on:
//!
//! 1. **Zipf core** — a pool of `core_objects` ids sampled by Zipf rank.
//!    The popular head produces ordinary hits; the long tail produces ZROs
//!    (inter-access gap exceeds cache residency) and A-ZROs (tail objects
//!    that do come back eventually).
//! 2. **One-hit wonders** — with probability `one_hit_fraction` a request
//!    goes to a brand-new id never seen again: a guaranteed ZRO.
//! 3. **Bursts** — short-lived objects accessed a few times in quick
//!    succession and then abandoned. The *last* hit of a burst is exactly a
//!    P-ZRO (a hit object that will not be hit again), so the burst rate
//!    controls the Figure-1(d) P-ZRO share.
//! 4. **Popularity drift** — every `drift_interval` requests a fraction of
//!    Zipf ranks is remapped to fresh ids, modelling content churn.
//!
//! On top of the stationary mix, [`DriftEvent`]s inject *scheduled*
//! nonstationarity at exact ticks — flash crowds, working-set rotations
//! and diurnal popularity cycles — so chaos schedules can land shard
//! kills inside a known drift window (DESIGN.md §18).
//!
//! All randomness flows from a single [`SimRng`] seed; a trace is a pure
//! function of its [`GeneratorConfig`].
//!
//! # Per-request cost
//!
//! Producing a request is on the set-up path of every experiment, so the
//! generator does each piece of arithmetic once per *object* where the
//! output bits allow it, not once per request:
//!
//! - The core rank comes from [`Zipf`]'s guided inversion (O(1)
//!   expected, see [`crate::zipf`]).
//! - An object's size is a pure function of `(id, seed)`
//!   ([`SizeModel::size_of`] seeds its own RNG from them and draws nothing
//!   from the generator's stream), so every *recurring* object carries its
//!   size with it: a core rank's size sits next to its id in one
//!   `CoreSlot` and is computed on the rank's first request; a burst
//!   object's size is computed in `start_burst` and stored in its `Burst`;
//!   a flash-crowd pool's sizes are minted with its ids.
//! - Invalidation is structural: the only writers of a rank's id —
//!   `drift()` and a [`DriftEvent::WorkingSetRotation`] — replace the
//!   whole slot through `CoreSlot::fresh`, which clears the size, so an
//!   id can never be paired with its predecessor's size.
//!
//! Two costs are deliberately *not* removed, because removing them would
//! change output bits: `advance_wall` evaluates the diurnal `sin` on every
//! request (each `wall_secs` feeds the next), and a one-hit wonder's
//! lognormal size is computed on its only request — there is nothing to
//! memoize.
//!
//! ## The block pipeline
//!
//! What a core request costs is memory, not arithmetic. At CDN-T scale
//! (13 M requests, 1.17 M core ranks) the guide table, the CDF and the
//! `core` slots are 8, 9.4 and 18.7 MB: none fits in L2, and resolving
//! one request is a chain of three dependent misses — guide entry, CDF
//! line, `core[rank]` — behind one another. So the generator works in
//! blocks of up to `BLOCK` (64) requests:
//!
//! 1. **Plan.** The block's requests run the generator's control flow in
//!    tick order, drawing every random number in the same order as ever.
//!    A core request stops after its draws: it records the draw `u`, its
//!    guide bucket (and hints that guide line) and whether a popularity
//!    cycle shifted it, and leaves its id and size blank.
//! 2. **Resolve**, one stage at a time over all of the block's core
//!    requests: the guide window (hinting the CDF line), the CDF search
//!    and the cycle shift (hinting the `core` slot), then the slot read
//!    and the size memo, written back in emission order. Many misses
//!    are in flight at once instead of one.
//! 3. **Emit** the block's requests in order.
//!
//! Why the bits do not change:
//!
//! - Resolving a rank draws nothing and mints nothing: the inversion is a
//!   pure function of `u`, and a popularity cycle's draw
//!   (`cycle_shift`) depends on the tick, not on the rank — so it is
//!   drawn at plan time and only its verdict is kept.
//! - Everything that draws or mints — drift, rotations, flash-crowd
//!   pools, bursts, one-hit wonders — runs at plan time, in tick order.
//! - A deferred read of `core[rank]` must see the slot its request would
//!   have seen. Only `drift()` and an unfired rotation write `core[]`, and
//!   both run at the start of a tick, so a block may *begin* at such a
//!   tick but never contains one after its first request.
//! - The size memo caches a pure function of the id: when a memo is
//!   filled does not change the size any request reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cdn_cache::prefetch::prefetch_read;
use cdn_cache::{Request, SimRng, Tick};

use crate::sizes::SizeModel;
use crate::zipf::Zipf;

/// A scheduled nonstationarity, pinned to exact request ticks so chaos
/// schedules can place failures *inside* the drift they are stressing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftEvent {
    /// A sudden surge onto a tiny set of brand-new objects: while
    /// `start <= tick < start + duration`, a `share` fraction of requests
    /// is redirected to a pool of `objects` ids minted at the window's
    /// first tick, sampled Zipf(1.0)-skewed. Models a viral release —
    /// massive concentrated load on content no cache has seen.
    FlashCrowd {
        /// First tick of the surge.
        start: Tick,
        /// Window length in ticks.
        duration: Tick,
        /// Probability a request inside the window goes to the crowd pool.
        share: f64,
        /// Size of the crowd pool (small ⇒ extreme skew).
        objects: usize,
    },
    /// One-shot churn of the popular head: at tick `at`, the top
    /// `fraction` of core ranks is remapped to fresh ids. Unlike the
    /// periodic background drift (which remaps *random* ranks), rotating
    /// the head guarantees the hot set before and after the boundary
    /// barely overlaps — a catalog refresh.
    WorkingSetRotation {
        /// Tick of the rotation boundary.
        at: Tick,
        /// Fraction of core ranks remapped, hottest first, in `(0, 1]`.
        fraction: f64,
    },
    /// Diurnal popularity cycle: popularity mass oscillates between the
    /// two halves of the core pool with period `period` ticks. A sampled
    /// rank is phase-shifted by half the pool with probability
    /// `amplitude * (1 - cos(2πt/period)) / 2` — zero at phase 0, peak
    /// `amplitude` at half-period. Models day/night audience swap.
    PopularityCycle {
        /// Cycle length in ticks.
        period: Tick,
        /// Peak shift probability, in `[0, 1]`.
        amplitude: f64,
    },
}

/// Full parameterisation of a synthetic trace.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Total requests to emit.
    pub requests: u64,
    /// Size of the Zipf-popular core pool.
    pub core_objects: usize,
    /// Zipf exponent of the core pool.
    pub zipf_s: f64,
    /// Probability a request is a never-repeated fresh object.
    pub one_hit_fraction: f64,
    /// Probability a request *starts* a new burst object.
    pub burst_start_prob: f64,
    /// Mean number of accesses in a burst (geometric, ≥ 1).
    pub burst_len_mean: f64,
    /// Mean request-count gap between consecutive accesses of a burst.
    pub burst_gap_mean: f64,
    /// Remap period for popularity drift (0 disables drift).
    pub drift_interval: u64,
    /// Fraction of core ranks remapped per drift event.
    pub drift_fraction: f64,
    /// Object-size distribution.
    pub size_model: SizeModel,
    /// Size multiplier for one-hit-wonder objects (real CDN traces show a
    /// strong size↔reuse anticorrelation: one-shot originals/downloads are
    /// much larger than hot thumbnails — the signal ASC-IP and the
    /// Figure 4 classifiers exploit).
    pub wonder_size_factor: f64,
    /// Base request rate for the wall clock (requests/second).
    pub requests_per_sec: f64,
    /// Diurnal modulation amplitude in `[0, 1)` (0 = flat rate).
    pub diurnal_amplitude: f64,
    /// Scheduled nonstationarities (empty = stationary mix only).
    pub events: Vec<DriftEvent>,
    /// Master seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            requests: 1_000_000,
            core_objects: 100_000,
            zipf_s: 0.8,
            one_hit_fraction: 0.1,
            burst_start_prob: 0.005,
            burst_len_mean: 4.0,
            burst_gap_mean: 2_000.0,
            drift_interval: 200_000,
            drift_fraction: 0.02,
            size_model: SizeModel::lognormal(15_000.0, 1.3),
            wonder_size_factor: 1.0,
            requests_per_sec: 2_000.0,
            diurnal_amplitude: 0.4,
            events: Vec::new(),
            seed: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct Burst {
    id: u64,
    remaining: u32,
    /// `size_of(id)` where it fits in 32 bits, else 0 and recomputed per
    /// access, like an unset [`CoreSlot`]: a slot stays 16 bytes.
    size: u32,
}

/// The object a core rank currently maps to, with its size once known.
#[derive(Debug, Clone, Copy)]
struct CoreSlot {
    id: u64,
    /// `size_of(id)`, or 0 while not yet computed. A model whose clamp
    /// admits 0-byte objects simply recomputes those — same value.
    size: u64,
}

impl CoreSlot {
    fn fresh(id: u64) -> Self {
        CoreSlot { id, size: 0 }
    }
}

/// Requests planned per block (module docs, "The block pipeline"). Core
/// requests are 50–90 % of the mix across the profiles, so a block holds
/// 30–60 rank lookups: more than the core's line-fill buffers can track
/// at once, so no stage waits on an empty miss queue, and few enough that
/// the block's requests and pending draws (5.5 KB) stay in L1 from one
/// stage to the next. Measured on a 13 M-request CDN-T trace (3 runs per
/// length, 2-vCPU VM): 16 gave a median of 171 ns/request, 32–256 gave
/// 134–149, with 64 lowest.
const BLOCK: usize = 64;

/// A planned core request whose rank is not resolved yet.
#[derive(Debug, Clone, Copy)]
struct CoreDraw {
    /// The request's index in the block.
    slot: usize,
    /// The uniform draw the rank inverts.
    u: f64,
    /// Whether a popularity cycle shifts the rank by half the pool.
    shift: bool,
    /// Stage products: the guide bucket, the CDF window `lo ..= hi`, and
    /// the shifted rank.
    bucket: usize,
    lo: usize,
    hi: usize,
    rank: usize,
}

/// A flash crowd's `(id, size)` objects and the skew they are drawn by.
#[derive(Debug)]
struct FlashPool {
    objects: Vec<(u64, u64)>,
    zipf: Zipf,
}

/// Streaming generator: implements `Iterator<Item = Request>`.
#[derive(Debug)]
pub struct TraceGenerator {
    cfg: GeneratorConfig,
    rng: SimRng,
    zipf: Zipf,
    /// Indexed by Zipf rank.
    core: Vec<CoreSlot>,
    next_id: u64,
    bursts: Vec<Burst>,
    /// Min-heap of (due_tick, burst slot index).
    burst_queue: BinaryHeap<Reverse<(Tick, usize)>>,
    free_burst_slots: Vec<usize>,
    tick: Tick,
    wall_secs: f64,
    next_drift: Tick,
    /// Per-event flash-crowd pools (minted at window entry), parallel to
    /// `cfg.events`.
    flash_pools: Vec<Option<FlashPool>>,
    /// Which [`DriftEvent::WorkingSetRotation`]s have fired, parallel to
    /// `cfg.events`.
    rotated: Vec<bool>,
    /// The current block: requests planned up to `tick`, emitted from
    /// `pos` on.
    block: Vec<Request>,
    pos: usize,
    /// The block's core requests, in tick order, until resolved.
    draws: Vec<CoreDraw>,
}

impl TraceGenerator {
    /// Build a generator for `cfg`.
    pub fn new(cfg: GeneratorConfig) -> Self {
        assert!(cfg.core_objects > 0, "need a core pool");
        assert!(cfg.one_hit_fraction + cfg.burst_start_prob < 1.0);
        assert!(cfg.burst_len_mean >= 1.0);
        assert!(cfg.burst_gap_mean >= 1.0);
        assert!((0.0..1.0).contains(&cfg.diurnal_amplitude));
        for ev in &cfg.events {
            match *ev {
                DriftEvent::FlashCrowd {
                    duration,
                    share,
                    objects,
                    ..
                } => {
                    assert!(duration > 0, "flash crowd needs a window");
                    assert!(objects > 0, "flash crowd needs a pool");
                    assert!((0.0..=1.0).contains(&share), "flash share in [0,1]");
                }
                DriftEvent::WorkingSetRotation { fraction, .. } => {
                    assert!(
                        fraction > 0.0 && fraction <= 1.0,
                        "rotation fraction in (0,1]"
                    );
                }
                DriftEvent::PopularityCycle { period, amplitude } => {
                    assert!(period > 0, "cycle needs a period");
                    assert!((0.0..=1.0).contains(&amplitude), "amplitude in [0,1]");
                }
            }
        }
        let mut rng = SimRng::new(cfg.seed);
        let zipf = Zipf::new(cfg.core_objects, cfg.zipf_s);
        // Shuffle ids over ranks so object id carries no popularity signal
        // (policies must not be able to cheat by reading the id).
        let mut core: Vec<CoreSlot> = (0..cfg.core_objects as u64).map(CoreSlot::fresh).collect();
        rng.shuffle(&mut core);
        let next_drift = if cfg.drift_interval == 0 {
            u64::MAX
        } else {
            cfg.drift_interval
        };
        TraceGenerator {
            next_id: cfg.core_objects as u64,
            zipf,
            core,
            rng,
            bursts: Vec::new(),
            burst_queue: BinaryHeap::new(),
            free_burst_slots: Vec::new(),
            tick: 0,
            wall_secs: 0.0,
            next_drift,
            flash_pools: (0..cfg.events.len()).map(|_| None).collect(),
            rotated: vec![false; cfg.events.len()],
            block: Vec::with_capacity(BLOCK),
            pos: 0,
            draws: Vec::with_capacity(BLOCK),
            cfg,
        }
    }

    /// Generate the whole trace into a vector.
    pub fn generate(cfg: GeneratorConfig) -> Vec<Request> {
        let n = cfg.requests as usize;
        let mut v = Vec::with_capacity(n);
        v.extend(TraceGenerator::new(cfg));
        v
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn start_burst(&mut self) -> (u64, u64) {
        let id = self.fresh_id();
        let size = self.base_size(id);
        // Geometric length with mean `burst_len_mean`: support {1, 2, ...}.
        let p = 1.0 / self.cfg.burst_len_mean;
        let mut len = 1u32;
        while !self.rng.chance(p) && len < 10_000 {
            len += 1;
        }
        if len > 1 {
            let burst = Burst {
                id,
                remaining: len - 1,
                size: u32::try_from(size).unwrap_or(0),
            };
            let slot = if let Some(s) = self.free_burst_slots.pop() {
                self.bursts[s] = burst;
                s
            } else {
                self.bursts.push(burst);
                self.bursts.len() - 1
            };
            let gap = self.sample_gap();
            self.burst_queue.push(Reverse((self.tick + gap, slot)));
        }
        (id, size)
    }

    fn sample_gap(&mut self) -> u64 {
        (self.rng.exponential(1.0 / self.cfg.burst_gap_mean) as u64).max(1)
    }

    fn drift(&mut self) {
        let n = self.cfg.core_objects;
        let count = ((n as f64) * self.cfg.drift_fraction) as usize;
        for _ in 0..count {
            let rank = self.rng.usize_below(n);
            self.core[rank] = CoreSlot::fresh(self.fresh_id());
        }
    }

    /// Fire tick-scheduled state changes: mint a flash-crowd pool at its
    /// window entry, rotate the popular head at a rotation boundary.
    fn apply_events(&mut self) {
        for i in 0..self.cfg.events.len() {
            match self.cfg.events[i] {
                DriftEvent::FlashCrowd {
                    start,
                    duration,
                    objects,
                    ..
                } => {
                    if self.tick >= start
                        && self.tick < start.saturating_add(duration)
                        && self.flash_pools[i].is_none()
                    {
                        let pool = FlashPool {
                            objects: (0..objects)
                                .map(|_| {
                                    let id = self.fresh_id();
                                    (id, self.base_size(id))
                                })
                                .collect(),
                            zipf: Zipf::new(objects, 1.0),
                        };
                        self.flash_pools[i] = Some(pool);
                    }
                }
                DriftEvent::WorkingSetRotation { at, fraction } => {
                    if self.tick >= at && !self.rotated[i] {
                        self.rotated[i] = true;
                        let n = self.cfg.core_objects;
                        let count = (((n as f64) * fraction) as usize).clamp(1, n);
                        // Hottest ranks first: rank 0 is the Zipf head, so
                        // the pre-boundary hot set is guaranteed to churn.
                        for rank in 0..count {
                            self.core[rank] = CoreSlot::fresh(self.fresh_id());
                        }
                    }
                }
                DriftEvent::PopularityCycle { .. } => {}
            }
        }
    }

    /// A flash-crowd `(id, size)` for this tick, if a window is open and
    /// the crowd share fires.
    fn flash_object(&mut self) -> Option<(u64, u64)> {
        for i in 0..self.cfg.events.len() {
            if let DriftEvent::FlashCrowd {
                start,
                duration,
                share,
                ..
            } = self.cfg.events[i]
            {
                if self.tick >= start
                    && self.tick < start.saturating_add(duration)
                    && self.rng.chance(share)
                {
                    let pool = self.flash_pools[i]
                        .as_ref()
                        .expect("flash pool minted at window entry");
                    return Some(pool.objects[pool.zipf.sample(&mut self.rng)]);
                }
            }
        }
        None
    }

    /// Whether an active popularity cycle phase-shifts this tick's core
    /// rank by half the pool. The draws depend on the tick alone, never on
    /// the rank.
    fn cycle_shift(&mut self) -> bool {
        for ev in &self.cfg.events {
            if let DriftEvent::PopularityCycle { period, amplitude } = *ev {
                let phase = (self.tick % period) as f64 / period as f64;
                let p = amplitude * 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                if p > 0.0 && self.rng.chance(p) {
                    return true;
                }
            }
        }
        false
    }

    fn advance_wall(&mut self) {
        let day_frac = self.wall_secs / 86_400.0;
        let rate = self.cfg.requests_per_sec
            * (1.0 + self.cfg.diurnal_amplitude * (std::f64::consts::TAU * day_frac).sin());
        self.wall_secs += 1.0 / rate.max(1e-9);
    }

    fn base_size(&self, id: u64) -> u64 {
        self.cfg.size_model.size_of(id, self.cfg.seed)
    }

    fn wonder_size(&self, id: u64) -> u64 {
        let s = (self.base_size(id) as f64 * self.cfg.wonder_size_factor) as u64;
        s.clamp(self.cfg.size_model.min, self.cfg.size_model.max)
    }

    /// This tick's `(id, size)`, or `None` for a core request, whose draws
    /// are taken and recorded in `draws` for the block's resolve stages.
    fn next_object(&mut self) -> Option<(u64, u64)> {
        // Due burst accesses take priority (they model tight temporal
        // correlation a probability mix cannot express).
        if let Some(&Reverse((due, slot))) = self.burst_queue.peek() {
            if due <= self.tick {
                self.burst_queue.pop();
                let Burst { id, size, .. } = self.bursts[slot];
                let size = match size {
                    0 => self.base_size(id),
                    known => u64::from(known),
                };
                self.bursts[slot].remaining -= 1;
                if self.bursts[slot].remaining > 0 {
                    let gap = self.sample_gap();
                    self.burst_queue.push(Reverse((self.tick + gap, slot)));
                } else {
                    self.free_burst_slots.push(slot);
                }
                return Some((id, size));
            }
        }
        // An open flash-crowd window preempts the stationary mix for its
        // share of requests — that is the point of a flash crowd.
        if let Some(object) = self.flash_object() {
            return Some(object);
        }
        let u = self.rng.f64();
        if u < self.cfg.one_hit_fraction {
            let id = self.fresh_id();
            Some((id, self.wonder_size(id)))
        } else if u < self.cfg.one_hit_fraction + self.cfg.burst_start_prob {
            Some(self.start_burst())
        } else {
            // The rank's own draw, as `Zipf::sample` would take it.
            let u = self.rng.f64();
            let shift = self.cycle_shift();
            let bucket = self.zipf.bucket(u);
            self.zipf.prefetch_guide(bucket);
            self.draws.push(CoreDraw {
                slot: self.block.len(),
                u,
                shift,
                bucket,
                lo: 0,
                hi: 0,
                rank: 0,
            });
            None
        }
    }

    /// Plan the request at `tick` into the block (module docs).
    fn plan_request(&mut self) {
        if self.tick >= self.next_drift {
            self.drift();
            self.next_drift += self.cfg.drift_interval;
        }
        if !self.cfg.events.is_empty() {
            self.apply_events();
        }
        // A core request's id and size are filled in by `resolve_core`.
        let (id, size) = self.next_object().unwrap_or_default();
        self.block.push(Request {
            tick: self.tick,
            id: id.into(),
            size,
            wall_secs: self.wall_secs,
        });
        self.tick += 1;
        self.advance_wall();
    }

    /// The first tick after the current one at which `core[]` is
    /// rewritten: the next drift, or the earliest unfired rotation (every
    /// rotation due at or before the current tick has fired).
    fn next_core_rewrite(&self) -> Tick {
        self.cfg
            .events
            .iter()
            .zip(&self.rotated)
            .filter_map(|(ev, &fired)| match *ev {
                DriftEvent::WorkingSetRotation { at, .. } if !fired => Some(at),
                _ => None,
            })
            .fold(self.next_drift, Tick::min)
    }

    /// Plan and resolve the next block. Kept out of line so that `next`,
    /// which inlines into every consumer, stays a buffer read.
    #[inline(never)]
    fn refill(&mut self) {
        self.block.clear();
        self.draws.clear();
        self.pos = 0;
        let end = self.cfg.requests.min(self.tick + BLOCK as u64);
        // The first request may rewrite `core[]`; the block ends before
        // the next request that would.
        self.plan_request();
        let end = end.min(self.next_core_rewrite());
        while self.tick < end {
            self.plan_request();
        }
        self.resolve_core();
    }

    /// Resolve the block's core requests stage by stage, each stage
    /// hinting the line the next one reads (module docs).
    fn resolve_core(&mut self) {
        let TraceGenerator {
            cfg,
            zipf,
            core,
            block,
            draws,
            ..
        } = self;
        for d in draws.iter_mut() {
            (d.lo, d.hi) = zipf.window(d.bucket);
            zipf.prefetch_cdf(d.lo);
        }
        let n = core.len();
        for d in draws.iter_mut() {
            let rank = zipf.search(d.u, d.lo, d.hi);
            d.rank = if d.shift { (rank + n / 2) % n } else { rank };
            prefetch_read(&core[d.rank]);
        }
        for d in draws.iter() {
            let slot = &mut core[d.rank];
            if slot.size == 0 {
                slot.size = cfg.size_model.size_of(slot.id, cfg.seed);
            }
            let req = &mut block[d.slot];
            req.id = slot.id.into();
            req.size = slot.size;
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        if self.pos == self.block.len() {
            if self.tick >= self.cfg.requests {
                return None;
            }
            self.refill();
        }
        let req = self.block[self.pos];
        self.pos += 1;
        Some(req)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.cfg.requests - self.tick) as usize + (self.block.len() - self.pos);
        (rem, Some(rem))
    }
}

/// Named degenerate traces for robustness testing, parameterised by the
/// byte capacity the replaying cache will use.
///
/// Each entry stresses a boundary real CDN traces hit but Zipf-shaped
/// generators rarely produce: an empty trace, a single hot object, an
/// all-unique ZRO storm (every request a compulsory miss — the workload
/// that starves SCIP's ghost lists), one key hammered forever, objects
/// exactly as large as the cache, objects strictly larger (up to
/// `u64::MAX`), zero-byte objects, and a mix that interleaves all of the
/// above with duplicate keys. Sizes are fixed per id, matching the
/// generator's contract.
pub fn degenerate_corpus(capacity: u64) -> Vec<(&'static str, Vec<Request>)> {
    let req = |tick: u64, id: u64, size: u64| Request {
        tick,
        id: id.into(),
        size,
        wall_secs: tick as f64 * 1e-3,
    };
    let mut corpus: Vec<(&'static str, Vec<Request>)> = Vec::new();

    corpus.push(("empty", Vec::new()));

    corpus.push((
        "single-object",
        (0..200).map(|t| req(t, 1, capacity / 2 + 1)).collect(),
    ));

    // Every request a brand-new id: nothing ever re-referenced, every
    // ghost entry wasted — the zero-reuse storm of the paper's ZRO story.
    corpus.push((
        "zro-storm-all-unique",
        (0..10_000).map(|t| req(t, t + 10, 1 + t % 97)).collect(),
    ));

    corpus.push((
        "all-same-key",
        (0..10_000).map(|t| req(t, 42, 1 + capacity / 8)).collect(),
    ));

    // Objects exactly as large as the cache: admissible, but every insert
    // evicts everything else.
    corpus.push((
        "max-size",
        (0..100).map(|t| req(t, 100 + t % 3, capacity)).collect(),
    ));

    // Strictly larger than the cache, up to u64::MAX: must be uniformly
    // Rejected(TooLarge) and must never wrap the size ledger.
    corpus.push((
        "oversized",
        (0..100)
            .map(|t| {
                let size = match t % 3 {
                    0 => capacity.saturating_add(1),
                    1 => u64::MAX / 2,
                    _ => u64::MAX,
                };
                req(t, 200 + t % 3, size)
            })
            .collect(),
    ));

    corpus.push((
        "zero-size",
        (0..5_000).map(|t| req(t, 300 + t % 7, 0)).collect(),
    ));

    // Everything at once: duplicates, zero sizes, boundary sizes and
    // oversized ids interleaved so rejections land mid-stream.
    corpus.push((
        "mixed-adversarial",
        (0..5_000)
            .map(|t| {
                let (id, size) = match t % 6 {
                    0 => (400, 0),
                    1 => (401, 1),
                    2 => (402, capacity),
                    3 => (403, capacity.saturating_add(1)),
                    4 => (404, u64::MAX),
                    // Size derived from the id so repeats keep their size.
                    _ => (405 + t % 11, 1 + (405 + t % 11) % 13),
                };
                req(t, id, size)
            })
            .collect(),
    ));

    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::FxHashMap;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            requests: 50_000,
            core_objects: 5_000,
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn deterministic() {
        let a = TraceGenerator::generate(small_cfg());
        let b = TraceGenerator::generate(small_cfg());
        assert_eq!(a, b);
        let mut c = small_cfg();
        c.seed = 99;
        assert_ne!(a, TraceGenerator::generate(c));
    }

    #[test]
    fn emits_exact_count_with_monotone_ticks_and_wall() {
        let t = TraceGenerator::generate(small_cfg());
        assert_eq!(t.len(), 50_000);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.tick, i as u64);
        }
        for w in t.windows(2) {
            assert!(w[1].wall_secs > w[0].wall_secs);
        }
    }

    #[test]
    fn sizes_stable_per_object() {
        let t = TraceGenerator::generate(small_cfg());
        let mut seen: FxHashMap<u64, u64> = FxHashMap::default();
        for r in &t {
            let prev = seen.insert(r.id.0, r.size);
            if let Some(p) = prev {
                assert_eq!(p, r.size, "object {} changed size", r.id);
            }
        }
    }

    #[test]
    fn one_hit_fraction_controls_uniques() {
        let mut lo = small_cfg();
        lo.one_hit_fraction = 0.01;
        let mut hi = small_cfg();
        hi.one_hit_fraction = 0.5;
        let uniq = |t: &[Request]| {
            let mut s = cdn_cache::FxHashSet::default();
            for r in t {
                s.insert(r.id);
            }
            s.len()
        };
        let ulo = uniq(&TraceGenerator::generate(lo));
        let uhi = uniq(&TraceGenerator::generate(hi));
        assert!(uhi > 2 * ulo, "uniques: hi {uhi} vs lo {ulo}");
    }

    #[test]
    fn bursts_reaccess_within_short_gaps() {
        let mut cfg = small_cfg();
        cfg.burst_start_prob = 0.05;
        cfg.burst_len_mean = 5.0;
        cfg.burst_gap_mean = 50.0;
        cfg.one_hit_fraction = 0.0;
        let t = TraceGenerator::generate(cfg.clone());
        // Count accesses to non-core ids (burst ids): mean accesses should
        // approach burst_len_mean.
        let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
        for r in &t {
            if r.id.0 >= cfg.core_objects as u64 {
                *counts.entry(r.id.0).or_insert(0) += 1;
            }
        }
        assert!(!counts.is_empty());
        let mean = counts.values().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        assert!(
            (mean - cfg.burst_len_mean).abs() < 1.5,
            "mean burst length {mean}"
        );
    }

    #[test]
    fn drift_introduces_new_ids_over_time() {
        let mut cfg = small_cfg();
        cfg.drift_interval = 5_000;
        cfg.drift_fraction = 0.05;
        cfg.one_hit_fraction = 0.0;
        cfg.burst_start_prob = 0.0;
        let t = TraceGenerator::generate(cfg.clone());
        let fresh = t
            .iter()
            .filter(|r| r.id.0 >= cfg.core_objects as u64)
            .count();
        assert!(fresh > 0, "drift should surface fresh ids");
    }

    #[test]
    fn no_drift_when_disabled() {
        let mut cfg = small_cfg();
        cfg.drift_interval = 0;
        cfg.one_hit_fraction = 0.0;
        cfg.burst_start_prob = 0.0;
        let t = TraceGenerator::generate(cfg.clone());
        assert!(t.iter().all(|r| r.id.0 < cfg.core_objects as u64));
    }

    /// Exact before and after every request across several blocks, and
    /// at the end.
    #[test]
    fn size_hint_exact() {
        let cfg = GeneratorConfig {
            requests: 300,
            ..small_cfg()
        };
        let mut g = TraceGenerator::new(cfg);
        for done in 0..=200 {
            let rem = 300 - done;
            assert_eq!(g.size_hint(), (rem, Some(rem)), "after {done} requests");
            assert!(g.next().is_some());
        }
        assert_eq!(g.by_ref().count(), 99);
        assert_eq!(g.size_hint(), (0, Some(0)));
        assert_eq!(g.next(), None);
    }

    #[test]
    fn degenerate_corpus_is_well_formed() {
        let cap = 1_000u64;
        let corpus = degenerate_corpus(cap);
        let mut names: Vec<&str> = corpus.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len(), "duplicate trace names");
        assert!(
            corpus.iter().any(|(_, t)| t.is_empty()),
            "empty trace present"
        );
        for (name, trace) in &corpus {
            let mut sizes: FxHashMap<u64, u64> = FxHashMap::default();
            for (i, r) in trace.iter().enumerate() {
                assert_eq!(r.tick, i as u64, "{name}: ticks must be dense");
                let prev = sizes.insert(r.id.0, r.size);
                assert!(
                    prev.is_none() || prev == Some(r.size),
                    "{name}: id {} changed size",
                    r.id.0
                );
            }
        }
        let oversized = corpus
            .iter()
            .find(|(n, _)| *n == "oversized")
            .map(|(_, t)| t)
            .unwrap();
        assert!(oversized.iter().all(|r| r.size > cap));
        assert!(oversized.iter().any(|r| r.size == u64::MAX));
    }
}
