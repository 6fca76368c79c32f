//! The resilient serving path: timeouts, retries, hedging, circuit
//! breaking, serve-stale, request coalescing and OC failover.
//!
//! [`ResilientTdc`] wraps the plain [`Tdc`] with the machinery a real
//! serving stack puts between tiers:
//!
//! - **Per-tier timeouts** compare each leg's (possibly spiked) round-trip
//!   time against a budget. Timeouts apply to the RTT — time to first
//!   byte — not the transfer: a slow-but-moving download is not an error.
//! - **Bounded retries with exponential backoff + jitter** against the
//!   origin. The jitter draws from a seeded [`SimRng`], so a run is
//!   deterministic; the clock advances by the modeled timeout/backoff, so
//!   retries naturally walk out of short fault windows.
//! - **Hedging**: when the primary OC node's first-byte time exceeds the
//!   hedge threshold, a second read goes to the rendezvous-hash sibling;
//!   the faster copy wins. Hedged probes are read-only — the primary still
//!   processes the request, so cache state stays single-writer.
//! - **Circuit breaker** on the origin: consecutive timeouts trip it open;
//!   after a cooldown it half-opens and a single probe decides whether to
//!   close. While open, misses fail fast instead of burning timeouts.
//! - **Serve-stale**: the DC layer retains a byte-budgeted ghost of
//!   recently evicted objects (its "disk tail"). When the origin is
//!   unreachable, a miss whose object is in the stale store is answered
//!   stale — degraded but available — instead of failing.
//! - **Request coalescing**: while a degraded (slow or doomed) origin
//!   fetch is in flight, further misses for the same object ride it
//!   instead of issuing their own fetch — the thundering-herd guard.
//!   Happy-path fetches complete instantly in the simulator's logical
//!   model, so only degraded fetches open a coalescing window; this is
//!   exactly when herds form in a real system.
//! - **Failover**: requests whose primary OC shard is crashed re-route to
//!   the highest-random-weight (rendezvous) alive node, so one crash
//!   remaps only the crashed node's key range.
//!
//! Under [`FaultSchedule::calm`] every branch above is quiescent and the
//! request path performs *the same cache mutations in the same order* as
//! [`Tdc::serve`]; `calm_serves_like_plain` (below) and
//! `deploy.rs::calm_resilient_run_is_bit_identical_to_plain` pin that down.

use cdn_cache::ghost::GhostEntry;
use cdn_cache::{rendezvous_pick, FxHashMap, GhostList, ObjectId, Request, SimRng, Tick};

use crate::fault::{FaultSchedule, SpikeTarget};
use crate::latency::{LatencyModel, ServedBy};
use crate::system::{ConfigError, Tdc, TdcConfig};

// The resilient path's tunables: one value each, checked at compile time.

/// OC first-byte budget, ms.
const OC_TIMEOUT_MS: f64 = 250.0;
/// DC first-byte budget, ms.
const DC_TIMEOUT_MS: f64 = 500.0;
/// Origin per-attempt budget, ms.
const ORIGIN_TIMEOUT_MS: f64 = 1_000.0;
/// Origin retries after the first attempt.
const MAX_RETRIES: u32 = 2;
/// First backoff, ms (doubles per retry).
const BACKOFF_BASE_MS: f64 = 50.0;
/// Uniform jitter fraction applied to each backoff.
const BACKOFF_JITTER: f64 = 0.2;
/// Hedge a second OC read once the primary's first byte is this late.
const HEDGE_AFTER_MS: f64 = 100.0;
/// Consecutive origin timeouts that trip the breaker open.
const BREAKER_THRESHOLD: u32 = 5;
/// Seconds the breaker stays open before half-opening a probe.
const BREAKER_COOLDOWN_SECS: f64 = 5.0;
/// Stale-store budget as a fraction of DC capacity.
const STALE_BUDGET_FRACTION: f64 = 0.5;
/// Seed for backoff jitter.
const JITTER_SEED: u64 = 0x7E51;

const _: () = {
    assert!(OC_TIMEOUT_MS > 0.0 && DC_TIMEOUT_MS > 0.0 && ORIGIN_TIMEOUT_MS > 0.0);
    assert!(MAX_RETRIES <= 16, "backoff shifts by the attempt number");
    assert!(BACKOFF_BASE_MS >= 0.0);
    assert!(BACKOFF_JITTER >= 0.0 && BACKOFF_JITTER <= 1.0);
    assert!(HEDGE_AFTER_MS > 0.0);
    assert!(BREAKER_THRESHOLD >= 1 && BREAKER_COOLDOWN_SECS > 0.0);
    assert!(STALE_BUDGET_FRACTION >= 0.0 && STALE_BUDGET_FRACTION <= 1.0);
};

/// Field-less placeholder kept for [`ResilientTdc::new`]'s signature:
/// the resilient path's tunables are the constants of this module.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceConfig;

/// Circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Failing fast; opened at the contained wall time.
    Open {
        /// Wall second the breaker opened.
        since: f64,
    },
    /// Cooldown elapsed; the next request is a probe.
    HalfOpen,
}

/// Closed → (N consecutive failures) → Open → (cooldown) → HalfOpen →
/// probe success → Closed / probe failure → Open again.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_secs: f64,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// Breaker tripping after `threshold` consecutive failures, probing
    /// after `cooldown_secs` open.
    pub fn new(threshold: u32, cooldown_secs: f64) -> Self {
        CircuitBreaker {
            threshold,
            cooldown_secs,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// May a request attempt the origin at wall time `t`? An open breaker
    /// past its cooldown transitions to half-open and admits the probe.
    pub fn allow(&mut self, t: f64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { since } => {
                if t >= since + self.cooldown_secs {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful origin round trip.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Record a failed origin attempt at wall time `t`; returns `true`
    /// when this failure tripped the breaker open.
    pub fn on_failure(&mut self, t: f64) -> bool {
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::Open { .. } => false,
        };
        if trip {
            self.state = BreakerState::Open { since: t };
            self.trips += 1;
        }
        trip
    }
}

/// Degradation and recovery event counts for one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceCounters {
    /// Origin retry attempts issued.
    pub retries: u64,
    /// Per-tier attempts that exceeded their budget.
    pub timeouts: u64,
    /// Hedged second OC reads issued.
    pub hedges: u64,
    /// Hedges that beat the primary.
    pub hedge_wins: u64,
    /// Misses answered from the stale store.
    pub stale_serves: u64,
    /// Requests that could not be served at all.
    pub failures: u64,
    /// Misses that rode an in-flight fetch instead of issuing their own.
    pub coalesced: u64,
    /// Successful origin fetches (one per coalescing window).
    pub origin_fetches: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Requests rejected by an open breaker without an attempt.
    pub breaker_fast_fails: u64,
    /// Requests re-routed because their primary OC shard was down.
    pub failovers: u64,
    /// OC node crashes applied (cache state wiped).
    pub node_resets: u64,
}

/// What happened to one request on the resilient path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOutcome {
    /// The layer that answered, `None` for stale serves and failures.
    pub served: Option<ServedBy>,
    /// User-perceived latency, ms (for failures: time to the error).
    pub latency_ms: f64,
    /// Answered from the stale store (degraded but available).
    pub stale: bool,
    /// Not answered at all.
    pub failed: bool,
    /// Rode an in-flight fetch (no origin traffic of its own).
    pub coalesced: bool,
    /// Bytes this request pulled from the origin.
    pub bto_bytes: u64,
}

impl ServeOutcome {
    /// True unless the request failed outright.
    pub fn available(&self) -> bool {
        !self.failed
    }
}

/// An origin fetch window other misses can coalesce onto.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Wall second the fetch resolves (successfully or not).
    completion_secs: f64,
    /// Whether the fetch will deliver bytes.
    ok: bool,
}

/// [`Tdc`] plus the fault schedule and every resilience mechanism above.
#[derive(Debug)]
pub struct ResilientTdc {
    tdc: Tdc,
    schedule: FaultSchedule,
    breaker: CircuitBreaker,
    stale: GhostList,
    in_flight: FxHashMap<ObjectId, InFlight>,
    rng: SimRng,
    counters: ResilienceCounters,
    /// Last observed down/up state per OC node (crash-edge detection).
    crashed: Vec<bool>,
}

impl ResilientTdc {
    /// Assemble the system, validating `cfg` and the schedule against it.
    pub fn new(
        cfg: TdcConfig,
        latency: LatencyModel,
        schedule: FaultSchedule,
        _: ResilienceConfig,
    ) -> Result<Self, ConfigError> {
        if schedule.oc_crashes.iter().any(|c| c.node >= cfg.oc_nodes) {
            return Err(ConfigError::BadResilience(
                "fault schedule crashes an OC node outside the system",
            ));
        }
        let mut tdc = Tdc::try_new(cfg, latency)?;
        tdc.dc_mut().set_record_evictions(true);
        let stale_budget = (cfg.dc_capacity as f64 * STALE_BUDGET_FRACTION) as u64;
        Ok(ResilientTdc {
            tdc,
            schedule,
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN_SECS),
            stale: GhostList::new(stale_budget),
            in_flight: FxHashMap::default(),
            rng: SimRng::new(JITTER_SEED),
            counters: ResilienceCounters::default(),
            crashed: vec![false; cfg.oc_nodes],
        })
    }

    /// Event counters so far.
    pub fn counters(&self) -> ResilienceCounters {
        self.counters
    }

    /// The breaker (diagnostics).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The wrapped plain system.
    pub fn tdc(&self) -> &Tdc {
        &self.tdc
    }

    /// Objects currently in the stale store.
    pub fn stale_len(&self) -> usize {
        self.stale.len()
    }

    /// Serve one request through the full resilient path.
    pub fn serve(&mut self, req: &Request) -> ServeOutcome {
        let now = req.wall_secs;
        self.sync_crashes(now);
        if !self.in_flight.is_empty() {
            self.in_flight.retain(|_, fl| fl.completion_secs > now);
        }

        let lat = *self.tdc.latency();
        let n = self.tdc.n_oc();
        let primary = self.tdc.primary_shard(req.id);
        let shard = if !self.schedule.node_down(primary, now) {
            Some(primary)
        } else {
            self.counters.failovers += 1;
            self.alive_rendezvous(req.id, now, n, usize::MAX)
        };

        // Penalty milliseconds accrued from timeouts and backoffs.
        let mut accrued = 0.0f64;
        // OC node to fill if the request is ultimately served from deeper.
        let mut oc_fill: Option<usize> = None;
        // Spike factor of the OC leg actually traversed.
        let mut f_oc = 1.0f64;

        match shard {
            None => {
                // Whole OC layer down: pay one timeout discovering it.
                accrued += OC_TIMEOUT_MS;
                self.counters.timeouts += 1;
            }
            Some(s) => {
                let f = self.schedule.spike_factor(SpikeTarget::OcNode(s), now);
                let first_byte = lat.oc_rtt_ms * f;
                if first_byte > OC_TIMEOUT_MS {
                    // Node unresponsive: it never sees the request.
                    accrued += OC_TIMEOUT_MS;
                    self.counters.timeouts += 1;
                } else {
                    f_oc = f;
                    if self.tdc.oc_contains(s, req.id) {
                        self.tdc.oc_request(s, req);
                        let mut latency =
                            lat.latency_ms_scaled(req.size, ServedBy::Oc, f, 1.0, 1.0);
                        if first_byte > HEDGE_AFTER_MS {
                            latency = self.try_hedge(req, s, now, n, latency, &lat);
                        }
                        return ServeOutcome {
                            served: Some(ServedBy::Oc),
                            latency_ms: accrued + latency,
                            stale: false,
                            failed: false,
                            coalesced: false,
                            bto_bytes: 0,
                        };
                    }
                    oc_fill = Some(s);
                }
            }
        }

        // DC tier.
        let f_dc = self.schedule.spike_factor(SpikeTarget::Dc, now);
        let mut dc_up = true;
        if lat.dc_rtt_ms * f_dc > DC_TIMEOUT_MS {
            accrued += DC_TIMEOUT_MS;
            self.counters.timeouts += 1;
            dc_up = false;
        }
        if dc_up && self.tdc.dc_contains(req.id) {
            if let Some(s) = oc_fill {
                // Fill OC on the way back, exactly like the plain path.
                self.tdc.oc_request(s, req);
            }
            self.tdc.dc_request(req);
            self.drain_dc_evictions(req.tick);
            let latency = lat.latency_ms_scaled(req.size, ServedBy::Dc, f_oc, f_dc, 1.0);
            return ServeOutcome {
                served: Some(ServedBy::Dc),
                latency_ms: accrued + latency,
                stale: false,
                failed: false,
                coalesced: false,
                bto_bytes: 0,
            };
        }

        // Both layers missed (or were skipped): origin territory.

        // Thundering-herd guard: ride an in-flight fetch when one exists.
        if let Some(fl) = self.in_flight.get(&req.id).copied() {
            self.counters.coalesced += 1;
            let remaining_ms = (fl.completion_secs - now).max(0.0) * 1000.0;
            if fl.ok {
                return ServeOutcome {
                    served: Some(ServedBy::Origin),
                    latency_ms: accrued + remaining_ms,
                    stale: false,
                    failed: false,
                    coalesced: true,
                    bto_bytes: 0,
                };
            }
            // Piggybacked on a doomed fetch: degrade without re-attempting.
            return self.stale_or_fail(req, accrued + remaining_ms, f_oc, f_dc, true, &lat);
        }

        // Circuit breaker gate.
        if !self.breaker.allow(now + accrued / 1000.0) {
            self.counters.breaker_fast_fails += 1;
            return self.stale_or_fail(req, accrued, f_oc, f_dc, false, &lat);
        }

        // Origin attempts: bounded retry with exponential backoff.
        let mut success_factor = None;
        let mut attempt: u32 = 0;
        loop {
            let t = now + accrued / 1000.0;
            if let Some(f) = self.origin_attempt_ok(req.tick, t) {
                success_factor = Some(f);
                self.breaker.on_success();
                break;
            }
            self.counters.timeouts += 1;
            accrued += ORIGIN_TIMEOUT_MS;
            if self.breaker.on_failure(now + accrued / 1000.0) {
                self.counters.breaker_trips += 1;
                break; // tripped open: stop hammering the origin
            }
            if attempt >= MAX_RETRIES {
                break;
            }
            let jitter = 1.0 + BACKOFF_JITTER * self.rng.f64();
            accrued += BACKOFF_BASE_MS * (1u64 << attempt.min(16)) as f64 * jitter;
            self.counters.retries += 1;
            attempt += 1;
        }

        if let Some(f_origin) = success_factor {
            if let Some(s) = oc_fill {
                self.tdc.oc_request(s, req);
            }
            if dc_up {
                self.tdc.dc_request(req);
                self.drain_dc_evictions(req.tick);
                // A fresh copy exists again; drop any stale shadow.
                self.stale.delete(req.id);
            }
            self.counters.origin_fetches += 1;
            let latency =
                accrued + lat.latency_ms_scaled(req.size, ServedBy::Origin, f_oc, f_dc, f_origin);
            if accrued > 0.0 {
                // Degraded fetch: open a coalescing window until it lands.
                self.in_flight.insert(
                    req.id,
                    InFlight {
                        completion_secs: now + latency / 1000.0,
                        ok: true,
                    },
                );
            }
            return ServeOutcome {
                served: Some(ServedBy::Origin),
                latency_ms: latency,
                stale: false,
                failed: false,
                coalesced: false,
                bto_bytes: req.size,
            };
        }

        // Fetch failed: let followers coalesce onto the doomed window
        // instead of burning their own timeouts.
        if accrued > 0.0 {
            self.in_flight.insert(
                req.id,
                InFlight {
                    completion_secs: now + accrued / 1000.0,
                    ok: false,
                },
            );
        }
        self.stale_or_fail(req, accrued, f_oc, f_dc, false, &lat)
    }

    /// Hedge a second OC read against `primary`'s slow first byte.
    fn try_hedge(
        &mut self,
        req: &Request,
        primary: usize,
        now: f64,
        n: usize,
        primary_latency: f64,
        lat: &LatencyModel,
    ) -> f64 {
        let Some(sib) = self.alive_rendezvous(req.id, now, n, primary) else {
            return primary_latency;
        };
        self.counters.hedges += 1;
        if !self.tdc.oc_contains(sib, req.id) {
            // The sibling would have to go deeper than the primary; the
            // hedge cannot win. Read-only probe: no state touched.
            return primary_latency;
        }
        let sf = self.schedule.spike_factor(SpikeTarget::OcNode(sib), now);
        let hedged = HEDGE_AFTER_MS + lat.latency_ms_scaled(req.size, ServedBy::Oc, sf, 1.0, 1.0);
        if hedged < primary_latency {
            self.counters.hedge_wins += 1;
            hedged
        } else {
            primary_latency
        }
    }

    /// Serve stale if possible, else fail — the end of the degraded path.
    fn stale_or_fail(
        &mut self,
        req: &Request,
        penalty_ms: f64,
        f_oc: f64,
        f_dc: f64,
        coalesced: bool,
        lat: &LatencyModel,
    ) -> ServeOutcome {
        if self.stale.contains(req.id) {
            self.counters.stale_serves += 1;
            // A stale body streams from DC disk: full DC-path latency.
            let latency =
                penalty_ms + lat.latency_ms_scaled(req.size, ServedBy::Dc, f_oc, f_dc, 1.0);
            ServeOutcome {
                served: None,
                latency_ms: latency,
                stale: true,
                failed: false,
                coalesced,
                bto_bytes: 0,
            }
        } else {
            self.counters.failures += 1;
            // Errors carry headers, not bodies: RTT cost only.
            let latency = penalty_ms + lat.latency_ms_scaled(0, ServedBy::Dc, f_oc, f_dc, 1.0);
            ServeOutcome {
                served: None,
                latency_ms: latency,
                stale: false,
                failed: true,
                coalesced,
                bto_bytes: 0,
            }
        }
    }

    /// One origin attempt at wall time `t`: `Some(origin spike factor)` on
    /// success, `None` on outage/timeout. Composes with the
    /// `cdn_cache::fault` registry: an armed `tdc.origin_fetch` site
    /// (keyed by tick) forces failures.
    fn origin_attempt_ok(&mut self, tick: Tick, t: f64) -> Option<f64> {
        if cdn_cache::fault::check("tdc.origin_fetch", tick).is_some() {
            return None;
        }
        if self.schedule.origin_down(t) {
            return None;
        }
        let f = self.schedule.spike_factor(SpikeTarget::Origin, t);
        if self.tdc.latency().origin_rtt_ms * f > ORIGIN_TIMEOUT_MS {
            return None;
        }
        Some(f)
    }

    /// Highest-random-weight choice among alive OC nodes, skipping
    /// `exclude`. Consistent: a node's death remaps only its own keys.
    fn alive_rendezvous(&self, id: ObjectId, now: f64, n: usize, exclude: usize) -> Option<usize> {
        rendezvous_pick(id.0, n, |node| {
            node == exclude || self.schedule.node_down(node, now)
        })
    }

    /// Apply crash edges: a node transitioning up→down loses all state.
    fn sync_crashes(&mut self, now: f64) {
        if self.schedule.oc_crashes.is_empty() {
            return;
        }
        for i in 0..self.crashed.len() {
            let down = self.schedule.node_down(i, now);
            if down && !self.crashed[i] {
                self.tdc.reset_oc_node(i);
                self.counters.node_resets += 1;
            }
            self.crashed[i] = down;
        }
    }

    /// Move freshly evicted DC objects into the stale store.
    fn drain_dc_evictions(&mut self, tick: Tick) {
        for (id, size) in self.tdc.dc_mut().take_evictions() {
            self.stale.add(GhostEntry {
                id,
                size,
                evicted_tick: tick,
                tag: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Window;
    use cdn_cache::object::micro_trace;

    fn base_cfg() -> TdcConfig {
        TdcConfig {
            oc_nodes: 2,
            oc_capacity: 100,
            dc_capacity: 300,
            deploy_at: u64::MAX,
            seed: 1,
        }
    }

    fn rt(schedule: FaultSchedule) -> ResilientTdc {
        ResilientTdc::new(
            base_cfg(),
            LatencyModel::default(),
            schedule,
            ResilienceConfig,
        )
        .unwrap()
    }

    #[test]
    fn breaker_walks_the_state_machine() {
        let mut b = CircuitBreaker::new(3, 10.0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(0.0));
        assert!(!b.on_failure(1.0));
        assert!(!b.on_failure(2.0));
        assert!(b.on_failure(3.0), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open { since: 3.0 });
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(4.0), "open rejects during cooldown");
        assert!(b.allow(13.0), "cooldown elapsed: half-open probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe reopens immediately, restarting the cooldown.
        assert!(b.on_failure(13.5));
        assert_eq!(b.state(), BreakerState::Open { since: 13.5 });
        assert_eq!(b.trips(), 2);
        assert!(b.allow(25.0));
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(26.0));
    }

    #[test]
    fn breaker_needs_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, 10.0);
        for i in 0..10 {
            assert!(!b.on_failure(i as f64));
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn schedule_crashing_unknown_node_is_rejected() {
        let schedule = FaultSchedule {
            oc_crashes: vec![crate::fault::NodeCrash {
                node: 9,
                down: Window {
                    start_secs: 0.0,
                    end_secs: 1.0,
                },
            }],
            ..FaultSchedule::default()
        };
        let err = ResilientTdc::new(
            base_cfg(),
            LatencyModel::default(),
            schedule,
            ResilienceConfig,
        )
        .err();
        assert!(matches!(err, Some(ConfigError::BadResilience(_))));
    }

    #[test]
    fn calm_serves_like_plain() {
        let mut r = rt(FaultSchedule::calm());
        let reqs = micro_trace(&[(1, 10), (1, 10), (2, 10)]);
        let o0 = r.serve(&reqs[0]);
        assert_eq!(o0.served, Some(ServedBy::Origin));
        assert_eq!(o0.bto_bytes, 10);
        let o1 = r.serve(&reqs[1]);
        assert_eq!(o1.served, Some(ServedBy::Oc));
        assert!(o1.available() && !o1.stale && !o1.coalesced);
        let o2 = r.serve(&reqs[2]);
        assert_eq!(o2.served, Some(ServedBy::Origin));
        // Under calm, every counter except origin_fetches stays zero.
        assert_eq!(
            r.counters(),
            ResilienceCounters {
                origin_fetches: 2,
                ..ResilienceCounters::default()
            }
        );
    }

    #[test]
    fn outage_fails_cold_misses_and_breaker_trips() {
        let schedule = FaultSchedule {
            origin_outages: vec![Window {
                start_secs: 0.0,
                end_secs: 1e9,
            }],
            ..FaultSchedule::default()
        };
        let mut r = rt(schedule);
        // Distinct cold objects: each is a both-layer miss into a dead
        // origin. micro_trace spaces requests 1 s apart, past the doomed
        // in-flight windows, so every request attempts (until the trip).
        let reqs = micro_trace(&(0..30u64).map(|i| (i, 10)).collect::<Vec<_>>());
        let mut outcomes = Vec::new();
        for req in &reqs {
            outcomes.push(r.serve(req));
        }
        assert!(outcomes.iter().all(|o| o.failed), "nothing to serve stale");
        let c = r.counters();
        assert!(c.breaker_trips >= 1, "{c:?}");
        assert!(c.breaker_fast_fails > 0, "open breaker fails fast {c:?}");
        assert_eq!(c.origin_fetches, 0);
        assert_eq!(c.stale_serves, 0);
        assert!(c.timeouts > 0 && c.retries > 0);
    }

    #[test]
    fn coalescing_issues_exactly_one_fetch_per_window() {
        // Origin extremely spiked (attempts time out) but not hard-down,
        // and requests arrive 1 ms apart: a herd on one cold object.
        let schedule = FaultSchedule {
            latency_spikes: vec![crate::fault::LatencySpike {
                window: Window {
                    start_secs: 0.0,
                    end_secs: 100.0,
                },
                target: SpikeTarget::Origin,
                factor: 1e6,
            }],
            ..FaultSchedule::default()
        };
        let mut r = rt(schedule);
        let mut reqs = Vec::new();
        for i in 0..20u64 {
            let mut q = Request::new(i, 500, 10);
            q.wall_secs = i as f64 * 0.001;
            reqs.push(q);
        }
        let outcomes: Vec<ServeOutcome> = reqs.iter().map(|q| r.serve(q)).collect();
        let c = r.counters();
        assert_eq!(c.origin_fetches, 0, "spiked origin never succeeds");
        assert!(c.coalesced > 0, "{c:?}");
        // Exactly one request per window burned timeouts; all followers in
        // that window coalesced. Windows are keyed by accrued penalty, so
        // attempt series == windows == requests - coalesced.
        let attempted = outcomes.iter().filter(|o| !o.coalesced).count() as u64;
        assert_eq!(c.coalesced + attempted, 20);
        assert!(
            attempted < 20,
            "the herd must mostly coalesce, got {attempted} attempt series"
        );
    }

    #[test]
    fn stale_serves_cover_outage_for_evicted_objects() {
        // DC capacity 300, objects of 60 bytes: 6th object evicts.
        let cfg = TdcConfig {
            oc_nodes: 2,
            oc_capacity: 60,
            dc_capacity: 300,
            deploy_at: u64::MAX,
            seed: 1,
        };
        let schedule = FaultSchedule {
            origin_outages: vec![Window {
                start_secs: 100.0,
                end_secs: 1e9,
            }],
            ..FaultSchedule::default()
        };
        let mut r =
            ResilientTdc::new(cfg, LatencyModel::default(), schedule, ResilienceConfig).unwrap();
        // Before the outage: stream 10 objects through; early ones get
        // evicted from DC into the stale store.
        let warm = micro_trace(&(0..10u64).map(|i| (i, 60)).collect::<Vec<_>>());
        for q in &warm {
            r.serve(q);
        }
        assert!(r.stale_len() > 0, "DC evictions populated the stale store");
        // During the outage: re-request everything. Objects evicted from
        // both cache tiers but still in the stale store come back stale;
        // nothing reaches the (dead) origin.
        let fetches_before = r.counters().origin_fetches;
        let mut stale_seen = 0;
        for i in 0..10u64 {
            let mut q = Request::new(100 + i, i, 60);
            q.wall_secs = 200.0 + 10.0 * i as f64;
            let o = r.serve(&q);
            if o.stale {
                assert!(o.available());
                assert_eq!(o.bto_bytes, 0, "stale serves move no origin bytes");
                stale_seen += 1;
            }
        }
        assert!(stale_seen > 0, "{:?}", r.counters());
        assert_eq!(r.counters().stale_serves, stale_seen);
        assert_eq!(r.counters().origin_fetches, fetches_before);
    }

    #[test]
    fn crash_failover_and_state_loss() {
        let schedule = FaultSchedule {
            oc_crashes: vec![crate::fault::NodeCrash {
                node: 1,
                down: Window {
                    start_secs: 50.0,
                    end_secs: 80.0,
                },
            }],
            ..FaultSchedule::default()
        };
        let mut r = rt(schedule);
        // Find an object that shards to node 1.
        let id = (0..100u64)
            .find(|&i| r.tdc().primary_shard(ObjectId(i)) == 1)
            .unwrap();
        let mk = |tick: u64, wall: f64| {
            let mut q = Request::new(tick, id, 10);
            q.wall_secs = wall;
            q
        };
        // Warm it on node 1 before the crash.
        r.serve(&mk(0, 0.0));
        assert_eq!(r.serve(&mk(1, 1.0)).served, Some(ServedBy::Oc));
        // During the crash: fails over to node 0 — a DC hit (node 0 is
        // cold for this key range), filling node 0 on the way.
        let during = r.serve(&mk(2, 60.0));
        assert_eq!(during.served, Some(ServedBy::Dc));
        let c = r.counters();
        assert_eq!(c.failovers, 1);
        assert_eq!(c.node_resets, 1);
        // And the failover target now serves it from OC.
        assert_eq!(r.serve(&mk(3, 61.0)).served, Some(ServedBy::Oc));
        // After restart, node 1 is cold: the object lives on via DC.
        let after = r.serve(&mk(4, 90.0));
        assert!(matches!(after.served, Some(ServedBy::Dc)), "{after:?}");
    }

    #[test]
    fn hedging_dodges_a_node_spike() {
        // Node spiked ×10: first byte 150 ms > hedge_after 100 ms but
        // < 250 ms timeout, so the hedge fires while the primary serves.
        let probe = rt(FaultSchedule::calm());
        let id = (0..100u64)
            .find(|&i| probe.tdc().primary_shard(ObjectId(i)) == 1)
            .unwrap();
        let schedule = FaultSchedule {
            latency_spikes: vec![crate::fault::LatencySpike {
                window: Window {
                    start_secs: 10.0,
                    end_secs: 100.0,
                },
                target: SpikeTarget::OcNode(1),
                factor: 10.0,
            }],
            ..FaultSchedule::default()
        };
        let mut r = ResilientTdc::new(
            base_cfg(),
            LatencyModel::default(),
            schedule,
            ResilienceConfig,
        )
        .unwrap();
        let mk = |tick: u64, wall: f64| {
            let mut q = Request::new(tick, id, 10);
            q.wall_secs = wall;
            q
        };
        r.serve(&mk(0, 0.0)); // origin → fills node 1 + DC
        let calm_hit = r.serve(&mk(1, 1.0));
        assert_eq!(calm_hit.served, Some(ServedBy::Oc));
        // Spiked window: primary OC hit at 10× RTT → hedge fires. The
        // sibling doesn't hold the object (read-only probe, no win), but
        // the hedge is still issued and the primary still serves.
        let spiked = r.serve(&mk(2, 20.0));
        assert_eq!(spiked.served, Some(ServedBy::Oc));
        let c = r.counters();
        assert_eq!(c.hedges, 1);
        assert_eq!(c.hedge_wins, 0);
        assert!(spiked.latency_ms > calm_hit.latency_ms);
    }

    #[test]
    fn rendezvous_failover_is_consistent() {
        let r = rt(FaultSchedule::calm());
        // With no faults, rendezvous over both nodes is deterministic and
        // excluding the chosen node yields the other.
        for i in 0..50u64 {
            let id = ObjectId(i);
            let a = r.alive_rendezvous(id, 0.0, 2, usize::MAX).unwrap();
            let b = r.alive_rendezvous(id, 0.0, 2, a).unwrap();
            assert_ne!(a, b);
            assert_eq!(a, r.alive_rendezvous(id, 0.0, 2, usize::MAX).unwrap());
        }
    }
}
