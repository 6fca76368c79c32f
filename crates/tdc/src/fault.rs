//! Deterministic, seeded fault schedules for the TDC simulator.
//!
//! A [`FaultSchedule`] is a plain data description of *what goes wrong
//! when*, expressed against the trace's wall clock: origin outage windows,
//! per-OC-node crash/restart windows (cache state is lost at the crash),
//! and latency-spike windows that multiply a tier's round-trip time. The
//! schedule is pure data — evaluating it never mutates anything — so a
//! replay under a given schedule is exactly as reproducible as the trace
//! itself.
//!
//! Canned generators ([`FaultSchedule::origin_brownout`],
//! [`FaultSchedule::oc_churn`]) derive their windows from a seed via
//! [`SimRng`], scaled to the trace's wall span, so the same `(span, seed)`
//! always yields the same chaos plan. [`FaultSchedule::calm`] is the empty
//! schedule: the resilient serving path under `calm` is required (and
//! tested) to be bit-identical to the plain happy-path simulator.
//!
//! The schedule composes with the `cdn_cache::fault` failpoint registry:
//! the resilient path additionally consults the `tdc.origin_fetch` site
//! on every origin attempt, so tests can force failures at exact ticks
//! without authoring a schedule.

use cdn_cache::{Request, SimRng};

/// Stretch a trace's wall clock by `factor` (ticks, ids and sizes are
/// unchanged).
///
/// Generated traces compress a diurnal cycle into a few wall seconds —
/// fine for cache decisions, which are clocked by ticks, but too fast for
/// resilience machinery whose budgets are wall-time: a 200 ms outage can
/// never outlast an origin timeout that must itself exceed the ~200 ms
/// nominal origin RTT. Chaos replays therefore dilate the clock to a
/// production-like span first; both arms of a comparison must replay the
/// same dilated trace.
pub fn dilate_wall_clock(trace: &[Request], factor: f64) -> Vec<Request> {
    assert!(factor.is_finite() && factor > 0.0, "bad dilation {factor}");
    trace
        .iter()
        .map(|r| Request {
            wall_secs: r.wall_secs * factor,
            ..*r
        })
        .collect()
}

/// A half-open wall-clock window `[start_secs, end_secs)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Window start, trace wall seconds.
    pub start_secs: f64,
    /// Window end (exclusive), trace wall seconds.
    pub end_secs: f64,
}

impl Window {
    /// True if `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_secs && t < self.end_secs
    }
}

/// One OC node's crash: the node is unreachable for the window and loses
/// its entire cache state (it restarts cold at `down.end_secs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// Index of the crashed OC node.
    pub node: usize,
    /// Unreachability window.
    pub down: Window,
}

/// What a latency spike slows down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpikeTarget {
    /// One OC node's round trip (hedging to a sibling can dodge this).
    OcNode(usize),
    /// The OC↔DC leg.
    Dc,
    /// The DC↔origin leg (can push attempts past the origin timeout).
    Origin,
}

/// A latency-spike window: the target's RTT is multiplied by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySpike {
    /// When the spike is active.
    pub window: Window,
    /// What slows down.
    pub target: SpikeTarget,
    /// RTT multiplier (`> 1`).
    pub factor: f64,
}

/// A full fault plan for one replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Windows during which the origin answers nothing.
    pub origin_outages: Vec<Window>,
    /// OC node crash/restart events.
    pub oc_crashes: Vec<NodeCrash>,
    /// Latency-spike windows.
    pub latency_spikes: Vec<LatencySpike>,
}

impl FaultSchedule {
    /// The empty schedule: nothing ever fails.
    pub fn calm() -> Self {
        FaultSchedule::default()
    }

    /// True when no fault is scheduled at all.
    pub fn is_calm(&self) -> bool {
        self.origin_outages.is_empty()
            && self.oc_crashes.is_empty()
            && self.latency_spikes.is_empty()
    }

    /// Seeded origin brownout over `[0, span_secs)`: a few hard outage
    /// windows (~12 % of the span in total) surrounded by origin latency
    /// spikes strong enough to trip per-attempt timeouts, which is what
    /// drives retries and ultimately the circuit breaker.
    pub fn origin_brownout(span_secs: f64, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0xB20_0B20);
        let mut s = FaultSchedule::default();
        for _ in 0..3 {
            let len = span_secs * rng.f64_range(0.03, 0.05);
            let start = rng.f64_range(0.05, 0.9) * span_secs;
            let outage = Window {
                start_secs: start,
                end_secs: (start + len).min(span_secs),
            };
            // The brownout shoulder: origin RTT ×8 for a stretch around the
            // outage (attempts time out instead of erroring instantly).
            s.latency_spikes.push(LatencySpike {
                window: Window {
                    start_secs: (start - len * 0.5).max(0.0),
                    end_secs: (outage.end_secs + len * 0.5).min(span_secs),
                },
                target: SpikeTarget::Origin,
                factor: 8.0,
            });
            s.origin_outages.push(outage);
        }
        s.origin_outages
            .sort_by(|a, b| a.start_secs.total_cmp(&b.start_secs));
        s
    }

    /// Seeded OC churn over `[0, span_secs)`: each node except node 0
    /// crashes once (losing its cache) for ~5-8 % of the span, and a few
    /// nodes get OC latency spikes big enough to trigger hedging but not
    /// timeouts. Node 0 is spared so there is always a failover target.
    pub fn oc_churn(span_secs: f64, oc_nodes: usize, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x0CC_0CC);
        let mut s = FaultSchedule::default();
        for node in 1..oc_nodes {
            let len = span_secs * rng.f64_range(0.05, 0.08);
            let start = rng.f64_range(0.1, 0.85) * span_secs;
            s.oc_crashes.push(NodeCrash {
                node,
                down: Window {
                    start_secs: start,
                    end_secs: (start + len).min(span_secs),
                },
            });
            if rng.chance(0.5) {
                let sp_len = span_secs * rng.f64_range(0.04, 0.07);
                let sp_start = rng.f64_range(0.1, 0.85) * span_secs;
                s.latency_spikes.push(LatencySpike {
                    window: Window {
                        start_secs: sp_start,
                        end_secs: (sp_start + sp_len).min(span_secs),
                    },
                    target: SpikeTarget::OcNode(node),
                    factor: 10.0,
                });
            }
        }
        s
    }

    /// Is the origin hard-down at `t`?
    pub fn origin_down(&self, t: f64) -> bool {
        self.origin_outages.iter().any(|w| w.contains(t))
    }

    /// Is OC node `node` crashed at `t`?
    pub fn node_down(&self, node: usize, t: f64) -> bool {
        self.oc_crashes
            .iter()
            .any(|c| c.node == node && c.down.contains(t))
    }

    /// RTT multiplier for `target` at `t` (product of active spikes; 1.0
    /// when none are active).
    pub fn spike_factor(&self, target: SpikeTarget, t: f64) -> f64 {
        self.latency_spikes
            .iter()
            .filter(|s| s.target == target && s.window.contains(t))
            .map(|s| s.factor)
            .product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_has_no_faults() {
        let s = FaultSchedule::calm();
        assert!(s.is_calm());
        assert!(!s.origin_down(0.0));
        assert!(!s.node_down(0, 123.0));
        assert_eq!(s.spike_factor(SpikeTarget::Origin, 50.0), 1.0);
    }

    #[test]
    fn window_is_half_open() {
        let w = Window {
            start_secs: 1.0,
            end_secs: 2.0,
        };
        assert!(!w.contains(0.999));
        assert!(w.contains(1.0));
        assert!(w.contains(1.999));
        assert!(!w.contains(2.0));
    }

    #[test]
    fn brownout_is_deterministic_and_in_span() {
        let a = FaultSchedule::origin_brownout(300.0, 42);
        let b = FaultSchedule::origin_brownout(300.0, 42);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::origin_brownout(300.0, 43));
        assert!(!a.origin_outages.is_empty());
        for w in &a.origin_outages {
            assert!(w.start_secs >= 0.0 && w.end_secs <= 300.0 && w.start_secs < w.end_secs);
        }
        // Spikes envelope the outages.
        assert_eq!(a.latency_spikes.len(), 3);
        assert!(a
            .latency_spikes
            .iter()
            .all(|s| s.target == SpikeTarget::Origin));
    }

    #[test]
    fn churn_spares_node_zero() {
        let s = FaultSchedule::oc_churn(300.0, 4, 7);
        assert_eq!(s, FaultSchedule::oc_churn(300.0, 4, 7));
        assert_eq!(s.oc_crashes.len(), 3);
        assert!(s.oc_crashes.iter().all(|c| c.node != 0));
        for c in &s.oc_crashes {
            let mid = (c.down.start_secs + c.down.end_secs) / 2.0;
            assert!(s.node_down(c.node, mid));
            assert!(!s.node_down(0, mid));
        }
    }

    #[test]
    fn spike_factors_multiply_when_overlapping() {
        let w = Window {
            start_secs: 0.0,
            end_secs: 10.0,
        };
        let s = FaultSchedule {
            latency_spikes: vec![
                LatencySpike {
                    window: w,
                    target: SpikeTarget::Origin,
                    factor: 4.0,
                },
                LatencySpike {
                    window: w,
                    target: SpikeTarget::Origin,
                    factor: 2.0,
                },
                LatencySpike {
                    window: w,
                    target: SpikeTarget::Dc,
                    factor: 3.0,
                },
            ],
            ..FaultSchedule::default()
        };
        assert_eq!(s.spike_factor(SpikeTarget::Origin, 5.0), 8.0);
        assert_eq!(s.spike_factor(SpikeTarget::Dc, 5.0), 3.0);
        assert_eq!(s.spike_factor(SpikeTarget::OcNode(1), 5.0), 1.0);
        assert_eq!(s.spike_factor(SpikeTarget::Origin, 10.0), 1.0);
    }
}
