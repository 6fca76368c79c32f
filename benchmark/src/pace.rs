//! Open-loop schedule arithmetic: when each burst is *due*, independent
//! of when earlier bursts were actually sent or served.
//!
//! Due times are computed by integer multiplication from the schedule's
//! origin, never by adding a period to the previous send time: a late
//! burst does not push later ones back (the backlog a stall causes is
//! charged to the system, not forgiven), and no rounding error
//! accumulates however long the run.

/// A fixed-rate burst schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Requests per burst.
    pub burst: u64,
    /// Nanoseconds between the due times of consecutive bursts.
    pub period_ns: u64,
}

impl Schedule {
    /// Bursts of `burst` requests at `rate_per_sec` requests per second.
    /// The period is rounded to whole nanoseconds once, here.
    pub fn at_rate(burst: u64, rate_per_sec: f64) -> Schedule {
        assert!(
            burst > 0 && rate_per_sec > 0.0,
            "schedule needs a positive burst and rate"
        );
        let period_ns = ((burst as f64) * 1e9 / rate_per_sec).round().max(1.0) as u64;
        Schedule { burst, period_ns }
    }

    /// Nanoseconds after the origin at which burst `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * self.period_ns
    }

    /// Bursts needed to send `requests` (the last one may be short).
    pub fn bursts_for(&self, requests: u64) -> u64 {
        requests.div_ceil(self.burst)
    }

    /// Index range of the requests in burst `k` of a trace of `requests`.
    pub fn burst_range(&self, k: u64, requests: u64) -> std::ops::Range<usize> {
        let start = (k * self.burst).min(requests);
        let end = ((k + 1) * self.burst).min(requests);
        start as usize..end as usize
    }
}

/// How late a burst was sent: zero when the generator was on time.
pub fn lateness_ns(sent_ns: u64, due_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_drift_over_200k_bursts() {
        // 64 requests every 64 µs = 1.0 Mreq/s.
        let s = Schedule::at_rate(64, 1.0e6);
        assert_eq!(s.period_ns, 64_000);
        let k = 200_000u64;
        assert_eq!(s.due_ns(k), 12_800_000_000);
        // Every gap is exactly one period, first burst to last: due times
        // do not depend on any earlier burst having been late.
        assert!((1..=k).all(|i| s.due_ns(i) - s.due_ns(i - 1) == s.period_ns));
        // A rate with a non-integral period rounds once, not per burst.
        let odd = Schedule::at_rate(64, 3.0e6);
        assert_eq!(odd.period_ns, 21_333);
        assert_eq!(odd.due_ns(k), 21_333 * k);
    }

    #[test]
    fn bursts_cover_the_trace_exactly() {
        let s = Schedule::at_rate(64, 1.0e6);
        assert_eq!(s.bursts_for(128), 2);
        assert_eq!(s.bursts_for(129), 3);
        assert_eq!(s.burst_range(0, 129), 0..64);
        assert_eq!(s.burst_range(2, 129), 128..129);
        assert_eq!(s.burst_range(3, 129), 129..129);
        let total: usize = (0..s.bursts_for(1_000_003))
            .map(|k| s.burst_range(k, 1_000_003).len())
            .sum();
        assert_eq!(total, 1_000_003);
    }

    #[test]
    fn lateness_is_never_negative() {
        assert_eq!(lateness_ns(100, 40), 60);
        assert_eq!(lateness_ns(40, 100), 0);
    }
}
