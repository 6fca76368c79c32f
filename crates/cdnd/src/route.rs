//! Resilient request routing and admission classes.
//!
//! The router answers one question per submit: *which shard serves this
//! key right now?* While every shard is up the answer is the static
//! [`cdn_cache::key_shard`] primary, bit-identical to routing disabled.
//! When the primary is down (Backoff or Storm-Open), the router walks the
//! key's rendezvous order ([`cdn_cache::route_with_failover`] — the same
//! highest-random-weight seam `tdc`'s origin cluster uses) and serves the
//! request on the first live secondary as an **overlay miss**: the
//! secondary's cache has never seen the key, so the first touch misses
//! and the object becomes ordinary resident state there. On revival the
//! decision function flips back to the primary by itself (it is pure in
//! `(key, down-set)`), and the overlay residue on the secondary simply
//! ages out of its LRU/SCIP queues — no invalidation traffic, no state to
//! reconcile (DESIGN.md §18).
//!
//! Admission ([`Priority`], [`crate::AdmitConfig`]) decides whether the
//! routed shard may take the request at its current queue depth: each
//! class owns a depth watermark (brownout sheds `Low` first, then
//! `Normal`; `High` rides to the full ring bound), and a request may
//! carry a per-request deadline expressed as the deepest queue it is
//! willing to stand in ([`Admit::deadline_depth`] — the deterministic
//! proxy for a latency SLO). Every refusal is counted under exactly one
//! cause: `Shed` (class watermark), `Deadline` (request's own bound),
//! `Down` (no live shard), or `Faulted` (injected transport fault).

/// Failpoint site evaluated once per routed submit (only when failover
/// routing is enabled), keyed by [`route_fault_key`]. An armed `Error`
/// action makes the router treat the key's primary shard as down for
/// this one decision, forcing a failover re-route without crashing
/// anything — the router runs on the client thread, so `Panic` actions
/// are not honored here.
pub const FP_ROUTE: &str = "cdnd.route";

/// Failpoint key for [`FP_ROUTE`]: primary shard in the top 16 bits, the
/// daemon-wide ordinal of the routing decision (the router's tick: one per
/// per-request submit while failover routing is enabled) in the low 48.
pub fn route_fault_key(primary: usize, seq: u64) -> u64 {
    ((primary as u64) << 48) | (seq & 0x0000_FFFF_FFFF_FFFF)
}

/// Admission priority class. Brownout mode sheds the lowest class first:
/// `Low` stops admitting at the low watermark, `Normal` at the normal
/// watermark, `High` only at the full ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort traffic (prefetch, revalidation) — first to brown out.
    Low,
    /// Ordinary traffic.
    Normal,
    /// Must-serve traffic — admitted up to the hard ring bound.
    High,
}

impl Priority {
    /// All classes, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Stable lowercase name (stats tables, JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// Per-request admission parameters. The default (`High`, no deadline)
/// reproduces the pre-admission daemon exactly: admitted to the full
/// ring bound, shed only when the ring is hard-full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admit {
    /// Priority class (selects the brownout watermark).
    pub class: Priority,
    /// Deepest queue this request will stand in: admission refuses with
    /// `Deadline` when the routed shard's depth has reached this bound.
    /// `None` means no per-request deadline.
    pub deadline_depth: Option<usize>,
}

impl Default for Admit {
    fn default() -> Self {
        Admit {
            class: Priority::High,
            deadline_depth: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_fault_key_packs_shard_and_seq() {
        assert_eq!(route_fault_key(0, 0), 0);
        assert_eq!(route_fault_key(3, 5), (3u64 << 48) | 5);
        // Seq overflow cannot bleed into the shard bits.
        assert_eq!(route_fault_key(1, u64::MAX) >> 48, 1);
    }

    #[test]
    fn priority_order_and_names() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::ALL.map(|p| p.as_str()), ["low", "normal", "high"]);
        assert_eq!(Admit::default().class, Priority::High);
        assert_eq!(Admit::default().deadline_depth, None);
    }
}
