//! ZRO / P-ZRO labels from a replay's outcome stream.
//!
//! Definitions (paper §1-§2). Each label is decided by the outcome of the
//! object's *next* request, so [`label_outcomes`] labels the hit/miss
//! stream of any policy, at any cache size:
//!
//! - a **ZRO event** is a miss whose object's next request is not a hit —
//!   the residency it started (if any) ended with zero hits;
//! - an **A-ZRO** is a ZRO event whose object is requested again (after
//!   the residency's eviction: the object is not permanently cold);
//! - a **P-ZRO event** is a hit whose object's next request is not a hit —
//!   the final hit of a residency;
//! - an **A-P-ZRO** is a P-ZRO event whose object is requested again;
//! - a request the policy rejects as too large for the cache is
//!   **inadmissible**. Any other rejection (an admission bypass) is a
//!   residency with no hit, so it labels like any other miss.
//!
//! A request with no next request is a ZRO or P-ZRO that can never be
//! A-*: a residency still open at the end of the trace is decided by what
//! was observed.

use cdn_cache::policy::RejectReason;
use cdn_cache::AccessKind;

use crate::belady::NO_NEXT;

/// Per-request classification of an outcome stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestLabel {
    /// Miss whose object's next request is a hit.
    MissReused,
    /// Miss whose object's next request is not a hit (ZRO). `reaccessed`
    /// marks A-ZRO.
    MissZro {
        /// True when the object is requested again (A-ZRO).
        reaccessed: bool,
    },
    /// Hit whose object's next request is a hit.
    HitReused,
    /// Hit whose object's next request is not a hit (P-ZRO). `reaccessed`
    /// marks A-P-ZRO.
    HitPZro {
        /// True when the object is requested again (A-P-ZRO).
        reaccessed: bool,
    },
    /// Miss on an object larger than the cache (never admitted).
    Inadmissible,
}

impl RequestLabel {
    /// Is this any kind of miss?
    pub fn is_miss(self) -> bool {
        matches!(
            self,
            RequestLabel::MissReused | RequestLabel::MissZro { .. } | RequestLabel::Inadmissible
        )
    }

    /// Is this a ZRO-labeled miss?
    pub fn is_zro(self) -> bool {
        matches!(self, RequestLabel::MissZro { .. })
    }

    /// Is this a P-ZRO-labeled hit?
    pub fn is_pzro(self) -> bool {
        matches!(self, RequestLabel::HitPZro { .. })
    }
}

/// Aggregate label counts (Figure 1's bar heights).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LabelSummary {
    /// Total requests.
    pub requests: u64,
    /// Total misses (including inadmissible).
    pub misses: u64,
    /// Total hits.
    pub hits: u64,
    /// ZRO events.
    pub zro: u64,
    /// A-ZRO events (subset of `zro`).
    pub azro: u64,
    /// P-ZRO events.
    pub pzro: u64,
    /// A-P-ZRO events (subset of `pzro`).
    pub apzro: u64,
}

impl LabelSummary {
    /// ZRO share of missing objects — Figure 1(a).
    pub fn zro_of_misses(&self) -> f64 {
        ratio(self.zro, self.misses)
    }

    /// A-ZRO share of ZROs — Figure 1(c).
    pub fn azro_of_zros(&self) -> f64 {
        ratio(self.azro, self.zro)
    }

    /// P-ZRO share of hit objects — Figure 1(d).
    pub fn pzro_of_hits(&self) -> f64 {
        ratio(self.pzro, self.hits)
    }

    /// A-P-ZRO share of P-ZROs — Figure 1(f).
    pub fn apzro_of_pzros(&self) -> f64 {
        ratio(self.apzro, self.pzro)
    }

    /// Miss ratio of the labeled replay.
    pub fn miss_ratio(&self) -> f64 {
        ratio(self.misses, self.requests)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Labels for a whole trace.
#[derive(Debug, Clone)]
pub struct TraceLabels {
    /// One label per request, aligned with the trace.
    pub labels: Vec<RequestLabel>,
    /// Aggregate counts.
    pub summary: LabelSummary,
}

/// Label every request of a replay from its outcome stream and the
/// trace's next-access table ([`crate::next_access_table`]), in one pass.
pub fn label_outcomes(outcomes: &[AccessKind], next_access: &[u64]) -> TraceLabels {
    assert_eq!(outcomes.len(), next_access.len(), "outcomes/trace mismatch");
    let mut summary = LabelSummary {
        requests: outcomes.len() as u64,
        ..LabelSummary::default()
    };
    let mut labels = Vec::with_capacity(outcomes.len());
    for (&outcome, &next) in outcomes.iter().zip(next_access) {
        let reaccessed = next != NO_NEXT;
        let reused = reaccessed && outcomes[next as usize].is_hit();
        let label = match outcome {
            AccessKind::Hit if reused => RequestLabel::HitReused,
            AccessKind::Hit => RequestLabel::HitPZro { reaccessed },
            AccessKind::Rejected(RejectReason::TooLarge) => RequestLabel::Inadmissible,
            _ if reused => RequestLabel::MissReused,
            _ => RequestLabel::MissZro { reaccessed },
        };
        if outcome.is_hit() {
            summary.hits += 1;
        } else {
            summary.misses += 1;
        }
        match label {
            RequestLabel::MissZro { reaccessed } => {
                summary.zro += 1;
                summary.azro += u64::from(reaccessed);
            }
            RequestLabel::HitPZro { reaccessed } => {
                summary.pzro += 1;
                summary.apzro += u64::from(reaccessed);
            }
            _ => {}
        }
        labels.push(label);
    }
    TraceLabels { labels, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::next_access_table;
    use cdn_cache::object::micro_trace;
    use cdn_cache::AccessKind::{Hit, Miss};

    #[test]
    fn labels_follow_the_next_outcome() {
        // Objects 1 1 2 1 2 1 under a policy that keeps 1 for two hits,
        // then loses it, and never keeps 2.
        let t = micro_trace(&[(1, 1), (1, 1), (2, 10), (1, 1), (2, 10), (1, 1)]);
        let next = next_access_table(&t);
        let l = label_outcomes(&[Miss, Hit, Miss, Hit, Miss, Miss], &next);
        assert_eq!(
            l.labels,
            [
                RequestLabel::MissReused,
                RequestLabel::HitReused,
                RequestLabel::MissZro { reaccessed: true },
                RequestLabel::HitPZro { reaccessed: true },
                RequestLabel::MissZro { reaccessed: false },
                RequestLabel::MissZro { reaccessed: false },
            ]
        );
        let s = l.summary;
        assert_eq!((s.hits, s.misses, s.zro, s.azro), (2, 4, 3, 1));
        assert_eq!((s.pzro, s.apzro), (1, 1));

        // A too-large rejection is inadmissible, not a ZRO.
        let too_large = AccessKind::Rejected(RejectReason::TooLarge);
        let l = label_outcomes(&[Miss, Hit, too_large, Miss, too_large, Miss], &next);
        assert_eq!(l.labels[2], RequestLabel::Inadmissible);
        assert_eq!(l.labels[4], RequestLabel::Inadmissible);
        assert_eq!(l.labels[1], RequestLabel::HitPZro { reaccessed: true });
        assert_eq!((l.summary.misses, l.summary.zro), (5, 2));
    }
}
