//! Oracle placement (Figures 1 and 3): LRU, except that the first
//! `fraction` (by occurrence order) of the labeled ZRO insertions and/or
//! P-ZRO promotions go to the LRU position.
//!
//! This is the paper's "theoretical" experiment: the labels come from a
//! plain LRU replay ([`cdn_trace::label`]), so the feedback between
//! placement and later ZRO formation is deliberately ignored (§2.2
//! discusses exactly this bias).

use cdn_cache::{EntryMeta, InsertPos, Request};
use cdn_trace::label::{RequestLabel, TraceLabels};

use super::{InsertionDecider, MissDecision, PromoteAction};

/// Which label classes the oracle treats (Figure 3's three curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleTreatment {
    /// Place labeled ZRO insertions at the LRU position.
    Zro,
    /// Place labeled P-ZRO promotions at the LRU position.
    PZro,
    /// Both.
    Both,
}

/// Places the treated labels' first occurrences at the LRU position, and
/// everything else at MRU. `req.tick` must index the labels.
#[derive(Debug, Clone)]
pub struct OraclePlacement<'a> {
    labels: &'a [RequestLabel],
    /// ZRO insertions still to send to the LRU position.
    zro_left: u64,
    /// P-ZRO promotions still to turn into demotions.
    pzro_left: u64,
}

impl<'a> OraclePlacement<'a> {
    /// Treat the first `fraction` of `labels`' ZROs and/or P-ZROs.
    pub fn new(labels: &'a TraceLabels, treatment: OracleTreatment, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        let budget = |treated: bool, count: u64| {
            if treated {
                (count as f64 * fraction) as u64
            } else {
                0
            }
        };
        OraclePlacement {
            labels: &labels.labels,
            zro_left: budget(treatment != OracleTreatment::PZro, labels.summary.zro),
            pzro_left: budget(treatment != OracleTreatment::Zro, labels.summary.pzro),
        }
    }
}

/// Spend one unit of `left` if `labeled`; whether it was spent.
fn take(left: &mut u64, labeled: bool) -> bool {
    let treat = labeled && *left > 0;
    *left -= u64::from(treat);
    treat
}

impl InsertionDecider for OraclePlacement<'_> {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let zro = self.labels[req.tick as usize].is_zro();
        MissDecision::at(if take(&mut self.zro_left, zro) {
            InsertPos::Lru
        } else {
            InsertPos::Mru
        })
    }

    fn on_hit(&mut self, req: &Request, _meta: &EntryMeta) -> PromoteAction {
        let pzro = self.labels[req.tick as usize].is_pzro();
        if take(&mut self.pzro_left, pzro) {
            PromoteAction::ToLru
        } else {
            PromoteAction::ToMru
        }
    }
}
