//! DTA: insertion-policy selection by Decision Tree Analysis (Khan &
//! Jiménez, ICCD 2010).
//!
//! **Adaptation from CPU caches**: the original trains decision trees over
//! program features to pick an insertion policy per region. For an object
//! cache the analogous design is a periodically retrained shallow decision
//! tree over *object* features (log size, observed frequency, time since
//! last access) predicting whether the incoming object will be reused
//! before eviction; predicted-reusable objects insert at MRU, the rest at
//! LRU. Training labels come from eviction outcomes (`hits > 0`), gathered
//! in a sliding buffer — the same eviction-driven supervision the original
//! derives from set dueling. The tree is one depth-3 CART from our GBDT
//! module; retraining every `train_interval` requests gives DTA its
//! characteristic compute overhead (visible in Figure 9a).

use cdn_cache::{EntryMeta, FxHashMap, InsertPos, ObjectId, Request, Tick};
use cdn_learning::{Classifier, Gbdt, GbdtParams};

use super::{InsertionDecider, MissDecision, PromoteAction};

const FEATURES: usize = 3;

/// Decision-tree-analysis insertion.
#[derive(Debug, Clone)]
pub struct Dta {
    model: Option<Gbdt>,
    samples_x: Vec<Vec<f64>>,
    samples_y: Vec<f64>,
    /// Retrain period in evictions.
    pub train_interval: usize,
    /// Sliding training-buffer capacity.
    pub buffer: usize,
    evictions_since_train: usize,
    /// Coarse access history for the frequency feature.
    freq: FxHashMap<ObjectId, (u32, Tick)>,
    freq_budget: usize,
}

fn features(size: u64, freq: u32, gap: f64) -> Vec<f64> {
    vec![
        (size.max(1) as f64).ln(),
        (freq as f64 + 1.0).ln(),
        (gap + 1.0).ln(),
    ]
}

impl Dta {
    /// DTA with the given frequency-table budget (≈ cache object count).
    pub fn new(freq_budget: usize) -> Self {
        Dta {
            model: None,
            samples_x: Vec::new(),
            samples_y: Vec::new(),
            train_interval: 2_000,
            buffer: 8_000,
            evictions_since_train: 0,
            freq: FxHashMap::default(),
            freq_budget: freq_budget.max(1024),
        }
    }

    fn observe(&mut self, id: ObjectId, tick: Tick) -> (u32, f64) {
        if self.freq.len() >= self.freq_budget && !self.freq.contains_key(&id) {
            self.freq.retain(|_, (c, _)| {
                *c /= 2;
                *c > 0
            });
        }
        let entry = self.freq.entry(id).or_insert((0, tick));
        let gap = tick.saturating_sub(entry.1) as f64;
        let freq = entry.0;
        entry.0 = entry.0.saturating_add(1);
        entry.1 = tick;
        (freq, gap)
    }

    fn maybe_train(&mut self) {
        self.evictions_since_train += 1;
        if self.evictions_since_train < self.train_interval || self.samples_y.len() < 200 {
            return;
        }
        self.evictions_since_train = 0;
        let mut m = Gbdt::new(GbdtParams {
            n_trees: 1,
            max_depth: 3,
            shrinkage: 1.0,
            min_leaf: 16,
            n_thresholds: 8,
        });
        m.fit(&self.samples_x, &self.samples_y);
        self.model = Some(m);
    }

    /// Whether a model has been trained yet (diagnostics).
    pub fn trained(&self) -> bool {
        self.model.is_some()
    }
}

impl InsertionDecider for Dta {
    fn on_miss(&mut self, req: &Request) -> MissDecision {
        let (freq, gap) = self.observe(req.id, req.tick);
        let pos = match &self.model {
            Some(m) if !m.predict(&features(req.size, freq, gap)) => InsertPos::Lru,
            _ => InsertPos::Mru,
        };
        // Stash the features' inputs in the tag so eviction can rebuild the
        // training sample: pack freq (32b) and a coarse gap (32b).
        let gap_coarse = (gap as u64).min(u32::MAX as u64);
        MissDecision {
            pos,
            tag: ((freq as u64) << 32) | gap_coarse,
        }
    }

    fn on_hit(&mut self, req: &Request, _meta: &EntryMeta) -> PromoteAction {
        self.observe(req.id, req.tick);
        PromoteAction::ToMru
    }

    fn on_evict(&mut self, victim: &EntryMeta, _tick: Tick) {
        let freq = (victim.tag >> 32) as u32;
        let gap = (victim.tag & u32::MAX as u64) as f64;
        if self.samples_y.len() >= self.buffer {
            // Slide: drop the oldest half wholesale (amortised O(1)).
            let half = self.buffer / 2;
            self.samples_x.drain(..half);
            self.samples_y.drain(..half);
        }
        self.samples_x.push(features(victim.size, freq, gap));
        self.samples_y.push(f64::from(victim.hits > 0));
        self.maybe_train();
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self)
            + self.samples_x.capacity() * FEATURES * 8
            + self.samples_y.capacity() * 8
            + self.freq.capacity() * 24
            + self.model.as_ref().map_or(0, |m| m.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::deciders::Mip;
    use crate::insertion::InsertionCache;
    use crate::replay;
    use cdn_cache::object::micro_trace;

    fn scan_mix(n: u64) -> Vec<cdn_cache::Request> {
        let mut reqs = Vec::new();
        let mut next = 10_000u64;
        for i in 0..n {
            if i % 3 == 0 {
                reqs.push((i / 3 % 4, 50)); // hot small
            } else {
                reqs.push((next, 5_000)); // dead large
                next += 1;
            }
        }
        micro_trace(&reqs)
    }

    #[test]
    fn trains_after_enough_evictions() {
        let mut p = InsertionCache::new(Dta::new(4096), 10_200, "DTA");
        let mut dta_trained = false;
        for r in scan_mix(20_000) {
            use cdn_cache::CachePolicy;
            p.on_request(&r);
            dta_trained |= p.decider().trained();
        }
        assert!(dta_trained);
    }

    #[test]
    fn beats_lru_on_size_separable_traffic() {
        let t = scan_mix(30_000);
        let cap = 10_200;
        let mut dta = InsertionCache::new(Dta::new(4096), cap, "DTA");
        let mut lru = InsertionCache::new(Mip, cap, "LRU");
        let d = replay(&mut dta, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(d < l, "DTA {d} vs LRU {l}");
    }

    #[test]
    fn buffer_stays_bounded() {
        let mut p = InsertionCache::new(Dta::new(4096), 1_000, "DTA");
        for r in scan_mix(30_000) {
            use cdn_cache::CachePolicy;
            p.on_request(&r);
        }
        assert!(p.decider().samples_y.len() <= p.decider().buffer);
    }
}
