//! LRB: Learning Relaxed Belady (Song et al., NSDI 2020) — the paper's
//! simulator substrate and one of its two "active" learned baselines.
//!
//! Faithful simplification of the artifact, preserving the pieces the SCIP
//! paper interacts with:
//!
//! - **Memory window**: object metadata and training labels live within a
//!   sliding window of requests; the window is also the relaxed Belady
//!   boundary.
//! - **Features**: log recency, log size, the last 4 inter-arrival deltas
//!   and 4 exponentially-decayed counters (EDCs) — a 10-dimensional subset
//!   of the artifact's feature set.
//! - **Training**: randomly sampled accesses become regression samples
//!   labelled with (log) time-to-next-access; unlabelled samples older
//!   than the window get the beyond-boundary label. A GBDT is retrained
//!   every `train_interval` requests.
//! - **Eviction**: sample `n_candidates` residents, predict
//!   time-to-next-access, and evict the farthest-predicted candidate
//!   (relaxed Belady rule). Before the first model trains, the sampled
//!   candidate with the oldest last access is evicted (LRU-flavoured
//!   bootstrap).

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request, SimRng, Tick};
use cdn_learning::{Gbdt, GbdtParams};

const N_DELTAS: usize = 4;
const N_EDCS: usize = 4;
/// Feature vector length.
pub const N_FEATURES: usize = 2 + N_DELTAS + N_EDCS;

/// LRB hyper-parameters.
#[derive(Debug, Clone)]
pub struct LrbConfig {
    /// Memory window in requests (and relaxed Belady boundary).
    pub memory_window: u64,
    /// Probability an access is sampled for training.
    pub sample_prob: f64,
    /// Requests between model retrains.
    pub train_interval: u64,
    /// Minimum samples before the first train.
    pub min_train_samples: usize,
    /// Eviction candidate sample size.
    pub n_candidates: usize,
    /// Training-buffer capacity.
    pub max_samples: usize,
    /// Boosted-tree hyper-parameters.
    pub gbdt: GbdtParams,
}

impl Default for LrbConfig {
    fn default() -> Self {
        LrbConfig {
            memory_window: 100_000,
            sample_prob: 1.0 / 16.0,
            train_interval: 20_000,
            min_train_samples: 1_024,
            n_candidates: 32,
            max_samples: 16_384,
            gbdt: GbdtParams {
                n_trees: 20,
                max_depth: 4,
                shrinkage: 0.25,
                min_leaf: 16,
                n_thresholds: 12,
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ObjState {
    size: u64,
    last_access: Tick,
    /// Most recent inter-arrival deltas, newest first.
    deltas: [f32; N_DELTAS],
    n_deltas: u8,
    edc: [f32; N_EDCS],
    pool_slot: u32,
}

impl ObjState {
    fn features(&self, now: Tick, window: u64, out: &mut [f64; N_FEATURES]) {
        let recency = now.saturating_sub(self.last_access).min(2 * window);
        out[0] = (recency as f64 + 1.0).ln();
        out[1] = (self.size.max(1) as f64).ln();
        for i in 0..N_DELTAS {
            out[2 + i] = if i < self.n_deltas as usize {
                (self.deltas[i] as f64 + 1.0).ln()
            } else {
                (2.0 * window as f64).ln() // "unknown" sentinel
            };
        }
        for i in 0..N_EDCS {
            out[2 + N_DELTAS + i] = self.edc[i] as f64;
        }
    }

    fn touch(&mut self, now: Tick) {
        let delta = now.saturating_sub(self.last_access);
        if delta > 0 {
            self.deltas.rotate_right(1);
            self.deltas[0] = delta as f32;
            self.n_deltas = (self.n_deltas + 1).min(N_DELTAS as u8);
            for (i, e) in self.edc.iter_mut().enumerate() {
                // EDC_i ← 1 + EDC_i · 2^(−Δ / 2^(9+i))
                let half_life = (1u64 << (9 + i)) as f32;
                *e = 1.0 + *e * (-(delta as f32) / half_life * std::f32::consts::LN_2).exp();
            }
        }
        self.last_access = now;
    }
}

/// Learning relaxed Belady.
#[derive(Debug)]
pub struct Lrb {
    cfg: LrbConfig,
    capacity: u64,
    used: u64,
    resident: FxHashMap<ObjectId, ObjState>,
    pool: Vec<ObjectId>,
    model: Option<Gbdt>,
    /// Sampled accesses awaiting their next-access label.
    pending: FxHashMap<ObjectId, (Tick, [f64; N_FEATURES])>,
    samples_x: Vec<Vec<f64>>,
    samples_y: Vec<f64>,
    last_train: Tick,
    rng: SimRng,
    stats: PolicyStats,
    name: String,
}

impl Lrb {
    /// LRB with the given byte capacity and configuration.
    pub fn with_config(capacity: u64, cfg: LrbConfig, seed: u64) -> Self {
        Lrb {
            cfg,
            capacity,
            used: 0,
            resident: FxHashMap::default(),
            pool: Vec::new(),
            model: None,
            pending: FxHashMap::default(),
            samples_x: Vec::new(),
            samples_y: Vec::new(),
            last_train: 0,
            rng: SimRng::new(seed),
            stats: PolicyStats::default(),
            name: "LRB".to_string(),
        }
    }

    /// Defaults scaled to the cache size (window ≈ 8× resident objects at
    /// the workload's mean size; callers with trace knowledge should size
    /// it explicitly).
    pub fn new(capacity: u64, seed: u64) -> Self {
        Self::with_config(capacity, LrbConfig::default(), seed)
    }

    /// Whether a model has been trained (diagnostics).
    pub fn trained(&self) -> bool {
        self.model.is_some()
    }

    fn beyond_boundary_label(&self) -> f64 {
        (2.0 * self.cfg.memory_window as f64 + 1.0).ln()
    }

    fn label_pending(&mut self, id: ObjectId, now: Tick) {
        if let Some((t0, feats)) = self.pending.remove(&id) {
            let tta = now.saturating_sub(t0).min(2 * self.cfg.memory_window);
            self.push_sample(feats, (tta as f64 + 1.0).ln());
        }
    }

    fn push_sample(&mut self, feats: [f64; N_FEATURES], label: f64) {
        if self.samples_y.len() >= self.cfg.max_samples {
            let half = self.cfg.max_samples / 2;
            self.samples_x.drain(..half);
            self.samples_y.drain(..half);
        }
        self.samples_x.push(feats.to_vec());
        self.samples_y.push(label);
    }

    fn maybe_train(&mut self, now: Tick) {
        if now.saturating_sub(self.last_train) < self.cfg.train_interval {
            return;
        }
        self.last_train = now;
        // Expire pending samples that fell out of the memory window: they
        // were not re-accessed, so they get the beyond-boundary label.
        let window = self.cfg.memory_window;
        let expired: Vec<ObjectId> = self
            .pending
            .iter()
            .filter(|(_, (t0, _))| now.saturating_sub(*t0) > window)
            .map(|(&id, _)| id)
            .collect();
        let label = self.beyond_boundary_label();
        for id in expired {
            let (_, feats) = self.pending.remove(&id).expect("listed");
            self.push_sample(feats, label);
        }
        if self.samples_y.len() < self.cfg.min_train_samples {
            return;
        }
        let mut m = Gbdt::new(self.cfg.gbdt);
        m.fit_regression(&self.samples_x, &self.samples_y);
        self.model = Some(m);
    }

    fn pool_remove(&mut self, id: ObjectId) {
        let slot = self.resident[&id].pool_slot as usize;
        let last = self.pool.len() - 1;
        self.pool.swap(slot, last);
        let moved = self.pool[slot];
        self.pool.pop();
        if moved != id {
            self.resident.get_mut(&moved).expect("resident").pool_slot = slot as u32;
        }
    }

    fn evict_one(&mut self, now: Tick) -> (ObjectId, u64) {
        debug_assert!(!self.pool.is_empty());
        let n = self.cfg.n_candidates.min(self.pool.len());
        let mut feats = [0.0f64; N_FEATURES];
        let mut victim: Option<(f64, ObjectId)> = None;
        for _ in 0..n {
            let id = self.pool[self.rng.usize_below(self.pool.len())];
            let st = self.resident[&id];
            let score = match &self.model {
                Some(m) => {
                    st.features(now, self.cfg.memory_window, &mut feats);
                    m.predict_raw(&feats)
                }
                // Bootstrap: pretend predicted TTA = current age (LRU-ish).
                None => (now.saturating_sub(st.last_access) as f64 + 1.0).ln(),
            };
            if victim.is_none_or(|(s, _)| score > s) {
                victim = Some((score, id));
            }
        }
        let (_, id) = victim.expect("sampled");
        let st = self.resident[&id];
        self.pool_remove(id);
        self.resident.remove(&id);
        self.used -= st.size;
        self.stats.evictions += 1;
        (id, st.size)
    }

    // ------ core-manipulation API for enhancement wrappers (SCIP §4) ------

    /// Record a hit on a resident object (wrapper-managed hit path): runs
    /// the periodic training check and feature/sample bookkeeping.
    pub fn touch(&mut self, req: &Request) {
        self.maybe_train(req.tick);
        if self.resident.contains_key(&req.id) {
            self.observe(req, true);
        }
    }

    /// Admit an object without capacity enforcement (the wrapper owns the
    /// byte budget).
    pub fn admit(&mut self, req: &Request) {
        debug_assert!(!self.resident.contains_key(&req.id));
        self.maybe_train(req.tick);
        self.label_pending(req.id, req.tick);
        self.resident.insert(
            req.id,
            ObjState {
                size: req.size,
                last_access: req.tick,
                deltas: [0.0; N_DELTAS],
                n_deltas: 0,
                edc: [1.0; N_EDCS],
                pool_slot: self.pool.len() as u32,
            },
        );
        self.pool.push(req.id);
        self.used += req.size;
        self.stats.insertions += 1;
        self.observe(req, false);
    }

    /// Remove a resident object, returning its size.
    pub fn remove(&mut self, id: ObjectId) -> Option<u64> {
        let st = *self.resident.get(&id)?;
        self.pool_remove(id);
        self.resident.remove(&id);
        self.used -= st.size;
        Some(st.size)
    }

    /// Evict this policy's preferred victim (sampled relaxed-Belady rule),
    /// returning `(id, size)`.
    pub fn evict_victim(&mut self, now: Tick) -> Option<(ObjectId, u64)> {
        if self.pool.is_empty() {
            return None;
        }
        Some(self.evict_one(now))
    }

    /// Whether an object is resident.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.resident.contains_key(&id)
    }

    /// Compute the state an object would have after this access, updating
    /// metadata and possibly sampling for training.
    fn observe(&mut self, req: &Request, resident: bool) {
        let window = self.cfg.memory_window;
        self.label_pending(req.id, req.tick);
        if resident {
            let st = self.resident.get_mut(&req.id).expect("resident");
            st.touch(req.tick);
        }
        // Sample this access for future labeling.
        if self.rng.chance(self.cfg.sample_prob) {
            let mut feats = [0.0f64; N_FEATURES];
            if let Some(st) = self.resident.get(&req.id) {
                st.features(req.tick, window, &mut feats);
                self.pending.insert(req.id, (req.tick, feats));
            }
        }
    }
}

impl CachePolicy for Lrb {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.maybe_train(req.tick);
        if self.resident.contains_key(&req.id) {
            self.observe(req, true);
            return AccessKind::Hit;
        }
        self.label_pending(req.id, req.tick);
        if req.size > self.capacity {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            self.evict_one(req.tick);
        }
        self.resident.insert(
            req.id,
            ObjState {
                size: req.size,
                last_access: req.tick,
                deltas: [0.0; N_DELTAS],
                n_deltas: 0,
                edc: [1.0; N_EDCS],
                pool_slot: self.pool.len() as u32,
            },
        );
        self.pool.push(req.id);
        self.used += req.size;
        self.stats.insertions += 1;
        self.observe(req, false);
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn memory_bytes(&self) -> usize {
        self.resident.capacity() * (8 + std::mem::size_of::<ObjState>() + 8)
            + self.pool.capacity() * 8
            + self.pending.capacity() * (8 + 8 + N_FEATURES * 8)
            + self.samples_x.capacity() * N_FEATURES * 8
            + self.samples_y.capacity() * 8
            + self.model.as_ref().map_or(0, |m| m.memory_bytes())
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.resident.len(),
            resident_bytes: self.used,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::lru::Lru;
    use crate::replay;
    use cdn_cache::object::micro_trace;

    fn quick_cfg() -> LrbConfig {
        LrbConfig {
            memory_window: 4_000,
            sample_prob: 0.25,
            train_interval: 2_000,
            min_train_samples: 256,
            ..LrbConfig::default()
        }
    }

    #[test]
    fn accounting_invariants() {
        let reqs: Vec<(u64, u64)> = (0..8000).map(|i| (i * 7 % 300, 1 + i % 12)).collect();
        let t = micro_trace(&reqs);
        let mut p = Lrb::with_config(200, quick_cfg(), 1);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 200);
            assert_eq!(p.pool.len(), p.resident.len());
        }
        assert!(p.samples_y.len() <= p.cfg.max_samples);
    }

    #[test]
    fn model_trains() {
        let reqs: Vec<(u64, u64)> = (0..20_000).map(|i| (i * 13 % 500, 1 + i % 9)).collect();
        let t = micro_trace(&reqs);
        let mut p = Lrb::with_config(300, quick_cfg(), 3);
        replay(&mut p, &t);
        assert!(p.trained());
    }

    #[test]
    fn edc_grows_with_reuse() {
        let mut st = ObjState {
            size: 1,
            last_access: 0,
            deltas: [0.0; N_DELTAS],
            n_deltas: 0,
            edc: [1.0; N_EDCS],
            pool_slot: 0,
        };
        for t in 1..50u64 {
            st.touch(t * 10);
        }
        assert!(st.edc[0] > 1.5, "edc {:?}", st.edc);
        assert_eq!(st.n_deltas, N_DELTAS as u8);
        assert!((st.deltas[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn beats_lru_on_cyclic_loop() {
        // A cyclic loop slightly larger than the cache is LRU's classic
        // pathology (≈ 100 % misses). LRB's sampled farthest-predicted
        // eviction retains a stable subset and hits on it.
        let reqs: Vec<(u64, u64)> = (0..60_000).map(|i| (i % 150, 2)).collect();
        let t = micro_trace(&reqs);
        let cap = 160; // 80 of the 150 loop objects fit
        let mut lrb = Lrb::with_config(cap, quick_cfg(), 5);
        let mut lru = Lru::new(cap);
        let a = replay(&mut lrb, &t).miss_ratio();
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(l > 0.95, "sanity: LRU should thrash, got {l}");
        assert!(a < l - 0.15, "LRB {a} vs LRU {l}");
    }
}
