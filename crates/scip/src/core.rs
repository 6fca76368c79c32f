//! The SCIP brain: bandit weights and the adaptive learning rate
//! (Algorithm 1's learned state + Algorithm 2). The history lists live
//! with whoever evicts: [`crate::Scip`] keeps them inside its
//! [`cdn_cache::LruQueue`], [`crate::enhance::ScipBrain`] in two
//! [`cdn_cache::GhostList`]s. The core says which list a victim joins and
//! what it remembers, and learns from the entry a miss finds there.
//!
//! ## Concretization notes (see DESIGN.md §"SCIP concretization")
//!
//! Algorithm 1 as printed under-determines the learning signals — its
//! prose (§3.3, "the probability of insertion into the MRU/LRU position is
//! increased") and pseudo-code (lines 8/11 decrease the corresponding ω)
//! disagree, and a bandit fed *only* by ghost hits cannot observe one-hit
//! wonders at all (they never return, so they generate no ghost evidence
//! even though placing them at the LRU position is SCIP's headline win).
//! Reproducing the paper's qualitative results therefore requires three
//! concretizations, each staying inside the paper's own vocabulary:
//!
//! 1. **Eviction-outcome pressure.** A victim whose residency began at the
//!    MRU position and ended hitless is a *confirmed ZRO residency* (§2.3
//!    uses exactly this "hit token equals False" signal for ASC-IP), so
//!    every such eviction applies a small ω_m penalty. This is the only
//!    signal one-hit wonders emit.
//! 2. **Gap-tested per-object judgement.** §3.2's judgement ("when the
//!    missing object is in H_l, it means the object has a chance to be hit
//!    if it is inserted into the MRU position") is applied per object, but
//!    qualified by comparing the object's observed re-access gap with the
//!    cache's estimated full-queue traversal time: a returning object
//!    whose gap exceeds what an MRU residency lasts could not have been
//!    hit anywhere — re-demote it instead of oscillating.
//! 3. **Size-contextual insertion arms.** Figure 4 trains its MAB (and
//!    every other model) on object features, size first among them; the
//!    production system stores sizes in the inode for exactly this reason.
//!    We therefore keep one (ω_m, ω_l) pair per log₂-size class rather
//!    than a single global pair — the bandit machinery and updates are
//!    unchanged, they just address the arm pair of the object's class.
//! 4. **A distinct promotion weight ω_p.** The unified model still treats
//!    promotion as insertion (same SELECT machinery, same λ), but hits and
//!    misses see different base rates (§1 discusses this imbalance), so
//!    the bandit keeps one weight per decision type. P-ZRO evidence comes
//!    from evictions whose *final hit* long predates the eviction — the
//!    promotion bought nothing.

use cdn_cache::{EntryMeta, HistoryEntry, HistoryList, InsertPos, SimRng, Tick};

/// Floor of the learning rate (Algorithm 2, line 8).
pub const LAMBDA_MIN: f64 = 0.001;
/// Ceiling of the learning rate (Algorithm 2, line 6).
pub const LAMBDA_MAX: f64 = 1.0;
/// Weight floor/ceiling: keeps both arms explorable (the BIP "give
/// suspected ZROs a chance" property).
const OMEGA_FLOOR: f64 = 0.02;
/// Initial MRU-promotion probability `ω_p`.
const INITIAL_OMEGA_P: f64 = 0.95;
/// Scale of per-eviction pressure relative to per-ghost-hit updates
/// (evictions are far more frequent than ghost hits).
const EVICTION_PRESSURE: f64 = 0.05;
/// Number of log₂-size context classes.
const N_SIZE_CLASSES: usize = 40;
/// Version byte of the [`ScipCore::export_learned`] snapshot block.
const LEARNED_BLOCK_VERSION: u8 = 1;

#[inline]
fn size_class(size: u64) -> usize {
    (64 - size.max(1).leading_zeros() as usize).min(N_SIZE_CLASSES - 1)
}

/// Tunable parameters of SCIP.
#[derive(Debug, Clone, Copy)]
pub struct ScipConfig {
    /// Learning-rate update interval `i` in requests (Algorithm 1 line 21).
    pub update_interval: u64,
    /// Initial learning rate `λ`.
    pub initial_lambda: f64,
    /// Each history list's byte budget as a fraction of the cache
    /// ("logically, the size of each list is half of the real cache").
    pub history_fraction: f64,
    /// Restarts trigger after this many stagnant windows (paper: 10).
    pub unlearn_threshold: u32,
    /// Initial MRU-insertion probability `ω_m`.
    pub initial_omega_m: f64,
    /// Host mode, for enhancing non-queue algorithms (§4): disables every
    /// queue-relative signal — the traversal-gap test and the P-ZRO
    /// promotion pressure — keeping only the admission-relevant pair
    /// (confirmed-ZRO eviction pressure vs. H_l bypass-mistake rescue).
    pub host_mode: bool,
    /// PRNG seed for `γ` draws and restarts.
    pub seed: u64,
}

impl Default for ScipConfig {
    fn default() -> Self {
        ScipConfig {
            update_interval: 20_000,
            initial_lambda: 0.1,
            history_fraction: 0.5,
            unlearn_threshold: 10,
            initial_omega_m: 0.5,
            host_mode: false,
            seed: 42,
        }
    }
}

/// Algorithm 2 — UPDATELR as a standalone, testable unit.
///
/// Holds the (λ, Π) history it needs: `λ_{t-i}`, `λ_{t-2i}`, `Π_{t-i}`.
#[derive(Debug, Clone)]
pub struct UpdateLr {
    lambda: f64,
    lambda_prev: f64,
    pi_prev: f64,
    unlearn_count: u32,
    unlearn_threshold: u32,
    rng: SimRng,
}

impl UpdateLr {
    /// Fresh state with the given initial learning rate.
    pub fn new(initial_lambda: f64, unlearn_threshold: u32, seed: u64) -> Self {
        assert!((LAMBDA_MIN..=LAMBDA_MAX).contains(&initial_lambda));
        UpdateLr {
            lambda: initial_lambda,
            lambda_prev: initial_lambda,
            pi_prev: 0.0,
            unlearn_count: 0,
            unlearn_threshold,
            rng: SimRng::new(seed),
        }
    }

    /// Current learning rate `λ_t`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Stagnation counter (diagnostics).
    pub fn unlearn_count(&self) -> u32 {
        self.unlearn_count
    }

    /// Learning-rate history `(λ, λ_prev, Π_prev, unlearn_count)` for the
    /// snapshot learned block. The restart RNG is deliberately excluded —
    /// it is exploration state, not learned knowledge.
    pub(crate) fn export_params(&self) -> (f64, f64, f64, u32) {
        (
            self.lambda,
            self.lambda_prev,
            self.pi_prev,
            self.unlearn_count,
        )
    }

    /// Restore learning-rate history from a snapshot, clamping every value
    /// back into its legal range so a stale or hostile block can never
    /// violate the `audit()` invariants.
    pub(crate) fn restore_params(
        &mut self,
        lambda: f64,
        lambda_prev: f64,
        pi_prev: f64,
        unlearn_count: u32,
    ) {
        self.lambda = if lambda.is_finite() {
            lambda.clamp(LAMBDA_MIN, LAMBDA_MAX)
        } else {
            self.lambda
        };
        self.lambda_prev = if lambda_prev.is_finite() {
            lambda_prev.clamp(LAMBDA_MIN, LAMBDA_MAX)
        } else {
            self.lambda
        };
        self.pi_prev = if pi_prev.is_finite() {
            pi_prev.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.unlearn_count = unlearn_count.min(self.unlearn_threshold);
    }

    /// One Algorithm-2 step with the window's average hit rate `Π_t`.
    ///
    /// Hardened against degenerate windows: a non-finite or out-of-range
    /// `Π_t` is treated as 0 (a window with no observable hit rate), and
    /// the resulting `λ` is re-validated — a poisoned gradient can never
    /// drive `λ` to 0, NaN or infinity.
    pub fn update(&mut self, pi_t: f64) {
        let pi_t = if pi_t.is_finite() {
            pi_t.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let delta = pi_t - self.pi_prev; // Δ_t = Π_t − Π_{t−i}
        let grad_denom = self.lambda - self.lambda_prev; // δ_t = λ_{t−i} − λ_{t−2i}
        let new_lambda;
        if grad_denom != 0.0 {
            let ratio = delta / grad_denom;
            // λ_t = λ_{t−i} + λ_{t−i}·(Δ/δ), clamped per the sign of Δ/δ.
            if ratio > 0.0 {
                new_lambda = (self.lambda + self.lambda * ratio).min(LAMBDA_MAX);
            } else {
                new_lambda = (self.lambda + self.lambda * ratio).max(LAMBDA_MIN);
            }
            self.unlearn_count = 0;
        } else {
            new_lambda = self.lambda;
            if pi_t == 0.0 || delta <= 0.0 {
                self.unlearn_count += 1;
            }
        }
        self.lambda_prev = self.lambda;
        // Belt-and-braces: the branch clamps above keep finite values in
        // range already (the clamp here is a no-op for them); a non-finite
        // result keeps the previous λ instead of poisoning the climb.
        self.lambda = if new_lambda.is_finite() {
            new_lambda.clamp(LAMBDA_MIN, LAMBDA_MAX)
        } else {
            self.lambda
        };
        if self.unlearn_count >= self.unlearn_threshold {
            // Random restart (gradient-based stochastic hill climbing).
            self.unlearn_count = 0;
            self.lambda = self.rng.f64_range(LAMBDA_MIN, LAMBDA_MAX);
        }
        self.pi_prev = pi_t;
    }
}

/// The reusable SCIP decision engine: the (ω_m, ω_l) insertion bandit,
/// the ω_p promotion bandit, and the adaptive learning rate. Queue- and
/// history-agnostic — [`crate::Scip`] drives an LRU queue with it,
/// [`crate::Enhanced`] drives LRU-K/LRB.
#[derive(Debug, Clone)]
pub struct ScipCore {
    /// Per-size-class MRU-insertion weights.
    omega_m: Vec<f64>,
    omega_p: f64,
    /// EWMA of how long a hitless MRU residency lasts (ticks): the
    /// "could MRU have helped?" yardstick for the gap test.
    traversal_est: f64,
    lr: UpdateLr,
    /// `e^{-λ}`, the decay of a ghost-hit update, refreshed with λ.
    decay_hit: f64,
    /// `e^{-λ·κ}`, the decay of an eviction-pressure update.
    decay_evict: f64,
    cfg: ScipConfig,
    history_budget: u64,
    rng: SimRng,
    // Window bookkeeping for Π_t.
    window_hits: u64,
    window_reqs: u64,
    /// Requests left until the next UPDATELR; 0 = never
    /// (`update_interval` 0).
    until_update: u64,
}

/// Ghost tag layout: `last_access << 1 | had_hits`.
fn pack_tag(last_access: Tick, had_hits: bool) -> u64 {
    (last_access << 1) | u64::from(had_hits)
}

fn unpack_tag(tag: u64) -> (Tick, bool) {
    (tag >> 1, tag & 1 == 1)
}

impl ScipCore {
    /// Engine for a cache of `capacity` bytes.
    pub fn new(capacity: u64, cfg: ScipConfig) -> Self {
        let mut seed_rng = SimRng::new(cfg.seed);
        let lr_seed = seed_rng.next_u64();
        let mut core = ScipCore {
            omega_m: vec![
                cfg.initial_omega_m.clamp(OMEGA_FLOOR, 1.0 - OMEGA_FLOOR);
                N_SIZE_CLASSES
            ],
            omega_p: INITIAL_OMEGA_P,
            traversal_est: 0.0,
            lr: UpdateLr::new(cfg.initial_lambda, cfg.unlearn_threshold, lr_seed),
            decay_hit: 0.0,
            decay_evict: 0.0,
            cfg,
            history_budget: ((capacity as f64) * cfg.history_fraction) as u64,
            rng: seed_rng,
            window_hits: 0,
            window_reqs: 0,
            until_update: cfg.update_interval,
        };
        core.refresh_decay();
        core
    }

    /// Byte budget of each history list ("logically, the size of each
    /// list is half of the real cache").
    pub fn history_budget(&self) -> u64 {
        self.history_budget
    }

    /// Recompute the memoized decay factors after λ changed.
    fn refresh_decay(&mut self) {
        let lambda = self.lr.lambda();
        self.decay_hit = (-lambda).exp();
        self.decay_evict = (-lambda * EVICTION_PRESSURE).exp();
    }

    /// MRU-insertion probability `ω_m` for a given object size's class.
    pub fn omega_m_for(&self, size: u64) -> f64 {
        self.omega_m[size_class(size)]
    }

    /// Mean MRU-insertion probability across classes (diagnostics).
    pub fn omega_m(&self) -> f64 {
        self.omega_m.iter().sum::<f64>() / self.omega_m.len() as f64
    }

    /// LRU-insertion probability `ω_l = 1 − ω_m` for a size's class.
    pub fn omega_l_for(&self, size: u64) -> f64 {
        1.0 - self.omega_m_for(size)
    }

    /// Current MRU-promotion probability `ω_p`.
    pub fn omega_p(&self) -> f64 {
        self.omega_p
    }

    /// Current learning rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lr.lambda()
    }

    /// Estimated full-queue traversal time in ticks (0 until observed).
    pub fn traversal_estimate(&self) -> f64 {
        self.traversal_est
    }

    #[inline]
    fn clamp_omega(w: f64) -> f64 {
        w.clamp(OMEGA_FLOOR, 1.0 - OMEGA_FLOOR)
    }

    /// Multiplicative update: decrease one arm (of a two-arm pair with
    /// total 1) by `decay` (`e^{-λ·scale}`, memoized) and renormalise;
    /// returns the new weight of the *first* arm.
    fn decay_arm(w_first: f64, decay_first: bool, decay: f64) -> f64 {
        let mut a = w_first;
        let mut b = 1.0 - w_first;
        if decay_first {
            a *= decay;
        } else {
            b *= decay;
        }
        let renorm = a / (a + b);
        if renorm.is_finite() {
            Self::clamp_omega(renorm)
        } else {
            // Degenerate normalisation (both arms underflowed to 0): keep
            // the previous weight rather than poisoning the pair.
            Self::clamp_omega(w_first)
        }
    }

    /// Algorithm 1 lines 6-13 + gap-tested §3.2 judgement: on a miss,
    /// learn from the history entry the missing object was found in (and
    /// taken out of), and return the per-object placement; `None` (no
    /// history) = fall back to SELECT on the learned weights.
    pub fn on_history_hit(
        &mut self,
        hit: Option<(HistoryList, HistoryEntry)>,
        now: Tick,
    ) -> Option<InsertPos> {
        let (list, entry) = hit?;
        let from_hm = list == HistoryList::Hm;
        let decay = self.decay_hit;
        let class = size_class(entry.size);
        let (last_access, had_hits) = unpack_tag(entry.tag);
        if self.cfg.host_mode {
            // Host mode: an H_l ghost is a confirmed bypass mistake —
            // rescue the object and penalise the class's LRU arm. H_m
            // ghosts (the host's own victims returning) say nothing about
            // admission and are just forgotten.
            if !from_hm {
                self.omega_m[class] = Self::decay_arm(self.omega_m[class], false, decay);
                if had_hits {
                    self.omega_p = Self::decay_arm(self.omega_p, false, decay);
                }
                return Some(InsertPos::Mru);
            }
            return None;
        }
        let gap = now.saturating_sub(last_access) as f64;
        // Could an MRU residency have covered this gap?
        let mru_would_help = self.traversal_est <= 0.0 || gap < self.traversal_est;
        if from_hm {
            // MRU residency failed and the object came back: Algorithm 1
            // line 8 — decrease ω_m (of the object's size class).
            self.omega_m[class] = Self::decay_arm(self.omega_m[class], true, decay);
        } else if mru_would_help {
            // Demotion was a confirmed mistake: line 11 — decrease ω_l.
            self.omega_m[class] = Self::decay_arm(self.omega_m[class], false, decay);
            if had_hits {
                // The demotion happened on a hit: promotion arm was wrong.
                self.omega_p = Self::decay_arm(self.omega_p, false, decay);
            }
        }
        Some(if mru_would_help {
            InsertPos::Mru
        } else {
            InsertPos::Lru
        })
    }

    /// Algorithm 1 lines 27-33: SELECT between MIP and LIP by γ, on the
    /// arm pair of the object's size class.
    pub fn decide(&mut self, size: u64) -> InsertPos {
        let gamma = self.rng.f64();
        if self.omega_m[size_class(size)] > gamma {
            InsertPos::Mru
        } else {
            InsertPos::Lru
        }
    }

    /// Promotion SELECT: Algorithm 1 treats every hit as a special miss
    /// (same bimodal SELECT, on the promotion arm). We exempt objects that
    /// have already proven multi-hit behaviour in this residency — a
    /// SELECT there can only lose (verified empirically; see
    /// EXPERIMENTS.md's Figure-7 notes).
    pub fn decide_promotion(&mut self, hits_including_this: u32) -> InsertPos {
        if hits_including_this >= 2 {
            return InsertPos::Mru;
        }
        let gamma = self.rng.f64();
        if self.omega_p > gamma {
            InsertPos::Mru
        } else {
            InsertPos::Lru
        }
    }

    /// Algorithm 1 lines 16-19 + eviction-outcome pressure: apply the
    /// confirmed-ZRO / wasted-promotion penalties for the victim (the
    /// queue's own entry, evicted at `tick`), and name the history list
    /// matching its `insert_pos` mark plus the tag to remember it by.
    pub fn on_evict(&mut self, v: &EntryMeta, tick: Tick) -> (HistoryList, u64) {
        let decay = self.decay_evict;
        if v.inserted_at_mru && v.hits == 0 {
            // Confirmed ZRO residency: the full traversal bought nothing.
            let residency = tick.saturating_sub(v.inserted_tick) as f64;
            self.traversal_est = if self.traversal_est <= 0.0 {
                residency
            } else {
                0.95 * self.traversal_est + 0.05 * residency
            };
            let class = size_class(v.size);
            self.omega_m[class] = Self::decay_arm(self.omega_m[class], true, decay);
        }
        if v.hits > 0 && !self.cfg.host_mode {
            let since_last_hit = tick.saturating_sub(v.last_access) as f64;
            if self.traversal_est > 0.0 && since_last_hit > 0.5 * self.traversal_est {
                // The final hit's promotion bought nothing: P-ZRO.
                self.omega_p = Self::decay_arm(self.omega_p, true, decay);
            }
        }
        let list = if v.inserted_at_mru {
            HistoryList::Hm
        } else {
            HistoryList::Hl
        };
        (list, pack_tag(v.last_access, v.hits > 0))
    }

    /// Algorithm 1 lines 21-22: clock one request and run UPDATELR on
    /// interval boundaries.
    pub fn on_request_end(&mut self, hit: bool) {
        self.window_reqs += 1;
        if hit {
            self.window_hits += 1;
        }
        if self.until_update == 0 {
            return;
        }
        self.until_update -= 1;
        if self.until_update == 0 {
            self.until_update = self.cfg.update_interval;
            let pi = if self.window_reqs == 0 {
                0.0
            } else {
                self.window_hits as f64 / self.window_reqs as f64
            };
            self.lr.update(pi);
            self.refresh_decay();
            self.window_hits = 0;
            self.window_reqs = 0;
        }
    }

    /// Invariant walk over the engine's learned state. Checks, in order:
    ///
    /// - every per-class `ω_m` is finite and inside `[OMEGA_FLOOR,
    ///   1 − OMEGA_FLOOR]`, so `ω_m + ω_l = 1` holds exactly and both arms
    ///   stay explorable;
    /// - `ω_p` obeys the same bounds;
    /// - `λ` is finite and inside `[LAMBDA_MIN, LAMBDA_MAX]`;
    /// - the traversal estimate is finite and non-negative;
    /// - the memoized decay factors match the current λ.
    ///
    /// Returns the first violated invariant.
    pub fn audit(&self) -> Result<(), String> {
        for (class, &w) in self.omega_m.iter().enumerate() {
            if !w.is_finite() || !(OMEGA_FLOOR..=1.0 - OMEGA_FLOOR).contains(&w) {
                return Err(format!("scip: omega_m[{class}] = {w} out of bounds"));
            }
        }
        let p = self.omega_p;
        if !p.is_finite() || !(OMEGA_FLOOR..=1.0 - OMEGA_FLOOR).contains(&p) {
            return Err(format!("scip: omega_p = {p} out of bounds"));
        }
        let l = self.lr.lambda();
        if !l.is_finite() || !(LAMBDA_MIN..=LAMBDA_MAX).contains(&l) {
            return Err(format!("scip: lambda = {l} out of bounds"));
        }
        if !self.traversal_est.is_finite() || self.traversal_est < 0.0 {
            return Err(format!(
                "scip: traversal estimate = {} invalid",
                self.traversal_est
            ));
        }
        if self.decay_hit != (-l).exp() || self.decay_evict != (-l * EVICTION_PRESSURE).exp() {
            return Err(format!("scip: decay factors stale for lambda = {l}"));
        }
        Ok(())
    }

    /// Serialise the learned parameters — per-class `ω_m`, `ω_p`, the
    /// traversal estimate and the `UPDATELR` history — into an opaque
    /// versioned block for warm-restart snapshots.
    ///
    /// The history lists (`H_m`/`H_l`) are deliberately *not* included: they
    /// are bulky derived evidence that re-accumulates within one history
    /// lifetime, while the weights are the distilled knowledge whose loss a
    /// restart actually feels. The RNGs are also excluded (exploration
    /// state, not learned state).
    pub fn export_learned(&self) -> Vec<u8> {
        let (lambda, lambda_prev, pi_prev, unlearn_count) = self.lr.export_params();
        let mut out = Vec::with_capacity(2 + 8 * (self.omega_m.len() + 5) + 4);
        out.push(LEARNED_BLOCK_VERSION);
        out.push(self.omega_m.len() as u8);
        for w in &self.omega_m {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.omega_p.to_le_bytes());
        out.extend_from_slice(&self.traversal_est.to_le_bytes());
        out.extend_from_slice(&lambda.to_le_bytes());
        out.extend_from_slice(&lambda_prev.to_le_bytes());
        out.extend_from_slice(&pi_prev.to_le_bytes());
        out.extend_from_slice(&unlearn_count.to_le_bytes());
        out
    }

    /// Restore learned parameters from an [`export_learned`] block.
    ///
    /// Validated and clamped: an unknown version, wrong class count or
    /// short block is rejected wholesale (returns `false`, state
    /// untouched); individual values are clamped back into their audit
    /// bounds so even a bit-flipped block that passes the outer CRC can
    /// never produce a core that fails [`ScipCore::audit`].
    ///
    /// [`export_learned`]: ScipCore::export_learned
    pub fn restore_learned(&mut self, block: &[u8]) -> bool {
        let n = self.omega_m.len();
        let expect = 2 + 8 * (n + 5) + 4;
        if block.len() != expect || block[0] != LEARNED_BLOCK_VERSION || block[1] as usize != n {
            return false;
        }
        let f64_at = |i: usize| {
            let off = 2 + 8 * i;
            f64::from_le_bytes(block[off..off + 8].try_into().expect("sized above"))
        };
        for (class, w) in self.omega_m.iter_mut().enumerate() {
            let v = f64_at(class);
            if v.is_finite() {
                *w = Self::clamp_omega(v);
            }
        }
        let p = f64_at(n);
        if p.is_finite() {
            self.omega_p = Self::clamp_omega(p);
        }
        let t = f64_at(n + 1);
        if t.is_finite() && t >= 0.0 {
            self.traversal_est = t;
        }
        let count_off = 2 + 8 * (n + 5);
        let unlearn_count = u32::from_le_bytes(
            block[count_off..count_off + 4]
                .try_into()
                .expect("sized above"),
        );
        self.lr
            .restore_params(f64_at(n + 2), f64_at(n + 3), f64_at(n + 4), unlearn_count);
        self.refresh_decay();
        true
    }

    /// Metadata footprint (per-class weights + the engine itself).
    pub fn memory_bytes(&self) -> usize {
        self.omega_m.len() * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::ObjectId;

    type Ghost = (HistoryList, HistoryEntry);

    /// Evict a 10-byte victim with the given residency record at `tick`,
    /// returning the history entry it leaves.
    fn evict(
        c: &mut ScipCore,
        id: u64,
        mru: bool,
        hits: u32,
        inserted: Tick,
        last: Tick,
        tick: Tick,
    ) -> Ghost {
        evict_sized(c, id, 10, mru, hits, inserted, last, tick)
    }

    #[allow(clippy::too_many_arguments)]
    fn evict_sized(
        c: &mut ScipCore,
        id: u64,
        size: u64,
        mru: bool,
        hits: u32,
        inserted: Tick,
        last: Tick,
        tick: Tick,
    ) -> Ghost {
        let victim = EntryMeta {
            id: ObjectId(id),
            size,
            inserted_at_mru: mru,
            inserted_tick: inserted,
            last_access: last,
            hits,
            tag: 0,
        };
        let (list, tag) = c.on_evict(&victim, tick);
        (
            list,
            HistoryEntry {
                id: victim.id,
                size,
                tag,
            },
        )
    }

    #[test]
    fn updatelr_amplifies_on_positive_gradient() {
        let mut u = UpdateLr::new(0.1, 10, 1);
        u.lambda = 0.2; // λ_{t-i}=0.2, λ_{t-2i}=0.1 ⇒ δ=0.1
        u.pi_prev = 0.3;
        u.update(0.4); // Δ=0.1, ratio=1 ⇒ λ=0.4
        assert!((u.lambda() - 0.4).abs() < 1e-12, "λ {}", u.lambda());
        assert_eq!(u.unlearn_count(), 0);
    }

    #[test]
    fn updatelr_damps_on_negative_gradient() {
        let mut u = UpdateLr::new(0.1, 10, 1);
        u.lambda = 0.2;
        u.pi_prev = 0.5;
        u.update(0.4); // Δ=-0.1, δ=0.1, ratio=-1 ⇒ λ = max(0.2-0.2, MIN)
        assert!((u.lambda() - LAMBDA_MIN).abs() < 1e-12);
    }

    #[test]
    fn updatelr_clamps_to_one() {
        let mut u = UpdateLr::new(0.1, 10, 1);
        u.lambda = 0.9;
        u.lambda_prev = 0.1;
        u.pi_prev = 0.1;
        u.update(0.9); // huge positive ratio ⇒ clamp at 1.0
        assert!((u.lambda() - LAMBDA_MAX).abs() < 1e-12);
    }

    #[test]
    fn updatelr_random_restart_after_stagnation() {
        let mut u = UpdateLr::new(0.5, 10, 7);
        for _ in 0..9 {
            u.update(0.0);
        }
        assert_eq!(u.unlearn_count(), 9);
        u.update(0.0); // 10th stagnant window: restart
        assert_eq!(u.unlearn_count(), 0);
        assert!((LAMBDA_MIN..=LAMBDA_MAX).contains(&u.lambda()));
    }

    #[test]
    fn updatelr_improving_hit_rate_is_not_stagnation() {
        let mut u = UpdateLr::new(0.5, 10, 7);
        for i in 0..20 {
            u.update(0.1 + i as f64 * 0.01); // rising Π with δ=0
        }
        assert_eq!(u.unlearn_count(), 0);
        assert!((u.lambda() - 0.5).abs() < 1e-12, "λ untouched while δ=0");
    }

    #[test]
    fn confirmed_zro_evictions_lower_omega_m() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        let before = c.omega_m_for(10);
        for i in 0..200u64 {
            evict(&mut c, i, true, 0, i, i, i + 100);
        }
        assert!(
            c.omega_m_for(10) < before,
            "ω_m {} -> {}",
            before,
            c.omega_m_for(10)
        );
        assert!(c.traversal_estimate() > 0.0);
    }

    #[test]
    fn hm_ghost_hit_lowers_omega_m_and_demotes_far_returner() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        // Establish a traversal estimate of ~100 ticks.
        for i in 0..50u64 {
            evict(&mut c, 1000 + i, true, 0, i, i, i + 100);
        }
        let before = c.omega_m_for(10);
        let ghost = evict(&mut c, 7, true, 0, 0, 0, 100);
        assert_eq!(ghost.0, HistoryList::Hm);
        // Returns at t=1000: gap 1000 >> traversal 100 ⇒ demote.
        let verdict = c.on_history_hit(Some(ghost), 1000);
        assert_eq!(verdict, Some(InsertPos::Lru));
        assert!(c.omega_m_for(10) < before);
    }

    #[test]
    fn hl_ghost_quick_return_promotes_and_penalises_demotion() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        for i in 0..50u64 {
            evict(&mut c, 1000 + i, true, 0, i, i, i + 100);
        }
        // Demoted object evicted at t=10, returns at t=20 (gap 10 < 100).
        let ghost = evict(&mut c, 8, false, 0, 5, 10, 10);
        assert_eq!(ghost.0, HistoryList::Hl);
        let w_before = c.omega_m_for(10);
        let verdict = c.on_history_hit(Some(ghost), 20);
        assert_eq!(verdict, Some(InsertPos::Mru));
        assert!(c.omega_m_for(10) > w_before, "demotion mistake raises ω_m");
    }

    #[test]
    fn demoted_hit_object_returning_boosts_promotion_arm() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        for i in 0..50u64 {
            evict(&mut c, 1000 + i, true, 0, i, i, i + 100);
        }
        let p_before = c.omega_p();
        // Object demoted at a hit (lives in H_l with had_hits), returns
        // quickly: the promotion arm was wrongly suppressed.
        let ghost = evict(&mut c, 9, false, 1, 5, 10, 12);
        c.on_history_hit(Some(ghost), 20);
        assert!(c.omega_p() >= p_before);
    }

    #[test]
    fn wasted_final_hit_lowers_promotion_arm() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        for i in 0..50u64 {
            evict(&mut c, 1000 + i, true, 0, i, i, i + 100);
        }
        let p_before = c.omega_p();
        for i in 0..200u64 {
            // Hit at t=10, evicted at t=400: promotion bought nothing.
            evict(&mut c, 100 + i, true, 1, 0, 10, 400);
        }
        assert!(
            c.omega_p() < p_before,
            "ω_p {} -> {}",
            p_before,
            c.omega_p()
        );
    }

    #[test]
    fn unknown_miss_leaves_weights_untouched() {
        let mut c = ScipCore::new(1000, ScipConfig::default());
        let before = c.omega_m_for(10);
        assert_eq!(c.on_history_hit(None, 5), None);
        assert_eq!(c.omega_m_for(10), before);
    }

    #[test]
    fn decide_follows_omega() {
        let mut c = ScipCore::new(1000, ScipConfig::default());
        let class = size_class(10);
        c.omega_m[class] = 0.98;
        let mru = (0..10_000)
            .filter(|_| c.decide(10) == InsertPos::Mru)
            .count();
        assert!(mru > 9_500, "mru picks {mru}");
        c.omega_m[class] = 0.02;
        let mru = (0..10_000)
            .filter(|_| c.decide(10) == InsertPos::Mru)
            .count();
        assert!(mru < 500, "mru picks {mru}");
    }

    #[test]
    fn size_classes_learn_independently() {
        let mut c = ScipCore::new(1_000_000, ScipConfig::default());
        // Big objects (1 MB class) keep getting evicted hitless; small
        // (10 B class) don't. Only the big class's arm should fall.
        let small_before = c.omega_m_for(10);
        for i in 0..500u64 {
            let ghost = evict_sized(&mut c, i, 1 << 20, true, 0, i, i, i + 100);
            c.on_history_hit(Some(ghost), i + 100_000);
        }
        assert!(c.omega_m_for(1 << 20) < 0.5);
        assert_eq!(c.omega_m_for(10), small_before);
    }

    #[test]
    fn multi_hit_objects_always_promote_to_mru() {
        let mut c = ScipCore::new(1000, ScipConfig::default());
        c.omega_p = OMEGA_FLOOR; // promotion arm fully suppressed
        assert!((0..100).all(|_| c.decide_promotion(2) == InsertPos::Mru));
        let mru = (0..1000)
            .filter(|_| c.decide_promotion(1) == InsertPos::Mru)
            .count();
        assert!(mru < 100, "first hits mostly demoted: {mru}");
    }

    #[test]
    fn weights_stay_clamped() {
        let mut c = ScipCore::new(10_000, ScipConfig::default());
        for i in 0..10_000u64 {
            evict(&mut c, i, true, 0, i, i, i + 1);
        }
        assert!(c.omega_m_for(10) >= OMEGA_FLOOR);
        for i in 0..10_000u64 {
            let ghost = evict(&mut c, i, false, 0, i, i, i + 1);
            c.on_history_hit(Some(ghost), i + 2);
        }
        assert!(c.omega_m_for(10) <= 1.0 - OMEGA_FLOOR);
    }

    #[test]
    fn history_budget_is_half_cache() {
        let c = ScipCore::new(1000, ScipConfig::default());
        assert_eq!(c.history_budget(), 500);
    }

    #[test]
    fn update_interval_counts_requests_and_zero_never_fires() {
        for interval in [0u64, 1, 7] {
            let cfg = ScipConfig {
                update_interval: interval,
                ..ScipConfig::default()
            };
            let mut c = ScipCore::new(1000, cfg);
            for k in 1..=50u64 {
                c.on_request_end(k % 3 == 0);
                // Each UPDATELR closes the Π window.
                let open = if interval == 0 { k } else { k % interval };
                assert_eq!(c.window_reqs, open, "interval {interval}, request {k}");
            }
        }
    }

    #[test]
    fn memoized_decay_tracks_lambda() {
        let cfg = ScipConfig {
            update_interval: 3,
            ..ScipConfig::default()
        };
        let mut c = ScipCore::new(1000, cfg);
        for k in 0..600u64 {
            c.on_request_end(k % 5 < k % 7);
            c.audit().unwrap_or_else(|e| panic!("request {k}: {e}"));
        }
        let mut block = c.export_learned();
        let off = 2 + 8 * (N_SIZE_CLASSES + 2);
        block[off..off + 8].copy_from_slice(&0.37f64.to_le_bytes());
        assert!(c.restore_learned(&block));
        assert_eq!(c.lambda(), 0.37);
        c.audit().expect("restore refreshes the decay factors");
    }

    #[test]
    fn lambda_updates_fire_on_interval() {
        let cfg = ScipConfig {
            update_interval: 10,
            initial_lambda: 0.5,
            ..ScipConfig::default()
        };
        let mut c = ScipCore::new(1000, cfg);
        let mut saw_change = false;
        for _ in 0..1000 {
            c.on_request_end(false);
            if (c.lambda() - 0.5).abs() > 1e-12 {
                saw_change = true;
            }
        }
        assert!(saw_change, "λ should restart after stagnant windows");
    }

    #[test]
    fn learned_block_roundtrips() {
        let mut trained = ScipCore::new(10_000, ScipConfig::default());
        for i in 0..200u64 {
            evict(&mut trained, i, true, 0, i, i, i + 100);
        }
        for _ in 0..50_000 {
            trained.on_request_end(false);
        }
        let block = trained.export_learned();
        let mut fresh = ScipCore::new(10_000, ScipConfig::default());
        assert!(fresh.restore_learned(&block));
        assert_eq!(fresh.omega_m, trained.omega_m);
        assert_eq!(fresh.omega_p, trained.omega_p);
        assert_eq!(fresh.traversal_est, trained.traversal_est);
        assert_eq!(fresh.lr.lambda(), trained.lr.lambda());
        fresh.audit().expect("restored core audits");
    }

    #[test]
    fn learned_block_rejects_malformed() {
        let c = ScipCore::new(10_000, ScipConfig::default());
        let block = c.export_learned();
        let mut fresh = ScipCore::new(10_000, ScipConfig::default());
        assert!(!fresh.restore_learned(&block[..block.len() - 1]));
        assert!(!fresh.restore_learned(&[]));
        let mut wrong_version = block.clone();
        wrong_version[0] = 99;
        assert!(!fresh.restore_learned(&wrong_version));
        let mut wrong_classes = block;
        wrong_classes[1] = 7;
        assert!(!fresh.restore_learned(&wrong_classes));
    }

    #[test]
    fn learned_block_hostile_values_stay_within_audit_bounds() {
        let c = ScipCore::new(10_000, ScipConfig::default());
        let block = c.export_learned();
        // Flip every single byte in turn; the restored core must always
        // either reject the block or clamp back into audit bounds.
        for i in 0..block.len() {
            for bit in 0..8 {
                let mut mutated = block.clone();
                mutated[i] ^= 1 << bit;
                let mut fresh = ScipCore::new(10_000, ScipConfig::default());
                fresh.restore_learned(&mutated);
                fresh.audit().expect("clamped restore audits");
            }
        }
    }

    #[test]
    fn tag_roundtrip() {
        let (last, hh) = unpack_tag(pack_tag(123_456, true));
        assert_eq!(last, 123_456);
        assert!(hh);
        let (last, hh) = unpack_tag(pack_tag(0, false));
        assert_eq!(last, 0);
        assert!(!hh);
    }
}
