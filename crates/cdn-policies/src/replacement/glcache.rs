//! GL-Cache: group-level learning (Yang et al., FAST 2023) — the paper's
//! "current optimal" learned baseline.
//!
//! Faithful simplification: objects inserted close in time form *groups*;
//! utility is learned at group granularity (orders of magnitude fewer
//! predictions than per-object learning), and eviction drains the
//! lowest-utility group. Our groups close after a byte budget
//! (capacity/64); group features are (age, mean object size, request rate,
//! hits per byte); utility labels are the hits-per-byte each group earned
//! over the last observation interval; a GBDT regressor retrains
//! periodically. Before the first training, eviction is FIFO by group
//! creation (what GL-Cache's cold-start also degrades to).

use std::collections::VecDeque;

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, FxHashMap, ObjectId, PolicyStats, Request, Tick};
use cdn_learning::{Gbdt, GbdtParams};

const N_GROUP_FEATURES: usize = 4;

#[derive(Debug, Clone)]
struct Group {
    created: Tick,
    bytes: u64,
    /// Insertion order; objects may have been individually removed.
    members: VecDeque<ObjectId>,
    live_objects: u64,
    hits_total: u64,
    /// Hits at the previous snapshot (for interval labels).
    hits_at_snapshot: u64,
    snapshot_tick: Tick,
}

impl Group {
    fn features(&self, now: Tick, out: &mut [f64; N_GROUP_FEATURES]) {
        let age = now.saturating_sub(self.created).max(1) as f64;
        let mean_size = self.bytes as f64 / self.live_objects.max(1) as f64;
        out[0] = age.ln();
        out[1] = mean_size.max(1.0).ln();
        out[2] = (self.hits_total as f64 / age).ln().max(-20.0);
        out[3] = ((self.hits_total as f64 + 1.0) / self.bytes.max(1) as f64)
            .ln()
            .max(-30.0);
    }
}

#[derive(Debug, Clone, Copy)]
struct ObjInfo {
    size: u64,
    group: u64,
}

/// Group-level learned cache.
#[derive(Debug)]
pub struct GlCache {
    capacity: u64,
    used: u64,
    objects: FxHashMap<ObjectId, ObjInfo>,
    groups: FxHashMap<u64, Group>,
    group_order: VecDeque<u64>,
    next_group_id: u64,
    group_byte_budget: u64,
    model: Option<Gbdt>,
    samples_x: Vec<Vec<f64>>,
    samples_y: Vec<f64>,
    /// Requests between snapshot/train passes.
    pub train_interval: u64,
    last_train: Tick,
    max_samples: usize,
    stats: PolicyStats,
}

impl GlCache {
    /// GL-Cache with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        GlCache {
            capacity,
            used: 0,
            objects: FxHashMap::default(),
            groups: FxHashMap::default(),
            group_order: VecDeque::new(),
            next_group_id: 0,
            group_byte_budget: (capacity / 64).max(1),
            model: None,
            samples_x: Vec::new(),
            samples_y: Vec::new(),
            train_interval: 20_000,
            last_train: 0,
            max_samples: 8_192,
            stats: PolicyStats::default(),
        }
    }

    /// Whether the utility model has trained (diagnostics).
    pub fn trained(&self) -> bool {
        self.model.is_some()
    }

    fn current_group(&mut self, now: Tick) -> u64 {
        let need_new = match self.group_order.back() {
            Some(gid) => self.groups[gid].bytes >= self.group_byte_budget,
            None => true,
        };
        if need_new {
            let gid = self.next_group_id;
            self.next_group_id += 1;
            self.groups.insert(
                gid,
                Group {
                    created: now,
                    bytes: 0,
                    members: VecDeque::new(),
                    live_objects: 0,
                    hits_total: 0,
                    hits_at_snapshot: 0,
                    snapshot_tick: now,
                },
            );
            self.group_order.push_back(gid);
        }
        *self.group_order.back().expect("just ensured")
    }

    fn maybe_train(&mut self, now: Tick) {
        if now.saturating_sub(self.last_train) < self.train_interval {
            return;
        }
        self.last_train = now;
        // Snapshot every group: label = hits per byte earned this interval.
        let mut feats = [0.0f64; N_GROUP_FEATURES];
        for g in self.groups.values_mut() {
            let interval_hits = g.hits_total - g.hits_at_snapshot;
            if now > g.snapshot_tick && g.bytes > 0 {
                g.features(now, &mut feats);
                let label =
                    interval_hits as f64 / g.bytes as f64 / (now - g.snapshot_tick).max(1) as f64
                        * 1e9; // scale to a comfortable regression range
                if self.samples_y.len() >= self.max_samples {
                    self.samples_x.drain(..self.max_samples / 2);
                    self.samples_y.drain(..self.max_samples / 2);
                }
                self.samples_x.push(feats.to_vec());
                self.samples_y.push((label + 1.0).ln());
            }
            g.hits_at_snapshot = g.hits_total;
            g.snapshot_tick = now;
        }
        if self.samples_y.len() >= 512 {
            let mut m = Gbdt::new(GbdtParams {
                n_trees: 15,
                max_depth: 3,
                shrinkage: 0.3,
                min_leaf: 16,
                n_thresholds: 8,
            });
            m.fit_regression(&self.samples_x, &self.samples_y);
            self.model = Some(m);
        }
    }

    /// Pick the eviction group: lowest predicted utility (or oldest before
    /// the model exists).
    fn eviction_group(&self, now: Tick) -> u64 {
        let Some(model) = &self.model else {
            return *self.group_order.front().expect("nonempty");
        };
        let mut feats = [0.0f64; N_GROUP_FEATURES];
        let mut best: Option<(f64, u64)> = None;
        // Scan head groups (old groups dominate eviction candidates in
        // GL-Cache's merge scheme); cap the scan for O(1)-ish cost.
        for &gid in self.group_order.iter().take(16) {
            let g = &self.groups[&gid];
            if g.live_objects == 0 {
                return gid; // drain empties eagerly
            }
            g.features(now, &mut feats);
            let u = model.predict_raw(&feats);
            if best.is_none_or(|(bu, _)| u < bu) {
                best = Some((u, gid));
            }
        }
        best.expect("nonempty order").1
    }

    fn evict_some(&mut self, now: Tick) {
        let gid = self.eviction_group(now);
        // Drain one object (or retire the group if empty).
        loop {
            let g = self.groups.get_mut(&gid).expect("listed");
            match g.members.pop_front() {
                Some(oid) => {
                    if let Some(info) = self.objects.get(&oid) {
                        if info.group == gid {
                            let size = info.size;
                            self.objects.remove(&oid);
                            let g = self.groups.get_mut(&gid).expect("listed");
                            g.bytes -= size;
                            g.live_objects -= 1;
                            self.used -= size;
                            self.stats.evictions += 1;
                            return;
                        }
                    }
                    // Stale member (already removed): keep draining.
                }
                None => {
                    // Group exhausted: retire it.
                    self.groups.remove(&gid);
                    if let Some(pos) = self.group_order.iter().position(|&g| g == gid) {
                        self.group_order.remove(pos);
                    }
                    debug_assert!(!self.group_order.is_empty(), "cache not empty");
                    return;
                }
            }
        }
    }
}

impl CachePolicy for GlCache {
    fn name(&self) -> &str {
        "GL-Cache"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        self.maybe_train(req.tick);
        if let Some(&info) = self.objects.get(&req.id) {
            self.groups
                .get_mut(&info.group)
                .expect("member group live")
                .hits_total += 1;
            return AccessKind::Hit;
        }
        if req.size > self.capacity {
            return AccessKind::Rejected(RejectReason::TooLarge);
        }
        while cdn_cache::needs_eviction(self.capacity, self.used, req.size) {
            self.evict_some(req.tick);
        }
        let gid = self.current_group(req.tick);
        let g = self.groups.get_mut(&gid).expect("current");
        g.members.push_back(req.id);
        g.bytes += req.size;
        g.live_objects += 1;
        self.objects.insert(
            req.id,
            ObjInfo {
                size: req.size,
                group: gid,
            },
        );
        self.used += req.size;
        self.stats.insertions += 1;
        AccessKind::Miss
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn memory_bytes(&self) -> usize {
        self.objects.capacity() * (8 + std::mem::size_of::<ObjInfo>() + 8)
            + self
                .groups
                .values()
                .map(|g| g.members.capacity() * 8 + std::mem::size_of::<Group>())
                .sum::<usize>()
            + self.samples_x.capacity() * N_GROUP_FEATURES * 8
            + self.model.as_ref().map_or(0, |m| m.memory_bytes())
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.objects.len(),
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

    #[test]
    fn accounting_invariants() {
        let reqs: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 7 % 400, 1 + i % 10)).collect();
        let t = micro_trace(&reqs);
        let mut p = GlCache::new(300);
        for r in &t {
            p.on_request(r);
            assert!(p.used_bytes() <= 300);
            let sum: u64 = p.objects.values().map(|o| o.size).sum();
            assert_eq!(sum, p.used_bytes());
            let gsum: u64 = p.groups.values().map(|g| g.bytes).sum();
            assert_eq!(gsum, p.used_bytes());
        }
    }

    #[test]
    fn groups_rotate_as_bytes_accumulate() {
        let mut p = GlCache::new(6400);
        let reqs: Vec<(u64, u64)> = (0..200).map(|i| (i, 10)).collect();
        replay(&mut p, &micro_trace(&reqs));
        assert!(p.groups.len() > 1, "groups {}", p.groups.len());
    }

    #[test]
    fn trains_and_beats_lru_on_group_separable_load() {
        // Consecutive epochs: a run of reusable hot objects, then a run of
        // junk longer than the cache. Groups align with epochs, so learned
        // group utility separates them; LRU loses the hot set every round.
        let cap = 4_000; // 400 objects of size 10
        let mut p = GlCache::new(cap);
        p.train_interval = 4_000;
        let mut reqs = Vec::new();
        let mut junk = 100_000u64;
        for _round in 0..80u64 {
            for _pass in 0..4 {
                for hot in 0..20u64 {
                    reqs.push((hot, 10));
                }
            }
            for _ in 0..500 {
                reqs.push((junk, 10));
                junk += 1;
            }
        }
        let t = micro_trace(&reqs);
        let g = replay(&mut p, &t).miss_ratio();
        let mut lru = Lru::new(cap);
        let l = replay(&mut lru, &t).miss_ratio();
        assert!(p.trained());
        assert!(g < l, "GL-Cache {g} vs LRU {l}");
    }
}
