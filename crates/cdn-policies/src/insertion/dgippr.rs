//! DGIPPR: genetic insertion and promotion for PseudoLRU replacement
//! (Jiménez, MICRO 2013).
//!
//! **Adaptation from CPU caches**: the original evolves per-position
//! insertion/promotion vectors for a 16-way PseudoLRU stack with a genetic
//! algorithm evaluated by set dueling. On an object cache we keep the GA
//! and the phenotype but swap the stack for an 8-segment queue: a genome is
//! `(insert_seg, promote_step)` — where misses enter and how far a hit
//! jumps toward the protected end. Genomes are evaluated online in
//! round-robin epochs on the live hit rate; each generation keeps the best
//! half, refills by uniform crossover and mutates. The periodic evaluation
//! machinery is what gives DGIPPR its elevated CPU cost in Figure 9(a).

use cdn_cache::policy::RejectReason;
use cdn_cache::{AccessKind, CachePolicy, PolicyStats, Request, SegmentedQueue, SimRng};

const N_SEGMENTS: usize = 8;
const POPULATION: usize = 8;

/// One candidate policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Genome {
    /// Segment misses insert into (0 = LRU end).
    pub insert_seg: u8,
    /// Segments a hit jumps upward.
    pub promote_step: u8,
}

impl Genome {
    fn random(rng: &mut SimRng) -> Self {
        Genome {
            insert_seg: rng.u64_below(N_SEGMENTS as u64) as u8,
            promote_step: 1 + rng.u64_below(N_SEGMENTS as u64 - 1) as u8,
        }
    }

    fn crossover(a: Genome, b: Genome, rng: &mut SimRng) -> Genome {
        Genome {
            insert_seg: if rng.chance(0.5) {
                a.insert_seg
            } else {
                b.insert_seg
            },
            promote_step: if rng.chance(0.5) {
                a.promote_step
            } else {
                b.promote_step
            },
        }
    }

    fn mutate(&mut self, rng: &mut SimRng) {
        if rng.chance(0.2) {
            self.insert_seg = rng.u64_below(N_SEGMENTS as u64) as u8;
        }
        if rng.chance(0.2) {
            self.promote_step = 1 + rng.u64_below(N_SEGMENTS as u64 - 1) as u8;
        }
    }
}

/// Genetically-tuned insertion and promotion.
#[derive(Debug, Clone)]
pub struct Dgippr {
    q: SegmentedQueue,
    population: Vec<Genome>,
    fitness: Vec<(u64, u64)>, // (hits, requests) per genome
    current: usize,
    /// Requests each genome is evaluated for per generation.
    pub epoch_len: u64,
    epoch_left: u64,
    generations: u64,
    rng: SimRng,
    stats: PolicyStats,
}

impl Dgippr {
    /// Fresh policy with a random initial population.
    pub fn new(capacity: u64, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut population: Vec<Genome> =
            (0..POPULATION).map(|_| Genome::random(&mut rng)).collect();
        // Seed the classic policies so generation 0 is never hopeless.
        population[0] = Genome {
            insert_seg: (N_SEGMENTS - 1) as u8,
            promote_step: N_SEGMENTS as u8, // ≈ LRU: insert top, hit → top
        };
        population[1] = Genome {
            insert_seg: 0,
            promote_step: N_SEGMENTS as u8, // ≈ LIP
        };
        let epoch_len = 2_000;
        Dgippr {
            q: SegmentedQueue::equal(capacity, N_SEGMENTS),
            population,
            fitness: vec![(0, 0); POPULATION],
            current: 0,
            epoch_len,
            epoch_left: epoch_len,
            generations: 0,
            rng,
            stats: PolicyStats::default(),
        }
    }

    fn evolve(&mut self) {
        self.generations += 1;
        // Rank genomes by hit rate (unevaluated → 0).
        let mut order: Vec<usize> = (0..POPULATION).collect();
        let rate = |&(h, r): &(u64, u64)| {
            if r == 0 {
                0.0
            } else {
                h as f64 / r as f64
            }
        };
        order.sort_by(|&a, &b| {
            rate(&self.fitness[b])
                .partial_cmp(&rate(&self.fitness[a]))
                .expect("finite rates")
        });
        let survivors: Vec<Genome> = order[..POPULATION / 2]
            .iter()
            .map(|&i| self.population[i])
            .collect();
        let mut next = survivors.clone();
        while next.len() < POPULATION {
            let a = survivors[self.rng.usize_below(survivors.len())];
            let b = survivors[self.rng.usize_below(survivors.len())];
            let mut child = Genome::crossover(a, b, &mut self.rng);
            child.mutate(&mut self.rng);
            next.push(child);
        }
        self.population = next;
        self.fitness = vec![(0, 0); POPULATION];
        self.current = 0;
    }

    fn advance_epoch(&mut self) {
        self.epoch_left -= 1;
        if self.epoch_left == 0 {
            self.epoch_left = self.epoch_len;
            self.current += 1;
            if self.current == POPULATION {
                self.evolve();
            }
        }
    }
}

impl CachePolicy for Dgippr {
    fn name(&self) -> &str {
        "DGIPPR"
    }

    fn on_request(&mut self, req: &Request) -> AccessKind {
        let genome = self.population[self.current];
        let outcome = if self.q.contains(req.id) {
            let cur = self.q.segment_of(req.id).expect("resident");
            let target = (cur + genome.promote_step as usize).min(N_SEGMENTS - 1);
            let evicted = self.q.hit_move_to(req.id, target, req.tick);
            self.stats.evictions += evicted.len() as u64;
            self.fitness[self.current].0 += 1;
            AccessKind::Hit
        } else if req.size > self.q.capacity() {
            AccessKind::Rejected(RejectReason::TooLarge)
        } else {
            let evicted = self
                .q
                .insert(genome.insert_seg as usize, req.id, req.size, req.tick);
            self.stats.evictions += evicted.len() as u64;
            self.stats.insertions += 1;
            AccessKind::Miss
        };
        self.fitness[self.current].1 += 1;
        self.advance_epoch();
        outcome
    }

    fn capacity(&self) -> u64 {
        self.q.capacity()
    }

    fn used_bytes(&self) -> u64 {
        self.q.used_bytes()
    }

    fn memory_bytes(&self) -> usize {
        self.q.memory_bytes() + POPULATION * std::mem::size_of::<Genome>()
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            resident_objects: self.q.len(),
            resident_bytes: self.q.used_bytes(),
            ..self.stats
        }
    }

    #[inline]
    fn prefetch_hint(&self, id: cdn_cache::ObjectId) {
        self.q.prefetch_lookup(id);
    }

    fn for_each_resident(&self, visit: &mut dyn FnMut(&cdn_cache::ResidentEntry)) -> bool {
        cdn_cache::export_segmented_queue(&self.q, visit);
        true
    }

    fn restore_resident(&mut self, entries: &[cdn_cache::ResidentEntry]) -> bool {
        cdn_cache::restore_segmented_queue(&mut self.q, entries);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_cache::object::micro_trace;

    #[test]
    fn genome_fields_in_range_after_evolution() {
        let mut p = Dgippr::new(1000, 3);
        (p.epoch_len, p.epoch_left) = (10, 10);
        let reqs: Vec<(u64, u64)> = (0..2000).map(|i| (i % 30, 1)).collect();
        for r in micro_trace(&reqs) {
            p.on_request(&r);
        }
        assert!(p.generations > 0);
        for g in &p.population {
            assert!((g.insert_seg as usize) < N_SEGMENTS);
            assert!(g.promote_step >= 1);
        }
    }

    #[test]
    fn fitness_attributed_to_active_genome() {
        let mut p = Dgippr::new(1000, 5);
        p.epoch_left = p.epoch_len; // genome 0 active
        for r in micro_trace(&[(1, 1), (1, 1), (1, 1)]) {
            p.on_request(&r);
        }
        assert_eq!(p.fitness[0], (2, 3));
    }

    #[test]
    fn improves_over_generations_on_stable_workload() {
        // Thrash-prone loop: evolution should discover low insertion.
        let reqs: Vec<(u64, u64)> = (0..60_000).map(|i| (i % 25, 1)).collect();
        let t = micro_trace(&reqs);
        let mut p = Dgippr::new(20, 7);
        (p.epoch_len, p.epoch_left) = (200, 200);
        let early: f64 = {
            let mut hits = 0u64;
            for r in &t[..8000] {
                if p.on_request(r).is_hit() {
                    hits += 1;
                }
            }
            hits as f64 / 8000.0
        };
        let late: f64 = {
            let mut hits = 0u64;
            for r in &t[t.len() - 8000..] {
                if p.on_request(r).is_hit() {
                    hits += 1;
                }
            }
            hits as f64 / 8000.0
        };
        assert!(late >= early, "late {late} vs early {early}");
    }

    #[test]
    fn capacity_respected() {
        let mut p = Dgippr::new(100, 9);
        for r in micro_trace(&(0..1000).map(|i| (i % 50, 7)).collect::<Vec<_>>()) {
            p.on_request(&r);
            assert!(p.used_bytes() <= 100);
        }
    }
}
