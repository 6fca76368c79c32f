//! Sharded multi-core replay: one policy instance per key partition,
//! replayed on dedicated threads, aggregated at the end.
//!
//! The unit of parallelism is the shard, not the request: each shard owns
//! a private [`cdn_sim::PolicyKind`](crate::PolicyKind) instance and
//! replays its order-preserving partition (built by
//! [`cdn_trace::partition_columns`]) with zero cross-thread communication.
//! The merge is pure arithmetic over per-shard ledgers, so the threaded
//! aggregate is *provably* equal to replaying each partition serially —
//! [`run_sharded`] and [`run_sharded_serial`] produce identical
//! [`AggregateMeasurement`]s (exact `u64` equality, property-tested in
//! `tests/shard_check.rs`).
//!
//! What sharding changes, honestly: each shard manages `capacity / N`
//! bytes over *its keys only*, so the aggregate miss ratio is not the
//! unsharded instance's miss ratio — hot keys can no longer displace cold
//! keys on other shards. Both numbers are real; the bench reports them
//! side by side (DESIGN.md §15).

use std::time::Instant;

use cdn_cache::{key_shard, route_with_failover, Request};
use cdn_trace::{partition_columns, ShardedTrace, TraceColumns};

use crate::runner::{BatchMode, RunMeasurement, TraceCtx};
use crate::PolicyKind;

/// Ledger-level aggregate of a sharded replay — the exact counters, not
/// ratios, so equality against a reference decomposition is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AggregateMeasurement {
    /// Requests across all shards.
    pub requests: u64,
    /// Hits across all shards.
    pub hits: u64,
    /// Misses (rejections included) across all shards.
    pub misses: u64,
    /// Bytes served from cache across all shards.
    pub hit_bytes: u64,
    /// Bytes missed to origin across all shards.
    pub miss_bytes: u64,
    /// Sum of per-shard peak policy-metadata bytes.
    pub peak_memory_bytes: usize,
    /// Sum of per-shard resident objects at end of replay.
    pub resident_objects: usize,
}

impl AggregateMeasurement {
    /// Object miss ratio of the merged ledger.
    pub fn miss_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.misses as f64 / self.requests as f64
        }
    }

    /// Byte miss ratio of the merged ledger.
    pub fn byte_miss_ratio(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.miss_bytes as f64 / total as f64
        }
    }

    fn absorb(&mut self, m: &RunMeasurement) {
        self.requests += m.requests();
        self.hits += m.hits;
        self.misses += m.misses;
        self.hit_bytes += m.hit_bytes;
        self.miss_bytes += m.miss_bytes;
        self.peak_memory_bytes += m.peak_memory_bytes;
        self.resident_objects += m.resident_objects;
    }
}

/// Result of replaying a [`ShardedTrace`] (threaded or serial reference).
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// Per-shard measurements, indexed by shard.
    pub per_shard: Vec<RunMeasurement>,
    /// Merged ledgers (exactly the sum of `per_shard`).
    pub aggregate: AggregateMeasurement,
    /// Wall-clock seconds of the replay region: threaded span for
    /// [`run_sharded`], sum of per-shard replays for
    /// [`run_sharded_serial`]. Context building (next-access tables) is
    /// excluded from both — it is a per-shard preprocessing pass, not
    /// replay.
    pub wall_secs: f64,
}

impl ShardedRunReport {
    /// Aggregate requests per wall-clock second over the replay region.
    pub fn aggregate_tps(&self) -> f64 {
        self.aggregate.requests as f64 / self.wall_secs.max(1e-9)
    }
}

/// Shard columns re-ticked to local positions `0..len`, plus their replay
/// contexts — both built outside the timed region (preprocessing, not
/// replay).
///
/// The partitioner preserves original global ticks (it is a faithful
/// subsequence extractor), but replay contexts index next-access tables
/// positionally and [`cdn_policies::replacement::BeladyPolicy`] requires
/// `req.tick` to be that position. Localizing is a monotone renumbering
/// within each shard, so relative request order — the thing cache
/// outcomes depend on — is untouched, and both the threaded and serial
/// paths see the identical localized stream — as do the routed reference
/// and `cdnd`'s policy factory, which build their contexts here too.
pub fn localized_shards(sharded: &ShardedTrace, seed: u64) -> Vec<(TraceColumns, TraceCtx)> {
    sharded
        .shards
        .iter()
        .map(|cols| {
            let mut local = cols.clone();
            for (i, t) in local.ticks.iter_mut().enumerate() {
                *t = i as u64;
            }
            let requests = local.to_requests();
            let ctx = TraceCtx::new(&requests, seed);
            (local, ctx)
        })
        .collect()
}

fn merge(per_shard: Vec<RunMeasurement>, wall_secs: f64) -> ShardedRunReport {
    let mut aggregate = AggregateMeasurement::default();
    for m in &per_shard {
        aggregate.absorb(m);
    }
    ShardedRunReport {
        per_shard,
        aggregate,
        wall_secs,
    }
}

/// Replay every shard on its own dedicated thread (one thread per shard,
/// even above `available_parallelism` — the OS time-slices and the bench
/// reports the degradation honestly rather than hiding it).
///
/// `total_capacity` is split evenly: each shard's policy instance manages
/// `total_capacity / shards` bytes. Replays are independent and
/// deterministic, so the aggregate equals [`run_sharded_serial`] exactly.
pub fn run_sharded(
    kind: PolicyKind,
    total_capacity: u64,
    sharded: &ShardedTrace,
    seed: u64,
    mode: BatchMode,
) -> ShardedRunReport {
    let n = sharded.shard_count();
    assert!(n > 0, "run_sharded: no shards");
    let per_shard_capacity = (total_capacity / n as u64).max(1);
    let prepared = localized_shards(sharded, seed);
    let start = Instant::now();
    let per_shard: Vec<RunMeasurement> = std::thread::scope(|s| {
        let handles: Vec<_> = prepared
            .iter()
            .map(|(cols, ctx)| {
                s.spawn(move || kind.replay_batched(per_shard_capacity, cols, ctx, mode))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard replay thread panicked"))
            .collect()
    });
    merge(per_shard, start.elapsed().as_secs_f64())
}

/// The reference decomposition: replay each partition serially on the
/// calling thread, identical per-shard work, summed wall time. This is
/// what the sharded aggregate is proven equal against, and the serial
/// baseline of the scaling curve.
pub fn run_sharded_serial(
    kind: PolicyKind,
    total_capacity: u64,
    sharded: &ShardedTrace,
    seed: u64,
    mode: BatchMode,
) -> ShardedRunReport {
    let n = sharded.shard_count();
    assert!(n > 0, "run_sharded_serial: no shards");
    let per_shard_capacity = (total_capacity / n as u64).max(1);
    let prepared = localized_shards(sharded, seed);
    let mut wall = 0f64;
    let per_shard: Vec<RunMeasurement> = prepared
        .iter()
        .map(|(cols, ctx)| {
            let start = Instant::now();
            let m = kind.replay_batched(per_shard_capacity, cols, ctx, mode);
            wall += start.elapsed().as_secs_f64();
            m
        })
        .collect();
    merge(per_shard, wall)
}

/// One shard outage for the routed reference replay, expressed as global
/// indices into the request stream so the decision boundary is exact.
///
/// The request at `crash_index` (a primary request of `shard`) consumes a
/// victim tick and is **lost**: it never reaches the policy, because the
/// daemon's kill failpoint fires before `on_request`, and the victim's
/// cache dies with that incarnation. Requests with index strictly inside
/// `(crash_index, end_index)` whose primary is `shard` re-route to their
/// rendezvous failover shard. At `end_index` the shard revives with a
/// fresh (cold) policy; its tick counter continues across incarnations,
/// exactly like the daemon's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The shard that is down.
    pub shard: usize,
    /// Global index of the killing request (lost, ticks the victim).
    pub crash_index: usize,
    /// Exclusive global index at which the shard is back up.
    pub end_index: usize,
}

impl OutageWindow {
    /// The outage that takes `shard` down for as much of `slice` as a
    /// request can: it crashes on its first primary request in the slice
    /// and is back up at the slice's end. `None` when no request in the
    /// slice has `shard` as its [`key_shard`] primary.
    pub fn first_in(
        requests: &[Request],
        shards: usize,
        shard: usize,
        slice: std::ops::Range<usize>,
    ) -> Option<OutageWindow> {
        let end_index = slice.end;
        slice
            .into_iter()
            .find(|&i| key_shard(requests[i].id.0, shards) == shard)
            .map(|crash_index| OutageWindow {
                shard,
                crash_index,
                end_index,
            })
    }
}

/// Per-shard ledger of a routed reference replay — the exact counters the
/// daemon must reproduce u64-for-u64 on *every* shard (victims included)
/// when failover routing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutedShardLedger {
    /// Requests fully served by this shard's policy.
    pub processed: u64,
    /// Requests lost at a crash boundary (ticked, never served).
    pub lost: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes missed to origin.
    pub miss_bytes: u64,
    /// Requests served here whose primary shard was down (overlay
    /// traffic absorbed for a dead sibling).
    pub failover_in: u64,
}

/// Result of [`run_routed_serial`].
#[derive(Debug, Clone)]
pub struct RoutedRunReport {
    /// Per-shard ledgers, indexed by shard.
    pub per_shard: Vec<RoutedShardLedger>,
    /// Requests that found every shard down (no route at all). The chaos
    /// schedules keep outages non-overlapping, so this stays 0 there.
    pub unroutable: u64,
}

/// Routing-aware serial reference: replay `requests` in global order
/// through per-shard policies built exactly like [`run_sharded_serial`]'s
/// (calm-partition contexts, floor capacity split), but route each
/// request with the *same* deterministic failover decision the daemon
/// makes — primary [`key_shard`] home while up, rendezvous-ordered
/// secondary ([`route_with_failover`]) while the primary is inside an
/// [`OutageWindow`].
///
/// With `windows` empty this degenerates to the calm decomposition: every
/// request lands on its primary in partition order with local ticks
/// `0..len`, so the per-shard ledgers equal [`run_sharded_serial`]'s
/// bit-for-bit (asserted in tests — the "routing on, nothing down"
/// invariant the daemon gates on).
///
/// # Panics
/// If `shards` is zero or any window's `shard` is out of range.
pub fn run_routed_serial(
    kind: PolicyKind,
    total_capacity: u64,
    requests: &[Request],
    shards: usize,
    seed: u64,
    windows: &[OutageWindow],
) -> RoutedRunReport {
    assert!(shards > 0, "run_routed_serial: no shards");
    assert!(
        windows.iter().all(|w| w.shard < shards),
        "run_routed_serial: window shard out of range"
    );
    let per_shard_capacity = (total_capacity / shards as u64).max(1);
    // Policies are built from the *calm* partition's localized contexts —
    // the same contexts the daemon's policy factory uses for first starts
    // and restarts alike.
    let sharded = partition_columns(&TraceColumns::from_requests(requests), shards);
    let ctxs = localized_shards(&sharded, seed);
    let mut policies: Vec<_> = ctxs
        .iter()
        .map(|(_, ctx)| Some(kind.build(per_shard_capacity, ctx)))
        .collect();
    let mut ledgers = vec![RoutedShardLedger::default(); shards];
    let mut ticks = vec![0u64; shards];
    let mut unroutable = 0u64;
    for (i, req) in requests.iter().enumerate() {
        if let Some(w) = windows.iter().find(|w| w.crash_index == i) {
            // The killing request: consumes a victim tick, is counted
            // lost, never reaches the policy (the failpoint panics before
            // `on_request`), and the victim's cache dies here.
            ticks[w.shard] += 1;
            ledgers[w.shard].lost += 1;
            policies[w.shard] = None;
            continue;
        }
        let down = |s: usize| {
            windows
                .iter()
                .any(|w| w.shard == s && w.crash_index < i && i < w.end_index)
        };
        // Revive any shard whose window just ended: fresh cold policy,
        // tick counter continuing (the daemon's restart semantics).
        for w in windows {
            if w.end_index <= i && policies[w.shard].is_none() && !down(w.shard) {
                policies[w.shard] = Some(kind.build(per_shard_capacity, &ctxs[w.shard].1));
            }
        }
        let primary = key_shard(req.id.0, shards);
        let Some(target) = route_with_failover(req.id.0, shards, down) else {
            unroutable += 1;
            continue;
        };
        let mut local = *req;
        local.tick = ticks[target];
        ticks[target] += 1;
        let outcome = policies[target]
            .as_mut()
            .expect("routed target must be up")
            .on_request(&local);
        let ledger = &mut ledgers[target];
        if outcome.is_hit() {
            ledger.hits += 1;
            ledger.hit_bytes += req.size;
        } else {
            ledger.misses += 1;
            ledger.miss_bytes += req.size;
        }
        ledger.processed += 1;
        if target != primary {
            ledger.failover_in += 1;
        }
    }
    RoutedRunReport {
        per_shard: ledgers,
        unroutable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_trace::partition_columns;

    fn sample_sharded(n: usize) -> ShardedTrace {
        let reqs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i * 13 % 700, 1 + i % 40)).collect();
        let trace = cdn_cache::object::micro_trace(&reqs);
        partition_columns(&TraceColumns::from_requests(&trace), n)
    }

    #[test]
    fn threaded_equals_serial_exactly() {
        for shards in [1usize, 2, 3, 4] {
            let sharded = sample_sharded(shards);
            for kind in [PolicyKind::Lru, PolicyKind::Scip] {
                let threaded = run_sharded(kind, 4_000, &sharded, 7, BatchMode::Off);
                let serial = run_sharded_serial(kind, 4_000, &sharded, 7, BatchMode::Off);
                assert_eq!(
                    threaded.aggregate, serial.aggregate,
                    "{kind:?} at {shards} shards"
                );
                for (t, s) in threaded.per_shard.iter().zip(&serial.per_shard) {
                    assert_eq!(t.hits, s.hits);
                    assert_eq!(t.misses, s.misses);
                    assert_eq!(t.hit_bytes, s.hit_bytes);
                    assert_eq!(t.miss_bytes, s.miss_bytes);
                }
            }
        }
    }

    #[test]
    fn batched_mode_does_not_change_aggregates() {
        let sharded = sample_sharded(2);
        let plain = run_sharded(PolicyKind::Lru, 4_000, &sharded, 7, BatchMode::Off);
        let batched = run_sharded(PolicyKind::Lru, 4_000, &sharded, 7, BatchMode::Fixed(8));
        assert_eq!(plain.aggregate, batched.aggregate);
    }

    #[test]
    fn aggregate_covers_every_request() {
        let sharded = sample_sharded(4);
        let report = run_sharded(PolicyKind::Lru, 4_000, &sharded, 7, BatchMode::Off);
        assert_eq!(report.aggregate.requests, sharded.total_requests());
        assert_eq!(
            report.aggregate.hits + report.aggregate.misses,
            report.aggregate.requests
        );
        assert!(report.aggregate_tps() > 0.0);
        let ratio = report.aggregate.miss_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    #[test]
    fn routed_serial_with_no_windows_is_bit_identical_to_calm_serial() {
        // The calm-path identity the daemon's routing gate relies on:
        // routing enabled with nothing down must change no ledger at all.
        let reqs: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * 13 % 700, 1 + i % 40)).collect();
        let trace = cdn_cache::object::micro_trace(&reqs);
        for shards in [1usize, 2, 4] {
            let sharded = partition_columns(&TraceColumns::from_requests(&trace), shards);
            for kind in [PolicyKind::Lru, PolicyKind::Scip] {
                let calm = run_sharded_serial(kind, 4_000, &sharded, 7, BatchMode::Off);
                let routed = run_routed_serial(kind, 4_000, &trace, shards, 7, &[]);
                assert_eq!(routed.unroutable, 0);
                for (s, (r, c)) in routed.per_shard.iter().zip(&calm.per_shard).enumerate() {
                    assert_eq!(r.failover_in, 0, "{kind:?} shard {s}");
                    assert_eq!(r.lost, 0, "{kind:?} shard {s}");
                    assert_eq!(
                        (r.hits, r.misses, r.hit_bytes, r.miss_bytes),
                        (c.hits, c.misses, c.hit_bytes, c.miss_bytes),
                        "{kind:?} shard {s} at {shards} shards"
                    );
                    assert_eq!(r.processed, c.hits + c.misses);
                }
            }
        }
    }

    #[test]
    fn routed_serial_accounts_every_request_under_outage() {
        let reqs: Vec<(u64, u64)> = (0..30_000u64).map(|i| (i * 17 % 900, 1 + i % 32)).collect();
        let trace = cdn_cache::object::micro_trace(&reqs);
        let shards = 4usize;
        // Pick a crash index whose request is primary on its shard.
        let crash_index = 10_000usize;
        let victim = cdn_cache::key_shard(trace[crash_index].id.0, shards);
        let windows = [OutageWindow {
            shard: victim,
            crash_index,
            end_index: 20_000,
        }];
        let report = run_routed_serial(PolicyKind::Lru, 4_000, &trace, shards, 7, &windows);
        assert_eq!(report.unroutable, 0);
        let processed: u64 = report.per_shard.iter().map(|l| l.processed).sum();
        let lost: u64 = report.per_shard.iter().map(|l| l.lost).sum();
        assert_eq!(lost, 1);
        assert_eq!(report.per_shard[victim].lost, 1);
        assert_eq!(processed + lost, trace.len() as u64);
        // Overlay traffic landed on survivors, never the victim.
        let failover: u64 = report.per_shard.iter().map(|l| l.failover_in).sum();
        assert!(failover > 0, "outage must divert some primaries");
        assert_eq!(report.per_shard[victim].failover_in, 0);
        // Every ledger stays internally consistent.
        for l in &report.per_shard {
            assert_eq!(l.processed, l.hits + l.misses);
        }
    }

    #[test]
    fn routed_serial_is_deterministic() {
        let reqs: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 7 % 500, 1 + i % 20)).collect();
        let trace = cdn_cache::object::micro_trace(&reqs);
        let windows = [OutageWindow {
            shard: cdn_cache::key_shard(trace[2_000].id.0, 4),
            crash_index: 2_000,
            end_index: 6_000,
        }];
        let a = run_routed_serial(PolicyKind::Scip, 4_000, &trace, 4, 7, &windows);
        let b = run_routed_serial(PolicyKind::Scip, 4_000, &trace, 4, 7, &windows);
        assert_eq!(a.per_shard, b.per_shard);
    }

    #[test]
    fn one_shard_matches_unsharded_replay() {
        // With a single shard the partition is the whole trace and the
        // aggregate must equal a plain instrumented replay at the same
        // capacity.
        let sharded = sample_sharded(1);
        let report = run_sharded(PolicyKind::Lru, 4_000, &sharded, 7, BatchMode::Off);
        let trace = sharded.shards[0].to_requests();
        let ctx = TraceCtx::new(&trace, 7);
        let plain =
            PolicyKind::Lru.replay_batched(4_000, &sharded.shards[0], &ctx, BatchMode::Auto);
        assert_eq!(report.aggregate.hits, plain.hits);
        assert_eq!(report.aggregate.misses, plain.misses);
        assert_eq!(report.aggregate.hit_bytes, plain.hit_bytes);
        assert_eq!(report.aggregate.miss_bytes, plain.miss_bytes);
    }
}
