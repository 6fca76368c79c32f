//! Isolated probes: one layer at a time, driven through its public
//! functions on inputs small enough that every traced run can afford the
//! whole set. Each returns `(metric name, value)`; units and the
//! end-to-end metric each should move live in `layers::PER_LAYER`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use cdn_cache::{
    key_shard, route_with_failover, CachePolicy, FusedIndex, GhostEntry, GhostList, LruQueue,
    ObjectId, Request, ResidentEntry, SimRng,
};
use cdn_policies::admission::TinyLfu;
use cdn_policies::insertion::{AscIp, Dip, InsertionCache, Ship};
use cdn_policies::replacement::{Gdsf, Lru, S4Lru};
use cdn_policies::replay_columns;
use cdn_sim::{run_sharded, BatchMode, PolicyKind, TraceCtx, TraceSource};
use cdn_trace::{crc32, partition_columns, TraceColumns, TraceGenerator, Workload as Profile};
use cdnd::snapshot::{load_epoch, write_epoch};
use cdnd::{BoundedRing, Popped, SnapshotData};
use scip::{Scip, ScipConfig};
use tdc::{FaultSchedule, LatencyModel, ResilienceConfig, ResilientTdc, Tdc, TdcConfig};

use crate::replay::trace_config;
use crate::stats::median;
use crate::workload::Scale;

/// Requests of the probe trace (CDN-T) at full scale.
pub const PROBE_REQUESTS: u64 = 1_000_000;
/// Keys in the index probes, entries in the queue and ghost-list probes.
const INDEX_KEYS: u64 = 1 << 20;
const QUEUE_ENTRIES: u64 = 1 << 18;

/// `(metric name, value)` pairs.
pub type Readings = Vec<(&'static str, f64)>;

/// Median over three repetitions of the nanoseconds `f` takes per one of
/// its `ops` operations.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&reps)
}

/// `n` distinct, well-spread keys (`mix64` is a bijection), the same on
/// every run; different salts give disjoint-in-practice sets.
fn keys(n: u64, salt: u64) -> Vec<u64> {
    (0..n)
        .map(|i| cdn_cache::hash::mix64(i ^ (salt << 32)))
        .collect()
}

/// `v` in a fixed pseudo-random order.
fn shuffled(mut v: Vec<u64>, seed: u64) -> Vec<u64> {
    SimRng::new(seed).shuffle(&mut v);
    v
}

/// `cdn-trace`: generator, CRC and partitioner on the probe trace.
/// Returns the generated trace for the probes that follow.
fn trace_layer(requests: u64, seed: u64, out: &mut Readings) -> Vec<Request> {
    let cfg = trace_config(Profile::CdnT, requests, seed);
    let t0 = Instant::now();
    let trace = TraceGenerator::generate(cfg);
    out.push((
        "cdn-trace.generate_ns_per_req",
        t0.elapsed().as_nanos() as f64 / requests as f64,
    ));

    // One on-disk chunk: 64 Ki records of 24 bytes.
    let buf: Vec<u8> = (0..cdn_trace::CHUNK_RECORDS * cdn_trace::RECORD_BYTES)
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let reps = 32u64;
    let ns = ns_per_op(reps * buf.len() as u64, || {
        for _ in 0..reps {
            black_box(crc32(black_box(&buf)));
        }
    });
    out.push(("cdn-trace.crc32_gb_s", 1.0 / ns));

    let cols = TraceColumns::from_requests(&trace);
    let ns = ns_per_op(requests, || {
        black_box(partition_columns(&cols, 4));
    });
    out.push(("cdn-trace.partition_ns_per_req", ns));
    trace
}

/// `cdn-cache`: fused index, LRU queue, ghost list and the two routers.
fn cache_layer(out: &mut Readings) {
    let present = keys(INDEX_KEYS, 1);
    let mut index = FusedIndex::with_capacity(INDEX_KEYS as usize);
    for (i, &k) in present.iter().enumerate() {
        index.insert(k, i as u64);
    }
    let hit_order = shuffled(present.clone(), 99);
    out.push((
        "cdn-cache.index_get_hit_ns",
        ns_per_op(INDEX_KEYS, || {
            let mut found = 0u64;
            for &k in &hit_order {
                found += index.get(k).is_some() as u64;
            }
            assert_eq!(black_box(found), INDEX_KEYS);
        }),
    ));
    let absent: Vec<u64> = shuffled(keys(INDEX_KEYS, 2), 98)
        .into_iter()
        .filter(|&k| !index.contains(k))
        .collect();
    out.push((
        "cdn-cache.index_get_miss_ns",
        ns_per_op(absent.len() as u64, || {
            let mut found = 0u64;
            for &k in &absent {
                found += index.get(k).is_some() as u64;
            }
            assert_eq!(black_box(found), 0);
        }),
    ));
    out.push((
        "cdn-cache.index_insert_remove_ns",
        ns_per_op(2 * INDEX_KEYS, || {
            for &k in &hit_order {
                black_box(index.remove(k));
            }
            for &k in &hit_order {
                index.insert(k, k);
            }
        }),
    ));

    // Unit-size objects, so the byte capacity is the entry count.
    let ids = keys(QUEUE_ENTRIES, 3);
    let mut queue = LruQueue::new(QUEUE_ENTRIES);
    for (tick, &id) in ids.iter().enumerate() {
        queue.insert_mru(ObjectId(id), 1, tick as u64);
    }
    let order = shuffled(ids.clone(), 97);
    out.push((
        "cdn-cache.lruqueue_hit_ns",
        ns_per_op(QUEUE_ENTRIES, || {
            for (tick, &id) in order.iter().enumerate() {
                let h = queue.lookup(ObjectId(id)).expect("resident");
                queue.record_hit_at(h, tick as u64);
                queue.promote_to_mru_at(h);
            }
        }),
    ));
    out.push((
        "cdn-cache.lruqueue_bytes_per_obj",
        queue.memory_bytes() as f64 / queue.len() as f64,
    ));
    let mut fresh = u64::MAX / 2;
    out.push((
        "cdn-cache.lruqueue_miss_ns",
        ns_per_op(QUEUE_ENTRIES, || {
            for tick in 0..QUEUE_ENTRIES {
                black_box(queue.evict_lru());
                fresh += 2;
                queue.insert_mru(ObjectId(fresh), 1, tick);
            }
        }),
    ));

    let mut ghost = GhostList::new(QUEUE_ENTRIES);
    let entry = |id: u64| GhostEntry {
        id: ObjectId(id),
        size: 1,
        evicted_tick: id,
        tag: 0,
    };
    for &id in &ids {
        ghost.add(entry(id));
    }
    let mut next = u64::MAX / 4;
    out.push((
        "cdn-cache.ghost_add_delete_ns",
        ns_per_op(3 * QUEUE_ENTRIES, || {
            // At capacity: every add drops the tail; then look the new
            // entry up and delete every other one again.
            for i in 0..QUEUE_ENTRIES {
                next += 2;
                ghost.add(entry(next));
                black_box(ghost.get(ObjectId(next)).is_some());
                if i % 2 == 0 {
                    black_box(ghost.delete(ObjectId(next)));
                } else {
                    black_box(ghost.delete(ObjectId(next + 1)));
                }
            }
        }),
    ));

    out.push((
        "cdn-cache.key_shard_ns",
        ns_per_op(INDEX_KEYS, || {
            let mut acc = 0usize;
            for &k in &present {
                acc += key_shard(k, 4);
            }
            black_box(acc);
        }),
    ));
    out.push((
        "cdn-cache.route_failover_ns",
        ns_per_op(INDEX_KEYS, || {
            let mut acc = 0usize;
            for &k in &present {
                acc += route_with_failover(k, 4, |_| false).expect("all shards up");
            }
            black_box(acc);
        }),
    ));
}

/// One concrete policy through the bare `on_request` loop: ns per request
/// and metadata bytes per resident object.
fn bare_policy<P: CachePolicy>(
    mut policy: P,
    cols: &TraceColumns,
    ns_name: &'static str,
    bytes_name: &'static str,
    out: &mut Readings,
) -> f64 {
    let t0 = Instant::now();
    black_box(replay_columns(&mut policy, cols));
    let ns = t0.elapsed().as_nanos() as f64 / cols.len() as f64;
    out.push((ns_name, ns));
    out.push((
        bytes_name,
        policy.memory_bytes() as f64 / policy.stats().resident_objects.max(1) as f64,
    ));
    ns
}

/// The SCIP configuration `PolicyKind::Scip` builds for a trace of
/// `requests`.
pub fn scip_config(requests: u64, seed: u64) -> ScipConfig {
    ScipConfig {
        seed,
        update_interval: (requests / 40).max(2_000),
        ..ScipConfig::default()
    }
}

/// `cdn-policies`, `scip`, `cdn-sim`: eight concrete policies on the
/// probe trace, then what the replay engine adds on top of the cheapest.
fn policy_layers(cols: &TraceColumns, capacity: u64, seed: u64, out: &mut Readings) {
    let n = cols.len() as u64;
    let lru_ns = bare_policy(
        Lru::new(capacity),
        cols,
        "cdn-policies.lru_ns_per_req",
        "cdn-policies.lru_bytes_per_obj",
        out,
    );
    bare_policy(
        InsertionCache::new(Dip::new(seed), capacity, "DIP"),
        cols,
        "cdn-policies.dip_ns_per_req",
        "cdn-policies.dip_bytes_per_obj",
        out,
    );
    bare_policy(
        InsertionCache::new(Ship::new(), capacity, "SHiP"),
        cols,
        "cdn-policies.ship_ns_per_req",
        "cdn-policies.ship_bytes_per_obj",
        out,
    );
    bare_policy(
        InsertionCache::new(AscIp::default_for_cdn(), capacity, "ASC-IP"),
        cols,
        "cdn-policies.ascip_ns_per_req",
        "cdn-policies.ascip_bytes_per_obj",
        out,
    );
    bare_policy(
        S4Lru::new(capacity),
        cols,
        "cdn-policies.s4lru_ns_per_req",
        "cdn-policies.s4lru_bytes_per_obj",
        out,
    );
    bare_policy(
        Gdsf::new(capacity),
        cols,
        "cdn-policies.gdsf_ns_per_req",
        "cdn-policies.gdsf_bytes_per_obj",
        out,
    );
    bare_policy(
        TinyLfu::new(capacity),
        cols,
        "cdn-policies.tinylfu_ns_per_req",
        "cdn-policies.tinylfu_bytes_per_obj",
        out,
    );
    bare_policy(
        Scip::with_config(capacity, scip_config(n, seed)),
        cols,
        "scip.ns_per_req",
        "scip.bytes_per_obj",
        out,
    );

    let ctx = TraceCtx::without_oracle(n, seed);
    let engine = TraceSource::Columns(cols)
        .replay(PolicyKind::Lru, capacity, &ctx, BatchMode::Auto)
        .expect("an in-RAM replay has no I/O to fail");
    out.push(("cdn-sim.replay_overhead_ns", engine.ns_per_request - lru_ns));

    let sharded = partition_columns(cols, 2);
    let report = run_sharded(PolicyKind::Lru, capacity, &sharded, seed, BatchMode::Off);
    out.push(("cdn-sim.sharded2_mreq_s", report.aggregate_tps() / 1e6));
}

/// Single-threaded cost of moving one request through the ring, per
/// request (64 pushes then one `pop_many(64)`), and through the batched
/// path (`push_many(1024)` then sixteen `pop_many(64)`).
fn ring_layer(out: &mut Readings) {
    let req = Request::new(0, 1, 1);
    let ring: BoundedRing<Request> = BoundedRing::new(4_096);
    let rounds = 8_192u64;
    out.push((
        "cdnd.ring_push_pop_ns",
        ns_per_op(rounds * 64, || {
            for _ in 0..rounds {
                for _ in 0..64 {
                    ring.try_push(req).expect("ring has room");
                }
                match ring.pop_many(64, Duration::ZERO) {
                    Popped::Items(items) => assert_eq!(black_box(items).len(), 64),
                    other => panic!("ring lost its items: {other:?}"),
                }
            }
        }),
    ));
    let rounds = 512u64;
    out.push((
        "cdnd.ring_push_many_ns",
        ns_per_op(rounds * 1_024, || {
            for _ in 0..rounds {
                let mut batch: VecDeque<Request> = std::iter::repeat_n(req, 1_024).collect();
                assert_eq!(ring.push_many(&mut batch, usize::MAX), Ok(1_024));
                for _ in 0..16 {
                    match ring.pop_many(64, Duration::ZERO) {
                        Popped::Items(items) => assert_eq!(black_box(items).len(), 64),
                        other => panic!("ring lost its items: {other:?}"),
                    }
                }
            }
        }),
    ));
}

/// `cdnd::snapshot`: write and load one epoch of the resident set an LRU
/// holds after the probe trace.
fn snapshot_layer(cols: &TraceColumns, capacity: u64, dir: &Path, out: &mut Readings) {
    let mut policy = Lru::new(capacity);
    replay_columns(&mut policy, cols);
    let mut entries: Vec<ResidentEntry> = Vec::new();
    policy.for_each_resident(&mut |e| entries.push(*e));
    let objects = entries.len().max(1) as f64;
    let data = SnapshotData {
        shard: 0,
        epoch: 1,
        entries,
        learned: None,
    };
    let dir = dir.join("probe-snap");
    let t0 = Instant::now();
    let written = write_epoch(&dir, &data);
    let write_ns = t0.elapsed().as_nanos() as f64;
    out.push(("cdnd.snapshot_write_ms", write_ns / 1e6));
    out.push(("cdnd.snapshot_write_ns_per_obj", write_ns / objects));
    let load_ns = match written {
        Ok(path) => {
            let t0 = Instant::now();
            let loaded = load_epoch(&path, 0, 1);
            let ns = t0.elapsed().as_nanos() as f64;
            if loaded.map(|d| d == data).unwrap_or(false) {
                ns
            } else {
                f64::NAN
            }
        }
        Err(_) => f64::NAN,
    };
    out.push(("cdnd.snapshot_load_ns_per_obj", load_ns / objects));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tdc`: the deployment simulator's serve path, plain and resilient
/// (calm schedule), SCIP deployed halfway.
fn tdc_layer(trace: &[Request], capacity: u64, seed: u64, out: &mut Readings) {
    let cfg = TdcConfig {
        oc_nodes: 4,
        oc_capacity: (capacity / 8).max(1),
        dc_capacity: capacity,
        deploy_at: trace.len() as u64 / 2,
        seed,
    };
    let mut plain = Tdc::new(cfg, LatencyModel::default());
    let t0 = Instant::now();
    let mut total_ms = 0.0;
    for r in trace {
        total_ms += plain.serve(r).1;
    }
    black_box(total_ms);
    out.push((
        "tdc.serve_ns_per_req",
        t0.elapsed().as_nanos() as f64 / trace.len() as f64,
    ));

    let mut resilient = ResilientTdc::new(
        cfg,
        LatencyModel::default(),
        FaultSchedule::calm(),
        ResilienceConfig::default(),
    )
    .expect("default resilience config is valid");
    let t0 = Instant::now();
    let mut available = 0u64;
    for r in trace {
        available += resilient.serve(r).available() as u64;
    }
    black_box(available);
    out.push((
        "tdc.resilient_serve_ns_per_req",
        t0.elapsed().as_nanos() as f64 / trace.len() as f64,
    ));
}

/// Run every isolated probe.
pub fn run_all(seed: u64, scale: Scale, out_dir: &Path) -> Readings {
    let mut out = Readings::new();
    let requests = scale.requests(PROBE_REQUESTS);
    let trace = trace_layer(requests, seed, &mut out);
    let capacity = cdn_trace::TraceStats::compute(&trace)
        .cache_bytes_for_fraction(Profile::CdnT.paper_cache_fraction(64.0));
    let cols = TraceColumns::from_requests(&trace);
    cache_layer(&mut out);
    policy_layers(&cols, capacity, seed, &mut out);
    ring_layer(&mut out);
    snapshot_layer(&cols, capacity, out_dir, &mut out);
    tdc_layer(&trace, capacity, seed, &mut out);
    out
}
