//! Cross-crate pipeline tests: trace generation → I/O → labeling →
//! simulation → TDC, exercising the public APIs the way the experiment
//! binaries do.

use scip_repro::*;

use cdn_sim::runner::{run_policy, PolicyKind, TraceCtx};
use cdn_trace::{TraceGenerator, TraceStats, Workload};

#[test]
fn trace_roundtrips_through_binary_io() {
    let trace = TraceGenerator::generate(Workload::CdnW.profile().config(5_000, 3));
    let dir = std::env::temp_dir().join("scip_repro_pipeline_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w.bin");
    cdn_trace::io::write_binary(&path, &trace).unwrap();
    let back = cdn_trace::io::read_binary(&path).unwrap();
    assert_eq!(trace, back);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulator_grid_smoke() {
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(40_000, 5));
    let stats = TraceStats::compute(&trace);
    let ctx = TraceCtx::new(&trace, 5);
    for frac in [0.01, 0.05] {
        let cap = stats.cache_bytes_for_fraction(frac);
        let belady = run_policy(PolicyKind::Belady, cap, &trace, &ctx).miss_ratio;
        for kind in [
            PolicyKind::Scip,
            PolicyKind::AscIp,
            PolicyKind::S4Lru,
            PolicyKind::Lrb,
        ] {
            let m = run_policy(kind, cap, &trace, &ctx);
            assert!(m.miss_ratio >= belady - 1e-9, "{}", m.policy);
            assert!(m.miss_ratio <= 1.0);
        }
    }
}

#[test]
fn experiment_tables_generate_and_save() {
    let bench = cdn_sim::experiments::Bench::generate(20_000, 77);
    let t1 = cdn_sim::experiments::table1(&bench).unwrap();
    assert!(!t1.is_empty());
    let f7 = cdn_sim::experiments::fig7(&bench).unwrap();
    assert_eq!(f7.len(), 9);
    let path = f7.save_tsv("pipeline_test_fig7").unwrap();
    assert!(path.exists());
    std::fs::remove_file(path).ok();
}

#[test]
fn tdc_deployment_runs_end_to_end() {
    let trace = TraceGenerator::generate(Workload::CdnT.profile().config(60_000, 9));
    let stats = TraceStats::compute(&trace);
    let report = tdc::run_deployment(
        &trace,
        tdc::DeploymentConfig {
            tdc: tdc::TdcConfig {
                oc_nodes: 2,
                oc_capacity: stats.cache_bytes_for_fraction(0.01),
                dc_capacity: stats.cache_bytes_for_fraction(0.04),
                deploy_at: u64::MAX,
                seed: 9,
            },
            latency: tdc::LatencyModel::default(),
            deploy_fraction: 0.5,
        },
    );
    let total: u64 = report.buckets.iter().map(|b| b.requests).sum();
    assert_eq!(total, 60_000);
    assert!(report.before.bto_ratio > 0.0);
    // Deployment must not collapse the system.
    assert!(report.after.bto_ratio <= report.before.bto_ratio + 0.05);
    assert!(report.after.mean_latency_ms > 0.0);
}

#[test]
fn figure4_models_beat_chance_on_zro_task() {
    use cdn_learning::{accuracy, Classifier, ContextualBandit, Gbdt, GbdtParams, Normalizer};
    use cdn_trace::label::{label_trace, RequestLabel};

    let trace = TraceGenerator::generate(Workload::CdnA.profile().config(60_000, 13));
    let stats = TraceStats::compute(&trace);
    let cap = stats.cache_bytes_for_fraction(0.01);
    let labels = label_trace(&trace, cap);

    // Build the miss-only ZRO dataset with the simple online features.
    let mut freq: cdn_cache::FxHashMap<cdn_cache::ObjectId, (u32, u64)> =
        cdn_cache::FxHashMap::default();
    let mut ds = cdn_learning::Dataset::new();
    for r in &trace {
        let e = freq.entry(r.id).or_insert((0, r.tick));
        let gap = r.tick.saturating_sub(e.1) as f64;
        let feats = vec![
            (r.size.max(1) as f64).ln(),
            (e.0 as f64 + 1.0).ln(),
            (gap + 1.0).ln(),
        ];
        e.0 += 1;
        e.1 = r.tick;
        match labels.labels[r.tick as usize] {
            RequestLabel::MissReused => ds.push(feats, 0.0).unwrap(),
            RequestLabel::MissZro { .. } => ds.push(feats, 1.0).unwrap(),
            _ => {}
        }
    }
    let (train, test) = ds.temporal_split(0.7).unwrap();
    let mut rng = cdn_cache::SimRng::new(5);
    let train = train.balanced(&mut rng);
    let test = test.balanced(&mut rng);
    let norm = Normalizer::fit(&train.x).unwrap();
    let mut tx = train.x.clone();
    norm.apply_all(&mut tx);
    let mut sx = test.x.clone();
    norm.apply_all(&mut sx);

    let mut gbm = Gbdt::new(GbdtParams::default());
    gbm.fit(&tx, &train.y);
    let gbm_acc = accuracy(&sx, &test.y, |r| gbm.predict_score(r)).unwrap();
    assert!(gbm_acc > 0.6, "GBM accuracy {gbm_acc}");

    let mut mab = ContextualBandit::new(8);
    mab.fit(&tx, &train.y);
    let mab_acc = accuracy(&sx, &test.y, |r| mab.predict_score(r)).unwrap();
    assert!(mab_acc > 0.55, "MAB accuracy {mab_acc}");
}
