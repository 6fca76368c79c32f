//! One function per paper table/figure. Each returns [`Table`]s that the
//! `experiments` binary prints and persists under `results/`.

use std::sync::Arc;

use cdn_cache::{FxHashMap, ObjectId, Request};
use cdn_learning::{
    accuracy, Classifier, ContextualBandit, Dataset, Gbdt, GbdtParams, LinReg, LogReg, Mlp,
    Normalizer,
};
use cdn_trace::label::{label_trace, oracle_replay, OracleTreatment, RequestLabel};
use cdn_trace::{TraceGenerator, TraceStats, Workload};

use cdn_learning::LearnError;

use crate::runner::{run_policy, PolicyKind, RunMeasurement, TraceCtx};
use crate::sweep::parallel_runs;
use crate::table::{mb, pct, Table, TableError};

/// Anything that can go wrong while building an experiment table.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// Table shape violation (ragged row).
    Table(TableError),
    /// Dataset/metric failure in a learning experiment.
    Learn(LearnError),
    /// A study's own release gate failed; the message names it.
    Gate(&'static str),
}

impl From<TableError> for ExperimentError {
    fn from(e: TableError) -> Self {
        ExperimentError::Table(e)
    }
}

impl From<LearnError> for ExperimentError {
    fn from(e: LearnError) -> Self {
        ExperimentError::Learn(e)
    }
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Table(e) => write!(f, "table error: {e}"),
            ExperimentError::Learn(e) => write!(f, "learning error: {e}"),
            ExperimentError::Gate(what) => write!(f, "gate failed: {what}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Shared experiment inputs: one generated trace per workload.
pub struct Bench {
    /// (workload, trace, stats) triples in paper order.
    pub traces: Vec<(Workload, Arc<Vec<Request>>, TraceStats)>,
    /// Requests per trace.
    pub requests: u64,
    /// Master seed.
    pub seed: u64,
}

impl Bench {
    /// Generate all three workloads at the configured scale.
    pub fn generate(requests: u64, seed: u64) -> Self {
        let traces = Workload::ALL
            .iter()
            .map(|&w| {
                let trace = TraceGenerator::generate(w.profile().config(requests, seed));
                let stats = TraceStats::compute(&trace);
                (w, Arc::new(trace), stats)
            })
            .collect();
        Bench {
            traces,
            requests,
            seed,
        }
    }

    /// The paper's Figure-8 cache points (64/128/256 GB) as WSS fractions
    /// per workload, converted to bytes for our scaled traces.
    pub fn paper_cache_bytes(&self, w: Workload, stats: &TraceStats, gb: f64) -> u64 {
        stats.cache_bytes_for_fraction(w.paper_cache_fraction(gb))
    }
}

/// Table 1: workload summary statistics.
pub fn table1(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Table 1 — summary of workloads",
        &["metric", "CDN-T", "CDN-W", "CDN-A"],
    );
    let s: Vec<&TraceStats> = bench.traces.iter().map(|(_, _, s)| s).collect();
    let fmt =
        |f: &dyn Fn(&TraceStats) -> String| -> Vec<String> { s.iter().map(|st| f(st)).collect() };
    type StatRow<'a> = (&'a str, Box<dyn Fn(&TraceStats) -> String>);
    let rows: Vec<StatRow> = vec![
        (
            "Total Requests (K)",
            Box::new(|s: &TraceStats| format!("{:.1}", s.total_requests as f64 / 1e3)),
        ),
        (
            "Unique Objects (K)",
            Box::new(|s: &TraceStats| format!("{:.1}", s.unique_objects as f64 / 1e3)),
        ),
        (
            "Requests / Unique",
            Box::new(|s: &TraceStats| format!("{:.2}", s.requests_per_object())),
        ),
        (
            "Max Object Size (MB)",
            Box::new(|s: &TraceStats| format!("{:.2}", s.max_size as f64 / 1e6)),
        ),
        (
            "Min Object Size (B)",
            Box::new(|s: &TraceStats| format!("{}", s.min_size)),
        ),
        (
            "Mean Object Size (KB)",
            Box::new(|s: &TraceStats| format!("{:.2}", s.mean_size_bytes() / 1024.0)),
        ),
        (
            "Working Set Size (GB)",
            Box::new(|s: &TraceStats| format!("{:.2}", s.wss_gb())),
        ),
    ];
    for (name, f) in rows {
        let mut cells = vec![name.to_string()];
        cells.extend(fmt(&*f));
        t.row(cells)?;
    }
    Ok(t)
}

/// Figure 1: ZRO/A-ZRO/P-ZRO/A-P-ZRO percentages and achievable miss-ratio
/// reductions under LRU at cache sizes A-D (0.5/1/5/10 % of the WSS).
pub fn fig1(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Figure 1 — ZRO / P-ZRO structure under LRU (cache = fraction of WSS X)",
        &[
            "workload",
            "cache",
            "ZRO/miss",
            "A-ZRO/ZRO",
            "P-ZRO/hit",
            "A-P-ZRO/P-ZRO",
            "LRU mr",
            "mr|ZRO@LRU",
            "mr|PZRO@LRU",
            "mr|both@LRU",
        ],
    );
    let fractions = [
        ("0.5%X", 0.005),
        ("1%X", 0.01),
        ("5%X", 0.05),
        ("10%X", 0.1),
    ];
    let jobs: Vec<_> = bench
        .traces
        .iter()
        .flat_map(|(w, trace, stats)| {
            fractions.iter().map(move |&(label, f)| {
                let trace = trace.clone();
                let cap = stats.cache_bytes_for_fraction(f);
                let w = *w;
                move || {
                    let labels = label_trace(&trace, cap);
                    let s = labels.summary;
                    let zro = oracle_replay(&trace, &labels, cap, OracleTreatment::Zro, 1.0);
                    let pz = oracle_replay(&trace, &labels, cap, OracleTreatment::PZro, 1.0);
                    let both = oracle_replay(&trace, &labels, cap, OracleTreatment::Both, 1.0);
                    vec![
                        w.name().to_string(),
                        label.to_string(),
                        pct(s.zro_of_misses()),
                        pct(s.azro_of_zros()),
                        pct(s.pzro_of_hits()),
                        pct(s.apzro_of_pzros()),
                        pct(s.miss_ratio()),
                        pct(zro),
                        pct(pz),
                        pct(both),
                    ]
                }
            })
        })
        .collect();
    for row in parallel_runs(jobs) {
        t.row(row)?;
    }
    Ok(t)
}

/// Figure 3: miss ratio when the first x % of labeled ZROs / P-ZROs / both
/// are placed at the LRU position (LRU replay, 1 % of WSS cache).
pub fn fig3(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Figure 3 — theoretical miss ratio vs fraction of treated objects (cache = 1%X)",
        &["workload", "treated%", "ZRO@LRU", "P-ZRO@LRU", "both@LRU"],
    );
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    let jobs: Vec<_> = bench
        .traces
        .iter()
        .map(|(w, trace, stats)| {
            let trace = trace.clone();
            let cap = stats.cache_bytes_for_fraction(0.01);
            let w = *w;
            move || {
                let labels = label_trace(&trace, cap);
                let mut rows = Vec::new();
                for &f in &fractions {
                    let z = oracle_replay(&trace, &labels, cap, OracleTreatment::Zro, f);
                    let p = oracle_replay(&trace, &labels, cap, OracleTreatment::PZro, f);
                    let b = oracle_replay(&trace, &labels, cap, OracleTreatment::Both, f);
                    rows.push(vec![
                        w.name().to_string(),
                        format!("{:.0}%", f * 100.0),
                        pct(z),
                        pct(p),
                        pct(b),
                    ]);
                }
                rows
            }
        })
        .collect();
    for rows in parallel_runs(jobs) {
        for row in rows {
            t.row(row)?;
        }
    }
    Ok(t)
}

/// Build the Figure-4 classification datasets from a labeled replay:
/// online features (log size, log frequency-so-far, log recency gap) and
/// three tasks (ZRO on misses, P-ZRO on hits, both on all requests).
fn fig4_datasets(trace: &[Request], cache_bytes: u64) -> Result<[Dataset; 3], LearnError> {
    let labels = label_trace(trace, cache_bytes);
    let mut freq: FxHashMap<ObjectId, (u32, u64)> = FxHashMap::default();
    let mut zro_ds = Dataset::new();
    let mut pzro_ds = Dataset::new();
    let mut both_ds = Dataset::new();
    for r in trace {
        let entry = freq.entry(r.id).or_insert((0, r.tick));
        let gap = r.tick.saturating_sub(entry.1) as f64;
        let feats = vec![
            (r.size.max(1) as f64).ln(),
            (entry.0 as f64 + 1.0).ln(),
            (gap + 1.0).ln(),
        ];
        entry.0 = entry.0.saturating_add(1);
        entry.1 = r.tick;
        match labels.labels[r.tick as usize] {
            RequestLabel::MissReused => {
                zro_ds.push(feats.clone(), 0.0)?;
                both_ds.push(feats, 0.0)?;
            }
            RequestLabel::MissZro { .. } => {
                zro_ds.push(feats.clone(), 1.0)?;
                both_ds.push(feats, 1.0)?;
            }
            RequestLabel::HitReused => {
                pzro_ds.push(feats.clone(), 0.0)?;
                both_ds.push(feats, 0.0)?;
            }
            RequestLabel::HitPZro { .. } => {
                pzro_ds.push(feats.clone(), 1.0)?;
                both_ds.push(feats, 1.0)?;
            }
            RequestLabel::Inadmissible => {}
        }
    }
    Ok([zro_ds, pzro_ds, both_ds])
}

fn eval_model(name: &str, ds: &Dataset, seed: u64) -> Result<(String, f64), LearnError> {
    let (train_raw, test_raw) = ds.temporal_split(0.7)?;
    if train_raw.is_empty() || test_raw.is_empty() {
        return Ok((name.to_string(), f64::NAN));
    }
    let mut rng = cdn_cache::SimRng::new(seed);
    // Balance both splits so 50 % accuracy = chance, as a "decision
    // accuracy" comparison requires.
    let mut train = train_raw.balanced(&mut rng);
    let test = test_raw.balanced(&mut rng);
    if train.is_empty() || test.is_empty() {
        return Ok((name.to_string(), f64::NAN));
    }
    const CAP: usize = 30_000;
    if train.len() > CAP {
        train.x.truncate(CAP);
        train.y.truncate(CAP);
    }
    let norm = Normalizer::fit(&train.x)?;
    let mut train_x = train.x.clone();
    norm.apply_all(&mut train_x);
    let mut test_x = test.x.clone();
    norm.apply_all(&mut test_x);

    let dim = train.dim();
    let mut model: Box<dyn Classifier> = match name {
        "LinReg" => Box::new(LinReg::new(dim)),
        "LogReg" => Box::new(LogReg::new(dim)),
        "SVM" => Box::new(cdn_learning::LinearSvm::new(dim)),
        "NN" => Box::new(Mlp::new(dim)),
        "GBM" => Box::new(Gbdt::new(GbdtParams::default())),
        "MAB" => Box::new(ContextualBandit::new(8)),
        other => panic!("unknown model {other}"),
    };
    model.fit(&train_x, &train.y);
    let acc = accuracy(&test_x, &test.y, |row| model.predict_score(row))?;
    Ok((name.to_string(), acc))
}

/// Figure 4: decision accuracy of six model families on ZRO, P-ZRO and
/// combined identification (cache = 1 % of WSS).
pub fn fig4(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut t = Table::new(
        "Figure 4 — decision accuracy identifying ZRO / P-ZRO / both (balanced test sets)",
        &[
            "workload", "task", "LinReg", "LogReg", "SVM", "NN", "GBM", "MAB",
        ],
    );
    const MODELS: [&str; 6] = ["LinReg", "LogReg", "SVM", "NN", "GBM", "MAB"];
    let jobs: Vec<_> = bench
        .traces
        .iter()
        .map(|(w, trace, stats)| {
            let trace = trace.clone();
            let cap = stats.cache_bytes_for_fraction(0.01);
            let w = *w;
            let seed = bench.seed;
            move || -> Result<Vec<Vec<String>>, LearnError> {
                let datasets = fig4_datasets(&trace, cap)?;
                let tasks = ["ZRO", "P-ZRO", "both"];
                let mut rows = Vec::new();
                for (task, ds) in tasks.iter().zip(&datasets) {
                    let mut cells = vec![w.name().to_string(), task.to_string()];
                    for m in MODELS {
                        let (_, acc) = eval_model(m, ds, seed)?;
                        cells.push(if acc.is_nan() {
                            "n/a".to_string()
                        } else {
                            pct(acc)
                        });
                    }
                    rows.push(cells);
                }
                Ok(rows)
            }
        })
        .collect();
    for rows in parallel_runs(jobs) {
        for row in rows? {
            t.row(row)?;
        }
    }
    Ok(t)
}

/// Figure 6: the TDC deployment study (BTO bandwidth/ratio and latency,
/// before vs after SCIP).
pub fn fig6(bench: &Bench) -> Result<(Table, Table), ExperimentError> {
    // Use the CDN-T analog (TDC's own traffic).
    let (w, trace, stats) = &bench.traces[0];
    assert_eq!(*w, Workload::CdnT);
    let cfg = tdc::DeploymentConfig {
        tdc: tdc::TdcConfig {
            oc_nodes: 4,
            oc_capacity: stats.cache_bytes_for_fraction(0.01),
            dc_capacity: stats.cache_bytes_for_fraction(0.05),
            deploy_at: u64::MAX,
            seed: bench.seed,
        },
        latency: tdc::LatencyModel::default(),
        deploy_fraction: 0.5,
    };
    let report = tdc::run_deployment(trace, cfg);

    let mut series = Table::new(
        "Figure 6 — TDC timeline (SCIP deploys mid-run)",
        &["bucket", "start_s", "BTO-Gbps", "BTO-ratio", "latency_ms"],
    );
    for (i, b) in report.buckets.iter().enumerate() {
        series.row(vec![
            i.to_string(),
            format!("{:.0}", b.start_secs),
            format!("{:.3}", b.bto_gbps(report.bucket_secs)),
            pct(b.bto_ratio()),
            format!("{:.1}", b.mean_latency_ms()),
        ])?;
    }

    let mut summary = Table::new(
        "Figure 6 — before/after SCIP deployment (paper: 8.87%→6.59%, −25.7% BTO, −26.1% latency)",
        &["metric", "before", "after", "change"],
    );
    let rel = |b: f64, a: f64| format!("{:+.1}%", (a - b) / b.max(1e-12) * 100.0);
    summary.row(vec![
        "BTO ratio".into(),
        pct(report.before.bto_ratio),
        pct(report.after.bto_ratio),
        rel(report.before.bto_ratio, report.after.bto_ratio),
    ])?;
    summary.row(vec![
        "BTO bandwidth (Gbps)".into(),
        format!("{:.3}", report.before.bto_gbps),
        format!("{:.3}", report.after.bto_gbps),
        rel(report.before.bto_gbps, report.after.bto_gbps),
    ])?;
    summary.row(vec![
        "mean latency (ms)".into(),
        format!("{:.1}", report.before.mean_latency_ms),
        format!("{:.1}", report.after.mean_latency_ms),
        rel(report.before.mean_latency_ms, report.after.mean_latency_ms),
    ])?;
    Ok((summary, series))
}

/// Wall-clock span chaos replays dilate their trace to. Generated traces
/// compress a diurnal cycle into a few seconds; resilience budgets
/// (timeouts, breaker cooldowns) are wall-time, so fault windows must
/// last long enough — seconds to tens of seconds — to bite.
const CHAOS_SPAN_SECS: f64 = 600.0;

/// One `(schedule × SCIP arm)` cell of the Figure 6 chaos study —
/// whole-timeline aggregates plus the resilience event counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Fault schedule name (`calm`, `origin-brownout`, `oc-churn`).
    pub schedule: String,
    /// Whether SCIP was deployed (from tick 0) or LRU ran throughout.
    pub scip: bool,
    /// Whole-timeline BTO (miss) ratio.
    pub bto_ratio: f64,
    /// Whole-timeline mean BTO bandwidth, Gbps.
    pub bto_gbps: f64,
    /// Fraction of requests answered (fresh or stale).
    pub availability: f64,
    /// Mean user latency, ms.
    pub mean_latency_ms: f64,
    /// Median user latency, ms.
    pub p50_ms: f64,
    /// Tail latencies, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
    /// Degradation/recovery event counts.
    pub counters: tdc::ResilienceCounters,
}

/// Output of [`fig6_chaos`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosStudy {
    /// One cell per `(schedule, scip)` arm, in a fixed order.
    pub cells: Vec<ChaosCell>,
    /// Whether the calm resilient replay was bit-identical to the plain
    /// serving path (buckets and latency histograms) — the no-overhead
    /// gate [`ChaosStudy::table`] enforces.
    pub calm_matches_plain: bool,
    /// Requests replayed.
    pub requests: u64,
    /// Seed of the trace and every schedule.
    pub seed: u64,
}

impl ChaosStudy {
    /// All calm arms served every request.
    pub fn calm_fully_available(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.schedule == "calm")
            .all(|c| c.availability == 1.0)
    }

    /// Render as a [`Table`] — or refuse: the resilience machinery must be
    /// free when nothing fails, so a calm replay that diverges from the
    /// plain path or fails a request is an error, not a row.
    pub fn table(&self) -> Result<Table, ExperimentError> {
        if !self.calm_matches_plain {
            return Err(ExperimentError::Gate(
                "calm resilient replay diverged from the plain serving path",
            ));
        }
        if !self.calm_fully_available() {
            return Err(ExperimentError::Gate("calm availability below 100%"));
        }
        let mut t = Table::new(
            "Figure 6 under chaos — SCIP vs LRU across fault schedules",
            &[
                "schedule",
                "policy",
                "BTO-ratio",
                "BTO-Gbps",
                "avail",
                "mean_ms",
                "p50_ms",
                "p99_ms",
                "p999_ms",
                "stale",
                "trips",
                "failovers",
                "coalesced",
            ],
        );
        for c in &self.cells {
            t.row(vec![
                c.schedule.clone(),
                if c.scip { "SCIP" } else { "LRU" }.into(),
                pct(c.bto_ratio),
                format!("{:.3}", c.bto_gbps),
                pct(c.availability),
                format!("{:.1}", c.mean_latency_ms),
                format!("{:.1}", c.p50_ms),
                format!("{:.1}", c.p99_ms),
                format!("{:.1}", c.p999_ms),
                c.counters.stale_serves.to_string(),
                c.counters.breaker_trips.to_string(),
                c.counters.failovers.to_string(),
                c.counters.coalesced.to_string(),
            ])?;
        }
        Ok(t)
    }
}

/// Whole-timeline aggregates of a deployment report.
fn chaos_cell(schedule: &str, scip: bool, report: &tdc::DeploymentReport) -> ChaosCell {
    let requests: u64 = report.buckets.iter().map(|b| b.requests).sum();
    let bto: u64 = report.buckets.iter().map(|b| b.bto_requests).sum();
    let bytes: u64 = report.buckets.iter().map(|b| b.bto_bytes).sum();
    let lat: f64 = report.buckets.iter().map(|b| b.latency_sum_ms).sum();
    let span = report.buckets.len() as f64 * report.bucket_secs;
    let mut hist = report.hist_before.clone();
    hist.merge(&report.hist_after);
    ChaosCell {
        schedule: schedule.to_string(),
        scip,
        bto_ratio: if requests == 0 {
            0.0
        } else {
            bto as f64 / requests as f64
        },
        bto_gbps: bytes as f64 * 8.0 / span.max(1e-9) / 1e9,
        availability: report.availability(),
        mean_latency_ms: if requests == 0 {
            0.0
        } else {
            lat / requests as f64
        },
        p50_ms: hist.p50_ms(),
        p99_ms: hist.p99_ms(),
        p999_ms: hist.p999_ms(),
        counters: report.counters,
    }
}

/// Figure 6 under chaos: replay the TDC timeline through the resilient
/// serving path under three fault schedules (calm, origin brownout, OC
/// churn), with SCIP deployed from tick 0 vs never (LRU). Also runs the
/// calm timeline through the *plain* path and records whether the
/// resilient replay was bit-identical — the machinery must be free when
/// nothing fails.
pub fn fig6_chaos(requests: u64, seed: u64) -> ChaosStudy {
    let raw = TraceGenerator::generate(Workload::CdnT.profile().config(requests, seed));
    let stats = TraceStats::compute(&raw);
    let raw_span = raw.last().map(|r| r.wall_secs).unwrap_or(1.0);
    let trace = tdc::fault::dilate_wall_clock(&raw, CHAOS_SPAN_SECS / raw_span.max(1e-9));
    let span = trace.last().map(|r| r.wall_secs).unwrap_or(1.0);

    let base = tdc::DeploymentConfig {
        tdc: tdc::TdcConfig {
            oc_nodes: 4,
            oc_capacity: stats.cache_bytes_for_fraction(0.01),
            dc_capacity: stats.cache_bytes_for_fraction(0.05),
            deploy_at: u64::MAX,
            seed,
        },
        latency: tdc::LatencyModel::default(),
        deploy_fraction: 0.0,
    };
    let schedules = [
        ("calm", tdc::FaultSchedule::calm()),
        (
            "origin-brownout",
            tdc::FaultSchedule::origin_brownout(span, seed),
        ),
        (
            "oc-churn",
            tdc::FaultSchedule::oc_churn(span, base.tdc.oc_nodes, seed),
        ),
    ];

    let mut cells = Vec::new();
    let mut calm_scip_report = None;
    for (name, schedule) in &schedules {
        for scip in [true, false] {
            let cfg = tdc::DeploymentConfig {
                // SCIP from the first request vs never (plain LRU): a
                // deploy fraction past the end of the trace never fires.
                deploy_fraction: if scip { 0.0 } else { 2.0 },
                ..base
            };
            let report = tdc::run_deployment_resilient(&trace, cfg, schedule.clone())
                .expect("chaos config is valid");
            cells.push(chaos_cell(name, scip, &report));
            if *name == "calm" && scip {
                calm_scip_report = Some(report);
            }
        }
    }

    // The no-overhead gate: under calm, the resilient path must replay
    // bit-identically to the plain path.
    let calm = calm_scip_report.expect("calm arm ran");
    let plain = tdc::run_deployment(&trace, base);
    let calm_matches_plain = plain.buckets == calm.buckets
        && plain.hist_before == calm.hist_before
        && plain.hist_after == calm.hist_after
        && plain.before == calm.before
        && plain.after == calm.after;

    ChaosStudy {
        cells,
        calm_matches_plain,
        requests,
        seed,
    }
}

fn miss_ratio_grid(
    bench: &Bench,
    policies: &[PolicyKind],
    cache_gbs: &[f64],
    title: &str,
) -> Result<Table, ExperimentError> {
    let mut header = vec!["workload".to_string(), "cache".to_string()];
    header.extend(policies.iter().map(|p| p.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &header_refs);
    for &gb in cache_gbs {
        let jobs: Vec<_> = bench
            .traces
            .iter()
            .flat_map(|(w, trace, stats)| {
                let cap = bench.paper_cache_bytes(*w, stats, gb);
                policies.iter().map(move |&kind| {
                    let trace = trace.clone();
                    let seed = kind as u64 ^ 0x5eed;
                    move || {
                        let ctx = TraceCtx::new(&trace, seed);
                        run_policy(kind, cap, &trace, &ctx)
                    }
                })
            })
            .collect();
        let results: Vec<RunMeasurement> = parallel_runs(jobs);
        for ((w, _, _), row) in bench.traces.iter().zip(results.chunks(policies.len())) {
            let mut cells = vec![w.name().to_string(), format!("{gb:.0}GB*")];
            cells.extend(row.iter().map(|m| pct(m.miss_ratio)));
            t.row(cells)?;
        }
    }
    Ok(t)
}

/// Figure 7: SCIP vs SCI miss ratios at the paper's three cache points.
pub fn fig7(bench: &Bench) -> Result<Table, ExperimentError> {
    miss_ratio_grid(
        bench,
        &[PolicyKind::Sci, PolicyKind::Scip],
        &[64.0, 128.0, 256.0],
        "Figure 7 — SCIP vs SCI (cache sizes are paper-equivalent WSS fractions)",
    )
}

/// Figure 8: SCIP vs the eight insertion policies and Belady, at the
/// paper's 64/128/256 GB points.
pub fn fig8(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut policies = vec![PolicyKind::Belady, PolicyKind::Scip, PolicyKind::Lru];
    policies.extend(PolicyKind::INSERTION_BASELINES);
    miss_ratio_grid(
        bench,
        &policies,
        &[64.0, 128.0, 256.0],
        "Figure 8 — miss ratio: SCIP vs insertion/promotion policies",
    )
}

fn resource_table(
    bench: &Bench,
    policies: &[PolicyKind],
    title: &str,
) -> Result<Table, ExperimentError> {
    // Paper: resources measured on CDN-T at 64 GB.
    let (w, trace, stats) = &bench.traces[0];
    let cap = bench.paper_cache_bytes(*w, stats, 64.0);
    let jobs: Vec<_> = policies
        .iter()
        .map(|&kind| {
            let trace = trace.clone();
            let seed = kind as u64 ^ 0x5eed;
            move || {
                let ctx = TraceCtx::new(&trace, seed);
                run_policy(kind, cap, &trace, &ctx)
            }
        })
        .collect();
    let mut t = Table::new(
        title,
        &[
            "policy",
            "miss_ratio",
            "ns/req (CPU proxy)",
            "peak mem (MB)",
            "TPS (K/s)",
        ],
    );
    for m in parallel_runs(jobs) {
        t.row(vec![
            m.policy,
            pct(m.miss_ratio),
            format!("{:.0}", m.ns_per_request),
            mb(m.peak_memory_bytes),
            format!("{:.0}", m.tps / 1e3),
        ])?;
    }
    Ok(t)
}

/// Figure 9: CPU/memory/TPS of SCIP vs insertion policies on CDN-T.
pub fn fig9(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut policies = vec![PolicyKind::Belady, PolicyKind::Scip, PolicyKind::Lru];
    policies.extend(PolicyKind::INSERTION_BASELINES);
    resource_table(
        bench,
        &policies,
        "Figure 9 — resource use of insertion policies on CDN-T (64GB*)",
    )
}

/// Figure 10: SCIP vs the eight replacement algorithms.
pub fn fig10(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut policies = vec![PolicyKind::Belady, PolicyKind::Scip, PolicyKind::Lru];
    policies.extend(PolicyKind::REPLACEMENT_BASELINES);
    miss_ratio_grid(
        bench,
        &policies,
        &[64.0],
        "Figure 10 — miss ratio: SCIP vs replacement algorithms (64GB*)",
    )
}

/// Figure 11: CPU/memory/TPS of SCIP vs replacement algorithms on CDN-T.
pub fn fig11(bench: &Bench) -> Result<Table, ExperimentError> {
    let mut policies = vec![PolicyKind::Belady, PolicyKind::Scip, PolicyKind::Lru];
    policies.extend(PolicyKind::REPLACEMENT_BASELINES);
    resource_table(
        bench,
        &policies,
        "Figure 11 — resource use of replacement algorithms on CDN-T (64GB*)",
    )
}

/// Figure 12: enhancing LRU-K and LRB with SCIP (vs ASC-IP reference).
pub fn fig12(bench: &Bench) -> Result<Table, ExperimentError> {
    miss_ratio_grid(
        bench,
        &[
            PolicyKind::LruK,
            PolicyKind::LruKScip,
            PolicyKind::LruKAscIp,
            PolicyKind::Lrb,
            PolicyKind::LrbScip,
            PolicyKind::LrbAscIp,
        ],
        &[64.0],
        "Figure 12 — SCIP/ASC-IP as enhancement layers over LRU-K and LRB (64GB*)",
    )
}

/// Beyond the paper: SCIP vs the §7 admission family (2Q, TinyLFU,
/// AdaptSize) — the front-door answers to the same ZRO problem.
pub fn admission_comparison(bench: &Bench) -> Result<Table, ExperimentError> {
    miss_ratio_grid(
        bench,
        &[
            PolicyKind::Belady,
            PolicyKind::Scip,
            PolicyKind::Lru,
            PolicyKind::TwoQ,
            PolicyKind::TinyLfu,
            PolicyKind::AdaptSize,
        ],
        &[64.0],
        "Extra — SCIP vs admission algorithms (2Q / TinyLFU / AdaptSize, 64GB*)",
    )
}

/// Beyond the paper: full miss-ratio curves (cache size sweep from 0.5 %
/// to 25 % of the WSS) for the headline policies — the classic
/// miss-ratio-curve view the paper's per-point bars summarise.
pub fn miss_curves(bench: &Bench) -> Result<Table, ExperimentError> {
    let policies = [
        PolicyKind::Belady,
        PolicyKind::Scip,
        PolicyKind::Lru,
        PolicyKind::AscIp,
        PolicyKind::Ship,
        PolicyKind::S4Lru,
    ];
    let fractions = [0.005, 0.01, 0.02, 0.05, 0.1, 0.25];
    let mut header = vec!["workload".to_string(), "wss_frac".to_string()];
    header.extend(policies.iter().map(|p| p.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Extra — miss-ratio curves (cache as fraction of WSS)",
        &header_refs,
    );
    for &frac in &fractions {
        let jobs: Vec<_> = bench
            .traces
            .iter()
            .flat_map(|(_, trace, stats)| {
                let cap = stats.cache_bytes_for_fraction(frac);
                policies.iter().map(move |&kind| {
                    let trace = trace.clone();
                    let seed = kind as u64 ^ 0xC0FFEE;
                    move || {
                        let ctx = TraceCtx::new(&trace, seed);
                        run_policy(kind, cap, &trace, &ctx)
                    }
                })
            })
            .collect();
        let results: Vec<RunMeasurement> = parallel_runs(jobs);
        for ((w, _, _), row) in bench.traces.iter().zip(results.chunks(policies.len())) {
            let mut cells = vec![w.name().to_string(), format!("{frac}")];
            cells.extend(row.iter().map(|m| pct(m.miss_ratio)));
            t.row(cells)?;
        }
    }
    Ok(t)
}

/// Beyond the paper: seed sensitivity — the headline SCIP-vs-LRU delta
/// across independent trace seeds (mean ± spread), on CDN-T at 64GB*.
pub fn seed_variance(requests: u64) -> Result<Table, ExperimentError> {
    let seeds = [11u64, 23, 37, 59, 71];
    let jobs: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            move || {
                let w = Workload::CdnT;
                let trace = TraceGenerator::generate(w.profile().config(requests, seed));
                let stats = TraceStats::compute(&trace);
                let cap = stats.cache_bytes_for_fraction(w.paper_cache_fraction(64.0));
                let ctx = TraceCtx::new(&trace, seed);
                let lru = run_policy(PolicyKind::Lru, cap, &trace, &ctx).miss_ratio;
                let scip = run_policy(PolicyKind::Scip, cap, &trace, &ctx).miss_ratio;
                (seed, lru, scip)
            }
        })
        .collect();
    let mut t = Table::new(
        "Extra — seed sensitivity of the SCIP-vs-LRU delta (CDN-T, 64GB*)",
        &["seed", "LRU", "SCIP", "delta (pp)"],
    );
    let mut deltas = Vec::new();
    for (seed, lru, scip) in parallel_runs(jobs) {
        deltas.push((lru - scip) * 100.0);
        t.row(vec![
            seed.to_string(),
            pct(lru),
            pct(scip),
            format!("{:+.2}", (lru - scip) * 100.0),
        ])?;
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    let var = deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len() as f64;
    t.row(vec![
        "mean±sd".into(),
        String::new(),
        String::new(),
        format!("{mean:+.2}±{:.2}", var.sqrt()),
    ])?;
    Ok(t)
}

/// Ablations beyond the paper: fixed vs adaptive λ, history budget,
/// update interval and unlearn threshold, on CDN-T at 64 GB*.
pub fn ablations(bench: &Bench) -> Result<Table, ExperimentError> {
    use scip::{Scip, ScipConfig};
    let (w, trace, stats) = &bench.traces[0];
    let cap = bench.paper_cache_bytes(*w, stats, 64.0);
    let base = ScipConfig {
        seed: bench.seed,
        update_interval: (bench.requests / 40).max(2_000),
        ..ScipConfig::default()
    };
    let variants: Vec<(String, ScipConfig)> = vec![
        ("default".into(), base),
        (
            "fixed λ=0.1 (no Algorithm 2)".into(),
            ScipConfig {
                unlearn_threshold: u32::MAX,
                initial_lambda: 0.1,
                ..base
            },
        ),
        (
            "history = 1/4 cache".into(),
            ScipConfig {
                history_fraction: 0.25,
                ..base
            },
        ),
        (
            "history = 1x cache".into(),
            ScipConfig {
                history_fraction: 1.0,
                ..base
            },
        ),
        (
            "interval i = requests/10".into(),
            ScipConfig {
                update_interval: (bench.requests / 10).max(2_000),
                ..base
            },
        ),
        (
            "interval i = requests/160".into(),
            ScipConfig {
                update_interval: (bench.requests / 160).max(500),
                ..base
            },
        ),
        (
            "unlearnCount threshold = 3".into(),
            ScipConfig {
                unlearn_threshold: 3,
                ..base
            },
        ),
        (
            "unlearnCount threshold = 30".into(),
            ScipConfig {
                unlearn_threshold: 30,
                ..base
            },
        ),
    ];
    let jobs: Vec<_> = variants
        .into_iter()
        .map(|(name, cfg)| {
            let trace = trace.clone();
            move || {
                let mut p = Scip::with_config(cap, cfg);
                let m = cdn_policies::replay(&mut p, &trace);
                (name, m.miss_ratio())
            }
        })
        .collect();
    let mut t = Table::new(
        "Ablations — SCIP design choices on CDN-T (64GB*)",
        &["variant", "miss_ratio"],
    );
    for (name, mr) in parallel_runs(jobs) {
        t.row(vec![name, pct(mr)])?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> Bench {
        Bench::generate(30_000, 9)
    }

    #[test]
    fn table1_has_all_rows() {
        let b = tiny_bench();
        let t = table1(&b).unwrap();
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn fig3_monotone_in_treated_fraction() {
        let b = tiny_bench();
        let t = fig3(&b).unwrap();
        assert_eq!(t.len(), 15); // 3 workloads × 5 fractions
    }

    #[test]
    fn fig4_produces_accuracy_for_all_models() {
        let b = Bench::generate(20_000, 11);
        let t = fig4(&b).unwrap();
        assert_eq!(t.len(), 9); // 3 workloads × 3 tasks
        let body = t.render();
        assert!(!body.contains("NaN"));
    }

    #[test]
    fn fig7_grid_shape() {
        let b = tiny_bench();
        let t = fig7(&b).unwrap();
        assert_eq!(t.len(), 9); // 3 sizes × 3 workloads
    }

    #[test]
    fn fig12_grid_shape() {
        let b = tiny_bench();
        let t = fig12(&b).unwrap();
        assert_eq!(t.len(), 3);
    }
}
