//! End-to-end shape assertions across crates: the qualitative claims the
//! paper's evaluation rests on, checked at reduced scale on all three
//! synthetic workloads.

use scip_repro::*;

use std::sync::Arc;

use cdn_policies::replacement::{BeladyPolicy, Lru};
use cdn_policies::replay;
use cdn_trace::{next_access_table, TraceGenerator, TraceStats, Workload};
use scip::{Scip, ScipConfig};

const REQUESTS: u64 = 120_000;
const SEED: u64 = 1234;

fn trace_for(w: Workload) -> (Vec<cdn_cache::Request>, TraceStats) {
    let trace = TraceGenerator::generate(w.profile().config(REQUESTS, SEED));
    let stats = TraceStats::compute(&trace);
    (trace, stats)
}

#[test]
fn miss_ratio_monotone_in_cache_size() {
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let mut last = 1.1;
        for frac in [0.005, 0.02, 0.08, 0.3] {
            let cap = stats.cache_bytes_for_fraction(frac);
            let mut lru = Lru::new(cap);
            let mr = replay(&mut lru, &trace).miss_ratio();
            assert!(
                mr <= last + 0.01,
                "{}: mr {mr} at frac {frac} above smaller-cache mr {last}",
                w.name()
            );
            last = mr;
        }
    }
}

#[test]
fn belady_lower_bounds_scip_and_lru() {
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let cap = stats.cache_bytes_for_fraction(0.05);
        let mut oracle = BeladyPolicy::new(cap, Arc::new(next_access_table(&trace)));
        let belady = replay(&mut oracle, &trace).miss_ratio();
        let mut scip = Scip::new(cap, SEED);
        let s = replay(&mut scip, &trace).miss_ratio();
        let mut lru = Lru::new(cap);
        let l = replay(&mut lru, &trace).miss_ratio();
        assert!(
            belady <= s + 1e-9,
            "{}: belady {belady} vs scip {s}",
            w.name()
        );
        assert!(
            belady <= l + 1e-9,
            "{}: belady {belady} vs lru {l}",
            w.name()
        );
    }
}

#[test]
fn scip_beats_lru_on_every_workload() {
    // The headline claim, at the paper's 64 GB-equivalent point.
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let cap = stats.cache_bytes_for_fraction(w.paper_cache_fraction(64.0));
        let mut scip = Scip::new(cap, SEED);
        let s = replay(&mut scip, &trace).miss_ratio();
        let mut lru = Lru::new(cap);
        let l = replay(&mut lru, &trace).miss_ratio();
        assert!(
            s < l + 0.005,
            "{}: SCIP {s} should not lose to LRU {l}",
            w.name()
        );
    }
}

#[test]
fn scip_not_worse_than_sci_where_pzros_matter() {
    // Figure 7's claim, strongest on the burst-heavy CDN-W analog.
    let (trace, stats) = trace_for(Workload::CdnT);
    let cap = stats.cache_bytes_for_fraction(0.05);
    let mut scip = Scip::new(cap, SEED);
    let s = replay(&mut scip, &trace).miss_ratio();
    let mut sci = Scip::insertion_only(
        cap,
        ScipConfig {
            seed: SEED,
            ..ScipConfig::default()
        },
    );
    let c = replay(&mut sci, &trace).miss_ratio();
    assert!(s <= c + 0.01, "SCIP {s} vs SCI {c}");
}

#[test]
fn scip_beats_lip_substantially() {
    // Figure 8 discussion: LIP is the weakest insertion baseline.
    use cdn_policies::insertion::{deciders::Lip, InsertionCache};
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let cap = stats.cache_bytes_for_fraction(w.paper_cache_fraction(64.0));
        let mut scip = Scip::new(cap, SEED);
        let s = replay(&mut scip, &trace).miss_ratio();
        let mut lip = InsertionCache::new(Lip, cap, "LIP");
        let l = replay(&mut lip, &trace).miss_ratio();
        assert!(s < l, "{}: SCIP {s} vs LIP {l}", w.name());
    }
}

#[test]
fn zro_oracle_treatment_reduces_misses() {
    // Figure 1/3: treating labeled ZRO+P-ZRO never hurts, usually helps.
    use cdn_policies::insertion::{InsertionCache, OraclePlacement, OracleTreatment};
    use cdn_sim::label_trace;
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let cap = stats.cache_bytes_for_fraction(0.01);
        let labels = label_trace(&trace, cap);
        let base = labels.summary.miss_ratio();
        let placement = OraclePlacement::new(&labels, OracleTreatment::Both, 1.0);
        let both = replay(&mut InsertionCache::new(placement, cap, "oracle"), &trace).miss_ratio();
        assert!(
            both <= base + 1e-9,
            "{}: oracle both {both} vs base {base}",
            w.name()
        );
        // And the class structure exists at all.
        assert!(labels.summary.zro > 0, "{}: no ZROs?", w.name());
        assert!(labels.summary.pzro > 0, "{}: no P-ZROs?", w.name());
    }
}

#[test]
fn workload_class_shares_match_paper_ranges() {
    // Figure 1 calibration: CDN-A has the highest ZRO share of misses;
    // CDN-W has the highest P-ZRO share of hits (paper: 21.7 % average).
    use cdn_sim::label_trace;
    let mut zro_shares = Vec::new();
    let mut pzro_shares = Vec::new();
    for w in Workload::ALL {
        let (trace, stats) = trace_for(w);
        let cap = stats.cache_bytes_for_fraction(0.01);
        let s = label_trace(&trace, cap).summary;
        zro_shares.push((w, s.zro_of_misses()));
        pzro_shares.push((w, s.pzro_of_hits()));
    }
    let max_zro = zro_shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    assert_eq!(max_zro.0, Workload::CdnA, "ZRO shares: {zro_shares:?}");
    // CDN-W's P-ZRO share must be substantial (paper: 21.7 % average);
    // every workload has a meaningful but sub-majority share.
    let w_share = pzro_shares
        .iter()
        .find(|(w, _)| *w == Workload::CdnW)
        .unwrap()
        .1;
    assert!(w_share > 0.15, "P-ZRO shares: {pzro_shares:?}");
    for (w, share) in &pzro_shares {
        assert!(
            (0.02..0.6).contains(share),
            "{}: P-ZRO share {share} out of range",
            w.name()
        );
    }
}

#[test]
fn scip_enhancement_does_not_break_lruk() {
    use cdn_policies::replacement::LruK;
    let (trace, stats) = trace_for(Workload::CdnA);
    let cap = stats.cache_bytes_for_fraction(w_frac());
    let mut plain = LruK::new(cap);
    let p = replay(&mut plain, &trace).miss_ratio();
    let mut enhanced = scip::enhance::lruk_scip(cap, 2, SEED);
    let e = replay(&mut enhanced, &trace).miss_ratio();
    assert!(e <= p + 0.03, "LRU-K-SCIP {e} vs LRU-K {p}");
}

fn w_frac() -> f64 {
    Workload::CdnA.paper_cache_fraction(64.0)
}
