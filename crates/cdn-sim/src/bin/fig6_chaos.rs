//! Figure 6 under chaos: replay the TDC deployment timeline through the
//! resilient serving path under calm / origin-brownout / OC-churn fault
//! schedules, SCIP vs LRU, and persist markdown + JSON under `results/`.
//!
//! Scale knobs: `TDC_CHAOS_REQUESTS` / `TDC_CHAOS_SEED` (falling back to
//! `REPRO_REQUESTS` / `REPRO_SEED`).
//!
//! Exits nonzero if the calm replay is not bit-identical to the plain
//! serving path or if calm availability is below 100 % — the resilience
//! machinery must be free when nothing fails.

use std::fs;

fn env_u64(key: &str, fallback: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(fallback)
}

fn main() {
    let requests = cdn_sim::or_die(cdn_sim::default_requests(), "REPRO_REQUESTS");
    let seed = cdn_sim::or_die(cdn_sim::default_seed(), "REPRO_SEED");
    let requests = env_u64("TDC_CHAOS_REQUESTS", requests);
    let seed = env_u64("TDC_CHAOS_SEED", seed);
    let study = cdn_sim::experiments::fig6_chaos(requests, seed);

    let table = cdn_sim::or_die(study.table(), "rendering chaos table");
    table.print();
    let tsv = cdn_sim::or_die(table.save_tsv("fig6_chaos"), "writing results TSV");

    let dir = cdn_sim::table::results_dir();
    cdn_sim::or_die(fs::create_dir_all(&dir), "creating results dir");
    let md = dir.join("fig6_chaos.md");
    cdn_sim::or_die(fs::write(&md, study.to_markdown()), "writing markdown");
    let json = dir.join("fig6_chaos.json");
    cdn_sim::or_die(fs::write(&json, study.to_json()), "writing json");
    eprintln!(
        "saved {}, {} and {}",
        tsv.display(),
        md.display(),
        json.display()
    );

    if !study.calm_matches_plain {
        eprintln!("FAIL: calm resilient replay diverged from the plain serving path");
        std::process::exit(1);
    }
    if !study.calm_fully_available() {
        eprintln!("FAIL: calm availability below 100%");
        std::process::exit(1);
    }
}
