//! Figure 6 under chaos: replay the TDC deployment timeline through the
//! resilient serving path under calm / origin-brownout / OC-churn fault
//! schedules, SCIP vs LRU; prints the table and saves
//! `results/fig6_chaos.tsv`.
//!
//! Scale knobs: `REPRO_REQUESTS` / `REPRO_SEED`.
//!
//! Exits nonzero if the calm replay is not bit-identical to the plain
//! serving path or if calm availability is below 100 % — the resilience
//! machinery must be free when nothing fails.

fn main() {
    let requests = cdn_sim::or_die(cdn_sim::default_requests(), "REPRO_REQUESTS");
    let seed = cdn_sim::or_die(cdn_sim::default_seed(), "REPRO_SEED");
    let study = cdn_sim::experiments::fig6_chaos(requests, seed);

    let table = cdn_sim::or_die(study.table(), "rendering chaos table");
    table.print();
    let tsv = cdn_sim::or_die(table.save_tsv("fig6_chaos"), "writing results TSV");
    eprintln!("saved {}", tsv.display());

    if !study.calm_matches_plain {
        eprintln!("FAIL: calm resilient replay diverged from the plain serving path");
        std::process::exit(1);
    }
    if !study.calm_fully_available() {
        eprintln!("FAIL: calm availability below 100%");
        std::process::exit(1);
    }
}
