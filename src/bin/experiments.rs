//! Regenerate the paper's tables and figures (and the beyond-paper
//! studies): `experiments <name>… | all | --list`.
//!
//! Every experiment prints its tables and saves them as
//! `results/<table>.tsv`. Scale: `REPRO_REQUESTS` / `REPRO_SEED`; a value
//! that does not parse is a usage error (exit 2). An experiment whose own
//! gate fails (`fig6_chaos`: calm must equal the plain path) exits 1.

use cdn_sim::{knob, or_die, Table};
use scip_repro::experiments::{self as exp, Bench, ExperimentError};

/// The tables one experiment produces, each with its `results/` file stem.
type Tables = Vec<(&'static str, Table)>;
type Run = fn(&Bench) -> Result<Tables, ExperimentError>;

fn one(
    stem: &'static str,
    table: Result<Table, ExperimentError>,
) -> Result<Tables, ExperimentError> {
    Ok(vec![(stem, table?)])
}

/// Name → experiment. `all` iterates this table and `--list` prints it, so
/// neither can drift from what a single name runs.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", |b| one("table1", exp::table1(b))),
    ("fig1", |b| one("fig1", exp::fig1(b))),
    ("fig3", |b| one("fig3", exp::fig3(b))),
    ("fig4", |b| one("fig4", exp::fig4(b))),
    ("fig6", |b| {
        let (summary, series) = exp::fig6(b)?;
        Ok(vec![("fig6_summary", summary), ("fig6_series", series)])
    }),
    ("fig6_chaos", |b| {
        one("fig6_chaos", exp::fig6_chaos(b.requests, b.seed).table())
    }),
    ("fig7", |b| one("fig7", exp::fig7(b))),
    ("fig8", |b| one("fig8", exp::fig8(b))),
    ("fig9", |b| one("fig9", exp::fig9(b))),
    ("fig10", |b| one("fig10", exp::fig10(b))),
    ("fig11", |b| one("fig11", exp::fig11(b))),
    ("fig12", |b| one("fig12", exp::fig12(b))),
    ("ablations", |b| one("ablations", exp::ablations(b))),
    ("admission", |b| {
        one("admission", exp::admission_comparison(b))
    }),
    ("misscurve", |b| one("misscurve", exp::miss_curves(b))),
    ("seeds", |b| one("seeds", exp::seed_variance(b.requests))),
];

fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        println!("{}", names().join("\n"));
        return;
    }
    let selected: Vec<_> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|arg| {
                EXPERIMENTS
                    .iter()
                    .find(|(name, _)| name == arg)
                    .unwrap_or_else(|| {
                        let valid = names().join(" ");
                        eprintln!("error: unknown experiment `{arg}`; valid: {valid} all");
                        std::process::exit(2);
                    })
            })
            .collect()
    };
    if selected.is_empty() {
        eprintln!(
            "usage: experiments <name>... | all | --list\nvalid: {} all",
            names().join(" ")
        );
        std::process::exit(2);
    }

    let requests = knob(cdn_sim::default_requests());
    let seed = knob(cdn_sim::default_seed());
    eprintln!("running at {requests} requests/trace, seed {seed}");
    let bench = Bench::generate(requests, seed);
    let mut printed = false;
    for (name, run) in selected {
        for (stem, table) in or_die(run(&bench), name) {
            if printed {
                println!();
            }
            printed = true;
            table.print();
            let path = or_die(table.save_tsv(stem), "writing results TSV");
            eprintln!("saved {}", path.display());
        }
    }
}
