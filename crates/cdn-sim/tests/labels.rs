//! Pins what the ZRO / P-ZRO labeler and Figure 3's oracle placement
//! produce, so a rewrite of either can be checked against the recording
//! in `tests/data/golden_labels_v1.txt`.
//!
//! Each cell (trace × cache size) records the labeler's full
//! [`LabelSummary`], an FNV-1a hash of its per-request label vector, and
//! the `f64::to_bits` of the oracle replay's miss ratio for each of the
//! three treatments at fractions 0, ½ and 1. Cells: CDN-T, CDN-W and
//! CDN-A (50 k requests, seed 42) at 0.1 %, 1 % and 10 % of the working
//! set, and every `degenerate_corpus` trace at capacities 1, 2, 100,
//! 10 000 and 1<<16.
//!
//! Regenerate (only when an intentional behaviour change lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cdn-sim --test labels
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use cdn_cache::Request;
use cdn_policies::insertion::{InsertionCache, OraclePlacement, OracleTreatment};
use cdn_sim::label_trace;
use cdn_trace::checksum::Fnv1a64;
use cdn_trace::label::RequestLabel;
use cdn_trace::{degenerate_corpus, LabelSummary, TraceGenerator, TraceStats, Workload};

const FILE: &str = "golden_labels_v1.txt";

fn label_code(label: RequestLabel) -> u8 {
    match label {
        RequestLabel::MissReused => 0,
        RequestLabel::MissZro { reaccessed } => 1 + u8::from(reaccessed),
        RequestLabel::HitReused => 3,
        RequestLabel::HitPZro { reaccessed } => 4 + u8::from(reaccessed),
        RequestLabel::Inadmissible => 6,
    }
}

/// Every pinned (name, trace, capacity) cell.
fn cells() -> Vec<(String, Vec<Request>, u64)> {
    let mut cells = Vec::new();
    for w in Workload::ALL {
        let trace = TraceGenerator::generate(w.profile().config(50_000, 42));
        let stats = TraceStats::compute(&trace);
        for f in [0.001, 0.01, 0.1] {
            let cap = stats.cache_bytes_for_fraction(f);
            cells.push((w.name().to_string(), trace.clone(), cap));
        }
    }
    for cap in [1, 2, 100, 10_000, 1 << 16] {
        for (name, trace) in degenerate_corpus(cap) {
            cells.push((name.to_string(), trace, cap));
        }
    }
    cells
}

/// One cell's recording line (without its `<name> <capacity>` key).
fn record(trace: &[Request], cap: u64) -> String {
    let labels = label_trace(trace, cap);
    let LabelSummary {
        requests,
        misses,
        hits,
        zro,
        azro,
        pzro,
        apzro,
    } = labels.summary;
    let mut hash = Fnv1a64::new();
    let codes: Vec<u8> = labels.labels.iter().map(|&l| label_code(l)).collect();
    hash.update(&codes);
    let mut line = format!(
        "requests={requests} misses={misses} hits={hits} zro={zro} azro={azro} \
         pzro={pzro} apzro={apzro} labels={:016x} oracle=",
        hash.finish()
    );
    for treatment in [
        OracleTreatment::Zro,
        OracleTreatment::PZro,
        OracleTreatment::Both,
    ] {
        for fraction in [0.0, 0.5, 1.0] {
            let placement = OraclePlacement::new(&labels, treatment, fraction);
            let mr =
                cdn_policies::replay(&mut InsertionCache::new(placement, cap, "oracle"), trace)
                    .miss_ratio();
            write!(line, "{:016x},", mr.to_bits()).unwrap();
        }
    }
    line.pop();
    line
}

fn data_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join(FILE)
}

#[test]
fn labels_and_oracle_placement_match_the_recording() {
    let actual: BTreeMap<(String, u64), String> = cells()
        .into_iter()
        .map(|(name, trace, cap)| ((name, cap), record(&trace, cap)))
        .collect();

    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        let mut text = String::from(
            "# Labeler and oracle-placement recordings: <trace> <capacity> <summary> \
             labels=<FNV-1a of label codes> oracle=<to_bits of miss ratio, \
             ZRO/P-ZRO/both x 0, 0.5, 1>\n\
             # Regenerate: UPDATE_GOLDEN=1 cargo test -p cdn-sim --test labels\n",
        );
        for ((name, cap), line) in &actual {
            writeln!(text, "{name} {cap} {line}").unwrap();
        }
        std::fs::write(data_path(), text).expect("write golden file");
        return;
    }

    let text = std::fs::read_to_string(data_path()).expect("golden label recordings missing");
    let mut expected = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut parts = line.splitn(3, ' ');
        let (Some(name), Some(cap), Some(rest)) = (parts.next(), parts.next(), parts.next()) else {
            panic!("malformed golden line: {line:?}");
        };
        let cap: u64 = cap.parse().expect("capacity");
        expected.insert((name.to_string(), cap), rest.to_string());
    }
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        actual.keys().collect::<Vec<_>>(),
        "recorded cells differ from computed cells"
    );
    let diverged: Vec<String> = actual
        .iter()
        .filter(|(key, line)| expected[*key] != **line)
        .map(|((name, cap), line)| {
            format!(
                "{name} @ {cap}:\n  recorded {}\n  computed {line}",
                expected[&(name.clone(), *cap)]
            )
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{} cell(s) diverged from {FILE}:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
