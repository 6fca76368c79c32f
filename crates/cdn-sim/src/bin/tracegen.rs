//! Generate a synthetic workload trace and write it to disk.
//!
//! ```bash
//! cargo run --release -p cdn-sim --bin tracegen -- cdn-w 1000000 out.bin [seed]
//! cargo run --release -p cdn-sim --bin tracegen -- cdn-t 500000 out.csv
//! cargo run --release -p cdn-sim --bin tracegen -- --stream cdn-t 500000000 out.bin
//! ```
//!
//! The format is chosen by extension: `.bin` (compact binary) or `.csv`.
//!
//! Flags:
//!
//! - `--stream` — out-of-core generation: the trace goes straight to disk
//!   one chunk buffer at a time (`.bin`, the same v2 writer the in-RAM
//!   path uses) or line by line (`.csv`) without ever
//!   materialising in RAM, so corpus size is bounded by disk, not memory.
//!   Byte-identical to the in-RAM path for `.bin` (pinned by
//!   `cdn-trace`'s stream tests). Whole-trace
//!   `TraceStats` need the full trace resident and are skipped with a
//!   note — never computed over a partial sample and passed off as exact.
//! - `--flash-crowd` — overlay the standard flash-crowd drift window
//!   (starts at n/4, lasts n/2, 50% share) on the workload's base config,
//!   matching the event schedule the streaming bench's big corpus uses.

use std::path::Path;
use std::process::exit;

use cdn_trace::{flash_crowd_window, TraceGenerator, TraceStats, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: tracegen [--stream] [--flash-crowd] <cdn-t|cdn-w|cdn-a> <requests> \
         <out.bin|out.csv> [seed]"
    );
    exit(2);
}

fn main() {
    let mut stream = false;
    let mut flash_crowd = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| match a.as_str() {
            "--stream" => {
                stream = true;
                false
            }
            "--flash-crowd" => {
                flash_crowd = true;
                false
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                usage();
            }
            _ => true,
        })
        .collect();
    if args.len() < 3 {
        usage();
    }
    let workload = match args[0].as_str() {
        "cdn-t" => Workload::CdnT,
        "cdn-w" => Workload::CdnW,
        "cdn-a" => Workload::CdnA,
        other => {
            eprintln!("unknown workload {other}");
            usage();
        }
    };
    let requests: u64 = args[1].parse().unwrap_or_else(|_| usage());
    let path = Path::new(&args[2]);
    let seed: u64 = args
        .get(3)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(42);

    let mut cfg = workload.profile().config(requests, seed);
    if flash_crowd {
        cfg.events = vec![flash_crowd_window(requests)];
    }

    enum Format {
        Bin,
        Csv,
    }
    let format = match path.extension().and_then(|e| e.to_str()) {
        Some("bin") => Format::Bin,
        Some("csv") => Format::Csv,
        _ => {
            eprintln!("output must end in .bin or .csv");
            exit(2);
        }
    };

    if stream {
        // Out-of-core: no whole-trace residency, so no TraceStats.
        println!("streaming generation: whole-trace stats skipped (trace never held in RAM)");
        let written = match format {
            Format::Bin => cdn_trace::generate_binary(path, cfg),
            Format::Csv => cdn_trace::write_csv_stream(path, TraceGenerator::new(cfg)),
        };
        match written {
            Ok(n) => println!("wrote {n} requests to {}", path.display()),
            Err(e) => {
                eprintln!("write failed: {e}");
                exit(1);
            }
        }
        return;
    }

    let trace = TraceGenerator::generate(cfg);
    let stats = TraceStats::compute(&trace);
    println!("{stats}");
    let result = match format {
        Format::Bin => cdn_trace::io::write_binary(path, &trace),
        Format::Csv => cdn_trace::io::write_csv(path, &trace),
    };
    match result {
        Ok(()) => println!("wrote {} requests to {}", trace.len(), path.display()),
        Err(e) => {
            eprintln!("write failed: {e}");
            exit(1);
        }
    }
}
