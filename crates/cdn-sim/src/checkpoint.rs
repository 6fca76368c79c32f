//! Sweep checkpoint/resume: a JSONL sidecar of completed job results.
//!
//! Long policy×size×trace grids lose hours when a run dies near the end.
//! The fix: every completed cell streams one JSON line to a sidecar file,
//! keyed by a *stable job fingerprint* — policy label, cache size, trace
//! content hash and seed ([`job_fingerprint`]). A resumed sweep loads the
//! sidecar first and re-executes only the cells that are missing, so a
//! crash (or a cell that failed after its retries) costs exactly the
//! unfinished work.
//!
//! Robustness properties:
//!
//! - Appends are line-buffered and flushed per record, so a crash loses
//!   at most the record being written.
//! - Loading skips corrupt or truncated lines (the crash case) instead of
//!   refusing the whole sidecar; skipped lines are counted.
//! - A resume that appends after a torn tail starts a fresh line first,
//!   so the fragment can never merge with (and contaminate) a new record.
//! - Fingerprints include the trace's content hash, so a sidecar from a
//!   different trace, seed or cache size can never poison a resume.
//!
//! Experiments honour the `CDN_SIM_CHECKPOINT` environment variable (a
//! sidecar path) via [`Checkpoint::from_env`]; `replaytool` wires the
//! same sidecar through its policy loop.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::runner::RunMeasurement;
use crate::sweep::{run_jobs, JobOutcome, SweepConfig, SweepReport};

/// Stable identity of one sweep cell: the policy label, its parameters,
/// and the exact input. Two runs share a fingerprint iff they would
/// compute the same measurement (modulo wall-clock noise).
pub fn job_fingerprint(policy_label: &str, cache_bytes: u64, trace_hash: u64, seed: u64) -> String {
    format!("{policy_label}|cap={cache_bytes}|trace={trace_hash:016x}|seed={seed}")
}

/// A JSONL sidecar of completed sweep cells, safe to share across worker
/// threads.
pub struct Checkpoint {
    path: PathBuf,
    done: Mutex<HashMap<String, RunMeasurement>>,
    writer: Mutex<Option<BufWriter<File>>>,
    skipped_lines: usize,
}

impl Checkpoint {
    /// Open (or create) the sidecar at `path`, loading every parseable
    /// record already in it. Corrupt lines — e.g. the torn tail of a
    /// crashed run — are skipped, not fatal.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut done = HashMap::new();
        let mut skipped = 0usize;
        match File::open(path) {
            Ok(f) => {
                for line in BufReader::new(f).lines() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_record(&line) {
                        Some((fp, m)) => {
                            done.insert(fp, m);
                        }
                        None => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Checkpoint {
            path: path.to_path_buf(),
            done: Mutex::new(done),
            writer: Mutex::new(None),
            skipped_lines: skipped,
        })
    }

    /// Sidecar from the `CDN_SIM_CHECKPOINT` environment variable, if
    /// set. An unreadable sidecar is reported and ignored (the sweep then
    /// simply runs everything).
    pub fn from_env() -> Option<Self> {
        let path = std::env::var("CDN_SIM_CHECKPOINT").ok()?;
        match Self::open(Path::new(&path)) {
            Ok(c) => {
                if !c.is_empty() || c.skipped_lines > 0 {
                    eprintln!(
                        "checkpoint {path}: {} completed cells loaded{}",
                        c.len(),
                        if c.skipped_lines > 0 {
                            format!(", {} corrupt lines skipped", c.skipped_lines)
                        } else {
                            String::new()
                        }
                    );
                }
                Some(c)
            }
            Err(e) => {
                eprintln!("checkpoint {path}: unreadable ({e}); starting fresh");
                None
            }
        }
    }

    /// Sidecar path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed cells currently known.
    pub fn len(&self) -> usize {
        self.done.lock().unwrap().len()
    }

    /// True when no completed cells are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines the loader had to skip as corrupt.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The stored measurement for `fingerprint`, if that cell already
    /// completed in a previous (or this) run.
    pub fn get(&self, fingerprint: &str) -> Option<RunMeasurement> {
        self.done.lock().unwrap().get(fingerprint).cloned()
    }

    /// Record a completed cell: append one JSONL line (flushed
    /// immediately) and remember it in memory. Append failures are
    /// reported to stderr but never fail the sweep — a broken sidecar
    /// must not cost the computed result.
    ///
    /// Crash-safety contract: each record is written and flushed as one
    /// `\n`-terminated line, so a crash tears at most the line being
    /// appended. If the sidecar's tail is such a torn line (no trailing
    /// newline), the first append of the next run starts a fresh line
    /// rather than extending the fragment — otherwise the fragment and
    /// the new record would merge into one line whose first-occurrence
    /// field parsing could resurrect stale values from the fragment.
    pub fn record(&self, fingerprint: &str, m: &RunMeasurement) {
        self.done
            .lock()
            .unwrap()
            .insert(fingerprint.to_string(), m.clone());
        let mut guard = self.writer.lock().unwrap();
        if guard.is_none() {
            let torn_tail = std::fs::read(&self.path)
                .map(|b| !b.is_empty() && b.last() != Some(&b'\n'))
                .unwrap_or(false);
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
            {
                Ok(f) => {
                    let mut w = BufWriter::new(f);
                    if torn_tail {
                        // Quarantine the fragment on its own line; the
                        // loader will skip it as corrupt.
                        let _ = writeln!(w);
                    }
                    *guard = Some(w);
                }
                Err(e) => {
                    eprintln!("checkpoint {}: cannot append ({e})", self.path.display());
                    return;
                }
            }
        }
        if let Some(w) = guard.as_mut() {
            let line = encode_record(fingerprint, m);
            if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
                eprintln!("checkpoint {}: write failed", self.path.display());
            }
        }
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn encode_record(fingerprint: &str, m: &RunMeasurement) -> String {
    format!(
        "{{\"fp\":\"{}\",\"policy\":\"{}\",\"miss_ratio\":{},\"byte_miss_ratio\":{},\
         \"tps\":{},\"ns_per_request\":{},\"peak_memory_bytes\":{},\"resident_objects\":{},\
         \"hits\":{},\"misses\":{},\"hit_bytes\":{},\"miss_bytes\":{}}}",
        json_escape(fingerprint),
        json_escape(&m.policy),
        m.miss_ratio,
        m.byte_miss_ratio,
        m.tps,
        m.ns_per_request,
        m.peak_memory_bytes,
        m.resident_objects,
        m.hits,
        m.misses,
        m.hit_bytes,
        m.miss_bytes
    )
}

/// Extract the string value of `"key":"..."` from a flat JSON object
/// line (handles `\\` and `\"` escapes — all our writer emits).
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let bytes = line.as_bytes();
    let mut out = String::new();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                let next = *bytes.get(i + 1)?;
                out.push(next as char);
                i += 2;
            }
            b'"' => return Some(out),
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    None
}

/// Extract the numeric value of `"key":123.45` from a flat JSON line.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_record(line: &str) -> Option<(String, RunMeasurement)> {
    if !line.ends_with('}') {
        return None; // torn tail of a crashed append
    }
    let fp = json_str_field(line, "fp")?;
    let m = RunMeasurement {
        policy: json_str_field(line, "policy")?,
        miss_ratio: json_num_field(line, "miss_ratio")?,
        byte_miss_ratio: json_num_field(line, "byte_miss_ratio")?,
        tps: json_num_field(line, "tps")?,
        ns_per_request: json_num_field(line, "ns_per_request")?,
        peak_memory_bytes: json_num_field(line, "peak_memory_bytes")? as usize,
        // Absent in sidecars written before the field existed; 0 keeps
        // those cells loadable (a missing density is better than a
        // discarded measurement).
        resident_objects: json_num_field(line, "resident_objects").unwrap_or(0.0) as usize,
        // Ledger counters: also absent in pre-v3 sidecars. Restored cells
        // with zero ledgers are fine for the bench (which reports ratios)
        // but are never used as a sharded-equality reference.
        hits: json_num_field(line, "hits").unwrap_or(0.0) as u64,
        misses: json_num_field(line, "misses").unwrap_or(0.0) as u64,
        hit_bytes: json_num_field(line, "hit_bytes").unwrap_or(0.0) as u64,
        miss_bytes: json_num_field(line, "miss_bytes").unwrap_or(0.0) as u64,
    };
    Some((fp, m))
}

/// Run a grid of fingerprinted measurement jobs with panic isolation,
/// bounded retry, and (optionally) checkpoint skip/record:
///
/// - cells whose fingerprint is already in `checkpoint` are restored as
///   [`JobOutcome::Cached`] without running;
/// - every freshly computed result streams to the sidecar before the
///   sweep moves on, so a later crash resumes past it.
///
/// Outcomes come back in input order.
pub fn run_checkpointed<F>(
    cells: Vec<(String, F)>,
    checkpoint: Option<&Checkpoint>,
    cfg: &SweepConfig,
) -> SweepReport<RunMeasurement>
where
    F: FnMut() -> RunMeasurement + Send,
{
    let total = cells.len();
    let mut outcomes: Vec<Option<JobOutcome<RunMeasurement>>> = Vec::with_capacity(total);
    let mut pending: Vec<(usize, String, F)> = Vec::new();
    for (idx, (fp, job)) in cells.into_iter().enumerate() {
        match checkpoint.and_then(|c| c.get(&fp)) {
            Some(m) => outcomes.push(Some(JobOutcome::Cached(m))),
            None => {
                outcomes.push(None);
                pending.push((idx, fp, job));
            }
        }
    }
    let jobs: Vec<_> = pending
        .into_iter()
        .map(|(idx, fp, mut job)| {
            let wrapped = move || {
                let m = job();
                if let Some(c) = checkpoint {
                    c.record(&fp, &m);
                }
                m
            };
            (idx, wrapped)
        })
        .collect();
    let indices: Vec<usize> = jobs.iter().map(|(i, _)| *i).collect();
    let report = run_jobs(jobs.into_iter().map(|(_, j)| j).collect(), cfg);
    for (slot, outcome) in indices.into_iter().zip(report.outcomes) {
        outcomes[slot] = Some(outcome);
    }
    SweepReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every cell accounted for"))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(policy: &str, mr: f64) -> RunMeasurement {
        RunMeasurement {
            policy: policy.to_string(),
            miss_ratio: mr,
            byte_miss_ratio: mr * 0.5,
            tps: 1e6,
            ns_per_request: 100.0,
            peak_memory_bytes: 4096,
            resident_objects: 16,
            hits: 300,
            misses: 100,
            hit_bytes: 3_000,
            miss_bytes: 1_000,
        }
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cdn_sim_checkpoint_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_cells() {
        let a = job_fingerprint("SCIP", 1 << 30, 0xDEAD_BEEF, 42);
        assert_eq!(a, job_fingerprint("SCIP", 1 << 30, 0xDEAD_BEEF, 42));
        for other in [
            job_fingerprint("LRU", 1 << 30, 0xDEAD_BEEF, 42),
            job_fingerprint("SCIP", 1 << 20, 0xDEAD_BEEF, 42),
            job_fingerprint("SCIP", 1 << 30, 0xBEEF_DEAD, 42),
            job_fingerprint("SCIP", 1 << 30, 0xDEAD_BEEF, 7),
        ] {
            assert_ne!(a, other);
        }
    }

    #[test]
    fn record_roundtrips_through_file() {
        let path = tmpfile("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let ckpt = Checkpoint::open(&path).unwrap();
        let fp = job_fingerprint("SCIP", 123, 456, 7);
        ckpt.record(&fp, &m("SCIP", 0.25));
        drop(ckpt);
        let back = Checkpoint::open(&path).unwrap();
        assert_eq!(back.len(), 1);
        let got = back.get(&fp).unwrap();
        assert_eq!(got.policy, "SCIP");
        assert_eq!(got.miss_ratio, 0.25);
        assert_eq!(got.byte_miss_ratio, 0.125);
        assert_eq!(got.peak_memory_bytes, 4096);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped_not_fatal() {
        let path = tmpfile("torn.jsonl");
        let good = encode_record("A|cap=1|trace=2|seed=3", &m("A", 0.5));
        let torn = &good[..good.len() / 2]; // crashed mid-append
        std::fs::write(&path, format!("{good}\nnot json at all\n{torn}")).unwrap();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.len(), 1);
        assert_eq!(ckpt.skipped_lines(), 2);
        assert!(ckpt.get("A|cap=1|trace=2|seed=3").is_some());
        std::fs::remove_file(&path).ok();
    }

    /// The crash-safety contract end to end: a sidecar whose last line
    /// was torn mid-append (the crash case — appends flush per line, so
    /// only the in-flight record can be damaged) resumes cleanly. The
    /// torn cell is recomputed and re-appended; intact cells stay
    /// cached; a third run caches everything.
    #[test]
    fn truncated_mid_line_resume_recomputes_only_the_torn_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmpfile("truncate_resume.jsonl");
        std::fs::remove_file(&path).ok();

        let fps: Vec<String> = (0..3)
            .map(|i| job_fingerprint("SCIP", i, 0xCD, 9))
            .collect();
        {
            let ckpt = Checkpoint::open(&path).unwrap();
            for (i, fp) in fps.iter().enumerate() {
                ckpt.record(fp, &m("SCIP", i as f64 / 10.0));
            }
        }
        // Crash: the final append is torn partway through the line.
        let bytes = std::fs::read(&path).unwrap();
        let torn_at = bytes.len() - 17;
        std::fs::write(&path, &bytes[..torn_at]).unwrap();

        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.len(), 2, "two intact records survive");
        assert_eq!(ckpt.skipped_lines(), 1, "the torn tail is skipped");

        let ran = AtomicUsize::new(0);
        let cells: Vec<(String, _)> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let ran = &ran;
                (fp.clone(), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    m("SCIP", i as f64 / 10.0)
                })
            })
            .collect();
        let report = run_checkpointed(cells, Some(&ckpt), &SweepConfig::default());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "only the torn cell re-runs");
        assert_eq!(report.cached(), 2);
        assert!(report.failures().is_empty());

        // The recomputed record was re-appended on a fresh line (the
        // torn fragment stays quarantined on its own): a fresh open
        // caches all three, and nothing executes.
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.len(), 3);
        assert_eq!(ckpt.skipped_lines(), 1, "torn fragment still skipped");
        let cells: Vec<(String, _)> = fps
            .iter()
            .map(|fp| {
                (fp.clone(), move || -> RunMeasurement {
                    panic!("must not run")
                })
            })
            .collect();
        let report = run_checkpointed(cells, Some(&ckpt), &SweepConfig::default());
        assert_eq!(report.cached(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_sidecar_is_empty_not_error() {
        let path = tmpfile("never_written.jsonl");
        std::fs::remove_file(&path).ok();
        let ckpt = Checkpoint::open(&path).unwrap();
        assert!(ckpt.is_empty());
    }

    #[test]
    fn run_checkpointed_skips_done_cells_and_records_new_ones() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmpfile("resume.jsonl");
        std::fs::remove_file(&path).ok();

        let fps: Vec<String> = (0..4).map(|i| job_fingerprint("LRU", i, 0xAB, 1)).collect();
        // First run completes cells 0 and 2.
        {
            let ckpt = Checkpoint::open(&path).unwrap();
            ckpt.record(&fps[0], &m("LRU", 0.0));
            ckpt.record(&fps[2], &m("LRU", 0.2));
        }
        // Resume: only cells 1 and 3 may execute.
        let ckpt = Checkpoint::open(&path).unwrap();
        let ran = AtomicUsize::new(0);
        let cells: Vec<(String, _)> = fps
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                let ran = &ran;
                (fp.clone(), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    m("LRU", i as f64 / 10.0)
                })
            })
            .collect();
        let report = run_checkpointed(cells, Some(&ckpt), &SweepConfig::default());
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(report.cached(), 2);
        assert!(report.failures().is_empty());
        for (i, o) in report.outcomes.iter().enumerate() {
            let v = o.value().unwrap();
            assert!((v.miss_ratio - i as f64 / 10.0).abs() < 1e-12, "cell {i}");
            assert!(matches!(o, JobOutcome::Cached(_)) == (i == 0 || i == 2));
        }
        // Second resume: everything cached, nothing executes.
        let ckpt = Checkpoint::open(&path).unwrap();
        assert_eq!(ckpt.len(), 4);
        let cells: Vec<(String, _)> = fps
            .iter()
            .map(|fp| {
                (fp.clone(), move || -> RunMeasurement {
                    panic!("must not run")
                })
            })
            .collect();
        let report = run_checkpointed(cells, Some(&ckpt), &SweepConfig::default());
        assert_eq!(report.cached(), 4);
        std::fs::remove_file(&path).ok();
    }
}
