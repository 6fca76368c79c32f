//! CDN workload substrate: synthetic traces, trace I/O, offline analysis.
//!
//! The paper evaluates on CDN-T (proprietary Tencent), CDN-W (wiki, from
//! the LRB artifact) and CDN-A (Tencent photo, ICS'18). None are available
//! offline, so this crate generates seeded synthetic analogs whose Table-1
//! statistics (requests per unique object, size distribution, working-set
//! size) and class structure (ZRO / A-ZRO / P-ZRO / A-P-ZRO percentages)
//! match the paper's reported ranges. See DESIGN.md §5 for the substitution
//! argument.
//!
//! Modules:
//! - [`columns`]: structure-of-arrays trace storage shared across sweep
//!   workers ([`TraceColumns`]).
//! - [`shard`]: key-partitioning of a trace into per-shard column sets
//!   (fibonacci key→shard mapping shared with the cache layer), feeding
//!   the sharded replay engine.
//! - [`zipf`]: exact finite-support Zipf rank sampling (CDF inversion
//!   through a guide table, O(1) expected).
//! - [`sizes`]: per-object size models (clamped lognormal + heavy tail).
//! - [`gen`]: the trace generator engine (Zipf core, popularity drift,
//!   one-hit wonders, burst processes, diurnal wall clock).
//! - [`profiles`]: CDN-T / CDN-W / CDN-A parameterisations.
//! - [`stats`]: Table-1 style trace statistics.
//! - [`io`]: binary + CSV trace serialisation (per-chunk CRC-32 and a
//!   length footer; corruption surfaces as structured
//!   [`TraceError`]s), with [`ChunkIter`] as the single streaming decode
//!   path both whole-trace readers collect over.
//! - [`stream`]: out-of-core streaming — [`StreamingTrace`] (double-
//!   buffered prefetch thread over a [`ChunkIter`]) and the
//!   direct-to-disk generator ([`generate_binary`]), bounded-memory on
//!   both the read and write side regardless of trace length.
//! - [`checksum`]: CRC-32 behind trace-file integrity (a PCLMULQDQ
//!   folding kernel where the CPU has one, a slicing-by-16 table loop
//!   everywhere else), and the FNV-1a content hash behind
//!   [`TraceColumns::content_hash`]. The kernel's module is the crate's
//!   only `unsafe` code.
//! - [`label`]: ZRO / P-ZRO / A-ZRO / A-P-ZRO labels of any policy's
//!   outcome stream, each decided by the outcome of the object's next
//!   request.
//! - [`belady`]: the next-access table that Belady's MIN and the labels
//!   read.
//!
//! The crate holds no cache and replays nothing: policies live in
//! `cdn-policies`, and every replay goes through `cdn-sim`'s one loop.

#![deny(unsafe_code)]

pub mod belady;
pub mod checksum;
pub mod columns;
pub mod gen;
pub mod io;
pub mod label;
pub mod profiles;
pub mod shard;
pub mod sizes;
pub mod stats;
pub mod stream;
pub mod zipf;

pub use belady::{next_access_table, NO_NEXT};
pub use checksum::crc32;
pub use columns::{SharedTrace, TraceColumns};
pub use gen::{degenerate_corpus, DriftEvent, GeneratorConfig, TraceGenerator};
pub use io::{write_binary_stream, ChunkIter, TraceError, CHUNK_RECORDS, RECORD_BYTES};
pub use label::{label_outcomes, LabelSummary, RequestLabel, TraceLabels};
pub use profiles::{drift_corpus, flash_crowd_window, Workload, WorkloadProfile};
pub use shard::{partition_columns, ShardStats, ShardedTrace};
pub use sizes::SizeModel;
pub use stats::{hot_set_overlap, top_k_share, TraceStats};
pub use stream::{generate_binary, write_csv_stream, StreamingTrace, STREAM_SLOTS};
pub use zipf::Zipf;
