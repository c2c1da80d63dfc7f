#![warn(missing_docs)]

//! `cirfix-store` — the crash-safe persistent layer of the repair
//! pipeline.
//!
//! The GP search's dominant cost is fitness evaluation (one full
//! instrumented-testbench simulation per candidate; the paper budgets
//! 12 hours per trial), and all of that work used to be lost the moment
//! the process exited. This crate persists it:
//!
//! * [`hash`] — a portable streaming 128-bit FNV-1a hasher and hex
//!   [`Digest`] for content-addressing patched designs.
//! * [`record`] — per-line checksummed record framing.
//! * [`segment`] — append-only JSON-lines segment files with
//!   torn-write detection and recovery.
//! * [`store`] — the directory layout: evaluation-cache segments,
//!   resumable session logs, the repair corpus, plus `verify` and
//!   `gc`/compaction.
//!
//! Like every crate in this workspace, it is zero-dependency (the build
//! environment has no crates.io access): hashing and file formats are
//! hand-rolled on `std`, and JSON is read and written with
//! `cirfix-telemetry`'s parser and writer, re-exported here.

pub mod hash;
pub mod record;
pub mod segment;
pub mod store;

pub use cirfix_telemetry::{field, field_f64, field_str, field_u64, json_f64, parse_json};
pub use hash::{fnv64, Digest, Fnv128};
pub use record::{decode_record, encode_record, RecordError};
pub use segment::{read_segment, recover_segment, SegmentHealth, SegmentWriter};
pub use store::{EvalWriter, FileReport, GcReport, Lease, Store, StoreHealth, StoreReport};
