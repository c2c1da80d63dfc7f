#![warn(missing_docs)]

//! Repair as a service: the `cirfix serve` daemon and its client.
//!
//! This crate turns the batch repair engine into a long-running
//! service without giving up the property the rest of the workspace is
//! built around: a daemon job produces **bit-identical** results (and
//! timing-free traces) to the equivalent standalone `cirfix repair`.
//!
//! * [`protocol`] — the versioned JSON-lines wire protocol (framing,
//!   parsing, response building), zero-dependency like everything
//!   else: `cirfix-telemetry`'s JSON writer and reader.
//! * [`job`] — the job state machine and its crash-safe registry
//!   records (`queued → running → plausible | failed`, with
//!   `cancelled`/`interrupted` as *resumable* stops).
//! * [`scheduler`] — admission control, the fair-share [`FairGate`]
//!   that time-slices the shared worker pool across sessions at
//!   candidate-batch granularity, per-job budgets, and restart
//!   recovery through the store.
//! * [`server`] / [`client`] — the Unix-socket (or TCP) daemon loop
//!   and the client used by `cirfix submit/status/watch/cancel/
//!   shutdown`.
//! * [`conf`] — `repair.conf` loading and the builders shared with the
//!   `cirfix` CLI.

pub mod client;
pub mod conf;
pub mod job;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::Client;
pub use conf::{Config, ConfigError};
pub use job::{JobRecord, JobSpec, JobState};
pub use protocol::{Request, WireError, MAX_LINE_BYTES, PROTOCOL_VERSION};
pub use scheduler::{FairGate, Progress, Scheduler, ServeOpts};
pub use server::{serve, ServeAddr};
