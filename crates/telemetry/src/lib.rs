#![warn(missing_docs)]

//! Zero-dependency observability for the repair pipeline.
//!
//! The crate provides these layers:
//!
//! * **Primitives** — [`Span`] wall-clock timers.
//! * **Typed events** — [`Event`] and its payloads
//!   ([`GenerationStats`], [`CandidateEvent`], [`FaultLocEvent`],
//!   [`SimStats`], [`SpanEvent`], [`PhaseEvent`], [`HeartbeatEvent`],
//!   [`HistogramEvent`]) describing what each pipeline stage did, in
//!   terms that map to the paper's Algorithm 1 / §3.2.
//! * **Profiler** — the [`Profiler`] attributes exclusive busy time to
//!   the fixed pipeline [`Phase`]s (parse / elaborate / simulate /
//!   score / store) across worker threads with nestable guards, and
//!   log-buckets whole-evaluation latencies.
//! * **Sinks** — the [`TelemetrySink`] trait and its implementations:
//!   [`NullSink`] (default, near-zero overhead), [`JsonLinesSink`]
//!   (machine-readable event stream), [`TimingFreeSink`] (scrubs
//!   wall-clock payloads so traces are byte-identical across `--jobs`),
//!   and [`FanoutSink`] (several at once). Reading the stream back —
//!   the end-of-run report behind `--metrics`, `cirfix report` and
//!   `cirfix watch` — is `cirfix::report::RunReport`'s single fold.
//! * **JSON** — the [`JsonValue`] writer every event serializes through
//!   ([`Event::to_value`]), and its reading half [`parse_json`] (with
//!   [`field`] accessors), which the store and the trace reader share.
//!
//! Producers hold an [`Observer`] — a cloneable `Arc` handle that fits
//! inside config structs — and call [`Observer::emit`] with a closure
//! so that event construction is skipped entirely when nothing is
//! listening.

mod event;
mod json;
mod metrics;
mod observer;
mod profiler;
mod sink;

pub use event::{
    CandidateEvent, EvalOutcomeEvent, Event, FaultLocEvent, GenerationStats, HeartbeatEvent,
    HistogramEvent, PhaseEvent, SimStats, SpanEvent, StoreEvent,
};
pub use json::{
    field, field_f64, field_str, field_u64, json_f64, parse_json, validate_json_line, JsonValue,
};
pub use metrics::Span;
pub use observer::Observer;
pub use profiler::{Phase, PhaseGuard, Profiler};
pub use sink::{FanoutSink, JsonLinesSink, NullSink, TelemetrySink, TimingFreeSink};
