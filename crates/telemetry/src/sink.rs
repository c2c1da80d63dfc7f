//! Event sinks: where telemetry goes.
//!
//! [`NullSink`] drops everything (the default; near-zero overhead
//! because producers check [`TelemetrySink::enabled`] before even
//! building events). [`JsonLinesSink`] appends one JSON object per
//! event to a writer for machine consumption. [`SummarySink`]
//! accumulates aggregates and renders a human-readable end-of-run
//! report.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A destination for telemetry events.
///
/// Object-safe and `Send + Sync`, so one sink can be shared (behind an
/// `Arc`) across the repair loop and, later, parallel evaluators.
pub trait TelemetrySink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &Event);

    /// Whether events will be observed at all. Producers should skip
    /// event construction when this is `false`; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&self) {}
}

/// Shared sinks forward through the `Arc`, so a caller can keep a
/// handle (e.g. to render a [`SummarySink`] report after the run) while
/// the same sink participates in a [`FanoutSink`].
impl<T: TelemetrySink + ?Sized> TelemetrySink for Arc<T> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// The default sink: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn record(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Writes one JSON object per line to an arbitrary writer.
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl JsonLinesSink<BufWriter<File>> {
    /// Opens (truncating) `path` for a buffered JSON-lines stream.
    pub fn create(path: &Path) -> std::io::Result<JsonLinesSink<BufWriter<File>>> {
        Ok(JsonLinesSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps an existing writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Consumes the sink and returns the inner writer (flushing is the
    /// caller's job for raw writers; buffered writers flush on drop).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("sink poisoned")
    }
}

impl<W: Write + Send> TelemetrySink for JsonLinesSink<W> {
    fn record(&self, event: &Event) {
        let mut w = self.writer.lock().expect("sink poisoned");
        // Telemetry must never take down a repair run; drop on error.
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("sink poisoned").flush();
    }
}

/// A [`JsonLinesSink`] over a *shared* writer that scopes every event
/// with a constant string field, e.g. `"job": "<id>"`. The `cirfix
/// serve` daemon gives each session its own tag over one aggregate
/// trace file, so interleaved events from concurrent jobs stay
/// attributable. Per-job traces stay untagged (and therefore
/// byte-identical to a batch run's); only the shared stream is tagged.
pub struct TaggedJsonLinesSink<W: Write + Send> {
    key: String,
    value: String,
    writer: Arc<Mutex<W>>,
}

impl<W: Write + Send> TaggedJsonLinesSink<W> {
    /// Tags every event with `key: value` and appends it to the shared
    /// `writer`. Clones of the `Arc` may back other tags or sinks; each
    /// line is written atomically under the lock.
    pub fn new(key: &str, value: &str, writer: Arc<Mutex<W>>) -> TaggedJsonLinesSink<W> {
        TaggedJsonLinesSink {
            key: key.to_string(),
            value: value.to_string(),
            writer,
        }
    }
}

impl<W: Write + Send> TelemetrySink for TaggedJsonLinesSink<W> {
    fn record(&self, event: &Event) {
        let line = event.to_json_tagged(&[(&self.key, &self.value)]);
        let mut w = self.writer.lock().expect("sink poisoned");
        // Telemetry must never take down a repair run; drop on error.
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("sink poisoned").flush();
    }
}

/// Running aggregates for the summary report.
#[derive(Debug, Default, Clone)]
struct SummaryState {
    generations: u64,
    last_best: f64,
    candidates: u64,
    cached: u64,
    fitness_sum: f64,
    max_patch_len: u64,
    fault_loc_passes: u64,
    implicated_last: u64,
    sim_runs: u64,
    sim_events: u64,
    sim_timesteps: u64,
    nba_flushes: u64,
    peak_queue_depth: u64,
    lint_errors: u64,
    lint_warnings: u64,
    store_hits: u64,
    store_writes: u64,
    store_checkpoints: u64,
    store_resumes: u64,
    store_damage: u64,
    store_degraded: u64,
    outcomes: Vec<(String, u64)>, // outcome kind, count (first-seen order)
    spans: Vec<(String, u64, u64)>, // name, count, total nanos
    phases: Vec<(String, u64, u64)>, // name, count, total nanos
    heartbeats: u64,
    eval_samples: u64, // eval-latency histogram totals
}

/// Accumulates events and renders a human-readable end-of-run report.
#[derive(Debug, Default)]
pub struct SummarySink {
    state: Mutex<SummaryState>,
}

impl SummarySink {
    /// Creates an empty summary.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }

    /// Renders the report from everything recorded so far.
    pub fn report(&self) -> String {
        let s = self.state.lock().expect("sink poisoned").clone();
        let mut out = String::new();
        let _ = writeln!(out, "=== telemetry summary ===");
        let _ = writeln!(out, "search:");
        let _ = writeln!(out, "  generations          {:>12}", s.generations);
        let _ = writeln!(out, "  best fitness         {:>12.4}", s.last_best);
        let _ = writeln!(out, "  candidates evaluated {:>12}", s.candidates);
        let cache_pct = if s.candidates > 0 {
            100.0 * s.cached as f64 / s.candidates as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "  cache hit rate       {:>11.1}%", cache_pct);
        let mean = if s.candidates > 0 {
            s.fitness_sum / s.candidates as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "  mean cand. fitness   {:>12.4}", mean);
        let _ = writeln!(out, "  max patch length     {:>12}", s.max_patch_len);
        let _ = writeln!(out, "fault localization:");
        let _ = writeln!(out, "  passes               {:>12}", s.fault_loc_passes);
        let _ = writeln!(out, "  implicated (last)    {:>12}", s.implicated_last);
        let _ = writeln!(out, "simulation:");
        let _ = writeln!(out, "  runs                 {:>12}", s.sim_runs);
        let _ = writeln!(out, "  events processed     {:>12}", s.sim_events);
        let _ = writeln!(out, "  timesteps            {:>12}", s.sim_timesteps);
        let _ = writeln!(out, "  NBA flushes          {:>12}", s.nba_flushes);
        let _ = writeln!(out, "  peak queue depth     {:>12}", s.peak_queue_depth);
        if s.lint_errors + s.lint_warnings > 0 {
            let _ = writeln!(out, "lint:");
            let _ = writeln!(out, "  errors               {:>12}", s.lint_errors);
            let _ = writeln!(out, "  warnings             {:>12}", s.lint_warnings);
        }
        if !s.outcomes.is_empty() {
            let _ = writeln!(out, "evaluation outcomes:");
            let mut outcomes = s.outcomes.clone();
            outcomes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (kind, count) in &outcomes {
                let _ = writeln!(out, "  {kind:<20} {count:>12}");
            }
        }
        if s.store_hits
            + s.store_writes
            + s.store_checkpoints
            + s.store_resumes
            + s.store_damage
            + s.store_degraded
            > 0
        {
            let _ = writeln!(out, "store:");
            let _ = writeln!(out, "  hits                 {:>12}", s.store_hits);
            let _ = writeln!(out, "  writes               {:>12}", s.store_writes);
            let _ = writeln!(out, "  checkpoints          {:>12}", s.store_checkpoints);
            if s.store_resumes > 0 {
                let _ = writeln!(out, "  resumes              {:>12}", s.store_resumes);
            }
            if s.store_damage > 0 {
                let _ = writeln!(out, "  damaged records      {:>12}", s.store_damage);
            }
            if s.store_degraded > 0 {
                let _ = writeln!(out, "  degraded (memory)    {:>12}", s.store_degraded);
            }
        }
        if !s.spans.is_empty() {
            let _ = writeln!(out, "spans:");
            for (name, count, nanos) in &s.spans {
                let ms = *nanos as f64 / 1e6;
                let _ = writeln!(out, "  {name:<20} {count:>6}x {ms:>12.3} ms");
            }
        }
        if !s.phases.is_empty() {
            let _ = writeln!(out, "phases (busy):");
            for (name, count, nanos) in &s.phases {
                let ms = *nanos as f64 / 1e6;
                let _ = writeln!(out, "  {name:<20} {count:>6}x {ms:>12.3} ms");
            }
        }
        if s.heartbeats > 0 {
            let _ = writeln!(out, "heartbeats:");
            let _ = writeln!(out, "  snapshots            {:>12}", s.heartbeats);
        }
        if s.eval_samples > 0 {
            let _ = writeln!(out, "eval latency:");
            let _ = writeln!(out, "  samples              {:>12}", s.eval_samples);
        }
        out
    }
}

impl TelemetrySink for SummarySink {
    fn record(&self, event: &Event) {
        let mut s = self.state.lock().expect("sink poisoned");
        match event {
            Event::Generation(g) => {
                s.generations = s.generations.max(g.generation);
                s.last_best = g.best_fitness;
            }
            Event::Candidate(c) => {
                s.candidates += 1;
                if c.cached {
                    s.cached += 1;
                }
                s.fitness_sum += c.fitness;
                s.max_patch_len = s.max_patch_len.max(c.patch_len);
            }
            Event::FaultLoc(f) => {
                s.fault_loc_passes += 1;
                s.implicated_last = f.implicated_nodes;
            }
            Event::Sim(m) => {
                s.sim_runs += 1;
                s.sim_events += m.active_events + m.inactive_events;
                s.sim_timesteps += m.timesteps;
                s.nba_flushes += m.nba_flushes;
                s.peak_queue_depth = s.peak_queue_depth.max(m.peak_queue_depth);
            }
            Event::Lint(l) => {
                if l.severity == "error" {
                    s.lint_errors += 1;
                } else {
                    s.lint_warnings += 1;
                }
            }
            Event::Store(st) => match st.op.as_str() {
                "hit" => s.store_hits += 1,
                "write" => s.store_writes += 1,
                "checkpoint" => s.store_checkpoints += 1,
                "resume" => s.store_resumes += 1,
                "degraded" => s.store_degraded += 1,
                _ => s.store_damage += st.records,
            },
            Event::EvalOutcome(o) => {
                if let Some(entry) = s.outcomes.iter_mut().find(|(k, _)| *k == o.kind) {
                    entry.1 += 1;
                } else {
                    s.outcomes.push((o.kind.clone(), 1));
                }
            }
            Event::Span(sp) => {
                if let Some(entry) = s.spans.iter_mut().find(|(n, _, _)| *n == sp.name) {
                    entry.1 += 1;
                    entry.2 += sp.nanos;
                } else {
                    s.spans.push((sp.name.clone(), 1, sp.nanos));
                }
            }
            Event::Phase(p) => {
                if let Some(entry) = s.phases.iter_mut().find(|(n, _, _)| *n == p.name) {
                    entry.1 += p.count;
                    entry.2 += p.nanos;
                } else {
                    s.phases.push((p.name.clone(), p.count, p.nanos));
                }
            }
            Event::Heartbeat(h) => {
                s.heartbeats += 1;
                s.last_best = s.last_best.max(h.best_fitness);
            }
            Event::Histogram(h) => {
                s.eval_samples += h.total;
            }
        }
    }
}

/// Scrubs wall-clock-dependent payloads before forwarding to an inner
/// sink, so traces are byte-identical across worker counts and
/// machines: span and phase durations become zero, heartbeat
/// throughput becomes zero, and latency histograms are dropped
/// entirely. Counts (span/phase tallies, heartbeat progress counters)
/// are deterministic and pass through untouched.
pub struct TimingFreeSink<S> {
    inner: S,
}

impl<S: TelemetrySink> TimingFreeSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> TimingFreeSink<S> {
        TimingFreeSink { inner }
    }

    /// Consumes the wrapper and returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TelemetrySink> TelemetrySink for TimingFreeSink<S> {
    fn record(&self, event: &Event) {
        match event {
            Event::Span(sp) => {
                let mut sp = sp.clone();
                sp.nanos = 0;
                self.inner.record(&Event::Span(sp));
            }
            Event::Phase(p) => {
                let mut p = p.clone();
                p.nanos = 0;
                self.inner.record(&Event::Phase(p));
            }
            Event::Heartbeat(h) => {
                let mut h = h.clone();
                h.evals_per_s = 0.0;
                self.inner.record(&Event::Heartbeat(h));
            }
            Event::Histogram(_) => {}
            other => self.inner.record(other),
        }
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// Broadcasts each event to every inner sink (e.g. a JSON trace and a
/// summary at the same time).
pub struct FanoutSink {
    sinks: Vec<Box<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// Builds a fanout over `sinks`.
    pub fn new(sinks: Vec<Box<dyn TelemetrySink>>) -> FanoutSink {
        FanoutSink { sinks }
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}
