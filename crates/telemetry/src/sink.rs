//! Event sinks: where telemetry goes.
//!
//! [`NullSink`] drops everything (the default; near-zero overhead
//! because producers check [`TelemetrySink::enabled`] before even
//! building events). [`JsonLinesSink`] appends one JSON object per
//! event to a writer for machine consumption. The human-readable
//! end-of-run report is `cirfix::report::ReportSink`, which folds the
//! same events the way `cirfix report` folds a trace.

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
/// handle (e.g. to render a report after the run) while the same sink
/// participates in a [`FanoutSink`].
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
/// live report at the same time).
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
