//! Cross-cutting telemetry tests: span nesting, observer sink
//! swapping, fanout, and the JSON-lines and timing-free sinks.

use std::sync::{Arc, Mutex};

use cirfix_telemetry::{
    CandidateEvent, Event, FanoutSink, GenerationStats, HeartbeatEvent, HistogramEvent,
    JsonLinesSink, NullSink, Observer, PhaseEvent, SimStats, Span, SpanEvent, TelemetrySink,
    TimingFreeSink,
};

/// A sink that stores every event for later inspection.
#[derive(Default)]
struct RecordingSink {
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    fn names(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .map(|e| match e {
                Event::Span(s) => s.name.clone(),
                other => other.kind().to_string(),
            })
            .collect()
    }
}

impl TelemetrySink for RecordingSink {
    fn record(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[test]
fn spans_nest_and_report_inner_first() {
    let sink = RecordingSink::default();
    {
        let _outer = Span::enter("outer", &sink);
        {
            let _inner = Span::enter("inner", &sink);
        }
        {
            let _inner2 = Span::enter("inner2", &sink);
        }
    }
    assert_eq!(sink.names(), vec!["inner", "inner2", "outer"]);
    // The outer span's duration covers both inner spans.
    let events = sink.events.lock().unwrap();
    let nanos_of = |name: &str| {
        events
            .iter()
            .find_map(|e| match e {
                Event::Span(s) if s.name == name => Some(s.nanos),
                _ => None,
            })
            .expect("span recorded")
    };
    assert!(nanos_of("outer") >= nanos_of("inner"));
}

#[test]
fn spans_against_a_disabled_sink_record_nothing() {
    // NullSink is disabled, so the drop path must not try to record.
    let _span = Span::enter("ignored", &NullSink);
    let fan = FanoutSink::new(vec![]);
    assert!(!fan.enabled(), "an empty fanout observes nothing");
    let _span = Span::enter("ignored", &fan);
}

#[test]
fn observer_sinks_can_be_swapped() {
    // A config's observer can move from "off" to a live sink; events
    // only reach sinks attached at emit time.
    let mut observer = Observer::none();
    assert!(!observer.enabled());
    let mut built = 0u32;
    observer.emit(|| {
        built += 1;
        Event::Generation(GenerationStats::default())
    });
    assert_eq!(built, 0, "disabled observers must not even build events");

    let recording = Arc::new(RecordingSink::default());
    observer = Observer::new(recording.clone());
    assert!(observer.enabled());
    observer.emit(|| {
        built += 1;
        Event::Generation(GenerationStats::default())
    });
    assert_eq!(built, 1);
    assert_eq!(recording.names(), vec!["generation"]);

    // Swapping back to none leaves the recorded history intact.
    observer = Observer::none();
    observer.emit(|| Event::Generation(GenerationStats::default()));
    assert_eq!(recording.names().len(), 1);
}

#[test]
fn fanout_duplicates_events_to_every_sink() {
    let a = Arc::new(RecordingSink::default());
    let b = Arc::new(RecordingSink::default());
    let fan = FanoutSink::new(vec![Box::new(a.clone()), Box::new(b.clone())]);
    fan.record(&Event::Sim(SimStats::default()));
    assert_eq!(a.names(), vec!["sim"]);
    assert_eq!(b.names(), vec!["sim"]);
}

#[test]
fn json_lines_sink_emits_one_parseable_line_per_event() {
    let sink = JsonLinesSink::new(Vec::new());
    sink.record(&Event::Candidate(CandidateEvent {
        patch_len: 2,
        growth_factor: 1.5,
        fitness: 0.75,
        cached: false,
        op: "template".to_string(),
    }));
    sink.record(&Event::Span(SpanEvent {
        name: "repair".to_string(),
        nanos: 1_000,
    }));
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in lines {
        cirfix_telemetry::validate_json_line(line).expect("valid JSON");
    }
}

#[test]
fn timing_free_sink_scrubs_wall_clock_payloads() {
    let sink = TimingFreeSink::new(JsonLinesSink::new(Vec::new()));
    sink.record(&Event::Span(SpanEvent {
        name: "repair".to_string(),
        nanos: 123_456,
    }));
    sink.record(&Event::Phase(PhaseEvent {
        name: "simulate".to_string(),
        count: 4,
        nanos: 999_999,
    }));
    sink.record(&Event::Heartbeat(HeartbeatEvent {
        status: "search".to_string(),
        generation: 1,
        fitness_evals: 42,
        evals_per_s: 88.5,
        ..HeartbeatEvent::default()
    }));
    sink.record(&Event::Histogram(HistogramEvent {
        name: "eval_latency".to_string(),
        total: 3,
        buckets: vec![(10, 3)],
    }));
    let text = String::from_utf8(sink.into_inner().into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The histogram is dropped outright; everything else survives with
    // its wall-clock payloads zeroed and its counts intact.
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"nanos\":0") && !lines[0].contains("123"));
    assert!(lines[1].contains("\"count\":4") && lines[1].contains("\"nanos\":0"));
    assert!(lines[2].contains("\"fitness_evals\":42") && lines[2].contains("\"evals_per_s\":0.0"));
}
