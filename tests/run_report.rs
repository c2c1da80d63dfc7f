//! End-to-end checks of the introspection layer's determinism: a
//! timing-free trace of a seeded repair run must be byte-identical for
//! any worker count, the folded [`RunReport`] must match a committed
//! golden fixture, and non-finite fitness values must survive the
//! trace → report round-trip.

use std::io::Write;
use std::sync::{Arc, Mutex};

use cirfix::{repair, Observer, RepairConfig, RepairResult, RunReport};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::{validate_json_line, JsonLinesSink, TimingFreeSink};

/// A `Write` target that can be read back after the sink takes
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The golden fixture's input: a seeded run that ends without
/// minimizing.
const GOLDEN_INPUT: (&str, u64) = ("counter_sens_list", 1);

/// A seeded run whose winning patch goes through minimization, so its
/// trace also covers the ddmin probes.
const MINIMIZING_INPUT: (&str, u64) = ("counter_reset", 3);

/// Runs the seeded repair `(scenario, seed)` with a timing-free trace
/// sink and `jobs` workers; returns the trace text and the result.
fn timing_free_trace((id, seed): (&str, u64), jobs: usize) -> (String, RepairResult) {
    let s = scenario(id).expect("benchmark exists");
    let problem = s.problem().expect("sources parse");
    let buf = SharedBuf::default();
    let mut config = RepairConfig::fast(seed);
    config.jobs = jobs;
    config.observer = Observer::new(Arc::new(TimingFreeSink::new(JsonLinesSink::new(
        buf.clone(),
    ))));
    let result = repair(&problem, config);
    assert!(result.totals.fitness_evals > 0);
    let bytes = buf.0.lock().expect("buffer poisoned").clone();
    (String::from_utf8(bytes).expect("trace is UTF-8"), result)
}

#[test]
fn timing_free_traces_are_byte_identical_across_worker_counts() {
    assert_trace_is_worker_independent(GOLDEN_INPUT);
    let minimizing = assert_trace_is_worker_independent(MINIMIZING_INPUT);
    assert!(
        minimizing.minimize_evals > 0,
        "the second input must exercise minimization"
    );
}

/// Checks that `input`'s timing-free trace is well-formed, scrubbed,
/// and identical for one worker and four; returns the serial result.
fn assert_trace_is_worker_independent(input: (&str, u64)) -> RepairResult {
    let (serial, result) = timing_free_trace(input, 1);
    let (parallel, _) = timing_free_trace(input, 4);
    assert!(!serial.is_empty(), "the trace must not be empty");
    assert_eq!(
        serial, parallel,
        "timing-free traces must not depend on the worker count ({input:?})"
    );
    for line in serial.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("invalid JSON line: {e}\n{line}"));
    }
    // Scrubbing really scrubbed: no wall-clock nanoseconds or
    // throughput survive in the trace.
    for line in serial.lines() {
        if line.contains("\"type\":\"span\"") || line.contains("\"type\":\"phase\"") {
            assert!(line.contains("\"nanos\":0"), "unscrubbed timing: {line}");
        }
        if line.contains("\"type\":\"heartbeat\"") {
            assert!(
                line.contains("\"evals_per_s\":0.0"),
                "unscrubbed throughput: {line}"
            );
        }
        assert!(
            !line.contains("\"type\":\"histogram\""),
            "histograms carry raw latencies and must be dropped: {line}"
        );
    }
    result
}

#[test]
fn seeded_report_matches_the_golden_fixture() {
    let (trace, _) = timing_free_trace(GOLDEN_INPUT, 1);
    let report = RunReport::from_trace(&trace).expect("trace folds");
    let rendered = report.render();
    // `UPDATE_GOLDEN=1 cargo test` rewrites the fixture.
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.txt"),
            &rendered,
        )
        .expect("fixture writes");
    }
    let expected = include_str!("golden/report.txt");
    assert_eq!(
        rendered, expected,
        "report drifted from tests/golden/report.txt; \
         if the change is intentional, update the fixture"
    );
    // And the report itself is stable under re-folding.
    assert_eq!(
        RunReport::from_trace(&trace).expect("trace folds").render(),
        rendered
    );
}

#[test]
fn report_json_round_trips_through_the_store_parser() {
    let (trace, _) = timing_free_trace(GOLDEN_INPUT, 1);
    let report = RunReport::from_trace(&trace).expect("trace folds");
    let json = report.to_json();
    let parsed = cirfix_store::parse_json(&json).expect("report JSON parses");
    assert_eq!(
        cirfix_store::field_str(&parsed, "source"),
        Some("trace"),
        "{json}"
    );
    assert!(json.contains("\"generations\""));
}

#[test]
fn non_finite_fitness_survives_trace_to_report() {
    // A hand-written trace line with NaN fitness — the worst-fitness
    // mapping can produce one. The report must fold it without
    // poisoning the operator table.
    let trace = concat!(
        r#"{"type":"candidate","patch_len":1,"growth_factor":1.0,"fitness":"NaN","cached":false,"op":"mutation"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":1,"growth_factor":1.0,"fitness":"Infinity","cached":false,"op":"mutation"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":1,"growth_factor":1.0,"fitness":0.5,"cached":false,"op":"mutation"}"#,
        "\n",
    );
    let report = RunReport::from_trace(trace).expect("trace folds");
    let op = report
        .operators
        .iter()
        .find(|o| o.op == "mutation")
        .expect("operator row");
    // NaN neither survives nor is plausible; Infinity does both.
    assert_eq!(op.proposed, 3);
    assert_eq!(op.survived, 2);
    assert_eq!(op.plausible, 1);
}
