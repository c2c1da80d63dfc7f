//! End-to-end check of the observability pipeline: a real repair run
//! streamed through [`JsonLinesSink`] must produce a machine-readable
//! trace — every line valid JSON, with all four pipeline event kinds
//! represented (the paper's Alg. 1 loop, its fitness evaluations
//! (§3.2), fault localization (Alg. 2), and the simulator underneath).
//! Minimization probes (§3.7) are traced exactly like search children.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cirfix::{repair, repair_with_trials, Observer, RepairConfig};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::{validate_json_line, Event, JsonLinesSink, TelemetrySink};

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

#[test]
fn repair_trace_is_valid_json_with_all_event_kinds() {
    let s = scenario("counter_sens_list").expect("benchmark exists");
    let problem = s.problem().expect("sources parse");

    let buf = SharedBuf::default();
    let mut config = RepairConfig::fast(1);
    config.observer = Observer::new(Arc::new(JsonLinesSink::new(buf.clone())));
    let result = repair(&problem, config);
    config_independent_checks(&result);

    let bytes = buf.0.lock().expect("buffer poisoned").clone();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(!text.is_empty(), "the trace must not be empty");

    let mut tally: BTreeMap<&str, u64> = BTreeMap::new();
    for line in text.lines() {
        validate_json_line(line).unwrap_or_else(|e| panic!("invalid JSON line: {e}\n{line}"));
        let tag = line
            .split_once("\"type\":\"")
            .and_then(|(_, rest)| rest.split('"').next())
            .expect("every event carries a type tag");
        let kind = match tag {
            "generation" | "candidate" | "fault_loc" | "sim" | "eval_outcome" | "span"
            | "phase" | "heartbeat" | "histogram" => tag,
            other => panic!("unexpected event type `{other}`"),
        };
        *tally.entry(kind).or_insert(0) += 1;
    }

    for kind in [
        "generation",
        "candidate",
        "fault_loc",
        "sim",
        "eval_outcome",
        "phase",
        "heartbeat",
        "histogram",
    ] {
        assert!(
            tally.get(kind).copied().unwrap_or(0) >= 1,
            "trace must contain at least one `{kind}` event; tally: {tally:?}"
        );
    }
}

fn config_independent_checks(result: &cirfix::RepairResult) {
    // Run totals are populated whether or not the trial succeeded.
    assert!(result.totals.fitness_evals > 0);
    assert_eq!(result.totals.trials, 1);
    assert!(result.totals.wall_time.as_nanos() > 0);
}

#[test]
fn disabled_observer_emits_nothing_and_totals_still_populate() {
    let s = scenario("counter_sens_list").expect("benchmark exists");
    let problem = s.problem().expect("sources parse");
    let result = repair(&problem, RepairConfig::fast(1));
    assert!(result.totals.fitness_evals >= result.cache_hits);
    assert_eq!(result.totals.fitness_evals, result.fitness_evals);
    assert!(result.totals.generations as u64 >= 1);
}

/// Counts `sim` events and `eval_outcome` events (all, and those of
/// kind `ok`).
#[derive(Default)]
struct OutcomeTally {
    sims: AtomicU64,
    outcomes: AtomicU64,
    ok_outcomes: AtomicU64,
}

impl TelemetrySink for OutcomeTally {
    fn record(&self, event: &Event) {
        match event {
            Event::Sim(_) => {
                self.sims.fetch_add(1, Ordering::Relaxed);
            }
            Event::EvalOutcome(o) => {
                self.outcomes.fetch_add(1, Ordering::Relaxed);
                if o.kind == "ok" {
                    self.ok_outcomes.fetch_add(1, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn minimization_probes_trace_like_search_evaluations() {
    let s = scenario("counter_reset").expect("benchmark exists");
    let problem = s.problem().expect("sources parse");
    let tally = Arc::new(OutcomeTally::default());
    let config = RepairConfig {
        timeout: Duration::from_secs(3600),
        observer: Observer::new(tally.clone()),
        ..RepairConfig::fast(42)
    };
    let result = repair_with_trials(&problem, &config, 3);
    assert!(result.minimize_evals > 0, "the run must minimize");
    // Every simulation that completes emits one `sim` event, whether
    // the search or a ddmin probe asked for it.
    assert_eq!(
        tally.sims.load(Ordering::Relaxed),
        tally.ok_outcomes.load(Ordering::Relaxed),
        "one sim event per ok outcome"
    );
    assert_eq!(
        tally.outcomes.load(Ordering::Relaxed),
        result.totals.fitness_evals,
        "one eval_outcome event per fitness evaluation"
    );
}
