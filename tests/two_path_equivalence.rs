//! The GP loop simulates a child on one of two paths. When a batch
//! opens with every budget slot certain and no fault plan, the pool
//! thread that builds a child also simulates it; otherwise (a trial's
//! last batch, a chaos run) the coordinating thread reserves the slot
//! and claims the fault ordinal first, and a second submission
//! simulates it. An empty fault plan injects nothing but sends every
//! child down the second path, so a run with one must equal the same
//! run without a plan byte for byte: its canonical result, its
//! timing-free trace and its session log, at one worker and at four.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cirfix::{
    problem_digest, repair_session, repair_with_trials, result_to_canonical_json, session_digest,
    FaultInjector, FaultPlan, Observer, RepairConfig, RepairProblem, RepairStatus,
};
use cirfix_store::Store;
use cirfix_telemetry::{JsonLinesSink, JsonValue, TimingFreeSink};

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

fn problem(id: &str) -> RepairProblem {
    cirfix_benchmarks::scenario(id)
        .expect("known scenario")
        .problem()
        .expect("scenario builds")
}

/// `RepairConfig::fast(42)` at `jobs` workers, with a timeout no trial
/// comes near (the evaluation budget bounds every run), on the
/// builder-simulates path or, with `two_step`, on the second path.
fn config(jobs: usize, two_step: bool) -> RepairConfig {
    RepairConfig {
        jobs,
        timeout: Duration::from_secs(3600),
        faults: two_step.then(|| FaultInjector::new(FaultPlan::parse("").expect("empty plan"))),
        ..RepairConfig::fast(42)
    }
}

/// The canonical result and timing-free trace of `trials` trials.
fn run(problem: &RepairProblem, trials: u32, mut config: RepairConfig) -> (String, String) {
    let buf = SharedBuf::default();
    config.observer = Observer::new(Arc::new(TimingFreeSink::new(JsonLinesSink::new(
        buf.clone(),
    ))));
    let result = repair_with_trials(problem, &config, trials);
    let trace = buf.0.lock().expect("buffer poisoned").clone();
    (
        result_to_canonical_json(&result).to_json(),
        String::from_utf8(trace).expect("trace is UTF-8"),
    )
}

/// A multi-generation repair and a search that exhausts all three
/// trials' budgets, so the second path also runs a trial's last,
/// budget-truncated batch.
#[test]
fn both_paths_give_identical_results_and_traces() {
    for (id, expect_plausible) in [("flip_flop_branches", true), ("mux_width", false)] {
        let problem = problem(id);
        for jobs in [1usize, 4] {
            let (result, trace) = run(&problem, 3, config(jobs, false));
            let (two_step_result, two_step_trace) = run(&problem, 3, config(jobs, true));
            assert_eq!(
                result.contains("\"status\":\"plausible\""),
                expect_plausible,
                "{id}: {result}"
            );
            assert!(
                trace.contains("\"type\":\"sim\""),
                "{id}: the trace is live"
            );
            assert_eq!(
                result, two_step_result,
                "{id} jobs={jobs}: canonical results differ between the paths"
            );
            assert_eq!(
                trace, two_step_trace,
                "{id} jobs={jobs}: timing-free traces differ between the paths"
            );
        }
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-two-path-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A session-log record with every wall-clock field (`*_nanos`) and the
/// worker count (`jobs`) zeroed, at any depth.
fn timing_free(v: &JsonValue) -> JsonValue {
    match v {
        JsonValue::Object(pairs) => JsonValue::Object(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = if k.ends_with("_nanos") || k == "jobs" {
                        JsonValue::Uint(0)
                    } else {
                        timing_free(v)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(timing_free).collect()),
        other => other.clone(),
    }
}

/// The timing-free records of the session `config` wrote into `dir`.
fn session_log(
    problem: &RepairProblem,
    config: &RepairConfig,
    trials: u32,
    dir: &std::path::Path,
) -> Vec<String> {
    let store = Store::open(dir).expect("store opens");
    let session = session_digest(problem_digest(problem, config), config, trials);
    let (records, health) = store
        .load_session(&session.to_hex())
        .expect("session log reads");
    assert!(health.is_clean(), "the session log is undamaged");
    records.iter().map(|r| timing_free(r).to_json()).collect()
}

/// A persistent session, which fingerprints every child and peeks the
/// store on the pool, writes the same log on both paths.
#[test]
fn both_paths_write_identical_session_logs() {
    let problem = problem("mux_three_numeric");
    for jobs in [1usize, 4] {
        let logs: Vec<Vec<String>> = [false, true]
            .into_iter()
            .map(|two_step| {
                let config = RepairConfig {
                    popn_size: 60,
                    max_generations: 3,
                    max_fitness_evals: 400,
                    ..config(jobs, two_step)
                };
                let dir = fresh_dir(&format!("{jobs}-{two_step}"));
                let result =
                    repair_session(&problem, &config, 2, &dir, false).expect("session runs");
                assert_eq!(result.status, RepairStatus::Exhausted);
                let log = session_log(&problem, &config, 2, &dir);
                let _ = std::fs::remove_dir_all(dir);
                log
            })
            .collect();
        assert!(
            logs[0].iter().any(|r| r.contains("\"checkpoint\"")),
            "jobs={jobs}: the log holds checkpoints"
        );
        assert_eq!(
            logs[0], logs[1],
            "jobs={jobs}: session logs differ between the paths"
        );
    }
}
