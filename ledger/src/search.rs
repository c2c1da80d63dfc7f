//! The two search workloads: Algorithm 1 through `repair_with_trials`,
//! and persistent sessions through `repair_session` written cold and
//! read back warm.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cirfix::{
    evaluate, repair_session, repair_with_trials, result_to_canonical_json, RepairConfig,
    RepairProblem, RepairResult,
};
use cirfix_benchmarks::Scenario;
use cirfix_store::{Fnv128, Store};
use cirfix_telemetry::{Event, JsonValue, Observer, TelemetrySink};

use crate::sweep::verify_patch;
use crate::LayerTimes;

/// The search seed. Part of the workload, like the scenarios: every run
/// repairs the same 32 problems along the same trajectories, so the
/// repair counts are exact and any change to them is a change in
/// behaviour, not noise.
pub const SEARCH_SEED: u64 = 42;

/// Evaluation worker threads for both search workloads.
pub const JOBS: usize = 2;

/// Trials per scenario in `table3_gp`.
pub const GP_TRIALS: u32 = 3;

/// Trials per scenario in `store_cold_warm`.
pub const STORE_TRIALS: u32 = 1;

/// One scenario and its repair problem.
pub struct SearchScenario {
    /// The Table 3 scenario.
    pub scenario: &'static Scenario,
    /// Its repair problem.
    pub problem: RepairProblem,
}

impl SearchScenario {
    /// Builds the problem (parse, and simulate the golden design for the
    /// oracle).
    ///
    /// # Panics
    ///
    /// Panics if the benchmark sources fail to build; the benchmarks
    /// crate's own tests keep them buildable.
    pub fn new(scenario: &'static Scenario) -> SearchScenario {
        SearchScenario {
            scenario,
            problem: scenario.problem().expect("benchmark problem builds"),
        }
    }
}

/// The configuration both search workloads run: `RepairConfig::fast`
/// (population 300, 8 generations, at most 6,000 evaluations a trial)
/// with a timeout far beyond any trial, so every trial stops on its
/// evaluation budget and the counts do not depend on the host's speed.
pub fn config(jobs: usize, observer: Observer) -> RepairConfig {
    RepairConfig {
        jobs,
        timeout: Duration::from_secs(3600),
        observer,
        ..RepairConfig::fast(SEARCH_SEED)
    }
}

/// What one pass over a scenario set found, summed over scenarios.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Scenarios with a plausible repair.
    pub plausible: u64,
    /// Plausible repairs that pass the held-out verification bench.
    pub correct: u64,
    /// Simulations run, including minimization.
    pub sims: u64,
    /// Simulations up to the first plausible repair, or all of them
    /// when none was found (minimization excluded).
    pub evals_to_repair: u64,
    /// Contained worker panics.
    pub panics: u64,
    /// Sessions and verification runs that returned an error.
    pub failed_calls: u64,
    /// Digest of every scenario's canonical result, in scenario order.
    pub digest: String,
    /// Failed checks and operations, one line each.
    pub errors: Vec<String>,
}

impl Tally {
    /// Operations that failed: panicked evaluations, failed sessions
    /// and verification runs.
    pub fn failed(&self) -> u64 {
        self.panics + self.failed_calls
    }

    /// Records a call that returned an error.
    fn fail(&mut self, what: String) {
        self.failed_calls += 1;
        self.errors.push(what);
    }

    fn add(&mut self, s: &SearchScenario, r: &RepairResult) {
        self.sims += r.totals.fitness_evals;
        self.panics += r.totals.panics;
        if !r.is_plausible() {
            self.evals_to_repair += r.totals.fitness_evals;
            return;
        }
        self.plausible += 1;
        self.evals_to_repair += r.totals.fitness_evals - r.minimize_evals;
        let score = evaluate(&s.problem, &r.patch, cirfix::FitnessParams::default()).score;
        if score != 1.0 {
            self.errors.push(format!(
                "{}: plausible repair re-scores {score}",
                s.scenario.id
            ));
        }
        match verify_patch(s.scenario, &s.problem, &r.patch) {
            Ok(true) => self.correct += 1,
            Ok(false) => {}
            Err(e) => self.fail(format!("{}: verify: {e}", s.scenario.id)),
        }
    }
}

fn digest(set: &[SearchScenario], results: &[Option<String>]) -> String {
    let mut h = Fnv128::new();
    for (s, r) in set.iter().zip(results) {
        h.write_str(s.scenario.id);
        h.write_str(r.as_deref().unwrap_or("error"));
    }
    h.finish().to_hex()
}

/// One `table3_gp` pass: every scenario, in `order`, through
/// `repair_with_trials`, calling `between` after each. Returns the time
/// spent inside `repair_with_trials` and the tally.
pub fn gp_pass(
    set: &[SearchScenario],
    order: &[usize],
    cfg: &RepairConfig,
    between: &mut dyn FnMut(),
) -> (Duration, Tally) {
    let mut wall = Duration::ZERO;
    let mut tally = Tally::default();
    let mut canonical = vec![None; set.len()];
    for &i in order {
        let s = &set[i];
        let t0 = Instant::now();
        let r = repair_with_trials(&s.problem, cfg, GP_TRIALS);
        wall += t0.elapsed();
        between();
        tally.add(s, &r);
        canonical[i] = Some(result_to_canonical_json(&r).to_json());
    }
    tally.digest = digest(set, &canonical);
    (wall, tally)
}

/// One `store_cold_warm` pass.
#[derive(Debug, Clone, Default)]
pub struct StorePass {
    /// Time inside the cold sessions, which simulate and write.
    pub cold_wall: Duration,
    /// Time inside the warm sessions, which read everything back.
    pub warm_wall: Duration,
    /// The cold pass's tally.
    pub tally: Tally,
    /// Simulations the warm pass ran (must be zero).
    pub warm_sims: u64,
}

/// The fields of a canonical result that describe what the search
/// found, as opposed to what it cost: a warm rerun must reproduce these
/// byte for byte while answering every candidate from the store.
const OUTCOME_FIELDS: [&str; 9] = [
    "status",
    "best_fitness_bits",
    "patch",
    "unminimized_len",
    "generations",
    "history_bits",
    "improvement_bits",
    "repaired_source",
    "trials",
];

fn outcome_json(r: &RepairResult) -> String {
    match result_to_canonical_json(r) {
        JsonValue::Object(fields) => JsonValue::Object(
            fields
                .into_iter()
                .filter(|(k, _)| OUTCOME_FIELDS.contains(&k.as_str()))
                .collect(),
        )
        .to_json(),
        other => other.to_json(),
    }
}

/// One `store_cold_warm` pass in the fresh store directory `dir`: every
/// scenario, in `order`, through `repair_session` twice: cold, then a
/// same-seed warm rerun that must answer every candidate from the
/// store and reproduce the cold result. `between` runs after each cold
/// session.
pub fn store_pass(
    set: &[SearchScenario],
    order: &[usize],
    cfg: &RepairConfig,
    dir: &Path,
    between: &mut dyn FnMut(),
) -> StorePass {
    let mut pass = StorePass::default();
    let mut cold = vec![None; set.len()];
    let mut canonical = vec![None; set.len()];
    for &i in order {
        let s = &set[i];
        let t0 = Instant::now();
        let r = repair_session(&s.problem, cfg, STORE_TRIALS, dir, false);
        pass.cold_wall += t0.elapsed();
        between();
        match r {
            Ok(r) => {
                pass.tally.add(s, &r);
                cold[i] = Some(outcome_json(&r));
                canonical[i] = Some(result_to_canonical_json(&r).to_json());
            }
            Err(e) => pass.tally.fail(format!("{}: cold: {e}", s.scenario.id)),
        }
    }
    match Store::open(dir).and_then(|store| store.verify()) {
        Ok(report) if report.is_clean() => {}
        Ok(report) => pass.tally.errors.push(format!(
            "store verify: {} corrupt, {} torn",
            report.corrupt(),
            report.torn()
        )),
        Err(e) => pass.tally.fail(format!("store verify: {e}")),
    }
    for &i in order {
        let s = &set[i];
        let t0 = Instant::now();
        let r = repair_session(&s.problem, cfg, STORE_TRIALS, dir, false);
        pass.warm_wall += t0.elapsed();
        match r {
            Ok(r) => {
                pass.warm_sims += r.totals.fitness_evals;
                pass.tally.panics += r.totals.panics;
                if cold[i].as_deref() != Some(outcome_json(&r).as_str()) {
                    pass.tally
                        .errors
                        .push(format!("{}: warm result differs from cold", s.scenario.id));
                }
            }
            Err(e) => pass.tally.fail(format!("{}: warm: {e}", s.scenario.id)),
        }
    }
    if pass.warm_sims != 0 {
        pass.tally
            .errors
            .push(format!("warm pass ran {} simulations", pass.warm_sims));
    }
    pass.tally.digest = digest(set, &canonical);
    pass
}

/// A telemetry sink that folds a traced search into layer totals: the
/// profiler's per-phase busy time, simulator events, evaluation
/// outcomes and cache hits.
#[derive(Debug, Default)]
pub struct LayerSink {
    totals: Mutex<LayerTimes>,
}

impl LayerSink {
    /// A fresh sink and an observer writing to it.
    pub fn observer() -> (Arc<LayerSink>, Observer) {
        let sink = Arc::new(LayerSink::default());
        let observer = Observer::new(sink.clone());
        (sink, observer)
    }

    /// The totals folded so far.
    pub fn totals(&self) -> LayerTimes {
        self.totals.lock().expect("layer sink lock").clone()
    }
}

impl TelemetrySink for LayerSink {
    fn record(&self, event: &Event) {
        let mut t = self.totals.lock().expect("layer sink lock");
        match event {
            Event::Phase(p) => {
                let layer = match p.name.as_str() {
                    "parse" => &mut t.apply,
                    "elaborate" => &mut t.elaborate,
                    "simulate" => &mut t.simulate,
                    "score" => &mut t.score,
                    _ => &mut t.store,
                };
                layer.nanos += p.nanos;
                layer.calls += p.count;
            }
            Event::Sim(s) => t.events += s.active_events + s.inactive_events + s.nba_flushes,
            Event::EvalOutcome(o) => {
                t.evals += 1;
                if o.kind == "elaboration" {
                    t.elab_failures += 1;
                }
            }
            Event::Candidate(c) => {
                t.candidates += 1;
                if c.cached {
                    t.cached += 1;
                }
            }
            _ => {}
        }
    }
}
