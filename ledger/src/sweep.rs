//! The two sweeps: every unique single-edit candidate of a scenario set
//! pushed through `evaluate_many`, and, when traced, through the same
//! pipeline one public call at a time so each layer is timed from
//! outside.

use std::time::{Duration, Instant};

use cirfix::{
    all_stmt_ids, applicable_templates, apply_patch, evaluate_many, fitness, verify_repair, Edit,
    EvalOutcome, Evaluation, FaultLoc, FitnessParams, Patch, RepairProblem,
};
use cirfix_benchmarks::{project, Scenario};
use cirfix_sim::{elaborate, Simulator};
use cirfix_store::Fnv128;

use crate::{permutation, Layer, LayerTimes};

/// One scenario of a sweep: its problem and its candidates.
pub struct SweepScenario {
    /// The Table 3 scenario.
    pub scenario: &'static Scenario,
    /// Its repair problem.
    pub problem: RepairProblem,
    /// Unique single-edit candidates, in enumeration order.
    pub candidates: Vec<Patch>,
    /// The order the candidates are submitted in: a seeded permutation
    /// of `0..candidates.len()`.
    pub order: Vec<usize>,
}

impl SweepScenario {
    /// Builds the problem and enumerates its candidates.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark sources fail to build; the benchmarks
    /// crate's own tests keep them buildable.
    pub fn new(scenario: &'static Scenario, seed: u64) -> SweepScenario {
        let problem = scenario.problem().expect("benchmark problem builds");
        let candidates = single_edits(&problem);
        let order = permutation(candidates.len(), seed);
        SweepScenario {
            scenario,
            problem,
            candidates,
            order,
        }
    }

    fn submitted(&self) -> Vec<Patch> {
        self.order
            .iter()
            .map(|&i| self.candidates[i].clone())
            .collect()
    }
}

/// Every unique single edit of the design modules: each applicable
/// Table 1 template instance over the whole design (empty fault
/// localization) and each statement deletion, duplicates dropped.
pub fn single_edits(problem: &RepairProblem) -> Vec<Patch> {
    let mut edits: Vec<Edit> = applicable_templates(
        &problem.source,
        &problem.design_modules,
        &FaultLoc::default(),
    );
    edits.extend(
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .map(|target| Edit::DeleteStmt { target }),
    );
    let mut seen = std::collections::HashSet::new();
    edits
        .into_iter()
        .filter(|e| seen.insert(e.clone()))
        .map(Patch::single)
        .collect()
}

/// One sweep pass's scores, per scenario, in enumeration order.
pub type Scores = Vec<Vec<Evaluation>>;

/// One untraced pass: each scenario's candidates through
/// `evaluate_many` at one job. Returns the wall time and the results in
/// enumeration order.
pub fn pass(set: &[SweepScenario]) -> (Duration, Scores) {
    let params = FitnessParams::default();
    let t0 = Instant::now();
    let submitted: Vec<Vec<Evaluation>> = set
        .iter()
        .map(|s| evaluate_many(&s.problem, &s.submitted(), params, 1))
        .collect();
    let wall = t0.elapsed();
    let scores = set
        .iter()
        .zip(submitted)
        .map(|(s, evals)| unpermute(&s.order, evals))
        .collect();
    (wall, scores)
}

fn unpermute<T>(order: &[usize], items: Vec<T>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    for (&i, item) in order.iter().zip(items) {
        slots[i] = Some(item);
    }
    slots
        .into_iter()
        .map(|s| s.expect("order is a permutation"))
        .collect()
}

/// A digest of every candidate's outcome: scenario, score bits and
/// outcome class, in enumeration order. Equal digests mean bit-equal
/// scores.
pub fn digest(set: &[SweepScenario], scores: &[Vec<(u64, EvalOutcome)>]) -> String {
    let mut h = Fnv128::new();
    for (s, row) in set.iter().zip(scores) {
        h.write_str(s.scenario.id);
        for (bits, outcome) in row {
            h.write_u64(*bits);
            h.write_str(outcome.as_str());
        }
    }
    h.finish().to_hex()
}

/// Score bits and outcome of each result, the part the digest covers.
pub fn keyed(scores: &Scores) -> Vec<Vec<(u64, EvalOutcome)>> {
    scores
        .iter()
        .map(|row| row.iter().map(|e| (e.score.to_bits(), e.outcome)).collect())
        .collect()
}

/// What brute force over single edits achieves on each scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairTally {
    /// Scenarios with at least one plausible candidate.
    pub plausible: u64,
    /// Of those, scenarios whose first plausible candidate passes the
    /// held-out verification bench.
    pub correct: u64,
    /// Candidates evaluated, in enumeration order, up to and including
    /// the first plausible one (all of them when none is).
    pub evals_to_repair: u64,
    /// Verification runs that errored.
    pub verify_errors: u64,
}

/// Tallies repairs from one pass's results.
pub fn tally(set: &[SweepScenario], scores: &Scores) -> RepairTally {
    let mut t = RepairTally::default();
    for (s, row) in set.iter().zip(scores) {
        match row.iter().position(|e| e.score >= 1.0) {
            Some(i) => {
                t.plausible += 1;
                t.evals_to_repair += i as u64 + 1;
                match verify_patch(s.scenario, &s.problem, &s.candidates[i]) {
                    Ok(true) => t.correct += 1,
                    Ok(false) => {}
                    Err(_) => t.verify_errors += 1,
                }
            }
            None => t.evals_to_repair += row.len() as u64,
        }
    }
    t
}

/// Runs the held-out verification bench of `scenario`'s project on
/// `patch` applied to `problem`.
pub fn verify_patch(
    scenario: &Scenario,
    problem: &RepairProblem,
    patch: &Patch,
) -> Result<bool, String> {
    let p = project(scenario.project).ok_or("unknown project")?;
    let (repaired, _) = apply_patch(&problem.source, &problem.design_modules, patch);
    let golden = p.golden_design().map_err(|e| e.to_string())?;
    let verification = p.verification().map_err(|e| e.to_string())?;
    verify_repair(&repaired, &problem.design_modules, &golden, &verification)
        .map_err(|e| e.to_string())
}

/// One traced pass: every candidate decomposed into its layers. Each
/// scenario runs on a fresh thread, as `evaluate_many` does, so the
/// simulator's thread-local compile cache starts cold for each.
/// Returns the pass wall, the summed layer times, and each candidate's
/// score bits and outcome in enumeration order.
pub fn traced_pass(set: &[SweepScenario]) -> (Duration, LayerTimes, Vec<Vec<(u64, EvalOutcome)>>) {
    let params = FitnessParams::default();
    let mut layers = LayerTimes::default();
    let t0 = Instant::now();
    let mut keyed = Vec::with_capacity(set.len());
    for s in set {
        let (row, l) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut l = LayerTimes::default();
                    let row: Vec<(u64, EvalOutcome)> = s
                        .order
                        .iter()
                        .map(|&i| decompose(&s.problem, &s.candidates[i], params, &mut l))
                        .collect();
                    (row, l)
                })
                .join()
                .expect("traced sweep thread")
        });
        layers.add(&l);
        keyed.push(unpermute(&s.order, row));
    }
    (t0.elapsed(), layers, keyed)
}

/// Evaluates one candidate through the public calls `evaluate` makes,
/// timing each: patch apply (with the two AST size counts `evaluate`
/// takes for bloat control), elaborate and compile (`elaborate` +
/// `Simulator::from_design`), simulate, score. Freeing what a layer
/// built counts towards that layer. Returns the score bits and the
/// outcome, which must equal `evaluate`'s.
pub fn decompose(
    problem: &RepairProblem,
    patch: &Patch,
    params: FitnessParams,
    l: &mut LayerTimes,
) -> (u64, EvalOutcome) {
    l.candidates += 1;
    l.evals += 1;
    let t = Instant::now();
    let (variant, _) = apply_patch(&problem.source, &problem.design_modules, patch);
    std::hint::black_box(node_count(&variant) as f64 / node_count(&problem.source).max(1) as f64);
    l.apply.add(t.elapsed());

    let t = Instant::now();
    let design = match elaborate(&variant, &problem.top) {
        Ok(d) => d,
        Err(e) => {
            l.elaborate.add(t.elapsed());
            l.elab_failures += 1;
            free(variant, &mut l.apply);
            return (0f64.to_bits(), EvalOutcome::from_sim_error(&e));
        }
    };
    let mut sim = Simulator::from_design(design, problem.sim.clone());
    l.elaborate.add(t.elapsed());

    let t = Instant::now();
    let probe = sim.add_probe(&problem.probe);
    let result = probe.and_then(|idx| sim.run().map(|outcome| (idx, outcome)));
    let (idx, outcome) = match result {
        Ok(r) => r,
        Err(e) => {
            drop(sim);
            l.simulate.add(t.elapsed());
            if e.is_compile_failure() {
                l.elab_failures += 1;
            }
            free(variant, &mut l.apply);
            return (0f64.to_bits(), EvalOutcome::from_sim_error(&e));
        }
    };
    let trace = sim.take_probe_trace(idx);
    drop(sim);
    l.simulate.add(t.elapsed());
    let m = &outcome.metrics;
    l.events += m.active_events + m.inactive_events + m.nba_flushes;

    let t = Instant::now();
    let score = fitness(&trace, &problem.oracle, params).score;
    drop(trace);
    l.score.add(t.elapsed());
    free(variant, &mut l.apply);
    (score.to_bits(), EvalOutcome::Ok)
}

fn node_count(file: &cirfix_ast::SourceFile) -> usize {
    let mut n = 0;
    cirfix_ast::visit::walk_source(file, &mut |_| n += 1);
    n
}

/// Drops `x`, charging the time to `layer`.
fn free<T>(x: T, layer: &mut Layer) {
    let t = Instant::now();
    drop(x);
    layer.nanos += t.elapsed().as_nanos() as u64;
}
