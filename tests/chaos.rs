//! Chaos tests: deterministic fault injection against the evaluation
//! pipeline.
//!
//! The contract under test is fault *containment*: a candidate that
//! panics, hangs, or fails its simulation is classified and scored
//! worst-fitness — the run never aborts, no worker is poisoned, and
//! wherever the engine promises bit-determinism the promise survives
//! the injected faults. Store-write failures are retried with backoff;
//! transient ones are invisible in the results, persistent ones degrade
//! the cache to memory-only and the search completes anyway.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cirfix::{
    repair_session, repair_with_trials, result_to_canonical_json, EvalOutcome, FaultInjector,
    FaultPlan, Observer, Patch, RepairConfig, Repairer,
};
use cirfix_telemetry::{Event, TelemetrySink};

fn scenario_problem() -> cirfix::RepairProblem {
    cirfix_benchmarks::scenario("flip_flop_cond")
        .expect("known scenario")
        .problem()
        .expect("scenario builds")
}

/// A chaos-run configuration: the wall clock pushed out of reach (a
/// trial stops on a repair or at the generation cap, 60 + 3 × 60
/// children inside its 400 evaluations), a per-candidate budget so
/// hangs resolve, and a fresh injector for `plan`.
fn config(jobs: usize, plan: &str) -> RepairConfig {
    let plan = FaultPlan::parse(plan).expect("valid fault plan");
    RepairConfig {
        jobs,
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        eval_timeout: Some(Duration::from_millis(300)),
        faults: (!plan.is_empty()).then(|| FaultInjector::new(plan)),
        ..RepairConfig::fast(5)
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Collects the `kind` of every `eval_outcome` event.
#[derive(Default)]
struct OutcomeSink(Mutex<Vec<String>>);

impl TelemetrySink for OutcomeSink {
    fn record(&self, event: &Event) {
        if let Event::EvalOutcome(o) = event {
            self.0.lock().expect("sink poisoned").push(o.kind.clone());
        }
    }
}

/// Counts `store` events with op `"degraded"`.
#[derive(Default)]
struct DegradedSink(AtomicU64);

impl TelemetrySink for DegradedSink {
    fn record(&self, event: &Event) {
        if let Event::Store(st) = event {
            if st.op == "degraded" {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Panicking, hanging, and sim-failing candidates are all contained —
/// and because fault ordinals are claimed at dispatch on the
/// coordinating thread, the whole injected run stays bit-identical for
/// any worker count.
#[test]
fn injected_faults_are_contained_and_bit_identical_across_worker_counts() {
    let problem = scenario_problem();
    const PLAN: &str = "panic@2,hang@4,simerr@6";

    let mut canonical = Vec::new();
    for jobs in [1usize, 4] {
        let result = repair_with_trials(&problem, &config(jobs, PLAN), 2);
        assert!(
            result.totals.panics >= 1,
            "jobs={jobs}: the injected panic must be contained and counted"
        );
        assert!(
            result.totals.timeouts >= 1,
            "jobs={jobs}: the injected hang must be cancelled and counted"
        );
        canonical.push(result_to_canonical_json(&result).to_json());
    }
    assert_eq!(
        canonical[0], canonical[1],
        "an injected run must stay byte-identical across worker counts"
    );
}

/// Each fault kind lands in its own outcome class, is visible in the
/// telemetry stream, and bumps exactly its own run-total counter.
#[test]
fn each_fault_kind_is_classified_and_counted() {
    let problem = scenario_problem();
    let cases = [
        ("panic@1", "panicked"),
        ("hang@1", "timeout"),
        ("simerr@1", "runtime"),
    ];
    for (plan, expected) in cases {
        let sink = Arc::new(OutcomeSink::default());
        let mut rc = config(1, plan);
        rc.observer = Observer::new(sink.clone());
        let result = repair_with_trials(&problem, &rc, 1);
        let kinds = sink.0.lock().expect("sink poisoned").clone();
        assert!(
            kinds.iter().any(|k| k == expected),
            "plan {plan}: expected an `{expected}` outcome event, got {kinds:?}"
        );
        assert_eq!(
            result.totals.panics,
            u64::from(expected == "panicked"),
            "plan {plan}: panic counter"
        );
        assert_eq!(
            result.totals.timeouts,
            u64::from(expected == "timeout"),
            "plan {plan}: timeout counter"
        );
    }
}

/// A hanging candidate is cancelled cooperatively: the synchronous
/// evaluation path returns a worst-fitness `timeout` classification
/// within twice the per-candidate budget.
#[test]
fn hanging_candidate_is_cancelled_within_twice_its_budget() {
    let problem = scenario_problem();
    let budget = Duration::from_millis(300);
    let mut rc = config(1, "hang@0");
    rc.eval_timeout = Some(budget);
    let mut repairer = Repairer::new(&problem, rc);

    let started = Instant::now();
    let eval = repairer.evaluate_patch(&Patch::empty());
    let elapsed = started.elapsed();

    assert_eq!(eval.outcome, EvalOutcome::Timeout);
    assert_eq!(eval.score.to_bits(), 0f64.to_bits(), "worst fitness");
    assert!(
        elapsed < budget * 2,
        "hang must be cancelled within 2x its budget, took {elapsed:?}"
    );
}

/// Under the batch path, a hang stalls neither worker count: the run
/// completes, counts exactly one timeout, and both runs agree.
#[test]
fn batch_hang_is_contained_for_every_worker_count() {
    let problem = scenario_problem();
    for jobs in [1usize, 4] {
        let mut rc = config(jobs, "hang@3");
        rc.popn_size = 8;
        rc.max_generations = 1;
        rc.max_fitness_evals = 12;
        let started = Instant::now();
        let result = repair_with_trials(&problem, &rc, 1);
        let elapsed = started.elapsed();
        assert_eq!(
            result.totals.timeouts, 1,
            "jobs={jobs}: exactly the injected hang times out"
        );
        // One 300 ms budget plus generous slack for the real (fast)
        // simulations around it — nowhere near a stall.
        assert!(
            elapsed < Duration::from_secs(2),
            "jobs={jobs}: run must not stall on the hang, took {elapsed:?}"
        );
    }
}

/// Fault ordinals count the children built on the pool, and in the
/// batch where the evaluation budget runs out the children past the cut
/// are built and simulated, then dropped unmerged. A fault on such a
/// child leaves no trace: at 20 evaluations, ordinal 25 lands past the
/// cut, so its panic is contained, never counted, and the run equals
/// the clean one byte for byte. Ordinal 10 lands inside the budget and
/// is counted once.
#[test]
fn a_fault_on_a_child_the_budget_drops_leaves_no_trace() {
    let problem = cirfix_benchmarks::scenario("mux_width")
        .expect("known scenario")
        .problem()
        .expect("scenario builds");
    for jobs in [1usize, 4] {
        let run = |plan: &str| {
            let rc = RepairConfig {
                max_fitness_evals: 20,
                ..config(jobs, plan)
            };
            (repair_with_trials(&problem, &rc, 1), rc.faults)
        };
        let (clean, _) = run("");
        let (dropped, faults) = run("panic@25");
        let faults = faults.expect("a fault plan");
        // Had the run left ordinal 25 unclaimed, one of the next 26
        // claims would draw its panic.
        assert!(
            (0..=25).all(|_| faults.next_eval_fault().is_none()),
            "jobs={jobs}: ordinal 25 must have gone to a child"
        );
        assert_eq!(
            dropped.totals.panics, 0,
            "jobs={jobs}: a dropped child's panic is never counted"
        );
        assert_eq!(
            result_to_canonical_json(&clean).to_json(),
            result_to_canonical_json(&dropped).to_json(),
            "jobs={jobs}: a fault on a dropped child must leave no trace"
        );
        let (counted, _) = run("panic@10");
        assert_eq!(
            counted.totals.panics, 1,
            "jobs={jobs}: a fault inside the budget is counted once"
        );
    }
}

/// Transient store-write failures are absorbed by the retry/backoff
/// path: the run's canonical result is byte-identical to an uninjected
/// run, durability included (`store_writes` match because every retried
/// write eventually lands).
#[test]
fn transient_store_faults_leave_results_byte_identical() {
    let problem = scenario_problem();

    let clean_dir = fresh_dir("clean");
    let clean = repair_session(&problem, &config(1, ""), 2, &clean_dir, false)
        .expect("uninjected session runs");

    let faulty_dir = fresh_dir("transient");
    let injected = repair_session(
        &problem,
        &config(1, "storefail@0,storefail@2,transient"),
        2,
        &faulty_dir,
        false,
    )
    .expect("injected session runs");

    assert_eq!(
        result_to_canonical_json(&clean).to_json(),
        result_to_canonical_json(&injected).to_json(),
        "transient store faults must be invisible in the canonical result"
    );

    let _ = std::fs::remove_dir_all(clean_dir);
    let _ = std::fs::remove_dir_all(faulty_dir);
}

/// A store write that fails every retry degrades the cache to
/// memory-only — reported once via telemetry — and the search completes
/// with the same repair as an uninjected run; only durability is lost.
#[test]
fn persistent_store_failure_degrades_to_memory_and_completes() {
    let problem = scenario_problem();

    let clean_dir = fresh_dir("clean-hard");
    let clean = repair_session(&problem, &config(1, ""), 2, &clean_dir, false)
        .expect("uninjected session runs");

    let degraded = Arc::new(DegradedSink::default());
    let faulty_dir = fresh_dir("hard");
    let mut rc = config(1, "storefail@1");
    rc.observer = Observer::new(degraded.clone());
    let injected =
        repair_session(&problem, &rc, 2, &faulty_dir, false).expect("degraded session completes");

    assert_eq!(
        degraded.0.load(Ordering::Relaxed),
        1,
        "degradation must be reported exactly once"
    );
    assert_eq!(injected.patch, clean.patch, "same repair either way");
    assert_eq!(
        injected.best_fitness.to_bits(),
        clean.best_fitness.to_bits()
    );
    assert_eq!(injected.fitness_evals, clean.fitness_evals);
    assert!(
        injected.totals.store_writes < clean.totals.store_writes,
        "a degraded run persists fewer records than a healthy one"
    );

    let _ = std::fs::remove_dir_all(clean_dir);
    let _ = std::fs::remove_dir_all(faulty_dir);
}
