//! Tests for the parallel fitness-evaluation engine: determinism across
//! worker counts, strict budget enforcement, and zero-AST-work cache
//! hits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cirfix::{
    brute_force_repair, evaluate, evaluate_many, oracle_from_golden, repair, BruteConfig,
    Evaluation, FitnessParams, Observer, Patch, RepairConfig, RepairProblem, RepairResult,
    Repairer,
};
use cirfix_parser::parse;
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_telemetry::{Event, TelemetrySink};

const GOLDEN: &str = r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (r) q <= 0;
        else q <= q + 1;
endmodule
"#;

const FAULTY_NEGATED: &str = r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (!r) q <= 0;
        else q <= q + 1;
endmodule
"#;

const TB: &str = r#"
module tb;
    reg c, r;
    wire [1:0] q;
    cnt dut (c, r, q);
    initial begin c = 0; r = 1; #12 r = 0; end
    always #5 c = !c;
    initial #120 $finish;
endmodule
"#;

fn problem_for(faulty: &str) -> RepairProblem {
    let probe = ProbeSpec::periodic(vec!["q".into()], 5, 10);
    let sim = SimConfig {
        max_time: 200,
        max_total_ops: 100_000,
        max_deltas: 1000,
        ..SimConfig::default()
    };
    let mut golden = parse(GOLDEN).unwrap();
    golden.extend_from(parse(TB).unwrap());
    let oracle = oracle_from_golden(&golden, "tb", &probe, &sim).unwrap();
    let mut source = parse(faulty).unwrap();
    source.extend_from(parse(TB).unwrap());
    RepairProblem {
        source,
        top: "tb".into(),
        design_modules: vec!["cnt".into()],
        probe,
        oracle,
        sim,
    }
}

/// Every deterministic field of a [`RepairResult`] — everything except
/// wall-clock measurements and the resolved worker count, which are the
/// only things allowed to vary with `jobs`.
fn fingerprint(r: &RepairResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.is_plausible(),
        r.best_fitness.to_bits(),
        format!("{:?}", r.patch),
        r.unminimized_len,
        r.generations,
        r.fitness_evals,
        r.history.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        r.improvement_steps
            .iter()
            .map(|f| f.to_bits())
            .collect::<Vec<_>>(),
        r.repaired_source.clone(),
        r.cache_hits,
        r.minimize_evals,
    )
}

/// A deterministic base config: the timeout is effectively infinite so
/// wall-clock cancellation (the one legitimately nondeterministic stop
/// condition) never fires; the evaluation budget bounds the run instead.
fn config(seed: u64, jobs: usize) -> RepairConfig {
    RepairConfig {
        jobs,
        timeout: Duration::from_secs(3600),
        max_fitness_evals: 2_000,
        ..RepairConfig::fast(seed)
    }
}

#[test]
fn repair_is_deterministic_across_job_counts() {
    let problem = problem_for(FAULTY_NEGATED);
    for seed in [1, 7] {
        let baseline = fingerprint(&repair(&problem, config(seed, 1)));
        for jobs in [2, 8] {
            let result = repair(&problem, config(seed, jobs));
            assert_eq!(
                baseline,
                fingerprint(&result),
                "seed {seed}: jobs=1 and jobs={jobs} must produce identical results"
            );
        }
    }
}

#[test]
fn brute_force_is_deterministic_across_job_counts() {
    let problem = problem_for(FAULTY_NEGATED);
    let config = |jobs: usize| BruteConfig {
        jobs,
        max_evals: 200,
        timeout: Duration::from_secs(3600),
        ..BruteConfig::default()
    };
    let baseline = fingerprint(&brute_force_repair(&problem, config(1)));
    for jobs in [2, 8] {
        let result = brute_force_repair(&problem, config(jobs));
        assert_eq!(
            baseline,
            fingerprint(&result),
            "brute force: jobs=1 and jobs={jobs} must produce identical results"
        );
    }
}

#[test]
fn eval_budget_is_never_exceeded_even_mid_batch() {
    // Probing a nonexistent signal makes every candidate score 0, so
    // the search burns its whole budget without ever finding a repair
    // (and without entering minimization). Budget slots are reserved at
    // dispatch, so not even an in-flight batch can overshoot.
    let mut problem = problem_for(FAULTY_NEGATED);
    problem.probe = ProbeSpec::periodic(vec!["nonexistent".into()], 5, 10);
    for jobs in [1, 8] {
        let mut c = config(11, jobs);
        c.max_fitness_evals = 7;
        let result = repair(&problem, c);
        assert!(!result.is_plausible());
        assert_eq!(result.minimize_evals, 0);
        assert!(
            result.fitness_evals <= 7,
            "jobs={jobs}: {} evals exceed the budget of 7",
            result.fitness_evals
        );
    }
}

/// Counts simulation telemetry events — a direct observable for "did
/// any simulation actually run".
#[derive(Default)]
struct SimCounter(AtomicU64);

impl TelemetrySink for SimCounter {
    fn record(&self, event: &Event) {
        if matches!(event, Event::Sim(_)) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn cache_hits_do_zero_ast_work_and_zero_simulation() {
    let problem = problem_for(FAULTY_NEGATED);
    let sims = Arc::new(SimCounter::default());
    let mut c = config(1, 2);
    c.observer = Observer::new(sims.clone());
    let mut repairer = Repairer::new(&problem, c);

    let patch = Patch::empty();
    let first = repairer.evaluate_patch(&patch);
    assert_eq!(repairer.fitness_evals(), 1);
    assert_eq!(repairer.cache_hits(), 0);
    let applies_before = repairer.patch_applies();
    let sims_before = sims.0.load(Ordering::Relaxed);
    assert!(applies_before >= 1);
    assert_eq!(sims_before, 1);

    let second = repairer.evaluate_patch(&patch);
    assert_eq!(second.score.to_bits(), first.score.to_bits());
    assert_eq!(repairer.cache_hits(), 1, "second lookup is a cache hit");
    assert_eq!(repairer.fitness_evals(), 1, "no new fitness evaluation");
    assert_eq!(
        repairer.patch_applies(),
        applies_before,
        "a cache hit must do zero AST work"
    );
    assert_eq!(
        sims.0.load(Ordering::Relaxed),
        sims_before,
        "a cache hit must run zero simulations"
    );
}

#[test]
fn evaluate_many_matches_serial_evaluation() {
    let problem = problem_for(FAULTY_NEGATED);
    let params = FitnessParams::default();
    // The original design plus a few distinct single-edit patches over
    // the design's statements.
    let mut patches = vec![Patch::empty()];
    patches.extend(
        cirfix::all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .take(6)
            .map(|target| Patch::single(cirfix::Edit::DeleteStmt { target })),
    );
    assert!(patches.len() > 1);
    let summarize = |e: &Evaluation| (e.score.to_bits(), e.compiled, e.outcome);
    let serial: Vec<_> = patches
        .iter()
        .map(|p| summarize(&evaluate(&problem, p, params)))
        .collect();
    for jobs in [1, 4] {
        let parallel: Vec<_> = evaluate_many(&problem, &patches, params, jobs)
            .iter()
            .map(summarize)
            .collect();
        assert_eq!(serial, parallel, "jobs={jobs} must match serial order");
    }
}

#[test]
fn minimize_reuses_the_search_cache() {
    // A plausible repair whose minimization probes patches the search
    // already scored: the trial cache must answer them without new
    // simulations. Observable as cache_hits > 0 on a successful run
    // with a multi-edit winning patch, and fitness_evals staying within
    // budget + minimization misses.
    let problem = problem_for(FAULTY_NEGATED);
    let result = repair(&problem, config(1, 2));
    assert!(result.is_plausible());
    // The empty-patch probe of ddmin (and any re-probed subsets) are
    // cache hits: the original design was scored before the search.
    if result.unminimized_len > 1 {
        assert!(
            result.cache_hits > 0,
            "minimization of a multi-edit patch must consult the cache"
        );
    }
}
