//! Cross-crate determinism check: on real benchmark scenarios, the GP
//! repair loop must produce byte-identical results for any worker
//! count. This is the acceptance test for the parallel evaluation
//! engine — `jobs` may change wall-clock time and nothing else.

use std::time::Duration;

use cirfix::{repair, RepairConfig, RepairResult};

/// Every deterministic field of a [`RepairResult`]; wall-clock
/// measurements and the resolved worker count are excluded because they
/// are the only fields allowed to vary with `jobs`.
fn fingerprint(r: &RepairResult) -> impl PartialEq + std::fmt::Debug {
    (
        format!("{:?}", r.status),
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

#[test]
fn benchmark_scenarios_are_deterministic_across_job_counts() {
    for id in ["flip_flop_cond", "counter_reset"] {
        let scenario = cirfix_benchmarks::scenario(id).expect("known scenario");
        let problem = scenario.problem().expect("scenario builds");
        let config = |jobs: usize| RepairConfig {
            jobs,
            // An effectively infinite timeout keeps the one legitimately
            // nondeterministic stop condition (wall clock) from firing;
            // the evaluation budget bounds the run instead.
            timeout: Duration::from_secs(3600),
            popn_size: 60,
            max_generations: 3,
            max_fitness_evals: 400,
            ..RepairConfig::fast(5)
        };
        let baseline = repair(&problem, config(1));
        let baseline_fp = fingerprint(&baseline);
        for jobs in [2, 8] {
            let result = repair(&problem, config(jobs));
            assert_eq!(
                baseline_fp,
                fingerprint(&result),
                "{id}: jobs=1 and jobs={jobs} must produce identical results"
            );
            assert_eq!(result.totals.jobs, jobs as u32);
        }
        assert_eq!(baseline.totals.jobs, 1);
    }
}
