//! Throughput benchmark for the parallel fitness-evaluation engine, in
//! two scans:
//!
//! * `speedup` — evaluates the 2,100 distinct single-edit candidates of
//!   the five `tate_pairing` and `reed_solomon_decoder` scenarios (the
//!   benchmark ledger's `sweep_sim_bound` set) through `evaluate_many`
//!   with 1, 2 and 4 worker threads, the fastest of five interleaved
//!   rounds each, and reports evaluations/second and speedup over one
//!   worker. There is no coordinator here: it measures the worker pool
//!   alone. A pass takes about a second at one worker and half that at
//!   two, so thread start-up and scheduling noise do not decide the
//!   ratio.
//! * `speedup_gp` — runs the GP loop (`repair_with_trials`, the call
//!   the ledger's `table3_gp` workload times: `RepairConfig::fast(42)`,
//!   one trial, no wall-clock limit) on a fixed scenario set with 1, 2
//!   and 4 workers, the fastest of five interleaved rounds each.
//!   Selection, fault localization and merging run on the
//!   coordinating thread, which runs queued work only while it waits,
//!   so the jobs-2 speedup `S` bounds the serial fraction of the loop
//!   by Amdahl's law: `2/S - 1`, written as `serial_fraction` on the
//!   jobs-2 record. The bound charges every parallel inefficiency to
//!   the serial fraction, so it also rises when the one-worker pass
//!   gets cheaper.
//!
//! Both scans assert that their results are identical for every worker
//! count. Emits JSON lines (one record per scan and worker count) to
//! stdout and to `BENCH_speedup.json` (override the path with
//! `CIRFIX_BENCH_OUT`). Every counted evaluation is a distinct patch,
//! hence a real simulation. The record includes `host_cores`; below two
//! cores the workers time-slice one CPU, so `speedup` is written as
//! `null` rather than as a ratio that only measures scheduling noise.

use std::time::{Duration, Instant};

use cirfix::{evaluate_many, repair_with_trials, FitnessParams, RepairConfig};
use cirfix_bench::{fixed, unique_single_edits, write_records};
use cirfix_benchmarks::{scenario, scenarios};
use cirfix_telemetry::JsonValue;

/// Timed rounds per scan; each worker count keeps its fastest pass.
const ROUNDS: usize = 5;
/// The worker counts both scans time, interleaved within each round so
/// host drift spreads over every count alike.
const JOBS: [usize; 3] = [1, 2, 4];

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records = pool_scan(host_cores);
    records.extend(gp_scan(host_cores));
    write_records("speedup", "BENCH_speedup.json", &records);
}

/// The pool scan's projects: their five scenarios are the benchmark
/// ledger's simulation-bound sweep.
const POOL_PROJECTS: [&str; 2] = ["tate_pairing", "reed_solomon_decoder"];

/// Distinct single edits of the [`POOL_PROJECTS`] scenarios.
const POOL_EVALS: usize = 2_100;

/// Timed `evaluate_many` passes over every distinct single edit of the
/// [`POOL_PROJECTS`] scenarios.
fn pool_scan(host_cores: usize) -> Vec<JsonValue> {
    let work: Vec<_> = scenarios()
        .iter()
        .filter(|s| POOL_PROJECTS.contains(&s.project))
        .map(|s| {
            let problem = s.problem().expect("problem builds");
            let patches = unique_single_edits(&problem);
            (problem, patches)
        })
        .collect();
    let evals: usize = work.iter().map(|(_, patches)| patches.len()).sum();
    assert_eq!(evals, POOL_EVALS, "speedup workload drifted");
    let params = FitnessParams::default();
    let mut reference: Option<Vec<u64>> = None;
    let mut walls = [f64::INFINITY; JOBS.len()];
    for _ in 0..ROUNDS {
        for (slot, &jobs) in JOBS.iter().enumerate() {
            let t0 = Instant::now();
            let results: Vec<_> = work
                .iter()
                .map(|(problem, patches)| evaluate_many(problem, patches, params, jobs))
                .collect();
            walls[slot] = walls[slot].min(t0.elapsed().as_secs_f64());
            let scores: Vec<u64> = results
                .iter()
                .flatten()
                .map(|e| e.score.to_bits())
                .collect();
            let expected = reference.get_or_insert_with(|| scores.clone());
            assert_eq!(*expected, scores, "the scores depend on the worker count");
        }
    }
    JOBS.iter()
        .zip(walls)
        .map(|(&jobs, wall)| {
            let speedup = if host_cores < 2 {
                JsonValue::Null
            } else {
                fixed(walls[0] / wall, 3)
            };
            JsonValue::obj(vec![
                ("bench", JsonValue::Str("speedup".into())),
                ("jobs", JsonValue::Uint(jobs as u64)),
                ("scenarios", JsonValue::Uint(work.len() as u64)),
                ("evals", JsonValue::Uint(evals as u64)),
                ("wall_s", fixed(wall, 4)),
                ("evals_per_s", fixed(evals as f64 / wall, 2)),
                ("speedup", speedup),
                ("host_cores", JsonValue::Uint(host_cores as u64)),
            ])
        })
        .collect()
}

/// The GP-loop scan's scenarios: four Table 3 defects no trial repairs,
/// from four projects, so each search runs its whole evaluation budget
/// and the pass does a fixed amount of work.
const GP_SCENARIOS: [&str; 4] = [
    "decoder_wrong_assign",
    "mux_width",
    "sha3_negation",
    "sdram_case",
];

/// Timed GP passes over [`GP_SCENARIOS`]: rounds of one pass per
/// worker count, keeping each count's fastest pass, so host drift
/// spreads over every count alike. The results must be identical for
/// every count.
fn gp_scan(host_cores: usize) -> Vec<JsonValue> {
    let problems: Vec<_> = GP_SCENARIOS
        .iter()
        .map(|id| {
            let s = scenario(id).expect("scenario");
            s.problem().expect("problem builds")
        })
        .collect();
    let mut reference: Option<Vec<(bool, u64, u64)>> = None;
    let mut walls = [f64::INFINITY; JOBS.len()];
    let mut sims = 0u64;
    for _ in 0..ROUNDS {
        for (slot, &jobs) in JOBS.iter().enumerate() {
            let config = RepairConfig {
                jobs,
                timeout: Duration::from_secs(3600),
                ..RepairConfig::fast(42)
            };
            let t0 = Instant::now();
            let results: Vec<_> = problems
                .iter()
                .map(|p| repair_with_trials(p, &config, 1))
                .collect();
            walls[slot] = walls[slot].min(t0.elapsed().as_secs_f64());
            let outcome: Vec<(bool, u64, u64)> = results
                .iter()
                .map(|r| (r.is_plausible(), r.fitness_evals, r.best_fitness.to_bits()))
                .collect();
            let expected = reference.get_or_insert_with(|| outcome.clone());
            assert_eq!(
                *expected, outcome,
                "the GP result depends on the worker count"
            );
            sims = results.iter().map(|r| r.fitness_evals).sum();
        }
    }
    JOBS.iter()
        .zip(walls)
        .map(|(&jobs, wall)| {
            let speedup = walls[0] / wall;
            let (speedup, serial_fraction) = if host_cores < 2 {
                (JsonValue::Null, JsonValue::Null)
            } else if jobs == 2 {
                (fixed(speedup, 3), fixed(2.0 / speedup - 1.0, 3))
            } else {
                (fixed(speedup, 3), JsonValue::Null)
            };
            JsonValue::obj(vec![
                ("bench", JsonValue::Str("speedup_gp".into())),
                ("jobs", JsonValue::Uint(jobs as u64)),
                ("scenarios", JsonValue::Uint(GP_SCENARIOS.len() as u64)),
                ("sims", JsonValue::Uint(sims)),
                ("wall_s", fixed(wall, 3)),
                ("sims_per_s", fixed(sims as f64 / wall, 1)),
                ("speedup", speedup),
                ("serial_fraction", serial_fraction),
                ("host_cores", JsonValue::Uint(host_cores as u64)),
            ])
        })
        .collect()
}
