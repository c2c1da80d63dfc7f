//! Throughput benchmark for the parallel fitness-evaluation engine, in
//! two scans:
//!
//! * `speedup` — evaluates the distinct single-edit candidates of
//!   `counter_reset` through `evaluate_many` with 1, 2, 4, and 8
//!   worker threads and reports evaluations/second and speedup over the
//!   serial baseline. There is no coordinator here: it measures the
//!   worker pool alone.
//! * `speedup_gp` — runs the GP loop (`repair_with_trials`, the call
//!   the ledger's `table3_gp` workload times: `RepairConfig::fast(42)`,
//!   one trial, no wall-clock limit) on a fixed scenario set with 1, 2
//!   and 4 workers, the fastest of five interleaved rounds each.
//!   Selection, fault localization, patch application,
//!   fingerprinting and merging run on the coordinating thread while
//!   the workers wait, so the jobs-2 speedup `S` bounds the serial
//!   fraction of the loop by Amdahl's law: `2/S - 1`, written as
//!   `serial_fraction` on the jobs-2 record.
//!
//! Emits JSON lines (one record per scan and worker count) to stdout
//! and to `BENCH_speedup.json` (override the path with
//! `CIRFIX_BENCH_OUT`). Every counted evaluation is a distinct patch,
//! hence a real simulation. The record includes `host_cores`; below two
//! cores the workers time-slice one CPU, so `speedup` is written as
//! `null` rather than as a ratio that only measures scheduling noise.

use std::time::{Duration, Instant};

use cirfix::{evaluate_many, repair_with_trials, FitnessParams, RepairConfig};
use cirfix_bench::{fixed, unique_single_edits, write_records, COUNTER_RESET_SINGLE_EDITS};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::JsonValue;

fn main() {
    let s = scenario("counter_reset").expect("scenario");
    let problem = s.problem().expect("problem builds");

    // The workload: every distinct systematic single edit of the design
    // (the same enumeration the brute-force baseline starts with).
    let patches = unique_single_edits(&problem);
    assert_eq!(
        patches.len(),
        COUNTER_RESET_SINGLE_EDITS,
        "speedup workload drifted"
    );
    let params = FitnessParams::default();

    // Warm-up: fault in the page cache and code paths before timing.
    let warm = evaluate_many(&problem, &patches, params, 1);
    assert_eq!(warm.len(), patches.len());

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records: Vec<JsonValue> = Vec::new();
    let mut serial_rate = 0.0f64;
    // One pass is a few milliseconds: keep the fastest of several so a
    // single scheduling stall does not decide the figure.
    const PASSES: usize = 5;
    for jobs in [1usize, 2, 4, 8] {
        let mut wall = f64::INFINITY;
        for _ in 0..PASSES {
            let t0 = Instant::now();
            let results = evaluate_many(&problem, &patches, params, jobs);
            wall = wall.min(t0.elapsed().as_secs_f64());
            assert_eq!(results.len(), patches.len());
        }
        let rate = patches.len() as f64 / wall;
        if jobs == 1 {
            serial_rate = rate;
        }
        let speedup = if host_cores < 2 {
            JsonValue::Null
        } else {
            fixed(rate / serial_rate, 3)
        };
        records.push(JsonValue::obj(vec![
            ("bench", JsonValue::Str("speedup".into())),
            ("jobs", JsonValue::Uint(jobs as u64)),
            ("evals", JsonValue::Uint(patches.len() as u64)),
            ("wall_s", fixed(wall, 4)),
            ("evals_per_s", fixed(rate, 2)),
            ("speedup", speedup),
            ("host_cores", JsonValue::Uint(host_cores as u64)),
        ]));
    }

    records.extend(gp_scan(host_cores));
    write_records("speedup", "BENCH_speedup.json", &records);
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
    const ROUNDS: usize = 5;
    const JOBS: [usize; 3] = [1, 2, 4];
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
