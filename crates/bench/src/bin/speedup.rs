//! Throughput benchmark for the parallel fitness-evaluation engine:
//! evaluates the distinct single-edit candidates of `counter_reset` with
//! 1, 2, 4, and 8 worker threads and reports evaluations/second and
//! speedup over the serial baseline.
//!
//! Emits JSON lines (one record per worker count) to stdout and to
//! `BENCH_speedup.json` (override the path with `CIRFIX_BENCH_OUT`).
//! Every counted evaluation is a distinct patch, hence a real
//! simulation. The record includes `host_cores`; below two cores the
//! workers time-slice one CPU, so `speedup` is written as `null` rather
//! than as a ratio that only measures scheduling noise.

use std::time::Instant;

use cirfix::{evaluate_many, FitnessParams};
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

    write_records("speedup", "BENCH_speedup.json", &records);
}
