//! Warm-store benchmark: how much of a repair run does the persistent
//! evaluation cache absorb on a rerun?
//!
//! Runs one Table-3 scenario twice through `repair_session` against the
//! same store directory — a cold run that populates the cache and a
//! warm same-seed rerun that should answer every candidate from disk —
//! and reports wall time, simulation counts, and the store hit rate.
//!
//! Emits JSON lines (one per run) to stdout and to
//! `BENCH_warm_store.json` (override with `CIRFIX_BENCH_OUT`).

use std::time::{Duration, Instant};

use cirfix::{repair_session, RepairConfig};
use cirfix_bench::{fixed, write_records};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::JsonValue;

fn main() {
    let s = scenario("flip_flop_cond").expect("scenario");
    let problem = s.problem().expect("problem builds");
    let config = RepairConfig {
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        ..RepairConfig::fast(5)
    };

    let dir = std::env::temp_dir().join(format!("cirfix-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut records: Vec<JsonValue> = Vec::new();
    let mut cold_wall = 0.0f64;
    for phase in ["cold", "warm"] {
        let t0 = Instant::now();
        let result = repair_session(&problem, &config, 2, &dir, false).expect("session runs");
        let wall = t0.elapsed().as_secs_f64();
        if phase == "cold" {
            cold_wall = wall;
        }
        let probes = result.totals.store_hits + result.totals.fitness_evals;
        let hit_rate = if probes == 0 {
            0.0
        } else {
            result.totals.store_hits as f64 / probes as f64
        };
        records.push(JsonValue::obj(vec![
            ("bench", JsonValue::Str("warm_store".into())),
            ("phase", JsonValue::Str(phase.into())),
            ("scenario", JsonValue::Str(s.id.into())),
            ("wall_s", fixed(wall, 4)),
            ("simulations", JsonValue::Uint(result.totals.fitness_evals)),
            ("store_hits", JsonValue::Uint(result.totals.store_hits)),
            ("store_writes", JsonValue::Uint(result.totals.store_writes)),
            ("hit_rate", fixed(hit_rate, 4)),
            ("speedup", fixed(cold_wall / wall, 3)),
        ]));
    }
    let _ = std::fs::remove_dir_all(&dir);

    write_records("warm_store", "BENCH_warm_store.json", &records);
}
