//! Measured simulation baseline: how fast does one core evaluate
//! candidates, and where does the time go?
//!
//! Three measurements, all on the `counter_reset` scenario:
//!
//! 1. **Throughput** — a serial `evaluate_many` over the 69 distinct
//!    single-edit patches, reporting `evals_per_s` and `events_per_s`
//!    (simulator events retired per second, summed from each
//!    evaluation's [`SimMetrics`]). Every counted evaluation is a
//!    simulation: no patch repeats, so dedupe copies cannot inflate it.
//! 2. **Phase attribution** — a 256-evaluation brute-force run with the span
//!    profiler enabled, folded through [`RunReport`] so the per-phase
//!    busy breakdown comes from the same introspection path users see.
//! 3. **Profiler overhead** — the same bounded run with a disabled
//!    observer (the `NullSink` path: no profiler is even allocated)
//!    versus an enabled JSON-lines trace, as `overhead_pct`.
//!
//! Emits JSON lines to stdout and `BENCH_sim.json` (override with
//! `CIRFIX_BENCH_OUT`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cirfix::{brute_force_repair, evaluate_many, BruteConfig, FitnessParams, Observer, RunReport};
use cirfix_bench::{fixed, unique_single_edits, write_records, COUNTER_RESET_SINGLE_EDITS};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::{JsonLinesSink, JsonValue};

/// An in-memory trace destination the observer can write through.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() {
    let s = scenario("counter_reset").expect("scenario");
    let problem = s.problem().expect("problem builds");

    // The same workload as the speedup bench: every distinct systematic
    // single edit. Repeating patches would not add simulations —
    // `evaluate_many` runs each distinct patch once — only uncounted
    // copies.
    let patches = unique_single_edits(&problem);
    const EVALS: usize = COUNTER_RESET_SINGLE_EDITS;
    assert_eq!(patches.len(), EVALS, "throughput workload drifted");
    let params = FitnessParams::default();

    // Warm-up before any timing.
    let warm = evaluate_many(&problem, &patches, params, 1);
    assert_eq!(warm.len(), EVALS);

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records: Vec<JsonValue> = Vec::new();

    // Timed sections repeat and keep the fastest pass: the host is a
    // shared single-core container, so any individual pass can absorb
    // an unrelated scheduling stall.
    const PASSES: usize = 5;

    // 1. Serial throughput with simulator-effort totals.
    let mut wall = f64::INFINITY;
    let mut results = Vec::new();
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let pass = evaluate_many(&problem, &patches, params, 1);
        wall = wall.min(t0.elapsed().as_secs_f64());
        results = pass;
    }
    assert_eq!(results.len(), EVALS, "throughput workload drifted");
    let (mut events, mut timesteps) = (0u64, 0u64);
    for r in &results {
        if let Some(m) = &r.sim_metrics {
            events += m.active_events + m.inactive_events + m.nba_flushes;
            timesteps += m.timesteps;
        }
    }
    records.push(JsonValue::obj(vec![
        ("bench", JsonValue::Str("sim_baseline".into())),
        ("jobs", JsonValue::Uint(1)),
        ("evals", JsonValue::Uint(results.len() as u64)),
        ("wall_s", fixed(wall, 4)),
        ("evals_per_s", fixed(results.len() as f64 / wall, 2)),
        ("sim_events", JsonValue::Uint(events)),
        ("events_per_s", fixed(events as f64 / wall, 2)),
        ("timesteps", JsonValue::Uint(timesteps)),
        ("host_cores", JsonValue::Uint(host_cores as u64)),
    ]));

    // 2. Phase attribution through the profiler + report pipeline.
    // The brute-force search draws its own candidates, mostly distinct
    // multi-edit patches, and stops at this many simulations.
    const BRUTE_EVALS: usize = 256;
    let brute_config = |observer: Observer| BruteConfig {
        max_evals: BRUTE_EVALS as u64,
        seed: 1,
        observer,
        ..BruteConfig::default()
    };
    // Untimed warm-up so neither timed run pays cold-start costs.
    let _ = brute_force_repair(&problem, brute_config(Observer::none()));
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonLinesSink::new(buf.clone()));
    let t0 = Instant::now();
    let outcome = brute_force_repair(&problem, brute_config(Observer::new(sink)));
    let enabled_wall = t0.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&buf.0.lock().expect("buffer lock")).into_owned();
    let report = RunReport::from_trace(&text).expect("trace folds");
    let total_busy: u64 = report.phases.iter().map(|p| p.nanos).sum();
    for p in &report.phases {
        records.push(JsonValue::obj(vec![
            ("bench", JsonValue::Str("sim_baseline_phase".into())),
            ("phase", JsonValue::Str(p.name.clone())),
            ("count", JsonValue::Uint(p.count)),
            ("busy_ns", JsonValue::Uint(p.nanos)),
            (
                "busy_share",
                fixed(p.nanos as f64 / total_busy.max(1) as f64, 4),
            ),
        ]));
    }
    if let Some(h) = &report.heartbeat {
        assert_eq!(
            h.fitness_evals as usize, BRUTE_EVALS,
            "brute-force workload drifted"
        );
        records.push(JsonValue::obj(vec![
            ("bench", JsonValue::Str("sim_baseline_heartbeat".into())),
            ("fitness_evals", JsonValue::Uint(h.fitness_evals)),
            ("evals_per_s", fixed(h.evals_per_s, 2)),
            ("best_fitness", JsonValue::Float(h.best_fitness)),
        ]));
    }

    // 3. Profiler overhead: disabled observer (no profiler allocated)
    //    vs the enabled trace run above, same workload and seed.
    let t0 = Instant::now();
    let base = brute_force_repair(&problem, brute_config(Observer::none()));
    let null_wall = t0.elapsed().as_secs_f64();
    assert_eq!(
        base.fitness_evals, outcome.fitness_evals,
        "observer must not change the search"
    );
    records.push(JsonValue::obj(vec![
        ("bench", JsonValue::Str("profiler_overhead".into())),
        ("evals", JsonValue::Uint(base.fitness_evals)),
        ("nullsink_wall_s", fixed(null_wall, 4)),
        ("enabled_wall_s", fixed(enabled_wall, 4)),
        (
            "overhead_pct",
            fixed(100.0 * (enabled_wall - null_wall) / null_wall, 2),
        ),
    ]));

    write_records("sim_baseline", "BENCH_sim.json", &records);
}
