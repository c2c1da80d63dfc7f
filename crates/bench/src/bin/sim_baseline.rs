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
use cirfix_bench::{unique_single_edits, COUNTER_RESET_SINGLE_EDITS};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::JsonLinesSink;

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
    let mut records: Vec<String> = Vec::new();

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
    records.push(format!(
        "{{\"bench\":\"sim_baseline\",\"jobs\":1,\"evals\":{},\"wall_s\":{wall:.4},\
         \"evals_per_s\":{:.2},\"sim_events\":{events},\"events_per_s\":{:.2},\
         \"timesteps\":{timesteps},\"host_cores\":{host_cores}}}",
        results.len(),
        results.len() as f64 / wall,
        events as f64 / wall,
    ));

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
        records.push(format!(
            "{{\"bench\":\"sim_baseline_phase\",\"phase\":\"{}\",\"count\":{},\
             \"busy_ns\":{},\"busy_share\":{:.4}}}",
            p.name,
            p.count,
            p.nanos,
            p.nanos as f64 / (total_busy.max(1)) as f64,
        ));
    }
    if let Some(h) = &report.heartbeat {
        assert_eq!(
            h.fitness_evals as usize, BRUTE_EVALS,
            "brute-force workload drifted"
        );
        records.push(format!(
            "{{\"bench\":\"sim_baseline_heartbeat\",\"fitness_evals\":{},\
             \"evals_per_s\":{:.2},\"best_fitness\":{}}}",
            h.fitness_evals, h.evals_per_s, h.best_fitness,
        ));
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
    records.push(format!(
        "{{\"bench\":\"profiler_overhead\",\"evals\":{},\"nullsink_wall_s\":{null_wall:.4},\
         \"enabled_wall_s\":{enabled_wall:.4},\"overhead_pct\":{:.2}}}",
        base.fitness_evals,
        100.0 * (enabled_wall - null_wall) / null_wall,
    ));

    for record in &records {
        println!("{record}");
    }
    let out = std::env::var("CIRFIX_BENCH_OUT").unwrap_or_else(|_| "BENCH_sim.json".into());
    let body = records.join("\n") + "\n";
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("sim_baseline: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("sim_baseline: wrote {out}");
}
