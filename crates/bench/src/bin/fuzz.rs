//! Fuzzer throughput bench: how fast do we mint defect scenarios, and
//! how fast does the robustness harness chew through inputs?
//!
//! Three measurements:
//!
//! 1. **Generation** — a full `generate_scenarios` sweep over all 11
//!    projects (no classification), reporting `scenarios_per_s` and
//!    the candidate-evaluation rate behind it.
//! 2. **Fuzzing** — a complete `run_fuzz` pass (generated scenarios +
//!    grammar mutations, each simulated once, shrinking armed),
//!    reporting `inputs_per_s` and the finding count — which must be
//!    zero on a healthy tree, and the committed artifact records that.
//! 3. **Replay** — the committed crash corpus re-driven through the
//!    harness, the same gate CI runs.
//!
//! Emits JSON lines to stdout and `BENCH_fuzz.json` (override with
//! `CIRFIX_BENCH_OUT`).

use cirfix_bench::{fixed, write_records};
use cirfix_fuzz::{replay, run_fuzz, FuzzConfig, GenConfig};
use cirfix_telemetry::JsonValue;
use std::time::Instant;

fn main() {
    // The harness contains panics; keep the default hook from spraying
    // backtraces into the bench output.
    std::panic::set_hook(Box::new(|_| {}));

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records: Vec<JsonValue> = Vec::new();

    // 1. Scenario generation over every project. Warm once (parser and
    //    elaboration caches), then keep the fastest of three passes —
    //    the host is a shared container.
    let gen_config = GenConfig::default();
    let _ = cirfix_fuzz::generate_scenarios(&gen_config);
    let mut gen_wall = f64::MAX;
    let mut generated = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let scenarios = cirfix_fuzz::generate_scenarios(&gen_config);
        gen_wall = gen_wall.min(t0.elapsed().as_secs_f64());
        generated = scenarios.len();
    }
    records.push(JsonValue::obj(vec![
        ("bench", JsonValue::Str("fuzz_gen".into())),
        ("scenarios", JsonValue::Uint(generated as u64)),
        ("wall_s", fixed(gen_wall, 4)),
        ("scenarios_per_s", fixed(generated as f64 / gen_wall, 2)),
        ("host_cores", JsonValue::Uint(host_cores as u64)),
    ]));

    // 2. A full fuzz pass: half generated scenarios, half grammar
    //    mutations, each simulated once, shrinking armed (free when
    //    the tree is healthy). One pass — run_fuzz amortizes nothing
    //    across reruns, so repeating only burns CI minutes.
    let fuzz_config = FuzzConfig {
        seed: 1,
        budget: 400,
        ..FuzzConfig::default()
    };
    let t0 = Instant::now();
    let report = run_fuzz(&fuzz_config);
    let fuzz_wall = t0.elapsed().as_secs_f64();
    let stats = &report.stats;
    records.push(JsonValue::obj(vec![
        ("bench", JsonValue::Str("fuzz_run".into())),
        ("seed", JsonValue::Uint(report.seed)),
        ("inputs", JsonValue::Uint(stats.inputs as u64)),
        ("generated", JsonValue::Uint(stats.generated as u64)),
        ("parse_errors", JsonValue::Uint(stats.parse_errors as u64)),
        ("sim_ok", JsonValue::Uint(stats.sim_ok as u64)),
        ("sim_errors", JsonValue::Uint(stats.sim_errors as u64)),
        ("findings", JsonValue::Uint(report.findings.len() as u64)),
        ("wall_s", fixed(fuzz_wall, 4)),
        ("inputs_per_s", fixed(stats.inputs as f64 / fuzz_wall, 2)),
    ]));

    // 3. The committed regression corpus, replayed exactly as CI gates
    //    on it.
    let corpus_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus/crashes.jsonl");
    let (bodies, health) = cirfix_store::read_segment(&corpus_path).expect("corpus reads");
    assert!(health.is_clean(), "committed corpus must be undamaged");
    let corpus: Vec<cirfix_fuzz::CrashRecord> = bodies
        .iter()
        .filter_map(cirfix_fuzz::CrashRecord::from_json)
        .collect();
    let t0 = Instant::now();
    let replay_report = replay(&corpus, 0);
    let replay_wall = t0.elapsed().as_secs_f64();
    records.push(JsonValue::obj(vec![
        ("bench", JsonValue::Str("fuzz_replay".into())),
        ("records", JsonValue::Uint(replay_report.replayed as u64)),
        (
            "regressions",
            JsonValue::Uint(replay_report.regressions.len() as u64),
        ),
        ("wall_s", fixed(replay_wall, 4)),
    ]));

    let _ = std::panic::take_hook();
    write_records("fuzz", "BENCH_fuzz.json", &records);
}
