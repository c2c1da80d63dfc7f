//! A repair run with a JSON-lines telemetry trace attached.
//!
//! Repairs the counter sensitivity-list benchmark while streaming every
//! telemetry event (generation statistics, candidate evaluations, fault
//! localization, simulator effort, spans) to `trace_repair.jsonl`, then
//! reads the trace back and prints its run report — what `cirfix report
//! trace_repair.jsonl` prints.
//!
//! ```sh
//! cargo run --release --example trace_repair
//! jq 'select(.type == "generation")' trace_repair.jsonl
//! ```

use std::sync::Arc;

use cirfix::{repair, Observer, RepairConfig, RunReport};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::JsonLinesSink;

fn main() {
    let scenario = scenario("counter_sens_list").expect("benchmark exists");
    let problem = scenario.problem().expect("sources parse");

    let trace_path = std::path::Path::new("trace_repair.jsonl");
    let trace = JsonLinesSink::create(trace_path).expect("trace file opens");
    let observer = Observer::new(Arc::new(trace));

    // The search is stochastic; retry a few seeds under the fast budget.
    let mut plausible = false;
    for seed in 1..=5 {
        let mut config = RepairConfig::fast(seed);
        config.observer = observer.clone();
        let result = repair(&problem, config);
        println!(
            "trial {seed}: plausible={} best={:.3} evals={} wall={:.1?}",
            result.is_plausible(),
            result.best_fitness,
            result.totals.fitness_evals,
            result.totals.wall_time
        );
        if result.is_plausible() {
            plausible = true;
            break;
        }
    }
    observer.flush();

    // Read the trace back: every line must fold.
    let text = std::fs::read_to_string(trace_path).expect("trace readable");
    let report = RunReport::from_trace(&text);
    assert_eq!(report.malformed_lines, 0, "trace lines are valid JSON");
    println!("\ntrace written to {}\n", trace_path.display());
    print!("{}", report.render());
    if !plausible {
        println!("no repair under the fast budget; the trace still shows the search");
    }
}
