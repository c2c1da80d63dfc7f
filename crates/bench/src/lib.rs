#![warn(missing_docs)]

//! Shared harness for regenerating every table and figure of the paper.
//!
//! The binaries in `src/bin/` (one per experiment — see DESIGN.md's
//! experiment index) call into this crate to run repair trials, classify
//! repairs against held-out verification benches, and print aligned
//! tables comparing our measurements with the paper's reported values.
//!
//! Experiment scale is tunable with environment variables so the whole
//! suite runs in CI time by default yet can be pushed toward the paper's
//! 5000-member, 12-hour configuration:
//!
//! * `CIRFIX_POP` — population size (default 300)
//! * `CIRFIX_GENS` — generations (default 8)
//! * `CIRFIX_TRIALS` — independent trials per scenario (default 3)
//! * `CIRFIX_EVALS` — fitness-evaluation budget per trial (default 6000)
//! * `CIRFIX_TIMEOUT_S` — wall-clock budget per trial in seconds

pub mod stats;

use std::collections::HashSet;
use std::time::{Duration, Instant};

use cirfix::{
    all_stmt_ids, applicable_templates, apply_patch, repair, verify_repair, Edit, FaultLoc, Patch,
    RepairConfig, RepairProblem, RepairResult,
};
use cirfix_benchmarks::{project, PaperOutcome, Scenario};

/// The outcome of running one defect scenario through the harness.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario id.
    pub id: &'static str,
    /// Owning project.
    pub project: &'static str,
    /// Defect description (Table 3).
    pub description: &'static str,
    /// Category 1 or 2.
    pub category: u8,
    /// What the paper reports.
    pub paper: PaperOutcome,
    /// Did any trial find a plausible repair?
    pub plausible: bool,
    /// Did the plausible repair pass the held-out verification bench?
    pub correct: bool,
    /// Wall time until the successful trial returned (or total time).
    pub repair_time: Duration,
    /// Fitness evaluations across all trials.
    pub evals: u64,
    /// Generations in the successful (or last) trial.
    pub generations: u32,
    /// Minimized patch length (0 when not repaired).
    pub patch_len: usize,
    /// The winning trial's result.
    pub result: RepairResult,
}

/// Reads the experiment configuration from the environment.
pub fn experiment_config(seed: u64) -> RepairConfig {
    let mut config = RepairConfig::fast(seed);
    if let Some(v) = env_u64("CIRFIX_POP") {
        config.popn_size = v as usize;
    }
    if let Some(v) = env_u64("CIRFIX_GENS") {
        config.max_generations = v as u32;
    }
    if let Some(v) = env_u64("CIRFIX_EVALS") {
        config.max_fitness_evals = v;
    }
    if let Some(v) = env_u64("CIRFIX_TIMEOUT_S") {
        config.timeout = Duration::from_secs(v);
    }
    config
}

/// Number of independent trials per scenario (the paper uses 5).
pub fn experiment_trials() -> u32 {
    env_u64("CIRFIX_TRIALS").map_or(3, |v| v as u32)
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Runs up to `trials` independent repair trials on one scenario and
/// classifies the first plausible repair against the held-out bench.
///
/// # Panics
///
/// Panics if the benchmark sources fail to parse — the suite's tests
/// guarantee they do not.
pub fn run_scenario(s: &Scenario, base: &RepairConfig, trials: u32) -> ScenarioOutcome {
    let problem = s.problem().expect("benchmark problem builds");
    let p = project(s.project).expect("project exists");
    let started = Instant::now();
    let mut evals = 0;
    let mut last: Option<RepairResult> = None;
    for t in 0..trials.max(1) {
        let config = RepairConfig {
            seed: base.seed.wrapping_add(u64::from(t) * 1001),
            ..base.clone()
        };
        let result = repair(&problem, config);
        evals += result.fitness_evals;
        let plausible = result.is_plausible();
        last = Some(result);
        if plausible {
            break;
        }
    }
    let result = last.expect("at least one trial");
    let plausible = result.is_plausible();
    let correct = if plausible {
        let (repaired_full, _) =
            apply_patch(&problem.source, &problem.design_modules, &result.patch);
        verify_repair(
            &repaired_full,
            &problem.design_modules,
            &p.golden_design().expect("golden parses"),
            &p.verification().expect("verification parses"),
        )
        .unwrap_or(false)
    } else {
        false
    };
    ScenarioOutcome {
        id: s.id,
        project: s.project,
        description: s.description,
        category: s.category,
        paper: s.paper,
        plausible,
        correct,
        repair_time: started.elapsed(),
        evals,
        generations: result.generations,
        patch_len: result.patch.len(),
        result,
    }
}

/// Distinct single-edit candidates of `counter_reset`, the throughput
/// benches' workload. `evaluate_many` simulates each distinct patch
/// once, so only distinct patches count as evaluations.
pub const COUNTER_RESET_SINGLE_EDITS: usize = 69;

/// Every distinct systematic single edit of `problem`'s design (all
/// applicable Table 1 templates, then every statement deletion), in
/// enumeration order.
pub fn unique_single_edits(problem: &RepairProblem) -> Vec<Patch> {
    let fl = FaultLoc::default();
    let mut edits = applicable_templates(&problem.source, &problem.design_modules, &fl);
    edits.extend(
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .map(|target| Edit::DeleteStmt { target }),
    );
    let mut seen = HashSet::new();
    edits
        .into_iter()
        .map(Patch::single)
        .filter(|p| seen.insert(p.clone()))
        .collect()
}

/// Formats a [`PaperOutcome`] like Table 3 does.
pub fn paper_cell(outcome: PaperOutcome) -> String {
    match outcome {
        PaperOutcome::Correct(t) => format!("\u{2713}{t}"),
        PaperOutcome::Plausible(t) => format!("{t}"),
        PaperOutcome::NotRepaired => "-".to_string(),
    }
}

/// Formats our measured outcome in the same style.
pub fn ours_cell(o: &ScenarioOutcome) -> String {
    if !o.plausible {
        "-".to_string()
    } else if o.correct {
        format!("\u{2713}{:.1}", o.repair_time.as_secs_f64())
    } else {
        format!("{:.1}", o.repair_time.as_secs_f64())
    }
}

/// Prints a row-aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            out.push_str(&format!("{c:<pad$}  "));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_config_has_paper_ratios() {
        let c = experiment_config(1);
        assert!((c.rt_threshold - 0.2).abs() < 1e-9);
        assert!((c.mut_threshold - 0.7).abs() < 1e-9);
        assert_eq!(c.tournament_size, 5);
    }

    #[test]
    fn cells_format_like_table_3() {
        assert_eq!(paper_cell(PaperOutcome::Correct(19.8)), "\u{2713}19.8");
        assert_eq!(paper_cell(PaperOutcome::Plausible(57.9)), "57.9");
        assert_eq!(paper_cell(PaperOutcome::NotRepaired), "-");
    }

    #[test]
    fn throughput_workload_is_distinct_single_edits() {
        let s = cirfix_benchmarks::scenario("counter_reset").unwrap();
        let patches = unique_single_edits(&s.problem().unwrap());
        assert_eq!(patches.len(), COUNTER_RESET_SINGLE_EDITS);
    }

    #[test]
    fn run_scenario_repairs_an_easy_defect() {
        let s = cirfix_benchmarks::scenario("flip_flop_cond").unwrap();
        let outcome = run_scenario(s, &experiment_config(1), 2);
        assert!(outcome.plausible);
        assert!(outcome.correct);
        assert!(outcome.patch_len >= 1);
    }
}
