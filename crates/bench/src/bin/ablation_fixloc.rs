//! Ablation A1 (§3.6): fix localization reduces the fraction of mutants
//! that fail to compile. The paper reports 35% → 10%.
//!
//! We sample single-edit mutants across several scenarios with fix
//! localization on and off, and measure the rate of elaboration
//! failures (the "does not compile" signal).

use cirfix::{
    apply_patch, evaluate, fault_localization, mutate, FitnessParams, MutationParams, Patch,
};
use cirfix_bench::print_table;
use cirfix_benchmarks::scenarios;
use rand::SeedableRng;

fn main() {
    let sample_per_scenario = 200;
    let mut rows = Vec::new();
    for fix_localization in [true, false] {
        let mut invalid = 0u64;
        let mut total = 0u64;
        for s in scenarios().iter().take(12) {
            let problem = s.problem().expect("problem builds");
            let base = evaluate(&problem, &Patch::empty(), FitnessParams::default());
            let faulty = s.faulty_design_file().expect("parses");
            let modules: Vec<_> = faulty.modules.iter().collect();
            let fl = fault_localization(&modules, &base.mismatched);
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let params = MutationParams {
                fix_localization,
                ..MutationParams::default()
            };
            for _ in 0..sample_per_scenario {
                let Some(edit) = mutate(
                    &problem.source,
                    &problem.design_modules,
                    &fl,
                    params,
                    &mut rng,
                ) else {
                    continue;
                };
                let patch = Patch::single(edit);
                let (variant, stats) =
                    apply_patch(&problem.source, &problem.design_modules, &patch);
                if stats.applied == 0 {
                    continue;
                }
                total += 1;
                let compiles = cirfix_sim::elaborate(&variant, &problem.top).is_ok();
                if !compiles {
                    invalid += 1;
                }
            }
        }
        let rate = invalid as f64 / total as f64 * 100.0;
        rows.push(vec![
            if fix_localization {
                "on (CirFix)"
            } else {
                "off (ablation)"
            }
            .to_string(),
            total.to_string(),
            invalid.to_string(),
            format!("{rate:.1}%"),
        ]);
    }
    println!("Ablation A1: invalid (non-compiling) mutant rate\n");
    print_table(&["Fix localization", "Mutants", "Invalid", "Rate"], &rows);
    println!("\nPaper: fix localization reduced invalid mutants from 35% to 10%.");
}
