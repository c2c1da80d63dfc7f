//! A metamorphic scheduling oracle that needs no second simulator.
//!
//! IEEE 1364-2005 leaves the order in which processes ready at the same
//! time run unspecified (§11.4), so a race-free design's behaviour may
//! not depend on the order of its `always`, `initial` and `assign`
//! items. Shuffling those items (declarations, parameters and instances
//! stay put) must therefore leave every probe trace unchanged. A trace
//! that changes is a race in the benchmark or a scheduling bug in the
//! simulator, and neither may hide.
//!
//! The design modules of every golden design, faulty scenario and
//! generated scenario pass under 20 seeded shuffles each. Most search
//! testbenches do not: they race at time 0 (EXPERIMENTS.md, "Process
//! order"), and that set is pinned here so that it can only shrink on
//! purpose.

use std::collections::BTreeSet;
use std::sync::Arc;

use cirfix::{simulate_with_probe, RepairProblem};
use cirfix_ast::{Item, SourceFile};
use cirfix_sim::Trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Shuffles per problem.
const SHUFFLES: u64 = 20;

/// The projects whose search testbench changes its probe trace when
/// the testbench's own items are shuffled. Each opens its stimulus with
/// `@(negedge clk)` in an `initial` of its own, while another `initial`
/// sets `clk = 0` at time 0: run first, the stimulus sees that x→0 step
/// as a negedge (§9.7.2) and runs a clock period early.
const RACY_TESTBENCHES: [&str; 8] = [
    "flip_flop",
    "fsm_full",
    "i2c",
    "lshift_reg",
    "reed_solomon_decoder",
    "sdram_controller",
    "sha3",
    "tate_pairing",
];

/// `source` with the `always`, `initial` and `assign` items of each
/// module `chosen` names shuffled among their own positions by a
/// seeded RNG; every other item keeps its place. `None` when the
/// shuffle left every module as it was.
fn shuffled(source: &SourceFile, chosen: impl Fn(&str) -> bool, seed: u64) -> Option<SourceFile> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut file = source.clone();
    let mut moved = false;
    for module in &mut file.modules {
        if !chosen(&module.name) {
            continue;
        }
        let slots: Vec<usize> = module
            .items
            .iter()
            .enumerate()
            .filter(|(_, item)| {
                matches!(
                    item,
                    Item::Always { .. } | Item::Initial { .. } | Item::Assign { .. }
                )
            })
            .map(|(k, _)| k)
            .collect();
        let mut order = slots.clone();
        order.shuffle(&mut rng);
        if order == slots {
            continue;
        }
        moved = true;
        let module = Arc::make_mut(module);
        let items: Vec<Item> = order.iter().map(|&k| module.items[k].clone()).collect();
        for (&slot, item) in slots.iter().zip(items) {
            module.items[slot] = item;
        }
    }
    moved.then_some(file)
}

/// The probe trace of `source` under `problem`'s testbench, probe and
/// limits, or the simulator's error text.
fn probe_trace(problem: &RepairProblem, source: &SourceFile) -> Result<Trace, String> {
    simulate_with_probe(source, &problem.top, &problem.probe, &problem.sim)
        .map(|(_, trace, _)| trace)
        .map_err(|e| e.to_string())
}

/// Every problem the benchmarks define, by name: the golden designs,
/// the faulty Table 3 scenarios and the generated scenarios.
fn problems() -> Vec<(String, RepairProblem)> {
    let golden = cirfix_benchmarks::projects().iter().map(|p| {
        let problem = p.golden_problem().expect("golden problem builds");
        (format!("{} (golden)", p.name), problem)
    });
    let faulty = cirfix_benchmarks::scenarios()
        .iter()
        .map(|s| (s.id.to_string(), s.problem().expect("scenario builds")));
    let generated = cirfix_benchmarks::generated_scenarios().iter().map(|s| {
        (
            s.id.to_string(),
            s.problem().expect("generated scenario builds"),
        )
    });
    golden.chain(faulty).chain(generated).collect()
}

#[test]
fn design_process_order_never_changes_a_probe_trace() {
    let problems = problems();
    assert_eq!(problems.len(), 11 + 32 + 24, "the benchmark set changed");
    let mut reordered = 0;
    for (name, problem) in &problems {
        let expected = probe_trace(problem, &problem.source);
        let design = |module: &str| problem.design_modules.iter().any(|d| d == module);
        for seed in 0..SHUFFLES {
            let Some(variant) = shuffled(&problem.source, design, seed) else {
                continue;
            };
            reordered += 1;
            assert!(
                probe_trace(problem, &variant) == expected,
                "{name}: shuffle {seed} of the design's processes changed the probe trace"
            );
        }
    }
    // Only six projects have a design module with more than one of
    // these items, so most shuffles leave the design as it was; enough
    // of them must move an item for the test to mean anything.
    assert!(reordered > 300, "only {reordered} shuffles moved an item");
}

#[test]
fn testbench_process_order_changes_only_the_racy_projects() {
    let mut racy = BTreeSet::new();
    for project in cirfix_benchmarks::projects() {
        let problem = project.golden_problem().expect("golden problem builds");
        let expected = probe_trace(&problem, &problem.source);
        assert!(
            expected.is_ok(),
            "{}: the golden design simulates",
            project.name
        );
        let testbench = |module: &str| !problem.design_modules.iter().any(|d| d == module);
        let changed = (0..SHUFFLES).any(|seed| {
            shuffled(&problem.source, testbench, seed)
                .is_some_and(|variant| probe_trace(&problem, &variant) != expected)
        });
        if changed {
            racy.insert(project.name);
        }
    }
    assert_eq!(racy, BTreeSet::from(RACY_TESTBENCHES));
}
