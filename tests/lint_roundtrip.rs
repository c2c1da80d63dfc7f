//! Cross-crate property tests for ISSUE 2: the parser/printer
//! round-trip over every benchmark source (including seeded mutants),
//! lint "dirtiness" of the faulty designs versus the golden ones, and
//! JSON-lines validity of lint telemetry events.

use std::collections::BTreeSet;

use cirfix::{all_stmt_ids, apply_patch, fault_localization, mutate, MutationParams, Patch};
use cirfix_ast::print::source_to_string;
use cirfix_ast::SourceFile;
use cirfix_benchmarks::{projects, scenarios};
use cirfix_lint::{diagnostic_json, lint_modules};
use cirfix_telemetry::validate_json_line;
use rand::SeedableRng;

/// `print ∘ parse` is a fixpoint: printing a parsed source and
/// re-parsing it yields a design that prints identically. (Byte
/// equality with the *original* text is not required — whitespace and
/// sugar are normalized — but one round must reach the fixpoint.)
fn assert_roundtrip(source: &str, what: &str) {
    let parsed = cirfix_parser::parse(source).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_print_fixpoint(&parsed, what);
}

fn assert_print_fixpoint(parsed: &SourceFile, what: &str) {
    let printed = source_to_string(parsed);
    let reparsed = cirfix_parser::parse(&printed)
        .unwrap_or_else(|e| panic!("{what}: printed source fails to re-parse: {e}\n{printed}"));
    let reprinted = source_to_string(&reparsed);
    assert_eq!(
        printed, reprinted,
        "{what}: print ∘ parse is not a fixpoint"
    );
}

#[test]
fn every_benchmark_source_round_trips() {
    for p in projects() {
        assert_roundtrip(p.design, &format!("{} design", p.name));
        assert_roundtrip(p.testbench, &format!("{} testbench", p.name));
        assert_roundtrip(p.verify_testbench, &format!("{} verify_tb", p.name));
    }
    for s in scenarios() {
        assert_roundtrip(s.faulty_design, &format!("{} faulty design", s.id));
    }
}

/// Mutated variants round-trip too: apply seeded random edits to every
/// faulty design and check the printed mutant re-parses to a fixpoint.
#[test]
fn seeded_mutants_round_trip() {
    let mut mutants = 0u32;
    for s in scenarios() {
        let file = s.faulty_design_file().unwrap();
        let project = cirfix_benchmarks::project(s.project).unwrap();
        let modules = project.design_module_names();
        let design: Vec<_> = file
            .modules
            .iter()
            .filter(|m| modules.contains(&m.name))
            .collect();
        // Implicate every statement so mutation has the full menu.
        let mut fl = fault_localization(&design, &BTreeSet::new());
        fl.nodes.extend(all_stmt_ids(&file, &modules));

        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1F1);
        for _ in 0..4 {
            let Some(edit) = mutate(&file, &modules, &fl, MutationParams::default(), &mut rng)
            else {
                continue;
            };
            let (mutant, _) = apply_patch(&file, &modules, &Patch::single(edit));
            assert_print_fixpoint(&mutant, &format!("{} mutant", s.id));
            mutants += 1;
        }
    }
    assert!(mutants >= 32, "only {mutants} mutants exercised");
}

/// The transplanted defects make the designs *statically* dirtier:
/// summed over the suite, faulty designs lint no cleaner than their
/// golden counterparts, and at least one defect is strictly dirtier.
#[test]
fn faulty_benchmarks_lint_dirtier_than_golden() {
    let mut faulty_total = 0usize;
    let mut golden_total = 0usize;
    let mut strictly_dirtier = 0u32;
    for s in scenarios() {
        let project = cirfix_benchmarks::project(s.project).unwrap();
        let modules = project.design_module_names();
        let faulty = lint_modules(&s.faulty_design_file().unwrap(), &modules).len();
        let golden = lint_modules(&project.golden_design().unwrap(), &modules).len();
        faulty_total += faulty;
        golden_total += golden;
        if faulty > golden {
            strictly_dirtier += 1;
        }
    }
    assert!(
        faulty_total >= golden_total,
        "faulty suite lints cleaner ({faulty_total}) than golden ({golden_total})"
    );
    assert!(
        strictly_dirtier >= 1,
        "no defect scenario is strictly dirtier than its golden design"
    );
}

/// Every lint finding over the whole suite serializes to a valid JSON
/// line.
#[test]
fn lint_events_are_valid_json_lines() {
    let mut lines = 0u32;
    for s in scenarios() {
        let project = cirfix_benchmarks::project(s.project).unwrap();
        let modules = project.design_module_names();
        for (module, diag) in lint_modules(&s.faulty_design_file().unwrap(), &modules) {
            let line = diagnostic_json(&module, &diag);
            validate_json_line(&line).unwrap_or_else(|e| panic!("{}: {e}\n{line}", s.id));
            lines += 1;
        }
    }
    assert!(
        lines > 0,
        "the defect suite produced no lint findings at all"
    );
}
