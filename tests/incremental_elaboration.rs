//! Incremental elaboration against whole-design elaboration.
//!
//! A variant's design derived from its original's elaboration
//! (`Elaboration::derive`) must equal `elaborate` of the variant, or
//! both must fail with the same error text. The candidates are every
//! unique single edit of the 32 Table 3 scenarios, the single edits of
//! the 24 generated scenarios, and seeded GP lineages of 1–8 template or
//! mutation edits, each edit drawn on the applied parent as the search
//! draws it. Designs compare through a canonical dump: signals,
//! memories, each process's ops and origin, each continuous assign's
//! target, right-hand side and origin, and every signal's reader list.
//!
//! On a seeded subset, evaluation through the original's elaboration
//! (`evaluate_many`) and as a whole (`evaluate`) must agree on score
//! bits, outcome, error text and simulator metrics.

use std::collections::HashSet;
use std::fmt::Write;
use std::sync::Arc;

use cirfix::{
    all_stmt_ids, applicable_templates, apply_patch, evaluate, evaluate_many, mutate,
    random_template, Edit, FaultLoc, FitnessParams, MutationParams, Patch, RepairProblem,
};
use cirfix_benchmarks::{generated_scenarios, scenarios};
use cirfix_sim::{elaborate, Design, Elaboration};
use rand::{Rng, SeedableRng};

/// Lineage children drawn over the 32 scenarios.
const GP_CHILDREN: usize = 10_000;
/// Candidates whose evaluations are compared.
const EVALUATED: usize = 512;

/// Every unique single edit: each applicable Table 1 template over the
/// whole design and each statement deletion, duplicates dropped.
fn single_edits(problem: &RepairProblem) -> Vec<Patch> {
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

/// The canonical dump of a design.
fn dump(d: &Design) -> String {
    let mut out = String::new();
    for s in d.signals.iter() {
        writeln!(out, "signal {s:?}").unwrap();
    }
    for m in d.memories.iter() {
        writeln!(out, "memory {m:?}").unwrap();
    }
    for p in d.processes.iter() {
        let ops = &p.program.ops;
        writeln!(
            out,
            "process {} {:?} {} {ops:?}",
            p.scope.path, p.kind, p.origin
        )
        .unwrap();
    }
    for a in d.cassigns.iter() {
        let (target, rhs) = (&a.target, &a.rhs);
        writeln!(
            out,
            "assign {} {} {target:?} {rhs:?}",
            a.scope.path, a.origin
        )
        .unwrap();
    }
    for sig in 0..d.signals.len() {
        writeln!(out, "readers {sig} {:?}", d.readers(sig)).unwrap();
    }
    out
}

/// Checks one variant: the derived design must equal the whole-design
/// one, or both must fail alike. Returns whether the derived design
/// shares the base's signals, that is, was built incrementally (a
/// failure counts as not).
fn check(
    base: &Elaboration,
    shared: &Design,
    variant: &cirfix_ast::SourceFile,
    top: &str,
    what: &str,
) -> bool {
    let derived = base.derive(variant);
    let whole = elaborate(variant, top);
    match (&derived, &whole) {
        (Ok(d), Ok(w)) => {
            assert!(dump(d) == dump(w), "{what}: derived design differs");
            Arc::ptr_eq(&d.signals, &shared.signals)
        }
        (Err(d), Err(w)) => {
            assert_eq!(d.to_string(), w.to_string(), "{what}: error texts differ");
            false
        }
        _ => panic!(
            "{what}: derived {:?} against whole {:?}",
            derived.as_ref().err(),
            whole.as_ref().err()
        ),
    }
}

/// Checks every single edit of `problem`; returns (candidates,
/// incremental ones).
fn check_single_edits(id: &str, problem: &RepairProblem) -> (usize, usize) {
    let base = Elaboration::new(&problem.source, &problem.top).expect("original elaborates");
    let shared = base.design();
    assert!(dump(&shared) == dump(&elaborate(&problem.source, &problem.top).unwrap()));
    let patches = single_edits(problem);
    let mut incremental = 0;
    for patch in &patches {
        let (variant, _) = apply_patch(&problem.source, &problem.design_modules, patch);
        let what = format!("{id} {patch:?}");
        incremental += usize::from(check(&base, &shared, &variant, &problem.top, &what));
    }
    (patches.len(), incremental)
}

/// Runs `f` over `items` on two threads, summing the results.
fn on_two_threads<T: Sync>(
    items: &[T],
    f: impl Fn(usize, &T) -> (usize, usize) + Sync,
) -> (usize, usize) {
    std::thread::scope(|scope| {
        let f = &f;
        let halves: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == half)
                        .map(|(i, item)| f(i, item))
                        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
                })
            })
            .collect();
        halves
            .into_iter()
            .map(|h| h.join().expect("checker thread"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    })
}

#[test]
fn every_single_edit_of_the_table3_scenarios_derives_its_whole_design() {
    let (candidates, incremental) = on_two_threads(scenarios(), |_, s| {
        let problem = s.problem().expect("scenario builds");
        check_single_edits(s.id, &problem)
    });
    assert_eq!(candidates, 7_213);
    // Most single edits change only processes and assigns; the rest
    // fall back to whole-design elaboration.
    assert!(
        incremental * 4 > candidates * 3,
        "only {incremental} of {candidates} candidates were derived incrementally"
    );
}

#[test]
fn every_single_edit_of_the_generated_scenarios_derives_its_whole_design() {
    let tranche = generated_scenarios();
    assert_eq!(tranche.len(), 24);
    let (candidates, incremental) = on_two_threads(tranche, |_, s| {
        let problem = s.problem().expect("generated scenario builds");
        check_single_edits(s.id, &problem)
    });
    assert!(
        incremental * 4 > candidates * 3,
        "{incremental} of {candidates}"
    );
}

#[test]
fn gp_lineages_derive_their_whole_designs() {
    let per_scenario = GP_CHILDREN.div_ceil(scenarios().len());
    let (children, incremental) = on_two_threads(scenarios(), |k, s| {
        let problem = s.problem().expect("scenario builds");
        let (source, design) = (&problem.source, &problem.design_modules);
        let base = Elaboration::new(source, &problem.top).expect("original elaborates");
        let shared = base.design();
        let fl = FaultLoc::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1E1A + k as u64);
        let (mut children, mut incremental) = (0, 0);
        while children < per_scenario {
            // A lineage: each step draws one edit on the applied parent.
            let mut parent = source.clone();
            let mut patch = Patch::empty();
            for _ in 0..rng.gen_range(1..=8usize) {
                let drawn = if rng.gen_bool(0.5) {
                    random_template(&parent, design, &fl, &mut rng)
                } else {
                    mutate(&parent, design, &fl, MutationParams::default(), &mut rng)
                };
                let Some(edit) = drawn else { continue };
                patch = patch.with(edit);
                let (child, _) = apply_patch(source, design, &patch);
                let what = format!("{} {patch:?}", s.id);
                incremental += usize::from(check(&base, &shared, &child, &problem.top, &what));
                children += 1;
                parent = child;
            }
        }
        (children, incremental)
    });
    assert!(children >= GP_CHILDREN, "{children} children");
    assert!(incremental * 2 > children, "{incremental} of {children}");
}

#[test]
fn derived_and_whole_evaluations_agree() {
    let params = FitnessParams::default();
    let all = scenarios();
    let per_scenario = EVALUATED.div_ceil(all.len());
    let (evaluated, _) = on_two_threads(all, |k, s| {
        let problem = s.problem().expect("scenario builds");
        let mut patches = single_edits(&problem);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE7A1 + k as u64);
        // A seeded subset, the empty patch first.
        let mut subset = vec![Patch::empty()];
        while subset.len() < per_scenario && !patches.is_empty() {
            subset.push(patches.swap_remove(rng.gen_range(0..patches.len())));
        }
        let derived = evaluate_many(&problem, &subset, params, 1);
        for (patch, d) in subset.iter().zip(&derived) {
            let w = evaluate(&problem, patch, params);
            let what = format!("{} {patch:?}", s.id);
            assert_eq!(d.score.to_bits(), w.score.to_bits(), "{what}: score");
            assert_eq!(d.outcome, w.outcome, "{what}: outcome");
            assert_eq!(d.error, w.error, "{what}: error");
            assert_eq!(d.sim_metrics, w.sim_metrics, "{what}: sim metrics");
        }
        (subset.len(), 0)
    });
    assert!(evaluated >= 500, "{evaluated} candidates evaluated");
}
