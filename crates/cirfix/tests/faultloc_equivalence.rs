//! Algorithm 2 against its reference implementation.
//!
//! `oracle` below is the original, quadratic formulation of fault
//! localization: gather every candidate with its trigger and identifier
//! sets as strings, then sweep all candidates until no new identifier
//! joins the mismatch set. The production implementation computes the
//! same least fixed point in one pass with interned names; both must
//! return equal `FaultLoc`s for every scenario's original design and
//! each of its single-edit variants, under several mismatch sets.

use std::collections::BTreeSet;

use cirfix::{apply_patch, fault_localization, strip_hierarchy, Edit, FaultLoc, Patch};
use cirfix_ast::{visit, Item, Module, NodeId, SourceFile, Stmt};

/// One implication candidate gathered from the AST.
struct Candidate {
    /// Names that trigger implication when they appear in the mismatch
    /// set (LHS names for Impl-Data; all subtree identifiers for
    /// Impl-Ctrl).
    trigger: BTreeSet<String>,
    /// All node ids of the candidate subtree.
    subtree_ids: Vec<NodeId>,
    /// All identifier names in the subtree (for Add-Child).
    subtree_idents: BTreeSet<String>,
    /// Already added to the FL set.
    done: bool,
}

/// The reference Algorithm 2.
fn oracle(modules: &[&Module], mismatched_vars: &BTreeSet<String>) -> FaultLoc {
    let mut candidates = Vec::new();
    for module in modules {
        collect_candidates(module, &mut candidates);
    }

    let mut fl = FaultLoc {
        nodes: BTreeSet::new(),
        mismatch: BTreeSet::new(),
    };
    let mut frontier: BTreeSet<String> = mismatched_vars.clone();

    // Fixed point: stop when no new identifiers enter the mismatch set.
    while !frontier.is_subset(&fl.mismatch) {
        fl.mismatch.extend(frontier.iter().cloned());
        frontier.clear();
        for cand in &mut candidates {
            if cand.done {
                continue;
            }
            if cand.trigger.intersection(&fl.mismatch).next().is_some() {
                cand.done = true;
                fl.nodes.extend(cand.subtree_ids.iter().copied());
                for name in &cand.subtree_idents {
                    if !fl.mismatch.contains(name) {
                        frontier.insert(name.clone());
                    }
                }
            }
        }
    }
    fl
}

fn subtree_idents_of_stmt(stmt: &Stmt) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    visit::walk_stmt(stmt, &mut |n| match n {
        visit::NodeRef::Expr(e) => {
            if let cirfix_ast::Expr::Ident { name, .. } = e {
                names.insert(name.clone());
            }
            match e {
                cirfix_ast::Expr::Index { base, .. } | cirfix_ast::Expr::Range { base, .. } => {
                    names.insert(base.clone());
                }
                _ => {}
            }
        }
        visit::NodeRef::LValue(lv) => {
            for n in lv.target_names() {
                names.insert(n.to_string());
            }
        }
        _ => {}
    });
    names
}

fn collect_candidates(module: &Module, out: &mut Vec<Candidate>) {
    // Continuous assignments are Impl-Data candidates.
    for item in &module.items {
        if let Item::Assign { id, lhs, rhs } = item {
            let trigger: BTreeSet<String> =
                lhs.target_names().iter().map(|s| s.to_string()).collect();
            let mut subtree_ids = vec![*id];
            visit::walk_lvalue(lhs, &mut |n| subtree_ids.push(n.id()));
            subtree_ids.extend(visit::ids_in_expr(rhs));
            let mut subtree_idents: BTreeSet<String> =
                rhs.identifiers().iter().map(|s| s.to_string()).collect();
            subtree_idents.extend(trigger.iter().cloned());
            out.push(Candidate {
                trigger,
                subtree_ids,
                subtree_idents,
                done: false,
            });
        }
    }
    // Procedural statements.
    for stmt in visit::stmts_of_module(module) {
        if stmt.is_assignment() {
            let (lhs, rhs) = match stmt {
                Stmt::Blocking { lhs, rhs, .. } | Stmt::NonBlocking { lhs, rhs, .. } => (lhs, rhs),
                _ => unreachable!("is_assignment"),
            };
            let trigger: BTreeSet<String> =
                lhs.target_names().iter().map(|s| s.to_string()).collect();
            let mut subtree_idents: BTreeSet<String> =
                rhs.identifiers().iter().map(|s| s.to_string()).collect();
            subtree_idents.extend(trigger.iter().cloned());
            out.push(Candidate {
                trigger,
                subtree_ids: visit::ids_in_stmt(stmt),
                subtree_idents,
                done: false,
            });
        } else if stmt.is_conditional() {
            // Impl-Ctrl: triggered by any identifier in the subtree.
            let subtree_idents = subtree_idents_of_stmt(stmt);
            out.push(Candidate {
                trigger: subtree_idents.clone(),
                subtree_ids: visit::ids_in_stmt(stmt),
                subtree_idents,
                done: false,
            });
        }
    }
}

/// The single-edit enumeration of `tests/fingerprint.rs`: one
/// delete/negate/blocking-swap per statement and one
/// increment/decrement per expression of the design modules.
fn single_edit_patches(file: &SourceFile, design_modules: &[String]) -> Vec<Patch> {
    let mut patches = Vec::new();
    for module in file
        .modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
    {
        for stmt in visit::stmts_of_module(module) {
            let id = stmt.id();
            patches.push(Patch::single(Edit::DeleteStmt { target: id }));
            patches.push(Patch::single(Edit::NegateCond { target: id }));
            patches.push(Patch::single(Edit::BlockingToNonBlocking { target: id }));
            patches.push(Patch::single(Edit::NonBlockingToBlocking { target: id }));
        }
        for expr in visit::exprs_of_module(module) {
            patches.push(Patch::single(Edit::IncrementExpr { target: expr.id() }));
            patches.push(Patch::single(Edit::DecrementExpr { target: expr.id() }));
        }
    }
    patches
}

fn design_of<'f>(file: &'f SourceFile, design_modules: &[String]) -> Vec<&'f Module> {
    file.modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
        .map(|m| &**m)
        .collect()
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Asserts both implementations agree on `modules` under every mismatch
/// set: all of `vars`, each alone, none, and a name the design lacks.
fn assert_agree(modules: &[&Module], vars: &BTreeSet<String>, what: &str) {
    let mut sets = vec![vars.clone(), BTreeSet::new(), set(&["no_such_signal"])];
    sets.extend(vars.iter().map(|v| set(&[v])));
    for mismatch in &sets {
        assert_eq!(
            fault_localization(modules, mismatch),
            oracle(modules, mismatch),
            "{what} under {mismatch:?}"
        );
    }
}

#[test]
fn one_pass_localization_matches_the_reference_on_every_scenario() {
    let mut variants = 0usize;
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let design = &problem.design_modules;
        let vars: BTreeSet<String> = problem
            .oracle
            .vars()
            .iter()
            .map(|v| strip_hierarchy(v))
            .collect();
        assert_agree(
            &design_of(&problem.source, design),
            &vars,
            &format!("{} original", scenario.id),
        );
        // The testbench too: its initial blocks hold the delays,
        // waits, loops and system calls designs rarely use.
        let every: Vec<&Module> = problem.source.modules.iter().map(|m| &**m).collect();
        assert_agree(&every, &vars, &format!("{} with testbench", scenario.id));
        for patch in single_edit_patches(&problem.source, design) {
            let (variant, stats) = apply_patch(&problem.source, design, &patch);
            if stats.applied == 0 {
                continue;
            }
            assert_agree(
                &design_of(&variant, design),
                &vars,
                &format!("{} {patch:?}", scenario.id),
            );
            variants += 1;
        }
    }
    assert!(variants > 1000, "only {variants} variants checked");
}
