//! Mutation operators (§3.4) and fix localization (§3.6).
//!
//! The mutate operator picks one of three sub-types — *delete*, *insert*,
//! *replace* — using user-provided thresholds (0.3/0.3/0.4 by default).
//! Fix localization restricts where donor code comes from and where it
//! may go: statements are the only insertion sources, insertions land
//! only inside procedural blocks, and replacements pair nodes of
//! compatible kinds from the *same module*. Disabling it (the paper's
//! §3.6 ablation: 35% → 10% invalid mutants) lets donors come from any
//! module — including the testbench, whose names do not resolve in the
//! design — and pairs arbitrary node kinds.

use std::mem::discriminant;

use cirfix_ast::{visit, Expr, Module, NodeId, SourceFile, Stmt};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::faultloc::FaultLoc;
use crate::patch::Edit;

/// Thresholds selecting the mutation sub-type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationParams {
    /// Probability mass of the delete operator.
    pub delete_threshold: f64,
    /// Probability mass of the insert operator.
    pub insert_threshold: f64,
    /// Probability mass of the replace operator.
    pub replace_threshold: f64,
    /// Apply fix localization (§3.6). Disable only for the ablation.
    pub fix_localization: bool,
}

impl Default for MutationParams {
    fn default() -> MutationParams {
        MutationParams {
            delete_threshold: 0.3,
            insert_threshold: 0.3,
            replace_threshold: 0.4,
            fix_localization: true,
        }
    }
}

/// Statement ids inside the fault-localization set (falling back to all
/// statements when the FL set is empty).
fn fl_stmt_ids(modules: &[&Module], fl: &FaultLoc) -> Vec<NodeId> {
    let mut out = Vec::new();
    for m in modules {
        for s in visit::stmts_of_module(m) {
            if fl.nodes.is_empty() || fl.nodes.contains(&s.id()) {
                out.push(s.id());
            }
        }
    }
    out
}

fn fl_expr_ids(modules: &[&Module], fl: &FaultLoc) -> Vec<NodeId> {
    let mut out = Vec::new();
    for m in modules {
        for e in visit::exprs_of_module(m) {
            if fl.nodes.is_empty() || fl.nodes.contains(&e.id()) {
                out.push(e.id());
            }
        }
    }
    out
}

/// Statements that are direct children of a `begin…end` block — the only
/// legal insertion anchors under fix localization.
fn block_child_ids(module: &Module) -> Vec<NodeId> {
    let mut out = Vec::new();
    for s in visit::stmts_of_module(module) {
        if let Stmt::Block { stmts, .. } = s {
            for c in stmts {
                out.push(c.id());
            }
        }
    }
    out
}

/// Generates one mutation edit for a variant (`mutate` in Algorithm 1).
/// Returns `None` when no mutation site exists (degenerate designs).
pub fn mutate(
    file: &SourceFile,
    design_modules: &[String],
    fl: &FaultLoc,
    params: MutationParams,
    rng: &mut impl Rng,
) -> Option<Edit> {
    let design: Vec<&Module> = file
        .modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
        .map(|m| &**m)
        .collect();
    if design.is_empty() {
        return None;
    }
    // Donor pool: with fix localization, the design modules only; the
    // ablation draws from every module (testbench included).
    let donor_pool: Vec<&Module> = if params.fix_localization {
        design.clone()
    } else {
        file.modules.iter().map(|m| &**m).collect()
    };

    let total = params.delete_threshold + params.insert_threshold + params.replace_threshold;
    let roll: f64 = rng.gen::<f64>() * total.max(f64::MIN_POSITIVE);

    if roll < params.delete_threshold {
        let targets = fl_stmt_ids(&design, fl);
        let target = *targets.choose(rng)?;
        Some(Edit::DeleteStmt { target })
    } else if roll < params.delete_threshold + params.insert_threshold {
        // Donor: any statement (statement types are the only insertion
        // sources, §3.6). Anchor: a block child in the FL set when fix
        // localization is on; any statement otherwise.
        let donors: Vec<NodeId> = donor_pool
            .iter()
            .flat_map(|m| visit::stmts_of_module(m))
            .map(Stmt::id)
            .collect();
        let donor = *donors.choose(rng)?;
        let anchors: Vec<NodeId> = if params.fix_localization {
            let blocks: Vec<NodeId> = design
                .iter()
                .flat_map(|m| block_child_ids(m))
                .filter(|id| fl.nodes.is_empty() || fl.nodes.contains(id))
                .collect();
            if blocks.is_empty() {
                design.iter().flat_map(|m| block_child_ids(m)).collect()
            } else {
                blocks
            }
        } else {
            design
                .iter()
                .flat_map(|m| visit::stmts_of_module(m))
                .map(Stmt::id)
                .collect()
        };
        let after = *anchors.choose(rng)?;
        Some(Edit::InsertStmt { donor, after })
    } else {
        // Replace: statements, expressions, or (when the design has more
        // than one event control) sensitivity lists — the latter mirrors
        // PyVerilog's SensList node, a replaceable item of its own type.
        let controls: Vec<NodeId> = design
            .iter()
            .flat_map(|m| visit::stmts_of_module(m))
            .filter(|s| matches!(s, Stmt::EventControl { .. }))
            .map(Stmt::id)
            .collect();
        if controls.len() >= 2 && rng.gen_bool(0.15) {
            let in_fl: Vec<NodeId> = controls
                .iter()
                .copied()
                .filter(|id| fl.nodes.is_empty() || fl.nodes.contains(id))
                .collect();
            let pool = if in_fl.is_empty() { &controls } else { &in_fl };
            let target = *pool.choose(rng)?;
            let donor = *controls
                .iter()
                .filter(|c| **c != target)
                .collect::<Vec<_>>()
                .choose(rng)?;
            return Some(Edit::ReplaceSensitivity {
                target,
                donor: *donor,
            });
        }
        if rng.gen_bool(0.5) {
            let targets = fl_stmt_ids(&design, fl);
            let target = *targets.choose(rng)?;
            let donors: Vec<NodeId> = donor_pool
                .iter()
                .flat_map(|m| visit::stmts_of_module(m))
                .map(Stmt::id)
                .filter(|d| *d != target)
                .collect();
            let donor = *donors.choose(rng)?;
            Some(Edit::ReplaceStmt { target, donor })
        } else {
            let targets = fl_expr_ids(&design, fl);
            let target = *targets.choose(rng)?;
            let target_expr = crate::patch::find_expr_anywhere(file, design_modules, target)?;
            let donors: Vec<NodeId> = donor_pool
                .iter()
                .flat_map(|m| visit::exprs_of_module(m))
                .filter(|e| {
                    e.id() != target
                        && (!params.fix_localization
                            || discriminant(*e) == discriminant(&target_expr))
                })
                .map(Expr::id)
                .collect();
            let donor = *donors.choose(rng)?;
            Some(Edit::ReplaceExpr { target, donor })
        }
    }
}

/// All statement ids of the design modules — used by the brute-force
/// baseline and by tests.
pub fn all_stmt_ids(file: &SourceFile, design_modules: &[String]) -> Vec<NodeId> {
    file.modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
        .flat_map(|m| visit::stmts_of_module(m))
        .map(Stmt::id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultloc::fault_localization;
    use crate::patch::{apply_patch, Patch};
    use cirfix_parser::parse;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    const SRC: &str = r#"
        module m (c, r, q);
            input c, r;
            output reg [3:0] q;
            always @(posedge c)
            begin
                if (r) begin
                    q <= 4'd0;
                end
                else begin
                    q <= q + 4'd1;
                end
            end
        endmodule
        module tb;
            reg c, r;
            wire [3:0] q;
            event tb_only_event;
            m dut (c, r, q);
            initial begin
                c = 0;
                -> tb_only_event;
            end
        endmodule
    "#;

    fn setup() -> (cirfix_ast::SourceFile, Vec<String>, FaultLoc) {
        let file = parse(SRC).unwrap();
        let mismatch: BTreeSet<String> = ["q".to_string()].into();
        let fl = fault_localization(&[file.module("m").unwrap()], &mismatch);
        (file, vec!["m".to_string()], fl)
    }

    #[test]
    fn mutate_produces_each_subtype() {
        let (file, mods, fl) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut kinds = BTreeSet::new();
        for _ in 0..200 {
            if let Some(edit) = mutate(&file, &mods, &fl, MutationParams::default(), &mut rng) {
                kinds.insert(match edit {
                    Edit::DeleteStmt { .. } => "delete",
                    Edit::InsertStmt { .. } => "insert",
                    Edit::ReplaceStmt { .. } | Edit::ReplaceExpr { .. } => "replace",
                    _ => "other",
                });
            }
        }
        assert!(kinds.contains("delete"));
        assert!(kinds.contains("insert"));
        assert!(kinds.contains("replace"));
        assert!(!kinds.contains("other"));
    }

    #[test]
    fn fixloc_keeps_donors_in_design_modules() {
        let (file, mods, fl) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let tb = file.module("tb").unwrap();
        let tb_ids: BTreeSet<_> = visit::stmts_of_module(tb)
            .iter()
            .map(|s| s.id())
            .chain(visit::exprs_of_module(tb).iter().map(|e| e.id()))
            .collect();
        for _ in 0..300 {
            let params = MutationParams {
                fix_localization: true,
                ..MutationParams::default()
            };
            if let Some(edit) = mutate(&file, &mods, &fl, params, &mut rng) {
                let donor = match edit {
                    Edit::InsertStmt { donor, .. }
                    | Edit::ReplaceStmt { donor, .. }
                    | Edit::ReplaceExpr { donor, .. } => Some(donor),
                    _ => None,
                };
                if let Some(d) = donor {
                    assert!(
                        !tb_ids.contains(&d),
                        "fix localization must not pick testbench donors"
                    );
                }
            }
        }
    }

    #[test]
    fn without_fixloc_testbench_donors_appear() {
        let (file, mods, fl) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let tb = file.module("tb").unwrap();
        let tb_ids: BTreeSet<_> = visit::stmts_of_module(tb)
            .iter()
            .map(|s| s.id())
            .chain(visit::exprs_of_module(tb).iter().map(|e| e.id()))
            .collect();
        let params = MutationParams {
            fix_localization: false,
            ..MutationParams::default()
        };
        let mut found_tb_donor = false;
        for _ in 0..500 {
            if let Some(
                Edit::InsertStmt { donor, .. }
                | Edit::ReplaceStmt { donor, .. }
                | Edit::ReplaceExpr { donor, .. },
            ) = mutate(&file, &mods, &fl, params, &mut rng)
            {
                if tb_ids.contains(&donor) {
                    found_tb_donor = true;
                    break;
                }
            }
        }
        assert!(found_tb_donor, "ablation must draw testbench donors");
    }

    #[test]
    fn mutations_apply_cleanly() {
        let (file, mods, fl) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut applied = 0;
        for _ in 0..100 {
            if let Some(edit) = mutate(&file, &mods, &fl, MutationParams::default(), &mut rng) {
                let (_, stats) = apply_patch(&file, &mods, &Patch::single(edit));
                applied += stats.applied;
            }
        }
        assert!(applied > 80, "most mutations apply: {applied}/100");
    }

    #[test]
    fn expr_replacement_respects_discriminants_under_fixloc() {
        let (file, mods, fl) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let params = MutationParams::default();
            if let Some(Edit::ReplaceExpr { target, donor }) =
                mutate(&file, &mods, &fl, params, &mut rng)
            {
                let t = crate::patch::find_expr_anywhere(&file, &mods, target).unwrap();
                let d = crate::patch::find_expr_anywhere(&file, &mods, donor).unwrap();
                assert_eq!(discriminant(&t), discriminant(&d));
            }
        }
    }
}
