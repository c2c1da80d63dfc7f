//! Repair patches: sequences of AST edits parameterized by node numbers.
//!
//! Following GenProg-style repair (and §3 of the paper), a candidate
//! repair is not a program but a *patch*: an ordered list of [`Edit`]s
//! applied to the original design. Edits reference nodes by id; an edit
//! whose target no longer exists (because an earlier edit removed it) is
//! a no-op. Copies inserted by edits receive fresh, deterministic ids so
//! that replaying the same patch always produces the same variant.
//!
//! A variant shares every module its edits did not touch with the
//! original ([`SourceFile`] modules are copy-on-write), and an edit
//! copies a shared module only after finding its target there.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use cirfix_ast::{
    print, visit, BinaryOp, EventExpr, Expr, Module, NodeId, NodeIdGen, Sensitivity, SourceFile,
    Stmt, UnaryOp,
};
use cirfix_logic::{EdgeKind, LiteralBase, LogicVec};
use cirfix_sim::{elaborate, Design, Elaboration, SimError};

/// The sensitivity-list repair templates of Table 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SensTemplate {
    /// Trigger on a signal's rising edge.
    Posedge,
    /// Trigger on a signal's falling edge.
    Negedge,
    /// Trigger on any change to a variable within the block (`@*`).
    AnyChange,
    /// Trigger when a signal is level (any change of that signal).
    Level,
}

/// One AST edit. `Replace`/`Insert` donors are looked up *in the current
/// variant* (the AST after all earlier edits), matching GenProg's patch
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Replace the statement `target` with a copy of statement `donor`.
    ReplaceStmt {
        /// Statement to overwrite.
        target: NodeId,
        /// Statement to copy.
        donor: NodeId,
    },
    /// Replace the expression `target` with a copy of expression `donor`.
    ReplaceExpr {
        /// Expression to overwrite.
        target: NodeId,
        /// Expression to copy.
        donor: NodeId,
    },
    /// Insert a copy of statement `donor` after statement `after`
    /// (which must be a direct child of a `begin…end` block).
    InsertStmt {
        /// Statement to copy.
        donor: NodeId,
        /// Insertion anchor.
        after: NodeId,
    },
    /// Delete statement `target` (replace it with `;`).
    DeleteStmt {
        /// Statement to delete.
        target: NodeId,
    },
    /// Template: negate the condition of an `if`/`while` (Table 1).
    NegateCond {
        /// The conditional statement.
        target: NodeId,
    },
    /// Template: rewrite the sensitivity of an event control (Table 1).
    SetSensitivity {
        /// The event-control statement.
        control: NodeId,
        /// New sensitivity shape.
        kind: SensTemplate,
        /// Signal for `Posedge`/`Negedge`/`Level` (ignored for
        /// `AnyChange`).
        signal: Option<String>,
    },
    /// Template: change a blocking assignment to non-blocking (Table 1).
    BlockingToNonBlocking {
        /// The assignment statement.
        target: NodeId,
    },
    /// Template: change a non-blocking assignment to blocking (Table 1).
    NonBlockingToBlocking {
        /// The assignment statement.
        target: NodeId,
    },
    /// Replace the sensitivity list of the event control `target` with a
    /// copy of the event control `donor`'s sensitivity. PyVerilog
    /// represents sensitivity lists as their own node type, so CirFix's
    /// replace operator can swap lists between always blocks (§3.6:
    /// "an item of the same type").
    ReplaceSensitivity {
        /// Event control whose sensitivity is overwritten.
        target: NodeId,
        /// Event control whose sensitivity is copied.
        donor: NodeId,
    },
    /// Template: increment the value of an identifier or literal by 1
    /// (Table 1, numeric).
    IncrementExpr {
        /// The expression to increment.
        target: NodeId,
    },
    /// Template: decrement the value of an identifier or literal by 1
    /// (Table 1, numeric).
    DecrementExpr {
        /// The expression to decrement.
        target: NodeId,
    },
}

/// An ordered list of edits — one candidate repair.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Patch {
    /// Edits, applied first to last.
    pub edits: Vec<Edit>,
}

impl Patch {
    /// The empty patch (the original design).
    pub fn empty() -> Patch {
        Patch { edits: Vec::new() }
    }

    /// A patch with one edit.
    pub fn single(edit: Edit) -> Patch {
        Patch { edits: vec![edit] }
    }

    /// Returns this patch extended by one edit.
    pub fn with(&self, edit: Edit) -> Patch {
        let mut edits = self.edits.clone();
        edits.push(edit);
        Patch { edits }
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// `true` for the empty patch.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

/// Statistics from applying a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyStats {
    /// Edits whose target was found and rewritten.
    pub applied: usize,
    /// Edits that were no-ops (stale node references).
    pub skipped: usize,
}

/// Applies `patch` to a copy of `original`, editing only the named
/// design modules. Returns the variant and per-edit statistics.
///
/// Edit application is deterministic: inserted copies are renumbered
/// from a generator starting past the original's maximum node id, in
/// edit order.
pub fn apply_patch(
    original: &SourceFile,
    design_modules: &[String],
    patch: &Patch,
) -> (SourceFile, ApplyStats) {
    let start = Variant::unpatched(original, visit::max_id(original) + 1);
    let (variant, stats) = start.with_patch(design_modules, patch);
    (variant.file, stats)
}

/// A design under construction by a patch: the patched file, and the
/// node-id generator positioned after every id its edits allocated.
/// Applying one more edit to a variant yields exactly what replaying
/// the extended patch from the original yields, node ids included.
#[derive(Debug, Clone)]
pub(crate) struct Variant {
    /// The patched source file.
    pub(crate) file: SourceFile,
    /// Where the next edit numbers its fresh nodes.
    ids: NodeIdGen,
}

impl Variant {
    /// The unpatched `original`, numbering fresh nodes from `first_free`
    /// (one past the original's maximum node id).
    fn unpatched(original: &SourceFile, first_free: NodeId) -> Variant {
        Variant {
            file: original.clone(),
            ids: NodeIdGen::starting_at(first_free),
        }
    }

    /// Applies one edit in place; `false` when it was a no-op.
    pub(crate) fn apply(&mut self, design_modules: &[String], edit: &Edit) -> bool {
        apply_edit(&mut self.file, design_modules, edit, &mut self.ids)
    }

    /// Applies every edit of `patch`, first to last.
    fn with_patch(mut self, design_modules: &[String], patch: &Patch) -> (Variant, ApplyStats) {
        let mut stats = ApplyStats::default();
        for edit in &patch.edits {
            if self.apply(design_modules, edit) {
                stats.applied += 1;
            } else {
                stats.skipped += 1;
            }
        }
        (self, stats)
    }
}

/// The original design of a repair problem and what every candidate is
/// measured against, computed once: the first node id free for edits,
/// each module's node count, each design module's canonical print, and,
/// from the first simulation on, the original's elaboration. A variant's
/// module still shared with the original (`Arc::ptr_eq`) reuses these
/// instead of being walked, printed or compiled again.
pub(crate) struct Original<'a> {
    source: &'a SourceFile,
    design_modules: &'a [String],
    first_free: NodeId,
    module_nodes: Vec<usize>,
    prints: Vec<Option<String>>,
    /// The base every variant's design derives from; `None` when the
    /// original does not elaborate.
    base: OnceLock<Option<Elaboration>>,
}

impl<'a> Original<'a> {
    /// Measures `source` once.
    pub(crate) fn new(source: &'a SourceFile, design_modules: &'a [String]) -> Original<'a> {
        let mut max = 0;
        let mut module_nodes = Vec::with_capacity(source.modules.len());
        for m in &source.modules {
            let mut n = 0;
            visit::walk_module(m, &mut |node| {
                n += 1;
                max = max.max(node.id());
            });
            module_nodes.push(n);
        }
        let prints = source
            .modules
            .iter()
            .map(|m| {
                design_modules
                    .contains(&m.name)
                    .then(|| print::module_to_string(m))
            })
            .collect();
        Original {
            source,
            design_modules,
            first_free: max + 1,
            module_nodes,
            prints,
            base: OnceLock::new(),
        }
    }

    /// The elaborated design of `variant`, a variant of the original,
    /// with `top` (the problem's top module, the same on every call) as
    /// top: derived from the original's elaboration, which the first
    /// call builds, or elaborated as a whole when the original does not
    /// elaborate (or its elaboration panics). Equal to
    /// [`elaborate`]`(variant, top)`, error text included.
    pub(crate) fn elaborate(&self, variant: &SourceFile, top: &str) -> Result<Design, SimError> {
        let base = self.base.get_or_init(|| {
            // A panic here would fail every candidate, not only those
            // that keep what makes the original's elaboration panic.
            catch_unwind(AssertUnwindSafe(|| Elaboration::new(self.source, top)))
                .ok()
                .and_then(Result::ok)
        });
        match base {
            Some(base) => base.derive(variant),
            None => elaborate(variant, top),
        }
    }

    /// The original as a variant no edit has touched yet.
    pub(crate) fn unpatched(&self) -> Variant {
        Variant::unpatched(self.source, self.first_free)
    }

    /// Applies `patch` to the original, numbering fresh nodes exactly
    /// as [`apply_patch`] does.
    pub(crate) fn apply(&self, patch: &Patch) -> Variant {
        self.unpatched().with_patch(self.design_modules, patch).0
    }

    /// `true` while a variant's `i`-th module is still the original's.
    fn shared(&self, i: usize, module: &Arc<Module>) -> bool {
        self.source
            .modules
            .get(i)
            .is_some_and(|o| Arc::ptr_eq(o, module))
    }

    /// Total AST node count of the original.
    pub(crate) fn nodes(&self) -> usize {
        self.module_nodes.iter().sum()
    }

    /// Total AST node count of a variant of the original (for bloat
    /// control); shared modules are not walked again.
    pub(crate) fn node_count(&self, file: &SourceFile) -> usize {
        file.modules
            .iter()
            .enumerate()
            .map(|(i, m)| {
                if self.shared(i, m) {
                    self.module_nodes[i]
                } else {
                    let mut n = 0;
                    visit::walk_module(m, &mut |_| n += 1);
                    n
                }
            })
            .sum()
    }

    /// The canonical print of each design module of a variant of the
    /// original, in file order; shared modules are not printed again.
    pub(crate) fn design_prints<'b>(
        &'b self,
        file: &'b SourceFile,
    ) -> impl Iterator<Item = Cow<'b, str>> + 'b {
        file.modules
            .iter()
            .enumerate()
            .filter(|(_, m)| self.design_modules.contains(&m.name))
            .map(|(i, m)| match self.prints.get(i) {
                Some(Some(text)) if self.shared(i, m) => Cow::Borrowed(text.as_str()),
                _ => Cow::Owned(print::module_to_string(m)),
            })
    }
}

fn design_mods<'a>(
    file: &'a SourceFile,
    design_modules: &'a [String],
) -> impl Iterator<Item = &'a Module> {
    file.modules
        .iter()
        .filter(move |m| design_modules.contains(&m.name))
        .map(|m| &**m)
}

fn apply_edit(
    file: &mut SourceFile,
    design_modules: &[String],
    edit: &Edit,
    ids: &mut NodeIdGen,
) -> bool {
    match edit {
        Edit::ReplaceStmt { target, donor } => {
            let Some(mut donor_stmt) = find_stmt_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_stmt(&mut donor_stmt, ids);
            replace_stmt_anywhere(file, design_modules, *target, donor_stmt)
        }
        Edit::ReplaceExpr { target, donor } => {
            let Some(mut donor_expr) = find_expr_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_expr(&mut donor_expr, ids);
            replace_expr_anywhere(file, design_modules, *target, donor_expr)
        }
        Edit::InsertStmt { donor, after } => {
            let Some(mut donor_stmt) = find_stmt_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_stmt(&mut donor_stmt, ids);
            edit_design_module(
                file,
                design_modules,
                donor_stmt,
                |m| visit::find_stmt(m, *after).is_some(),
                |m, new| visit::insert_stmt_after(m, *after, new),
            )
        }
        Edit::DeleteStmt { target } => {
            let null = Stmt::Null { id: ids.fresh() };
            replace_stmt_anywhere(file, design_modules, *target, null)
        }
        Edit::NegateCond { target } => {
            let Some(stmt) = find_stmt_anywhere(file, design_modules, *target) else {
                return false;
            };
            let negated = match stmt {
                Stmt::If {
                    id,
                    cond,
                    then_s,
                    else_s,
                } => Stmt::If {
                    id,
                    cond: Expr::Unary {
                        id: ids.fresh(),
                        op: UnaryOp::LogicNot,
                        arg: Box::new(cond),
                    },
                    then_s,
                    else_s,
                },
                Stmt::While { id, cond, body } => Stmt::While {
                    id,
                    cond: Expr::Unary {
                        id: ids.fresh(),
                        op: UnaryOp::LogicNot,
                        arg: Box::new(cond),
                    },
                    body,
                },
                _ => return false,
            };
            replace_stmt_anywhere(file, design_modules, *target, negated)
        }
        Edit::SetSensitivity {
            control,
            kind,
            signal,
        } => {
            let Some(stmt) = find_stmt_anywhere(file, design_modules, *control) else {
                return false;
            };
            let Stmt::EventControl { id, body, .. } = stmt else {
                return false;
            };
            let sensitivity = match kind {
                SensTemplate::AnyChange => Sensitivity::Star,
                SensTemplate::Posedge | SensTemplate::Negedge | SensTemplate::Level => {
                    let Some(name) = signal else { return false };
                    let edge = match kind {
                        SensTemplate::Posedge => EdgeKind::Pos,
                        SensTemplate::Negedge => EdgeKind::Neg,
                        _ => EdgeKind::Any,
                    };
                    Sensitivity::List(vec![EventExpr {
                        id: ids.fresh(),
                        edge,
                        expr: Expr::Ident {
                            id: ids.fresh(),
                            name: name.clone(),
                        },
                    }])
                }
            };
            let new_stmt = Stmt::EventControl {
                id,
                sensitivity,
                body,
            };
            replace_stmt_anywhere(file, design_modules, *control, new_stmt)
        }
        Edit::BlockingToNonBlocking { target } => {
            let Some(stmt) = find_stmt_anywhere(file, design_modules, *target) else {
                return false;
            };
            let Stmt::Blocking {
                id,
                lhs,
                delay,
                rhs,
            } = stmt
            else {
                return false;
            };
            let new_stmt = Stmt::NonBlocking {
                id,
                lhs,
                delay,
                rhs,
            };
            replace_stmt_anywhere(file, design_modules, *target, new_stmt)
        }
        Edit::NonBlockingToBlocking { target } => {
            let Some(stmt) = find_stmt_anywhere(file, design_modules, *target) else {
                return false;
            };
            let Stmt::NonBlocking {
                id,
                lhs,
                delay,
                rhs,
            } = stmt
            else {
                return false;
            };
            let new_stmt = Stmt::Blocking {
                id,
                lhs,
                delay,
                rhs,
            };
            replace_stmt_anywhere(file, design_modules, *target, new_stmt)
        }
        Edit::ReplaceSensitivity { target, donor } => {
            let Some(Stmt::EventControl {
                sensitivity: donor_sens,
                ..
            }) = find_stmt_anywhere(file, design_modules, *donor)
            else {
                return false;
            };
            let Some(Stmt::EventControl { id, body, .. }) =
                find_stmt_anywhere(file, design_modules, *target)
            else {
                return false;
            };
            let mut sensitivity = donor_sens;
            if let Sensitivity::List(events) = &mut sensitivity {
                for ev in events.iter_mut() {
                    ev.id = ids.fresh();
                    cirfix_ast::visit::renumber_expr(&mut ev.expr, ids);
                }
            }
            let new_stmt = Stmt::EventControl {
                id,
                sensitivity,
                body,
            };
            replace_stmt_anywhere(file, design_modules, *target, new_stmt)
        }
        Edit::IncrementExpr { target } => adjust_expr(file, design_modules, *target, ids, true),
        Edit::DecrementExpr { target } => adjust_expr(file, design_modules, *target, ids, false),
    }
}

/// Increments or decrements an expression: literals are folded in place
/// (keeping their width and id), other expressions are wrapped in `± 1`.
fn adjust_expr(
    file: &mut SourceFile,
    design_modules: &[String],
    target: NodeId,
    ids: &mut NodeIdGen,
    increment: bool,
) -> bool {
    let Some(expr) = find_expr_anywhere(file, design_modules, target) else {
        return false;
    };
    let new_expr = match expr {
        Expr::Literal {
            id,
            value,
            base,
            sized,
        } => {
            let one = LogicVec::from_u64(1, value.width());
            let new_value = if increment {
                value.add(&one)
            } else {
                value.sub(&one)
            };
            Expr::Literal {
                id,
                value: new_value.resized(value.width()),
                base,
                sized,
            }
        }
        other => {
            let one = Expr::Literal {
                id: ids.fresh(),
                value: LogicVec::from_u64(1, 32),
                base: LiteralBase::Decimal,
                sized: false,
            };
            Expr::Binary {
                id: ids.fresh(),
                op: if increment {
                    BinaryOp::Add
                } else {
                    BinaryOp::Sub
                },
                lhs: Box::new(other),
                rhs: Box::new(one),
            }
        }
    };
    replace_expr_anywhere(file, design_modules, target, new_expr)
}

/// Finds and clones a statement by id, searching the design modules
/// first and then the rest of the file (donor code may come from any
/// module — including the testbench when fix localization is disabled).
pub fn find_stmt_anywhere(
    file: &SourceFile,
    design_modules: &[String],
    id: NodeId,
) -> Option<Stmt> {
    for m in design_mods(file, design_modules) {
        if let Some(s) = visit::find_stmt(m, id) {
            return Some(s.clone());
        }
    }
    for m in file
        .modules
        .iter()
        .filter(|m| !design_modules.contains(&m.name))
    {
        if let Some(s) = visit::find_stmt(m, id) {
            return Some(s.clone());
        }
    }
    None
}

/// Finds and clones an expression by id; search order as in
/// [`find_stmt_anywhere`].
pub fn find_expr_anywhere(
    file: &SourceFile,
    design_modules: &[String],
    id: NodeId,
) -> Option<Expr> {
    for m in design_mods(file, design_modules) {
        if let Some(e) = visit::find_expr(m, id) {
            return Some(e.clone());
        }
    }
    for m in file
        .modules
        .iter()
        .filter(|m| !design_modules.contains(&m.name))
    {
        if let Some(e) = visit::find_expr(m, id) {
            return Some(e.clone());
        }
    }
    None
}

fn replace_stmt_anywhere(
    file: &mut SourceFile,
    design_modules: &[String],
    target: NodeId,
    new: Stmt,
) -> bool {
    edit_design_module(
        file,
        design_modules,
        new,
        |m| visit::find_stmt(m, target).is_some(),
        |m, new| visit::replace_stmt(m, target, new),
    )
}

fn replace_expr_anywhere(
    file: &mut SourceFile,
    design_modules: &[String],
    target: NodeId,
    new: Expr,
) -> bool {
    edit_design_module(
        file,
        design_modules,
        new,
        |m| visit::find_expr(m, target).is_some(),
        |m, new| visit::replace_expr(m, target, new),
    )
}

/// Runs `edit` on the design modules in order until it places `new`,
/// which each miss hands back for the next module. A module shared with
/// another file is copied only after `contains` finds the edit's target
/// in it, so an edit never copies a module it misses.
fn edit_design_module<T>(
    file: &mut SourceFile,
    design_modules: &[String],
    mut new: T,
    contains: impl Fn(&Module) -> bool,
    edit: impl Fn(&mut Module, T) -> Option<T>,
) -> bool {
    for name in design_modules {
        let Some(slot) = file.modules.iter_mut().find(|m| m.name == *name) else {
            continue;
        };
        if Arc::get_mut(slot).is_none() && !contains(slot) {
            continue;
        }
        match edit(Arc::make_mut(slot), new) {
            Some(back) => new = back,
            None => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_ast::print;
    use cirfix_parser::parse;

    const SRC: &str = r#"
        module m (c, q);
            input c;
            output reg [3:0] q;
            always @(posedge c)
            begin
                if (c == 1'b1) begin
                    q <= q + 4'd1;
                end
                q <= 4'd0;
            end
        endmodule
        module tb;
            reg c;
            wire [3:0] q;
            m dut (c, q);
            initial c = 0;
        endmodule
    "#;

    fn setup() -> (SourceFile, Vec<String>) {
        (parse(SRC).unwrap(), vec!["m".to_string()])
    }

    fn find_stmt_id(file: &SourceFile, pred: impl Fn(&Stmt) -> bool) -> NodeId {
        for m in &file.modules {
            for s in visit::stmts_of_module(m) {
                if pred(s) {
                    return s.id();
                }
            }
        }
        panic!("statement not found");
    }

    #[test]
    fn empty_patch_is_identity() {
        let (file, mods) = setup();
        let (variant, stats) = apply_patch(&file, &mods, &Patch::empty());
        assert_eq!(
            print::source_to_string(&variant),
            print::source_to_string(&file)
        );
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn delete_replaces_with_null() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::DeleteStmt { target });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        assert!(!print::source_to_string(&variant).contains("if (c == 1'b1)"));
    }

    #[test]
    fn stale_edits_are_noops() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch {
            edits: vec![
                Edit::DeleteStmt { target },
                Edit::NegateCond { target }, // now stale
            ],
        };
        let (_, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn negate_cond_wraps_condition() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::NegateCond { target });
        let (variant, _) = apply_patch(&file, &mods, &patch);
        assert!(print::source_to_string(&variant).contains("!(c == 1'b1)"));
    }

    #[test]
    fn sensitivity_templates_rewrite_event_control() {
        let (file, mods) = setup();
        let control = find_stmt_id(&file, |s| matches!(s, Stmt::EventControl { .. }));
        for (kind, signal, needle) in [
            (SensTemplate::Negedge, Some("c"), "@(negedge c)"),
            (SensTemplate::Posedge, Some("c"), "@(posedge c)"),
            (SensTemplate::Level, Some("c"), "@(c)"),
            (SensTemplate::AnyChange, None, "@*"),
        ] {
            let patch = Patch::single(Edit::SetSensitivity {
                control,
                kind: kind.clone(),
                signal: signal.map(str::to_string),
            });
            let (variant, stats) = apply_patch(&file, &mods, &patch);
            assert_eq!(stats.applied, 1, "{kind:?}");
            assert!(
                print::source_to_string(&variant).contains(needle),
                "{kind:?} should produce {needle}"
            );
        }
    }

    #[test]
    fn assignment_kind_templates_swap() {
        let (file, mods) = setup();
        let nba = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Binary { .. },
                    ..
                }
            )
        });
        let patch = Patch::single(Edit::NonBlockingToBlocking { target: nba });
        let (variant, _) = apply_patch(&file, &mods, &patch);
        assert!(print::source_to_string(&variant).contains("q = q + 4'd1"));
        // And back.
        let (file2, _) = apply_patch(&file, &mods, &patch);
        let blocking = find_stmt_id(&file2, |s| {
            matches!(
                s,
                Stmt::Blocking {
                    rhs: Expr::Binary { .. },
                    ..
                }
            )
        });
        let patch2 = Patch::single(Edit::BlockingToNonBlocking { target: blocking });
        let (variant2, _) = apply_patch(&file2, &mods, &patch2);
        assert!(print::source_to_string(&variant2).contains("q <= q + 4'd1"));
    }

    #[test]
    fn numeric_templates_fold_literals() {
        let (file, mods) = setup();
        let lit = {
            let m = file.module("m").unwrap();
            visit::exprs_of_module(m)
                .into_iter()
                .find(|e| matches!(e, Expr::Literal { value, .. } if value.to_u64() == Some(1) && value.width() == 4))
                .map(|e| e.id())
                .unwrap()
        };
        let (variant, _) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::IncrementExpr { target: lit }),
        );
        assert!(print::source_to_string(&variant).contains("q + 4'd2"));
        let (variant, _) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::DecrementExpr { target: lit }),
        );
        assert!(print::source_to_string(&variant).contains("q + 4'd0"));
    }

    #[test]
    fn numeric_templates_wrap_identifiers() {
        let (file, mods) = setup();
        let ident = {
            let m = file.module("m").unwrap();
            visit::exprs_of_module(m)
                .into_iter()
                .find(|e| matches!(e, Expr::Ident { name, .. } if name == "q"))
                .map(|e| e.id())
                .unwrap()
        };
        let (variant, stats) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::IncrementExpr { target: ident }),
        );
        assert_eq!(stats.applied, 1);
        let printed = print::source_to_string(&variant);
        assert!(printed.contains("q + 1"), "{printed}");
    }

    #[test]
    fn insert_copies_and_renumbers() {
        let (file, mods) = setup();
        let donor = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Literal { .. },
                    ..
                }
            )
        });
        let anchor = donor; // insert after itself (it is a block child)
        let patch = Patch::single(Edit::InsertStmt {
            donor,
            after: anchor,
        });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        // Two copies of `q <= 4'd0;` now, with unique ids everywhere.
        let printed = print::source_to_string(&variant);
        assert_eq!(printed.matches("q <= 4'd0;").count(), 2);
        let mut ids = Vec::new();
        visit::walk_source(&variant, &mut |n| ids.push(n.id()));
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "ids stay unique after insertion");
    }

    #[test]
    fn replace_is_deterministic() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Literal { .. },
                    ..
                }
            )
        });
        let donor = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::ReplaceStmt { target, donor });
        let (v1, _) = apply_patch(&file, &mods, &patch);
        let (v2, _) = apply_patch(&file, &mods, &patch);
        assert_eq!(v1, v2, "patch replay must be deterministic");
    }

    /// The node an edit rewrites (its target, anchor or control).
    fn edit_target(edit: &Edit) -> NodeId {
        match edit {
            Edit::ReplaceStmt { target, .. }
            | Edit::ReplaceExpr { target, .. }
            | Edit::DeleteStmt { target }
            | Edit::NegateCond { target }
            | Edit::BlockingToNonBlocking { target }
            | Edit::NonBlockingToBlocking { target }
            | Edit::ReplaceSensitivity { target, .. }
            | Edit::IncrementExpr { target }
            | Edit::DecrementExpr { target } => *target,
            Edit::InsertStmt { after, .. } => *after,
            Edit::SetSensitivity { control, .. } => *control,
        }
    }

    #[test]
    fn a_child_built_from_its_applied_parent_equals_a_replay() {
        use crate::faultloc::FaultLoc;
        use crate::mutation::{mutate, MutationParams};
        use crate::templates::random_template;
        use rand::{Rng, SeedableRng};

        for (k, scenario) in cirfix_benchmarks::scenarios().iter().enumerate() {
            let problem = scenario.problem().expect("scenario builds");
            let (source, design) = (&problem.source, &problem.design_modules);
            let before: Vec<Module> = source.modules.iter().map(|m| (**m).clone()).collect();
            let original = Original::new(source, design);
            let fl = FaultLoc::default();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xA991 + k as u64);
            for _ in 0..6 {
                // A lineage: each step draws one edit on the applied
                // parent, exactly as reproduction does.
                let mut parent = original.unpatched();
                let mut patch = Patch::empty();
                let mut touched = vec![false; source.modules.len()];
                for _ in 0..=rng.gen_range(0..=8usize) {
                    let drawn = if rng.gen_bool(0.5) {
                        random_template(&parent.file, design, &fl, &mut rng)
                    } else {
                        mutate(
                            &parent.file,
                            design,
                            &fl,
                            MutationParams::default(),
                            &mut rng,
                        )
                    };
                    let Some(edit) = drawn else { continue };
                    let target = edit_target(&edit);
                    for (i, m) in parent.file.modules.iter().enumerate() {
                        if design.contains(&m.name)
                            && (visit::find_stmt(m, target).is_some()
                                || visit::find_expr(m, target).is_some())
                        {
                            touched[i] = true;
                        }
                    }
                    patch = patch.with(edit.clone());
                    let mut child = parent.clone();
                    child.apply(design, &edit);
                    let (replayed, _) = apply_patch(source, design, &patch);
                    assert_eq!(child.file, replayed, "{}: {patch:?}", scenario.id);
                    assert_eq!(child.ids, original.apply(&patch).ids);
                    for (i, m) in child.file.modules.iter().enumerate() {
                        assert!(
                            touched[i] || Arc::ptr_eq(m, &source.modules[i]),
                            "{}: module {} was copied though no edit of {patch:?} targets it",
                            scenario.id,
                            m.name
                        );
                    }
                    parent = child;
                }
            }
            let after: Vec<Module> = source.modules.iter().map(|m| (**m).clone()).collect();
            assert_eq!(before, after, "{}: the original changed", scenario.id);
        }
    }

    #[test]
    fn children_of_a_shared_variant_equal_replays_and_leave_it_intact() {
        use crate::faultloc::FaultLoc;
        use crate::mutation::{mutate, MutationParams};
        use crate::templates::random_template;
        use rand::{Rng, SeedableRng};

        for (k, scenario) in cirfix_benchmarks::scenarios().iter().enumerate() {
            let problem = scenario.problem().expect("scenario builds");
            let (source, design) = (&problem.source, &problem.design_modules);
            let original = Original::new(source, design);
            let fl = FaultLoc::default();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED + k as u64);
            let draw = |parent: &Variant, rng: &mut rand::rngs::StdRng| {
                if rng.gen_bool(0.5) {
                    random_template(&parent.file, design, &fl, rng)
                } else {
                    mutate(&parent.file, design, &fl, MutationParams::default(), rng)
                }
            };
            // Each generation keeps its children's variants and draws
            // the next generation from them, so siblings share their
            // parent's modules until an edit copies one.
            let mut population: Vec<(Patch, Variant)> =
                vec![(Patch::empty(), original.unpatched())];
            for generation in 0..3 {
                let mut children = Vec::new();
                for _ in 0..12 {
                    let (patch, kept) = &population[rng.gen_range(0..population.len())];
                    let Some(edit) = draw(kept, &mut rng) else {
                        continue;
                    };
                    // The child starts as a copy of the kept variant,
                    // sharing its modules, and applies its one edit.
                    let mut child = kept.clone();
                    child.apply(design, &edit);
                    let patch = patch.with(edit);
                    let replayed = original.apply(&patch);
                    assert_eq!(child.file, replayed.file, "{}: {patch:?}", scenario.id);
                    assert_eq!(child.ids, replayed.ids, "{}: {patch:?}", scenario.id);
                    children.push((patch, child));
                }
                // Building children left every kept variant as it was.
                for (patch, kept) in &population {
                    let replayed = original.apply(patch);
                    assert_eq!(kept.file, replayed.file, "{} gen {generation}", scenario.id);
                    assert_eq!(kept.ids, replayed.ids, "{} gen {generation}", scenario.id);
                }
                if !children.is_empty() {
                    population = children;
                }
            }
        }
    }

    #[test]
    fn testbench_is_never_modified() {
        let (file, mods) = setup();
        // Target a statement inside the testbench: must be a no-op.
        let tb_stmt = {
            let tb = file.module("tb").unwrap();
            visit::stmts_of_module(tb)[0].id()
        };
        let patch = Patch::single(Edit::DeleteStmt { target: tb_stmt });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 0);
        assert_eq!(
            print::source_to_string(&variant),
            print::source_to_string(&file)
        );
    }
}
