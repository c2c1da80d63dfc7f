//! Feedback from mined fix patterns (`cirfix mine`) into the search.
//!
//! `cirfix-mine` distills the repair corpus into ranked [`FixPattern`]s
//! — abstracted edit scripts with support counts. This module turns
//! them into two extra candidate sources for Algorithm 1:
//!
//! * **Template boosting** — every mined step *endorses* one or more of
//!   the paper's Table 1 template classes (a sensitivity-list `UPD`
//!   endorses `SetSensitivity` with the matching edge kind, a
//!   condition-operator `UPD` endorses `NegateCond`, …). When patterns
//!   are loaded, [`mined_random_template`] draws from the applicable
//!   template instances with endorsed classes weighted by
//!   `1 + min(support, 16)` instead of uniformly.
//! * **Mutation prior** — the `(node kind, parent kind, operator
//!   class)` anchor triple of each mined step is matched against the
//!   faulty design's nodes; matching nodes get a sampling weight that
//!   composes *multiplicatively* with the [`lint
//!   prior`](crate::lint_prior) in `mutate_with_prior`
//!   ([`mined_prior`], [`compose_priors`]).
//!
//! Both sources are inert when the pattern list is empty: repair runs
//! without `--mined-patterns` draw from exactly the same RNG stream as
//! before the feature existed.

use std::collections::BTreeMap;
use std::path::Path;

use cirfix_ast::{Expr, Item, Module, NodeId, SourceFile, Stmt};
use cirfix_mine::{expr_kind, expr_op_class, stmt_kind, Action, EditStep, FixPattern};
use rand::Rng;

use crate::faultloc::FaultLoc;
use crate::patch::{Edit, SensTemplate};
use crate::templates::applicable_templates;

/// Ceiling on the per-class support boost: a pattern seen 16 times is
/// as convincing as one seen 1000 times.
pub const MINED_BOOST_CAP: u64 = 16;

/// Ceiling on the weighted template pool (guards against pathological
/// corpora endorsing everything on a large design).
const MAX_CANDIDATES: usize = 512;

/// Loads a `patterns.jsonl` file written by `cirfix mine`, dropping
/// corrupt records silently (the segment framing already isolates
/// them). A missing file is an error here — the user asked for it.
pub fn load_mined_patterns(path: &Path) -> std::io::Result<Vec<FixPattern>> {
    if !path.exists() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("mined patterns file not found: {}", path.display()),
        ));
    }
    let (patterns, _health) = cirfix_mine::load_patterns_file(path)?;
    Ok(patterns)
}

/// The Table 1 template classes a mined edit step can endorse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TemplateClass {
    NegateCond,
    SensPosedge,
    SensNegedge,
    SensAnyChange,
    SensLevel,
    BlockingToNonBlocking,
    NonBlockingToBlocking,
    IncrementExpr,
    DecrementExpr,
}

/// Maps a concrete template instance to its class.
fn edit_class(e: &Edit) -> Option<TemplateClass> {
    match e {
        Edit::NegateCond { .. } => Some(TemplateClass::NegateCond),
        Edit::SetSensitivity { kind, .. } => Some(match kind {
            SensTemplate::Posedge => TemplateClass::SensPosedge,
            SensTemplate::Negedge => TemplateClass::SensNegedge,
            SensTemplate::AnyChange => TemplateClass::SensAnyChange,
            SensTemplate::Level => TemplateClass::SensLevel,
        }),
        Edit::BlockingToNonBlocking { .. } => Some(TemplateClass::BlockingToNonBlocking),
        Edit::NonBlockingToBlocking { .. } => Some(TemplateClass::NonBlockingToBlocking),
        Edit::IncrementExpr { .. } => Some(TemplateClass::IncrementExpr),
        Edit::DecrementExpr { .. } => Some(TemplateClass::DecrementExpr),
        _ => None,
    }
}

/// Which template classes one mined step endorses. The mapping reads
/// the step's abstracted skeletons: a sensitivity rewrite whose
/// repaired side says `posedge` endorses the posedge template, an
/// assignment whose repaired side gained `<=` endorses
/// blocking-to-non-blocking, and so on.
fn step_classes(step: &EditStep) -> Vec<TemplateClass> {
    let mut out = Vec::new();
    if step.action != Action::Upd {
        return out;
    }
    match step.node_kind.as_str() {
        "event_control" => {
            if step.after.contains("posedge") {
                out.push(TemplateClass::SensPosedge);
            }
            if step.after.contains("negedge") {
                out.push(TemplateClass::SensNegedge);
            }
            if step.after == "@*" {
                out.push(TemplateClass::SensAnyChange);
            }
            if out.is_empty() {
                out.push(TemplateClass::SensLevel);
            }
        }
        "blocking" => {
            if step.after.contains("<=") {
                out.push(TemplateClass::BlockingToNonBlocking);
            }
        }
        "nonblocking" => {
            if step.after.contains('=') && !step.after.contains("<=") {
                out.push(TemplateClass::NonBlockingToBlocking);
            }
        }
        "if" | "while" => out.push(TemplateClass::NegateCond),
        _ => match step.op_class.as_str() {
            // A changed comparison or logical connective is what
            // NegateCond approximates.
            "equality" | "relational" | "logic" => out.push(TemplateClass::NegateCond),
            // A changed arithmetic subterm or literal is what the
            // numeric templates approximate.
            "arith" => {
                out.push(TemplateClass::IncrementExpr);
                out.push(TemplateClass::DecrementExpr);
            }
            _ => {
                if step.node_kind == "literal" {
                    out.push(TemplateClass::IncrementExpr);
                    out.push(TemplateClass::DecrementExpr);
                } else {
                    // A subterm rewritten into `± constant` form (the
                    // skeletons abstract constants as `$cN`) endorses
                    // the matching numeric nudge even when the anchor
                    // node itself is not arithmetic — the search often
                    // repairs an off-by-one by nudging an identifier.
                    if step.after.contains("+$c") && !step.before.contains("+$c") {
                        out.push(TemplateClass::IncrementExpr);
                    }
                    if step.after.contains("-$c") && !step.before.contains("-$c") {
                        out.push(TemplateClass::DecrementExpr);
                    }
                }
            }
        },
    }
    out
}

/// Folds the pattern list into a per-class support table (max support
/// across the endorsing patterns).
fn endorsements(patterns: &[FixPattern]) -> BTreeMap<TemplateClass, u64> {
    let mut out: BTreeMap<TemplateClass, u64> = BTreeMap::new();
    for p in patterns {
        for step in &p.steps {
            for class in step_classes(step) {
                let e = out.entry(class).or_insert(0);
                *e = (*e).max(p.support);
            }
        }
    }
    out
}

/// Enumerates the applicable Table 1 template instances with their
/// mined weights: `1 + min(support, 16)` for instances of an endorsed
/// class, 1 otherwise. Capped at `MAX_CANDIDATES` entries (endorsed
/// instances are never the ones dropped: the cap trims uniform-weight
/// instances first).
pub fn mined_template_candidates(
    file: &SourceFile,
    design_modules: &[String],
    fl: &FaultLoc,
    patterns: &[FixPattern],
) -> Vec<(Edit, u64)> {
    let endorsed = endorsements(patterns);
    let mut boosted: Vec<(Edit, u64)> = Vec::new();
    let mut uniform: Vec<(Edit, u64)> = Vec::new();
    for edit in applicable_templates(file, design_modules, fl) {
        let weight = edit_class(&edit)
            .and_then(|c| endorsed.get(&c))
            .map(|&s| 1 + s.min(MINED_BOOST_CAP))
            .unwrap_or(1);
        if weight > 1 {
            boosted.push((edit, weight));
        } else {
            uniform.push((edit, weight));
        }
    }
    boosted.truncate(MAX_CANDIDATES);
    uniform.truncate(MAX_CANDIDATES - boosted.len().min(MAX_CANDIDATES));
    boosted.extend(uniform);
    boosted
}

/// Support-weighted variant of `random_template`: draws one applicable
/// template instance with endorsed classes over-weighted by the mined
/// support table. Returns the edit and its weight — a weight above 1
/// means the draw landed on an endorsed (boosted) instance, which the
/// caller counts as a pattern hit. Only called when `patterns` is
/// non-empty; the unmined path keeps the original uniform draw and its
/// RNG stream.
pub(crate) fn mined_random_template(
    file: &SourceFile,
    design_modules: &[String],
    fl: &FaultLoc,
    patterns: &[FixPattern],
    rng: &mut impl Rng,
) -> Option<(Edit, u64)> {
    let candidates = mined_template_candidates(file, design_modules, fl, patterns);
    if candidates.is_empty() {
        return None;
    }
    let total: u64 = candidates.iter().map(|(_, w)| (*w).max(1)).sum();
    let mut roll = rng.gen_range(0..total);
    for (edit, w) in &candidates {
        let w = (*w).max(1);
        if roll < w {
            return Some((edit.clone(), w));
        }
        roll -= w;
    }
    unreachable!("roll < total implies a candidate is picked")
}

/// Builds the learned mutation prior: every design node whose
/// `(node kind, parent kind, operator class)` anchor triple appears in
/// a mined step gets weight `1 + min(support, 16)`. Nodes absent from
/// the map keep the default weight 1 in `choose_weighted`.
pub fn mined_prior(
    file: &SourceFile,
    design_modules: &[String],
    patterns: &[FixPattern],
) -> BTreeMap<NodeId, u32> {
    let mut triples: BTreeMap<(String, String, String), u64> = BTreeMap::new();
    for p in patterns {
        for s in &p.steps {
            let key = (
                s.node_kind.clone(),
                s.parent_kind.clone(),
                s.op_class.clone(),
            );
            let e = triples.entry(key).or_insert(0);
            *e = (*e).max(p.support);
        }
    }
    let mut walker = PriorWalker {
        triples: &triples,
        out: BTreeMap::new(),
    };
    for module in file
        .modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
    {
        walker.walk_module(module);
    }
    walker.out
}

/// Composes two mutation priors multiplicatively: a node's final
/// weight is the product of its weights in both maps (absent = 1).
/// Entries that multiply to 1 are dropped so the composed map stays
/// sparse, matching `choose_weighted`'s default-weight convention.
pub fn compose_priors(
    a: &BTreeMap<NodeId, u32>,
    b: &BTreeMap<NodeId, u32>,
) -> BTreeMap<NodeId, u32> {
    let mut out = BTreeMap::new();
    for (&id, &wa) in a {
        let wb = b.get(&id).copied().unwrap_or(1);
        let w = wa.saturating_mul(wb);
        if w > 1 {
            out.insert(id, w);
        }
    }
    for (&id, &wb) in b {
        if !a.contains_key(&id) && wb > 1 {
            out.insert(id, wb);
        }
    }
    out
}

/// Walks the design ASTs recording nodes whose anchor triple matches a
/// mined step, mirroring the parent-kind conventions of the differ in
/// `cirfix-mine`: statements inside a `begin…end` see parent `"block"`,
/// a top-level expression sees its enclosing statement's kind, nested
/// expressions see their parent expression's kind, and module items see
/// `"module"`.
struct PriorWalker<'a> {
    triples: &'a BTreeMap<(String, String, String), u64>,
    out: BTreeMap<NodeId, u32>,
}

impl PriorWalker<'_> {
    fn record(&mut self, id: NodeId, kind: &str, parent: &str, op_class: &str) {
        let key = (kind.to_string(), parent.to_string(), op_class.to_string());
        if let Some(&support) = self.triples.get(&key) {
            let w = 1 + u32::try_from(support.min(MINED_BOOST_CAP)).expect("capped support");
            let e = self.out.entry(id).or_insert(1);
            *e = (*e).max(w);
        }
    }

    fn walk_module(&mut self, module: &Module) {
        for item in &module.items {
            match item {
                Item::Assign { rhs, .. } => self.walk_expr(rhs, "module"),
                Item::Always { body, .. } | Item::Initial { body, .. } => {
                    self.walk_stmt(body, "module");
                }
                _ => {}
            }
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, parent: &str) {
        let kind = stmt_kind(s);
        self.record(s.id(), kind, parent, "");
        match s {
            Stmt::Block { stmts, .. } => {
                for c in stmts {
                    self.walk_stmt(c, "block");
                }
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                self.walk_expr(cond, kind);
                self.walk_stmt(then_s, kind);
                if let Some(e) = else_s {
                    self.walk_stmt(e, kind);
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                self.walk_expr(subject, kind);
                for arm in arms {
                    for l in &arm.labels {
                        self.walk_expr(l, kind);
                    }
                    self.walk_stmt(&arm.body, kind);
                }
                if let Some(d) = default {
                    self.walk_stmt(d, kind);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.walk_stmt(init, kind);
                self.walk_expr(cond, kind);
                self.walk_stmt(step, kind);
                self.walk_stmt(body, kind);
            }
            Stmt::While { cond, body, .. } => {
                self.walk_expr(cond, kind);
                self.walk_stmt(body, kind);
            }
            Stmt::Repeat { count, body, .. } => {
                self.walk_expr(count, kind);
                self.walk_stmt(body, kind);
            }
            Stmt::Forever { body, .. } => self.walk_stmt(body, kind),
            Stmt::Blocking { delay, rhs, .. } | Stmt::NonBlocking { delay, rhs, .. } => {
                if let Some(d) = delay {
                    self.walk_expr(d, kind);
                }
                self.walk_expr(rhs, kind);
            }
            Stmt::Delay { amount, body, .. } => {
                self.walk_expr(amount, kind);
                if let Some(b) = body {
                    self.walk_stmt(b, kind);
                }
            }
            Stmt::EventControl { body, .. } => {
                if let Some(b) = body {
                    self.walk_stmt(b, kind);
                }
            }
            Stmt::Wait { cond, body, .. } => {
                self.walk_expr(cond, kind);
                if let Some(b) = body {
                    self.walk_stmt(b, kind);
                }
            }
            Stmt::SysCall { args, .. } => {
                for a in args {
                    self.walk_expr(a, kind);
                }
            }
            Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
        }
    }

    fn walk_expr(&mut self, e: &Expr, parent: &str) {
        let kind = expr_kind(e);
        self.record(e.id(), kind, parent, expr_op_class(e));
        match e {
            Expr::Unary { arg, .. } => self.walk_expr(arg, kind),
            Expr::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs, kind);
                self.walk_expr(rhs, kind);
            }
            Expr::Cond {
                cond,
                then_e,
                else_e,
                ..
            } => {
                self.walk_expr(cond, kind);
                self.walk_expr(then_e, kind);
                self.walk_expr(else_e, kind);
            }
            Expr::Index { index, .. } => self.walk_expr(index, kind),
            Expr::Range { msb, lsb, .. } => {
                self.walk_expr(msb, kind);
                self.walk_expr(lsb, kind);
            }
            Expr::Concat { parts, .. } => {
                for p in parts {
                    self.walk_expr(p, kind);
                }
            }
            Expr::Repeat { count, parts, .. } => {
                self.walk_expr(count, kind);
                for p in parts {
                    self.walk_expr(p, kind);
                }
            }
            Expr::SysCall { args, .. } => {
                for a in args {
                    self.walk_expr(a, kind);
                }
            }
            Expr::Literal { .. } | Expr::Ident { .. } | Expr::Str { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;
    use rand::SeedableRng;
    use std::collections::BTreeMap as Map;

    /// Mines a one-record corpus into patterns for the tests.
    fn patterns_from(faulty: &str, repaired: &str) -> Vec<FixPattern> {
        let fa = parse(faulty).unwrap();
        let re = parse(repaired).unwrap();
        let diags = cirfix_lint::diagnostics_by_node(&fa.modules[0]);
        let steps = cirfix_mine::diff_modules(&fa.modules[0], &re.modules[0], &diags);
        cirfix_mine::cluster(&[("test".to_string(), steps)])
    }

    const SRC: &str = r#"
        module m (c, r, q);
            input c, r;
            output reg [3:0] q;
            always @(posedge c)
            begin
                if (r == 1'b1) begin
                    q <= 4'd0;
                end
                else begin
                    q <= q + 4'd1;
                end
            end
        endmodule
    "#;

    #[test]
    fn sensitivity_pattern_boosts_sensitivity_templates() {
        let patterns = patterns_from(
            "module p(input c, input d, output reg q); always @(c) q <= d; endmodule",
            "module p(input c, input d, output reg q); always @(posedge c) q <= d; endmodule",
        );
        assert!(!patterns.is_empty());
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let cands = mined_template_candidates(&file, &mods, &FaultLoc::default(), &patterns);
        let boosted: Vec<&(Edit, u64)> = cands.iter().filter(|(_, w)| *w > 1).collect();
        assert!(!boosted.is_empty());
        assert!(boosted.iter().all(|(e, _)| matches!(
            e,
            Edit::SetSensitivity {
                kind: SensTemplate::Posedge,
                ..
            }
        )));
        // Support 1 → weight 2.
        assert!(boosted.iter().all(|(_, w)| *w == 2));
    }

    #[test]
    fn operator_pattern_endorses_numeric_templates() {
        let patterns = patterns_from(
            "module p(input a, output q); assign q = a + 1; endmodule",
            "module p(input a, output q); assign q = a - 1; endmodule",
        );
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let cands = mined_template_candidates(&file, &mods, &FaultLoc::default(), &patterns);
        assert!(cands.iter().any(|(e, w)| {
            *w > 1 && matches!(e, Edit::IncrementExpr { .. } | Edit::DecrementExpr { .. })
        }));
    }

    #[test]
    fn mined_pick_is_seed_deterministic() {
        let patterns = patterns_from(
            "module p(input c, input d, output reg q); always @(c) q <= d; endmodule",
            "module p(input c, input d, output reg q); always @(posedge c) q <= d; endmodule",
        );
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let fl = FaultLoc::default();
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            mined_random_template(&file, &mods, &fl, &patterns, &mut r1),
            mined_random_template(&file, &mods, &fl, &patterns, &mut r2)
        );
    }

    #[test]
    fn mined_prior_matches_anchor_triples() {
        // The pattern anchors at a binary arith expression under an
        // assign (parent "module"); SRC has `q + 4'd1` under a
        // nonblocking assignment, which should NOT match, and no
        // module-level arith, so the prior keys off exact context.
        let patterns = patterns_from(
            "module p(input a, output q); assign q = a + 1; endmodule",
            "module p(input a, output q); assign q = a - 1; endmodule",
        );
        let file =
            parse("module m(input a, input b, output q); assign q = a + b; endmodule").unwrap();
        let prior = mined_prior(&file, &["m".to_string()], &patterns);
        assert!(!prior.is_empty());
        assert!(prior.values().all(|&w| w == 2));
        // A design with the same arith node in a *different* context
        // (inside a nonblocking assignment) does not match the
        // module-anchored triple.
        let other = parse(SRC).unwrap();
        let p2 = mined_prior(&other, &["m".to_string()], &patterns);
        assert!(p2.is_empty());
    }

    #[test]
    fn compose_priors_is_multiplicative() {
        let a: Map<NodeId, u32> = [(1, 4), (2, 4)].into_iter().collect();
        let b: Map<NodeId, u32> = [(2, 3), (3, 5)].into_iter().collect();
        let c = compose_priors(&a, &b);
        assert_eq!(c.get(&1), Some(&4));
        assert_eq!(c.get(&2), Some(&12));
        assert_eq!(c.get(&3), Some(&5));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn empty_patterns_are_inert() {
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        assert!(mined_prior(&file, &mods, &[]).is_empty());
        let cands = mined_template_candidates(&file, &mods, &FaultLoc::default(), &[]);
        assert!(cands.iter().all(|(_, w)| *w == 1));
    }
}
