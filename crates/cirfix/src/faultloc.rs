//! Dataflow-based fault localization for HDL (Algorithm 2 of the paper).
//!
//! Starting from the set of output variables whose simulated values
//! mismatch the expected behaviour, a fixed-point analysis implicates:
//!
//! * **Impl-Data** — assignment statements (and continuous assignments)
//!   whose left-hand side writes a mismatched variable;
//! * **Impl-Ctrl** — conditional statements whose subtree mentions a
//!   mismatched variable.
//!
//! Every implicated node and all of its descendants join the fault
//! localization set; identifiers found inside implicated subtrees join
//! the mismatch set (**Add-Child**), and the process repeats until no new
//! identifiers appear. The result is a *uniformly ranked set* of node
//! ids, not a ranked list — a deliberate fit for the parallel structure
//! of hardware (§3.1).

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use cirfix_ast::visit::{self, NodeRef};
use cirfix_ast::{Expr, Item, LValue, Module, NodeId, Stmt};

/// The result of fault localization.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLoc {
    /// Implicated node ids (statements, expressions, lvalues — the whole
    /// implicated subtrees).
    pub nodes: BTreeSet<NodeId>,
    /// The final mismatch set of identifier names.
    pub mismatch: BTreeSet<String>,
}

impl FaultLoc {
    /// `true` when nothing was implicated.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Builds the telemetry payload for one localization pass over
/// `modules` (the same module slice the pass analyzed).
pub fn fault_loc_event<M: AsRef<Module>>(
    fl: &FaultLoc,
    modules: &[M],
) -> cirfix_telemetry::FaultLocEvent {
    let mut total: usize = 0;
    for m in modules {
        visit::walk_module(m.as_ref(), &mut |_| total += 1);
    }
    cirfix_telemetry::FaultLocEvent {
        implicated_nodes: fl.nodes.len() as u64,
        mismatched_vars: fl.mismatch.len() as u64,
        node_fraction: fl.nodes.len() as f64 / total.max(1) as f64,
    }
}

/// Runs Algorithm 2 over the repairable modules.
///
/// `mismatched_vars` contains *leaf* variable names (hierarchy stripped),
/// as produced by [`crate::strip_hierarchy`] from the fitness report.
///
/// The fixed point is the least one: a candidate is implicated exactly
/// when one of its trigger names is in the final mismatch set, which is
/// the initial set plus the identifiers of every implicated candidate.
/// It is computed in one pass over the modules and one worklist over
/// names, so the cost is linear in the size of the modules.
pub fn fault_localization<M: AsRef<Module>>(
    modules: &[M],
    mismatched_vars: &BTreeSet<String>,
) -> FaultLoc {
    let mut graph = Graph::default();
    for module in modules {
        graph.add_module(module.as_ref());
    }
    graph.localize(mismatched_vars)
}

/// An Impl-Data candidate: an assignment (procedural or continuous),
/// triggered by the names it writes.
struct Data {
    /// Its node ids: `Graph::order[span]`.
    span: Range<usize>,
    /// Its target names: `Graph::targets[targets]`.
    targets: Range<usize>,
    /// The identifiers its right-hand side reads: `Graph::occ[reads]`.
    reads: Range<usize>,
    done: bool,
}

/// An Impl-Ctrl candidate: a conditional statement, triggered by every
/// identifier in its subtree.
struct Ctrl {
    /// Its node ids: `Graph::order[span]`.
    span: Range<usize>,
    /// Every identifier occurrence in its subtree: `Graph::occ[occ]`.
    occ: Range<usize>,
    /// The innermost conditional enclosing it.
    parent: Option<usize>,
    done: bool,
}

/// The candidates of Algorithm 2 over interned names, gathered in one
/// pre-order descent of each `always`/`initial` body and continuous
/// assignment.
#[derive(Default)]
struct Graph<'a> {
    ids: HashMap<&'a str, usize>,
    names: Vec<&'a str>,
    /// Node ids in pre-order; every candidate subtree is a contiguous
    /// span of it.
    order: Vec<NodeId>,
    /// Identifier occurrences (names read, index/range bases, lvalue
    /// targets) in pre-order.
    occ: Vec<usize>,
    targets: Vec<usize>,
    data: Vec<Data>,
    ctrl: Vec<Ctrl>,
    /// Per name, the Impl-Data candidates writing it.
    data_by_name: Vec<Vec<usize>>,
    /// Per name, the innermost conditionals enclosing its occurrences.
    ctrl_by_name: Vec<Vec<usize>>,
}

impl<'a> Graph<'a> {
    fn intern(&mut self, name: &'a str) -> usize {
        if let Some(&n) = self.ids.get(name) {
            return n;
        }
        let n = self.names.len();
        self.ids.insert(name, n);
        self.names.push(name);
        self.data_by_name.push(Vec::new());
        self.ctrl_by_name.push(Vec::new());
        n
    }

    /// Records one identifier occurrence inside the conditional `ctrl`
    /// (innermost first), if any.
    fn occurrence(&mut self, name: &'a str, ctrl: Option<usize>) {
        let n = self.intern(name);
        self.occ.push(n);
        if let Some(c) = ctrl {
            let by_name = &mut self.ctrl_by_name[n];
            if by_name.last() != Some(&c) {
                by_name.push(c);
            }
        }
    }

    fn add_module(&mut self, module: &'a Module) {
        for item in &module.items {
            match item {
                Item::Assign { id, lhs, rhs } => {
                    let start = self.order.len();
                    self.order.push(*id);
                    self.lvalue(lhs, None);
                    let reads = self.expr(rhs, None);
                    self.add_data(start, lhs, reads);
                }
                Item::Always { body, .. } | Item::Initial { body, .. } => self.stmt(body, None),
                _ => {}
            }
        }
    }

    /// An Impl-Data candidate whose nodes start at `order[start]` and
    /// end here.
    fn add_data(&mut self, start: usize, lhs: &'a LValue, reads: Range<usize>) {
        let first = self.targets.len();
        for name in lhs.target_names() {
            let n = self.intern(name);
            self.targets.push(n);
            self.data_by_name[n].push(self.data.len());
        }
        self.data.push(Data {
            span: start..self.order.len(),
            targets: first..self.targets.len(),
            reads,
            done: false,
        });
    }

    /// Walks an expression subtree inside the conditional `ctrl`;
    /// returns the range of `occ` its identifiers landed in.
    fn expr(&mut self, e: &'a Expr, ctrl: Option<usize>) -> Range<usize> {
        let start = self.occ.len();
        visit::walk_expr(e, &mut |n| {
            self.order.push(n.id());
            if let NodeRef::Expr(Expr::Ident { name, .. })
            | NodeRef::Expr(Expr::Index { base: name, .. })
            | NodeRef::Expr(Expr::Range { base: name, .. }) = n
            {
                self.occurrence(name, ctrl);
            }
        });
        start..self.occ.len()
    }

    fn lvalue(&mut self, lv: &'a LValue, ctrl: Option<usize>) {
        visit::walk_lvalue(lv, &mut |n| {
            self.order.push(n.id());
            match n {
                NodeRef::LValue(l) => {
                    for name in l.target_names() {
                        self.occurrence(name, ctrl);
                    }
                }
                NodeRef::Expr(Expr::Ident { name, .. })
                | NodeRef::Expr(Expr::Index { base: name, .. })
                | NodeRef::Expr(Expr::Range { base: name, .. }) => self.occurrence(name, ctrl),
                _ => {}
            }
        });
    }

    /// Descends one statement subtree in the pre-order of
    /// [`visit::walk_stmt`]; `ctrl` is the innermost enclosing
    /// conditional.
    fn stmt(&mut self, s: &'a Stmt, ctrl: Option<usize>) {
        let start = self.order.len();
        let occ_start = self.occ.len();
        let own = s.is_conditional().then(|| {
            self.ctrl.push(Ctrl {
                span: 0..0,
                occ: 0..0,
                parent: ctrl,
                done: false,
            });
            self.ctrl.len() - 1
        });
        let inner = own.or(ctrl);
        self.order.push(s.id());
        match s {
            Stmt::Block { stmts, .. } => {
                for c in stmts {
                    self.stmt(c, inner);
                }
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                self.expr(cond, inner);
                self.stmt(then_s, inner);
                if let Some(e) = else_s {
                    self.stmt(e, inner);
                }
            }
            Stmt::Case {
                subject,
                arms,
                default,
                ..
            } => {
                self.expr(subject, inner);
                for arm in arms {
                    self.order.push(arm.id);
                    for l in &arm.labels {
                        self.expr(l, inner);
                    }
                    self.stmt(&arm.body, inner);
                }
                if let Some(d) = default {
                    self.stmt(d, inner);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.stmt(init, inner);
                self.expr(cond, inner);
                self.stmt(step, inner);
                self.stmt(body, inner);
            }
            Stmt::While { cond: e, body, .. } | Stmt::Repeat { count: e, body, .. } => {
                self.expr(e, inner);
                self.stmt(body, inner);
            }
            Stmt::Forever { body, .. } => self.stmt(body, inner),
            Stmt::Blocking {
                lhs, delay, rhs, ..
            }
            | Stmt::NonBlocking {
                lhs, delay, rhs, ..
            } => {
                self.lvalue(lhs, inner);
                if let Some(d) = delay {
                    self.expr(d, inner);
                }
                let reads = self.expr(rhs, inner);
                self.add_data(start, lhs, reads);
            }
            Stmt::Delay {
                amount: e, body, ..
            }
            | Stmt::Wait { cond: e, body, .. } => {
                self.expr(e, inner);
                if let Some(b) = body {
                    self.stmt(b, inner);
                }
            }
            Stmt::EventControl {
                sensitivity, body, ..
            } => {
                if let cirfix_ast::Sensitivity::List(events) = sensitivity {
                    for ev in events {
                        self.expr(&ev.expr, inner);
                    }
                }
                if let Some(b) = body {
                    self.stmt(b, inner);
                }
            }
            Stmt::SysCall { args, .. } => {
                for a in args {
                    self.expr(a, inner);
                }
            }
            Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
        }
        if let Some(c) = own {
            self.ctrl[c].span = start..self.order.len();
            self.ctrl[c].occ = occ_start..self.occ.len();
        }
    }

    /// The least fixed point from `mismatched_vars`.
    fn localize(mut self, mismatched_vars: &BTreeSet<String>) -> FaultLoc {
        let mut in_mismatch = vec![false; self.names.len()];
        let mut queue = Vec::new();
        let mut enqueue = |n: usize, queue: &mut Vec<usize>| {
            if !in_mismatch[n] {
                in_mismatch[n] = true;
                queue.push(n);
            }
        };
        for var in mismatched_vars {
            if let Some(&n) = self.ids.get(var.as_str()) {
                enqueue(n, &mut queue);
            }
        }
        // Implicated subtrees as +1/-1 marks at their span ends.
        let mut cover = vec![0i32; self.order.len() + 1];
        let mut mark = |span: &Range<usize>| {
            cover[span.start] += 1;
            cover[span.end] -= 1;
        };
        while let Some(n) = queue.pop() {
            // Impl-Data: assignments writing `n`.
            for &d in &self.data_by_name[n] {
                let data = &mut self.data[d];
                if data.done {
                    continue;
                }
                data.done = true;
                mark(&data.span);
                for &m in self.targets[data.targets.clone()]
                    .iter()
                    .chain(&self.occ[data.reads.clone()])
                {
                    enqueue(m, &mut queue);
                }
            }
            // Impl-Ctrl: every conditional enclosing an occurrence of
            // `n`. An implicated conditional's ancestors are implicated
            // with it, so the climb stops at the first one already done,
            // whose subtree's names are already in the mismatch set.
            for &c in &self.ctrl_by_name[n] {
                let mut next = Some(c);
                let mut outermost = None;
                while let Some(i) = next {
                    let ctrl = &mut self.ctrl[i];
                    if ctrl.done {
                        outermost = None;
                        break;
                    }
                    ctrl.done = true;
                    mark(&ctrl.span);
                    outermost = Some(i);
                    next = ctrl.parent;
                }
                if let Some(top) = outermost {
                    for &m in &self.occ[self.ctrl[top].occ.clone()] {
                        enqueue(m, &mut queue);
                    }
                }
            }
        }
        let mut depth = 0;
        let nodes = self
            .order
            .iter()
            .zip(&cover)
            .filter_map(|(&id, &delta)| {
                depth += delta;
                (depth > 0).then_some(id)
            })
            .collect();
        let mut mismatch = mismatched_vars.clone();
        for (name, _) in self.names.iter().zip(&in_mismatch).filter(|(_, &m)| m) {
            if !mismatch.contains(*name) {
                mismatch.insert(name.to_string());
            }
        }
        FaultLoc { nodes, mismatch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;

    fn localize(src: &str, vars: &[&str]) -> (FaultLoc, cirfix_ast::SourceFile) {
        let file = parse(src).expect("parse");
        let mismatch: BTreeSet<String> = vars.iter().map(|s| s.to_string()).collect();
        let fl = fault_localization(&[&file.modules[0]], &mismatch);
        (fl, file)
    }

    const COUNTER: &str = r#"
        module counter (clk, reset, enable, counter_out, overflow_out);
            input clk, reset, enable;
            output [3:0] counter_out;
            output overflow_out;
            reg [3:0] counter_out;
            reg overflow_out;
            always @(posedge clk)
            begin
                if (reset == 1'b1) begin
                    counter_out <= #1 4'b0000;
                end
                else if (enable == 1'b1) begin
                    counter_out <= #1 counter_out + 1;
                end
                if (counter_out == 4'b1111) begin
                    overflow_out <= #1 1'b1;
                end
            end
        endmodule
    "#;

    #[test]
    fn motivating_example_implicates_overflow_chain() {
        // Figure 1 walk-through from §3.1: starting from overflow_out,
        // the assignment at "line 40" is implicated (Impl-Data), then
        // the wrapping if (Impl-Ctrl), which adds counter_out
        // (Add-Child), which implicates the counter assignments too.
        let (fl, file) = localize(COUNTER, &["overflow_out"]);
        assert!(fl.mismatch.contains("overflow_out"));
        assert!(
            fl.mismatch.contains("counter_out"),
            "Add-Child must pull counter_out in: {:?}",
            fl.mismatch
        );
        // All three if-statements and all assignments end up implicated.
        let module = &file.modules[0];
        let implicated_assignments = visit::stmts_of_module(module)
            .iter()
            .filter(|s| s.is_assignment() && fl.nodes.contains(&s.id()))
            .count();
        assert_eq!(implicated_assignments, 3);
        // reset and enable flow in through the conditionals.
        assert!(fl.mismatch.contains("reset"));
        assert!(fl.mismatch.contains("enable"));
    }

    #[test]
    fn unrelated_code_is_not_implicated() {
        let src = r#"
            module m (a, b, y, z);
                input a, b;
                output reg y, z;
                always @(a) y = a;
                always @(b) z = b;
            endmodule
        "#;
        let (fl, file) = localize(src, &["y"]);
        let module = &file.modules[0];
        // The z assignment must not be implicated.
        let z_assign = visit::stmts_of_module(module)
            .into_iter()
            .find(|s| match s {
                Stmt::Blocking { lhs, .. } => lhs.target_names() == vec!["z"],
                _ => false,
            })
            .expect("z assignment");
        assert!(!fl.nodes.contains(&z_assign.id()));
        assert!(!fl.mismatch.contains("z"));
        assert!(fl.mismatch.contains("a"), "rhs of y joins the mismatch");
    }

    #[test]
    fn continuous_assignments_are_implicated() {
        let src = r#"
            module m (a, y);
                input a;
                output y;
                wire mid;
                assign mid = ~a;
                assign y = mid;
            endmodule
        "#;
        let (fl, _) = localize(src, &["y"]);
        // y → mid → a, transitively.
        assert!(fl.mismatch.contains("mid"));
        assert!(fl.mismatch.contains("a"));
        assert!(!fl.nodes.is_empty());
    }

    #[test]
    fn empty_mismatch_implicates_nothing() {
        let (fl, _) = localize(COUNTER, &[]);
        assert!(fl.is_empty());
        assert!(fl.mismatch.is_empty());
    }

    #[test]
    fn case_statements_are_ctrl_candidates() {
        let src = r#"
            module m (s, q, other);
                input [1:0] s;
                output reg q, other;
                always @(s) begin
                    case (s)
                        2'd0: q = 1'b0;
                        default: q = 1'b1;
                    endcase
                    other = 1'b0;
                end
            endmodule
        "#;
        let (fl, file) = localize(src, &["q"]);
        let module = &file.modules[0];
        let case_stmt = visit::stmts_of_module(module)
            .into_iter()
            .find(|s| matches!(s, Stmt::Case { .. }))
            .expect("case");
        assert!(fl.nodes.contains(&case_stmt.id()));
        assert!(fl.mismatch.contains("s"));
        // `other` is assigned next to the case but reads nothing
        // mismatched, so it stays out.
        assert!(!fl.mismatch.contains("other"));
    }

    #[test]
    fn fl_set_contains_whole_subtrees() {
        let (fl, file) = localize(COUNTER, &["counter_out"]);
        let module = &file.modules[0];
        // Find the increment assignment; its rhs literal node must be in
        // the FL set too (children of implicated nodes are included).
        let inc = visit::stmts_of_module(module)
            .into_iter()
            .find(|s| {
                matches!(s, Stmt::NonBlocking { rhs, .. }
                if matches!(rhs, cirfix_ast::Expr::Binary { .. }))
            })
            .expect("increment assignment");
        for id in visit::ids_in_stmt(inc) {
            assert!(fl.nodes.contains(&id), "missing descendant {id}");
        }
    }
}
