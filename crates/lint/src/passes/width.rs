//! Assignment width mismatches.
//!
//! Flags assignments whose right-hand side is provably wider than the
//! target, silently dropping high bits (the classic lost-carry defect:
//! `sum = a + b` where `sum` is as wide as `a`). Widths come from the
//! same [`self_determined_width`] helper the simulator's evaluator is
//! built on, so the lint agrees with runtime semantics by construction.
//!
//! Expressions containing *unsized* literals are skipped: Verilog
//! gives them 32 bits, which would flag idiomatic code like
//! `q <= q + 1` on every counter in existence.

use cirfix_ast::visit::{walk_expr, walk_stmt, NodeRef};
use cirfix_ast::{Expr, Item, LValue, Stmt};
use cirfix_sim::width::self_determined_width;

use crate::diagnostic::Diagnostic;
use crate::structure::ModuleStructure;

/// Width of `expr` only when every literal in it is explicitly sized.
fn hard_width(expr: &Expr, s: &ModuleStructure) -> Option<usize> {
    let mut all_sized = true;
    walk_expr(expr, &mut |n| {
        if let NodeRef::Expr(Expr::Literal { sized: false, .. }) = n {
            all_sized = false;
        }
    });
    if !all_sized {
        return None;
    }
    self_determined_width(expr, s)
}

fn check(
    s: &ModuleStructure,
    node_id: cirfix_ast::NodeId,
    lhs: &LValue,
    rhs: &Expr,
    out: &mut Vec<Diagnostic>,
) {
    let (Some(lw), Some(rw)) = (s.lvalue_width(lhs), hard_width(rhs, s)) else {
        return;
    };
    if rw > lw {
        let name = lhs.target_names().first().copied().unwrap_or("?");
        out.push(Diagnostic::warning(
            "width-mismatch",
            node_id,
            format!("{rw}-bit expression is truncated to the {lw} bit(s) of `{name}`"),
        ));
    }
}

/// Runs the pass over one module.
pub fn run(s: &ModuleStructure) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for item in &s.module.items {
        if let Item::Assign { id, lhs, rhs } = item {
            check(s, *id, lhs, rhs, &mut out);
        }
    }
    for proc_ in &s.processes {
        let Some(body) = proc_.body else { continue };
        walk_stmt(body, &mut |n| {
            if let NodeRef::Stmt(
                Stmt::Blocking { id, lhs, rhs, .. } | Stmt::NonBlocking { id, lhs, rhs, .. },
            ) = n
            {
                check(s, *id, lhs, rhs, &mut out);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::lint_file;

    fn width_findings(rhs: &str) -> Vec<String> {
        let src =
            format!("module m (a, y); input [3:0] a; output [3:0] y; assign y = {rhs}; endmodule");
        let file = cirfix_parser::parse(&src).expect("parses");
        lint_file(&file)
            .into_iter()
            .filter(|(_, d)| d.code == "width-mismatch")
            .map(|(_, d)| d.message)
            .collect()
    }

    #[test]
    fn replication_counts_past_the_simulator_bound_have_no_width() {
        // The count times the part width used to overflow: a panic in a
        // debug build, a width of 0 in a release build.
        assert_eq!(
            width_findings("{64'h4000000000000000{a}}"),
            Vec::<String>::new()
        );
        // And a count of 2^64 - 1 read as an 18446744073709551615-bit
        // expression.
        assert_eq!(
            width_findings("{64'hffffffffffffffff{a}}"),
            Vec::<String>::new()
        );
        // A count the simulator accepts is still checked.
        assert_eq!(
            width_findings("{2'd2{a}}"),
            vec!["8-bit expression is truncated to the 4 bit(s) of `y`".to_string()]
        );
    }
}
