//! Regenerating Verilog source text from the AST.
//!
//! CirFix shows candidate repairs to human developers as source code; this
//! module is the equivalent of PyVerilog's code generator. The output is
//! normalized (canonical spacing and indentation) but parses back to an
//! equal AST modulo node ids — see the round-trip tests in the parser
//! crate.

use std::fmt::Write as _;

use crate::expr::Expr;
use crate::module::{Decl, Instance, Item, Module, ParamDecl, SourceFile};
use crate::stmt::{LValue, Sensitivity, Stmt};

/// Renders a whole source file.
pub fn source_to_string(file: &SourceFile) -> String {
    let mut out = String::new();
    for (i, m) in file.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        write_module(&mut out, m);
    }
    out
}

/// Renders one module.
pub fn module_to_string(module: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, module);
    out
}

/// Renders one statement at indent level 0.
pub fn stmt_to_string(stmt: &Stmt) -> String {
    let mut out = String::new();
    write_stmt(&mut out, stmt, 0);
    out
}

/// Renders one expression.
pub fn expr_to_string(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr, 0);
    out
}

/// Renders one lvalue.
pub fn lvalue_to_string(lv: &LValue) -> String {
    let mut out = String::new();
    write_lvalue(&mut out, lv);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_module(out: &mut String, m: &Module) {
    write!(out, "module {}", m.name).expect("infallible write");
    if !m.ports.is_empty() {
        out.push_str(" (");
        out.push_str(&m.ports.join(", "));
        out.push(')');
    }
    out.push_str(";\n");
    for item in &m.items {
        write_item(out, item, 1);
    }
    out.push_str("endmodule\n");
}

fn write_item(out: &mut String, item: &Item, level: usize) {
    match item {
        Item::Decl(d) => {
            indent(out, level);
            write_decl(out, d);
            out.push('\n');
        }
        Item::Param(p) => {
            indent(out, level);
            write_param(out, p);
            out.push('\n');
        }
        Item::Assign { lhs, rhs, .. } => {
            indent(out, level);
            out.push_str("assign ");
            write_lvalue(out, lhs);
            out.push_str(" = ");
            write_expr(out, rhs, 0);
            out.push_str(";\n");
        }
        Item::Always { body, .. } => {
            indent(out, level);
            out.push_str("always ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Item::Initial { body, .. } => {
            indent(out, level);
            out.push_str("initial ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Item::Instance(inst) => {
            indent(out, level);
            write_instance(out, inst);
            out.push('\n');
        }
    }
}

fn write_decl(out: &mut String, d: &Decl) {
    out.push_str(d.kind.keyword());
    if d.also_reg {
        out.push_str(" reg");
    }
    if let Some((msb, lsb)) = &d.range {
        out.push_str(" [");
        write_expr(out, msb, 0);
        out.push(':');
        write_expr(out, lsb, 0);
        out.push(']');
    }
    out.push(' ');
    for (i, v) in d.vars.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.name);
        if let Some((hi, lo)) = &v.array {
            out.push_str(" [");
            write_expr(out, hi, 0);
            out.push(':');
            write_expr(out, lo, 0);
            out.push(']');
        }
        if let Some(init) = &v.init {
            out.push_str(" = ");
            write_expr(out, init, 0);
        }
    }
    out.push(';');
}

fn write_param(out: &mut String, p: &ParamDecl) {
    out.push_str(if p.local { "localparam" } else { "parameter" });
    out.push(' ');
    out.push_str(&p.name);
    out.push_str(" = ");
    write_expr(out, &p.value, 0);
    out.push(';');
}

fn write_instance(out: &mut String, inst: &Instance) {
    out.push_str(&inst.module);
    if !inst.params.is_empty() {
        out.push_str(" #(");
        for (i, c) in inst.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_connection(out, c);
        }
        out.push(')');
    }
    out.push(' ');
    out.push_str(&inst.name);
    out.push_str(" (");
    for (i, c) in inst.ports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_connection(out, c);
    }
    out.push_str(");");
}

fn write_connection(out: &mut String, c: &crate::module::Connection) {
    match (&c.name, &c.expr) {
        (Some(name), Some(e)) => {
            out.push('.');
            out.push_str(name);
            out.push('(');
            write_expr(out, e, 0);
            out.push(')');
        }
        (Some(name), None) => {
            out.push('.');
            out.push_str(name);
            out.push_str("()");
        }
        (None, Some(e)) => write_expr(out, e, 0),
        (None, None) => {}
    }
}

/// Writes a statement that follows a keyword on the same line
/// (e.g. `always …`); blocks open on the same line. The caller writes
/// the trailing newline.
fn write_stmt_inline(out: &mut String, stmt: &Stmt, level: usize) {
    write_stmt_body(out, stmt, level);
    while out.ends_with('\n') {
        out.pop();
    }
}

/// Writes a statement on its own line at `level`.
fn write_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    indent(out, level);
    write_stmt_body(out, stmt, level);
}

/// Writes a statement from its first token on, without the leading
/// indent: nested lines are indented from `level`, and the text ends
/// with a newline.
fn write_stmt_body(out: &mut String, stmt: &Stmt, level: usize) {
    match stmt {
        Stmt::Block { name, stmts, .. } => {
            out.push_str("begin");
            if let Some(n) = name {
                out.push_str(" : ");
                out.push_str(n);
            }
            out.push('\n');
            for s in stmts {
                write_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("end\n");
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            out.push_str("if (");
            write_expr(out, cond, 0);
            out.push_str(") ");
            write_stmt_inline(out, then_s, level);
            out.push('\n');
            if let Some(e) = else_s {
                indent(out, level);
                out.push_str("else ");
                write_stmt_inline(out, e, level);
                out.push('\n');
            }
        }
        Stmt::Case {
            kind,
            subject,
            arms,
            default,
            ..
        } => {
            out.push_str(kind.keyword());
            out.push_str(" (");
            write_expr(out, subject, 0);
            out.push_str(")\n");
            for arm in arms {
                indent(out, level + 1);
                for (i, l) in arm.labels.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, l, 0);
                }
                out.push_str(" : ");
                write_stmt_inline(out, &arm.body, level + 1);
                out.push('\n');
            }
            if let Some(d) = default {
                indent(out, level + 1);
                out.push_str("default : ");
                write_stmt_inline(out, d, level + 1);
                out.push('\n');
            }
            indent(out, level);
            out.push_str("endcase\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            out.push_str("for (");
            write_assign_headless(out, init);
            out.push_str("; ");
            write_expr(out, cond, 0);
            out.push_str("; ");
            write_assign_headless(out, step);
            out.push_str(") ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Stmt::While { cond, body, .. } => {
            out.push_str("while (");
            write_expr(out, cond, 0);
            out.push_str(") ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Stmt::Repeat { count, body, .. } => {
            out.push_str("repeat (");
            write_expr(out, count, 0);
            out.push_str(") ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Stmt::Forever { body, .. } => {
            out.push_str("forever ");
            write_stmt_inline(out, body, level);
            out.push('\n');
        }
        Stmt::Blocking {
            lhs, delay, rhs, ..
        } => {
            write_lvalue(out, lhs);
            out.push_str(" = ");
            if let Some(d) = delay {
                out.push('#');
                write_expr(out, d, 20);
                out.push(' ');
            }
            write_expr(out, rhs, 0);
            out.push_str(";\n");
        }
        Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => {
            write_lvalue(out, lhs);
            out.push_str(" <= ");
            if let Some(d) = delay {
                out.push('#');
                write_expr(out, d, 20);
                out.push(' ');
            }
            write_expr(out, rhs, 0);
            out.push_str(";\n");
        }
        Stmt::Delay { amount, body, .. } => {
            out.push('#');
            write_expr(out, amount, 20);
            match body {
                // A deleted (null) body prints like no body at all, so
                // the print is a canonical form: parsing it back and
                // re-printing yields the same text.
                Some(b) if !matches!(**b, Stmt::Null { .. }) => {
                    out.push(' ');
                    write_stmt_inline(out, b, level);
                    out.push('\n');
                }
                _ => out.push_str(";\n"),
            }
        }
        Stmt::EventControl {
            sensitivity, body, ..
        } => {
            out.push('@');
            match sensitivity {
                Sensitivity::Star => out.push('*'),
                Sensitivity::List(events) => {
                    out.push('(');
                    for (i, ev) in events.iter().enumerate() {
                        if i > 0 {
                            out.push_str(" or ");
                        }
                        match ev.edge {
                            cirfix_logic::EdgeKind::Pos => out.push_str("posedge "),
                            cirfix_logic::EdgeKind::Neg => out.push_str("negedge "),
                            cirfix_logic::EdgeKind::Any => {}
                        }
                        write_expr(out, &ev.expr, 0);
                    }
                    out.push(')');
                }
            }
            match body {
                Some(b) if !matches!(**b, Stmt::Null { .. }) => {
                    out.push(' ');
                    write_stmt_inline(out, b, level);
                    out.push('\n');
                }
                _ => out.push_str(";\n"),
            }
        }
        Stmt::EventTrigger { name, .. } => {
            out.push_str("-> ");
            out.push_str(name);
            out.push_str(";\n");
        }
        Stmt::Wait { cond, body, .. } => {
            out.push_str("wait (");
            write_expr(out, cond, 0);
            out.push(')');
            match body {
                Some(b) if !matches!(**b, Stmt::Null { .. }) => {
                    out.push(' ');
                    write_stmt_inline(out, b, level);
                    out.push('\n');
                }
                _ => out.push_str(";\n"),
            }
        }
        Stmt::SysCall { name, args, .. } => {
            out.push('$');
            out.push_str(name);
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, a, 0);
                }
                out.push(')');
            }
            out.push_str(";\n");
        }
        Stmt::Null { .. } => {
            out.push_str(";\n");
        }
    }
}

/// Prints a `for` header assignment without indentation or semicolon.
fn write_assign_headless(out: &mut String, stmt: &Stmt) {
    match stmt {
        Stmt::Blocking { lhs, rhs, .. } => {
            write_lvalue(out, lhs);
            out.push_str(" = ");
            write_expr(out, rhs, 0);
        }
        other => {
            // Degenerate mutants can put non-assignments here; print the
            // statement body inline so output is still parseable-ish.
            write_stmt_body(out, other, 0);
            let end = out.trim_end().len();
            out.truncate(end);
        }
    }
}

fn write_lvalue(out: &mut String, lv: &LValue) {
    match lv {
        LValue::Ident { name, .. } => out.push_str(name),
        LValue::Index { base, index, .. } => {
            out.push_str(base);
            out.push('[');
            write_expr(out, index, 0);
            out.push(']');
        }
        LValue::Range { base, msb, lsb, .. } => {
            out.push_str(base);
            out.push('[');
            write_expr(out, msb, 0);
            out.push(':');
            write_expr(out, lsb, 0);
            out.push(']');
        }
        LValue::Concat { parts, .. } => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_lvalue(out, p);
            }
            out.push('}');
        }
    }
}

/// `min_prec` is the loosest precedence allowed without parentheses.
fn write_expr(out: &mut String, expr: &Expr, min_prec: u8) {
    match expr {
        Expr::Literal {
            value, base, sized, ..
        } => {
            if *sized {
                out.push_str(&value.to_based_string(*base));
            } else if let Some(v) = value.to_u128() {
                write!(out, "{v}").expect("infallible write");
            } else {
                // Unsized x/z literal.
                out.push('\'');
                out.push(base.to_char());
                out.push(value.bit(0).to_char());
            }
        }
        Expr::Ident { name, .. } => out.push_str(name),
        Expr::Unary { op, arg, .. } => {
            out.push_str(op.symbol());
            // A directly nested unary must be parenthesized: `&&x` would
            // re-lex as logical AND and `^~x` as XNOR.
            if matches!(**arg, Expr::Unary { .. }) {
                out.push('(');
                write_expr(out, arg, 0);
                out.push(')');
            } else {
                write_expr(out, arg, 15);
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let prec = op.precedence();
            let parens = prec < min_prec;
            if parens {
                out.push('(');
            }
            write_expr(out, lhs, prec);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            // Right operand needs strictly higher precedence to avoid
            // reassociation, e.g. `a - (b - c)`.
            write_expr(out, rhs, prec + 1);
            if parens {
                out.push(')');
            }
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            let parens = min_prec > 0;
            if parens {
                out.push('(');
            }
            write_expr(out, cond, 1);
            out.push_str(" ? ");
            write_expr(out, then_e, 1);
            out.push_str(" : ");
            write_expr(out, else_e, 0);
            if parens {
                out.push(')');
            }
        }
        Expr::Index { base, index, .. } => {
            out.push_str(base);
            out.push('[');
            write_expr(out, index, 0);
            out.push(']');
        }
        Expr::Range { base, msb, lsb, .. } => {
            out.push_str(base);
            out.push('[');
            write_expr(out, msb, 0);
            out.push(':');
            write_expr(out, lsb, 0);
            out.push(']');
        }
        Expr::Concat { parts, .. } => {
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, p, 0);
            }
            out.push('}');
        }
        Expr::Repeat { count, parts, .. } => {
            out.push('{');
            write_expr(out, count, 20);
            out.push('{');
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, p, 0);
            }
            out.push_str("}}");
        }
        Expr::Str { value, .. } => {
            out.push('"');
            for c in value.chars() {
                match c {
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    other => out.push(other),
                }
            }
            out.push('"');
        }
        Expr::SysCall { name, args, .. } => {
            out.push('$');
            out.push_str(name);
            if !args.is_empty() {
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, a, 0);
                }
                out.push(')');
            }
        }
    }
}

/// Prints a literal for a delay or replication count context (tight).
#[allow(dead_code)]
fn write_tight(out: &mut String, expr: &Expr) {
    write_expr(out, expr, 20);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use crate::node::NodeIdGen;

    #[test]
    fn expr_precedence_printing() {
        let mut g = NodeIdGen::new();
        // (a + b) * c needs parens; a + b * c does not.
        let a = Expr::ident(&mut g, "a");
        let b = Expr::ident(&mut g, "b");
        let c = Expr::ident(&mut g, "c");
        let sum = Expr::binary(&mut g, BinaryOp::Add, a, b);
        let prod = Expr::binary(&mut g, BinaryOp::Mul, sum, c);
        assert_eq!(expr_to_string(&prod), "(a + b) * c");

        let a = Expr::ident(&mut g, "a");
        let b = Expr::ident(&mut g, "b");
        let c = Expr::ident(&mut g, "c");
        let prod = Expr::binary(&mut g, BinaryOp::Mul, b, c);
        let sum = Expr::binary(&mut g, BinaryOp::Add, a, prod);
        assert_eq!(expr_to_string(&sum), "a + b * c");
    }

    #[test]
    fn subtraction_is_left_associative() {
        let mut g = NodeIdGen::new();
        let a = Expr::ident(&mut g, "a");
        let b = Expr::ident(&mut g, "b");
        let c = Expr::ident(&mut g, "c");
        let inner = Expr::binary(&mut g, BinaryOp::Sub, b, c);
        let outer = Expr::binary(&mut g, BinaryOp::Sub, a, inner);
        assert_eq!(expr_to_string(&outer), "a - (b - c)");
    }

    #[test]
    fn statement_printing() {
        let mut g = NodeIdGen::new();
        let s = Stmt::NonBlocking {
            id: g.fresh(),
            lhs: LValue::Ident {
                id: g.fresh(),
                name: "counter_out".into(),
            },
            delay: Some(Expr::literal_u64(&mut g, 1, 32)),
            rhs: {
                let c = Expr::ident(&mut g, "counter_out");
                let one = Expr::literal_u64(&mut g, 1, 32);
                Expr::binary(&mut g, BinaryOp::Add, c, one)
            },
        };
        assert_eq!(
            stmt_to_string(&s).trim(),
            "counter_out <= #32'd1 counter_out + 32'd1;"
        );
    }

    #[test]
    fn string_escaping() {
        let mut g = NodeIdGen::new();
        let e = Expr::Str {
            id: g.fresh(),
            value: "a\n\"b\"".into(),
        };
        assert_eq!(expr_to_string(&e), "\"a\\n\\\"b\\\"\"");
    }
}
