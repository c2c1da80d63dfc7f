//! The tree-walking expression evaluator: the test oracle for the
//! simulator's bytecode (`cirfix_sim::code`).
//!
//! It evaluates the AST recursively against an instance scope, resolving
//! every name and checking every part-select bound at each evaluation,
//! and maps each operator to its `LogicVec` method itself. It shares no
//! code with the bytecode compiler or its dispatch loop, so the two
//! agree only if the compiler's resolutions, foldings and postfix order
//! are right. `exec_equivalence.rs` drives both.

use std::collections::HashMap;

use cirfix_ast::{BinaryOp, Expr, UnaryOp};
use cirfix_logic::{Logic, LogicVec};
use cirfix_sim::width::{
    part_select_width, MAX_SELECT_WIDTH, SYSCALL_RANDOM_WIDTH, SYSCALL_TIME_WIDTH,
};
use cirfix_sim::{EvalCtx, EvalFault, Lcg, Scope, ScopeEntry, Store};

fn fault(message: impl Into<String>) -> EvalFault {
    EvalFault(message.into())
}

/// Evaluates `expr` in `scope` to a four-state value, or the fault the
/// simulator must raise for it.
pub fn eval_expr(expr: &Expr, scope: &Scope, ctx: &mut EvalCtx<'_>) -> Result<LogicVec, EvalFault> {
    match expr {
        Expr::Literal { value, .. } => Ok(value.clone()),
        Expr::Str { .. } => Err(fault("string used as a value")),
        Expr::Ident { name, .. } => match scope.lookup(name) {
            Some(ScopeEntry::Sig(id)) => Ok(ctx.store.signals[*id].clone()),
            Some(ScopeEntry::Param(v)) => Ok(v.clone()),
            Some(ScopeEntry::Mem(_)) => Err(fault(format!("cannot read whole memory `{name}`"))),
            None => Err(fault(format!("undeclared identifier `{name}`"))),
        },
        Expr::Unary { op, arg, .. } => {
            let v = eval_expr(arg, scope, ctx)?;
            Ok(unary(*op, v))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval_expr(lhs, scope, ctx)?;
            let b = eval_expr(rhs, scope, ctx)?;
            Ok(binary(*op, &a, &b))
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            let c = eval_expr(cond, scope, ctx)?;
            let t = eval_expr(then_e, scope, ctx)?;
            let e = eval_expr(else_e, scope, ctx)?;
            Ok(c.select(&t, &e))
        }
        Expr::Index { base, index, .. } => {
            let idx = eval_expr(index, scope, ctx)?;
            match scope.lookup(base) {
                Some(ScopeEntry::Sig(id)) => {
                    let sig = &ctx.store.signals[*id];
                    match idx.to_u64() {
                        Some(i) => {
                            let raw = i.wrapping_sub(ctx.sig_lsb[*id] as u64);
                            Ok(LogicVec::scalar(sig.bit(raw as usize)))
                        }
                        None => Ok(LogicVec::scalar(Logic::X)),
                    }
                }
                Some(ScopeEntry::Mem(mid)) => {
                    let words = &ctx.store.memories[*mid];
                    let width = words.first().map_or(1, LogicVec::width);
                    match idx.to_u64() {
                        Some(i) => {
                            let raw = i.wrapping_sub(ctx.mem_offset[*mid]) as usize;
                            Ok(words
                                .get(raw)
                                .cloned()
                                .unwrap_or_else(|| LogicVec::unknown(width)))
                        }
                        None => Ok(LogicVec::unknown(width)),
                    }
                }
                Some(ScopeEntry::Param(v)) => match idx.to_u64() {
                    Some(i) => Ok(LogicVec::scalar(v.bit(i as usize))),
                    None => Ok(LogicVec::scalar(Logic::X)),
                },
                None => Err(fault(format!("undeclared identifier `{base}`"))),
            }
        }
        Expr::Range { base, msb, lsb, .. } => {
            let hi = eval_expr(msb, scope, ctx)?
                .to_u64()
                .ok_or_else(|| fault("part-select bound is unknown"))?;
            let lo = eval_expr(lsb, scope, ctx)?
                .to_u64()
                .ok_or_else(|| fault("part-select bound is unknown"))?;
            let width = part_select_width(hi, lo).ok_or_else(|| fault("part-select msb < lsb"))?;
            if width > MAX_SELECT_WIDTH {
                return Err(fault(format!(
                    "part-select [{hi}:{lo}] exceeds the width limit"
                )));
            }
            match scope.lookup(base) {
                Some(ScopeEntry::Sig(id)) => {
                    let off = ctx.sig_lsb[*id] as u64;
                    let raw_lo = lo
                        .checked_sub(off)
                        .ok_or_else(|| fault("part-select below the declared range"))?
                        as usize;
                    let raw_hi = raw_lo + (width - 1) as usize;
                    Ok(ctx.store.signals[*id].slice(raw_hi, raw_lo))
                }
                Some(ScopeEntry::Param(v)) => {
                    Ok(v.slice(lo as usize + (width - 1) as usize, lo as usize))
                }
                Some(ScopeEntry::Mem(_)) => Err(fault(format!("part-select of memory `{base}`"))),
                None => Err(fault(format!("undeclared identifier `{base}`"))),
            }
        }
        Expr::Concat { parts, .. } => {
            let vals = parts
                .iter()
                .map(|p| eval_expr(p, scope, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            if vals.is_empty() {
                return Err(fault("empty concatenation"));
            }
            Ok(LogicVec::concat(&vals))
        }
        Expr::Repeat { count, parts, .. } => {
            let n = eval_expr(count, scope, ctx)?
                .to_u64()
                .ok_or_else(|| fault("replication count is unknown"))?;
            if n == 0 || n > 4096 {
                return Err(fault(format!("bad replication count {n}")));
            }
            let vals = parts
                .iter()
                .map(|p| eval_expr(p, scope, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            if vals.is_empty() {
                return Err(fault("empty replication"));
            }
            Ok(LogicVec::concat(&vals).replicate(n as usize))
        }
        Expr::SysCall { name, .. } => match name.as_str() {
            "time" => Ok(LogicVec::from_u64(ctx.time, SYSCALL_TIME_WIDTH)),
            "random" => Ok(LogicVec::from_u64(
                u64::from(ctx.rng.next_u32()),
                SYSCALL_RANDOM_WIDTH,
            )),
            other => Err(fault(format!("unsupported system function ${other}"))),
        },
    }
}

/// Evaluates an elaboration constant: `expr` against a scope holding
/// only `params`, with no design state, `$time` at 0 and `$random`
/// seeded with 0.
pub fn eval_const(expr: &Expr, params: &HashMap<String, LogicVec>) -> Result<LogicVec, EvalFault> {
    let mut scope = Scope::default();
    for (name, value) in params {
        scope
            .entries
            .insert(name.clone(), ScopeEntry::Param(value.clone()));
    }
    let store = Store {
        signals: Vec::new(),
        memories: Vec::new(),
    };
    let mut rng = Lcg::new(0);
    let mut ctx = EvalCtx {
        store: &store,
        sig_lsb: &[],
        mem_offset: &[],
        time: 0,
        rng: &mut rng,
    };
    eval_expr(expr, &scope, &mut ctx)
}

fn unary(op: UnaryOp, v: LogicVec) -> LogicVec {
    match op {
        UnaryOp::LogicNot => LogicVec::scalar(v.logical_not()),
        UnaryOp::BitNot => v.bit_not(),
        UnaryOp::Minus => v.neg(),
        UnaryOp::Plus => v,
        UnaryOp::RedAnd => LogicVec::scalar(v.reduce_and()),
        UnaryOp::RedOr => LogicVec::scalar(v.reduce_or()),
        UnaryOp::RedXor => LogicVec::scalar(v.reduce_xor()),
        UnaryOp::RedNand => LogicVec::scalar(v.reduce_nand()),
        UnaryOp::RedNor => LogicVec::scalar(v.reduce_nor()),
        UnaryOp::RedXnor => LogicVec::scalar(v.reduce_xnor()),
    }
}

fn binary(op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
    match op {
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Mul => a.mul(b),
        BinaryOp::Div => a.div(b),
        BinaryOp::Rem => a.rem(b),
        BinaryOp::Eq => LogicVec::scalar(a.logic_eq(b)),
        BinaryOp::Neq => LogicVec::scalar(a.logic_neq(b)),
        BinaryOp::CaseEq => LogicVec::scalar(a.case_eq(b)),
        BinaryOp::CaseNeq => LogicVec::scalar(a.case_neq(b)),
        BinaryOp::Lt => LogicVec::scalar(a.lt(b)),
        BinaryOp::Le => LogicVec::scalar(a.le(b)),
        BinaryOp::Gt => LogicVec::scalar(a.gt(b)),
        BinaryOp::Ge => LogicVec::scalar(a.ge(b)),
        BinaryOp::LogicAnd => LogicVec::scalar(a.logical_and(b)),
        BinaryOp::LogicOr => LogicVec::scalar(a.logical_or(b)),
        BinaryOp::BitAnd => a.bit_and(b),
        BinaryOp::BitOr => a.bit_or(b),
        BinaryOp::BitXor => a.bit_xor(b),
        BinaryOp::BitXnor => a.bit_xnor(b),
        BinaryOp::Shl => a.shl(b),
        BinaryOp::Shr => a.shr(b),
    }
}
