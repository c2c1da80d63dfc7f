//! Static self-determined expression widths (IEEE 1364 §4.4).
//!
//! The simulator's expression bytecode ([`crate::code`]) determines
//! result widths dynamically through [`LogicVec`] operations; the lint
//! passes need the same widths *without* running the design. This module
//! is the single implementation of the self-determined-width rules,
//! shared by both: the per-operator rules here mirror the `cirfix_logic`
//! ops exactly (additions widen to `max`, shifts keep the left operand's
//! width, comparisons collapse to a scalar, …), and the evaluator uses
//! [`part_select_width`], [`MAX_SELECT_WIDTH`] and the `SYSCALL_*_WIDTH`
//! constants so the two sides cannot drift apart silently.

use cirfix_ast::{BinaryOp, Expr, UnaryOp};
use cirfix_logic::LogicVec;

/// Hard cap on the width of any part select or declared range. Mutated
/// designs can request astronomically wide slices (e.g.
/// `s0[32'h5a5a5a5a:0]`); anything beyond this is a fault rather than
/// an allocation.
pub const MAX_SELECT_WIDTH: u64 = 1 << 16;

/// Width of `$time` results (IEEE 1364 §17.7.1).
pub const SYSCALL_TIME_WIDTH: usize = 64;

/// Width of `$random` results (IEEE 1364 §17.9.1).
pub const SYSCALL_RANDOM_WIDTH: usize = 32;

/// Result width of a system function, if it is one the simulator
/// implements.
pub fn syscall_width(name: &str) -> Option<usize> {
    match name {
        "time" => Some(SYSCALL_TIME_WIDTH),
        "random" => Some(SYSCALL_RANDOM_WIDTH),
        _ => None,
    }
}

/// Width of the part select `[msb:lsb]`, or `None` when `msb < lsb` or
/// the width overflows — the same check the evaluator and elaborator
/// apply before slicing.
pub fn part_select_width(msb: u64, lsb: u64) -> Option<u64> {
    msb.checked_sub(lsb).and_then(|d| d.checked_add(1))
}

/// Result width of a binary operator given its operand widths —
/// mirroring the corresponding `LogicVec` operation.
pub fn binary_result_width(op: BinaryOp, lhs: usize, rhs: usize) -> usize {
    match op {
        // Arithmetic and bitwise ops work at the max operand width.
        BinaryOp::Add
        | BinaryOp::Sub
        | BinaryOp::Mul
        | BinaryOp::Div
        | BinaryOp::Rem
        | BinaryOp::BitAnd
        | BinaryOp::BitOr
        | BinaryOp::BitXor
        | BinaryOp::BitXnor => lhs.max(rhs),
        // Comparisons and logical connectives produce a scalar.
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::CaseEq
        | BinaryOp::CaseNeq
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge
        | BinaryOp::LogicAnd
        | BinaryOp::LogicOr => 1,
        // Shifts keep the left operand's width.
        BinaryOp::Shl | BinaryOp::Shr => lhs,
    }
}

/// Result width of a unary operator given its operand width.
pub fn unary_result_width(op: UnaryOp, arg: usize) -> usize {
    match op {
        UnaryOp::LogicNot
        | UnaryOp::RedAnd
        | UnaryOp::RedOr
        | UnaryOp::RedXor
        | UnaryOp::RedNand
        | UnaryOp::RedNor
        | UnaryOp::RedXnor => 1,
        UnaryOp::BitNot | UnaryOp::Minus | UnaryOp::Plus => arg,
    }
}

/// What a static width query can know about the names an expression
/// references. Unknown names make the containing width unknown rather
/// than an error — lint runs on designs that may not elaborate.
pub trait WidthEnv {
    /// Declared width of a signal, port, or parameter.
    fn signal_width(&self, name: &str) -> Option<usize>;

    /// Word width of a memory (`reg [7:0] mem [0:255]` → 8); `None` for
    /// non-memories.
    fn memory_word_width(&self, _name: &str) -> Option<usize> {
        None
    }

    /// Constant value of a parameter, for folding part-select bounds and
    /// replication counts.
    fn const_value(&self, _name: &str) -> Option<LogicVec> {
        None
    }
}

/// A [`WidthEnv`] that knows nothing — literals-only expressions still
/// resolve.
pub struct EmptyWidthEnv;

impl WidthEnv for EmptyWidthEnv {
    fn signal_width(&self, _name: &str) -> Option<usize> {
        None
    }
}

/// Folds a constant expression (literals, parameters, operators) without
/// a simulator scope. Returns `None` for anything non-constant.
fn fold_const(expr: &Expr, env: &dyn WidthEnv) -> Option<LogicVec> {
    match expr {
        Expr::Literal { value, .. } => Some(value.clone()),
        Expr::Ident { name, .. } => env.const_value(name),
        Expr::Unary { op, arg, .. } => {
            let v = fold_const(arg, env)?;
            Some(match op {
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
            })
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = fold_const(lhs, env)?;
            let b = fold_const(rhs, env)?;
            Some(match op {
                BinaryOp::Add => a.add(&b),
                BinaryOp::Sub => a.sub(&b),
                BinaryOp::Mul => a.mul(&b),
                BinaryOp::Div => a.div(&b),
                BinaryOp::Rem => a.rem(&b),
                BinaryOp::Shl => a.shl(&b),
                BinaryOp::Shr => a.shr(&b),
                BinaryOp::BitAnd => a.bit_and(&b),
                BinaryOp::BitOr => a.bit_or(&b),
                BinaryOp::BitXor => a.bit_xor(&b),
                BinaryOp::BitXnor => a.bit_xnor(&b),
                _ => return None,
            })
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            let c = fold_const(cond, env)?;
            let t = fold_const(then_e, env)?;
            let e = fold_const(else_e, env)?;
            Some(c.select(&t, &e))
        }
        _ => None,
    }
}

/// Folds a constant expression to a known `u64`.
pub fn const_u64(expr: &Expr, env: &dyn WidthEnv) -> Option<u64> {
    fold_const(expr, env)?.to_u64()
}

/// The self-determined width of `expr`, or `None` when it depends on a
/// name the environment does not know.
pub fn self_determined_width(expr: &Expr, env: &dyn WidthEnv) -> Option<usize> {
    match expr {
        Expr::Literal { value, .. } => Some(value.width()),
        Expr::Str { .. } => None,
        Expr::Ident { name, .. } => env.signal_width(name),
        Expr::Unary { op, arg, .. } => {
            // Reductions and logical not are scalar regardless of the
            // operand, so an unknown operand width is still fine.
            match unary_result_width(*op, 1) {
                1 if matches!(
                    op,
                    UnaryOp::LogicNot
                        | UnaryOp::RedAnd
                        | UnaryOp::RedOr
                        | UnaryOp::RedXor
                        | UnaryOp::RedNand
                        | UnaryOp::RedNor
                        | UnaryOp::RedXnor
                ) =>
                {
                    Some(1)
                }
                _ => Some(unary_result_width(*op, self_determined_width(arg, env)?)),
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => match binary_result_width(*op, 1, 1) {
            1 if matches!(
                op,
                BinaryOp::Eq
                    | BinaryOp::Neq
                    | BinaryOp::CaseEq
                    | BinaryOp::CaseNeq
                    | BinaryOp::Lt
                    | BinaryOp::Le
                    | BinaryOp::Gt
                    | BinaryOp::Ge
                    | BinaryOp::LogicAnd
                    | BinaryOp::LogicOr
            ) =>
            {
                Some(1)
            }
            _ => {
                let l = self_determined_width(lhs, env)?;
                match op {
                    // Shifts ignore the amount's width entirely.
                    BinaryOp::Shl | BinaryOp::Shr => Some(binary_result_width(*op, l, 0)),
                    _ => Some(binary_result_width(
                        *op,
                        l,
                        self_determined_width(rhs, env)?,
                    )),
                }
            }
        },
        Expr::Cond { then_e, else_e, .. } => {
            // The context width of a ternary: branches widen to the max.
            let t = self_determined_width(then_e, env)?;
            let e = self_determined_width(else_e, env)?;
            Some(t.max(e))
        }
        Expr::Index { base, .. } => match env.memory_word_width(base) {
            Some(w) => Some(w),
            None => env.signal_width(base).map(|_| 1),
        },
        Expr::Range { base, msb, lsb, .. } => {
            // The base must at least be known for the select to be valid.
            env.signal_width(base)?;
            let hi = const_u64(msb, env)?;
            let lo = const_u64(lsb, env)?;
            part_select_width(hi, lo).map(|w| w as usize)
        }
        Expr::Concat { parts, .. } => {
            if parts.is_empty() {
                return None;
            }
            parts
                .iter()
                .map(|p| self_determined_width(p, env))
                .try_fold(0usize, |acc, w| w.map(|w| acc + w))
        }
        Expr::Repeat { count, parts, .. } => {
            let n = const_u64(count, env)? as usize;
            let inner = parts
                .iter()
                .map(|p| self_determined_width(p, env))
                .try_fold(0usize, |acc, w| w.map(|w| acc + w))?;
            Some(n * inner)
        }
        Expr::SysCall { name, .. } => syscall_width(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_ast::NodeIdGen;

    fn lit(g: &mut NodeIdGen, v: u64, w: usize) -> Expr {
        Expr::literal_u64(g, v, w)
    }

    struct Env;
    impl WidthEnv for Env {
        fn signal_width(&self, name: &str) -> Option<usize> {
            match name {
                "a" => Some(8),
                "b" => Some(4),
                _ => None,
            }
        }

        fn memory_word_width(&self, name: &str) -> Option<usize> {
            (name == "mem").then_some(16)
        }

        fn const_value(&self, name: &str) -> Option<LogicVec> {
            (name == "P").then(|| LogicVec::from_u64(3, 32))
        }
    }

    #[test]
    fn operator_widths_match_the_rules() {
        let mut g = NodeIdGen::new();
        let a = Expr::ident(&mut g, "a");
        let b = Expr::ident(&mut g, "b");
        let add = Expr::binary(&mut g, BinaryOp::Add, a.clone(), b.clone());
        assert_eq!(self_determined_width(&add, &Env), Some(8));
        let shl = Expr::binary(&mut g, BinaryOp::Shl, b.clone(), a.clone());
        assert_eq!(self_determined_width(&shl, &Env), Some(4));
        let eq = Expr::binary(&mut g, BinaryOp::Eq, a.clone(), b.clone());
        assert_eq!(self_determined_width(&eq, &Env), Some(1));
        let red = Expr::unary(&mut g, UnaryOp::RedXor, a.clone());
        assert_eq!(self_determined_width(&red, &Env), Some(1));
        let not = Expr::unary(&mut g, UnaryOp::BitNot, b.clone());
        assert_eq!(self_determined_width(&not, &Env), Some(4));
    }

    #[test]
    fn selects_concats_and_syscalls() {
        let mut g = NodeIdGen::new();
        let range = Expr::Range {
            id: g.fresh(),
            base: "a".into(),
            msb: Box::new(Expr::ident(&mut g, "P")),
            lsb: Box::new(lit(&mut g, 1, 32)),
        };
        assert_eq!(self_determined_width(&range, &Env), Some(3));
        let idx = Expr::Index {
            id: g.fresh(),
            base: "mem".into(),
            index: Box::new(lit(&mut g, 0, 4)),
        };
        assert_eq!(self_determined_width(&idx, &Env), Some(16));
        let bit = Expr::Index {
            id: g.fresh(),
            base: "a".into(),
            index: Box::new(lit(&mut g, 0, 4)),
        };
        assert_eq!(self_determined_width(&bit, &Env), Some(1));
        let cat = Expr::Concat {
            id: g.fresh(),
            parts: vec![Expr::ident(&mut g, "a"), Expr::ident(&mut g, "b")],
        };
        assert_eq!(self_determined_width(&cat, &Env), Some(12));
        let rep = Expr::Repeat {
            id: g.fresh(),
            count: Box::new(lit(&mut g, 3, 32)),
            parts: vec![Expr::ident(&mut g, "b")],
        };
        assert_eq!(self_determined_width(&rep, &Env), Some(12));
        let t = Expr::SysCall {
            id: g.fresh(),
            name: "time".into(),
            args: vec![],
        };
        assert_eq!(self_determined_width(&t, &Env), Some(SYSCALL_TIME_WIDTH));
    }

    #[test]
    fn unknown_names_propagate_to_none() {
        let mut g = NodeIdGen::new();
        let unk = Expr::ident(&mut g, "nope");
        assert_eq!(self_determined_width(&unk, &Env), None);
        let a = Expr::ident(&mut g, "a");
        let add = Expr::binary(&mut g, BinaryOp::Add, a, unk);
        assert_eq!(self_determined_width(&add, &Env), None);
        // ...but scalar-producing ops stay known.
        let mut g2 = NodeIdGen::new();
        let unk2 = Expr::ident(&mut g2, "nope");
        let red = Expr::unary(&mut g2, UnaryOp::RedOr, unk2);
        assert_eq!(self_determined_width(&red, &Env), Some(1));
    }

    #[test]
    fn part_select_width_is_checked() {
        assert_eq!(part_select_width(7, 4), Some(4));
        assert_eq!(part_select_width(0, 0), Some(1));
        assert_eq!(part_select_width(3, 5), None);
    }
}
