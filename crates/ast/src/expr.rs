//! Expression nodes.

use cirfix_logic::{LiteralBase, LogicVec};

use crate::node::{NodeId, NodeIdGen};

/// Unary expression operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `!e` — logical not.
    LogicNot,
    /// `~e` — bitwise not.
    BitNot,
    /// `-e` — arithmetic negation.
    Minus,
    /// `+e` — no-op.
    Plus,
    /// `&e` — reduction and.
    RedAnd,
    /// `|e` — reduction or.
    RedOr,
    /// `^e` — reduction xor.
    RedXor,
    /// `~&e` — reduction nand.
    RedNand,
    /// `~|e` — reduction nor.
    RedNor,
    /// `~^e` — reduction xnor.
    RedXnor,
}

impl UnaryOp {
    /// Source-text spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::LogicNot => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Minus => "-",
            UnaryOp::Plus => "+",
            UnaryOp::RedAnd => "&",
            UnaryOp::RedOr => "|",
            UnaryOp::RedXor => "^",
            UnaryOp::RedNand => "~&",
            UnaryOp::RedNor => "~|",
            UnaryOp::RedXnor => "~^",
        }
    }
}

/// Binary expression operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Neq,
    /// `===`
    CaseEq,
    /// `!==`
    CaseNeq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    LogicAnd,
    /// `||`
    LogicOr,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `~^` / `^~`
    BitXnor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
}

impl BinaryOp {
    /// Source-text spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Rem => "%",
            BinaryOp::Eq => "==",
            BinaryOp::Neq => "!=",
            BinaryOp::CaseEq => "===",
            BinaryOp::CaseNeq => "!==",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::LogicAnd => "&&",
            BinaryOp::LogicOr => "||",
            BinaryOp::BitAnd => "&",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::BitXnor => "~^",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
        }
    }

    /// Precedence for the pretty-printer (higher binds tighter), following
    /// IEEE 1364 Table 5-4.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => 10,
            BinaryOp::Add | BinaryOp::Sub => 9,
            BinaryOp::Shl | BinaryOp::Shr => 8,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => 7,
            BinaryOp::Eq | BinaryOp::Neq | BinaryOp::CaseEq | BinaryOp::CaseNeq => 6,
            BinaryOp::BitAnd => 5,
            BinaryOp::BitXor | BinaryOp::BitXnor => 4,
            BinaryOp::BitOr => 3,
            BinaryOp::LogicAnd => 2,
            BinaryOp::LogicOr => 1,
        }
    }
}

/// A Verilog expression.
///
/// Every variant carries a [`NodeId`]; see the crate docs for why.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A sized or unsized literal, e.g. `4'b1010`, `500`.
    Literal {
        /// Unique node id.
        id: NodeId,
        /// The four-state value (already width-extended).
        value: LogicVec,
        /// The base the literal was written in, for faithful printing.
        base: LiteralBase,
        /// Whether the source spelled an explicit width.
        sized: bool,
    },
    /// An identifier reference (`counter_out`).
    Ident {
        /// Unique node id.
        id: NodeId,
        /// Signal, parameter or genvar name.
        name: String,
    },
    /// A unary operation.
    Unary {
        /// Unique node id.
        id: NodeId,
        /// Operator.
        op: UnaryOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// Unique node id.
        id: NodeId,
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// The ternary conditional `cond ? a : b`.
    Cond {
        /// Unique node id.
        id: NodeId,
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_e: Box<Expr>,
        /// Value when false.
        else_e: Box<Expr>,
    },
    /// A bit select or memory word select, `name[index]`.
    Index {
        /// Unique node id.
        id: NodeId,
        /// Target signal or memory name.
        base: String,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A constant part select, `name[msb:lsb]`.
    Range {
        /// Unique node id.
        id: NodeId,
        /// Target signal name.
        base: String,
        /// Most significant bit (constant expression).
        msb: Box<Expr>,
        /// Least significant bit (constant expression).
        lsb: Box<Expr>,
    },
    /// A concatenation `{a, b, c}` (first part is most significant).
    Concat {
        /// Unique node id.
        id: NodeId,
        /// Parts, MSB first.
        parts: Vec<Expr>,
    },
    /// A replication `{count{a, b}}`.
    Repeat {
        /// Unique node id.
        id: NodeId,
        /// Replication count (constant expression).
        count: Box<Expr>,
        /// Replicated parts.
        parts: Vec<Expr>,
    },
    /// A string literal (only meaningful as a system-task argument).
    Str {
        /// Unique node id.
        id: NodeId,
        /// The string contents, unescaped.
        value: String,
    },
    /// A system function call such as `$time` or `$random`.
    SysCall {
        /// Unique node id.
        id: NodeId,
        /// Function name without the `$`.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            Expr::Literal { id, .. }
            | Expr::Ident { id, .. }
            | Expr::Unary { id, .. }
            | Expr::Binary { id, .. }
            | Expr::Cond { id, .. }
            | Expr::Index { id, .. }
            | Expr::Range { id, .. }
            | Expr::Concat { id, .. }
            | Expr::Repeat { id, .. }
            | Expr::Str { id, .. }
            | Expr::SysCall { id, .. } => *id,
        }
    }

    /// Convenience constructor: a decimal literal of `value` at `width`.
    pub fn literal_u64(ids: &mut NodeIdGen, value: u64, width: usize) -> Expr {
        Expr::Literal {
            id: ids.fresh(),
            value: LogicVec::from_u64(value, width),
            base: LiteralBase::Decimal,
            sized: true,
        }
    }

    /// Convenience constructor: an identifier reference.
    pub fn ident(ids: &mut NodeIdGen, name: impl Into<String>) -> Expr {
        Expr::Ident {
            id: ids.fresh(),
            name: name.into(),
        }
    }

    /// Convenience constructor: a unary operation.
    pub fn unary(ids: &mut NodeIdGen, op: UnaryOp, arg: Expr) -> Expr {
        Expr::Unary {
            id: ids.fresh(),
            op,
            arg: Box::new(arg),
        }
    }

    /// Convenience constructor: a binary operation.
    pub fn binary(ids: &mut NodeIdGen, op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            id: ids.fresh(),
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Collects every identifier name referenced in this expression
    /// (including index/range bases), in source order with duplicates.
    pub fn identifiers(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_identifiers(&mut out);
        out
    }

    fn collect_identifiers<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Literal { .. } | Expr::Str { .. } => {}
            Expr::Ident { name, .. } => out.push(name),
            Expr::Unary { arg, .. } => arg.collect_identifiers(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_identifiers(out);
                rhs.collect_identifiers(out);
            }
            Expr::Cond {
                cond,
                then_e,
                else_e,
                ..
            } => {
                cond.collect_identifiers(out);
                then_e.collect_identifiers(out);
                else_e.collect_identifiers(out);
            }
            Expr::Index { base, index, .. } => {
                out.push(base);
                index.collect_identifiers(out);
            }
            Expr::Range { base, msb, lsb, .. } => {
                out.push(base);
                msb.collect_identifiers(out);
                lsb.collect_identifiers(out);
            }
            Expr::Concat { parts, .. } => {
                for p in parts {
                    p.collect_identifiers(out);
                }
            }
            Expr::Repeat { count, parts, .. } => {
                count.collect_identifiers(out);
                for p in parts {
                    p.collect_identifiers(out);
                }
            }
            Expr::SysCall { args, .. } => {
                for a in args {
                    a.collect_identifiers(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_attached() {
        let mut g = NodeIdGen::new();
        let a = Expr::ident(&mut g, "a");
        let one = Expr::literal_u64(&mut g, 1, 4);
        let e = Expr::binary(&mut g, BinaryOp::Add, a, one);
        assert!(e.id() > 0);
        if let Expr::Binary { lhs, rhs, .. } = &e {
            assert_ne!(lhs.id(), rhs.id());
            assert_ne!(lhs.id(), e.id());
        } else {
            unreachable!();
        }
    }

    #[test]
    fn identifiers_are_collected_transitively() {
        let mut g = NodeIdGen::new();
        let state = Expr::ident(&mut g, "state");
        let idle = Expr::ident(&mut g, "IDLE");
        let cond = Expr::binary(&mut g, BinaryOp::Eq, state, idle);
        let addr = Expr::ident(&mut g, "addr");
        let zero = Expr::literal_u64(&mut g, 0, 8);
        let e = Expr::Cond {
            id: g.fresh(),
            cond: Box::new(cond),
            then_e: Box::new(Expr::Index {
                id: g.fresh(),
                base: "mem".into(),
                index: Box::new(addr),
            }),
            else_e: Box::new(zero),
        };
        assert_eq!(e.identifiers(), vec!["state", "IDLE", "mem", "addr"]);
    }

    #[test]
    fn precedence_ordering_is_sane() {
        assert!(BinaryOp::Mul.precedence() > BinaryOp::Add.precedence());
        assert!(BinaryOp::Add.precedence() > BinaryOp::Eq.precedence());
        assert!(BinaryOp::Eq.precedence() > BinaryOp::LogicAnd.precedence());
        assert!(BinaryOp::LogicAnd.precedence() > BinaryOp::LogicOr.precedence());
    }
}
