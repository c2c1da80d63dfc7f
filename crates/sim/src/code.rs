//! Expression bytecode: the simulator's one expression evaluator.
//!
//! Elaboration compiles every expression site straight from the AST into
//! a flat postfix [`ExprCode`]: assignment right-hand sides, conditions,
//! delays, case subjects and labels, repeat counts, dynamic target
//! indices, system-task arguments and continuous-assign right-hand
//! sides. Identifiers resolve to signal/memory ids, parameters and
//! constant part-selects fold to constants, and execution is a dispatch
//! loop over [`Inst`]s with a reused value stack. Elaboration constants
//! ([`crate::eval_const`]) compile and run the same way against the
//! parameter table.
//!
//! Postfix order keeps the source's left-to-right evaluation order (the
//! four-state operators never short-circuit), so `$random` draws and the
//! first fault happen where a recursive evaluation would meet them. A
//! name the compiler cannot resolve becomes an [`Inst::Fault`] carrying
//! the exact runtime message, raised only when evaluation reaches it. A
//! tree-walking twin lives in the test suite as the oracle this module
//! is checked against.

use std::collections::HashMap;
use std::hash::BuildHasher;

use cirfix_ast::{BinaryOp, Expr, UnaryOp};
use cirfix_logic::{Logic, LogicVec};

use crate::design::{MemId, Scope, ScopeEntry, Signal, SignalId, Store};
use crate::eval::{EvalCtx, EvalFault, Lcg};
use crate::width::{part_select_width, MAX_SELECT_WIDTH, SYSCALL_RANDOM_WIDTH, SYSCALL_TIME_WIDTH};

/// The fault raised by evaluating a string literal as a value.
pub(crate) const STRING_AS_VALUE: &str = "string used as a value";

// ---------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------

/// One postfix instruction. Values flow through an external stack;
/// `counts` is a small auxiliary stack for replication counts so the
/// bound check can fault *before* the replicated parts are evaluated.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Push `consts[i]` (literals, folded parameters and part-selects).
    Const(u32),
    /// Push the current value of a signal.
    Sig(SignalId),
    /// Pop one value, apply a unary operator.
    Unary(UnaryOp),
    /// Pop two values, apply a binary operator.
    Binary(BinaryOp),
    /// Pop else/then/cond, push `cond ? then : else`.
    Select,
    /// Pop an index, push one bit of a signal (`x` when out of range).
    IndexSig(SignalId),
    /// Pop an index, push one word of a memory (`x` when out of range).
    IndexMem(MemId),
    /// Pop an index, push one bit of `consts[i]` (a parameter).
    IndexConst(u32),
    /// Push a constant part-select of a signal (bounds resolved to raw
    /// bit offsets at compile time).
    SliceSig {
        /// Source signal.
        sig: SignalId,
        /// Raw (lsb-relative) most significant bit.
        msb: u32,
        /// Raw least significant bit.
        lsb: u32,
    },
    /// Push a part-select whose bounds are evaluated at run time.
    SliceDyn(Box<DynSlice>),
    /// Pop `n` values, push their MSB-first concatenation.
    ConcatN(u32),
    /// Pop a replication count, validate it, push it on `counts`.
    RepeatCount,
    /// Pop a value and a pending count, push the replication.
    Replicate,
    /// Push `$time`.
    Time,
    /// Push `$random`.
    Random,
    /// Raise a fault diagnosed at compile time (undeclared identifier,
    /// out-of-range part select, …) with its exact runtime message.
    Fault(Box<str>),
}

/// A part-select whose bounds are not elaboration constants. Executing
/// it runs `msb`, checks it, runs `lsb`, checks it, then checks the
/// width and the base: one fault order for every part-select read.
#[derive(Debug, Clone)]
pub struct DynSlice {
    /// The most significant bound.
    pub msb: ExprCode,
    /// The least significant bound.
    pub lsb: ExprCode,
    /// What the select reads.
    pub base: SliceBase,
}

/// The base of a part-select.
#[derive(Debug, Clone)]
pub enum SliceBase {
    /// A signal.
    Sig(SignalId),
    /// A parameter's value.
    Param(LogicVec),
    /// A base that cannot be selected from (a memory or an undeclared
    /// name): its fault, raised once the bounds have passed their checks.
    Fault(Box<str>),
}

/// A compiled expression: postfix instructions plus a constant pool.
#[derive(Debug, Clone, Default)]
pub struct ExprCode {
    /// Postfix program.
    pub insts: Vec<Inst>,
    /// Literal and folded-constant pool.
    pub consts: Vec<LogicVec>,
}

impl ExprCode {
    /// Whether the code reads no signal, memory, `$time` or `$random`,
    /// so running it once at compile time gives its value (or fault) at
    /// every run-time evaluation.
    fn is_constant(&self) -> bool {
        !self.insts.iter().any(|inst| {
            matches!(
                inst,
                Inst::Sig(_)
                    | Inst::IndexSig(_)
                    | Inst::IndexMem(_)
                    | Inst::SliceSig { .. }
                    | Inst::SliceDyn(_)
                    | Inst::Time
                    | Inst::Random
            )
        })
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// What a name means to the compiler.
pub(crate) enum Name<'a> {
    Sig(SignalId),
    Mem(MemId),
    Param(&'a LogicVec),
}

/// A table the compiler resolves names against.
pub(crate) trait Names {
    fn name(&self, name: &str) -> Option<Name<'_>>;
}

impl Names for Scope {
    fn name(&self, name: &str) -> Option<Name<'_>> {
        self.lookup(name).map(|entry| match entry {
            ScopeEntry::Sig(id) => Name::Sig(*id),
            ScopeEntry::Mem(id) => Name::Mem(*id),
            ScopeEntry::Param(v) => Name::Param(v),
        })
    }
}

impl<S: BuildHasher> Names for HashMap<String, LogicVec, S> {
    fn name(&self, name: &str) -> Option<Name<'_>> {
        self.get(name).map(Name::Param)
    }
}

struct ExprCompiler<'a, N> {
    names: &'a N,
    signals: &'a [Signal],
    insts: Vec<Inst>,
    consts: Vec<LogicVec>,
}

impl<N: Names> ExprCompiler<'_, N> {
    fn push_const(&mut self, v: LogicVec) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn fault(&mut self, msg: impl Into<String>) {
        self.insts.push(Inst::Fault(msg.into().into_boxed_str()));
    }

    fn compile(&mut self, expr: &Expr) {
        match expr {
            Expr::Literal { value, .. } => {
                let i = self.push_const(value.clone());
                self.insts.push(Inst::Const(i));
            }
            Expr::Str { .. } => self.fault(STRING_AS_VALUE),
            Expr::Ident { name, .. } => match self.names.name(name) {
                Some(Name::Sig(id)) => self.insts.push(Inst::Sig(id)),
                Some(Name::Param(v)) => {
                    let i = self.push_const(v.clone());
                    self.insts.push(Inst::Const(i));
                }
                Some(Name::Mem(_)) => self.fault(format!("cannot read whole memory `{name}`")),
                None => self.fault(format!("undeclared identifier `{name}`")),
            },
            Expr::Unary { op, arg, .. } => {
                self.compile(arg);
                self.insts.push(Inst::Unary(*op));
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.compile(lhs);
                self.compile(rhs);
                self.insts.push(Inst::Binary(*op));
            }
            Expr::Cond {
                cond,
                then_e,
                else_e,
                ..
            } => {
                self.compile(cond);
                self.compile(then_e);
                self.compile(else_e);
                self.insts.push(Inst::Select);
            }
            Expr::Index { base, index, .. } => {
                // The index is evaluated before the base is resolved, so
                // index side effects precede base faults.
                self.compile(index);
                match self.names.name(base) {
                    Some(Name::Sig(id)) => self.insts.push(Inst::IndexSig(id)),
                    Some(Name::Mem(id)) => self.insts.push(Inst::IndexMem(id)),
                    Some(Name::Param(v)) => {
                        let i = self.push_const(v.clone());
                        self.insts.push(Inst::IndexConst(i));
                    }
                    None => self.fault(format!("undeclared identifier `{base}`")),
                }
            }
            Expr::Range { base, msb, lsb, .. } => self.compile_range(base, msb, lsb),
            Expr::Concat { parts, .. } => {
                if parts.is_empty() {
                    self.fault("empty concatenation");
                    return;
                }
                for p in parts {
                    self.compile(p);
                }
                self.insts.push(Inst::ConcatN(parts.len() as u32));
            }
            Expr::Repeat { count, parts, .. } => {
                self.compile(count);
                self.insts.push(Inst::RepeatCount);
                if parts.is_empty() {
                    self.fault("empty replication");
                    return;
                }
                for p in parts {
                    self.compile(p);
                }
                self.insts.push(Inst::ConcatN(parts.len() as u32));
                self.insts.push(Inst::Replicate);
            }
            Expr::SysCall { name, .. } => match name.as_str() {
                "time" => self.insts.push(Inst::Time),
                "random" => self.insts.push(Inst::Random),
                other => self.fault(format!("unsupported system function ${other}")),
            },
        }
    }

    /// Constant bounds (the overwhelmingly common case) are checked once,
    /// here, and fold to a raw-offset [`Inst::SliceSig`], a constant or
    /// a fault. Anything else runs as an [`Inst::SliceDyn`].
    fn compile_range(&mut self, base: &str, msb: &Expr, lsb: &Expr) {
        let slice = DynSlice {
            msb: compile_with(msb, self.names, self.signals),
            lsb: compile_with(lsb, self.names, self.signals),
            base: match self.names.name(base) {
                Some(Name::Sig(id)) => SliceBase::Sig(id),
                Some(Name::Param(v)) => SliceBase::Param(v.clone()),
                Some(Name::Mem(_)) => {
                    SliceBase::Fault(format!("part-select of memory `{base}`").into())
                }
                None => SliceBase::Fault(format!("undeclared identifier `{base}`").into()),
            },
        };
        if !(slice.msb.is_constant() && slice.lsb.is_constant()) {
            self.insts.push(Inst::SliceDyn(Box::new(slice)));
            return;
        }
        let (lo, width) = match detached(|ctx, stack, counts| slice.bounds(ctx, stack, counts)) {
            Ok(bounds) => bounds,
            Err(fault) => return self.fault(fault.0),
        };
        match &slice.base {
            SliceBase::Sig(id) => match raw_offset(lo, self.signals[*id].lsb) {
                Err(fault) => self.fault(fault.0),
                Ok(raw_lo) => match (u32::try_from(raw_lo + width - 1), u32::try_from(raw_lo)) {
                    (Ok(msb), Ok(lsb)) => self.insts.push(Inst::SliceSig { sig: *id, msb, lsb }),
                    // Offsets past `u32` read only `x`; the run-time path
                    // computes that without narrowing.
                    _ => self.insts.push(Inst::SliceDyn(Box::new(slice))),
                },
            },
            SliceBase::Param(v) => {
                let folded = v.slice(lo as usize + (width - 1) as usize, lo as usize);
                let i = self.push_const(folded);
                self.insts.push(Inst::Const(i));
            }
            SliceBase::Fault(msg) => self.fault(msg.to_string()),
        }
    }
}

fn compile_with<N: Names>(expr: &Expr, names: &N, signals: &[Signal]) -> ExprCode {
    let mut c = ExprCompiler {
        names,
        signals,
        insts: Vec::new(),
        consts: Vec::new(),
    };
    c.compile(expr);
    ExprCode {
        insts: c.insts,
        consts: c.consts,
    }
}

/// Compiles one expression against a scope. `signals` are the design's
/// signals (their declared LSBs resolve constant part-selects). Every
/// expression compiles: what cannot be resolved becomes an
/// [`Inst::Fault`] raised when evaluation reaches it.
pub fn compile_expr(expr: &Expr, scope: &Scope, signals: &[Signal]) -> ExprCode {
    compile_with(expr, scope, signals)
}

/// The value of an elaboration constant: `expr` compiled against
/// `names` (parameters only) and run without design state, with `$time`
/// at 0 and `$random` seeded with 0.
pub(crate) fn const_value<N: Names>(expr: &Expr, names: &N) -> Result<LogicVec, EvalFault> {
    let code = compile_with(expr, names, &[]);
    detached(|ctx, stack, counts| exec_code(&code, ctx, stack, counts))
}

/// [`const_value`] as a `u64`.
pub(crate) fn const_u64<N: Names>(expr: &Expr, names: &N) -> Result<u64, EvalFault> {
    const_value(expr, names)?
        .to_u64()
        .ok_or_else(|| EvalFault::new("constant expression is unknown"))
}

/// Runs `f` against an evaluation context with no design state.
fn detached<T>(f: impl FnOnce(&mut EvalCtx<'_>, &mut Vec<LogicVec>, &mut Vec<u64>) -> T) -> T {
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
    f(&mut ctx, &mut Vec::new(), &mut Vec::new())
}

// ---------------------------------------------------------------------
// Part-select checks
// ---------------------------------------------------------------------

/// The raw (LSB-relative) offset of bit `lo` of a signal declared from
/// `lsb`, shared by part-select reads and targets.
fn raw_offset(lo: u64, lsb: usize) -> Result<u64, EvalFault> {
    lo.checked_sub(lsb as u64)
        .ok_or_else(|| EvalFault::new("part-select below the declared range"))
}

/// The width of the part-select `[hi:lo]`, checked as every part-select
/// read and target is checked: `hi >= lo` (a width that overflows `u64`
/// fails this check too) and at most [`MAX_SELECT_WIDTH`] bits.
fn select_width(hi: u64, lo: u64) -> Result<u64, EvalFault> {
    let width = part_select_width(hi, lo).ok_or_else(|| EvalFault::new("part-select msb < lsb"))?;
    if width > MAX_SELECT_WIDTH {
        return Err(EvalFault::new(format!(
            "part-select [{hi}:{lo}] exceeds the width limit"
        )));
    }
    Ok(width)
}

/// The raw bits `(msb, lsb)` that the part-select target `[msb:lsb]`
/// writes on a signal declared from bit `sig_lsb`. The bounds are
/// elaboration constants over `names` (the instance's parameters);
/// procedural and continuous targets both resolve here.
///
/// IEEE 1364-2005 §5.2.1 has a partly out-of-range write change only its
/// in-range bits, in either direction. A target that ends above the
/// declared range follows it (`LogicVec::write_slice` drops the bits
/// past the signal's width), but one that starts below the range is
/// rejected here, with the fault a part-select read raises.
pub(crate) fn target_bits<N: Names>(
    msb: &Expr,
    lsb: &Expr,
    sig_lsb: usize,
    names: &N,
) -> Result<(usize, usize), EvalFault> {
    let hi = const_u64(msb, names)?;
    let lo = const_u64(lsb, names)?;
    let width = select_width(hi, lo)?;
    let raw_lo = raw_offset(lo, sig_lsb)?;
    Ok(((raw_lo + (width - 1)) as usize, raw_lo as usize))
}

fn known_bound(v: LogicVec) -> Result<u64, EvalFault> {
    v.to_u64()
        .ok_or_else(|| EvalFault::new("part-select bound is unknown"))
}

impl DynSlice {
    /// Evaluates and checks both bounds; returns the low bound and the
    /// width.
    fn bounds(
        &self,
        ctx: &mut EvalCtx<'_>,
        stack: &mut Vec<LogicVec>,
        counts: &mut Vec<u64>,
    ) -> Result<(u64, u64), EvalFault> {
        let hi = known_bound(run(&self.msb, ctx, stack, counts)?)?;
        let lo = known_bound(run(&self.lsb, ctx, stack, counts)?)?;
        Ok((lo, select_width(hi, lo)?))
    }

    fn exec(
        &self,
        ctx: &mut EvalCtx<'_>,
        stack: &mut Vec<LogicVec>,
        counts: &mut Vec<u64>,
    ) -> Result<LogicVec, EvalFault> {
        let (lo, width) = self.bounds(ctx, stack, counts)?;
        match &self.base {
            SliceBase::Sig(id) => {
                let raw_lo = raw_offset(lo, ctx.sig_lsb[*id])?;
                Ok(ctx.store.signals[*id].slice((raw_lo + width - 1) as usize, raw_lo as usize))
            }
            SliceBase::Param(v) => Ok(v.slice(lo as usize + (width - 1) as usize, lo as usize)),
            SliceBase::Fault(msg) => Err(EvalFault::new(msg.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------

/// Executes compiled code against the store. `stack` and `counts` are
/// caller-owned scratch (cleared on entry) so the hot path never
/// allocates for stack frames.
///
/// # Errors
///
/// The first [`EvalFault`] evaluation meets, with its exact message.
pub fn exec_code(
    code: &ExprCode,
    ctx: &mut EvalCtx<'_>,
    stack: &mut Vec<LogicVec>,
    counts: &mut Vec<u64>,
) -> Result<LogicVec, EvalFault> {
    stack.clear();
    counts.clear();
    run(code, ctx, stack, counts)
}

/// Runs `code` on top of whatever `stack` holds and pops its value, so
/// a [`DynSlice`] runs its bounds on the stack of the enclosing
/// expression.
fn run(
    code: &ExprCode,
    ctx: &mut EvalCtx<'_>,
    stack: &mut Vec<LogicVec>,
    counts: &mut Vec<u64>,
) -> Result<LogicVec, EvalFault> {
    for inst in &code.insts {
        match inst {
            Inst::Const(i) => stack.push(code.consts[*i as usize].clone()),
            Inst::Sig(id) => stack.push(ctx.store.signals[*id].clone()),
            Inst::Unary(op) => {
                let v = stack.pop().expect("unary operand");
                stack.push(apply_unary(*op, v));
            }
            Inst::Binary(op) => {
                let b = stack.pop().expect("binary rhs");
                let a = stack.pop().expect("binary lhs");
                stack.push(apply_binary(*op, &a, &b));
            }
            Inst::Select => {
                let e = stack.pop().expect("else value");
                let t = stack.pop().expect("then value");
                let c = stack.pop().expect("condition");
                stack.push(c.select(&t, &e));
            }
            Inst::IndexSig(id) => {
                let idx = stack.pop().expect("index");
                let sig = &ctx.store.signals[*id];
                let bit = match idx.to_u64() {
                    Some(i) => {
                        let raw = i.wrapping_sub(ctx.sig_lsb[*id] as u64);
                        sig.bit(raw as usize)
                    }
                    None => Logic::X,
                };
                stack.push(LogicVec::scalar(bit));
            }
            Inst::IndexMem(mid) => {
                let idx = stack.pop().expect("index");
                let words = &ctx.store.memories[*mid];
                let width = words.first().map_or(1, LogicVec::width);
                let v = match idx.to_u64() {
                    Some(i) => {
                        let raw = i.wrapping_sub(ctx.mem_offset[*mid]) as usize;
                        words
                            .get(raw)
                            .cloned()
                            .unwrap_or_else(|| LogicVec::unknown(width))
                    }
                    None => LogicVec::unknown(width),
                };
                stack.push(v);
            }
            Inst::IndexConst(i) => {
                let idx = stack.pop().expect("index");
                let v = &code.consts[*i as usize];
                let bit = match idx.to_u64() {
                    Some(n) => v.bit(n as usize),
                    None => Logic::X,
                };
                stack.push(LogicVec::scalar(bit));
            }
            Inst::SliceSig { sig, msb, lsb } => {
                stack.push(ctx.store.signals[*sig].slice(*msb as usize, *lsb as usize));
            }
            Inst::SliceDyn(slice) => {
                let v = slice.exec(ctx, stack, counts)?;
                stack.push(v);
            }
            Inst::ConcatN(n) => {
                let n = *n as usize;
                let at = stack.len() - n;
                let v = LogicVec::concat(&stack[at..]);
                stack.truncate(at);
                stack.push(v);
            }
            Inst::RepeatCount => {
                let c = stack.pop().expect("replication count");
                let n = c
                    .to_u64()
                    .ok_or_else(|| EvalFault::new("replication count is unknown"))?;
                if n == 0 || n > 4096 {
                    return Err(EvalFault::new(format!("bad replication count {n}")));
                }
                counts.push(n);
            }
            Inst::Replicate => {
                let v = stack.pop().expect("replicated value");
                let n = counts.pop().expect("pending count");
                stack.push(v.replicate(n as usize));
            }
            Inst::Time => stack.push(LogicVec::from_u64(ctx.time, SYSCALL_TIME_WIDTH)),
            Inst::Random => stack.push(LogicVec::from_u64(
                u64::from(ctx.rng.next_u32()),
                SYSCALL_RANDOM_WIDTH,
            )),
            Inst::Fault(msg) => return Err(EvalFault::new(msg.to_string())),
        }
    }
    Ok(stack.pop().expect("result value"))
}

fn apply_unary(op: UnaryOp, v: LogicVec) -> LogicVec {
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

fn apply_binary(op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
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

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_ast::NodeIdGen;
    use cirfix_logic::LogicVec;

    use crate::design::SignalKind;

    fn sig(lsb: usize) -> Signal {
        Signal {
            name: "a".into(),
            width: 4,
            lsb,
            kind: SignalKind::Reg,
            init: None,
        }
    }

    fn run_on(code: &ExprCode, store: &Store, sig_lsb: &[usize]) -> Result<LogicVec, EvalFault> {
        let mut rng = Lcg::new(1);
        let mut ctx = EvalCtx {
            store,
            sig_lsb,
            mem_offset: &[0],
            time: 7,
            rng: &mut rng,
        };
        exec_code(code, &mut ctx, &mut Vec::new(), &mut Vec::new())
    }

    fn scope_with_a() -> Scope {
        let mut scope = Scope::default();
        scope.entries.insert("a".into(), ScopeEntry::Sig(0));
        scope
    }

    #[test]
    fn evaluates_signals_and_operators() {
        let mut g = NodeIdGen::new();
        let a = Expr::ident(&mut g, "a");
        let one = Expr::literal_u64(&mut g, 1, 4);
        let e = Expr::binary(&mut g, BinaryOp::Add, a, one);
        let code = compile_expr(&e, &scope_with_a(), &[sig(0)]);
        let store = Store {
            signals: vec![LogicVec::from_u64(5, 4)],
            memories: vec![],
        };
        assert_eq!(run_on(&code, &store, &[0]).unwrap().to_u64(), Some(6));
    }

    #[test]
    fn index_respects_declared_lsb() {
        // a is declared [7:4]; a[4] is the raw bit 0.
        let mut g = NodeIdGen::new();
        let e = Expr::Index {
            id: g.fresh(),
            base: "a".into(),
            index: Box::new(Expr::literal_u64(&mut g, 4, 32)),
        };
        let code = compile_expr(&e, &scope_with_a(), &[sig(4)]);
        let store = Store {
            signals: vec![LogicVec::from_u64(0b0001, 4)],
            memories: vec![],
        };
        assert_eq!(run_on(&code, &store, &[4]).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn memory_reads() {
        let mut g = NodeIdGen::new();
        let mut scope = Scope::default();
        scope.entries.insert("mem".into(), ScopeEntry::Mem(0));
        let store = Store {
            signals: vec![],
            memories: vec![vec![LogicVec::from_u64(7, 8), LogicVec::from_u64(9, 8)]],
        };
        let mut read = |index: u64| {
            let e = Expr::Index {
                id: g.fresh(),
                base: "mem".into(),
                index: Box::new(Expr::literal_u64(&mut g, index, 32)),
            };
            run_on(&compile_expr(&e, &scope, &[]), &store, &[]).unwrap()
        };
        assert_eq!(read(1).to_u64(), Some(9));
        // An out-of-range read yields x.
        let out = read(5);
        assert_eq!(out.width(), 8);
        assert!(out.has_unknown());
    }

    #[test]
    fn time_and_random() {
        let mut g = NodeIdGen::new();
        let syscall = |g: &mut NodeIdGen, name: &str| {
            let e = Expr::SysCall {
                id: g.fresh(),
                name: name.into(),
                args: vec![],
            };
            compile_expr(&e, &Scope::default(), &[])
        };
        let (time, random) = (syscall(&mut g, "time"), syscall(&mut g, "random"));
        let store = Store {
            signals: vec![],
            memories: vec![],
        };
        let mut rng = Lcg::new(1);
        let mut ctx = EvalCtx {
            store: &store,
            sig_lsb: &[],
            mem_offset: &[],
            time: 42,
            rng: &mut rng,
        };
        let mut exec = |code: &ExprCode| {
            exec_code(code, &mut ctx, &mut Vec::new(), &mut Vec::new())
                .unwrap()
                .to_u64()
        };
        assert_eq!(exec(&time), Some(42));
        // Each evaluation takes the context generator's next draw.
        let (a, b) = (exec(&random), exec(&random));
        let mut reference = Lcg::new(1);
        assert_eq!(a, Some(u64::from(reference.next_u32())));
        assert_eq!(b, Some(u64::from(reference.next_u32())));
        assert_ne!(a, b, "lcg must advance");
    }

    #[test]
    fn undeclared_identifier_faults_with_exact_message() {
        let mut g = NodeIdGen::new();
        let e = Expr::ident(&mut g, "ghost");
        let code = compile_expr(&e, &Scope::default(), &[]);
        let store = Store {
            signals: vec![],
            memories: vec![],
        };
        let err = run_on(&code, &store, &[]).unwrap_err();
        assert_eq!(err.0, "undeclared identifier `ghost`");
    }

    #[test]
    fn replication_bounds_fault_before_parts() {
        let mut g = NodeIdGen::new();
        let count = Expr::literal_u64(&mut g, 5000, 32);
        let part = Expr::ident(&mut g, "a");
        let e = Expr::Repeat {
            id: g.fresh(),
            count: Box::new(count),
            parts: vec![part],
        };
        let code = compile_expr(&e, &scope_with_a(), &[sig(0)]);
        let store = Store {
            signals: vec![LogicVec::from_u64(1, 1)],
            memories: vec![],
        };
        let err = run_on(&code, &store, &[0]).unwrap_err();
        assert_eq!(err.0, "bad replication count 5000");
    }

    #[test]
    fn part_selects_fold_constant_bounds_and_defer_the_rest() {
        // a is declared [7:4]; a[5:4] is raw bits 1:0.
        let mut g = NodeIdGen::new();
        let five = Expr::literal_u64(&mut g, 5, 32);
        let four = Expr::literal_u64(&mut g, 4, 32);
        let a = Expr::ident(&mut g, "a");
        let constant = Expr::Range {
            id: g.fresh(),
            base: "a".into(),
            msb: Box::new(five),
            lsb: Box::new(four.clone()),
        };
        let code = compile_expr(&constant, &scope_with_a(), &[sig(4)]);
        assert!(matches!(
            code.insts[..],
            [Inst::SliceSig { msb: 1, lsb: 0, .. }]
        ));
        let dynamic = Expr::Range {
            id: g.fresh(),
            base: "a".into(),
            msb: Box::new(a),
            lsb: Box::new(four),
        };
        let code = compile_expr(&dynamic, &scope_with_a(), &[sig(4)]);
        assert!(matches!(code.insts[..], [Inst::SliceDyn(_)]));
        let store = Store {
            signals: vec![LogicVec::from_u64(0b0110, 4)],
            memories: vec![],
        };
        // a = 6, so the select is a[6:4], raw bits 2:0.
        assert_eq!(run_on(&code, &store, &[4]).unwrap().to_u64(), Some(0b110));
    }

    #[test]
    fn constants_use_parameters_without_a_scope() {
        let mut g = NodeIdGen::new();
        let mut params = HashMap::new();
        params.insert("WIDTH".to_string(), LogicVec::from_u64(8, 32));
        let w = Expr::ident(&mut g, "WIDTH");
        let one = Expr::literal_u64(&mut g, 1, 32);
        let e = Expr::binary(&mut g, BinaryOp::Sub, w, one);
        assert_eq!(const_u64(&e, &params).unwrap(), 7);
        let bad = Expr::ident(&mut g, "clk");
        assert_eq!(
            const_u64(&bad, &params).unwrap_err().0,
            "undeclared identifier `clk`"
        );
    }
}
