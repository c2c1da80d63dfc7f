//! Compiling procedural statements into flat, resumable programs.
//!
//! The simulator cannot execute the statement tree directly, because
//! processes suspend at delays and event controls and resume later. We
//! compile each `always`/`initial` body into a flat list of [`Op`]s with a
//! program counter; every suspension point is its own op, so resuming is
//! just continuing from `pc`. Every expression an op evaluates is
//! compiled to [`ExprCode`] here too, straight from the AST.

use std::collections::BTreeSet;

use cirfix_ast::{CaseKind, Expr, LValue, Sensitivity, Stmt};
use cirfix_logic::{EdgeKind, LogicVec};

use crate::code::{compile_expr, target_bits, ExprCode};
use crate::design::{NameMap, Scope, ScopeEntry, Signal, SignalId, SignalKind, Target};

/// A compiled process body.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Operations; `pc` indexes into this.
    pub ops: Vec<Op>,
}

/// One signal/edge pair an event control waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSpec {
    /// Watched signal.
    pub sig: SignalId,
    /// Matching transition.
    pub edge: EdgeKind,
}

/// One argument of a system task.
#[derive(Debug, Clone)]
pub enum SysArg {
    /// A string literal, kept as text (a format string or a `%s`
    /// argument).
    Text(String),
    /// Any other argument.
    Value(ExprCode),
}

/// One operation of a compiled process.
#[derive(Debug, Clone)]
pub enum Op {
    /// Blocking assignment without delay: evaluate and write immediately.
    Assign {
        /// Resolved target.
        target: Target,
        /// Source expression.
        rhs: ExprCode,
    },
    /// First half of `lhs = #d rhs`: evaluate `rhs` into the pending slot.
    EvalPending {
        /// Source expression.
        rhs: ExprCode,
    },
    /// Second half of `lhs = #d rhs`: write the pending value.
    CommitPending {
        /// Resolved target.
        target: Target,
    },
    /// Non-blocking assignment: evaluate now, update in the NBA region
    /// of `now + delay`.
    NonBlocking {
        /// Resolved target (dynamic indices are evaluated at schedule
        /// time, per IEEE 1364).
        target: Target,
        /// Source expression.
        rhs: ExprCode,
        /// Optional intra-assignment delay.
        delay: Option<ExprCode>,
    },
    /// Suspend for `amount` time units.
    WaitDelay {
        /// Delay expression.
        amount: ExprCode,
    },
    /// Suspend until one of the events fires.
    WaitEvent {
        /// Signal/edge pairs.
        events: Vec<WaitSpec>,
    },
    /// `wait (cond)`: continue when true, else sleep on the condition's
    /// signals and re-check on every change.
    WaitCond {
        /// The condition.
        cond: ExprCode,
        /// Signals to watch while false.
        watch: Vec<SignalId>,
    },
    /// `-> ev`: increment the event counter signal.
    Trigger {
        /// The event's counter signal.
        sig: SignalId,
    },
    /// A system task (`$display`, `$finish`, …).
    SysTask {
        /// Task name without `$`.
        name: String,
        /// Arguments.
        args: Vec<SysArg>,
    },
    /// Conditional branch: jump when the condition is not true.
    JumpIfFalse {
        /// Condition.
        cond: ExprCode,
        /// Target pc when false/unknown.
        target: usize,
    },
    /// Unconditional branch.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// `case` dispatch: jump to the first matching arm.
    CaseJump {
        /// Scrutinee.
        subject: ExprCode,
        /// Matching flavor.
        kind: CaseKind,
        /// (labels, target) per arm, in source order.
        arms: Vec<(Vec<ExprCode>, usize)>,
        /// Target when nothing matches (the default arm or the exit).
        default_target: usize,
    },
    /// `repeat` entry: evaluate the count and push it.
    RepeatInit {
        /// Iteration count expression.
        count: ExprCode,
    },
    /// `repeat` loop head: exit and pop when the counter is 0, else
    /// decrement and fall through.
    RepeatTest {
        /// Exit pc.
        exit: usize,
    },
    /// Process end (initial processes park here; always processes never
    /// reach it — they end in a jump to 0).
    End,
}

/// A compile-time (elaboration) failure inside a process body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl CompileError {
    fn new(message: impl Into<String>) -> CompileError {
        CompileError(message.into())
    }
}

/// Compiles a process body. `params` are the instance's parameters (the
/// names a part-select target's bounds may use), `signals` the design's
/// signals so far (every signal `scope` names); `loop_forever` is true
/// for `always` blocks.
///
/// # Errors
///
/// Returns a [`CompileError`] for semantic violations: assignments to
/// wires, undeclared names, triggers of non-events, and similar — the
/// class of mutants the paper's prototype loses to compile failures.
pub fn compile_process(
    body: &Stmt,
    scope: &Scope,
    params: &NameMap<LogicVec>,
    signals: &[Signal],
    loop_forever: bool,
) -> Result<Program, CompileError> {
    let mut c = Compiler {
        ops: Vec::new(),
        scope,
        params,
        signals,
    };
    c.compile_stmt(body)?;
    if loop_forever {
        c.ops.push(Op::Jump { target: 0 });
    } else {
        c.ops.push(Op::End);
    }
    Ok(Program { ops: c.ops })
}

struct Compiler<'a> {
    ops: Vec<Op>,
    scope: &'a Scope,
    params: &'a NameMap<LogicVec>,
    signals: &'a [Signal],
}

impl Compiler<'_> {
    fn expr(&self, expr: &Expr) -> ExprCode {
        compile_expr(expr, self.scope, self.signals)
    }

    fn here(&self) -> usize {
        self.ops.len()
    }

    /// Emits a placeholder jump and returns its index for backpatching.
    fn emit_jump_placeholder(&mut self) -> usize {
        self.ops.push(Op::Jump { target: usize::MAX });
        self.ops.len() - 1
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.ops[at] {
            Op::Jump { target: t } | Op::JumpIfFalse { target: t, .. } => *t = target,
            Op::RepeatTest { exit } => *exit = target,
            other => unreachable!("not a patchable op: {other:?}"),
        }
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Block { stmts, .. } => {
                for s in stmts {
                    self.compile_stmt(s)?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                self.ops.push(Op::JumpIfFalse {
                    cond: self.expr(cond),
                    target: usize::MAX,
                });
                let cond_jump = self.ops.len() - 1;
                self.compile_stmt(then_s)?;
                match else_s {
                    Some(e) => {
                        let skip_else = self.emit_jump_placeholder();
                        let else_start = self.here();
                        self.patch_jump(cond_jump, else_start);
                        self.compile_stmt(e)?;
                        let end = self.here();
                        self.patch_jump(skip_else, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch_jump(cond_jump, end);
                    }
                }
                Ok(())
            }
            Stmt::Case {
                kind,
                subject,
                arms,
                default,
                ..
            } => {
                self.ops.push(Op::CaseJump {
                    subject: self.expr(subject),
                    kind: *kind,
                    arms: Vec::new(),
                    default_target: usize::MAX,
                });
                let dispatch = self.ops.len() - 1;
                let mut arm_targets = Vec::new();
                let mut exit_jumps = Vec::new();
                for arm in arms {
                    let labels = arm.labels.iter().map(|l| self.expr(l)).collect();
                    arm_targets.push((labels, self.here()));
                    self.compile_stmt(&arm.body)?;
                    exit_jumps.push(self.emit_jump_placeholder());
                }
                let default_target = self.here();
                if let Some(d) = default {
                    self.compile_stmt(d)?;
                }
                let end = self.here();
                for j in exit_jumps {
                    self.patch_jump(j, end);
                }
                match &mut self.ops[dispatch] {
                    Op::CaseJump {
                        arms: slots,
                        default_target: dt,
                        ..
                    } => {
                        *slots = arm_targets;
                        *dt = default_target;
                    }
                    _ => unreachable!("dispatch op moved"),
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.compile_stmt(init)?;
                let head = self.here();
                self.ops.push(Op::JumpIfFalse {
                    cond: self.expr(cond),
                    target: usize::MAX,
                });
                let exit_jump = self.ops.len() - 1;
                self.compile_stmt(body)?;
                self.compile_stmt(step)?;
                self.ops.push(Op::Jump { target: head });
                let end = self.here();
                self.patch_jump(exit_jump, end);
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let head = self.here();
                self.ops.push(Op::JumpIfFalse {
                    cond: self.expr(cond),
                    target: usize::MAX,
                });
                let exit_jump = self.ops.len() - 1;
                self.compile_stmt(body)?;
                self.ops.push(Op::Jump { target: head });
                let end = self.here();
                self.patch_jump(exit_jump, end);
                Ok(())
            }
            Stmt::Repeat { count, body, .. } => {
                self.ops.push(Op::RepeatInit {
                    count: self.expr(count),
                });
                let head = self.here();
                self.ops.push(Op::RepeatTest { exit: usize::MAX });
                let test = self.ops.len() - 1;
                self.compile_stmt(body)?;
                self.ops.push(Op::Jump { target: head });
                let end = self.here();
                self.patch_jump(test, end);
                Ok(())
            }
            Stmt::Forever { body, .. } => {
                let head = self.here();
                self.compile_stmt(body)?;
                self.ops.push(Op::Jump { target: head });
                Ok(())
            }
            Stmt::Blocking {
                lhs, delay, rhs, ..
            } => {
                let target = self.resolve_lvalue(lhs)?;
                let rhs = self.expr(rhs);
                match delay {
                    None => self.ops.push(Op::Assign { target, rhs }),
                    Some(d) => {
                        self.ops.push(Op::EvalPending { rhs });
                        self.ops.push(Op::WaitDelay {
                            amount: self.expr(d),
                        });
                        self.ops.push(Op::CommitPending { target });
                    }
                }
                Ok(())
            }
            Stmt::NonBlocking {
                lhs, delay, rhs, ..
            } => {
                let target = self.resolve_lvalue(lhs)?;
                self.ops.push(Op::NonBlocking {
                    target,
                    rhs: self.expr(rhs),
                    delay: delay.as_ref().map(|d| self.expr(d)),
                });
                Ok(())
            }
            Stmt::Delay { amount, body, .. } => {
                self.ops.push(Op::WaitDelay {
                    amount: self.expr(amount),
                });
                if let Some(b) = body {
                    self.compile_stmt(b)?;
                }
                Ok(())
            }
            Stmt::EventControl {
                sensitivity, body, ..
            } => {
                let events = match sensitivity {
                    Sensitivity::Star => {
                        let reads = match body {
                            Some(b) => read_set(b),
                            None => BTreeSet::new(),
                        };
                        let mut events = Vec::new();
                        for name in reads {
                            if let Some(ScopeEntry::Sig(sig)) = self.scope.lookup(&name) {
                                events.push(WaitSpec {
                                    sig: *sig,
                                    edge: EdgeKind::Any,
                                });
                            }
                        }
                        if events.is_empty() {
                            return Err(CompileError::new(
                                "`@*` block reads no signals; it would never wake",
                            ));
                        }
                        events
                    }
                    Sensitivity::List(list) => {
                        let mut events = Vec::new();
                        for ev in list {
                            let mut idents = ev.expr.identifiers();
                            if idents.is_empty() {
                                return Err(CompileError::new(
                                    "event expression contains no signal",
                                ));
                            }
                            idents.dedup();
                            for name in idents {
                                match self.scope.lookup(name) {
                                    Some(ScopeEntry::Sig(sig)) => events.push(WaitSpec {
                                        sig: *sig,
                                        edge: ev.edge,
                                    }),
                                    Some(_) => {
                                        return Err(CompileError::new(format!(
                                            "`{name}` in sensitivity list is not a signal"
                                        )))
                                    }
                                    None => {
                                        return Err(CompileError::new(format!(
                                            "undeclared identifier `{name}` in sensitivity list"
                                        )))
                                    }
                                }
                            }
                        }
                        events
                    }
                };
                self.ops.push(Op::WaitEvent { events });
                if let Some(b) = body {
                    self.compile_stmt(b)?;
                }
                Ok(())
            }
            Stmt::EventTrigger { name, .. } => match self.scope.lookup(name) {
                Some(ScopeEntry::Sig(sig)) if self.signals[*sig].kind == SignalKind::Event => {
                    self.ops.push(Op::Trigger { sig: *sig });
                    Ok(())
                }
                Some(_) => Err(CompileError::new(format!("`{name}` is not an event"))),
                None => Err(CompileError::new(format!("undeclared event `{name}`"))),
            },
            Stmt::Wait { cond, body, .. } => {
                let mut watch = Vec::new();
                for name in cond.identifiers() {
                    if let Some(ScopeEntry::Sig(sig)) = self.scope.lookup(name) {
                        if !watch.contains(sig) {
                            watch.push(*sig);
                        }
                    }
                }
                self.ops.push(Op::WaitCond {
                    cond: self.expr(cond),
                    watch,
                });
                if let Some(b) = body {
                    self.compile_stmt(b)?;
                }
                Ok(())
            }
            Stmt::SysCall { name, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| match a {
                        Expr::Str { value, .. } => SysArg::Text(value.clone()),
                        e => SysArg::Value(self.expr(e)),
                    })
                    .collect();
                self.ops.push(Op::SysTask {
                    name: name.clone(),
                    args,
                });
                Ok(())
            }
            Stmt::Null { .. } => Ok(()),
        }
    }

    /// Resolves a procedural assignment target; rejects writes to wires
    /// and events.
    fn resolve_lvalue(&self, lv: &LValue) -> Result<Target, CompileError> {
        match lv {
            LValue::Ident { name, .. } => match self.scope.lookup(name) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_writable(*sig, name)?;
                    Ok(Target::Sig(*sig))
                }
                Some(ScopeEntry::Mem(_)) => Err(CompileError::new(format!(
                    "cannot assign whole memory `{name}`"
                ))),
                Some(ScopeEntry::Param(_)) => Err(CompileError::new(format!(
                    "cannot assign parameter `{name}`"
                ))),
                None => Err(CompileError::new(format!("undeclared identifier `{name}`"))),
            },
            LValue::Index { base, index, .. } => match self.scope.lookup(base) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_writable(*sig, base)?;
                    Ok(Target::BitDyn {
                        sig: *sig,
                        index: self.expr(index),
                    })
                }
                Some(ScopeEntry::Mem(mem)) => Ok(Target::Word {
                    mem: *mem,
                    index: self.expr(index),
                }),
                Some(ScopeEntry::Param(_)) => Err(CompileError::new(format!(
                    "cannot assign parameter `{base}`"
                ))),
                None => Err(CompileError::new(format!("undeclared identifier `{base}`"))),
            },
            LValue::Range { base, msb, lsb, .. } => match self.scope.lookup(base) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_writable(*sig, base)?;
                    let (msb, lsb) = target_bits(msb, lsb, self.signals[*sig].lsb, self.params)
                        .map_err(|e| CompileError::new(e.0))?;
                    Ok(Target::Bits {
                        sig: *sig,
                        msb,
                        lsb,
                    })
                }
                Some(_) => Err(CompileError::new(format!(
                    "part-select target `{base}` is not a signal"
                ))),
                None => Err(CompileError::new(format!("undeclared identifier `{base}`"))),
            },
            LValue::Concat { parts, .. } => {
                let targets = parts
                    .iter()
                    .map(|p| self.resolve_lvalue(p))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Target::Concat(targets))
            }
        }
    }

    fn check_writable(&self, sig: SignalId, name: &str) -> Result<(), CompileError> {
        match self.signals[sig].kind {
            SignalKind::Reg => Ok(()),
            SignalKind::Wire => Err(CompileError::new(format!(
                "procedural assignment to wire `{name}`"
            ))),
            SignalKind::Event => Err(CompileError::new(format!("assignment to event `{name}`"))),
        }
    }
}

/// The set of identifier names *read* by a statement subtree — the
/// sensitivity of an `@*` block.
pub fn read_set(stmt: &Stmt) -> BTreeSet<String> {
    let mut reads = BTreeSet::new();
    collect_reads(stmt, &mut reads);
    reads
}

fn collect_exprs_reads(expr: &Expr, reads: &mut BTreeSet<String>) {
    for name in expr.identifiers() {
        reads.insert(name.to_string());
    }
}

fn collect_lvalue_index_reads(lv: &LValue, reads: &mut BTreeSet<String>) {
    match lv {
        LValue::Ident { .. } => {}
        LValue::Index { index, .. } => collect_exprs_reads(index, reads),
        LValue::Range { msb, lsb, .. } => {
            collect_exprs_reads(msb, reads);
            collect_exprs_reads(lsb, reads);
        }
        LValue::Concat { parts, .. } => {
            for p in parts {
                collect_lvalue_index_reads(p, reads);
            }
        }
    }
}

fn collect_reads(stmt: &Stmt, reads: &mut BTreeSet<String>) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                collect_reads(s, reads);
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            collect_exprs_reads(cond, reads);
            collect_reads(then_s, reads);
            if let Some(e) = else_s {
                collect_reads(e, reads);
            }
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            collect_exprs_reads(subject, reads);
            for arm in arms {
                for l in &arm.labels {
                    collect_exprs_reads(l, reads);
                }
                collect_reads(&arm.body, reads);
            }
            if let Some(d) = default {
                collect_reads(d, reads);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            collect_reads(init, reads);
            collect_exprs_reads(cond, reads);
            collect_reads(step, reads);
            collect_reads(body, reads);
        }
        Stmt::While { cond, body, .. } => {
            collect_exprs_reads(cond, reads);
            collect_reads(body, reads);
        }
        Stmt::Repeat { count, body, .. } => {
            collect_exprs_reads(count, reads);
            collect_reads(body, reads);
        }
        Stmt::Forever { body, .. } => collect_reads(body, reads),
        Stmt::Blocking { lhs, rhs, .. } | Stmt::NonBlocking { lhs, rhs, .. } => {
            collect_exprs_reads(rhs, reads);
            collect_lvalue_index_reads(lhs, reads);
        }
        Stmt::Delay { body, .. } => {
            if let Some(b) = body {
                collect_reads(b, reads);
            }
        }
        Stmt::EventControl { body, .. } => {
            if let Some(b) = body {
                collect_reads(b, reads);
            }
        }
        Stmt::Wait { cond, body, .. } => {
            collect_exprs_reads(cond, reads);
            if let Some(b) = body {
                collect_reads(b, reads);
            }
        }
        Stmt::SysCall { args, .. } => {
            for a in args {
                collect_exprs_reads(a, reads);
            }
        }
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;

    /// Builds a scope + signals from a module's declarations, minimally
    /// (every signal one bit wide from bit 0).
    fn scope_for(src: &str) -> (Scope, Vec<Signal>, Stmt, bool) {
        let file = parse(src).expect("parse");
        let module = &file.modules[0];
        let mut scope = Scope::default();
        let mut kinds = Vec::new();
        for item in &module.items {
            if let cirfix_ast::Item::Decl(d) = item {
                for v in &d.vars {
                    let kind = match d.kind {
                        cirfix_ast::DeclKind::Reg | cirfix_ast::DeclKind::Integer => {
                            SignalKind::Reg
                        }
                        cirfix_ast::DeclKind::Event => SignalKind::Event,
                        cirfix_ast::DeclKind::Output if d.also_reg => SignalKind::Reg,
                        _ => SignalKind::Wire,
                    };
                    let id = kinds.len();
                    kinds.push(kind);
                    scope.entries.insert(v.name.clone(), ScopeEntry::Sig(id));
                }
            }
        }
        let (body, is_always) = module
            .items
            .iter()
            .find_map(|i| match i {
                cirfix_ast::Item::Always { body, .. } => Some((body.clone(), true)),
                cirfix_ast::Item::Initial { body, .. } => Some((body.clone(), false)),
                _ => None,
            })
            .expect("has process");
        let signals = kinds
            .into_iter()
            .map(|kind| Signal {
                name: String::new(),
                width: 1,
                lsb: 0,
                kind,
                init: None,
            })
            .collect();
        (scope, signals, body, is_always)
    }

    #[test]
    fn compiles_if_else_with_correct_targets() {
        let (scope, kinds, body, always) =
            scope_for("module m; reg a, c; always @(c) if (c) a = 1'b1; else a = 1'b0; endmodule");
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        // WaitEvent, JumpIfFalse, Assign, Jump, Assign, Jump(0)
        assert!(matches!(p.ops[0], Op::WaitEvent { .. }));
        let Op::JumpIfFalse { target, .. } = &p.ops[1] else {
            panic!("expected JumpIfFalse, got {:?}", p.ops[1]);
        };
        assert_eq!(*target, 4, "false branch jumps to the else assign");
        assert!(matches!(p.ops.last(), Some(Op::Jump { target: 0 })));
    }

    #[test]
    fn compiles_case_dispatch() {
        let (scope, kinds, body, always) = scope_for(
            "module m; reg [1:0] s; reg q; always @(s) case (s) 2'd0: q = 1'b0; 2'd1, 2'd2: q = 1'b1; default: q = 1'bx; endcase endmodule",
        );
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        let case = p
            .ops
            .iter()
            .find_map(|op| match op {
                Op::CaseJump {
                    arms,
                    default_target,
                    ..
                } => Some((arms.clone(), *default_target)),
                _ => None,
            })
            .expect("has case");
        assert_eq!(case.0.len(), 2);
        assert_eq!(case.0[1].0.len(), 2, "second arm has two labels");
        assert_ne!(case.1, usize::MAX);
    }

    #[test]
    fn rejects_procedural_assignment_to_wire() {
        let (scope, kinds, body, always) =
            scope_for("module m; wire w; reg c; always @(c) w = c; endmodule");
        let err = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap_err();
        assert!(err.0.contains("wire"));
    }

    #[test]
    fn rejects_undeclared_sensitivity() {
        let (scope, kinds, body, always) =
            scope_for("module m; reg q; always @(ghost) q = 1'b0; endmodule");
        assert!(compile_process(&body, &scope, &NameMap::default(), &kinds, always).is_err());
    }

    #[test]
    fn star_sensitivity_collects_reads() {
        let (scope, kinds, body, always) =
            scope_for("module m; reg a, b, q; always @* q = a & b; endmodule");
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        let Op::WaitEvent { events } = &p.ops[0] else {
            panic!("expected wait");
        };
        assert_eq!(events.len(), 2, "sensitive to a and b");
        assert!(events.iter().all(|e| e.edge == EdgeKind::Any));
    }

    #[test]
    fn intra_assignment_delay_splits_into_three_ops() {
        let (scope, kinds, body, always) =
            scope_for("module m; reg a, b; initial a = #5 b; endmodule");
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        assert!(matches!(p.ops[0], Op::EvalPending { .. }));
        assert!(matches!(p.ops[1], Op::WaitDelay { .. }));
        assert!(matches!(p.ops[2], Op::CommitPending { .. }));
    }

    #[test]
    fn repeat_compiles_to_counted_loop() {
        let (scope, kinds, body, always) =
            scope_for("module m; reg a; initial repeat (3) a = ~a; endmodule");
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        assert!(matches!(p.ops[0], Op::RepeatInit { .. }));
        assert!(matches!(p.ops[1], Op::RepeatTest { .. }));
    }

    #[test]
    fn trigger_requires_event() {
        let (scope, kinds, body, always) =
            scope_for("module m; event go; initial -> go; endmodule");
        let p = compile_process(&body, &scope, &NameMap::default(), &kinds, always).unwrap();
        assert!(matches!(p.ops[0], Op::Trigger { .. }));
        let (scope, kinds, body, always) = scope_for("module m; reg go; initial -> go; endmodule");
        assert!(compile_process(&body, &scope, &NameMap::default(), &kinds, always).is_err());
    }

    #[test]
    fn read_set_excludes_written_targets_but_keeps_indices() {
        let (_, _, body, _) =
            scope_for("module m; reg [3:0] q; reg [1:0] i; reg a; always @* q[i] = a; endmodule");
        let reads = read_set(&body);
        assert!(reads.contains("a"));
        assert!(reads.contains("i"), "index of lvalue is read");
        assert!(!reads.contains("q"));
    }
}
