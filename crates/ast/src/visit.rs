//! Traversal, lookup and in-place mutation of the AST by node id.
//!
//! CirFix patches are sequences of edits addressed by node number; this
//! module provides the primitives those edits are implemented with:
//! pre-order walks ([`walk_module`]), id collection ([`ids_in_stmt`]),
//! lookup-and-clone ([`find_stmt`], [`find_expr`]), in-place replacement
//! ([`replace_stmt`], [`replace_expr`]), statement insertion
//! ([`insert_stmt_after`]) and fresh renumbering of inserted copies
//! ([`renumber_stmt`]).

use std::ops::ControlFlow;

use crate::expr::Expr;
use crate::module::{Connection, Decl, Instance, Item, Module, ParamDecl, SourceFile};
use crate::node::{NodeId, NodeIdGen};
use crate::stmt::{CaseArm, LValue, Sensitivity, Stmt};

/// A borrowed reference to any AST node, yielded by the walkers.
#[derive(Debug, Clone, Copy)]
pub enum NodeRef<'a> {
    /// A module.
    Module(&'a Module),
    /// A module item.
    Item(&'a Item),
    /// A statement.
    Stmt(&'a Stmt),
    /// An expression.
    Expr(&'a Expr),
    /// An assignment target.
    LValue(&'a LValue),
    /// A case arm.
    CaseArm(&'a CaseArm),
    /// A declaration variable.
    DeclVar(&'a crate::module::DeclVar),
    /// An instantiation connection.
    Connection(&'a Connection),
}

impl NodeRef<'_> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            NodeRef::Module(m) => m.id,
            NodeRef::Item(i) => i.id(),
            NodeRef::Stmt(s) => s.id(),
            NodeRef::Expr(e) => e.id(),
            NodeRef::LValue(l) => l.id(),
            NodeRef::CaseArm(a) => a.id,
            NodeRef::DeclVar(v) => v.id,
            NodeRef::Connection(c) => c.id,
        }
    }
}

// ---------------------------------------------------------------------------
// Read-only walks (pre-order).
// ---------------------------------------------------------------------------

/// Walks every node of every module in pre-order.
pub fn walk_source<'a>(file: &'a SourceFile, f: &mut impl FnMut(NodeRef<'a>)) {
    for m in &file.modules {
        walk_module(m, f);
    }
}

/// Walks every node of a module in pre-order.
pub fn walk_module<'a>(module: &'a Module, f: &mut impl FnMut(NodeRef<'a>)) {
    let _ = search_module(module, &mut visit_all(f));
}

/// Walks a statement subtree in pre-order.
pub fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(NodeRef<'a>)) {
    let _ = search_stmt(stmt, &mut visit_all(f));
}

/// Walks an expression subtree in pre-order.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(NodeRef<'a>)) {
    let _ = search_expr(expr, &mut visit_all(f));
}

/// Walks an lvalue subtree in pre-order.
pub fn walk_lvalue<'a>(lv: &'a LValue, f: &mut impl FnMut(NodeRef<'a>)) {
    let _ = search_lvalue(lv, &mut visit_all(f));
}

/// Adapts a visitor to the searches below: it never stops the walk.
fn visit_all<'a, 'f>(
    f: &'f mut impl FnMut(NodeRef<'a>),
) -> impl FnMut(NodeRef<'a>) -> ControlFlow<()> + 'f {
    move |n| {
        f(n);
        ControlFlow::Continue(())
    }
}

// The searches below are the one pre-order traversal: the walks above
// run a search to the end, and lookups stop at the first node their
// callback breaks on.

fn search_module<'a, B>(
    module: &'a Module,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    f(NodeRef::Module(module))?;
    for item in &module.items {
        search_item(item, f)?;
    }
    ControlFlow::Continue(())
}

fn search_item<'a, B>(
    item: &'a Item,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    f(NodeRef::Item(item))?;
    match item {
        Item::Decl(d) => search_decl(d, f),
        Item::Param(p) => search_param(p, f),
        Item::Assign { lhs, rhs, .. } => {
            search_lvalue(lhs, f)?;
            search_expr(rhs, f)
        }
        Item::Always { body, .. } | Item::Initial { body, .. } => search_stmt(body, f),
        Item::Instance(inst) => search_instance(inst, f),
    }
}

fn search_decl<'a, B>(
    d: &'a Decl,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if let Some((msb, lsb)) = &d.range {
        search_expr(msb, f)?;
        search_expr(lsb, f)?;
    }
    for v in &d.vars {
        f(NodeRef::DeclVar(v))?;
        if let Some((hi, lo)) = &v.array {
            search_expr(hi, f)?;
            search_expr(lo, f)?;
        }
        if let Some(init) = &v.init {
            search_expr(init, f)?;
        }
    }
    ControlFlow::Continue(())
}

fn search_param<'a, B>(
    p: &'a ParamDecl,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    search_expr(&p.value, f)
}

fn search_instance<'a, B>(
    inst: &'a Instance,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    for c in inst.params.iter().chain(&inst.ports) {
        f(NodeRef::Connection(c))?;
        if let Some(e) = &c.expr {
            search_expr(e, f)?;
        }
    }
    ControlFlow::Continue(())
}

fn search_stmt<'a, B>(
    stmt: &'a Stmt,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    f(NodeRef::Stmt(stmt))?;
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts {
                search_stmt(s, f)?;
            }
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            search_expr(cond, f)?;
            search_stmt(then_s, f)?;
            if let Some(e) = else_s {
                search_stmt(e, f)?;
            }
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            search_expr(subject, f)?;
            for arm in arms {
                f(NodeRef::CaseArm(arm))?;
                for l in &arm.labels {
                    search_expr(l, f)?;
                }
                search_stmt(&arm.body, f)?;
            }
            if let Some(d) = default {
                search_stmt(d, f)?;
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            search_stmt(init, f)?;
            search_expr(cond, f)?;
            search_stmt(step, f)?;
            search_stmt(body, f)?;
        }
        Stmt::While { cond, body, .. } => {
            search_expr(cond, f)?;
            search_stmt(body, f)?;
        }
        Stmt::Repeat { count, body, .. } => {
            search_expr(count, f)?;
            search_stmt(body, f)?;
        }
        Stmt::Forever { body, .. } => search_stmt(body, f)?,
        Stmt::Blocking {
            lhs, delay, rhs, ..
        }
        | Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => {
            search_lvalue(lhs, f)?;
            if let Some(d) = delay {
                search_expr(d, f)?;
            }
            search_expr(rhs, f)?;
        }
        Stmt::Delay { amount, body, .. } => {
            search_expr(amount, f)?;
            if let Some(b) = body {
                search_stmt(b, f)?;
            }
        }
        Stmt::EventControl {
            sensitivity, body, ..
        } => {
            if let Sensitivity::List(events) = sensitivity {
                for ev in events {
                    search_expr(&ev.expr, f)?;
                }
            }
            if let Some(b) = body {
                search_stmt(b, f)?;
            }
        }
        Stmt::Wait { cond, body, .. } => {
            search_expr(cond, f)?;
            if let Some(b) = body {
                search_stmt(b, f)?;
            }
        }
        Stmt::SysCall { args, .. } => {
            for a in args {
                search_expr(a, f)?;
            }
        }
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
    }
    ControlFlow::Continue(())
}

fn search_expr<'a, B>(
    expr: &'a Expr,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    f(NodeRef::Expr(expr))?;
    match expr {
        Expr::Literal { .. } | Expr::Ident { .. } | Expr::Str { .. } => {}
        Expr::Unary { arg, .. } => search_expr(arg, f)?,
        Expr::Binary { lhs, rhs, .. } => {
            search_expr(lhs, f)?;
            search_expr(rhs, f)?;
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            search_expr(cond, f)?;
            search_expr(then_e, f)?;
            search_expr(else_e, f)?;
        }
        Expr::Index { index, .. } => search_expr(index, f)?,
        Expr::Range { msb, lsb, .. } => {
            search_expr(msb, f)?;
            search_expr(lsb, f)?;
        }
        Expr::Concat { parts, .. } => {
            for p in parts {
                search_expr(p, f)?;
            }
        }
        Expr::Repeat { count, parts, .. } => {
            search_expr(count, f)?;
            for p in parts {
                search_expr(p, f)?;
            }
        }
        Expr::SysCall { args, .. } => {
            for a in args {
                search_expr(a, f)?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn search_lvalue<'a, B>(
    lv: &'a LValue,
    f: &mut impl FnMut(NodeRef<'a>) -> ControlFlow<B>,
) -> ControlFlow<B> {
    f(NodeRef::LValue(lv))?;
    match lv {
        LValue::Ident { .. } => {}
        LValue::Index { index, .. } => search_expr(index, f)?,
        LValue::Range { msb, lsb, .. } => {
            search_expr(msb, f)?;
            search_expr(lsb, f)?;
        }
        LValue::Concat { parts, .. } => {
            for p in parts {
                search_lvalue(p, f)?;
            }
        }
    }
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------------
// Id queries.
// ---------------------------------------------------------------------------

/// All node ids in a statement subtree.
pub fn ids_in_stmt(stmt: &Stmt) -> Vec<NodeId> {
    let mut ids = Vec::new();
    walk_stmt(stmt, &mut |n| ids.push(n.id()));
    ids
}

/// All node ids in an expression subtree.
pub fn ids_in_expr(expr: &Expr) -> Vec<NodeId> {
    let mut ids = Vec::new();
    walk_expr(expr, &mut |n| ids.push(n.id()));
    ids
}

/// The maximum node id used anywhere in the file (0 if empty).
pub fn max_id(file: &SourceFile) -> NodeId {
    let mut max = 0;
    walk_source(file, &mut |n| max = max.max(n.id()));
    max
}

// ---------------------------------------------------------------------------
// Lookup (find & clone).
// ---------------------------------------------------------------------------

/// Finds the statement with id `target` anywhere in the module; the
/// walk stops at the first match in pre-order.
pub fn find_stmt(module: &Module, target: NodeId) -> Option<&Stmt> {
    match search_module(module, &mut |n| match n {
        NodeRef::Stmt(s) if s.id() == target => ControlFlow::Break(s),
        _ => ControlFlow::Continue(()),
    }) {
        ControlFlow::Break(s) => Some(s),
        ControlFlow::Continue(()) => None,
    }
}

/// Finds the expression with id `target` anywhere in the module; the
/// walk stops at the first match in pre-order.
pub fn find_expr(module: &Module, target: NodeId) -> Option<&Expr> {
    match search_module(module, &mut |n| match n {
        NodeRef::Expr(e) if e.id() == target => ControlFlow::Break(e),
        _ => ControlFlow::Continue(()),
    }) {
        ControlFlow::Break(e) => Some(e),
        ControlFlow::Continue(()) => None,
    }
}

/// All statements of the module, pre-order.
pub fn stmts_of_module(module: &Module) -> Vec<&Stmt> {
    let mut out = Vec::new();
    walk_module(module, &mut |n| {
        if let NodeRef::Stmt(s) = n {
            out.push(s);
        }
    });
    out
}

/// All expressions of the module, pre-order.
pub fn exprs_of_module(module: &Module) -> Vec<&Expr> {
    let mut out = Vec::new();
    walk_module(module, &mut |n| {
        if let NodeRef::Expr(e) = n {
            out.push(e);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// In-place mutation by id.
// ---------------------------------------------------------------------------

/// Moves `new` into the place of the statement with id `target`; the
/// first match in pre-order wins. Hands `new` back when the module has
/// no such statement.
pub fn replace_stmt(module: &mut Module, target: NodeId, new: Stmt) -> Option<Stmt> {
    let slot = module.items.iter_mut().find_map(|item| match item {
        Item::Always { body, .. } | Item::Initial { body, .. } => stmt_mut(body, target),
        _ => None,
    });
    match slot {
        Some(slot) => *slot = new,
        None => return Some(new),
    }
    None
}

/// The statement with id `target` in `stmt`'s subtree, `stmt` included,
/// in pre-order.
fn stmt_mut(stmt: &mut Stmt, target: NodeId) -> Option<&mut Stmt> {
    if stmt.id() == target {
        return Some(stmt);
    }
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter_mut().find_map(|s| stmt_mut(s, target)),
        Stmt::If { then_s, else_s, .. } => {
            stmt_mut(then_s, target).or_else(|| stmt_mut(else_s.as_mut()?, target))
        }
        Stmt::Case { arms, default, .. } => arms
            .iter_mut()
            .find_map(|arm| stmt_mut(&mut arm.body, target))
            .or_else(|| stmt_mut(default.as_mut()?, target)),
        Stmt::For {
            init, step, body, ..
        } => stmt_mut(init, target)
            .or_else(|| stmt_mut(step, target))
            .or_else(|| stmt_mut(body, target)),
        Stmt::While { body, .. } | Stmt::Repeat { body, .. } | Stmt::Forever { body, .. } => {
            stmt_mut(body, target)
        }
        Stmt::Delay { body, .. } | Stmt::EventControl { body, .. } | Stmt::Wait { body, .. } => {
            stmt_mut(body.as_mut()?, target)
        }
        Stmt::Blocking { .. }
        | Stmt::NonBlocking { .. }
        | Stmt::EventTrigger { .. }
        | Stmt::SysCall { .. }
        | Stmt::Null { .. } => None,
    }
}

/// Moves `new` into the place of the expression with id `target`
/// anywhere in the module (statement expressions, continuous assigns,
/// parameters, declarations, connections); the first match wins. Hands
/// `new` back when the module has no such expression.
pub fn replace_expr(module: &mut Module, target: NodeId, new: Expr) -> Option<Expr> {
    let slot = module.items.iter_mut().find_map(|item| match item {
        Item::Decl(d) => pair_mut(d.range.as_mut(), target).or_else(|| {
            d.vars.iter_mut().find_map(|v| {
                pair_mut(v.array.as_mut(), target).or_else(|| expr_mut(v.init.as_mut()?, target))
            })
        }),
        Item::Param(p) => expr_mut(&mut p.value, target),
        Item::Assign { lhs, rhs, .. } => {
            lvalue_expr_mut(lhs, target).or_else(|| expr_mut(rhs, target))
        }
        Item::Always { body, .. } | Item::Initial { body, .. } => stmt_expr_mut(body, target),
        Item::Instance(inst) => (inst.params.iter_mut())
            .chain(inst.ports.iter_mut())
            .find_map(|c| expr_mut(c.expr.as_mut()?, target)),
    });
    match slot {
        Some(slot) => *slot = new,
        None => return Some(new),
    }
    None
}

/// The expression with id `target` in `expr`'s subtree, `expr`
/// included, in pre-order.
fn expr_mut(expr: &mut Expr, target: NodeId) -> Option<&mut Expr> {
    if expr.id() == target {
        return Some(expr);
    }
    match expr {
        Expr::Literal { .. } | Expr::Ident { .. } | Expr::Str { .. } => None,
        Expr::Unary { arg, .. } => expr_mut(arg, target),
        Expr::Binary { lhs, rhs, .. } => expr_mut(lhs, target).or_else(|| expr_mut(rhs, target)),
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => expr_mut(cond, target)
            .or_else(|| expr_mut(then_e, target))
            .or_else(|| expr_mut(else_e, target)),
        Expr::Index { index, .. } => expr_mut(index, target),
        Expr::Range { msb, lsb, .. } => expr_mut(msb, target).or_else(|| expr_mut(lsb, target)),
        Expr::Concat { parts, .. } => parts.iter_mut().find_map(|p| expr_mut(p, target)),
        Expr::Repeat { count, parts, .. } => {
            expr_mut(count, target).or_else(|| parts.iter_mut().find_map(|p| expr_mut(p, target)))
        }
        Expr::SysCall { args, .. } => args.iter_mut().find_map(|a| expr_mut(a, target)),
    }
}

/// The expression with id `target` in either half of a range.
fn pair_mut(pair: Option<&mut (Expr, Expr)>, target: NodeId) -> Option<&mut Expr> {
    let (msb, lsb) = pair?;
    expr_mut(msb, target).or_else(|| expr_mut(lsb, target))
}

fn lvalue_expr_mut(lv: &mut LValue, target: NodeId) -> Option<&mut Expr> {
    match lv {
        LValue::Ident { .. } => None,
        LValue::Index { index, .. } => expr_mut(index, target),
        LValue::Range { msb, lsb, .. } => expr_mut(msb, target).or_else(|| expr_mut(lsb, target)),
        LValue::Concat { parts, .. } => parts.iter_mut().find_map(|p| lvalue_expr_mut(p, target)),
    }
}

fn stmt_expr_mut(stmt: &mut Stmt, target: NodeId) -> Option<&mut Expr> {
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter_mut().find_map(|s| stmt_expr_mut(s, target)),
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => expr_mut(cond, target)
            .or_else(|| stmt_expr_mut(then_s, target))
            .or_else(|| stmt_expr_mut(else_s.as_mut()?, target)),
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => expr_mut(subject, target)
            .or_else(|| {
                arms.iter_mut().find_map(|arm| {
                    (arm.labels.iter_mut())
                        .find_map(|l| expr_mut(l, target))
                        .or_else(|| stmt_expr_mut(&mut arm.body, target))
                })
            })
            .or_else(|| stmt_expr_mut(default.as_mut()?, target)),
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => stmt_expr_mut(init, target)
            .or_else(|| expr_mut(cond, target))
            .or_else(|| stmt_expr_mut(step, target))
            .or_else(|| stmt_expr_mut(body, target)),
        Stmt::While { cond, body, .. } => {
            expr_mut(cond, target).or_else(|| stmt_expr_mut(body, target))
        }
        Stmt::Repeat { count, body, .. } => {
            expr_mut(count, target).or_else(|| stmt_expr_mut(body, target))
        }
        Stmt::Forever { body, .. } => stmt_expr_mut(body, target),
        Stmt::Blocking {
            lhs, delay, rhs, ..
        }
        | Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => lvalue_expr_mut(lhs, target)
            .or_else(|| expr_mut(delay.as_mut()?, target))
            .or_else(|| expr_mut(rhs, target)),
        Stmt::Delay { amount, body, .. } => {
            expr_mut(amount, target).or_else(|| stmt_expr_mut(body.as_mut()?, target))
        }
        Stmt::EventControl {
            sensitivity, body, ..
        } => {
            let events = match sensitivity {
                Sensitivity::List(events) => &mut events[..],
                _ => &mut [],
            };
            (events.iter_mut())
                .find_map(|ev| expr_mut(&mut ev.expr, target))
                .or_else(|| stmt_expr_mut(body.as_mut()?, target))
        }
        Stmt::Wait { cond, body, .. } => {
            expr_mut(cond, target).or_else(|| stmt_expr_mut(body.as_mut()?, target))
        }
        Stmt::SysCall { args, .. } => args.iter_mut().find_map(|a| expr_mut(a, target)),
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => None,
    }
}

/// Moves `new` in immediately after the statement with id `anchor`,
/// which must be a direct child of a `begin…end` block. Hands `new` back
/// when the module has no such statement.
///
/// Statements only occur inside `always`/`initial` processes, so a
/// successful insertion is always into procedural code — the constraint
/// CirFix's fix localization imposes (§3.6).
pub fn insert_stmt_after(module: &mut Module, anchor: NodeId, new: Stmt) -> Option<Stmt> {
    let block = module.items.iter_mut().find_map(|item| match item {
        Item::Always { body, .. } | Item::Initial { body, .. } => block_mut(body, anchor),
        _ => None,
    });
    match block {
        Some((stmts, pos)) => stmts.insert(pos + 1, new),
        None => return Some(new),
    }
    None
}

/// The block in `stmt`'s subtree holding `anchor` as a direct child, and
/// the anchor's position in it.
fn block_mut(stmt: &mut Stmt, anchor: NodeId) -> Option<(&mut Vec<Stmt>, usize)> {
    match stmt {
        Stmt::Block { stmts, .. } => match stmts.iter().position(|s| s.id() == anchor) {
            Some(pos) => Some((stmts, pos)),
            None => stmts.iter_mut().find_map(|s| block_mut(s, anchor)),
        },
        Stmt::If { then_s, else_s, .. } => {
            block_mut(then_s, anchor).or_else(|| block_mut(else_s.as_mut()?, anchor))
        }
        Stmt::Case { arms, default, .. } => arms
            .iter_mut()
            .find_map(|arm| block_mut(&mut arm.body, anchor))
            .or_else(|| block_mut(default.as_mut()?, anchor)),
        Stmt::For { body, .. }
        | Stmt::While { body, .. }
        | Stmt::Repeat { body, .. }
        | Stmt::Forever { body, .. } => block_mut(body, anchor),
        Stmt::Delay { body, .. } | Stmt::EventControl { body, .. } | Stmt::Wait { body, .. } => {
            block_mut(body.as_mut()?, anchor)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Renumbering.
// ---------------------------------------------------------------------------

/// Gives every node in a statement subtree a fresh id.
pub fn renumber_stmt(stmt: &mut Stmt, ids: &mut NodeIdGen) {
    match stmt {
        Stmt::Block { id, stmts, .. } => {
            *id = ids.fresh();
            for s in stmts {
                renumber_stmt(s, ids);
            }
        }
        Stmt::If {
            id,
            cond,
            then_s,
            else_s,
        } => {
            *id = ids.fresh();
            renumber_expr(cond, ids);
            renumber_stmt(then_s, ids);
            if let Some(e) = else_s {
                renumber_stmt(e, ids);
            }
        }
        Stmt::Case {
            id,
            subject,
            arms,
            default,
            ..
        } => {
            *id = ids.fresh();
            renumber_expr(subject, ids);
            for arm in arms {
                arm.id = ids.fresh();
                for l in &mut arm.labels {
                    renumber_expr(l, ids);
                }
                renumber_stmt(&mut arm.body, ids);
            }
            if let Some(d) = default {
                renumber_stmt(d, ids);
            }
        }
        Stmt::For {
            id,
            init,
            cond,
            step,
            body,
        } => {
            *id = ids.fresh();
            renumber_stmt(init, ids);
            renumber_expr(cond, ids);
            renumber_stmt(step, ids);
            renumber_stmt(body, ids);
        }
        Stmt::While { id, cond, body } => {
            *id = ids.fresh();
            renumber_expr(cond, ids);
            renumber_stmt(body, ids);
        }
        Stmt::Repeat { id, count, body } => {
            *id = ids.fresh();
            renumber_expr(count, ids);
            renumber_stmt(body, ids);
        }
        Stmt::Forever { id, body } => {
            *id = ids.fresh();
            renumber_stmt(body, ids);
        }
        Stmt::Blocking {
            id,
            lhs,
            delay,
            rhs,
        }
        | Stmt::NonBlocking {
            id,
            lhs,
            delay,
            rhs,
        } => {
            *id = ids.fresh();
            renumber_lvalue(lhs, ids);
            if let Some(d) = delay {
                renumber_expr(d, ids);
            }
            renumber_expr(rhs, ids);
        }
        Stmt::Delay { id, amount, body } => {
            *id = ids.fresh();
            renumber_expr(amount, ids);
            if let Some(b) = body {
                renumber_stmt(b, ids);
            }
        }
        Stmt::EventControl {
            id,
            sensitivity,
            body,
        } => {
            *id = ids.fresh();
            if let Sensitivity::List(events) = sensitivity {
                for ev in events {
                    ev.id = ids.fresh();
                    renumber_expr(&mut ev.expr, ids);
                }
            }
            if let Some(b) = body {
                renumber_stmt(b, ids);
            }
        }
        Stmt::Wait { id, cond, body } => {
            *id = ids.fresh();
            renumber_expr(cond, ids);
            if let Some(b) = body {
                renumber_stmt(b, ids);
            }
        }
        Stmt::SysCall { id, args, .. } => {
            *id = ids.fresh();
            for a in args {
                renumber_expr(a, ids);
            }
        }
        Stmt::EventTrigger { id, .. } | Stmt::Null { id } => *id = ids.fresh(),
    }
}

/// Gives every node in an expression subtree a fresh id.
pub fn renumber_expr(expr: &mut Expr, ids: &mut NodeIdGen) {
    match expr {
        Expr::Literal { id, .. } | Expr::Ident { id, .. } | Expr::Str { id, .. } => {
            *id = ids.fresh()
        }
        Expr::Unary { id, arg, .. } => {
            *id = ids.fresh();
            renumber_expr(arg, ids);
        }
        Expr::Binary { id, lhs, rhs, .. } => {
            *id = ids.fresh();
            renumber_expr(lhs, ids);
            renumber_expr(rhs, ids);
        }
        Expr::Cond {
            id,
            cond,
            then_e,
            else_e,
        } => {
            *id = ids.fresh();
            renumber_expr(cond, ids);
            renumber_expr(then_e, ids);
            renumber_expr(else_e, ids);
        }
        Expr::Index { id, index, .. } => {
            *id = ids.fresh();
            renumber_expr(index, ids);
        }
        Expr::Range { id, msb, lsb, .. } => {
            *id = ids.fresh();
            renumber_expr(msb, ids);
            renumber_expr(lsb, ids);
        }
        Expr::Concat { id, parts } => {
            *id = ids.fresh();
            for p in parts {
                renumber_expr(p, ids);
            }
        }
        Expr::Repeat { id, count, parts } => {
            *id = ids.fresh();
            renumber_expr(count, ids);
            for p in parts {
                renumber_expr(p, ids);
            }
        }
        Expr::SysCall { id, args, .. } => {
            *id = ids.fresh();
            for a in args {
                renumber_expr(a, ids);
            }
        }
    }
}

/// Gives every node in an lvalue subtree a fresh id.
pub fn renumber_lvalue(lv: &mut LValue, ids: &mut NodeIdGen) {
    match lv {
        LValue::Ident { id, .. } => *id = ids.fresh(),
        LValue::Index { id, index, .. } => {
            *id = ids.fresh();
            renumber_expr(index, ids);
        }
        LValue::Range { id, msb, lsb, .. } => {
            *id = ids.fresh();
            renumber_expr(msb, ids);
            renumber_expr(lsb, ids);
        }
        LValue::Concat { id, parts } => {
            *id = ids.fresh();
            for p in parts {
                renumber_lvalue(p, ids);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use crate::module::{Item, Module};

    fn sample_module() -> (Module, NodeIdGen) {
        let mut g = NodeIdGen::new();
        let body = Stmt::Block {
            id: g.fresh(),
            name: None,
            stmts: vec![
                Stmt::Blocking {
                    id: g.fresh(),
                    lhs: LValue::Ident {
                        id: g.fresh(),
                        name: "a".into(),
                    },
                    delay: None,
                    rhs: {
                        let b = Expr::ident(&mut g, "b");
                        let one = Expr::literal_u64(&mut g, 1, 4);
                        Expr::binary(&mut g, BinaryOp::Add, b, one)
                    },
                },
                Stmt::If {
                    id: g.fresh(),
                    cond: Expr::ident(&mut g, "c"),
                    then_s: Box::new(Stmt::Null { id: g.fresh() }),
                    else_s: None,
                },
            ],
        };
        let m = Module {
            id: g.fresh(),
            name: "m".into(),
            ports: vec![],
            items: vec![Item::Always {
                id: g.fresh(),
                body,
            }],
        };
        (m, g)
    }

    #[test]
    fn walk_visits_every_id_once() {
        let (m, g) = sample_module();
        let mut ids = Vec::new();
        walk_module(&m, &mut |n| ids.push(n.id()));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids must be unique");
        // Every allocated id below the generator's watermark that belongs
        // to the module must be visited.
        assert_eq!(ids.len() as u32, g.peek() - 1);
    }

    #[test]
    fn find_and_replace_stmt() {
        let (mut m, mut g) = sample_module();
        let all: Vec<NodeId> = stmts_of_module(&m).iter().map(|s| s.id()).collect();
        // Find the If statement.
        let if_id = *all
            .iter()
            .find(|id| matches!(find_stmt(&m, **id), Some(Stmt::If { .. })))
            .expect("module has an if");
        let replacement = Stmt::Null { id: g.fresh() };
        assert_eq!(replace_stmt(&mut m, if_id, replacement.clone()), None);
        assert!(find_stmt(&m, if_id).is_none());
        assert!(find_stmt(&m, replacement.id()).is_some());
        // Replacing a missing id hands the statement back.
        let back = replace_stmt(&mut m, 9999, replacement.clone());
        assert_eq!(back, Some(replacement));
    }

    #[test]
    fn replace_expr_in_rhs() {
        let (mut m, mut g) = sample_module();
        // Find the literal 1.
        let lit_id = exprs_of_module(&m)
            .iter()
            .find(|e| matches!(e, Expr::Literal { .. }))
            .map(|e| e.id())
            .expect("has literal");
        let two = Expr::literal_u64(&mut g, 2, 4);
        assert_eq!(replace_expr(&mut m, lit_id, two.clone()), None);
        let found = find_expr(&m, two.id()).expect("replaced");
        match found {
            Expr::Literal { value, .. } => assert_eq!(value.to_u64(), Some(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_after_block_child() {
        let (mut m, mut g) = sample_module();
        let first = stmts_of_module(&m)
            .iter()
            .find(|s| s.is_assignment())
            .map(|s| s.id())
            .expect("has assignment");
        let new_stmt = Stmt::Null { id: g.fresh() };
        assert_eq!(insert_stmt_after(&mut m, first, new_stmt.clone()), None);
        // Anchor must be a direct block child: the module id is not.
        let module_id = m.id;
        let back = insert_stmt_after(&mut m, module_id, new_stmt.clone());
        assert_eq!(back.as_ref(), Some(&new_stmt));
        // The block now has three statements.
        if let Item::Always { body, .. } = &m.items[0] {
            if let Stmt::Block { stmts, .. } = body {
                assert_eq!(stmts.len(), 3);
                assert_eq!(stmts[1].id(), new_stmt.id());
            } else {
                panic!("expected block");
            }
        } else {
            panic!("expected always");
        }
    }

    #[test]
    fn renumbering_gives_unique_fresh_ids() {
        let (m, g) = sample_module();
        let mut body = match &m.items[0] {
            Item::Always { body, .. } => body.clone(),
            _ => unreachable!(),
        };
        let old_ids = ids_in_stmt(&body);
        let mut gen = NodeIdGen::starting_at(g.peek());
        renumber_stmt(&mut body, &mut gen);
        let new_ids = ids_in_stmt(&body);
        assert_eq!(old_ids.len(), new_ids.len());
        for id in &new_ids {
            assert!(!old_ids.contains(id), "fresh ids must not collide");
        }
    }

    #[test]
    fn max_id_spans_all_modules() {
        let (m, g) = sample_module();
        let file = SourceFile::new(vec![m]);
        assert_eq!(max_id(&file), g.peek() - 1);
    }
}
