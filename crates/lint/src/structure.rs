//! The program-structure layer: a per-module summary computed once and
//! shared by every lint pass.
//!
//! [`ModuleStructure`] resolves parameters, declared signal widths and
//! memories, classifies each process as clocked or combinational,
//! builds a [`Cfg`] per process body, records every assignment site,
//! and aggregates a driver map (who writes each signal) plus def/use
//! chains (where each signal is written and read).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cirfix_ast::{CaseKind, Decl, DeclKind, Expr, Item, LValue, Module, NodeId, Sensitivity, Stmt};
use cirfix_logic::{EdgeKind, LogicVec};
use cirfix_sim::eval_const;
use cirfix_sim::width::{part_select_width, WidthEnv};

use crate::cfg::Cfg;

/// How an `always` process is triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clocking {
    /// Sensitivity list contains a `posedge`/`negedge` term.
    Clocked,
    /// `@*` or a level-only sensitivity list.
    Combinational,
    /// No top-level event control (e.g. `always #5 clk = !clk;`) or an
    /// `initial` process.
    Unclocked,
}

/// Everything the passes need to know about one declared name.
#[derive(Debug, Clone)]
pub struct SignalInfo {
    /// Id of the (first) declaration that introduced the name.
    pub decl_id: NodeId,
    /// Declared as `reg`/`integer` (directly or via `output reg`).
    pub is_reg: bool,
    /// Declared as an `input` port.
    pub is_input: bool,
    /// Vector width in bits, when the range folds to constants.
    pub width: Option<usize>,
    /// Word width when the name is a memory (`reg [7:0] m [0:255]`).
    pub memory_word: Option<usize>,
}

/// One procedural assignment statement, flattened out of a process.
#[derive(Debug, Clone)]
pub struct AssignSite {
    /// Id of the assignment statement.
    pub stmt_id: NodeId,
    /// Blocking (`=`) vs non-blocking (`<=`).
    pub blocking: bool,
    /// All signal names the lvalue writes (possibly partially).
    pub names: Vec<String>,
    /// The subset of `names` written as a whole signal (plain
    /// identifier targets, including identifier parts of a concat).
    pub whole: Vec<String>,
}

/// Who drives a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriverOrigin {
    /// A continuous `assign` item (by item id).
    Continuous(NodeId),
    /// An `always` process (by index into [`ModuleStructure::processes`]).
    Process(usize),
}

/// One place a signal is written from.
#[derive(Debug, Clone)]
pub struct DriverSite {
    /// The assignment's node id (item id for continuous assigns,
    /// statement id for procedural ones).
    pub site: NodeId,
    /// Which construct the write belongs to.
    pub origin: DriverOrigin,
    /// Whether the write covers the whole signal.
    pub whole: bool,
}

/// One process (`always` or `initial`) and its derived facts.
#[derive(Debug)]
pub struct ProcessInfo<'a> {
    /// Id of the `always`/`initial` item.
    pub item_id: NodeId,
    /// `always` vs `initial`.
    pub is_always: bool,
    /// Trigger classification.
    pub clocking: Clocking,
    /// The body inside the top-level event control (or the raw body
    /// when there is none). `None` for `always @(posedge clk);`.
    pub body: Option<&'a Stmt>,
    /// Control-flow graph over `body`.
    pub cfg: Option<Cfg>,
    /// Every assignment statement in the body, in walk order.
    pub assigns: Vec<AssignSite>,
}

/// The per-module structural summary shared by all passes.
#[derive(Debug)]
pub struct ModuleStructure<'a> {
    /// The analyzed module.
    pub module: &'a Module,
    /// Parameter values that fold to constants.
    pub params: HashMap<String, LogicVec>,
    /// Declared signals by name.
    pub signals: BTreeMap<String, SignalInfo>,
    /// Processes in source order.
    pub processes: Vec<ProcessInfo<'a>>,
    /// Driver map: every write site per signal, excluding `initial`
    /// blocks (initialization is not a driver).
    pub drivers: BTreeMap<String, Vec<DriverSite>>,
    /// Def chains: node ids of assignments writing each signal
    /// (including `initial` blocks).
    pub defs: BTreeMap<String, Vec<NodeId>>,
    /// Use chains: expression node ids reading each signal.
    pub uses: BTreeMap<String, Vec<NodeId>>,
    /// `case` statements whose labels provably cover every subject
    /// value (no latch through the missing default).
    pub full_cases: BTreeSet<NodeId>,
}

impl WidthEnv for ModuleStructure<'_> {
    fn signal_width(&self, name: &str) -> Option<usize> {
        let info = self.signals.get(name)?;
        if info.memory_word.is_some() {
            return None;
        }
        info.width
    }

    fn memory_word_width(&self, name: &str) -> Option<usize> {
        self.signals.get(name)?.memory_word
    }

    fn const_value(&self, name: &str) -> Option<&LogicVec> {
        self.params.get(name)
    }
}

impl<'a> ModuleStructure<'a> {
    /// Analyzes `module` and builds the full summary.
    pub fn new(module: &'a Module) -> ModuleStructure<'a> {
        let mut s = ModuleStructure {
            module,
            params: HashMap::new(),
            signals: BTreeMap::new(),
            processes: Vec::new(),
            drivers: BTreeMap::new(),
            defs: BTreeMap::new(),
            uses: BTreeMap::new(),
            full_cases: BTreeSet::new(),
        };
        // Parameters first (in source order, so later parameters may
        // reference earlier ones), then declarations, then processes.
        for item in &module.items {
            if let Item::Param(p) = item {
                if let Ok(v) = eval_const(&p.value, &s.params) {
                    s.params.insert(p.name.clone(), v);
                }
            }
        }
        for item in &module.items {
            if let Item::Decl(d) = item {
                s.add_decl(d);
            }
        }
        for item in &module.items {
            match item {
                Item::Assign { id, lhs, rhs } => {
                    for (name, whole) in lvalue_writes(lhs) {
                        s.drivers.entry(name.clone()).or_default().push(DriverSite {
                            site: *id,
                            origin: DriverOrigin::Continuous(*id),
                            whole,
                        });
                        s.defs.entry(name).or_default().push(*id);
                    }
                    collect_lvalue_uses(lhs, &mut s.uses);
                    collect_expr_uses(rhs, &mut s.uses);
                }
                Item::Always { id, body } => s.add_process(*id, true, body),
                Item::Initial { id, body } => s.add_process(*id, false, body),
                _ => {}
            }
        }
        s
    }

    fn add_decl(&mut self, d: &Decl) {
        let width = self.range_width(d);
        for var in &d.vars {
            let memory_word = var.array.as_ref().map(|_| width.unwrap_or(1));
            let is_reg = matches!(d.kind, DeclKind::Reg | DeclKind::Integer) || d.also_reg;
            let entry = self
                .signals
                .entry(var.name.clone())
                .or_insert_with(|| SignalInfo {
                    decl_id: d.id,
                    is_reg: false,
                    is_input: false,
                    width: None,
                    memory_word: None,
                });
            entry.is_reg |= is_reg;
            entry.is_input |= d.kind == DeclKind::Input;
            if entry.width.is_none() {
                entry.width = width;
            }
            if entry.memory_word.is_none() {
                entry.memory_word = memory_word;
            }
        }
    }

    fn range_width(&self, d: &Decl) -> Option<usize> {
        match (&d.range, d.kind) {
            (Some((msb, lsb)), _) => {
                let hi = eval_const(msb, &self.params).ok()?.to_u64()?;
                let lo = eval_const(lsb, &self.params).ok()?.to_u64()?;
                part_select_width(hi, lo).map(|w| w as usize)
            }
            (None, DeclKind::Integer) => Some(32),
            (None, _) => Some(1),
        }
    }

    fn add_process(&mut self, item_id: NodeId, is_always: bool, raw_body: &'a Stmt) {
        let (clocking, body) = match raw_body {
            Stmt::EventControl {
                sensitivity, body, ..
            } if is_always => {
                let clocking = match sensitivity {
                    Sensitivity::Star => Clocking::Combinational,
                    Sensitivity::List(terms) => {
                        if terms.iter().any(|t| t.edge != EdgeKind::Any) {
                            Clocking::Clocked
                        } else {
                            Clocking::Combinational
                        }
                    }
                };
                (clocking, body.as_deref())
            }
            _ => (Clocking::Unclocked, Some(raw_body)),
        };
        let clocking = if is_always {
            clocking
        } else {
            Clocking::Unclocked
        };

        let mut assigns = Vec::new();
        let mut cases = Vec::new();
        if let Some(b) = body {
            self.walk_stmt(b, &mut assigns, &mut cases);
        }
        for case_id in cases {
            self.full_cases.insert(case_id);
        }
        let idx = self.processes.len();
        for a in &assigns {
            for name in &a.names {
                self.defs.entry(name.clone()).or_default().push(a.stmt_id);
                if is_always {
                    self.drivers
                        .entry(name.clone())
                        .or_default()
                        .push(DriverSite {
                            site: a.stmt_id,
                            origin: DriverOrigin::Process(idx),
                            whole: a.whole.contains(name),
                        });
                }
            }
        }
        let cfg = body.map(|b| Cfg::build(b, &self.full_cases));
        self.processes.push(ProcessInfo {
            item_id,
            is_always,
            clocking,
            body,
            cfg,
            assigns,
        });
    }

    /// Collects assignment sites, expression uses and exhaustive
    /// `case` statements from one statement tree.
    fn walk_stmt(&mut self, stmt: &Stmt, assigns: &mut Vec<AssignSite>, cases: &mut Vec<NodeId>) {
        match stmt {
            Stmt::Block { stmts, .. } => {
                for s in stmts {
                    self.walk_stmt(s, assigns, cases);
                }
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                ..
            } => {
                collect_expr_uses(cond, &mut self.uses);
                self.walk_stmt(then_s, assigns, cases);
                if let Some(e) = else_s {
                    self.walk_stmt(e, assigns, cases);
                }
            }
            Stmt::Case {
                id,
                kind,
                subject,
                arms,
                default,
                ..
            } => {
                collect_expr_uses(subject, &mut self.uses);
                for arm in arms {
                    for l in &arm.labels {
                        collect_expr_uses(l, &mut self.uses);
                    }
                    self.walk_stmt(&arm.body, assigns, cases);
                }
                if let Some(d) = default {
                    self.walk_stmt(d, assigns, cases);
                }
                if default.is_none() && self.case_is_full(*kind, subject, arms) {
                    cases.push(*id);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.walk_stmt(init, assigns, cases);
                collect_expr_uses(cond, &mut self.uses);
                self.walk_stmt(step, assigns, cases);
                self.walk_stmt(body, assigns, cases);
            }
            Stmt::While { cond, body, .. } => {
                collect_expr_uses(cond, &mut self.uses);
                self.walk_stmt(body, assigns, cases);
            }
            Stmt::Repeat { count, body, .. } => {
                collect_expr_uses(count, &mut self.uses);
                self.walk_stmt(body, assigns, cases);
            }
            Stmt::Forever { body, .. } => self.walk_stmt(body, assigns, cases),
            Stmt::Blocking {
                id,
                lhs,
                delay,
                rhs,
                ..
            }
            | Stmt::NonBlocking {
                id,
                lhs,
                delay,
                rhs,
                ..
            } => {
                let writes = lvalue_writes(lhs);
                assigns.push(AssignSite {
                    stmt_id: *id,
                    blocking: matches!(stmt, Stmt::Blocking { .. }),
                    names: writes.iter().map(|(n, _)| n.clone()).collect(),
                    whole: writes
                        .iter()
                        .filter(|(_, w)| *w)
                        .map(|(n, _)| n.clone())
                        .collect(),
                });
                collect_lvalue_uses(lhs, &mut self.uses);
                if let Some(d) = delay {
                    collect_expr_uses(d, &mut self.uses);
                }
                collect_expr_uses(rhs, &mut self.uses);
            }
            Stmt::Delay { amount, body, .. } => {
                collect_expr_uses(amount, &mut self.uses);
                if let Some(b) = body {
                    self.walk_stmt(b, assigns, cases);
                }
            }
            Stmt::EventControl { body, .. } => {
                if let Some(b) = body {
                    self.walk_stmt(b, assigns, cases);
                }
            }
            Stmt::Wait { cond, body, .. } => {
                collect_expr_uses(cond, &mut self.uses);
                if let Some(b) = body {
                    self.walk_stmt(b, assigns, cases);
                }
            }
            Stmt::SysCall { args, .. } => {
                for a in args {
                    collect_expr_uses(a, &mut self.uses);
                }
            }
            Stmt::EventTrigger { .. } | Stmt::Null { .. } => {}
        }
    }

    /// Do the labels of a defaultless `case` cover every possible
    /// subject value? Only exact `case` matching over narrow known
    /// widths is checked; wildcarded flavors are conservatively `false`.
    fn case_is_full(&self, kind: CaseKind, subject: &Expr, arms: &[cirfix_ast::CaseArm]) -> bool {
        if kind != CaseKind::Case {
            return false;
        }
        let width = match cirfix_sim::width::self_determined_width(subject, self) {
            Some(w) if w <= 16 => w,
            _ => return false,
        };
        let mut seen = BTreeSet::new();
        for arm in arms {
            for label in &arm.labels {
                match self.const_eval(label).and_then(|v| v.to_u64()) {
                    Some(v) if (v >> width) == 0 => {
                        seen.insert(v);
                    }
                    _ => return false,
                }
            }
        }
        seen.len() as u64 == 1u64 << width
    }

    /// Folds `expr` with this module's parameters; `None` when it is
    /// not constant.
    pub fn const_eval(&self, expr: &Expr) -> Option<LogicVec> {
        eval_const(expr, &self.params).ok()
    }

    /// The width in bits an lvalue writes, when statically known.
    pub fn lvalue_width(&self, lv: &LValue) -> Option<usize> {
        match lv {
            LValue::Ident { name, .. } => self.signal_width(name),
            LValue::Index { base, .. } => Some(self.memory_word_width(base).unwrap_or(1)),
            LValue::Range { msb, lsb, .. } => {
                let hi = self.const_eval(msb)?.to_u64()?;
                let lo = self.const_eval(lsb)?.to_u64()?;
                part_select_width(hi, lo).map(|w| w as usize)
            }
            LValue::Concat { parts, .. } => {
                let mut total = 0usize;
                for p in parts {
                    total = total.checked_add(self.lvalue_width(p)?)?;
                }
                Some(total)
            }
        }
    }
}

/// `(name, written_whole)` for every signal an lvalue writes.
fn lvalue_writes(lv: &LValue) -> Vec<(String, bool)> {
    match lv {
        LValue::Ident { name, .. } => vec![(name.clone(), true)],
        LValue::Index { base, .. } | LValue::Range { base, .. } => vec![(base.clone(), false)],
        LValue::Concat { parts, .. } => parts.iter().flat_map(lvalue_writes).collect(),
    }
}

/// Records reads embedded in an lvalue (index/range expressions).
fn collect_lvalue_uses(lv: &LValue, uses: &mut BTreeMap<String, Vec<NodeId>>) {
    match lv {
        LValue::Ident { .. } => {}
        LValue::Index { index, .. } => collect_expr_uses(index, uses),
        LValue::Range { msb, lsb, .. } => {
            collect_expr_uses(msb, uses);
            collect_expr_uses(lsb, uses);
        }
        LValue::Concat { parts, .. } => {
            for p in parts {
                collect_lvalue_uses(p, uses);
            }
        }
    }
}

/// Records every identifier read in `expr` under its expression id.
fn collect_expr_uses(expr: &Expr, uses: &mut BTreeMap<String, Vec<NodeId>>) {
    match expr {
        Expr::Literal { .. } | Expr::Str { .. } => {}
        Expr::Ident { id, name } => uses.entry(name.clone()).or_default().push(*id),
        Expr::Unary { arg, .. } => collect_expr_uses(arg, uses),
        Expr::Binary { lhs, rhs, .. } => {
            collect_expr_uses(lhs, uses);
            collect_expr_uses(rhs, uses);
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            collect_expr_uses(cond, uses);
            collect_expr_uses(then_e, uses);
            collect_expr_uses(else_e, uses);
        }
        Expr::Index { id, base, index } => {
            uses.entry(base.clone()).or_default().push(*id);
            collect_expr_uses(index, uses);
        }
        Expr::Range { id, base, msb, lsb } => {
            uses.entry(base.clone()).or_default().push(*id);
            collect_expr_uses(msb, uses);
            collect_expr_uses(lsb, uses);
        }
        Expr::Concat { parts, .. } => {
            for p in parts {
                collect_expr_uses(p, uses);
            }
        }
        Expr::Repeat { count, parts, .. } => {
            collect_expr_uses(count, uses);
            for p in parts {
                collect_expr_uses(p, uses);
            }
        }
        Expr::SysCall { args, .. } => {
            for a in args {
                collect_expr_uses(a, uses);
            }
        }
    }
}
