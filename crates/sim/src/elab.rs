//! Elaboration: turning a parsed [`SourceFile`] into a flat [`Design`].
//!
//! Elaboration instantiates the module hierarchy (starting from a top
//! module, usually the testbench), resolves parameters, allocates
//! signals/memories with hierarchical names, lowers port connections into
//! continuous assignments, and compiles all processes. Any failure here is
//! a *compile failure* in CirFix terms.

use std::collections::HashMap;
use std::rc::Rc;

use cirfix_ast::{Decl, DeclKind, Expr, Item, LValue, Module, SourceFile};
use cirfix_logic::LogicVec;

use crate::code::{compile_expr, target_bits};
use crate::compile::compile_process;
use crate::design::{
    ContAssign, Design, Memory, NameMap, Process, ProcessKind, Scope, ScopeEntry, Signal, SignalId,
    SignalKind, Target,
};
use crate::error::SimError;
use crate::eval::{eval_const, eval_const_u64};
use crate::width::MAX_SELECT_WIDTH;

/// Maximum instantiation depth, guarding against recursive hierarchies.
const MAX_DEPTH: usize = 64;

/// Elaborates `top` (and everything it instantiates) from `file`.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] for unknown modules, undeclared
/// names, bad port connections, non-constant ranges, recursive
/// instantiation, `inout` ports, and semantic errors inside processes.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, SimError> {
    let modules: HashMap<&str, &Module> = file
        .modules
        .iter()
        .map(|m| (m.name.as_str(), &**m))
        .collect();
    if file.modules.len() != modules.len() {
        return Err(SimError::elab("duplicate module names"));
    }
    let top_module = modules
        .get(top)
        .copied()
        .ok_or_else(|| SimError::elab(format!("top module `{top}` not found")))?;
    let mut elab = Elaborator {
        modules,
        design: Design::default(),
    };
    elab.instantiate(top_module, String::new(), NameMap::default(), 0)?;
    let n_signals = elab.design.signals.len();
    elab.design.cassign_deps.resize(n_signals, Vec::new());
    Ok(elab.design)
}

struct Elaborator<'a> {
    modules: HashMap<&'a str, &'a Module>,
    design: Design,
}

/// Aggregated declaration info for one name (Verilog allows split
/// declarations like `output q; reg q;`).
#[derive(Default)]
struct NameInfo {
    is_input: bool,
    is_output: bool,
    is_reg: bool,
    is_integer: bool,
    is_event: bool,
    range: Option<(u64, u64)>,
    array: Option<(u64, u64)>,
    init: Option<Expr>,
}

impl<'a> Elaborator<'a> {
    /// Instantiates `module` under hierarchical `path` (empty for top).
    /// Returns the instance scope.
    fn instantiate(
        &mut self,
        module: &'a Module,
        path: String,
        param_overrides: NameMap<LogicVec>,
        depth: usize,
    ) -> Result<Rc<Scope>, SimError> {
        if depth > MAX_DEPTH {
            return Err(SimError::elab(format!(
                "instantiation of `{}` exceeds depth {MAX_DEPTH} (recursive hierarchy?)",
                module.name
            )));
        }
        let prefix = if path.is_empty() {
            String::new()
        } else {
            format!("{path}.")
        };

        // Pass 1a: parameters, in source order.
        let mut params: NameMap<LogicVec> = NameMap::default();
        for item in &module.items {
            if let Item::Param(p) = item {
                let value = if !p.local {
                    if let Some(over) = param_overrides.get(&p.name) {
                        over.clone()
                    } else {
                        eval_const(&p.value, &params).map_err(|e| {
                            SimError::elab(format!(
                                "parameter `{}` of `{}`: {}",
                                p.name, module.name, e.0
                            ))
                        })?
                    }
                } else {
                    eval_const(&p.value, &params).map_err(|e| {
                        SimError::elab(format!(
                            "localparam `{}` of `{}`: {}",
                            p.name, module.name, e.0
                        ))
                    })?
                };
                params.insert(p.name.clone(), value);
            }
        }
        for name in param_overrides.keys() {
            if !params.contains_key(name) {
                return Err(SimError::elab(format!(
                    "override of unknown parameter `{name}` on `{}`",
                    module.name
                )));
            }
        }

        // Pass 1b: merge declarations per name.
        let mut order: Vec<String> = Vec::new();
        let mut infos: NameMap<NameInfo> = NameMap::default();
        for item in &module.items {
            if let Item::Decl(d) = item {
                self.merge_decl(module, d, &params, &mut order, &mut infos)?;
            }
        }

        // Allocate signals and memories; build the scope.
        let mut scope = Scope {
            path: path.clone(),
            entries: params
                .iter()
                .map(|(k, v)| (k.clone(), ScopeEntry::Param(v.clone())))
                .collect(),
        };
        for name in &order {
            let info = &infos[name];
            let full = format!("{prefix}{name}");
            if info.is_event {
                let id = self.push_signal(Signal {
                    name: full,
                    width: 8,
                    lsb: 0,
                    kind: SignalKind::Event,
                    init: None,
                });
                scope.entries.insert(name.clone(), ScopeEntry::Sig(id));
                continue;
            }
            let (width, lsb) = match info.range {
                Some((msb, lsb)) => ((msb - lsb + 1) as usize, lsb as usize),
                None if info.is_integer => (32, 0),
                None => (1, 0),
            };
            if let Some((a, b)) = info.array {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                if hi - lo + 1 > (1 << 20) {
                    return Err(SimError::elab(format!(
                        "memory `{full}` exceeds the size limit"
                    )));
                }
                let mem = Memory {
                    name: full,
                    width,
                    size: (hi - lo + 1) as usize,
                    offset: lo,
                };
                self.design.memories.push(mem);
                let mid = self.design.memories.len() - 1;
                scope.entries.insert(name.clone(), ScopeEntry::Mem(mid));
                continue;
            }
            let kind = if info.is_reg || info.is_integer {
                SignalKind::Reg
            } else {
                SignalKind::Wire
            };
            let init = match (&info.init, kind) {
                (Some(e), SignalKind::Reg) => {
                    let v = eval_const(e, &params).map_err(|err| {
                        SimError::elab(format!(
                            "initializer of `{name}` in `{}`: {}",
                            module.name, err.0
                        ))
                    })?;
                    Some(v.resized(width))
                }
                _ => None,
            };
            let id = self.push_signal(Signal {
                name: full,
                width,
                lsb,
                kind,
                init,
            });
            scope.entries.insert(name.clone(), ScopeEntry::Sig(id));
        }

        // Ports named in the header must be declared with a direction.
        for p in &module.ports {
            let declared = infos.get(p).map(|i| i.is_input || i.is_output);
            if declared != Some(true) {
                return Err(SimError::elab(format!(
                    "port `{p}` of `{}` has no direction declaration",
                    module.name
                )));
            }
        }

        let scope = Rc::new(scope);

        // Pass 2: behaviour.
        for item in &module.items {
            match item {
                Item::Decl(_) | Item::Param(_) => {}
                Item::Assign { lhs, rhs, .. } => {
                    let target = self.resolve_net_target(lhs, &scope, &params, &module.name)?;
                    self.push_cassign(target, rhs, &scope, format!("assign in {}", module.name));
                }
                Item::Always { body, .. } => {
                    let program =
                        compile_process(body, &scope, &params, &self.design.signals, true)
                            .map_err(|e| {
                                SimError::elab(format!("in `{}`: {}", module.name, e.0))
                            })?;
                    self.design.processes.push(Process {
                        program,
                        scope: Rc::clone(&scope),
                        kind: ProcessKind::Always,
                        origin: format!("always in {}", module.name),
                    });
                }
                Item::Initial { body, .. } => {
                    let program =
                        compile_process(body, &scope, &params, &self.design.signals, false)
                            .map_err(|e| {
                                SimError::elab(format!("in `{}`: {}", module.name, e.0))
                            })?;
                    self.design.processes.push(Process {
                        program,
                        scope: Rc::clone(&scope),
                        kind: ProcessKind::Initial,
                        origin: format!("initial in {}", module.name),
                    });
                }
                Item::Instance(inst) => {
                    self.elaborate_instance(inst, module, &scope, &params, &prefix, depth)?;
                }
            }
        }

        // Wire initializers become continuous assignments.
        for item in &module.items {
            if let Item::Decl(d) = item {
                if d.kind == DeclKind::Wire {
                    for v in &d.vars {
                        if let Some(init) = &v.init {
                            let Some(sig) = scope.signal(&v.name) else {
                                continue;
                            };
                            let origin = format!("wire init in {}", module.name);
                            self.push_cassign(Target::Sig(sig), init, &scope, origin);
                        }
                    }
                }
            }
        }

        Ok(scope)
    }

    /// Compiles `rhs` in `scope` and records the assignment as a reader
    /// of every signal `rhs` names.
    fn push_cassign(&mut self, target: Target, rhs: &Expr, scope: &Rc<Scope>, origin: String) {
        let ci = self.design.cassigns.len();
        let deps = &mut self.design.cassign_deps;
        for name in rhs.identifiers() {
            if let Some(sig) = scope.signal(name) {
                if deps.len() <= sig {
                    deps.resize(sig + 1, Vec::new());
                }
                if deps[sig].last() != Some(&ci) {
                    deps[sig].push(ci);
                }
            }
        }
        let rhs = compile_expr(rhs, scope, &self.design.signals);
        self.design.cassigns.push(ContAssign {
            target,
            rhs,
            scope: Rc::clone(scope),
            origin,
        });
    }

    fn push_signal(&mut self, sig: Signal) -> SignalId {
        let id = self.design.signals.len();
        self.design.by_name.insert(sig.name.clone(), id);
        self.design.signals.push(sig);
        id
    }

    fn merge_decl(
        &self,
        module: &Module,
        d: &Decl,
        params: &NameMap<LogicVec>,
        order: &mut Vec<String>,
        infos: &mut NameMap<NameInfo>,
    ) -> Result<(), SimError> {
        if d.kind == DeclKind::Inout {
            return Err(SimError::elab(format!(
                "`inout` ports are not supported (module `{}`)",
                module.name
            )));
        }
        let range = match &d.range {
            Some((msb, lsb)) => {
                let hi = eval_const_u64(msb, params)
                    .map_err(|e| SimError::elab(format!("range in `{}`: {}", module.name, e.0)))?;
                let lo = eval_const_u64(lsb, params)
                    .map_err(|e| SimError::elab(format!("range in `{}`: {}", module.name, e.0)))?;
                let width = crate::width::part_select_width(hi, lo).ok_or_else(|| {
                    SimError::elab(format!(
                        "descending ranges are not supported ([{hi}:{lo}] in `{}`)",
                        module.name
                    ))
                })?;
                if width > MAX_SELECT_WIDTH {
                    return Err(SimError::elab(format!(
                        "range [{hi}:{lo}] in `{}` exceeds the width limit",
                        module.name
                    )));
                }
                Some((hi, lo))
            }
            None => None,
        };
        for v in &d.vars {
            if !infos.contains_key(&v.name) {
                order.push(v.name.clone());
            }
            let info = infos.entry(v.name.clone()).or_default();
            match d.kind {
                DeclKind::Input => info.is_input = true,
                DeclKind::Output => info.is_output = true,
                DeclKind::Wire => {}
                DeclKind::Reg => info.is_reg = true,
                DeclKind::Integer => info.is_integer = true,
                DeclKind::Event => info.is_event = true,
                DeclKind::Inout => unreachable!("rejected above"),
            }
            if d.also_reg {
                info.is_reg = true;
            }
            if info.is_input && (info.is_reg || info.is_integer) {
                return Err(SimError::elab(format!(
                    "input `{}` of `{}` cannot be a reg",
                    v.name, module.name
                )));
            }
            if let Some(r) = range {
                if let Some(existing) = info.range {
                    if existing != r {
                        return Err(SimError::elab(format!(
                            "conflicting ranges for `{}` in `{}`",
                            v.name, module.name
                        )));
                    }
                }
                info.range = Some(r);
            }
            if let Some((a, b)) = &v.array {
                let lo = eval_const_u64(a, params).map_err(|e| {
                    SimError::elab(format!("array bound in `{}`: {}", module.name, e.0))
                })?;
                let hi = eval_const_u64(b, params).map_err(|e| {
                    SimError::elab(format!("array bound in `{}`: {}", module.name, e.0))
                })?;
                info.array = Some((lo, hi));
            }
            if let Some(init) = &v.init {
                info.init = Some(init.clone());
            }
        }
        Ok(())
    }

    /// Resolves a continuous-assignment (or output-port) target: must be a
    /// wire with constant select bounds.
    fn resolve_net_target(
        &self,
        lv: &LValue,
        scope: &Scope,
        params: &NameMap<LogicVec>,
        module_name: &str,
    ) -> Result<Target, SimError> {
        match lv {
            LValue::Ident { name, .. } => match scope.lookup(name) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_net(*sig, name, module_name)?;
                    Ok(Target::Sig(*sig))
                }
                Some(_) => Err(SimError::elab(format!(
                    "continuous assignment to non-net `{name}` in `{module_name}`"
                ))),
                None => Err(SimError::elab(format!(
                    "undeclared identifier `{name}` in `{module_name}`"
                ))),
            },
            LValue::Index { base, index, .. } => match scope.lookup(base) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_net(*sig, base, module_name)?;
                    let i = eval_const_u64(index, params).map_err(|e| {
                        SimError::elab(format!(
                            "bit select on `{base}` in `{module_name}`: {}",
                            e.0
                        ))
                    })?;
                    let lsb = self.design.signals[*sig].lsb as u64;
                    let raw = i.wrapping_sub(lsb) as usize;
                    Ok(Target::Bits {
                        sig: *sig,
                        msb: raw,
                        lsb: raw,
                    })
                }
                _ => Err(SimError::elab(format!(
                    "bad continuous assignment target `{base}` in `{module_name}`"
                ))),
            },
            LValue::Range { base, msb, lsb, .. } => match scope.lookup(base) {
                Some(ScopeEntry::Sig(sig)) => {
                    self.check_net(*sig, base, module_name)?;
                    let (msb, lsb) = target_bits(msb, lsb, self.design.signals[*sig].lsb, params)
                        .map_err(|e| {
                        SimError::elab(format!(
                            "part select on `{base}` in `{module_name}`: {}",
                            e.0
                        ))
                    })?;
                    Ok(Target::Bits {
                        sig: *sig,
                        msb,
                        lsb,
                    })
                }
                _ => Err(SimError::elab(format!(
                    "bad continuous assignment target `{base}` in `{module_name}`"
                ))),
            },
            LValue::Concat { parts, .. } => {
                let targets = parts
                    .iter()
                    .map(|p| self.resolve_net_target(p, scope, params, module_name))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Target::Concat(targets))
            }
        }
    }

    fn check_net(&self, sig: SignalId, name: &str, module_name: &str) -> Result<(), SimError> {
        match self.design.signals[sig].kind {
            SignalKind::Wire => Ok(()),
            _ => Err(SimError::elab(format!(
                "continuous assignment to non-net `{name}` in `{module_name}`"
            ))),
        }
    }

    fn elaborate_instance(
        &mut self,
        inst: &cirfix_ast::Instance,
        parent: &'a Module,
        parent_scope: &Rc<Scope>,
        parent_params: &NameMap<LogicVec>,
        prefix: &str,
        depth: usize,
    ) -> Result<(), SimError> {
        let child = self
            .modules
            .get(inst.module.as_str())
            .copied()
            .ok_or_else(|| {
                SimError::elab(format!(
                    "unknown module `{}` instantiated in `{}`",
                    inst.module, parent.name
                ))
            })?;

        // Parameter overrides, evaluated in the parent's constant context.
        let child_param_names: Vec<&str> = child
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Param(p) if !p.local => Some(p.name.as_str()),
                _ => None,
            })
            .collect();
        let mut overrides = NameMap::default();
        for (i, c) in inst.params.iter().enumerate() {
            let Some(expr) = &c.expr else { continue };
            let value = eval_const(expr, parent_params).map_err(|e| {
                SimError::elab(format!(
                    "parameter override on `{}` in `{}`: {}",
                    inst.name, parent.name, e.0
                ))
            })?;
            let name = match &c.name {
                Some(n) => n.clone(),
                None => child_param_names
                    .get(i)
                    .map(|s| s.to_string())
                    .ok_or_else(|| {
                        SimError::elab(format!(
                            "too many positional parameter overrides on `{}`",
                            inst.name
                        ))
                    })?,
            };
            overrides.insert(name, value);
        }

        let child_path = format!("{prefix}{}", inst.name);
        let child_scope = self.instantiate(child, child_path, overrides, depth + 1)?;

        // Child port directions.
        let mut directions: HashMap<&str, DeclKind> = HashMap::new();
        for item in &child.items {
            if let Item::Decl(d) = item {
                if d.kind.is_port() {
                    for v in &d.vars {
                        directions.insert(v.name.as_str(), d.kind);
                    }
                }
            }
        }

        // Pair connections with child ports.
        let named = inst.ports.iter().any(|c| c.name.is_some());
        if named && inst.ports.iter().any(|c| c.name.is_none()) {
            return Err(SimError::elab(format!(
                "instance `{}` mixes named and positional connections",
                inst.name
            )));
        }
        if !named && inst.ports.len() > child.ports.len() {
            return Err(SimError::elab(format!(
                "instance `{}` has {} connections but `{}` has {} ports",
                inst.name,
                inst.ports.len(),
                child.name,
                child.ports.len()
            )));
        }
        let pairs: Vec<(String, Option<&Expr>)> = if named {
            let mut pairs = Vec::new();
            for c in &inst.ports {
                let name = c.name.clone().expect("checked named");
                if !child.ports.contains(&name) {
                    return Err(SimError::elab(format!(
                        "`{}` has no port `{name}` (instance `{}`)",
                        child.name, inst.name
                    )));
                }
                pairs.push((name, c.expr.as_ref()));
            }
            pairs
        } else {
            child
                .ports
                .iter()
                .zip(
                    inst.ports
                        .iter()
                        .map(|c| c.expr.as_ref())
                        .chain(std::iter::repeat(None)),
                )
                .map(|(p, e)| (p.clone(), e))
                .collect()
        };

        for (port, expr) in pairs {
            let Some(expr) = expr else { continue };
            let dir = directions.get(port.as_str()).copied().ok_or_else(|| {
                SimError::elab(format!(
                    "port `{port}` of `{}` has no direction",
                    child.name
                ))
            })?;
            let child_sig = child_scope.signal(&port).ok_or_else(|| {
                SimError::elab(format!("port `{port}` of `{}` is not a signal", child.name))
            })?;
            match dir {
                DeclKind::Input => {
                    // child_port = parent_expr, evaluated in the parent.
                    let origin = format!("input port {port} of {}", inst.name);
                    self.push_cassign(Target::Sig(child_sig), expr, parent_scope, origin);
                }
                DeclKind::Output => {
                    // parent_lvalue = child_port.
                    let lv = expr_as_lvalue(expr).ok_or_else(|| {
                        SimError::elab(format!(
                            "output port `{port}` of `{}` connected to a non-lvalue",
                            inst.name
                        ))
                    })?;
                    let target =
                        self.resolve_net_target(&lv, parent_scope, parent_params, &parent.name)?;
                    let rhs = Expr::ident(&mut cirfix_ast::NodeIdGen::new(), port.clone());
                    let origin = format!("output port {port} of {}", inst.name);
                    self.push_cassign(target, &rhs, &child_scope, origin);
                }
                _ => {
                    return Err(SimError::elab(format!(
                        "unsupported port direction on `{port}` of `{}`",
                        child.name
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Reinterprets a connection expression as an lvalue (for output ports).
fn expr_as_lvalue(expr: &Expr) -> Option<LValue> {
    match expr {
        Expr::Ident { id, name } => Some(LValue::Ident {
            id: *id,
            name: name.clone(),
        }),
        Expr::Index { id, base, index } => Some(LValue::Index {
            id: *id,
            base: base.clone(),
            index: (**index).clone(),
        }),
        Expr::Range { id, base, msb, lsb } => Some(LValue::Range {
            id: *id,
            base: base.clone(),
            msb: (**msb).clone(),
            lsb: (**lsb).clone(),
        }),
        Expr::Concat { id, parts } => {
            let parts = parts
                .iter()
                .map(expr_as_lvalue)
                .collect::<Option<Vec<_>>>()?;
            Some(LValue::Concat { id: *id, parts })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;

    fn elab(src: &str, top: &str) -> Result<Design, SimError> {
        elaborate(&parse(src).expect("parse"), top)
    }

    #[test]
    fn elaborates_flat_module() {
        let d = elab(
            "module m; reg [3:0] q; wire w; assign w = q[0]; always @(q) q = q + 1; endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(d.signals.len(), 2);
        assert_eq!(d.signal_named("q"), Some(0));
        assert_eq!(d.signals[0].width, 4);
        assert_eq!(d.cassigns.len(), 1);
        assert_eq!(d.processes.len(), 1);
    }

    #[test]
    fn elaborates_hierarchy_with_ports() {
        let src = r#"
            module child (a, y);
                input [3:0] a;
                output [3:0] y;
                assign y = a + 1;
            endmodule
            module top;
                reg [3:0] x;
                wire [3:0] z;
                child c0 (x, z);
            endmodule
        "#;
        let d = elab(src, "top").unwrap();
        assert!(d.signal_named("x").is_some());
        assert!(d.signal_named("c0.a").is_some());
        assert!(d.signal_named("c0.y").is_some());
        // assign + input port + output port = 3 continuous assignments.
        assert_eq!(d.cassigns.len(), 3);
    }

    #[test]
    fn parameter_overrides_apply() {
        let src = r#"
            module child (y);
                parameter W = 2;
                output [W-1:0] y;
                assign y = {W{1'b1}};
            endmodule
            module top;
                wire [7:0] z;
                child #(.W(8)) c0 (z);
            endmodule
        "#;
        let d = elab(src, "top").unwrap();
        let y = d.signal_named("c0.y").unwrap();
        assert_eq!(d.signals[y].width, 8);
    }

    #[test]
    fn localparams_derive_from_parameters() {
        let src = r#"
            module m;
                parameter W = 8;
                localparam HALF = W / 2;
                reg [HALF-1:0] r;
            endmodule
        "#;
        let d = elab(src, "m").unwrap();
        let r = d.signal_named("r").unwrap();
        assert_eq!(d.signals[r].width, 4);
    }

    #[test]
    fn memories_are_allocated() {
        let d = elab("module m; reg [7:0] mem [0:15]; endmodule", "m").unwrap();
        assert_eq!(d.memories.len(), 1);
        assert_eq!(d.memories[0].size, 16);
        assert_eq!(d.memories[0].width, 8);
    }

    #[test]
    fn reg_initializers_are_recorded() {
        let d = elab("module m; reg [3:0] q = 4'd9; endmodule", "m").unwrap();
        assert_eq!(d.signals[0].init.as_ref().unwrap().to_u64(), Some(9));
    }

    #[test]
    fn rejects_bad_designs() {
        // Unknown top.
        assert!(elab("module m; endmodule", "nope").is_err());
        // inout.
        assert!(elab("module m (p); inout p; endmodule", "m").is_err());
        // Port without direction.
        assert!(elab("module m (p); wire p; endmodule", "m").is_err());
        // Unknown instantiated module.
        assert!(elab("module m; ghost g0 (); endmodule", "m").is_err());
        // Procedural assignment to wire.
        assert!(elab("module m; wire w; initial w = 1'b0; endmodule", "m").is_err());
        // Continuous assignment to reg.
        assert!(elab("module m; reg r; assign r = 1'b0; endmodule", "m").is_err());
        // Conflicting ranges.
        assert!(elab("module m (q); output [3:0] q; reg [7:0] q; endmodule", "m").is_err());
        // input reg.
        assert!(elab("module m (a); input a; reg a; endmodule", "m").is_err());
        // Recursive instantiation.
        assert!(elab("module m; m inner (); endmodule", "m").is_err());
        // Too many positional connections.
        assert!(elab(
            "module c (a); input a; endmodule module m; reg x, y; c c0 (x, y); endmodule",
            "m"
        )
        .is_err());
        // Named connection to missing port.
        assert!(elab(
            "module c (a); input a; endmodule module m; reg x; c c0 (.b(x)); endmodule",
            "m"
        )
        .is_err());
        // Output port to non-lvalue.
        assert!(elab(
            "module c (y); output y; endmodule module m; wire w; c c0 (w + 1); endmodule",
            "m"
        )
        .is_err());
    }

    #[test]
    fn output_reg_ports_are_regs() {
        let d = elab(
            "module m (q); output reg [1:0] q; always @(q) q = q; endmodule",
            "m",
        )
        .unwrap();
        assert_eq!(d.signals[0].kind, SignalKind::Reg);
    }

    #[test]
    fn unconnected_ports_are_allowed() {
        let src = r#"
            module c (a, y); input a; output y; assign y = a; endmodule
            module m; reg x; c c0 (.a(x), .y()); endmodule
        "#;
        let d = elab(src, "m").unwrap();
        // Only the input connection produces a continuous assignment
        // (plus the child's own assign).
        assert_eq!(d.cassigns.len(), 2);
    }
}
