//! Elaboration: turning a parsed [`SourceFile`] into a flat [`Design`].
//!
//! Elaboration instantiates the module hierarchy (starting from a top
//! module, usually the testbench), resolves parameters, allocates
//! signals/memories with hierarchical names, lowers port connections into
//! continuous assignments, and compiles all processes. Any failure here is
//! a *compile failure* in CirFix terms.
//!
//! An [`Elaboration`] keeps one design's elaboration as a base for its
//! variants: a variant that changed only `always`, `initial` and
//! `assign` items recompiles just those items, in every instance of
//! their module, and shares everything else with the base.

use std::collections::HashMap;
use std::sync::Arc;

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

/// Most words a memory may have.
const MAX_MEMORY_WORDS: u64 = 1 << 20;

/// Elaborates `top` (and everything it instantiates) from `file`.
///
/// # Errors
///
/// Returns [`SimError::Elaboration`] for unknown modules, undeclared
/// names, bad port connections, non-constant ranges, recursive
/// instantiation, `inout` ports, and semantic errors inside processes.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, SimError> {
    Elaboration::new(file, top).map(|e| e.design)
}

/// A design's elaboration kept as the base its variants' designs are
/// built from.
///
/// Besides the [`Design`], it records each module instance (its scope
/// and parameters) and, for every process and continuous assign compiled
/// from an `always`/`initial`/`assign` item, the item and the instance
/// it came from. [`Elaboration::derive`] compares a variant with the
/// base module by module (`Arc::ptr_eq`, then item by item) and
/// recompiles only the changed items, in elaboration order, stopping at
/// the first error, so the result and any error text equal
/// [`elaborate`]'s. Signals, memories, scopes, the name table and every
/// other site's compiled code are shared with the base. A change to
/// anything else (a declaration, a parameter, an instance, a port list,
/// the item count) goes through [`elaborate`].
///
/// # Examples
///
/// ```
/// use cirfix_sim::{elaborate, Elaboration};
///
/// let original = cirfix_parser::parse("module t; reg q; initial q = 1; endmodule")?;
/// let base = Elaboration::new(&original, "t")?;
/// let variant = cirfix_parser::parse("module t; reg q; initial q = 0; endmodule")?;
/// let derived = base.derive(&variant)?;
/// let whole = elaborate(&variant, "t")?;
/// let ops = |d: &cirfix_sim::Design| format!("{:?}", d.processes[0].program.ops);
/// assert_eq!(ops(&derived), ops(&whole));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Elaboration {
    top: String,
    /// The elaborated file's modules, which a variant's unchanged
    /// modules still point to.
    modules: Vec<Arc<Module>>,
    design: Design,
    instances: Vec<Instance>,
    sites: Vec<Site>,
    /// The signals each continuous assign's right-hand side names, in
    /// assign order: assign `i` reads `reads[read_ends[i - 1]..read_ends[i]]`.
    reads: Vec<SignalId>,
    read_ends: Vec<usize>,
}

/// One module instance: what its behavioural items compile against.
#[derive(Debug)]
struct Instance {
    scope: Arc<Scope>,
    params: Arc<NameMap<LogicVec>>,
}

/// A process or continuous assign compiled from a module item.
#[derive(Debug)]
struct Site {
    /// Index of the item's module in the file.
    module: usize,
    /// Index of the item in its module.
    item: usize,
    /// Index of the instance it was compiled in.
    instance: usize,
    compiled: Slot,
}

/// Where a site's compiled code sits in the design.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Process(usize),
    Assign(usize),
}

/// A behavioural item compiled in one instance.
enum Compiled {
    Process(Process),
    Assign(ContAssign),
}

impl Elaboration {
    /// Elaborates `top` from `file` and keeps the result as a base.
    ///
    /// # Errors
    ///
    /// As [`elaborate`].
    pub fn new(file: &SourceFile, top: &str) -> Result<Elaboration, SimError> {
        let mut modules: HashMap<&str, (usize, &Module)> = HashMap::new();
        for (i, m) in file.modules.iter().enumerate() {
            modules.insert(m.name.as_str(), (i, &**m));
        }
        if file.modules.len() != modules.len() {
            return Err(SimError::elab("duplicate module names"));
        }
        let top_module = modules
            .get(top)
            .copied()
            .ok_or_else(|| SimError::elab(format!("top module `{top}` not found")))?;
        let mut elab = Elaborator {
            modules,
            signals: Vec::new(),
            memories: Vec::new(),
            processes: Vec::new(),
            cassigns: Vec::new(),
            by_name: NameMap::default(),
            instances: Vec::new(),
            sites: Vec::new(),
            reads: Vec::new(),
            read_ends: Vec::new(),
        };
        elab.instantiate(top_module, String::new(), NameMap::default(), 0)?;
        let Elaborator {
            signals,
            memories,
            processes,
            cassigns,
            by_name,
            instances,
            sites,
            reads,
            read_ends,
            ..
        } = elab;
        let cassign_deps = readers(signals.len(), assign_reads(&reads, &read_ends)).into();
        Ok(Elaboration {
            top: top.to_string(),
            modules: file.modules.clone(),
            design: Design {
                signals: signals.into(),
                memories: memories.into(),
                processes: processes.into(),
                cassigns: cassigns.into(),
                cassign_deps,
                by_name: Arc::new(by_name),
            },
            instances,
            sites,
            reads,
            read_ends,
        })
    }

    /// The base's own design (the unchanged original), sharing every
    /// part with the base.
    pub fn design(&self) -> Design {
        self.design.clone()
    }

    /// The design of `variant`, a copy of the base's file with some
    /// modules edited: equal to [`elaborate`]`(variant, top)`, error
    /// text included.
    ///
    /// # Errors
    ///
    /// As [`elaborate`].
    pub fn derive(&self, variant: &SourceFile) -> Result<Design, SimError> {
        let Some(changed) = self.changed_items(variant) else {
            return elaborate(variant, &self.top);
        };
        let mut design = self.design.clone();
        if changed.is_empty() {
            return Ok(design);
        }
        // New reads of the recompiled assigns, in assign order (sites
        // are in elaboration order, as assign indices are).
        let mut new_reads: Vec<(usize, Vec<SignalId>)> = Vec::new();
        for site in &self.sites {
            if !changed.contains(&(site.module, site.item)) {
                continue;
            }
            let module = &variant.modules[site.module];
            let mut reads = Vec::new();
            let compiled = compile_item(
                &module.items[site.item],
                &module.name,
                &self.instances[site.instance],
                &design.signals,
                &mut reads,
            )?;
            match (compiled, site.compiled) {
                (Some(Compiled::Process(p)), Slot::Process(i)) => design.processes.replace(i, p),
                (Some(Compiled::Assign(a)), Slot::Assign(i)) => {
                    design.cassigns.replace(i, a);
                    new_reads.push((i, reads));
                }
                _ => unreachable!("a changed item keeps its kind"),
            }
        }
        if !new_reads.is_empty() {
            let base = assign_reads(&self.reads, &self.read_ends);
            let reads = base.enumerate().map(|(i, old)| {
                match new_reads.binary_search_by_key(&i, |(j, _)| *j) {
                    Ok(k) => new_reads[k].1.as_slice(),
                    Err(_) => old,
                }
            });
            design.cassign_deps = readers(design.signals.len(), reads).into();
        }
        Ok(design)
    }

    /// The `always`/`initial`/`assign` items `variant` changed, as
    /// (module, item) indices; `None` when it changed anything else.
    fn changed_items(&self, variant: &SourceFile) -> Option<Vec<(usize, usize)>> {
        if variant.modules.len() != self.modules.len() {
            return None;
        }
        let mut changed = Vec::new();
        for (m, (old, new)) in self.modules.iter().zip(&variant.modules).enumerate() {
            if Arc::ptr_eq(old, new) {
                continue;
            }
            if old.name != new.name || old.ports != new.ports || old.items.len() != new.items.len()
            {
                return None;
            }
            for (i, (a, b)) in old.items.iter().zip(&new.items).enumerate() {
                if a == b {
                    continue;
                }
                match (a, b) {
                    (Item::Always { .. }, Item::Always { .. })
                    | (Item::Initial { .. }, Item::Initial { .. })
                    | (Item::Assign { .. }, Item::Assign { .. }) => changed.push((m, i)),
                    _ => return None,
                }
            }
        }
        Some(changed)
    }
}

/// Splits flat per-assign read lists at their ends.
fn assign_reads<'r>(
    reads: &'r [SignalId],
    ends: &'r [usize],
) -> impl Iterator<Item = &'r [SignalId]> + 'r {
    ends.iter().scan(0, move |start, &end| {
        let slice = &reads[*start..end];
        *start = end;
        Some(slice)
    })
}

/// Per signal, the continuous assigns that read it, in assign order,
/// from each assign's reads in assign order.
fn readers<'r>(n_signals: usize, reads: impl Iterator<Item = &'r [SignalId]>) -> Vec<Vec<usize>> {
    let mut deps = vec![Vec::new(); n_signals];
    for (ci, sigs) in reads.enumerate() {
        for &sig in sigs {
            let list = &mut deps[sig];
            if list.last() != Some(&ci) {
                list.push(ci);
            }
        }
    }
    deps
}

/// Compiles one behavioural module item in an instance: an `always` or
/// `initial` process, or an `assign` (whose reads go to `reads`). Both
/// whole-design elaboration and [`Elaboration::derive`] compile items
/// here. Other items compile to nothing.
fn compile_item(
    item: &Item,
    module: &str,
    instance: &Instance,
    signals: &[Signal],
    reads: &mut Vec<SignalId>,
) -> Result<Option<Compiled>, SimError> {
    let scope = &instance.scope;
    let (body, kind, what) = match item {
        Item::Assign { lhs, rhs, .. } => {
            let target = resolve_net_target(lhs, scope, &instance.params, module, signals)?;
            let origin = format!("assign in {module}");
            let assign = cassign(target, rhs, scope, signals, origin, reads);
            return Ok(Some(Compiled::Assign(assign)));
        }
        Item::Always { body, .. } => (body, ProcessKind::Always, "always"),
        Item::Initial { body, .. } => (body, ProcessKind::Initial, "initial"),
        Item::Decl(_) | Item::Param(_) | Item::Instance(_) => return Ok(None),
    };
    let always = kind == ProcessKind::Always;
    let program = compile_process(body, scope, &instance.params, signals, always)
        .map_err(|e| SimError::elab(format!("in `{module}`: {}", e.0)))?;
    Ok(Some(Compiled::Process(Process {
        program,
        scope: Arc::clone(scope),
        kind,
        origin: format!("{what} in {module}"),
    })))
}

/// Compiles `rhs` in `scope` as a continuous assignment to `target`,
/// appending every signal `rhs` names to `reads`.
fn cassign(
    target: Target,
    rhs: &Expr,
    scope: &Arc<Scope>,
    signals: &[Signal],
    origin: String,
    reads: &mut Vec<SignalId>,
) -> ContAssign {
    reads.extend(
        rhs.identifiers()
            .into_iter()
            .filter_map(|name| scope.signal(name)),
    );
    ContAssign {
        target,
        rhs: compile_expr(rhs, scope, signals),
        scope: Arc::clone(scope),
        origin,
    }
}

struct Elaborator<'a> {
    modules: HashMap<&'a str, (usize, &'a Module)>,
    signals: Vec<Signal>,
    memories: Vec<Memory>,
    processes: Vec<Process>,
    cassigns: Vec<ContAssign>,
    by_name: NameMap<SignalId>,
    instances: Vec<Instance>,
    sites: Vec<Site>,
    reads: Vec<SignalId>,
    read_ends: Vec<usize>,
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
    /// Instantiates `module` (the file's `index`-th) under hierarchical
    /// `path` (empty for top). Returns the instance scope.
    fn instantiate(
        &mut self,
        (index, module): (usize, &'a Module),
        path: String,
        param_overrides: NameMap<LogicVec>,
        depth: usize,
    ) -> Result<Arc<Scope>, SimError> {
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
                let Some(size) = (hi - lo).checked_add(1).filter(|&n| n <= MAX_MEMORY_WORDS) else {
                    return Err(SimError::elab(format!(
                        "memory `{full}` exceeds the size limit"
                    )));
                };
                let mem = Memory {
                    name: full,
                    width,
                    size: size as usize,
                    offset: lo,
                };
                self.memories.push(mem);
                let mid = self.memories.len() - 1;
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

        let scope = Arc::new(scope);
        let instance = self.instances.len();
        let params = Arc::new(params);
        self.instances.push(Instance {
            scope: Arc::clone(&scope),
            params: Arc::clone(&params),
        });

        // Pass 2: behaviour.
        for (i, item) in module.items.iter().enumerate() {
            if let Item::Instance(inst) = item {
                self.elaborate_instance(inst, module, &scope, &params, &prefix, depth)?;
                continue;
            }
            let compiled = compile_item(
                item,
                &module.name,
                &self.instances[instance],
                &self.signals,
                &mut self.reads,
            )?;
            let compiled = match compiled {
                Some(Compiled::Process(p)) => {
                    self.processes.push(p);
                    Slot::Process(self.processes.len() - 1)
                }
                Some(Compiled::Assign(a)) => Slot::Assign(self.push_assign(a)),
                None => continue,
            };
            self.sites.push(Site {
                module: index,
                item: i,
                instance,
                compiled,
            });
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

    /// Compiles a port connection or wire initializer as a continuous
    /// assign.
    fn push_cassign(&mut self, target: Target, rhs: &Expr, scope: &Arc<Scope>, origin: String) {
        let assign = cassign(target, rhs, scope, &self.signals, origin, &mut self.reads);
        self.push_assign(assign);
    }

    /// Adds a compiled continuous assign whose reads were just appended
    /// to `reads`; returns its index.
    fn push_assign(&mut self, assign: ContAssign) -> usize {
        self.cassigns.push(assign);
        self.read_ends.push(self.reads.len());
        self.cassigns.len() - 1
    }

    fn push_signal(&mut self, sig: Signal) -> SignalId {
        let id = self.signals.len();
        self.by_name.insert(sig.name.clone(), id);
        self.signals.push(sig);
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

    fn elaborate_instance(
        &mut self,
        inst: &cirfix_ast::Instance,
        parent: &'a Module,
        parent_scope: &Arc<Scope>,
        parent_params: &NameMap<LogicVec>,
        prefix: &str,
        depth: usize,
    ) -> Result<(), SimError> {
        let (child_index, child) =
            self.modules
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
        let child_scope =
            self.instantiate((child_index, child), child_path, overrides, depth + 1)?;

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
                    let target = resolve_net_target(
                        &lv,
                        parent_scope,
                        parent_params,
                        &parent.name,
                        &self.signals,
                    )?;
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

/// Resolves a continuous-assignment (or output-port) target: must be a
/// wire with constant select bounds.
fn resolve_net_target(
    lv: &LValue,
    scope: &Scope,
    params: &NameMap<LogicVec>,
    module_name: &str,
    signals: &[Signal],
) -> Result<Target, SimError> {
    match lv {
        LValue::Ident { name, .. } => match scope.lookup(name) {
            Some(ScopeEntry::Sig(sig)) => {
                check_net(signals, *sig, name, module_name)?;
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
                check_net(signals, *sig, base, module_name)?;
                let i = eval_const_u64(index, params).map_err(|e| {
                    SimError::elab(format!(
                        "bit select on `{base}` in `{module_name}`: {}",
                        e.0
                    ))
                })?;
                let lsb = signals[*sig].lsb as u64;
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
                check_net(signals, *sig, base, module_name)?;
                let (msb, lsb) = target_bits(msb, lsb, signals[*sig].lsb, params).map_err(|e| {
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
                .map(|p| resolve_net_target(p, scope, params, module_name, signals))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Target::Concat(targets))
        }
    }
}

fn check_net(
    signals: &[Signal],
    sig: SignalId,
    name: &str,
    module_name: &str,
) -> Result<(), SimError> {
    match signals[sig].kind {
        SignalKind::Wire => Ok(()),
        _ => Err(SimError::elab(format!(
            "continuous assignment to non-net `{name}` in `{module_name}`"
        ))),
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
    fn memory_bounds_at_the_u64_limit_exceed_the_size_limit() {
        for bounds in ["[0:64'hffffffffffffffff]", "[64'hffffffffffffffff:0]"] {
            let src = format!("module t; reg [7:0] m {bounds}; endmodule");
            let err = elab(&src, "t").unwrap_err();
            assert_eq!(
                err,
                SimError::elab("memory `m` exceeds the size limit"),
                "{bounds}"
            );
        }
    }

    /// The canonical dump of a design: what simulating it reads.
    fn dump(d: &Design) -> String {
        let mut out = String::new();
        for s in d.signals.iter() {
            out += &format!("signal {s:?}\n");
        }
        for m in d.memories.iter() {
            out += &format!("memory {m:?}\n");
        }
        for p in d.processes.iter() {
            out += &format!(
                "process {} {:?} {:?}\n",
                p.scope.path, p.origin, p.program.ops
            );
        }
        for a in d.cassigns.iter() {
            out += &format!(
                "assign {} {:?} {:?} {:?}\n",
                a.scope.path, a.origin, a.target, a.rhs
            );
        }
        for sig in 0..d.signals.len() {
            out += &format!("readers {sig} {:?}\n", d.readers(sig));
        }
        out
    }

    /// A copy of `original` with the listed (module, item) items taken
    /// from `donor`; every other module stays shared with `original`.
    fn splice(original: &SourceFile, donor: &str, items: &[(usize, usize)]) -> SourceFile {
        let donor = parse(donor).expect("parse");
        let mut variant = original.clone();
        for &(m, i) in items {
            Arc::make_mut(&mut variant.modules[m]).items[i] = donor.modules[m].items[i].clone();
        }
        variant
    }

    /// Derives `variant` from `base` and checks it against whole-design
    /// elaboration; returns the derived design and whether it shares the
    /// base's signals (was built incrementally).
    fn derive_checked(base: &Elaboration, variant: &SourceFile, top: &str) -> (Design, bool) {
        let derived = base.derive(variant).expect("variant elaborates");
        assert_eq!(dump(&derived), dump(&elaborate(variant, top).unwrap()));
        let incremental = Arc::ptr_eq(&derived.signals, &base.design().signals);
        (derived, incremental)
    }

    const TWO_WIDTHS: &str = r#"
        module cell (q);
            parameter W = 2;
            output [W-1:0] q;
            reg [W-1:0] r;
            assign q = r;
            always #1 r = r + 1;
        endmodule
        module top;
            wire [3:0] a;
            wire [7:0] b;
            cell #(.W(4)) c0 (a);
            cell #(.W(8)) c1 (b);
        endmodule
    "#;

    #[test]
    fn an_edited_process_recompiles_in_every_instance_with_its_own_widths() {
        let original = parse(TWO_WIDTHS).unwrap();
        let base = Elaboration::new(&original, "top").unwrap();
        let edited = TWO_WIDTHS.replace("r = r + 1", "r = r - 3");
        let variant = splice(&original, &edited, &[(0, 4)]);
        let (derived, incremental) = derive_checked(&base, &variant, "top");
        assert!(incremental);
        let programs: Vec<String> = derived
            .processes
            .iter()
            .map(|p| format!("{:?}", p.program.ops))
            .collect();
        assert_eq!(programs.len(), 2);
        assert_ne!(
            programs[0], programs[1],
            "each instance compiles at its own width"
        );
        let original = base.design();
        for (p, old) in derived.processes.iter().zip(original.processes.iter()) {
            assert!(
                !std::ptr::eq(p, old),
                "`{}` kept the original's code",
                p.scope.path
            );
        }
        // The assigns were not edited: they stay shared with the base.
        for (a, old) in derived.cassigns.iter().zip(original.cassigns.iter()) {
            assert!(std::ptr::eq(a, old));
        }
    }

    const REWIRED: &str = r#"
        module top;
            reg a, b;
            wire w;
            assign w = a;
            initial begin a = 0; b = 0; #1 b = 1; #1 b = 0; #1 b = 1; end
        endmodule
    "#;

    #[test]
    fn an_edited_assign_rewires_the_reader_lists() {
        let original = parse(REWIRED).unwrap();
        let base = Elaboration::new(&original, "top").unwrap();
        let edited = REWIRED.replace("assign w = a;", "assign w = b;");
        let variant = splice(&original, &edited, &[(0, 2)]);
        let (derived, incremental) = derive_checked(&base, &variant, "top");
        assert!(incremental);
        let (a, b) = (
            derived.signal_named("a").unwrap(),
            derived.signal_named("b").unwrap(),
        );
        assert_eq!(base.design().readers(a), &[0]);
        assert!(derived.readers(a).is_empty());
        assert_eq!(derived.readers(b), &[0]);
        // Only `b` toggles after time 0: the wire follows it.
        let mut sim = crate::Simulator::from_design(derived, crate::SimConfig::default());
        sim.run().unwrap();
        assert_eq!(sim.signal("w").unwrap().to_u64(), Some(1));
    }

    const TWO_FAILURES: &str = r#"
        module child (y);
            output y;
            reg r;
            assign y = r;
            always #1 r = ~r;
        endmodule
        module top;
            wire y;
            reg q;
            child c0 (y);
            always #1 q = ~q;
        endmodule
    "#;

    #[test]
    fn two_failing_edits_report_the_first_error_in_elaboration_order() {
        let original = parse(TWO_FAILURES).unwrap();
        let base = Elaboration::new(&original, "top").unwrap();
        // The child's process elaborates inside the instance item, before
        // the top's process that follows it.
        let edited = TWO_FAILURES
            .replace("always #1 r = ~r;", "always #1 ghost_r = ~r;")
            .replace("always #1 q = ~q;", "always #1 ghost_q = ~q;");
        let variant = splice(&original, &edited, &[(0, 3), (1, 3)]);
        let derived = base.derive(&variant).unwrap_err();
        let whole = elaborate(&variant, "top").unwrap_err();
        assert_eq!(derived, whole);
        assert!(derived.to_string().contains("ghost_r"), "{derived}");
    }

    #[test]
    fn declaration_parameter_and_instance_edits_fall_back() {
        let original = parse(TWO_WIDTHS).unwrap();
        let base = Elaboration::new(&original, "top").unwrap();
        let edits = [
            // A declaration: the cell's register narrows.
            (
                TWO_WIDTHS.replace("reg [W-1:0] r;", "reg [W-2:0] r;"),
                (0, 2),
            ),
            // A parameter default.
            (
                TWO_WIDTHS.replace("parameter W = 2;", "parameter W = 3;"),
                (0, 0),
            ),
            // An instance connection and override.
            (
                TWO_WIDTHS.replace("cell #(.W(8)) c1 (b);", "cell #(.W(6)) c1 (a);"),
                (1, 3),
            ),
        ];
        for (edited, item) in &edits {
            let variant = splice(&original, edited, &[*item]);
            let (_, incremental) = derive_checked(&base, &variant, "top");
            assert!(!incremental, "{item:?} must elaborate as a whole");
        }
        // Unchanged, the base's own design is what a variant derives.
        let (_, incremental) = derive_checked(&base, &original.clone(), "top");
        assert!(incremental);
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
