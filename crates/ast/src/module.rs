//! Module-level nodes: declarations, continuous assigns, processes,
//! instantiations, and the source file.

use std::sync::Arc;

use crate::expr::Expr;
use crate::node::NodeId;
use crate::stmt::{LValue, Stmt};

/// What a declaration declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeclKind {
    /// `input` port.
    Input,
    /// `output` port (add `reg` via [`Decl::also_reg`]).
    Output,
    /// `inout` port (parsed but rejected at elaboration).
    Inout,
    /// `wire` net.
    Wire,
    /// `reg` variable.
    Reg,
    /// `integer` variable (a 32-bit reg).
    Integer,
    /// Named `event`.
    Event,
}

impl DeclKind {
    /// Source keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            DeclKind::Input => "input",
            DeclKind::Output => "output",
            DeclKind::Inout => "inout",
            DeclKind::Wire => "wire",
            DeclKind::Reg => "reg",
            DeclKind::Integer => "integer",
            DeclKind::Event => "event",
        }
    }

    /// `true` for port directions.
    pub fn is_port(self) -> bool {
        matches!(self, DeclKind::Input | DeclKind::Output | DeclKind::Inout)
    }
}

/// One declared name within a declaration, e.g. the `q` of `reg [3:0] q;`
/// or the `mem` of `reg [7:0] mem [0:255];`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclVar {
    /// Unique node id.
    pub id: NodeId,
    /// Declared name.
    pub name: String,
    /// Memory dimension `[hi:lo]`, if any (constant expressions).
    pub array: Option<(Expr, Expr)>,
    /// Initializer (`reg q = 0;`), if any.
    pub init: Option<Expr>,
}

/// A wire/reg/port/integer/event declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Unique node id.
    pub id: NodeId,
    /// What is being declared.
    pub kind: DeclKind,
    /// Vector range `[msb:lsb]`, if any (constant expressions).
    pub range: Option<(Expr, Expr)>,
    /// `output reg` combines a direction and a kind in one declaration.
    pub also_reg: bool,
    /// The declared names.
    pub vars: Vec<DeclVar>,
}

/// A `parameter` or `localparam` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Unique node id.
    pub id: NodeId,
    /// `localparam` (not overridable) vs `parameter`.
    pub local: bool,
    /// Parameter name.
    pub name: String,
    /// Default value (constant expression).
    pub value: Expr,
}

/// A named or positional connection in an instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    /// Unique node id.
    pub id: NodeId,
    /// Port/parameter name for named connections (`.clk(clk)`).
    pub name: Option<String>,
    /// Connected expression; `None` for explicitly unconnected ports.
    pub expr: Option<Expr>,
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Unique node id.
    pub id: NodeId,
    /// Name of the instantiated module.
    pub module: String,
    /// Instance name.
    pub name: String,
    /// Parameter overrides (`#(…)`).
    pub params: Vec<Connection>,
    /// Port connections.
    pub ports: Vec<Connection>,
}

/// A top-level item within a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Signal/port/event declaration.
    Decl(Decl),
    /// Parameter declaration.
    Param(ParamDecl),
    /// Continuous assignment `assign lhs = rhs;`.
    Assign {
        /// Unique node id.
        id: NodeId,
        /// Target net.
        lhs: LValue,
        /// Driving expression.
        rhs: Expr,
    },
    /// An `always` process.
    Always {
        /// Unique node id.
        id: NodeId,
        /// The process body (usually an event-control statement).
        body: Stmt,
    },
    /// An `initial` process.
    Initial {
        /// Unique node id.
        id: NodeId,
        /// The process body.
        body: Stmt,
    },
    /// A module instantiation.
    Instance(Instance),
}

impl Item {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            Item::Decl(d) => d.id,
            Item::Param(p) => p.id,
            Item::Assign { id, .. } | Item::Always { id, .. } | Item::Initial { id, .. } => *id,
            Item::Instance(i) => i.id,
        }
    }
}

/// A Verilog module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Unique node id.
    pub id: NodeId,
    /// Module name.
    pub name: String,
    /// Port names in header order (used for positional connections).
    pub ports: Vec<String>,
    /// Body items in source order.
    pub items: Vec<Item>,
}

impl Module {
    /// Finds the declaration of `name`, if any, searching all
    /// declarations (a name may be declared twice: `output q; reg q;`).
    pub fn decls_of<'a>(&'a self, name: &str) -> Vec<&'a Decl> {
        self.items
            .iter()
            .filter_map(|item| match item {
                Item::Decl(d) if d.vars.iter().any(|v| v.name == name) => Some(d),
                _ => None,
            })
            .collect()
    }
}

impl AsRef<Module> for Module {
    fn as_ref(&self) -> &Module {
        self
    }
}

/// A parsed source file: one or more modules.
///
/// Modules are shared, copy-on-write: cloning a file copies pointers,
/// and [`SourceFile::module_mut`] copies a module only while another
/// file still shares it. A patched variant is therefore the original
/// plus private copies of just the modules its edits touched.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFile {
    /// Modules in source order.
    pub modules: Vec<Arc<Module>>,
}

impl SourceFile {
    /// A file of the given modules, in order.
    pub fn new(modules: Vec<Module>) -> SourceFile {
        SourceFile {
            modules: modules.into_iter().map(Arc::new).collect(),
        }
    }

    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name).map(|m| &**m)
    }

    /// Finds a module by name, mutably, first copying it if another
    /// file shares it.
    pub fn module_mut(&mut self, name: &str) -> Option<&mut Module> {
        self.modules
            .iter_mut()
            .find(|m| m.name == name)
            .map(Arc::make_mut)
    }

    /// Merges the modules of `other` into `self` (testbench + design).
    pub fn extend_from(&mut self, other: SourceFile) {
        self.modules.extend(other.modules);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeIdGen;

    #[test]
    fn decls_of_finds_all_declarations() {
        let mut g = NodeIdGen::new();
        let m = Module {
            id: g.fresh(),
            name: "t".into(),
            ports: vec!["q".into()],
            items: vec![
                Item::Decl(Decl {
                    id: g.fresh(),
                    kind: DeclKind::Output,
                    range: None,
                    also_reg: false,
                    vars: vec![DeclVar {
                        id: g.fresh(),
                        name: "q".into(),
                        array: None,
                        init: None,
                    }],
                }),
                Item::Decl(Decl {
                    id: g.fresh(),
                    kind: DeclKind::Reg,
                    range: None,
                    also_reg: false,
                    vars: vec![DeclVar {
                        id: g.fresh(),
                        name: "q".into(),
                        array: None,
                        init: None,
                    }],
                }),
            ],
        };
        assert_eq!(m.decls_of("q").len(), 2);
        assert!(m.decls_of("missing").is_empty());
    }

    #[test]
    fn source_file_lookup_and_merge() {
        let mut g = NodeIdGen::new();
        let mk = |g: &mut NodeIdGen, name: &str| Module {
            id: g.fresh(),
            name: name.into(),
            ports: vec![],
            items: vec![],
        };
        let mut f = SourceFile::new(vec![mk(&mut g, "dut")]);
        let tb = SourceFile::new(vec![mk(&mut g, "tb")]);
        f.extend_from(tb);
        assert!(f.module("dut").is_some());
        assert!(f.module("tb").is_some());
        assert!(f.module_mut("tb").is_some());
        assert!(f.module("nope").is_none());
    }

    #[test]
    fn clones_share_modules_until_one_is_edited() {
        let mut g = NodeIdGen::new();
        let mk = |g: &mut NodeIdGen, name: &str| Module {
            id: g.fresh(),
            name: name.into(),
            ports: vec![],
            items: vec![],
        };
        let original = SourceFile::new(vec![mk(&mut g, "dut"), mk(&mut g, "tb")]);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&copy.modules[0], &original.modules[0]));
        copy.module_mut("dut")
            .expect("present")
            .ports
            .push("q".into());
        assert!(!Arc::ptr_eq(&copy.modules[0], &original.modules[0]));
        assert!(Arc::ptr_eq(&copy.modules[1], &original.modules[1]));
        assert!(
            original.modules[0].ports.is_empty(),
            "the original is untouched"
        );
    }
}
