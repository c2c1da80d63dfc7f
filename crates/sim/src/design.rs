//! The elaborated design: flattened signals, memories, scopes, compiled
//! processes and continuous assignments. Every expression in it is
//! already compiled ([`ExprCode`]); a simulator runs the design as is.
//! Its parts sit behind [`Arc`]s, so a variant's design shares every
//! part its edits did not change with the original's
//! ([`crate::Elaboration`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Index;
use std::sync::Arc;

use cirfix_logic::LogicVec;

use crate::code::ExprCode;
use crate::compile::Program;

/// FNV-1a, the hasher for the design's name tables. These are small
/// maps of short identifier keys, queried on hot paths (scope lookups
/// during evaluation and compilation); SipHash's per-lookup setup cost
/// dominates there, FNV's does not.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// A string-keyed map hashed with [`FnvHasher`].
pub type NameMap<V> = HashMap<String, V, BuildHasherDefault<FnvHasher>>;

/// Index of a scalar/vector signal in the elaborated design.
pub type SignalId = usize;

/// Index of a memory (array of words) in the elaborated design.
pub type MemId = usize;

/// What kind of storage a signal is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// A net: driven by continuous assignments / output ports.
    Wire,
    /// A variable: written by procedural assignments.
    Reg,
    /// A named event, modelled as an 8-bit trigger counter.
    Event,
}

/// One elaborated signal.
#[derive(Debug, Clone)]
pub struct Signal {
    /// Hierarchical name, e.g. `dut.counter_out`.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Bit index of the declared LSB (`[7:4]` has `lsb = 4`).
    pub lsb: usize,
    /// Storage kind.
    pub kind: SignalKind,
    /// Declared initializer (`reg q = 0;`), applied at time 0.
    pub init: Option<LogicVec>,
}

/// One elaborated memory (`reg [7:0] mem [0:255]`).
#[derive(Debug, Clone)]
pub struct Memory {
    /// Hierarchical name.
    pub name: String,
    /// Word width in bits.
    pub width: usize,
    /// Number of words.
    pub size: usize,
    /// Index of the first word (`[lo:hi]` or `[hi:lo]` both supported).
    pub offset: u64,
}

/// A name binding visible inside one module instance.
#[derive(Debug, Clone)]
pub enum ScopeEntry {
    /// A signal.
    Sig(SignalId),
    /// A memory.
    Mem(MemId),
    /// An elaborated parameter/localparam constant.
    Param(LogicVec),
}

/// The symbol table of one module instance. Shared (via `Arc`) by all
/// processes and continuous assignments of the instance.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Instance path, e.g. `dut.u_mul` (empty for the top instance).
    pub path: String,
    /// Local name → binding.
    pub entries: NameMap<ScopeEntry>,
}

impl Scope {
    /// Looks up a local name.
    pub fn lookup(&self, name: &str) -> Option<&ScopeEntry> {
        self.entries.get(name)
    }

    /// Looks up a name that must be a signal.
    pub fn signal(&self, name: &str) -> Option<SignalId> {
        match self.entries.get(name) {
            Some(ScopeEntry::Sig(id)) => Some(*id),
            _ => None,
        }
    }
}

/// A resolved assignment target.
#[derive(Debug, Clone)]
pub enum Target {
    /// The whole signal.
    Sig(SignalId),
    /// A constant part select (`bit` selects have `msb == lsb`). Bit
    /// indices are raw (declaration `lsb` already subtracted).
    Bits {
        /// Target signal.
        sig: SignalId,
        /// High raw bit index, inclusive.
        msb: usize,
        /// Low raw bit index, inclusive.
        lsb: usize,
    },
    /// A dynamically indexed single bit, `q[i]`.
    BitDyn {
        /// Target signal.
        sig: SignalId,
        /// Index expression, evaluated at run time.
        index: ExprCode,
    },
    /// A memory word, `mem[addr]`.
    Word {
        /// Target memory.
        mem: MemId,
        /// Address expression.
        index: ExprCode,
    },
    /// A concatenation of targets; the first receives the MSBs.
    Concat(Vec<Target>),
}

/// A continuous assignment (`assign …` or an elaborated port connection).
#[derive(Debug, Clone)]
pub struct ContAssign {
    /// Resolved target (always a wire).
    pub target: Target,
    /// Driving expression.
    pub rhs: ExprCode,
    /// The instance scope `rhs` was compiled in.
    pub scope: Arc<Scope>,
    /// Human-readable origin for diagnostics.
    pub origin: String,
}

/// Whether a process restarts after completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessKind {
    /// `always` — the program loops forever.
    Always,
    /// `initial` — the program runs once.
    Initial,
}

/// One elaborated process: a compiled program plus its instance scope.
#[derive(Debug, Clone)]
pub struct Process {
    /// Compiled operations.
    pub program: Program,
    /// The instance scope the program was compiled in (`%m` prints its
    /// path).
    pub scope: Arc<Scope>,
    /// `always` vs `initial`.
    pub kind: ProcessKind,
    /// Human-readable origin for diagnostics.
    pub origin: String,
}

/// A design's processes or continuous assignments: an elaborated list,
/// shared, with the entries a derived design recompiled in place of
/// theirs. A derived design touches no reference count but the list's
/// own, so simulations on other threads never contend for the shared
/// entries.
#[derive(Debug, Clone)]
pub struct SharedList<T> {
    shared: Arc<[T]>,
    /// Replaced entries as (index, entry), by index.
    replaced: Vec<(usize, T)>,
}

impl<T> SharedList<T> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.shared.is_empty()
    }

    /// The entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map(|i| &self[i])
    }

    /// Puts `entry` in place of entry `i`.
    pub(crate) fn replace(&mut self, i: usize, entry: T) {
        match self.replaced.binary_search_by_key(&i, |(j, _)| *j) {
            Ok(k) => self.replaced[k].1 = entry,
            Err(k) => self.replaced.insert(k, (i, entry)),
        }
    }
}

impl<T> Index<usize> for SharedList<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match self.replaced.iter().find(|(j, _)| *j == i) {
            Some((_, entry)) => entry,
            None => &self.shared[i],
        }
    }
}

impl<T> From<Vec<T>> for SharedList<T> {
    fn from(entries: Vec<T>) -> SharedList<T> {
        SharedList {
            shared: entries.into(),
            replaced: Vec::new(),
        }
    }
}

impl<T> Default for SharedList<T> {
    fn default() -> SharedList<T> {
        Vec::new().into()
    }
}

/// The fully elaborated design, ready to simulate. Its parts are shared:
/// cloning it copies pointers (and a derived design's recompiled
/// entries).
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// All signals, flattened across the hierarchy.
    pub signals: Arc<[Signal]>,
    /// All memories.
    pub memories: Arc<[Memory]>,
    /// All processes.
    pub processes: SharedList<Process>,
    /// All continuous assignments (including port connections).
    pub cassigns: SharedList<ContAssign>,
    /// Per signal, the continuous assignments whose right-hand side names
    /// it, in assignment order: the ones a change of the signal
    /// re-evaluates. Only elaboration fills it, one entry per signal.
    pub(crate) cassign_deps: Arc<[Vec<usize>]>,
    /// Hierarchical signal name → id.
    pub by_name: Arc<NameMap<SignalId>>,
}

impl Design {
    /// Looks up a signal by hierarchical name.
    pub fn signal_named(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// The continuous assignments whose right-hand side names `sig`, in
    /// assignment order (empty for a design elaboration did not build).
    pub fn readers(&self, sig: SignalId) -> &[usize] {
        self.cassign_deps.get(sig).map_or(&[], Vec::as_slice)
    }
}

/// The value store for one simulation run: current values of all signals
/// and memories, indexed parallel to [`Design`].
#[derive(Debug, Clone)]
pub struct Store {
    /// Signal values.
    pub signals: Vec<LogicVec>,
    /// Memory contents.
    pub memories: Vec<Vec<LogicVec>>,
}

impl Store {
    /// Builds the initial store: registers and wires are all-`x`
    /// (initializers are applied by the engine at time 0), events are 0.
    pub fn new(design: &Design) -> Store {
        let signals = design
            .signals
            .iter()
            .map(|s| match s.kind {
                SignalKind::Event => LogicVec::zero(s.width),
                _ => LogicVec::unknown(s.width),
            })
            .collect();
        let memories = design
            .memories
            .iter()
            .map(|m| vec![LogicVec::unknown(m.width); m.size])
            .collect();
        Store { signals, memories }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_initialization() {
        let design = Design {
            signals: vec![
                Signal {
                    name: "q".into(),
                    width: 4,
                    lsb: 0,
                    kind: SignalKind::Reg,
                    init: None,
                },
                Signal {
                    name: "ev".into(),
                    width: 8,
                    lsb: 0,
                    kind: SignalKind::Event,
                    init: None,
                },
            ]
            .into(),
            memories: vec![Memory {
                name: "mem".into(),
                width: 8,
                size: 4,
                offset: 0,
            }]
            .into(),
            ..Design::default()
        };
        let store = Store::new(&design);
        assert!(store.signals[0].has_unknown());
        assert_eq!(store.signals[1].to_u64(), Some(0));
        assert_eq!(store.memories[0].len(), 4);
        assert!(store.memories[0][0].has_unknown());
    }

    #[test]
    fn scope_lookup() {
        let mut scope = Scope::default();
        scope.entries.insert("a".into(), ScopeEntry::Sig(3));
        scope
            .entries
            .insert("P".into(), ScopeEntry::Param(LogicVec::from_u64(8, 32)));
        assert_eq!(scope.signal("a"), Some(3));
        assert_eq!(scope.signal("P"), None);
        assert!(scope.lookup("P").is_some());
        assert!(scope.lookup("zz").is_none());
    }
}
