#![warn(missing_docs)]

//! An event-driven four-state Verilog simulator.
//!
//! This crate is the substrate that replaces Synopsys VCS / Icarus Verilog
//! in the CirFix pipeline: it elaborates a parsed design (testbench on
//! top), simulates it with IEEE 1364 stratified-event-queue semantics, and
//! records instrumented output traces that the repair engine's fitness
//! function consumes.
//!
//! * [`elaborate`] — hierarchy flattening, parameter resolution, port
//!   lowering, process compilation ([`SimError::Elaboration`] = the
//!   "does not compile" signal for candidate repairs);
//! * [`Simulator`] — the engine: active/inactive/NBA regions, delta-cycle
//!   and runaway-process guards (mutants love infinite loops);
//! * [`ProbeSpec`]/[`Trace`] — testbench instrumentation (§3.2 of the
//!   paper): sampled values of output wires and registers per clock cycle.
//!
//! # Examples
//!
//! ```
//! use cirfix_sim::{ProbeSpec, SimConfig, Simulator};
//!
//! let src = r#"
//! module blink;
//!     reg led;
//!     initial led = 0;
//!     always #5 led = !led;
//!     initial #40 $finish;
//! endmodule
//! "#;
//! let file = cirfix_parser::parse(src)?;
//! let mut sim = Simulator::new(&file, "blink", SimConfig::default())?;
//! let probe = sim.add_probe(&ProbeSpec::periodic(vec!["led".into()], 5, 10))?;
//! sim.run()?;
//! assert_eq!(sim.probe_trace(probe).get(5, "led").unwrap().to_u64(), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cancel;
pub mod code;
mod compile;
mod design;
mod elab;
mod engine;
mod error;
mod eval;
mod probe;
pub mod vcd;
pub mod width;

pub use cancel::CancelToken;
pub use compile::{CompileError, Op, Program, WaitSpec};
pub use design::{
    ContAssign, Design, FnvHasher, Memory, NameMap, Process, ProcessKind, Scope, ScopeEntry,
    Signal, SignalId, SignalKind, Store, Target,
};
pub use elab::elaborate;
pub use engine::{SimConfig, SimMetrics, SimOutcome, Simulator, CANCEL_CHECK_MASK};
pub use error::SimError;
pub use eval::{eval_const, eval_const_u64, eval_expr, EvalCtx, EvalFault, Lcg};
pub use probe::{ProbeSchedule, ProbeSpec, Trace};
