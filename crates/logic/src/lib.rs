#![warn(missing_docs)]

//! Four-state logic values and arbitrary-width vectors for Verilog simulation.
//!
//! This crate implements the value domain of IEEE 1364 Verilog: scalar bits
//! that are `0`, `1`, `x` (unknown) or `z` (high impedance), and bit vectors
//! of arbitrary width with the X/Z-propagating semantics of the Verilog
//! expression operators.
//!
//! It is the substrate shared by the AST (literal values), the simulator
//! (signal values), and the CirFix fitness function (bit-level comparison of
//! simulation output against expected behaviour, §3.2 of the paper).
//!
//! # Examples
//!
//! ```
//! use cirfix_logic::{Logic, LogicVec};
//!
//! let a = LogicVec::from_u64(0b1010, 4);
//! let b = LogicVec::from_u64(0b0011, 4);
//! assert_eq!((a.add(&b)).to_u64(), Some(0b1101));
//!
//! // x propagates through arithmetic:
//! let unknown = LogicVec::filled(4, Logic::X);
//! assert!(a.add(&unknown).has_unknown());
//! ```

mod bit;
mod edge;
mod literal;
mod ops;
mod vec;

pub use bit::{Logic, Truth};
pub use edge::{is_negedge, is_posedge, EdgeKind};
pub use literal::{LiteralBase, ParseLiteralError};
pub use vec::LogicVec;
