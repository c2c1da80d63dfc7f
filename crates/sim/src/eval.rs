//! The evaluation context, and elaboration constants.
//!
//! Expressions evaluate only as compiled bytecode ([`crate::code`]);
//! this module holds what an evaluation touches and the constant
//! evaluator the elaborator (and lint) call.

use std::collections::HashMap;
use std::hash::BuildHasher;

use cirfix_ast::Expr;
use cirfix_logic::LogicVec;

use crate::code::{const_u64, const_value};
use crate::design::Store;

/// A deterministic linear congruential generator backing `$random`.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        }
    }

    /// The next 32-bit pseudo-random value.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 32) as u32
    }
}

/// An evaluation fault (undeclared name, reading a whole memory, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalFault(pub String);

impl EvalFault {
    pub(crate) fn new(message: impl Into<String>) -> EvalFault {
        EvalFault(message.into())
    }
}

/// Everything compiled code can touch at run time (names were resolved
/// when it was compiled).
pub struct EvalCtx<'a> {
    /// Current signal/memory values.
    pub store: &'a Store,
    /// Declared LSB offsets per signal (parallel to the store).
    pub sig_lsb: &'a [usize],
    /// Memory index offsets.
    pub mem_offset: &'a [u64],
    /// Current simulation time (for `$time`).
    pub time: u64,
    /// Generator for `$random`.
    pub rng: &'a mut Lcg,
}

/// Evaluates a constant expression using only parameter bindings — used
/// during elaboration for ranges, parameter values and replication counts.
/// The expression compiles against `params` in place (the table is not
/// copied) and runs with `$time` at 0 and `$random` seeded with 0.
///
/// # Errors
///
/// Returns an [`EvalFault`] if the expression references anything other
/// than literals and parameters.
pub fn eval_const<S: BuildHasher>(
    expr: &Expr,
    params: &HashMap<String, LogicVec, S>,
) -> Result<LogicVec, EvalFault> {
    const_value(expr, params)
}

/// Evaluates a constant expression to a `u64`.
///
/// # Errors
///
/// As [`eval_const`], plus unknown (`x`/`z`) results.
pub fn eval_const_u64<S: BuildHasher>(
    expr: &Expr,
    params: &HashMap<String, LogicVec, S>,
) -> Result<u64, EvalFault> {
    const_u64(expr, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(7);
        let mut b = Lcg::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }
}
