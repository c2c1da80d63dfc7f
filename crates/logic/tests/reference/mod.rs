//! Per-bit reference implementations of every [`LogicVec`] operator.
//!
//! These functions compute IEEE 1364 semantics one bit at a time, using
//! only the scalar truth tables in [`Logic`] and the public bit-level
//! accessors — never the packed word operators. They are a test oracle:
//! `differential.rs` drives both over random vectors dense in `x`/`z`
//! and asserts bit-identical results.
//!
//! Operand-width conventions match the operator docs in `ops.rs`:
//! binary operators work at `max(lhs, rhs)` width with zero extension;
//! shifts keep the left operand's width.

use cirfix_logic::{Logic, LogicVec, Truth};

/// Zero-extended bit read: bits at or beyond `v.width()` read as `0`
/// (the extension Verilog applies to the narrower binary operand).
#[inline]
fn bit_zx(v: &LogicVec, i: usize) -> Logic {
    if i < v.width() {
        v.bit(i)
    } else {
        Logic::Zero
    }
}

/// The value as a `u128` if fully known with no `1` above bit 127,
/// gathered bit by bit.
fn known_u128(v: &LogicVec) -> Option<u128> {
    let mut out: u128 = 0;
    for i in 0..v.width() {
        match v.bit(i) {
            Logic::Zero => {}
            Logic::One => {
                if i >= 128 {
                    return None;
                }
                out |= 1 << i;
            }
            _ => return None,
        }
    }
    Some(out)
}

fn any_unknown(v: &LogicVec) -> bool {
    (0..v.width()).any(|i| v.bit(i).is_unknown())
}

// ---- arithmetic ---------------------------------------------------------

/// Ripple-carry add/sub core: computes `a + (b ^ invert) + carry_in`
/// per bit at `width`, assuming both operands are fully known.
fn ripple(a: &LogicVec, b: &LogicVec, width: usize, invert: bool, mut carry: bool) -> LogicVec {
    let mut out = LogicVec::zero(width);
    for i in 0..width {
        let x = bit_zx(a, i).is_one();
        let y = bit_zx(b, i).is_one() != invert;
        let sum = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
        out.set_bit(i, Logic::from_bool(sum));
    }
    out
}

/// Addition at `max` width; any unknown input bit poisons the result.
pub fn add(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    if any_unknown(a) || any_unknown(b) {
        return LogicVec::unknown(w);
    }
    ripple(a, b, w, false, false)
}

/// Subtraction (wrapping two's complement) at `max` width.
pub fn sub(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    if any_unknown(a) || any_unknown(b) {
        return LogicVec::unknown(w);
    }
    ripple(a, b, w, true, true)
}

/// Unary minus (two's complement at own width).
pub fn neg(v: &LogicVec) -> LogicVec {
    let w = v.width();
    if any_unknown(v) {
        return LogicVec::unknown(w);
    }
    ripple(&LogicVec::zero(w), v, w, true, true)
}

/// Multiplication; operands beyond 128 known bits yield all-`x` (the
/// documented backend limitation, shared by both implementations).
pub fn mul(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    match (known_u128(a), known_u128(b)) {
        (Some(x), Some(y)) => LogicVec::from_u128(x.wrapping_mul(y), w),
        _ => LogicVec::unknown(w),
    }
}

/// Division; division by zero yields all-`x`.
pub fn div(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    match (known_u128(a), known_u128(b)) {
        (Some(x), Some(y)) => match x.checked_div(y) {
            Some(q) => LogicVec::from_u128(q, w),
            None => LogicVec::unknown(w),
        },
        _ => LogicVec::unknown(w),
    }
}

/// Remainder; modulo zero yields all-`x`.
pub fn rem(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    match (known_u128(a), known_u128(b)) {
        (Some(x), Some(y)) => {
            if y == 0 {
                LogicVec::unknown(w)
            } else {
                LogicVec::from_u128(x % y, w)
            }
        }
        _ => LogicVec::unknown(w),
    }
}

// ---- bitwise ------------------------------------------------------------

fn bitwise2(a: &LogicVec, b: &LogicVec, f: impl Fn(Logic, Logic) -> Logic) -> LogicVec {
    let w = a.width().max(b.width());
    let mut out = LogicVec::zero(w);
    for i in 0..w {
        out.set_bit(i, f(bit_zx(a, i), bit_zx(b, i)));
    }
    out
}

/// Bitwise AND at `max` width (operands zero-extended).
pub fn bit_and(a: &LogicVec, b: &LogicVec) -> LogicVec {
    bitwise2(a, b, Logic::and)
}

/// Bitwise OR.
pub fn bit_or(a: &LogicVec, b: &LogicVec) -> LogicVec {
    bitwise2(a, b, Logic::or)
}

/// Bitwise XOR.
pub fn bit_xor(a: &LogicVec, b: &LogicVec) -> LogicVec {
    bitwise2(a, b, Logic::xor)
}

/// Bitwise XNOR.
pub fn bit_xnor(a: &LogicVec, b: &LogicVec) -> LogicVec {
    bitwise2(a, b, Logic::xnor)
}

/// Bitwise NOT.
pub fn bit_not(v: &LogicVec) -> LogicVec {
    let mut out = LogicVec::zero(v.width());
    for i in 0..v.width() {
        out.set_bit(i, v.bit(i).not());
    }
    out
}

// ---- reductions ---------------------------------------------------------

/// Reduction AND (`&v`).
pub fn reduce_and(v: &LogicVec) -> Logic {
    (0..v.width()).fold(Logic::One, |acc, i| acc.and(v.bit(i)))
}

/// Reduction OR (`|v`).
pub fn reduce_or(v: &LogicVec) -> Logic {
    (0..v.width()).fold(Logic::Zero, |acc, i| acc.or(v.bit(i)))
}

/// Reduction XOR (`^v`).
pub fn reduce_xor(v: &LogicVec) -> Logic {
    (0..v.width()).fold(Logic::Zero, |acc, i| acc.xor(v.bit(i)))
}

// ---- comparisons --------------------------------------------------------

/// Logical equality `==`: `0` on any definite bit difference, `x` when
/// unknowns leave the answer open.
pub fn logic_eq(a: &LogicVec, b: &LogicVec) -> Logic {
    let w = a.width().max(b.width());
    let mut result = Logic::One;
    for i in 0..w {
        let (x, y) = (bit_zx(a, i), bit_zx(b, i));
        if x.is_unknown() || y.is_unknown() {
            result = Logic::X;
        } else if x != y {
            return Logic::Zero;
        }
    }
    result
}

/// Case equality `===`: exact four-state match.
pub fn case_eq(a: &LogicVec, b: &LogicVec) -> Logic {
    let w = a.width().max(b.width());
    Logic::from_bool((0..w).all(|i| bit_zx(a, i) == bit_zx(b, i)))
}

/// Unsigned `<` comparing bit by bit from the MSB; `x` on any unknown.
pub fn lt(a: &LogicVec, b: &LogicVec) -> Logic {
    if any_unknown(a) || any_unknown(b) {
        return Logic::X;
    }
    let w = a.width().max(b.width());
    for i in (0..w).rev() {
        let (x, y) = (bit_zx(a, i).is_one(), bit_zx(b, i).is_one());
        if x != y {
            return Logic::from_bool(y);
        }
    }
    Logic::Zero
}

/// Unsigned `<=`.
pub fn le(a: &LogicVec, b: &LogicVec) -> Logic {
    if any_unknown(a) || any_unknown(b) {
        return Logic::X;
    }
    match lt(b, a) {
        Logic::One => Logic::Zero,
        _ => Logic::One,
    }
}

// ---- logical / truthiness -----------------------------------------------

/// Per-bit truthiness: `True` on any definite `1`, `False` when all
/// bits are definite `0`, else `Unknown`.
pub fn truth(v: &LogicVec) -> Truth {
    let mut unknown = false;
    for i in 0..v.width() {
        match v.bit(i) {
            Logic::One => return Truth::True,
            Logic::Zero => {}
            _ => unknown = true,
        }
    }
    if unknown {
        Truth::Unknown
    } else {
        Truth::False
    }
}

/// Logical AND `&&` over truthiness.
pub fn logical_and(a: &LogicVec, b: &LogicVec) -> Logic {
    truth(a).and(truth(b)).to_logic()
}

/// Logical OR `||`.
pub fn logical_or(a: &LogicVec, b: &LogicVec) -> Logic {
    truth(a).or(truth(b)).to_logic()
}

/// Logical NOT `!`.
pub fn logical_not(v: &LogicVec) -> Logic {
    truth(v).not().to_logic()
}

// ---- shifts -------------------------------------------------------------

/// The shift amount when fully known: `None` means unknown bits (the
/// all-`x` case); a known amount too wide for `u64` saturates, which
/// shifts every bit out.
fn shift_amount(amount: &LogicVec) -> Option<u64> {
    let mut n: u64 = 0;
    let mut saturated = false;
    for i in 0..amount.width() {
        match amount.bit(i) {
            Logic::Zero => {}
            Logic::One => {
                if i >= 64 {
                    saturated = true;
                } else {
                    n |= 1 << i;
                }
            }
            _ => return None,
        }
    }
    Some(if saturated { u64::MAX } else { n })
}

/// Logical left shift keeping the left operand's width. An unknown
/// amount yields all-`x`; a known amount `>= width` yields all-`0`.
pub fn shl(v: &LogicVec, amount: &LogicVec) -> LogicVec {
    let w = v.width();
    match shift_amount(amount) {
        None => LogicVec::unknown(w),
        Some(n) => {
            let mut out = LogicVec::zero(w);
            for i in 0..w {
                let src = i as u64;
                if src >= n {
                    out.set_bit(i, v.bit((src - n) as usize));
                }
            }
            out
        }
    }
}

/// Logical right shift.
pub fn shr(v: &LogicVec, amount: &LogicVec) -> LogicVec {
    let w = v.width();
    match shift_amount(amount) {
        None => LogicVec::unknown(w),
        Some(n) => {
            let mut out = LogicVec::zero(w);
            for i in 0..w {
                if (i as u64).checked_add(n).is_some_and(|s| s < w as u64) {
                    out.set_bit(i, v.bit(i + n as usize));
                }
            }
            out
        }
    }
}

// ---- selection / case matching ------------------------------------------

/// Per-bit `merge_ambiguous`: agreeing known bits survive, others `x`.
pub fn merge_ambiguous(a: &LogicVec, b: &LogicVec) -> LogicVec {
    let w = a.width().max(b.width());
    let mut out = LogicVec::zero(w);
    for i in 0..w {
        let (x, y) = (bit_zx(a, i), bit_zx(b, i));
        out.set_bit(
            i,
            if x == y && !x.is_unknown() {
                x
            } else {
                Logic::X
            },
        );
    }
    out
}

/// Ternary select on an evaluated condition.
pub fn select(cond: &LogicVec, then_v: &LogicVec, else_v: &LogicVec) -> LogicVec {
    match truth(cond) {
        Truth::True => then_v.clone(),
        Truth::False => else_v.clone(),
        Truth::Unknown => merge_ambiguous(then_v, else_v),
    }
}

/// `casez` label match: `z` in either operand is a wildcard.
pub fn casez_match(subject: &LogicVec, label: &LogicVec) -> bool {
    let w = subject.width().max(label.width());
    (0..w).all(|i| {
        let (x, y) = (bit_zx(subject, i), bit_zx(label, i));
        x == Logic::Z || y == Logic::Z || x == y
    })
}

/// `casex` label match: `x` and `z` in either operand are wildcards.
pub fn casex_match(subject: &LogicVec, label: &LogicVec) -> bool {
    let w = subject.width().max(label.width());
    (0..w).all(|i| {
        let (x, y) = (bit_zx(subject, i), bit_zx(label, i));
        x.is_unknown() || y.is_unknown() || x == y
    })
}

// ---- structural (for property tests) ------------------------------------

/// Per-bit part select with out-of-range bits reading `x`.
pub fn slice(v: &LogicVec, msb: usize, lsb: usize) -> LogicVec {
    assert!(msb >= lsb, "slice msb < lsb");
    let mut out = LogicVec::zero(msb - lsb + 1);
    for (k, i) in (lsb..=msb).enumerate() {
        out.set_bit(k, v.bit(i));
    }
    out
}

/// Per-bit concatenation (first part = MSBs).
pub fn concat(parts: &[LogicVec]) -> LogicVec {
    assert!(!parts.is_empty(), "empty concatenation");
    let total: usize = parts.iter().map(LogicVec::width).sum();
    let mut out = LogicVec::zero(total);
    let mut offset = 0;
    for part in parts.iter().rev() {
        for i in 0..part.width() {
            out.set_bit(offset + i, part.bit(i));
        }
        offset += part.width();
    }
    out
}

/// Per-bit replication.
pub fn replicate(v: &LogicVec, count: usize) -> LogicVec {
    assert!(count > 0, "zero replication count");
    let mut out = LogicVec::zero(v.width() * count);
    for k in 0..count {
        for i in 0..v.width() {
            out.set_bit(k * v.width() + i, v.bit(i));
        }
    }
    out
}
