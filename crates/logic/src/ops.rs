//! Verilog expression operators over [`LogicVec`].
//!
//! All binary operators follow IEEE 1364 semantics for unsigned operands:
//! arithmetic and relational operators produce all-`x` (respectively `x`)
//! results when any input bit is `x`/`z`; bitwise operators propagate
//! unknowns per-bit.
//!
//! The implementations here are *word-packed*: each operator combines
//! the two `u64` bit-planes (see `vec.rs` for the encoding) a word at a
//! time. Writing `v = a & !b` for the definite-one mask and
//! `k = !a & !b` for the definite-zero mask, the per-plane rules are:
//!
//! * AND: ones = `v₁ & v₂`, zeros = `k₁ | k₂`, rest `x`;
//! * OR: ones = `v₁ | v₂`, zeros = `k₁ & k₂`, rest `x`;
//! * XOR/XNOR: known exactly where both operands are known;
//! * add/sub/compare: all-`x` when any unknown bit exists, otherwise
//!   multiword ripple-carry / most-significant-word-first compare on
//!   the `a` plane alone (so they work at any width);
//! * shifts: whole-word moves of both planes.
//!
//! Every operator is differentially tested against per-bit reference
//! algorithms (`tests/reference/mod.rs`, driven by
//! `tests/differential.rs`).

use crate::bit::{Logic, Truth};
use crate::vec::{top_mask, words_for, LogicVec};

impl LogicVec {
    // ---- arithmetic -----------------------------------------------------

    /// Addition; the result width is `max(self, rhs)` (wrapping), the usual
    /// context width of `a + b` before assignment truncation.
    pub fn add(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::unknown(w);
        }
        let mut carry = false;
        LogicVec::build(w, |i| {
            let (a, _) = self.word(i);
            let (b, _) = rhs.word(i);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            (s2, 0)
        })
    }

    /// Subtraction (wrapping, unsigned two's complement).
    pub fn sub(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.width().max(rhs.width());
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::unknown(w);
        }
        let mut carry = true;
        LogicVec::build(w, |i| {
            let (a, _) = self.word(i);
            let (b, _) = rhs.word(i);
            let (s1, c1) = a.overflowing_add(!b);
            let (s2, c2) = s1.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            (s2, 0)
        })
    }

    /// Multiplication (wrapping at the result width). Fully-known
    /// operands wider than 128 bits yield all-`x` — the documented
    /// limit of the `u128`-based product, shared with the per-bit
    /// reference oracle.
    pub fn mul(&self, rhs: &LogicVec) -> LogicVec {
        self.arith_u128(rhs, |a, b, w| LogicVec::from_u128(a.wrapping_mul(b), w))
    }

    /// Division; division by zero yields all-`x`, as in Verilog.
    pub fn div(&self, rhs: &LogicVec) -> LogicVec {
        self.arith_u128(rhs, |a, b, w| match a.checked_div(b) {
            Some(q) => LogicVec::from_u128(q, w),
            None => LogicVec::unknown(w),
        })
    }

    /// Remainder; modulo zero yields all-`x`.
    pub fn rem(&self, rhs: &LogicVec) -> LogicVec {
        self.arith_u128(rhs, |a, b, w| {
            if b == 0 {
                LogicVec::unknown(w)
            } else {
                LogicVec::from_u128(a % b, w)
            }
        })
    }

    /// Unary minus (two's complement at own width).
    pub fn neg(&self) -> LogicVec {
        let w = self.width();
        if self.has_unknown() {
            return LogicVec::unknown(w);
        }
        let mut carry = true;
        LogicVec::build(w, |i| {
            let (a, _) = self.word(i);
            let (s, c) = (!a).overflowing_add(u64::from(carry));
            carry = c;
            (s, 0)
        })
    }

    fn arith_u128(
        &self,
        rhs: &LogicVec,
        f: impl FnOnce(u128, u128, usize) -> LogicVec,
    ) -> LogicVec {
        let w = self.width().max(rhs.width());
        match (self.to_u128(), rhs.to_u128()) {
            (Some(a), Some(b)) => f(a, b, w),
            _ => LogicVec::unknown(w),
        }
    }

    // ---- bitwise --------------------------------------------------------

    /// Bitwise AND at `max` width (operands zero-extended).
    pub fn bit_and(&self, rhs: &LogicVec) -> LogicVec {
        LogicVec::build(self.width().max(rhs.width()), |i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = rhs.word(i);
            let ones = (a1 & !b1) & (a2 & !b2);
            let zeros = (!a1 & !b1) | (!a2 & !b2);
            let x = !(ones | zeros);
            (ones | x, x)
        })
    }

    /// Bitwise OR.
    pub fn bit_or(&self, rhs: &LogicVec) -> LogicVec {
        LogicVec::build(self.width().max(rhs.width()), |i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = rhs.word(i);
            let ones = (a1 & !b1) | (a2 & !b2);
            let zeros = (!a1 & !b1) & (!a2 & !b2);
            let x = !(ones | zeros);
            (ones | x, x)
        })
    }

    /// Bitwise XOR.
    pub fn bit_xor(&self, rhs: &LogicVec) -> LogicVec {
        LogicVec::build(self.width().max(rhs.width()), |i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = rhs.word(i);
            let known = !b1 & !b2;
            let x = !known;
            (((a1 ^ a2) & known) | x, x)
        })
    }

    /// Bitwise XNOR (`~^` / `^~`).
    pub fn bit_xnor(&self, rhs: &LogicVec) -> LogicVec {
        LogicVec::build(self.width().max(rhs.width()), |i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = rhs.word(i);
            let known = !b1 & !b2;
            let x = !known;
            ((!(a1 ^ a2) & known) | x, x)
        })
    }

    /// Bitwise NOT.
    pub fn bit_not(&self) -> LogicVec {
        LogicVec::build(self.width(), |i| {
            let (a, b) = self.word(i);
            ((!a & !b) | b, b)
        })
    }

    // ---- reductions -----------------------------------------------------

    /// Reduction AND (`&v`).
    pub fn reduce_and(&self) -> Logic {
        let (aw, bw) = self.planes();
        let mut unknown = false;
        let last = aw.len() - 1;
        for (i, (a, b)) in aw.iter().zip(bw).enumerate() {
            // Padding above the width is (0,0), which would read as a
            // definite zero bit — mask it out of the top word.
            let m = if i == last {
                top_mask(self.width())
            } else {
                u64::MAX
            };
            if !a & !b & m != 0 {
                return Logic::Zero;
            }
            unknown |= *b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction OR (`|v`).
    pub fn reduce_or(&self) -> Logic {
        let (aw, bw) = self.planes();
        let mut unknown = false;
        for (a, b) in aw.iter().zip(bw) {
            if a & !b != 0 {
                return Logic::One;
            }
            unknown |= *b != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::Zero
        }
    }

    /// Reduction XOR (`^v`).
    pub fn reduce_xor(&self) -> Logic {
        let (aw, bw) = self.planes();
        if bw.iter().any(|b| *b != 0) {
            return Logic::X;
        }
        let parity = aw.iter().map(|a| a.count_ones()).sum::<u32>() % 2;
        Logic::from_bool(parity == 1)
    }

    /// Reduction NAND (`~&v`).
    pub fn reduce_nand(&self) -> Logic {
        self.reduce_and().not()
    }

    /// Reduction NOR (`~|v`).
    pub fn reduce_nor(&self) -> Logic {
        self.reduce_or().not()
    }

    /// Reduction XNOR (`~^v`).
    pub fn reduce_xnor(&self) -> Logic {
        self.reduce_xor().not()
    }

    // ---- comparisons ----------------------------------------------------

    /// Logical equality `==`: `x` when either side has unknown bits that
    /// could change the answer.
    pub fn logic_eq(&self, rhs: &LogicVec) -> Logic {
        let n = words_for(self.width().max(rhs.width()));
        let mut unknown = false;
        for i in 0..n {
            let (a1, b1) = self.word(i);
            let (a2, b2) = rhs.word(i);
            // A definite bit difference decides, even with x elsewhere.
            if (a1 ^ a2) & !b1 & !b2 != 0 {
                return Logic::Zero;
            }
            unknown |= (b1 | b2) != 0;
        }
        if unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Logical inequality `!=`.
    pub fn logic_neq(&self, rhs: &LogicVec) -> Logic {
        self.logic_eq(rhs).not()
    }

    /// Case equality `===`: exact four-state match, always `0` or `1`.
    pub fn case_eq(&self, rhs: &LogicVec) -> Logic {
        let n = words_for(self.width().max(rhs.width()));
        Logic::from_bool((0..n).all(|i| self.word(i) == rhs.word(i)))
    }

    /// Case inequality `!==`.
    pub fn case_neq(&self, rhs: &LogicVec) -> Logic {
        self.case_eq(rhs).not()
    }

    /// Unsigned `<`; `x` if either operand has unknown bits.
    pub fn lt(&self, rhs: &LogicVec) -> Logic {
        match self.cmp_known(rhs) {
            None => Logic::X,
            Some(ord) => Logic::from_bool(ord == std::cmp::Ordering::Less),
        }
    }

    /// Unsigned `<=`.
    pub fn le(&self, rhs: &LogicVec) -> Logic {
        match self.cmp_known(rhs) {
            None => Logic::X,
            Some(ord) => Logic::from_bool(ord != std::cmp::Ordering::Greater),
        }
    }

    /// Unsigned `>`.
    pub fn gt(&self, rhs: &LogicVec) -> Logic {
        rhs.lt(self)
    }

    /// Unsigned `>=`.
    pub fn ge(&self, rhs: &LogicVec) -> Logic {
        rhs.le(self)
    }

    /// Multiword unsigned compare of the `a` planes; `None` on any
    /// unknown bit.
    fn cmp_known(&self, rhs: &LogicVec) -> Option<std::cmp::Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let n = words_for(self.width().max(rhs.width()));
        for i in (0..n).rev() {
            let (a, _) = self.word(i);
            let (b, _) = rhs.word(i);
            if a != b {
                return Some(a.cmp(&b));
            }
        }
        Some(std::cmp::Ordering::Equal)
    }

    // ---- logical --------------------------------------------------------

    /// Logical AND `&&` over truthiness.
    pub fn logical_and(&self, rhs: &LogicVec) -> Logic {
        self.truth().and(rhs.truth()).to_logic()
    }

    /// Logical OR `||`.
    pub fn logical_or(&self, rhs: &LogicVec) -> Logic {
        self.truth().or(rhs.truth()).to_logic()
    }

    /// Logical NOT `!`.
    pub fn logical_not(&self) -> Logic {
        self.truth().not().to_logic()
    }

    // ---- shifts ---------------------------------------------------------

    /// Logical left shift; the result keeps the left operand's width.
    /// An unknown shift amount yields all-`x`; a known amount of the
    /// width or more yields all-`0` (every bit shifted out).
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        let w = self.width();
        match self.shift_amount(amount, w) {
            ShiftAmount::Unknown => LogicVec::unknown(w),
            ShiftAmount::Overflow => LogicVec::zero(w),
            ShiftAmount::Bits(n) => {
                let (ws, bs) = (n / 64, n % 64);
                LogicVec::build(w, |i| {
                    if i < ws {
                        return (0, 0);
                    }
                    let (a0, b0) = self.word(i - ws);
                    if bs == 0 {
                        (a0, b0)
                    } else if i - ws == 0 {
                        (a0 << bs, b0 << bs)
                    } else {
                        let (a1, b1) = self.word(i - ws - 1);
                        (
                            (a0 << bs) | (a1 >> (64 - bs)),
                            (b0 << bs) | (b1 >> (64 - bs)),
                        )
                    }
                })
            }
        }
    }

    /// Logical right shift.
    pub fn shr(&self, amount: &LogicVec) -> LogicVec {
        let w = self.width();
        match self.shift_amount(amount, w) {
            ShiftAmount::Unknown => LogicVec::unknown(w),
            ShiftAmount::Overflow => LogicVec::zero(w),
            ShiftAmount::Bits(n) => {
                let (ws, bs) = (n / 64, n % 64);
                LogicVec::build(w, |i| {
                    let (a0, b0) = self.word(i + ws);
                    if bs == 0 {
                        (a0, b0)
                    } else {
                        let (a1, b1) = self.word(i + ws + 1);
                        (
                            (a0 >> bs) | (a1 << (64 - bs)),
                            (b0 >> bs) | (b1 << (64 - bs)),
                        )
                    }
                })
            }
        }
    }

    /// Classifies a shift amount: unknown bits, a known amount `>=
    /// width` (including amounts too wide for `u64`), or in-range bits.
    fn shift_amount(&self, amount: &LogicVec, width: usize) -> ShiftAmount {
        if amount.has_unknown() {
            return ShiftAmount::Unknown;
        }
        match amount.to_u64() {
            // Fully known but with a 1 above bit 63: shifts everything out.
            None => ShiftAmount::Overflow,
            Some(n) if n >= width as u64 => ShiftAmount::Overflow,
            Some(n) => ShiftAmount::Bits(n as usize),
        }
    }

    // ---- selection ------------------------------------------------------

    /// Ternary `cond ? a : b` where `self` is the (already evaluated)
    /// condition: an unknown condition merges the branches bitwise.
    pub fn select(&self, then_v: &LogicVec, else_v: &LogicVec) -> LogicVec {
        match self.truth() {
            Truth::True => then_v.clone(),
            Truth::False => else_v.clone(),
            Truth::Unknown => then_v.merge_ambiguous(else_v),
        }
    }

    // ---- case matching --------------------------------------------------

    /// Plain `case` label match: case equality (`===`).
    pub fn case_match(&self, label: &LogicVec) -> bool {
        self.case_eq(label) == Logic::One
    }

    /// `casez` label match: `z` (or `?`) in either operand is a wildcard.
    pub fn casez_match(&self, label: &LogicVec) -> bool {
        let n = words_for(self.width().max(label.width()));
        (0..n).all(|i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = label.word(i);
            let wild = (!a1 & b1) | (!a2 & b2);
            let eq = !((a1 ^ a2) | (b1 ^ b2));
            eq | wild == u64::MAX
        })
    }

    /// `casex` label match: `x` and `z` in either operand are wildcards.
    pub fn casex_match(&self, label: &LogicVec) -> bool {
        let n = words_for(self.width().max(label.width()));
        (0..n).all(|i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = label.word(i);
            let eq = !((a1 ^ a2) | (b1 ^ b2));
            eq | b1 | b2 == u64::MAX
        })
    }
}

/// Outcome of resolving a shift amount.
enum ShiftAmount {
    Unknown,
    Overflow,
    Bits(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64, w: usize) -> LogicVec {
        LogicVec::from_u64(x, w)
    }

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(v(15, 4).add(&v(1, 4)).to_u64(), Some(0));
        assert_eq!(v(7, 4).add(&v(1, 4)).to_u64(), Some(8));
        // Mixed widths use the max width.
        assert_eq!(v(255, 8).add(&v(1, 4)).to_u64(), Some(0));
    }

    #[test]
    fn sub_wraps_unsigned() {
        assert_eq!(v(0, 4).sub(&v(1, 4)).to_u64(), Some(15));
        assert_eq!(v(9, 4).sub(&v(4, 4)).to_u64(), Some(5));
    }

    #[test]
    fn unknown_poisons_arithmetic() {
        let x = LogicVec::unknown(4);
        assert!(v(3, 4).add(&x).has_unknown());
        assert!(x.mul(&v(2, 4)).has_unknown());
        assert!(x.neg().has_unknown());
    }

    #[test]
    fn div_rem_by_zero_is_x() {
        assert!(v(5, 4).div(&v(0, 4)).has_unknown());
        assert!(v(5, 4).rem(&v(0, 4)).has_unknown());
        assert_eq!(v(7, 4).div(&v(2, 4)).to_u64(), Some(3));
        assert_eq!(v(7, 4).rem(&v(2, 4)).to_u64(), Some(1));
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(v(0b1100, 4).bit_and(&v(0b1010, 4)).to_u64(), Some(0b1000));
        assert_eq!(v(0b1100, 4).bit_or(&v(0b1010, 4)).to_u64(), Some(0b1110));
        assert_eq!(v(0b1100, 4).bit_xor(&v(0b1010, 4)).to_u64(), Some(0b0110));
        assert_eq!(v(0b1100, 4).bit_not().to_u64(), Some(0b0011));
        assert_eq!(v(0b1100, 4).bit_xnor(&v(0b1010, 4)).to_u64(), Some(0b1001));
    }

    #[test]
    fn bitwise_partial_unknown() {
        let mut a = v(0b0001, 4);
        a.set_bit(3, Logic::X);
        // 0 & x = 0; x & 1 = x
        let and = a.bit_and(&v(0b1001, 4));
        assert_eq!(and.bit(0), Logic::One);
        assert_eq!(and.bit(3), Logic::X);
        // 1 | x = 1
        let or = a.bit_or(&v(0b1000, 4));
        assert_eq!(or.bit(3), Logic::One);
    }

    #[test]
    fn reductions() {
        assert_eq!(v(0b1111, 4).reduce_and(), Logic::One);
        assert_eq!(v(0b1110, 4).reduce_and(), Logic::Zero);
        assert_eq!(v(0, 4).reduce_or(), Logic::Zero);
        assert_eq!(v(0b0100, 4).reduce_or(), Logic::One);
        assert_eq!(v(0b0110, 4).reduce_xor(), Logic::Zero);
        assert_eq!(v(0b0111, 4).reduce_xor(), Logic::One);
        assert_eq!(v(0b1111, 4).reduce_nand(), Logic::Zero);
        assert_eq!(LogicVec::unknown(2).reduce_or(), Logic::X);
        // A zero bit decides reduction AND regardless of x bits.
        let mut a = LogicVec::unknown(2);
        a.set_bit(0, Logic::Zero);
        assert_eq!(a.reduce_and(), Logic::Zero);
    }

    #[test]
    fn equality_with_unknowns() {
        assert_eq!(v(3, 4).logic_eq(&v(3, 4)), Logic::One);
        assert_eq!(v(3, 4).logic_eq(&v(4, 4)), Logic::Zero);
        // A definite bit difference decides even with x elsewhere.
        let mut a = v(0b0001, 4);
        a.set_bit(3, Logic::X);
        assert_eq!(a.logic_eq(&v(0b0000, 4)), Logic::Zero);
        // Otherwise unknown.
        assert_eq!(a.logic_eq(&v(0b0001, 4)), Logic::X);
    }

    #[test]
    fn case_equality_is_exact() {
        let a = LogicVec::unknown(2);
        assert_eq!(a.case_eq(&LogicVec::unknown(2)), Logic::One);
        assert_eq!(a.case_eq(&LogicVec::high_z(2)), Logic::Zero);
        assert_eq!(v(2, 2).case_neq(&v(2, 2)), Logic::Zero);
    }

    #[test]
    fn relational() {
        assert_eq!(v(2, 4).lt(&v(3, 4)), Logic::One);
        assert_eq!(v(3, 4).lt(&v(3, 4)), Logic::Zero);
        assert_eq!(v(3, 4).le(&v(3, 4)), Logic::One);
        assert_eq!(v(4, 4).gt(&v(3, 4)), Logic::One);
        assert_eq!(v(4, 4).ge(&v(5, 4)), Logic::Zero);
        assert_eq!(LogicVec::unknown(4).lt(&v(3, 4)), Logic::X);
    }

    #[test]
    fn logical_ops() {
        assert_eq!(v(2, 4).logical_and(&v(1, 4)), Logic::One);
        assert_eq!(v(0, 4).logical_and(&LogicVec::unknown(4)), Logic::Zero);
        assert_eq!(v(1, 4).logical_or(&LogicVec::unknown(4)), Logic::One);
        assert_eq!(v(0, 4).logical_not(), Logic::One);
        assert_eq!(LogicVec::unknown(4).logical_not(), Logic::X);
    }

    #[test]
    fn shifts_keep_width() {
        assert_eq!(v(0b0011, 4).shl(&v(2, 4)).to_u64(), Some(0b1100));
        assert_eq!(v(0b0011, 4).shl(&v(4, 4)).to_u64(), Some(0));
        assert_eq!(v(0b1100, 4).shr(&v(2, 4)).to_u64(), Some(0b0011));
        assert!(v(1, 4).shl(&LogicVec::unknown(2)).has_unknown());
    }

    #[test]
    fn select_merges_on_unknown_condition() {
        let t = v(0b1100, 4);
        let e = v(0b1010, 4);
        assert_eq!(v(1, 1).select(&t, &e), t);
        assert_eq!(v(0, 1).select(&t, &e), e);
        let m = LogicVec::unknown(1).select(&t, &e);
        assert_eq!(m.to_string(), "4'b1xx0");
    }

    #[test]
    fn case_matching_variants() {
        let subject = v(0b10, 2);
        assert!(subject.case_match(&v(0b10, 2)));
        assert!(!subject.case_match(&LogicVec::unknown(2)));
        // casez: z is a wildcard.
        let mut pat = v(0b10, 2);
        pat.set_bit(0, Logic::Z);
        assert!(subject.casez_match(&pat));
        assert!(v(0b11, 2).casez_match(&pat));
        assert!(!v(0b01, 2).casez_match(&pat));
        // casex: x is also a wildcard.
        let mut patx = v(0b10, 2);
        patx.set_bit(0, Logic::X);
        assert!(!subject.casez_match(&patx) || subject.bit(0) == Logic::Zero);
        assert!(subject.casex_match(&patx));
    }

    // -- regressions for 4-state bugs flushed out by the differential
    //    sweep (satellite: the old per-bit backend got these wrong) ---

    #[test]
    fn known_shift_amount_wider_than_u64_shifts_everything_out() {
        // The old backend routed the amount through `to_u64()` and
        // treated `None` (a fully-known 1 above bit 63) as unknown,
        // yielding all-x; a known huge amount must yield all-0.
        let mut amount = LogicVec::zero(70);
        amount.set_bit(69, Logic::One);
        assert!(amount.is_fully_known());
        assert_eq!(v(0b1011, 4).shl(&amount).to_u64(), Some(0));
        assert_eq!(v(0b1011, 4).shr(&amount).to_u64(), Some(0));
    }

    #[test]
    fn arithmetic_works_beyond_128_bits() {
        // The old backend computed add/sub/neg via `to_u128()` and
        // yielded all-x for any fully-known operand with a 1 above bit
        // 127. Multiword ripple-carry has no such limit.
        let mut a = LogicVec::zero(200);
        a.set_bit(199, Logic::One); // 2^199
        let one = LogicVec::from_u64(1, 200);
        let sum = a.add(&one);
        assert_eq!(sum.bit(199), Logic::One);
        assert_eq!(sum.bit(0), Logic::One);
        assert!(sum.is_fully_known());
        assert_eq!(sum.sub(&one), a);
        // -(2^199) at width 200 is 2^199 (two's complement fixpoint).
        assert_eq!(a.neg(), a);
    }

    #[test]
    fn comparison_works_beyond_128_bits() {
        // Same `to_u128()` failure: fully-known >128-bit compares
        // returned x instead of deciding.
        let mut big = LogicVec::zero(200);
        big.set_bit(199, Logic::One);
        let small = LogicVec::from_u64(7, 200);
        assert_eq!(small.lt(&big), Logic::One);
        assert_eq!(big.lt(&small), Logic::Zero);
        assert_eq!(big.ge(&small), Logic::One);
        assert_eq!(big.le(&big), Logic::One);
    }
}
