//! Arbitrary-width four-state bit vectors, stored as two packed planes.
//!
//! Each bit is encoded across two parallel `u64` bit-planes — the
//! *aval* plane `a` and the *bval* plane `b` — using the encoding that
//! commercial simulators (and the VPI `s_vpi_vecval` ABI) use:
//!
//! | value | a | b |
//! |-------|---|---|
//! | `0`   | 0 | 0 |
//! | `1`   | 1 | 0 |
//! | `z`   | 0 | 1 |
//! | `x`   | 1 | 1 |
//!
//! `b` is therefore an "unknown" mask (`b = 1` ⟺ the bit is `x` or
//! `z`), and for known bits `a` is the ordinary binary value — so
//! bitwise, arithmetic, compare, shift and reduction operators become a
//! handful of word operations instead of per-bit loops. Vectors of 64
//! bits or fewer (the overwhelmingly common case) store both planes
//! inline with no heap allocation.
//!
//! Invariants: plane bits at positions `>= width` are always zero (so
//! the derived `PartialEq`/`Hash` are canonical), and the inline
//! representation is used exactly when `width <= 64`.

use std::fmt;

use crate::bit::{Logic, Truth};

/// An arbitrary-width vector of four-state logic values.
///
/// Bit 0 is the least significant bit. The width is fixed at construction;
/// operations that produce a different width say so in their documentation.
/// A freshly declared Verilog `reg` is all-`x`; use [`LogicVec::unknown`]
/// for that, [`LogicVec::zero`] for an all-zero value.
///
/// # Examples
///
/// ```
/// use cirfix_logic::LogicVec;
/// let v = LogicVec::from_u64(0b1100, 4);
/// assert_eq!(v.to_string(), "4'b1100");
/// assert_eq!(v.to_u64(), Some(12));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: usize,
    planes: Planes,
}

/// The two bit-planes: inline words for `width <= 64`, heap vectors
/// (of exactly `words_for(width)` elements) beyond that.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Planes {
    One { a: u64, b: u64 },
    Many { a: Vec<u64>, b: Vec<u64> },
}

/// Number of 64-bit words needed for `width` bits.
#[inline]
pub(crate) fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Mask selecting the valid bits of the top word of a `width`-bit vector.
#[inline]
pub(crate) fn top_mask(width: usize) -> u64 {
    match width % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

impl LogicVec {
    // ---- construction ---------------------------------------------------

    /// Builds a vector `width <= 64` from raw planes (masked to width).
    #[inline]
    pub(crate) fn from_word(width: usize, a: u64, b: u64) -> LogicVec {
        debug_assert!(width > 0 && width <= 64);
        let m = top_mask(width);
        LogicVec {
            width,
            planes: Planes::One { a: a & m, b: b & m },
        }
    }

    /// Builds a vector from raw plane words (LSB word first). Collapses
    /// to the inline representation when `width <= 64` and masks the
    /// top word.
    pub(crate) fn from_words(width: usize, mut a: Vec<u64>, mut b: Vec<u64>) -> LogicVec {
        assert!(width > 0, "zero-width LogicVec");
        let n = words_for(width);
        debug_assert_eq!(a.len(), n);
        debug_assert_eq!(b.len(), n);
        if width <= 64 {
            return LogicVec::from_word(width, a[0], b[0]);
        }
        let m = top_mask(width);
        a[n - 1] &= m;
        b[n - 1] &= m;
        LogicVec {
            width,
            planes: Planes::Many { a, b },
        }
    }

    /// Builds a `width`-bit vector whose planes are produced word by
    /// word by `f(word_index) -> (a, b)`; the top word is masked.
    #[inline]
    pub(crate) fn build(width: usize, f: impl FnMut(usize) -> (u64, u64)) -> LogicVec {
        assert!(width > 0, "zero-width LogicVec");
        let mut f = f;
        if width <= 64 {
            let (a, b) = f(0);
            return LogicVec::from_word(width, a, b);
        }
        let n = words_for(width);
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for i in 0..n {
            let (wa, wb) = f(i);
            a.push(wa);
            b.push(wb);
        }
        LogicVec::from_words(width, a, b)
    }

    /// Creates a vector of `width` copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`; zero-width vectors are not representable in
    /// Verilog.
    pub fn filled(width: usize, value: Logic) -> LogicVec {
        let (pa, pb) = plane_pattern(value);
        LogicVec::build(width, |_| (pa, pb))
    }

    /// All-`x` vector: the value of an uninitialized register.
    pub fn unknown(width: usize) -> LogicVec {
        LogicVec::filled(width, Logic::X)
    }

    /// All-`z` vector: the value of an undriven net.
    pub fn high_z(width: usize) -> LogicVec {
        LogicVec::filled(width, Logic::Z)
    }

    /// All-zero vector.
    pub fn zero(width: usize) -> LogicVec {
        LogicVec::filled(width, Logic::Zero)
    }

    /// All-one vector.
    pub fn ones(width: usize) -> LogicVec {
        LogicVec::filled(width, Logic::One)
    }

    /// Builds a vector from the low `width` bits of `value`.
    pub fn from_u64(value: u64, width: usize) -> LogicVec {
        LogicVec::build(width, |i| (if i == 0 { value } else { 0 }, 0))
    }

    /// Builds a vector from the low `width` bits of `value`.
    pub fn from_u128(value: u128, width: usize) -> LogicVec {
        LogicVec::build(width, |i| match i {
            0 => (value as u64, 0),
            1 => ((value >> 64) as u64, 0),
            _ => (0, 0),
        })
    }

    /// A single-bit vector.
    pub fn scalar(value: Logic) -> LogicVec {
        let (a, b) = plane_pattern(value);
        LogicVec::from_word(1, a, b)
    }

    /// A single-bit `0`/`1` from a boolean.
    pub fn from_bool(b: bool) -> LogicVec {
        LogicVec::scalar(Logic::from_bool(b))
    }

    /// Builds a vector from LSB-first bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits_lsb(bits: Vec<Logic>) -> LogicVec {
        assert!(!bits.is_empty(), "zero-width LogicVec");
        let mut v = LogicVec::zero(bits.len());
        for (i, bit) in bits.into_iter().enumerate() {
            v.set_bit(i, bit);
        }
        v
    }

    // ---- plane access ---------------------------------------------------

    /// The two planes as word slices (`a`, `b`), LSB word first.
    #[inline]
    pub(crate) fn planes(&self) -> (&[u64], &[u64]) {
        match &self.planes {
            Planes::One { a, b } => (std::slice::from_ref(a), std::slice::from_ref(b)),
            Planes::Many { a, b } => (a, b),
        }
    }

    #[inline]
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.planes {
            Planes::One { a, b } => (std::slice::from_mut(a), std::slice::from_mut(b)),
            Planes::Many { a, b } => (a, b),
        }
    }

    /// Word `i` of both planes, zero beyond the vector's top word
    /// (matching Verilog's zero extension).
    #[inline]
    pub(crate) fn word(&self, i: usize) -> (u64, u64) {
        match &self.planes {
            Planes::One { a, b } => {
                if i == 0 {
                    (*a, *b)
                } else {
                    (0, 0)
                }
            }
            Planes::Many { a, b } => (
                a.get(i).copied().unwrap_or(0),
                b.get(i).copied().unwrap_or(0),
            ),
        }
    }

    /// Word `i` of both planes where bits at positions `>= width` read
    /// as `x` (the `(1,1)` pattern) — out-of-range *bit-select* reads.
    #[inline]
    pub(crate) fn word_ext_x(&self, i: usize) -> (u64, u64) {
        let n = words_for(self.width);
        if i + 1 > n {
            return (u64::MAX, u64::MAX);
        }
        let (a, b) = self.word(i);
        if i == n - 1 {
            let pad = !top_mask(self.width);
            (a | pad, b | pad)
        } else {
            (a, b)
        }
    }

    // ---- basic queries --------------------------------------------------

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bit at index `i` (LSB = 0). Out-of-range reads yield `x`,
    /// matching Verilog's out-of-bounds bit-select semantics.
    #[inline]
    pub fn bit(&self, i: usize) -> Logic {
        if i >= self.width {
            return Logic::X;
        }
        let (a, b) = self.word(i / 64);
        let s = i % 64;
        logic_from_planes((a >> s) & 1 == 1, (b >> s) & 1 == 1)
    }

    /// Sets the bit at index `i`; out-of-range writes are ignored
    /// (Verilog discards out-of-bounds part-select writes).
    #[inline]
    pub fn set_bit(&mut self, i: usize, value: Logic) {
        if i >= self.width {
            return;
        }
        let (pa, pb) = plane_pattern(value);
        let (w, s) = (i / 64, i % 64);
        let (a, b) = self.planes_mut();
        a[w] = (a[w] & !(1 << s)) | ((pa & 1) << s);
        b[w] = (b[w] & !(1 << s)) | ((pb & 1) << s);
    }

    /// LSB-first copy of the bits. (With the packed representation this
    /// materializes a fresh `Vec`; prefer [`LogicVec::bit`] or the word
    /// operators on hot paths.)
    pub fn bits_lsb(&self) -> Vec<Logic> {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    /// `true` if any bit is `x` or `z`.
    #[inline]
    pub fn has_unknown(&self) -> bool {
        let (_, b) = self.planes();
        b.iter().any(|w| *w != 0)
    }

    /// `true` if every bit is `0` or `1`.
    #[inline]
    pub fn is_fully_known(&self) -> bool {
        !self.has_unknown()
    }

    /// The numeric value, if fully known and represented in 64 bits.
    /// Wider vectors still convert when their upper bits are all zero.
    pub fn to_u64(&self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        let (a, _) = self.planes();
        if a[1..].iter().any(|w| *w != 0) {
            return None;
        }
        Some(a[0])
    }

    /// The numeric value, if fully known and represented in 128 bits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.has_unknown() {
            return None;
        }
        let (a, _) = self.planes();
        if a.len() > 2 && a[2..].iter().any(|w| *w != 0) {
            return None;
        }
        let hi = a.get(1).copied().unwrap_or(0);
        Some(u128::from(a[0]) | (u128::from(hi) << 64))
    }

    /// Three-valued truthiness: `True` if any bit is a definite `1`,
    /// `False` if all bits are definite `0`, else `Unknown`.
    pub fn truth(&self) -> Truth {
        let (a, b) = self.planes();
        let mut any_unknown = false;
        for (wa, wb) in a.iter().zip(b) {
            if wa & !wb != 0 {
                return Truth::True;
            }
            any_unknown |= *wb != 0;
        }
        if any_unknown {
            Truth::Unknown
        } else {
            Truth::False
        }
    }

    // ---- resizing / assembly --------------------------------------------

    /// Returns a copy resized to `width`: truncated from the MSB side or
    /// zero-extended (Verilog's unsigned assignment semantics).
    pub fn resized(&self, width: usize) -> LogicVec {
        if width == self.width {
            return self.clone();
        }
        LogicVec::build(width, |i| self.word(i))
    }

    /// Returns a copy resized to `width`, extending with `fill` (used when
    /// extending literals whose leading digit is `x` or `z`).
    pub fn resized_with(&self, width: usize, fill: Logic) -> LogicVec {
        if width <= self.width {
            return self.resized(width);
        }
        let (fa, fb) = plane_pattern(fill);
        let old = self.width;
        LogicVec::build(width, |i| {
            let (a, b) = self.word(i);
            // Mask of bits in this word at positions >= old width.
            let lo = i * 64;
            let ext = if lo >= old {
                u64::MAX
            } else if lo + 64 <= old {
                0
            } else {
                !top_mask(old)
            };
            (a | (fa & ext), b | (fb & ext))
        })
    }

    /// Concatenates `parts`, where the **first** element supplies the most
    /// significant bits, matching Verilog `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat(parts: &[LogicVec]) -> LogicVec {
        assert!(!parts.is_empty(), "empty concatenation");
        let total: usize = parts.iter().map(LogicVec::width).sum();
        let n = words_for(total);
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        let mut offset = 0;
        for part in parts.iter().rev() {
            let (pa, pb) = part.planes();
            blit(&mut a, offset, part.width, pa);
            blit(&mut b, offset, part.width, pb);
            offset += part.width;
        }
        LogicVec::from_words(total, a, b)
    }

    /// Replicates this vector `count` times, as in Verilog `{count{v}}`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn replicate(&self, count: usize) -> LogicVec {
        assert!(count > 0, "zero replication count");
        let total = self.width * count;
        let n = words_for(total);
        let mut a = vec![0u64; n];
        let mut b = vec![0u64; n];
        let (pa, pb) = self.planes();
        for k in 0..count {
            blit(&mut a, k * self.width, self.width, pa);
            blit(&mut b, k * self.width, self.width, pb);
        }
        LogicVec::from_words(total, a, b)
    }

    /// Part select `[msb:lsb]` over *bit indices* (LSB = 0). Out-of-range
    /// bits read as `x`.
    ///
    /// # Panics
    ///
    /// Panics if `msb < lsb`.
    pub fn slice(&self, msb: usize, lsb: usize) -> LogicVec {
        assert!(msb >= lsb, "slice msb < lsb");
        let width = msb - lsb + 1;
        let base = lsb / 64;
        let s = lsb % 64;
        LogicVec::build(width, |i| {
            let (a0, b0) = self.word_ext_x(base + i);
            if s == 0 {
                (a0, b0)
            } else {
                let (a1, b1) = self.word_ext_x(base + i + 1);
                ((a0 >> s) | (a1 << (64 - s)), (b0 >> s) | (b1 << (64 - s)))
            }
        })
    }

    /// Writes `value` into bit positions `[msb:lsb]`; extra source bits are
    /// truncated, missing ones zero-filled, out-of-range targets discarded.
    pub fn write_slice(&mut self, msb: usize, lsb: usize, value: &LogicVec) {
        assert!(msb >= lsb, "slice msb < lsb");
        if lsb >= self.width {
            return;
        }
        let src = value.resized(msb - lsb + 1);
        // Clip the destination range to this vector's width.
        let count = (msb.min(self.width - 1)) - lsb + 1;
        let (sa, sb) = src.planes();
        let (a, b) = match &mut self.planes {
            Planes::One { a, b } => (std::slice::from_mut(a), std::slice::from_mut(b)),
            Planes::Many { a, b } => (&mut a[..], &mut b[..]),
        };
        store(a, lsb, count, sa);
        store(b, lsb, count, sb);
    }

    /// Counts definite `1` bits.
    pub fn count_ones(&self) -> usize {
        let (a, b) = self.planes();
        a.iter()
            .zip(b)
            .map(|(wa, wb)| (wa & !wb).count_ones() as usize)
            .sum()
    }

    /// Bitwise merge used for `cond ? a : b` when `cond` is unknown: bits on
    /// which the branches agree are kept, others become `x` (IEEE 1364
    /// §5.1.13).
    pub fn merge_ambiguous(&self, other: &LogicVec) -> LogicVec {
        let width = self.width.max(other.width);
        LogicVec::build(width, |i| {
            let (a1, b1) = self.word(i);
            let (a2, b2) = other.word(i);
            // Bits where both operands hold the same *known* value.
            let keep = !((a1 ^ a2) | (b1 ^ b2)) & !b1;
            ((a1 & keep) | !keep, !keep)
        })
    }
}

/// The plane pattern (all-bits `a`, all-bits `b`) for one logic value.
#[inline]
pub(crate) fn plane_pattern(value: Logic) -> (u64, u64) {
    match value {
        Logic::Zero => (0, 0),
        Logic::One => (u64::MAX, 0),
        Logic::Z => (0, u64::MAX),
        Logic::X => (u64::MAX, u64::MAX),
    }
}

/// Decodes one bit from its plane pair.
#[inline]
pub(crate) fn logic_from_planes(a: bool, b: bool) -> Logic {
    match (a, b) {
        (false, false) => Logic::Zero,
        (true, false) => Logic::One,
        (false, true) => Logic::Z,
        (true, true) => Logic::X,
    }
}

/// ORs the low `count` bits of `src` (a word slice) into `dst` starting
/// at bit `offset`. The destination bits must currently be zero.
fn blit(dst: &mut [u64], offset: usize, count: usize, src: &[u64]) {
    let s = offset % 64;
    let base = offset / 64;
    let n = words_for(count);
    for (k, word) in src.iter().take(n).enumerate() {
        let m = if count - k * 64 >= 64 {
            u64::MAX
        } else {
            (1u64 << (count - k * 64)) - 1
        };
        let w = word & m;
        dst[base + k] |= w << s;
        if s != 0 && base + k + 1 < dst.len() {
            dst[base + k + 1] |= w >> (64 - s);
        }
    }
}

/// Stores the low `count` bits of `src` into `dst` at bit `offset`,
/// clearing the destination bits first.
fn store(dst: &mut [u64], offset: usize, count: usize, src: &[u64]) {
    let mut done = 0;
    while done < count {
        let i = (offset + done) / 64;
        let s = (offset + done) % 64;
        let take = (64 - s).min(count - done);
        let m = if take == 64 {
            u64::MAX
        } else {
            (1u64 << take) - 1
        };
        // Gather `take` bits of src starting at bit `done`.
        let si = done / 64;
        let ss = done % 64;
        let mut w = src[si] >> ss;
        if ss != 0 && si + 1 < src.len() {
            w |= src[si + 1] << (64 - ss);
        }
        w &= m;
        dst[i] = (dst[i] & !(m << s)) | (w << s);
        done += take;
    }
}

impl fmt::Display for LogicVec {
    /// Formats as a sized binary Verilog literal, e.g. `4'b10x0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i).to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogicVec({self})")
    }
}

impl From<bool> for LogicVec {
    fn from(b: bool) -> LogicVec {
        LogicVec::from_bool(b)
    }
}

impl From<Logic> for LogicVec {
    fn from(l: Logic) -> LogicVec {
        LogicVec::scalar(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let v = LogicVec::from_u64(0b1010, 4);
        assert_eq!(v.width(), 4);
        assert_eq!(v.to_string(), "4'b1010");
        assert_eq!(LogicVec::unknown(2).to_string(), "2'bxx");
        assert_eq!(LogicVec::high_z(1).to_string(), "1'bz");
    }

    #[test]
    fn to_u64_round_trip() {
        for v in [0u64, 1, 5, 255, 1 << 40] {
            assert_eq!(LogicVec::from_u64(v, 64).to_u64(), Some(v));
        }
        assert_eq!(LogicVec::unknown(4).to_u64(), None);
        // Wide but small value still converts.
        let wide = LogicVec::from_u64(7, 100);
        assert_eq!(wide.to_u64(), Some(7));
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::from_u64(0, 4).truth(), Truth::False);
        assert_eq!(LogicVec::from_u64(2, 4).truth(), Truth::True);
        assert_eq!(LogicVec::unknown(4).truth(), Truth::Unknown);
        // A vector with a definite 1 is true even if other bits are x.
        let mut v = LogicVec::unknown(2);
        v.set_bit(1, Logic::One);
        assert_eq!(v.truth(), Truth::True);
    }

    #[test]
    fn resize_truncates_and_extends() {
        let v = LogicVec::from_u64(0b1111, 4);
        assert_eq!(v.resized(2).to_u64(), Some(0b11));
        assert_eq!(v.resized(6).to_u64(), Some(0b1111));
        let x = LogicVec::unknown(2).resized_with(4, Logic::X);
        assert_eq!(x.to_string(), "4'bxxxx");
    }

    #[test]
    fn concat_orders_msb_first() {
        let a = LogicVec::from_u64(0b10, 2);
        let b = LogicVec::from_u64(0b01, 2);
        // {a, b} = 4'b1001
        let c = LogicVec::concat(&[a, b]);
        assert_eq!(c.to_u64(), Some(0b1001));
    }

    #[test]
    fn replicate_repeats() {
        let v = LogicVec::from_u64(0b10, 2);
        assert_eq!(v.replicate(3).to_u64(), Some(0b101010));
    }

    #[test]
    fn slices() {
        let v = LogicVec::from_u64(0b110010, 6);
        assert_eq!(v.slice(5, 2).to_u64(), Some(0b1100));
        assert_eq!(v.slice(1, 0).to_u64(), Some(0b10));
        // Out-of-range reads give x.
        assert_eq!(v.slice(8, 6).to_string(), "3'bxxx");
    }

    #[test]
    fn write_slice_updates_range() {
        let mut v = LogicVec::zero(8);
        v.write_slice(5, 2, &LogicVec::from_u64(0b1111, 4));
        assert_eq!(v.to_u64(), Some(0b00111100));
        // Out-of-range target bits are dropped silently.
        v.write_slice(9, 6, &LogicVec::from_u64(0b1111, 4));
        assert_eq!(v.to_u64(), Some(0b11111100));
    }

    #[test]
    fn merge_ambiguous_keeps_agreement() {
        let a = LogicVec::from_u64(0b1100, 4);
        let b = LogicVec::from_u64(0b1010, 4);
        let m = a.merge_ambiguous(&b);
        assert_eq!(m.to_string(), "4'b1xx0");
    }

    #[test]
    fn out_of_bounds_bit_is_x() {
        let v = LogicVec::from_u64(1, 2);
        assert_eq!(v.bit(5), Logic::X);
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_panics() {
        let _ = LogicVec::zero(0);
    }

    // -- packed-representation specifics ---------------------------------

    #[test]
    fn wide_vectors_round_trip_bits() {
        let mut v = LogicVec::zero(200);
        v.set_bit(0, Logic::One);
        v.set_bit(63, Logic::X);
        v.set_bit(64, Logic::Z);
        v.set_bit(199, Logic::One);
        assert_eq!(v.bit(0), Logic::One);
        assert_eq!(v.bit(63), Logic::X);
        assert_eq!(v.bit(64), Logic::Z);
        assert_eq!(v.bit(199), Logic::One);
        assert_eq!(v.bit(100), Logic::Zero);
        let bits = v.bits_lsb();
        assert_eq!(LogicVec::from_bits_lsb(bits), v);
    }

    #[test]
    fn cross_word_slice_and_write() {
        let mut v = LogicVec::zero(130);
        v.write_slice(70, 58, &LogicVec::from_u64(0b1010101010101, 13));
        assert_eq!(v.slice(70, 58).to_u64(), Some(0b1010101010101));
        // Bits around the range stay zero.
        assert_eq!(v.bit(57), Logic::Zero);
        assert_eq!(v.bit(71), Logic::Zero);
    }

    #[test]
    fn padding_is_canonical_for_eq_and_hash() {
        // Two ways to arrive at the same value must compare equal.
        let a = LogicVec::from_u64(u64::MAX, 64).resized(3);
        let b = LogicVec::from_u64(0b111, 3);
        assert_eq!(a, b);
        let wide = LogicVec::unknown(100).resized(65);
        let mut built = LogicVec::zero(65);
        for i in 0..65 {
            built.set_bit(i, Logic::X);
        }
        assert_eq!(wide, built);
    }

    #[test]
    fn display_matches_per_bit_rendering() {
        let mut v = LogicVec::from_u64(0b01, 4);
        v.set_bit(2, Logic::Z);
        v.set_bit(3, Logic::X);
        assert_eq!(v.to_string(), "4'bxz01");
    }
}
