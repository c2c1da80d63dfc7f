//! Differential tests: the word-packed operators must agree with the
//! per-bit reference algorithms on every input.
//!
//! Each operator is exercised on ≥ 10,000 seeded random vector pairs,
//! swept across x/z densities of 0%, 25% and 50% and widths from 1 to
//! 256 bits (so multiword and >128-bit paths are always hit). The
//! reference implementations live in test support (`reference/mod.rs`)
//! and are called directly; the packed methods are the library's only
//! implementation.

mod reference;

use cirfix_logic::{Logic, LogicVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 3 densities × this ⇒ > 10k pairs per operator.
const CASES_PER_DENSITY: usize = 3400;
const DENSITIES: [u32; 3] = [0, 25, 50];

fn arb_width(rng: &mut StdRng) -> usize {
    // Bias toward narrow vectors but always revisit the multiword and
    // beyond-u128 ranges.
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(1usize..=16),
        1 => rng.gen_range(1usize..=64),
        2 => rng.gen_range(65usize..=128),
        _ => rng.gen_range(129usize..=256),
    }
}

/// A vector whose bits are x/z with probability `density` percent.
fn arb_vec(rng: &mut StdRng, width: usize, density: u32) -> LogicVec {
    let bits = (0..width)
        .map(|_| {
            if rng.gen_range(0u32..100) < density {
                if rng.gen() {
                    Logic::X
                } else {
                    Logic::Z
                }
            } else if rng.gen() {
                Logic::One
            } else {
                Logic::Zero
            }
        })
        .collect();
    LogicVec::from_bits_lsb(bits)
}

/// Runs `check(rng, density)` across the full density sweep.
fn sweep(seed: u64, mut check: impl FnMut(&mut StdRng, u32)) {
    for density in DENSITIES {
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(density) << 32);
        for _ in 0..CASES_PER_DENSITY {
            check(&mut rng, density);
        }
    }
}

macro_rules! binary_vec_op {
    ($name:ident, $method:ident, $seed:expr) => {
        #[test]
        fn $name() {
            sweep($seed, |rng, d| {
                let wa = arb_width(rng);
                let wb = arb_width(rng);
                let a = arb_vec(rng, wa, d);
                let b = arb_vec(rng, wb, d);
                assert_eq!(
                    a.$method(&b),
                    reference::$method(&a, &b),
                    "{} diverged on {a} / {b}",
                    stringify!($method)
                );
            });
        }
    };
}

macro_rules! binary_logic_op {
    ($name:ident, $method:ident, $seed:expr) => {
        #[test]
        fn $name() {
            sweep($seed, |rng, d| {
                let wa = arb_width(rng);
                let wb = arb_width(rng);
                let a = arb_vec(rng, wa, d);
                let b = arb_vec(rng, wb, d);
                assert_eq!(
                    a.$method(&b),
                    reference::$method(&a, &b),
                    "{} diverged on {a} / {b}",
                    stringify!($method)
                );
            });
        }
    };
}

macro_rules! unary_op {
    ($name:ident, $method:ident, $seed:expr) => {
        #[test]
        fn $name() {
            sweep($seed, |rng, d| {
                let w = arb_width(rng);
                let a = arb_vec(rng, w, d);
                assert_eq!(
                    a.$method(),
                    reference::$method(&a),
                    "{} diverged on {a}",
                    stringify!($method)
                );
            });
        }
    };
}

binary_vec_op!(diff_add, add, 0x01);
binary_vec_op!(diff_sub, sub, 0x02);
binary_vec_op!(diff_mul, mul, 0x03);
binary_vec_op!(diff_div, div, 0x04);
binary_vec_op!(diff_rem, rem, 0x05);
binary_vec_op!(diff_bit_and, bit_and, 0x06);
binary_vec_op!(diff_bit_or, bit_or, 0x07);
binary_vec_op!(diff_bit_xor, bit_xor, 0x08);
binary_vec_op!(diff_bit_xnor, bit_xnor, 0x09);
binary_vec_op!(diff_merge_ambiguous, merge_ambiguous, 0x0a);

unary_op!(diff_neg, neg, 0x10);
unary_op!(diff_bit_not, bit_not, 0x11);
unary_op!(diff_reduce_and, reduce_and, 0x12);
unary_op!(diff_reduce_or, reduce_or, 0x13);
unary_op!(diff_reduce_xor, reduce_xor, 0x14);
unary_op!(diff_truth, truth, 0x15);
unary_op!(diff_logical_not, logical_not, 0x16);

binary_logic_op!(diff_logic_eq, logic_eq, 0x20);
binary_logic_op!(diff_case_eq, case_eq, 0x21);
binary_logic_op!(diff_lt, lt, 0x22);
binary_logic_op!(diff_le, le, 0x23);
binary_logic_op!(diff_logical_and, logical_and, 0x24);
binary_logic_op!(diff_logical_or, logical_or, 0x25);

#[test]
fn diff_shl_shr() {
    sweep(0x30, |rng, d| {
        let w = arb_width(rng);
        let v = arb_vec(rng, w, d);
        // Bias amounts toward the interesting range [0, 2·width), but
        // also generate wide amounts so the ≥ 2^64 known-amount path
        // (the historical all-x bug) is covered.
        let amount = match rng.gen_range(0u32..4) {
            0..=2 => {
                let n = rng.gen_range(0u64..(2 * v.width() as u64 + 1));
                LogicVec::from_u64(n, 72)
            }
            _ => {
                let aw = rng.gen_range(1usize..=80);
                arb_vec(rng, aw, d)
            }
        };
        assert_eq!(
            v.shl(&amount),
            reference::shl(&v, &amount),
            "shl diverged on {v} << {amount}"
        );
        assert_eq!(
            v.shr(&amount),
            reference::shr(&v, &amount),
            "shr diverged on {v} >> {amount}"
        );
    });
}

#[test]
fn diff_select() {
    sweep(0x31, |rng, d| {
        let cw = rng.gen_range(1usize..=8);
        let cond = arb_vec(rng, cw, d);
        let w = arb_width(rng);
        let t = arb_vec(rng, w, d);
        let e = arb_vec(rng, w, d);
        assert_eq!(
            cond.select(&t, &e),
            reference::select(&cond, &t, &e),
            "select diverged on {cond} ? {t} : {e}"
        );
    });
}

#[test]
fn diff_case_matches() {
    sweep(0x32, |rng, d| {
        let w = arb_width(rng);
        let subject = arb_vec(rng, w, d);
        // Mix same-width and mismatched-width labels.
        let lw = if rng.gen() { w } else { arb_width(rng) };
        let label = arb_vec(rng, lw, d);
        assert_eq!(
            subject.casez_match(&label),
            reference::casez_match(&subject, &label),
            "casez diverged on {subject} vs {label}"
        );
        assert_eq!(
            subject.casex_match(&label),
            reference::casex_match(&subject, &label),
            "casex diverged on {subject} vs {label}"
        );
    });
}

#[test]
fn diff_structural() {
    // slice / concat / replicate: packed plane surgery vs per-bit
    // reconstruction.
    sweep(0x33, |rng, d| {
        let w = arb_width(rng);
        let v = arb_vec(rng, w, d);
        let lsb = rng.gen_range(0usize..v.width() + 8);
        let msb = lsb + rng.gen_range(0usize..72);
        assert_eq!(
            v.slice(msb, lsb),
            reference::slice(&v, msb, lsb),
            "slice diverged on {v}[{msb}:{lsb}]"
        );

        let n_parts = rng.gen_range(1usize..4);
        let parts: Vec<LogicVec> = (0..n_parts)
            .map(|_| {
                let pw = rng.gen_range(1usize..=72);
                arb_vec(rng, pw, d)
            })
            .collect();
        assert_eq!(
            LogicVec::concat(&parts),
            reference::concat(&parts),
            "concat diverged"
        );

        let count = rng.gen_range(1usize..5);
        assert_eq!(
            v.replicate(count),
            reference::replicate(&v, count),
            "replicate diverged on {{{count}{{{v}}}}}"
        );
    });
}

#[test]
fn diff_resized() {
    // resized must zero-extend (Verilog unsigned) and truncate exactly
    // like the per-bit view.
    sweep(0x34, |rng, d| {
        let w = arb_width(rng);
        let v = arb_vec(rng, w, d);
        let nw = arb_width(rng);
        let r = v.resized(nw);
        assert_eq!(r.width(), nw);
        for i in 0..nw {
            let expect = if i < v.width() { v.bit(i) } else { Logic::Zero };
            assert_eq!(r.bit(i), expect, "resized diverged on {v} -> {nw} bit {i}");
        }
    });
}
