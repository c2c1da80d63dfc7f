//! The CirFix fitness function (§3.2 of the paper).
//!
//! Given a simulation result `S : Time → Var → {0,1,x,z}ⁿ` and expected
//! output `O` of the same shape, every bit of every recorded variable at
//! every timestamp contributes to a weighted sum:
//!
//! * matching known bits add `1`;
//! * matching `x`/`z` bits add `φ`;
//! * mismatched known bits subtract `1`;
//! * any mismatch involving `x` or `z` subtracts `φ`.
//!
//! The normalized fitness is `max(0, sum) / total`, where `total` uses the
//! same weights with all contributions positive. A fitness of `1.0` means
//! the candidate is *plausible*: its visible behaviour is
//! indistinguishable from the expected behaviour.

use std::collections::BTreeSet;

use cirfix_logic::Logic;
use cirfix_sim::Trace;

/// Weighting parameters for the fitness function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessParams {
    /// The extra penalty/reward weight `φ` for bits involving `x`/`z`.
    /// The paper uses `φ = 2` (§4.2).
    pub phi: f64,
}

impl Default for FitnessParams {
    fn default() -> FitnessParams {
        FitnessParams { phi: 2.0 }
    }
}

/// The outcome of one fitness evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct FitnessReport {
    /// The weighted sum (can be negative before clamping).
    pub sum: f64,
    /// The maximum possible weighted sum for the compared cells.
    pub total: f64,
    /// Normalized fitness in `[0, 1]`.
    pub score: f64,
    /// Variables with at least one mismatched bit — the seed of the
    /// fault-localization mismatch set (Alg. 2, line 2).
    pub mismatched_vars: BTreeSet<String>,
    /// Number of bit comparisons performed.
    pub bits_compared: u64,
    /// Number of matching bits.
    pub bits_matched: u64,
}

impl FitnessReport {
    /// `true` when the candidate matches expected behaviour exactly
    /// (a *plausible* repair in the paper's terminology).
    pub fn is_plausible(&self) -> bool {
        self.score >= 1.0
    }
}

/// Summary statistics over a population's fitness scores, for telemetry:
/// `(best, median, mean, distinct-value count)`. Distinct values are
/// counted up to 1e-9 — a diversity proxy for the search (many candidates
/// collapsing onto few scores means a flat fitness landscape).
pub fn population_stats(scores: &[f64]) -> (f64, f64, f64, u64) {
    if scores.is_empty() {
        return (0.0, 0.0, 0.0, 0);
    }
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let best = *sorted.last().expect("non-empty");
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let mut distinct: u64 = 1;
    for w in sorted.windows(2) {
        if (w[1] - w[0]).abs() > 1e-9 {
            distinct += 1;
        }
    }
    (best, median, mean, distinct)
}

/// A fitness report representing a candidate that failed to compile or
/// crashed the simulator: score 0, everything mismatched.
pub fn failure_report(oracle: &Trace) -> FitnessReport {
    FitnessReport {
        sum: 0.0,
        total: 1.0,
        score: 0.0,
        mismatched_vars: oracle.vars().iter().cloned().collect(),
        bits_compared: 0,
        bits_matched: 0,
    }
}

fn bit_weights(expected: Logic, actual: Logic, phi: f64) -> (f64, f64) {
    let either_unknown = expected.is_unknown() || actual.is_unknown();
    let matches = expected == actual;
    match (matches, either_unknown) {
        (true, false) => (1.0, 1.0),
        (true, true) => (phi, phi),
        (false, false) => (-1.0, 1.0),
        (false, true) => (-phi, phi),
    }
}

/// Computes the CirFix fitness of simulation output `sim` against
/// expected output `oracle`.
///
/// Only cells present in the oracle are compared (the developer may
/// provide partial expected behaviour — §5.4). A timestamp recorded in
/// the oracle but absent from the simulation (e.g. the mutant stalled the
/// testbench) is compared as all-`x`, earning the `φ` mismatch penalty;
/// so is an oracle variable the simulation did not record.
///
/// One pass walks both traces' rows in time order, with each oracle
/// variable's column in `sim` resolved once. Cells are compared row by
/// row, in oracle column order, bit by bit from the LSB: the order the
/// weighted sum accumulates in.
pub fn fitness(sim: &Trace, oracle: &Trace, params: FitnessParams) -> FitnessReport {
    let phi = params.phi;
    let mut sum = 0.0;
    let mut total = 0.0;
    let mut bits_compared = 0;
    let mut bits_matched = 0;
    let columns: Vec<Option<usize>> = oracle
        .vars()
        .iter()
        .map(|var| sim.vars().iter().position(|v| v == var))
        .collect();
    let mut mismatched = vec![false; columns.len()];

    let mut sim_rows = sim.rows().peekable();
    for (time, expected_row) in oracle.rows() {
        while sim_rows.next_if(|&(t, _)| t < time).is_some() {}
        let actual_row = sim_rows.next_if(|&(t, _)| t == time).map(|(_, row)| row);
        let cells = expected_row.iter().zip(&columns).zip(&mut mismatched);
        for ((expected, column), var_mismatch) in cells {
            // A missing cell reads as all-`x` at the expected width.
            let actual = actual_row.zip(*column).map(|(row, c)| &row[c]);
            let width = actual.map_or(expected.width(), |a| a.width().max(expected.width()));
            for b in 0..width {
                let e = if b < expected.width() {
                    expected.bit(b)
                } else {
                    Logic::Zero
                };
                let a = match actual {
                    None => Logic::X,
                    Some(a) if b < a.width() => a.bit(b),
                    Some(_) => Logic::Zero,
                };
                let (s, t) = bit_weights(e, a, phi);
                sum += s;
                total += t;
                bits_compared += 1;
                if e == a {
                    bits_matched += 1;
                } else {
                    *var_mismatch = true;
                }
            }
        }
    }
    let mismatched_vars = oracle
        .vars()
        .iter()
        .zip(&mismatched)
        .filter(|&(_, &m)| m)
        .map(|(var, _)| var.clone())
        .collect();

    let score = if total <= 0.0 {
        // An empty oracle cannot distinguish candidates.
        1.0
    } else if sum < 0.0 {
        0.0
    } else {
        sum / total
    };
    FitnessReport {
        sum,
        total,
        score,
        mismatched_vars,
        bits_compared,
        bits_matched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_logic::LogicVec;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The per-cell algorithm `fitness` replaced, kept as its oracle:
    /// every oracle cell looked up in `sim` by time and name.
    fn fitness_per_cell(sim: &Trace, oracle: &Trace, params: FitnessParams) -> FitnessReport {
        let phi = params.phi;
        let mut sum = 0.0;
        let mut total = 0.0;
        let mut mismatched_vars = BTreeSet::new();
        let mut bits_compared = 0;
        let mut bits_matched = 0;
        for (time, var, expected) in oracle.cells() {
            let missing = LogicVec::unknown(expected.width());
            let actual = sim.get(time, var).unwrap_or(&missing);
            let width = expected.width().max(actual.width());
            let mut var_mismatch = false;
            for b in 0..width {
                let e = if b < expected.width() {
                    expected.bit(b)
                } else {
                    Logic::Zero
                };
                let a = if b < actual.width() {
                    actual.bit(b)
                } else {
                    Logic::Zero
                };
                let (s, t) = bit_weights(e, a, phi);
                sum += s;
                total += t;
                bits_compared += 1;
                if e == a {
                    bits_matched += 1;
                } else {
                    var_mismatch = true;
                }
            }
            if var_mismatch {
                mismatched_vars.insert(var.to_string());
            }
        }
        let score = if total <= 0.0 {
            1.0
        } else if sum < 0.0 {
            0.0
        } else {
            sum / total
        };
        FitnessReport {
            sum,
            total,
            score,
            mismatched_vars,
            bits_compared,
            bits_matched,
        }
    }

    /// A random value, mostly near `like` so that many cells match.
    fn value(rng: &mut StdRng, like: Option<&LogicVec>) -> LogicVec {
        const BITS: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
        let width = match like {
            Some(v) if rng.gen_bool(0.9) => v.width(),
            _ => rng.gen_range(1..=9usize),
        };
        let bits = (0..width)
            .map(|b| match like {
                Some(v) if b < v.width() && rng.gen_bool(0.8) => v.bit(b),
                _ => BITS[rng.gen_range(0..4usize)],
            })
            .collect();
        LogicVec::from_bits_lsb(bits)
    }

    #[test]
    fn one_pass_fitness_matches_the_per_cell_algorithm() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..400 {
            let n = rng.gen_range(0..5usize);
            let vars: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
            let mut oracle = Trace::new(vars.clone());
            let times: Vec<u64> = (0..rng.gen_range(0..12u64))
                .map(|i| i * 10 + rng.gen_range(0..3u64))
                .collect();
            for &t in &times {
                oracle.record(t, (0..n).map(|_| value(&mut rng, None)).collect());
            }
            // The simulation records the oracle's variables in another
            // order, sometimes without one of them and with an extra one.
            let mut sim_vars = vars.clone();
            sim_vars.shuffle(&mut rng);
            if n > 0 && rng.gen_bool(0.3) {
                sim_vars.remove(rng.gen_range(0..n));
            }
            if rng.gen_bool(0.3) {
                let at = rng.gen_range(0..=sim_vars.len());
                sim_vars.insert(at, "extra".into());
            }
            let mut sim = Trace::new(sim_vars.clone());
            // Missing rows, and extra rows between and after them.
            let mut sim_times: Vec<u64> = times
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.8))
                .collect();
            sim_times.extend((0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..130u64)));
            for t in sim_times {
                let row = sim_vars
                    .iter()
                    .map(|v| {
                        let expected = vars
                            .iter()
                            .position(|o| o == v)
                            .and_then(|c| oracle.row(t).map(|row| &row[c]));
                        value(&mut rng, expected)
                    })
                    .collect();
                sim.record(t, row);
            }
            for phi in [2.0, 1.0, 0.5] {
                let params = FitnessParams { phi };
                let got = fitness(&sim, &oracle, params);
                let want = fitness_per_cell(&sim, &oracle, params);
                assert_eq!(got.sum.to_bits(), want.sum.to_bits(), "case {case}");
                assert_eq!(got.total.to_bits(), want.total.to_bits(), "case {case}");
                assert_eq!(got.score.to_bits(), want.score.to_bits(), "case {case}");
                assert_eq!(got.mismatched_vars, want.mismatched_vars, "case {case}");
                assert_eq!(got.bits_compared, want.bits_compared, "case {case}");
                assert_eq!(got.bits_matched, want.bits_matched, "case {case}");
            }
        }
    }

    fn trace_of(var: &str, rows: &[(u64, LogicVec)]) -> Trace {
        let mut t = Trace::new(vec![var.to_string()]);
        for (time, v) in rows {
            t.record(*time, vec![v.clone()]);
        }
        t
    }

    #[test]
    fn perfect_match_scores_one() {
        let o = trace_of(
            "q",
            &[
                (10, LogicVec::from_u64(3, 4)),
                (20, LogicVec::from_u64(4, 4)),
            ],
        );
        let r = fitness(&o, &o, FitnessParams::default());
        assert_eq!(r.score, 1.0);
        assert!(r.is_plausible());
        assert!(r.mismatched_vars.is_empty());
        assert_eq!(r.bits_compared, 8);
        assert_eq!(r.bits_matched, 8);
    }

    #[test]
    fn matching_x_bits_earn_phi() {
        let o = trace_of("q", &[(10, LogicVec::unknown(2))]);
        let r = fitness(&o, &o, FitnessParams { phi: 2.0 });
        assert_eq!(r.sum, 4.0);
        assert_eq!(r.total, 4.0);
        assert_eq!(r.score, 1.0);
    }

    #[test]
    fn known_mismatch_subtracts_one() {
        let o = trace_of("q", &[(10, LogicVec::from_u64(0b11, 2))]);
        let s = trace_of("q", &[(10, LogicVec::from_u64(0b10, 2))]);
        let r = fitness(&s, &o, FitnessParams::default());
        // bit0 mismatches (-1), bit1 matches (+1) → sum 0, total 2.
        assert_eq!(r.sum, 0.0);
        assert_eq!(r.total, 2.0);
        assert_eq!(r.score, 0.0);
        assert!(r.mismatched_vars.contains("q"));
    }

    #[test]
    fn x_mismatch_subtracts_phi() {
        let o = trace_of("q", &[(10, LogicVec::from_u64(0, 1))]);
        let s = trace_of("q", &[(10, LogicVec::unknown(1))]);
        let r = fitness(&s, &o, FitnessParams { phi: 2.0 });
        assert_eq!(r.sum, -2.0);
        assert_eq!(r.total, 2.0);
        assert_eq!(r.score, 0.0, "negative sums clamp to 0");
    }

    #[test]
    fn motivating_example_score() {
        // The paper's 4-bit counter: 26 cycles; overflow_out mismatches
        // (x vs 0) for 17 cycles, matches for the rest. With the
        // counter_out bits all matching, the fitness lands near 0.58.
        // We reproduce the arithmetic shape: 4 matching bits per cycle
        // for counter_out over 26 cycles, 1-bit overflow_out matching in
        // 9 cycles (1 of them as x/x in the first probed cycle would be
        // a match; here keep it simple: 9 known matches) and mismatching
        // x-vs-0 in 17.
        let phi: f64 = 2.0;
        let sum: f64 = 26.0 * 4.0 + 9.0 - 17.0 * phi;
        let total: f64 = 26.0 * 4.0 + 9.0 + 17.0 * phi;
        let expected = sum / total;
        assert!((expected - 0.58).abs() < 0.05, "shape check: {expected}");
    }

    #[test]
    fn missing_simulation_rows_count_as_x() {
        let o = trace_of("q", &[(10, LogicVec::from_u64(1, 1))]);
        let s = Trace::new(vec!["q".to_string()]);
        let r = fitness(&s, &o, FitnessParams::default());
        assert_eq!(r.score, 0.0);
        assert!(r.mismatched_vars.contains("q"));
    }

    #[test]
    fn partial_oracle_compares_partially() {
        let mut o = Trace::new(vec!["q".to_string()]);
        o.record(10, vec![LogicVec::from_u64(1, 1)]);
        let mut s = Trace::new(vec!["q".to_string()]);
        s.record(10, vec![LogicVec::from_u64(1, 1)]);
        s.record(20, vec![LogicVec::from_u64(0, 1)]); // extra row ignored
        let r = fitness(&s, &o, FitnessParams::default());
        assert_eq!(r.score, 1.0);
        assert_eq!(r.bits_compared, 1);
    }

    #[test]
    fn empty_oracle_scores_one() {
        let o = Trace::new(vec![]);
        let s = Trace::new(vec![]);
        let r = fitness(&s, &o, FitnessParams::default());
        assert_eq!(r.score, 1.0);
    }

    #[test]
    fn width_mismatch_compares_at_max_width() {
        let o = trace_of("q", &[(10, LogicVec::from_u64(0b1, 1))]);
        let s = trace_of("q", &[(10, LogicVec::from_u64(0b11, 2))]);
        let r = fitness(&s, &o, FitnessParams::default());
        // bit0 matches, bit1: expected 0 (zero-extended) vs actual 1.
        assert_eq!(r.bits_compared, 2);
        assert!(r.mismatched_vars.contains("q"));
    }

    #[test]
    fn failure_report_is_zero_fitness() {
        let o = trace_of("q", &[(10, LogicVec::from_u64(1, 1))]);
        let r = failure_report(&o);
        assert_eq!(r.score, 0.0);
        assert!(r.mismatched_vars.contains("q"));
    }

    #[test]
    fn fitness_increases_as_bits_converge() {
        // Fitness-distance correlation: fixing more bits raises score.
        let o = trace_of("q", &[(10, LogicVec::from_u64(0b1111, 4))]);
        let mut prev = -1.0;
        for fixed in 0..=4u64 {
            let value = (1u64 << fixed) - 1; // 0, 1, 3, 7, 15
            let s = trace_of("q", &[(10, LogicVec::from_u64(value, 4))]);
            let r = fitness(&s, &o, FitnessParams::default());
            assert!(r.score >= prev, "monotone in matched bits");
            prev = r.score;
        }
        assert_eq!(prev, 1.0);
    }
}
