//! Expected-behaviour information (the "oracle") and the repair problem.
//!
//! CirFix needs, per defect scenario: the faulty source (design +
//! instrumented testbench), which modules are repairable, the probe
//! describing the instrumentation, and the expected output trace. The
//! paper obtains the expected trace from a previously-functioning version
//! of the design (§4.1.2); [`oracle_from_golden`] does exactly that.

use cirfix_ast::SourceFile;
use cirfix_sim::{
    elaborate, CancelToken, ProbeSpec, SimConfig, SimError, SimOutcome, Simulator, Trace,
};
use cirfix_telemetry::{Phase, Profiler};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::patch::Original;

/// One automated-repair task: everything Algorithm 1 takes as input.
#[derive(Debug, Clone)]
pub struct RepairProblem {
    /// The faulty design together with its instrumented testbench.
    pub source: SourceFile,
    /// The testbench module to elaborate as top.
    pub top: String,
    /// Modules the repair may modify (the circuit, not the testbench).
    pub design_modules: Vec<String>,
    /// The instrumentation: which signals to record, and when.
    pub probe: ProbeSpec,
    /// Expected behaviour `O : Time → Var → {0,1,x,z}ⁿ`.
    pub oracle: Trace,
    /// Simulation resource limits.
    pub sim: SimConfig,
}

/// Simulates a source file with instrumentation attached and returns the
/// recorded trace plus the run outcome and `$display` log.
///
/// # Errors
///
/// Propagates elaboration and runtime errors from the simulator.
pub fn simulate_with_probe(
    source: &SourceFile,
    top: &str,
    probe: &ProbeSpec,
    sim: &SimConfig,
) -> Result<(SimOutcome, Trace, Vec<String>), SimError> {
    simulate_with_probe_cancellable(source, top, probe, sim, None)
}

/// [`simulate_with_probe`] with an optional cooperative [`CancelToken`]:
/// when the token trips (externally or via its deadline) the run stops
/// with [`SimError::Cancelled`] instead of consuming its full resource
/// budget. This is how per-candidate wall-clock budgets are enforced.
///
/// # Errors
///
/// Propagates elaboration, runtime, and cancellation errors from the
/// simulator.
pub fn simulate_with_probe_cancellable(
    source: &SourceFile,
    top: &str,
    probe: &ProbeSpec,
    sim: &SimConfig,
    cancel: Option<CancelToken>,
) -> Result<(SimOutcome, Trace, Vec<String>), SimError> {
    simulate_with_probe_profiled(source, None, top, probe, sim, cancel, None)
}

/// [`simulate_with_probe_cancellable`] with elaborate/simulate busy
/// time attributed to a [`Profiler`]. `source` is a variant of
/// `original`, whose elaboration its design derives from; without one,
/// `source` elaborates as a whole. Either way the elaboration, and the
/// simulator's construction, count as the `elaborate` phase. Safe to
/// call from worker threads (the profiler is atomics only).
pub(crate) fn simulate_with_probe_profiled(
    source: &SourceFile,
    original: Option<&Original>,
    top: &str,
    probe: &ProbeSpec,
    sim: &SimConfig,
    cancel: Option<CancelToken>,
    profiler: Option<&Profiler>,
) -> Result<(SimOutcome, Trace, Vec<String>), SimError> {
    let t0 = profiler.map(|_| std::time::Instant::now());
    let design = match original {
        Some(original) => original.elaborate(source, top),
        None => elaborate(source, top),
    };
    let simulator = design.map(|d| Simulator::from_design(d, sim.clone()));
    if let (Some(p), Some(t0)) = (profiler, t0) {
        p.record(Phase::Elaborate, t0.elapsed().as_nanos() as u64);
    }
    let mut simulator = simulator?;
    if let Some(token) = cancel {
        simulator.set_cancel(token);
    }
    let idx = simulator.add_probe(probe)?;
    let outcome = simulator.run();
    if let Some(p) = profiler {
        p.record(Phase::Simulate, simulator.execution_nanos());
    }
    let outcome = outcome?;
    let trace = simulator.take_probe_trace(idx);
    let log = simulator.take_log();
    Ok((outcome, trace, log))
}

/// Produces the expected-behaviour trace by simulating a known-good
/// ("golden") version of the design with the same testbench and probe —
/// the paper's §4.1.2 methodology.
///
/// # Errors
///
/// Fails if the golden design itself does not simulate cleanly.
pub fn oracle_from_golden(
    golden: &SourceFile,
    top: &str,
    probe: &ProbeSpec,
    sim: &SimConfig,
) -> Result<Trace, SimError> {
    let (_, trace, _) = simulate_with_probe(golden, top, probe, sim)?;
    Ok(trace)
}

/// Degrades expected-behaviour information to `fraction` of its rows,
/// keeping a deterministic random subset — the paper's RQ4 experiment
/// (100% → 50% → 25% correctness information).
///
/// `fraction` is clamped to `[0, 1]`. At least one row is kept when the
/// input is non-empty and `fraction > 0`.
pub fn degrade_oracle(oracle: &Trace, fraction: f64, seed: u64) -> Trace {
    let fraction = fraction.clamp(0.0, 1.0);
    let times: Vec<u64> = oracle.times().collect();
    if times.is_empty() || fraction >= 1.0 {
        return oracle.clone();
    }
    let keep_n = ((times.len() as f64 * fraction).round() as usize)
        .min(times.len())
        .max(usize::from(fraction > 0.0));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut chosen = times.clone();
    chosen.shuffle(&mut rng);
    chosen.truncate(keep_n);
    let keep: std::collections::BTreeSet<u64> = chosen.into_iter().collect();
    let mut degraded = oracle.clone();
    degraded.retain_rows(|t| keep.contains(&t));
    degraded
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_logic::LogicVec;

    fn sample_oracle(n: u64) -> Trace {
        let mut t = Trace::new(vec!["q".into()]);
        for i in 0..n {
            t.record(i * 10, vec![LogicVec::from_u64(i, 8)]);
        }
        t
    }

    #[test]
    fn degrade_keeps_requested_fraction() {
        let o = sample_oracle(20);
        let half = degrade_oracle(&o, 0.5, 42);
        assert_eq!(half.len(), 10);
        let quarter = degrade_oracle(&o, 0.25, 42);
        assert_eq!(quarter.len(), 5);
        let full = degrade_oracle(&o, 1.0, 42);
        assert_eq!(full.len(), 20);
    }

    #[test]
    fn degrade_is_deterministic_per_seed() {
        let o = sample_oracle(20);
        let a = degrade_oracle(&o, 0.5, 7);
        let b = degrade_oracle(&o, 0.5, 7);
        assert_eq!(a, b);
        let c = degrade_oracle(&o, 0.5, 8);
        // Very likely different subsets.
        assert_ne!(a.times().collect::<Vec<_>>(), c.times().collect::<Vec<_>>());
    }

    #[test]
    fn degrade_keeps_at_least_one_row() {
        let o = sample_oracle(3);
        let tiny = degrade_oracle(&o, 0.01, 1);
        assert_eq!(tiny.len(), 1);
        let none = degrade_oracle(&o, 0.0, 1);
        assert_eq!(none.len(), 0, "fraction 0 keeps nothing");
    }

    #[test]
    fn oracle_from_golden_simulates() {
        let src = r#"
            module t;
                reg clk;
                reg [3:0] n;
                initial begin clk = 0; n = 0; end
                always #5 clk = !clk;
                always @(posedge clk) n <= n + 1;
                initial #60 $finish;
            endmodule
        "#;
        let file = cirfix_parser::parse(src).unwrap();
        let probe = ProbeSpec::periodic(vec!["n".into()], 5, 10);
        let trace = oracle_from_golden(&file, "t", &probe, &SimConfig::default()).unwrap();
        assert_eq!(trace.get(5, "n").unwrap().to_u64(), Some(1));
        assert_eq!(trace.get(55, "n").unwrap().to_u64(), Some(6));
    }
}
