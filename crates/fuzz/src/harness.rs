//! Robustness harness: drives inputs through the full frontend
//! (parse → lint → elaborate → compile → simulate) once each, with
//! every panic contained and a wall-clock backstop. The simulator has
//! one implementation, so there is nothing to cross-check at run time:
//! operator-level oracles live in the logic and simulator test suites.

use cirfix::{panic_message, simulate_with_probe_cancellable};
use cirfix_sim::{CancelToken, ProbeSpec, SimConfig, SimError};
use cirfix_store::Fnv128;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where a fuzz input came from (recorded in findings for triage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputOrigin {
    /// A generated defect scenario (valid Verilog by construction).
    Generated,
    /// A byte/token-level mutation of a valid benchmark source.
    Mutated,
    /// A replayed corpus record.
    Corpus,
}

impl InputOrigin {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            InputOrigin::Generated => "generated",
            InputOrigin::Mutated => "mutated",
            InputOrigin::Corpus => "corpus",
        }
    }
}

/// One input to the harness: a source text plus the elaboration and
/// instrumentation context it should be driven under.
#[derive(Debug, Clone)]
pub struct FuzzInput {
    /// Stable id (`<origin>-<n>` or a corpus digest).
    pub id: String,
    /// Verilog source text.
    pub source: String,
    /// Module to elaborate as top.
    pub top: String,
    /// Instrumentation to attach.
    pub probe: ProbeSpec,
    /// Simulation resource limits (these, not wall clock, are what
    /// normally bound a run — keeping outcomes machine-independent).
    pub sim: SimConfig,
    /// Provenance.
    pub origin: InputOrigin,
}

/// Outcome of running one input through the pipeline. Everything in
/// here is a pure function of the input (wall-clock cancellation
/// aside).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The frontend rejected the source (expected for mutated inputs).
    ParseError,
    /// Simulated to completion; carries the trace/log digest.
    SimOk(String),
    /// A deterministic simulator error (elaboration, oscillation,
    /// runaway, step-limit, runtime), by stable kind label.
    SimError(&'static str),
    /// The wall-clock backstop fired; reported as a hang finding.
    Cancelled,
    /// A contained panic; carries the (truncated) panic message.
    Panic(String),
}

/// A confirmed robustness finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Id of the offending input.
    pub input_id: String,
    /// Provenance of the offending input.
    pub origin: InputOrigin,
    /// Finding class: `panic` or `hang`.
    pub class: &'static str,
    /// Offending source text (pre-shrink).
    pub source: String,
    /// Human-readable detail (panic message, backstop note).
    pub detail: String,
}

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads (`0` = auto).
    pub jobs: usize,
    /// Wall-clock backstop per input. The simulator's own operation
    /// budgets are expected to bind long before this does; if this
    /// fires it *is* a finding (class `hang`).
    pub per_input_timeout: Duration,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            jobs: 0,
            per_input_timeout: Duration::from_secs(10),
        }
    }
}

/// Result of a harness run: per-input statuses (input order) plus the
/// findings distilled from them.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Status per input, in input order.
    pub statuses: Vec<RunStatus>,
    /// Confirmed findings, in input order.
    pub findings: Vec<Finding>,
}

/// Runs every input through the pipeline and distills findings.
pub fn run_harness(inputs: &[FuzzInput], config: &HarnessConfig) -> HarnessReport {
    let statuses = run_all(
        inputs,
        cirfix::resolve_jobs(config.jobs),
        config.per_input_timeout,
    );
    let findings = inputs
        .iter()
        .zip(&statuses)
        .filter_map(|(input, status)| {
            let (class, detail) = match status {
                RunStatus::Panic(msg) => ("panic", msg.clone()),
                RunStatus::Cancelled => ("hang", "wall-clock backstop fired".to_string()),
                _ => return None,
            };
            Some(Finding {
                input_id: input.id.clone(),
                origin: input.origin,
                class,
                source: input.source.clone(),
                detail,
            })
        })
        .collect();
    HarnessReport { statuses, findings }
}

/// Drives every input on a scoped pool of `jobs` workers, returning
/// statuses in input order (independent of worker scheduling).
fn run_all(inputs: &[FuzzInput], jobs: usize, timeout: Duration) -> Vec<RunStatus> {
    if inputs.is_empty() {
        return Vec::new();
    }
    let workers = jobs.max(1).min(inputs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunStatus>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let status = run_one(&inputs[i], timeout);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or(RunStatus::ParseError)
        })
        .collect()
}

/// Longest panic message kept in findings and corpus records.
const PANIC_MSG_LIMIT: usize = 200;

/// Drives one input through parse → lint → simulate with the panic
/// contained. This is *the* pipeline the fuzzer hardens; the corpus
/// replayer calls it too.
pub fn run_one(input: &FuzzInput, timeout: Duration) -> RunStatus {
    let result = catch_unwind(AssertUnwindSafe(|| run_one_inner(input, timeout)));
    match result {
        Ok(status) => status,
        Err(payload) => RunStatus::Panic(truncate(&panic_message(payload), PANIC_MSG_LIMIT)),
    }
}

fn run_one_inner(input: &FuzzInput, timeout: Duration) -> RunStatus {
    let Ok(file) = cirfix_parser::parse(&input.source) else {
        return RunStatus::ParseError;
    };
    // Lint must never panic, whatever the tree shape; its findings are
    // irrelevant here.
    let _ = cirfix_lint::lint_file(&file);
    let cancel = CancelToken::with_deadline(Instant::now() + timeout);
    match simulate_with_probe_cancellable(&file, &input.top, &input.probe, &input.sim, Some(cancel))
    {
        Ok((outcome, trace, log)) => {
            let mut h = Fnv128::new();
            h.write_str("cirfix-fuzz-trace-v1");
            h.write_str(&trace.to_csv());
            for line in &log {
                h.write_str(line);
                h.write_str("\n");
            }
            h.write(&outcome.end_time.to_le_bytes());
            h.write(&[u8::from(outcome.finished)]);
            RunStatus::SimOk(h.finish().to_hex())
        }
        Err(SimError::Cancelled { .. }) => RunStatus::Cancelled,
        Err(SimError::Elaboration(_)) => RunStatus::SimError("elaboration"),
        Err(SimError::Oscillation { .. }) => RunStatus::SimError("oscillation"),
        Err(SimError::RunawayProcess { .. }) => RunStatus::SimError("runaway"),
        Err(SimError::StepLimit { .. }) => RunStatus::SimError("step-limit"),
        Err(_) => RunStatus::SimError("runtime"),
    }
}

fn truncate(s: &str, limit: usize) -> String {
    if s.len() <= limit {
        return s.to_string();
    }
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(source: &str) -> FuzzInput {
        FuzzInput {
            id: "t-0".to_string(),
            source: source.to_string(),
            top: "tb".to_string(),
            probe: ProbeSpec::periodic(vec!["q".to_string()], 0, 1),
            sim: SimConfig {
                max_time: 20,
                max_deltas: 100,
                max_ops_per_resume: 10_000,
                max_total_ops: 50_000,
                ..SimConfig::default()
            },
            origin: InputOrigin::Mutated,
        }
    }

    const TB: &str = "module tb; reg q; initial begin q = 0; #1 q = 1; #1 $finish; end endmodule";

    #[test]
    fn valid_source_simulates_without_findings() {
        let inputs = vec![input(TB)];
        let report = run_harness(&inputs, &HarnessConfig::default());
        assert!(matches!(report.statuses[0], RunStatus::SimOk(_)));
        assert!(
            report.findings.is_empty(),
            "no findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn garbage_is_a_parse_error_not_a_finding() {
        let inputs = vec![input("]]]] module garbage \u{7f}")];
        let report = run_harness(&inputs, &HarnessConfig::default());
        assert_eq!(report.statuses[0], RunStatus::ParseError);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn statuses_are_identical_across_jobs() {
        let sources = [
            TB,
            "module tb; endmodule",
            "garbage",
            "module tb; reg q; endmodule",
        ];
        let inputs: Vec<FuzzInput> = sources.iter().map(|s| input(s)).collect();
        let runs: Vec<HarnessReport> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                run_harness(
                    &inputs,
                    &HarnessConfig {
                        jobs,
                        ..HarnessConfig::default()
                    },
                )
            })
            .collect();
        assert_eq!(runs[0].statuses, runs[1].statuses);
    }
}
