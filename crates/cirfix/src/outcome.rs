//! A unified taxonomy for how a candidate evaluation ended.
//!
//! Every candidate the search touches gets exactly one [`EvalOutcome`]:
//! a clean simulation, one of the simulator's guard trips, a wall-clock
//! budget expiry, a worker panic, or a static rejection. The mapping is
//! total and deterministic — a candidate that misbehaves in any of these
//! ways is *classified and scored* (worst fitness), never silently
//! dropped, mirroring how the paper's prototype discards candidates that
//! Synopsys VCS refuses to compile or that time out in simulation.

use cirfix_sim::SimError;

/// How a single candidate evaluation concluded.
///
/// The variants partition every path out of
/// [`evaluate`](crate::evaluate): exactly one applies per candidate.
/// All non-[`Ok`](EvalOutcome::Ok) outcomes map to the worst fitness
/// (score 0) deterministically, so injecting the same fault into the
/// same candidate always produces the same search trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EvalOutcome {
    /// The simulation ran to completion and was scored by the fitness
    /// function (the score itself may still be poor).
    Ok,
    /// The candidate failed to elaborate — the "does not compile"
    /// signal.
    Elaboration,
    /// A zero-delay loop failed to converge within the delta limit.
    Oscillation,
    /// A single process ran too many operations without suspending.
    Runaway,
    /// The global simulation operation budget was exhausted.
    StepLimit,
    /// A malformed runtime operation occurred mid-simulation.
    Runtime,
    /// The per-candidate wall-clock budget expired and the simulation
    /// was cancelled cooperatively.
    Timeout,
    /// The evaluation worker panicked; the panic was contained by the
    /// pool and the candidate scored worst-fitness.
    Panicked,
    /// A bounded resource (event queue depth, trace rows) hit its cap
    /// before the simulation finished.
    ResourceExhausted,
    /// The candidate was rejected before simulation (static filter,
    /// bloat limit) and never ran.
    Rejected,
}

impl EvalOutcome {
    /// Stable machine-readable name, used in telemetry events and the
    /// persistent store.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalOutcome::Ok => "ok",
            EvalOutcome::Elaboration => "elaboration",
            EvalOutcome::Oscillation => "oscillation",
            EvalOutcome::Runaway => "runaway",
            EvalOutcome::StepLimit => "step_limit",
            EvalOutcome::Runtime => "runtime",
            EvalOutcome::Timeout => "timeout",
            EvalOutcome::Panicked => "panicked",
            EvalOutcome::ResourceExhausted => "resource_exhausted",
            EvalOutcome::Rejected => "rejected",
        }
    }

    /// Inverse of [`as_str`](EvalOutcome::as_str).
    pub fn parse(s: &str) -> Option<EvalOutcome> {
        Some(match s {
            "ok" => EvalOutcome::Ok,
            "elaboration" => EvalOutcome::Elaboration,
            "oscillation" => EvalOutcome::Oscillation,
            "runaway" => EvalOutcome::Runaway,
            "step_limit" => EvalOutcome::StepLimit,
            "runtime" => EvalOutcome::Runtime,
            "timeout" => EvalOutcome::Timeout,
            "panicked" => EvalOutcome::Panicked,
            "resource_exhausted" => EvalOutcome::ResourceExhausted,
            "rejected" => EvalOutcome::Rejected,
            _ => return None,
        })
    }

    /// Classifies a simulator error. [`SimError::Cancelled`] means the
    /// per-candidate deadline fired, so it maps to
    /// [`Timeout`](EvalOutcome::Timeout).
    pub fn from_sim_error(e: &SimError) -> EvalOutcome {
        match e {
            SimError::Elaboration(_) => EvalOutcome::Elaboration,
            SimError::Oscillation { .. } => EvalOutcome::Oscillation,
            SimError::RunawayProcess { .. } => EvalOutcome::Runaway,
            SimError::StepLimit { .. } => EvalOutcome::StepLimit,
            SimError::Runtime { .. } => EvalOutcome::Runtime,
            SimError::Cancelled { .. } => EvalOutcome::Timeout,
            SimError::ResourceExhausted { .. } => EvalOutcome::ResourceExhausted,
        }
    }

    /// Best-effort classification from a stored error message, for
    /// evaluations persisted before the outcome field existed. Matches
    /// the stable [`SimError`] display prefixes.
    pub fn classify_error_text(error: Option<&str>) -> EvalOutcome {
        let Some(e) = error else {
            return EvalOutcome::Ok;
        };
        if e.starts_with("elaboration error") {
            EvalOutcome::Elaboration
        } else if e.starts_with("zero-delay oscillation") {
            EvalOutcome::Oscillation
        } else if e.starts_with("runaway process") {
            EvalOutcome::Runaway
        } else if e.starts_with("simulation step limit") {
            EvalOutcome::StepLimit
        } else if e.starts_with("runtime error") {
            EvalOutcome::Runtime
        } else if e.starts_with("evaluation exceeded") || e.starts_with("simulation cancelled") {
            EvalOutcome::Timeout
        } else if e.starts_with("candidate evaluation panicked") {
            EvalOutcome::Panicked
        } else if e.ends_with("exhausted") || e.contains(" exhausted at time ") {
            EvalOutcome::ResourceExhausted
        } else {
            EvalOutcome::Runtime
        }
    }
}

impl std::fmt::Display for EvalOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [EvalOutcome; 10] = [
        EvalOutcome::Ok,
        EvalOutcome::Elaboration,
        EvalOutcome::Oscillation,
        EvalOutcome::Runaway,
        EvalOutcome::StepLimit,
        EvalOutcome::Runtime,
        EvalOutcome::Timeout,
        EvalOutcome::Panicked,
        EvalOutcome::ResourceExhausted,
        EvalOutcome::Rejected,
    ];

    #[test]
    fn names_round_trip() {
        for o in ALL {
            assert_eq!(EvalOutcome::parse(o.as_str()), Some(o));
        }
        assert_eq!(EvalOutcome::parse("bogus"), None);
    }

    #[test]
    fn sim_errors_classify_deterministically() {
        assert_eq!(
            EvalOutcome::from_sim_error(&SimError::elab("x")),
            EvalOutcome::Elaboration
        );
        assert_eq!(
            EvalOutcome::from_sim_error(&SimError::Cancelled { time: 3 }),
            EvalOutcome::Timeout
        );
        assert_eq!(
            EvalOutcome::from_sim_error(&SimError::ResourceExhausted {
                what: "event queue",
                time: 9
            }),
            EvalOutcome::ResourceExhausted
        );
    }

    #[test]
    fn legacy_error_text_classifies() {
        for (text, want) in [
            (None, EvalOutcome::Ok),
            (
                Some("elaboration error: bad port"),
                EvalOutcome::Elaboration,
            ),
            (
                Some("zero-delay oscillation at time 4"),
                EvalOutcome::Oscillation,
            ),
            (Some("runaway process at time 0"), EvalOutcome::Runaway),
            (
                Some("simulation step limit exhausted at time 8"),
                EvalOutcome::StepLimit,
            ),
            (
                Some("runtime error at time 2: division of a memory"),
                EvalOutcome::Runtime,
            ),
            (
                Some("evaluation exceeded its wall-clock budget"),
                EvalOutcome::Timeout,
            ),
            (
                Some("candidate evaluation panicked: boom"),
                EvalOutcome::Panicked,
            ),
            (
                Some("event queue exhausted at time 12"),
                EvalOutcome::ResourceExhausted,
            ),
        ] {
            assert_eq!(EvalOutcome::classify_error_text(text), want, "{text:?}");
        }
    }
}
