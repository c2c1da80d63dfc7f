//! Content-addressed fingerprints and JSON codecs for persistence.
//!
//! The persistent evaluation cache keys records by *content*, not by
//! edit list: a patch's fingerprint is the 128-bit FNV-1a digest of the
//! canonical pretty-print of the patched design modules, mixed with the
//! scenario digest (faulty source + oracle + simulation limits) and the
//! evaluation-relevant configuration (φ, growth bound, per-candidate
//! budget).
//! Node ids never appear in the pretty-print, so the same mutant hashes
//! identically across runs, hosts, and print→parse round-trips — and
//! two *different* edit lists that produce the same design share one
//! cache entry on purpose.
//!
//! Determinism-critical floats (fitness scores, growth factors) are
//! serialized as their IEEE-754 bit patterns, so a resumed or warm run
//! reproduces results bit-for-bit.

use std::collections::BTreeSet;
use std::time::Duration;

use cirfix_ast::{print, SourceFile};
use cirfix_sim::{ProbeSchedule, SimMetrics};
use cirfix_store::{field, field_str, field_u64, Digest, Fnv128};
use cirfix_telemetry::JsonValue;

use crate::fitness::FitnessReport;
use crate::oracle::RepairProblem;
use crate::outcome::EvalOutcome;
use crate::patch::{Edit, Patch, SensTemplate};
use crate::repair::{Evaluation, RepairConfig, RepairResult, RepairStatus, RunTotals};

// ---------------------------------------------------------------------------
// Fingerprints

/// Digest of everything that determines an evaluation's outcome besides
/// the patched design itself: the scenario (faulty source, probe,
/// oracle, simulator limits) and the evaluation-relevant knobs of the
/// repair configuration. Seeds, population sizes, and worker counts are
/// deliberately *excluded* so different trials and different hosts
/// share cache entries.
pub fn problem_digest(problem: &RepairProblem, config: &RepairConfig) -> Digest {
    let mut h = Fnv128::new();
    h.write_str("cirfix-scenario-v1");
    h.write_str(&print::source_to_string(&problem.source));
    h.write_str(&problem.top);
    for m in &problem.design_modules {
        h.write_str(m);
    }
    for s in &problem.probe.signals {
        h.write_str(s);
    }
    match &problem.probe.schedule {
        ProbeSchedule::Periodic { start, period } => {
            h.write_str("periodic");
            h.write_u64(*start);
            h.write_u64(*period);
        }
        ProbeSchedule::OnEdge { signal, edge } => {
            h.write_str("on_edge");
            h.write_str(signal);
            h.write_str(&format!("{edge:?}"));
        }
    }
    h.write_str(&problem.oracle.to_csv());
    h.write_u64(problem.sim.max_time);
    h.write_u64(problem.sim.max_deltas);
    h.write_u64(problem.sim.max_ops_per_resume);
    h.write_u64(problem.sim.max_total_ops);
    h.write_u64(problem.sim.seed);
    h.write_u64(problem.sim.max_queue_events);
    h.write_u64(problem.sim.max_trace_rows);
    // Evaluation-relevant configuration. The per-candidate wall-clock
    // budget changes which candidates get classified `timeout`, so it
    // keys the cache (`u64::MAX` = unbudgeted); fault injection is
    // deliberately excluded — injected outcomes must never be written
    // to a store a clean run could read, which the chaos tests enforce
    // by using throwaway store directories.
    h.write_u64(config.fitness.phi.to_bits());
    h.write_u64(config.max_growth.to_bits());
    // Where the retired static lint filter's bit was: existing stores
    // keep their scenario digests.
    h.write_u64(0);
    h.write_u64(
        config
            .eval_timeout
            .map_or(u64::MAX, |t| t.as_nanos() as u64),
    );
    h.finish()
}

/// Fingerprint of one patched variant under a scenario: the scenario
/// digest mixed with the canonical pretty-print of each design module.
/// Testbench modules are covered by the scenario digest (patches cannot
/// touch them), so only design modules are hashed here.
pub fn variant_fingerprint(
    scenario: Digest,
    variant: &SourceFile,
    design_modules: &[String],
) -> Digest {
    design_fingerprint(
        scenario,
        variant
            .modules
            .iter()
            .filter(|m| design_modules.contains(&m.name))
            .map(|m| print::module_to_string(m)),
    )
}

/// [`variant_fingerprint`] from the design modules' canonical prints,
/// in file order, for callers that already hold some of them.
pub(crate) fn design_fingerprint(
    scenario: Digest,
    prints: impl Iterator<Item = impl AsRef<str>>,
) -> Digest {
    let mut h = Fnv128::new();
    h.write_str("cirfix-variant-v1");
    h.write(&scenario.0.to_le_bytes());
    for text in prints {
        h.write_str(text.as_ref());
    }
    h.finish()
}

/// Digest identifying one repair *session*: the scenario plus every
/// configuration knob that shapes the search trajectory. Two runs with
/// the same session digest walk the same path and may resume each
/// other; `jobs` is excluded (results are bit-identical for any worker
/// count), as is `halt_after` (a halted run and its uninterrupted twin
/// are the same session — that is the point of resuming).
pub fn session_digest(scenario: Digest, config: &RepairConfig, trials: u32) -> Digest {
    let mut h = Fnv128::new();
    h.write_str("cirfix-session-v1");
    h.write(&scenario.0.to_le_bytes());
    h.write_u64(config.popn_size as u64);
    h.write_u64(u64::from(config.max_generations));
    h.write_u64(config.rt_threshold.to_bits());
    h.write_u64(config.mut_threshold.to_bits());
    h.write_u64(config.mutation.delete_threshold.to_bits());
    h.write_u64(config.mutation.insert_threshold.to_bits());
    h.write_u64(config.mutation.replace_threshold.to_bits());
    h.write_u64(u64::from(config.mutation.fix_localization));
    h.write_u64(config.tournament_size as u64);
    h.write_u64(config.elitism_pct.to_bits());
    h.write_u64(config.timeout.as_nanos() as u64);
    h.write_u64(config.max_fitness_evals);
    h.write_u64(config.seed);
    h.write_u64(u64::from(config.relocalize));
    h.write_u64(config.max_patch_len as u64);
    // Where the retired lint prior's bit was: existing session logs
    // stay resumable.
    h.write_u64(0);
    h.write_u64(config.batch_size as u64);
    h.write_u64(u64::from(trials));
    h.finish()
}

// ---------------------------------------------------------------------------
// Patch codec

fn node(id: cirfix_ast::NodeId) -> JsonValue {
    JsonValue::Uint(u64::from(id))
}

fn edit_to_json(edit: &Edit) -> JsonValue {
    let pairs = match edit {
        Edit::ReplaceStmt { target, donor } => vec![
            ("op", JsonValue::Str("replace_stmt".into())),
            ("target", node(*target)),
            ("donor", node(*donor)),
        ],
        Edit::ReplaceExpr { target, donor } => vec![
            ("op", JsonValue::Str("replace_expr".into())),
            ("target", node(*target)),
            ("donor", node(*donor)),
        ],
        Edit::InsertStmt { donor, after } => vec![
            ("op", JsonValue::Str("insert_stmt".into())),
            ("donor", node(*donor)),
            ("after", node(*after)),
        ],
        Edit::DeleteStmt { target } => vec![
            ("op", JsonValue::Str("delete_stmt".into())),
            ("target", node(*target)),
        ],
        Edit::NegateCond { target } => vec![
            ("op", JsonValue::Str("negate_cond".into())),
            ("target", node(*target)),
        ],
        Edit::SetSensitivity {
            control,
            kind,
            signal,
        } => vec![
            ("op", JsonValue::Str("set_sensitivity".into())),
            ("control", node(*control)),
            (
                "kind",
                JsonValue::Str(
                    match kind {
                        SensTemplate::Posedge => "posedge",
                        SensTemplate::Negedge => "negedge",
                        SensTemplate::AnyChange => "any_change",
                        SensTemplate::Level => "level",
                    }
                    .into(),
                ),
            ),
            (
                "signal",
                match signal {
                    Some(s) => JsonValue::Str(s.clone()),
                    None => JsonValue::Null,
                },
            ),
        ],
        Edit::BlockingToNonBlocking { target } => vec![
            ("op", JsonValue::Str("blocking_to_nonblocking".into())),
            ("target", node(*target)),
        ],
        Edit::NonBlockingToBlocking { target } => vec![
            ("op", JsonValue::Str("nonblocking_to_blocking".into())),
            ("target", node(*target)),
        ],
        Edit::ReplaceSensitivity { target, donor } => vec![
            ("op", JsonValue::Str("replace_sensitivity".into())),
            ("target", node(*target)),
            ("donor", node(*donor)),
        ],
        Edit::IncrementExpr { target } => vec![
            ("op", JsonValue::Str("increment_expr".into())),
            ("target", node(*target)),
        ],
        Edit::DecrementExpr { target } => vec![
            ("op", JsonValue::Str("decrement_expr".into())),
            ("target", node(*target)),
        ],
    };
    JsonValue::obj(pairs)
}

fn node_field(v: &JsonValue, key: &str) -> Result<cirfix_ast::NodeId, String> {
    field_u64(v, key)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("missing node field {key:?}"))
}

fn edit_from_json(v: &JsonValue) -> Result<Edit, String> {
    let op = field_str(v, "op").ok_or("edit missing op")?;
    Ok(match op {
        "replace_stmt" => Edit::ReplaceStmt {
            target: node_field(v, "target")?,
            donor: node_field(v, "donor")?,
        },
        "replace_expr" => Edit::ReplaceExpr {
            target: node_field(v, "target")?,
            donor: node_field(v, "donor")?,
        },
        "insert_stmt" => Edit::InsertStmt {
            donor: node_field(v, "donor")?,
            after: node_field(v, "after")?,
        },
        "delete_stmt" => Edit::DeleteStmt {
            target: node_field(v, "target")?,
        },
        "negate_cond" => Edit::NegateCond {
            target: node_field(v, "target")?,
        },
        "set_sensitivity" => Edit::SetSensitivity {
            control: node_field(v, "control")?,
            kind: match field_str(v, "kind") {
                Some("posedge") => SensTemplate::Posedge,
                Some("negedge") => SensTemplate::Negedge,
                Some("any_change") => SensTemplate::AnyChange,
                Some("level") => SensTemplate::Level,
                other => return Err(format!("bad sensitivity kind {other:?}")),
            },
            signal: match field(v, "signal") {
                Some(JsonValue::Str(s)) => Some(s.clone()),
                Some(JsonValue::Null) | None => None,
                other => return Err(format!("bad signal {other:?}")),
            },
        },
        "blocking_to_nonblocking" => Edit::BlockingToNonBlocking {
            target: node_field(v, "target")?,
        },
        "nonblocking_to_blocking" => Edit::NonBlockingToBlocking {
            target: node_field(v, "target")?,
        },
        "replace_sensitivity" => Edit::ReplaceSensitivity {
            target: node_field(v, "target")?,
            donor: node_field(v, "donor")?,
        },
        "increment_expr" => Edit::IncrementExpr {
            target: node_field(v, "target")?,
        },
        "decrement_expr" => Edit::DecrementExpr {
            target: node_field(v, "target")?,
        },
        other => return Err(format!("unknown edit op {other:?}")),
    })
}

/// Serializes a patch as an array of edit objects.
pub fn patch_to_json(patch: &Patch) -> JsonValue {
    JsonValue::Array(patch.edits.iter().map(edit_to_json).collect())
}

/// Deserializes a patch written by [`patch_to_json`].
pub fn patch_from_json(v: &JsonValue) -> Result<Patch, String> {
    match v {
        JsonValue::Array(items) => Ok(Patch {
            edits: items
                .iter()
                .map(edit_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        }),
        other => Err(format!("patch must be an array, got {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Evaluation codec

fn bits(f: f64) -> JsonValue {
    JsonValue::Uint(f.to_bits())
}

fn f64_bits_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    field_u64(v, key)
        .map(f64::from_bits)
        .ok_or_else(|| format!("missing float-bits field {key:?}"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field_u64(v, key).ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn string_set(v: &JsonValue, key: &str) -> Result<BTreeSet<String>, String> {
    match field(v, key) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|i| match i {
                JsonValue::Str(s) => Ok(s.clone()),
                other => Err(format!("expected string, got {other:?}")),
            })
            .collect(),
        other => Err(format!("missing string set {key:?}: {other:?}")),
    }
}

fn str_set_json(set: &BTreeSet<String>) -> JsonValue {
    JsonValue::Array(set.iter().map(|s| JsonValue::Str(s.clone())).collect())
}

fn report_to_json(r: &FitnessReport) -> JsonValue {
    JsonValue::obj(vec![
        ("sum_bits", bits(r.sum)),
        ("total_bits", bits(r.total)),
        ("score_bits", bits(r.score)),
        ("mismatched", str_set_json(&r.mismatched_vars)),
        ("bits_compared", JsonValue::Uint(r.bits_compared)),
        ("bits_matched", JsonValue::Uint(r.bits_matched)),
    ])
}

fn report_from_json(v: &JsonValue) -> Result<FitnessReport, String> {
    Ok(FitnessReport {
        sum: f64_bits_field(v, "sum_bits")?,
        total: f64_bits_field(v, "total_bits")?,
        score: f64_bits_field(v, "score_bits")?,
        mismatched_vars: string_set(v, "mismatched")?,
        bits_compared: u64_field(v, "bits_compared")?,
        bits_matched: u64_field(v, "bits_matched")?,
    })
}

fn metrics_to_json(m: &SimMetrics) -> JsonValue {
    JsonValue::obj(vec![
        ("active_events", JsonValue::Uint(m.active_events)),
        ("inactive_events", JsonValue::Uint(m.inactive_events)),
        ("nba_flushes", JsonValue::Uint(m.nba_flushes)),
        ("timesteps", JsonValue::Uint(m.timesteps)),
        (
            "process_resumptions",
            JsonValue::Uint(m.process_resumptions),
        ),
        ("peak_queue_depth", JsonValue::Uint(m.peak_queue_depth)),
    ])
}

fn metrics_from_json(v: &JsonValue) -> Result<SimMetrics, String> {
    Ok(SimMetrics {
        active_events: u64_field(v, "active_events")?,
        inactive_events: u64_field(v, "inactive_events")?,
        nba_flushes: u64_field(v, "nba_flushes")?,
        timesteps: u64_field(v, "timesteps")?,
        process_resumptions: u64_field(v, "process_resumptions")?,
        peak_queue_depth: u64_field(v, "peak_queue_depth")?,
    })
}

/// Serializes an evaluation with bit-exact floats.
pub fn evaluation_to_json(e: &Evaluation) -> JsonValue {
    JsonValue::obj(vec![
        ("score_bits", bits(e.score)),
        ("compiled", JsonValue::Bool(e.compiled)),
        ("mismatched", str_set_json(&e.mismatched)),
        (
            "report",
            match &e.report {
                Some(r) => report_to_json(r),
                None => JsonValue::Null,
            },
        ),
        (
            "error",
            match &e.error {
                Some(s) => JsonValue::Str(s.clone()),
                None => JsonValue::Null,
            },
        ),
        ("growth_bits", bits(e.growth)),
        ("outcome", JsonValue::Str(e.outcome.as_str().into())),
        (
            "sim",
            match &e.sim_metrics {
                Some(m) => metrics_to_json(m),
                None => JsonValue::Null,
            },
        ),
    ])
}

/// Deserializes an evaluation written by [`evaluation_to_json`].
///
/// Records written before the fault-containment taxonomy carry no
/// `outcome` field; those are reclassified from their error text, which
/// the legacy failure paths wrote with stable prefixes.
pub fn evaluation_from_json(v: &JsonValue) -> Result<Evaluation, String> {
    let error = match field(v, "error") {
        Some(JsonValue::Str(s)) => Some(s.clone()),
        Some(JsonValue::Null) => None,
        other => return Err(format!("bad error field: {other:?}")),
    };
    let outcome = match field_str(v, "outcome") {
        Some(s) => EvalOutcome::parse(s).ok_or_else(|| format!("unknown outcome {s:?}"))?,
        None => EvalOutcome::classify_error_text(error.as_deref()),
    };
    Ok(Evaluation {
        score: f64_bits_field(v, "score_bits")?,
        compiled: match field(v, "compiled") {
            Some(JsonValue::Bool(b)) => *b,
            other => return Err(format!("missing compiled flag: {other:?}")),
        },
        mismatched: string_set(v, "mismatched")?,
        report: match field(v, "report") {
            Some(JsonValue::Null) => None,
            Some(r) => Some(report_from_json(r)?),
            None => return Err("missing report field".into()),
        },
        error,
        growth: f64_bits_field(v, "growth_bits")?,
        outcome,
        sim_metrics: match field(v, "sim") {
            Some(JsonValue::Null) => None,
            Some(m) => Some(metrics_from_json(m)?),
            None => return Err("missing sim field".into()),
        },
    })
}

// ---------------------------------------------------------------------------
// Result codec (canonical, timing-free — for byte-level run comparison)

fn f64_array_bits(xs: &[f64]) -> JsonValue {
    JsonValue::Array(xs.iter().map(|x| JsonValue::Uint(x.to_bits())).collect())
}

/// Serializes a repair result *canonically*: every search-determined
/// field, bit-exact floats, and **no wall-clock times** — so two
/// deterministically equivalent runs (different worker counts, or
/// killed-and-resumed versus uninterrupted) serialize to identical
/// bytes. Used by the CLI's `result_out` and the CI determinism check.
pub fn result_to_canonical_json(r: &RepairResult) -> JsonValue {
    JsonValue::obj(vec![
        (
            "status",
            JsonValue::Str(
                match r.status {
                    RepairStatus::Plausible => "plausible",
                    RepairStatus::Exhausted => "exhausted",
                    RepairStatus::Interrupted => "interrupted",
                }
                .into(),
            ),
        ),
        ("best_fitness_bits", bits(r.best_fitness)),
        ("patch", patch_to_json(&r.patch)),
        ("unminimized_len", JsonValue::Uint(r.unminimized_len as u64)),
        ("generations", JsonValue::Uint(u64::from(r.generations))),
        ("fitness_evals", JsonValue::Uint(r.fitness_evals)),
        ("history_bits", f64_array_bits(&r.history)),
        ("improvement_bits", f64_array_bits(&r.improvement_steps)),
        (
            "repaired_source",
            match &r.repaired_source {
                Some(s) => JsonValue::Str(s.clone()),
                None => JsonValue::Null,
            },
        ),
        ("cache_hits", JsonValue::Uint(r.cache_hits)),
        ("store_hits", JsonValue::Uint(r.totals.store_hits)),
        ("store_writes", JsonValue::Uint(r.totals.store_writes)),
        ("minimize_evals", JsonValue::Uint(r.minimize_evals)),
        // Retired counters (the static lint filter's rejections and
        // mined-pattern hits): the canonical result format keeps their
        // keys, always 0, so result digests stay stable.
        ("rejected_static", JsonValue::Uint(0)),
        ("trials", JsonValue::Uint(u64::from(r.totals.trials))),
        (
            "total_fitness_evals",
            JsonValue::Uint(r.totals.fitness_evals),
        ),
        (
            "total_generations",
            JsonValue::Uint(u64::from(r.totals.generations)),
        ),
        ("timeouts", JsonValue::Uint(r.totals.timeouts)),
        ("panics", JsonValue::Uint(r.totals.panics)),
        ("exhausted", JsonValue::Uint(r.totals.exhausted)),
        ("pattern_hits", JsonValue::Uint(0)),
        ("corpus_skipped", JsonValue::Uint(r.totals.corpus_skipped)),
    ])
}

// ---------------------------------------------------------------------------
// RunTotals codec (for checkpoints)

/// Serializes accumulated run totals for a session checkpoint.
pub(crate) fn totals_to_json(t: &RunTotals) -> JsonValue {
    JsonValue::obj(vec![
        ("trials", JsonValue::Uint(u64::from(t.trials))),
        ("fitness_evals", JsonValue::Uint(t.fitness_evals)),
        ("wall_nanos", JsonValue::Uint(t.wall_time.as_nanos() as u64)),
        ("generations", JsonValue::Uint(u64::from(t.generations))),
        // Retired counters (the static lint filter's rejections and
        // mined-pattern hits): the checkpoint totals format keeps their
        // keys, always 0, so session logs stay readable both ways.
        ("rejected_static", JsonValue::Uint(0)),
        ("jobs", JsonValue::Uint(u64::from(t.jobs))),
        ("busy_nanos", JsonValue::Uint(t.eval_busy.as_nanos() as u64)),
        ("store_hits", JsonValue::Uint(t.store_hits)),
        ("store_writes", JsonValue::Uint(t.store_writes)),
        ("timeouts", JsonValue::Uint(t.timeouts)),
        ("panics", JsonValue::Uint(t.panics)),
        ("exhausted", JsonValue::Uint(t.exhausted)),
        ("pattern_hits", JsonValue::Uint(0)),
        ("corpus_skipped", JsonValue::Uint(t.corpus_skipped)),
    ])
}

/// Deserializes run totals written by [`totals_to_json`].
pub(crate) fn totals_from_json(v: &JsonValue) -> Result<RunTotals, String> {
    Ok(RunTotals {
        trials: u64_field(v, "trials")? as u32,
        fitness_evals: u64_field(v, "fitness_evals")?,
        wall_time: Duration::from_nanos(u64_field(v, "wall_nanos")?),
        generations: u64_field(v, "generations")? as u32,
        jobs: u64_field(v, "jobs")? as u32,
        eval_busy: Duration::from_nanos(u64_field(v, "busy_nanos")?),
        store_hits: u64_field(v, "store_hits")?,
        store_writes: u64_field(v, "store_writes")?,
        // Absent in checkpoints from before fault containment.
        timeouts: field_u64(v, "timeouts").unwrap_or(0),
        panics: field_u64(v, "panics").unwrap_or(0),
        exhausted: field_u64(v, "exhausted").unwrap_or(0),
        corpus_skipped: field_u64(v, "corpus_skipped").unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_parser::parse;

    fn all_edit_shapes() -> Vec<Edit> {
        vec![
            Edit::ReplaceStmt {
                target: 1,
                donor: 2,
            },
            Edit::ReplaceExpr {
                target: 3,
                donor: 4,
            },
            Edit::InsertStmt { donor: 5, after: 6 },
            Edit::DeleteStmt { target: 7 },
            Edit::NegateCond { target: 8 },
            Edit::SetSensitivity {
                control: 9,
                kind: SensTemplate::Posedge,
                signal: Some("clk".into()),
            },
            Edit::SetSensitivity {
                control: 10,
                kind: SensTemplate::AnyChange,
                signal: None,
            },
            Edit::BlockingToNonBlocking { target: 11 },
            Edit::NonBlockingToBlocking { target: 12 },
            Edit::ReplaceSensitivity {
                target: 13,
                donor: 14,
            },
            Edit::IncrementExpr { target: 15 },
            Edit::DecrementExpr { target: 16 },
        ]
    }

    #[test]
    fn patch_codec_round_trips_every_edit_shape() {
        let patch = Patch {
            edits: all_edit_shapes(),
        };
        let json = patch_to_json(&patch);
        let line = json.to_json();
        let parsed = cirfix_store::parse_json(&line).unwrap();
        assert_eq!(patch_from_json(&parsed).unwrap(), patch);
    }

    #[test]
    fn evaluation_codec_round_trips_bit_exactly() {
        let eval = Evaluation {
            score: 0.7734093456239846,
            compiled: true,
            mismatched: ["q", "overflow"].iter().map(|s| s.to_string()).collect(),
            report: Some(FitnessReport {
                sum: -1.25,
                total: 96.0,
                score: 0.7734093456239846,
                mismatched_vars: ["dut.q".to_string()].into_iter().collect(),
                bits_compared: 96,
                bits_matched: 74,
            }),
            error: None,
            growth: 1.0526315789473684,
            outcome: EvalOutcome::Ok,
            sim_metrics: Some(SimMetrics {
                active_events: 1,
                inactive_events: 2,
                nba_flushes: 3,
                timesteps: 4,
                process_resumptions: 5,
                peak_queue_depth: 6,
            }),
        };
        let line = evaluation_to_json(&eval).to_json();
        let back = evaluation_from_json(&cirfix_store::parse_json(&line).unwrap()).unwrap();
        assert_eq!(back.score.to_bits(), eval.score.to_bits());
        assert_eq!(back.growth.to_bits(), eval.growth.to_bits());
        assert_eq!(back.mismatched, eval.mismatched);
        assert_eq!(back.report.as_ref().unwrap(), eval.report.as_ref().unwrap());
        assert_eq!(back.sim_metrics, eval.sim_metrics);

        // The degenerate (failed) shape round-trips too, outcome
        // included.
        let failed = Evaluation {
            score: 0.0,
            compiled: false,
            mismatched: BTreeSet::new(),
            report: None,
            error: Some("elaboration failed".into()),
            growth: 1.0,
            outcome: EvalOutcome::Elaboration,
            sim_metrics: None,
        };
        let line = evaluation_to_json(&failed).to_json();
        let back = evaluation_from_json(&cirfix_store::parse_json(&line).unwrap()).unwrap();
        assert_eq!(back.error.as_deref(), Some("elaboration failed"));
        assert_eq!(back.outcome, EvalOutcome::Elaboration);
        assert!(back.report.is_none() && back.sim_metrics.is_none());
    }

    #[test]
    fn evaluation_codec_reclassifies_legacy_records_without_outcome() {
        // Records written before the taxonomy carry no "outcome" field;
        // the reader must fall back to classifying the error text.
        let cases = [
            (JsonValue::Null, EvalOutcome::Ok),
            (
                JsonValue::Str("elaboration error: unresolved reference `clk`".into()),
                EvalOutcome::Elaboration,
            ),
            (
                JsonValue::Str("zero-delay oscillation at time 40".into()),
                EvalOutcome::Oscillation,
            ),
            (
                JsonValue::Str("simulation step limit exhausted at time 12".into()),
                EvalOutcome::StepLimit,
            ),
        ];
        for (error, expected) in cases {
            let legacy = JsonValue::obj(vec![
                ("score_bits", bits(0.0)),
                ("compiled", JsonValue::Bool(false)),
                ("mismatched", JsonValue::Array(Vec::new())),
                ("report", JsonValue::Null),
                ("error", error),
                ("growth_bits", bits(1.0)),
                ("sim", JsonValue::Null),
            ])
            .to_json();
            let back = evaluation_from_json(&cirfix_store::parse_json(&legacy).unwrap()).unwrap();
            assert_eq!(back.outcome, expected);
        }
    }

    #[test]
    fn fingerprint_ignores_node_renumbering() {
        let a = parse("module m (q); output reg q; always @(q) q = !q; endmodule").unwrap();
        // The same design parsed from its own pretty-print has fresh
        // node ids but an identical canonical print.
        let b = parse(&print::source_to_string(&a)).unwrap();
        let scenario = Digest(42);
        let modules = vec!["m".to_string()];
        assert_eq!(
            variant_fingerprint(scenario, &a, &modules),
            variant_fingerprint(scenario, &b, &modules)
        );
    }

    #[test]
    fn fingerprint_separates_scenarios_and_designs() {
        let a = parse("module m (q); output reg q; always @(q) q = !q; endmodule").unwrap();
        let b = parse("module m (q); output reg q; always @(q) q = q; endmodule").unwrap();
        let modules = vec!["m".to_string()];
        assert_ne!(
            variant_fingerprint(Digest(1), &a, &modules),
            variant_fingerprint(Digest(1), &b, &modules),
            "different designs differ"
        );
        assert_ne!(
            variant_fingerprint(Digest(1), &a, &modules),
            variant_fingerprint(Digest(2), &a, &modules),
            "different scenarios differ"
        );
    }
}
