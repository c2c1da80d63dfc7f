//! The main CirFix loop (Algorithm 1 of the paper).
//!
//! Genetic programming over repair patches: tournament-selected parents
//! reproduce through repair templates, mutation, or crossover; children
//! are scored by the hardware fitness function; fault localization is
//! recomputed for every parent (supporting multi-edit repairs), once per
//! distinct parent per generation; the search stops at the first
//! plausible repair (fitness 1.0) or when resources are exhausted, and
//! the winning patch is minimized.

use std::collections::{BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cirfix_ast::{Module, SourceFile};
use cirfix_sim::{CancelToken, SimError, SimMetrics};
use cirfix_store::Digest;
use cirfix_telemetry::{
    EvalOutcomeEvent, Event, GenerationStats, HeartbeatEvent, Observer, Phase, Profiler, SimStats,
    Span, StoreEvent,
};
use rand::Rng;
use rand::SeedableRng;

use crate::crossover::crossover;
use crate::engine::{Pool, Submission};
use crate::faultloc::{fault_loc_event, fault_localization, FaultLoc};
use crate::faults::{FaultInjector, FaultKind};
use crate::fitness::{failure_report, fitness, population_stats, FitnessParams, FitnessReport};
use crate::minimize::minimize;
use crate::mutation::{mutate, MutationParams};
use crate::oracle::{simulate_with_probe_profiled, RepairProblem};
use crate::outcome::EvalOutcome;
use crate::patch::{Original, Patch};
use crate::persist::design_fingerprint;
use crate::select::{elite_indices, tournament_select};
use crate::session::{Checkpoint, Counters, ResumeState, SessionRecorder, SharedEvalCache};
use crate::templates::random_template;

/// Tunable parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Population size (`popnSize`). The paper uses 5000.
    pub popn_size: usize,
    /// Maximum generations. The paper uses 8.
    pub max_generations: u32,
    /// Probability of applying a repair template (`rtThreshold`, 0.2).
    pub rt_threshold: f64,
    /// Probability of mutation over crossover (`mutThreshold`, 0.7).
    pub mut_threshold: f64,
    /// Mutation sub-type thresholds and fix localization (§3.4, §3.6).
    pub mutation: MutationParams,
    /// Tournament size `t` (5).
    pub tournament_size: usize,
    /// Elitism fraction `e` (0.05).
    pub elitism_pct: f64,
    /// Fitness weighting (`φ = 2`).
    pub fitness: FitnessParams,
    /// Wall-clock budget (the paper uses 12 hours per trial).
    pub timeout: Duration,
    /// Budget of fitness evaluations (design simulations).
    pub max_fitness_evals: u64,
    /// Random seed; every trial in the paper is seeded distinctly.
    pub seed: u64,
    /// Recompute fault localization per parent (the paper's choice).
    /// When `false`, localization runs once on the original design.
    pub relocalize: bool,
    /// Bloat control: variants whose AST grows beyond this factor of the
    /// original are scored 0 without simulation, and their lineages are
    /// not extended (GenProg-style resource rejection; insert edits copy
    /// subtrees, so unchecked lineages can grow without bound).
    pub max_growth: f64,
    /// Bloat control for edit lists: crossover concatenates patch
    /// fragments, so lineages can accumulate thousands of (mostly stale)
    /// edits; parents longer than this reproduce from the original
    /// design instead.
    pub max_patch_len: usize,
    /// Worker threads for fitness evaluation. `0` means auto: the
    /// `CIRFIX_JOBS` environment variable when set, otherwise
    /// [`std::thread::available_parallelism`]. The search result is
    /// bit-identical for every value — only wall-clock time changes.
    pub jobs: usize,
    /// Scheduling quantum: how many children one batch takes (a
    /// crossover's second child may take it one past). Children go to
    /// the worker pool as they are drawn; a batch settles in submission
    /// order (budget, cache inserts, telemetry) once it is full.
    /// Deliberately *independent* of [`RepairConfig::jobs`] so batch
    /// composition (and therefore the result) does not depend on the
    /// worker count.
    pub batch_size: usize,
    /// Stop right after writing the checkpoint for this generation
    /// (0 = the seed population), returning
    /// [`RepairStatus::Interrupted`]. A deterministic stand-in for
    /// `kill -9` used by the resume tests and CI: the session log ends
    /// exactly at a generation boundary, the worst-case place a real
    /// crash can land.
    pub halt_after: Option<u32>,
    /// Per-candidate wall-clock budget. A simulation still running when
    /// its budget expires is cancelled cooperatively and the candidate
    /// scored worst-fitness with [`EvalOutcome::Timeout`] instead of
    /// stalling its worker. `None` (the default) disables the budget —
    /// the fully deterministic mode.
    pub eval_timeout: Option<Duration>,
    /// Deterministic fault injection for chaos testing: scheduled
    /// panics, hangs, simulator errors, and store-write failures keyed
    /// by ordinal. An evaluation ordinal counts the children built on
    /// the worker pool, claimed as each goes there. `None` (the
    /// default) injects nothing; production runs never set this.
    pub faults: Option<FaultInjector>,
    /// Telemetry destination. Defaults to a disabled observer, in which
    /// case no events are constructed.
    pub observer: Observer,
}

impl RepairConfig {
    /// The paper's parameters (§4.2): population 5000, 8 generations,
    /// rt 0.2, mut 0.7, del/ins/rep 0.3/0.3/0.4, t = 5, e = 5%, φ = 2,
    /// 12-hour timeout.
    pub fn paper() -> RepairConfig {
        RepairConfig {
            popn_size: 5000,
            max_generations: 8,
            rt_threshold: 0.2,
            mut_threshold: 0.7,
            mutation: MutationParams::default(),
            tournament_size: 5,
            elitism_pct: 0.05,
            fitness: FitnessParams { phi: 2.0 },
            timeout: Duration::from_secs(12 * 3600),
            max_fitness_evals: u64::MAX,
            seed: 1,
            relocalize: true,
            max_growth: 3.0,
            max_patch_len: 32,
            jobs: 0,
            batch_size: 32,
            halt_after: None,
            eval_timeout: None,
            faults: None,
            observer: Observer::none(),
        }
    }

    /// A scaled-down configuration for tests and CI-time experiments:
    /// same ratios as [`RepairConfig::paper`], smaller population.
    pub fn fast(seed: u64) -> RepairConfig {
        RepairConfig {
            popn_size: 300,
            max_generations: 8,
            timeout: Duration::from_secs(120),
            max_fitness_evals: 6_000,
            seed,
            ..RepairConfig::paper()
        }
    }
}

/// The cached outcome of evaluating one patch.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Normalized fitness in `[0, 1]`.
    pub score: f64,
    /// `false` when the variant failed to elaborate or crashed.
    pub compiled: bool,
    /// Mismatched variables (leaf names) for fault localization.
    pub mismatched: BTreeSet<String>,
    /// The detailed report, when simulation succeeded.
    pub report: Option<FitnessReport>,
    /// Error text, when it did not.
    pub error: Option<String>,
    /// Variant AST size relative to the original (1.0 = unchanged).
    pub growth: f64,
    /// Simulator effort counters, when a simulation ran to completion.
    pub sim_metrics: Option<SimMetrics>,
    /// How the evaluation concluded — every candidate gets exactly one
    /// classification from the unified taxonomy.
    pub outcome: EvalOutcome,
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStatus {
    /// A fitness-1.0 candidate was found.
    Plausible,
    /// Generations, evaluations, or wall clock ran out.
    Exhausted,
    /// The run stopped at a checkpoint ([`RepairConfig::halt_after`])
    /// with the search unfinished; resume it with
    /// [`crate::session::repair_session`].
    Interrupted,
}

/// Aggregate resource totals for a whole run. For a single trial these
/// repeat the per-trial numbers; [`repair_with_trials`] accumulates
/// across every trial, including failed ones whose results are
/// otherwise discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Trials executed.
    pub trials: u32,
    /// Fitness probes (design simulations) across all trials.
    pub fitness_evals: u64,
    /// Wall clock across all trials.
    pub wall_time: Duration,
    /// Generations completed across all trials.
    pub generations: u32,
    /// Resolved evaluation worker count ([`RepairConfig::jobs`] after
    /// auto-detection).
    pub jobs: u32,
    /// Cumulative busy time across all evaluation workers. Worker
    /// utilization is `eval_busy / (wall_time * jobs)`.
    pub eval_busy: Duration,
    /// Evaluations answered from the persistent store (or the
    /// cross-trial shared cache) instead of a fresh simulation.
    pub store_hits: u64,
    /// Evaluations written through to the persistent store.
    pub store_writes: u64,
    /// Candidates whose per-candidate wall-clock budget expired
    /// ([`EvalOutcome::Timeout`]).
    pub timeouts: u64,
    /// Candidates whose evaluation panicked and was contained
    /// ([`EvalOutcome::Panicked`]).
    pub panics: u64,
    /// Candidates that hit a hard resource cap
    /// ([`EvalOutcome::ResourceExhausted`]).
    pub exhausted: u64,
    /// Corpus appends skipped because an identical (scenario, patch)
    /// pair was already recorded.
    pub corpus_skipped: u64,
}

impl RunTotals {
    /// Adds one trial's resources to these run totals. The worker count
    /// is taken from the trial rather than summed.
    pub(crate) fn add_trial(&mut self, result: &RepairResult) {
        let t = &result.totals;
        self.trials += 1;
        self.fitness_evals += result.fitness_evals;
        self.wall_time += result.wall_time;
        self.generations += result.generations;
        self.jobs = t.jobs;
        self.eval_busy += t.eval_busy;
        self.store_hits += t.store_hits;
        self.store_writes += t.store_writes;
        self.timeouts += t.timeouts;
        self.panics += t.panics;
        self.exhausted += t.exhausted;
        self.corpus_skipped += t.corpus_skipped;
    }
}

/// The outcome of one repair trial.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// Terminal status.
    pub status: RepairStatus,
    /// Best fitness reached.
    pub best_fitness: f64,
    /// The best patch (minimized when plausible).
    pub patch: Patch,
    /// Length of the winning patch before minimization.
    pub unminimized_len: usize,
    /// Completed generations.
    pub generations: u32,
    /// Fitness probes (distinct design simulations).
    pub fitness_evals: u64,
    /// Wall time spent.
    pub wall_time: Duration,
    /// Best fitness at the end of each generation.
    pub history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory (the paper's RQ3,
    /// e.g. 0 → 0.58 → 0.77 → 1.0 for the triple-edit counter defect).
    pub improvement_steps: Vec<f64>,
    /// Regenerated source of the repaired design, when plausible.
    pub repaired_source: Option<String>,
    /// Evaluations answered from the patch cache (no simulation).
    pub cache_hits: u64,
    /// Extra fitness probes spent minimizing the winning patch
    /// (included in [`RepairResult::fitness_evals`]).
    pub minimize_evals: u64,
    /// Resource totals across the whole run, including failed trials.
    pub totals: RunTotals,
}

impl RepairResult {
    /// `true` when a plausible (testbench-adequate) repair was found.
    pub fn is_plausible(&self) -> bool {
        self.status == RepairStatus::Plausible
    }
}

/// The fixed error text for a candidate whose per-candidate wall-clock
/// budget expired. Deliberately free of wall-clock or simulation-time
/// detail so persisted timeout evaluations are byte-identical across
/// runs.
pub(crate) const TIMEOUT_ERROR: &str = "evaluation exceeded its wall-clock budget";

/// Evaluates one patch against a repair problem: apply → simulate →
/// fitness. Compile failures and runtime errors score 0. The variant
/// elaborates as a whole: keeping the original's elaboration as a base
/// would elaborate twice for one evaluation.
pub fn evaluate(problem: &RepairProblem, patch: &Patch, params: FitnessParams) -> Evaluation {
    let original = Original::new(&problem.source, &problem.design_modules);
    let variant = original.apply(patch).file;
    let growth = original.node_count(&variant) as f64 / original.nodes().max(1) as f64;
    let candidate = Candidate {
        file: &variant,
        growth,
        original: None,
    };
    evaluate_variant(problem, candidate, params, None, None, None)
}

/// [`evaluate`] for bulk callers, with optional per-phase busy
/// attribution (the brute-force baseline's instrumentation hook).
/// `original` is `problem.source` measured once, and elaborated once,
/// which bulk callers do once rather than once per patch. A panic
/// propagates; the bulk callers run this under [`contained`] at growth
/// 1.0.
pub(crate) fn evaluate_profiled(
    problem: &RepairProblem,
    patch: &Patch,
    params: FitnessParams,
    original: &Original,
    profiler: Option<&Profiler>,
) -> Evaluation {
    let parse_span = profiler.map(|p| p.span(Phase::Parse));
    let variant = original.apply(patch).file;
    let growth = original.node_count(&variant) as f64 / original.nodes().max(1) as f64;
    drop(parse_span);
    let candidate = Candidate {
        file: &variant,
        growth,
        original: Some(original),
    };
    evaluate_variant(problem, candidate, params, None, None, profiler)
}

/// An applied candidate as [`evaluate_variant`] takes it.
struct Candidate<'c> {
    /// The patched source file.
    file: &'c SourceFile,
    /// Its AST size over the original's.
    growth: f64,
    /// The original it was applied to, whose elaboration its design
    /// derives from; `None` elaborates it as a whole.
    original: Option<&'c Original<'c>>,
}

/// The simulation half of [`evaluate`]: scores an already-applied
/// variant. Pure in its inputs, so worker threads can run it
/// concurrently; all AST work (patch application, growth accounting)
/// stays with the caller.
///
/// `budget` is the per-candidate wall-clock budget: when set, the
/// simulation runs under a deadline [`CancelToken`] and an expiry is
/// classified [`EvalOutcome::Timeout`] with a fixed error string.
/// `fault` is the chaos-testing hook — an injected fault scheduled for
/// this evaluation by a [`FaultInjector`]. `profiler`, when present,
/// receives elaborate/simulate/score busy attribution and one
/// whole-evaluation latency sample (atomics only, so worker threads
/// record concurrently).
fn evaluate_variant(
    problem: &RepairProblem,
    candidate: Candidate,
    params: FitnessParams,
    budget: Option<Duration>,
    fault: Option<FaultKind>,
    profiler: Option<&Profiler>,
) -> Evaluation {
    let growth = candidate.growth;
    let started = profiler.map(|_| Instant::now());
    let deadline = budget.map(|b| Instant::now() + b);
    let eval = match fault {
        Some(FaultKind::Panic) => panic!("injected fault: worker panic"),
        Some(FaultKind::Hang) => {
            // A deterministic stand-in for a candidate that wedges its
            // worker: spin until the candidate budget (or a short
            // fallback when budgets are off) cancels it, then classify
            // exactly like a real cancelled simulation.
            let until = deadline.unwrap_or_else(|| Instant::now() + Duration::from_millis(50));
            let token = CancelToken::with_deadline(until);
            while !token.is_cancelled() {
                std::thread::yield_now();
            }
            failure_evaluation(problem, growth, &SimError::Cancelled { time: 0 })
        }
        Some(FaultKind::SimError) => failure_evaluation(
            problem,
            growth,
            &SimError::Runtime {
                message: "injected fault: simulated failure".into(),
                time: 0,
            },
        ),
        None => match simulate_with_probe_profiled(
            candidate.file,
            candidate.original,
            &problem.top,
            &problem.probe,
            &problem.sim,
            deadline.map(CancelToken::with_deadline),
            profiler,
        ) {
            Ok((outcome, trace, _)) => {
                let report = {
                    let _score = profiler.map(|p| p.span(Phase::Score));
                    fitness(&trace, &problem.oracle, params)
                };
                Evaluation {
                    score: report.score,
                    compiled: true,
                    mismatched: report
                        .mismatched_vars
                        .iter()
                        .map(|v| strip_hierarchy(v))
                        .collect(),
                    report: Some(report),
                    error: None,
                    growth,
                    sim_metrics: Some(outcome.metrics),
                    outcome: EvalOutcome::Ok,
                }
            }
            Err(e) => failure_evaluation(problem, growth, &e),
        },
    };
    if let (Some(p), Some(t0)) = (profiler, started) {
        p.record_eval(t0.elapsed().as_nanos() as u64);
    }
    eval
}

/// Runs one evaluation with its panics contained: a panic becomes an
/// [`EvalOutcome::Panicked`] evaluation at worst fitness and the given
/// `growth` instead of unwinding into the caller. Every evaluation the
/// worker pool runs goes through here, so the pool never sees a panic.
pub(crate) fn contained(
    problem: &RepairProblem,
    growth: f64,
    evaluation: impl FnOnce() -> Evaluation,
) -> Evaluation {
    catch_unwind(AssertUnwindSafe(evaluation)).unwrap_or_else(|payload| {
        let error = format!("candidate evaluation panicked: {}", panic_message(payload));
        score_zero(problem, EvalOutcome::Panicked, error, growth)
    })
}

/// Renders a panic payload (whatever was passed to `panic!`) as text
/// for the contained candidate's error message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worst-fitness evaluation for a failed simulation, classified by
/// the unified outcome taxonomy. Cancellations (budget expiries) get
/// the fixed [`TIMEOUT_ERROR`] text so their persisted form does not
/// depend on how far the simulation got before the deadline fired.
fn failure_evaluation(problem: &RepairProblem, growth: f64, e: &SimError) -> Evaluation {
    let outcome = EvalOutcome::from_sim_error(e);
    let error = if outcome == EvalOutcome::Timeout {
        TIMEOUT_ERROR.to_string()
    } else {
        e.to_string()
    };
    score_zero(problem, outcome, error, growth)
}

/// The score-0 evaluation of a candidate that produced no scored
/// simulation: every oracle variable counts as mismatched. Only a
/// candidate that ran carries the worst-case report, and elaboration
/// failures and pre-simulation rejections count as not compiled.
fn score_zero(
    problem: &RepairProblem,
    outcome: EvalOutcome,
    error: String,
    growth: f64,
) -> Evaluation {
    Evaluation {
        score: 0.0,
        compiled: !matches!(outcome, EvalOutcome::Elaboration | EvalOutcome::Rejected),
        mismatched: problem
            .oracle
            .vars()
            .iter()
            .map(|v| strip_hierarchy(v))
            .collect(),
        report: (outcome != EvalOutcome::Rejected).then(|| failure_report(&problem.oracle)),
        error: Some(error),
        growth,
        sim_metrics: None,
        outcome,
    }
}

/// The design modules of `file`, in file order.
fn design_modules_of<'f>(file: &'f cirfix_ast::SourceFile, names: &[String]) -> Vec<&'f Module> {
    file.modules
        .iter()
        .filter(|m| names.contains(&m.name))
        .map(|m| &**m)
        .collect()
}

/// Strips instance hierarchy from a probed signal name
/// (`dut.counter_out` → `counter_out`).
pub fn strip_hierarchy(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

/// Translates simulator effort counters into the telemetry payload.
pub fn sim_stats(m: &SimMetrics) -> SimStats {
    SimStats {
        active_events: m.active_events,
        inactive_events: m.inactive_events,
        nba_flushes: m.nba_flushes,
        timesteps: m.timesteps,
        process_resumptions: m.process_resumptions,
        peak_queue_depth: m.peak_queue_depth,
    }
}

impl Evaluation {
    /// The telemetry payload describing this evaluation of a
    /// `patch_len`-edit candidate proposed by operator `op`
    /// (`"original"`, `"template"`, `"mutation"`, `"crossover"`,
    /// `"minimize"`, or `""` when unknown).
    pub fn candidate_event(
        &self,
        patch_len: usize,
        cached: bool,
        op: &str,
    ) -> cirfix_telemetry::CandidateEvent {
        cirfix_telemetry::CandidateEvent {
            patch_len: patch_len as u64,
            growth_factor: self.growth,
            fitness: self.score,
            cached,
            op: op.to_string(),
        }
    }
}

/// The repair engine: owns the evaluation cache and RNG for one trial.
pub struct Repairer<'a> {
    problem: &'a RepairProblem,
    config: RepairConfig,
    cache: HashMap<Patch, Evaluation>,
    rng: rand::rngs::StdRng,
    // Everything a checkpoint counts, as one value.
    counters: Counters,
    started: Instant,
    node_budget: usize,
    // The original measured once: first free node id, node counts and
    // design prints that every unedited module of a variant reuses.
    // Shared with the evaluation workers.
    original: Arc<Original<'a>>,
    // Fault localization passes run (Algorithm 2), original included.
    localizations: u64,
    // Resolved worker count and cumulative worker busy time.
    jobs: usize,
    busy: Duration,
    // Children per operator since the last GenerationStats emission.
    mix: OperatorMix,
    // Second-level, fingerprint-keyed evaluation cache (cross-trial
    // memory, or write-through persistent store). `None` keeps the
    // engine store-free with zero fingerprinting overhead.
    shared: Option<SharedEvalCache>,
    // Scenario digest mixed into every variant fingerprint.
    scenario: Option<Digest>,
    // L1 inserts since the last checkpoint, as (patch, fingerprint):
    // logged as a cache-delta record so a resumed run can restore the
    // trial cache exactly. Only filled when a session is attached, the
    // one reader.
    pending_delta: Vec<(Patch, Digest)>,
    // Session log writer; checkpoints are written at every generation
    // boundary when present.
    session: Option<SessionRecorder>,
    // Checkpoint to restore instead of running the seed phase.
    resume: Option<ResumeState>,
    // Per-phase busy attribution and eval-latency histogram, shared
    // with the evaluation workers. Only allocated when the observer is
    // live, so a disabled observer pays neither the atomics nor the
    // Instant reads.
    profiler: Option<Arc<Profiler>>,
}

/// What the trial's evaluation workers read: the [`Repairer`]'s
/// constants and shared handles, copied for one submission to the pool.
struct Evaluator<'a> {
    problem: &'a RepairProblem,
    original: Arc<Original<'a>>,
    params: FitnessParams,
    budget: Option<Duration>,
    node_budget: usize,
    scenario: Option<Digest>,
    shared: Option<SharedEvalCache>,
    profiler: Option<Arc<Profiler>>,
}

impl Evaluator<'_> {
    /// Evaluates one child of a batch on a pool thread: replays its
    /// patch from the original, counts its nodes, fingerprints it when a
    /// store is attached, peeks the shared cache and classifies it. A
    /// `Sim` child is then simulated with its scheduled `fault` and
    /// scored, unless the trial `deadline` has passed, so its variant is
    /// built, scored and freed by this one thread. This is the only
    /// place a GP child is simulated.
    fn prepare(
        &self,
        patch: &Patch,
        fault: Option<FaultKind>,
        deadline: Option<Instant>,
    ) -> Prepared {
        let profiler = self.profiler.as_deref();
        let apply = profiler.map(|p| p.span(Phase::Parse));
        let variant = self.original.apply(patch).file;
        drop(apply);
        let nodes = self.original.node_count(&variant);
        let growth = nodes as f64 / self.original.nodes().max(1) as f64;
        // Content-addressed lookup in the shared cache: keyed by the
        // canonical print of the patched design, so it survives node
        // renumbering, process restarts, and different edit lists that
        // produce the same variant. Fingerprinting only happens when a
        // store is attached — the store-free engine is unchanged.
        let key = self
            .scenario
            .map(|s| design_fingerprint(s, self.original.design_prints(&variant)));
        if let (Some(shared), Some(key)) = (&self.shared, key) {
            let _store = profiler.map(|p| p.span(Phase::Store));
            if let Some(eval) = shared.peek(key) {
                return Prepared::StoreHit { eval, key, nodes };
            }
        }
        if nodes > self.node_budget {
            // Bloat rejection: treated like a compile failure, and (like
            // the serial engine) charged against the evaluation budget.
            return Prepared::Reject {
                eval: score_zero(
                    self.problem,
                    EvalOutcome::Rejected,
                    "variant exceeds the AST growth budget".to_string(),
                    growth,
                ),
                key,
                nodes,
            };
        }
        let eval = deadline.is_none_or(|d| Instant::now() < d).then(|| {
            contained(self.problem, growth, || {
                let candidate = Candidate {
                    file: &variant,
                    growth,
                    original: Some(&self.original),
                };
                evaluate_variant(
                    self.problem,
                    candidate,
                    self.params,
                    self.budget,
                    fault,
                    profiler,
                )
            })
        });
        Prepared::Sim { key, nodes, eval }
    }
}

/// One entry of the population. It keeps the node count the pool
/// measured, so the bloat check never applies its patch again; a
/// trial-cache hit and a resumed population carry none. The applied
/// variant itself is not kept: one of the largest benchmark designs
/// holds ~35 KB of private AST, and keeping every member's doubled a
/// search's peak memory.
#[derive(Clone)]
struct Member {
    patch: Patch,
    eval: Evaluation,
    nodes: Option<usize>,
}

/// How one batch item is settled. Trial-cache hits and in-batch
/// duplicates are decided on the coordinating thread;
/// [`Evaluator::prepare`] decides the rest on a pool thread, and
/// simulates the `Sim` items there. Each item the pool built carries
/// its node count.
enum Prepared {
    /// Answered from the trial cache.
    Hit(Evaluation),
    /// Duplicate of an earlier item in the same batch (an in-flight
    /// dedup: it becomes a cache hit once that item merges).
    Alias(usize),
    /// Answered from the fingerprint-keyed shared cache (persistent
    /// store or cross-trial memory): budget-free, like a cache hit, but
    /// counted separately.
    StoreHit {
        eval: Evaluation,
        key: Digest,
        nodes: usize,
    },
    /// Rejected pre-simulation by bloat control; charged against the
    /// evaluation budget like a simulation.
    Reject {
        eval: Evaluation,
        key: Option<Digest>,
        nodes: usize,
    },
    /// Simulated on the pool.
    Sim {
        key: Option<Digest>,
        nodes: usize,
        /// The child's evaluation; `None` when the trial deadline passed
        /// before its simulation began.
        eval: Option<Evaluation>,
    },
}

/// A batch of children in flight on the worker pool.
///
/// The coordinating thread looks each child up in the trial cache and
/// deduplicates identical in-flight patches as the child is added.
/// Every other child claims its fault-injection ordinal and goes to the
/// pool at once as its patch, and one pool thread builds, classifies,
/// simulates, scores and frees it ([`Evaluator::prepare`]). Budget
/// slots are reserved when the batch settles, in submission order: in
/// the batch where the evaluation budget runs out, the children past
/// the cut were simulated all the same, and are dropped unmerged.
/// Nothing is committed until the batch settles, so the trial cache and
/// the shared-cache peeks see the same state as if every child had been
/// added before any ran.
struct Batch<'p, 'a> {
    patches: Vec<Patch>,
    ops: Vec<&'static str>,
    /// Each item's class; `None` while it is on the pool.
    classes: Vec<Option<Prepared>>,
    first_seen: HashMap<Patch, usize>,
    prepared: Submission<'p, 'a, (Patch, Option<FaultKind>), Prepared>,
    /// Evaluation-budget slots left.
    budget: u64,
}

impl Batch<'_, '_> {
    /// Children added so far.
    fn len(&self) -> usize {
        self.patches.len()
    }
}

/// One child proposed by reproduction, labelled with the operator that
/// proposed it for telemetry.
struct Child {
    patch: Patch,
    op: &'static str,
}

#[derive(Debug, Clone, Copy, Default)]
struct OperatorMix {
    template: u64,
    mutation: u64,
    crossover: u64,
}

/// What reproduction derives from one parent. Both fields are pure
/// functions of the parent patch and its cached evaluation, so they are
/// computed at most once per generation however often tournament
/// selection draws the parent. No AST is kept here (see [`Member`]).
struct ParentContext {
    /// The applied parent outgrows the node budget, so it reproduces
    /// from the original design instead.
    bloated: bool,
    /// Fault localization of the applied parent, computed on first use
    /// by a template or mutation (crossover never reads it).
    fault_loc: Option<Rc<FaultLoc>>,
}

/// The reproduction state of one population: its fitness vector and a
/// [`ParentContext`] per distinct non-empty parent. Built afresh
/// whenever the population is replaced.
struct ParentMemo {
    fitnesses: Vec<f64>,
    contexts: HashMap<Patch, ParentContext>,
}

impl ParentMemo {
    fn new(popn: &[Member]) -> ParentMemo {
        ParentMemo {
            fitnesses: popn.iter().map(|m| m.eval.score).collect(),
            contexts: HashMap::new(),
        }
    }
}

/// The search between generation boundaries: what a [`Checkpoint`]
/// records besides the RNG, the counters and the clocks.
struct SearchState {
    /// Completed generations (0 = the seed population).
    generation: u32,
    /// Best (patch, fitness) so far.
    best: (Patch, f64),
    /// Best fitness at the end of each completed generation.
    history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory.
    improvement_steps: Vec<f64>,
    /// The current population.
    popn: Vec<Member>,
    /// The plausible patch, once found.
    found: Option<Patch>,
}

/// Why [`Repairer::fill`] stopped.
#[derive(PartialEq)]
enum Fill {
    /// The population is full.
    Full,
    /// A child is plausible.
    Plausible,
    /// The evaluation budget or the wall-clock deadline ran out.
    Cut,
}

impl<'a> Repairer<'a> {
    /// Creates a repair engine for one trial.
    pub fn new(problem: &'a RepairProblem, config: RepairConfig) -> Repairer<'a> {
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let original = Original::new(&problem.source, &problem.design_modules);
        let node_budget = ((original.nodes() as f64) * config.max_growth.max(1.0)).ceil() as usize;
        let jobs = crate::engine::resolve_jobs(config.jobs);
        let config_enabled = config.observer.enabled();
        Repairer {
            problem,
            config,
            cache: HashMap::new(),
            rng,
            counters: Counters::default(),
            started: Instant::now(),
            node_budget,
            original: Arc::new(original),
            localizations: 0,
            jobs,
            busy: Duration::ZERO,
            mix: OperatorMix::default(),
            shared: None,
            scenario: None,
            pending_delta: Vec::new(),
            session: None,
            resume: None,
            profiler: config_enabled.then(|| Arc::new(Profiler::new())),
        }
    }

    /// Attaches a fingerprint-keyed shared evaluation cache (a
    /// persistent store or a cross-trial in-memory cache). `scenario`
    /// is the [`crate::persist::problem_digest`] mixed into every
    /// variant fingerprint.
    pub fn with_store(mut self, shared: SharedEvalCache, scenario: Digest) -> Repairer<'a> {
        self.shared = Some(shared);
        self.scenario = Some(scenario);
        self
    }

    /// Attaches a session log: a checkpoint is written at every
    /// generation boundary. Retrieve the recorder back with
    /// [`Repairer::take_session`] after the run.
    pub(crate) fn with_session(mut self, recorder: SessionRecorder) -> Repairer<'a> {
        self.session = Some(recorder);
        self
    }

    /// Restores a checkpoint instead of running the seed phase:
    /// [`Repairer::run`] continues from the recorded generation
    /// boundary with the RNG, counters, trial cache, and population
    /// exactly as they were.
    pub(crate) fn with_resume(mut self, state: ResumeState) -> Repairer<'a> {
        self.resume = Some(state);
        self
    }

    /// Hands the session recorder back to the caller (the recorder
    /// outlives one trial: a session spans several).
    pub(crate) fn take_session(&mut self) -> Option<SessionRecorder> {
        self.session.take()
    }

    /// Number of fitness probes so far (cache misses — each is one
    /// design simulation, the paper's dominant cost).
    pub fn fitness_evals(&self) -> u64 {
        self.counters.evals
    }

    /// Evaluations answered from the trial cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.counters.cache_hits
    }

    /// Patch applications performed so far — the AST work of the trial.
    /// A cache hit performs none (see the cache test suite).
    pub fn patch_applies(&self) -> u64 {
        self.counters.patch_applies
    }

    fn out_of_budget(&self) -> bool {
        self.counters.evals >= self.config.max_fitness_evals
            || self.started.elapsed() >= self.config.timeout
    }

    fn prof(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// The constants and shared handles one submission to the worker
    /// pool reads.
    fn evaluator(&self) -> Evaluator<'a> {
        Evaluator {
            problem: self.problem,
            original: Arc::clone(&self.original),
            params: self.config.fitness,
            budget: self.config.eval_timeout,
            node_budget: self.node_budget,
            scenario: self.scenario,
            shared: self.shared.clone(),
            profiler: self.profiler.clone(),
        }
    }

    /// Runs `f` with a pool of [`RepairConfig::jobs`] evaluation
    /// threads: this one, and workers spawned for this call and joined
    /// when it returns.
    fn with_pool<T>(&mut self, f: impl FnOnce(&mut Self, &Pool<'a>) -> T) -> T {
        let jobs = self.jobs;
        std::thread::scope(|scope| f(self, &Pool::new(scope, jobs)))
    }

    /// Emits one search-progress snapshot. Called at generation
    /// boundaries and at run end — a deterministic cadence, so the
    /// heartbeat stream is identical for every worker count.
    fn emit_heartbeat(&self, status: &str, generation: u64, best_fitness: f64) {
        self.config.observer.emit(|| {
            let secs = self.started.elapsed().as_secs_f64();
            let c = self.counters;
            Event::Heartbeat(HeartbeatEvent {
                status: status.to_string(),
                generation,
                best_fitness,
                fitness_evals: c.evals,
                cache_hits: c.cache_hits,
                store_hits: c.store_hits,
                timeouts: c.timeouts,
                panics: c.panics,
                exhausted: c.exhausted,
                evals_per_s: if secs > 0.0 {
                    c.evals as f64 / secs
                } else {
                    0.0
                },
            })
        });
    }

    /// Emits the profiler's per-phase busy totals and the eval-latency
    /// histogram (run end only: the totals are cumulative).
    fn emit_profile(&self) {
        let Some(p) = self.prof() else { return };
        for phase in p.phase_events() {
            self.config.observer.record(&Event::Phase(phase));
        }
        if let Some(hist) = p.eval_histogram() {
            self.config.observer.record(&Event::Histogram(hist));
        }
    }

    /// Inserts a settled evaluation into the trial cache and, when a
    /// key is known, writes the evaluation through to the shared cache
    /// and (in a session) records the (patch, fingerprint) pair for the
    /// next cache-delta log record. Returns without any store work when
    /// no store is attached.
    fn insert_evaluation(&mut self, patch: &Patch, eval: &Evaluation, key: Option<Digest>) {
        self.cache.insert(patch.clone(), eval.clone());
        let Some(key) = key else { return };
        if self.session.is_some() {
            self.pending_delta.push((patch.clone(), key));
        }
        if let Some(shared) = &self.shared {
            let _store = self.profiler.as_deref().map(|p| p.span(Phase::Store));
            if shared.insert(key, eval) {
                self.counters.store_writes += 1;
                self.config.observer.emit(|| {
                    Event::Store(StoreEvent {
                        op: "write".into(),
                        key: key.to_hex(),
                        records: 1,
                    })
                });
            } else if shared.take_degraded_event() {
                // The store just gave up after exhausting its write
                // retries; record the degradation once.
                self.config.observer.emit(|| {
                    Event::Store(StoreEvent {
                        op: "degraded".into(),
                        key: String::new(),
                        records: 1,
                    })
                });
            }
        }
    }

    /// Settles one prepared item (coordinating thread, submission
    /// order): counts budgets, emits telemetry, and inserts into the
    /// cache. A `Prepared::Sim` item without an evaluation was cut by
    /// the deadline, and settles nothing. `op` labels the candidate's
    /// originating operator in telemetry. Returns the evaluation and the
    /// node count the pool measured.
    fn commit(
        &mut self,
        patch: &Patch,
        prepared: Prepared,
        op: &str,
    ) -> Option<(Evaluation, Option<usize>)> {
        let (eval, key, nodes) = match prepared {
            Prepared::Hit(eval) => {
                self.counters.cache_hits += 1;
                self.config
                    .observer
                    .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                return Some((eval, None));
            }
            Prepared::StoreHit { eval, key, nodes } => {
                // Answered from the shared cache: budget-free, no
                // simulation, no Sim event — the warm-store tests count
                // on exactly that.
                self.counters.store_hits += 1;
                self.config.observer.emit(|| {
                    Event::Store(StoreEvent {
                        op: "hit".into(),
                        key: key.to_hex(),
                        records: 1,
                    })
                });
                self.config
                    .observer
                    .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                self.insert_evaluation(patch, &eval, Some(key));
                return Some((eval, Some(nodes)));
            }
            Prepared::Alias(_) => unreachable!("aliases are resolved by the batch merge"),
            Prepared::Reject { eval, key, nodes } => {
                self.counters.evals += 1;
                (eval, key, nodes)
            }
            Prepared::Sim { key, nodes, eval } => {
                let eval = eval?;
                self.counters.evals += 1;
                // Fault-containment accounting: only fresh simulations
                // count, so cached answers never double-count and the
                // totals are identical across resumes.
                match eval.outcome {
                    EvalOutcome::Timeout => self.counters.timeouts += 1,
                    EvalOutcome::Panicked => self.counters.panics += 1,
                    EvalOutcome::ResourceExhausted => self.counters.exhausted += 1,
                    _ => {}
                }
                (eval, key, nodes)
            }
        };
        if self.config.observer.enabled() {
            if let Some(m) = &eval.sim_metrics {
                self.config.observer.record(&Event::Sim(sim_stats(m)));
            }
            self.config
                .observer
                .record(&Event::EvalOutcome(EvalOutcomeEvent {
                    kind: eval.outcome.as_str().into(),
                    error: eval.error.clone().unwrap_or_default(),
                }));
            self.config
                .observer
                .record(&Event::Candidate(eval.candidate_event(
                    patch.len(),
                    false,
                    op,
                )));
        }
        self.insert_evaluation(patch, &eval, key);
        Some((eval, Some(nodes)))
    }

    /// Evaluates one patch synchronously through the trial cache — used
    /// for the original design. Never consults the evaluation budget.
    /// It takes the same path as a batch of one, on a pool of its own,
    /// so panics and injected faults are handled exactly as in a search.
    pub fn evaluate_patch(&mut self, patch: &Patch) -> Evaluation {
        self.with_pool(|r, pool| r.evaluate_labelled(pool, patch, "original"))
    }

    /// Evaluates one patch on `pool` as an unbudgeted batch of one,
    /// labelled `op` in telemetry: the original design, the bloat
    /// fallback's lookup of it, and minimization probes. A trial-cache
    /// hit takes no pool thread, so reproduction can look the original
    /// up while a batch is in flight.
    fn evaluate_labelled(
        &mut self,
        pool: &Pool<'a>,
        patch: &Patch,
        op: &'static str,
    ) -> Evaluation {
        let child = Child {
            patch: patch.clone(),
            op,
        };
        self.evaluate_children(pool, vec![child], false)
            .pop()
            .flatten()
            .expect("an unbudgeted batch settles every item")
            .eval
    }

    /// Evaluates a batch of patches across the worker pool and merges
    /// the results back in submission order; see [`Batch`].
    #[cfg(test)]
    fn evaluate_batch(&mut self, patches: &[Patch]) -> Vec<Option<Evaluation>> {
        let batch = patches
            .iter()
            .map(|p| Child {
                patch: p.clone(),
                op: "",
            })
            .collect();
        self.with_pool(|r, pool| r.evaluate_children(pool, batch, true))
            .into_iter()
            .map(|m| m.map(|m| m.eval))
            .collect()
    }

    /// Evaluates `children` as one batch on `pool`; see [`Batch`].
    fn evaluate_children(
        &mut self,
        pool: &Pool<'a>,
        children: Vec<Child>,
        budgeted: bool,
    ) -> Vec<Option<Member>> {
        let mut batch = self.open_batch(pool, budgeted);
        for child in children {
            self.push_child(&mut batch, child);
        }
        self.settle(batch)
    }

    /// Opens an empty batch on `pool`. A budgeted batch reserves slots
    /// of the evaluation budget and simulates under the trial's
    /// deadline; an unbudgeted one does neither.
    fn open_batch<'p>(&self, pool: &'p Pool<'a>, budgeted: bool) -> Batch<'p, 'a> {
        let (budget, deadline) = if budgeted {
            (
                self.config
                    .max_fitness_evals
                    .saturating_sub(self.counters.evals),
                self.started.checked_add(self.config.timeout),
            )
        } else {
            (u64::MAX, None)
        };
        let evaluator = self.evaluator();
        Batch {
            patches: Vec::new(),
            ops: Vec::new(),
            classes: Vec::new(),
            first_seen: HashMap::new(),
            // No submission deadline: past it, `prepare` still classifies
            // a child and skips only its simulation.
            prepared: pool.submit(None, move |(patch, fault)| {
                evaluator.prepare(&patch, fault, deadline)
            }),
            budget,
        }
    }

    /// Adds one child to `batch`. A trial-cache hit or a duplicate of an
    /// earlier child is settled here; any other child claims the next
    /// fault-injection ordinal and goes to the pool at once, as its
    /// patch.
    fn push_child(&mut self, batch: &mut Batch<'_, 'a>, child: Child) {
        let i = batch.patches.len();
        let class = if let Some(&j) = batch.first_seen.get(&child.patch) {
            Some(Prepared::Alias(j))
        } else {
            batch.first_seen.insert(child.patch.clone(), i);
            match self.cache.get(&child.patch) {
                Some(eval) => Some(Prepared::Hit(eval.clone())),
                None => {
                    self.counters.patch_applies += 1;
                    let fault = self
                        .config
                        .faults
                        .as_ref()
                        .and_then(|f| f.next_eval_fault());
                    batch.prepared.push((child.patch.clone(), fault));
                    None
                }
            }
        };
        batch.classes.push(class);
        batch.patches.push(child.patch);
        batch.ops.push(child.op);
    }

    /// Finishes `batch`: takes every class from the pool and merges the
    /// items in submission order into population entries.
    ///
    /// Each rejection or simulation takes a slot of the evaluation
    /// budget. The returned entries form a prefix of `Some`s. A `None`
    /// tail means the batch was cut short: either the budget ran out (so
    /// `max_fitness_evals` bounds the counted evaluations exactly, and
    /// the children past the cut are dropped although they were
    /// simulated) or the wall-clock deadline skipped a simulation; an
    /// unbudgeted batch settles every item. Everything order-sensitive
    /// (cache inserts, counters, telemetry) happens here, identically
    /// for every worker count.
    fn settle(&mut self, mut batch: Batch<'_, 'a>) -> Vec<Option<Member>> {
        // Every class is in before anything merges: a merge inserts into
        // the shared cache, which a child still on the pool would peek.
        // The pool returns classes in submission order.
        let classes: Vec<Prepared> = batch
            .classes
            .into_iter()
            .map(|class| {
                class.unwrap_or_else(|| batch.prepared.next().expect("the pool has no deadline"))
            })
            .collect();
        self.busy += batch.prepared.busy();

        // The first unresolved item (budget or deadline) ends the merge;
        // later items are dropped rather than committed out of order.
        let len = classes.len();
        let mut out: Vec<Option<Member>> = Vec::with_capacity(len);
        let items = classes.into_iter().zip(batch.patches).zip(batch.ops);
        for ((class, patch), op) in items {
            if matches!(class, Prepared::Sim { .. } | Prepared::Reject { .. }) {
                let Some(left) = batch.budget.checked_sub(1) else {
                    break;
                };
                batch.budget = left;
            }
            let merged = match class {
                Prepared::Alias(j) => out[j].as_ref().map(|first| {
                    let eval = first.eval.clone();
                    self.counters.cache_hits += 1;
                    self.config
                        .observer
                        .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                    Member {
                        patch,
                        eval,
                        nodes: first.nodes,
                    }
                }),
                class => self.commit(&patch, class, op).map(|(eval, nodes)| Member {
                    patch,
                    eval,
                    nodes,
                }),
            };
            if merged.is_none() {
                break;
            }
            out.push(merged);
        }
        out.resize_with(len, || None);
        out
    }

    fn localize_variant(
        &mut self,
        variant: &cirfix_ast::SourceFile,
        eval: &Evaluation,
    ) -> FaultLoc {
        self.localizations += 1;
        fault_localization(
            &design_modules_of(variant, &self.problem.design_modules),
            &eval.mismatched,
        )
    }

    /// Localizes the original design and reports it in telemetry.
    fn localize_original(&mut self, eval: &Evaluation) -> FaultLoc {
        let problem = self.problem;
        let fl = self.localize_variant(&problem.source, eval);
        self.config.observer.emit(|| {
            let modules = design_modules_of(&problem.source, &problem.design_modules);
            Event::FaultLoc(fault_loc_event(&fl, &modules))
        });
        fl
    }

    /// Produces one or two children from the population (lines 5–17 of
    /// Algorithm 1), each labeled with the operator that proposed it.
    /// `memo` must have been built from this `popn`.
    fn reproduce(
        &mut self,
        pool: &Pool<'a>,
        popn: &[Member],
        memo: &mut ParentMemo,
        original_fl: &Rc<FaultLoc>,
    ) -> Vec<Child> {
        let problem = self.problem;
        let pi = tournament_select(&memo.fitnesses, self.config.tournament_size, &mut self.rng);
        let drawn = &popn[pi];
        let mut parent = drawn.patch.clone();
        // The applied parent, when the bloat check below had to build it.
        let mut applied = None;
        // Bloat control: over-long lineages, and parents whose variant
        // outgrows the node budget, reproduce from the original. (The
        // empty patch is always cached — the original is evaluated
        // before any reproduction — so these lookups do no AST work and
        // stay on the coordinating thread.)
        let bloated = if parent.len() > self.config.max_patch_len {
            true
        } else if parent.is_empty() {
            false
        } else if let Some(ctx) = memo.contexts.get(&parent) {
            ctx.bloated
        } else {
            let bloated = match drawn.nodes {
                Some(nodes) => nodes > self.node_budget,
                None => {
                    let variant = self.original.apply(&parent);
                    let bloated = self.original.node_count(&variant.file) > self.node_budget;
                    applied = (!bloated).then_some(variant);
                    bloated
                }
            };
            memo.contexts.insert(
                parent.clone(),
                ParentContext {
                    bloated,
                    fault_loc: None,
                },
            );
            bloated
        };
        if bloated {
            parent = Patch::empty();
            self.evaluate_labelled(pool, &parent, "original");
        }
        let parent = &parent;

        let roll: f64 = self.rng.gen();
        let template = roll <= self.config.rt_threshold;
        if !template && self.rng.gen::<f64>() > self.config.mut_threshold {
            self.mix.crossover += 2;
            let pj = tournament_select(&memo.fitnesses, self.config.tournament_size, &mut self.rng);
            let parent2 = &popn[pj].patch;
            let (c1, c2) = crossover(parent, parent2, &mut self.rng);
            return vec![
                Child {
                    patch: c1,
                    op: "crossover",
                },
                Child {
                    patch: c2,
                    op: "crossover",
                },
            ];
        }

        // Templates and mutations draw their edit on the applied parent
        // at its fault localization. The parent is dropped here, on the
        // thread that built it: the pool replays the child's whole patch
        // from the original.
        let applied = (!parent.is_empty())
            .then(|| applied.unwrap_or_else(|| self.original.apply(parent)).file);
        let file = applied.as_ref().unwrap_or(&problem.source);
        let fl = if !self.config.relocalize || parent.is_empty() {
            Rc::clone(original_fl)
        } else {
            let ctx = memo
                .contexts
                .get_mut(parent)
                .expect("the bloat check memoized every non-empty parent");
            match &ctx.fault_loc {
                Some(fl) => Rc::clone(fl),
                None => {
                    let fl = Rc::new(self.localize_variant(file, &drawn.eval));
                    ctx.fault_loc = Some(Rc::clone(&fl));
                    fl
                }
            }
        };

        let (op, edit) = if template {
            self.mix.template += 1;
            let edit = random_template(file, &problem.design_modules, &fl, &mut self.rng);
            ("template", edit)
        } else {
            self.mix.mutation += 1;
            let edit = mutate(
                file,
                &problem.design_modules,
                &fl,
                self.config.mutation,
                &mut self.rng,
            );
            ("mutation", edit)
        };
        let patch = match edit {
            Some(edit) => parent.with(edit),
            None => parent.clone(),
        };
        vec![Child { patch, op }]
    }

    /// Reproduces from `parents` into `state.popn`, one batch at a
    /// time: children are generated serially (every RNG draw in order)
    /// into batches of [`RepairConfig::batch_size`], scored across the
    /// worker pool, and merged back in submission order into the
    /// population and the best-so-far record. Before each batch the
    /// budget is checked. Stops when the population holds
    /// [`RepairConfig::popn_size`] candidates, a child is plausible (it
    /// becomes `state.found`; nothing beyond its own batch is paid for),
    /// or a budget or deadline cut ends a batch, and says which.
    fn fill(
        &mut self,
        pool: &Pool<'a>,
        parents: &[Member],
        state: &mut SearchState,
        original_fl: &Rc<FaultLoc>,
    ) -> Fill {
        let batch_size = self.config.batch_size.max(1);
        let mut memo = ParentMemo::new(parents);
        let out = &mut state.popn;
        while out.len() < self.config.popn_size {
            if self.out_of_budget() {
                return Fill::Cut;
            }
            // Children go to the workers as they are drawn, so building
            // and simulating them overlap the rest of the batch's draws.
            // The batch stops taking children at `room`, and a
            // crossover's second child can take it one past.
            let room = batch_size.min(self.config.popn_size - out.len());
            let mut batch = self.open_batch(pool, true);
            while batch.len() < room {
                for child in self.reproduce(pool, parents, &mut memo, original_fl) {
                    self.push_child(&mut batch, child);
                }
            }
            for child in self.settle(batch) {
                // A missing evaluation means the batch was cut short by
                // the budget or the deadline.
                let Some(child) = child else { return Fill::Cut };
                let score = child.eval.score;
                if score > state.best.1 {
                    state.best = (child.patch.clone(), score);
                    state.improvement_steps.push(score);
                }
                let plausible = score >= 1.0;
                if plausible {
                    state.found = Some(child.patch.clone());
                }
                out.push(child);
                if plausible {
                    return Fill::Plausible;
                }
            }
        }
        Fill::Full
    }

    /// Closes generation `state.generation` (0 = the seed population):
    /// emits its statistics with `elites` survivors, resets the
    /// operator mix and checkpoints it. Returns `true` when
    /// [`RepairConfig::halt_after`] stops the run here.
    fn close_generation(&mut self, state: &SearchState, elites: u64) -> bool {
        if self.config.observer.enabled() {
            let scores: Vec<f64> = state.popn.iter().map(|m| m.eval.score).collect();
            let (best, median, mean, distinct) = population_stats(&scores);
            let generation = u64::from(state.generation);
            self.config
                .observer
                .record(&Event::Generation(GenerationStats {
                    generation,
                    best_fitness: best,
                    median_fitness: median,
                    mean_fitness: mean,
                    distinct_fitness: distinct,
                    elites,
                    template_children: self.mix.template,
                    mutation_children: self.mix.mutation,
                    crossover_children: self.mix.crossover,
                }));
            self.emit_heartbeat("search", generation, best);
        }
        self.mix = OperatorMix::default();
        self.write_checkpoint(state);
        self.config.halt_after == Some(state.generation)
    }

    /// Writes a cache-delta record plus a checkpoint at a generation
    /// boundary and syncs the log. A no-op without a session.
    fn write_checkpoint(&mut self, state: &SearchState) {
        if self.session.is_none() {
            return;
        }
        let delta = std::mem::take(&mut self.pending_delta);
        let checkpoint = Checkpoint {
            generation: state.generation,
            rng: self.rng.state(),
            counters: self.counters,
            elapsed: self.started.elapsed(),
            busy: self.busy,
            best: state.best.clone(),
            history: state.history.clone(),
            improvement_steps: state.improvement_steps.clone(),
            population: state.popn.iter().map(|m| m.patch.clone()).collect(),
            found: state.found.clone(),
        };
        // The deltas name evaluations in the store: make those durable
        // before the log that references them, or a checkpoint that
        // survives an OS crash could name a lost record. A failed sync
        // is ignored like the log's own: durability is lost, not the
        // search.
        if let Some(shared) = &self.shared {
            let _ = shared.sync();
        }
        let recorder = self.session.as_mut().expect("session checked above");
        recorder.cache_delta(&delta);
        recorder.checkpoint(&checkpoint);
        recorder.sync();
        self.config.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "checkpoint".into(),
                key: String::new(),
                records: state.popn.len() as u64,
            })
        });
    }

    /// Restores a checkpoint: RNG, counters, clock, the trial cache and
    /// the population, exactly as they were at the generation boundary.
    /// The restored cache entries are already in the session log, so
    /// they are *not* pushed to `pending_delta` again. Returns the
    /// search state and the original's fault localization.
    fn restore(&mut self, resume: ResumeState) -> (SearchState, Rc<FaultLoc>) {
        let cp = resume.checkpoint;
        self.rng = rand::rngs::StdRng::from_state(cp.rng);
        self.counters = cp.counters;
        self.busy = cp.busy;
        self.started = Instant::now()
            .checked_sub(cp.elapsed)
            .unwrap_or_else(Instant::now);
        self.cache.extend(resume.l1);
        // Fault localization of the original is derived state:
        // recompute it silently (the FaultLoc event is already in the
        // pre-interruption trace).
        let original_eval = self
            .cache
            .get(&Patch::empty())
            .expect("checkpointed cache always holds the original")
            .clone();
        let problem = self.problem;
        let original_fl = Rc::new(self.localize_variant(&problem.source, &original_eval));
        self.config.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "resume".into(),
                key: String::new(),
                records: u64::from(cp.generation),
            })
        });
        let state = SearchState {
            generation: cp.generation,
            best: cp.best,
            history: cp.history,
            improvement_steps: cp.improvement_steps,
            popn: cp
                .population
                .into_iter()
                .zip(resume.population)
                .map(|(patch, eval)| Member {
                    patch,
                    eval,
                    nodes: None,
                })
                .collect(),
            found: cp.found,
        };
        (state, original_fl)
    }

    /// Ends the trial with `status` and builds its result: a plausible
    /// winner is minimized first; an interrupted trial's search state is
    /// on disk, not in the result.
    fn finish(
        &mut self,
        pool: &Pool<'a>,
        state: SearchState,
        status: RepairStatus,
    ) -> RepairResult {
        let (patch, unminimized_len, repaired_source) = match (&state.found, status) {
            (Some(winning), RepairStatus::Plausible) => {
                let minimized = self.minimize_patch(pool, winning);
                let repaired = self.original.apply(&minimized).file;
                let design_only: Vec<_> = self.original.design_prints(&repaired).collect();
                (minimized, winning.len(), Some(design_only.join("\n")))
            }
            _ => (state.best.0.clone(), state.best.0.len(), None),
        };
        let (heartbeat, best_fitness) = match status {
            RepairStatus::Plausible => ("done", 1.0),
            RepairStatus::Exhausted => ("done", state.best.1),
            RepairStatus::Interrupted => ("interrupted", state.best.1),
        };
        self.emit_heartbeat(heartbeat, u64::from(state.generation), best_fitness);
        self.emit_profile();

        let wall_time = self.started.elapsed();
        let c = self.counters;
        RepairResult {
            status,
            best_fitness,
            patch,
            unminimized_len,
            generations: state.generation,
            fitness_evals: c.evals,
            wall_time,
            history: state.history,
            improvement_steps: state.improvement_steps,
            repaired_source,
            cache_hits: c.cache_hits,
            minimize_evals: c.minimize_evals,
            totals: RunTotals {
                trials: 1,
                fitness_evals: c.evals,
                wall_time,
                generations: state.generation,
                jobs: self.jobs as u32,
                eval_busy: self.busy,
                store_hits: c.store_hits,
                store_writes: c.store_writes,
                timeouts: c.timeouts,
                panics: c.panics,
                exhausted: c.exhausted,
                corpus_skipped: 0,
            },
        }
    }

    /// Runs the trial to completion on a pool of [`RepairConfig::jobs`]
    /// evaluation workers, spawned once for the trial.
    pub fn run(&mut self) -> RepairResult {
        self.with_pool(|r, pool| r.search(pool))
    }

    /// The trial itself: the seed phase (or a restored checkpoint), the
    /// generations, and the result.
    fn search(&mut self, pool: &Pool<'a>) -> RepairResult {
        let obs = self.config.observer.clone();
        let _span = Span::enter("repair", obs.sink());

        let (mut state, original_fl) = match self.resume.take() {
            Some(resume) => self.restore(resume),
            None => {
                let original_eval = self.evaluate_labelled(pool, &Patch::empty(), "original");
                let original_fl = Rc::new(self.localize_original(&original_eval));
                let score = original_eval.score;
                // Seed population (`seed_popn(C, popnSize)`): the
                // original plus single-edit variants *of the original* —
                // matching GenProg's convention of seeding from the
                // input program. Its only parent is the original.
                let origin = [Member {
                    patch: Patch::empty(),
                    eval: original_eval,
                    nodes: None,
                }];
                let mut state = SearchState {
                    generation: 0,
                    best: (Patch::empty(), score),
                    history: Vec::new(),
                    improvement_steps: vec![score],
                    popn: origin.to_vec(),
                    // The original is part of the population: if it
                    // already meets the oracle, there is nothing to
                    // repair.
                    found: (score >= 1.0).then(Patch::empty),
                };
                // A cut only ends the seed phase early.
                if state.found.is_none() {
                    self.fill(pool, &origin, &mut state, &original_fl);
                }
                // The seed population is "generation 0": every trace
                // contains at least one GenerationStats event.
                if self.close_generation(&state, 0) {
                    return self.finish(pool, state, RepairStatus::Interrupted);
                }
                (state, original_fl)
            }
        };

        while state.found.is_none()
            && state.generation < self.config.max_generations
            && !self.out_of_budget()
        {
            // The population becomes the parents; the children fill its
            // place.
            let parents = std::mem::take(&mut state.popn);
            // A budget or deadline cut abandons the partial generation:
            // no elitism, no checkpoint.
            if self.fill(pool, &parents, &mut state, &original_fl) == Fill::Cut {
                break;
            }
            // Elitism: the top e% of the parents survive.
            let scores: Vec<f64> = parents.iter().map(|m| m.eval.score).collect();
            let elite = elite_indices(&scores, self.config.elitism_pct);
            let elites = elite.len() as u64;
            let mut next: Vec<_> = elite.into_iter().map(|i| parents[i].clone()).collect();
            next.append(&mut state.popn);
            state.popn = next;
            state.generation += 1;
            state.history.push(state.best.1);
            if self.close_generation(&state, elites) {
                return self.finish(pool, state, RepairStatus::Interrupted);
            }
        }

        let status = if state.found.is_some() {
            RepairStatus::Plausible
        } else {
            RepairStatus::Exhausted
        };
        self.finish(pool, state, status)
    }

    /// Minimizes a winning patch (§3.7). Each ddmin probe is an ordinary
    /// synchronous evaluation labelled `"minimize"`: patches already
    /// scored during the search are answered from the caches, and every
    /// probe passes the same gates and lands in the same caches,
    /// counters and telemetry as the search's own evaluations.
    fn minimize_patch(&mut self, pool: &Pool<'a>, patch: &Patch) -> Patch {
        let observer = self.config.observer.clone();
        let _span = Span::enter("minimize", observer.sink());
        let evals_before = self.counters.evals;
        let minimized = minimize(patch, |p| {
            self.evaluate_labelled(pool, p, "minimize").score >= 1.0
        });
        self.counters.minimize_evals += self.counters.evals - evals_before;
        minimized
    }
}

/// Convenience wrapper: one repair trial.
pub fn repair(problem: &RepairProblem, config: RepairConfig) -> RepairResult {
    Repairer::new(problem, config).run()
}

/// Runs up to `trials` independent trials with distinct seeds, stopping
/// at the first plausible repair — the paper's experimental protocol
/// (5 trials per defect scenario).
///
/// Trials share a fingerprint-keyed in-memory evaluation cache: a
/// mutant already simulated by an earlier trial (or a different edit
/// list producing the same design) is answered without re-simulation
/// and counted in [`RunTotals::store_hits`].
pub fn repair_with_trials(
    problem: &RepairProblem,
    base: &RepairConfig,
    trials: u32,
) -> RepairResult {
    let scenario = crate::persist::problem_digest(problem, base);
    let shared = SharedEvalCache::memory();
    let mut last = None;
    // Failed trials used to vanish entirely; their resource consumption
    // now accumulates into the returned result's totals.
    let mut totals = RunTotals::default();
    for t in 0..trials.max(1) {
        let config = RepairConfig {
            seed: base.seed.wrapping_add(u64::from(t)),
            ..base.clone()
        };
        let mut result = Repairer::new(problem, config)
            .with_store(shared.clone(), scenario)
            .run();
        totals.add_trial(&result);
        result.totals = totals.clone();
        if result.is_plausible() {
            return result;
        }
        last = Some(result);
    }
    last.expect("at least one trial ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::all_stmt_ids;
    use crate::oracle::oracle_from_golden;
    use crate::patch::Edit;
    use cirfix_parser::parse;
    use cirfix_sim::{ProbeSpec, SimConfig};

    const GOLDEN: &str = "
module cnt (c, r, q); input c, r; output reg [1:0] q;
  always @(posedge c) if (r) q <= 0; else q <= q + 1;
endmodule";

    const FAULTY: &str = "
module cnt (c, r, q); input c, r; output reg [1:0] q;
  always @(posedge c) if (!r) q <= 0; else q <= q + 1;
endmodule";

    const TB: &str = "
module tb; reg c, r; wire [1:0] q; cnt dut (c, r, q);
  initial begin c = 0; r = 1; #12 r = 0; end
  always #5 c = !c;
  initial #120 $finish;
endmodule";

    fn problem() -> RepairProblem {
        let probe = ProbeSpec::periodic(vec!["q".into()], 5, 10);
        let sim = SimConfig {
            max_time: 200,
            max_total_ops: 100_000,
            max_deltas: 1000,
            ..SimConfig::default()
        };
        let mut golden = parse(GOLDEN).unwrap();
        golden.extend_from(parse(TB).unwrap());
        let oracle = oracle_from_golden(&golden, "tb", &probe, &sim).unwrap();
        let mut source = parse(FAULTY).unwrap();
        source.extend_from(parse(TB).unwrap());
        RepairProblem {
            source,
            top: "tb".into(),
            design_modules: vec!["cnt".into()],
            probe,
            oracle,
            sim,
        }
    }

    fn delete_patches(problem: &RepairProblem, n: usize) -> Vec<Patch> {
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .take(n)
            .map(|target| Patch::single(Edit::DeleteStmt { target }))
            .collect()
    }

    #[test]
    fn batch_dedups_in_flight_duplicate_patches() {
        let problem = problem();
        let mut r = Repairer::new(&problem, RepairConfig::fast(1));
        let patch = delete_patches(&problem, 1).pop().unwrap();
        let batch = vec![patch.clone(), patch.clone(), patch];
        let out = r.evaluate_batch(&batch);
        assert!(out.iter().all(Option::is_some));
        let bits: Vec<u64> = out
            .iter()
            .map(|e| e.as_ref().unwrap().score.to_bits())
            .collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[0], bits[2]);
        assert_eq!(r.fitness_evals(), 1, "duplicates simulate once");
        assert_eq!(r.cache_hits(), 2, "aliases count as cache hits");
        assert_eq!(r.patch_applies(), 1, "aliases do zero AST work");
    }

    #[test]
    fn batch_truncates_at_budget_exhaustion() {
        let problem = problem();
        let mut config = RepairConfig::fast(1);
        config.max_fitness_evals = 2;
        let mut r = Repairer::new(&problem, config);
        let batch = delete_patches(&problem, 4);
        assert_eq!(batch.len(), 4);
        let out = r.evaluate_batch(&batch);
        assert!(out[0].is_some());
        assert!(out[1].is_some());
        assert!(out[2].is_none(), "third item exceeds the budget");
        assert!(out[3].is_none());
        assert_eq!(r.fitness_evals(), 2);
    }

    #[test]
    fn batch_cache_hits_are_free_of_budget() {
        let problem = problem();
        let mut config = RepairConfig::fast(1);
        config.max_fitness_evals = 1;
        let mut r = Repairer::new(&problem, config);
        let patch = delete_patches(&problem, 1).pop().unwrap();
        assert!(r.evaluate_batch(std::slice::from_ref(&patch))[0].is_some());
        assert_eq!(r.fitness_evals(), 1);
        // Budget is spent, but a cached patch still resolves.
        let out = r.evaluate_batch(std::slice::from_ref(&patch));
        assert!(out[0].is_some(), "cache hits bypass the exhausted budget");
        assert_eq!(r.fitness_evals(), 1);
        assert_eq!(r.cache_hits(), 1);
    }

    #[test]
    fn contained_classifies_a_panic_at_worst_fitness() {
        let problem = problem();
        let eval = contained(&problem, 1.75, || panic!("injected panic at 7"));
        assert_eq!(eval.outcome, EvalOutcome::Panicked);
        assert_eq!(eval.score, 0.0);
        assert_eq!(eval.growth, 1.75, "the caller's growth is kept");
        let error = eval.error.expect("a panic carries its message");
        assert!(error.contains("injected panic at 7"), "{error}");
        // A total evaluation passes through untouched.
        let ok = contained(&problem, 1.0, || {
            evaluate(&problem, &Patch::empty(), FitnessParams::default())
        });
        assert_eq!(ok.outcome, EvalOutcome::Ok);
    }

    #[test]
    fn seed_phase_localizes_the_original_exactly_once() {
        let problem = problem();
        let config = RepairConfig {
            popn_size: 40,
            halt_after: Some(0),
            ..RepairConfig::fast(3)
        };
        assert!(config.relocalize);
        let mut r = Repairer::new(&problem, config);
        r.run();
        assert!(
            r.fitness_evals() + r.cache_hits() > 2,
            "the seed phase reproduced several children"
        );
        assert_eq!(r.localizations, 1, "every seed child reuses the original's");
    }

    #[test]
    fn cache_delta_is_not_recorded_without_a_session() {
        let problem = problem();
        let config = RepairConfig::fast(1);
        let scenario = crate::persist::problem_digest(&problem, &config);
        let shared = SharedEvalCache::memory();
        let mut r = Repairer::new(&problem, config).with_store(shared.clone(), scenario);
        let result = r.run();
        assert!(result.is_plausible(), "minimization probes ran too");
        assert!(shared.len() > 1, "evaluations were written through");
        assert!(r.pending_delta.is_empty(), "no session reads the delta");
    }
}
