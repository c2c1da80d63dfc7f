//! The main CirFix loop (Algorithm 1 of the paper).
//!
//! Genetic programming over repair patches: tournament-selected parents
//! reproduce through repair templates, mutation, or crossover; children
//! are scored by the hardware fitness function; fault localization is
//! recomputed for every parent (supporting multi-edit repairs), once per
//! distinct parent per generation; the search stops at the first
//! plausible repair (fitness 1.0) or when resources are exhausted, and
//! the winning patch is minimized.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use cirfix_ast::print;
use cirfix_ast::NodeId;
use cirfix_sim::{CancelToken, SimError, SimMetrics};
use cirfix_store::Digest;
use cirfix_telemetry::{
    EvalOutcomeEvent, Event, GenerationStats, HeartbeatEvent, Observer, Phase, Profiler, SimStats,
    Span, StoreEvent,
};
use rand::Rng;
use rand::SeedableRng;

use crate::control::SearchControl;
use crate::crossover::crossover;
use crate::engine::panic_message;
use crate::faultloc::{fault_loc_event, fault_localization, FaultLoc};
use crate::faults::{FaultInjector, FaultKind};
use crate::fitness::{failure_report, fitness, population_stats, FitnessParams, FitnessReport};
use crate::mined::{compose_priors, mined_prior, mined_random_template};
use crate::minimize::minimize;
use crate::mutation::{mutate_with_prior, MutationParams};
use crate::oracle::{simulate_with_probe_profiled, RepairProblem};
use crate::outcome::EvalOutcome;
use crate::patch::{apply_patch, Patch};
use crate::persist::variant_fingerprint;
use crate::select::{elite_indices, tournament_select};
use crate::session::{Checkpoint, ResumeState, SessionRecorder, SharedEvalCache};
use crate::staticfilter::{lint_prior, StaticFilter};
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
    /// Lint-gate candidate mutants: variants that introduce new
    /// error-severity static findings (relative to the original faulty
    /// design) score 0 without being simulated, and are not counted as
    /// fitness evaluations.
    pub static_filter: bool,
    /// Weight mutation targets by lint findings on the original
    /// design: implicated nodes are sampled more often.
    pub lint_prior: bool,
    /// Fix patterns mined from the repair corpus (`cirfix mine`,
    /// loaded via `--mined-patterns`). When non-empty, the template
    /// operator draws support-weighted instances of the endorsed
    /// Table 1 classes, and a learned mutation prior composes
    /// multiplicatively with [`RepairConfig::lint_prior`]. Empty (the
    /// default) leaves the search byte-identical to the unmined
    /// engine.
    pub mined_patterns: Vec<cirfix_mine::FixPattern>,
    /// Worker threads for fitness evaluation. `0` means auto: the
    /// `CIRFIX_JOBS` environment variable when set, otherwise
    /// [`std::thread::available_parallelism`]. The search result is
    /// bit-identical for every value — only wall-clock time changes.
    pub jobs: usize,
    /// Scheduling quantum: how many children accumulate before a batch
    /// is dispatched to the worker pool. Deliberately *independent* of
    /// [`RepairConfig::jobs`] so batch composition (and therefore the
    /// result) does not depend on the worker count.
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
    /// by evaluation ordinal. `None` (the default) injects nothing;
    /// production runs never set this.
    pub faults: Option<FaultInjector>,
    /// Telemetry destination. Defaults to a disabled observer, in which
    /// case no events are constructed.
    pub observer: Observer,
    /// External control for service mode: client-initiated cancellation
    /// (checked at candidate-batch boundaries, returning a resumable
    /// [`RepairStatus::Interrupted`]) and an optional fair-share batch
    /// gate through which every worker-pool dispatch takes a turn. The
    /// inert default adds no overhead and no behaviour change.
    pub control: SearchControl,
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
            static_filter: false,
            lint_prior: false,
            mined_patterns: Vec::new(),
            jobs: 0,
            batch_size: 32,
            halt_after: None,
            eval_timeout: None,
            faults: None,
            observer: Observer::none(),
            control: SearchControl::none(),
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
    /// Candidate mutants rejected by the static lint filter before
    /// simulation (not included in [`RunTotals::fitness_evals`]).
    pub mutants_rejected_static: u64,
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
    /// Template draws that landed on a mined-pattern-endorsed instance
    /// (zero unless [`RepairConfig::mined_patterns`] is non-empty).
    pub pattern_hits: u64,
    /// Corpus appends skipped because an identical (scenario, patch)
    /// pair was already recorded.
    pub corpus_skipped: u64,
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
    /// Candidates rejected by the static lint filter without being
    /// simulated (zero unless [`RepairConfig::static_filter`] is on).
    pub rejected_static: u64,
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
/// fitness. Compile failures and runtime errors score 0.
pub fn evaluate(problem: &RepairProblem, patch: &Patch, params: FitnessParams) -> Evaluation {
    evaluate_profiled(problem, patch, params, node_count(&problem.source), None)
}

/// [`evaluate`] with optional per-phase busy attribution (the
/// brute-force baseline's instrumentation hook). `original_nodes` is
/// [`node_count`] of `problem.source`, which bulk callers compute once
/// rather than once per patch.
pub(crate) fn evaluate_profiled(
    problem: &RepairProblem,
    patch: &Patch,
    params: FitnessParams,
    original_nodes: usize,
    profiler: Option<&Profiler>,
) -> Evaluation {
    let parse_span = profiler.map(|p| p.span(Phase::Parse));
    let (variant, _) = apply_patch(&problem.source, &problem.design_modules, patch);
    let growth = node_count(&variant) as f64 / original_nodes.max(1) as f64;
    drop(parse_span);
    evaluate_variant(problem, &variant, growth, params, None, None, profiler)
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
pub(crate) fn evaluate_variant(
    problem: &RepairProblem,
    variant: &cirfix_ast::SourceFile,
    growth: f64,
    params: FitnessParams,
    budget: Option<Duration>,
    fault: Option<FaultKind>,
    profiler: Option<&Profiler>,
) -> Evaluation {
    match profiler {
        None => evaluate_variant_inner(problem, variant, growth, params, budget, fault, None),
        Some(p) => {
            let t0 = Instant::now();
            let eval =
                evaluate_variant_inner(problem, variant, growth, params, budget, fault, Some(p));
            p.record_eval(t0.elapsed().as_nanos() as u64);
            eval
        }
    }
}

fn evaluate_variant_inner(
    problem: &RepairProblem,
    variant: &cirfix_ast::SourceFile,
    growth: f64,
    params: FitnessParams,
    budget: Option<Duration>,
    fault: Option<FaultKind>,
    profiler: Option<&Profiler>,
) -> Evaluation {
    let deadline = budget.map(|b| Instant::now() + b);
    match fault {
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
            return failure_evaluation(problem, growth, &SimError::Cancelled { time: 0 });
        }
        Some(FaultKind::SimError) => {
            return failure_evaluation(
                problem,
                growth,
                &SimError::Runtime {
                    message: "injected fault: simulated failure".into(),
                    time: 0,
                },
            );
        }
        None => {}
    }
    let token = deadline.map(CancelToken::with_deadline);
    match simulate_with_probe_profiled(
        variant,
        &problem.top,
        &problem.probe,
        &problem.sim,
        token,
        profiler,
    ) {
        Ok((outcome, trace, _)) => {
            let report = match profiler {
                Some(p) => {
                    let _score = p.span(Phase::Score);
                    fitness(&trace, &problem.oracle, params)
                }
                None => fitness(&trace, &problem.oracle, params),
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
    Evaluation {
        score: 0.0,
        compiled: !e.is_compile_failure(),
        mismatched: problem
            .oracle
            .vars()
            .iter()
            .map(|v| strip_hierarchy(v))
            .collect(),
        report: Some(failure_report(&problem.oracle)),
        error: Some(error),
        growth,
        sim_metrics: None,
        outcome,
    }
}

/// The worst-fitness evaluation for a candidate whose worker panicked.
/// The panic was contained by the pool ([`catch_unwind`]); the
/// candidate is classified [`EvalOutcome::Panicked`] and the search
/// continues.
pub(crate) fn panicked_evaluation(problem: &RepairProblem, msg: &str, growth: f64) -> Evaluation {
    Evaluation {
        score: 0.0,
        compiled: true,
        mismatched: problem
            .oracle
            .vars()
            .iter()
            .map(|v| strip_hierarchy(v))
            .collect(),
        report: Some(failure_report(&problem.oracle)),
        error: Some(format!("candidate evaluation panicked: {msg}")),
        growth,
        sim_metrics: None,
        outcome: EvalOutcome::Panicked,
    }
}

/// Strips instance hierarchy from a probed signal name
/// (`dut.counter_out` → `counter_out`).
pub fn strip_hierarchy(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

/// Total AST node count of a source file (for bloat control).
pub(crate) fn node_count(file: &cirfix_ast::SourceFile) -> usize {
    let mut n = 0;
    cirfix_ast::visit::walk_source(file, &mut |_| n += 1);
    n
}

/// Translates simulator effort counters into the telemetry payload.
fn sim_stats(m: &SimMetrics) -> SimStats {
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
    evals: u64,
    cache_hits: u64,
    minimize_evals: u64,
    rejected_static: u64,
    // Fault-containment classification counters, over fresh
    // simulations only (cached answers keep their stored outcome but
    // do not re-count).
    timeouts: u64,
    panics: u64,
    exhausted: u64,
    filter: Option<StaticFilter>,
    prior: BTreeMap<NodeId, u32>,
    // Template draws that landed on a mined-pattern-endorsed instance.
    pattern_hits: u64,
    started: Instant,
    node_budget: usize,
    // AST node count of the original source (growth denominator).
    original_nodes: usize,
    // Patch applications performed (AST work; cache hits do none).
    patch_applies: u64,
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
    store_hits: u64,
    store_writes: u64,
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
    // Per-phase busy attribution and eval-latency histogram. Only
    // allocated when the observer is live, so a disabled observer pays
    // neither the atomics nor the Instant reads.
    profiler: Option<Box<Profiler>>,
}

/// What the coordinating thread decided about one batch item before
/// dispatch. Only `Sim` items occupy a worker; everything else is
/// settled without simulation.
enum Prepared {
    /// Answered from the trial cache.
    Hit(Evaluation),
    /// Duplicate of an earlier item in the same batch (an in-flight
    /// dedup: it becomes a cache hit once that item merges).
    Alias(usize),
    /// Answered from the fingerprint-keyed shared cache (persistent
    /// store or cross-trial memory): budget-free, like a cache hit, but
    /// counted separately.
    StoreHit { eval: Evaluation, key: Digest },
    /// Rejected pre-simulation (bloat or static lint gate).
    /// `costs_eval` preserves the budget accounting of the serial
    /// engine: bloat rejections consume a fitness evaluation, lint
    /// rejections are free.
    Reject {
        eval: Evaluation,
        lint: Option<(String, cirfix_lint::Diagnostic)>,
        costs_eval: bool,
        key: Option<Digest>,
    },
    /// Needs a simulation: the applied variant and its growth factor.
    Sim {
        variant: cirfix_ast::SourceFile,
        growth: f64,
        key: Option<Digest>,
    },
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
/// selection draws the parent. No AST is kept: holding applied
/// variants costs more memory than re-applying saves.
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
    fn new(popn: &[(Patch, Evaluation)]) -> ParentMemo {
        ParentMemo {
            fitnesses: popn.iter().map(|(_, e)| e.score).collect(),
            contexts: HashMap::new(),
        }
    }
}

impl<'a> Repairer<'a> {
    /// Creates a repair engine for one trial.
    pub fn new(problem: &'a RepairProblem, config: RepairConfig) -> Repairer<'a> {
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let original_nodes = node_count(&problem.source);
        let node_budget = ((original_nodes as f64) * config.max_growth.max(1.0)).ceil() as usize;
        let filter = config
            .static_filter
            .then(|| StaticFilter::new(&problem.source, &problem.design_modules));
        let lint = if config.lint_prior {
            lint_prior(&problem.source, &problem.design_modules)
        } else {
            BTreeMap::new()
        };
        // The learned prior composes multiplicatively with the lint
        // prior; with no mined patterns the lint prior passes through
        // untouched (including the all-empty case).
        let prior = if config.mined_patterns.is_empty() {
            lint
        } else {
            let mined = mined_prior(
                &problem.source,
                &problem.design_modules,
                &config.mined_patterns,
            );
            compose_priors(&lint, &mined)
        };
        let jobs = crate::engine::resolve_jobs(config.jobs);
        let config_enabled = config.observer.enabled();
        Repairer {
            problem,
            config,
            cache: HashMap::new(),
            rng,
            evals: 0,
            cache_hits: 0,
            minimize_evals: 0,
            rejected_static: 0,
            timeouts: 0,
            panics: 0,
            exhausted: 0,
            filter,
            prior,
            pattern_hits: 0,
            started: Instant::now(),
            node_budget,
            original_nodes,
            patch_applies: 0,
            localizations: 0,
            jobs,
            busy: Duration::ZERO,
            mix: OperatorMix::default(),
            shared: None,
            scenario: None,
            store_hits: 0,
            store_writes: 0,
            pending_delta: Vec::new(),
            session: None,
            resume: None,
            profiler: config_enabled.then(|| Box::new(Profiler::new())),
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
    pub fn with_session(mut self, recorder: SessionRecorder) -> Repairer<'a> {
        self.session = Some(recorder);
        self
    }

    /// Restores a checkpoint instead of running the seed phase:
    /// [`Repairer::run`] continues from the recorded generation
    /// boundary with the RNG, counters, trial cache, and population
    /// exactly as they were.
    pub fn with_resume(mut self, state: ResumeState) -> Repairer<'a> {
        self.resume = Some(state);
        self
    }

    /// Hands the session recorder back to the caller (the recorder
    /// outlives one trial: a session spans several).
    pub fn take_session(&mut self) -> Option<SessionRecorder> {
        self.session.take()
    }

    /// Evaluations answered from the shared store so far.
    pub fn store_hits(&self) -> u64 {
        self.store_hits
    }

    /// Evaluations written through to the shared store so far.
    pub fn store_writes(&self) -> u64 {
        self.store_writes
    }

    /// Candidates whose per-candidate budget expired so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Contained worker panics so far.
    pub fn panics(&self) -> u64 {
        self.panics
    }

    /// Candidates stopped by a hard resource cap so far.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Number of fitness probes so far (cache misses — each is one
    /// design simulation, the paper's dominant cost).
    pub fn fitness_evals(&self) -> u64 {
        self.evals
    }

    /// Evaluations answered from the trial cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Patch applications performed so far — the AST work of the trial.
    /// A cache hit performs none (see the cache test suite).
    pub fn patch_applies(&self) -> u64 {
        self.patch_applies
    }

    /// The resolved evaluation worker count for this trial.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn out_of_budget(&self) -> bool {
        self.evals >= self.config.max_fitness_evals || self.started.elapsed() >= self.config.timeout
    }

    fn prof(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// Emits one search-progress snapshot. Called at generation
    /// boundaries and at run end — a deterministic cadence, so the
    /// heartbeat stream is identical for every worker count.
    fn emit_heartbeat(&self, status: &str, generation: u64, best_fitness: f64) {
        self.config.observer.emit(|| {
            let secs = self.started.elapsed().as_secs_f64();
            Event::Heartbeat(HeartbeatEvent {
                status: status.to_string(),
                generation,
                best_fitness,
                fitness_evals: self.evals,
                cache_hits: self.cache_hits,
                store_hits: self.store_hits,
                rejected_static: self.rejected_static,
                timeouts: self.timeouts,
                panics: self.panics,
                exhausted: self.exhausted,
                evals_per_s: if secs > 0.0 {
                    self.evals as f64 / secs
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

    /// A score-0 evaluation for a variant rejected before simulation.
    fn rejection(&self, error: String, growth: f64) -> Evaluation {
        Evaluation {
            score: 0.0,
            compiled: false,
            mismatched: self
                .problem
                .oracle
                .vars()
                .iter()
                .map(|v| strip_hierarchy(v))
                .collect(),
            report: None,
            error: Some(error),
            growth,
            sim_metrics: None,
            outcome: EvalOutcome::Rejected,
        }
    }

    /// Classifies one patch before dispatch (coordinating thread only):
    /// cache lookup, patch application, bloat check, and the static
    /// lint gate. Cache hits do zero AST work. Only `Prepared::Sim`
    /// items go on to occupy an evaluation worker.
    fn prepare(&mut self, patch: &Patch) -> Prepared {
        if let Some(e) = self.cache.get(patch) {
            return Prepared::Hit(e.clone());
        }
        let _parse = self.prof().map(|p| p.span(Phase::Parse));
        let (variant, _) = apply_patch(&self.problem.source, &self.problem.design_modules, patch);
        drop(_parse);
        self.patch_applies += 1;
        // Content-addressed lookup in the shared cache: keyed by the
        // canonical print of the patched design, so it survives node
        // renumbering, process restarts, and different edit lists that
        // produce the same variant. Fingerprinting only happens when a
        // store is attached — the store-free engine is unchanged.
        let key = self
            .scenario
            .map(|s| variant_fingerprint(s, &variant, &self.problem.design_modules));
        if let (Some(shared), Some(key)) = (&self.shared, key) {
            let _store = self.profiler.as_deref().map(|p| p.span(Phase::Store));
            if let Some(eval) = shared.peek(key) {
                return Prepared::StoreHit { eval, key };
            }
        }
        let variant_nodes = node_count(&variant);
        let growth = variant_nodes as f64 / self.original_nodes.max(1) as f64;
        if variant_nodes > self.node_budget {
            // Bloat rejection: treated like a compile failure, and (like
            // the serial engine) charged against the evaluation budget.
            return Prepared::Reject {
                eval: self.rejection("variant exceeds the AST growth budget".to_string(), growth),
                lint: None,
                costs_eval: true,
                key,
            };
        }
        if let Some((module, diag)) = self.filter.as_ref().and_then(|f| f.check(&variant)) {
            // Lint gate: the mutation introduced a new error-severity
            // static finding; score 0 without occupying a worker. Free
            // (no simulation ran), so no budget is consumed.
            let error = format!("rejected by static filter: {}", diag.render(&module));
            return Prepared::Reject {
                eval: self.rejection(error, growth),
                lint: Some((module, diag)),
                costs_eval: false,
                key,
            };
        }
        Prepared::Sim {
            variant,
            growth,
            key,
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
                self.store_writes += 1;
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
    /// cache. `sim` carries the worker's result for `Prepared::Sim`
    /// items; `None` there means the deadline cancelled the simulation.
    /// `op` labels the candidate's originating operator in telemetry.
    fn commit(
        &mut self,
        patch: &Patch,
        prepared: Prepared,
        sim: Option<Evaluation>,
        op: &str,
    ) -> Option<Evaluation> {
        let (eval, key) = match prepared {
            Prepared::Hit(eval) => {
                self.cache_hits += 1;
                self.config
                    .observer
                    .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                return Some(eval);
            }
            Prepared::StoreHit { eval, key } => {
                // Answered from the shared cache: budget-free, no
                // simulation, no Sim event — the warm-store tests count
                // on exactly that.
                self.store_hits += 1;
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
                return Some(eval);
            }
            Prepared::Alias(_) => unreachable!("aliases are resolved by the batch merge"),
            Prepared::Reject {
                eval,
                lint,
                costs_eval,
                key,
            } => {
                if costs_eval {
                    self.evals += 1;
                }
                if let Some((module, diag)) = lint {
                    self.rejected_static += 1;
                    self.config
                        .observer
                        .emit(|| cirfix_lint::diagnostic_event(&module, &diag));
                }
                (eval, key)
            }
            Prepared::Sim { key, .. } => {
                let eval = sim?;
                self.evals += 1;
                // Fault-containment accounting: only fresh simulations
                // count, so cached answers never double-count and the
                // totals are identical across resumes.
                match eval.outcome {
                    EvalOutcome::Timeout => self.timeouts += 1,
                    EvalOutcome::Panicked => self.panics += 1,
                    EvalOutcome::ResourceExhausted => self.exhausted += 1,
                    _ => {}
                }
                (eval, key)
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
        Some(eval)
    }

    /// Evaluates one patch synchronously through the trial cache — used
    /// for the original design and for guaranteed-cached lookups inside
    /// reproduction. Never consults the evaluation budget. Panics are
    /// contained here too: a panicking candidate is classified and
    /// scored, exactly as on the worker pool.
    pub fn evaluate_patch(&mut self, patch: &Patch) -> Evaluation {
        let prepared = self.prepare(patch);
        let sim = match &prepared {
            Prepared::Sim {
                variant, growth, ..
            } => {
                let fault = self
                    .config
                    .faults
                    .as_ref()
                    .and_then(|f| f.next_eval_fault());
                let budget = self.config.eval_timeout;
                let growth = *growth;
                let profiler = self.prof();
                // Synchronous evaluations occupy the worker pool too:
                // take a scheduling turn for the duration of the sim.
                let _turn = self.config.control.turn();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    evaluate_variant(
                        self.problem,
                        variant,
                        growth,
                        self.config.fitness,
                        budget,
                        fault,
                        profiler,
                    )
                }));
                Some(match r {
                    Ok(eval) => eval,
                    Err(payload) => {
                        panicked_evaluation(self.problem, &panic_message(payload), growth)
                    }
                })
            }
            _ => None,
        };
        match self.commit(patch, prepared, sim, "original") {
            Some(eval) => eval,
            // Unreachable in practice — the synchronous path always
            // supplies a simulation result, so the commit cannot report
            // a cut batch. Degrade to a worst-fitness classification
            // rather than aborting the trial.
            None => self.rejection("synchronous evaluation yielded no result".to_string(), 1.0),
        }
    }

    /// Evaluates a batch of patches across the worker pool and merges
    /// the results back in submission order.
    ///
    /// The returned vector aligns with `patches`; `Some` entries form a
    /// prefix. A `None` tail means the batch was cut short — either the
    /// evaluation budget ran out at dispatch time (budget slots are
    /// reserved in submission order on the coordinating thread, so
    /// `max_fitness_evals` is never exceeded) or the wall-clock
    /// deadline cancelled in-flight work. Everything order-sensitive
    /// (cache inserts, counters, telemetry) happens here, identically
    /// for every worker count.
    #[cfg(test)]
    fn evaluate_batch(&mut self, patches: &[Patch]) -> Vec<Option<Evaluation>> {
        self.evaluate_batch_ops(patches, &[])
    }

    /// [`Repairer::evaluate_batch`] with per-patch operator labels for
    /// telemetry (`ops[i]` labels `patches[i]`; missing entries label
    /// as `""`). The labels do not influence evaluation.
    fn evaluate_batch_ops(
        &mut self,
        patches: &[Patch],
        ops: &[&'static str],
    ) -> Vec<Option<Evaluation>> {
        // Classify in submission order, deduplicating identical
        // in-flight patches against the first occurrence.
        let mut first_seen: HashMap<&Patch, usize> = HashMap::new();
        let mut prepared: Vec<Prepared> = Vec::with_capacity(patches.len());
        for (i, patch) in patches.iter().enumerate() {
            match first_seen.get(patch) {
                Some(&j) => prepared.push(Prepared::Alias(j)),
                None => {
                    first_seen.insert(patch, i);
                    let p = self.prepare(patch);
                    prepared.push(p);
                }
            }
        }
        // Reserve budget slots in submission order; the first item that
        // cannot reserve truncates the batch deterministically.
        let mut budget = self.config.max_fitness_evals.saturating_sub(self.evals);
        let mut admitted = patches.len();
        for (i, p) in prepared.iter().enumerate() {
            let costs = matches!(
                p,
                Prepared::Sim { .. }
                    | Prepared::Reject {
                        costs_eval: true,
                        ..
                    }
            );
            if costs {
                if budget == 0 {
                    admitted = i;
                    break;
                }
                budget -= 1;
            }
        }
        // Fan the simulations out; everything else never leaves the
        // coordinating thread. Fault-injection ordinals are claimed
        // here, serially, in submission order — so a chaos plan hits
        // the same candidates for every worker count.
        let deadline = self.started.checked_add(self.config.timeout);
        let mut sims: Vec<(usize, &cirfix_ast::SourceFile, f64, Option<FaultKind>)> = Vec::new();
        for (i, p) in prepared[..admitted].iter().enumerate() {
            if let Prepared::Sim {
                variant, growth, ..
            } = p
            {
                let fault = self
                    .config
                    .faults
                    .as_ref()
                    .and_then(|f| f.next_eval_fault());
                sims.push((i, variant, *growth, fault));
            }
        }
        let problem = self.problem;
        let params = self.config.fitness;
        let budget = self.config.eval_timeout;
        let profiler = self.profiler.as_deref();
        // In service mode the worker pool is shared between sessions:
        // hold a scheduling turn for exactly the span of the dispatch,
        // so concurrent jobs interleave at batch granularity. The guard
        // is inert (and free) for batch runs.
        let turn = self.config.control.turn();
        let (outcomes, busy, panicked) = crate::engine::run_batch(
            self.jobs,
            deadline,
            &sims,
            |&(_, variant, growth, fault)| {
                evaluate_variant(problem, variant, growth, params, budget, fault, profiler)
            },
        );
        drop(turn);
        self.busy += busy;
        let mut sim_results: HashMap<usize, Option<Evaluation>> = sims
            .iter()
            .zip(outcomes)
            .map(|(&(i, _, _, _), r)| (i, r))
            .collect();
        // Panicked workers leave their slot empty and report the panic
        // separately; classify those candidates worst-fitness instead
        // of mistaking them for deadline cuts.
        for (si, msg) in panicked {
            let (i, _, growth, _) = sims[si];
            sim_results.insert(i, Some(panicked_evaluation(problem, &msg, growth)));
        }
        // Merge in submission order. The first unresolved item (budget
        // or deadline) ends the merge; later items are dropped rather
        // than committed out of order.
        let mut out: Vec<Option<Evaluation>> = Vec::with_capacity(patches.len());
        let mut cut = false;
        for (i, p) in prepared.into_iter().enumerate() {
            if cut || i >= admitted {
                out.push(None);
                continue;
            }
            let op = ops.get(i).copied().unwrap_or("");
            let merged = match p {
                Prepared::Alias(j) => match &out[j] {
                    Some(eval) => {
                        let eval = eval.clone();
                        self.cache_hits += 1;
                        self.config.observer.emit(|| {
                            Event::Candidate(eval.candidate_event(patches[i].len(), true, op))
                        });
                        Some(eval)
                    }
                    None => None,
                },
                p => {
                    let sim = sim_results.remove(&i).flatten();
                    self.commit(&patches[i], p, sim, op)
                }
            };
            if merged.is_none() {
                cut = true;
            }
            out.push(merged);
        }
        out
    }

    fn localize_variant(
        &mut self,
        variant: &cirfix_ast::SourceFile,
        eval: &Evaluation,
    ) -> FaultLoc {
        self.localizations += 1;
        let modules: Vec<&cirfix_ast::Module> = variant
            .modules
            .iter()
            .filter(|m| self.problem.design_modules.contains(&m.name))
            .collect();
        fault_localization(&modules, &eval.mismatched)
    }

    /// Localizes the original design and reports it in telemetry.
    fn localize_original(&mut self, eval: &Evaluation) -> FaultLoc {
        let problem = self.problem;
        let fl = self.localize_variant(&problem.source, eval);
        self.config.observer.emit(|| {
            let modules: Vec<&cirfix_ast::Module> = problem
                .source
                .modules
                .iter()
                .filter(|m| problem.design_modules.contains(&m.name))
                .collect();
            Event::FaultLoc(fault_loc_event(&fl, &modules))
        });
        fl
    }

    /// Produces one or two children from the population (lines 5–17 of
    /// Algorithm 1), each labeled with the operator that proposed it.
    /// `memo` must have been built from this `popn`.
    fn reproduce(
        &mut self,
        popn: &[(Patch, Evaluation)],
        memo: &mut ParentMemo,
        original_fl: &Rc<FaultLoc>,
    ) -> Vec<(Patch, &'static str)> {
        let problem = self.problem;
        let pi = tournament_select(&memo.fitnesses, self.config.tournament_size, &mut self.rng);
        let mut parent = popn[pi].0.clone();
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
            let (variant, _) = apply_patch(&problem.source, &problem.design_modules, &parent);
            let bloated = node_count(&variant) > self.node_budget;
            memo.contexts.insert(
                parent.clone(),
                ParentContext {
                    bloated,
                    fault_loc: None,
                },
            );
            applied = (!bloated).then_some(variant);
            bloated
        };
        if bloated {
            parent = Patch::empty();
            self.evaluate_patch(&parent);
        }
        let parent = &parent;

        let roll: f64 = self.rng.gen();
        let template = roll <= self.config.rt_threshold;
        if !template && self.rng.gen::<f64>() > self.config.mut_threshold {
            self.mix.crossover += 2;
            let pj = tournament_select(&memo.fitnesses, self.config.tournament_size, &mut self.rng);
            let parent2 = &popn[pj].0;
            let (c1, c2) = crossover(parent, parent2, &mut self.rng);
            return vec![(c1, "crossover"), (c2, "crossover")];
        }

        // Templates and mutations edit the applied parent at its fault
        // localization. The original is borrowed rather than copied.
        let variant = if parent.is_empty() {
            &problem.source
        } else {
            &*applied.get_or_insert_with(|| {
                apply_patch(&problem.source, &problem.design_modules, parent).0
            })
        };
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
                    let fl = Rc::new(self.localize_variant(variant, &popn[pi].1));
                    ctx.fault_loc = Some(Rc::clone(&fl));
                    fl
                }
            }
        };

        if template {
            // Repair templates. Without mined patterns this is the
            // paper's uniform draw; with them, endorsed Table 1
            // instances are over-weighted by support.
            self.mix.template += 1;
            if self.config.mined_patterns.is_empty() {
                match random_template(variant, &problem.design_modules, &fl, &mut self.rng) {
                    Some(edit) => vec![(parent.with(edit), "template")],
                    None => vec![(parent.clone(), "template")],
                }
            } else {
                match mined_random_template(
                    variant,
                    &problem.design_modules,
                    &fl,
                    &self.config.mined_patterns,
                    &mut self.rng,
                ) {
                    Some((edit, weight)) => {
                        if weight > 1 {
                            self.pattern_hits += 1;
                            self.config.observer.emit(|| {
                                Event::Mine(cirfix_telemetry::MineEvent {
                                    op: "pattern_hit".to_string(),
                                    pattern: String::new(),
                                    support: weight - 1,
                                    count: 1,
                                })
                            });
                        }
                        vec![(parent.with(edit), "template")]
                    }
                    None => vec![(parent.clone(), "template")],
                }
            }
        } else {
            self.mix.mutation += 1;
            match mutate_with_prior(
                variant,
                &problem.design_modules,
                &fl,
                self.config.mutation,
                &mut self.rng,
                &self.prior,
            ) {
                Some(edit) => vec![(parent.with(edit), "mutation")],
                None => vec![(parent.clone(), "mutation")],
            }
        }
    }

    /// Emits per-generation population statistics and resets the
    /// operator-mix counters.
    fn emit_generation(&mut self, generation: u64, popn: &[(Patch, Evaluation)], elites: u64) {
        if self.config.observer.enabled() {
            let scores: Vec<f64> = popn.iter().map(|(_, e)| e.score).collect();
            let (best, median, mean, distinct) = population_stats(&scores);
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
    }

    /// Writes a cache-delta record plus a checkpoint at a generation
    /// boundary and syncs the log. A no-op without a session.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &mut self,
        generation: u32,
        popn: &[(Patch, Evaluation)],
        best: &(Patch, f64),
        history: &[f64],
        improvement_steps: &[f64],
        found: &Option<Patch>,
    ) {
        if self.session.is_none() {
            return;
        }
        let delta = std::mem::take(&mut self.pending_delta);
        let checkpoint = Checkpoint {
            generation,
            rng: self.rng.state(),
            evals: self.evals,
            cache_hits: self.cache_hits,
            store_hits: self.store_hits,
            store_writes: self.store_writes,
            minimize_evals: self.minimize_evals,
            rejected_static: self.rejected_static,
            timeouts: self.timeouts,
            panics: self.panics,
            exhausted: self.exhausted,
            pattern_hits: self.pattern_hits,
            patch_applies: self.patch_applies,
            elapsed: self.started.elapsed(),
            busy: self.busy,
            best_patch: best.0.clone(),
            best_score: best.1,
            history: history.to_vec(),
            improvement_steps: improvement_steps.to_vec(),
            population: popn.iter().map(|(p, _)| p.clone()).collect(),
            found: found.clone(),
        };
        let recorder = self.session.as_mut().expect("session checked above");
        recorder.cache_delta(&delta);
        recorder.checkpoint(&checkpoint);
        recorder.sync();
        self.config.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "checkpoint".into(),
                key: String::new(),
                records: popn.len() as u64,
            })
        });
    }

    /// Builds the terminal result for a [`RepairConfig::halt_after`]
    /// stop or an external [`SearchControl`] cancellation: the search
    /// state is on disk, not in the result.
    fn interrupted_result(
        &self,
        best: &(Patch, f64),
        history: &[f64],
        improvement_steps: &[f64],
        generations: u32,
    ) -> RepairResult {
        self.emit_heartbeat("interrupted", u64::from(generations), best.1);
        self.emit_profile();
        let wall_time = self.started.elapsed();
        RepairResult {
            status: RepairStatus::Interrupted,
            best_fitness: best.1,
            patch: best.0.clone(),
            unminimized_len: best.0.len(),
            generations,
            fitness_evals: self.evals,
            wall_time,
            history: history.to_vec(),
            improvement_steps: improvement_steps.to_vec(),
            repaired_source: None,
            cache_hits: self.cache_hits,
            minimize_evals: self.minimize_evals,
            rejected_static: self.rejected_static,
            totals: RunTotals {
                trials: 1,
                fitness_evals: self.evals,
                wall_time,
                generations,
                mutants_rejected_static: self.rejected_static,
                jobs: self.jobs as u32,
                eval_busy: self.busy,
                store_hits: self.store_hits,
                store_writes: self.store_writes,
                timeouts: self.timeouts,
                panics: self.panics,
                exhausted: self.exhausted,
                pattern_hits: self.pattern_hits,
                corpus_skipped: 0,
            },
        }
    }

    /// Runs the trial to completion.
    pub fn run(&mut self) -> RepairResult {
        let obs = self.config.observer.clone();
        let _span = Span::enter("repair", obs.sink());
        let batch_size = self.config.batch_size.max(1);
        let original = Patch::empty();

        let mut best: (Patch, f64);
        let mut improvement_steps: Vec<f64>;
        let mut history: Vec<f64>;
        let mut found: Option<Patch>;
        let mut popn: Vec<(Patch, Evaluation)>;
        let mut generations: u32;
        let original_fl: Rc<FaultLoc>;

        if let Some(state) = self.resume.take() {
            // Restore the checkpoint: RNG, counters, clock, the trial
            // cache, and the population — exactly as they were at the
            // generation boundary. The restored cache entries are
            // already in the session log, so they are *not* pushed to
            // `pending_delta` again.
            self.rng = rand::rngs::StdRng::from_state(state.rng);
            self.evals = state.evals;
            self.cache_hits = state.cache_hits;
            self.store_hits = state.store_hits;
            self.store_writes = state.store_writes;
            self.minimize_evals = state.minimize_evals;
            self.rejected_static = state.rejected_static;
            self.timeouts = state.timeouts;
            self.panics = state.panics;
            self.exhausted = state.exhausted;
            self.pattern_hits = state.pattern_hits;
            self.patch_applies = state.patch_applies;
            self.busy = state.busy;
            self.started = Instant::now()
                .checked_sub(state.elapsed)
                .unwrap_or_else(Instant::now);
            for (patch, eval, _) in &state.l1 {
                self.cache.insert(patch.clone(), eval.clone());
            }
            best = state.best;
            improvement_steps = state.improvement_steps;
            history = state.history;
            found = state.found;
            popn = state.population;
            generations = state.generation;
            // Fault localization of the original is derived state:
            // recompute it silently (the FaultLoc event is already in
            // the pre-interruption trace).
            let original_eval = self
                .cache
                .get(&original)
                .expect("checkpointed cache always holds the original")
                .clone();
            let problem = self.problem;
            original_fl = Rc::new(self.localize_variant(&problem.source, &original_eval));
            let restored = u64::from(generations);
            obs.emit(|| {
                Event::Store(StoreEvent {
                    op: "resume".into(),
                    key: String::new(),
                    records: restored,
                })
            });
        } else {
            let original_eval = self.evaluate_patch(&original);
            original_fl = Rc::new(self.localize_original(&original_eval));

            best = (original.clone(), original_eval.score);
            improvement_steps = vec![original_eval.score];
            history = Vec::new();
            // The original is part of the population: if it already
            // meets the oracle, there is nothing to repair.
            found = (original_eval.score >= 1.0).then(|| original.clone());

            // Seed population (`seed_popn(C, popnSize)`): the original
            // plus single-edit variants *of the original* — matching
            // GenProg's convention of seeding from the input program.
            // Children are generated serially (every RNG draw as
            // before) into batches of `batch_size`, scored across the
            // worker pool, and merged back in submission order; the
            // first plausible child ends the phase without paying for
            // anything beyond its own batch.
            popn = vec![(original.clone(), original_eval)];
            // Every seed child's parent is the original, the first
            // entry of the growing population.
            let mut memo = ParentMemo::new(&popn);
            'seed: while popn.len() < self.config.popn_size
                && !self.out_of_budget()
                && found.is_none()
            {
                // External cancellation lands at batch boundaries. No
                // checkpoint has been written yet in the seed phase, so
                // return without one: a partial-population checkpoint
                // would desynchronize the RNG replay on resume, while a
                // checkpoint-free log restarts the trial from scratch
                // with every already-persisted evaluation answered from
                // the store.
                if self.config.control.is_cancelled() {
                    return self.interrupted_result(&best, &history, &improvement_steps, 0);
                }
                let mut pending: Vec<(Patch, &'static str)> = Vec::new();
                while popn.len() + pending.len() < self.config.popn_size
                    && pending.len() < batch_size
                {
                    pending.extend(self.reproduce(&popn[..1], &mut memo, &original_fl));
                }
                let (batch, ops): (Vec<Patch>, Vec<&'static str>) = pending.into_iter().unzip();
                let evals = self.evaluate_batch_ops(&batch, &ops);
                for (child, eval) in batch.into_iter().zip(evals) {
                    // A missing evaluation means the batch was cut
                    // short by the budget or the deadline.
                    let Some(eval) = eval else { break 'seed };
                    if eval.score > best.1 {
                        best = (child.clone(), eval.score);
                        improvement_steps.push(eval.score);
                    }
                    let plausible = eval.score >= 1.0;
                    popn.push((child.clone(), eval));
                    if plausible {
                        found = Some(child);
                        break 'seed;
                    }
                }
            }
            // The seed population is "generation 0": every trace
            // contains at least one GenerationStats event.
            self.emit_generation(0, &popn, 0);
            self.write_checkpoint(0, &popn, &best, &history, &improvement_steps, &found);
            generations = 0;
            if self.config.halt_after == Some(0) {
                return self.interrupted_result(&best, &history, &improvement_steps, 0);
            }
        }

        'outer: while found.is_none()
            && generations < self.config.max_generations
            && !self.out_of_budget()
        {
            let mut memo = ParentMemo::new(&popn);
            let mut children: Vec<(Patch, Evaluation)> = Vec::new();
            while children.len() < self.config.popn_size && found.is_none() {
                if self.out_of_budget() {
                    break 'outer;
                }
                // Cancellation takes effect within one batch boundary,
                // abandoning the partial generation; resume replays it
                // deterministically from the last checkpoint.
                if self.config.control.is_cancelled() {
                    return self.interrupted_result(
                        &best,
                        &history,
                        &improvement_steps,
                        generations,
                    );
                }
                let mut pending: Vec<(Patch, &'static str)> = Vec::new();
                while children.len() + pending.len() < self.config.popn_size
                    && pending.len() < batch_size
                {
                    pending.extend(self.reproduce(&popn, &mut memo, &original_fl));
                }
                let (batch, ops): (Vec<Patch>, Vec<&'static str>) = pending.into_iter().unzip();
                let evals = self.evaluate_batch_ops(&batch, &ops);
                for (child, eval) in batch.into_iter().zip(evals) {
                    let Some(eval) = eval else { break 'outer };
                    if eval.score > best.1 {
                        best = (child.clone(), eval.score);
                        improvement_steps.push(eval.score);
                    }
                    let plausible = eval.score >= 1.0;
                    children.push((child.clone(), eval));
                    if plausible {
                        found = Some(child);
                        break;
                    }
                }
            }
            // Elitism: the top e% of the current population survive.
            let elite = elite_indices(&memo.fitnesses, self.config.elitism_pct);
            let elites = elite.len() as u64;
            let mut next: Vec<(Patch, Evaluation)> =
                elite.into_iter().map(|i| popn[i].clone()).collect();
            next.extend(children);
            popn = next;
            generations += 1;
            history.push(best.1);
            self.emit_generation(u64::from(generations), &popn, elites);
            self.write_checkpoint(
                generations,
                &popn,
                &best,
                &history,
                &improvement_steps,
                &found,
            );
            if self.config.halt_after == Some(generations) {
                return self.interrupted_result(&best, &history, &improvement_steps, generations);
            }
        }

        let (status, patch, unminimized_len, repaired_source) = match found {
            Some(winning) => {
                let unmin = winning.len();
                let minimized = self.minimize_patch(&winning);
                let (repaired, _) = apply_patch(
                    &self.problem.source,
                    &self.problem.design_modules,
                    &minimized,
                );
                let design_only: Vec<String> = repaired
                    .modules
                    .iter()
                    .filter(|m| self.problem.design_modules.contains(&m.name))
                    .map(print::module_to_string)
                    .collect();
                (
                    RepairStatus::Plausible,
                    minimized,
                    unmin,
                    Some(design_only.join("\n")),
                )
            }
            None => (RepairStatus::Exhausted, best.0.clone(), best.0.len(), None),
        };

        let final_best = if status == RepairStatus::Plausible {
            1.0
        } else {
            best.1
        };
        self.emit_heartbeat("done", u64::from(generations), final_best);
        self.emit_profile();

        let wall_time = self.started.elapsed();
        RepairResult {
            status,
            best_fitness: final_best,
            patch,
            unminimized_len,
            generations,
            fitness_evals: self.evals,
            wall_time,
            history,
            improvement_steps,
            repaired_source,
            cache_hits: self.cache_hits,
            minimize_evals: self.minimize_evals,
            rejected_static: self.rejected_static,
            totals: RunTotals {
                trials: 1,
                fitness_evals: self.evals,
                wall_time,
                generations,
                mutants_rejected_static: self.rejected_static,
                jobs: self.jobs as u32,
                eval_busy: self.busy,
                store_hits: self.store_hits,
                store_writes: self.store_writes,
                timeouts: self.timeouts,
                panics: self.panics,
                exhausted: self.exhausted,
                pattern_hits: self.pattern_hits,
                corpus_skipped: 0,
            },
        }
    }

    /// Minimizes a winning patch, answering plausibility probes from
    /// the trial-level evaluation cache first: patches already scored
    /// during the search are never re-simulated, and every probe — hit
    /// or miss — lands in the same cache and the same counters as the
    /// search's own evaluations.
    fn minimize_patch(&mut self, patch: &Patch) -> Patch {
        let observer = self.config.observer.clone();
        let _span = Span::enter("minimize", observer.sink());
        let problem = self.problem;
        let params = self.config.fitness;
        let scenario = self.scenario;
        let shared = self.shared.clone();
        let eval_timeout = self.config.eval_timeout;
        let faults = self.config.faults.clone();
        let control = self.config.control.clone();
        let cache = &mut self.cache;
        let cache_hits = &mut self.cache_hits;
        let store_hits = &mut self.store_hits;
        let store_writes = &mut self.store_writes;
        let evals = &mut self.evals;
        let minimize_evals = &mut self.minimize_evals;
        let timeouts = &mut self.timeouts;
        let panics = &mut self.panics;
        let exhausted = &mut self.exhausted;
        let original_nodes = self.original_nodes;
        let in_session = self.session.is_some();
        let pending_delta = &mut self.pending_delta;
        let profiler = self.profiler.as_deref();
        minimize(patch, |p| {
            let (eval, cached) = match cache.get(p) {
                Some(e) => {
                    *cache_hits += 1;
                    (e.clone(), true)
                }
                None => {
                    // Minimization probes go through the same two-level
                    // cache as the search: shared-cache hits are not
                    // re-simulated, misses are written through.
                    let parse_span = profiler.map(|pr| pr.span(Phase::Parse));
                    let (variant, _) = apply_patch(&problem.source, &problem.design_modules, p);
                    drop(parse_span);
                    let key =
                        scenario.map(|s| variant_fingerprint(s, &variant, &problem.design_modules));
                    let hit = match (key, &shared) {
                        (Some(k), Some(sh)) => sh.peek(k).map(|e| (k, e)),
                        _ => None,
                    };
                    match hit {
                        Some((k, e)) => {
                            *store_hits += 1;
                            observer.emit(|| {
                                Event::Store(StoreEvent {
                                    op: "hit".into(),
                                    key: k.to_hex(),
                                    records: 1,
                                })
                            });
                            cache.insert(p.clone(), e.clone());
                            if in_session {
                                pending_delta.push((p.clone(), k));
                            }
                            (e, true)
                        }
                        None => {
                            let growth = node_count(&variant) as f64 / original_nodes.max(1) as f64;
                            // Minimization probes run under the same
                            // containment as the search: a hanging or
                            // panicking candidate is classified and the
                            // ddmin loop keeps going.
                            let fault = faults.as_ref().and_then(|f| f.next_eval_fault());
                            let turn = control.turn();
                            let e = match catch_unwind(AssertUnwindSafe(|| {
                                evaluate_variant(
                                    problem,
                                    &variant,
                                    growth,
                                    params,
                                    eval_timeout,
                                    fault,
                                    profiler,
                                )
                            })) {
                                Ok(e) => e,
                                Err(payload) => {
                                    panicked_evaluation(problem, &panic_message(payload), growth)
                                }
                            };
                            drop(turn);
                            *evals += 1;
                            *minimize_evals += 1;
                            match e.outcome {
                                EvalOutcome::Timeout => *timeouts += 1,
                                EvalOutcome::Panicked => *panics += 1,
                                EvalOutcome::ResourceExhausted => *exhausted += 1,
                                _ => {}
                            }
                            observer.emit(|| {
                                Event::EvalOutcome(EvalOutcomeEvent {
                                    kind: e.outcome.as_str().into(),
                                    error: e.error.clone().unwrap_or_default(),
                                })
                            });
                            cache.insert(p.clone(), e.clone());
                            if let Some(k) = key {
                                if in_session {
                                    pending_delta.push((p.clone(), k));
                                }
                                if shared.as_ref().is_some_and(|sh| sh.insert(k, &e)) {
                                    *store_writes += 1;
                                    observer.emit(|| {
                                        Event::Store(StoreEvent {
                                            op: "write".into(),
                                            key: k.to_hex(),
                                            records: 1,
                                        })
                                    });
                                } else if shared.as_ref().is_some_and(|sh| sh.take_degraded_event())
                                {
                                    observer.emit(|| {
                                        Event::Store(StoreEvent {
                                            op: "degraded".into(),
                                            key: String::new(),
                                            records: 1,
                                        })
                                    });
                                }
                            }
                            (e, false)
                        }
                    }
                }
            };
            observer.emit(|| Event::Candidate(eval.candidate_event(p.len(), cached, "minimize")));
            eval.score >= 1.0
        })
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
        totals.trials += 1;
        totals.fitness_evals += result.fitness_evals;
        totals.wall_time += result.wall_time;
        totals.generations += result.generations;
        totals.mutants_rejected_static += result.rejected_static;
        totals.jobs = result.totals.jobs;
        totals.eval_busy += result.totals.eval_busy;
        totals.store_hits += result.totals.store_hits;
        totals.store_writes += result.totals.store_writes;
        totals.timeouts += result.totals.timeouts;
        totals.panics += result.totals.panics;
        totals.exhausted += result.totals.exhausted;
        totals.pattern_hits += result.totals.pattern_hits;
        totals.corpus_skipped += result.totals.corpus_skipped;
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
