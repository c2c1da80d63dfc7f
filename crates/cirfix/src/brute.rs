//! A brute-force baseline: uniform edits, no fault localization, no
//! fitness guidance.
//!
//! §5.1 of the paper compares CirFix against "a more straightforward
//! search algorithm applying edits at uniform to a circuit design" and
//! reports that it does not scale. This module implements that baseline:
//! it enumerates single edits (then random multi-edit patches) in an
//! arbitrary order and accepts only exact (fitness-1.0) matches, ignoring
//! partial fitness signals.
//!
//! Like the GP engine, the baseline fans its simulations out over a
//! pool of evaluation workers spawned once for the run: patch
//! generation stays serial (RNG draws unchanged), batches are evaluated
//! across workers, and results merge back in submission order — so the
//! accepted repair, the evaluation count, and the best-so-far trajectory
//! are identical for any [`BruteConfig::jobs`] value.

use std::time::{Duration, Instant};

use cirfix_telemetry::{Event, HeartbeatEvent, Observer, Profiler, Span};
use rand::SeedableRng;

use crate::engine::{resolve_jobs, Pool};
use crate::faultloc::FaultLoc;
use crate::fitness::FitnessParams;
use crate::mutation::{all_stmt_ids, mutate, MutationParams};
use crate::oracle::RepairProblem;
use crate::patch::{apply_patch, Edit, Original, Patch};
use crate::repair::{contained, evaluate_profiled, RepairResult, RepairStatus, RunTotals};
use crate::templates::applicable_templates;

/// Resource bounds for the brute-force baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteConfig {
    /// Wall-clock budget.
    pub timeout: Duration,
    /// Maximum number of design simulations.
    pub max_evals: u64,
    /// RNG seed for the random phases.
    pub seed: u64,
    /// Fitness weighting (used only for the success test).
    pub fitness: FitnessParams,
    /// Evaluation worker threads; `0` means auto (see
    /// [`resolve_jobs`](crate::resolve_jobs)). The outcome is
    /// bit-identical for every value.
    pub jobs: usize,
    /// Patches per parallel dispatch (independent of `jobs`, so batch
    /// composition does not depend on the worker count).
    pub batch_size: usize,
    /// Telemetry destination. Defaults to a disabled observer.
    pub observer: Observer,
}

impl Default for BruteConfig {
    fn default() -> BruteConfig {
        BruteConfig {
            timeout: Duration::from_secs(60),
            max_evals: 10_000,
            seed: 1,
            fitness: FitnessParams::default(),
            jobs: 0,
            batch_size: 32,
            observer: Observer::none(),
        }
    }
}

/// Runs the brute-force baseline: random unguided 1–3-edit patches
/// (fix localization off, no fault localization, no fitness guidance) —
/// the paper's "edits applied at uniform to a circuit design".
pub fn brute_force_repair(problem: &RepairProblem, config: BruteConfig) -> RepairResult {
    let started = Instant::now();
    let _span = Span::enter("brute_force", config.observer.sink());
    let jobs = resolve_jobs(config.jobs);
    let original = Original::new(&problem.source, &problem.design_modules);
    let profiler = config.observer.enabled().then(Profiler::new);
    std::thread::scope(|scope| {
        let pool = Pool::new(scope, jobs);
        search(
            problem,
            &config,
            &pool,
            jobs,
            &original,
            profiler.as_ref(),
            started,
        )
    })
}

/// The baseline's search, on the run's worker pool.
fn search<'env>(
    problem: &'env RepairProblem,
    config: &'env BruteConfig,
    pool: &Pool<'env>,
    jobs: usize,
    original: &'env Original<'env>,
    profiler: Option<&'env Profiler>,
    started: Instant,
) -> RepairResult {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let batch_size = config.batch_size.max(1);
    let deadline = started.checked_add(config.timeout);
    let mut evals: u64 = 0;
    let mut busy = Duration::ZERO;
    let mut best = (Patch::empty(), 0.0f64);
    let empty_fl = FaultLoc::default();
    let observer = &config.observer;
    // Terminal snapshot: one heartbeat plus the per-phase busy profile,
    // mirroring what the GP engine emits at end of run.
    let emit_profile = |best_fitness: f64, evals: u64, wall: Duration| {
        observer.emit(|| {
            let secs = wall.as_secs_f64();
            Event::Heartbeat(HeartbeatEvent {
                status: "done".to_string(),
                generation: 0,
                best_fitness,
                fitness_evals: evals,
                cache_hits: 0,
                store_hits: 0,
                timeouts: 0,
                panics: 0,
                exhausted: 0,
                evals_per_s: if secs > 0.0 { evals as f64 / secs } else { 0.0 },
            })
        });
        if let Some(p) = profiler {
            for event in p.phase_events() {
                observer.emit(|| Event::Phase(event.clone()));
            }
            if let Some(h) = p.eval_histogram() {
                observer.emit(|| Event::Histogram(h.clone()));
            }
        }
    };
    let totals = |evals: u64, wall: Duration, busy: Duration| RunTotals {
        trials: 1,
        fitness_evals: evals,
        wall_time: wall,
        jobs: jobs as u32,
        eval_busy: busy,
        ..RunTotals::default()
    };

    // Evaluates one batch across the worker pool and merges the
    // results in submission order, stopping at the first exact match —
    // so the accepted patch is the first in *enumeration* order, not
    // whichever simulation finishes first. Returns the winning result,
    // or `None` to continue. `cut` is set when the batch was truncated
    // by the deadline (the caller's loop then re-checks its budget).
    let run_chunk = |patches: &[Patch],
                     evals: &mut u64,
                     busy: &mut Duration,
                     best: &mut (Patch, f64),
                     cut: &mut bool|
     -> Option<RepairResult> {
        // Budget reservation at dispatch: never simulate more patches
        // than the evaluation budget allows.
        let admit = (config.max_evals.saturating_sub(*evals) as usize).min(patches.len());
        if admit < patches.len() {
            *cut = true;
        }
        // Same containment as the GP loop: a panicking candidate is
        // classified worst-fitness, not mistaken for a deadline cut.
        let (results, batch_busy) = pool.run(patches[..admit].to_vec(), deadline, move |patch| {
            contained(problem, 1.0, || {
                evaluate_profiled(problem, &patch, config.fitness, original, profiler)
            })
        });
        *busy += batch_busy;
        for (patch, result) in patches[..admit].iter().zip(results) {
            let Some(eval) = result else {
                // Deadline cancelled the rest of the batch.
                *cut = true;
                return None;
            };
            *evals += 1;
            observer.emit(|| Event::Candidate(eval.candidate_event(patch.len(), false, "brute")));
            if eval.score > best.1 {
                *best = (patch.clone(), eval.score);
            }
            if eval.score >= 1.0 {
                let wall = started.elapsed();
                emit_profile(1.0, *evals, wall);
                return Some(RepairResult {
                    status: RepairStatus::Plausible,
                    best_fitness: 1.0,
                    unminimized_len: patch.len(),
                    patch: patch.clone(),
                    generations: 0,
                    fitness_evals: *evals,
                    wall_time: wall,
                    history: Vec::new(),
                    improvement_steps: Vec::new(),
                    repaired_source: None,
                    cache_hits: 0,
                    minimize_evals: 0,
                    totals: totals(*evals, wall, *busy),
                });
            }
        }
        None
    };

    // Phase 1: systematic single edits — every applicable template
    // instance (with no fault localization, all nodes are fair game)
    // plus deletion of every statement, evaluated batch by batch.
    let empty_fl_all = FaultLoc::default();
    let mut singles: Vec<Edit> =
        applicable_templates(&problem.source, &problem.design_modules, &empty_fl_all);
    singles.extend(
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .map(|target| Edit::DeleteStmt { target }),
    );
    let singles: Vec<Patch> = singles.into_iter().map(Patch::single).collect();
    for chunk in singles.chunks(batch_size) {
        if started.elapsed() >= config.timeout || evals >= config.max_evals {
            break;
        }
        let mut cut = false;
        if let Some(done) = run_chunk(chunk, &mut evals, &mut busy, &mut best, &mut cut) {
            return done;
        }
        if cut {
            break;
        }
    }

    // Phase 2: random multi-edit patches, unguided and uniform. Patch
    // generation consumes the RNG serially; `attempts` replays the
    // serial engine's depth schedule (it counted evaluations, which
    // equalled patches generated) deterministically for any job count.
    let params = MutationParams {
        fix_localization: false,
        ..MutationParams::default()
    };
    let mut attempts = evals;
    let mut dry = false;
    while !dry && started.elapsed() < config.timeout && evals < config.max_evals {
        let mut pending: Vec<Patch> = Vec::new();
        while pending.len() < batch_size && evals + (pending.len() as u64) < config.max_evals {
            let depth = 1 + (attempts % 3) as usize;
            attempts += 1;
            let mut patch = Patch::empty();
            for _ in 0..depth {
                let (variant, _) = apply_patch(&problem.source, &problem.design_modules, &patch);
                if let Some(edit) = mutate(
                    &variant,
                    &problem.design_modules,
                    &empty_fl,
                    params,
                    &mut rng,
                ) {
                    patch = patch.with(edit);
                }
            }
            if patch.is_empty() {
                // Mutation found nothing to do; evaluate what we have
                // and stop, like the serial engine did.
                dry = true;
                break;
            }
            pending.push(patch);
        }
        if pending.is_empty() {
            break;
        }
        let mut cut = false;
        if let Some(done) = run_chunk(&pending, &mut evals, &mut busy, &mut best, &mut cut) {
            return done;
        }
        if cut {
            break;
        }
    }

    let wall = started.elapsed();
    emit_profile(best.1, evals, wall);
    RepairResult {
        status: RepairStatus::Exhausted,
        best_fitness: best.1,
        unminimized_len: best.0.len(),
        patch: best.0,
        generations: 0,
        fitness_evals: evals,
        wall_time: wall,
        history: Vec::new(),
        improvement_steps: Vec::new(),
        repaired_source: None,
        cache_hits: 0,
        minimize_evals: 0,
        totals: totals(evals, wall, busy),
    }
}
