//! The ledger: what CirFix repairs, how long the repairs take, and
//! which layer the time goes to, on the 32 Table 3 scenarios.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//! cargo run --release --manifest-path ledger/Cargo.toml -- compare A.jsonl B.jsonl
//! ```
//!
//! Without `--workload` every workload runs, one at a time, each in its
//! own child process. Each metric is printed as one JSON-lines record
//! (workload, metric, unit, kind, median, p25, p75, sample count,
//! `host_cores`); a run of one workload ends with a result line
//! `{"correct", "attempted", "failed", "metrics"}` holding the medians.
//! The process exits 1 when a correctness check fails. Every
//! `CIRFIX_*` environment variable is ignored and the worker count is
//! fixed, so nothing outside the benchmark changes what it measures.
//! Only public APIs are called, and layers are timed from outside, at
//! those calls.
//!
//! # Workloads
//!
//! One process, at most two threads (`jobs` 2 for the searches, 1 for
//! the sweeps).
//!
//! * `table3_gp` — Algorithm 1 via `repair_with_trials` on all 32
//!   scenarios: `RepairConfig::fast` (population 300, 8 generations,
//!   at most 6,000 evaluations a trial), 3 trials, timeout 3600 s, so
//!   every trial stops on its evaluation budget and the counts are
//!   deterministic. *Why:* this is the paper's own experiment, and the
//!   only workload where search coordination, the evaluation cache and
//!   minimization carry real weight.
//! * `sweep_sim_bound` — every unique single-edit candidate (Table 1
//!   templates over the whole design plus statement deletions) of the 5
//!   tate_pairing and reed_solomon_decoder scenarios, 2,100 of them,
//!   through `evaluate_many` at one job: one untimed pass, then timed
//!   passes. `evaluate_many` evaluates on a fresh scoped thread, so the
//!   simulator's thread-local compile cache starts cold for each
//!   scenario, as it does for a new search. *Why:* simulation is most of
//!   the evaluation time here, at thousands of events per evaluation.
//! * `sweep_elab_bound` — the same enumeration over the other 27
//!   scenarios, 5,113 candidates. *Why:* patch apply, elaboration and
//!   compilation take most of the evaluation time here and events per
//!   evaluation stay in the hundreds. An incremental-elaboration gain
//!   shows here and barely moves `sweep_sim_bound`.
//! * `store_cold_warm` — `repair_session` on all 32 scenarios, 1 trial,
//!   jobs 2, into one fresh store: a cold pass simulates and writes,
//!   then a same-seed warm pass reads everything back. *Why:* the store
//!   is used two ways, writes and reads, and neither path appears in the
//!   other workloads. The store lives under `.ledger-tmp/` in the
//!   working directory and is removed afterwards.
//!
//! The search seed is fixed ([`search::SEARCH_SEED`]), like the
//! scenarios: the repair counts are exact, so any change to them is a
//! change in behaviour, not noise. `--seed` permutes the order in which
//! scenarios and candidates are processed; every result is independent
//! of that order, and each run prints a digest of its results that must
//! be equal for every seed.
//!
//! # End-to-end metrics
//!
//! Measured with tracing off. Every workload reports every metric.
//!
//! * `setup_s` — building the problems (parse, and simulate each golden
//!   design for its oracle) and enumerating candidates; the median of
//!   the set-up and its repetitions between the run's measured steps
//!   (one after each sweep pass, one after each scenario of a search
//!   pass).
//! * `repair_wall_s` — the median pass: time inside `repair_with_trials`
//!   summed over the 32 scenarios (`table3_gp`); one `evaluate_many`
//!   pass over all candidates (sweeps); the warm rerun of all 32
//!   sessions (`store_cold_warm`).
//! * `evals_per_s` — unique simulations per second: cache hits, store
//!   hits and dedupe copies never count. For `store_cold_warm` it is the
//!   cold pass, which simulates and writes.
//! * `plausible_repairs`, `correct_repairs` — scenarios repaired, and
//!   repairs that also pass the project's held-out verification bench.
//!   For the sweeps, a scenario counts when any single edit is plausible,
//!   and the first such edit in enumeration order is verified.
//! * `evals_to_repair` — simulations summed over the scenarios, up to
//!   the first plausible repair or the end of the budget (minimization
//!   excluded); for the sweeps, candidates up to the first plausible one
//!   in enumeration order.
//! * `peak_rss_mb` — the process's `VmHWM` (Linux), read after the
//!   first pass so it covers the same work on every host.
//!
//! Failed operations (panicked or lost evaluations, session and
//! verification errors) are counted in the result line's `failed`.
//! Elaboration failures of mutants are normal outcomes and do not count.
//!
//! # Per-layer metrics
//!
//! Measured by a separate `--trace` run. The sweeps decompose every
//! candidate into the calls `evaluate` makes (`apply_patch`,
//! `cirfix_sim::elaborate` + `Simulator::from_design`,
//! `Simulator::add_probe` + `run`, `fitness`), timed from outside; the
//! scores must equal `evaluate_many`'s bit for bit. The searches read
//! the same layers from the profiler's phase totals through an
//! `Observer`. Each metric is listed with the end-to-end metric it
//! should move; the other workloads are predicted flat.
//!
//! * `apply_us` (`cirfix::patch`) — `evals_per_s` on `sweep_elab_bound`,
//!   and `repair_wall_s` on `table3_gp`, where `apply_patch` runs on the
//!   coordinating thread while the workers wait.
//! * `elaborate_us` (`cirfix-sim` elaboration and process compilation,
//!   which `Simulator::new` times as one) — `evals_per_s` on
//!   `sweep_elab_bound`; also `repair_wall_s` on `table3_gp`, because
//!   every batch runs on new worker threads whose thread-local compile
//!   cache starts cold.
//! * `simulate_us`, `events_per_eval`, `ns_per_event` (`cirfix-sim`
//!   run) — `evals_per_s` on `sweep_sim_bound`.
//! * `score_us` (`cirfix::fitness`) — `evals_per_s` on
//!   `sweep_sim_bound`, where traces are long.
//! * `faultloc_us` (`cirfix::faultloc`) — measured on each scenario's
//!   original design; predicted flat.
//! * `elab_fail_ratio` — evaluations wasted on candidates that do not
//!   elaborate; `evals_to_repair`.
//! * `cache_hit_ratio` — candidates answered without a simulation
//!   (trial cache, cross-trial or store hits); `repair_wall_s` on the
//!   searches. The sweeps' candidates are unique, so theirs is 0.
//! * `unattributed_share` — the share of worker capacity (wall × jobs)
//!   outside every timed layer: search coordination, fingerprinting and
//!   idle workers on `table3_gp`, store loading on `store_cold_warm`.
//!   Moves `repair_wall_s` there; on the sweeps it stays near 0.
//! * `sims` — unique simulations in the traced pass; `evals_to_repair`.
//!
//! # Correctness checks
//!
//! Each failure is printed and makes the run exit 1.
//!
//! * Every sweep pass, and the traced decomposition, scores every
//!   candidate exactly as the first `evaluate_many` pass did.
//! * The sweeps enumerate exactly [`SIM_BOUND_CANDIDATES`] and
//!   [`ELAB_BOUND_CANDIDATES`] unique candidates.
//! * Every plausible search result re-scores exactly 1.0 under
//!   `evaluate`, and every pass of a run finds the same results.
//! * The warm store pass runs zero simulations and reproduces every
//!   cold result's search outcome byte for byte, and `Store::verify` is
//!   clean after the cold pass.

pub mod compare;
pub mod search;
pub mod stats;
pub mod sweep;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cirfix::{evaluate, fault_localization, FitnessParams, Patch};
use cirfix_benchmarks::{scenarios, Scenario};

use search::{LayerSink, SearchScenario};
use stats::Metric;
use sweep::SweepScenario;

/// The workloads, in the order a full run measures them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 through `repair_with_trials` on all 32 scenarios.
    Table3Gp,
    /// Every unique single-edit candidate of the five tate_pairing and
    /// reed_solomon_decoder scenarios through `evaluate_many`.
    SweepSimBound,
    /// The same enumeration over the other 27 scenarios.
    SweepElabBound,
    /// `repair_session` on all 32 scenarios into a fresh store, cold,
    /// then a same-seed warm rerun.
    StoreColdWarm,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Table3Gp,
        Workload::SweepSimBound,
        Workload::SweepElabBound,
        Workload::StoreColdWarm,
    ];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Gp => "table3_gp",
            Workload::SweepSimBound => "sweep_sim_bound",
            Workload::SweepElabBound => "sweep_elab_bound",
            Workload::StoreColdWarm => "store_cold_warm",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios the workload covers, in registry order.
    pub fn scenarios(self) -> Vec<&'static Scenario> {
        let all = scenarios().iter();
        match self {
            Workload::Table3Gp | Workload::StoreColdWarm => all.collect(),
            Workload::SweepSimBound => all.filter(|s| sim_bound(s)).collect(),
            Workload::SweepElabBound => all.filter(|s| !sim_bound(s)).collect(),
        }
    }
}

/// The designs whose candidates spend most of their time simulating.
fn sim_bound(s: &Scenario) -> bool {
    matches!(s.project, "tate_pairing" | "reed_solomon_decoder")
}

/// Unique single-edit candidates of the `sweep_sim_bound` scenarios.
pub const SIM_BOUND_CANDIDATES: usize = 2_100;

/// Unique single-edit candidates of the `sweep_elab_bound` scenarios.
pub const ELAB_BOUND_CANDIDATES: usize = 5_113;

/// How a run measures.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seeds the order scenarios and candidates are processed in.
    pub seed: u64,
    /// Measure for about this long: passes start while one more is
    /// predicted to end in time, after each workload's minimum number
    /// of passes.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the store workload creates its stores, inside the working
    /// directory.
    pub store_root: PathBuf,
    /// Restricts the workload to its first `n` scenarios (tests only;
    /// the candidate-count checks are skipped then).
    pub limit: Option<usize>,
    /// Evaluation worker threads for the search workloads.
    pub jobs: usize,
}

impl RunOptions {
    /// The benchmark's own settings for `seed`.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunOptions {
        RunOptions {
            seed,
            seconds,
            trace,
            store_root: PathBuf::from(".ledger-tmp"),
            limit: None,
            jobs: search::JOBS,
        }
    }
}

/// What one run of one workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every metric, with all its samples.
    pub metrics: Vec<Metric>,
    /// Operations attempted (evaluations and sessions).
    pub attempted: u64,
    /// Operations that failed: panicked evaluations, session or
    /// verification errors.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Digest of the workload's results; equal across seeds and passes.
    pub digest: String,
}

impl Outcome {
    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Busy time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    /// Exclusive busy nanoseconds.
    pub nanos: u64,
    /// Calls into the layer.
    pub calls: u64,
}

impl Layer {
    /// Adds one call of duration `d`.
    pub fn add(&mut self, d: Duration) {
        self.nanos += d.as_nanos() as u64;
        self.calls += 1;
    }

    /// Mean microseconds per call.
    pub fn mean_us(&self) -> f64 {
        self.nanos as f64 / 1e3 / self.calls.max(1) as f64
    }

    fn plus(self, other: Layer) -> Layer {
        Layer {
            nanos: self.nanos + other.nanos,
            calls: self.calls + other.calls,
        }
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Patch application (`apply_patch`; the profiler's `parse` phase).
    pub apply: Layer,
    /// Elaboration and process compilation (`elaborate` +
    /// `Simulator::from_design`, which `Simulator::new` times as one).
    pub elaborate: Layer,
    /// `Simulator::run` (with `add_probe`).
    pub simulate: Layer,
    /// `fitness`.
    pub score: Layer,
    /// Store and shared-cache reads and writes (search workloads only).
    pub store: Layer,
    /// Simulator events (active, inactive, NBA) of completed runs.
    pub events: u64,
    /// Fresh evaluations.
    pub evals: u64,
    /// Fresh evaluations that failed to elaborate.
    pub elab_failures: u64,
    /// Candidates looked up, including cache and store hits.
    pub candidates: u64,
    /// Candidates answered without a simulation.
    pub cached: u64,
}

impl LayerTimes {
    /// Adds another pass's totals.
    pub fn add(&mut self, o: &LayerTimes) {
        self.apply = self.apply.plus(o.apply);
        self.elaborate = self.elaborate.plus(o.elaborate);
        self.simulate = self.simulate.plus(o.simulate);
        self.score = self.score.plus(o.score);
        self.store = self.store.plus(o.store);
        self.events += o.events;
        self.evals += o.evals;
        self.elab_failures += o.elab_failures;
        self.candidates += o.candidates;
        self.cached += o.cached;
    }

    /// Busy nanoseconds in any timed layer.
    pub fn attributed_nanos(&self) -> u64 {
        self.apply.nanos
            + self.elaborate.nanos
            + self.simulate.nanos
            + self.score.nanos
            + self.store.nanos
    }
}

/// Per-layer samples, one per traced pass.
#[derive(Debug, Default)]
struct LayerSamples {
    apply_us: Vec<f64>,
    elaborate_us: Vec<f64>,
    simulate_us: Vec<f64>,
    score_us: Vec<f64>,
    events_per_eval: Vec<f64>,
    ns_per_event: Vec<f64>,
    elab_fail_ratio: Vec<f64>,
    cache_hit_ratio: Vec<f64>,
    unattributed_share: Vec<f64>,
    sims: Vec<f64>,
}

impl LayerSamples {
    /// Records one traced pass that took `wall` on `jobs` workers.
    fn push(&mut self, l: &LayerTimes, wall: Duration, jobs: usize) {
        self.apply_us.push(l.apply.mean_us());
        self.elaborate_us.push(l.elaborate.mean_us());
        self.simulate_us.push(l.simulate.mean_us());
        self.score_us.push(l.score.mean_us());
        self.events_per_eval
            .push(l.events as f64 / l.score.calls.max(1) as f64);
        self.ns_per_event
            .push(l.simulate.nanos as f64 / l.events.max(1) as f64);
        self.elab_fail_ratio
            .push(l.elab_failures as f64 / l.evals.max(1) as f64);
        self.cache_hit_ratio
            .push(l.cached as f64 / l.candidates.max(1) as f64);
        let capacity = wall.as_nanos() as f64 * jobs as f64;
        self.unattributed_share
            .push(1.0 - l.attributed_nanos() as f64 / capacity);
        self.sims.push(l.evals as f64);
    }

    fn into_metrics(self, faultloc_us: Vec<f64>) -> Vec<Metric> {
        vec![
            Metric::layer("apply_us", "us", self.apply_us),
            Metric::layer("elaborate_us", "us", self.elaborate_us),
            Metric::layer("simulate_us", "us", self.simulate_us),
            Metric::layer("score_us", "us", self.score_us),
            Metric::layer("faultloc_us", "us", faultloc_us),
            Metric::layer("events_per_eval", "count", self.events_per_eval),
            Metric::layer("ns_per_event", "ns", self.ns_per_event),
            Metric::layer("elab_fail_ratio", "ratio", self.elab_fail_ratio),
            Metric::layer("cache_hit_ratio", "ratio", self.cache_hit_ratio),
            Metric::layer("unattributed_share", "ratio", self.unattributed_share),
            Metric::layer("sims", "count", self.sims),
        ]
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Timed sweep passes a run takes at least.
const MIN_SWEEP_PASSES: usize = 3;

/// Decides how many passes a run measures: at least `min`, then another
/// only while it is predicted (as long as the longest pass so far) to
/// end within the run's seconds, so a run never overshoots by a pass.
struct PassClock {
    start: Instant,
    lap_start: Instant,
    longest: Duration,
    laps: usize,
    seconds: f64,
    min: usize,
}

impl PassClock {
    fn new(seconds: f64, min: usize) -> PassClock {
        let now = Instant::now();
        PassClock {
            start: now,
            lap_start: now,
            longest: Duration::ZERO,
            laps: 0,
            seconds,
            min,
        }
    }

    /// Whether to measure another pass.
    fn another(&self) -> bool {
        self.laps < self.min || (self.start.elapsed() + self.longest).as_secs_f64() <= self.seconds
    }

    /// Marks the end of a pass, everything it did included.
    fn lap(&mut self) {
        let now = Instant::now();
        self.longest = self.longest.max(now - self.lap_start);
        self.lap_start = now;
        self.laps += 1;
    }
}

/// Times a workload's set-up. Besides the set-up the run uses, an
/// untraced run repeats it between measured steps (after each sweep
/// pass, after each scenario of a search), so the repetitions span the
/// whole run: a burst of host contention then moves their median no
/// more than it moves the other timings.
struct Setup<F> {
    build: F,
    trace: bool,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    fn new(trace: bool, build: F) -> Setup<F> {
        Setup {
            build,
            trace,
            secs: Vec::new(),
        }
    }

    /// Builds once, timed.
    fn timed(&mut self) -> T {
        let t0 = Instant::now();
        let built = (self.build)();
        self.secs.push(t0.elapsed().as_secs_f64());
        built
    }

    /// One more timed repetition, thrown away; none when tracing.
    fn repeat(&mut self) {
        if !self.trace {
            drop(std::hint::black_box(self.timed()));
        }
    }
}

/// Microseconds `fault_localization` takes on each scenario's original
/// design (median of five calls each), one sample per scenario.
fn faultloc_us<'a>(problems: impl Iterator<Item = &'a cirfix::RepairProblem>) -> Vec<f64> {
    problems
        .map(|p| {
            let eval = evaluate(p, &Patch::empty(), FitnessParams::default());
            let modules: Vec<_> = p
                .source
                .modules
                .iter()
                .filter(|m| p.design_modules.contains(&m.name))
                .collect();
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(fault_localization(&modules, &eval.mismatched));
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            stats::Summary::of(&times).median
        })
        .collect()
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    setup_s: Vec<f64>,
    repair_wall_s: Vec<f64>,
    evals_per_s: Vec<f64>,
    plausible: u64,
    correct: u64,
    evals_to_repair: u64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn into_metrics(self) -> Vec<Metric> {
        vec![
            Metric::e2e("setup_s", "s", self.setup_s),
            Metric::e2e("repair_wall_s", "s", self.repair_wall_s),
            Metric::e2e("evals_per_s", "1/s", self.evals_per_s),
            Metric::e2e("plausible_repairs", "count", vec![self.plausible as f64]),
            Metric::e2e("correct_repairs", "count", vec![self.correct as f64]),
            Metric::e2e(
                "evals_to_repair",
                "count",
                vec![self.evals_to_repair as f64],
            ),
            Metric::e2e("peak_rss_mb", "MB", vec![self.peak_rss_mb]),
        ]
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &RunOptions) -> Outcome {
    let mut chosen = workload.scenarios();
    if let Some(n) = opts.limit {
        chosen.truncate(n);
    }
    match workload {
        Workload::Table3Gp | Workload::StoreColdWarm => run_search(workload, &chosen, opts),
        Workload::SweepSimBound | Workload::SweepElabBound => run_sweep(workload, &chosen, opts),
    }
}

fn run_sweep(workload: Workload, chosen: &[&'static Scenario], opts: &RunOptions) -> Outcome {
    let mut setup = Setup::new(opts.trace, || {
        chosen
            .iter()
            .map(|s| SweepScenario::new(s, opts.seed))
            .collect::<Vec<_>>()
    });
    let set = setup.timed();
    let mut out = Outcome::default();
    let n: usize = set.iter().map(|s| s.candidates.len()).sum();
    let expected = match workload {
        Workload::SweepSimBound => SIM_BOUND_CANDIDATES,
        _ => ELAB_BOUND_CANDIDATES,
    };
    if opts.limit.is_none() && n != expected {
        out.errors
            .push(format!("{n} unique candidates, expected {expected}"));
    }

    // The untimed first pass fixes the reference scores.
    let (_, first) = sweep::pass(&set);
    let peak_rss_mb = peak_rss(&mut out.errors);
    let reference = sweep::keyed(&first);
    out.digest = sweep::digest(&set, &reference);
    let lost = first
        .iter()
        .flatten()
        .filter(|e| e.outcome == cirfix::EvalOutcome::Panicked)
        .count() as u64;
    out.failed += lost;
    out.attempted += n as u64;

    let mut clock = PassClock::new(opts.seconds, MIN_SWEEP_PASSES);
    let mut walls = Vec::new();
    let mut layers = LayerSamples::default();
    while clock.another() {
        out.attempted += n as u64;
        let (wall, keyed) = if opts.trace {
            let (wall, l, keyed) = sweep::traced_pass(&set);
            layers.push(&l, wall, 1);
            (wall, keyed)
        } else {
            let (wall, scores) = sweep::pass(&set);
            (wall, sweep::keyed(&scores))
        };
        if keyed != reference {
            let what = if opts.trace {
                "the traced decomposition"
            } else {
                "a timed pass"
            };
            out.errors.push(format!(
                "{what} scored differently from evaluate_many: {} != {}",
                sweep::digest(&set, &keyed),
                out.digest
            ));
        }
        walls.push(wall.as_secs_f64());
        setup.repeat();
        clock.lap();
    }

    if opts.trace {
        out.metrics = layers.into_metrics(faultloc_us(set.iter().map(|s| &s.problem)));
        return out;
    }
    let tally = sweep::tally(&set, &first);
    out.failed += tally.verify_errors;
    if tally.verify_errors > 0 {
        out.errors
            .push(format!("{} verification runs errored", tally.verify_errors));
    }
    out.metrics = EndToEnd {
        setup_s: setup.secs,
        evals_per_s: walls.iter().map(|w| n as f64 / w).collect(),
        repair_wall_s: walls,
        plausible: tally.plausible,
        correct: tally.correct,
        evals_to_repair: tally.evals_to_repair,
        peak_rss_mb,
    }
    .into_metrics();
    out
}

fn run_search(workload: Workload, chosen: &[&'static Scenario], opts: &RunOptions) -> Outcome {
    let mut setup = Setup::new(opts.trace, || {
        chosen
            .iter()
            .map(|s| SearchScenario::new(s))
            .collect::<Vec<_>>()
    });
    let set = setup.timed();
    let mut out = Outcome::default();
    let mut clock = PassClock::new(opts.seconds, 1);
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut layers = LayerSamples::default();
    let mut tally = None;
    let mut peak_rss_mb = 0.0;
    let mut pass_no = 0u64;
    while clock.another() {
        // Every pass takes the scenarios in a fresh seeded order; the
        // results may not depend on it.
        let order = permutation(set.len(), opts.seed.wrapping_add(pass_no));
        let (sink, observer) = if opts.trace {
            let (sink, observer) = LayerSink::observer();
            (Some(sink), observer)
        } else {
            (None, cirfix::Observer::none())
        };
        let cfg = search::config(opts.jobs, observer);
        let (wall, rate, t) = match workload {
            Workload::Table3Gp => {
                let (wall, t) = search::gp_pass(&set, &order, &cfg, &mut || setup.repeat());
                let rate = t.sims as f64 / wall.as_secs_f64();
                (wall, rate, t)
            }
            _ => {
                let dir = opts
                    .store_root
                    .join(format!("store-{}-{pass_no}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let p = search::store_pass(&set, &order, &cfg, &dir, &mut || setup.repeat());
                remove_store(&dir, &mut out.errors);
                out.attempted += 2 * set.len() as u64;
                let rate = p.tally.sims as f64 / p.cold_wall.as_secs_f64();
                let wall = if opts.trace {
                    p.cold_wall + p.warm_wall
                } else {
                    p.warm_wall
                };
                (wall, rate, p.tally)
            }
        };
        if let Some(sink) = sink {
            layers.push(&sink.totals(), wall, opts.jobs);
        }
        out.attempted += t.sims;
        out.failed += t.failed();
        out.errors.extend(t.errors.iter().cloned());
        match &tally {
            None => {
                peak_rss_mb = peak_rss(&mut out.errors);
                out.digest = t.digest.clone();
                tally = Some(t);
            }
            Some(first) if first.digest != t.digest => out.errors.push(format!(
                "pass {pass_no} found different results: {} != {}",
                t.digest, first.digest
            )),
            Some(_) => {}
        }
        walls.push(wall.as_secs_f64());
        rates.push(rate);
        pass_no += 1;
        clock.lap();
    }
    let tally = tally.expect("at least one pass");
    if opts.trace {
        out.metrics = layers.into_metrics(faultloc_us(set.iter().map(|s| &s.problem)));
        return out;
    }
    out.metrics = EndToEnd {
        setup_s: setup.secs,
        repair_wall_s: walls,
        evals_per_s: rates,
        plausible: tally.plausible,
        correct: tally.correct,
        evals_to_repair: tally.evals_to_repair,
        peak_rss_mb,
    }
    .into_metrics();
    out
}

/// The process's peak RSS so far. Read after the first pass, so the
/// amount of work behind it does not depend on how many passes fit
/// into the run.
fn peak_rss(errors: &mut Vec<String>) -> f64 {
    stats::peak_rss_mb().unwrap_or_else(|| {
        errors.push("/proc/self/status reports no VmHWM".to_string());
        0.0
    })
}

fn remove_store(dir: &Path, errors: &mut Vec<String>) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        errors.push(format!("cannot remove {}: {e}", dir.display()));
    }
    if let Some(parent) = dir.parent() {
        // Only succeeds once the store root is empty.
        let _ = std::fs::remove_dir(parent);
    }
}
