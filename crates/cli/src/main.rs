#![warn(missing_docs)]

//! `cirfix` — command-line automated repair for Verilog designs.
//!
//! The equivalent of the paper artifact's `repair.py` driven by
//! `repair.conf` (§A.4–A.5):
//!
//! ```text
//! cirfix repair <repair.conf> [--key value ...]   search for a repair
//! cirfix simulate <repair.conf>                   run the instrumented testbench
//! cirfix fitness <repair.conf>                    score the faulty design
//! cirfix localize <repair.conf>                   print the fault-localization set
//! cirfix verify <repair.conf>                     check a repaired design against
//!                                                 the golden one on a held-out bench
//! cirfix lint <design.v|repair.conf> [--json]     run the static-analysis passes
//! cirfix store <ls|verify|gc> <store-dir>         inspect or maintain a store
//! cirfix mine <store-dir|corpus.jsonl> [--out FILE] [--jobs N] [--json]
//!                                                 learn fix patterns from the repair corpus
//! cirfix report <trace.jsonl|store-dir> [--session NAME] [--json]
//!                                                 fold a trace or session into a run report
//! cirfix watch <trace.jsonl> [--interval-ms N] [--once]
//!                                                 live-tail a growing trace's heartbeats
//! cirfix fuzz [--seed N] [--budget N] [--jobs N] [--out FILE] [--store DIR]
//!                                                 fuzz the frontend with transplanted
//!                                                 defects and mutated sources
//! cirfix fuzz replay <store-dir|crashes.jsonl>    replay the crash regression corpus
//! cirfix fuzz gen --out DIR [--count N] [--classify]
//!                                                 emit a generated scenario tranche
//! ```
//!
//! Repair as a service (see `crates/serve`):
//!
//! ```text
//! cirfix serve <store-dir> [--socket PATH|tcp:ADDR] [--max-active N]
//!              [--max-queue N] [--max-evals-per-job N]
//!              [--max-seconds-per-job N] [--trace-out PATH]
//!              [--gc-interval-s N]                run the repair daemon
//! cirfix submit <repair.conf> [--socket ADDR] [--key value ...]
//!                                                 queue a repair job
//! cirfix status [JOB] [--socket ADDR]             list jobs (or one)
//! cirfix watch <JOB> --socket ADDR [--once]       stream a job's heartbeats
//! cirfix cancel <JOB> [--socket ADDR]             stop a job (resumably)
//! cirfix shutdown [--socket ADDR]                 drain and stop the daemon
//! ```
//!
//! Observability flags (for `repair` and `simulate`):
//!
//! ```text
//! --trace-out <path>   stream telemetry events as JSON lines to <path>
//! --trace-timing MODE  `wall` (default) records real durations; `off`
//!                      zeroes every duration/throughput field and drops
//!                      histograms, so traces are byte-identical across
//!                      `--jobs` values
//! --metrics            print an aggregate telemetry summary at the end
//! ```
//!
//! Search-space pruning flags (for `repair`):
//!
//! ```text
//! --static-filter      lint-gate mutants before simulation
//! --lint-prior         bias mutation targets toward lint findings
//! --mined-patterns F   load a `cirfix mine` patterns file: mined
//!                      templates join the repair catalog with
//!                      support-proportional weight, and the learned
//!                      mutation prior composes with --lint-prior
//! ```
//!
//! Parallel evaluation (for `repair`):
//!
//! ```text
//! --jobs N             fitness-evaluation worker threads; 0 (the
//!                      default) means auto — $CIRFIX_JOBS when set,
//!                      otherwise every available core. Results are
//!                      bit-identical for every value of N.
//! --batch-size N       candidates per parallel dispatch (default 32)
//! ```
//!
//! Fault containment (for `repair`):
//!
//! ```text
//! --eval-timeout S     per-candidate wall-clock budget in seconds
//!                      (fractions allowed); 0 (the default) = unbudgeted
//! --sim-step-limit N   cap on total simulator operations per candidate
//! --chaos SPEC         deterministic fault injection for chaos testing,
//!                      e.g. "panic@5,hang@7,storefail@2,transient"
//! ```
//!
//! Persistent store & resume (for `repair`):
//!
//! ```text
//! --store <dir>        write evaluations, session checkpoints, and
//!                      plausible repairs through to a persistent store
//! --resume             continue an interrupted session from its last
//!                      generation-boundary checkpoint, bit-identically
//! --halt-after N       stop right after checkpointing generation N
//!                      (a deterministic stand-in for kill -9)
//! --result-out <path>  write the canonical, timing-free result JSON
//!                      (used by the CI determinism checks)
//! ```
//!
//! See [`cirfix_serve::conf::Config`] for the recognized keys.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cirfix::{
    apply_patch, evaluate, fault_localization, repair_session, repair_with_trials,
    result_to_canonical_json, FitnessParams, Observer, Patch, RepairStatus,
};
use cirfix_ast::print;
use cirfix_serve::conf::{self, Config, ConfigError};
use cirfix_serve::{Client, Request, ServeAddr, ServeOpts};
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_store::{field, field_str};
use cirfix_telemetry::{FanoutSink, JsonValue, SummarySink, TelemetrySink};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cirfix: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: cirfix <repair|simulate|fitness|localize|verify> <config-file> [--key value ...]\n\
     \u{20}      cirfix lint <design.v|repair.conf> [--json]\n\
     \u{20}      cirfix store <ls|verify|gc> <store-dir>\n\
     \u{20}      cirfix mine <store-dir|corpus.jsonl> [--out FILE] [--jobs N] [--json]\n\
     \u{20}      cirfix report <trace.jsonl|store-dir> [--session NAME] [--json]\n\
     \u{20}      cirfix watch <trace.jsonl|JOB --socket ADDR> [--interval-ms N] [--once]\n\
     \u{20}      cirfix fuzz [--seed N] [--budget N] [--jobs N] [--out FILE] [--store DIR]\n\
     \u{20}      cirfix fuzz replay <store-dir|crashes.jsonl> [--jobs N]\n\
     \u{20}      cirfix fuzz gen --out DIR [--seed N] [--count N] [--classify] [--jobs N]\n\
     \u{20}      cirfix serve <store-dir> [--socket PATH|tcp:ADDR] [--max-active N] [--max-queue N]\n\
     \u{20}      cirfix submit <repair.conf> [--socket ADDR] [--key value ...]\n\
     \u{20}      cirfix status [JOB] [--socket ADDR]\n\
     \u{20}      cirfix cancel <JOB> [--socket ADDR]\n\
     \u{20}      cirfix shutdown [--socket ADDR]"
        .to_string()
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (command, rest) = args.split_first().ok_or_else(usage)?;
    // `lint` takes a raw Verilog file (or a config), so it parses its
    // own arguments instead of going through config loading.
    if command == "lint" {
        return cmd_lint(rest);
    }
    // `store` operates on a store directory, not a repair config.
    if command == "store" {
        return cmd_store(rest);
    }
    // `mine` consumes a repair corpus (a store directory or a raw
    // corpus segment), not a repair config.
    if command == "mine" {
        return cmd_mine(rest);
    }
    // `report` and `watch` consume run artifacts (a trace file or a
    // store directory), not a repair config.
    if command == "report" {
        return cmd_report(rest);
    }
    if command == "watch" {
        return cmd_watch(rest);
    }
    // `fuzz` drives the robustness harness; it has its own sub-verbs
    // (run, replay, gen) and no repair config.
    if command == "fuzz" {
        return cmd_fuzz(rest);
    }
    // The service verbs talk to (or run) a daemon instead of loading a
    // repair config themselves.
    match command.as_str() {
        "serve" => return cmd_serve(rest),
        "submit" => return cmd_submit(rest),
        "status" => return cmd_status(rest),
        "cancel" => return cmd_cancel(rest),
        "shutdown" => return cmd_shutdown(rest),
        _ => {}
    }
    let (config_path, overrides) = rest.split_first().ok_or_else(usage)?;
    let mut config = Config::load(Path::new(config_path))?;
    conf::apply_overrides(&mut config, overrides)?;

    match command.as_str() {
        "repair" => cmd_repair(&config),
        "simulate" => cmd_simulate(&config),
        "fitness" => cmd_fitness(&config),
        "localize" => cmd_localize(&config),
        "verify" => cmd_verify(&config),
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

/// The observability destinations requested by `trace_out` / `metrics`.
struct Telemetry {
    observer: Observer,
    summary: Option<Arc<SummarySink>>,
}

fn build_telemetry(config: &Config) -> Result<Telemetry, Box<dyn std::error::Error>> {
    let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
    sinks.extend(conf::trace_sink(config)?);
    let mut summary = None;
    if config.flag("metrics") {
        let s = Arc::new(SummarySink::new());
        sinks.push(Box::new(Arc::clone(&s)));
        summary = Some(s);
    }
    let observer = if sinks.is_empty() {
        Observer::none()
    } else {
        Observer::new(Arc::new(FanoutSink::new(sinks)))
    };
    Ok(Telemetry { observer, summary })
}

fn cmd_repair(config: &Config) -> Result<(), Box<dyn std::error::Error>> {
    let problem = conf::build_problem(config)?;
    let mut rc = conf::repair_config(config)?;
    let telemetry = build_telemetry(config)?;
    rc.observer = telemetry.observer.clone();
    let trials = config.num_or("trials", 3u32)?;
    println!(
        "searching: popn={} gens={} trials={trials} evals<={} timeout={:?} jobs={}",
        rc.popn_size,
        rc.max_generations,
        rc.max_fitness_evals,
        rc.timeout,
        cirfix::resolve_jobs(rc.jobs)
    );
    let result = match config.required("store") {
        // Like `output` and `trace_out`, the store directory is a run
        // artifact: relative paths resolve against the cwd, not the
        // conf file's directory.
        Ok(dir) => {
            let dir = PathBuf::from(dir);
            repair_session(&problem, &rc, trials, &dir, config.flag("resume"))?
        }
        Err(_) => repair_with_trials(&problem, &rc, trials),
    };
    telemetry.observer.flush();
    println!(
        "plausible: {}  best fitness: {:.4}  evaluations: {}  wall: {:.1?}",
        result.is_plausible(),
        result.best_fitness,
        result.fitness_evals,
        result.wall_time
    );
    let t = &result.totals;
    println!("run totals:");
    println!("  trials           {:>12}", t.trials);
    println!("  generations      {:>12}", t.generations);
    println!("  fitness evals    {:>12}", t.fitness_evals);
    println!("  static rejects   {:>12}", t.mutants_rejected_static);
    println!("  cache hits       {:>12}", result.cache_hits);
    println!("  store hits       {:>12}", t.store_hits);
    println!("  store writes     {:>12}", t.store_writes);
    println!("  timeouts         {:>12}", t.timeouts);
    println!("  panics           {:>12}", t.panics);
    println!("  exhausted        {:>12}", t.exhausted);
    println!("  pattern hits     {:>12}", t.pattern_hits);
    println!("  corpus skips     {:>12}", t.corpus_skipped);
    println!("  minimize evals   {:>12}", result.minimize_evals);
    println!("  wall clock       {:>12.1?}", t.wall_time);
    println!("  eval workers     {:>12}", t.jobs);
    if t.jobs > 0 && !t.wall_time.is_zero() {
        // How much of the pool's theoretical capacity ran simulations.
        let capacity = t.wall_time.as_secs_f64() * f64::from(t.jobs);
        println!(
            "  worker busy      {:>11.0}%",
            100.0 * t.eval_busy.as_secs_f64() / capacity
        );
    }
    if let Some(summary) = &telemetry.summary {
        print!("{}", summary.report());
    }
    // Canonical, timing-free result JSON: two deterministically
    // equivalent runs (any `jobs`, killed-and-resumed or not) write
    // byte-identical files — the CI determinism checks diff them.
    if let Ok(path) = config.required("result_out") {
        let json = result_to_canonical_json(&result).to_json();
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| ConfigError(format!("cannot write {path}: {e}")))?;
        println!("canonical result written to {path}");
    }
    if result.status == RepairStatus::Interrupted {
        println!(
            "interrupted after generation {} — checkpoint saved; rerun with --resume to continue",
            result.generations
        );
        return Ok(());
    }
    if result.is_plausible() {
        println!(
            "\nrepair patch:\n{}",
            cirfix::explain::describe_patch(
                &problem.source,
                &problem.design_modules,
                &result.patch
            )
        );
        let (repaired, _) = apply_patch(&problem.source, &problem.design_modules, &result.patch);
        println!(
            "diff:\n{}",
            cirfix::explain::diff_designs(&problem.source, &repaired, &problem.design_modules)
        );
        let out_path = config.string_or("output", "repaired.v");
        let source = result
            .repaired_source
            .expect("plausible repairs have source");
        std::fs::write(&out_path, &source)
            .map_err(|e| ConfigError(format!("cannot write {out_path}: {e}")))?;
        println!("repaired design written to {out_path}");
        Ok(())
    } else {
        Err("no plausible repair found within the resource bounds".into())
    }
}

fn cmd_simulate(config: &Config) -> Result<(), Box<dyn std::error::Error>> {
    let problem = conf::build_problem(config)?;
    let (outcome, trace, log) =
        cirfix::simulate_with_probe(&problem.source, &problem.top, &problem.probe, &problem.sim)?;
    println!(
        "finished={} end_time={} ops={}",
        outcome.finished, outcome.end_time, outcome.total_ops
    );
    let telemetry = build_telemetry(config)?;
    if telemetry.observer.enabled() {
        let m = &outcome.metrics;
        telemetry
            .observer
            .record(&cirfix_telemetry::Event::Sim(cirfix_telemetry::SimStats {
                active_events: m.active_events,
                inactive_events: m.inactive_events,
                nba_flushes: m.nba_flushes,
                timesteps: m.timesteps,
                process_resumptions: m.process_resumptions,
                peak_queue_depth: m.peak_queue_depth,
            }));
        telemetry.observer.flush();
    }
    if let Some(summary) = &telemetry.summary {
        eprint!("{}", summary.report());
    }
    print!("{}", trace.to_csv());
    for line in log {
        eprintln!("$display: {line}");
    }
    if let Ok(vcd_path) = config.required("vcd") {
        let vcd = cirfix_sim::vcd::trace_to_vcd(&trace, &problem.top, "1ns");
        std::fs::write(vcd_path, vcd)
            .map_err(|e| ConfigError(format!("cannot write {vcd_path}: {e}")))?;
        eprintln!("waveform written to {vcd_path}");
    }
    Ok(())
}

fn cmd_fitness(config: &Config) -> Result<(), Box<dyn std::error::Error>> {
    let problem = conf::build_problem(config)?;
    let phi = config.num_or("phi", 2.0f64)?;
    let eval = evaluate(&problem, &Patch::empty(), FitnessParams { phi });
    println!("fitness: {:.6}", eval.score);
    println!("mismatched variables: {:?}", eval.mismatched);
    if let Some(report) = eval.report {
        println!(
            "bits compared: {}  matched: {}",
            report.bits_compared, report.bits_matched
        );
    }
    if let Some(err) = eval.error {
        println!("simulation error: {err}");
    }
    Ok(())
}

fn cmd_localize(config: &Config) -> Result<(), Box<dyn std::error::Error>> {
    let problem = conf::build_problem(config)?;
    let eval = evaluate(&problem, &Patch::empty(), FitnessParams::default());
    println!("mismatch seed: {:?}", eval.mismatched);
    let modules: Vec<_> = problem
        .source
        .modules
        .iter()
        .filter(|m| problem.design_modules.contains(&m.name))
        .collect();
    let fl = fault_localization(&modules, &eval.mismatched);
    println!("final mismatch set: {:?}", fl.mismatch);
    println!("implicated nodes: {}", fl.nodes.len());
    for m in &modules {
        for stmt in cirfix_ast::visit::stmts_of_module(m) {
            if fl.nodes.contains(&stmt.id()) && (stmt.is_assignment() || stmt.is_conditional()) {
                let text = print::stmt_to_string(stmt);
                let first = text.lines().next().unwrap_or("");
                println!("  [{}] {first}", stmt.id());
            }
        }
    }
    Ok(())
}

/// `cirfix lint`: run the static-analysis passes over a design and print
/// the findings, one per line. Accepts either a raw Verilog file (all
/// modules are linted) or a `repair.conf` (the `design` file is linted,
/// restricted to `design_modules`). With `--json` each finding is
/// emitted as a telemetry JSON line instead of human-readable text.
///
/// The exit code is 0 even when findings are reported — lint is a
/// reporting tool, not a gate; the gate lives in the repair loop's
/// static filter.
fn cmd_lint(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let lint_usage = "usage: cirfix lint <design.v|repair.conf> [--json]";
    let (input, flags) = args.split_first().ok_or(lint_usage)?;
    let mut json = false;
    for flag in flags {
        match flag.as_str() {
            "--json" => json = true,
            other => return Err(format!("unknown lint flag `{other}`\n{lint_usage}").into()),
        }
    }

    let path = Path::new(input);
    let read = |p: &Path| -> Result<String, Box<dyn std::error::Error>> {
        Ok(std::fs::read_to_string(p)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", p.display())))?)
    };
    let is_conf = path.extension().is_some_and(|e| e == "conf");
    let (source_path, modules) = if is_conf {
        let config = Config::load(path)?;
        (config.path("design")?, Some(config.list("design_modules")?))
    } else {
        (PathBuf::from(input), None)
    };
    let file = cirfix_parser::parse(&read(&source_path)?)?;
    let findings = match &modules {
        Some(names) => cirfix_lint::lint_modules(&file, names),
        None => cirfix_lint::lint_file(&file),
    };

    let (mut errors, mut warnings) = (0usize, 0usize);
    for (module, diag) in &findings {
        match diag.severity {
            cirfix_lint::Severity::Error => errors += 1,
            cirfix_lint::Severity::Warning => warnings += 1,
        }
        if json {
            println!("{}", cirfix_lint::diagnostic_event(module, diag).to_json());
        } else {
            println!("{}: {}", source_path.display(), diag.render(module));
        }
    }
    if !json {
        println!("{errors} error(s), {warnings} warning(s)");
    }
    Ok(())
}

/// `cirfix store`: inspect or maintain a persistent store directory.
///
/// ```text
/// cirfix store ls <dir>      summarize evaluations, sessions, and corpus
/// cirfix store verify <dir>  check every segment; exit non-zero on damage
/// cirfix store gc <dir>      compact segments, reap completed sessions
/// ```
///
/// `verify` is strictly read-only — it reports corrupt and torn records
/// without repairing them, so it can be run while a repair is live.
/// `gc` is the repairing counterpart.
fn cmd_store(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let store_usage = "usage: cirfix store <ls|verify|gc> <store-dir>";
    let (action, rest) = args.split_first().ok_or(store_usage)?;
    let (dir, extra) = rest.split_first().ok_or(store_usage)?;
    if !extra.is_empty() {
        return Err(format!("unexpected argument `{}`\n{store_usage}", extra[0]).into());
    }
    let store = cirfix_store::Store::open(Path::new(dir))?;
    match action.as_str() {
        "ls" => {
            // Every partition and every legacy segment: the whole
            // store, not what one session would read.
            let (mut records, mut partitions, mut legacy) = (0, 0, 0);
            let mut health = cirfix_store::StoreHealth::default();
            for dir in store.eval_dirs()? {
                let (evals, h) = dir.load()?;
                records += evals.len();
                match dir.scenario {
                    Some(_) => partitions += 1,
                    None => legacy += evals.len(),
                }
                health += h;
            }
            println!("store: {}", store.dir().display());
            println!(
                "  evaluations      {records:>12}  ({partitions} scenario partition(s), \
                 {legacy} in legacy segments)"
            );
            let sessions: Vec<PathBuf> = store
                .all_segments()?
                .into_iter()
                .filter(|p| p.parent().is_some_and(|d| d.ends_with("sessions")))
                .collect();
            println!("  session logs     {:>12}", sessions.len());
            for path in &sessions {
                let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
                let (records, seg) = store.load_session(name)?;
                let complete = records
                    .last()
                    .is_some_and(|r| cirfix_store::field_str(r, "type") == Some("complete"));
                println!(
                    "    {name}  records={} {}",
                    seg.records,
                    if complete { "complete" } else { "resumable" }
                );
            }
            let (corpus, _) = store.load_corpus()?;
            println!("  corpus repairs   {:>12}", corpus.len());
            let (patterns, _) = store.load_patterns()?;
            println!("  mined patterns   {:>12}", patterns.len());
            if !health.is_clean() {
                println!(
                    "  damage: {} corrupt record(s), {} torn tail(s) — run `cirfix store verify`",
                    health.corrupt, health.torn
                );
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify()?;
            for file in &report.files {
                let status = if file.corrupt.is_empty() && !file.torn {
                    "ok".to_string()
                } else {
                    format!(
                        "{} corrupt{}",
                        file.corrupt.len(),
                        if file.torn { ", torn tail" } else { "" }
                    )
                };
                println!(
                    "{:<40} {:>8} bytes {:>6} records  {status}",
                    file.name, file.bytes, file.records
                );
                for (line, reason) in &file.corrupt {
                    println!("  line {line}: {reason}");
                }
            }
            if report.is_clean() {
                println!(
                    "clean: {} record(s) across {} file(s)",
                    report.records(),
                    report.files.len()
                );
                Ok(())
            } else {
                Err(format!(
                    "damage found: {} corrupt record(s), {} torn file(s) — `cirfix store gc` will drop them",
                    report.corrupt(),
                    report.torn()
                )
                .into())
            }
        }
        "gc" => {
            let report = store.gc()?;
            println!("gc: {}", store.dir().display());
            println!("  files removed    {:>12}", report.files_removed);
            println!("  records kept     {:>12}", report.records_kept);
            println!("  records dropped  {:>12}", report.records_dropped);
            println!("  bytes reclaimed  {:>12}", report.bytes_reclaimed);
            Ok(())
        }
        other => Err(format!("unknown store action `{other}`\n{store_usage}").into()),
    }
}

/// `cirfix mine`: replay the repair corpus into faulty/repaired edit
/// scripts, cluster them into ranked fix patterns, and persist them as
/// a checksummed patterns file.
///
/// ```text
/// cirfix mine <store-dir>        mine corpus/corpus.jsonl, write patterns/patterns.jsonl
/// cirfix mine <corpus.jsonl>     mine a raw corpus segment (requires --out)
/// cirfix mine ... --out FILE     write the patterns file elsewhere
/// cirfix mine ... --jobs N       replay records on N threads (0 = auto)
/// cirfix mine ... --json         machine-readable summary line
/// ```
///
/// Mining is deterministic: the same corpus bytes produce the same
/// patterns file bytes for every `--jobs` value. The output feeds back
/// into the search via `cirfix repair ... --mined-patterns FILE`.
fn cmd_mine(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mine_usage = "usage: cirfix mine <store-dir|corpus.jsonl> [--out FILE] [--jobs N] [--json]";
    let (input, flags) = args.split_first().ok_or(mine_usage)?;
    let mut out: Option<PathBuf> = None;
    let mut jobs = 0usize;
    let mut json = false;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--out" => {
                let value = flags.get(i + 1).ok_or("--out needs a value")?;
                out = Some(PathBuf::from(value));
                i += 2;
            }
            "--jobs" => {
                let value = flags.get(i + 1).ok_or("--jobs needs a value")?;
                jobs = value
                    .parse()
                    .map_err(|_| format!("--jobs needs a number, got `{value}`"))?;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`\n{mine_usage}").into()),
        }
    }
    let path = Path::new(input);
    let (records, health, out_path) = if path.is_dir() {
        let store = cirfix_store::Store::open(path)?;
        let (records, health) = store.load_corpus()?;
        (
            records,
            health,
            out.unwrap_or_else(|| store.patterns_path()),
        )
    } else {
        let (records, health) = cirfix_store::read_segment(path)?;
        let out = out.ok_or("mining a raw corpus file requires --out FILE")?;
        (records, health, out)
    };
    if !health.is_clean() {
        eprintln!(
            "warning: corpus damage: {} corrupt record(s){} — damaged records skipped",
            health.corrupt.len(),
            if health.torn_tail.is_some() {
                ", torn tail"
            } else {
                ""
            }
        );
    }
    let report = cirfix_mine::mine_corpus(&records, cirfix::resolve_jobs(jobs));
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    cirfix_mine::write_patterns_file(&out_path, &report.patterns)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    if json {
        println!("{}", cirfix_mine::report_to_json(&report).to_json());
        return Ok(());
    }
    println!(
        "mined {} pattern(s) from {} corpus record(s): {} script(s), skipped {} missing-source, {} unparseable, {} empty-diff",
        report.patterns.len(),
        report.records,
        report.scripts,
        report.skipped_missing,
        report.skipped_parse,
        report.skipped_empty
    );
    for p in &report.patterns {
        let step = &p.steps[0];
        let more = if p.steps.len() > 1 {
            format!(" (+{} more step(s))", p.steps.len() - 1)
        } else {
            String::new()
        };
        println!(
            "  support {:>4}  {} {}@{}: {} -> {}{more}",
            p.support,
            step.action.as_str(),
            step.node_kind,
            step.parent_kind,
            step.before,
            step.after
        );
    }
    println!("patterns written to {}", out_path.display());
    Ok(())
}

/// `cirfix report`: fold a JSON-lines telemetry trace, or a persisted
/// session log from a store directory, into one run report.
///
/// ```text
/// cirfix report <trace.jsonl>                     fold a trace file
/// cirfix report <store-dir> [--session NAME]      fold a session log
/// cirfix report ... --json                        machine-readable output
/// ```
///
/// With a store directory and no `--session`, a single session is
/// picked automatically; multiple sessions are an error listing the
/// candidates. Folding is deterministic: the same input bytes always
/// produce the same report bytes.
fn cmd_report(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let report_usage = "usage: cirfix report <trace.jsonl|store-dir> [--session NAME] [--json]";
    let (input, flags) = args.split_first().ok_or(report_usage)?;
    let mut json = false;
    let mut session: Option<String> = None;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--session" => {
                let name = flags
                    .get(i + 1)
                    .ok_or_else(|| format!("--session needs a value\n{report_usage}"))?;
                session = Some(name.clone());
                i += 2;
            }
            other => return Err(format!("unknown report flag `{other}`\n{report_usage}").into()),
        }
    }

    let path = Path::new(input);
    let report = if path.is_dir() {
        let store = cirfix_store::Store::open(path)?;
        let name = match session {
            Some(name) => name,
            None => {
                let mut names: Vec<String> = store
                    .all_segments()?
                    .into_iter()
                    .filter(|p| p.parent().is_some_and(|d| d.ends_with("sessions")))
                    .filter_map(|p| p.file_stem().and_then(|s| s.to_str()).map(str::to_string))
                    .collect();
                names.sort();
                match names.len() {
                    0 => return Err("store has no session logs".into()),
                    1 => names.remove(0),
                    _ => {
                        return Err(format!(
                            "store has {} sessions; pick one with --session <name>:\n  {}",
                            names.len(),
                            names.join("\n  ")
                        )
                        .into())
                    }
                }
            }
        };
        let (records, health) = store.load_session(&name)?;
        if records.is_empty() {
            return Err(format!("session `{name}` has no records").into());
        }
        if !health.is_clean() {
            eprintln!(
                "warning: session `{name}` has damage ({} corrupt record(s), torn tail: {}); reporting on the clean records",
                health.corrupt.len(),
                health.torn_tail.is_some()
            );
        }
        cirfix::RunReport::from_session(&records)
    } else {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        cirfix::RunReport::from_trace(&text)?
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// `cirfix watch`: live viewer for search heartbeats. With a trace
/// file, tails the file, redraws the latest heartbeat snapshot as it
/// arrives, and exits when the run's terminal heartbeat (status other
/// than `"search"`) appears. With `--socket`, the positional argument
/// is a daemon job id and heartbeats stream over the socket instead.
///
/// ```text
/// cirfix watch <trace.jsonl> [--interval-ms N] [--once]
/// cirfix watch <JOB> --socket ADDR [--once]
/// ```
///
/// `--once` processes whatever is available right now and exits —
/// usable in scripts and CI. Only complete lines are consumed; a
/// half-written trailing line is left for the next poll.
fn cmd_watch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{IsTerminal, Read, Seek, SeekFrom};

    let watch_usage = "usage: cirfix watch <trace.jsonl> [--interval-ms N] [--once]\n\
         \u{20}      cirfix watch <JOB> --socket ADDR [--once]";
    let (input, flags) = args.split_first().ok_or(watch_usage)?;
    let mut once = false;
    let mut interval = Duration::from_millis(500);
    let mut socket: Option<String> = None;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--once" => {
                once = true;
                i += 1;
            }
            "--interval-ms" => {
                let ms: u64 = flags
                    .get(i + 1)
                    .ok_or_else(|| format!("--interval-ms needs a value\n{watch_usage}"))?
                    .parse()
                    .map_err(|e| format!("bad --interval-ms: {e}"))?;
                interval = Duration::from_millis(ms.max(1));
                i += 2;
            }
            "--socket" => {
                let addr = flags
                    .get(i + 1)
                    .ok_or_else(|| format!("--socket needs a value\n{watch_usage}"))?;
                socket = Some(addr.clone());
                i += 2;
            }
            other => return Err(format!("unknown watch flag `{other}`\n{watch_usage}").into()),
        }
    }
    if let Some(addr) = socket {
        return watch_socket(input, once, &ServeAddr::parse(&addr));
    }

    let path = Path::new(input);
    let clear_screen = std::io::stdout().is_terminal();
    let mut offset: u64 = 0;
    let mut pending = String::new();
    let mut heartbeats: u64 = 0;
    let mut malformed: u64 = 0;
    loop {
        // The file may not exist yet (the run is still starting) and
        // may be truncated and rewritten (a fresh run on the same
        // path); both just reset the tail position.
        match std::fs::File::open(path) {
            Ok(mut f) => {
                let len = f.metadata()?.len();
                if len < offset {
                    offset = 0;
                    pending.clear();
                }
                if len > offset {
                    f.seek(SeekFrom::Start(offset))?;
                    let mut bytes = Vec::with_capacity((len - offset) as usize);
                    f.take(len - offset).read_to_end(&mut bytes)?;
                    offset = len;
                    pending.push_str(&String::from_utf8_lossy(&bytes));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if once {
                    return Err(format!("cannot read {}: {e}", path.display()).into());
                }
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display()).into()),
        }
        // Consume complete lines; keep a half-written tail for later.
        let mut terminal_status = None;
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            // Truncated or garbage lines are counted and skipped, never
            // fatal — a live trace can legitimately carry a torn tail.
            if !line.trim().is_empty() && cirfix_store::parse_json(line.trim()).is_err() {
                malformed += 1;
                continue;
            }
            if let Some(h) = cirfix::report::heartbeat_line(&line) {
                heartbeats += 1;
                if clear_screen {
                    print!("\x1b[2J\x1b[H");
                }
                let skipped = if malformed > 0 {
                    format!(", {malformed} malformed line(s) skipped")
                } else {
                    String::new()
                };
                println!(
                    "watching {} (heartbeat {heartbeats}{skipped})",
                    path.display()
                );
                println!("{}", cirfix::report::render_heartbeat(&h, "  "));
                if h.status != "search" {
                    terminal_status = Some(h.status);
                }
            }
        }
        if let Some(status) = terminal_status {
            println!("run {status}");
            return Ok(());
        }
        if once {
            if heartbeats == 0 {
                println!("no heartbeat in {} yet", path.display());
            }
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// The fuzz verbs:
///
/// ```text
/// cirfix fuzz [--seed N] [--budget N] [--jobs N] [--out FILE]
///             [--store DIR] [--no-shrink] [--json]
/// cirfix fuzz replay <store-dir|crashes.jsonl> [--jobs N]
/// cirfix fuzz gen --out DIR [--seed N] [--count N] [--per-project N]
///                 [--classify] [--jobs N]
/// ```
///
/// A run exits non-zero when it surfaces findings (so CI smoke jobs
/// fail loudly); `replay` exits non-zero when a supposedly fixed
/// corpus record reproduces. Findings are shrunk and, with `--store`,
/// appended to the store's `crashes/` family.
fn cmd_fuzz(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let fuzz_usage =
        "usage: cirfix fuzz [--seed N] [--budget N] [--jobs N] [--out FILE] [--store DIR]\n\
         \u{20}      cirfix fuzz replay <store-dir|crashes.jsonl> [--jobs N]\n\
         \u{20}      cirfix fuzz gen --out DIR [--seed N] [--count N] [--classify] [--jobs N]";
    match args.first().map(String::as_str) {
        Some("replay") => return cmd_fuzz_replay(&args[1..], fuzz_usage),
        Some("gen") => return cmd_fuzz_gen(&args[1..], fuzz_usage),
        _ => {}
    }

    let mut config = cirfix_fuzz::FuzzConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                config.seed = parse_flag_u64(args.get(i + 1), "--seed")?;
                i += 2;
            }
            "--budget" => {
                config.budget = parse_flag_u64(args.get(i + 1), "--budget")? as usize;
                i += 2;
            }
            "--jobs" => {
                config.jobs = parse_flag_u64(args.get(i + 1), "--jobs")? as usize;
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a value")?));
                i += 2;
            }
            "--store" => {
                store = Some(PathBuf::from(
                    args.get(i + 1).ok_or("--store needs a value")?,
                ));
                i += 2;
            }
            "--no-shrink" => {
                config.shrink = false;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`\n{fuzz_usage}").into()),
        }
    }

    // The harness contains every panic; the default hook would still
    // spray a backtrace per caught panic, drowning the report.
    std::panic::set_hook(Box::new(|_| {}));
    let report = cirfix_fuzz::run_fuzz(&config);
    let _ = std::panic::take_hook();

    let manifest = report.manifest_json();
    if let Some(path) = &out {
        std::fs::write(path, format!("{manifest}\n"))?;
    }
    if let Some(dir) = &store {
        let store = cirfix_store::Store::open(dir)?;
        for finding in &report.findings {
            store.append_crash(&finding.to_json())?;
        }
    }
    if json {
        println!("{manifest}");
    } else {
        println!("fuzz: seed {} budget {}", report.seed, report.stats.inputs);
        println!("  generated scenarios {:>8}", report.stats.generated);
        println!("  parse errors        {:>8}", report.stats.parse_errors);
        println!("  simulated ok        {:>8}", report.stats.sim_ok);
        println!("  sim errors          {:>8}", report.stats.sim_errors);
        println!("  findings            {:>8}", report.findings.len());
        for finding in &report.findings {
            println!(
                "    [{}] {} — {}",
                finding.class, finding.id, finding.detail
            );
        }
    }
    if report.findings.is_empty() {
        Ok(())
    } else {
        Err(format!("{} finding(s) — see report above", report.findings.len()).into())
    }
}

/// `cirfix fuzz replay`: re-drive the shrunk crash corpus through the
/// harness; every record must now be handled cleanly.
fn cmd_fuzz_replay(args: &[String], fuzz_usage: &str) -> Result<(), Box<dyn std::error::Error>> {
    let (input, flags) = args.split_first().ok_or(fuzz_usage.to_string())?;
    let mut jobs = 0usize;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--jobs" => {
                jobs = parse_flag_u64(flags.get(i + 1), "--jobs")? as usize;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`\n{fuzz_usage}").into()),
        }
    }
    let path = Path::new(input);
    let records = if path.is_dir() {
        let store = cirfix_store::Store::open(path)?;
        cirfix_fuzz::load_store_corpus(&store)?
    } else {
        let (bodies, health) = cirfix_store::read_segment(path)?;
        if !health.is_clean() {
            eprintln!(
                "warning: corpus damage: {} corrupt record(s) skipped",
                health.corrupt.len() + usize::from(health.torn_tail.is_some())
            );
        }
        bodies
            .iter()
            .filter_map(cirfix_fuzz::CrashRecord::from_json)
            .collect()
    };
    std::panic::set_hook(Box::new(|_| {}));
    let report = cirfix_fuzz::replay(&records, jobs);
    let _ = std::panic::take_hook();
    println!("replayed {} corpus record(s)", report.replayed);
    if report.is_clean() {
        println!("clean: no record reproduced a finding");
        Ok(())
    } else {
        for (id, class) in &report.regressions {
            println!("  REGRESSION [{class}] {id}");
        }
        Err(format!("{} corpus regression(s)", report.regressions.len()).into())
    }
}

/// `cirfix fuzz gen`: emit a tranche of generated defect scenarios as
/// `.v` files plus a JSON manifest (consumed by the benchmark
/// registry's generated-scenario surface).
fn cmd_fuzz_gen(args: &[String], fuzz_usage: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut gen = cirfix_fuzz::GenConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut count = 16usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a value")?));
                i += 2;
            }
            "--seed" => {
                gen.seed = parse_flag_u64(args.get(i + 1), "--seed")?;
                i += 2;
            }
            "--count" => {
                count = parse_flag_u64(args.get(i + 1), "--count")? as usize;
                i += 2;
            }
            "--per-project" => {
                gen.max_per_project = parse_flag_u64(args.get(i + 1), "--per-project")? as usize;
                i += 2;
            }
            "--classify" => {
                gen.classify = true;
                i += 1;
            }
            "--jobs" => {
                gen.jobs = parse_flag_u64(args.get(i + 1), "--jobs")? as usize;
                i += 2;
            }
            other => return Err(format!("unknown flag `{other}`\n{fuzz_usage}").into()),
        }
    }
    let out = out.ok_or("fuzz gen requires --out DIR")?;
    std::fs::create_dir_all(&out)?;
    let scenarios = cirfix_fuzz::generate_scenarios(&gen);
    let mut entries = Vec::new();
    for s in scenarios.iter().take(count) {
        let fp = s.fingerprint.to_hex();
        let class = s
            .difficulty
            .map_or("unclassified", cirfix_fuzz::Difficulty::label);
        let file = format!("{}-{}-{}.v", s.project, &fp[..12], class);
        std::fs::write(out.join(&file), &s.source)?;
        entries.push(JsonValue::obj(vec![
            ("project", JsonValue::Str(s.project.to_string())),
            ("file", JsonValue::Str(file)),
            ("fingerprint", JsonValue::Str(fp)),
            ("class", JsonValue::Str(class.to_string())),
            ("score", JsonValue::Float(s.score)),
        ]));
    }
    let written = entries.len();
    let manifest = JsonValue::obj(vec![
        ("seed", JsonValue::Uint(gen.seed)),
        ("scenarios", JsonValue::Array(entries)),
    ]);
    std::fs::write(
        out.join("manifest.json"),
        format!("{}\n", manifest.to_json()),
    )?;
    println!(
        "wrote {} scenario(s) + manifest.json to {}",
        written,
        out.display()
    );
    Ok(())
}

/// Parses a numeric flag value with a consistent error message.
fn parse_flag_u64(value: Option<&String>, flag: &str) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got `{value}`"))
}

/// Streams a daemon job's heartbeats over the socket, rendering each
/// snapshot like the file-based watch.
fn watch_socket(job: &str, once: bool, addr: &ServeAddr) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::IsTerminal;

    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?;
    let clear_screen = std::io::stdout().is_terminal();
    let mut heartbeats: u64 = 0;
    let last = client.watch(job, once, |line| {
        let state = field_str(line, "state").unwrap_or("?").to_string();
        let heartbeat = field(line, "event")
            .filter(|e| !matches!(e, JsonValue::Null))
            .and_then(|e| cirfix::report::heartbeat_line(&e.to_json()));
        if let Some(h) = heartbeat {
            heartbeats += 1;
            if clear_screen {
                print!("\x1b[2J\x1b[H");
            }
            println!("watching job {job} at {addr} (heartbeat {heartbeats}, state {state})");
            println!("{}", cirfix::report::render_heartbeat(&h, "  "));
        }
    })?;
    if !cirfix_serve::client::response_ok(&last) {
        return Err(cirfix_serve::client::response_error(&last).into());
    }
    if heartbeats == 0 {
        println!("no heartbeat from job {job} yet");
    }
    if matches!(field(&last, "done"), Some(JsonValue::Bool(true))) {
        let state = field_str(&last, "state").unwrap_or("?");
        println!("job {state}");
    }
    Ok(())
}

/// Shared flag parsing for the client verbs: pulls out `--socket ADDR`
/// (default `cirfix.sock` in the current directory) and returns the
/// remaining arguments untouched.
fn split_socket(args: &[String]) -> Result<(ServeAddr, Vec<String>), Box<dyn std::error::Error>> {
    let mut addr = ServeAddr::Unix(PathBuf::from("cirfix.sock"));
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--socket" {
            let value = args.get(i + 1).ok_or("--socket needs a value")?;
            addr = ServeAddr::parse(value);
            i += 2;
        } else {
            rest.push(args[i].clone());
            i += 1;
        }
    }
    Ok((addr, rest))
}

/// Prints a job line from a response's fields. Submit/cancel replies
/// carry the id under `job`; full records (status listings) under `id`.
fn print_job_line(line: &JsonValue) {
    let job = field_str(line, "job")
        .or_else(|| field_str(line, "id"))
        .unwrap_or("?");
    let state = field_str(line, "state").unwrap_or("?");
    let detail = field_str(line, "detail").unwrap_or("");
    if detail.is_empty() {
        println!("{job}  {state}");
    } else {
        println!("{job}  {state}  {detail}");
    }
}

/// `cirfix serve`: run the repair daemon over a store directory.
///
/// Blocks until a client sends `shutdown` (or the process is killed —
/// the store's job registry makes that safe: the next daemon over the
/// same store resumes every in-flight job from its checkpoint).
fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let serve_usage = "usage: cirfix serve <store-dir> [--socket PATH|tcp:ADDR] [--max-active N] \
                       [--max-queue N] [--max-evals-per-job N] [--max-seconds-per-job N] \
                       [--trace-out PATH] [--gc-interval-s N]";
    let (store_dir, flags) = args.split_first().ok_or(serve_usage)?;
    let (addr, flags) = split_socket(flags)?;
    let mut opts = ServeOpts::new(store_dir);
    let mut i = 0;
    while i < flags.len() {
        let value = |i: usize| -> Result<&String, Box<dyn std::error::Error>> {
            flags
                .get(i + 1)
                .ok_or_else(|| format!("{} needs a value\n{serve_usage}", flags[i]).into())
        };
        match flags[i].as_str() {
            "--max-active" => opts.max_active = value(i)?.parse()?,
            "--max-queue" => opts.max_queue = value(i)?.parse()?,
            "--max-evals-per-job" => opts.max_evals_per_job = Some(value(i)?.parse()?),
            "--max-seconds-per-job" => opts.max_seconds_per_job = Some(value(i)?.parse()?),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value(i)?)),
            "--gc-interval-s" => {
                opts.gc_interval = Some(Duration::from_secs(value(i)?.parse()?));
            }
            other => return Err(format!("unknown serve flag `{other}`\n{serve_usage}").into()),
        }
        i += 2;
    }
    println!(
        "cirfix daemon: store {} socket {addr} (max {} active, {} queued)",
        store_dir, opts.max_active, opts.max_queue
    );
    cirfix_serve::serve(&addr, opts)?;
    println!("daemon stopped");
    Ok(())
}

/// `cirfix submit`: queue a repair job on a running daemon. Config
/// overrides after the conf path are forwarded verbatim, so a daemon
/// job is specified exactly like a `cirfix repair` invocation.
fn cmd_submit(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let submit_usage = "usage: cirfix submit <repair.conf> [--socket ADDR] [--key value ...]";
    let (conf_path, flags) = args.split_first().ok_or(submit_usage)?;
    let (addr, flags) = split_socket(flags)?;
    // Same `--key value` grammar as `cirfix repair`, forwarded as
    // `(key, value)` pairs for the daemon to apply.
    let mut overrides: Vec<(String, String)> = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        let key = flags[i]
            .strip_prefix("--")
            .ok_or_else(|| ConfigError(format!("expected --key, got `{}`", flags[i])))?;
        let key = key.replace('-', "_");
        if conf::BOOL_FLAGS.contains(&key.as_str()) {
            overrides.push((key, "true".to_string()));
            i += 1;
            continue;
        }
        let value = flags
            .get(i + 1)
            .ok_or_else(|| ConfigError(format!("--{key} needs a value")))?;
        overrides.push((key, value.clone()));
        i += 2;
    }
    // The daemon resolves the conf relative to its own cwd; send an
    // absolute path so submissions work from anywhere.
    let conf_abs =
        std::fs::canonicalize(conf_path).map_err(|e| format!("cannot resolve {conf_path}: {e}"))?;
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?;
    let line = client.request(&Request::Submit {
        conf: conf_abs.display().to_string(),
        overrides,
    })?;
    if !cirfix_serve::client::response_ok(&line) {
        return Err(cirfix_serve::client::response_error(&line).into());
    }
    print_job_line(&line);
    Ok(())
}

/// `cirfix status`: list the daemon's jobs (or one, by id).
fn cmd_status(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (addr, rest) = split_socket(args)?;
    let job = match rest.as_slice() {
        [] => None,
        [id] => Some(id.clone()),
        _ => return Err("usage: cirfix status [JOB] [--socket ADDR]".into()),
    };
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?;
    let line = client.request(&Request::Status { job })?;
    if !cirfix_serve::client::response_ok(&line) {
        return Err(cirfix_serve::client::response_error(&line).into());
    }
    match field(&line, "jobs") {
        Some(JsonValue::Array(jobs)) if !jobs.is_empty() => {
            for job in jobs {
                print_job_line(job);
            }
        }
        _ => println!("no jobs"),
    }
    Ok(())
}

/// `cirfix cancel`: stop a queued or running job. The job keeps its
/// checkpoint — a later daemon over the same store resumes it.
fn cmd_cancel(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (addr, rest) = split_socket(args)?;
    let [job] = rest.as_slice() else {
        return Err("usage: cirfix cancel <JOB> [--socket ADDR]".into());
    };
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?;
    let line = client.request(&Request::Cancel { job: job.clone() })?;
    if !cirfix_serve::client::response_ok(&line) {
        return Err(cirfix_serve::client::response_error(&line).into());
    }
    print_job_line(&line);
    Ok(())
}

/// `cirfix shutdown`: drain and stop the daemon. Running jobs stop at
/// their next batch boundary with resumable checkpoints.
fn cmd_shutdown(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (addr, rest) = split_socket(args)?;
    if !rest.is_empty() {
        return Err("usage: cirfix shutdown [--socket ADDR]".into());
    }
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to daemon at {addr}: {e}"))?;
    let line = client.request(&Request::Shutdown)?;
    if !cirfix_serve::client::response_ok(&line) {
        return Err(cirfix_serve::client::response_error(&line).into());
    }
    println!("daemon draining");
    Ok(())
}

/// `cirfix verify`: simulate the design named by `verify_design` (default:
/// the `output` of a previous repair) and the golden design under the
/// held-out `verify_testbench`, and compare the recorded traces.
fn cmd_verify(config: &Config) -> Result<(), Box<dyn std::error::Error>> {
    let read_path = |p: &Path| -> Result<String, Box<dyn std::error::Error>> {
        Ok(std::fs::read_to_string(p)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", p.display())))?)
    };
    let repaired_path = match config.required("verify_design") {
        Ok(_) => config.path("verify_design")?,
        Err(_) => PathBuf::from(config.string_or("output", "repaired.v")),
    };
    let repaired = cirfix_parser::parse(&read_path(&repaired_path)?)?;
    let golden = cirfix_parser::parse(&read_path(&config.path("golden")?)?)?;
    let verification = cirfix::Verification {
        testbench: cirfix_parser::parse(&read_path(&config.path("verify_testbench")?)?)?,
        top: config.required("verify_top")?.to_string(),
        probe: ProbeSpec::periodic(
            config.list("probe_signals")?,
            config.num_or("probe_start", 5u64)?,
            config.num_or("probe_period", 10u64)?,
        ),
        sim: SimConfig {
            max_time: config.num_or("max_time", 100_000u64)? * 4,
            ..SimConfig::default()
        },
    };
    let design_modules = config.list("design_modules")?;
    let correct = cirfix::verify_repair(&repaired, &design_modules, &golden, &verification)?;
    if correct {
        println!("CORRECT: the design matches the golden design on the held-out bench");
        Ok(())
    } else {
        println!("OVERFIT: the design diverges from the golden design on the held-out bench");
        Err("verification failed".into())
    }
}
