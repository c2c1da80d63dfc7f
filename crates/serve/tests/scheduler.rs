//! Scheduler semantics on real repair jobs: fair-share interleaving at
//! batch boundaries, daemon-vs-batch byte identity, and crash/cancel
//! recovery through the store.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cirfix::{repair_session, result_to_canonical_json, Observer};
use cirfix_serve::conf::{self, Config};
use cirfix_serve::{JobSpec, JobState, Scheduler, ServeOpts};
use cirfix_store::{field, parse_json};
use cirfix_telemetry::{FanoutSink, JsonLinesSink, TelemetrySink, TimingFreeSink};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-sched-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Materializes a benchmark scenario as on-disk sources plus a
/// `repair.conf`, the way a daemon client would have them.
fn write_fixture(dir: &Path, scenario_id: &str) -> PathBuf {
    let scenario = cirfix_benchmarks::scenario(scenario_id).expect("known scenario");
    let project = cirfix_benchmarks::project(scenario.project).expect("known project");
    fs::create_dir_all(dir).expect("mkdir fixture");
    fs::write(dir.join("faulty.v"), scenario.faulty_design).expect("write faulty");
    fs::write(dir.join("golden.v"), project.design).expect("write golden");
    fs::write(dir.join("tb.v"), project.testbench).expect("write tb");
    let conf = format!(
        "design = faulty.v\n\
         golden = golden.v\n\
         testbench = tb.v\n\
         top = {}\n\
         design_modules = {}\n\
         probe_signals = {}\n\
         probe_start = {}\n\
         probe_period = {}\n\
         max_time = {}\n",
        project.top,
        project.design_modules.join(","),
        project.probe_signals.join(","),
        project.probe_start,
        project.probe_period,
        project.max_time,
    );
    let path = dir.join("repair.conf");
    fs::write(&path, conf).expect("write conf");
    path
}

/// The search-shape overrides every test here uses: small, fast, and
/// fully pinned so nothing depends on defaults drifting. A plausible
/// repair is written into `dir`, never the working directory (the job
/// id does not hash `output`).
fn base_overrides(seed: u64, dir: &Path) -> Vec<(String, String)> {
    [
        ("output", dir.join("repaired.v").display().to_string()),
        ("seed", seed.to_string()),
        ("popn_size", "60".into()),
        ("max_generations", "3".into()),
        ("max_evals", "400".into()),
        ("timeout_s", "3600".into()),
        ("trials", "2".into()),
        ("jobs", "1".into()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn spec(conf: &Path, mut overrides: Vec<(String, String)>, extra: &[(&str, &str)]) -> JobSpec {
    overrides.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
    JobSpec {
        conf: conf.display().to_string(),
        overrides,
    }
}

/// Runs the same configuration directly through [`repair_session`] —
/// the batch `cirfix repair` path — writing a timing-free trace, and
/// returns the canonical result JSON line.
fn batch_reference(
    conf_path: &Path,
    overrides: &[(String, String)],
    store_dir: &Path,
    trace_out: Option<&Path>,
) -> String {
    let mut config = Config::load(conf_path).expect("conf loads");
    for (key, value) in overrides {
        config.set(key, value).expect("known key");
    }
    let problem = conf::build_problem(&config).expect("problem builds");
    let mut rc = conf::repair_config(&config).expect("repair config builds");
    let observer = match trace_out {
        None => Observer::default(),
        Some(path) => {
            let sink = JsonLinesSink::create(path).expect("trace opens");
            let sinks: Vec<Box<dyn TelemetrySink>> = vec![Box::new(TimingFreeSink::new(sink))];
            Observer::new(Arc::new(FanoutSink::new(sinks)))
        }
    };
    rc.observer = observer.clone();
    let trials: u32 = config.num_or("trials", 3u32).expect("trials");
    let result = repair_session(&problem, &rc, trials, store_dir, true).expect("batch run");
    observer.flush();
    format!("{}\n", result_to_canonical_json(&result).to_json())
}

fn only_state(scheduler: &Scheduler, id: &str) -> JobState {
    scheduler.status(Some(id)).first().expect("job known").state
}

#[test]
fn concurrent_jobs_interleave_strictly_at_batch_boundaries() {
    let dir = fresh_dir("fair");
    let conf = write_fixture(&dir.join("fx"), "counter_reset");
    let mut opts = ServeOpts::new(dir.join("store"));
    opts.max_active = 2;
    let scheduler = Scheduler::new(opts).expect("scheduler starts");

    // Two sessions of the same hard scenario, distinguished by seed,
    // each generating serially (`jobs = 1`) in small batches so the
    // fair gate gets plenty of turns to arbitrate.
    let fast = [
        ("batch_size", "8"),
        ("max_generations", "2"),
        ("max_evals", "200"),
        ("trials", "1"),
    ];
    let a = scheduler
        .submit(&spec(&conf, base_overrides(11, &dir), &fast))
        .expect("job a admitted");
    let b = scheduler
        .submit(&spec(&conf, base_overrides(12, &dir), &fast))
        .expect("job b admitted");
    assert_ne!(a.id, b.id, "different seeds are different sessions");
    scheduler.wait_idle();

    assert!(only_state(&scheduler, &a.id).is_terminal());
    assert!(only_state(&scheduler, &b.id).is_terminal());

    let turns = scheduler.turns();
    let pos = |id: &str| {
        let first = turns.iter().position(|t| t == id).expect("job took turns");
        let last = turns.iter().rposition(|t| t == id).expect("job took turns");
        (first, last)
    };
    let (first_a, last_a) = pos(&a.id);
    let (first_b, last_b) = pos(&b.id);
    // While both jobs were in rotation, turns must alternate strictly:
    // no job dispatches two batches in a row.
    let window = &turns[first_a.max(first_b)..=last_a.min(last_b)];
    assert!(
        window.len() >= 4,
        "jobs barely overlapped; turn log: {turns:?}"
    );
    for pair in window.windows(2) {
        assert_ne!(
            pair[0], pair[1],
            "a job took two consecutive batch turns: {window:?}"
        );
    }
    scheduler.shutdown();
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn daemon_jobs_match_batch_runs_byte_for_byte() {
    let dir = fresh_dir("ident");
    let conf = write_fixture(&dir.join("fx"), "flip_flop_cond");

    // The reference: plain batch `repair_session` on a fresh store,
    // timing-free trace.
    let ref_dir = dir.join("reference");
    fs::create_dir_all(&ref_dir).expect("mkdir");
    let ref_trace = ref_dir.join("trace.jsonl");
    let ref_json = batch_reference(
        &conf,
        &base_overrides(5, &dir),
        &ref_dir.join("store"),
        Some(&ref_trace),
    );
    let ref_trace_bytes = fs::read(&ref_trace).expect("reference trace exists");
    assert!(!ref_trace_bytes.is_empty());

    // The same job through the daemon, with 1 and then 4 evaluation
    // workers: identical trace bytes and identical canonical result.
    for jobs in ["1", "4"] {
        let job_dir = dir.join(format!("daemon-jobs-{jobs}"));
        fs::create_dir_all(&job_dir).expect("mkdir");
        let trace = job_dir.join("trace.jsonl");
        let result = job_dir.join("result.json");
        let scheduler = Scheduler::new(ServeOpts::new(job_dir.join("store"))).expect("scheduler");
        let record = scheduler
            .submit(&spec(
                &conf,
                base_overrides(5, &dir),
                &[
                    ("jobs", jobs),
                    ("trace_out", trace.to_str().unwrap()),
                    ("trace_timing", "off"),
                    ("result_out", result.to_str().unwrap()),
                ],
            ))
            .expect("admitted");
        scheduler.wait_idle();
        let state = only_state(&scheduler, &record.id);
        scheduler.shutdown();
        assert!(state.is_terminal(), "job finished, got {state:?}");

        let daemon_trace = fs::read(&trace).expect("daemon trace exists");
        assert_eq!(
            daemon_trace, ref_trace_bytes,
            "jobs={jobs}: daemon trace must be byte-identical to the batch trace"
        );
        let daemon_json = fs::read_to_string(&result).expect("daemon result exists");
        assert_eq!(
            daemon_json, ref_json,
            "jobs={jobs}: daemon canonical result must match the batch run"
        );
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn interrupted_job_resumes_on_restart_to_the_uninterrupted_result() {
    let dir = fresh_dir("halt");
    let conf = write_fixture(&dir.join("fx"), "flip_flop_cond");

    let ref_json = batch_reference(
        &conf,
        &base_overrides(5, &dir),
        &dir.join("ref-store"),
        None,
    );

    // Daemon run with the deterministic kill stand-in: halt right
    // after checkpointing generation 0.
    let store = dir.join("store");
    let result = dir.join("result.json");
    let job_spec = spec(
        &conf,
        base_overrides(5, &dir),
        &[
            ("halt_after", "0"),
            ("result_out", result.to_str().unwrap()),
        ],
    );
    let first = Scheduler::new(ServeOpts::new(&store)).expect("first daemon");
    let record = first.submit(&job_spec).expect("admitted");
    first.wait_idle();
    assert_eq!(
        only_state(&first, &record.id),
        JobState::Interrupted,
        "halt_after must interrupt, not finish"
    );
    assert!(!result.exists(), "no result artifact for an unfinished job");
    first.shutdown();

    // A new daemon over the same store recovers the job from the
    // registry, strips the rehearsed halt, and resumes the session
    // from its checkpoint.
    let second = Scheduler::new(ServeOpts::new(&store)).expect("restarted daemon");
    let recovered = second.status(Some(&record.id));
    assert_eq!(
        recovered.len(),
        1,
        "registry carried the job across restart"
    );
    second.wait_idle();
    assert!(only_state(&second, &record.id).is_terminal());
    second.shutdown();

    let resumed = fs::read_to_string(&result).expect("resumed job wrote its result");
    assert_eq!(
        resumed, ref_json,
        "resume after interruption must land on the uninterrupted result, byte for byte"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn cancelled_job_resumes_on_restart_and_matches_the_search_trajectory() {
    let dir = fresh_dir("cancel");
    // A scenario this budget cannot repair: the job runs its full
    // budget, so a mid-run cancel has room to land.
    let conf = write_fixture(&dir.join("fx"), "counter_reset");

    let ref_json = batch_reference(
        &conf,
        &base_overrides(5, &dir),
        &dir.join("ref-store"),
        None,
    );

    let store = dir.join("store");
    let result = dir.join("result.json");
    let job_spec = spec(
        &conf,
        base_overrides(5, &dir),
        &[("result_out", result.to_str().unwrap())],
    );
    let first = Scheduler::new(ServeOpts::new(&store)).expect("first daemon");
    let record = first.submit(&job_spec).expect("admitted");

    // Wait for the first heartbeat — the job is demonstrably mid-search
    // — then cancel. The engine stops at its next batch boundary.
    let (_, progress) = first.progress(&record.id).expect("job known");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = 0;
    loop {
        let (version, heartbeat, done) = progress.wait_newer(seen, Duration::from_millis(250));
        seen = version;
        if heartbeat.is_some() || done {
            break;
        }
        assert!(Instant::now() < deadline, "no heartbeat within deadline");
    }
    first.cancel(&record.id).expect("cancel accepted");
    first.wait_idle();
    assert_eq!(only_state(&first, &record.id), JobState::Cancelled);
    first.shutdown();

    // Restart: the cancelled (resumable) job re-enqueues and runs to
    // its real end.
    let second = Scheduler::new(ServeOpts::new(&store)).expect("restarted daemon");
    second.wait_idle();
    assert!(only_state(&second, &record.id).is_terminal());
    second.shutdown();

    // A cancel can land between checkpoints, so replayed evaluations
    // become store hits and the effort counters legitimately differ.
    // The search trajectory itself — status, fitness, patch, repaired
    // source, fitness history — must be exactly the uninterrupted one.
    let resumed = parse_json(fs::read_to_string(&result).expect("result written").trim())
        .expect("result parses");
    let reference = parse_json(ref_json.trim()).expect("reference parses");
    for key in [
        "status",
        "best_fitness_bits",
        "patch",
        "repaired_source",
        "unminimized_len",
        "history_bits",
        "improvement_bits",
    ] {
        assert_eq!(
            field(&resumed, key).map(cirfix_telemetry::JsonValue::to_json),
            field(&reference, key).map(cirfix_telemetry::JsonValue::to_json),
            "trajectory field `{key}` must survive cancel + resume"
        );
    }
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn a_submitted_unknown_key_is_a_bad_request_naming_the_key() {
    let dir = fresh_dir("unknown-key");
    let conf = write_fixture(&dir.join("fx"), "flip_flop_cond");
    let scheduler = Scheduler::new(ServeOpts::new(dir.join("store"))).expect("scheduler");
    let err = scheduler
        .submit(&spec(
            &conf,
            base_overrides(1, &dir),
            &[("mined_patterns", "patterns.jsonl")],
        ))
        .expect_err("an unknown key must not queue a job");
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("`mined_patterns`"), "{}", err.message);
    assert!(scheduler.status(None).is_empty(), "nothing was queued");
    scheduler.shutdown();
    let _ = fs::remove_dir_all(dir);
}
