//! Daemon throughput benchmark: a `cirfix serve` instance at its
//! default admission limits, hammered by concurrent clients over the
//! Unix socket.
//!
//! Spins up an in-process daemon, then four client threads each
//! submitting a stream of small distinct repair jobs and watching them
//! to completion. Reports jobs/second, time-to-first-heartbeat, and
//! submit→done latency percentiles — and asserts that the default
//! queue depth admits this load with zero rejections.
//!
//! Emits one JSON line to stdout and to `BENCH_serve.json` (override
//! with `CIRFIX_BENCH_OUT`).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cirfix_bench::{fixed, write_records};
use cirfix_serve::{serve, Client, Request, ServeAddr, ServeOpts};
use cirfix_store::field;
use cirfix_telemetry::JsonValue;

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 3;

/// Writes a benchmark scenario to disk as a daemon-submittable conf.
fn write_fixture(dir: &Path) -> PathBuf {
    let scenario = cirfix_benchmarks::scenario("counter_reset").expect("scenario");
    let project = cirfix_benchmarks::project(scenario.project).expect("project");
    std::fs::create_dir_all(dir).expect("mkdir");
    std::fs::write(dir.join("faulty.v"), scenario.faulty_design).expect("write");
    std::fs::write(dir.join("golden.v"), project.design).expect("write");
    std::fs::write(dir.join("tb.v"), project.testbench).expect("write");
    let conf = format!(
        "design = faulty.v\ngolden = golden.v\ntestbench = tb.v\ntop = {}\n\
         design_modules = {}\nprobe_signals = {}\nprobe_start = {}\n\
         probe_period = {}\nmax_time = {}\n\
         popn_size = 24\nmax_generations = 2\nmax_evals = 100\n\
         timeout_s = 3600\ntrials = 1\njobs = 1\nbatch_size = 8\n",
        project.top,
        project.design_modules.join(","),
        project.probe_signals.join(","),
        project.probe_start,
        project.probe_period,
        project.max_time,
    );
    let path = dir.join("repair.conf");
    std::fs::write(&path, conf).expect("write conf");
    path
}

struct JobTiming {
    first_heartbeat_s: Option<f64>,
    submit_done_s: f64,
    rejected: bool,
}

/// Submits one job and watches it to completion over its own
/// connection, timing first heartbeat and total latency.
fn run_one_job(addr: &ServeAddr, conf: &str, seed: u64) -> JobTiming {
    let mut client = Client::connect(addr).expect("client connects");
    let t0 = Instant::now();
    let line = client
        .request(&Request::Submit {
            conf: conf.to_string(),
            overrides: vec![("seed".to_string(), seed.to_string())],
        })
        .expect("submit answers");
    if !cirfix_serve::client::response_ok(&line) {
        return JobTiming {
            first_heartbeat_s: None,
            submit_done_s: t0.elapsed().as_secs_f64(),
            rejected: true,
        };
    }
    let job = match field(&line, "job") {
        Some(JsonValue::Str(id)) => id.clone(),
        _ => panic!("submit response without a job id"),
    };
    let mut first_heartbeat: Option<f64> = None;
    client
        .watch(&job, false, |watch_line| {
            let has_event = !matches!(field(watch_line, "event"), None | Some(JsonValue::Null));
            if has_event && first_heartbeat.is_none() {
                first_heartbeat = Some(t0.elapsed().as_secs_f64());
            }
        })
        .expect("watch streams");
    JobTiming {
        first_heartbeat_s: first_heartbeat,
        submit_done_s: t0.elapsed().as_secs_f64(),
        rejected: false,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let dir = std::env::temp_dir().join(format!("cirfix-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let conf = write_fixture(&dir.join("fx"));
    let conf = conf.display().to_string();

    let addr = ServeAddr::Unix(dir.join("d.sock"));
    let daemon = {
        let addr = addr.clone();
        let opts = ServeOpts::new(dir.join("store"));
        std::thread::spawn(move || serve(&addr, opts).expect("daemon runs"))
    };
    let ServeAddr::Unix(sock) = &addr else {
        unreachable!()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sock.exists() {
        assert!(Instant::now() < deadline, "daemon never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        let conf = conf.clone();
        handles.push(std::thread::spawn(move || {
            (0..JOBS_PER_CLIENT)
                .map(|j| run_one_job(&addr, &conf, 1 + (c * JOBS_PER_CLIENT + j) as u64))
                .collect::<Vec<_>>()
        }));
    }
    let timings: Vec<JobTiming> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();

    let mut client = Client::connect(&addr).expect("connect for shutdown");
    client
        .request(&Request::Shutdown)
        .expect("shutdown answers");
    daemon.join().expect("daemon exits");

    let rejections = timings.iter().filter(|t| t.rejected).count();
    assert_eq!(
        rejections, 0,
        "default admission limits must absorb {CLIENTS} clients x {JOBS_PER_CLIENT} jobs"
    );
    let jobs = timings.len();
    let mut done: Vec<f64> = timings.iter().map(|t| t.submit_done_s).collect();
    done.sort_by(f64::total_cmp);
    let mut ttfh: Vec<f64> = timings.iter().filter_map(|t| t.first_heartbeat_s).collect();
    ttfh.sort_by(f64::total_cmp);

    let record = JsonValue::obj(vec![
        ("bench", JsonValue::Str("serve_throughput".into())),
        ("clients", JsonValue::Uint(CLIENTS as u64)),
        ("jobs", JsonValue::Uint(jobs as u64)),
        ("wall_s", fixed(wall_s, 4)),
        ("jobs_per_s", fixed(jobs as f64 / wall_s, 3)),
        ("ttfh_p50_s", fixed(percentile(&ttfh, 0.50), 4)),
        ("submit_done_p50_s", fixed(percentile(&done, 0.50), 4)),
        ("submit_done_p99_s", fixed(percentile(&done, 0.99), 4)),
        ("admission_rejections", JsonValue::Uint(rejections as u64)),
    ]);
    let _ = std::fs::remove_dir_all(&dir);

    write_records("serve_throughput", "BENCH_serve.json", &[record]);
}
