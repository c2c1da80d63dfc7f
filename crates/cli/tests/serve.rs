//! End-to-end daemon tests of the `cirfix` binary: serve, submit,
//! status, watch, cancel, shutdown — and the two properties the
//! service mode is built around: daemon jobs are byte-identical to
//! batch `cirfix repair` runs, and a killed daemon resumes its
//! in-flight jobs on restart.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const FAULTY: &str = r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (!r) q <= 0;
        else q <= q + 1;
endmodule
"#;

const GOLDEN: &str = r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (r) q <= 0;
        else q <= q + 1;
endmodule
"#;

const TB: &str = r#"
module tb;
    reg c, r;
    wire [1:0] q;
    cnt dut (c, r, q);
    initial begin c = 0; r = 1; #12 r = 0; end
    always #5 c = !c;
    initial #120 $finish;
endmodule
"#;

fn setup(dir_name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix_serve_{dir_name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("faulty.v"), FAULTY).unwrap();
    std::fs::write(dir.join("golden.v"), GOLDEN).unwrap();
    std::fs::write(dir.join("tb.v"), TB).unwrap();
    std::fs::write(
        dir.join("repair.conf"),
        "design = faulty.v\n\
         golden = golden.v\n\
         testbench = tb.v\n\
         top = tb\n\
         design_modules = cnt\n\
         probe_signals = q\n\
         probe_start = 5\n\
         probe_period = 10\n\
         max_time = 200\n\
         popn_size = 60\n\
         max_generations = 3\n\
         max_evals = 400\n\
         timeout_s = 3600\n\
         trials = 2\n\
         seed = 5\n",
    )
    .unwrap();
    dir
}

fn cirfix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cirfix"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs batch `cirfix repair` as the reference for a daemon job. The
/// identity properties hold whether or not the budget finds a repair,
/// and `repair` exits nonzero on a miss — so only I/O failures (no
/// canonical result written) are errors here.
fn batch_reference(args: &[&str], result_out: &Path) {
    let out = cirfix(args);
    assert!(
        result_out.exists(),
        "reference repair wrote no result\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A running `cirfix serve`, killed and reaped when dropped, so a test
/// that fails midway does not leak its daemon.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `cirfix serve` on a Unix socket and waits until it answers.
/// The socket file appears when the daemon binds, before it listens, so
/// readiness is a `status` request that succeeds, not the file.
fn start_daemon(store: &Path, sock: &Path, extra: &[&str]) -> Daemon {
    // A SIGKILLed predecessor leaves its socket file behind.
    let _ = std::fs::remove_file(sock);
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_cirfix"))
            .arg("serve")
            .arg(store)
            .arg("--socket")
            .arg(sock)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cirfix(&["status", "--socket", sock.to_str().unwrap()])
        .status
        .success()
    {
        let exited = daemon.0.try_wait().expect("wait works");
        assert!(
            exited.is_none(),
            "daemon exited before answering: {exited:?}"
        );
        assert!(
            Instant::now() < deadline,
            "daemon never answered on its socket"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon
}

/// Sends `shutdown` and waits for the daemon to exit.
fn stop_daemon(mut daemon: Daemon, sock: &Path) {
    let out = cirfix(&["shutdown", "--socket", sock.to_str().unwrap()]);
    stdout_of(&out);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if daemon.0.try_wait().expect("wait works").is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submits a job and returns its id (first token of the job line).
fn submit(sock: &Path, conf: &Path, overrides: &[&str]) -> String {
    let mut args = vec![
        "submit",
        conf.to_str().unwrap(),
        "--socket",
        sock.to_str().unwrap(),
    ];
    args.extend_from_slice(overrides);
    let stdout = stdout_of(&cirfix(&args));
    stdout
        .split_whitespace()
        .next()
        .expect("submit prints a job id")
        .to_string()
}

/// Polls `cirfix status JOB` until its state matches, within a deadline.
fn wait_for_state(sock: &Path, job: &str, states: &[&str]) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stdout = stdout_of(&cirfix(&[
            "status",
            job,
            "--socket",
            sock.to_str().unwrap(),
        ]));
        let state = stdout
            .split_whitespace()
            .nth(1)
            .unwrap_or_default()
            .to_string();
        if states.contains(&state.as_str()) {
            return state;
        }
        assert!(
            Instant::now() < deadline,
            "job {job} never reached {states:?}; last status: {stdout}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn daemon_submit_matches_batch_repair_and_report() {
    let dir = setup("identity");
    let conf = dir.join("repair.conf");

    // The batch reference: plain `cirfix repair` over a session store
    // with a timing-free trace and the canonical result.
    let ref_trace = dir.join("ref-trace.jsonl");
    let ref_result = dir.join("ref-result.json");
    batch_reference(
        &[
            "repair",
            conf.to_str().unwrap(),
            "--store",
            dir.join("ref-store").to_str().unwrap(),
            "--trace-out",
            ref_trace.to_str().unwrap(),
            "--trace-timing",
            "off",
            "--result-out",
            ref_result.to_str().unwrap(),
            "--output",
            dir.join("ref-repaired.v").to_str().unwrap(),
            "--jobs",
            "1",
        ],
        &ref_result,
    );
    let ref_trace_bytes = std::fs::read(&ref_trace).expect("reference trace");
    let ref_result_bytes = std::fs::read(&ref_result).expect("reference result");
    let ref_report = stdout_of(&cirfix(&["report", ref_trace.to_str().unwrap(), "--json"]));

    // The same job through a daemon, with 1 and then 4 eval workers.
    for jobs in ["1", "4"] {
        let job_dir = dir.join(format!("daemon-{jobs}"));
        std::fs::create_dir_all(&job_dir).unwrap();
        let sock = job_dir.join("d.sock");
        let trace = job_dir.join("trace.jsonl");
        let result = job_dir.join("result.json");
        let daemon = start_daemon(&job_dir.join("store"), &sock, &[]);

        let job = submit(
            &sock,
            &conf,
            &[
                "--jobs",
                jobs,
                "--trace-out",
                trace.to_str().unwrap(),
                "--trace-timing",
                "off",
                "--result-out",
                result.to_str().unwrap(),
                "--output",
                job_dir.join("repaired.v").to_str().unwrap(),
            ],
        );
        let state = wait_for_state(&sock, &job, &["plausible", "failed"]);

        // `watch --once` on a finished job draws its terminal heartbeat
        // and reports its terminal state.
        let watch = stdout_of(&cirfix(&[
            "watch",
            &job,
            "--socket",
            sock.to_str().unwrap(),
            "--once",
        ]));
        assert!(
            watch.contains("(heartbeat 1, state "),
            "watch output: {watch}"
        );
        assert!(watch.contains("  status done | "), "watch output: {watch}");
        assert!(watch.contains(&state), "watch output: {watch}");

        stop_daemon(daemon, &sock);

        assert_eq!(
            std::fs::read(&trace).expect("daemon trace"),
            ref_trace_bytes,
            "jobs={jobs}: daemon trace differs from batch trace"
        );
        assert_eq!(
            std::fs::read(&result).expect("daemon result"),
            ref_result_bytes,
            "jobs={jobs}: daemon result differs from batch result"
        );
        let report = stdout_of(&cirfix(&["report", trace.to_str().unwrap(), "--json"]));
        assert_eq!(report, ref_report, "jobs={jobs}: report differs");
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn killed_daemon_resumes_the_job_on_restart() {
    let dir = setup("killed");
    let conf = dir.join("repair.conf");

    // Uninterrupted reference result.
    let ref_result = dir.join("ref-result.json");
    batch_reference(
        &[
            "repair",
            conf.to_str().unwrap(),
            "--store",
            dir.join("ref-store").to_str().unwrap(),
            "--result-out",
            ref_result.to_str().unwrap(),
            "--output",
            dir.join("ref-repaired.v").to_str().unwrap(),
            "--jobs",
            "1",
        ],
        &ref_result,
    );
    let ref_result_bytes = std::fs::read(&ref_result).expect("reference result");

    // First daemon: the job halts right after checkpointing
    // generation 0 (the deterministic stand-in for dying mid-run),
    // then the daemon itself is SIGKILLed — no drain, no cleanup.
    let store = dir.join("store");
    let sock = dir.join("d.sock");
    let result = dir.join("result.json");
    let mut daemon = start_daemon(&store, &sock, &[]);
    let job = submit(
        &sock,
        &conf,
        &[
            "--halt-after",
            "0",
            "--jobs",
            "1",
            "--result-out",
            result.to_str().unwrap(),
            "--output",
            dir.join("repaired.v").to_str().unwrap(),
        ],
    );
    wait_for_state(&sock, &job, &["interrupted"]);
    daemon.0.kill().expect("SIGKILL lands");
    daemon.0.wait().expect("reaped");
    assert!(!result.exists(), "interrupted job has no result yet");

    // Second daemon over the same store: the registry re-enqueues the
    // job, the rehearsed halt is stripped, and the session resumes
    // from its checkpoint to the same result as never having stopped.
    let daemon = start_daemon(&store, &sock, &[]);
    wait_for_state(&sock, &job, &["plausible", "failed"]);
    stop_daemon(daemon, &sock);

    assert_eq!(
        std::fs::read(&result).expect("resumed result"),
        ref_result_bytes,
        "resumed job must land on the uninterrupted result"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn queued_jobs_cancel_cleanly() {
    let dir = setup("cancel");
    let conf = dir.join("repair.conf");
    let sock = dir.join("d.sock");
    // `--max-active 0`: nothing ever runs, so the job stays queued and
    // the cancel path is deterministic.
    let daemon = start_daemon(&dir.join("store"), &sock, &["--max-active", "0"]);

    let job = submit(&sock, &conf, &[]);
    wait_for_state(&sock, &job, &["queued"]);
    let out = stdout_of(&cirfix(&[
        "cancel",
        &job,
        "--socket",
        sock.to_str().unwrap(),
    ]));
    assert!(out.contains("cancelled"), "cancel output: {out}");
    wait_for_state(&sock, &job, &["cancelled"]);

    // Cancelling an unknown job is a structured error, not a crash.
    let bad = cirfix(&["cancel", "nope", "--socket", sock.to_str().unwrap()]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown_job"));

    stop_daemon(daemon, &sock);
    let _ = std::fs::remove_dir_all(dir);
}
