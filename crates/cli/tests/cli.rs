//! End-to-end tests of the `cirfix` binary: config-driven repair,
//! simulation, fitness and localization, exactly as a user would run it.

use std::path::PathBuf;
use std::process::{Command, Output};

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

/// Creates a scratch project directory with sources and a repair.conf.
fn setup(dir_name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix_cli_{dir_name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("faulty.v"), FAULTY).unwrap();
    std::fs::write(dir.join("golden.v"), GOLDEN).unwrap();
    std::fs::write(dir.join("tb.v"), TB).unwrap();
    std::fs::write(
        dir.join("repair.conf"),
        format!(
            "# CirFix configuration (cf. the artifact's repair.conf)\n\
             design = faulty.v\n\
             golden = golden.v\n\
             testbench = tb.v\n\
             top = tb\n\
             design_modules = cnt\n\
             probe_signals = q\n\
             probe_start = 5\n\
             probe_period = 10\n\
             max_time = 200\n\
             popn_size = 200\n\
             trials = 3\n\
             output = {}\n",
            dir.join("repaired.v").display()
        ),
    )
    .unwrap();
    dir
}

/// The shipped example configuration; relative paths inside it resolve
/// against its own directory, so tests run it from anywhere.
fn example_conf() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/cli/repair.conf"
    )
    .to_string()
}

fn cirfix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cirfix"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn repair_command_writes_a_repaired_design() {
    let dir = setup("repair");
    let conf = dir.join("repair.conf");
    let out = cirfix(&["repair", conf.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("plausible: true"), "{stdout}");
    let repaired = std::fs::read_to_string(dir.join("repaired.v")).expect("output written");
    assert!(repaired.contains("module cnt"));
    // The repaired design must parse.
    cirfix_parser::parse(&repaired).expect("repaired design parses");
}

#[test]
fn simulate_command_prints_csv() {
    let dir = setup("simulate");
    let conf = dir.join("repair.conf");
    let out = cirfix(&["simulate", conf.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("time,q"), "{stdout}");
    assert!(stdout.contains("finished=true"), "{stdout}");
}

#[test]
fn simulate_writes_vcd_when_asked() {
    let dir = setup("vcd");
    let conf = dir.join("repair.conf");
    let vcd_path = dir.join("wave.vcd");
    let out = cirfix(&[
        "simulate",
        conf.to_str().unwrap(),
        "--vcd",
        vcd_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let vcd = std::fs::read_to_string(&vcd_path).expect("vcd written");
    assert!(vcd.contains("$enddefinitions"));
}

#[test]
fn fitness_command_scores_the_faulty_design() {
    let dir = setup("fitness");
    let conf = dir.join("repair.conf");
    let out = cirfix(&["fitness", conf.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fitness: 0."), "{stdout}");
    assert!(stdout.contains("q"), "{stdout}");
}

#[test]
fn localize_command_lists_implicated_statements() {
    let dir = setup("localize");
    let conf = dir.join("repair.conf");
    let out = cirfix(&["localize", conf.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("implicated nodes:"), "{stdout}");
    assert!(stdout.contains('q'), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = cirfix(&[]);
    assert!(!out.status.success());
    // `mine` and the daemon verbs are retired commands.
    let retired = ["mine", "serve", "submit", "status", "cancel", "shutdown"];
    for command in std::iter::once("bogus").chain(retired) {
        let out = cirfix(&[command, "/nonexistent.conf"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{command}`")),
            "{stderr}"
        );
    }
    let out = cirfix(&["watch", "t.jsonl", "--socket", "s"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown watch flag `--socket`"), "{stderr}");
    let out = cirfix(&["repair", "/nonexistent.conf"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn overrides_change_behaviour() {
    let dir = setup("override");
    let conf = dir.join("repair.conf");
    // An absurdly small budget cannot repair.
    let out = cirfix(&[
        "repair",
        conf.to_str().unwrap(),
        "--max_evals",
        "1",
        "--popn_size",
        "2",
        "--max_generations",
        "1",
        "--trials",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no plausible repair"));
}

#[test]
fn store_ls_counts_partitions_and_legacy_records() {
    let dir = setup("store_ls");
    let conf = dir.join("repair.conf");
    let store = dir.join("store");
    let out = cirfix(&[
        "repair",
        conf.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--trials",
        "1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cirfix(&["store", "ls", store.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A freshly written store holds one scenario's partition and no
    // legacy segments.
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("evaluations"))
        .unwrap_or_else(|| panic!("no evaluations line: {stdout}"));
    assert!(
        line.ends_with("(1 scenario partition(s), 0 in legacy segments)"),
        "{line}"
    );
    let total: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert!(total > 0, "{line}");
}

#[test]
fn watch_once_reads_a_damaged_finished_trace() {
    let dir = setup("watch");
    let trace = dir.join("trace.jsonl");
    let output = dir.join("r.v");
    let out = cirfix(&[
        "repair",
        &example_conf(),
        "--trials",
        "1",
        "--seed",
        "7",
        "--trace-out",
        trace.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let heartbeats = text.matches("\"type\":\"heartbeat\"").count();
    // A garbage line before the terminal heartbeat, and the torn tail a
    // writer killed mid-line leaves behind.
    let last = text.rfind("{\"type\":\"heartbeat\"").expect("a heartbeat");
    let damaged = format!(
        "{}not json\n{}{{\"type\":\"heartbeat\",\"sta",
        &text[..last],
        &text[last..]
    );
    std::fs::write(&trace, damaged).unwrap();
    let out = cirfix(&["watch", trace.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // The torn tail is an incomplete line: watch leaves it for a later
    // poll, so only the garbage line counts as skipped.
    let header = stdout
        .lines()
        .rfind(|l| l.starts_with("watching "))
        .unwrap_or_else(|| panic!("no header: {stdout}"));
    assert!(
        header.ends_with(&format!(
            "(heartbeat {heartbeats}, 1 malformed line(s) skipped)"
        )),
        "{stdout}"
    );
    assert_eq!(stdout.lines().last(), Some("run done"), "{stdout}");
}

#[test]
fn repair_metrics_prints_the_run_report_of_its_own_events() {
    let dir = setup("metrics");
    let trace = dir.join("trace.jsonl");
    let output = dir.join("r.v");
    let out = cirfix(&[
        "repair",
        &example_conf(),
        "--trials",
        "1",
        "--seed",
        "7",
        "--metrics",
        "--trace-out",
        trace.to_str().unwrap(),
        "--output",
        output.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for line in [
        "  candidate evaluations 97 (cached 87)",
        "  mean candidate fitness 0.2374 | longest patch 1",
        "  passes 1 | implicated nodes (last pass) 7",
        "  runs 10 | events processed 633 | timesteps 330 | NBA flushes 0 | peak queue depth 4",
        "  heartbeats seen 2",
    ] {
        assert!(stdout.contains(&format!("\n{line}\n")), "{line}\n{stdout}");
    }
    for span in ["repair", "minimize"] {
        assert!(
            stdout.contains(&format!("\n  {span:<10}        1 x ")),
            "{span}\n{stdout}"
        );
    }
    // The live report is the same fold `cirfix report` applies to the
    // run's trace.
    let report = cirfix(&["report", trace.to_str().unwrap()]);
    assert!(report.status.success());
    let report = String::from_utf8_lossy(&report.stdout);
    assert!(report.starts_with("run report (trace, "), "{report}");
    assert!(stdout.contains(report.as_ref()), "{report}\n---\n{stdout}");
}

#[test]
fn simulate_metrics_reports_the_simulator_effort() {
    let out = cirfix(&["simulate", &example_conf(), "--metrics"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("run report (trace, 1 events)\n"),
        "{stderr}"
    );
    assert!(
        stderr.contains(
            "\n  runs 1 | events processed 68 | timesteps 33 | NBA flushes 0 | peak queue depth 4\n"
        ),
        "{stderr}"
    );
}
