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
    for command in ["bogus", "mine"] {
        let out = cirfix(&[command, "/nonexistent.conf"]);
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command `{command}`")),
            "{stderr}"
        );
    }
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
