//! End-to-end checks of the ledger on small scenario subsets. Run with
//! `cargo test --release --manifest-path ledger/Cargo.toml`: the
//! workloads simulate thousands of candidates.

use std::collections::BTreeSet;
use std::path::PathBuf;

use cirfix_ledger::compare::Declared;
use cirfix_ledger::search::{self, SearchScenario};
use cirfix_ledger::stats::Kind;
use cirfix_ledger::{permutation, run, Outcome, RunOptions, Workload};

fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small(workload: Workload, scenarios: usize, trace: bool, jobs: usize) -> Outcome {
    let opts = RunOptions {
        limit: Some(scenarios),
        jobs,
        store_root: temp_dir(workload.name()),
        ..RunOptions::new(7, 0.0, trace)
    };
    let out = run(workload, &opts);
    assert!(out.correct(), "{}: {:?}", workload.name(), out.errors);
    assert_eq!(out.failed, 0, "{}", workload.name());
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .summary()
        .median
}

#[test]
fn traced_decomposition_matches_evaluate_many_bit_for_bit() {
    // The run compares every candidate's decomposed score with the
    // untimed `evaluate_many` pass and fails on any difference.
    for w in [Workload::SweepSimBound, Workload::SweepElabBound] {
        let untraced = small(w, 1, false, 1);
        let traced = small(w, 1, true, 1);
        assert_eq!(untraced.digest, traced.digest, "{}", w.name());
    }
}

#[test]
fn emitted_metrics_are_exactly_the_declared_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let declared = Declared::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let e2e: BTreeSet<String> = declared.end_to_end.iter().map(|b| b.name.clone()).collect();
    let layer: BTreeSet<String> = declared.per_layer.iter().cloned().collect();
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = small(w, 1, trace, 2);
            let want = if trace { Kind::Layer } else { Kind::E2e };
            assert!(out.metrics.iter().all(|m| m.kind == want));
            let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(
                &names,
                if trace { &layer } else { &e2e },
                "{} trace={trace}",
                w.name()
            );
            for m in &out.metrics {
                let v = m.summary().median;
                assert!(v.is_finite() && v >= 0.0, "{} {}: {v}", w.name(), m.name);
            }
        }
    }
}

#[test]
fn table3_gp_counts_do_not_depend_on_jobs() {
    let one = small(Workload::Table3Gp, 3, false, 1);
    let two = small(Workload::Table3Gp, 3, false, 2);
    assert_eq!(one.digest, two.digest);
    for name in ["plausible_repairs", "correct_repairs", "evals_to_repair"] {
        assert_eq!(metric(&one, name), metric(&two, name), "{name}");
    }
}

#[test]
fn warm_store_pass_runs_no_simulations() {
    let set: Vec<SearchScenario> = cirfix_benchmarks::scenarios()[..2]
        .iter()
        .map(SearchScenario::new)
        .collect();
    let dir = temp_dir("warm");
    let cfg = search::config(2, cirfix::Observer::none());
    let pass = search::store_pass(&set, &permutation(set.len(), 3), &cfg, &dir, &mut || {});
    let _ = std::fs::remove_dir_all(&dir);
    assert!(pass.tally.errors.is_empty(), "{:?}", pass.tally.errors);
    assert!(pass.tally.sims > 0);
    assert_eq!(pass.warm_sims, 0);
}

#[test]
fn a_failed_check_exits_non_zero() {
    // A plain file where the store directory must go makes every session
    // fail; the run must report itself incorrect and exit 1.
    let cwd = temp_dir("blocked");
    std::fs::create_dir_all(&cwd).expect("test dir");
    std::fs::write(cwd.join(".ledger-tmp"), "not a directory").expect("blocker");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", "store_cold_warm", "--seconds", "0"])
        .current_dir(&cwd)
        .output()
        .expect("ledger runs");
    let _ = std::fs::remove_dir_all(&cwd);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\":false"), "{last}");
}
