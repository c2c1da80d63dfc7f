//! `ledger [--workload W] [--seed N] [--seconds S] [--trace [0|1]]`
//! measures one workload, or every workload each in a child process,
//! and prints one JSON-lines record per metric. A run of one workload
//! ends with a result line: `{"correct", "attempted", "failed",
//! "metrics"}`.
//!
//! `ledger compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]`
//! compares two runs against the bounds `BENCHMARK.json` declares.
//!
//! Exits 1 when a correctness check fails (or `compare` finds an
//! unresolved end-to-end metric) and 2 on a usage error.

use std::process::{Command, ExitCode, Stdio};

use cirfix_ledger::compare::{compare, records, Declared};
use cirfix_ledger::{run, RunOptions, Workload};
use cirfix_telemetry::JsonValue;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}");
    eprintln!(
        "usage: ledger [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n       \
         ledger compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                args.workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // No setting outside the benchmark may change what it measures:
    // drop the repository's tuning variables before any thread starts.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CIRFIX_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&argv),
    }
}

/// Runs every workload, one at a time, each in its own process so no
/// workload's memory peak or warm caches carry into the next.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate the ledger binary: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name()])
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("ledger: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("ledger: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let opts = RunOptions::new(args.seed, args.seconds, args.trace);
    let out = run(w, &opts);
    eprintln!("ledger: {} digest {}", w.name(), out.digest);
    for e in &out.errors {
        eprintln!("ledger: {}: check failed: {e}", w.name());
    }
    let mut metrics = Vec::new();
    for m in &out.metrics {
        println!("{}", m.record(w.name(), host_cores).to_json());
        metrics.push((
            m.name,
            JsonValue::obj(vec![
                ("value", JsonValue::Float(m.summary().median)),
                ("unit", JsonValue::Str(m.unit.to_string())),
            ]),
        ));
    }
    let result = JsonValue::obj(vec![
        ("correct", JsonValue::Bool(out.correct())),
        ("attempted", JsonValue::Uint(out.attempted)),
        ("failed", JsonValue::Uint(out.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ]);
    println!("{}", result.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = p.clone(),
                None => return usage("--benchmark needs a path"),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("compare takes two record files");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let loaded = (|| {
        let declared = Declared::parse(&read(&benchmark)?)?;
        Ok::<_, String>((declared, records(&read(a)?), records(&read(b)?)))
    })();
    let (declared, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => return usage(&e),
    };
    let (report, failed) = compare(&ra, &rb, &declared);
    print!("{report}");
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
