//! The `repair.conf` format and the builders that turn a parsed config
//! into a [`RepairProblem`], a [`RepairConfig`] and the run's telemetry.
//!
//! The format is simple `key = value` lines, mirroring the
//! configuration file of the paper's artifact (§A.4); `--key value`
//! command-line overrides set the same keys.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cirfix::{
    oracle_from_golden, FaultInjector, FaultPlan, FitnessParams, Observer, RepairConfig,
    RepairProblem, ReportSink,
};
use cirfix_ast::SourceFile;
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_telemetry::{FanoutSink, JsonLinesSink, TelemetrySink, TimingFreeSink};

/// A parsed repair configuration file.
///
/// Recognized keys (the [`KEYS`] list; any other key is an error):
///
/// | key | meaning | default |
/// |---|---|---|
/// | `design` | path to the faulty design (required) | — |
/// | `golden` | path to a known-good design for the oracle (required) | — |
/// | `testbench` | path to the testbench (required) | — |
/// | `top` | testbench top module (required) | — |
/// | `design_modules` | comma-separated repairable modules (required) | — |
/// | `probe_signals` | comma-separated recorded signals (required) | — |
/// | `probe_start` | first sample time | `5` |
/// | `probe_period` | sampling period | `10` |
/// | `max_time` | simulation time bound | `100000` |
/// | `popn_size` | GP population size | `300` |
/// | `max_generations` | GP generations | `8` |
/// | `trials` | independent trials | `3` |
/// | `seed` | base random seed | `1` |
/// | `timeout_s` | wall clock per trial (seconds) | `120` |
/// | `max_evals` | fitness evaluations per trial | `6000` |
/// | `phi` | x/z penalty weight | `2.0` |
/// | `jobs` | evaluation worker threads; `0` = auto (`$CIRFIX_JOBS`, else all cores) | `0` |
/// | `batch_size` | candidates per parallel dispatch | `32` |
/// | `eval_timeout` | per-candidate wall-clock budget in seconds (fractions allowed); `0` = unbudgeted | `0` |
/// | `sim_step_limit` | cap on total simulator operations per candidate | simulator default |
/// | `chaos` | deterministic fault-injection spec, e.g. `panic@5,storefail@2,transient` | off |
/// | `output` | where to write the repaired design | `repaired.v` |
/// | `trace_out` | stream telemetry events as JSON lines to this path | off |
/// | `trace_timing` | `wall` records real durations; `off` scrubs them for byte-reproducible traces | `wall` |
/// | `metrics` | print the run report of the run's own events at the end | `false` |
/// | `store` | persistent store directory, cwd-relative (enables write-through cache, checkpoints, corpus) | off |
/// | `resume` | continue an interrupted session from its last checkpoint | `false` |
/// | `halt_after` | stop right after checkpointing generation N (deterministic kill stand-in) | off |
/// | `result_out` | where to write the canonical, timing-free result JSON | off |
/// | `vcd` | `simulate`: write the recorded waveform to this VCD file | off |
/// | `verify_design` | `verify`: the repaired design to check | `output` |
/// | `verify_testbench` | `verify`: path to the held-out verification bench (required) | — |
/// | `verify_top` | `verify`: the verification bench's top module (required) | — |
#[derive(Debug, Clone, Default)]
pub struct Config {
    values: HashMap<String, String>,
    base_dir: PathBuf,
}

/// Every key a getter reads, in the order of the [`Config`] table.
pub const KEYS: &[&str] = &[
    "design",
    "golden",
    "testbench",
    "top",
    "design_modules",
    "probe_signals",
    "probe_start",
    "probe_period",
    "max_time",
    "popn_size",
    "max_generations",
    "trials",
    "seed",
    "timeout_s",
    "max_evals",
    "phi",
    "jobs",
    "batch_size",
    "eval_timeout",
    "sim_step_limit",
    "chaos",
    "output",
    "trace_out",
    "trace_timing",
    "metrics",
    "store",
    "resume",
    "halt_after",
    "result_out",
    "vcd",
    "verify_design",
    "verify_testbench",
    "verify_top",
];

/// The one check every key passes on its way into a [`Config`]: a
/// misspelt key is an error instead of a silently ignored setting.
fn check_key(key: &str) -> Result<(), ConfigError> {
    if KEYS.contains(&key) {
        Ok(())
    } else {
        Err(ConfigError(format!("unknown key `{key}`")))
    }
}

/// A configuration error with context.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses `text`, resolving relative paths against `base_dir`.
    ///
    /// # Errors
    ///
    /// Returns an error for lines that are not comments, blanks, or
    /// `key = value` pairs, and for keys not in [`KEYS`].
    pub fn parse(text: &str, base_dir: &Path) -> Result<Config, ConfigError> {
        let mut values = HashMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError(format!(
                    "line {}: expected `key = value`, got `{line}`",
                    lineno + 1
                )));
            };
            let key = key.trim();
            check_key(key).map_err(|e| ConfigError(format!("line {}: {}", lineno + 1, e.0)))?;
            values.insert(key.to_string(), value.trim().to_string());
        }
        Ok(Config {
            values,
            base_dir: base_dir.to_path_buf(),
        })
    }

    /// Loads and parses a configuration file.
    ///
    /// # Errors
    ///
    /// I/O and syntax errors.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        Config::parse(&text, base)
    }

    /// Overrides a key (`--key value` command-line overrides).
    ///
    /// # Errors
    ///
    /// A key not in [`KEYS`].
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        check_key(key)?;
        self.values.insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// A required string value.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn required(&self, key: &str) -> Result<&str, ConfigError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| ConfigError(format!("missing required key `{key}`")))
    }

    /// An optional string with a default.
    pub fn string_or(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A numeric value with a default.
    ///
    /// # Errors
    ///
    /// Unparseable numbers.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ConfigError> {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError(format!("key `{key}`: bad number `{v}`"))),
            None => Ok(default),
        }
    }

    /// A boolean flag: `true`/`1`/`yes` count as set.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.string_or(key, "false").as_str(), "true" | "1" | "yes")
    }

    /// A required path, resolved against the config file's directory.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn path(&self, key: &str) -> Result<PathBuf, ConfigError> {
        let raw = self.required(key)?;
        let p = Path::new(raw);
        Ok(if p.is_absolute() {
            p.to_path_buf()
        } else {
            self.base_dir.join(p)
        })
    }

    /// A comma-separated list.
    ///
    /// # Errors
    ///
    /// Missing key.
    pub fn list(&self, key: &str) -> Result<Vec<String>, ConfigError> {
        Ok(self
            .required(key)?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect())
    }
}

/// Config keys that are valueless switches in `--key` override syntax;
/// everything else is a `--key value` pair.
const BOOL_FLAGS: &[&str] = &["metrics", "resume"];

/// Applies `--key value` (and bare `--flag` for [`BOOL_FLAGS`]) command
/// line overrides to `config`.
///
/// # Errors
///
/// Malformed switches, unknown keys (named before any value is read)
/// and missing values.
pub fn apply_overrides(config: &mut Config, overrides: &[String]) -> Result<(), ConfigError> {
    let mut i = 0;
    while i < overrides.len() {
        let key = overrides[i]
            .strip_prefix("--")
            .ok_or_else(|| ConfigError(format!("expected --key, got `{}`", overrides[i])))?;
        // `--trace-out` and `trace_out` name the same config key.
        let key = key.replace('-', "_");
        check_key(&key)?;
        if BOOL_FLAGS.contains(&key.as_str()) {
            config.set(&key, "true")?;
            i += 1;
            continue;
        }
        let value = overrides
            .get(i + 1)
            .ok_or_else(|| ConfigError(format!("--{key} needs a value")))?;
        config.set(&key, value)?;
        i += 2;
    }
    Ok(())
}

/// Parses the `design` and `testbench` sources named by `config`.
fn load_sources(config: &Config) -> Result<(SourceFile, SourceFile), ConfigError> {
    let read = |key: &str| -> Result<String, ConfigError> {
        let path = config.path(key)?;
        std::fs::read_to_string(&path)
            .map_err(|e| ConfigError(format!("cannot read {}: {e}", path.display())))
    };
    let design = cirfix_parser::parse(&read("design")?).map_err(|e| ConfigError(e.to_string()))?;
    let testbench =
        cirfix_parser::parse(&read("testbench")?).map_err(|e| ConfigError(e.to_string()))?;
    Ok((design, testbench))
}

/// Builds the full [`RepairProblem`] — parsed sources, probe spec, and
/// the oracle simulated from the golden design — from a config.
///
/// # Errors
///
/// Missing keys, unreadable or unparseable sources, oracle failures.
pub fn build_problem(config: &Config) -> Result<RepairProblem, ConfigError> {
    let (design, testbench) = load_sources(config)?;
    let top = config.required("top")?.to_string();
    let design_modules = config.list("design_modules")?;
    let probe = ProbeSpec::periodic(
        config.list("probe_signals")?,
        config.num_or("probe_start", 5u64)?,
        config.num_or("probe_period", 10u64)?,
    );
    let mut sim = SimConfig {
        max_time: config.num_or("max_time", 100_000u64)?,
        ..SimConfig::default()
    };
    if config.required("sim_step_limit").is_ok() {
        sim.max_total_ops = config.num_or("sim_step_limit", sim.max_total_ops)?;
    }

    let golden_path = config.path("golden")?;
    let golden_text = std::fs::read_to_string(&golden_path)
        .map_err(|e| ConfigError(format!("cannot read {}: {e}", golden_path.display())))?;
    let mut golden = cirfix_parser::parse(&golden_text).map_err(|e| ConfigError(e.to_string()))?;
    golden.extend_from(testbench.clone());
    let oracle =
        oracle_from_golden(&golden, &top, &probe, &sim).map_err(|e| ConfigError(e.to_string()))?;

    let mut source = design;
    source.extend_from(testbench);
    Ok(RepairProblem {
        source,
        top,
        design_modules,
        probe,
        oracle,
        sim,
    })
}

/// Builds the search parameters from a config (everything except the
/// observer, which [`telemetry`] builds).
///
/// # Errors
///
/// Unparseable numeric values or chaos specs.
pub fn repair_config(config: &Config) -> Result<RepairConfig, ConfigError> {
    let mut rc = RepairConfig::fast(config.num_or("seed", 1u64)?);
    rc.popn_size = config.num_or("popn_size", rc.popn_size)?;
    rc.max_generations = config.num_or("max_generations", rc.max_generations)?;
    rc.max_fitness_evals = config.num_or("max_evals", rc.max_fitness_evals)?;
    rc.timeout = Duration::from_secs(config.num_or("timeout_s", 120u64)?);
    rc.fitness = FitnessParams {
        phi: config.num_or("phi", 2.0f64)?,
    };
    // `0` = auto: the `CIRFIX_JOBS` environment variable when set,
    // otherwise every available core.
    rc.jobs = config.num_or("jobs", 0usize)?;
    rc.batch_size = config.num_or("batch_size", rc.batch_size)?;
    if config.required("halt_after").is_ok() {
        rc.halt_after = Some(config.num_or("halt_after", 0u32)?);
    }
    // Per-candidate wall-clock budget; 0 (the default) = unbudgeted.
    let eval_timeout = config.num_or("eval_timeout", 0.0f64)?;
    if eval_timeout > 0.0 {
        rc.eval_timeout = Some(Duration::from_secs_f64(eval_timeout));
    }
    if let Ok(spec) = config.required("chaos") {
        let plan = FaultPlan::parse(spec).map_err(ConfigError)?;
        if !plan.is_empty() {
            rc.faults = Some(FaultInjector::new(plan));
        }
    }
    Ok(rc)
}

/// The observability destinations a config asks for: the `trace_out`
/// trace and the `metrics` report, behind one observer.
pub struct Telemetry {
    /// Every requested sink; disabled when none is.
    pub observer: Observer,
    /// The run report's fold, when `metrics` is set.
    pub metrics: Option<Arc<ReportSink>>,
}

/// Builds the [`Telemetry`] a config asks for.
///
/// # Errors
///
/// As [`trace_sink`].
pub fn telemetry(config: &Config) -> Result<Telemetry, ConfigError> {
    let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
    sinks.extend(trace_sink(config)?);
    let mut metrics = None;
    if config.flag("metrics") {
        let sink = Arc::new(ReportSink::default());
        sinks.push(Box::new(Arc::clone(&sink)));
        metrics = Some(sink);
    }
    let observer = if sinks.is_empty() {
        Observer::none()
    } else {
        Observer::new(Arc::new(FanoutSink::new(sinks)))
    };
    Ok(Telemetry { observer, metrics })
}

/// The JSON-lines trace sink a config asks for with `trace_out`, in the
/// `trace_timing` mode it names; `None` when no trace is requested.
/// Like `output`, the trace path is a run artifact and resolves against
/// the cwd. The mode is checked before the file is created, so a bad
/// mode leaves an existing trace untouched.
///
/// # Errors
///
/// An unknown `trace_timing` mode or an unopenable trace path.
fn trace_sink(config: &Config) -> Result<Option<Box<dyn TelemetrySink>>, ConfigError> {
    let Ok(path) = config.required("trace_out") else {
        return Ok(None);
    };
    let timing_free = match config.string_or("trace_timing", "wall").as_str() {
        "wall" => false,
        // Timing-free mode: zero every duration/throughput field and
        // drop histograms, so the trace bytes depend only on the
        // (deterministic) search, not the clock or `--jobs`.
        "off" => true,
        other => {
            return Err(ConfigError(format!(
                "trace_timing must be `wall` or `off`, got `{other}`"
            )))
        }
    };
    let sink = JsonLinesSink::create(Path::new(path))
        .map_err(|e| ConfigError(format!("cannot open {path}: {e}")))?;
    Ok(Some(if timing_free {
        Box::new(TimingFreeSink::new(sink))
    } else {
        Box::new(sink)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_key_value_lines() {
        let c = Config::parse(
            "# comment\n\ntop = tb\npopn_size = 40\nprobe_signals = q, ovf\n",
            Path::new("/base"),
        )
        .unwrap();
        assert_eq!(c.required("top").unwrap(), "tb");
        assert_eq!(c.num_or("popn_size", 0usize).unwrap(), 40);
        assert_eq!(c.list("probe_signals").unwrap(), vec!["q", "ovf"]);
        assert_eq!(c.string_or("output", "repaired.v"), "repaired.v");
    }

    #[test]
    fn resolves_relative_paths() {
        let c = Config::parse("design = d.v\n", Path::new("/cfg/dir")).unwrap();
        assert_eq!(c.path("design").unwrap(), PathBuf::from("/cfg/dir/d.v"));
        let c = Config::parse("design = /abs/d.v\n", Path::new("/cfg/dir")).unwrap();
        assert_eq!(c.path("design").unwrap(), PathBuf::from("/abs/d.v"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("nonsense line", Path::new(".")).is_err());
    }

    #[test]
    fn reports_missing_and_bad_values() {
        let c = Config::parse("popn_size = lots\n", Path::new(".")).unwrap();
        assert!(c.required("top").is_err());
        assert!(c.num_or("popn_size", 1usize).is_err());
    }

    #[test]
    fn overrides_apply() {
        let mut c = Config::parse("top = a\n", Path::new(".")).unwrap();
        c.set("top", "b").unwrap();
        assert_eq!(c.required("top").unwrap(), "b");
    }

    #[test]
    fn a_bad_trace_timing_leaves_an_existing_trace_untouched() {
        let dir = std::env::temp_dir().join(format!("cirfix-conf-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        std::fs::write(&trace, "kept\n").unwrap();
        let mut c = Config::default();
        c.set("trace_out", trace.to_str().unwrap()).unwrap();
        c.set("trace_timing", "bogus").unwrap();
        let err = trace_sink(&c).err().expect("an unknown mode is an error");
        assert!(err.0.contains("trace_timing must be"), "{}", err.0);
        assert_eq!(std::fs::read_to_string(&trace).unwrap(), "kept\n");
        c.set("trace_timing", "off").unwrap();
        assert!(trace_sink(&c).unwrap().is_some());
        let c = Config::default();
        assert!(trace_sink(&c).unwrap().is_none(), "no trace_out, no sink");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cli_override_syntax() {
        let mut c = Config::parse("seed = 1\n", Path::new(".")).unwrap();
        let args: Vec<String> = ["--seed", "7", "--resume", "--trace-out", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        apply_overrides(&mut c, &args).unwrap();
        assert_eq!(c.required("seed").unwrap(), "7");
        assert!(c.flag("resume"));
        assert_eq!(c.required("trace_out").unwrap(), "t.jsonl");
        let bad: Vec<String> = vec!["seed".into()];
        assert!(apply_overrides(&mut c, &bad).is_err());
        let dangling: Vec<String> = vec!["--seed".into()];
        assert!(apply_overrides(&mut c, &dangling).is_err());
    }

    fn names_key(err: ConfigError, key: &str) {
        assert!(err.0.contains(&format!("`{key}`")), "{}", err.0);
    }

    #[test]
    fn a_file_with_an_unknown_key_is_an_error() {
        let err = Config::parse("top = tb\npopn_sise = 10\n", Path::new(".")).unwrap_err();
        assert!(err.0.starts_with("line 2:"), "{}", err.0);
        names_key(err, "popn_sise");
    }

    #[test]
    fn an_unknown_override_is_an_error_before_its_value_is_read() {
        let args: Vec<String> = ["--static-filter", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut c = Config::default();
        names_key(apply_overrides(&mut c, &args).unwrap_err(), "static_filter");
    }

    #[test]
    fn setting_an_unknown_key_is_an_error() {
        let mut c = Config::default();
        names_key(
            c.set("mined_patterns", "patterns.jsonl").unwrap_err(),
            "mined_patterns",
        );
        assert!(c.required("mined_patterns").is_err());
    }

    #[test]
    fn every_key_in_the_table_is_known() {
        let table = include_str!("conf.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("/// | `"))
            .filter_map(|l| l.split('`').next());
        let keys: Vec<&str> = table.collect();
        assert_eq!(keys, KEYS);
    }
}
