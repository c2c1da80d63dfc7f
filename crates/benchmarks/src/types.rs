//! Project and defect-scenario descriptors.

use cirfix::{oracle_from_golden, RepairProblem, Verification};
use cirfix_ast::SourceFile;
use cirfix_parser::{parse, ParseError};
use cirfix_sim::{ProbeSpec, SimConfig, SimError};

/// The outcome Table 3 of the paper reports for a scenario, with the
/// repair time in seconds where one was found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PaperOutcome {
    /// Plausible and correct upon manual inspection (a checkmark).
    Correct(f64),
    /// Plausible but correct only with respect to the testbench.
    Plausible(f64),
    /// No repair found in 5 trials.
    NotRepaired,
}

impl PaperOutcome {
    /// `true` if the paper found any (plausible) repair.
    pub fn is_plausible(self) -> bool {
        !matches!(self, PaperOutcome::NotRepaired)
    }
}

/// One benchmark hardware project (a row of Table 2).
#[derive(Debug, Clone)]
pub struct Project {
    /// Project name, matching Table 2.
    pub name: &'static str,
    /// One-line description from Table 2.
    pub description: &'static str,
    /// Golden (correct) design source.
    pub design: &'static str,
    /// Instrumented search testbench source.
    pub testbench: &'static str,
    /// Held-out verification testbench source.
    pub verify_testbench: &'static str,
    /// Top module of the search testbench.
    pub top: &'static str,
    /// Top module of the verification testbench.
    pub verify_top: &'static str,
    /// Modules the repair may modify.
    pub design_modules: &'static [&'static str],
    /// Signals recorded by the instrumentation (testbench-level names).
    pub probe_signals: &'static [&'static str],
    /// First sample time.
    pub probe_start: u64,
    /// Sampling period (one clock cycle).
    pub probe_period: u64,
    /// Simulation time bound for one run of the search testbench.
    pub max_time: u64,
}

impl Project {
    pub(crate) fn probe(&self) -> ProbeSpec {
        ProbeSpec::periodic(
            self.probe_signals.iter().map(|s| s.to_string()).collect(),
            self.probe_start,
            self.probe_period,
        )
    }

    /// Simulation limits for this project. The guards are far above
    /// what a legitimate run of the search testbench needs, yet tight
    /// enough that pathological mutants (oscillators, runaway loops)
    /// are rejected in milliseconds rather than seconds.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            max_time: self.max_time,
            max_deltas: 800,
            max_ops_per_resume: 50_000,
            max_total_ops: 120_000,
            ..SimConfig::default()
        }
    }

    /// Owned design-module name list.
    pub fn design_module_names(&self) -> Vec<String> {
        self.design_modules.iter().map(|s| s.to_string()).collect()
    }

    /// Parses the golden design (design modules only).
    ///
    /// # Errors
    ///
    /// Propagates parse errors (the suite's tests keep this impossible).
    pub fn golden_design(&self) -> Result<SourceFile, ParseError> {
        parse(self.design)
    }

    /// Golden design combined with the search testbench.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn golden_full(&self) -> Result<SourceFile, ParseError> {
        let mut file = parse(self.design)?;
        file.extend_from(parse(self.testbench)?);
        Ok(file)
    }

    /// The expected-behaviour trace, recorded from the golden design
    /// (§4.1.2 of the paper).
    ///
    /// # Errors
    ///
    /// Fails if the golden design does not parse or simulate.
    pub fn oracle(&self) -> Result<cirfix_sim::Trace, Box<dyn std::error::Error>> {
        let golden = self.golden_full()?;
        Ok(oracle_from_golden(
            &golden,
            self.top,
            &self.probe(),
            &self.sim_config(),
        )?)
    }

    /// A repair problem whose "faulty" design is the golden design —
    /// used by tests and for oracle sanity checks.
    ///
    /// # Errors
    ///
    /// Fails if the golden design does not parse or simulate.
    pub fn golden_problem(&self) -> Result<RepairProblem, Box<dyn std::error::Error>> {
        let oracle = self.oracle()?;
        Ok(RepairProblem {
            source: self.golden_full()?,
            top: self.top.to_string(),
            design_modules: self.design_module_names(),
            probe: self.probe(),
            oracle,
            sim: self.sim_config(),
        })
    }

    /// The held-out verification environment.
    ///
    /// # Errors
    ///
    /// Propagates parse errors in the verification bench.
    pub fn verification(&self) -> Result<Verification, ParseError> {
        Ok(Verification {
            testbench: parse(self.verify_testbench)?,
            top: self.verify_top.to_string(),
            probe: ProbeSpec::periodic(
                self.probe_signals.iter().map(|s| s.to_string()).collect(),
                self.probe_start,
                self.probe_period,
            ),
            sim: SimConfig {
                // Verification benches can run longer than search ones.
                max_time: self.max_time * 4,
                ..SimConfig::default()
            },
        })
    }

    /// Source lines of the design (excluding blanks and pure comments),
    /// for the Table 2 reproduction.
    pub fn design_loc(&self) -> usize {
        count_loc(self.design)
    }

    /// Source lines of the search testbench.
    pub fn testbench_loc(&self) -> usize {
        count_loc(self.testbench)
    }
}

fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// One defect scenario (a row of Table 3).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario id (see DESIGN.md).
    pub id: &'static str,
    /// Owning project name.
    pub project: &'static str,
    /// Defect description from Table 3.
    pub description: &'static str,
    /// Category 1 ("easy") or 2 ("hard").
    pub category: u8,
    /// The faulty design source (defect transplanted).
    pub faulty_design: &'static str,
    /// What the paper reports for this defect.
    pub paper: PaperOutcome,
}

impl Scenario {
    /// Parses the faulty design (design modules only).
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn faulty_design_file(&self) -> Result<SourceFile, ParseError> {
        parse(self.faulty_design)
    }

    /// Builds the full repair problem: faulty design + instrumented
    /// testbench + probe + oracle recorded from the golden design.
    ///
    /// # Errors
    ///
    /// Fails when sources do not parse or the golden design does not
    /// simulate.
    pub fn problem(&self) -> Result<RepairProblem, Box<dyn std::error::Error>> {
        let project = crate::registry::project(self.project)
            .ok_or_else(|| SimError::elab(format!("unknown project {}", self.project)))?;
        let oracle = project.oracle()?;
        let mut source = parse(self.faulty_design)?;
        source.extend_from(parse(project.testbench)?);
        Ok(RepairProblem {
            source,
            top: project.top.to_string(),
            design_modules: project.design_module_names(),
            probe: project.probe(),
            oracle,
            sim: project.sim_config(),
        })
    }
}
