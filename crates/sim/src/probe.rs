//! Testbench instrumentation: recording output values during simulation.
//!
//! The paper instruments each testbench to "record the values of output
//! wires and registers for specified time intervals" (§3.2). Here that
//! instrumentation is a [`ProbeSpec`]: a list of hierarchical signal
//! names plus a sampling schedule. Samples are taken in the *postponed*
//! region of a time step — after all non-blocking updates have settled —
//! like Verilog's `$strobe`.

use cirfix_logic::{EdgeKind, LogicVec};

/// When a probe samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeSchedule {
    /// Sample at `start`, `start + period`, `start + 2·period`, …
    Periodic {
        /// First sample time.
        start: u64,
        /// Sampling period (a clock cycle, by default).
        period: u64,
    },
    /// Sample at the end of any time step in which `signal` had the
    /// given edge — e.g. every rising edge of the clock.
    OnEdge {
        /// Hierarchical name of the watched signal.
        signal: String,
        /// Which transition triggers a sample.
        edge: EdgeKind,
    },
}

/// An instrumentation request: which signals to record and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Hierarchical names of the recorded signals (e.g. `dut.counter_out`).
    pub signals: Vec<String>,
    /// Sampling schedule.
    pub schedule: ProbeSchedule,
}

impl ProbeSpec {
    /// A periodic probe — the common instrumentation in the paper, with
    /// `start` aligned to the first interesting clock edge and `period`
    /// one clock cycle.
    pub fn periodic(signals: Vec<String>, start: u64, period: u64) -> ProbeSpec {
        ProbeSpec {
            signals,
            schedule: ProbeSchedule::Periodic { start, period },
        }
    }

    /// A probe sampling on every rising edge of `clock`.
    pub fn on_posedge(signals: Vec<String>, clock: impl Into<String>) -> ProbeSpec {
        ProbeSpec {
            signals,
            schedule: ProbeSchedule::OnEdge {
                signal: clock.into(),
                edge: EdgeKind::Pos,
            },
        }
    }
}

/// Recorded samples: the paper's `S : Time → Var → {0,1,x,z}ⁿ` map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    vars: Vec<String>,
    /// Rows sorted by time, unique per time. A sorted `Vec` rather than
    /// a `BTreeMap`: the engine records in ascending time order, so
    /// recording is an append and lookups are a binary search, with no
    /// per-row node allocations.
    rows: Vec<(u64, Vec<LogicVec>)>,
}

impl Trace {
    /// An empty trace over the given variables.
    pub fn new(vars: Vec<String>) -> Trace {
        Trace {
            vars,
            rows: Vec::new(),
        }
    }

    /// The recorded variable names, in column order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// The recorded sample times, ascending.
    pub fn times(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().map(|&(t, _)| t)
    }

    /// Number of recorded rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Records one row. Values must be in [`Trace::vars`] order.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the variable count.
    pub fn record(&mut self, time: u64, values: Vec<LogicVec>) {
        assert_eq!(
            values.len(),
            self.vars.len(),
            "row width must match variable count"
        );
        match self.rows.last() {
            Some(&(last, _)) if last < time => self.rows.push((time, values)),
            None => self.rows.push((time, values)),
            _ => match self.rows.binary_search_by_key(&time, |&(t, _)| t) {
                Ok(i) => self.rows[i].1 = values,
                Err(i) => self.rows.insert(i, (time, values)),
            },
        }
    }

    /// The value of `var` at `time`, if recorded.
    pub fn get(&self, time: u64, var: &str) -> Option<&LogicVec> {
        let col = self.vars.iter().position(|v| v == var)?;
        Some(&self.row(time)?[col])
    }

    /// The whole row at `time`, if recorded.
    pub fn row(&self, time: u64) -> Option<&[LogicVec]> {
        let i = self.rows.binary_search_by_key(&time, |&(t, _)| t).ok()?;
        Some(&self.rows[i].1)
    }

    /// Iterates the rows in ascending time order: each sample time with
    /// its values in [`Trace::vars`] order.
    pub fn rows(&self) -> impl Iterator<Item = (u64, &[LogicVec])> + '_ {
        self.rows.iter().map(|(t, row)| (*t, row.as_slice()))
    }

    /// Iterates `(time, var, value)` over every recorded cell.
    pub fn cells(&self) -> impl Iterator<Item = (u64, &str, &LogicVec)> + '_ {
        self.rows.iter().flat_map(move |&(t, ref row)| {
            self.vars
                .iter()
                .zip(row.iter())
                .map(move |(v, val)| (t, v.as_str(), val))
        })
    }

    /// Removes cells not satisfying the predicate — used to degrade the
    /// expected-behaviour information for the paper's RQ4. Since a trace
    /// is rectangular, dropping a *cell* is modelled by keeping rows but
    /// recording per-row presence; for simplicity, dropping removes the
    /// whole row when every cell of the row is dropped.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.rows.retain(|&(t, _)| keep(t));
    }

    /// Renders the trace as CSV (`time,var1,var2,…`), the format of the
    /// paper's Figure 2.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time");
        for v in &self.vars {
            out.push(',');
            out.push_str(v);
        }
        out.push('\n');
        for &(t, ref row) in &self.rows {
            out.push_str(&t.to_string());
            for val in row {
                out.push(',');
                let s = val.to_string();
                // Strip the `W'b` prefix for readability.
                let bits = s.split('b').nth(1).unwrap_or(&s);
                out.push_str(bits);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new(vec!["a".into(), "b".into()]);
        assert!(t.is_empty());
        t.record(10, vec![LogicVec::from_u64(1, 1), LogicVec::from_u64(3, 4)]);
        t.record(20, vec![LogicVec::from_u64(0, 1), LogicVec::unknown(4)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(10, "b").unwrap().to_u64(), Some(3));
        assert!(t.get(20, "b").unwrap().has_unknown());
        assert!(t.get(15, "a").is_none());
        assert!(t.get(10, "zz").is_none());
        assert_eq!(t.times().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn rows_iterate_in_time_order() {
        let mut t = Trace::new(vec!["a".into(), "b".into()]);
        t.record(5, vec![LogicVec::from_u64(1, 1), LogicVec::from_u64(2, 2)]);
        t.record(3, vec![LogicVec::from_u64(0, 1), LogicVec::from_u64(1, 2)]);
        let rows: Vec<_> = t.rows().map(|(time, row)| (time, row.to_vec())).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 3);
        assert_eq!(rows[1], (5, t.row(5).unwrap().to_vec()));
    }

    #[test]
    fn cells_iterates_in_order() {
        let mut t = Trace::new(vec!["a".into()]);
        t.record(5, vec![LogicVec::from_u64(1, 1)]);
        t.record(3, vec![LogicVec::from_u64(0, 1)]);
        let cells: Vec<_> = t.cells().map(|(t, v, _)| (t, v.to_string())).collect();
        assert_eq!(cells, vec![(3, "a".to_string()), (5, "a".to_string())]);
    }

    #[test]
    fn csv_format() {
        let mut t = Trace::new(vec!["overflow_out".into()]);
        t.record(25, vec![LogicVec::unknown(1)]);
        t.record(35, vec![LogicVec::from_u64(0, 1)]);
        let csv = t.to_csv();
        assert!(csv.starts_with("time,overflow_out\n"));
        assert!(csv.contains("25,x\n"));
        assert!(csv.contains("35,0\n"));
    }

    #[test]
    fn retain_rows_degrades() {
        let mut t = Trace::new(vec!["a".into()]);
        for i in 0..10 {
            t.record(i, vec![LogicVec::from_u64(i, 4)]);
        }
        t.retain_rows(|time| time % 2 == 0);
        assert_eq!(t.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn record_checks_width() {
        let mut t = Trace::new(vec!["a".into(), "b".into()]);
        t.record(0, vec![LogicVec::from_u64(0, 1)]);
    }
}
