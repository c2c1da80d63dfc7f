//! `ledger compare A.jsonl B.jsonl`: for each workload and metric, the
//! two medians, their quartile spreads, and whether B is within the
//! bound `BENCHMARK.json` fixes for that metric.

use cirfix_store::{field, field_f64, field_str, parse_json};
use cirfix_telemetry::JsonValue;

use crate::stats::Summary;

/// The regression rule `BENCHMARK.json` declares for one end-to-end
/// metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// The share of A's median by which B may be worse.
    pub bound: f64,
}

/// The metric names `BENCHMARK.json` declares: its end-to-end bounds and
/// its per-layer names.
#[derive(Debug, Clone, Default)]
pub struct Declared {
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bound>,
    /// Per-layer metric names.
    pub per_layer: Vec<String>,
}

impl Declared {
    /// Parses `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a metric entry missing a field.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let root = parse_json(text)?;
        let list = |key: &str| match field(&root, key) {
            Some(JsonValue::Array(items)) => Ok(items.clone()),
            _ => Err(format!("BENCHMARK.json has no `{key}` list")),
        };
        let mut declared = Declared::default();
        for m in list("end_to_end")? {
            let name = field_str(&m, "name").ok_or("metric without a name")?;
            declared.end_to_end.push(Bound {
                name: name.to_string(),
                lower_is_better: field_str(&m, "better") == Some("lower"),
                bound: field_f64(&m, "bound").ok_or(format!("{name} has no bound"))?,
            });
        }
        for m in list("per_layer")? {
            let name = field_str(&m, "name").ok_or("metric without a name")?;
            declared.per_layer.push(name.to_string());
        }
        Ok(declared)
    }
}

/// One metric record read back from a ledger run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median and quartiles.
    pub summary: Summary,
}

/// Reads the metric records of a ledger run's output, skipping every
/// other line (the per-workload result objects).
pub fn records(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| parse_json(line).ok())
        .filter_map(|v| {
            Some(Record {
                workload: field_str(&v, "workload")?.to_string(),
                metric: field_str(&v, "metric")?.to_string(),
                summary: Summary {
                    median: field_f64(&v, "median")?,
                    p25: field_f64(&v, "p25")?,
                    p75: field_f64(&v, "p75")?,
                },
            })
        })
        .collect()
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is worse than A by more than the bound: a regression, or
    /// noise wider than the bound; either way not a pass.
    Unresolved,
    /// A per-layer metric: no bound applies.
    Unbounded,
}

/// Compares two runs metric by metric. Returns the report and whether
/// any end-to-end metric is unresolved or missing from B.
pub fn compare(a: &[Record], b: &[Record], declared: &Declared) -> (String, bool) {
    let mut out = format!(
        "{:<17} {:<19} {:>14} {:>14} {:>7} {:>7} {:>8}  verdict\n",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "worse"
    );
    let mut failed = false;
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            let bounded = declared.end_to_end.iter().any(|d| d.name == ra.metric);
            failed |= bounded;
            out.push_str(&format!(
                "{:<17} {:<19} missing from B\n",
                ra.workload, ra.metric
            ));
            continue;
        };
        let (a_med, b_med) = (ra.summary.median, rb.summary.median);
        let bound = declared.end_to_end.iter().find(|d| d.name == ra.metric);
        let worse = match bound {
            _ if a_med == b_med => 0.0,
            Some(d) if d.lower_is_better => (b_med - a_med) / a_med.abs(),
            _ => (a_med - b_med) / a_med.abs(),
        };
        let verdict = match bound {
            None => Verdict::Unbounded,
            Some(d) if worse <= d.bound => Verdict::Within,
            Some(_) => Verdict::Unresolved,
        };
        failed |= verdict == Verdict::Unresolved;
        out.push_str(&format!(
            "{:<17} {:<19} {:>14.6} {:>14.6} {:>6.1}% {:>6.1}% {:>7.1}%  {}\n",
            ra.workload,
            ra.metric,
            a_med,
            b_med,
            100.0 * ra.summary.spread(),
            100.0 * rb.summary.spread(),
            100.0 * worse,
            match (verdict, bound) {
                (Verdict::Within, Some(d)) => format!("within {:.0}%", 100.0 * d.bound),
                (Verdict::Unresolved, Some(d)) =>
                    format!("UNRESOLVED (bound {:.0}%)", 100.0 * d.bound),
                _ => "-".to_string(),
            }
        ));
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(metric: &str, median: f64) -> Record {
        Record {
            workload: "w".into(),
            metric: metric.into(),
            summary: Summary::of(&[median]),
        }
    }

    fn declared() -> Declared {
        Declared {
            end_to_end: vec![
                Bound {
                    name: "repair_wall_s".into(),
                    lower_is_better: true,
                    bound: 0.1,
                },
                Bound {
                    name: "evals_per_s".into(),
                    lower_is_better: false,
                    bound: 0.1,
                },
            ],
            per_layer: vec!["apply_us".into()],
        }
    }

    #[test]
    fn a_difference_beyond_the_bound_is_unresolved() {
        let a = [rec("repair_wall_s", 10.0), rec("evals_per_s", 100.0)];
        let (_, failed) = compare(
            &a,
            &[rec("repair_wall_s", 10.9), rec("evals_per_s", 95.0)],
            &declared(),
        );
        assert!(!failed);
        let (report, failed) = compare(
            &a,
            &[rec("repair_wall_s", 11.5), rec("evals_per_s", 100.0)],
            &declared(),
        );
        assert!(failed);
        assert!(report.contains("UNRESOLVED"), "{report}");
        let (_, failed) = compare(
            &a,
            &[rec("repair_wall_s", 10.0), rec("evals_per_s", 80.0)],
            &declared(),
        );
        assert!(failed, "a higher-is-better metric that fell is worse");
    }

    #[test]
    fn improvements_and_layer_metrics_pass() {
        let a = [rec("repair_wall_s", 10.0), rec("apply_us", 5.0)];
        let b = [rec("repair_wall_s", 5.0), rec("apply_us", 50.0)];
        let (_, failed) = compare(&a, &b, &declared());
        assert!(!failed);
    }

    #[test]
    fn a_bounded_metric_missing_from_b_fails() {
        let (_, failed) = compare(&[rec("repair_wall_s", 10.0)], &[], &declared());
        assert!(failed);
    }
}
