//! Metric samples, their summary statistics, and the JSON-lines record
//! every metric is printed as.

use cirfix_telemetry::JsonValue;

/// Whether a metric is seen by a user of the system or describes one
/// layer of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: measured with tracing off.
    E2e,
    /// Per-layer: measured by a traced run.
    Layer,
}

impl Kind {
    /// The record's `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

/// Every sample one run took of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
    /// The samples, in the order they were taken.
    pub samples: Vec<f64>,
}

impl Metric {
    /// An end-to-end metric.
    pub fn e2e(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            kind: Kind::E2e,
            samples,
        }
    }

    /// A per-layer metric.
    pub fn layer(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            kind: Kind::Layer,
            samples,
        }
    }

    /// Median, first and third quartile of the samples.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// The metric's JSON-lines record.
    pub fn record(&self, workload: &str, host_cores: usize) -> JsonValue {
        let s = self.summary();
        JsonValue::obj(vec![
            ("workload", JsonValue::Str(workload.to_string())),
            ("metric", JsonValue::Str(self.name.to_string())),
            ("unit", JsonValue::Str(self.unit.to_string())),
            ("kind", JsonValue::Str(self.kind.as_str().to_string())),
            ("median", JsonValue::Float(s.median)),
            ("p25", JsonValue::Float(s.p25)),
            ("p75", JsonValue::Float(s.p75)),
            ("n", JsonValue::Uint(self.samples.len() as u64)),
            ("host_cores", JsonValue::Uint(host_cores as u64)),
        ])
    }
}

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// The first quartile.
    pub p25: f64,
    /// The third quartile.
    pub p75: f64,
}

impl Summary {
    /// Summarises `samples` the way Python's `statistics.median` and
    /// `statistics.quantiles(samples, n=4)` do, so the numbers printed
    /// here match an outside recomputation. A single sample is its own
    /// median and quartiles; no samples give NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Summary {
                median: f64::NAN,
                p25: f64::NAN,
                p75: f64::NAN,
            },
            1 => Summary {
                median: v[0],
                p25: v[0],
                p75: v[0],
            },
            n => {
                let median = if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                };
                // The "exclusive" method: position i·(n+1)/4, clamped
                // to the sample range, interpolated between neighbours.
                let quartile = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Summary {
                    median,
                    p25: quartile(1),
                    p75: quartile(3),
                }
            }
        }
    }

    /// The quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.p75 - self.p25).abs() / self.median.abs()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        let s = Summary::of(&[8.0, 4.0]);
        assert_eq!((s.p25, s.median, s.p75), (3.0, 6.0, 9.0));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.p25, s.median, s.p75), (7.5, 7.5, 7.5));
        assert_eq!(s.spread(), 0.0);
    }
}
