//! The metric contract — read from the root `BENCHMARK.json`, the one
//! place names, units, directions and bounds are written down — the
//! order statistics every number goes through, and the result line.

use crate::json::{self, quote, Json};
use std::sync::OnceLock;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it counts as a
/// regression; per-layer metrics carry none.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json` as the benchmark uses it.
pub struct Contract {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The contract compiled into this binary. A file that does not parse
/// is a broken build, hence the panics.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let file = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let list = |key: &str| file.get(key).map(Json::as_arr).unwrap_or_default();
        let text = |entry: &Json, key: &str| -> String {
            let value = entry.get(key).and_then(Json::as_str);
            value
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
                .to_owned()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|entry| Metric {
                    name: text(entry, "name"),
                    unit: text(entry, "unit"),
                    higher_is_better: text(entry, "better") == "higher",
                    bound: entry.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            run_seconds: file
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Metric values keyed by declared name; a name outside the contract,
/// set twice, or left unset is a bug in the harness, caught here.
pub struct Metrics {
    declared: &'static [Metric],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::new(&contract().end_to_end)
    }

    pub fn per_layer() -> Self {
        Self::new(&contract().per_layer)
    }

    fn new(declared: &'static [Metric]) -> Self {
        let values = vec![None; declared.len()];
        Metrics { declared, values }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        let slot = self
            .declared
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[slot].is_none(), "metric {name} set twice");
        self.values[slot] = Some(value);
    }

    /// The values in declared order. A value that is not a finite
    /// number (a division by a zero count or a zero time) fails the run
    /// instead of being printed as something else.
    pub fn finish(self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        self.declared
            .iter()
            .zip(self.values)
            .map(|(m, value)| {
                let value = value.unwrap_or_else(|| panic!("metric {} was never set", m.name));
                if value.is_finite() {
                    Ok((m.name.as_str(), value, m.unit.as_str()))
                } else {
                    Err(format!("metric {} came out as {value}", m.name))
                }
            })
            .collect()
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: one JSON object, exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit the measurement has; `null` for
/// what JSON cannot carry, so that a reader sees a missing value and
/// never a made-up one.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of an unsorted sample (0 if empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `(Q1, Q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// gives them (the "exclusive" method) — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (0 for < 2 values).
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // -> [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), Some((3.5, 31.0)));
        assert_eq!(median(&v), 13.5);
        // statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[3.0]), None);
    }

    #[test]
    fn metrics_refuse_names_outside_the_contract() {
        let mut m = Metrics::end_to_end();
        m.put("setup_s", 1.0);
        assert!(std::panic::catch_unwind(move || m.put("nope", 1.0)).is_err());
    }
}
