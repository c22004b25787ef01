//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Whether every output passed its checks.
    pub correct: bool,
    /// Operations attempted (cold cycles, serve requests, end-state checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (quartiles, sample
    /// counts, host, unexplained trace remainder).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The result as one JSON line. A non-finite value would not be valid
    /// JSON; it is written as `null` and marks the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            ..RunResult::default()
        };
        r.push("setup_s", 0.25, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.push("bad", f64::NAN, "s");
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
