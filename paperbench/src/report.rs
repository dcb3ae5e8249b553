//! Metrics by name and unit, and the one-line JSON result.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every operation passed its output checks.
    pub correct: bool,
    /// Operations (scheme runs) attempted.
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result as one JSON object on one line. A value that is not a
    /// finite number is written as `null` and makes the run incorrect.
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
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            // Names and units are fixed ASCII identifiers; no escaping needed.
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

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_one_line_with_every_metric() {
        let r = Report {
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", "s", 1.5),
                Metric::new("tsr.Splicer", "ratio", 0.25),
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"tsr.Splicer\": {\"value\": 0.25, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn non_finite_value_is_null_and_incorrect() {
        let r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("pay_per_s", "1/s", f64::NAN)],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"value\": null"));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
