//! Exact order statistics and the metric record the benchmark prints.

/// A percentile is printed only when at least this many samples lie
/// beyond it; with fewer, the tail is not pinned down by the run.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric. Names are unique and values finite.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// `(name, unit)` of every metric, in insertion order.
    pub fn names(&self) -> Vec<(&str, &'static str)> {
        self.0.iter().map(|(n, _, u)| (n.as_str(), *u)).collect()
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest sample count for which [`percentile`] at `q` is defined.
    fn min_samples(q: f64) -> usize {
        (1..)
            .find(|&n| percentile(&vec![0.0; n], q).is_some())
            .expect("some n suffices")
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.9), Some(90.0));
        assert_eq!(percentile(&sorted[..99], 0.9), None, "9 beyond p90 of 99");
        assert_eq!(percentile(&sorted, 0.99), None, "1 beyond p99 of 100");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(990.0));
    }

    #[test]
    fn medians_and_result_lines() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut m = Metrics::default();
        m.put("jobs_per_s", 12.5, "1/s");
        m.put("rounds_total", 34010.0, "rounds");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"jobs_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"rounds_total\": {\"value\": 34010, \"unit\": \"rounds\"}}}"
        );
    }
}
