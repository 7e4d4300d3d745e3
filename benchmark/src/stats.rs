//! Summaries, error measures and the result line.

use std::fmt::Write as _;

/// The median of `xs` (sorts in place; NaN-free input).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` of `xs` (sorts in place), the
/// convention of numpy's default and of `statistics.quantiles(...,
/// method="inclusive")`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    xs.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (rank - lo as f64)
}

/// Pooled relative L2 error: accumulate `(approx, reference)` pairs, then
/// read `‖approx − reference‖ / ‖reference‖`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelErr {
    diff_sq: f64,
    ref_sq: f64,
}

impl RelErr {
    /// Folds in one pair of equally long slices.
    pub fn add(&mut self, approx: &[f32], reference: &[f64]) {
        assert_eq!(approx.len(), reference.len(), "rel-err shape mismatch");
        for (&a, &r) in approx.iter().zip(reference) {
            let d = a as f64 - r;
            self.diff_sq += d * d;
            self.ref_sq += r * r;
        }
    }

    /// Folds in an f32 reference.
    pub fn add_f32(&mut self, approx: &[f32], reference: &[f32]) {
        let reference: Vec<f64> = reference.iter().map(|&v| v as f64).collect();
        self.add(approx, &reference);
    }

    /// Folds in another accumulator.
    pub fn merge(&mut self, other: &RelErr) {
        self.diff_sq += other.diff_sq;
        self.ref_sq += other.ref_sq;
    }

    /// The pooled relative error (infinite when the reference is zero).
    pub fn value(&self) -> f64 {
        (self.diff_sq / self.ref_sq).sqrt()
    }
}

/// The larger of two errors; NaN wins, so a NaN output fails its bound.
pub fn worse(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

/// Relative L2 distance of two f32 slices.
pub fn rel_l2(approx: &[f32], reference: &[f32]) -> f64 {
    let mut e = RelErr::default();
    e.add_f32(approx, reference);
    e.value()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics so far.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that reads back
            // to the same f64, so no digit is dropped.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 100.0), 4.0);
        assert_eq!(median(&mut xs), 2.5);
    }

    #[test]
    fn rel_err_is_relative() {
        assert_eq!(rel_l2(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((rel_l2(&[2.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.push("p50_ms", 1.25, "ms");
        assert_eq!(
            r.json(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
