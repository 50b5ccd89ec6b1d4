//! Convergence time series.
//!
//! The evaluation figures are all time series (regret, welfare, loads,
//! server workload). [`ConvergenceSeries`] is the small recorder used by
//! the drivers and figure harnesses: it stores per-stage values and
//! answers the summary questions the figures need ("when did the series
//! fall below x?", "what is the tail mean?").

/// A named per-stage scalar series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceSeries {
    name: String,
    values: Vec<f64>,
}

impl ConvergenceSeries {
    /// Creates an empty series called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), values: Vec::new() }
    }

    /// The series name (used as a CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one stage's value.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// The recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Mean over the final `window` stages (or all, if shorter) — the
    /// "converged value" estimate the `rths_bench` summaries print.
    pub fn tail_mean(&self, window: usize) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let start = self.values.len().saturating_sub(window.max(1));
        rths_math::stats::mean(&self.values[start..])
    }
}

impl Extend<f64> for ConvergenceSeries {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_accessors() {
        let mut s = ConvergenceSeries::new("regret");
        assert!(s.is_empty());
        s.push(3.0);
        s.push(1.0);
        assert_eq!(s.name(), "regret");
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some(1.0));
        assert_eq!(s.values(), &[3.0, 1.0]);
    }

    #[test]
    fn tail_mean_windows() {
        let mut s = ConvergenceSeries::new("x");
        s.extend([10.0, 10.0, 2.0, 4.0]);
        assert_eq!(s.tail_mean(2), 3.0);
        assert_eq!(s.tail_mean(100), 6.5);
        assert_eq!(ConvergenceSeries::new("empty").tail_mean(5), 0.0);
    }
}
