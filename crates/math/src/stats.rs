//! Summary statistics used by the evaluation harness.
//!
//! The paper's evaluation reports load balance across helpers (Fig. 3),
//! bandwidth fairness across peers (Fig. 4), and time series of regret and
//! server workload (Figs. 1, 5). The functions here compute the scalar
//! summaries those figures are built from, most importantly
//! [`jain_index`] — the standard fairness measure for rate allocations.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Population variance (divides by `n`); 0 for slices shorter than 2.
pub fn variance(v: &[f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let m = mean(v);
    v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
}

/// Population standard deviation.
pub fn std_dev(v: &[f64]) -> f64 {
    variance(v).sqrt()
}

/// Coefficient of variation (`σ/μ`); 0 if the mean is 0.
pub fn coefficient_of_variation(v: &[f64]) -> f64 {
    let m = mean(v);
    if m == 0.0 {
        0.0
    } else {
        std_dev(v) / m
    }
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one user gets everything) to `1.0` (perfectly equal
/// allocation). Returns 1.0 for an empty or all-zero allocation, which is
/// the conventional "vacuously fair" reading.
///
/// # Example
///
/// ```
/// let perfectly_fair = rths_math::stats::jain_index(&[5.0, 5.0, 5.0]);
/// assert!((perfectly_fair - 1.0).abs() < 1e-12);
/// let unfair = rths_math::stats::jain_index(&[10.0, 0.0, 0.0]);
/// assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain_index(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    let s: f64 = v.iter().sum();
    let sq: f64 = v.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        1.0
    } else {
        (s * s) / (v.len() as f64 * sq)
    }
}

/// Linear-interpolation quantile (`q` in `[0,1]`) of an unsorted slice.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(v: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    if v.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = v.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile).
pub fn median(v: &[f64]) -> Option<f64> {
    quantile(v, 0.5)
}

/// Max-min spread; 0 for an empty slice.
pub fn range(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// A running mean/min/max/variance accumulator (Welford's algorithm).
///
/// Used by the simulator's metrics collectors where storing every sample
/// would be wasteful.
///
/// # Example
///
/// ```
/// let mut acc = rths_math::stats::Accumulator::new();
/// for x in [1.0, 2.0, 3.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), 2.0);
/// assert_eq!(acc.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Accumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), 5.0);
        assert_eq!(variance(&v), 4.0);
        assert_eq!(std_dev(&v), 2.0);
    }

    #[test]
    fn empty_slices_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(range(&[]), 0.0);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(jain_index(&[]), 1.0);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain_index(&[1.0; 10]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn quantile_rejects_bad_level() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn cov_of_constant_data_is_zero() {
        assert_eq!(coefficient_of_variation(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn accumulator_matches_batch_stats() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = Accumulator::new();
        for &x in &v {
            acc.push(x);
        }
        assert!((acc.mean() - mean(&v)).abs() < 1e-12);
        assert!((acc.variance() - variance(&v)).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!(acc.count(), 8);
    }

    #[test]
    fn accumulator_merge_equals_single_pass() {
        let v = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0, 4.0];
        let (left, right) = v.split_at(3);
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        left.iter().for_each(|&x| a.push(x));
        right.iter().for_each(|&x| b.push(x));
        a.merge(&b);

        let mut full = Accumulator::new();
        v.iter().for_each(|&x| full.push(x));
        assert!((a.mean() - full.mean()).abs() < 1e-12);
        assert!((a.variance() - full.variance()).abs() < 1e-12);
        assert_eq!(a.count(), full.count());
    }

    #[test]
    fn accumulator_merge_with_empty_is_identity() {
        let mut a = Accumulator::new();
        a.push(1.0);
        let before = a.clone();
        a.merge(&Accumulator::new());
        assert_eq!(a, before);

        let mut empty = Accumulator::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}
