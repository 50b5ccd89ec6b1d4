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
pub(crate) fn variance(v: &[f64]) -> f64 {
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
        assert_eq!(jain_index(&[]), 1.0);
    }

    #[test]
    fn jain_bounds() {
        assert!((jain_index(&[1.0; 10]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn cov_of_constant_data_is_zero() {
        assert_eq!(coefficient_of_variation(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
    }
}
