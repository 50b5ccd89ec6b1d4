//! Exponentially recency-weighted averaging.
//!
//! Regret *tracking* differs from regret *matching* exactly here: instead of
//! the uniform average `(1/n)Σ u^τ` over all history, it uses the
//! constant-step-size average
//!
//! ```text
//! Û^n = Σ_{τ≤n} ε(1-ε)^{n-τ} u^τ  =  (1-ε)·Û^{n-1} + ε·u^n
//! ```
//!
//! which "gradually lets go of the past" (paper §II, citing Sutton & Barto).
//! [`Ewma`] implements the recursive form; [`weighted_sum`] implements the
//! explicit sum for cross-validation in tests.

/// Exponentially weighted moving average with constant step size `ε`.
///
/// # Example
///
/// ```
/// use rths_math::Ewma;
///
/// let mut avg = Ewma::new(0.5);
/// avg.update(10.0);
/// avg.update(20.0);
/// // (1-0.5)*((1-0.5)*0 + 0.5*10) + 0.5*20 = 12.5
/// assert_eq!(avg.value(), 12.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    epsilon: f64,
    value: f64,
    count: u64,
}

impl Ewma {
    /// Creates an average with step size `epsilon`, initialised to 0.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon <= 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        Self { epsilon, value: 0.0, count: 0 }
    }

    /// Creates an average seeded with an initial value.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon <= 1`.
    pub fn with_initial(epsilon: f64, initial: f64) -> Self {
        let mut e = Self::new(epsilon);
        e.value = initial;
        e
    }

    /// Folds one observation into the average and returns the new value.
    pub fn update(&mut self, x: f64) -> f64 {
        self.value = (1.0 - self.epsilon) * self.value + self.epsilon * x;
        self.count += 1;
        self.value
    }

    /// Applies only the decay step — used when a stage elapses without an
    /// observation (e.g. the learner's action was not played).
    pub fn decay(&mut self) {
        self.value *= 1.0 - self.epsilon;
        self.count += 1;
    }

    /// Current value of the average.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Step size `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of updates (including pure decays) applied so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The effective window length `1/ε`: observations older than a few
    /// windows have negligible weight.
    pub fn effective_window(&self) -> f64 {
        1.0 / self.epsilon
    }
}

/// Explicit (non-recursive) exponentially weighted sum
/// `Σ_τ ε(1-ε)^{n-τ} x_τ` over `xs = [x_1 … x_n]`.
///
/// Exists to cross-validate the recursive [`Ewma`] in tests and to mirror
/// the paper's Eq. (3-2) verbatim.
pub fn weighted_sum(epsilon: f64, xs: &[f64]) -> f64 {
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    let n = xs.len();
    xs.iter()
        .enumerate()
        .map(|(idx, &x)| {
            let age = (n - 1 - idx) as i32;
            epsilon * (1.0 - epsilon).powi(age) * x
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_matches_explicit_sum() {
        let eps = 0.1;
        let xs = [3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut e = Ewma::new(eps);
        for &x in &xs {
            e.update(x);
        }
        assert!((e.value() - weighted_sum(eps, &xs)).abs() < 1e-12);
    }

    #[test]
    fn epsilon_one_tracks_last_value() {
        let mut e = Ewma::new(1.0);
        e.update(5.0);
        e.update(-2.0);
        assert_eq!(e.value(), -2.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn zero_epsilon_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn oversized_epsilon_rejected() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    fn constant_input_converges_to_that_constant() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(7.0);
        }
        assert!((e.value() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn decay_shrinks_value_geometrically() {
        let mut e = Ewma::with_initial(0.25, 8.0);
        e.decay();
        assert_eq!(e.value(), 6.0);
        e.decay();
        assert_eq!(e.value(), 4.5);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn effective_window_is_inverse_epsilon() {
        assert_eq!(Ewma::new(0.05).effective_window(), 20.0);
    }

    #[test]
    fn bounded_input_gives_bounded_average() {
        // |Û| ≤ max|u| for zero-initialised EWMA, a key stability property
        // that the paper's undamped Eq. (3-5) violates.
        let mut e = Ewma::new(0.3);
        for i in 0..1000 {
            e.update(if i % 2 == 0 { 1.0 } else { -1.0 });
            assert!(e.value().abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn tracks_regime_shift_within_window() {
        let mut e = Ewma::new(0.1);
        for _ in 0..100 {
            e.update(1.0);
        }
        for _ in 0..100 {
            e.update(5.0);
        }
        // After ~10 windows the old regime is forgotten.
        assert!((e.value() - 5.0).abs() < 1e-3);
    }
}
