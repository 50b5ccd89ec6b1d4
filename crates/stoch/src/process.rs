//! Arrival/departure processes for peer churn.
//!
//! P2P streaming systems "must operate in changing conditions … join/leave
//! of peers" (paper §I). The simulator models churn with a discrete-time
//! birth–death process: Poisson arrivals per epoch and independent
//! geometric lifetimes (each online peer departs with fixed probability per
//! epoch), plus an on/off flash-crowd modulator for the workload
//! generators.

use rand::Rng;

/// Samples a Poisson-distributed count with mean `lambda` (Knuth's method
/// for small λ, normal approximation above 30).
///
/// # Panics
///
/// Panics if `lambda` is negative or non-finite.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be finite and non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let z: f64 = sample_standard_normal(rng);
        let x = lambda + lambda.sqrt() * z + 0.5;
        return x.max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples a standard normal via Box–Muller.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Discrete-time churn process: `arrival_rate` expected joins per epoch,
/// and each online peer departs independently with `departure_prob` per
/// epoch. The long-run population mean is `arrival_rate / departure_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    arrival_rate: f64,
    departure_prob: f64,
}

/// One epoch's churn outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnEvents {
    /// Number of peers joining this epoch.
    pub arrivals: u64,
    /// Number of existing peers departing this epoch.
    pub departures: u64,
}

impl ChurnProcess {
    /// Creates a churn process.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate` is negative/non-finite or `departure_prob`
    /// is outside `[0, 1]`.
    pub fn new(arrival_rate: f64, departure_prob: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate >= 0.0,
            "arrival rate must be finite and non-negative"
        );
        assert!((0.0..=1.0).contains(&departure_prob), "departure prob must be in [0,1]");
        Self { arrival_rate, departure_prob }
    }

    /// A process with no churn at all.
    pub fn none() -> Self {
        Self { arrival_rate: 0.0, departure_prob: 0.0 }
    }

    /// Expected joins per epoch.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// Per-epoch departure probability of each online peer.
    pub fn departure_prob(&self) -> f64 {
        self.departure_prob
    }

    /// Draws one epoch of churn for a population of `online` peers.
    pub fn sample_epoch<R: Rng + ?Sized>(&self, rng: &mut R, online: usize) -> ChurnEvents {
        let arrivals = sample_poisson(rng, self.arrival_rate);
        let mut departures = 0u64;
        for _ in 0..online {
            if self.departure_prob > 0.0 && rng.gen::<f64>() < self.departure_prob {
                departures += 1;
            }
        }
        ChurnEvents { arrivals, departures }
    }
}

/// Deterministic flash-crowd modulator: multiplies a base arrival rate by
/// `surge_factor` during `[start, end)` epochs. Models the audience spike
/// when a popular live event begins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Epoch the surge begins.
    pub start: u64,
    /// Epoch the surge ends (exclusive).
    pub end: u64,
    /// Arrival-rate multiplier during the surge.
    pub surge_factor: f64,
}

impl FlashCrowd {
    /// Creates a flash-crowd window.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `surge_factor < 1`.
    pub fn new(start: u64, end: u64, surge_factor: f64) -> Self {
        assert!(end >= start, "end must not precede start");
        assert!(surge_factor >= 1.0, "surge factor must be >= 1");
        Self { start, end, surge_factor }
    }

    /// Arrival-rate multiplier at `epoch`.
    pub fn factor_at(&self, epoch: u64) -> f64 {
        if (self.start..self.end).contains(&epoch) {
            self.surge_factor
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn poisson_mean_is_close_to_lambda() {
        let mut rng = seeded_rng(10);
        for &lambda in &[0.5, 3.0, 12.0, 80.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| sample_poisson(&mut rng, lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = seeded_rng(11);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn churn_equilibrium_population_matches_simulation() {
        let mut rng = seeded_rng(14);
        let churn = ChurnProcess::new(2.0, 0.02);
        // Long-run population λ/p = 2 / 0.02.
        let expected = 100.0;
        let mut online: i64 = 100;
        let mut acc = 0.0;
        let epochs = 20_000;
        for _ in 0..epochs {
            let ev = churn.sample_epoch(&mut rng, online as usize);
            online += ev.arrivals as i64 - ev.departures as i64;
            online = online.max(0);
            acc += online as f64;
        }
        let mean = acc / epochs as f64;
        assert!((mean - expected).abs() < 10.0, "mean population {mean} vs {expected}");
    }

    #[test]
    fn churn_none_is_quiescent() {
        let mut rng = seeded_rng(15);
        let churn = ChurnProcess::none();
        let ev = churn.sample_epoch(&mut rng, 500);
        assert_eq!(ev, ChurnEvents { arrivals: 0, departures: 0 });
    }

    #[test]
    fn departures_never_exceed_population() {
        let mut rng = seeded_rng(16);
        let churn = ChurnProcess::new(0.0, 0.9);
        for online in [0usize, 1, 5, 50] {
            let ev = churn.sample_epoch(&mut rng, online);
            assert!(ev.departures <= online as u64);
        }
    }

    #[test]
    fn flash_crowd_window() {
        let fc = FlashCrowd::new(10, 20, 5.0);
        assert_eq!(fc.factor_at(9), 1.0);
        assert_eq!(fc.factor_at(10), 5.0);
        assert_eq!(fc.factor_at(19), 5.0);
        assert_eq!(fc.factor_at(20), 1.0);
    }

    #[test]
    fn normal_sampler_has_zero_mean_unit_variance() {
        let mut rng = seeded_rng(17);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = rths_math::stats::mean(&samples);
        let var = rths_math::stats::std_dev(&samples).powi(2);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }
}
