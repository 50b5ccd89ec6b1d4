//! EXP3 — the classic adversarial-bandit baseline.
//!
//! RTHS belongs to the regret-matching family (converges to *correlated*
//! equilibria via conditional regrets). The natural outside comparator is
//! EXP3 (Auer, Cesa-Bianchi, Freund & Schapire), the exponential-weights
//! bandit algorithm, which controls *external* regret and therefore only
//! guarantees coarse correlated equilibria in games. This implementation
//! follows the standard recipe with two practical additions for the
//! streaming setting:
//!
//! * rewards are normalised by a caller-supplied `reward_scale` (kbps)
//!   and clamped to `[0, 1]`;
//! * an optional forgetting factor geometrically discounts the weight
//!   exponents, giving EXP3 the same "let go of the past" ability the
//!   paper's tracking modification gives regret matching.

use rand::RngCore;

use crate::learner::Learner;

/// Configuration for [`Exp3Learner`].
#[derive(Debug, Clone, PartialEq)]
pub struct Exp3Config {
    /// Number of actions `K`.
    pub num_actions: usize,
    /// Exploration mixing `γ ∈ (0, 1]`.
    pub gamma: f64,
    /// Reward normalisation: observed utilities are divided by this and
    /// clamped to `[0, 1]` (use the expected maximum rate).
    pub reward_scale: f64,
    /// Per-stage geometric discount of the weight exponents in `[0, 1)`;
    /// 0 recovers textbook EXP3, larger values track non-stationarity.
    pub forgetting: f64,
}

impl Exp3Config {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    pub(crate) fn validated(self) -> Self {
        assert!(self.num_actions > 0, "need at least one action");
        assert!(self.gamma > 0.0 && self.gamma <= 1.0, "gamma must be in (0,1]");
        assert!(
            self.reward_scale > 0.0 && self.reward_scale.is_finite(),
            "reward scale must be positive and finite"
        );
        assert!((0.0..1.0).contains(&self.forgetting), "forgetting must be in [0,1)");
        self
    }
}

/// The EXP3 learner (exponential weights with importance-weighted bandit
/// estimates).
///
/// # Example
///
/// ```
/// use rths_core::{Exp3Config, Exp3Learner, Learner};
/// use rand::SeedableRng;
///
/// let mut learner = Exp3Learner::new(Exp3Config {
///     num_actions: 3,
///     gamma: 0.1,
///     reward_scale: 800.0,
///     forgetting: 0.01,
/// });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = learner.select_action(&mut rng);
/// learner.observe(400.0);
/// assert!(a < 3);
/// ```
#[derive(Debug, Clone)]
pub struct Exp3Learner {
    config: Exp3Config,
    /// Log-domain weights (exponents), kept shifted so the max is 0.
    log_weights: Vec<f64>,
    probs: Vec<f64>,
    stage: u64,
    pending: Option<usize>,
}

impl Exp3Learner {
    /// Creates a learner with uniform initial weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// `Exp3Config::validated`).
    pub fn new(config: Exp3Config) -> Self {
        let config = config.validated();
        let m = config.num_actions;
        let mut learner = Self {
            log_weights: vec![0.0; m],
            probs: vec![1.0 / m as f64; m],
            stage: 0,
            pending: None,
            config,
        };
        learner.refresh_probs();
        learner
    }

    fn refresh_probs(&mut self) {
        let m = self.config.num_actions;
        // Shift exponents so the max is 0 (numerical stability).
        let max = self.log_weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        let mut exp = vec![0.0; m];
        for (e, &lw) in exp.iter_mut().zip(&self.log_weights) {
            *e = (lw - max).exp();
            total += *e;
        }
        let gamma = self.config.gamma;
        for (p, &e) in self.probs.iter_mut().zip(&exp) {
            *p = (1.0 - gamma) * e / total + gamma / m as f64;
        }
    }
}

impl Learner for Exp3Learner {
    fn num_actions(&self) -> usize {
        self.config.num_actions
    }

    fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    fn select_action(&mut self, rng: &mut dyn RngCore) -> usize {
        assert!(self.pending.is_none(), "select_action called with an observation pending");
        let u: f64 = rand::Rng::gen(rng);
        let mut acc = 0.0;
        let mut chosen = self.probs.len() - 1;
        for (a, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = a;
                break;
            }
        }
        self.pending = Some(chosen);
        chosen
    }

    fn observe(&mut self, utility: f64) {
        assert!(utility.is_finite(), "utility must be finite, got {utility}");
        let j = self.pending.take().expect("observe called without a pending action");
        self.stage += 1;
        let m = self.config.num_actions as f64;
        let reward = (utility / self.config.reward_scale).clamp(0.0, 1.0);
        // Importance-weighted estimate feeds only the played arm.
        let estimate = reward / self.probs[j];
        if self.config.forgetting > 0.0 {
            for lw in &mut self.log_weights {
                *lw *= 1.0 - self.config.forgetting;
            }
        }
        self.log_weights[j] += self.config.gamma * estimate / m;
        self.refresh_probs();
    }

    fn max_regret(&self) -> f64 {
        // EXP3 does not maintain explicit regrets; report the spread of
        // the weight exponents scaled back to reward units as a rough
        // analogue (0 when weights are uniform).
        let max = self.log_weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = self.log_weights.iter().copied().fold(f64::INFINITY, f64::min);
        (max - min) * self.config.reward_scale * self.config.num_actions as f64
            / self.config.gamma.max(1e-12)
            / (self.stage.max(1) as f64)
    }

    fn stage(&self) -> u64 {
        self.stage
    }

    fn pending_action(&self) -> Option<usize> {
        self.pending
    }

    fn reset_actions(&mut self, num_actions: usize) {
        assert!(self.pending.is_none(), "cannot reset actions with an observation pending");
        assert!(num_actions > 0, "need at least one action");
        self.config.num_actions = num_actions;
        self.log_weights = vec![0.0; num_actions];
        self.probs = vec![1.0 / num_actions as f64; num_actions];
        self.stage = 0;
        self.refresh_probs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config(m: usize) -> Exp3Config {
        Exp3Config { num_actions: m, gamma: 0.1, reward_scale: 100.0, forgetting: 0.0 }
    }

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn initial_strategy_is_uniform() {
        let l = Exp3Learner::new(config(4));
        rths_math::assert::assert_slices_close(l.probabilities(), &[0.25; 4], 1e-12);
    }

    #[test]
    fn probabilities_stay_valid_under_adversarial_rewards() {
        let mut l = Exp3Learner::new(config(3));
        let mut r = rng(1);
        for s in 0..2000 {
            let a = l.select_action(&mut r);
            l.observe(if (s / 100) % 2 == 0 {
                (a * 50) as f64
            } else {
                100.0 - (a * 50) as f64
            });
            assert!(rths_math::vector::is_distribution(l.probabilities(), 1e-9));
            let floor = 0.1 / 3.0;
            for &p in l.probabilities() {
                assert!(p >= floor - 1e-12, "below γ/K floor: {p}");
            }
        }
    }

    #[test]
    fn concentrates_on_dominant_action() {
        let mut l = Exp3Learner::new(config(2));
        let mut r = rng(2);
        for _ in 0..3000 {
            let a = l.select_action(&mut r);
            l.observe(if a == 1 { 100.0 } else { 10.0 });
        }
        assert!(l.probabilities()[1] > 0.8, "probs {:?}", l.probabilities());
    }

    #[test]
    fn forgetting_tracks_reversal_faster() {
        let run = |forgetting: f64| {
            let mut l = Exp3Learner::new(Exp3Config { forgetting, ..config(2) });
            let mut r = rng(3);
            for _ in 0..4000 {
                let a = l.select_action(&mut r);
                l.observe(if a == 0 { 100.0 } else { 10.0 });
            }
            for _ in 0..800 {
                let a = l.select_action(&mut r);
                l.observe(if a == 1 { 100.0 } else { 10.0 });
            }
            l.probabilities()[1]
        };
        let plain = run(0.0);
        let forgetful = run(0.01);
        assert!(
            forgetful > plain + 0.1,
            "forgetting did not speed adaptation: {forgetful} vs {plain}"
        );
    }

    #[test]
    fn weights_bounded_in_log_domain() {
        // Long one-sided play must not overflow.
        let mut l = Exp3Learner::new(config(2));
        let mut r = rng(4);
        for _ in 0..50_000 {
            let a = l.select_action(&mut r);
            l.observe(if a == 0 { 100.0 } else { 0.0 });
            assert!(l.probabilities().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn reset_actions_reinitialises() {
        let mut l = Exp3Learner::new(config(2));
        let mut r = rng(5);
        let _ = l.select_action(&mut r);
        l.observe(50.0);
        l.reset_actions(4);
        assert_eq!(l.num_actions(), 4);
        rths_math::assert::assert_slices_close(l.probabilities(), &[0.25; 4], 1e-12);
        assert_eq!(l.stage(), 0);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn invalid_gamma_rejected() {
        let _ = Exp3Learner::new(Exp3Config { gamma: 0.0, ..config(2) });
    }
}
