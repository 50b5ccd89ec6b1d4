//! RTHS — the history-based learner (paper Algorithm 1).
//!
//! This is the *literal* statement of Algorithm 1: at every stage it
//! recomputes the exponentially weighted proxy sums of Eqs. (3-2)/(3-3)
//! from the full private history `h_i^n = (a⁰, u⁰, …, aⁿ⁻¹, uⁿ⁻¹)` (plus
//! the play probabilities at each stage, needed for the importance
//! weights). Per-stage cost is `O(n·m²)`, versus `O(m²)` for the recursive
//! [`SlabLearner`](crate::SlabLearner); the paper introduces R2HS exactly
//! because "it will consume too much resource to compute the estimated
//! average regret directly".
//!
//! The two implementations are asserted trajectory-identical in the tests
//! below, which validates the recursive re-expression. The type is
//! compiled in this crate's test build only: it is an oracle, not a
//! learner any engine runs.

use rand::RngCore;

use crate::config::{RecencyMode, RthsConfig};
use crate::learner::Learner;
use crate::policy;

/// One stage of private history.
#[derive(Debug, Clone)]
struct StageRecord {
    action: usize,
    utility: f64,
    probs: Vec<f64>,
}

/// Algorithm 1 (RTHS) with explicit history.
#[derive(Debug, Clone)]
pub struct HistoryRths {
    config: RthsConfig,
    probs: Vec<f64>,
    history: Vec<StageRecord>,
    q: Vec<f64>, // row-major m×m regret matrix
    pending: Option<usize>,
}

impl HistoryRths {
    /// Creates the learner (uniform initial strategy, zero regret).
    pub fn new(config: RthsConfig) -> Self {
        let m = config.num_actions();
        Self {
            probs: vec![1.0 / m as f64; m],
            history: Vec::new(),
            q: vec![0.0; m * m],
            config,
            pending: None,
        }
    }

    /// Regret `Qⁿ(j,k)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn regret(&self, j: usize, k: usize) -> f64 {
        let m = self.config.num_actions();
        assert!(j < m && k < m, "regret index out of range");
        self.q[j * m + k]
    }

    /// Empirical play frequency of `action`, weighted by the configured
    /// averaging mode (matching [`SlabLearner`](crate::SlabLearner)'s
    /// recursive frequency tracker, including its uniform initial prior).
    fn play_frequency(&self, action: usize) -> f64 {
        let n = self.history.len();
        let m = self.config.num_actions();
        match self.config.recency() {
            RecencyMode::Exponential => {
                let eps = self.config.epsilon();
                let mut f = (1.0 - eps).powi(n as i32) / m as f64;
                for (idx, rec) in self.history.iter().enumerate() {
                    if rec.action == action {
                        f += eps * (1.0 - eps).powi((n - 1 - idx) as i32);
                    }
                }
                f
            }
            RecencyMode::PaperLiteral | RecencyMode::Uniform => {
                if n == 0 {
                    return 1.0 / m as f64;
                }
                let count = self.history.iter().filter(|r| r.action == action).count();
                count as f64 / n as f64
            }
        }
    }

    /// Recomputes the full regret matrix from history (Eqs. 3-2/3-3).
    fn recompute_regrets(&mut self) {
        let m = self.config.num_actions();
        let n = self.history.len();
        let eps = self.config.epsilon();
        // weight(τ) for τ = 1..n (1-based age from the most recent).
        let weight = |idx: usize| -> f64 {
            match self.config.recency() {
                RecencyMode::Exponential => {
                    let age = (n - 1 - idx) as i32;
                    eps * (1.0 - eps).powi(age)
                }
                RecencyMode::PaperLiteral => eps,
                RecencyMode::Uniform => 1.0 / n as f64,
            }
        };
        for j in 0..m {
            // own(j) = Σ_{τ: aτ=j} w(τ)·uτ
            let mut own = 0.0;
            for (idx, rec) in self.history.iter().enumerate() {
                if rec.action == j {
                    own += weight(idx) * rec.utility;
                }
            }
            for k in 0..m {
                if j == k {
                    self.q[j * m + k] = 0.0;
                    continue;
                }
                // û(k) with proxy importance weights p(j)/p(k).
                let mut proxy = 0.0;
                for (idx, rec) in self.history.iter().enumerate() {
                    if rec.action == k {
                        proxy += weight(idx) * rec.utility * rec.probs[j] / rec.probs[k];
                    }
                }
                self.q[j * m + k] = (proxy - own).max(0.0);
            }
        }
    }
}

impl Learner for HistoryRths {
    fn num_actions(&self) -> usize {
        self.config.num_actions()
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
        self.history.push(StageRecord { action: j, utility, probs: self.probs.clone() });
        self.recompute_regrets();
        let m = self.config.num_actions();
        let mut regret_row: Vec<f64> = self.q[j * m..(j + 1) * m].to_vec();
        if self.config.conditional() {
            let floor = policy::exploration_floor(m, self.config.delta());
            let f_j = self.play_frequency(j).max(floor);
            for r in regret_row.iter_mut() {
                *r /= f_j;
            }
        }
        policy::update_probabilities(
            &mut self.probs,
            j,
            &regret_row,
            self.config.delta(),
            self.config.mu(),
        );
    }

    fn max_regret(&self) -> f64 {
        self.q.iter().copied().fold(0.0, f64::max)
    }

    fn stage(&self) -> u64 {
        self.history.len() as u64
    }

    fn pending_action(&self) -> Option<usize> {
        self.pending
    }

    fn reset_actions(&mut self, num_actions: usize) {
        assert!(self.pending.is_none(), "cannot reset actions with an observation pending");
        self.config = self
            .config
            .with_num_actions(num_actions)
            .expect("reset_actions requires at least one action");
        self.probs = vec![1.0 / num_actions as f64; num_actions];
        self.history.clear();
        self.q = vec![0.0; num_actions * num_actions];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::SlabLearner;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn config(m: usize, recency: RecencyMode) -> RthsConfig {
        RthsConfig::builder(m)
            .epsilon(0.08)
            .delta(0.12)
            .mu(50.0)
            .recency(recency)
            .build()
            .unwrap()
    }

    /// The central validation: Algorithm 1 (history form) and Algorithm 2
    /// (recursive form) produce *identical* trajectories in Exponential
    /// mode — proving the recursive re-expression of Eqs. (3-4)–(3-6)
    /// matches Eqs. (3-2)–(3-3).
    #[test]
    fn history_and_recursive_are_trajectory_identical() {
        for seed in [1u64, 7, 42] {
            let cfg = config(3, RecencyMode::Exponential);
            let mut hist = HistoryRths::new(cfg.clone());
            let mut rec = SlabLearner::standalone(cfg);
            let mut rng_h = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_r = rand::rngs::StdRng::seed_from_u64(seed);
            for s in 0..300 {
                let a_h = hist.select_action(&mut rng_h);
                let a_r = rec.select_action(&mut rng_r);
                assert_eq!(a_h, a_r, "actions diverged at stage {s} (seed {seed})");
                // Utility depends on the action so divergence would cascade.
                let u = 10.0 + (a_h as f64) * 5.0 + (s % 4) as f64;
                hist.observe(u);
                rec.observe(u);
                for j in 0..3 {
                    for k in 0..3 {
                        let qh = hist.regret(j, k);
                        let qr = rec.regret(j, k);
                        assert!(
                            (qh - qr).abs() < 1e-9,
                            "Q({j},{k}) diverged at stage {s}: {qh} vs {qr}"
                        );
                    }
                }
                rths_math::assert::assert_slices_close(
                    hist.probabilities(),
                    rec.probabilities(),
                    1e-9,
                );
            }
        }
    }

    #[test]
    fn uniform_mode_matches_recursive_uniform() {
        let cfg = config(3, RecencyMode::Uniform);
        let mut hist = HistoryRths::new(cfg.clone());
        let mut rec = SlabLearner::standalone(cfg);
        let mut rng_h = rand::rngs::StdRng::seed_from_u64(9);
        let mut rng_r = rand::rngs::StdRng::seed_from_u64(9);
        for s in 0..200 {
            let a_h = hist.select_action(&mut rng_h);
            let a_r = rec.select_action(&mut rng_r);
            assert_eq!(a_h, a_r, "actions diverged at stage {s}");
            let u = 5.0 + a_h as f64;
            hist.observe(u);
            rec.observe(u);
            rths_math::assert::assert_slices_close(
                hist.probabilities(),
                rec.probabilities(),
                1e-9,
            );
        }
    }

    #[test]
    fn paper_literal_mode_matches_recursive_literal() {
        let cfg = config(2, RecencyMode::PaperLiteral);
        let mut hist = HistoryRths::new(cfg.clone());
        let mut rec = SlabLearner::standalone(cfg);
        let mut rng_h = rand::rngs::StdRng::seed_from_u64(33);
        let mut rng_r = rand::rngs::StdRng::seed_from_u64(33);
        for _ in 0..150 {
            let a_h = hist.select_action(&mut rng_h);
            let a_r = rec.select_action(&mut rng_r);
            assert_eq!(a_h, a_r);
            let u = 1.0 + 3.0 * a_h as f64;
            hist.observe(u);
            rec.observe(u);
            rths_math::assert::assert_slices_close(
                hist.probabilities(),
                rec.probabilities(),
                1e-9,
            );
        }
    }

    #[test]
    fn conditional_mode_matches_recursive_conditional() {
        let cfg = RthsConfig::builder(3)
            .epsilon(0.08)
            .delta(0.12)
            .mu(50.0)
            .conditional(true)
            .build()
            .unwrap();
        let mut hist = HistoryRths::new(cfg.clone());
        let mut rec = SlabLearner::standalone(cfg);
        let mut rng_h = rand::rngs::StdRng::seed_from_u64(44);
        let mut rng_r = rand::rngs::StdRng::seed_from_u64(44);
        for s in 0..250 {
            let a_h = hist.select_action(&mut rng_h);
            let a_r = rec.select_action(&mut rng_r);
            assert_eq!(a_h, a_r, "actions diverged at stage {s}");
            let u = 10.0 + (a_h as f64) * 7.0;
            hist.observe(u);
            rec.observe(u);
            rths_math::assert::assert_slices_close(
                hist.probabilities(),
                rec.probabilities(),
                1e-9,
            );
        }
    }

    #[test]
    fn history_learner_protocol_enforced() {
        let mut l = HistoryRths::new(config(2, RecencyMode::Exponential));
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        let _ = l.select_action(&mut r);
        l.observe(1.0);
        assert_eq!(l.stage(), 1);
    }

    #[test]
    #[should_panic(expected = "without a pending action")]
    fn observe_before_select_panics() {
        let mut l = HistoryRths::new(config(2, RecencyMode::Exponential));
        l.observe(1.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut l = HistoryRths::new(config(2, RecencyMode::Exponential));
        let mut r = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let _ = l.select_action(&mut r);
            l.observe(1.0);
        }
        l.reset_actions(4);
        assert_eq!(l.stage(), 0);
        assert_eq!(l.num_actions(), 4);
        assert_eq!(l.max_regret(), 0.0);
    }

    /// Random exponential-recency configs with 2 to 5 actions.
    fn arb_config() -> impl Strategy<Value = RthsConfig> {
        (2usize..6, 0.005..0.5f64, 0.02..0.5f64, 10.0..10000.0f64).prop_map(
            |(m, eps, delta, mu)| {
                RthsConfig::builder(m).epsilon(eps).delta(delta).mu(mu).build().unwrap()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn history_equals_recursive_for_any_config(
            cfg in arb_config(),
            seed in any::<u64>(),
            utilities in prop::collection::vec(0.0..100.0f64, 20..60),
        ) {
            let mut hist = HistoryRths::new(cfg.clone());
            let mut rec = SlabLearner::standalone(cfg);
            let mut rng_h = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rng_r = rand::rngs::StdRng::seed_from_u64(seed);
            for &u in &utilities {
                let a_h = hist.select_action(&mut rng_h);
                let a_r = rec.select_action(&mut rng_r);
                prop_assert_eq!(a_h, a_r);
                // Make utility depend on action to surface any divergence.
                let payoff = u + a_h as f64;
                hist.observe(payoff);
                rec.observe(payoff);
                for (p_h, p_r) in hist.probabilities().iter().zip(rec.probabilities()) {
                    prop_assert!((p_h - p_r).abs() < 1e-9, "probs diverged: {p_h} vs {p_r}");
                }
            }
        }
    }
}
