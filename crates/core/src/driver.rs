//! A synchronous repeated-game driver.
//!
//! Couples a population of [`Learner`]s to the helper-selection stage game
//! with (optionally) time-varying helper capacities. This is the minimal
//! experiment loop used by unit tests, benches and the equilibrium
//! analyses; the full streaming-system simulator (demands, server, churn,
//! channels) lives in `rths-sim` and reuses the same learners.

use rand::RngCore;
use rths_game::equilibrium::verify::{ce_residual_congestion, CeReport};
use rths_game::{HelperSelectionGame, JointDistribution};

use crate::learner::Learner;
use crate::metrics::ConvergenceSeries;

/// Outcome of a driven run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Stages executed.
    pub stages: u64,
    /// Empirical joint distribution of play (for CE verification).
    pub joint: JointDistribution,
    /// Per-stage worst-peer *estimated* regret `max_i max_{j,k} Q_i(j,k)`
    /// — the learners' internal bandit estimates. Plateaus at the tracking
    /// noise floor (paper §II: "the regret estimates never completely
    /// converge but continue to vary").
    pub worst_regret: ConvergenceSeries,
    /// Per-stage worst-peer *empirical* regret: the time-averaged true
    /// regret `max_i max_{j,k} (1/n)·Σ_{τ: a_i=j} [u_i(k,a_-i) − u_i(a)]⁺`
    /// computed with full information from the actual play history. This
    /// is the quantity Hart & Mas-Colell's theorem drives to zero and the
    /// series Fig. 1 plots.
    pub worst_empirical_regret: ConvergenceSeries,
    /// Per-stage social welfare `Σ_i u_i` (Fig. 2).
    pub welfare: ConvergenceSeries,
    /// Per-stage count of peers that switched helpers (QoE proxy).
    pub switches: ConvergenceSeries,
    /// Time-averaged load per helper (Fig. 3).
    pub mean_loads: Vec<f64>,
    /// Time-averaged received rate per peer (Fig. 4).
    pub mean_rates: Vec<f64>,
    /// The capacities used at the final stage.
    pub final_capacities: Vec<f64>,
}

impl RunResult {
    /// CE verification of the recorded play against a game with the given
    /// (e.g. mean) capacities.
    pub fn ce_report(&self, capacities: Vec<f64>) -> CeReport {
        let game = HelperSelectionGame::new(capacities);
        ce_residual_congestion(&game, &self.joint)
    }
}

/// Synchronous driver: all peers select, the stage game resolves, all
/// peers observe — exactly the repeated-game protocol of §III.A.
#[derive(Debug)]
pub struct RepeatedGameDriver<L> {
    learners: Vec<L>,
    capacities: Vec<f64>,
    record_joint_from: u64,
}

impl<L: Learner> RepeatedGameDriver<L> {
    /// Creates a driver over `learners` with initial helper `capacities`.
    ///
    /// # Panics
    ///
    /// Panics if `learners` is empty, `capacities` is empty, or any
    /// learner's action count differs from the helper count.
    pub fn new(learners: Vec<L>, capacities: Vec<f64>) -> Self {
        assert!(!learners.is_empty(), "need at least one learner");
        assert!(!capacities.is_empty(), "need at least one helper");
        for (i, l) in learners.iter().enumerate() {
            assert_eq!(
                l.num_actions(),
                capacities.len(),
                "learner {i} has {} actions but there are {} helpers",
                l.num_actions(),
                capacities.len()
            );
        }
        Self { learners, capacities, record_joint_from: 0 }
    }

    /// Only record the joint distribution from stage `stage` onwards —
    /// standard practice to discard the transient when verifying CE.
    #[must_use]
    pub fn record_joint_from(mut self, stage: u64) -> Self {
        self.record_joint_from = stage;
        self
    }

    /// Immutable access to the learners.
    pub fn learners(&self) -> &[L] {
        &self.learners
    }

    /// Mutable access to the learners (e.g. to inspect regrets mid-run).
    pub fn learners_mut(&mut self) -> &mut [L] {
        &mut self.learners
    }

    /// Runs `stages` stages with fixed capacities.
    pub fn run(&mut self, stages: u64, rng: &mut dyn RngCore) -> RunResult {
        self.run_with(stages, rng, |_stage, _caps| {})
    }

    /// Runs `stages` stages; before each stage, `update_capacities` may
    /// mutate the capacity vector in place (helper bandwidth dynamics).
    ///
    /// # Panics
    ///
    /// Panics if the callback changes the capacity vector length or makes
    /// an entry negative/non-finite.
    pub fn run_with(
        &mut self,
        stages: u64,
        rng: &mut dyn RngCore,
        mut update_capacities: impl FnMut(u64, &mut Vec<f64>),
    ) -> RunResult {
        let n = self.learners.len();
        let h = self.capacities.len();
        let mut joint = JointDistribution::new();
        let mut worst_regret = ConvergenceSeries::new("worst_regret");
        let mut worst_empirical_regret = ConvergenceSeries::new("worst_empirical_regret");
        let mut welfare = ConvergenceSeries::new("welfare");
        let mut switches = ConvergenceSeries::new("switches");
        let mut load_sums = vec![0.0; h];
        let mut rate_sums = vec![0.0; n];
        let mut prev_profile: Option<Vec<usize>> = None;
        let mut profile = vec![0usize; n];
        // Cumulative true-regret sums per (peer, played j, alternative k):
        // Σ_{τ: a_i^τ = j} [u_i(k, a_-i^τ) − u_i^τ], laid out i·h² + j·h + k.
        let mut true_regret_sums = vec![0.0f64; n * h * h];

        for stage in 0..stages {
            update_capacities(stage, &mut self.capacities);
            assert_eq!(self.capacities.len(), h, "capacity vector length changed mid-run");
            assert!(
                self.capacities.iter().all(|c| c.is_finite() && *c >= 0.0),
                "capacities must stay finite and non-negative"
            );
            let game = HelperSelectionGame::new(self.capacities.clone());

            for (learner, slot) in self.learners.iter_mut().zip(profile.iter_mut()) {
                *slot = learner.select_action(rng);
            }
            let loads = game.loads(&profile);
            // Counterfactual joining rates, shared by all peers this stage.
            let join_rates: Vec<f64> = (0..h).map(|k| game.rate(k, loads[k] + 1)).collect();
            let mut stage_welfare = 0.0;
            for (i, (learner, &a)) in self.learners.iter_mut().zip(profile.iter()).enumerate() {
                let rate = game.rate(a, loads[a]);
                learner.observe(rate);
                stage_welfare += rate;
                rate_sums[i] += rate;
                let base = i * h * h + a * h;
                for k in 0..h {
                    if k != a {
                        true_regret_sums[base + k] += join_rates[k] - rate;
                    }
                }
            }
            for (sum, &l) in load_sums.iter_mut().zip(&loads) {
                *sum += l as f64;
            }

            let moved = prev_profile
                .as_ref()
                .map(|prev| prev.iter().zip(&profile).filter(|(a, b)| a != b).count())
                .unwrap_or(0);
            switches.push(moved as f64);
            prev_profile = Some(profile.clone());

            if stage >= self.record_joint_from {
                joint.record(&profile);
            }
            welfare.push(stage_welfare);
            let worst = self.learners.iter().map(|l| l.max_regret()).fold(0.0f64, f64::max);
            worst_regret.push(worst);
            let max_sum = true_regret_sums.iter().copied().fold(0.0f64, f64::max);
            worst_empirical_regret.push(max_sum / (stage + 1) as f64);
        }

        let denom = stages.max(1) as f64;
        RunResult {
            stages,
            joint,
            worst_regret,
            worst_empirical_regret,
            welfare,
            switches,
            mean_loads: load_sums.into_iter().map(|s| s / denom).collect(),
            mean_rates: rate_sums.into_iter().map(|s| s / denom).collect(),
            final_capacities: self.capacities.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RthsConfig;
    use crate::slab::SlabLearner;
    use rand::SeedableRng;

    fn population(n: usize, h: usize, mu: f64) -> Vec<SlabLearner> {
        let cfg = RthsConfig::builder(h).epsilon(0.05).delta(0.08).mu(mu).build().unwrap();
        SlabLearner::population(n, &cfg)
    }

    #[test]
    fn run_produces_full_series() {
        let mut driver = RepeatedGameDriver::new(population(6, 2, 3200.0), vec![800.0, 800.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let result = driver.run(200, &mut rng);
        assert_eq!(result.stages, 200);
        assert_eq!(result.worst_regret.len(), 200);
        assert_eq!(result.welfare.len(), 200);
        assert_eq!(result.switches.len(), 200);
        assert_eq!(result.mean_loads.len(), 2);
        assert_eq!(result.mean_rates.len(), 6);
        assert_eq!(result.joint.total(), 200);
    }

    #[test]
    fn mean_loads_sum_to_peer_count() {
        let mut driver =
            RepeatedGameDriver::new(population(9, 3, 3200.0), vec![700.0, 800.0, 900.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let result = driver.run(150, &mut rng);
        let total: f64 = result.mean_loads.iter().sum();
        assert!((total - 9.0).abs() < 1e-9, "loads sum {total}");
    }

    #[test]
    fn welfare_never_exceeds_total_capacity() {
        let mut driver = RepeatedGameDriver::new(population(5, 2, 3200.0), vec![800.0, 600.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let result = driver.run(100, &mut rng);
        for &w in result.welfare.values() {
            assert!(w <= 1400.0 + 1e-9, "welfare {w} above capacity");
        }
    }

    #[test]
    fn empirical_regret_decays_on_equal_helpers() {
        let mut driver = RepeatedGameDriver::new(population(10, 2, 3200.0), vec![800.0, 800.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let result = driver.run(4000, &mut rng);
        let series = result.worst_empirical_regret.values();
        let early = rths_math::stats::mean(&series[20..120]);
        let late = result.worst_empirical_regret.tail_mean(200);
        assert!(
            late < early * 0.5,
            "empirical regret did not decay: early {early}, late {late}"
        );
        // Relative to the ~160 kbps per-peer scale the tail is small.
        assert!(late < 40.0, "tail empirical regret too large: {late}");
    }

    #[test]
    fn run_with_varies_capacities() {
        let mut driver = RepeatedGameDriver::new(population(4, 2, 3200.0), vec![800.0, 800.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let result = driver.run_with(50, &mut rng, |stage, caps| {
            caps[0] = if stage < 25 { 900.0 } else { 700.0 };
        });
        assert_eq!(result.final_capacities[0], 700.0);
    }

    #[test]
    fn record_joint_from_discards_transient() {
        let mut driver = RepeatedGameDriver::new(population(3, 2, 3200.0), vec![800.0, 800.0])
            .record_joint_from(80);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let result = driver.run(100, &mut rng);
        assert_eq!(result.joint.total(), 20);
    }

    #[test]
    #[should_panic(expected = "length changed")]
    fn capacity_length_change_panics() {
        let mut driver = RepeatedGameDriver::new(population(2, 2, 3200.0), vec![800.0, 800.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let _ = driver.run_with(10, &mut rng, |_, caps| {
            caps.push(100.0);
        });
    }

    #[test]
    #[should_panic(expected = "learner 0 has 3 actions")]
    fn mismatched_learner_actions_panics() {
        let _ = RepeatedGameDriver::new(population(2, 3, 3200.0), vec![800.0, 800.0]);
    }

    #[test]
    fn ce_report_from_converged_run_is_small() {
        let mut driver = RepeatedGameDriver::new(population(8, 2, 3200.0), vec![800.0, 800.0])
            .record_joint_from(1500);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let result = driver.run(4000, &mut rng);
        let report = result.ce_report(vec![800.0, 800.0]);
        // Relative residual should be a small fraction of mean utility.
        assert!(
            report.relative_residual() < 0.25,
            "relative residual {}",
            report.relative_residual()
        );
    }
}
