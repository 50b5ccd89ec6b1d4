//! A synchronous repeated-game driver: the reference harness the
//! equilibrium checks run learners in.
//!
//! Couples a population of [`Learner`]s to the helper-selection stage game
//! at fixed helper capacities and records what those checks read: the
//! joint distribution of play, welfare, switches and mean loads. No
//! production run takes this path; the simulator (`rths_sim`) and the
//! runtimes (`rths_net`) drive their learners themselves.

use rand::RngCore;
use rths_core::{ConvergenceSeries, Learner};
use rths_sim::JointDistribution;

use crate::congestion::HelperSelectionGame;

/// Outcome of a driven run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Stages executed.
    pub stages: u64,
    /// Empirical joint distribution of play (for CE verification).
    pub joint: JointDistribution,
    /// Per-stage social welfare `Σ_i u_i` (Fig. 2).
    pub welfare: ConvergenceSeries,
    /// Per-stage count of peers that switched helpers (QoE proxy).
    pub switches: ConvergenceSeries,
    /// Time-averaged load per helper (Fig. 3).
    pub mean_loads: Vec<f64>,
}

/// Synchronous driver: all peers select, the stage game resolves, all
/// peers observe — exactly the repeated-game protocol of §III.A.
#[derive(Debug)]
pub struct RepeatedGameDriver<L> {
    learners: Vec<L>,
    game: HelperSelectionGame,
    record_joint_from: u64,
}

impl<L: Learner> RepeatedGameDriver<L> {
    /// Creates a driver over `learners` with helper `capacities`.
    ///
    /// # Panics
    ///
    /// Panics if `learners` is empty, `capacities` breaks
    /// [`HelperSelectionGame::new`]'s contract, or any learner's action
    /// count differs from the helper count.
    pub fn new(learners: Vec<L>, capacities: Vec<f64>) -> Self {
        assert!(!learners.is_empty(), "need at least one learner");
        let game = HelperSelectionGame::new(capacities);
        for (i, l) in learners.iter().enumerate() {
            assert_eq!(
                l.num_actions(),
                game.num_helpers(),
                "learner {i} has {} actions but there are {} helpers",
                l.num_actions(),
                game.num_helpers()
            );
        }
        Self { learners, game, record_joint_from: 0 }
    }

    /// Only record the joint distribution from stage `stage` onwards —
    /// standard practice to discard the transient when verifying CE.
    #[must_use]
    pub fn record_joint_from(mut self, stage: u64) -> Self {
        self.record_joint_from = stage;
        self
    }

    /// Runs `stages` stages.
    pub fn run(&mut self, stages: u64, rng: &mut dyn RngCore) -> RunResult {
        let mut joint = JointDistribution::new();
        let mut welfare = ConvergenceSeries::new("welfare");
        let mut switches = ConvergenceSeries::new("switches");
        let mut load_sums = vec![0.0; self.game.num_helpers()];
        let mut prev_profile: Option<Vec<usize>> = None;
        let mut profile = vec![0usize; self.learners.len()];

        for stage in 0..stages {
            for (learner, slot) in self.learners.iter_mut().zip(profile.iter_mut()) {
                *slot = learner.select_action(rng);
            }
            let loads = self.game.loads(&profile);
            let mut stage_welfare = 0.0;
            for (learner, &a) in self.learners.iter_mut().zip(&profile) {
                let rate = self.game.rate(a, loads[a]);
                learner.observe(rate);
                stage_welfare += rate;
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
        }

        let denom = stages.max(1) as f64;
        RunResult {
            stages,
            joint,
            welfare,
            switches,
            mean_loads: load_sums.into_iter().map(|s| s / denom).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::ce_residual_congestion;
    use rand::SeedableRng;
    use rths_core::{RthsConfig, SlabLearner};

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
        assert_eq!(result.welfare.len(), 200);
        assert_eq!(result.switches.len(), 200);
        assert_eq!(result.mean_loads.len(), 2);
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
    fn record_joint_from_discards_transient() {
        let mut driver = RepeatedGameDriver::new(population(3, 2, 3200.0), vec![800.0, 800.0])
            .record_joint_from(80);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let result = driver.run(100, &mut rng);
        assert_eq!(result.joint.total(), 20);
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
        let game = HelperSelectionGame::new(vec![800.0, 800.0]);
        let report = ce_residual_congestion(&game, &result.joint);
        // Relative residual should be a small fraction of mean utility.
        assert!(
            report.relative_residual() < 0.25,
            "relative residual {}",
            report.relative_residual()
        );
    }
}
