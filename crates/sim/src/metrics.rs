//! Simulation metrics.
//!
//! One [`SimMetrics`] instance accumulates every series the paper's
//! figures need: worst-peer regret (Fig. 1), welfare vs the MDP optimum
//! (Fig. 2), per-helper loads (Fig. 3), per-peer rates and Jain fairness
//! (Fig. 4), and server load against the deficit bounds (Fig. 5) — plus
//! switch counts (the QoE interruption proxy from §III.B) and population
//! size under churn.

use rths_core::ConvergenceSeries;

/// Time-series and summary metrics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    /// Worst-peer internal regret estimate per epoch.
    pub worst_regret_estimate: ConvergenceSeries,
    /// Worst-peer empirical (true time-averaged) regret per epoch — the
    /// Fig. 1 series.
    pub worst_empirical_regret: ConvergenceSeries,
    /// Total delivered rate per epoch (social welfare, Fig. 2).
    pub welfare: ConvergenceSeries,
    /// Actual server load per epoch (Fig. 5).
    pub server_load: ConvergenceSeries,
    /// Minimum-bandwidth deficit bound per epoch (Fig. 5 reference line).
    pub min_deficit: ConvergenceSeries,
    /// Current-capacity deficit bound per epoch.
    pub current_deficit: ConvergenceSeries,
    /// Number of peers that switched helpers per epoch.
    pub switches: ConvergenceSeries,
    /// Jain fairness index of per-peer delivered rates per epoch (Fig. 4).
    pub jain: ConvergenceSeries,
    /// Online peer count per epoch (constant without churn).
    pub population: ConvergenceSeries,
    /// Per-helper load series (Fig. 3).
    pub helper_loads: Vec<ConvergenceSeries>,
    /// Final summary: time-averaged load per helper.
    pub mean_helper_loads: Vec<f64>,
    /// Final summary: lifetime mean rate of every peer alive at the end.
    pub mean_peer_rates: Vec<f64>,
    /// Final summary: continuity index of every peer alive at the end.
    pub peer_continuity: Vec<f64>,
}

impl SimMetrics {
    /// Creates empty metrics for `num_helpers` helpers.
    pub(crate) fn new(num_helpers: usize) -> Self {
        Self {
            helper_loads: vec![ConvergenceSeries::default(); num_helpers],
            mean_helper_loads: vec![0.0; num_helpers],
            ..Self::default()
        }
    }

    /// Number of epochs recorded so far.
    pub fn epochs(&self) -> usize {
        self.welfare.len()
    }

    /// Jain index over the *time-averaged* per-peer rates — the scalar
    /// headline of Fig. 4 (fairness of long-run allocations rather than
    /// instantaneous shares).
    pub fn long_run_fairness(&self) -> f64 {
        rths_math::stats::jain_index(&self.mean_peer_rates)
    }

    /// Balance of the time-averaged helper loads: coefficient of
    /// variation (0 = perfectly even, Fig. 3's headline).
    pub fn load_balance_cv(&self) -> f64 {
        rths_math::stats::coefficient_of_variation(&self.mean_helper_loads)
    }

    /// Mean per-epoch server load over the final `window` epochs.
    pub fn tail_server_load(&self, window: usize) -> f64 {
        self.server_load.tail_mean(window)
    }

    /// Mean welfare over the final `window` epochs.
    pub fn tail_welfare(&self, window: usize) -> f64 {
        self.welfare.tail_mean(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_metrics_are_empty() {
        let m = SimMetrics::new(3);
        assert_eq!(m.epochs(), 0);
        assert_eq!(m.helper_loads.len(), 3);
        assert_eq!(m.long_run_fairness(), 1.0);
        assert_eq!(m.load_balance_cv(), 0.0);
    }

    #[test]
    fn long_run_fairness_uses_mean_rates() {
        let mut m = SimMetrics::new(1);
        m.mean_peer_rates = vec![100.0, 100.0, 100.0];
        assert!((m.long_run_fairness() - 1.0).abs() < 1e-12);
        m.mean_peer_rates = vec![300.0, 0.0, 0.0];
        assert!((m.long_run_fairness() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn load_balance_cv_detects_imbalance() {
        let mut m = SimMetrics::new(2);
        m.mean_helper_loads = vec![5.0, 5.0];
        assert_eq!(m.load_balance_cv(), 0.0);
        m.mean_helper_loads = vec![9.0, 1.0];
        assert!(m.load_balance_cv() > 0.5);
    }

    #[test]
    fn tail_helpers_delegate_to_series() {
        let mut m = SimMetrics::new(1);
        m.server_load.extend([10.0, 20.0, 30.0, 40.0]);
        m.welfare.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.tail_server_load(2), 35.0);
        assert_eq!(m.tail_welfare(2), 3.5);
    }
}
