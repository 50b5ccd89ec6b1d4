//! Canned experiment scenarios.
//!
//! Each scenario reproduces a configuration from the paper's evaluation
//! (or one of `rths_bench`'s ablations) so figures, tests and examples
//! agree on parameters. Builders return a [`SimConfigBuilder`] so
//! callers can still override the seed or individual knobs.

use crate::config::{BandwidthSpec, SimConfig, SimConfigBuilder};
use rths_stoch::process::ChurnProcess;

/// Factory for the workspace's standard experiment configurations.
#[derive(Debug, Clone, Copy)]
pub struct Scenario;

impl Scenario {
    /// Fig. 2/3/4 configuration: `N = 10` peers, `|H| = 4` helpers on the
    /// paper's `[700, 800, 900]` slowly changing chain, uncapped demand.
    pub fn paper_small() -> SimConfigBuilder {
        SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 4])
    }

    /// Fig. 1 configuration: the "large-scale" run. The paper does not
    /// give exact sizes; this reproduction fixes `N = 200`, `|H| = 20`.
    pub fn paper_large() -> SimConfigBuilder {
        SimConfig::builder(200, vec![BandwidthSpec::Paper { stay: 0.98 }; 20])
    }

    /// Fig. 5 configuration: `paper_small` plus a 400 kbps per-peer
    /// demand, so total demand (4000) exceeds helper capacity (≤3600) and
    /// the server carries the deficit.
    pub fn paper_server_load() -> SimConfigBuilder {
        Self::paper_small().demand(400.0)
    }

    /// Tracking-vs-matching ablation: 60 peers, 6 helpers, where half the
    /// helpers collapse from 900 to 100 kbps at `shift_epoch`. The
    /// discriminating metric is how quickly peers evacuate the degraded
    /// helpers: recency-weighted tracking reconverges within a few
    /// hundred epochs while uniform-averaging matching stays anchored to
    /// stale estimates for thousands.
    pub fn regime_shift(shift_epoch: u64) -> SimConfigBuilder {
        let mut helpers = Vec::new();
        for j in 0..6 {
            if j % 2 == 0 {
                helpers.push(BandwidthSpec::RegimeShift {
                    before: 900.0,
                    after: 100.0,
                    at: shift_epoch,
                });
            } else {
                helpers.push(BandwidthSpec::Constant(600.0));
            }
        }
        SimConfig::builder(60, helpers)
    }

    /// Churn ablation: 100 peers with Poisson(2) arrivals and 2% per-epoch
    /// departures (equilibrium population 100), 10 helpers.
    pub fn churn() -> SimConfigBuilder {
        SimConfig::builder(100, vec![BandwidthSpec::Paper { stay: 0.98 }; 10])
            .churn(ChurnProcess::new(2.0, 0.02))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_small_shape() {
        let c = Scenario::paper_small().build();
        assert_eq!(c.num_peers(), 10);
        assert_eq!(c.helpers.len(), 4);
        assert_eq!(c.demand, None);
    }

    #[test]
    fn paper_large_shape() {
        let c = Scenario::paper_large().build();
        assert_eq!(c.num_peers(), 200);
        assert_eq!(c.helpers.len(), 20);
    }

    #[test]
    fn server_load_scenario_has_demand() {
        let c = Scenario::paper_server_load().build();
        assert_eq!(c.demand, Some(400.0));
    }

    #[test]
    fn regime_shift_mixes_process_kinds() {
        let c = Scenario::regime_shift(500).build();
        let shifts =
            c.helpers.iter().filter(|h| matches!(h, BandwidthSpec::RegimeShift { .. })).count();
        assert_eq!(shifts, 3);
        assert_eq!(c.helpers.len(), 6);
    }

    #[test]
    fn churn_scenario_has_positive_rates() {
        let c = Scenario::churn().build();
        assert!(c.churn.arrival_rate() > 0.0);
        assert!(c.churn.departure_prob() > 0.0);
        assert_eq!(c.churn.arrival_rate() / c.churn.departure_prob(), 100.0);
    }

    #[test]
    fn builders_allow_overrides() {
        let c = Scenario::paper_small().seed(99).demand(350.0).build();
        assert_eq!(c.seed, 99);
        assert_eq!(c.demand, Some(350.0));
    }
}
