//! High-level benchmark facade used by the figure harnesses.
//!
//! Weights the optimum by the helpers' stationary bandwidth laws (the
//! paper's chain from `rths_stoch`, or explicit ladders) and computes it
//! exactly at any number of helpers ([`welfare::expected_optimal_welfare`]).

use rths_stoch::bandwidth::{MarkovBandwidth, PAPER_LEVELS};

use crate::welfare;

/// The centralized MDP benchmark for a concrete system instance.
#[derive(Debug, Clone)]
pub struct MdpBenchmark {
    levels: Vec<Vec<f64>>,
    stationary: Vec<Vec<f64>>,
    num_peers: usize,
    demand: Option<f64>,
}

impl MdpBenchmark {
    /// The benchmark for `helpers` helpers that each follow the paper's
    /// chain ([`MarkovBandwidth`]): the ladder [`PAPER_LEVELS`] weighted by
    /// [`MarkovBandwidth::STATIONARY`].
    ///
    /// # Panics
    ///
    /// As [`from_parts`](Self::from_parts) does: if `helpers == 0` or
    /// `demand` is non-positive.
    pub fn paper(helpers: usize, num_peers: usize, demand: Option<f64>) -> Self {
        Self::from_parts(
            vec![PAPER_LEVELS.to_vec(); helpers],
            vec![MarkovBandwidth::STATIONARY.to_vec(); helpers],
            num_peers,
            demand,
        )
    }

    /// Builds the benchmark from explicit ladders and stationary vectors,
    /// validated here once for [`optimal_welfare`](Self::optimal_welfare).
    ///
    /// # Panics
    ///
    /// Panics if there is no helper, a helper's stationary vector is not a
    /// distribution as long as its ladder, or `demand` is non-positive.
    pub fn from_parts(
        levels: Vec<Vec<f64>>,
        stationary: Vec<Vec<f64>>,
        num_peers: usize,
        demand: Option<f64>,
    ) -> Self {
        welfare::validate(&levels, &stationary, demand);
        Self { levels, stationary, num_peers, demand }
    }

    /// The optimal expected social welfare (`R(s*)` in §IV.A), exact at
    /// any number of helpers.
    pub fn optimal_welfare(&self) -> f64 {
        welfare::expected_optimal_welfare(
            &self.levels,
            &self.stationary,
            self.num_peers,
            self.demand,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_small_scale_benchmark() {
        // Fig. 2 configuration: N = 10 peers, H = 4 helpers.
        let w = MdpBenchmark::paper(4, 10, None).optimal_welfare();
        // Uncapped + covered: Σ_j E[C_j] = 4 × 800.
        assert!((w - 3200.0).abs() < 1e-9, "welfare {w}");
    }

    /// `3^12` joint states, 91 count vectors.
    #[test]
    fn twelve_helpers_are_exact() {
        let w = MdpBenchmark::paper(12, 60, None).optimal_welfare();
        // Covered & uncapped: 12 × 800.
        assert!((w - 9600.0).abs() < 1e-9, "welfare {w}");
    }

    /// `reactor_dense`'s 64 helpers: `3^64` joint states, 2,145 count
    /// vectors.
    #[test]
    fn sixty_four_helpers_are_exact() {
        let w = MdpBenchmark::paper(64, 640, None).optimal_welfare();
        // Covered & uncapped: 64 × 800.
        assert!((w - 51_200.0).abs() < 1e-9, "welfare {w}");
    }

    /// An asymmetric capped instance: static 1600/800/400/200 kbps
    /// helpers, 10 peers, demand 350. Seven peers get their full 350
    /// (four on 1600, two on 800, one on 400), then 200 + 200 + 100 (a
    /// fifth on 1600, one on 200, a third on 800).
    #[test]
    fn asymmetric_capped_optimum_is_2950() {
        let bench = MdpBenchmark::from_parts(
            vec![vec![1600.0], vec![800.0], vec![400.0], vec![200.0]],
            vec![vec![1.0]; 4],
            10,
            Some(350.0),
        );
        assert_eq!(bench.optimal_welfare(), 2950.0);
    }

    #[test]
    #[should_panic(expected = "helper 11: levels/stationary length mismatch")]
    fn wrong_length_stationary_rejected() {
        let mut stationary = vec![vec![0.25, 0.5, 0.25]; 12];
        stationary[11] = vec![0.5, 0.5];
        let _ =
            MdpBenchmark::from_parts(vec![vec![700.0, 800.0, 900.0]; 12], stationary, 60, None);
    }

    #[test]
    #[should_panic(expected = "helper 0: stationary vector is not a distribution")]
    fn non_distribution_stationary_rejected() {
        let mut stationary = vec![vec![0.25, 0.5, 0.25]; 12];
        stationary[0] = vec![0.25, 0.5, 0.0];
        let _ =
            MdpBenchmark::from_parts(vec![vec![700.0, 800.0, 900.0]; 12], stationary, 60, None);
    }

    #[test]
    fn capped_benchmark_bounded_by_total_demand() {
        let w = MdpBenchmark::paper(4, 6, Some(400.0)).optimal_welfare();
        assert!(w <= 2400.0 + 1e-9, "welfare {w} above total demand");
        assert!(w > 2000.0, "welfare {w} suspiciously low");
    }

    #[test]
    fn zero_peers_edge_case() {
        let bench = MdpBenchmark::from_parts(vec![vec![800.0]], vec![vec![1.0]], 0, None);
        assert_eq!(bench.optimal_welfare(), 0.0);
    }
}
