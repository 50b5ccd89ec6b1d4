//! High-level benchmark facade used by the figure harnesses.
//!
//! Weights the optimum by the helpers' stationary bandwidth laws (the
//! paper's chain from `rths_stoch`, or explicit ladders) and picks the
//! right computation path (exact enumeration vs Monte Carlo) automatically.

use rand::Rng;
use rths_stoch::bandwidth::{MarkovBandwidth, PAPER_LEVELS};

use crate::welfare;

/// Threshold on `|Y|` below which exact enumeration is used.
const EXACT_STATE_LIMIT: usize = 60_000;

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

    /// Builds the benchmark from explicit ladders and stationary vectors.
    /// Both computation paths of [`optimal_welfare`](Self::optimal_welfare)
    /// rely on this one validation.
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

    /// The optimal expected social welfare (`R(s*)` in §IV.A): exact when
    /// `|Y|` is small, Monte Carlo (100k samples) otherwise. A `|Y|` that
    /// overflows `usize` is not small.
    pub fn optimal_welfare<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if welfare::joint_states(&self.levels).is_some_and(|n| n <= EXACT_STATE_LIMIT) {
            welfare::expected_optimal_welfare_exact(
                &self.levels,
                &self.stationary,
                self.num_peers,
                self.demand,
                EXACT_STATE_LIMIT,
            )
        } else {
            welfare::expected_optimal_welfare_mc(
                &self.levels,
                &self.stationary,
                self.num_peers,
                self.demand,
                100_000,
                rng,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welfare::joint_states;
    use rand::SeedableRng;

    #[test]
    fn paper_small_scale_benchmark() {
        // Fig. 2 configuration: N = 10 peers, H = 4 helpers.
        let bench = MdpBenchmark::paper(4, 10, None);
        assert_eq!(joint_states(&bench.levels), Some(81));
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(2);
        let w = bench.optimal_welfare(&mut rng2);
        // Uncapped + covered: Σ_j E[C_j] = 4 × 800.
        assert!((w - 3200.0).abs() < 1e-6, "welfare {w}");
    }

    #[test]
    fn large_scale_falls_back_to_monte_carlo() {
        let bench = MdpBenchmark::paper(12, 60, None);
        assert!(joint_states(&bench.levels).unwrap() > EXACT_STATE_LIMIT);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(4);
        let w = bench.optimal_welfare(&mut rng2);
        // Covered & uncapped: expectation is 12 × 800 exactly; MC noise
        // only.
        assert!((w - 9600.0).abs() < 30.0, "welfare {w}");
    }

    /// `reactor_dense`'s 64 helpers: `3^64` overflows `usize`, which must
    /// read as "not small" (Monte Carlo), not wrap or panic.
    #[test]
    fn sixty_four_helpers_take_the_monte_carlo_path() {
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(6);
        let w = MdpBenchmark::paper(64, 640, None).optimal_welfare(&mut rng2);
        // Covered & uncapped: 64 × 800 in expectation.
        assert!((w - 51_200.0).abs() < 512.0, "welfare {w}");
    }

    /// Above the exact limit, a malformed instance fails as it does below.
    #[test]
    #[should_panic(expected = "helper 11: levels/stationary length mismatch")]
    fn wrong_length_stationary_rejected_above_the_limit() {
        let mut stationary = vec![vec![0.25, 0.5, 0.25]; 12];
        stationary[11] = vec![0.5, 0.5];
        let bench =
            MdpBenchmark::from_parts(vec![vec![700.0, 800.0, 900.0]; 12], stationary, 60, None);
        let _ = bench.optimal_welfare(&mut rand::rngs::StdRng::seed_from_u64(7));
    }

    #[test]
    #[should_panic(expected = "helper 0: stationary vector is not a distribution")]
    fn non_distribution_stationary_rejected_above_the_limit() {
        let mut stationary = vec![vec![0.25, 0.5, 0.25]; 12];
        stationary[0] = vec![0.25, 0.5, 0.0];
        let bench =
            MdpBenchmark::from_parts(vec![vec![700.0, 800.0, 900.0]; 12], stationary, 60, None);
        let _ = bench.optimal_welfare(&mut rand::rngs::StdRng::seed_from_u64(8));
    }

    #[test]
    fn capped_benchmark_bounded_by_total_demand() {
        let bench = MdpBenchmark::paper(4, 6, Some(400.0));
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(6);
        let w = bench.optimal_welfare(&mut rng2);
        assert!(w <= 2400.0 + 1e-9, "welfare {w} above total demand");
        assert!(w > 2000.0, "welfare {w} suspiciously low");
    }

    #[test]
    fn zero_peers_edge_case() {
        let bench = MdpBenchmark::from_parts(vec![vec![800.0]], vec![vec![1.0]], 0, None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(bench.optimal_welfare(&mut rng), 0.0);
    }
}
