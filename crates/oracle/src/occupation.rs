//! The literal occupation-measure LP of §IV.A.
//!
//! Variables are `ρ(y, x)` for every joint helper state `y ∈ Y` (product
//! of per-helper bandwidth levels) and every assignment `x ∈ X = H^N`.
//! The LP is exponential in both `N` and `H`, so this path is reserved
//! for toy instances where it serves as ground truth for the decomposed
//! optimum `Σ_y π(y)·W*(y)` that [`crate::welfare`] computes state by
//! state with [`crate::assignment`]'s greedy.

use crate::{LinearProgram, LpError, Relation};

/// Exact solver for the occupation-measure LP.
#[derive(Debug, Clone)]
pub struct OccupationLp {
    /// Per-helper bandwidth ladders: `levels[j][s]` is helper `j`'s
    /// capacity in its state `s`.
    levels: Vec<Vec<f64>>,
    /// Per-helper stationary distributions over those states.
    stationary: Vec<Vec<f64>>,
    num_peers: usize,
    demand: Option<f64>,
}

impl OccupationLp {
    /// Creates the LP description.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, any stationary vector is not a
    /// distribution, or `demand` is non-positive.
    pub fn new(
        levels: Vec<Vec<f64>>,
        stationary: Vec<Vec<f64>>,
        num_peers: usize,
        demand: Option<f64>,
    ) -> Self {
        crate::welfare::validate(&levels, &stationary, demand);
        Self { levels, stationary, num_peers, demand }
    }

    /// Number of joint helper states `|Y|`.
    pub(crate) fn num_states(&self) -> usize {
        self.levels.iter().map(|l| l.len()).product()
    }

    /// Number of assignments `|X| = H^N`.
    pub(crate) fn num_assignments(&self) -> usize {
        self.levels.len().pow(self.num_peers as u32)
    }

    /// Solves the LP exactly, returning the optimal expected social
    /// welfare (the paper's `R(s*)`).
    ///
    /// # Errors
    ///
    /// Propagates solver errors; the LP is feasible by construction, so an
    /// error indicates numerical trouble.
    ///
    /// # Panics
    ///
    /// Panics if the instance exceeds 200_000 variables — use the
    /// decomposed solvers instead.
    pub fn solve(&self) -> Result<f64, LpError> {
        let h = self.levels.len();
        let num_y = self.num_states();
        let num_x = self.num_assignments();
        let num_vars = num_y * num_x;
        assert!(
            num_vars <= 200_000,
            "occupation LP with {num_vars} variables is too large; use rths_oracle::welfare"
        );

        // Enumerate joint states with their stationary probabilities.
        let mut pi_y = vec![0.0; num_y];
        let mut caps_y: Vec<Vec<f64>> = vec![Vec::new(); num_y];
        for y in 0..num_y {
            let mut prob = 1.0;
            let mut caps = Vec::with_capacity(h);
            let mut rem = y;
            for j in (0..h).rev() {
                let s = rem % self.levels[j].len();
                rem /= self.levels[j].len();
                prob *= self.stationary[j][s];
                caps.push(self.levels[j][s]);
            }
            caps.reverse();
            pi_y[y] = prob;
            caps_y[y] = caps;
        }

        // Welfare u(y, x) for every variable.
        let mut costs = vec![0.0; num_vars];
        for (y, caps) in caps_y.iter().enumerate() {
            for x in 0..num_x {
                let mut loads = vec![0usize; h];
                let mut rem = x;
                for _ in 0..self.num_peers {
                    loads[rem % h] += 1;
                    rem /= h;
                }
                let welfare: f64 = loads
                    .iter()
                    .zip(caps)
                    .map(|(&n, &c)| crate::assignment::helper_welfare(c, n, self.demand))
                    .sum();
                costs[y * num_x + x] = welfare;
            }
        }

        let mut lp = LinearProgram::maximize(costs);
        // Marginal constraints Σ_x ρ(y,x) = π(y). (These imply Σρ = 1.)
        for y in 0..num_y {
            let mut row = vec![0.0; num_vars];
            for x in 0..num_x {
                row[y * num_x + x] = 1.0;
            }
            lp.add_constraint(row, Relation::Eq, pi_y[y])?;
        }
        Ok(lp.solve()?.objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welfare::expected_optimal_welfare;

    /// The decomposed optimum of the same instance.
    fn decomposed(lp: &OccupationLp) -> f64 {
        expected_optimal_welfare(&lp.levels, &lp.stationary, lp.num_peers, lp.demand)
    }

    fn two_helper_instance(num_peers: usize, demand: Option<f64>) -> OccupationLp {
        OccupationLp::new(
            vec![vec![700.0, 900.0], vec![800.0]],
            vec![vec![0.5, 0.5], vec![1.0]],
            num_peers,
            demand,
        )
    }

    #[test]
    fn shapes_are_reported() {
        let lp = two_helper_instance(3, None);
        assert_eq!(lp.num_states(), 2);
        assert_eq!(lp.num_assignments(), 8);
    }

    #[test]
    fn lp_matches_decomposed_uncapped() {
        let lp = two_helper_instance(3, None);
        let lp_welfare = lp.solve().unwrap();
        let dec = decomposed(&lp);
        assert!((lp_welfare - dec).abs() < 1e-6, "lp {lp_welfare} vs decomposed {dec}");
        // By hand: E[C1] = 800, C2 = 800; with 3 peers both always covered:
        // E[W*] = E[C1] + C2 = 1600.
        assert!((lp_welfare - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn lp_matches_decomposed_capped() {
        let lp = two_helper_instance(3, Some(400.0));
        let lp_welfare = lp.solve().unwrap();
        let dec = decomposed(&lp);
        assert!((lp_welfare - dec).abs() < 1e-6, "lp {lp_welfare} vs decomposed {dec}");
        // By hand, per state: caps (700,800): best 3-peer split is 1/2 or
        // 2/1: w = min(400,700)+min(800,800)=400+800=1200 for (1,2);
        // (2,1): min(800,700)+400=1100. So 1200. caps (900,800):
        // (1,2)=400+800=1200, (2,1)=800+400=1200 -> 1200.
        // E[W*] = 1200.
        assert!((lp_welfare - 1200.0).abs() < 1e-6);
    }

    #[test]
    fn single_peer_chooses_best_expected_helper() {
        let lp = OccupationLp::new(
            vec![vec![700.0, 900.0], vec![850.0]],
            vec![vec![0.5, 0.5], vec![1.0]],
            1,
            None,
        );
        let lp_welfare = lp.solve().unwrap();
        // Per state: max(700,850)=850; max(900,850)=900 -> E = 875.
        assert!((lp_welfare - 875.0).abs() < 1e-6);
    }

    #[test]
    fn three_level_paper_ladder() {
        // One helper with the paper's ladder and uniform-ish stationary
        // (birth-death 0.98 stay has stationary [0.25, 0.5, 0.25]).
        let lp = OccupationLp::new(
            vec![vec![700.0, 800.0, 900.0]],
            vec![vec![0.25, 0.5, 0.25]],
            2,
            None,
        );
        let lp_welfare = lp.solve().unwrap();
        assert!((lp_welfare - 800.0).abs() < 1e-6, "welfare {lp_welfare}");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_instance_is_rejected() {
        let lp = OccupationLp::new(
            vec![vec![700.0, 800.0, 900.0]; 6],
            vec![vec![0.25, 0.5, 0.25]; 6],
            8,
            None,
        );
        let _ = lp.solve();
    }

    #[test]
    #[should_panic(expected = "not a distribution")]
    fn bad_stationary_rejected() {
        let _ = OccupationLp::new(vec![vec![800.0]], vec![vec![0.7]], 1, None);
    }
}
