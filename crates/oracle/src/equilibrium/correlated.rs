//! Exact correlated equilibria via linear programming.
//!
//! A distribution `z` over joint profiles is a **correlated equilibrium**
//! (paper Eq. 3-1) iff for every player `i` and every pair of actions
//! `j, k`:
//!
//! ```text
//! Σ_{a : a_i = j} z(a) · [u_i(k, a_-i) − u_i(a)] ≤ 0
//! ```
//!
//! The CE set is a non-empty convex polytope containing all Nash
//! equilibria; the paper argues its convexity "allows for better fairness
//! between the peers". This module computes the welfare-maximising CE of
//! a small game exactly, by optimising social welfare over that polytope
//! with the crate's simplex solver ([`LinearProgram`]).

use crate::normal_form::{for_each_profile, Game};
use crate::{LinearProgram, LpError, Relation};

/// A correlated equilibrium of a finite game, as an explicit distribution
/// over lexicographically ordered profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedEquilibrium {
    profiles: Vec<Vec<usize>>,
    probs: Vec<f64>,
    welfare: f64,
}

impl CorrelatedEquilibrium {
    /// Expected social welfare under the equilibrium.
    pub fn welfare(&self) -> f64 {
        self.welfare
    }

    /// Iterates over `(profile, prob)` pairs with positive probability.
    pub fn support(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        self.profiles
            .iter()
            .zip(&self.probs)
            .filter(|(_, &p)| p > 1e-12)
            .map(|(prof, &p)| (prof.as_slice(), p))
    }
}

/// Computes the CE maximising expected social welfare.
///
/// # Errors
///
/// Propagates [`LpError`] from the solver. `LpError::Infeasible` cannot
/// occur for well-formed games (the CE polytope always contains a Nash
/// equilibrium, and a mixed NE always exists); seeing it indicates a
/// malformed game (e.g. zero actions).
pub fn max_welfare_ce<G: Game + ?Sized>(game: &G) -> Result<CorrelatedEquilibrium, LpError> {
    let mut profiles: Vec<Vec<usize>> = Vec::new();
    for_each_profile(game, |p| profiles.push(p.to_vec()));
    let num_z = profiles.len();
    assert!(num_z > 0, "game has no profiles");

    let mut lp =
        LinearProgram::maximize(profiles.iter().map(|p| game.social_welfare(p)).collect());

    // CE incentive constraints: one per (player, j, k≠j).
    let mut scratch: Vec<usize>;
    for i in 0..game.num_players() {
        let actions = game.num_actions(i);
        for j in 0..actions {
            for k in 0..actions {
                if j == k {
                    continue;
                }
                let mut row = vec![0.0; num_z];
                for (idx, profile) in profiles.iter().enumerate() {
                    if profile[i] != j {
                        continue;
                    }
                    let u_now = game.utility(i, profile);
                    scratch = profile.clone();
                    scratch[i] = k;
                    let u_dev = game.utility(i, &scratch);
                    row[idx] = u_dev - u_now;
                }
                lp.add_constraint(row, Relation::Le, 0.0)?;
            }
        }
    }

    // Normalisation: Σ z = 1 (non-negativity is implicit in the solver).
    lp.add_constraint(vec![1.0; num_z], Relation::Eq, 1.0)?;

    let sol = lp.solve()?;
    let probs = sol.x().to_vec();
    let welfare = profiles.iter().zip(&probs).map(|(p, &z)| z * game.social_welfare(p)).sum();
    Ok(CorrelatedEquilibrium { profiles, probs, welfare })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::HelperSelectionGame;
    use crate::equilibrium::joint::JointDistribution;
    use crate::equilibrium::verify::ce_residual;
    use crate::normal_form::TableGame;

    /// The game of Chicken: the classic example where CE strictly expands
    /// the equilibrium set. Payoffs (row, col):
    ///   dare/dare: (0,0); dare/chicken: (7,2); chicken/dare: (2,7);
    ///   chicken/chicken: (6,6).
    fn chicken() -> TableGame {
        TableGame::two_player(&[&[0.0, 7.0], &[2.0, 6.0]], &[&[0.0, 2.0], &[7.0, 6.0]])
    }

    #[test]
    fn chicken_max_welfare_ce_beats_pure_nash_welfare() {
        let g = chicken();
        let ce = max_welfare_ce(&g).unwrap();
        // Pure NE are (dare, chicken) and (chicken, dare), welfare 9.
        // The welfare-optimal CE mixes in (chicken, chicken) and achieves
        // more than 9 (known optimum: 10.5 with z(CC)=z(CD)=z(DC)=1/3...
        // actually for these payoffs optimum is > 9; we assert strictly).
        assert!(ce.welfare() > 9.0 + 1e-6, "CE welfare {}", ce.welfare());
        // And it must satisfy the CE constraints empirically.
        let mut dist = JointDistribution::new();
        for (profile, p) in ce.support() {
            // Record with resolution proportional to probability.
            let copies = (p * 10_000.0).round() as u64;
            for _ in 0..copies {
                dist.record(profile);
            }
        }
        let report = ce_residual(&g, &dist);
        assert!(report.max_residual < 1e-2, "residual {}", report.max_residual);
    }

    #[test]
    fn prisoners_dilemma_ce_is_defect_defect() {
        let pd =
            TableGame::two_player(&[&[3.0, 0.0], &[5.0, 1.0]], &[&[3.0, 5.0], &[0.0, 1.0]]);
        // Defection strictly dominates, so the unique CE is (D, D).
        let ce = max_welfare_ce(&pd).unwrap();
        let support: Vec<_> = ce.support().collect();
        assert!(support.iter().all(|&(p, _)| p == [1, 1]), "support {support:?}");
        assert!((support[0].1 - 1.0).abs() < 1e-6, "support {support:?}");
        assert!((ce.welfare() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn helper_game_ce_welfare_equals_full_coverage() {
        // 2 peers, 2 helpers 800/600: any profile covering both helpers
        // has welfare 1400; the max-welfare CE must achieve it.
        let g = HelperSelectionGame::new(vec![800.0, 600.0]).with_peers(2);
        let ce = max_welfare_ce(&g).unwrap();
        assert!((ce.welfare() - 1400.0).abs() < 1e-6, "welfare {}", ce.welfare());
    }

    #[test]
    fn ce_welfare_at_least_any_pure_nash() {
        // The CE polytope contains every NE, so max-welfare CE ≥ NE welfare.
        let g = HelperSelectionGame::new(vec![900.0, 300.0]).with_peers(3);
        let ce = max_welfare_ce(&g).unwrap();
        for ne in crate::equilibrium::nash::enumerate_pure_nash(&g, 1e-9) {
            assert!(ce.welfare() >= g.social_welfare(&ne) - 1e-6);
        }
    }

    #[test]
    fn three_by_three_ce_lp_terminates() {
        // Regression: this 27-profile instance (3 peers over helpers
        // [800, 700, 600]) cycled forever when the Bland-mode leaving
        // rule broke ratio ties by pivot magnitude instead of smallest
        // basis index. See the simplex's pick_leaving.
        let g = HelperSelectionGame::new(vec![800.0, 700.0, 600.0]).with_peers(3);
        let ce = max_welfare_ce(&g).expect("3x3 CE LP must solve");
        // Full coverage is feasible (3 peers, 3 helpers): welfare 2100.
        assert!((ce.welfare() - 2100.0).abs() < 1e-6, "welfare {}", ce.welfare());
    }

    #[test]
    fn support_skips_zero_probability_profiles() {
        let pd =
            TableGame::two_player(&[&[3.0, 0.0], &[5.0, 1.0]], &[&[3.0, 5.0], &[0.0, 1.0]]);
        let ce = max_welfare_ce(&pd).unwrap();
        let support: Vec<_> = ce.support().collect();
        assert_eq!(support.len(), 1);
        assert_eq!(support[0].0, &[1, 1]);
    }
}
