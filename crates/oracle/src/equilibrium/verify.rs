//! Empirical correlated-equilibrium verification.
//!
//! Hart & Mas-Colell's theorem (the paper's convergence guarantee) says
//! the *empirical joint distribution of play* converges to the CE set.
//! Given the [`JointDistribution`] recorded from a learning run, these
//! functions compute the largest violated CE incentive:
//!
//! ```text
//! residual(i, j→k) = Σ_{a : a_i = j} z(a) · [u_i(k, a_-i) − u_i(a)]
//! ```
//!
//! Play is (approximately) a CE when every residual is ≤ 0 (≤ tol). The
//! residual is exactly the long-run average regret of player `i` for not
//! having played `k` whenever it played `j` — the quantity RTHS drives to
//! zero.

use crate::congestion::HelperSelectionGame;
use crate::equilibrium::joint::JointDistribution;
use crate::normal_form::Game;

/// Result of a CE verification.
#[derive(Debug, Clone, PartialEq)]
pub struct CeReport {
    /// Largest residual over all `(player, j, k)` triples (can be
    /// negative when play is strictly inside the CE polytope).
    pub max_residual: f64,
    /// The triple attaining the maximum: `(player, played, alternative)`.
    pub worst: Option<(usize, usize, usize)>,
    /// Average per-player utility under the empirical distribution, for
    /// scaling the residual into relative terms.
    pub mean_utility: f64,
}

impl CeReport {
    /// Residual divided by mean utility — a scale-free violation measure.
    pub fn relative_residual(&self) -> f64 {
        if self.mean_utility.abs() < 1e-12 {
            self.max_residual
        } else {
            self.max_residual / self.mean_utility.abs()
        }
    }
}

/// Generic CE residual for any finite [`Game`].
///
/// Cost: `O(support · Σ_i |A_i| · cost(utility))`. Fine for small games;
/// use [`ce_residual_congestion`] for large helper-selection instances.
pub fn ce_residual<G: Game + ?Sized>(game: &G, dist: &JointDistribution) -> CeReport {
    let players = game.num_players();
    let mut residuals: Vec<((usize, usize, usize), f64)> = Vec::new();
    let mut mean_utility = 0.0;

    for i in 0..players {
        let actions = game.num_actions(i);
        for j in 0..actions {
            for k in 0..actions {
                if j == k {
                    continue;
                }
                let mut total = 0.0;
                for (profile, z) in dist.iter() {
                    if profile[i] != j {
                        continue;
                    }
                    let u_now = game.utility(i, profile);
                    let mut deviated = profile.to_vec();
                    deviated[i] = k;
                    let u_dev = game.utility(i, &deviated);
                    total += z * (u_dev - u_now);
                }
                residuals.push(((i, j, k), total));
            }
        }
    }
    for (profile, z) in dist.iter() {
        let w: f64 = (0..players).map(|i| game.utility(i, profile)).sum();
        mean_utility += z * w / players.max(1) as f64;
    }

    let (worst, max_residual) = residuals
        .into_iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("residuals are finite"))
        .map(|(triple, r)| (Some(triple), r))
        .unwrap_or((None, 0.0));
    CeReport { max_residual, worst, mean_utility }
}

/// Fast CE residual for the helper-selection game, exploiting the
/// congestion structure: utilities depend only on the load vector, so each
/// profile in the support costs `O(N + N·H)` instead of `O(N·H·N)`.
///
/// # Panics
///
/// Panics if profiles in `dist` have inconsistent lengths or out-of-range
/// actions.
pub fn ce_residual_congestion(
    game: &HelperSelectionGame,
    dist: &JointDistribution,
) -> CeReport {
    let h = game.num_helpers();
    let mut players = 0usize;
    // residual[(i, j, k)] laid out as i * h * h + j * h + k.
    let mut residuals: Vec<f64> = Vec::new();
    let mut mean_utility = 0.0;

    for (profile, z) in dist.iter() {
        if residuals.is_empty() {
            players = profile.len();
            residuals = vec![0.0; players * h * h];
        }
        assert_eq!(profile.len(), players, "inconsistent profile lengths in distribution");
        let loads = game.loads(profile);
        // Per-helper rates for current and joining loads, computed once.
        let rate_now: Vec<f64> = (0..h).map(|j| game.rate(j, loads[j])).collect();
        let rate_join: Vec<f64> = (0..h).map(|j| game.rate(j, loads[j] + 1)).collect();
        for (i, &j) in profile.iter().enumerate() {
            let u_now = rate_now[j];
            mean_utility += z * u_now / players as f64;
            // Rate on own helper after leaving is irrelevant; deviating to
            // k gives rate with loads[k]+1 peers (self moves there). If
            // k == j the term is zero and skipped.
            let base = i * h * h + j * h;
            for k in 0..h {
                if k == j {
                    continue;
                }
                residuals[base + k] += z * (rate_join[k] - u_now);
            }
        }
    }

    let mut max_residual = f64::NEG_INFINITY;
    let mut worst = None;
    for i in 0..players {
        for j in 0..h {
            for k in 0..h {
                if j == k {
                    continue;
                }
                let r = residuals[i * h * h + j * h + k];
                if r > max_residual {
                    max_residual = r;
                    worst = Some((i, j, k));
                }
            }
        }
    }
    if worst.is_none() {
        max_residual = 0.0;
    }
    CeReport { max_residual, worst, mean_utility }
}

/// Coarse-correlated-equilibrium (CCE) residual for the helper-selection
/// game: the largest gain any player could get by committing to one
/// fixed helper for the whole run,
///
/// ```text
/// residual(i, k) = Σ_a z(a) · [u_i(k, a_-i) − u_i(a)]
/// ```
///
/// This is the *external* (unconditional) regret; driving it to zero is
/// a weaker guarantee than the CE condition (`CCE ⊇ CE`), and the CCE
/// residual is always dominated by the per-pair sums of the CE residual
/// — a relation the property tests check. Reported alongside
/// [`ce_residual_congestion`] to separate "no fixed helper beats my
/// play" from the stronger "no swap rule beats my play".
pub fn cce_residual_congestion(
    game: &HelperSelectionGame,
    dist: &JointDistribution,
) -> CeReport {
    let h = game.num_helpers();
    let mut players = 0usize;
    let mut residuals: Vec<f64> = Vec::new();
    let mut mean_utility = 0.0;

    for (profile, z) in dist.iter() {
        if residuals.is_empty() {
            players = profile.len();
            residuals = vec![0.0; players * h];
        }
        assert_eq!(profile.len(), players, "inconsistent profile lengths in distribution");
        let loads = game.loads(profile);
        let rate_now: Vec<f64> = (0..h).map(|j| game.rate(j, loads[j])).collect();
        let rate_join: Vec<f64> = (0..h).map(|j| game.rate(j, loads[j] + 1)).collect();
        for (i, &j) in profile.iter().enumerate() {
            let u_now = rate_now[j];
            mean_utility += z * u_now / players as f64;
            for k in 0..h {
                // Committing to k: if already there this epoch, the rate
                // is unchanged; otherwise the join rate applies.
                let u_k = if k == j { u_now } else { rate_join[k] };
                residuals[i * h + k] += z * (u_k - u_now);
            }
        }
    }

    let mut max_residual = f64::NEG_INFINITY;
    let mut worst = None;
    for i in 0..players {
        for k in 0..h {
            let r = residuals[i * h + k];
            if r > max_residual {
                max_residual = r;
                // Encode "any played action" as j == k for CCE.
                worst = Some((i, k, k));
            }
        }
    }
    if worst.is_none() {
        max_residual = 0.0;
    }
    CeReport { max_residual, worst, mean_utility }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_form::TableGame;

    fn chicken() -> TableGame {
        TableGame::two_player(&[&[0.0, 7.0], &[2.0, 6.0]], &[&[0.0, 2.0], &[7.0, 6.0]])
    }

    #[test]
    fn known_ce_of_chicken_passes() {
        // The classic traffic-light CE: 1/3 on (D,C), (C,D), (C,C).
        let g = chicken();
        let mut dist = JointDistribution::new();
        for profile in [[0usize, 1], [1, 0], [1, 1]] {
            for _ in 0..1000 {
                dist.record(&profile);
            }
        }
        let report = ce_residual(&g, &dist);
        assert!(report.max_residual <= 1e-9, "residual {}", report.max_residual);
    }

    #[test]
    fn non_ce_of_chicken_fails() {
        // All mass on (D, D): both players regret not chickening out.
        let g = chicken();
        let mut dist = JointDistribution::new();
        dist.record(&[0, 0]);
        let report = ce_residual(&g, &dist);
        assert!(report.max_residual > 1.9, "residual {}", report.max_residual);
        let worst = report.worst.unwrap();
        assert_eq!(worst.1, 0, "worst deviation should leave action 0");
    }

    #[test]
    fn congestion_fast_path_matches_generic() {
        let game = HelperSelectionGame::new(vec![800.0, 600.0, 400.0]).with_peers(4);
        let mut dist = JointDistribution::new();
        let profiles =
            [[0usize, 1, 2, 0], [0, 0, 1, 2], [1, 1, 0, 0], [2, 1, 0, 0], [0, 1, 2, 0]];
        for p in &profiles {
            dist.record(p);
        }
        let generic = ce_residual(&game, &dist);
        let fast = ce_residual_congestion(&game, &dist);
        assert!(
            (generic.max_residual - fast.max_residual).abs() < 1e-9,
            "generic {} vs fast {}",
            generic.max_residual,
            fast.max_residual
        );
        assert!((generic.mean_utility - fast.mean_utility).abs() < 1e-9);
    }

    #[test]
    fn balanced_play_on_equal_helpers_is_ce() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(4);
        let mut dist = JointDistribution::new();
        // Alternate between the two balanced splits.
        for _ in 0..500 {
            dist.record(&[0, 0, 1, 1]);
            dist.record(&[1, 1, 0, 0]);
        }
        let report = ce_residual_congestion(&game, &dist);
        assert!(report.max_residual <= 1e-9, "residual {}", report.max_residual);
        assert!(report.mean_utility > 0.0);
    }

    #[test]
    fn herding_play_is_not_ce() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(4);
        let mut dist = JointDistribution::new();
        for _ in 0..100 {
            dist.record(&[0, 0, 0, 0]);
            dist.record(&[1, 1, 1, 1]);
        }
        let report = ce_residual_congestion(&game, &dist);
        // Switching away from the herd gains 800/1 - 800/4 = 600 ... but
        // averaged over the stages where the player played that action
        // (half the stages each), the residual is 300 per (j,k) pair.
        assert!(report.max_residual > 250.0, "residual {}", report.max_residual);
    }

    #[test]
    fn empty_distribution_gives_zero_report() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(2);
        let dist = JointDistribution::new();
        let report = ce_residual_congestion(&game, &dist);
        assert_eq!(report.max_residual, 0.0);
        assert!(report.worst.is_none());
        let generic = ce_residual(&game, &dist);
        assert_eq!(generic.max_residual, 0.0);
    }

    #[test]
    fn cce_residual_of_balanced_play_is_nonpositive() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(4);
        let mut dist = JointDistribution::new();
        for _ in 0..200 {
            dist.record(&[0, 0, 1, 1]);
            dist.record(&[1, 1, 0, 0]);
        }
        let report = cce_residual_congestion(&game, &dist);
        assert!(report.max_residual <= 1e-9, "residual {}", report.max_residual);
    }

    #[test]
    fn cce_detects_fixed_action_improvement() {
        // Peer 0 always on the congested helper while helper 1 is free:
        // committing to helper 1 is a large fixed-action gain.
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(3);
        let mut dist = JointDistribution::new();
        dist.record(&[0, 0, 0]);
        let report = cce_residual_congestion(&game, &dist);
        // Gain = 800/1 - 800/3 ≈ 533.
        assert!(report.max_residual > 500.0, "residual {}", report.max_residual);
    }

    #[test]
    fn cce_residual_bounded_by_ce_pair_count() {
        // CCE residual(i,k) = Σ_j [pairwise terms], so it cannot exceed
        // (number of actions) × the max positive CE residual.
        let game = HelperSelectionGame::new(vec![700.0, 500.0, 300.0]).with_peers(4);
        let mut dist = JointDistribution::new();
        let profiles =
            [[0usize, 1, 2, 0], [1, 1, 0, 2], [2, 0, 0, 1], [0, 0, 1, 1], [2, 2, 1, 0]];
        for p in &profiles {
            dist.record(p);
        }
        let ce = ce_residual_congestion(&game, &dist);
        let cce = cce_residual_congestion(&game, &dist);
        let bound = 3.0 * ce.max_residual.max(0.0) + 1e-9;
        assert!(cce.max_residual <= bound, "cce {} > bound {bound}", cce.max_residual);
    }

    #[test]
    fn relative_residual_scales_by_utility() {
        let report = CeReport { max_residual: 50.0, worst: None, mean_utility: 500.0 };
        assert!((report.relative_residual() - 0.1).abs() < 1e-12);
        let degenerate = CeReport { max_residual: 50.0, worst: None, mean_utility: 0.0 };
        assert_eq!(degenerate.relative_residual(), 50.0);
    }
}
