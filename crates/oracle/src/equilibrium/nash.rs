//! Pure Nash equilibria.

use crate::congestion::HelperSelectionGame;
use crate::normal_form::{for_each_profile, Game};

/// Enumerates every pure Nash equilibrium of a (small) game by exhaustive
/// search over profiles and unilateral deviations.
///
/// Complexity is `O(num_profiles · Σ_i |A_i|)`; intended for games with at
/// most a few thousand profiles (used in tests and exact benchmarks).
pub fn enumerate_pure_nash<G: Game + ?Sized>(game: &G, tol: f64) -> Vec<Vec<usize>> {
    let mut equilibria = Vec::new();
    for_each_profile(game, |profile| {
        if is_pure_nash(game, profile, tol) {
            equilibria.push(profile.to_vec());
        }
    });
    equilibria
}

/// Checks the pure-Nash property of `profile` by testing every unilateral
/// deviation.
pub(crate) fn is_pure_nash<G: Game + ?Sized>(game: &G, profile: &[usize], tol: f64) -> bool {
    let mut scratch = profile.to_vec();
    for i in 0..game.num_players() {
        let current = game.utility(i, profile);
        let original = scratch[i];
        for k in 0..game.num_actions(i) {
            if k == original {
                continue;
            }
            scratch[i] = k;
            if game.utility(i, &scratch) > current + tol {
                scratch[i] = original;
                return false;
            }
        }
        scratch[i] = original;
    }
    true
}

/// Computes a Nash-equilibrium *load vector* for the helper-selection game
/// with `num_peers` peers by greedy marginal assignment: repeatedly place
/// the next peer on the helper offering the highest post-join rate.
///
/// For singleton congestion games with non-increasing resource payoffs the
/// greedy profile is a pure Nash equilibrium (a standard result; verified
/// against [`enumerate_pure_nash`] in tests).
#[allow(clippy::needless_range_loop)] // k is a helper id, not a position
pub fn nash_loads(game: &HelperSelectionGame, num_peers: usize) -> Vec<usize> {
    let h = game.num_helpers();
    let mut loads = vec![0usize; h];
    for _ in 0..num_peers {
        let mut best = 0usize;
        let mut best_rate = f64::NEG_INFINITY;
        for j in 0..h {
            let r = game.rate(j, loads[j] + 1);
            if r > best_rate + 1e-12 {
                best_rate = r;
                best = j;
            }
        }
        loads[best] += 1;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal_form::TableGame;

    #[test]
    fn prisoners_dilemma_has_defect_defect() {
        let pd =
            TableGame::two_player(&[&[3.0, 0.0], &[5.0, 1.0]], &[&[3.0, 5.0], &[0.0, 1.0]]);
        let ne = enumerate_pure_nash(&pd, 1e-9);
        assert_eq!(ne, vec![vec![1, 1]]);
    }

    #[test]
    fn matching_pennies_has_no_pure_nash() {
        let mp =
            TableGame::two_player(&[&[1.0, -1.0], &[-1.0, 1.0]], &[&[-1.0, 1.0], &[1.0, -1.0]]);
        assert!(enumerate_pure_nash(&mp, 1e-9).is_empty());
    }

    #[test]
    fn coordination_game_has_two_equilibria() {
        let coord =
            TableGame::two_player(&[&[2.0, 0.0], &[0.0, 1.0]], &[&[2.0, 0.0], &[0.0, 1.0]]);
        let ne = enumerate_pure_nash(&coord, 1e-9);
        assert_eq!(ne.len(), 2);
        assert!(ne.contains(&vec![0, 0]));
        assert!(ne.contains(&vec![1, 1]));
    }

    #[test]
    fn helper_game_nash_profiles_match_balanced_loads() {
        // 4 peers, two equal helpers: all 2-2 splits are NE.
        let game = HelperSelectionGame::new(vec![800.0, 800.0]).with_peers(4);
        let ne = enumerate_pure_nash(&game, 1e-9);
        assert!(!ne.is_empty());
        for profile in &ne {
            let loads = game.loads(profile);
            assert_eq!(loads, vec![2, 2], "unbalanced NE {profile:?}");
        }
        // C(4,2) = 6 distinct 2-2 assignments.
        assert_eq!(ne.len(), 6);
    }

    #[test]
    fn greedy_loads_form_nash_equilibrium() {
        for caps in [vec![800.0, 800.0], vec![900.0, 300.0], vec![700.0, 800.0, 900.0]] {
            let game = HelperSelectionGame::new(caps.clone());
            for n in 1..=10usize {
                let loads = nash_loads(&game, n);
                assert_eq!(loads.iter().sum::<usize>(), n);
                // Build an explicit profile with those loads and check NE.
                let mut profile = Vec::new();
                for (j, &l) in loads.iter().enumerate() {
                    profile.extend(std::iter::repeat_n(j, l));
                }
                assert!(
                    game.is_pure_nash(&profile, 1e-9),
                    "caps {caps:?}, n={n}: loads {loads:?} not NE"
                );
            }
        }
    }

    #[test]
    fn greedy_loads_proportional_to_capacity() {
        let game = HelperSelectionGame::new(vec![900.0, 300.0]);
        let loads = nash_loads(&game, 8);
        assert_eq!(loads, vec![6, 2]);
    }

    #[test]
    fn is_pure_nash_respects_tolerance() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0 + 1e-12]).with_peers(2);
        // With a generous tolerance the tiny capacity difference is noise.
        assert!(is_pure_nash(&game, &[0, 1], 1e-6));
    }
}
