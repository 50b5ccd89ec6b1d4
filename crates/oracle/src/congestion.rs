//! The helper-selection game as a singleton congestion game.
//!
//! §III.A of the paper: each peer selects exactly one helper `h_j`; its
//! stage utility is the received streaming rate `u_i = C_{h_j} / n_{h_j}`,
//! the helper's capacity split evenly over its current load. Utilities
//! depend on a player's own choice only through the *load vector*, which
//! makes this a **singleton congestion game** (Milchtaich, the paper's
//! reference \[16\], cited to establish pure-Nash existence). Because all peers share
//! the same resource payoff `C_j / n`, the game admits the exact Rosenthal
//! potential `Φ(loads) = Σ_j Σ_{k=1}^{n_j} C_j / k`, and unilateral
//! best-response dynamics therefore terminate in a pure Nash equilibrium.

use crate::normal_form::Game;

/// The paper's helper-selection stage game.
#[derive(Debug, Clone, PartialEq)]
pub struct HelperSelectionGame {
    capacities: Vec<f64>,
    num_peers: usize,
}

impl HelperSelectionGame {
    /// Creates the game for a *variable* number of peers: the player count
    /// is fixed lazily by the profile length. Use
    /// [`with_peers`](Self::with_peers) when the [`Game`] trait (which
    /// requires a fixed player count) is needed.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is empty or contains negative/non-finite
    /// entries.
    pub fn new(capacities: Vec<f64>) -> Self {
        crate::check_capacities(&capacities);
        Self { capacities, num_peers: 0 }
    }

    /// Fixes the number of peers (players), enabling the [`Game`] trait.
    #[must_use]
    pub fn with_peers(mut self, num_peers: usize) -> Self {
        self.num_peers = num_peers;
        self
    }

    /// Number of helpers.
    pub fn num_helpers(&self) -> usize {
        self.capacities.len()
    }

    /// Load vector (peers per helper) induced by `profile`.
    ///
    /// # Panics
    ///
    /// Panics if an action is out of range.
    pub fn loads(&self, profile: &[usize]) -> Vec<usize> {
        let mut loads = vec![0usize; self.capacities.len()];
        for &a in profile {
            assert!(a < loads.len(), "helper index {a} out of range");
            loads[a] += 1;
        }
        loads
    }

    /// Per-peer rate when `load` peers share helper `helper`.
    ///
    /// Returns 0 when `load == 0` (no peer to receive anything).
    pub fn rate(&self, helper: usize, load: usize) -> f64 {
        if load == 0 {
            return 0.0;
        }
        self.capacities[helper] / load as f64
    }

    /// Rosenthal potential `Φ = Σ_j Σ_{k=1}^{n_j} C_j/k` of a load vector.
    ///
    /// Any unilateral deviation changes a peer's utility by exactly the
    /// change in `Φ`, so sequential
    /// best-response strictly increases `Φ` and must terminate.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len()` differs from the helper count.
    pub fn potential(&self, loads: &[usize]) -> f64 {
        assert_eq!(loads.len(), self.capacities.len(), "load vector length mismatch");
        loads
            .iter()
            .zip(&self.capacities)
            .map(|(&n, &c)| (1..=n).map(|k| c / k as f64).sum::<f64>())
            .sum()
    }

    /// Checks whether `profile` is a pure Nash equilibrium: no peer can
    /// strictly improve by switching helpers (tolerance `tol`).
    #[allow(clippy::needless_range_loop)] // k is a helper id, not a position
    pub fn is_pure_nash(&self, profile: &[usize], tol: f64) -> bool {
        let loads = self.loads(profile);
        for &a in profile {
            let current = self.rate(a, loads[a]);
            for k in 0..self.capacities.len() {
                if k == a {
                    continue;
                }
                if self.rate(k, loads[k] + 1) > current + tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Game for HelperSelectionGame {
    fn num_players(&self) -> usize {
        self.num_peers
    }

    fn num_actions(&self, _player: usize) -> usize {
        self.capacities.len()
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        assert!(player < profile.len(), "player index out of range");
        let loads = self.loads(profile);
        self.rate(profile[player], loads[profile[player]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_count_correctly() {
        let g = HelperSelectionGame::new(vec![800.0, 700.0]);
        assert_eq!(g.loads(&[0, 0, 1]), vec![2, 1]);
        assert_eq!(g.loads(&[]), vec![0, 0]);
    }

    #[test]
    fn utility_is_even_split() {
        let g = HelperSelectionGame::new(vec![800.0, 600.0]).with_peers(3);
        // peers 0,1 on helper 0; peer 2 on helper 1.
        let profile = [0, 0, 1];
        assert_eq!(g.utility(0, &profile), 400.0);
        assert_eq!(g.utility(1, &profile), 400.0);
        assert_eq!(g.utility(2, &profile), 600.0);
        assert_eq!(g.social_welfare(&profile), 1400.0);
    }

    #[test]
    fn potential_deviation_equals_utility_change() {
        // Core potential-game identity: Φ(after) - Φ(before) equals the
        // deviator's utility change.
        let g = HelperSelectionGame::new(vec![900.0, 700.0, 500.0]);
        let before = vec![0usize, 0, 1, 2, 0];
        // Peer 4 moves from helper 0 to helper 1.
        let mut after = before.clone();
        after[4] = 1;

        let u_before = {
            let loads = g.loads(&before);
            g.rate(0, loads[0])
        };
        let u_after = {
            let loads = g.loads(&after);
            g.rate(1, loads[1])
        };
        let phi_delta = g.potential(&g.loads(&after)) - g.potential(&g.loads(&before));
        assert!(
            (phi_delta - (u_after - u_before)).abs() < 1e-9,
            "potential identity violated: {phi_delta} vs {}",
            u_after - u_before
        );
    }

    #[test]
    fn nash_check_accepts_balanced_profile() {
        // Two equal helpers, 4 peers, 2-2 split: nobody gains by moving
        // (moving gives 800/3 < 400).
        let g = HelperSelectionGame::new(vec![800.0, 800.0]);
        assert!(g.is_pure_nash(&[0, 0, 1, 1], 1e-9));
    }

    #[test]
    fn nash_check_rejects_lopsided_profile() {
        // 4 peers all on one of two equal helpers: moving yields 800 > 200.
        let g = HelperSelectionGame::new(vec![800.0, 800.0]);
        assert!(!g.is_pure_nash(&[0, 0, 0, 0], 1e-9));
    }

    #[test]
    #[should_panic(expected = "at least one helper")]
    fn empty_capacities_rejected() {
        let _ = HelperSelectionGame::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_profile_panics() {
        let g = HelperSelectionGame::new(vec![800.0]);
        let _ = g.loads(&[1]);
    }
}
