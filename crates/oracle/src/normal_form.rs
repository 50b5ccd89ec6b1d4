//! Finite normal-form games.

/// A finite normal-form game.
///
/// Implementors expose the number of players, each player's action count,
/// and the utility of a player at a pure joint action ("profile"). The
/// trait is object-safe so heterogeneous game collections can be handled
/// uniformly by the equilibrium tooling.
pub trait Game {
    /// Number of players `|N|`.
    fn num_players(&self) -> usize;

    /// Number of actions available to `player`.
    fn num_actions(&self, player: usize) -> usize;

    /// Utility of `player` at the pure profile `profile`
    /// (`profile[i]` is player `i`'s action).
    ///
    /// # Panics
    ///
    /// Implementations may panic if the profile has the wrong length or an
    /// action is out of range.
    fn utility(&self, player: usize, profile: &[usize]) -> f64;

    /// Sum of all players' utilities at `profile` — the social welfare
    /// objective of the paper's cooperative benchmark.
    fn social_welfare(&self, profile: &[usize]) -> f64 {
        (0..self.num_players()).map(|i| self.utility(i, profile)).sum()
    }
}

/// Iterates over every pure profile of `game` in lexicographic order,
/// calling `f` on each.
///
/// Intended for small games (equilibrium enumeration, exact CE LPs); the
/// profile count is exponential in the player count.
pub fn for_each_profile<G: Game + ?Sized>(game: &G, mut f: impl FnMut(&[usize])) {
    let n = game.num_players();
    if n == 0 {
        return;
    }
    let sizes: Vec<usize> = (0..n).map(|p| game.num_actions(p)).collect();
    if sizes.contains(&0) {
        return;
    }
    let mut profile = vec![0usize; n];
    loop {
        f(&profile);
        // Odometer increment.
        let mut i = n;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            profile[i] += 1;
            if profile[i] < sizes[i] {
                break;
            }
            profile[i] = 0;
        }
    }
}

/// A normal-form game with explicitly tabulated payoffs.
///
/// Payoffs are stored densely: entry `player * num_profiles + index(profile)`
/// where profiles are indexed lexicographically. Suitable for the small
/// games used in exact-equilibrium tests.
///
/// # Example
///
/// ```
/// use rths_oracle::{Game, TableGame};
///
/// // Prisoner's dilemma (actions: 0 = cooperate, 1 = defect).
/// let pd = TableGame::two_player(
///     &[&[3.0, 0.0], &[5.0, 1.0]], // row player
///     &[&[3.0, 5.0], &[0.0, 1.0]], // column player
/// );
/// assert_eq!(pd.utility(0, &[1, 0]), 5.0);
/// assert_eq!(pd.utility(1, &[1, 0]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TableGame {
    action_counts: Vec<usize>,
    payoffs: Vec<f64>, // [player][profile_index]
}

impl TableGame {
    /// Builds a game from a utility closure by tabulating every profile.
    ///
    /// # Panics
    ///
    /// Panics if `action_counts` is empty, any count is zero, or the
    /// profile space overflows `usize`.
    pub fn from_fn(
        action_counts: Vec<usize>,
        utility: impl Fn(usize, &[usize]) -> f64,
    ) -> Self {
        assert!(!action_counts.is_empty(), "need at least one player");
        assert!(action_counts.iter().all(|&c| c > 0), "every player needs an action");
        let num_profiles: usize = action_counts
            .iter()
            .try_fold(1usize, |acc, &c| acc.checked_mul(c))
            .expect("profile space too large to tabulate");
        let players = action_counts.len();
        let mut payoffs = vec![0.0; players * num_profiles];
        let shell = Shell { action_counts: action_counts.clone() };
        let mut idx = 0usize;
        for_each_profile(&shell, |profile| {
            for (p, payoff_row) in payoffs.chunks_mut(num_profiles).enumerate() {
                payoff_row[idx] = utility(p, profile);
            }
            idx += 1;
        });
        Self { action_counts, payoffs }
    }

    /// Convenience constructor for two-player bimatrix games.
    ///
    /// `row[i][j]` is player 0's payoff and `col[i][j]` player 1's when
    /// player 0 plays `i` and player 1 plays `j`.
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged payoff matrices or shape mismatch.
    pub fn two_player(row: &[&[f64]], col: &[&[f64]]) -> Self {
        assert!(!row.is_empty() && !row[0].is_empty(), "row payoffs empty");
        assert_eq!(row.len(), col.len(), "payoff shapes differ");
        let (m, n) = (row.len(), row[0].len());
        for (r, c) in row.iter().zip(col) {
            assert_eq!(r.len(), n, "ragged row payoffs");
            assert_eq!(c.len(), n, "ragged col payoffs");
        }
        let row: Vec<Vec<f64>> = row.iter().map(|r| r.to_vec()).collect();
        let col: Vec<Vec<f64>> = col.iter().map(|c| c.to_vec()).collect();
        Self::from_fn(vec![m, n], move |p, profile| {
            if p == 0 {
                row[profile[0]][profile[1]]
            } else {
                col[profile[0]][profile[1]]
            }
        })
    }

    /// Lexicographic index of `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is malformed.
    pub(crate) fn profile_index(&self, profile: &[usize]) -> usize {
        assert_eq!(profile.len(), self.action_counts.len(), "profile length mismatch");
        let mut idx = 0usize;
        for (a, &count) in profile.iter().zip(&self.action_counts) {
            assert!(*a < count, "action {a} out of range");
            idx = idx * count + a;
        }
        idx
    }
}

/// Internal zero-payoff shell used to drive profile iteration while
/// tabulating.
struct Shell {
    action_counts: Vec<usize>,
}

impl Game for Shell {
    fn num_players(&self) -> usize {
        self.action_counts.len()
    }

    fn num_actions(&self, player: usize) -> usize {
        self.action_counts[player]
    }

    fn utility(&self, _player: usize, _profile: &[usize]) -> f64 {
        0.0
    }
}

impl Game for TableGame {
    fn num_players(&self) -> usize {
        self.action_counts.len()
    }

    fn num_actions(&self, player: usize) -> usize {
        self.action_counts[player]
    }

    fn utility(&self, player: usize, profile: &[usize]) -> f64 {
        let num_profiles = self.payoffs.len() / self.action_counts.len();
        self.payoffs[player * num_profiles + self.profile_index(profile)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matching_pennies() -> TableGame {
        TableGame::two_player(&[&[1.0, -1.0], &[-1.0, 1.0]], &[&[-1.0, 1.0], &[1.0, -1.0]])
    }

    #[test]
    fn pennies_payoffs() {
        let g = matching_pennies();
        assert_eq!(g.utility(0, &[0, 0]), 1.0);
        assert_eq!(g.utility(1, &[0, 0]), -1.0);
        assert_eq!(g.utility(0, &[0, 1]), -1.0);
        assert_eq!(g.num_players(), 2);
        assert_eq!(g.num_actions(0), 2);
    }

    #[test]
    fn zero_sum_social_welfare_is_zero() {
        let g = matching_pennies();
        for_each_profile(&g, |p| {
            assert_eq!(g.social_welfare(p), 0.0);
        });
    }

    #[test]
    fn profile_iteration_is_exhaustive_and_ordered() {
        let g = TableGame::from_fn(vec![2, 3], |_, _| 0.0);
        let mut seen = Vec::new();
        for_each_profile(&g, |p| seen.push(p.to_vec()));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[1], vec![0, 1]);
        assert_eq!(seen[5], vec![1, 2]);
    }

    #[test]
    fn from_fn_three_players() {
        // Utility = own action index + 10*player.
        let g = TableGame::from_fn(vec![2, 2, 2], |p, prof| prof[p] as f64 + 10.0 * p as f64);
        assert_eq!(g.utility(2, &[0, 1, 1]), 21.0);
        assert_eq!(g.utility(0, &[1, 0, 0]), 1.0);
        assert_eq!(g.num_players(), 3);
    }

    #[test]
    fn profile_index_is_lexicographic() {
        let g = TableGame::from_fn(vec![3, 2], |_, _| 0.0);
        assert_eq!(g.profile_index(&[0, 0]), 0);
        assert_eq!(g.profile_index(&[0, 1]), 1);
        assert_eq!(g.profile_index(&[1, 0]), 2);
        assert_eq!(g.profile_index(&[2, 1]), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_action_panics() {
        let g = TableGame::from_fn(vec![2, 2], |_, _| 0.0);
        let _ = g.profile_index(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "payoff shapes differ")]
    fn mismatched_bimatrix_panics() {
        let _ = TableGame::two_player(&[&[1.0]], &[&[1.0], &[2.0]]);
    }
}
