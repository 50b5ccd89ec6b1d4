//! Finite ergodic Markov chains.
//!
//! §IV.A of the paper models each helper's bandwidth state as "an ergodic
//! finite Markov chain `Y_i(t)`", independent across helpers, and uses the
//! stationary row vector `π_i` to weight the occupation-measure LP. This
//! module provides the chain itself and its stationary distribution, which
//! exists for every irreducible chain (the power iteration is damped, so
//! periodic chains converge too).

use rand::Rng;
use rths_math::Matrix;

/// Error produced when constructing or analysing a [`MarkovChain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkovError {
    /// The transition matrix is not square.
    NotSquare,
    /// A row does not sum to 1 or has negative entries.
    NotStochastic {
        /// Index of the offending row.
        row: usize,
    },
    /// The chain is not irreducible (some state cannot reach some other).
    NotIrreducible,
    /// Power iteration failed to converge to a stationary distribution.
    NoConvergence,
}

impl std::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarkovError::NotSquare => write!(f, "transition matrix must be square"),
            MarkovError::NotStochastic { row } => {
                write!(f, "row {row} of transition matrix is not a probability distribution")
            }
            MarkovError::NotIrreducible => write!(f, "chain is not irreducible"),
            MarkovError::NoConvergence => {
                write!(f, "stationary distribution iteration did not converge")
            }
        }
    }
}

impl std::error::Error for MarkovError {}

/// A finite, time-homogeneous Markov chain with explicit state.
///
/// # Example
///
/// ```
/// use rths_stoch::MarkovChain;
///
/// let chain = MarkovChain::sticky_birth_death(3, 0.9, 0);
/// let pi = chain.stationary_distribution()?;
/// // Detailed balance: the reflecting ends push mass to the middle,
/// // pi = [1/4, 1/2, 1/4].
/// assert!((pi[1] - 0.5).abs() < 1e-9);
/// # Ok::<(), rths_stoch::markov::MarkovError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    transition: Matrix,
    state: usize,
}

impl MarkovChain {
    /// Creates a chain with transition kernel `transition` and initial
    /// state `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotSquare`] or [`MarkovError::NotStochastic`]
    /// if the kernel is malformed.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub(crate) fn new(transition: Matrix, initial: usize) -> Result<Self, MarkovError> {
        if !transition.is_square() {
            return Err(MarkovError::NotSquare);
        }
        for r in 0..transition.rows() {
            let row = transition.row(r);
            let ok = row.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v))
                && (row.iter().sum::<f64>() - 1.0).abs() <= 1e-9;
            if !ok {
                return Err(MarkovError::NotStochastic { row: r });
            }
        }
        assert!(initial < transition.rows(), "initial state out of range");
        Ok(Self { transition, state: initial })
    }

    /// A "sticky" birth–death chain over `n` states: with probability
    /// `stay` the state is unchanged; otherwise it moves to a uniformly
    /// chosen neighbour (reflecting at the boundary).
    ///
    /// This is the workspace's reading of the paper's "slowly changing
    /// random process" over bandwidth levels: `stay` close to 1 makes the
    /// environment quasi-static between rare shifts.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `stay` is outside `[0, 1)`.
    pub fn sticky_birth_death(n: usize, stay: f64, initial: usize) -> Self {
        assert!(n > 0, "need at least one state");
        assert!((0.0..1.0).contains(&stay), "stay probability must be in [0,1)");
        let mut p = Matrix::zeros(n, n);
        if n == 1 {
            p[(0, 0)] = 1.0;
        } else {
            for i in 0..n {
                p[(i, i)] = stay;
                let move_mass = 1.0 - stay;
                if i == 0 {
                    p[(0, 1)] = move_mass;
                } else if i == n - 1 {
                    p[(n - 1, n - 2)] = move_mass;
                } else {
                    p[(i, i - 1)] = move_mass / 2.0;
                    p[(i, i + 1)] = move_mass / 2.0;
                }
            }
        }
        Self::new(p, initial).expect("birth-death kernel is stochastic by construction")
    }

    /// Number of states.
    pub(crate) fn num_states(&self) -> usize {
        self.transition.rows()
    }

    /// Current state.
    pub(crate) fn state(&self) -> usize {
        self.state
    }

    /// The transition kernel.
    pub fn transition(&self) -> &Matrix {
        &self.transition
    }

    /// Advances one step, returning the new state.
    pub(crate) fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        let row = self.transition.row(self.state);
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let mut next = row.len() - 1;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                next = j;
                break;
            }
        }
        self.state = next;
        next
    }

    /// Checks irreducibility: every state can reach every other state.
    // Index loops mirror the Floyd–Warshall formulation; indices are state
    // ids, not mere positions.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn is_irreducible(&self) -> bool {
        let n = self.num_states();
        // Floyd–Warshall style reachability on the support graph.
        let mut reach = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                reach[i][j] = i == j || self.transition[(i, j)] > 0.0;
            }
        }
        for k in 0..n {
            for i in 0..n {
                if !reach[i][k] {
                    continue;
                }
                for j in 0..n {
                    if reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        reach.iter().all(|row| row.iter().all(|&r| r))
    }

    /// Stationary distribution `π` with `π P = π`, by damped power
    /// iteration.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotIrreducible`] for reducible chains and
    /// [`MarkovError::NoConvergence`] if iteration stalls (does not happen
    /// for ergodic kernels).
    pub fn stationary_distribution(&self) -> Result<Vec<f64>, MarkovError> {
        if !self.is_irreducible() {
            return Err(MarkovError::NotIrreducible);
        }
        let n = self.num_states();
        let mut pi = vec![1.0 / n as f64; n];
        // Damping handles periodic chains (π of (P+I)/2 equals π of P).
        let mut kernel = self.transition.clone();
        for i in 0..n {
            for j in 0..n {
                kernel[(i, j)] = 0.5 * kernel[(i, j)] + if i == j { 0.5 } else { 0.0 };
            }
        }
        for _ in 0..100_000 {
            let next = kernel.vec_mul(&pi);
            let diff = rths_math::vector::max_abs_diff(&next, &pi);
            pi = next;
            if diff < 1e-14 {
                rths_math::vector::normalize(&mut pi);
                return Ok(pi);
            }
        }
        Err(MarkovError::NoConvergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn two_state() -> MarkovChain {
        let p = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8]]);
        MarkovChain::new(p, 0).unwrap()
    }

    #[test]
    fn rejects_non_square() {
        let p = Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(MarkovChain::new(p, 0).unwrap_err(), MarkovError::NotSquare);
    }

    #[test]
    fn rejects_non_stochastic_row() {
        let p = Matrix::from_rows(&[&[0.9, 0.2], &[0.5, 0.5]]);
        assert_eq!(MarkovChain::new(p, 0).unwrap_err(), MarkovError::NotStochastic { row: 0 });
    }

    #[test]
    fn stationary_of_two_state_chain() {
        let pi = two_state().stationary_distribution().unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9, "pi = {pi:?}");
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_is_invariant_under_kernel() {
        let chain = MarkovChain::sticky_birth_death(5, 0.9, 2);
        let pi = chain.stationary_distribution().unwrap();
        let pushed = chain.transition().vec_mul(&pi);
        assert!(rths_math::vector::max_abs_diff(&pi, &pushed) < 1e-9);
    }

    #[test]
    fn sticky_chain_is_ergodic() {
        let chain = MarkovChain::sticky_birth_death(3, 0.98, 1);
        assert!(chain.is_irreducible());
        // A self-loop on every state makes an irreducible chain aperiodic.
        assert!((0..3).all(|i| chain.transition()[(i, i)] > 0.0));
    }

    #[test]
    fn periodic_chain_detected() {
        // Deterministic 2-cycle: period 2.
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let chain = MarkovChain::new(p, 0).unwrap();
        assert!(chain.is_irreducible());
        // Stationary distribution still exists and is uniform.
        let pi = chain.stationary_distribution().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reducible_chain_detected() {
        let p = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let chain = MarkovChain::new(p, 0).unwrap();
        assert!(!chain.is_irreducible());
        assert_eq!(chain.stationary_distribution().unwrap_err(), MarkovError::NotIrreducible);
    }

    #[test]
    fn empirical_frequencies_approach_stationary() {
        let mut chain = MarkovChain::sticky_birth_death(3, 0.7, 0);
        let pi = chain.stationary_distribution().unwrap();
        let mut rng = seeded_rng(99);
        let mut counts = [0usize; 3];
        let steps = 200_000;
        for _ in 0..steps {
            counts[chain.step(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / steps as f64;
            assert!((freq - pi[i]).abs() < 0.01, "state {i}: freq {freq} vs pi {}", pi[i]);
        }
    }

    #[test]
    fn step_is_deterministic_given_seed() {
        let mut a = two_state();
        let mut b = two_state();
        let mut ra = seeded_rng(5);
        let mut rb = seeded_rng(5);
        for _ in 0..50 {
            assert_eq!(a.step(&mut ra), b.step(&mut rb));
        }
    }

    #[test]
    fn uniform_chain_has_uniform_stationary() {
        let row: &[f64] = &[0.25; 4];
        let p = Matrix::from_rows(&[row; 4]);
        let chain = MarkovChain::new(p, 0).unwrap();
        let pi = chain.stationary_distribution().unwrap();
        for &p in &pi {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn single_state_chain_works() {
        let chain = MarkovChain::sticky_birth_death(1, 0.5, 0);
        assert!(chain.is_irreducible());
        assert_eq!(chain.stationary_distribution().unwrap(), vec![1.0]);
    }

    #[test]
    fn display_of_errors_is_informative() {
        assert!(format!("{}", MarkovError::NotIrreducible).contains("irreducible"));
        assert!(format!("{}", MarkovError::NotStochastic { row: 3 }).contains("3"));
    }
}
