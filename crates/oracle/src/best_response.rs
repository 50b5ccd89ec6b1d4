//! Best-response dynamics for the helper-selection game.
//!
//! §III.B of the paper argues that myopic best response is dangerous:
//! with two equal helpers and everyone on `h₁`, *simultaneous* best
//! response sends all peers to `h₂`, then back, forever — "switching back
//! and forth … will result in frequent interruption in the streaming
//! flow". [`synchronous`] reproduces exactly that pathology;
//! [`sequential`] (one peer updates at a time) converges because the game
//! has an exact potential. Both serve as baselines against RTHS.
//!
//! ```
//! use rths_oracle::{best_response, HelperSelectionGame};
//!
//! // §III.B: n peers, two equal-capacity helpers, everyone starts on
//! // helper 0.
//! let game = HelperSelectionGame::new(vec![800.0, 800.0]);
//! let start = vec![0usize; 10];
//! let trace = best_response::synchronous(&game, &start, 6);
//! // All 10 peers flap to helper 1, then back, forever.
//! assert_eq!(trace.profiles[1], vec![1usize; 10]);
//! assert_eq!(trace.profiles[2], vec![0usize; 10]);
//! assert!(!trace.converged);
//! ```

use crate::congestion::HelperSelectionGame;

/// Trace of a best-response run.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponseTrace {
    /// Profile at every stage, starting with the initial profile.
    pub profiles: Vec<Vec<usize>>,
    /// Number of peers that switched helpers at each transition.
    pub switches: Vec<usize>,
    /// Whether the dynamics reached a fixed point before the stage limit.
    pub converged: bool,
}

impl BestResponseTrace {
    /// Total helper switches over the whole run — the paper's proxy for
    /// streaming interruptions.
    pub fn total_switches(&self) -> usize {
        self.switches.iter().sum()
    }
}

/// Synchronous (simultaneous) best response: every peer switches to the
/// helper that would have been optimal *against the previous profile*.
///
/// With symmetric capacities this oscillates exactly as described in
/// §III.B. Runs for at most `max_stages` transitions.
#[allow(clippy::needless_range_loop)] // k is a helper id, not a position
pub fn synchronous(
    game: &HelperSelectionGame,
    initial: &[usize],
    max_stages: usize,
) -> BestResponseTrace {
    let mut profiles = vec![initial.to_vec()];
    let mut switches = Vec::new();
    let mut converged = false;
    for _ in 0..max_stages {
        let current = profiles.last().expect("non-empty").clone();
        let loads = game.loads(&current);
        let mut next = current.clone();
        for (i, &a) in current.iter().enumerate() {
            // Best response against the *current* loads, counting the peer
            // out of its own helper (the standard deviation payoff).
            let mut best_action = a;
            let mut best_rate = game.rate(a, loads[a]);
            for k in 0..game.num_helpers() {
                if k == a {
                    continue;
                }
                let r = game.rate(k, loads[k] + 1);
                if r > best_rate + 1e-12 {
                    best_rate = r;
                    best_action = k;
                }
            }
            next[i] = best_action;
        }
        let moved = next.iter().zip(&current).filter(|(a, b)| a != b).count();
        switches.push(moved);
        profiles.push(next);
        if moved == 0 {
            converged = true;
            break;
        }
    }
    BestResponseTrace { profiles, switches, converged }
}

/// Sequential (round-robin) best response: peers update one at a time,
/// observing the loads left by earlier movers. Strictly increases the
/// Rosenthal potential, so it terminates in a pure Nash equilibrium.
#[allow(clippy::needless_range_loop)] // k is a helper id, not a position
pub fn sequential(
    game: &HelperSelectionGame,
    initial: &[usize],
    max_rounds: usize,
) -> BestResponseTrace {
    let mut profiles = vec![initial.to_vec()];
    let mut switches = Vec::new();
    let mut converged = false;
    let mut current = initial.to_vec();
    let mut loads = game.loads(&current);
    for _ in 0..max_rounds {
        let mut moved = 0usize;
        for i in 0..current.len() {
            let a = current[i];
            let mut best_action = a;
            let mut best_rate = game.rate(a, loads[a]);
            for k in 0..game.num_helpers() {
                if k == a {
                    continue;
                }
                let r = game.rate(k, loads[k] + 1);
                if r > best_rate + 1e-12 {
                    best_rate = r;
                    best_action = k;
                }
            }
            if best_action != a {
                loads[a] -= 1;
                loads[best_action] += 1;
                current[i] = best_action;
                moved += 1;
            }
        }
        switches.push(moved);
        profiles.push(current.clone());
        if moved == 0 {
            converged = true;
            break;
        }
    }
    BestResponseTrace { profiles, switches, converged }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_oscillates_on_symmetric_two_helpers() {
        // The §III.B counter-example: n peers, 2 equal helpers, all on h1.
        let game = HelperSelectionGame::new(vec![800.0, 800.0]);
        let trace = synchronous(&game, &[0; 8], 10);
        assert!(!trace.converged);
        // Period-2 flapping: 0^n -> 1^n -> 0^n -> ...
        assert_eq!(trace.profiles[1], vec![1; 8]);
        assert_eq!(trace.profiles[2], vec![0; 8]);
        assert_eq!(trace.profiles[3], vec![1; 8]);
        // Every peer switches every stage: maximal interruption.
        assert!(trace.switches.iter().all(|&s| s == 8));
    }

    #[test]
    fn sequential_converges_to_pure_nash() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]);
        let trace = sequential(&game, &[0; 8], 100);
        assert!(trace.converged);
        assert!(game.is_pure_nash(trace.profiles.last().unwrap(), 1e-9));
        // Balanced 4-4 split.
        let loads = game.loads(trace.profiles.last().unwrap());
        assert_eq!(loads, vec![4, 4]);
    }

    #[test]
    fn sequential_respects_heterogeneous_capacities() {
        // Capacities 900/300: NE loads for 8 peers should put ~3x the
        // peers on the big helper (6-2 split: rates 150 each).
        let game = HelperSelectionGame::new(vec![900.0, 300.0]);
        let trace = sequential(&game, &[1; 8], 100);
        assert!(trace.converged);
        assert!(game.is_pure_nash(trace.profiles.last().unwrap(), 1e-9));
        let loads = game.loads(trace.profiles.last().unwrap());
        assert_eq!(loads, vec![6, 2]);
    }

    #[test]
    fn sequential_potential_is_monotone() {
        let game = HelperSelectionGame::new(vec![700.0, 800.0, 900.0]);
        let trace = sequential(&game, &[0; 12], 100);
        let mut last_phi = f64::NEG_INFINITY;
        for p in &trace.profiles {
            let phi = game.potential(&game.loads(p));
            assert!(phi >= last_phi - 1e-9, "potential decreased: {phi} < {last_phi}");
            last_phi = phi;
        }
        assert!(trace.converged);
    }

    #[test]
    fn fixed_point_detected_immediately() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]);
        // Already at a 2-2 NE.
        let trace = synchronous(&game, &[0, 0, 1, 1], 10);
        assert!(trace.converged);
        assert_eq!(trace.total_switches(), 0);
        assert_eq!(trace.profiles.len(), 2);
    }

    #[test]
    fn total_switches_counts_interruptions() {
        let game = HelperSelectionGame::new(vec![800.0, 800.0]);
        let trace = synchronous(&game, &[0; 4], 5);
        assert_eq!(trace.total_switches(), 4 * 5);
    }

    #[test]
    fn single_helper_trivially_converges() {
        let game = HelperSelectionGame::new(vec![500.0]);
        let trace = synchronous(&game, &[0, 0, 0], 10);
        assert!(trace.converged);
        let seq = sequential(&game, &[0, 0, 0], 10);
        assert!(seq.converged);
    }
}
