//! Game-theoretic substrate for the RTHS reproduction.
//!
//! The paper models helper selection as a non-cooperative repeated game
//! (§III.A): players are peers, actions are helpers, and the stage utility
//! of a peer is its received streaming rate `C_h / load_h`. This crate
//! provides the structures that formalisation needs:
//!
//! * [`Game`] — the general finite normal-form interface, with
//!   [`TableGame`] as an explicit-payoff implementation for small games.
//! * [`HelperSelectionGame`] — the paper's game as a *singleton congestion
//!   game* with resource-dependent payoffs, including its Rosenthal-style
//!   potential (the paper invokes potential-game structure via
//!   Milchtaich, reference \[16\], to establish pure-Nash existence).
//! * [`best_response`] — synchronous and sequential best-response
//!   dynamics. Synchronous dynamics reproduce the §III.B oscillation
//!   counter-example that motivates learning instead of myopic switching.
//! * [`JointDistribution`] — the empirical joint distribution of play
//!   that a learning run records.
//! * [`equilibrium`] — pure Nash enumeration, the exact welfare-maximising
//!   correlated equilibrium via linear programming, and *empirical* CE
//!   verification of a [`JointDistribution`], used to check that learned
//!   play converges to the CE set (the paper's central claim).
//!
//! # Example: the oscillation example from §III.B
//!
//! ```
//! use rths_game::{HelperSelectionGame, best_response};
//!
//! // n peers, two equal-capacity helpers, everyone starts on helper 0.
//! let game = HelperSelectionGame::new(vec![800.0, 800.0]);
//! let start = vec![0usize; 10];
//! let trace = best_response::synchronous(&game, &start, 6);
//! // All 10 peers flap to helper 1, then back, forever.
//! assert_eq!(trace.profiles[1], vec![1usize; 10]);
//! assert_eq!(trace.profiles[2], vec![0usize; 10]);
//! assert!(!trace.converged);
//! ```

#![forbid(unsafe_code)]

pub mod best_response;
pub mod congestion;
pub mod equilibrium;
pub mod normal_form;
pub mod strategy;

pub use congestion::HelperSelectionGame;
pub use normal_form::{Game, TableGame};
pub use strategy::JointDistribution;
