//! Equilibrium computation and verification.
//!
//! * [`nash`] — pure Nash enumeration (small games) and equilibrium load
//!   vectors for the helper-selection game.
//! * [`correlated`] — the exact welfare-maximising correlated
//!   equilibrium via the LP characterisation, solved with the crate's simplex.
//! * [`joint`] — the [`JointDistribution`] of play a learning run records.
//! * [`verify`] — *empirical* CE verification: given the joint play
//!   frequencies produced by a learning run, measure how far they are from
//!   the CE polytope. This is the tool that checks the paper's headline
//!   claim (RTHS play converges to the CE set).

pub mod correlated;
pub mod joint;
pub mod nash;
pub mod verify;

pub use correlated::{max_welfare_ce, CorrelatedEquilibrium};
pub use joint::JointDistribution;
pub use nash::{enumerate_pure_nash, nash_loads};
pub use verify::{cce_residual_congestion, ce_residual, ce_residual_congestion, CeReport};
