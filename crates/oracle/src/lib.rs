//! The reference the RTHS reproduction is checked against: the
//! helper-selection game and its equilibria (paper §III), the centralized
//! MDP optimum (§IV.A) and the linear-programming solver both rest on.
//!
//! This crate depends on the production crates and no production crate
//! depends on it: `rths_core`, `rths_sim`, `rths_net` and `rths_reactor`
//! build without it, so no run compiles the reference it is judged by.
//! The checks run learners on the production engine
//! ([`System`](rths_sim::System)), record what they judge from its
//! per-epoch views ([`System::profile`](rths_sim::System::profile),
//! [`System::delivered`](rths_sim::System::delivered)) and judge it here.
//!
//! # The game (§III)
//!
//! The paper models helper selection as a non-cooperative repeated game
//! (§III.A): players are peers, actions are helpers, and the stage utility
//! of a peer is its received streaming rate `C_h / load_h` — to the bit,
//! the rate a [`System`](rths_sim::System) over static helpers with no
//! demand cap delivers.
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
//! * [`equilibrium`] — pure Nash enumeration, the exact welfare-maximising
//!   correlated equilibrium via linear programming, and *empirical* CE
//!   verification of the [`JointDistribution`](equilibrium::JointDistribution)
//!   a learning run records, used to check that learned play converges to
//!   the CE set (the paper's central claim).
//!
//! Synchronous best response flaps forever (see [`best_response`]'s
//! example); RTHS peers, each observing only its own rate, do not flap:
//! their joint play settles into the CE set.
//!
//! ```
//! use rths_oracle::equilibrium::{ce_residual_congestion, JointDistribution};
//! use rths_oracle::HelperSelectionGame;
//! use rths_sim::{BandwidthSpec, LearnerSpec, SimConfig, System};
//!
//! // 6 peers learn over two static 800 kbps helpers on the engine.
//! let caps = vec![800.0, 800.0];
//! let helpers = caps.iter().map(|&c| BandwidthSpec::Constant(c)).collect();
//! let config = SimConfig::builder(6, helpers)
//!     .learner(LearnerSpec { mu: Some(3200.0), ..LearnerSpec::default() })
//!     .seed(7)
//!     .build();
//! let mut system = System::new(config);
//! // The joint play of epochs 1000..3000, the transient left out.
//! let mut joint = JointDistribution::new();
//! for epoch in 0..3000 {
//!     system.step_epoch();
//!     if epoch >= 1000 {
//!         joint.record(&system.profile().iter().map(|&a| a as usize).collect::<Vec<_>>());
//!     }
//! }
//! let outcome = system.outcome();
//!
//! // Play is an approximate correlated equilibrium…
//! let report = ce_residual_congestion(&HelperSelectionGame::new(caps), &joint);
//! assert!(report.relative_residual() < 0.2);
//! // …that keeps both helpers busy almost every epoch.
//! let tail = outcome.metrics.welfare.tail_mean(300);
//! assert!(tail > 1500.0, "tail welfare {tail}");
//! ```
//!
//! # The centralized optimum (§IV.A)
//!
//! The paper benchmarks RTHS against a *cooperative* optimum: a single
//! controller (the streaming server) that observes the full helper
//! bandwidth state `y` and assigns every peer to a helper. Formally this
//! is an average-reward MDP whose optimal stationary policy is found by a
//! linear program over **occupation measures** `ρ(y, x)`:
//!
//! ```text
//! max  Σ_y Σ_x u(y,x)·ρ(y,x)
//! s.t. Σ_x ρ(y,x) = π(y)   ∀y      (marginals match the stationary dist)
//!      Σ_{y,x} ρ(y,x) = 1,  ρ ≥ 0
//! ```
//!
//! Because helper-state dynamics are uncontrolled (the chains evolve
//! independently of assignments), the LP decomposes per state: the optimal
//! policy plays a welfare-maximising assignment in every state, and the
//! optimal value is `Σ_y π(y)·W*(y)`. [`MdpBenchmark`] computes that value
//! (Fig. 2's reference line); the other modules are its computation paths
//! and the references they are tested against:
//!
//! 1. [`welfare`] — the expected optimum `Σ_y π(y)·W*(y)`, exact at any
//!    number of helpers: it sums over the laws of helper level *counts*
//!    (`W*` depends only on the multiset of capacities), not over joint
//!    states;
//! 2. [`assignment`] — exact per-state optimal load vectors via greedy
//!    marginal allocation (optimal because per-helper welfare is concave
//!    in load), cross-checked against an `O(H·N²)` dynamic program;
//! 3. [`occupation`] — the literal LP, solved exactly with
//!    [`LinearProgram`] (exponential in peers/helpers; the ground truth at
//!    toy scale).
//!
//! # The LP solver
//!
//! [`LinearProgram`] is a classic **two-phase dense primal simplex** with
//! Bland's anti-cycling rule. It targets correctness on small/medium dense
//! problems (the occupation-measure LPs here have at most a few thousand
//! variables), not sparse industrial scale.

#![forbid(unsafe_code)]

pub mod assignment;
pub mod benchmark;
pub mod best_response;
pub mod congestion;
pub mod equilibrium;
pub mod normal_form;
pub mod occupation;
mod problem;
mod simplex;
mod solution;
pub mod welfare;

pub use benchmark::MdpBenchmark;
pub use congestion::HelperSelectionGame;
pub use normal_form::{Game, TableGame};
pub use problem::{LinearProgram, Relation};
pub use solution::{LpError, Solution};

/// The capacity contract of the game and the assignment optimizers: at
/// least one helper, every capacity finite and non-negative.
///
/// # Panics
///
/// Panics with the violated clause.
fn check_capacities(capacities: &[f64]) {
    assert!(!capacities.is_empty(), "need at least one helper");
    assert!(
        capacities.iter().all(|c| c.is_finite() && *c >= 0.0),
        "capacities must be finite and non-negative"
    );
}
