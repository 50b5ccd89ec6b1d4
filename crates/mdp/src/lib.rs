//! Centralized MDP benchmark for helper selection (paper §IV.A).
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
//! 1. [`welfare`] — the expected optimum `Σ_y π(y)·W*(y)`, computed by
//!    exact enumeration of the joint state space when it is small and by
//!    stationary Monte Carlo otherwise;
//! 2. [`assignment`] — exact per-state optimal load vectors via greedy
//!    marginal allocation (optimal because per-helper welfare is concave
//!    in load), cross-checked against an `O(H·N²)` dynamic program;
//! 3. [`occupation`] — the literal LP, solved exactly with `rths-lp`
//!    (exponential in peers/helpers; the ground truth at toy scale).
//!
//! # Example
//!
//! ```
//! use rths_mdp::assignment::optimal_loads;
//!
//! // 10 peers, helpers at 700/800/900 kbps, uncapped demand: any
//! // covering assignment attains welfare 2400.
//! let alloc = optimal_loads(&[700.0, 800.0, 900.0], 10, None);
//! assert_eq!(alloc.welfare, 2400.0);
//! assert!(alloc.loads.iter().all(|&l| l > 0));
//! ```

#![forbid(unsafe_code)]

pub mod assignment;
pub mod benchmark;
pub mod occupation;
pub mod welfare;

pub use benchmark::MdpBenchmark;
