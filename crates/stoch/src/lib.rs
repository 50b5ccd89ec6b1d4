//! Stochastic-process substrate for the RTHS reproduction.
//!
//! The paper's environment is driven by random processes:
//!
//! * helper upload bandwidth follows a **slowly changing finite Markov
//!   chain** over the levels `[700, 800, 900]` kbps (§IV) —
//!   [`bandwidth`];
//! * the centralized MDP benchmark weights its optimum by that chain's
//!   **stationary law** (§IV.A), which is closed-form —
//!   [`MarkovBandwidth::STATIONARY`];
//! * peers join and leave (churn) — [`process`];
//! * multi-channel systems have **Zipf-distributed channel popularity** —
//!   [`zipf`].
//!
//! Everything is seeded explicitly ([`rng`]) so that simulations, tests and
//! figures are bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use rths_stoch::bandwidth::{BandwidthProcess, MarkovBandwidth};
//! use rths_stoch::rng::seeded_rng;
//!
//! let mut rng = seeded_rng(42);
//! // The paper's helper-bandwidth process.
//! let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.98);
//! for _ in 0..10 {
//!     let level = bw.level();
//!     assert!([700.0, 800.0, 900.0].contains(&level));
//!     bw.step(&mut rng);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod process;
pub mod rng;
pub mod zipf;

pub use bandwidth::{BandwidthProcess, MarkovBandwidth};
pub use zipf::Zipf;
