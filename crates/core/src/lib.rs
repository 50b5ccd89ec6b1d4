//! **RTHS** — Regret-Tracking-based Helper Selection.
//!
//! This crate implements the primary contribution of *"Decentralized
//! Adaptive Helper Selection in Multi-channel P2P Streaming Systems"*
//! (Mostafavi & Dehghan, ICDCS 2014): a fully decentralized online
//! learning rule by which selfish peers, each observing **only its own
//! realized streaming rate**, select helpers such that the empirical joint
//! play converges to (and tracks, under non-stationary helper bandwidth)
//! the set of **correlated equilibria** of the helper-selection game.
//!
//! One update rule, one implementation:
//!
//! * [`LearnerSlab`] — the recursive R2HS form (paper Algorithm 2,
//!   Eqs. 3-4…3-6): `O(|H|²)` state and `O(played · |H|)` work per stage,
//!   a population's state packed into flat columns. [`SlabLearner`] is
//!   one slot of it behind the [`Learner`] trait. This is the
//!   implementation every simulator and runtime in the workspace runs.
//!   With [`RecencyMode::Uniform`] it is the classic Hart & Mas-Colell
//!   *regret-matching* baseline (uniform `1/n` averaging) — a
//!   configuration, not a type; the tracking-vs-matching ablation shows
//!   why the paper replaces uniform with recency-weighted averaging in
//!   non-stationary environments.
//! * [`Exp3Learner`] — the EXP3 external-regret bandit baseline, the one
//!   other learner it is compared with.
//!
//! Two reference learners exist only in this crate's test build, as the
//! oracles the slab is held to:
//!
//! * `RthsState` — the same update as a dense scalar matrix per peer,
//!   which the slab replays bit-for-bit.
//! * `HistoryRths` — the literal Algorithm 1 statement that recomputes
//!   the exponentially weighted sums (Eqs. 3-2/3-3) from explicit history
//!   each stage, asserted trajectory-identical to [`SlabLearner`].
//!
//! # The algorithm in five lines
//!
//! At stage `n`, a peer with play probabilities `p^n` samples helper
//! `j ~ p^n`, receives rate `u`, and updates (default
//! [`RecencyMode::Exponential`]):
//!
//! ```text
//! T ← (1-ε)·T;   T[r][j] += u · p^n(r)/p^n(j)   for every row r     (3-5)
//! Q(j,k) = ε · max(0, T[j][k] − T[j][j])                            (3-6)
//! p^{n+1}(k) = (1-δ)·min{ Q(j,k)/μ, 1/(m-1) } + δ/m   for k ≠ j
//! p^{n+1}(j) = 1 − Σ_{k≠j} p^{n+1}(k)
//! ```
//!
//! No information about other peers is needed — the coordination signal
//! travels implicitly through the realized rates.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use rths_core::{Learner, RthsConfig, SlabLearner};
//!
//! // One peer, two helpers: helper 1 gives it 800 kbps, helper 0 only 100.
//! let config = RthsConfig::builder(2).mu(400.0).build()?;
//! let mut peer = SlabLearner::standalone(config);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut on_better = 0;
//! for stage in 0..2000 {
//!     let helper = peer.select_action(&mut rng);
//!     peer.observe(if helper == 1 { 800.0 } else { 100.0 });
//!     if stage >= 1000 && helper == 1 {
//!         on_better += 1;
//!     }
//! }
//! // From its own rates alone it has learned to play the better helper
//! // most of the time (the δ floor keeps it exploring the other).
//! assert!(on_better > 750, "{on_better} of the last 1000 stages");
//! # Ok::<(), rths_core::ConfigError>(())
//! ```
//!
//! `rths_oracle` runs populations of these learners against the stage game
//! and checks that their joint play approaches the correlated-equilibrium
//! set.

#![forbid(unsafe_code)]

#[cfg(test)]
mod compact;
mod config;
mod exp3;
#[cfg(test)]
mod history;
mod lazy;
mod learner;
#[cfg(test)]
mod matching;
mod metrics;
mod policy;
#[cfg(test)]
mod recursive;
mod slab;

pub use config::{ConfigError, RecencyMode, RthsConfig, RthsConfigBuilder};
pub use exp3::{Exp3Config, Exp3Learner};
pub use learner::Learner;
pub use metrics::ConvergenceSeries;
pub use slab::{
    close_row_holes, compact_column, for_each_survivor_run, LearnerSlab, SharedSlab, SlabCols,
    SlabLearner, StrategyCols, OBSERVE_BATCH,
};
