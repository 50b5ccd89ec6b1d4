//! Discrete-time simulator of a helper-assisted P2P live-streaming system.
//!
//! This crate is the evaluation substrate for the RTHS reproduction: it
//! models the paper's system — streaming **server**, **helpers** with
//! Markov-modulated upload bandwidth balanced across the **channels**
//! they serve, **peers** running decentralized learners with only local
//! information, per-viewer streaming **demand**, and peer **churn**.
//!
//! There is **one engine, K channels**: [`System`] runs the epoch
//! pipeline below for any number of channels. [`System::new`] builds the
//! K = 1 configuration from a [`SimConfig`] (the single-channel
//! evaluation of §IV); [`MultiChannelSystem::new`] builds a K-channel
//! deployment from a [`MultiChannelConfig`] and reports it per channel.
//!
//! Per epoch the engine:
//!
//! 1. advances every helper's bandwidth process (the paper's slowly
//!    changing `[700, 800, 900]` chain by default);
//! 2. applies churn (Poisson joins, geometric departures);
//! 3. lets every peer select a helper of its channel by sampling its
//!    learner's mixed strategy — peers never see other peers' actions or
//!    payoffs;
//! 4. splits each helper's capacity over the channels it serves (the
//!    [`AllocationPolicy`]; with one channel, all of it), then each
//!    channel budget evenly over the connected viewers;
//! 5. shapes the offered rates through the link impairments, if any
//!    (loss, link caps, token buckets);
//! 6. delivers `min(demand, share)` and feeds the realized rates back to
//!    the learners (bandit feedback);
//! 7. routes every peer's residual demand to the streaming server
//!    (`server load = Σ_i max(0, d_i − r_i)`, Fig. 5);
//! 8. records metrics (regret, welfare, loads, fairness, server load,
//!    helper-switch counts) into one [`SimMetrics`] — steps 7 and 8 are
//!    [`EpochMetrics`], which `rths_net`'s coordinator records through too.
//!
//! # Example
//!
//! ```
//! use rths_sim::{Scenario, System};
//!
//! // The paper's small-scale configuration: 10 peers, 4 helpers.
//! let config = Scenario::paper_small().seed(42).build();
//! let mut system = System::new(config);
//! let outcome = system.run(500);
//! assert_eq!(outcome.epochs, 500);
//! // All 10 peers were served every epoch.
//! assert_eq!(outcome.metrics.mean_peer_rates.len(), 10);
//! ```

#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod epoch_metrics;
pub mod helper;
pub mod impairment;
pub mod metrics;
pub mod minitoml;
pub mod multichannel;
pub mod peer;
pub mod playback;
pub mod regret;
pub mod scenario;
mod server;
pub mod spec;
pub mod store;
mod strategy;
pub mod system;
pub mod workload;

pub use config::{
    Algorithm, AnyLearner, BandwidthSpec, LearnerSpec, SimConfig, SimConfigBuilder,
};
pub use epoch_metrics::EpochMetrics;
pub use impairment::{ImpairmentError, ImpairmentPlan, LinkShaper, LossModel};
pub use metrics::SimMetrics;
pub use multichannel::{
    AllocationPolicy, MultiChannelConfig, MultiChannelOutcome, MultiChannelSystem,
};
pub use playback::{PlaybackBuffer, PlaybackStats};
pub use scenario::Scenario;
pub use spec::{ScenarioError, ScenarioReport, ScenarioSpec};
pub use store::{LearnerRef, PeerStore};
pub use strategy::JointDistribution;
pub use system::{Outcome, System};
pub use workload::WorkloadPhase;
