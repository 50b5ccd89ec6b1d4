//! Discrete-time simulator of a helper-assisted P2P live-streaming system.
//!
//! This crate is the evaluation substrate for the RTHS reproduction: it
//! models the paper's system — streaming **server**, **helpers** with
//! Markov-modulated upload bandwidth balanced across the **channels**
//! they serve, **peers** running decentralized learners with only local
//! information, per-viewer streaming **demand**, and peer **churn**.
//!
//! There is **one configuration, one engine, K channels**: a
//! [`SimConfig`] describes a run over any number of channels
//! ([`SimConfig::builder`] lays out the single-channel evaluation of §IV,
//! [`SimConfig::standard`] a K-channel deployment), and [`System`] runs
//! the epoch pipeline below for it. [`MultiChannelSystem::new`] builds the
//! same engine without the single-channel diagnostics and reports it per
//! channel.
//!
//! Per epoch the engine steps every helper's bandwidth process (the
//! paper's `[700, 800, 900]` chain by default), applies churn, lets every
//! peer pick a helper of its channel from its learner alone, splits each
//! helper's capacity over its channels and viewers, shapes the rates
//! through the link impairments, feeds `min(demand, rate)` back to the
//! learners (bandit feedback), routes residual demand to the server and
//! records [`SimMetrics`]: the phases tabled in the [`system`] module docs,
//! with what `rths_net`'s actors run of each.
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
pub mod system;
pub mod workload;

pub use config::{
    Algorithm, AnyLearner, BandwidthSpec, LearnerSpec, SimConfig, SimConfigBuilder,
};
pub use epoch_metrics::EpochMetrics;
pub use impairment::{ImpairmentError, ImpairmentPlan, LinkShaper, LossModel};
pub use metrics::SimMetrics;
pub use multichannel::{AllocationPolicy, MultiChannelOutcome, MultiChannelSystem};
pub use playback::{PlaybackBuffer, PlaybackStats};
pub use scenario::Scenario;
pub use spec::{ScenarioError, ScenarioReport, ScenarioSpec};
pub use store::{LearnerRef, PeerStore};
pub use system::{Outcome, System};
pub use workload::WorkloadPhase;

/// The run configuration under its former K-channel name.
#[doc(hidden)]
pub type MultiChannelConfig = SimConfig; // benchmark shim (ROADMAP 23)
