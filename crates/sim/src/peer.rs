//! Viewer peers.
//!
//! [`Peer`] is one peer on its own: an id, a learner and the learner's
//! RNG stream. The simulation engine holds its population in the sharded
//! SoA [`crate::store::PeerStore`] instead, and so does each of the
//! reactor's mailbox shards. This type is the unit `rths_net`'s
//! `PeerMachine` wraps, which the benchmark's peer probes drive; the
//! store keeps every per-peer statistic the engines report.

use rand::rngs::StdRng;

use rths_core::Learner;

use crate::config::AnyLearner;

/// Stable identifier of a peer within a simulation (never reused, even
/// across churn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u64);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer-{}", self.0)
    }
}

/// A viewing peer: owns its decentralized learner and its private RNG
/// stream (so churn never perturbs other peers' randomness).
#[derive(Debug)]
pub struct Peer {
    id: PeerId,
    learner: AnyLearner,
    rng: StdRng,
}

impl Peer {
    /// Creates a peer. The last two parameters (channel, join epoch)
    /// are ignored.
    // benchmark shim (ROADMAP 23): `net_layers` calls the five-argument form.
    pub fn new(id: PeerId, learner: AnyLearner, rng: StdRng, _: usize, _: u64) -> Self {
        Self { id, learner, rng }
    }

    /// Stable id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Samples this epoch's helper choice from the learner.
    pub fn choose_helper(&mut self) -> usize {
        self.learner.select_action(&mut self.rng)
    }

    /// Delivers this epoch's realized rate to the learner.
    pub fn deliver(&mut self, rate: f64) {
        self.learner.observe(rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(PeerId(3).to_string(), "peer-3");
    }
}
