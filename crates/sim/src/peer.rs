//! Viewer peers.
//!
//! [`Peer`] is the standalone per-peer view: one struct owning its
//! learner, RNG stream and accounting. The simulation engine holds its
//! population in the sharded SoA [`crate::store::PeerStore`] instead;
//! this type remains the unit `rths_net`'s `PeerMachine` wraps — one peer
//! on its own, where a self-contained struct is the right shape (the
//! benchmark's peer probes and the protocol tests drive peers that way;
//! the reactor's mailbox shards drive a `PeerStore` block each).

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
/// stream (so churn never perturbs other peers' randomness), plus
/// accumulators for per-peer reporting (Fig. 4).
///
/// The last helper index is stored as a `u32`, as in the store's
/// columns: a reactor hosts 10⁵ of these, and every byte is paid per
/// peer.
#[derive(Debug)]
pub struct Peer {
    id: PeerId,
    learner: AnyLearner,
    rng: StdRng,
    total_rate: f64,
    epochs_online: u64,
    satisfied_epochs: u64,
    last_helper: Option<u32>,
    switches: u64,
}

impl Peer {
    /// Creates a peer. The last two parameters (channel, join epoch)
    /// are ignored.
    // benchmark shim (ROADMAP 23): `net_layers` calls the five-argument form.
    pub fn new(id: PeerId, learner: AnyLearner, rng: StdRng, _: usize, _: u64) -> Self {
        Self {
            id,
            learner,
            rng,
            total_rate: 0.0,
            epochs_online: 0,
            satisfied_epochs: 0,
            last_helper: None,
            switches: 0,
        }
    }

    /// Stable id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Immutable learner access.
    pub fn learner(&self) -> &AnyLearner {
        &self.learner
    }

    /// Samples this epoch's helper choice from the learner.
    pub fn choose_helper(&mut self) -> usize {
        let choice = self.learner.select_action(&mut self.rng);
        let stored = choice as u32;
        if let Some(prev) = self.last_helper {
            if prev != stored {
                self.switches += 1;
            }
        }
        self.last_helper = Some(stored);
        choice
    }

    /// Delivers this epoch's realized rate to the learner and updates the
    /// peer's accounting. `satisfied` means the rate met the demand (or
    /// there was no demand).
    pub fn deliver(&mut self, rate: f64, satisfied: bool) {
        self.learner.observe(rate);
        self.total_rate += rate;
        self.epochs_online += 1;
        if satisfied {
            self.satisfied_epochs += 1;
        }
    }

    /// Lifetime mean received rate (kbps).
    pub fn mean_rate(&self) -> f64 {
        if self.epochs_online == 0 {
            0.0
        } else {
            self.total_rate / self.epochs_online as f64
        }
    }

    /// Fraction of online epochs where the demand was fully met — the
    /// streaming continuity index.
    pub fn continuity(&self) -> f64 {
        if self.epochs_online == 0 {
            1.0
        } else {
            self.satisfied_epochs as f64 / self.epochs_online as f64
        }
    }

    /// Number of helper switches — the QoE interruption proxy.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Largest internal regret estimate of the peer's learner.
    pub fn max_regret(&self) -> f64 {
        self.learner.max_regret()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LearnerSpec;
    use rand::SeedableRng;

    fn peer(seed: u64) -> Peer {
        let learner = LearnerSpec::default().instantiate(3, 800.0).unwrap();
        Peer::new(PeerId(7), learner, StdRng::seed_from_u64(seed), 0, 5)
    }

    #[test]
    fn new_peer_accounting_is_zeroed() {
        let p = peer(1);
        assert_eq!(p.id(), PeerId(7));
        assert_eq!(p.mean_rate(), 0.0);
        assert_eq!(p.continuity(), 1.0);
        assert_eq!(p.switches(), 0);
    }

    #[test]
    fn choose_then_deliver_updates_stats() {
        let mut p = peer(2);
        let h = p.choose_helper();
        assert!(h < 3);
        p.deliver(400.0, true);
        assert_eq!(p.mean_rate(), 400.0);
        assert_eq!(p.continuity(), 1.0);
        assert_eq!(p.epochs_online, 1);
    }

    #[test]
    fn switches_are_counted() {
        let mut p = peer(3);
        let mut last = p.choose_helper();
        p.deliver(100.0, true);
        let mut expected = 0;
        for _ in 0..50 {
            let h = p.choose_helper();
            p.deliver(100.0, true);
            if h != last {
                expected += 1;
            }
            last = h;
        }
        assert_eq!(p.switches(), expected);
    }

    #[test]
    fn continuity_reflects_unsatisfied_epochs() {
        let mut p = peer(4);
        for i in 0..4 {
            let _ = p.choose_helper();
            p.deliver(100.0, i % 2 == 0);
        }
        assert_eq!(p.continuity(), 0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PeerId(3).to_string(), "peer-3");
    }
}
