//! Helper nodes.

use rand::rngs::StdRng;
use rths_stoch::bandwidth::BandwidthProcess;

/// Derivation offset for per-helper RNG streams (see
/// [`rths_stoch::rng::entity_rng`]); keeps helper randomness disjoint
/// from peer streams so the message-passing runtimes (`rths-net`)
/// reproduce the simulator bit-for-bit.
pub const HELPER_STREAM_BASE: u64 = 0x8000_0000_0000_0000;

/// Stable identifier of a helper within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HelperId(pub u32);

impl std::fmt::Display for HelperId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "helper-{}", self.0)
    }
}

/// A helper node: a peer with surplus upload bandwidth acting as a
/// micro-server. Its capacity follows a [`BandwidthProcess`]; each epoch
/// the capacity is split evenly across connected peers (§III.A). Owns a
/// private RNG stream so that helper dynamics are independent of peer
/// population changes.
pub struct Helper {
    id: HelperId,
    process: Box<dyn BandwidthProcess>,
    rng: StdRng,
    capacity: f64,
    online: bool,
}

impl std::fmt::Debug for Helper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helper")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("online", &self.online)
            .finish()
    }
}

impl Helper {
    /// Creates a helper driven by `process` with its own RNG stream.
    pub fn new(id: HelperId, process: Box<dyn BandwidthProcess>, rng: StdRng) -> Self {
        let capacity = process.level();
        Self { id, process, rng, capacity, online: true }
    }

    /// Convenience: derives the helper's RNG stream from the simulation
    /// seed and helper index.
    pub fn with_seed(id: HelperId, process: Box<dyn BandwidthProcess>, sim_seed: u64) -> Self {
        let rng = rths_stoch::rng::entity_rng(sim_seed, HELPER_STREAM_BASE + id.0 as u64);
        Self::new(id, process, rng)
    }

    /// Stable id.
    pub fn id(&self) -> HelperId {
        self.id
    }

    /// Current upload capacity (kbps); 0 while offline.
    pub fn capacity(&self) -> f64 {
        if self.online {
            self.capacity
        } else {
            0.0
        }
    }

    /// Smallest capacity the underlying process can produce (used for the
    /// minimum-bandwidth-deficit bound of Fig. 5).
    pub fn min_capacity(&self) -> f64 {
        self.process.min_level()
    }

    /// Takes the helper offline (failure injection); capacity reads 0.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Advances the bandwidth process one epoch and refreshes the cached
    /// capacity.
    pub fn step(&mut self) {
        self.process.step(&mut self.rng);
        self.capacity = self.process.level();
    }

    /// Per-peer rate when `load` peers are connected (even split, 0 for an
    /// empty helper or while offline).
    pub fn share(&self, load: usize) -> f64 {
        if load == 0 || !self.online {
            0.0
        } else {
            self.capacity() / load as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_stoch::bandwidth::ConstantBandwidth;
    use rths_stoch::rng::seeded_rng;

    fn helper(cap: f64) -> Helper {
        Helper::with_seed(HelperId(1), Box::new(ConstantBandwidth::new(cap)), 0)
    }

    #[test]
    fn share_divides_capacity() {
        let h = helper(800.0);
        assert_eq!(h.share(0), 0.0);
        assert_eq!(h.share(1), 800.0);
        assert_eq!(h.share(4), 200.0);
    }

    #[test]
    fn offline_helper_serves_nothing() {
        let mut h = helper(800.0);
        h.set_online(false);
        assert_eq!(h.capacity(), 0.0);
        assert_eq!(h.share(3), 0.0);
        h.set_online(true);
        assert_eq!(h.capacity(), 800.0);
    }

    #[test]
    fn step_tracks_process() {
        let mut rng = seeded_rng(1);
        let mut h = Helper::with_seed(
            HelperId(0),
            Box::new(rths_stoch::bandwidth::MarkovBandwidth::paper_with_stay(&mut rng, 0.98)),
            7,
        );
        for _ in 0..100 {
            h.step();
            assert!([700.0, 800.0, 900.0].contains(&h.capacity()));
        }
        assert_eq!(h.min_capacity(), 700.0);
    }

    #[test]
    fn display_and_debug() {
        let h = helper(100.0);
        assert_eq!(h.id().to_string(), "helper-1");
        assert!(format!("{h:?}").contains("capacity"));
    }
}
