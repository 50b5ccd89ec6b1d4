//! Helper nodes.

use rand::rngs::StdRng;
use rths_stoch::bandwidth::BandwidthProcess;

use crate::config::BandwidthSpec;
use crate::multichannel::AllocationPolicy;

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
/// [`allocate`] splits the capacity over the channels it serves by the
/// run's [`AllocationPolicy`], then evenly over each channel's viewers
/// (§III.A). Owns a private RNG stream so that helper dynamics are
/// independent of peer population changes.
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
}

/// The allocate phase of one helper, as every engine runs it: `cap` is
/// split over the channels it `serves` by `policy` (`loads[c]` viewers on
/// channel `c`, each demanding `demands[c]`, `None` = uncapped), each
/// budget evenly over its viewers. `emit(c, budget, share)` gets each
/// served channel in order, the share `0` where nobody chose it.
pub fn allocate(
    policy: AllocationPolicy,
    cap: f64,
    serves: &[usize],
    loads: &[usize],
    demands: &[Option<f64>],
    mut emit: impl FnMut(usize, f64, f64),
) {
    let even = cap / serves.len() as f64;
    let demand = |c: usize| demands[c].unwrap_or(f64::INFINITY);
    let viewers: usize = serves.iter().map(|&c| loads[c]).sum();
    let wanted: f64 = match policy {
        AllocationPolicy::WaterFilling => {
            serves.iter().map(|&c| loads[c] as f64 * demand(c)).sum()
        }
        _ => 0.0,
    };
    for &c in serves {
        let n = loads[c];
        let budget = match policy {
            AllocationPolicy::EvenSplit => even,
            AllocationPolicy::LoadProportional if viewers == 0 => even,
            AllocationPolicy::LoadProportional => cap * n as f64 / viewers as f64,
            AllocationPolicy::WaterFilling if wanted <= 0.0 => even,
            AllocationPolicy::WaterFilling => n as f64 * demand(c) * (cap / wanted).min(1.0),
        };
        emit(c, budget, if n == 0 { 0.0 } else { budget / n as f64 });
    }
}

/// The helper set of a run seeded `seed`, as every engine builds it:
/// helper `j` runs `specs[j]`, its initial state drawn from the run's
/// master stream in helper order, and steps on its own stream.
pub fn instantiate(specs: &[BandwidthSpec], seed: u64, master: &mut StdRng) -> Vec<Helper> {
    specs
        .iter()
        .enumerate()
        .map(|(j, spec)| Helper::with_seed(HelperId(j as u32), spec.instantiate(master), seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_stoch::bandwidth::ConstantBandwidth;
    use rths_stoch::rng::seeded_rng;

    fn helper(cap: f64) -> Helper {
        Helper::with_seed(HelperId(1), Box::new(ConstantBandwidth::new(cap)), 0)
    }

    /// The per-viewer share of helper `h` when `load` viewers chose its
    /// one channel, under the even split `System::new` configures.
    fn even_share(h: &Helper, load: usize) -> f64 {
        let mut got = Vec::new();
        let policy = AllocationPolicy::EvenSplit;
        allocate(policy, h.capacity(), &[0], &[load], &[None], |c, b, s| got.push((c, b, s)));
        let [(0, budget, share)] = got[..] else { panic!("one channel, got {got:?}") };
        assert_eq!(budget, h.capacity(), "one channel gets the whole capacity");
        share
    }

    #[test]
    fn share_divides_capacity() {
        let h = helper(800.0);
        assert_eq!(even_share(&h, 0), 0.0);
        assert_eq!(even_share(&h, 1), 800.0);
        assert_eq!(even_share(&h, 4), 200.0);
    }

    #[test]
    fn offline_helper_serves_nothing() {
        let mut h = helper(800.0);
        h.set_online(false);
        assert_eq!(h.capacity(), 0.0);
        assert_eq!(even_share(&h, 3).to_bits(), 0.0f64.to_bits());
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
