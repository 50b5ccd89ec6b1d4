//! The five named workloads: what runs, how big, and why.
//!
//! Every workload is closed-loop and fixed-work: one process generates the
//! load, an epoch starts when the previous one has finished, and a run is a
//! fixed number of epochs at a fixed population, so its trajectory — and
//! therefore its digest and outcome statistics — is a function of the seed
//! alone. The sizes are those of ISSUE 12, chosen so the timed region of a
//! full-size run is about five seconds on the two-core reference host.

use rths_net::NetConfig;
use rths_sim::{
    AllocationPolicy, BandwidthSpec, ImpairmentPlan, MultiChannelConfig, SimConfig,
};
use rths_stoch::process::ChurnProcess;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `ReactorRuntime`, 19,936 peers × 64 helpers, one thread.
    ReactorDense,
    /// `ReactorRuntime`, 99,992 peers × 8 helpers, one thread.
    ReactorWide,
    /// `run_multiproc(.., 2)` on `ReactorDense`'s configuration.
    Multiproc2Dense,
    /// `MultiChannelSystem`, 400,000 viewers / 1,000 helpers / 100
    /// channels, two threads, with viewer migrations between blocks.
    SimMultichannel,
    /// `System`, 8,000 peers × 32 helpers under churn and link
    /// impairments, one thread.
    SimChurnImpaired,
}

/// Epochs the multichannel workload runs between two viewer migrations.
pub const MIGRATE_BLOCK: u64 = 8;
/// Fewest timed epochs any run has, however little time is asked for: the
/// leading epochs the output check compares (`check_prefix`) must exist.
const MIN_TIMED_EPOCHS: u64 = 8;
/// Viewers moved off channel 0 at each migration.
pub const MIGRATE_VIEWERS: usize = 4000;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ReactorDense,
        Workload::ReactorWide,
        Workload::Multiproc2Dense,
        Workload::SimMultichannel,
        Workload::SimChurnImpaired,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReactorDense => "reactor_dense",
            Workload::ReactorWide => "reactor_wide",
            Workload::Multiproc2Dense => "multiproc2_dense",
            Workload::SimMultichannel => "sim_multichannel",
            Workload::SimChurnImpaired => "sim_churn_impaired",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layer it stresses and the one it
    /// bypasses (one line; `BENCHMARK.json` carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReactorDense => {
                "m=64 T-matrices (32 KB/peer, DRAM-resident): learner kernel and memory do most of the work; mailbox and wheel do little"
            }
            Workload::ReactorWide => {
                "m=8 makes the learner cheap, so mailbox sort/deliver/drain, the timer wheel and net::machines do most of the work; kernel work is bypassed"
            }
            Workload::Multiproc2Dense => {
                "reactor_dense's actors and seed across 2 processes: adds bridge, wire codec, Unix sockets and fence wait; must match reactor_dense bit for bit"
            }
            Workload::SimMultichannel => {
                "the paper's multi-channel setting on the SoA PeerStore with rths_par sharding at 2 threads, with set_channel/ledger writes; no mailbox, no wire"
            }
            Workload::SimChurnImpaired => {
                "the single-channel engine under churn (spawn/remove_slots compaction) and the link-impairment stack; rths_par is bypassed"
            }
        }
    }

    /// The top layer (crate.module) the workload enters — the `engine.*`
    /// per-layer metrics describe this layer on this workload.
    pub fn engine(self) -> &'static str {
        match self {
            Workload::ReactorDense | Workload::ReactorWide => "net.reactor_backend",
            Workload::Multiproc2Dense => "net.multiproc",
            Workload::SimMultichannel => "sim.multichannel",
            Workload::SimChurnImpaired => "sim.system",
        }
    }

    /// Initial population (peers or viewers).
    pub fn population(self) -> usize {
        match self {
            Workload::ReactorDense | Workload::Multiproc2Dense => 19_936,
            Workload::ReactorWide => 99_992,
            Workload::SimMultichannel => 400_000,
            Workload::SimChurnImpaired => 8_000,
        }
    }

    /// Helpers.
    pub fn helpers(self) -> usize {
        match self {
            Workload::ReactorDense | Workload::Multiproc2Dense => 64,
            Workload::ReactorWide => 8,
            Workload::SimMultichannel => 1_000,
            Workload::SimChurnImpaired => 32,
        }
    }

    /// `rths_par` threads (and, for multiproc, processes): never more than
    /// the two cores of the reference host.
    pub fn threads(self) -> usize {
        match self {
            Workload::SimMultichannel | Workload::Multiproc2Dense => 2,
            _ => 1,
        }
    }

    /// Warm-up epochs run before the timed region (first-touch page
    /// faults and ring sizing happen here, and are reported in `setup_s`).
    pub fn warmup_epochs(self) -> u64 {
        match self {
            Workload::ReactorDense | Workload::ReactorWide | Workload::Multiproc2Dense => 4,
            Workload::SimMultichannel => 2,
            Workload::SimChurnImpaired => 5,
        }
    }

    /// Timed epochs of a full-size run (≈ 5 s on the reference host).
    pub fn full_epochs(self) -> u64 {
        match self {
            Workload::ReactorDense | Workload::Multiproc2Dense => 80,
            Workload::ReactorWide => 100,
            Workload::SimMultichannel => 48,
            Workload::SimChurnImpaired => 200,
        }
    }

    /// Timed epochs for a timed region of about `seconds` seconds: the
    /// full size scaled linearly from its five seconds, never fewer than
    /// [`MIN_TIMED_EPOCHS`], and a whole number of migration blocks (at
    /// least one) for the multichannel workload.
    pub fn timed_epochs(self, seconds: f64) -> u64 {
        let scaled = (self.full_epochs() as f64 * seconds / FULL_SECONDS).round() as u64;
        match self {
            Workload::SimMultichannel => (scaled / MIGRATE_BLOCK).max(1) * MIGRATE_BLOCK,
            _ => scaled.max(MIN_TIMED_EPOCHS),
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, that is, whether the
    /// driver gates later changes on it. `multiproc2_dense` stays a
    /// workload of `run`, `compare` and `cell`, but not of the driver's
    /// grid: two lockstep processes on the host's two shared cores spread
    /// 15–21 % over ten cells in its loud phases against a largest
    /// admissible bound of 25 %, its set-up is a 30–90 ms spawn whose
    /// median moves by more than that between two sets, and the reference
    /// kernel cannot be interleaved with a run that is one call.
    pub fn driven(self) -> bool {
        self != Workload::Multiproc2Dense
    }

    /// Nanoseconds a block of the harness's reference kernel (`refkernel`)
    /// takes when run in bursts beside this workload on the reference host
    /// at its median speed — the median over 40 runs of each workload,
    /// interleaved, in sizing. It differs by workload because the workload
    /// decides how much of the kernel's arena survives in the shared cache
    /// between bursts. A constant of the yardstick: it only fixes what "at
    /// reference speed" means, and changing it rescales a workload's
    /// timings alike on every commit.
    pub fn reference_block_ns(self) -> f64 {
        match self {
            Workload::ReactorDense => 430.0,
            Workload::ReactorWide => 455.0,
            Workload::Multiproc2Dense => 250.0,
            Workload::SimMultichannel => 275.0,
            Workload::SimChurnImpaired => 395.0,
        }
    }

    /// Whether the workload's timed region slows down and speeds up with
    /// the reference kernel, so that dividing the kernel's slowdown out
    /// steadies it. The four whose epochs the bursts interleave do: over
    /// 40 interleaved runs each, timed seconds against kernel seconds per
    /// block correlated 0.94 (`sim_churn_impaired`), 0.86 (`reactor_wide`),
    /// 0.60 (`sim_multichannel`) and 0.35 (`reactor_dense`, which streams
    /// 640 MB from DRAM and in a calm hour wanders little: 0.75 over 100
    /// runs an hour later), and the division cut the run-to-run deviation
    /// from 9.3 to 3.4, 4.1 to 2.2, 3.6 to 3.2 and (the later series) 5.7
    /// to 4.3 per cent. `run_multiproc` runs as one piece, so its bursts
    /// only surround it and say little about it (0.15; dividing would add
    /// noise).
    pub fn follows_reference(self) -> bool {
        self != Workload::Multiproc2Dense
    }

    /// Leading epochs compared against the reference engine by the output
    /// check (see `checks`): 0 when the workload has no reference.
    pub fn check_prefix(self) -> u64 {
        match self {
            Workload::ReactorDense | Workload::SimChurnImpaired => 0,
            Workload::ReactorWide | Workload::Multiproc2Dense => 8,
            Workload::SimMultichannel => 4,
        }
    }
}

/// Timed seconds a full-size run is sized for.
pub const FULL_SECONDS: f64 = 5.0;

/// The churn-free single-channel configuration of the three net
/// workloads (and of their `System` reference).
pub fn sim_config(workload: Workload, seed: u64) -> SimConfig {
    SimConfig::builder(
        workload.population(),
        vec![BandwidthSpec::Paper { stay: 0.98 }; workload.helpers()],
    )
    .seed(seed)
    .build()
}

/// The net configuration of the reactor and multiproc workloads. The
/// `O(m²)` learner-estimate scan is a metrics feature, not protocol work,
/// so it is off — as in every throughput baseline of the repository.
pub fn net_config(workload: Workload, seed: u64) -> NetConfig {
    NetConfig::from_sim(sim_config(workload, seed)).with_track_estimate(false)
}

/// The multichannel configuration: 100 channels at 400 kbps, one channel
/// per helper, Zipf(1.2) popularity, water-filling allocation.
pub fn multichannel_config(seed: u64) -> MultiChannelConfig {
    let w = Workload::SimMultichannel;
    MultiChannelConfig::standard(
        100,
        400.0,
        w.helpers(),
        1,
        w.population(),
        1.2,
        AllocationPolicy::WaterFilling,
        seed,
    )
}

/// The rate-affecting half of `scenarios/bursty_loss_stress.toml`:
/// Gilbert-Elliott loss, a token bucket and a Markov link bandwidth
/// (jitter and latency only perturb timing, which the simulator ignores).
pub fn impairment_plan() -> ImpairmentPlan {
    ImpairmentPlan::builder(99)
        .gilbert_loss(0.04, 0.3, 0.8, 0.01)
        .token_bucket(500.0, 1000.0)
        .link_bandwidth(vec![300.0, 600.0, 900.0], 0.92)
        .build()
        .expect("the scenario zoo's plan is valid")
}

/// The churning, impaired single-channel configuration: Poisson(80)
/// arrivals and 1 % departures per epoch hold the population near 8,000.
pub fn churn_config(seed: u64) -> SimConfig {
    let w = Workload::SimChurnImpaired;
    SimConfig::builder(w.population(), vec![BandwidthSpec::Paper { stay: 0.98 }; w.helpers()])
        .seed(seed)
        .churn(ChurnProcess::new(80.0, 0.01))
        .impairment(impairment_plan())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_plain() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(crate::metrics::is_plain_name(w.name()), "{}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert!(w.threads() <= 2);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn timed_epochs_scale_with_the_time_asked_for() {
        assert_eq!(Workload::ReactorDense.timed_epochs(5.0), 80);
        assert_eq!(Workload::ReactorWide.timed_epochs(2.5), 50);
        assert_eq!(Workload::SimChurnImpaired.timed_epochs(10.0), 400);
        // Whole migration blocks, never none.
        assert_eq!(Workload::SimMultichannel.timed_epochs(5.0), 48);
        assert_eq!(Workload::SimMultichannel.timed_epochs(3.0), 24);
        assert_eq!(Workload::SimMultichannel.timed_epochs(0.1), 8);
        assert_eq!(Workload::ReactorDense.timed_epochs(0.01), 8);
        // The reference prefix always fits inside the smallest run.
        for w in Workload::ALL {
            assert!(w.check_prefix() <= w.warmup_epochs() + w.timed_epochs(0.0));
        }
    }

    #[test]
    fn multiproc_shares_the_dense_configuration() {
        let a = sim_config(Workload::ReactorDense, 3);
        let b = sim_config(Workload::Multiproc2Dense, 3);
        assert_eq!(
            (a.num_peers, a.helpers.len(), a.seed),
            (b.num_peers, b.helpers.len(), b.seed)
        );
        assert!(impairment_plan().affects_rates());
    }
}
