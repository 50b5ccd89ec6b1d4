//! The simulation engine: one epoch pipeline over K channels.
//!
//! The paper's system is multi-channel — helpers balance their upload
//! bandwidth across channel overlays while every viewer picks a helper of
//! *its* channel — and a lone channel is the K = 1 special case. So there
//! is one run configuration, [`SimConfig`], over K channels, and one
//! engine, [`System`], with two constructors: [`System::new`] and
//! [`MultiChannelSystem::new`](crate::MultiChannelSystem::new), which adds
//! a per-channel outcome view and leaves the diagnostics only
//! [`Outcome`] reports off. Both hand the config to the one instantiation
//! path (`System::assemble`) and step the one [`System::step_epoch`].
//!
//! The epoch's metric half — join rates, welfare, the server's
//! settlement, fairness, switches, helper loads — is [`EpochMetrics`],
//! which the decentralized runtime's coordinator records through too.
//!
//! # The epoch's phases
//!
//! [`System::step_epoch`] is the list of its phases, each a method over
//! the columns the previous one left. The reactor backend (`rths_net`)
//! runs the same code for the phases it has, split over its actors:
//!
//! | phase | `System` | reactor peer shard | reactor helper actor | reactor coordinator |
//! |---|---|---|---|---|
//! | helper dynamics | [`Helper::step`], every helper | — | `Helper::step` | — |
//! | churn | churn draw, [`PeerStore::remove_slots`], [`PeerStore::join`] | — | — | — (fixed population) |
//! | choose | [`PeerStore::choose_phase`], routed into per-(helper, channel) loads | `choose_phase`, routed as one `Request` per peer | counts the requests | — |
//! | allocate | [`helper::allocate`] per helper, then [`EpochMetrics::allocation`] | — | `helper::allocate` on its one channel | `EpochMetrics::allocation` at the last helper report; join rates to each shard |
//! | shape | [`PeerStore::shape_phase`] | [`PeerStore::is_lost`] at `Request`, `shape_phase` once every rate and the join rates are in | — | — |
//! | observe | [`PeerStore::observe_phase`] | `observe_phase`, against the join rates; its worst regret reported | — | — |
//! | settle | [`EpochMetrics::settle`] | — | — | `EpochMetrics::settle` |
//! | record | [`EpochMetrics::record`] | [`PeerStore::new_switches`], reported | — | `EpochMetrics::record` |
//!
//! The engine records only its metrics. A caller that wants more of an
//! epoch — the joint play the correlated-equilibrium checks judge, a
//! peer's rate trace for a playback model — reads it after
//! [`System::step_epoch`] from two views of the epoch just stepped:
//! [`System::profile`] and [`System::delivered`].
//!
//! Peers live in the sharded structure-of-arrays [`PeerStore`]; the
//! per-peer choose/observe phases run shard-parallel with index-ordered
//! reductions, so results are bit-for-bit identical at any shard count
//! and any `RTHS_THREADS` (see the store docs for the contract).

use rand::rngs::StdRng;
use rths_obs::{self as obs, Phase};
use rths_stoch::rng::seeded_rng;

use crate::config::SimConfig;
use crate::epoch_metrics::{cap_to_demand, EpochMetrics};
use crate::helper::{self, Helper};
use crate::metrics::SimMetrics;
use crate::multichannel::AllocationPolicy;
use crate::store::{self, PeerStore, ShardScratch};

/// Result of (so far) running a [`System`]: its metrics. A per-epoch
/// record of play or of rates is its caller's to keep (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Total epochs executed.
    pub epochs: u64,
    /// All recorded metrics.
    pub metrics: SimMetrics,
    /// Peers online at the end.
    pub final_population: usize,
}

/// Reusable per-epoch buffers, hoisted out of [`System::step_epoch`] so
/// steady-state epochs allocate nothing: each buffer is cleared and
/// refilled in place every epoch (capacity is retained across epochs).
/// They are the columns one phase hands the next. Tables over (helper,
/// channel) are flattened row-major (`index = helper * num_channels +
/// channel`).
#[derive(Debug, Default)]
struct EpochScratch {
    /// Chosen action per peer: an index into its channel's helper list
    /// (u32 — helper sets stay far below 2³²).
    profile: Vec<u32>,
    /// Global helper index per peer.
    globals: Vec<u32>,
    /// Viewers of channel `c` connected to helper `j`, flattened (merged
    /// from the per-shard histograms in shard order).
    loads: Vec<usize>,
    /// Bandwidth helper `j` assigns to channel `c`, flattened.
    bandwidth: Vec<f64>,
    /// Realized per-connection share on (helper `j`, channel `c`),
    /// flattened.
    shares: Vec<f64>,
    /// Delivered rate per peer.
    delivered: Vec<f64>,
    /// Per-shard thread-affine scratch.
    shards: Vec<ShardScratch>,
    /// Churn: mirror of the historical swap-remove draw sequence.
    alive: Vec<u32>,
    /// Churn: slots departing this epoch.
    removing: Vec<u32>,
    /// Impairment-shaped delivered rate per peer (loss + link cap +
    /// token bucket, before the demand cap). Only filled when the
    /// impairment plan affects rates.
    shaped: Vec<f64>,
}

/// The helper-assisted streaming system over the K channels its
/// [`SimConfig`] describes. See the [module docs](self).
pub struct System {
    /// The run's configuration, less its impairment plan, which the peer
    /// store holds.
    config: SimConfig,
    /// Record what only [`Outcome`] reports: the learners' internal
    /// regret estimate — `m` more scalars and an `O(m)` read per peer per
    /// epoch that the per-channel
    /// [`MultiChannelOutcome`](crate::MultiChannelOutcome) view never
    /// shows. On for [`System::new`], off for
    /// [`MultiChannelSystem::new`](crate::MultiChannelSystem::new).
    diagnostics: bool,
    helpers: Vec<Helper>,
    peers: PeerStore,
    /// The metric half of every epoch, and the channel → helpers layout
    /// (a viewer's learner action indexes its channel's list).
    metrics: EpochMetrics,
    epoch: u64,
    master_rng: StdRng,
    scratch: EpochScratch,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("epoch", &self.epoch)
            .field("channels", &self.num_channels())
            .field("peers", &self.peers.len())
            .field("helpers", &self.helpers.len())
            .finish()
    }
}

impl System {
    /// Builds the system `config` describes, with the diagnostics that
    /// only [`Outcome`] reports on. Everything is seeded deterministically
    /// from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the layout is inconsistent (no channel, a helper without
    /// a channel set, serving none, an unknown one or one twice, a
    /// channel with viewers but no helper), if an uncapped run meets
    /// [`AllocationPolicy::WaterFilling`], which splits by demand, or if
    /// the learner spec is invalid.
    pub fn new(config: SimConfig) -> Self {
        Self::assemble(config, true)
    }

    /// The one instantiation path, for both constructors: the checks
    /// [`System::new`] lists, then helper bandwidth processes (drawing
    /// their initial states from the master stream in helper order), the
    /// channel → helpers map, the peer store with one learner action set
    /// per channel, and the initial population channel by channel.
    pub(crate) fn assemble(mut config: SimConfig, diagnostics: bool) -> Self {
        let k = config.viewers.len();
        assert!(k > 0, "need at least one channel");
        assert_eq!(config.num_peers, config.num_peers(), "num_peers must sum the viewers");
        assert_eq!(
            config.helpers.len(),
            config.helper_channels.len(),
            "one channel set per helper"
        );
        let mut channel_helpers = vec![Vec::new(); k];
        for (j, served) in config.helper_channels.iter().enumerate() {
            assert!(!served.is_empty(), "helper {j} serves no channels");
            assert!(served.iter().all(|&c| c < k), "helper {j} serves an unknown channel");
            for &c in served {
                // Helpers are pushed in order, so a repeat is the last entry.
                assert!(channel_helpers[c].last() != Some(&j), "helper {j} serves {c} twice");
                channel_helpers[c].push(j);
            }
        }
        for (c, &v) in config.viewers.iter().enumerate() {
            assert!(
                v == 0 || !channel_helpers[c].is_empty(),
                "channel {c} has viewers but no helper"
            );
        }
        assert!(
            config.allocation != AllocationPolicy::WaterFilling || config.demand.is_some(),
            "water-filling needs a per-viewer demand"
        );
        let mut master_rng = seeded_rng(config.seed);
        let helpers = helper::instantiate(&config.helpers, config.seed, &mut master_rng);
        let actions_per_channel: Vec<usize> = channel_helpers.iter().map(Vec::len).collect();
        let mut peers = PeerStore::new(
            config.seed,
            config.learner.clone(),
            config.rate_scale(),
            &actions_per_channel,
        )
        .with_impairment(std::mem::take(&mut config.impairment));
        peers.reserve(config.num_peers());
        for (c, &count) in config.viewers.iter().enumerate() {
            for _ in 0..count {
                peers.join(c);
            }
        }
        Self {
            metrics: EpochMetrics::new(
                helpers.len(),
                helpers.iter().map(Helper::min_capacity).sum(),
                vec![config.demand; k],
                channel_helpers,
            ),
            config,
            diagnostics,
            helpers,
            peers,
            epoch: 0,
            master_rng,
            scratch: EpochScratch::default(),
        }
    }

    /// Current epoch count.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Online peers.
    pub(crate) fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// Number of channels (the K of the run's [`SimConfig`]).
    pub(crate) fn num_channels(&self) -> usize {
        self.metrics.channel_helpers().len()
    }

    /// The sharded SoA peer store (stable ids, per-peer accounting).
    pub fn peers(&self) -> &PeerStore {
        &self.peers
    }

    /// Every peer's action in the epoch [`step_epoch`](Self::step_epoch)
    /// last stepped, in that epoch's slot order: an index into its
    /// channel's helper list. Empty before the first epoch.
    pub fn profile(&self) -> &[u32] {
        &self.scratch.profile
    }

    /// Every peer's delivered rate in the epoch
    /// [`step_epoch`](Self::step_epoch) last stepped, in the slot order
    /// of [`profile`](Self::profile): its share of its helper, shaped by
    /// the link impairments and capped to its channel's demand — the rate
    /// its learner observed. Empty before the first epoch.
    pub fn delivered(&self) -> &[f64] {
        &self.scratch.delivered
    }

    /// The per-epoch series recorded so far (the summary fields are
    /// filled in by [`outcome`](Self::outcome) only).
    pub(crate) fn metrics(&self) -> &SimMetrics {
        self.metrics.series()
    }

    /// Delivered rate per channel, summed over all epochs so far.
    pub fn channel_rate_sums(&self) -> &[f64] {
        self.metrics.channel_rate_sums()
    }

    /// Pins the peer-store shard count (tests/benches); `None` restores
    /// the default derived from [`rths_par::threads`]. Results are
    /// bit-identical at any setting.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        self.peers.set_shards(shards);
    }

    /// Current helper capacities.
    pub fn capacities(&self) -> Vec<f64> {
        self.helpers.iter().map(Helper::capacity).collect()
    }

    /// Injects a helper failure (or recovery). Peers are not notified —
    /// they must *learn* the change, which is the point of the churn
    /// ablation.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_helper_online(&mut self, index: usize, online: bool) {
        self.helpers[index].set_online(online);
    }

    /// The configured baseline churn arrival rate (used by workload
    /// generators to scale surges).
    pub(crate) fn config_arrival_rate(&self) -> f64 {
        self.config.churn.arrival_rate()
    }

    /// Adds `Poisson(lambda)` extra peers immediately (flash-crowd /
    /// diurnal workload injection, on top of the configured churn).
    /// Arrivals — these and the churn process's — join channel 0.
    pub fn inject_arrivals(&mut self, lambda: f64) {
        let extra = rths_stoch::process::sample_poisson(&mut self.master_rng, lambda);
        for _ in 0..extra {
            self.peers.join(0);
        }
    }

    /// Removes the peer with stable id `id` immediately (scripted
    /// departures for workloads and the departure-stability test).
    /// Returns whether the peer was online. Survivors keep their slots'
    /// relative order and their entire state — the departure can never
    /// re-alias another peer's RNG stream, learner row, or rate column.
    pub fn depart_peer(&mut self, id: u64) -> bool {
        match self.peers.slot_of(id) {
            Some(slot) => {
                self.scratch.removing.clear();
                self.scratch.removing.push(slot as u32);
                self.peers.remove_slots(&mut self.scratch.removing);
                true
            }
            None => false,
        }
    }

    /// Moves `count` viewers from one channel to another (popularity
    /// shift), lowest slots first. Viewers keep their identity but
    /// restart their learners on the new channel's helper set.
    ///
    /// # Panics
    ///
    /// Panics if either channel id is unknown.
    pub fn migrate_viewers(&mut self, from: usize, to: usize, count: usize) {
        let k = self.num_channels();
        assert!(from < k && to < k, "unknown channel");
        let mut moved = 0;
        for slot in 0..self.peers.len() {
            if moved == count {
                break;
            }
            if self.peers.channel(slot) == from {
                self.peers.set_channel(slot, to);
                moved += 1;
            }
        }
    }

    /// Runs `epochs` additional epochs and returns the cumulative outcome.
    pub fn run(&mut self, epochs: u64) -> Outcome {
        for _ in 0..epochs {
            self.step_epoch();
        }
        self.outcome()
    }

    /// Executes exactly one epoch: the phases of the [module docs](self),
    /// each inside its `rths_obs` span. Spans only read the clock, so
    /// traced trajectories are bit-identical (pinned by `obs_neutrality`).
    pub fn step_epoch(&mut self) {
        let ep = self.epoch;
        if obs::enabled() {
            // Tag the epoch for the layers below the epoch protocol.
            obs::set_epoch(ep);
        }
        let t_epoch = obs::span_start();
        self.timed(Phase::HelperDynamics, Self::helper_dynamics);
        self.timed(Phase::Churn, Self::churn);
        self.timed(Phase::Choose, Self::choose);
        self.timed(Phase::RateAlloc, Self::allocate);
        let shaped = self.timed(Phase::Impairment, Self::shape);
        let worst = self.timed(Phase::Observe, |sys| sys.observe(shaped));
        self.timed(Phase::Settle, Self::settle);
        self.timed(Phase::Metrics, |sys| sys.record(worst));
        if let Some(t) = t_epoch {
            obs::span_end(Phase::Epoch, ep, t);
        }
        self.epoch += 1;
    }

    /// Runs one phase of the epoch inside its span.
    fn timed<R>(&mut self, phase: Phase, run: impl FnOnce(&mut Self) -> R) -> R {
        let t = obs::span_start();
        let out = run(self);
        if let Some(t) = t {
            obs::span_end(phase, self.epoch, t);
        }
        out
    }

    /// Helper bandwidth dynamics, each helper on its own RNG stream.
    fn helper_dynamics(&mut self) {
        for helper in &mut self.helpers {
            helper.step();
        }
    }

    /// Churn. Departure slots are drawn with the historical swap-remove
    /// sequence against a mirror vector (so the master RNG stream is
    /// unchanged), then removed in one order-preserving compaction:
    /// survivors keep their slot order, identity and link state.
    fn churn(&mut self) {
        let events = self.config.churn.sample_epoch(&mut self.master_rng, self.peers.len());
        if events.departures > 0 {
            let EpochScratch { alive, removing, .. } = &mut self.scratch;
            alive.clear();
            alive.extend(0..self.peers.len() as u32);
            removing.clear();
            for _ in 0..events.departures.min(self.peers.len() as u64) {
                let idx = rand::Rng::gen_range(&mut self.master_rng, 0..alive.len());
                removing.push(alive.swap_remove(idx));
            }
            self.peers.remove_slots(removing);
        }
        for _ in 0..events.arrivals {
            self.peers.join(0);
        }
    }

    /// Decentralized helper selection (a local action index into the
    /// channel's helper list; each peer samples from its own RNG stream),
    /// shard-parallel, routed into per-(helper, channel) loads: each shard
    /// resolves the global helper index into `globals` and counts its own
    /// `loads[j*k + c]` histogram; the histograms merge in shard order.
    fn choose(&mut self) {
        let (n, h, k) = (self.peers.len(), self.helpers.len(), self.num_channels());
        let channel_helpers = self.metrics.channel_helpers();
        let EpochScratch { profile, globals, loads, shards, .. } = &mut self.scratch;
        // resize without clear: choose_phase writes every slot of both
        // columns, so no per-epoch memset is needed.
        profile.resize(n, 0);
        globals.resize(n, 0);
        self.peers.choose_phase(
            profile,
            globals,
            loads,
            h * k,
            shards,
            |_, local, c, global_slot, loads| {
                let global = channel_helpers[c as usize][local as usize];
                *global_slot = global as u32;
                loads[global * k + c as usize] += 1;
            },
        );
        if obs::enabled() {
            store::absorb_obs(shards);
        }
    }

    /// Every helper's [`helper::allocate`], then the helper loads, the
    /// total demand and the per-channel counterfactual join rates (one
    /// evaluation serves every viewer of a channel).
    fn allocate(&mut self) {
        let (h, k) = (self.helpers.len(), self.num_channels());
        let SimConfig { helper_channels, allocation, .. } = &self.config;
        let demands = self.metrics.demands();
        let EpochScratch { loads, bandwidth, shares, .. } = &mut self.scratch;
        bandwidth.clear();
        bandwidth.resize(h * k, 0.0);
        shares.clear();
        shares.resize(h * k, 0.0);
        for (j, serves) in helper_channels.iter().enumerate() {
            let (cap, row) = (self.helpers[j].capacity(), j * k);
            // An uncapped channel never meets water-filling (see
            // `assemble`); the other policies ignore demand.
            helper::allocate(
                *allocation,
                cap,
                serves,
                &loads[row..row + k],
                demands,
                |c, b, s| {
                    bandwidth[row + c] = b;
                    shares[row + c] = s;
                },
            );
        }
        self.metrics.allocation(loads, bandwidth);
    }

    /// Link impairments between the helpers' split and the demand cap:
    /// the store's shaping pass, which the reactor's peer shards run too.
    /// Returns whether the plan shaped anything.
    fn shape(&mut self) -> bool {
        let k = self.num_channels();
        let EpochScratch { globals, shares, shaped, .. } = &mut self.scratch;
        let shares = &*shares;
        self.peers
            .shape_phase(globals, self.epoch, shaped, |_, helper, c| shares[helper * k + c])
    }

    /// Delivery and bandit feedback (shard-parallel): each peer observes
    /// its shaped rate (its share, on clean links) capped to its
    /// channel's demand. Returns the epoch's worst `(regret estimate,
    /// empirical regret)`.
    fn observe(&mut self, shaped: bool) -> (f64, f64) {
        let (n, k) = (self.peers.len(), self.num_channels());
        let demand = self.config.demand;
        let EpochScratch {
            profile, globals, shares, delivered, shards, shaped: column, ..
        } = &mut self.scratch;
        delivered.resize(n, 0.0);
        let (join_offsets, join_rates) = self.metrics.join_rates();
        let (globals, shares, shaped) = (&*globals, &*shares, shaped.then_some(&column[..]));
        let worst = self.peers.observe_phase(
            profile,
            delivered,
            join_offsets,
            join_rates,
            shards,
            self.diagnostics,
            move |slot, _, c| {
                let c = c as usize;
                let rate = match shaped {
                    Some(s) => s[slot],
                    None => shares[globals[slot] as usize * k + c],
                };
                cap_to_demand(rate, demand)
            },
        );
        if obs::enabled() {
            store::absorb_obs(shards);
        }
        worst
    }

    /// Welfare, and the server settles residual demand.
    fn settle(&mut self) {
        let helper_now: f64 = self.helpers.iter().map(Helper::capacity).sum();
        let peers = &self.peers;
        self.metrics.settle(&self.scratch.delivered, |i| peers.channel(i), helper_now);
    }

    /// Records the epoch's regret maxima and switches.
    fn record(&mut self, (worst_est, worst_emp): (f64, f64)) {
        let estimate = self.diagnostics.then_some(worst_est);
        self.metrics.record(worst_emp, estimate, self.peers.new_switches());
    }

    /// Snapshot of cumulative results.
    pub fn outcome(&self) -> Outcome {
        let peers = &self.peers;
        Outcome {
            epochs: self.epoch,
            metrics: self
                .metrics
                .summary((0..peers.len()).map(|i| (peers.mean_rate(i), peers.continuity(i)))),
            final_population: self.peers.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthSpec, SimConfig};
    use crate::impairment::ImpairmentPlan;
    use crate::multichannel::MultiChannelSystem;
    use rths_stoch::process::ChurnProcess;

    fn small_config(seed: u64) -> SimConfig {
        SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 4]).seed(seed).build()
    }

    /// The capacity invariant of the epoch `sys` just stepped, read from
    /// its scratch: every peer is in the loads once, helper `j`'s choosers
    /// are the loads of its channels, and the rates they realized sum to
    /// at most its capacity `c` — `c·(1 + L·ε)` for `L` choosers, the
    /// rounding of `L` shares of a split of `c`.
    fn assert_within_helper_capacity(sys: &System, at: &str) {
        let k = sys.num_channels();
        let EpochScratch { globals, delivered, loads, .. } = &sys.scratch;
        assert_eq!(loads.iter().sum::<usize>(), sys.num_peers(), "{at}: loads");
        for (j, capacity) in sys.capacities().into_iter().enumerate() {
            let load: usize = loads[j * k..(j + 1) * k].iter().sum();
            let mut choosers = 0;
            let mut realized = 0.0;
            for (&helper, &rate) in globals.iter().zip(delivered) {
                if helper as usize == j {
                    choosers += 1;
                    realized += rate;
                }
            }
            assert_eq!(choosers, load, "{at}: helper {j}'s choosers");
            let slack = capacity * load as f64 * f64::EPSILON;
            assert!(
                realized <= capacity + slack,
                "{at}: helper {j} realized {realized} of {capacity}"
            );
        }
    }

    /// Every peer's strategy after the epoch `sys` just stepped is a
    /// distribution with the exploration floor: its `m` entries sum to 1
    /// within `m·ε`, and none is below `δ/m` (less the `1e-12` that the
    /// slab's observe, `SlabCols::observe_predecayed`, allows in its own check).
    fn assert_rows_are_distributions(sys: &System, delta: f64, at: &str) {
        let peers = sys.peers();
        for slot in 0..peers.len() {
            let learner = peers.learner(slot);
            let row = learner.probabilities();
            let m = row.len() as f64;
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() <= m * f64::EPSILON,
                "{at}: slot {slot}'s row sums to {sum}"
            );
            let floor = delta / m - 1e-12;
            assert!(row.iter().all(|&p| p >= floor), "{at}: slot {slot}'s row {row:?} < δ/m");
        }
    }

    /// K = 1 under churn, Gilbert–Elliott loss, a token bucket and a demand
    /// cap that binds on the lighter-loaded helpers.
    #[test]
    fn every_epoch_allocates_within_helper_capacity() {
        for threads in [1, 2] {
            rths_par::with_threads(threads, || {
                for seed in 0..8 {
                    let plan = ImpairmentPlan::builder(seed)
                        .gilbert_loss(0.1, 0.3, 0.8, 0.05)
                        .token_bucket(300.0, 700.0)
                        .build()
                        .expect("valid impairment plan");
                    let config =
                        SimConfig::builder(24, vec![BandwidthSpec::Paper { stay: 0.9 }; 3])
                            .demand(120.0)
                            .churn(ChurnProcess::new(1.0, 0.05))
                            .impairment(plan)
                            .seed(seed)
                            .build();
                    let delta = config.learner.delta;
                    let mut sys = System::new(config);
                    for epoch in 0..30 {
                        sys.step_epoch();
                        let at = format!("threads {threads}, seed {seed}, epoch {epoch}");
                        assert_within_helper_capacity(&sys, &at);
                        assert_rows_are_distributions(&sys, delta, &at);
                    }
                }
            });
        }
    }

    /// K = 3, each helper serving two channels, under every allocation
    /// policy, with departures, arrivals and channel migrations between
    /// epochs. Demand far exceeds capacity, so no demand cap hides a
    /// helper that hands out more than it has.
    #[test]
    fn every_epoch_allocates_within_helper_capacity_across_channels() {
        for threads in [1, 2] {
            rths_par::with_threads(threads, || {
                for policy in [
                    AllocationPolicy::EvenSplit,
                    AllocationPolicy::LoadProportional,
                    AllocationPolicy::WaterFilling,
                ] {
                    for seed in 0..8 {
                        let config = SimConfig::standard(3, 400.0, 4, 2, 36, 1.0, policy, seed);
                        let delta = config.learner.delta;
                        let mut sys = MultiChannelSystem::new(config).into_engine();
                        for epoch in 0..30 {
                            match epoch % 3 {
                                0 => {
                                    let id = sys.peers().ids()[epoch % sys.num_peers()];
                                    assert!(sys.depart_peer(id));
                                }
                                1 => sys.inject_arrivals(1.5),
                                _ => sys.migrate_viewers(epoch / 3 % 3, (epoch / 3 + 1) % 3, 2),
                            }
                            sys.step_epoch();
                            let at = format!(
                                "threads {threads}, {policy:?}, seed {seed}, epoch {epoch}"
                            );
                            assert_within_helper_capacity(&sys, &at);
                            assert_rows_are_distributions(&sys, delta, &at);
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn run_advances_epochs_and_metrics() {
        let mut sys = System::new(small_config(1));
        let out = sys.run(100);
        assert_eq!(out.epochs, 100);
        assert_eq!(out.metrics.epochs(), 100);
        assert_eq!(out.final_population, 10);
        assert_eq!(out.metrics.mean_peer_rates.len(), 10);
        assert_eq!(out.metrics.mean_helper_loads.len(), 4);
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let run = |seed| {
            let mut sys = System::new(small_config(seed));
            let out = sys.run(200);
            (out.metrics.welfare.values().to_vec(), out.metrics.mean_helper_loads.clone())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn welfare_conservation_uncapped() {
        // Delivered welfare equals the busy-capacity sum every epoch; in
        // particular it never exceeds total capacity (900·H bound).
        let mut sys = System::new(small_config(2));
        let out = sys.run(300);
        for &w in out.metrics.welfare.values() {
            assert!(w <= 4.0 * 900.0 + 1e-9, "welfare {w} above max capacity");
            assert!(w >= 0.0);
        }
    }

    #[test]
    fn loads_sum_to_population_every_epoch() {
        let mut sys = System::new(small_config(3));
        let out = sys.run(50);
        for e in 0..50 {
            let total: f64 = out.metrics.helper_loads.iter().map(|s| s.values()[e]).sum();
            assert_eq!(total, out.metrics.population.values()[e]);
        }
    }

    #[test]
    fn demand_capped_run_has_server_load_and_satisfies_bound() {
        // Demand 400 × 10 peers = 4000 > helper capacity (≤3600), so the
        // server must carry load ≥ the current deficit bound.
        let config = SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.98 }; 4])
            .demand(400.0)
            .seed(4)
            .build();
        let mut sys = System::new(config);
        let out = sys.run(200);
        for e in 0..200 {
            let load = out.metrics.server_load.values()[e];
            let bound = out.metrics.current_deficit.values()[e];
            assert!(load >= bound - 1e-6, "epoch {e}: load {load} below deficit bound {bound}");
        }
        assert!(out.metrics.server_load.tail_mean(200) > 0.0);
    }

    #[test]
    fn churn_changes_population() {
        let config = SimConfig::builder(20, vec![BandwidthSpec::Paper { stay: 0.98 }; 3])
            .churn(ChurnProcess::new(1.0, 0.05))
            .seed(5)
            .build();
        let mut sys = System::new(config);
        let out = sys.run(300);
        let pops = out.metrics.population.values();
        let min = pops.iter().copied().fold(f64::INFINITY, f64::min);
        let max = pops.iter().copied().fold(0.0f64, f64::max);
        assert!(max > min, "population never changed under churn");
    }

    #[test]
    fn churned_survivors_keep_insertion_order_and_ids() {
        let config = SimConfig::builder(30, vec![BandwidthSpec::Paper { stay: 0.98 }; 3])
            .churn(ChurnProcess::new(0.5, 0.03))
            .seed(11)
            .build();
        let mut sys = System::new(config);
        let _ = sys.run(200);
        let ids = sys.peers().ids();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "slot order drifted from id order: {ids:?}"
        );
    }

    #[test]
    fn depart_peer_removes_exactly_one() {
        let mut sys = System::new(small_config(12));
        let _ = sys.run(5);
        assert!(sys.depart_peer(3));
        assert!(!sys.depart_peer(3), "peer 3 should be gone");
        assert_eq!(sys.num_peers(), 9);
        assert_eq!(sys.peers().slot_of(4), Some(3));
        let out = sys.run(5);
        assert_eq!(out.final_population, 9);
    }

    #[test]
    fn helper_failure_redirects_peers() {
        // Uses the conditional-regret extension: the paper's literal
        // update leaves rarely-played rows with near-zero proxy regret,
        // which makes evacuation from a dead helper slow (see
        // RthsConfig::conditional docs). Both variants are compared in
        // the `ablation_churn` bench.
        let config = SimConfig::builder(12, vec![BandwidthSpec::Constant(800.0); 3])
            .learner(crate::config::LearnerSpec {
                conditional: true,
                ..crate::config::LearnerSpec::default()
            })
            .seed(6)
            .build();
        let mut sys = System::new(config);
        let _ = sys.run(1500);
        sys.set_helper_online(0, false);
        let out = sys.run(1500);
        // In the last epochs, the dead helper should carry little load
        // beyond the exploration floor (12 peers × δ/m ≈ 0.4).
        let last: Vec<f64> =
            out.metrics.helper_loads[0].values().iter().rev().take(200).copied().collect();
        let mean_load_dead = rths_math::stats::mean(&last);
        assert!(
            mean_load_dead < 2.0,
            "peers kept using the dead helper: mean load {mean_load_dead}"
        );
    }

    #[test]
    fn empirical_regret_decays() {
        let mut sys = System::new(small_config(8));
        let out = sys.run(3000);
        let series = out.metrics.worst_empirical_regret;
        let early = rths_math::stats::mean(&series.values()[20..120]);
        let late = series.tail_mean(300);
        assert!(late < early * 0.6, "no decay: early {early}, late {late}");
    }

    /// A helper that lists a channel twice would split its capacity over
    /// both entries and hand out half of it, and its viewers would learn
    /// over it as two helpers.
    #[test]
    #[should_panic(expected = "helper 0 serves 0 twice")]
    fn a_channel_served_twice_is_refused() {
        let mut config = small_config(1);
        config.helper_channels[0] = vec![0, 0];
        let _ = System::new(config);
    }

    /// The peer store refuses an invalid learner spec at construction,
    /// naming the field.
    #[test]
    #[should_panic(expected = "epsilon must be in (0, 1]")]
    fn invalid_learner_spec_names_its_field() {
        let config = SimConfig::builder(4, vec![BandwidthSpec::Paper { stay: 0.98 }; 2])
            .learner(crate::config::LearnerSpec {
                epsilon: 0.0,
                ..crate::config::LearnerSpec::default()
            })
            .build();
        let _ = System::new(config);
    }

    #[test]
    fn outcome_is_cumulative_across_run_calls() {
        let mut sys = System::new(small_config(9));
        let _ = sys.run(50);
        let out = sys.run(50);
        assert_eq!(out.epochs, 100);
        assert_eq!(out.metrics.epochs(), 100);
    }
}
