//! The simulation engine: one epoch pipeline over K channels.
//!
//! The paper's system is multi-channel — helpers balance their upload
//! bandwidth across channel overlays while every viewer picks a helper of
//! *its* channel — and a lone channel is the K = 1 special case. So there
//! is one engine, [`System`], with two constructors: [`System::new`]
//! builds the K = 1 topology from a [`SimConfig`], and
//! [`MultiChannelSystem::new`](crate::MultiChannelSystem::new) builds K
//! channels from a [`MultiChannelConfig`](crate::MultiChannelConfig) and
//! adds a per-channel outcome view. Both hand a `Blueprint` to the one
//! instantiation path (`System::assemble`) and step the one
//! [`System::step_epoch`].
//!
//! The epoch's metric half — join rates, welfare, the server's
//! settlement, fairness, switches, helper loads — is [`EpochMetrics`],
//! which the decentralized runtime's coordinator records through too.
//!
//! Peers live in the sharded structure-of-arrays [`PeerStore`]; the
//! per-peer choose/observe phases run shard-parallel with index-ordered
//! reductions, so results are bit-for-bit identical at any shard count
//! and any `RTHS_THREADS` (see the store docs for the contract).

use rand::rngs::StdRng;
use rths_obs::{self as obs, Phase};
use rths_stoch::process::ChurnProcess;
use rths_stoch::rng::seeded_rng;

use crate::config::{BandwidthSpec, LearnerSpec, SimConfig};
use crate::epoch_metrics::{cap_to_demand, EpochMetrics};
use crate::helper::{Helper, HelperId};
use crate::impairment::{ImpairmentPlan, LinkShaper};
use crate::metrics::SimMetrics;
use crate::multichannel::AllocationPolicy;
use crate::store::{self, PeerStore, ShardScratch};
use crate::strategy::JointDistribution;

/// Result of (so far) running a [`System`].
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Total epochs executed.
    pub epochs: u64,
    /// All recorded metrics.
    pub metrics: SimMetrics,
    /// Peers online at the end.
    pub final_population: usize,
    /// Joint action distribution (recorded only for churn-free runs,
    /// where profiles have a fixed player set).
    pub joint: Option<JointDistribution>,
    /// Per-peer delivered-rate series (only when
    /// `record_peer_rates` was set on a churn-free run); outer index =
    /// peer, inner = epoch. Feed to [`crate::playback::PlaybackBuffer`]
    /// for QoE analysis.
    pub peer_rate_series: Option<Vec<Vec<f64>>>,
}

/// What a constructor hands to [`System::assemble`], and the engine keeps:
/// the topology and the behaviours the public configuration switches on.
/// Crate private — none of it is a knob beyond what [`SimConfig`] and
/// [`MultiChannelConfig`](crate::MultiChannelConfig) already expose.
pub(crate) struct Blueprint {
    pub seed: u64,
    /// One bandwidth process per helper.
    pub helpers: Vec<BandwidthSpec>,
    /// `helper_channels[j]` — channels helper `j` serves.
    pub helper_channels: Vec<Vec<usize>>,
    /// Per-viewer demand of each channel (kbps); `None` = uncapped.
    pub demands: Vec<Option<f64>>,
    /// Initial viewers per channel.
    pub viewers: Vec<usize>,
    /// How a helper splits its capacity over the channels it serves.
    pub allocation: AllocationPolicy,
    pub learner: LearnerSpec,
    /// The typical per-peer rate that calibrates the learners' `μ`.
    pub rate_scale: f64,
    pub churn: ChurnProcess,
    pub impairment: ImpairmentPlan,
    /// Record what only [`Outcome`] reports: the joint action
    /// distribution (churn-free runs) and the learners' internal regret
    /// estimate — `m` more scalars and an `O(m)` read per peer per epoch
    /// that the per-channel
    /// [`MultiChannelOutcome`](crate::MultiChannelOutcome) view never
    /// shows.
    pub diagnostics: bool,
    pub record_joint_from: u64,
    pub record_peer_rates: bool,
}

/// Reusable per-epoch buffers, hoisted out of [`System::step_epoch`] so
/// steady-state epochs allocate nothing: each buffer is cleared and
/// refilled in place every epoch (capacity is retained across epochs).
/// Tables over (helper, channel) are flattened row-major
/// (`index = helper * num_channels + channel`).
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
    /// Per-helper split inputs/outputs (reused across helpers).
    served_loads: Vec<usize>,
    served_rates: Vec<f64>,
    split: Vec<f64>,
    /// Delivered rate per peer.
    delivered: Vec<f64>,
    /// Per-shard thread-affine scratch.
    shards: Vec<ShardScratch>,
    /// Churn: mirror of the historical swap-remove draw sequence.
    alive: Vec<u32>,
    /// Churn: slots departing this epoch.
    removing: Vec<u32>,
    /// Profile widened to `usize` for joint-distribution recording.
    profile_usize: Vec<usize>,
    /// Impairment-shaped delivered rate per peer (loss + link cap +
    /// token bucket, before the demand cap). Only filled when the
    /// impairment plan affects rates.
    shaped: Vec<f64>,
}

/// The helper-assisted streaming system over K channels (K = 1 when built
/// by [`System::new`]). See the [module docs](self).
pub struct System {
    plan: Blueprint,
    helpers: Vec<Helper>,
    peers: PeerStore,
    /// The metric half of every epoch, and the channel → helpers layout
    /// (a viewer's learner action indexes its channel's list).
    metrics: EpochMetrics,
    joint: Option<JointDistribution>,
    peer_rate_series: Option<Vec<Vec<f64>>>,
    /// Sum of the `switches` series so far (integer counts, kept exact).
    switches_recorded: u64,
    epoch: u64,
    master_rng: StdRng,
    scratch: EpochScratch,
    /// Per-peer link state (token bucket, memoised link chains),
    /// slot-aligned with the peer store and keyed by stable id so churn
    /// can evict departed peers without touching survivors. Empty unless
    /// the impairment plan affects rates.
    links: Vec<(u64, LinkShaper)>,
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
    /// Builds the single-channel system — the K = 1 configuration of the
    /// engine: every helper serves channel 0 and gives it its whole
    /// capacity (the even split over one channel, `cap / 1`), all peers
    /// watch it, and `config.demand` is the channel's per-viewer demand.
    /// Everything is seeded deterministically from `config.seed`.
    pub fn new(config: SimConfig) -> Self {
        let rate_scale = config.rate_scale();
        let num_helpers = config.helpers.len();
        Self::assemble(Blueprint {
            seed: config.seed,
            helpers: config.helpers,
            helper_channels: vec![vec![0]; num_helpers],
            demands: vec![config.demand],
            viewers: vec![config.num_peers],
            allocation: AllocationPolicy::EvenSplit,
            learner: config.learner,
            rate_scale,
            churn: config.churn,
            impairment: config.impairment,
            diagnostics: true,
            record_joint_from: config.record_joint_from,
            record_peer_rates: config.record_peer_rates,
        })
    }

    /// The one instantiation path: helper bandwidth processes (drawing
    /// their initial states from the master stream in helper order), the
    /// channel → helpers map, the peer store with one learner action set
    /// per channel, and the initial population channel by channel.
    ///
    /// # Panics
    ///
    /// Panics if an uncapped channel meets
    /// [`AllocationPolicy::WaterFilling`], which splits by demand.
    pub(crate) fn assemble(plan: Blueprint) -> Self {
        assert!(
            plan.allocation != AllocationPolicy::WaterFilling
                || plan.demands.iter().all(Option::is_some),
            "water-filling needs a finite demand on every channel"
        );
        let mut master_rng = seeded_rng(plan.seed);
        let helpers: Vec<Helper> = plan
            .helpers
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                Helper::with_seed(
                    HelperId(j as u32),
                    spec.instantiate(&mut master_rng),
                    plan.seed,
                )
            })
            .collect();
        let mut channel_helpers = vec![Vec::new(); plan.demands.len()];
        for (j, served) in plan.helper_channels.iter().enumerate() {
            for &c in served {
                channel_helpers[c].push(j);
            }
        }
        let actions_per_channel: Vec<usize> = channel_helpers.iter().map(Vec::len).collect();
        let mut peers = PeerStore::new(
            plan.seed,
            plan.learner.clone(),
            plan.rate_scale,
            &actions_per_channel,
        );
        peers.reserve(plan.viewers.iter().sum());
        for (c, &count) in plan.viewers.iter().enumerate() {
            for _ in 0..count {
                peers.spawn(c, 0);
            }
        }
        let churn_free = plan.churn.arrival_rate() == 0.0 && plan.churn.departure_prob() == 0.0;
        let track_joint = plan.diagnostics && churn_free;
        let track_rates = churn_free && plan.record_peer_rates;
        Self {
            metrics: EpochMetrics::new(
                helpers.len(),
                helpers.iter().map(Helper::min_capacity).sum(),
                plan.demands.clone(),
                channel_helpers,
            ),
            plan,
            joint: track_joint.then(JointDistribution::new),
            peer_rate_series: track_rates.then(|| vec![Vec::new(); peers.len()]),
            helpers,
            peers,
            switches_recorded: 0,
            epoch: 0,
            master_rng,
            scratch: EpochScratch::default(),
            links: Vec::new(),
        }
    }

    /// Current epoch count.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Online peers.
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// Number of channels (1 for a [`System::new`] system).
    pub fn num_channels(&self) -> usize {
        self.metrics.channel_helpers().len()
    }

    /// The helpers (e.g. for failure injection via
    /// [`set_helper_online`](Self::set_helper_online)).
    pub fn helpers(&self) -> &[Helper] {
        &self.helpers
    }

    /// The sharded SoA peer store (stable ids, per-peer accounting).
    pub fn peers(&self) -> &PeerStore {
        &self.peers
    }

    /// The per-epoch series recorded so far (the summary fields are
    /// filled in by [`outcome`](Self::outcome) only).
    pub fn metrics(&self) -> &SimMetrics {
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
    pub fn config_arrival_rate(&self) -> f64 {
        self.plan.churn.arrival_rate()
    }

    /// Adds `Poisson(lambda)` extra peers immediately (flash-crowd /
    /// diurnal workload injection, on top of the configured churn).
    /// Arrivals — these and the churn process's — join channel 0: churn
    /// and surges are configured through [`SimConfig`] only, where it is
    /// the one channel.
    pub fn inject_arrivals(&mut self, lambda: f64) {
        let extra = rths_stoch::process::sample_poisson(&mut self.master_rng, lambda);
        for _ in 0..extra {
            self.peers.spawn(0, self.epoch);
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

    /// Executes exactly one epoch.
    pub fn step_epoch(&mut self) {
        let h = self.helpers.len();
        let k = self.num_channels();
        // Observability: tag the epoch for layers below the epoch
        // protocol and open the whole-epoch span. Spans only read the
        // monotonic clock into side buffers, so traced trajectories are
        // bit-identical to untraced ones (pinned by `obs_neutrality`).
        let ep = self.epoch;
        if obs::enabled() {
            obs::set_epoch(ep);
        }
        let t_epoch = obs::span_start();

        // 1. Helper bandwidth dynamics (each on its own RNG stream).
        let t = obs::span_start();
        for helper in &mut self.helpers {
            helper.step();
        }
        if let Some(t) = t {
            obs::span_end(Phase::HelperDynamics, ep, t);
        }

        // 2. Churn. Departure slots are drawn with the historical
        // swap-remove sequence against a mirror vector (so the master RNG
        // stream is unchanged), then removed in one order-preserving
        // compaction: survivors keep their slot order and identity.
        let t = obs::span_start();
        let events = self.plan.churn.sample_epoch(&mut self.master_rng, self.peers.len());
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
            self.peers.spawn(0, self.epoch);
        }
        if let Some(t) = t {
            obs::span_end(Phase::Churn, ep, t);
        }

        // 3. Decentralized helper selection (a local action index into
        // the channel's helper list), shard-parallel over the peer store:
        // each peer samples from its own RNG stream, so the choice
        // profile is independent of the shard partition. Each shard
        // resolves the global helper index into `globals` and accumulates
        // its own loads[j*k + c] histogram; the histograms merge in shard
        // order (integer counts — order-insensitive).
        let n = self.peers.len();
        let Blueprint { demands, helper_channels, allocation, impairment, .. } = &self.plan;
        let channel_helpers = self.metrics.channel_helpers();
        let EpochScratch {
            profile,
            globals,
            loads,
            bandwidth,
            shares,
            served_loads,
            served_rates,
            split,
            delivered,
            shards,
            profile_usize,
            shaped,
            ..
        } = &mut self.scratch;
        // resize without clear: choose_phase writes every slot of both
        // columns, so no per-epoch memset is needed.
        profile.resize(n, 0);
        globals.resize(n, 0);
        let t = obs::span_start();
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
        if let Some(t) = t {
            store::absorb_obs(shards);
            obs::span_end(Phase::Choose, ep, t);
        }

        // 4. Helper-level bandwidth allocation across channels, then the
        // even split of each (helper, channel) budget over its viewers.
        let t = obs::span_start();
        bandwidth.clear();
        bandwidth.resize(h * k, 0.0);
        shares.clear();
        shares.resize(h * k, 0.0);
        for j in 0..h {
            let served = &helper_channels[j];
            let cap = self.helpers[j].capacity();
            served_loads.clear();
            served_loads.extend(served.iter().map(|&c| loads[j * k + c]));
            // An uncapped channel never meets water-filling (see
            // `assemble`); the other policies ignore demand.
            served_rates.clear();
            served_rates.extend(served.iter().map(|&c| demands[c].unwrap_or(f64::INFINITY)));
            allocation.split_into(cap, served_loads, served_rates, split);
            for (&c, &b) in served.iter().zip(split.iter()) {
                let viewers = loads[j * k + c];
                bandwidth[j * k + c] = b;
                shares[j * k + c] = if viewers == 0 { 0.0 } else { b / viewers as f64 };
            }
        }

        // 5. Helper loads, total demand and the counterfactual join rates,
        // grouped per channel: they depend only on the channel (loads
        // count the incumbent peers), so one evaluation serves every
        // viewer of the channel.
        let (join_offsets, join_rates) = self.metrics.allocation(loads, bandwidth);
        if let Some(t) = t {
            obs::span_end(Phase::RateAlloc, ep, t);
        }

        // 6. Link impairments (loss, per-link bandwidth caps, token-bucket
        // shaping) are applied between the helper's even split and the
        // demand cap — the same pipeline order as the `rths_net`
        // machines, so trajectories stay bit-identical across backends.
        // The token bucket is stateful, so the shaped column is computed
        // sequentially here (the observe phase's rate closure runs
        // shard-parallel and must stay pure).
        let t = obs::span_start();
        let shaped_rates: Option<&[f64]> = if impairment.affects_rates() {
            let ids = self.peers.ids();
            // Sync shaper slots with the population: survivors keep
            // their bucket state (the store preserves ascending-id slot
            // order through churn; arrivals always get larger ids, so
            // the retained prefix stays slot-aligned). Both sequences
            // ascend by id, so one cursor over `ids` follows the walk.
            let mut live = 0;
            self.links.retain(|&(id, _)| {
                while live < ids.len() && ids[live] < id {
                    live += 1;
                }
                live < ids.len() && ids[live] == id
            });
            for &id in &ids[self.links.len()..] {
                self.links.push((id, LinkShaper::new()));
            }
            shaped.clear();
            for slot in 0..n {
                let helper = globals[slot] as usize;
                let id = ids[slot];
                // The shaper steps the link's loss and bandwidth chains
                // from last epoch's state while the peer stays with its
                // helper (see `impairment`).
                let link = &mut self.links[slot].1;
                let offered = if link.is_lost(impairment, id, helper, self.epoch) {
                    0.0
                } else {
                    shares[helper * k + self.peers.channel(slot)]
                };
                shaped.push(link.shape(impairment, id, helper, self.epoch, offered));
            }
            Some(&**shaped)
        } else {
            None
        };
        if let Some(t) = t {
            obs::span_end(Phase::Impairment, ep, t);
        }

        // 7. Delivery and bandit feedback (shard-parallel). Each peer's
        // rate lands in an index-aligned slot; every order-sensitive
        // float reduction happens below in peer order, so results are
        // bit-identical at any shard count.
        delivered.resize(n, 0.0);
        let t = obs::span_start();
        let (worst_est, worst_emp) = {
            let globals = &*globals;
            let shares = &*shares;
            self.peers.observe_phase(
                profile,
                delivered,
                join_offsets,
                join_rates,
                shards,
                self.plan.diagnostics,
                move |slot, _, c| {
                    let c = c as usize;
                    let rate = match shaped_rates {
                        Some(s) => s[slot],
                        None => shares[globals[slot] as usize * k + c],
                    };
                    cap_to_demand(rate, demands[c])
                },
            )
        };
        if let Some(t) = t {
            store::absorb_obs(shards);
            obs::span_end(Phase::Observe, ep, t);
        }
        if let Some(series) = &mut self.peer_rate_series {
            for (s, &r) in series.iter_mut().zip(delivered.iter()) {
                s.push(r);
            }
        }
        // 8. Welfare, and the server settles residual demand.
        let t = obs::span_start();
        let helper_now: f64 = self.helpers.iter().map(Helper::capacity).sum();
        let peers = &self.peers;
        self.metrics.settle(delivered, |i| peers.channel(i), helper_now);
        if let Some(t) = t {
            obs::span_end(Phase::Settle, ep, t);
        }

        // 9. Metrics. Per-epoch switches = growth of the population's
        // cumulative count past what the series already holds (departures
        // take their counts with them, so the total can dip; the series
        // never does).
        let t = obs::span_start();
        let new_switches = self.peers.total_switches().saturating_sub(self.switches_recorded);
        self.switches_recorded += new_switches;
        let estimate = self.plan.diagnostics.then_some(worst_est);
        self.metrics.record(worst_emp, estimate, new_switches);
        if let Some(joint) = &mut self.joint {
            if self.epoch >= self.plan.record_joint_from {
                profile_usize.clear();
                profile_usize.extend(profile.iter().map(|&a| a as usize));
                joint.record(profile_usize);
            }
        }
        if let Some(t) = t {
            obs::span_end(Phase::Metrics, ep, t);
        }
        if let Some(t) = t_epoch {
            obs::span_end(Phase::Epoch, ep, t);
        }
        self.epoch += 1;
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
            joint: self.joint.clone(),
            peer_rate_series: self.peer_rate_series.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BandwidthSpec, SimConfig};
    use crate::multichannel::{MultiChannelConfig, MultiChannelSystem};
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
    /// slab's observe, `SlabCols::observe`, allows in its own check).
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
                        let config =
                            MultiChannelConfig::standard(3, 400.0, 4, 2, 36, 1.0, policy, seed);
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
        assert!(out.joint.is_some());
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
        // Joint distribution is disabled under churn.
        assert!(out.joint.is_none());
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

    #[test]
    fn outcome_is_cumulative_across_run_calls() {
        let mut sys = System::new(small_config(9));
        let _ = sys.run(50);
        let out = sys.run(50);
        assert_eq!(out.epochs, 100);
        assert_eq!(out.metrics.epochs(), 100);
    }
}
