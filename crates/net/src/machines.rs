//! Transport-agnostic protocol state machines.
//!
//! The epoch protocol — tick, select, settle, observe — is one algorithm,
//! and everything that determines *results* is the simulator's own code,
//! phase for phase (the table in `rths_sim::system`): helpers are built
//! by `rths_sim::helper::instantiate`, step their own bandwidth processes
//! and split their capacity with `rths_sim::helper::allocate`; peers
//! choose, shape their links, learn and record their true regret in a
//! `rths_sim::PeerStore` (the reactor gives each mailbox shard one); the
//! coordinator records through [`EpochMetrics`], one block of peers at a
//! time ([`CoordinatorMachine::on_shard_report`]). It sends each mailbox
//! shard one tick and, once every helper has reported, the epoch's join
//! rates ([`CoordinatorMachine::on_helper_report`]) — what a peer's regret
//! is measured against — and helpers settle without waiting on any peer's
//! report. The hosts — the reactor ([`crate::reactor_backend`]),
//! in one process or several ([`crate::multiproc`]) — only move these
//! machines' inputs and outputs, which is what makes the bit-for-bit
//! equivalence with the simulator structural. No result may depend on the
//! order in which an epoch's messages reach a machine;
//! `tests/properties.rs` feeds them seeded permutations to hold that.

use rths_sim::epoch_metrics::cap_to_demand;
use rths_sim::helper::{self, Helper};
use rths_sim::peer::{Peer, PeerId};
use rths_sim::{
    AllocationPolicy, EpochMetrics, ImpairmentPlan, LinkShaper, SimConfig, SimMetrics,
};
use rths_stoch::rng::{entity_rng, seeded_rng};

/// Instantiates the helper set exactly as `rths_sim::System::new` does
/// (`rths_sim::helper::instantiate` on a fresh master stream). Returns
/// the helpers plus the summed minimum capacity (the Fig. 5 deficit
/// bound).
pub fn instantiate_helpers(sim: &SimConfig) -> (Vec<Helper>, f64) {
    let helpers = helper::instantiate(&sim.helpers, sim.seed, &mut seeded_rng(sim.seed));
    let min_total = helpers.iter().map(Helper::min_capacity).sum();
    (helpers, min_total)
}

/// What a peer decided this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Chosen helper index.
    pub helper: usize,
    /// Data-plane fault: the request will connect but the payload is lost.
    pub lost: bool,
}

/// The peer-side state machine for one peer on its own: owns the learner,
/// its RNG stream, the demand cap, and the edge end of the impairment
/// layer. Feedback is strictly local — a rate per epoch.
///
/// The reactor does not host its peers this way: each mailbox shard
/// drives its peers' learners through one `rths_sim::PeerStore` (see
/// [`crate::reactor_backend`]). The machine stays for the benchmark's
/// `net.machines.peer_*` probes and for the protocol tests that drive
/// peers by hand; its pipeline is the reactor's, step for step.
#[derive(Debug)]
pub struct PeerMachine {
    peer: Peer,
    demand: Option<f64>,
    /// The plan and the peer's link state under it; `None` unless the
    /// plan [affects rates](ImpairmentPlan::affects_rates).
    impaired: Option<Box<(ImpairmentPlan, LinkShaper)>>,
    /// The helper and epoch of the last [`on_tick`](Self::on_tick), whose
    /// link shapes the rate.
    selection: Option<(usize, u64)>,
}

impl PeerMachine {
    /// Wraps a live peer under the given impairment plan.
    pub fn new(peer: Peer, demand: Option<f64>, impairments: ImpairmentPlan) -> Self {
        let impaired =
            impairments.affects_rates().then(|| Box::new((impairments, LinkShaper::new())));
        Self { peer, demand, impaired, selection: None }
    }

    /// Builds peer `id` exactly as `rths_sim::System::new` does (same
    /// learner spec, same per-entity RNG stream).
    ///
    /// # Panics
    ///
    /// Panics, naming the [`ConfigError`](rths_core::ConfigError), if the
    /// learner spec is invalid.
    pub fn from_config(
        sim: &SimConfig,
        id: u64,
        num_helpers: usize,
        impairments: ImpairmentPlan,
    ) -> Self {
        let learner = sim
            .learner
            .instantiate(num_helpers, sim.rate_scale())
            .unwrap_or_else(|e| panic!("invalid learner spec: {e}"));
        let peer = Peer::new(PeerId(id), learner, entity_rng(sim.seed, id), 0, 0);
        Self::new(peer, sim.demand, impairments)
    }

    /// Stable peer id.
    pub fn id(&self) -> u64 {
        self.peer.id().0
    }

    /// Epoch start: samples the learner and decides whether this epoch's
    /// payload is lost (deterministic per `(peer, helper, epoch)` link;
    /// the peer's own RNG stream is never drawn for it).
    pub fn on_tick(&mut self, epoch: u64) -> Selection {
        let helper = self.peer.choose_helper();
        let id = self.id();
        self.selection = Some((helper, epoch));
        // A plan that affects no rate loses nothing.
        let lost = self
            .impaired
            .as_deref_mut()
            .is_some_and(|(plan, shaper)| shaper.is_lost(plan, id, helper, epoch));
        Selection { helper, lost }
    }

    /// Delivers the raw rate from the helper; shapes it through the
    /// link's impairments (bandwidth cap, token bucket), applies the
    /// demand cap, feeds the learner, and returns the realized
    /// (observed) rate — the exact pipeline order of
    /// `rths_sim::System::step_epoch`, which is what keeps impaired runs
    /// bit-identical across backends.
    pub fn on_rate(&mut self, kbps: f64) -> f64 {
        let id = self.id();
        let kbps = match (self.impaired.as_deref_mut(), self.selection.take()) {
            (Some((plan, shaper)), Some((helper, epoch))) => {
                shaper.shape(plan, id, helper, epoch, kbps)
            }
            _ => kbps,
        };
        let (rate, satisfied) = cap_to_demand(kbps, self.demand);
        self.peer.deliver(rate, satisfied);
        rate
    }

    /// The wrapped peer (final reporting).
    pub fn peer(&self) -> &Peer {
        &self.peer
    }
}

/// A helper's per-epoch settlement summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settlement {
    /// Number of connected peers this epoch.
    pub load: usize,
    /// Capacity this epoch (kbps; 0 while offline).
    pub capacity: f64,
}

/// The helper-side state machine: a bandwidth process plus the
/// simulator's allocate phase ([`helper::allocate`]) over the requests
/// that arrived, on one channel (the K = 1 `rths_sim::System::new`).
/// Generic over a per-request attachment `T` handed back with the reply:
/// the reactor attaches nothing, tests attach an arrival tag.
#[derive(Debug)]
pub struct HelperMachine<T = ()> {
    helper: Helper,
    pending: Vec<(u64, bool, T)>,
}

impl<T> HelperMachine<T> {
    /// Wraps a live helper.
    pub fn new(helper: Helper) -> Self {
        Self { helper, pending: Vec::new() }
    }

    /// Epoch start: advances the private bandwidth process.
    pub fn on_tick(&mut self) {
        self.helper.step();
    }

    /// Records one streaming request for the current epoch.
    pub fn on_request(&mut self, peer: u64, lost: bool, attachment: T) {
        self.pending.push((peer, lost, attachment));
    }

    /// Settles the epoch: splits capacity over the recorded requests,
    /// invoking `reply(peer, kbps, attachment)` per requester in arrival
    /// order (0 kbps when the payload was lost), and returns the summary.
    pub fn on_settle(&mut self, mut reply: impl FnMut(u64, f64, T)) -> Settlement {
        let (load, mut share) = (self.pending.len(), 0.0);
        // The even split ignores the channel's demand.
        let (cap, policy) = (self.helper.capacity(), AllocationPolicy::EvenSplit);
        helper::allocate(policy, cap, &[0], &[load], &[None], |_, _, s| share = s);
        for (peer, lost, attachment) in self.pending.drain(..) {
            reply(peer, if lost { 0.0 } else { share }, attachment);
        }
        Settlement { load, capacity: self.helper.capacity() }
    }

    /// Availability change (failure injection).
    pub(crate) fn set_online(&mut self, online: bool) {
        self.helper.set_online(online);
    }
}

/// The columns the coordinator's messages fill each epoch — sized once,
/// and every entry overwritten by every complete epoch, so steady-state
/// epochs neither allocate nor clear.
#[derive(Debug)]
struct CoordScratch {
    /// Reported load per helper.
    loads: Vec<usize>,
    /// Reported capacity per helper.
    capacities: Vec<f64>,
    /// Observed (demand-capped) rate per peer.
    rates: Vec<f64>,
}

/// The coordinator's state machine: an epoch-progress tracker that
/// gathers, purely from observability-plane reports, what the simulator
/// knows of an epoch, and records it through the simulator's own
/// [`EpochMetrics`]. It observes but never instructs — no assignment
/// decision flows through it; the join rates it derives from the helper
/// reports are what every peer measures its regret against. Peers report
/// in contiguous blocks ([`on_shard_report`](Self::on_shard_report)) into
/// index-addressed columns and maxima, so the record sees the same inputs
/// in the same order however the blocks are cut and in whatever order
/// they arrive.
#[derive(Debug)]
pub struct CoordinatorMachine {
    /// The metric half of every epoch, over one channel that every helper
    /// serves with its whole capacity.
    metrics: EpochMetrics,
    /// Epoch folds of the learner-reported internal regret estimates and
    /// of the blocks' worst true regrets (order-insensitive maxima over
    /// non-negatives).
    worst_estimate: f64,
    worst_empirical: f64,
    /// The epoch's helper switches, summed over the reported blocks.
    switches: u64,
    scratch: CoordScratch,
    reports: usize,
    /// Peers whose `(rate, estimate)` is in for this epoch.
    reported: usize,
}

impl CoordinatorMachine {
    /// Creates the coordinator for a fixed population.
    pub fn new(sim: &SimConfig, helper_min: f64) -> Self {
        let n = sim.num_peers();
        let h = sim.helpers.len();
        Self {
            metrics: EpochMetrics::new(h, helper_min, vec![sim.demand], vec![(0..h).collect()]),
            worst_estimate: 0.0,
            worst_empirical: 0.0,
            switches: 0,
            scratch: CoordScratch {
                loads: vec![0; h],
                capacities: vec![0.0; h],
                rates: vec![0.0; n],
            },
            reports: 0,
            reported: 0,
        }
    }

    /// Epochs completed so far: the index of the epoch in flight.
    pub(crate) fn epoch(&self) -> u64 {
        self.metrics.series().epochs() as u64
    }

    /// Resets per-epoch progress. The columns are not cleared: a complete
    /// epoch overwrites every entry.
    pub fn begin_epoch(&mut self) {
        self.reports = 0;
        self.reported = 0;
        self.worst_estimate = 0.0;
        self.worst_empirical = 0.0;
        self.switches = 0;
    }

    /// A peer committed to a helper: a per-peer entry the mesh no longer
    /// sends, and which nothing records (a peer's regret is recorded in
    /// its own store). Kept for the benchmark's coordinator probe.
    #[doc(hidden)]
    pub fn on_selected(&mut self, _peer: u64, _helper: usize) {} // benchmark shim (ROADMAP 23)

    /// A helper settled the epoch. The last of the epoch's reports runs
    /// the allocation record ([`EpochMetrics::allocation`]) and returns
    /// the epoch's join rates, `min(d, capacity / (load + 1))` per helper:
    /// what each peer's regret is measured against, for the host to hand
    /// every block of peers.
    pub fn on_helper_report(
        &mut self,
        helper: usize,
        load: usize,
        capacity: f64,
    ) -> Option<&[f64]> {
        let CoordScratch { loads, capacities, .. } = &mut self.scratch;
        loads[helper] = load;
        capacities[helper] = capacity;
        self.reports += 1;
        (self.reports == loads.len()).then(|| self.metrics.allocation(loads, capacities).1)
    }

    /// A peer observed its realized rate; `estimate`, its learner's
    /// internal regret estimate (`0.0` untracked), is folded into the
    /// epoch's `worst_regret_estimate` by an order-insensitive max. Like
    /// [`on_selected`](Self::on_selected), kept for the benchmark's probe.
    pub fn on_observed(&mut self, peer: u64, rate: f64, estimate: f64) {
        self.scratch.rates[peer as usize] = rate;
        self.worst_estimate = self.worst_estimate.max(estimate);
        self.reported += 1;
    }

    /// Peers `first .. first + rates.len()` report their epoch at once:
    /// peer `first + k` realized `rates[k]`, `estimate` is the largest
    /// internal regret estimate among them — the fold
    /// [`on_observed`](Self::on_observed) applies per peer — `empirical`
    /// their largest time-averaged true regret after this epoch's record
    /// (their store's observe phase, fed the join rates
    /// [`on_helper_report`](Self::on_helper_report) returned), and
    /// `switches` how many of them switched helper this epoch (their
    /// store's `new_switches`). Maxima and integer sums, so any cut of the
    /// population into blocks, arriving in any order, records the same
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if the block runs past the population.
    pub fn on_shard_report(
        &mut self,
        first: usize,
        rates: &[f64],
        estimate: f64,
        empirical: f64,
        switches: u64,
    ) {
        self.scratch.rates[first..first + rates.len()].copy_from_slice(rates);
        self.worst_estimate = self.worst_estimate.max(estimate);
        self.worst_empirical = self.worst_empirical.max(empirical);
        self.switches += switches;
        self.reported += rates.len();
    }

    /// The epoch's columns as ingested — realized rate per peer, reported
    /// load and capacity per helper — for the allocation invariant tests.
    /// Between epochs they hold the last finished one.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> (&[f64], &[usize], &[f64]) {
        let CoordScratch { loads, capacities, rates } = &self.scratch;
        (rates, loads, capacities)
    }

    /// Every helper report and every peer's epoch is in.
    pub(crate) fn epoch_complete(&self) -> bool {
        self.reports == self.scratch.loads.len() && self.reported == self.scratch.rates.len()
    }

    /// Records the epoch: [`EpochMetrics`]' settle and record, fed what
    /// the messages reported (the allocation ran at the last helper
    /// report). With one channel the per-helper columns are the (helper,
    /// channel) tables, and a helper's reported capacity is its channel's
    /// bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if a helper report or a peer's epoch is still missing.
    pub fn finish_epoch(&mut self) {
        assert!(self.epoch_complete(), "finish_epoch before all reports arrived");
        let CoordScratch { capacities, rates, .. } = &self.scratch;
        self.metrics.settle(rates, |_| 0, capacities.iter().sum());
        // The estimate series is the learner-reported virtual-play `Q`
        // maxima the peers attach to their reports — the same
        // derivation the simulator's observe phase uses, not a copy of
        // the empirical series (the two agree only in the limit).
        self.metrics.record(self.worst_empirical, Some(self.worst_estimate), self.switches);
    }

    /// The metric bundle the simulator returns: the recorded series plus
    /// the end-of-run summaries over the peers' own accounting, per-peer
    /// `(mean_rate, continuity)` pairs in ascending peer-id order (the
    /// form the multi-process runtime ships across process boundaries).
    pub fn finalize_summaries(
        &self,
        peers: impl IntoIterator<Item = (f64, f64)>,
    ) -> SimMetrics {
        self.metrics.summary(peers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_sim::{BandwidthSpec, LearnerSpec, Scenario, SimConfig};

    fn small_sim() -> SimConfig {
        SimConfig::builder(4, vec![BandwidthSpec::Constant(800.0); 2]).seed(3).build()
    }

    #[test]
    fn helpers_instantiate_in_sim_order() {
        let sim = Scenario::paper_small().seed(11).build();
        let (helpers, min_total) = instantiate_helpers(&sim);
        assert_eq!(helpers.len(), sim.helpers.len());
        let expected: f64 = helpers.iter().map(Helper::min_capacity).sum();
        assert_eq!(min_total, expected);
    }

    #[test]
    fn peer_machine_caps_demand_and_feeds_learner() {
        let sim = SimConfig::builder(2, vec![BandwidthSpec::Constant(800.0); 2])
            .demand(300.0)
            .seed(1)
            .build();
        let mut m = PeerMachine::from_config(&sim, 0, 2, ImpairmentPlan::none());
        let sel = m.on_tick(0);
        assert!(sel.helper < 2);
        assert!(!sel.lost);
        assert_eq!(m.on_rate(800.0), 300.0);
        assert_eq!(m.peer().mean_rate(), 300.0);
        assert_eq!(m.peer().continuity(), 1.0);
        // Under the cap: unsatisfied epoch.
        let _ = m.on_tick(1);
        assert_eq!(m.on_rate(100.0), 100.0);
        assert_eq!(m.peer().continuity(), 0.5);
    }

    /// A spec the learner refuses is named, not reported as a broken
    /// construction invariant.
    #[test]
    #[should_panic(expected = "invalid learner spec: epsilon must be in (0, 1]")]
    fn an_invalid_learner_spec_is_named() {
        let learner = LearnerSpec { epsilon: 0.0, ..LearnerSpec::default() };
        let sim = SimConfig { learner, ..small_sim() };
        let _ = PeerMachine::from_config(&sim, 0, 2, ImpairmentPlan::none());
    }

    #[test]
    fn peer_machine_marks_lost_epochs() {
        let sim = small_sim();
        let mut m = PeerMachine::from_config(
            &sim,
            1,
            2,
            ImpairmentPlan::builder(9).uniform_loss(1.0).build().unwrap(),
        );
        assert!(m.on_tick(0).lost);
    }

    /// Plan and link state are read together or not at all, so a peer
    /// whose plan shapes no rate — none, or a seeded empty one — holds
    /// neither.
    #[test]
    fn clean_links_hold_neither_plan_nor_link_state() {
        let sim = small_sim();
        for plan in [ImpairmentPlan::none(), ImpairmentPlan::builder(9).build().unwrap()] {
            assert!(PeerMachine::from_config(&sim, 0, 2, plan).impaired.is_none());
        }
        let lossy = ImpairmentPlan::builder(9).uniform_loss(0.1).build().unwrap();
        assert!(PeerMachine::from_config(&sim, 0, 2, lossy).impaired.is_some());
    }

    #[test]
    fn peer_machine_shapes_rates_like_a_link_shaper() {
        // The machine's pipeline must equal a bare LinkShaper fed the
        // same (link, epoch, offered) sequence — that is the contract
        // the sim↔net equivalence rests on.
        let plan = ImpairmentPlan::builder(7)
            .token_bucket(300.0, 500.0)
            .link_bandwidth(vec![200.0, 400.0, 800.0], 0.9)
            .build()
            .unwrap();
        let sim = small_sim();
        let mut m = PeerMachine::from_config(&sim, 0, 2, plan.clone());
        let mut reference = LinkShaper::new();
        for epoch in 0..40 {
            let sel = m.on_tick(epoch);
            let offered = 700.0 + epoch as f64;
            let expected = reference.shape(&plan, 0, sel.helper, epoch, offered);
            assert_eq!(m.on_rate(offered).to_bits(), expected.to_bits(), "epoch {epoch}");
        }
    }

    #[test]
    fn helper_machine_splits_capacity_in_arrival_order() {
        let (helpers, _) = instantiate_helpers(&small_sim());
        let mut m: HelperMachine<&str> =
            HelperMachine::new(helpers.into_iter().next().unwrap());
        m.on_tick();
        m.on_request(7, false, "a");
        m.on_request(3, true, "b");
        let mut replies = Vec::new();
        let settlement = m.on_settle(|peer, kbps, tag| replies.push((peer, kbps, tag)));
        assert_eq!(settlement.load, 2);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].0, 7);
        assert_eq!(replies[0].1, 400.0);
        // Lost payload: connection counted, rate zero.
        assert_eq!(replies[1], (3, 0.0, "b"));
        // Next epoch starts empty.
        let empty = m.on_settle(|_, _, _| panic!("no pending requests"));
        assert_eq!(empty.load, 0);
    }

    #[test]
    fn coordinator_tracks_epoch_progress() {
        let sim = small_sim();
        let mut c = CoordinatorMachine::new(&sim, 1600.0);
        c.begin_epoch();
        for p in 0..4 {
            c.on_selected(p, (p % 2) as usize);
        }
        assert!(!c.epoch_complete());
        assert_eq!(c.on_helper_report(0, 2, 800.0), None);
        // The last report brings the join rates: 800 / (2 + 1) each.
        assert_eq!(c.on_helper_report(1, 2, 800.0), Some(&[800.0 / 3.0; 2][..]));
        for p in 0..4 {
            c.on_observed(p, 400.0, 0.5 + p as f64 / 10.0);
        }
        assert!(c.epoch_complete());
        c.finish_epoch();
        assert_eq!(c.epoch(), 1);
        let metrics = c.finalize_summaries([]);
        assert_eq!(metrics.welfare.values(), &[1600.0]);
        assert_eq!(metrics.helper_loads[0].values(), &[2.0]);
        // The estimate series is the max of the peers' reported internal
        // estimates (0.5..0.8 above) — not a copy of the empirical one.
        assert_eq!(metrics.worst_regret_estimate.values(), &[0.8]);
        assert_ne!(
            metrics.worst_regret_estimate.values()[0],
            metrics.worst_empirical_regret.values()[0],
            "estimate must be learner-derived, not the empirical value"
        );
        assert!(metrics.mean_peer_rates.is_empty() && metrics.peer_continuity.is_empty());
    }

    #[test]
    #[should_panic(expected = "finish_epoch before all reports")]
    fn premature_finish_panics() {
        let sim = small_sim();
        let mut c = CoordinatorMachine::new(&sim, 0.0);
        c.begin_epoch();
        c.finish_epoch();
    }
}
