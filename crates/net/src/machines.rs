//! Transport-agnostic protocol state machines.
//!
//! The epoch protocol — tick, select, settle, observe — is one algorithm,
//! written here once. Everything that determines *results* lives in this
//! module or in the simulator code it calls: helper capacity dynamics,
//! peer learning and demand capping here; the coordinator's metrics are
//! the simulator's own [`EpochMetrics`] and regret record, fed the
//! helpers' settlements and the peers' `(chosen, rate, estimate)`
//! columns, which a host reports one contiguous block of peers at a time
//! ([`CoordinatorMachine::on_shard_report`]). The coordinator never sits
//! on a peer's path: it sends the peers nothing but one tick per mailbox
//! shard, and the helpers settle without waiting on any peer's report.
//! The hosts — the reactor ([`crate::reactor_backend`]), in one process
//! or sharded over several ([`crate::multiproc`]) — are thin shells that
//! move these machines' inputs and outputs through mailboxes and
//! sockets, which is what makes the bit-for-bit equivalence with the
//! simulator structural rather than coincidental. No result may depend
//! on the order in which an epoch's messages reach a machine;
//! `tests/properties.rs` feeds them seeded permutations to hold that.

use rths_sim::epoch_metrics::cap_to_demand;
use rths_sim::helper::{Helper, HelperId};
use rths_sim::peer::{Peer, PeerId};
use rths_sim::regret::RegretLedger;
use rths_sim::store::NO_HELPER;
use rths_sim::{EpochMetrics, ImpairmentPlan, LinkShaper, SimConfig, SimMetrics};
use rths_stoch::rng::entity_rng;

/// Instantiates the helper set exactly as `rths_sim::System::new` does:
/// processes drawn from the master RNG in helper-index order. Returns the
/// helpers plus the summed minimum capacity (the Fig. 5 deficit bound).
pub fn instantiate_helpers(sim: &SimConfig) -> (Vec<Helper>, f64) {
    let mut master_rng = rths_stoch::rng::seeded_rng(sim.seed);
    let mut min_total = 0.0;
    let helpers: Vec<Helper> = sim
        .helpers
        .iter()
        .enumerate()
        .map(|(j, spec)| {
            let helper = Helper::with_seed(
                HelperId(j as u32),
                spec.instantiate(&mut master_rng),
                sim.seed,
            );
            min_total += helper.min_capacity();
            helper
        })
        .collect();
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

/// A peer's end of its links under an impairment plan: the plan, the
/// link state under it — token bucket, where its link's loss and
/// bandwidth chains stand — and the `(helper, epoch)` of the in-flight
/// request, which the rate delivery consumes: shaping decisions are
/// per-link, so the peer must remember which link the reply rides.
#[derive(Debug)]
pub(crate) struct Link {
    plan: ImpairmentPlan,
    shaper: LinkShaper,
    inflight: Option<(u32, u64)>,
}

impl Link {
    /// A peer's link under `plan` — `None` unless the plan
    /// [affects rates](ImpairmentPlan::affects_rates), the one case that
    /// reads it: the clean-link swarms (10⁵ peers a process) carry
    /// neither the plan nor the state.
    pub(crate) fn under(plan: &ImpairmentPlan) -> Option<Link> {
        plan.affects_rates().then(|| Link {
            plan: plan.clone(),
            shaper: LinkShaper::new(),
            inflight: None,
        })
    }

    /// Peer `peer` requests from `helper` in `epoch`: remembers the
    /// request and returns whether its payload is lost (deterministic per
    /// `(peer, helper, epoch)` link; the peer's own RNG stream is never
    /// drawn).
    pub(crate) fn request(&mut self, peer: u64, helper: usize, epoch: u64) -> bool {
        self.inflight = Some((helper as u32, epoch));
        self.shaper.is_lost(&self.plan, peer, helper, epoch)
    }

    /// Shapes the reply to peer `peer`'s in-flight request through the
    /// link's impairments (bandwidth cap, token bucket).
    pub(crate) fn shape(&mut self, peer: u64, kbps: f64) -> f64 {
        match self.inflight.take() {
            Some((helper, epoch)) => {
                self.shaper.shape(&self.plan, peer, helper as usize, epoch, kbps)
            }
            None => kbps,
        }
    }
}

/// The peer-side state machine for one peer on its own: owns the learner,
/// its RNG stream, the demand cap, and the edge end of the impairment
/// layer (its link). Feedback is strictly local — a rate per epoch.
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
    link: Option<Box<Link>>,
}

impl PeerMachine {
    /// Wraps a live peer under the given impairment plan.
    pub fn new(peer: Peer, demand: Option<f64>, impairments: ImpairmentPlan) -> Self {
        Self { peer, demand, link: Link::under(&impairments).map(Box::new) }
    }

    /// Builds peer `id` exactly as `rths_sim::System::new` does (same
    /// learner spec, same per-entity RNG stream).
    pub fn from_config(
        sim: &SimConfig,
        id: u64,
        num_helpers: usize,
        impairments: ImpairmentPlan,
    ) -> Self {
        let learner = sim
            .learner
            .instantiate(num_helpers, sim.rate_scale())
            .expect("learner spec validated by construction");
        let peer = Peer::new(PeerId(id), learner, entity_rng(sim.seed, id), 0, 0);
        Self::new(peer, sim.demand, impairments)
    }

    /// Stable peer id.
    pub fn id(&self) -> u64 {
        self.peer.id().0
    }

    /// Epoch start: samples the learner and decides whether this epoch's
    /// payload is lost (deterministic per `(peer, helper, epoch)` link).
    pub fn on_tick(&mut self, epoch: u64) -> Selection {
        let helper = self.peer.choose_helper();
        let id = self.peer.id().0;
        // A plan that affects no rate loses nothing.
        let lost = self.link.as_deref_mut().is_some_and(|link| link.request(id, helper, epoch));
        Selection { helper, lost }
    }

    /// Delivers the raw rate from the helper; shapes it through the
    /// link's impairments (bandwidth cap, token bucket), applies the
    /// demand cap, feeds the learner, and returns the realized
    /// (observed) rate — the exact pipeline order of
    /// `rths_sim::System::step_epoch`, which is what keeps impaired runs
    /// bit-identical across backends.
    pub fn on_rate(&mut self, kbps: f64) -> f64 {
        let id = self.peer.id().0;
        let kbps = self.link.as_deref_mut().map_or(kbps, |link| link.shape(id, kbps));
        let (rate, satisfied) = cap_to_demand(kbps, self.demand);
        self.peer.deliver(rate, satisfied);
        rate
    }

    /// The wrapped peer (final reporting).
    pub fn peer(&self) -> &Peer {
        &self.peer
    }

    /// Unwraps the peer (final reporting).
    pub fn into_peer(self) -> Peer {
        self.peer
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

/// The helper-side state machine: a bandwidth process plus the even-split
/// allocation over whatever requests arrived. Generic over a per-request
/// attachment `T` handed back with the reply: the reactor addresses by
/// peer id and attaches nothing, tests attach an arrival tag.
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
        let load = self.pending.len();
        let share = self.helper.share(load);
        for (peer, lost, attachment) in self.pending.drain(..) {
            reply(peer, if lost { 0.0 } else { share }, attachment);
        }
        Settlement { load, capacity: self.helper.capacity() }
    }

    /// Availability change (failure injection).
    pub fn set_online(&mut self, online: bool) {
        self.helper.set_online(online);
    }
}

/// The columns the coordinator's messages fill each epoch — cleared and
/// refilled in place so steady-state epochs allocate nothing.
#[derive(Debug, Default)]
struct CoordScratch {
    /// Chosen helper per peer.
    chosen: Vec<u32>,
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
/// decision flows through it. Peers report in contiguous blocks
/// ([`on_shard_report`](Self::on_shard_report)) into index-addressed
/// columns, so the record sees the same inputs in the same order however
/// the blocks are cut and in whatever order they arrive.
#[derive(Debug)]
pub struct CoordinatorMachine {
    num_peers: usize,
    num_helpers: usize,
    /// The metric half of every epoch, over one channel that every helper
    /// serves with its whole capacity.
    metrics: EpochMetrics,
    /// Stretch-folded true-regret accounting — `O(n·h)` memory instead
    /// of the historical dense `n·h²` table (~650 MB at 2×10⁴ peers ×
    /// 64 helpers, ~3.3 GB at 10⁵), sharing the exact record arithmetic
    /// of the simulator's peer store (see `rths_sim::regret`).
    regret: RegretLedger,
    /// Per-shard maxima scratch for the sharded regret record phase.
    shard_max: Vec<f64>,
    /// Epoch fold of the learner-reported internal regret estimates
    /// (order-insensitive max over non-negatives).
    worst_estimate: f64,
    /// Each peer's helper of the previous epoch ([`NO_HELPER`] before
    /// its first).
    last_helper: Vec<u32>,
    scratch: CoordScratch,
    reports: usize,
    /// Peers whose `(chosen, rate, estimate)` is in for this epoch.
    reported: usize,
}

impl CoordinatorMachine {
    /// Creates the coordinator for a fixed population.
    pub fn new(sim: &SimConfig, helper_min: f64) -> Self {
        let n = sim.num_peers;
        let h = sim.helpers.len();
        let mut regret = RegretLedger::new(&[h]);
        for _ in 0..n {
            regret.add_peer();
        }
        Self {
            num_peers: n,
            num_helpers: h,
            metrics: EpochMetrics::new(h, helper_min, vec![sim.demand], vec![(0..h).collect()]),
            regret,
            shard_max: Vec::new(),
            worst_estimate: 0.0,
            last_helper: vec![NO_HELPER; n],
            scratch: CoordScratch::default(),
            reports: 0,
            reported: 0,
        }
    }

    /// Epochs completed so far: the index of the epoch in flight.
    pub fn epoch(&self) -> u64 {
        self.metrics.series().epochs() as u64
    }

    /// Resets per-epoch progress and scratch (no allocation in steady
    /// state: buffers retain their capacity across epochs).
    pub fn begin_epoch(&mut self) {
        let CoordScratch { chosen, loads, capacities, rates } = &mut self.scratch;
        chosen.clear();
        chosen.resize(self.num_peers, 0);
        loads.clear();
        loads.resize(self.num_helpers, 0);
        capacities.clear();
        capacities.resize(self.num_helpers, 0.0);
        rates.clear();
        rates.resize(self.num_peers, 0.0);
        self.reports = 0;
        self.reported = 0;
        self.worst_estimate = 0.0;
    }

    /// A peer committed to a helper. The mesh reports the choice with the
    /// realized rate instead ([`on_shard_report`](Self::on_shard_report));
    /// this per-peer entry stays for the benchmark's coordinator probe,
    /// which prices one message per peer. The peer counts as reported
    /// once its [`on_observed`](Self::on_observed) arrives.
    pub fn on_selected(&mut self, peer: u64, helper: usize) {
        self.scratch.chosen[peer as usize] = helper as u32;
    }

    /// A helper settled the epoch.
    pub fn on_helper_report(&mut self, helper: usize, load: usize, capacity: f64) {
        self.scratch.loads[helper] = load;
        self.scratch.capacities[helper] = capacity;
        self.reports += 1;
    }

    /// A peer observed its realized rate. `estimate` is the peer's
    /// learner-reported internal regret estimate (its virtual-play `Q`
    /// maximum; `0.0` when estimate tracking is disabled) — folded into
    /// the epoch's `worst_regret_estimate` with an order-insensitive max
    /// over non-negatives, so arrival order cannot perturb the series.
    /// Like [`on_selected`](Self::on_selected), the mesh no longer sends
    /// it: it stays for the benchmark's coordinator probe.
    pub fn on_observed(&mut self, peer: u64, rate: f64, estimate: f64) {
        self.scratch.rates[peer as usize] = rate;
        self.worst_estimate = self.worst_estimate.max(estimate);
        self.reported += 1;
    }

    /// Peers `first .. first + chosen.len()` report their epoch at once:
    /// peer `first + k` chose helper `chosen[k]` and realized `rates[k]`,
    /// and `estimate` is the largest internal regret estimate among them
    /// — the fold [`on_observed`](Self::on_observed) applies per peer,
    /// so any cut of the population into blocks, arriving in any order,
    /// records the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the columns differ in length or the block runs past the
    /// population.
    pub fn on_shard_report(
        &mut self,
        first: usize,
        chosen: &[u32],
        rates: &[f64],
        estimate: f64,
    ) {
        assert_eq!(chosen.len(), rates.len(), "a block reports both columns");
        let block = first..first + chosen.len();
        self.scratch.chosen[block.clone()].copy_from_slice(chosen);
        self.scratch.rates[block].copy_from_slice(rates);
        self.worst_estimate = self.worst_estimate.max(estimate);
        self.reported += chosen.len();
    }

    /// The epoch's columns as ingested — chosen helper and realized rate
    /// per peer, reported load and capacity per helper — for the
    /// allocation invariant tests. Between epochs they hold the last
    /// finished one.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> (&[u32], &[f64], &[usize], &[f64]) {
        let CoordScratch { chosen, loads, capacities, rates } = &self.scratch;
        (chosen, rates, loads, capacities)
    }

    /// Every helper report and every peer's epoch is in.
    pub fn epoch_complete(&self) -> bool {
        self.reports == self.num_helpers && self.reported == self.num_peers
    }

    /// Records the epoch: the stretch-folded regret record (the function
    /// the simulator's observe phase calls, see `rths_sim::regret`), then
    /// [`EpochMetrics`] fed what the messages reported. With one channel
    /// the per-helper columns are the (helper, channel) tables, and a
    /// helper's reported capacity is its channel's bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is not [`complete`](Self::epoch_complete).
    pub fn finish_epoch(&mut self) {
        assert!(self.epoch_complete(), "finish_epoch before all reports arrived");
        let CoordScratch { chosen, loads, capacities, rates } = &self.scratch;
        let (offsets, join_rates) = self.metrics.allocation(loads, capacities);
        self.regret.advance_epoch(offsets, join_rates);
        // The record is sharded over contiguous peer ranges with a
        // shard-ordered max reduction. The worker count is capped so each
        // shard amortizes its spawn (`rths_par::MIN_ITEMS_PER_WORKER`);
        // the result is bit-identical at any shard count.
        let shards =
            rths_par::threads().min(self.num_peers / rths_par::MIN_ITEMS_PER_WORKER).max(1);
        let emp = self.regret.record_all_max(chosen, rates, shards, &mut self.shard_max);
        self.metrics.settle(rates, |_| 0, capacities.iter().sum());
        let mut switched = 0;
        for (last, &now) in self.last_helper.iter_mut().zip(chosen.iter()) {
            if *last != NO_HELPER && *last != now {
                switched += 1;
            }
            *last = now;
        }
        // The estimate series is the learner-reported virtual-play `Q`
        // maxima the peers attach to their reports — the same
        // derivation the simulator's observe phase uses, not a copy of
        // the empirical series (the two agree only in the limit).
        self.metrics.record(emp, Some(self.worst_estimate), switched);
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
    use rths_sim::{BandwidthSpec, Scenario, SimConfig};

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
        assert_eq!(m.into_peer().continuity(), 0.5);
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
    /// whose plan shapes no rate — none, or delivery delays only — holds
    /// neither.
    #[test]
    fn clean_links_hold_neither_plan_nor_link_state() {
        let sim = small_sim();
        let delays = ImpairmentPlan::builder(9).latency(vec![1, 3], 0.8).build().unwrap();
        for plan in [ImpairmentPlan::none(), delays.with_jitter(5)] {
            assert!(PeerMachine::from_config(&sim, 0, 2, plan).link.is_none());
        }
        let lossy = ImpairmentPlan::builder(9).uniform_loss(0.1).build().unwrap();
        assert!(PeerMachine::from_config(&sim, 0, 2, lossy).link.is_some());
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
        c.on_helper_report(0, 2, 800.0);
        c.on_helper_report(1, 2, 800.0);
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
