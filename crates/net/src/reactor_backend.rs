//! The event-loop backend: the whole actor mesh on one `rths_reactor`.
//!
//! Every peer, every helper, the tracker and the coordinator is a
//! poll-driven [`Actor`] on a single [`Reactor`]: one thread (plus
//! optional `RTHS_THREADS` workers the reactor shards rounds across) hosts
//! thousands of actors. All result-bearing arithmetic is the simulator's
//! own, through [`crate::machines`] and the peer store; this module only
//! adds addressing:
//!
//! * actor 0 is the coordinator, actor 1 the tracker, then `h` helpers,
//!   then `n` peers (ids dense, in that order);
//! * peers learn the helper address range from the tracker
//!   ([`TrackerNode`]) at bootstrap — a directory, not a controller;
//! * each mailbox shard's peers are one [`PeerShard`], a
//!   `rths_sim::PeerStore` block (learners, RNG streams, accounting,
//!   switch counts, link state) that the reactor lends to the handling
//!   actor ([`Ctx::shard`]; no lock). The shard's one `Tick` of an epoch
//!   runs the store's choose phase and sends every `Request`. Once the
//!   `Rate` of its last slot and the coordinator's [`NetMsg::JoinRates`]
//!   are both in, in either order, it runs its shape and observe phases —
//!   the observe records its peers' true regret against those join rates —
//!   and sends the coordinator one [`NetMsg::ShardReport`]. A peer actor
//!   keeps protocol state only;
//! * a helper actor splits its capacity over its requests with the
//!   simulator's allocate phase ([`HelperMachine`]); the coordinator turns
//!   the helpers' reports into the epoch's join rates and sends them to
//!   every mailbox shard that hosts peers;
//! * [`ImpairmentPlan`] drops ride the request's `lost` flag (the store's
//!   loss decision for the link); jitter and latency are timer-wheel
//!   delays of each `Request` and helper `Tick`, the plan's seeded
//!   per-`(actor, epoch)` draw.
//!
//! A peer-epoch is therefore two messages, `Request` and `Rate`, plus its
//! share of the shard's `Tick` and `JoinRates`. Slot-ordered passes give
//! the bits arrival order gave: per-slot updates are independent, and the
//! coordinator starts epoch `e + 1` only once every shard has reported
//! `e`. Timers fire only when the mesh is otherwise quiescent, so the
//! plan seed permutes the order in which requests reach a helper. The settle
//! barrier is a timer as well: each helper's `Settle` fires one logical
//! tick after the plan's largest delay, by which time every request has
//! been delivered. None of the schedule may show in the outcome. With
//! equal seeds the backend reproduces the simulator bit-for-bit at any
//! `RTHS_THREADS` and under any such schedule; the workspace-level
//! `sim_net_equivalence` test pins both.

use rths_obs::{self as obs, ObsScratch, Phase};
use rths_reactor::{Actor, ActorId, Ctx, Reactor, ReactorStats, SHARD_SPAN};
use rths_sim::epoch_metrics::cap_to_demand;
use rths_sim::store::{PeerStore, ShardScratch};
use rths_sim::ImpairmentPlan;

use crate::machines::{instantiate_helpers, CoordinatorMachine, HelperMachine};
use crate::runtime::{MessageTotals, NetConfig, NetOutcome};

/// Jitter stream offset for helper actors: helper `j` draws its delays as
/// actor `HELPER_JITTER_BASE + j`, disjoint from the peers' (peer id)
/// streams.
const HELPER_JITTER_BASE: u64 = 0x4000_0000;

/// The coordinator's address: actor 0 of every mesh.
const COORDINATOR: ActorId = ActorId(0);

// The peer actor is what a 10⁵-actor mesh is made of, and every byte of
// it crosses the cache twice an epoch: the other roles are boxed, so the
// enum is the size of `PeerNode`.
const _: () = assert!(std::mem::size_of::<NetActor>() <= 64);

/// The reactor hosting a (full or partitioned) mesh: [`NetActor`]s, and
/// a [`PeerShard`] beside every mailbox shard that hosts peers.
pub(crate) type MeshReactor = Reactor<NetActor, Option<Box<PeerShard>>>;

/// What a mesh actor's handler reaches the reactor through.
type MeshCtx<'a> = Ctx<'a, NetMsg, Option<Box<PeerShard>>>;

/// Wire messages of the reactor mesh (one enum multiplexing every role).
#[derive(Debug)]
pub enum NetMsg {
    /// Driver → coordinator: run this many further epochs.
    Run {
        /// Epochs to execute.
        epochs: u64,
    },
    /// Coordinator → tracker: publish the helper directory to all peers.
    Publish,
    /// Tracker → peer: the helper address range (bootstrap response).
    Directory {
        /// Actor id of helper 0.
        helper_base: usize,
        /// Number of helpers.
        num_helpers: usize,
    },
    /// Tracker → coordinator: every peer has been sent the directory.
    Published,
    /// Coordinator → coordinator (via the timer wheel): start the next
    /// epoch one logical tick later — the epoch barrier lives on the
    /// wheel.
    NextEpoch,
    /// Coordinator → helper or mailbox shard (its first peer): new epoch.
    Tick {
        /// Epoch number.
        epoch: u64,
    },
    /// Peer (sent by its shard's `Tick`) → helper: one streaming request.
    Request {
        /// Requesting peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Data-plane fault: connection counted, payload lost.
        lost: bool,
    },
    /// Coordinator → helper (via the timer wheel, one tick after the
    /// plan's largest delay): all requests are in; allocate and reply.
    Settle {
        /// Epoch number.
        epoch: u64,
    },
    /// Helper → peer: the realized streaming rate.
    Rate {
        /// Epoch number.
        epoch: u64,
        /// Delivered rate (kbps), before any demand cap.
        kbps: f64,
    },
    /// Peer → coordinator: committed to a helper. The mesh no longer
    /// sends it (peers report through [`NetMsg::ShardReport`]); the
    /// variant and its wire tag stay for the benchmark's probes.
    Selected {
        /// Peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Chosen helper index.
        helper: usize,
    },
    /// Helper → coordinator: settled the epoch.
    HelperReport {
        /// Helper index.
        helper: usize,
        /// Epoch number.
        epoch: u64,
        /// Connected peers.
        load: usize,
        /// Capacity this epoch (kbps).
        capacity: f64,
    },
    /// Peer → coordinator: observed the realized rate. Like `Selected`,
    /// kept only for the benchmark's probes.
    Observed {
        /// Peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Realized (demand-capped) rate.
        rate: f64,
        /// The learner's internal regret estimate after the observation
        /// (`0.0` when tracking is disabled).
        estimate: f64,
    },
    /// Driver → helper: availability change (failure injection).
    SetOnline(bool),
    /// Coordinator → mailbox shard (its first peer), once every helper has
    /// reported: the epoch's join rates, one per helper — what each of the
    /// shard's peers measures its true regret against.
    JoinRates {
        /// Epoch number.
        epoch: u64,
        /// Join rate per helper (kbps).
        rates: Vec<f64>,
    },
    /// Peer → coordinator: every peer of one mailbox shard has observed
    /// its rate. Boxed, so the enum stays the size of its per-peer
    /// variants.
    ShardReport(Box<ShardReport>),
}

/// One mailbox shard's peers' epoch, as the coordinator ingests it
/// ([`CoordinatorMachine::on_shard_report`]).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Epoch number.
    pub epoch: u64,
    /// Peer index of the block's first peer.
    pub first: u64,
    /// Realized (demand-capped) rate of each peer of the block, from
    /// `first` on.
    pub rates: Vec<f64>,
    /// The largest internal regret estimate the block's learners reported
    /// after their observations (`0.0` when tracking is disabled).
    pub estimate: f64,
    /// The largest time-averaged true regret among the block's peers
    /// after this epoch's record.
    pub empirical: f64,
    /// Helper switches the block's peers made this epoch.
    pub switches: u64,
}

/// The peers of one mailbox shard — slot `k` is peer `first + k` — and
/// how far their epoch has got.
#[derive(Debug)]
pub struct PeerShard {
    /// A single-shard [`PeerStore::into_block`]: the reactor already
    /// spreads its shards over the `rths_par` workers. Its ledger records
    /// the block's true regret.
    store: PeerStore,
    /// Actor id of slot 0's peer.
    first_actor: usize,
    demand: Option<f64>,
    track_estimate: bool,
    /// The epoch `chosen` was sampled for.
    chosen_epoch: Option<u64>,
    /// The choose phase's columns: helper per slot (the report's), and
    /// an unused side column (one channel: the action is the helper).
    chosen: Vec<u32>,
    aux: Vec<u32>,
    /// Rate per slot as it arrives; the shape phase's output (empty on
    /// clean links); the demand-capped rates the learners observed (the
    /// report's).
    rates: Vec<f64>,
    shaped: Vec<f64>,
    delivered: Vec<f64>,
    /// Slots rated this epoch.
    filled: usize,
    /// The epoch's join rates, one per helper, once the coordinator's
    /// arrived.
    join_rates: Option<Vec<f64>>,
    /// The (empty) load histogram and the phases' scratch.
    loads: Vec<usize>,
    scratch: Vec<ShardScratch>,
}

impl PeerShard {
    /// Peers `first .. first + len`, the first of them actor
    /// `first_actor`, built exactly as `rths_sim::System::new` builds
    /// them (same learner spec, same per-peer RNG streams).
    fn new(config: &NetConfig, first_actor: usize, first: u64, len: usize) -> Self {
        let sim = &config.sim;
        let helpers = [sim.helpers.len()];
        let mut store =
            PeerStore::new(sim.seed, sim.learner.clone(), sim.rate_scale(), &helpers)
                .into_block(first)
                .with_impairment(sim.impairment.clone());
        store.set_shards(Some(1));
        store.reserve(len);
        for _ in 0..len {
            store.join(0);
        }
        Self {
            store,
            first_actor,
            demand: sim.demand,
            track_estimate: config.track_estimate,
            chosen_epoch: None,
            chosen: vec![0; len],
            aux: vec![0; len],
            rates: vec![0.0; len],
            shaped: Vec::new(),
            delivered: vec![0.0; len],
            filled: 0,
            join_rates: None,
            loads: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The choose phase over every slot, once an epoch (a second pass
    /// would draw every learner again and fork the trajectory); returns
    /// the slot count.
    fn choose(&mut self, epoch: u64, obs: &mut ObsScratch) -> usize {
        assert_ne!(self.chosen_epoch.replace(epoch), Some(epoch), "a shard ticked twice");
        self.store.choose_phase(
            &mut self.chosen,
            &mut self.aux,
            &mut self.loads,
            0,
            &mut self.scratch,
            |_, _, _, _, _| {},
        );
        self.hand_obs_to(obs);
        self.chosen.len()
    }

    /// The request of the peer in `slot` for `epoch`, once chosen: its
    /// delay, its helper's index and the message.
    fn request(&mut self, slot: usize, epoch: u64) -> (u64, usize, NetMsg) {
        let (peer, helper) = (self.store.id(slot), self.chosen[slot] as usize);
        let lost = self.store.is_lost(slot, helper, epoch);
        let delay = self.store.impairment().jitter_ticks(peer, epoch);
        (delay, helper, NetMsg::Request { peer, epoch, lost })
    }

    /// Peer actor `actor` received `kbps` in `epoch`; returns the report
    /// if that completes the shard's epoch.
    fn rated(
        &mut self,
        actor: ActorId,
        epoch: u64,
        kbps: f64,
        obs: &mut ObsScratch,
    ) -> Option<Box<ShardReport>> {
        self.rates[actor.0 - self.first_actor] = kbps;
        self.filled += 1;
        self.complete(epoch, obs)
    }

    /// The coordinator's join rates for `epoch` arrived; returns the
    /// report if that completes the shard's epoch.
    fn joined(
        &mut self,
        epoch: u64,
        rates: Vec<f64>,
        obs: &mut ObsScratch,
    ) -> Option<Box<ShardReport>> {
        assert!(self.join_rates.replace(rates).is_none(), "join rates arrived twice");
        self.complete(epoch, obs)
    }

    /// The epoch's report, once every slot is rated and the join rates
    /// are in, whichever came last.
    fn complete(&mut self, epoch: u64, obs: &mut ObsScratch) -> Option<Box<ShardReport>> {
        if self.filled < self.chosen.len() {
            return None;
        }
        let join_rates = self.join_rates.take()?;
        Some(self.observe(epoch, &join_rates, obs))
    }

    /// The shape phase (a lost payload arrived as 0 kbps, and the pass
    /// reads the loss its request carried back from each link's memo),
    /// then the observe phase over every slot — bandit feedback,
    /// accounting, the true-regret record against `join_rates`, the
    /// estimate — and the report.
    /// Kept out of line: one message in a shard's thousand runs it, and
    /// the others stay a few instructions.
    #[inline(never)]
    fn observe(
        &mut self,
        epoch: u64,
        join_rates: &[f64],
        obs: &mut ObsScratch,
    ) -> Box<ShardReport> {
        self.filled = 0;
        let arrived = &self.rates;
        let shaped =
            self.store
                .shape_phase(&self.chosen, epoch, &mut self.shaped, |slot, _, _| arrived[slot]);
        let (rates, demand) = (if shaped { &self.shaped } else { arrived }, self.demand);
        let (estimate, empirical) = self.store.observe_phase(
            &self.chosen,
            &mut self.delivered,
            &[0, join_rates.len()],
            join_rates,
            &mut self.scratch,
            self.track_estimate,
            |slot, _, _| cap_to_demand(rates[slot], demand),
        );
        self.hand_obs_to(obs);
        Box::new(ShardReport {
            epoch,
            first: self.store.id(0),
            rates: self.delivered.clone(),
            estimate,
            empirical,
            switches: self.store.new_switches(),
        })
    }

    /// Moves what the phase traced into the draining worker's scratch.
    fn hand_obs_to(&mut self, worker: &mut ObsScratch) {
        if obs::enabled() {
            for shard in &mut self.scratch {
                worker.take_from(&mut shard.obs);
            }
        }
    }
}

/// The coordinator actor: drives epochs with the shared
/// [`CoordinatorMachine`] and the timer wheel as its barrier clock.
#[derive(Debug)]
pub struct CoordNode {
    machine: CoordinatorMachine,
    remaining: u64,
    bootstrapped: bool,
    tracker: ActorId,
    helper_base: usize,
    num_helpers: usize,
    /// The first peer of each mailbox shard that hosts peers.
    shards: Vec<ActorId>,
    impairments: ImpairmentPlan,
    control: u64,
}

impl CoordNode {
    /// Takes a helper's report; the last one's join rates go to every
    /// mailbox shard that hosts peers, inside one `RateAlloc` span of the
    /// draining worker. Uncounted like the shard ticks: their number is
    /// the span's.
    fn on_helper_report(
        &mut self,
        helper: usize,
        load: usize,
        capacity: f64,
        ctx: &mut MeshCtx<'_>,
    ) {
        let t_alloc = obs::span_start();
        let epoch = self.machine.epoch();
        let Some(rates) = self.machine.on_helper_report(helper, load, capacity) else {
            return;
        };
        for &first in &self.shards {
            ctx.send(first, NetMsg::JoinRates { epoch, rates: rates.to_vec() });
        }
        if let Some(t) = t_alloc {
            ctx.shard().1.spans.record(Phase::RateAlloc, t);
        }
    }

    fn start_epoch(&mut self, ctx: &mut MeshCtx<'_>) {
        self.machine.begin_epoch();
        let epoch = self.machine.epoch();
        if obs::enabled() {
            // Tag subsequent reactor-round spans (mailbox sort/deliver/
            // drain, timer flush) with the epoch now in flight. Rounds
            // read the tag at round start, so a round straddling the
            // boundary carries the previous epoch's tag.
            obs::set_epoch(epoch);
        }
        let plan = &self.impairments;
        for j in 0..self.num_helpers {
            self.control += 1;
            let delay = plan.jitter_ticks(HELPER_JITTER_BASE + j as u64, epoch);
            ctx.send_after(delay, ActorId(self.helper_base + j), NetMsg::Tick { epoch });
        }
        // Uncounted like the shards' reports: their number is the span's.
        for &first in &self.shards {
            ctx.send(first, NetMsg::Tick { epoch });
        }
        // The settle barrier: nothing is delayed past the plan's largest
        // draw, and a timer fires only once the mesh is quiescent, so one
        // tick later every request has reached its helper.
        let latest = plan.jitter_us().saturating_sub(1)
            + plan.latency().map_or(0, |lat| lat.ticks.iter().copied().max().unwrap_or(0));
        for j in 0..self.num_helpers {
            self.control += 1;
            ctx.send_after(latest + 1, ActorId(self.helper_base + j), NetMsg::Settle { epoch });
        }
    }

    fn maybe_finish_epoch(&mut self, ctx: &mut MeshCtx<'_>) {
        if !self.machine.epoch_complete() {
            return;
        }
        // The epoch's close, named inside the drain that runs it.
        let t_settle = obs::span_start();
        self.machine.finish_epoch();
        if let Some(t) = t_settle {
            ctx.shard().1.spans.record(Phase::Settle, t);
        }
        self.remaining -= 1;
        if self.remaining > 0 {
            // Next epoch one logical tick later: the barrier is a timer.
            ctx.send_after(1, ctx.me(), NetMsg::NextEpoch);
        }
    }
}

/// The tracker actor: a directory, not a controller — it hands every
/// peer the helper address range and acks to the coordinator.
#[derive(Debug)]
pub struct TrackerNode {
    helper_base: usize,
    num_helpers: usize,
    peer_base: usize,
    num_peers: usize,
}

/// A helper actor wrapping the shared [`HelperMachine`].
///
/// Its `Settle` is a timer one logical tick after the plan's largest
/// delay, so it never overtakes the helper's own (delayed) tick: capacity
/// steps before allocation in every schedule.
#[derive(Debug)]
pub struct HelperNode {
    machine: HelperMachine<()>,
    index: usize,
    peer_base: usize,
    /// Epoch of the last processed `Tick`.
    ticked_epoch: Option<u64>,
    control: u64,
    data: u64,
}

impl HelperNode {
    /// Splits the helper's capacity over its requests, sends each peer its
    /// rate and the coordinator the helper's report, all inside one
    /// `RateAlloc` span of the draining worker.
    fn settle(&mut self, epoch: u64, ctx: &mut MeshCtx<'_>) {
        let t_alloc = obs::span_start();
        let HelperNode { machine, peer_base, data, .. } = self;
        let settlement = machine.on_settle(|peer, kbps, ()| {
            *data += 1;
            ctx.send(ActorId(*peer_base + peer as usize), NetMsg::Rate { epoch, kbps });
        });
        self.control += 1;
        ctx.send(
            COORDINATOR,
            NetMsg::HelperReport {
                helper: self.index,
                epoch,
                load: settlement.load,
                capacity: settlement.capacity,
            },
        );
        if let Some(t) = t_alloc {
            ctx.shard().1.spans.record(Phase::RateAlloc, t);
        }
    }
}

/// A peer actor: protocol state only (its learner and its link state are
/// a slot of its shard's [`PeerShard`]).
#[derive(Debug)]
pub struct PeerNode {
    /// Actor id of helper 0, learned from the tracker at bootstrap.
    helper_base: Option<u32>,
    control: u64,
}

/// Any actor of the mesh (the reactor hosts one concrete type).
#[derive(Debug)]
pub enum NetActor {
    /// The epoch-driving coordinator (boxed: its metrics dwarf the
    /// per-peer state the enum is sized for).
    Coordinator(Box<CoordNode>),
    /// The bootstrap directory (boxed, like the helpers: one of it per
    /// mesh, and the enum is sized for peers).
    Tracker(Box<TrackerNode>),
    /// A helper node.
    Helper(Box<HelperNode>),
    /// A viewer peer.
    Peer(PeerNode),
}

/// The handling peer's shard, and the draining worker's trace scratch.
fn peer_shard<'c>(ctx: &'c mut MeshCtx<'_>) -> (&'c mut PeerShard, &'c mut ObsScratch) {
    let (shard, obs) = ctx.shard();
    (shard.as_deref_mut().expect("a peer's shard hosts its block"), obs)
}

impl Actor<Option<Box<PeerShard>>> for NetActor {
    type Msg = NetMsg;

    fn on_message(&mut self, msg: NetMsg, ctx: &mut MeshCtx<'_>) {
        match self {
            NetActor::Coordinator(node) => match msg {
                NetMsg::Run { epochs } => {
                    let idle = node.remaining == 0;
                    node.remaining += epochs;
                    if !node.bootstrapped {
                        ctx.send(node.tracker, NetMsg::Publish);
                    } else if idle && node.remaining > 0 {
                        node.start_epoch(ctx);
                    }
                }
                NetMsg::Published => {
                    node.bootstrapped = true;
                    if node.remaining > 0 {
                        node.start_epoch(ctx);
                    }
                }
                NetMsg::NextEpoch => node.start_epoch(ctx),
                NetMsg::HelperReport { helper, load, capacity, epoch } => {
                    debug_assert_eq!(epoch, node.machine.epoch());
                    node.on_helper_report(helper, load, capacity, ctx);
                    node.maybe_finish_epoch(ctx);
                }
                NetMsg::ShardReport(report) => {
                    debug_assert_eq!(report.epoch, node.machine.epoch());
                    node.machine.on_shard_report(
                        report.first as usize,
                        &report.rates,
                        report.estimate,
                        report.empirical,
                        report.switches,
                    );
                    node.maybe_finish_epoch(ctx);
                }
                other => unreachable!("coordinator got {other:?}"),
            },
            NetActor::Tracker(node) => match msg {
                NetMsg::Publish => {
                    for i in 0..node.num_peers {
                        ctx.send(
                            ActorId(node.peer_base + i),
                            NetMsg::Directory {
                                helper_base: node.helper_base,
                                num_helpers: node.num_helpers,
                            },
                        );
                    }
                    ctx.send(COORDINATOR, NetMsg::Published);
                }
                other => unreachable!("tracker got {other:?}"),
            },
            NetActor::Helper(node) => match msg {
                NetMsg::Tick { epoch } => {
                    node.machine.on_tick();
                    node.ticked_epoch = Some(epoch);
                }
                NetMsg::Request { peer, lost, .. } => node.machine.on_request(peer, lost, ()),
                NetMsg::Settle { epoch } => {
                    debug_assert_eq!(
                        node.ticked_epoch,
                        Some(epoch),
                        "Settle overtook its epoch's Tick"
                    );
                    node.settle(epoch, ctx);
                }
                NetMsg::SetOnline(online) => node.machine.set_online(online),
                other => unreachable!("helper got {other:?}"),
            },
            NetActor::Peer(node) => match msg {
                NetMsg::Directory { helper_base, .. } => {
                    let base = u32::try_from(helper_base).expect("helper ids fit in u32");
                    node.helper_base = Some(base);
                }
                NetMsg::Tick { epoch } => {
                    let base = node.helper_base.expect("peer ticked before bootstrap") as usize;
                    let (shard, obs) = peer_shard(ctx);
                    let len = shard.choose(epoch, obs);
                    for slot in 0..len {
                        let (delay, helper, request) = peer_shard(ctx).0.request(slot, epoch);
                        ctx.send_after(delay, ActorId(base + helper), request);
                    }
                    node.control += len as u64;
                }
                NetMsg::Rate { epoch, kbps } => {
                    let me = ctx.me();
                    let (shard, obs) = peer_shard(ctx);
                    if let Some(report) = shard.rated(me, epoch, kbps, obs) {
                        ctx.send(COORDINATOR, NetMsg::ShardReport(report));
                    }
                }
                NetMsg::JoinRates { epoch, rates } => {
                    let (shard, obs) = peer_shard(ctx);
                    if let Some(report) = shard.joined(epoch, rates, obs) {
                        ctx.send(COORDINATOR, NetMsg::ShardReport(report));
                    }
                }
                other => unreachable!("peer got {other:?}"),
            },
        }
    }
}

/// The event-loop runtime: hosts the whole mesh on one [`Reactor`].
///
/// It spawns **no OS threads of its own** — rounds run on the calling
/// thread, sharded across at most `RTHS_THREADS` scoped `rths_par`
/// workers.
pub struct ReactorRuntime {
    reactor: MeshReactor,
    coordinator: ActorId,
    helper_base: usize,
    num_helpers: usize,
    num_peers: usize,
    trace: bool,
}

impl std::fmt::Debug for ReactorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorRuntime")
            .field("peers", &self.num_peers)
            .field("helpers", &self.num_helpers)
            .field("logical_time", &self.reactor.now())
            .finish()
    }
}

/// Total actor count of the mesh `config` describes: coordinator,
/// tracker, helpers, peers — ids dense, in that order.
pub(crate) fn mesh_total(config: &NetConfig) -> usize {
    2 + config.sim.helpers.len() + config.sim.num_peers()
}

/// Adds the actors with global ids `base .. base + len` to `reactor`,
/// reproducing the full-mesh construction exactly over that range: every
/// caller runs the same master-RNG helper instantiation (RNG order is
/// global state), then keeps only the actors it owns. `span` is the
/// mailbox shard span: each shard's peers become one [`PeerShard`],
/// installed as that shard's state. Partitions are span-aligned, so a
/// block never crosses a partition boundary.
///
/// The single-process runtime is the `base = 0, len = total` case; the
/// multi-process workers call this with their partition range.
pub(crate) fn populate_mesh(
    reactor: &mut MeshReactor,
    config: &NetConfig,
    span: usize,
    base: usize,
    len: usize,
) {
    let sim = &config.sim;
    let impairments = &sim.impairment;
    let h = sim.helpers.len();
    let n = sim.num_peers();
    let helper_base = 2;
    let peer_base = helper_base + h;
    let end = base + len;
    debug_assert!(end <= mesh_total(config), "partition range exceeds the mesh");

    let (helpers, helper_min_total) = instantiate_helpers(sim);
    let mut helpers: Vec<Option<_>> = helpers.into_iter().map(Some).collect();
    for id in base..end.min(peer_base) {
        match id {
            0 => {
                reactor.add_actor(NetActor::Coordinator(Box::new(CoordNode {
                    machine: CoordinatorMachine::new(sim, helper_min_total),
                    remaining: 0,
                    bootstrapped: false,
                    tracker: ActorId(1),
                    helper_base,
                    num_helpers: h,
                    shards: (peer_base..peer_base + n)
                        .filter(|&a| a == peer_base || a % span == 0)
                        .map(ActorId)
                        .collect(),
                    impairments: impairments.clone(),
                    control: 0,
                })));
            }
            1 => {
                reactor.add_actor(NetActor::Tracker(Box::new(TrackerNode {
                    helper_base,
                    num_helpers: h,
                    peer_base,
                    num_peers: n,
                })));
            }
            id => {
                let index = id - helper_base;
                reactor.add_actor(NetActor::Helper(Box::new(HelperNode {
                    machine: HelperMachine::new(
                        helpers[index].take().expect("helper built once"),
                    ),
                    index,
                    peer_base,
                    ticked_epoch: None,
                    control: 0,
                    data: 0,
                })));
            }
        }
    }

    // Owned peer index range (peer 0 is actor `peer_base`).
    let p_start = base.saturating_sub(peer_base);
    let p_end = end.saturating_sub(peer_base).min(n);
    let mut start = p_start;
    while start < p_end {
        // Peers sharing a mailbox shard: actor ids
        // `peer_base + start ..` up to the next shard edge.
        let shard_end = ((peer_base + start) / span + 1) * span;
        let block_end = p_end.min(shard_end - peer_base);
        for _ in start..block_end {
            reactor.add_actor(NetActor::Peer(PeerNode { helper_base: None, control: 0 }));
        }
        let first_actor = peer_base + start;
        *reactor.shard_state_mut(ActorId(first_actor)) = Some(Box::new(PeerShard::new(
            config,
            first_actor,
            start as u64,
            block_end - start,
        )));
        start = block_end;
    }
}

/// What one partition contributes to the final [`NetOutcome`]: the
/// coordinator machine (rank 0 only), message totals, and per-peer
/// `(mean_rate, continuity)` summaries in ascending peer-id order.
pub(crate) struct PartitionHarvest {
    /// The coordinator's machine, when this partition owned actor 0.
    pub coordinator: Option<CoordinatorMachine>,
    /// Control/data totals over this partition's actors.
    pub messages: MessageTotals,
    /// Per-peer `(mean_rate, continuity)`, ascending peer id.
    pub peers: Vec<(f64, f64)>,
}

/// Consumes a (full or partitioned) mesh reactor and extracts its
/// contribution to the outcome.
pub(crate) fn harvest_partition(reactor: MeshReactor) -> PartitionHarvest {
    let mut harvest = PartitionHarvest {
        coordinator: None,
        messages: MessageTotals::default(),
        peers: Vec::new(),
    };
    // Shards in order, slots in order: ascending peer id.
    for shard in reactor.shard_states().flatten() {
        let store = &shard.store;
        harvest.peers.extend(
            (0..store.len()).map(|slot| (store.mean_rate(slot), store.continuity(slot))),
        );
    }
    for actor in reactor.into_actors() {
        match actor {
            NetActor::Coordinator(node) => {
                harvest.messages.control += node.control;
                harvest.coordinator = Some(node.machine);
            }
            NetActor::Tracker(_) => {}
            NetActor::Helper(node) => {
                harvest.messages.control += node.control;
                harvest.messages.data += node.data;
            }
            NetActor::Peer(node) => harvest.messages.control += node.control,
        }
    }
    harvest
}

impl PartitionHarvest {
    /// The run's outcome, once this harvest holds every partition's
    /// messages and peers: the coordinator's metrics summarised over the
    /// peers.
    pub fn into_outcome(self) -> NetOutcome {
        let coord = self.coordinator.expect("the harvest holds the coordinator");
        let metrics = coord.finalize_summaries(self.peers);
        NetOutcome {
            epochs: coord.epoch(),
            peer_mean_rates: metrics.mean_peer_rates.clone(),
            peer_continuity: metrics.peer_continuity.clone(),
            metrics,
            messages: self.messages,
        }
    }
}

impl ReactorRuntime {
    /// Builds the actor mesh described by `config` (same RNG derivation
    /// order as the simulator).
    pub fn new(config: NetConfig) -> Self {
        Self::with_span(config, SHARD_SPAN)
    }

    /// [`new`](Self::new) with `span`-actor mailbox shards.
    fn with_span(config: NetConfig, span: usize) -> Self {
        let h = config.sim.helpers.len();
        let n = config.sim.num_peers();
        let mut reactor = Reactor::with_shard_span(span);
        let total = mesh_total(&config);
        populate_mesh(&mut reactor, &config, span, 0, total);
        Self {
            reactor,
            coordinator: ActorId(0),
            helper_base: 2,
            num_helpers: h,
            num_peers: n,
            trace: config.trace,
        }
    }

    /// Takes a helper offline/online (failure injection); takes effect
    /// before the next epoch's tick.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_helper_online(&mut self, index: usize, online: bool) {
        assert!(index < self.num_helpers, "helper index {index} out of range");
        self.reactor.inject(ActorId(self.helper_base + index), NetMsg::SetOnline(online));
    }

    /// Runs `epochs` further epochs to completion (blocking the calling
    /// thread, which *is* the event loop).
    pub fn run_epochs(&mut self, epochs: u64) {
        self.reactor.inject(self.coordinator, NetMsg::Run { epochs });
        self.reactor.run_until_idle();
    }

    /// Scheduler counters (rounds, messages, timers) so far.
    pub fn stats(&self) -> ReactorStats {
        self.reactor.stats()
    }

    /// Finishes the run: consumes the mesh and aggregates the outcome.
    pub fn finish(self) -> NetOutcome {
        harvest_partition(self.reactor).into_outcome()
    }

    /// Runs `epochs` epochs and returns the outcome, consuming the
    /// runtime. When tracing, the reactor's own rounds record the mailbox
    /// spans and message counters, and the shards' learner passes their
    /// choose, decay and observe spans.
    pub fn run(mut self, epochs: u64) -> NetOutcome {
        let _trace_guard = self.trace.then(|| obs::scoped_enable(true));
        if obs::enabled() {
            obs::begin_run("net_reactor");
        }
        self.run_epochs(epochs);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::NetConfig;
    use rths_sim::{BandwidthSpec, Scenario, SimConfig};

    #[test]
    fn reactor_runs_without_threads() {
        let sim = Scenario::paper_small().seed(1).build();
        let out = ReactorRuntime::new(NetConfig::from_sim(sim)).run(30);
        assert_eq!(out.epochs, 30);
        assert_eq!(out.peer_mean_rates.len(), 10);
        assert_eq!(out.metrics.epochs(), 30);
    }

    #[test]
    fn loads_sum_to_population() {
        let sim = Scenario::paper_small().seed(2).build();
        let out = ReactorRuntime::new(NetConfig::from_sim(sim)).run(20);
        for e in 0..20 {
            let total: f64 = out.metrics.helper_loads.iter().map(|s| s.values()[e]).sum();
            assert_eq!(total, 10.0);
        }
    }

    #[test]
    fn epoch_barrier_rides_the_timer_wheel() {
        let sim = Scenario::paper_small().seed(3).build();
        let (h, epochs) = (4, 25);
        let mut rt = ReactorRuntime::new(NetConfig::from_sim(sim));
        rt.run_epochs(epochs);
        // Both barriers are timers: one NextEpoch per epoch after the
        // first, and one Settle per helper and epoch. No tick or request
        // is delayed here, so nothing else rides the wheel.
        assert_eq!(rt.stats().timers_fired, (epochs - 1) + h * epochs);
        let out = rt.finish();
        assert_eq!(out.epochs, epochs);
    }

    #[test]
    fn incremental_runs_accumulate() {
        let sim = Scenario::paper_small().seed(4).build();
        let mut rt = ReactorRuntime::new(NetConfig::from_sim(sim.clone()));
        rt.run_epochs(30);
        rt.run_epochs(30);
        let split = rt.finish();
        let whole = ReactorRuntime::new(NetConfig::from_sim(sim)).run(60);
        assert_eq!(split.epochs, 60);
        assert_eq!(split.metrics.welfare.values(), whole.metrics.welfare.values());
    }

    #[test]
    fn message_overhead_is_constant_per_peer() {
        // The paper's low-overhead claim, quantified. Per epoch and peer:
        // a Request (control) and one Rate (data); per helper: Tick,
        // Settle and HelperReport (control). So control = (n + 3h)·E and
        // data = n·E. The coordinator's one tick, one `JoinRates` and one
        // report per mailbox shard that hosts peers are left out: how many
        // there are depends on the shard span, not on the protocol.
        //
        // The reactor counts every delivery. With S such shards an epoch
        // delivers h helper Ticks, S shard Ticks, n Requests, h Settles,
        // n Rates, h HelperReports, S JoinRates and S ShardReports, and
        // every epoch but the last a NextEpoch; bootstrap delivers the
        // injected Run, a Publish, n Directories and a Published. So the
        // reactor delivers (2n + 3h + 3S + 1)·E − 1 + n + 3 messages.
        const EPOCHS: u64 = 100;
        for (scenario, n, h) in
            [(Scenario::paper_small(), 10, 4), (Scenario::paper_large(), 200, 20)]
        {
            for span in [SHARD_SPAN, 8, 1] {
                let sim = scenario.clone().seed(12).build();
                let mut rt = ReactorRuntime::with_span(NetConfig::from_sim(sim), span);
                rt.run_epochs(EPOCHS);
                let first = 2 + h as usize;
                let shards = ((first + n as usize - 1) / span - first / span + 1) as u64;
                let at = format!("n = {n}, span {span}");
                let messages = (2 * n + 3 * h + 3 * shards + 1) * EPOCHS + n + 2;
                assert_eq!(rt.stats().messages, messages, "{at}: reactor deliveries");
                let out = rt.finish();
                assert_eq!(out.messages.data, n * EPOCHS, "{at}: data");
                assert_eq!(out.messages.control, (n + 3 * h) * EPOCHS, "{at}: control");
            }
        }
        // Two per peer, plus the helpers' share: 3h/n = 0.3 at 10 peers
        // a helper.
        let out =
            ReactorRuntime::new(NetConfig::from_sim(Scenario::paper_large().seed(12).build()))
                .run(EPOCHS);
        let per_peer = out.messages.per_peer_per_epoch(200, EPOCHS);
        assert!(per_peer < 2.5, "overhead {per_peer} messages/peer/epoch");
    }

    /// The slab refuses a second choose while the first one's
    /// observations are pending. The shard also refuses one after them,
    /// for an epoch it has chosen for: it would redraw every learner and
    /// fork the trajectory.
    #[test]
    #[should_panic(expected = "a shard ticked twice")]
    fn a_second_tick_in_one_epoch_panics() {
        let config = NetConfig::from_sim(Scenario::paper_small().seed(1).build());
        let mut shard = PeerShard::new(&config, 6, 0, 10);
        let mut obs = ObsScratch::default();
        shard.choose(0, &mut obs);
        assert!(shard.joined(0, vec![200.0; 4], &mut obs).is_none());
        for actor in 6..16 {
            let _ = shard.rated(ActorId(actor), 0, 100.0, &mut obs);
        }
        shard.choose(0, &mut obs);
    }

    /// A shard observes and reports exactly once per epoch: at the later
    /// of its last slot's `Rate` and the coordinator's `JoinRates`,
    /// whichever arrives last — and the two orders record the same epoch.
    #[test]
    fn a_shard_reports_once_whichever_of_join_rates_and_its_last_rate_comes_last() {
        let config = NetConfig::from_sim(Scenario::paper_small().seed(1).build());
        let run = |join_first: fn(u64) -> bool| {
            let mut shard = PeerShard::new(&config, 6, 0, 10);
            let mut obs = ObsScratch::default();
            let mut reports = Vec::new();
            for epoch in 0..6u64 {
                shard.choose(epoch, &mut obs);
                let join = vec![(100 + 40 * epoch) as f64, 150.0, 90.0, 300.0];
                let mut arrivals = Vec::new();
                if join_first(epoch) {
                    arrivals.push(shard.joined(epoch, join.clone(), &mut obs));
                }
                for actor in 6..16u64 {
                    let kbps = (10 * actor + epoch) as f64;
                    arrivals.push(shard.rated(ActorId(actor as usize), epoch, kbps, &mut obs));
                }
                if !join_first(epoch) {
                    arrivals.push(shard.joined(epoch, join, &mut obs));
                }
                let last = arrivals.pop().flatten().expect("the last arrival reports");
                assert!(arrivals.iter().all(Option::is_none), "epoch {epoch}: early report");
                assert_eq!((last.epoch, last.first), (epoch, 0));
                assert!(last.empirical > 0.0, "epoch {epoch}: no regret recorded");
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                reports.push((bits(&last.rates), last.estimate.to_bits(), last.empirical));
            }
            reports
        };
        let joins_first = run(|_| true);
        assert_eq!(run(|_| false), joins_first);
        assert_eq!(run(|epoch| epoch % 2 == 0), joins_first);
    }

    /// Like `PeerMachine`'s `clean_links_hold_neither_plan_nor_link_state`:
    /// under a plan that shapes no rate — none, or delivery delays only —
    /// an epoch leaves every shard's shaped column empty (its store's
    /// shape phase has no link to shape); under a lossy one, each slot's
    /// rate went through its link.
    #[test]
    fn clean_links_cost_the_shard_nothing() {
        let delays = ImpairmentPlan::builder(9).latency(vec![1, 3], 0.8).build().unwrap();
        let lossy = ImpairmentPlan::builder(9).uniform_loss(0.1).build().unwrap();
        for (plan, linked) in
            [(ImpairmentPlan::none(), false), (delays.with_jitter(5), false), (lossy, true)]
        {
            let sim = SimConfig::builder(20, vec![BandwidthSpec::Constant(800.0); 2])
                .impairment(plan)
                .build();
            let mut rt = ReactorRuntime::with_span(NetConfig::from_sim(sim), 8);
            rt.run_epochs(1);
            for shard in rt.reactor.shard_states().flatten() {
                let links = if linked { shard.store.len() } else { 0 };
                assert_eq!(shard.shaped.len(), links, "linked: {linked}");
            }
        }
    }

    /// The epoch's columns — the shards' chosen helpers, and the rates
    /// (as bits), loads and capacities (as bits) the coordinator ingested
    /// — once every invariant of
    /// `every_epoch_allocates_within_helper_capacity` holds on them.
    fn checked_columns(
        rt: &ReactorRuntime,
        peers: usize,
        delta: f64,
        at: &str,
    ) -> (Vec<u32>, Vec<u64>, Vec<usize>, Vec<u64>) {
        let NetActor::Coordinator(coord) = rt.reactor.actor(COORDINATOR) else {
            unreachable!("actor 0 is the coordinator")
        };
        let (rates, loads, capacities) = coord.machine.columns();
        // Shards in order, slots in order: ascending peer id.
        let chosen: Vec<u32> =
            rt.reactor.shard_states().flatten().flat_map(|s| s.chosen.clone()).collect();
        assert_eq!(loads.iter().sum::<usize>(), peers, "{at}: loads");
        for (j, (&load, &capacity)) in loads.iter().zip(capacities).enumerate() {
            let mut choosers = 0;
            let mut delivered = 0.0;
            for (&helper, &rate) in chosen.iter().zip(rates) {
                if helper as usize == j {
                    choosers += 1;
                    delivered += rate;
                }
            }
            assert_eq!(choosers, load, "{at}: helper {j}'s choosers");
            let slack = capacity * load as f64 * f64::EPSILON;
            assert!(
                delivered <= capacity + slack,
                "{at}: helper {j} delivered {delivered} of {capacity}"
            );
        }
        // Every peer's strategy is a distribution with the exploration
        // floor δ/m (see `SlabCols::observe`).
        for shard in rt.reactor.shard_states().flatten() {
            for slot in 0..shard.store.len() {
                let learner = shard.store.learner(slot);
                let row = learner.probabilities();
                let m = row.len() as f64;
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() <= m * f64::EPSILON, "{at}: row sums to {sum}");
                let floor = delta / m - 1e-12;
                assert!(row.iter().all(|&p| p >= floor), "{at}: {row:?} < δ/m");
            }
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
        (chosen, bits(rates), loads.to_vec(), bits(capacities))
    }

    /// Every epoch, in the columns the coordinator ingested: the loads sum
    /// to the population, each helper's choosers number exactly its
    /// reported load, and the rates they realized sum to at most its
    /// reported capacity `c`. A chooser of a helper with load `L` realizes
    /// at most the even share `fl(c / L) ≤ (c / L)(1 + u)`, `u = ε / 2`
    /// (less after a loss, a link cap, the token bucket or the demand
    /// cap), and summing `L` such terms multiplies by at most
    /// `(1 + u)^(L − 1)`. The sum is thus at most `c·(1 + u)^L`, under
    /// `c·(1 + L·ε)` while `L·ε ≪ 1`: a slack of `L` ulps-worth of `c`.
    ///
    /// Each plan runs at two shard spans. At span 1 every peer is its own
    /// shard, so each shard tick sends exactly one request: a tick per
    /// peer. Shards of 8 actors cut the 45 peers into seven
    /// blocks, the first and last partial, so a block ingested at the
    /// wrong `first` leaves rates at the previous epoch's values, out of
    /// line with the shards' choices. A latency ladder delays requests past the jitter
    /// bound, and both spans must hand the coordinator the same columns,
    /// bit for bit, every epoch.
    #[test]
    fn every_epoch_allocates_within_helper_capacity() {
        const PEERS: usize = 45;
        const HELPERS: usize = 3;
        const EPOCHS: u64 = 12;
        const SPANS: [usize; 2] = [1, 8];
        for threads in [1, 2] {
            rths_par::with_threads(threads, || {
                for seed in 0..16 {
                    let plan = ImpairmentPlan::builder(seed)
                        .gilbert_loss(0.1, 0.3, 0.8, 0.05)
                        .token_bucket(300.0, 700.0)
                        .jitter_us(1 + seed % 7)
                        .latency(vec![0, 3, 9], 0.7)
                        .build()
                        .expect("valid impairment plan");
                    let sim = SimConfig::builder(
                        PEERS,
                        vec![BandwidthSpec::Paper { stay: 0.9 }; HELPERS],
                    )
                    .demand(350.0)
                    .seed(seed)
                    .impairment(plan)
                    .build();
                    let delta = sim.learner.delta;
                    let mut runtimes = SPANS.map(|span| {
                        (
                            span,
                            ReactorRuntime::with_span(NetConfig::from_sim(sim.clone()), span),
                        )
                    });
                    for epoch in 0..EPOCHS {
                        let at = format!("threads {threads}, plan seed {seed}, epoch {epoch}");
                        let [narrow, wide] = runtimes.each_mut().map(|(span, rt)| {
                            rt.run_epochs(1);
                            checked_columns(rt, PEERS, delta, &format!("{at}, span {span}"))
                        });
                        assert_eq!(narrow, wide, "{at}: the spans ingested different columns");
                    }
                }
            });
        }
    }

    #[test]
    fn helper_failure_takes_effect() {
        let sim = rths_sim::SimConfig::builder(6, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(6)
            .build();
        let mut rt = ReactorRuntime::new(NetConfig::from_sim(sim));
        rt.run_epochs(50);
        rt.set_helper_online(0, false);
        rt.run_epochs(300);
        let out = rt.finish();
        let tail = out.metrics.welfare.tail_mean(50);
        assert!(tail <= 800.0 + 1e-9, "tail welfare {tail}");
    }
}
