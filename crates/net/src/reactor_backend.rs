//! The event-loop backend: the whole actor mesh on one `rths_reactor`.
//!
//! Every peer, every helper, the tracker and the coordinator is a
//! poll-driven [`Actor`] hosted by a single [`Reactor`], so one process
//! (indeed, one thread — plus optional `RTHS_THREADS` workers the reactor
//! shards rounds across) hosts thousands of actors.
//!
//! The protocol and all result-bearing arithmetic are the shared
//! [`crate::machines`]; this module only adds addressing:
//!
//! * actor 0 is the coordinator, actor 1 the tracker, then `h` helpers,
//!   then `n` peers (ids dense, in that order);
//! * peers learn the helper address range from the tracker
//!   ([`TrackerNode`]) during a bootstrap handshake — a directory, not a
//!   controller: it never sees a payoff and never assigns a peer;
//! * [`ImpairmentPlan`] drops ride the `lost` flag of the request, rate
//!   shaping happens inside the shared [`PeerMachine`], and
//!   jitter/latency are *timer-wheel delivery delays*: each actor's
//!   `Tick` is delayed by the plan's seeded per-`(actor, epoch)` draw.
//!
//! Timers fire only when the mesh is otherwise quiescent, so delayed
//! ticks land in delay order: the plan seed permutes the order in which
//! requests reach a helper and selections reach the coordinator, and
//! decides which helpers see `Settle` overtake their `Tick`. None of it
//! may show in the outcome. With equal seeds the backend reproduces the
//! simulator bit-for-bit at any `RTHS_THREADS` and under any such
//! schedule; the workspace-level `sim_net_equivalence` test pins both.

use std::sync::{Arc, Mutex};

use rths_core::LearnerSlab;
use rths_obs as obs;
use rths_reactor::{Actor, ActorId, Ctx, Reactor, ReactorStats, SHARD_SPAN};
use rths_sim::ImpairmentPlan;

use crate::machines::{instantiate_helpers, CoordinatorMachine, HelperMachine, PeerMachine};
use crate::runtime::{MessageTotals, NetConfig, NetOutcome};

/// Jitter stream offset for helper actors: helper `j` draws its delays as
/// actor `HELPER_JITTER_BASE + j`, disjoint from the peers' (peer id)
/// streams.
const HELPER_JITTER_BASE: u64 = 0x4000_0000;

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
    /// Coordinator → helper/peer: new epoch.
    Tick {
        /// Epoch number.
        epoch: u64,
    },
    /// Peer → helper: one streaming request.
    Request {
        /// Requesting peer id.
        peer: u64,
        /// Epoch number.
        epoch: u64,
        /// Data-plane fault: connection counted, payload lost.
        lost: bool,
    },
    /// Coordinator → helper: all requests are in; allocate and reply.
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
    /// Peer → coordinator: committed to a helper.
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
    /// Peer → coordinator: observed the realized rate.
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
    peer_base: usize,
    num_peers: usize,
    impairments: ImpairmentPlan,
    control: u64,
}

impl CoordNode {
    fn start_epoch(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.machine.begin_epoch();
        let epoch = self.machine.epoch();
        if obs::enabled() {
            // Tag subsequent reactor-round spans (mailbox sort/deliver/
            // drain, timer flush) with the epoch now in flight. Rounds
            // read the tag at round start, so a round straddling the
            // boundary carries the previous epoch's tag.
            obs::set_epoch(epoch);
        }
        for j in 0..self.num_helpers {
            self.control += 1;
            let delay = self.impairments.jitter_ticks(HELPER_JITTER_BASE + j as u64, epoch);
            ctx.send_after(delay, ActorId(self.helper_base + j), NetMsg::Tick { epoch });
        }
        for i in 0..self.num_peers {
            self.control += 1;
            let delay = self.impairments.jitter_ticks(i as u64, epoch);
            ctx.send_after(delay, ActorId(self.peer_base + i), NetMsg::Tick { epoch });
        }
    }

    fn maybe_finish_epoch(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if !self.machine.epoch_complete() {
            return;
        }
        self.machine.finish_epoch();
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
    coordinator: ActorId,
    helper_base: usize,
    num_helpers: usize,
    peer_base: usize,
    num_peers: usize,
}

/// A helper actor wrapping the shared [`HelperMachine`].
///
/// Jitter can delay an epoch's `Tick` through the timer wheel until
/// *after* the coordinator's `Settle` arrives (timers do not preserve
/// per-sender FIFO order). The helper therefore tolerates the
/// reordering: a `Settle` that overtakes its epoch's `Tick` is parked in
/// `pending_settle` and replayed the moment the tick lands, so capacity
/// always steps before allocation, in every interleaving.
#[derive(Debug)]
pub struct HelperNode {
    machine: HelperMachine<()>,
    index: usize,
    coordinator: ActorId,
    peer_base: usize,
    /// Epoch of the last processed `Tick`.
    ticked_epoch: Option<u64>,
    /// A `Settle` that arrived before its epoch's `Tick`.
    pending_settle: Option<u64>,
    control: u64,
    data: u64,
}

impl HelperNode {
    fn settle(&mut self, epoch: u64, ctx: &mut Ctx<'_, NetMsg>) {
        let HelperNode { machine, peer_base, data, .. } = self;
        let settlement = machine.on_settle(|peer, kbps, ()| {
            *data += 1;
            ctx.send(ActorId(*peer_base + peer as usize), NetMsg::Rate { epoch, kbps });
        });
        self.control += 1;
        ctx.send(
            self.coordinator,
            NetMsg::HelperReport {
                helper: self.index,
                epoch,
                load: settlement.load,
                capacity: settlement.capacity,
            },
        );
    }
}

/// A peer actor wrapping the shared [`PeerMachine`].
#[derive(Debug)]
pub struct PeerNode {
    machine: PeerMachine,
    coordinator: ActorId,
    /// Actor id of helper 0, learned from the tracker at bootstrap.
    helper_base: Option<usize>,
    /// Attach the learner's internal regret estimate to observations.
    track_estimate: bool,
    control: u64,
}

/// Any actor of the mesh (the reactor hosts one concrete type).
// Nearly every instance IS the largest variant (peers outnumber the other
// roles thousands-to-one), so boxing `PeerNode` would buy no memory and
// cost an indirection on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NetActor {
    /// The epoch-driving coordinator (boxed: its metrics dwarf the
    /// per-peer state the enum is sized for).
    Coordinator(Box<CoordNode>),
    /// The bootstrap directory.
    Tracker(TrackerNode),
    /// A helper node.
    Helper(HelperNode),
    /// A viewer peer.
    Peer(PeerNode),
}

impl Actor for NetActor {
    type Msg = NetMsg;

    fn on_message(&mut self, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
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
                NetMsg::Selected { peer, helper, epoch } => {
                    debug_assert_eq!(epoch, node.machine.epoch());
                    node.machine.on_selected(peer, helper);
                    if node.machine.settle_ready() {
                        for j in 0..node.num_helpers {
                            node.control += 1;
                            ctx.send(ActorId(node.helper_base + j), NetMsg::Settle { epoch });
                        }
                    }
                }
                NetMsg::HelperReport { helper, load, capacity, epoch } => {
                    debug_assert_eq!(epoch, node.machine.epoch());
                    node.machine.on_helper_report(helper, load, capacity);
                    node.maybe_finish_epoch(ctx);
                }
                NetMsg::Observed { peer, rate, estimate, epoch } => {
                    debug_assert_eq!(epoch, node.machine.epoch());
                    node.machine.on_observed(peer, rate, estimate);
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
                    ctx.send(node.coordinator, NetMsg::Published);
                }
                other => unreachable!("tracker got {other:?}"),
            },
            NetActor::Helper(node) => match msg {
                NetMsg::Tick { epoch } => {
                    node.machine.on_tick();
                    node.ticked_epoch = Some(epoch);
                    if node.pending_settle == Some(epoch) {
                        node.pending_settle = None;
                        node.settle(epoch, ctx);
                    }
                }
                NetMsg::Request { peer, lost, .. } => node.machine.on_request(peer, lost, ()),
                NetMsg::Settle { epoch } => {
                    if node.ticked_epoch == Some(epoch) {
                        node.settle(epoch, ctx);
                    } else {
                        // The epoch's tick is still in the timer wheel
                        // (jitter); settle the moment it lands.
                        node.pending_settle = Some(epoch);
                    }
                }
                NetMsg::SetOnline(online) => node.machine.set_online(online),
                other => unreachable!("helper got {other:?}"),
            },
            NetActor::Peer(node) => match msg {
                NetMsg::Directory { helper_base, .. } => {
                    node.helper_base = Some(helper_base);
                }
                NetMsg::Tick { epoch } => {
                    let base = node.helper_base.expect("peer ticked before bootstrap");
                    let selection = node.machine.on_tick(epoch);
                    let id = node.machine.id();
                    node.control += 1;
                    ctx.send(
                        ActorId(base + selection.helper),
                        NetMsg::Request { peer: id, epoch, lost: selection.lost },
                    );
                    node.control += 1;
                    ctx.send(
                        node.coordinator,
                        NetMsg::Selected { peer: id, epoch, helper: selection.helper },
                    );
                }
                NetMsg::Rate { epoch, kbps } => {
                    let rate = node.machine.on_rate(kbps);
                    let estimate = if node.track_estimate {
                        node.machine.peer().max_regret()
                    } else {
                        0.0
                    };
                    node.control += 1;
                    ctx.send(
                        node.coordinator,
                        NetMsg::Observed { peer: node.machine.id(), epoch, rate, estimate },
                    );
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
    reactor: Reactor<NetActor>,
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
    2 + config.sim.helpers.len() + config.sim.num_peers
}

/// Adds the actors with global ids `base .. base + len` to `reactor`,
/// reproducing the full-mesh construction exactly over that range: every
/// caller runs the same master-RNG helper instantiation (RNG order is
/// global state), then keeps only the actors it owns. `span` is the
/// mailbox shard span, used to group slab learners so a slab never
/// crosses a shard (hence never a partition) boundary.
///
/// The single-process runtime is the `base = 0, len = total` case; the
/// multi-process workers call this with their partition range.
pub(crate) fn populate_mesh(
    reactor: &mut Reactor<NetActor>,
    config: &NetConfig,
    span: usize,
    base: usize,
    len: usize,
) {
    let sim = &config.sim;
    let impairments = &config.impairments;
    let h = sim.helpers.len();
    let n = sim.num_peers;
    let helper_base = 2;
    let peer_base = helper_base + h;
    let end = base + len;
    debug_assert!(end <= mesh_total(config), "partition range exceeds the mesh");
    let coordinator = ActorId(0);

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
                    peer_base,
                    num_peers: n,
                    impairments: impairments.clone(),
                    control: 0,
                })));
            }
            1 => {
                reactor.add_actor(NetActor::Tracker(TrackerNode {
                    coordinator,
                    helper_base,
                    num_helpers: h,
                    peer_base,
                    num_peers: n,
                }));
            }
            id => {
                let index = id - helper_base;
                reactor.add_actor(NetActor::Helper(HelperNode {
                    machine: HelperMachine::new(
                        helpers[index].take().expect("helper built once"),
                    ),
                    index,
                    coordinator,
                    peer_base,
                    ticked_epoch: None,
                    pending_settle: None,
                    control: 0,
                    data: 0,
                }));
            }
        }
    }

    // Owned peer index range (peer 0 is actor `peer_base`).
    let p_start = base.saturating_sub(peer_base);
    let p_end = end.saturating_sub(peer_base).min(n);
    if p_start >= p_end {
        return;
    }
    // Instead of 10⁵ per-peer heap blocks, each mailbox shard's peers
    // share one pre-sized `LearnerSlab` (column-major arena, lazily
    // mapped zero pages — see `rths_core::slab`), in which every
    // slab-hosted learner takes a slot; the other algorithms leave the
    // reservation untouched. A shard is processed by exactly one worker
    // per round, so the slab mutex is uncontended; learners replay the
    // scalar oracle bit-for-bit, keeping the sim ↔ net equivalence intact.
    let mut start = p_start;
    while start < p_end {
        // Peers sharing a mailbox shard: actor ids
        // `peer_base + start ..` up to the next shard edge.
        let shard_end = ((peer_base + start) / span + 1) * span;
        let slab_end = p_end.min(shard_end - peer_base);
        let slab = Arc::new(Mutex::new(LearnerSlab::with_capacity(h.max(1), slab_end - start)));
        for id in start..slab_end {
            reactor.add_actor(NetActor::Peer(PeerNode {
                machine: PeerMachine::from_config(
                    sim,
                    id as u64,
                    h,
                    impairments.clone(),
                    Some(&slab),
                ),
                coordinator,
                helper_base: None,
                track_estimate: config.track_estimate,
                control: 0,
            }));
        }
        start = slab_end;
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
pub(crate) fn harvest_partition(reactor: Reactor<NetActor>) -> PartitionHarvest {
    let mut harvest = PartitionHarvest {
        coordinator: None,
        messages: MessageTotals::default(),
        peers: Vec::new(),
    };
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
            NetActor::Peer(node) => {
                harvest.messages.control += node.control;
                let peer = node.machine.into_peer();
                harvest.peers.push((peer.mean_rate(), peer.continuity()));
            }
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
        let h = config.sim.helpers.len();
        let n = config.sim.num_peers;
        let mut reactor = Reactor::new();
        let total = mesh_total(&config);
        populate_mesh(&mut reactor, &config, SHARD_SPAN, 0, total);
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
    /// spans and message counters.
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
    use rths_sim::{BandwidthSpec, Scenario};

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
        let mut rt = ReactorRuntime::new(NetConfig::from_sim(sim));
        rt.run_epochs(25);
        // One NextEpoch timer per epoch after the first.
        assert_eq!(rt.stats().timers_fired, 24);
        let out = rt.finish();
        assert_eq!(out.epochs, 25);
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
        // Per epoch and peer: 1 Tick + 1 Request + 1 Selected + 1
        // Observed control messages (+ per-helper Tick/Settle/Report
        // amortised), and exactly 1 data (Rate) message. The paper's
        // low-overhead claim, quantified.
        let sim = Scenario::paper_small().seed(12).build();
        let out = ReactorRuntime::new(NetConfig::from_sim(sim)).run(100);
        assert_eq!(out.messages.data, 10 * 100);
        // Per peer: Tick + Request + Selected + Observed (4); per
        // helper: Tick + Settle + HelperReport (3).
        let expected_control = (10 * 4 + 4 * 3) * 100;
        assert_eq!(out.messages.control, expected_control as u64);
        let per_peer = out.messages.per_peer_per_epoch(10, 100);
        assert!(per_peer < 7.0, "overhead {per_peer} messages/peer/epoch");
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
