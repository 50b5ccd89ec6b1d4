//! Backend selection and the thread-per-actor runtime.
//!
//! Topology of the threaded backend: one OS thread per helper, one per
//! peer, and the calling thread as coordinator. Per epoch the coordinator:
//!
//! 1. `Tick`s every helper (it steps its private bandwidth process) and
//!    every peer (it samples its learner and sends one `Request`);
//! 2. waits for every peer's `Selected` notification;
//! 3. `Settle`s every helper — each splits its capacity over the requests
//!    it received and replies a `Rate` to every requester;
//! 4. waits for every helper's `HelperReport` and every peer's
//!    `Observed`, then records the same metrics `rths_sim::System`
//!    records.
//!
//! The protocol logic itself lives in [`crate::machines`]; the thread
//! bodies here only move machine inputs and outputs over channels. Peer
//! learning happens **inside the peer thread** with nothing but the
//! received rate — the coordinator only aggregates for reporting. With
//! faults disabled a run is bit-identical to the simulator *and* to the
//! [`Backend::Reactor`] event-loop backend; see the `sim_net_equivalence`
//! integration test.

use crossbeam::channel::{unbounded, Receiver, Sender};
use rths_obs::{self as obs, Counter, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rths_sim::peer::Peer;
use rths_sim::ImpairmentPlan;
use rths_sim::SimConfig;
use rths_sim::SimMetrics;

use crate::machines::{instantiate_helpers, CoordinatorMachine, HelperMachine, PeerMachine};
use crate::message::{CoordMsg, HelperMsg, PeerMsg};
use crate::tracker::Tracker;

/// Which runtime hosts the actor mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per actor ([`NetRuntime`]) — the deployment-shaped
    /// proof, capped at a few hundred actors.
    Threaded,
    /// The event-loop runtime
    /// ([`ReactorRuntime`](crate::reactor_backend::ReactorRuntime)):
    /// thousands of poll-driven actors per thread, bit-equivalent to both
    /// the threaded backend and the simulator. **Default.**
    #[default]
    Reactor,
    /// The multi-process reactor ([`crate::multiproc`]): the mesh
    /// sharded across OS processes over Unix-domain sockets, each
    /// hosting a contiguous partition of mailbox shards — still
    /// bit-equivalent to every other backend.
    Multiproc {
        /// Process count (≥ 1); the calling process is rank 0.
        processes: usize,
    },
}

/// Configuration of a decentralized run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The underlying system configuration (must be churn-free: actor
    /// population is fixed at startup).
    pub sim: SimConfig,
    /// Link-impairment plan (loss, shaping, jitter/latency) — shared
    /// with the simulator, so impaired runs stay bit-identical across
    /// all three engines.
    pub impairments: ImpairmentPlan,
    /// Hosting runtime.
    pub backend: Backend,
    /// Whether peers attach their learner's internal regret estimate to
    /// every observation (the `worst_regret_estimate` series). The first
    /// estimate a shard's learner slab is asked for makes it maintain its
    /// row maxima (`m` more scalars per peer; see `rths_core::slab`), and
    /// deriving one is then an `O(m)` read per peer per epoch — the same
    /// trade the simulator's `track_estimate` flag controls. Off, neither
    /// is paid; the throughput baselines run that way. **Default: on.**
    pub track_estimate: bool,
    /// Enables `rths_obs` tracing for the duration of the run (epoch
    /// spans, coordinator phase spans, message-volume counters). Tracing
    /// never feeds back into the computation, so traced runs stay
    /// bit-identical to untraced ones. **Default: off.**
    pub trace: bool,
}

impl NetConfig {
    /// Wraps a simulator configuration on the default (threaded)
    /// backend, inheriting the config's own [`SimConfig::impairment`]
    /// plan (none by default).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has churn enabled — the decentralized
    /// runtimes keep a fixed actor population (dynamic membership is the
    /// simulator's job).
    pub fn from_sim(sim: SimConfig) -> Self {
        assert!(
            sim.churn.arrival_rate() == 0.0 && sim.churn.departure_prob() == 0.0,
            "the decentralized runtimes require a churn-free configuration"
        );
        let impairments = sim.impairment.clone();
        Self {
            sim,
            impairments,
            backend: Backend::default(),
            track_estimate: true,
            trace: false,
        }
    }

    /// Sets the link-impairment plan (loss models, token-bucket shaping,
    /// link bandwidth caps, jitter/latency).
    #[must_use]
    pub fn with_impairments(mut self, impairments: ImpairmentPlan) -> Self {
        self.impairments = impairments;
        self
    }

    /// Enables/disables per-peer internal regret estimates (see
    /// [`track_estimate`](Self::track_estimate)).
    #[must_use]
    pub fn with_track_estimate(mut self, track: bool) -> Self {
        self.track_estimate = track;
        self
    }

    /// Selects the hosting backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables/disables `rths_obs` tracing for the run (see
    /// [`trace`](Self::trace)).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Runs `epochs` epochs on the backend named by `config.backend` and
/// returns the outcome. The entry point backend-agnostic callers (tests,
/// benches, examples) should use.
pub fn run(config: NetConfig, epochs: u64) -> NetOutcome {
    match config.backend {
        Backend::Threaded => NetRuntime::new(config).run(epochs),
        Backend::Reactor => crate::reactor_backend::ReactorRuntime::new(config).run(epochs),
        Backend::Multiproc { processes } => {
            crate::multiproc::run_multiproc(config, epochs, processes).outcome
        }
    }
}

/// Message-overhead accounting — evidence for the paper's "low
/// implementation complexity and low communication overhead" claim.
/// Counted at every protocol send site across all actors (bootstrap
/// traffic excluded), so both backends report identical totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageTotals {
    /// Control-plane messages: ticks, requests, settles, coordinator
    /// notifications.
    pub control: u64,
    /// Data-plane messages: rate deliveries.
    pub data: u64,
}

impl MessageTotals {
    /// Mean messages per peer per epoch (control + data).
    pub fn per_peer_per_epoch(&self, peers: usize, epochs: u64) -> f64 {
        if peers == 0 || epochs == 0 {
            return 0.0;
        }
        (self.control + self.data) as f64 / peers as f64 / epochs as f64
    }
}

/// Shared atomic counters behind [`MessageTotals`].
#[derive(Debug, Default)]
struct MessageCounters {
    control: AtomicU64,
    data: AtomicU64,
}

impl MessageCounters {
    fn control(&self) {
        self.control.fetch_add(1, Ordering::Relaxed);
    }

    fn data(&self) {
        self.data.fetch_add(1, Ordering::Relaxed);
    }

    fn totals(&self) -> MessageTotals {
        MessageTotals {
            control: self.control.load(Ordering::Relaxed),
            data: self.data.load(Ordering::Relaxed),
        }
    }
}

/// Results of a decentralized run. Field-compatible with the simulator's
/// metrics so the two can be compared directly.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Epochs executed.
    pub epochs: u64,
    /// The same metric bundle the simulator produces.
    pub metrics: SimMetrics,
    /// Lifetime mean rate per peer (peer-id order).
    pub peer_mean_rates: Vec<f64>,
    /// Continuity index per peer (peer-id order).
    pub peer_continuity: Vec<f64>,
    /// Total messages exchanged, by plane.
    pub messages: MessageTotals,
}

/// The thread-per-actor runtime: spawns actors on construction, runs
/// epochs on demand, and joins all threads on [`run`](Self::run)
/// completion.
pub struct NetRuntime {
    tracker: Tracker,
    peer_endpoints: Vec<Sender<PeerMsg>>,
    helper_handles: Vec<JoinHandle<()>>,
    peer_handles: Vec<JoinHandle<Peer>>,
    coord_rx: Receiver<CoordMsg>,
    coord: CoordinatorMachine,
    counters: Arc<MessageCounters>,
    trace: bool,
}

impl std::fmt::Debug for NetRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetRuntime")
            .field("epoch", &self.coord.epochs_done())
            .field("peers", &self.peer_endpoints.len())
            .field("helpers", &self.tracker.num_helpers())
            .finish()
    }
}

impl NetRuntime {
    /// Spawns the actor mesh described by `config`.
    pub fn new(config: NetConfig) -> Self {
        let sim = &config.sim;
        let (coord_tx, coord_rx) = unbounded::<CoordMsg>();
        let mut tracker = Tracker::new();
        let mut helper_handles = Vec::new();
        let impairments = &config.impairments;
        let counters = Arc::new(MessageCounters::default());

        // Helper actors. Processes are instantiated from the master RNG in
        // helper order — the exact construction sequence of rths_sim.
        let (helpers, helper_min_total) = instantiate_helpers(sim);
        for (j, helper) in helpers.into_iter().enumerate() {
            let machine: HelperMachine<Sender<PeerMsg>> = HelperMachine::new(helper);
            let (tx, rx) = unbounded::<HelperMsg>();
            tracker.register_helper(tx);
            let coord = coord_tx.clone();
            let counters_h = Arc::clone(&counters);
            let plan = impairments.clone();
            helper_handles.push(std::thread::spawn(move || {
                helper_actor(machine, j, rx, coord, plan, counters_h);
            }));
        }

        // Peer actors (each owns its plan clone — the shaper state inside
        // the machine is per-peer anyway).
        let mut peer_endpoints = Vec::new();
        let mut peer_handles = Vec::new();
        let track_estimate = config.track_estimate;
        for id in 0..sim.num_peers as u64 {
            // A slab of its own per peer: one shared across OS threads
            // would serialise them on its mutex.
            let machine = PeerMachine::from_config(
                sim,
                id,
                tracker.num_helpers(),
                impairments.clone(),
                None,
            );
            let (tx, rx) = unbounded::<PeerMsg>();
            peer_endpoints.push(tx.clone());
            let helpers = tracker.bootstrap();
            let coord = coord_tx.clone();
            let counters_p = Arc::clone(&counters);
            peer_handles.push(std::thread::spawn(move || {
                peer_actor(machine, tx, rx, helpers, coord, counters_p, track_estimate)
            }));
        }

        let coord = CoordinatorMachine::new(sim, helper_min_total);
        let trace = config.trace;
        Self {
            tracker,
            peer_endpoints,
            helper_handles,
            peer_handles,
            coord_rx,
            coord,
            counters,
            trace,
        }
    }

    /// Takes a helper offline/online mid-run (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_helper_online(&mut self, index: usize, online: bool) {
        self.tracker
            .helper(index)
            .send(HelperMsg::SetOnline(online))
            .expect("helper actor alive");
    }

    /// Runs `epochs` epochs, then shuts down all actors and returns the
    /// outcome. The runtime is consumed: every thread is joined.
    pub fn run(mut self, epochs: u64) -> NetOutcome {
        let _trace_guard = self.trace.then(|| obs::scoped_enable(true));
        if obs::enabled() {
            obs::begin_run("net_threaded");
        }
        for _ in 0..epochs {
            self.step_epoch();
        }
        // Shutdown protocol.
        for j in 0..self.tracker.num_helpers() {
            let _ = self.tracker.helper(j).send(HelperMsg::Shutdown);
        }
        for tx in &self.peer_endpoints {
            let _ = tx.send(PeerMsg::Shutdown);
        }
        let mut peers = Vec::new();
        for handle in self.peer_handles {
            peers.push(handle.join().expect("peer thread panicked"));
        }
        for handle in self.helper_handles {
            handle.join().expect("helper thread panicked");
        }

        let epochs_done = self.coord.epochs_done();
        let (metrics, peer_mean_rates, peer_continuity) = self.coord.finalize(&peers);
        let messages = self.counters.totals();
        if obs::enabled() {
            // Every protocol message sent over a channel is delivered
            // (the shutdown race drops at most trailing Rate replies,
            // which are counted at the send site) — mirror the totals
            // into both counters.
            let sent = messages.control + messages.data;
            obs::counter_add(Counter::MessagesEnqueued, sent);
            obs::counter_add(Counter::MessagesDelivered, sent);
        }
        NetOutcome { epochs: epochs_done, peer_mean_rates, peer_continuity, metrics, messages }
    }

    fn step_epoch(&mut self) {
        let h = self.tracker.num_helpers();
        let epoch = self.coord.epoch();
        if obs::enabled() {
            obs::set_epoch(epoch);
        }
        let t_epoch = obs::span_start();
        self.coord.begin_epoch();

        // Phase 1: tick every actor, then wait for all peers to commit.
        let t_choose = obs::span_start();
        for j in 0..h {
            self.counters.control();
            self.tracker.helper(j).send(HelperMsg::Tick { epoch }).expect("helper actor alive");
        }
        for tx in &self.peer_endpoints {
            self.counters.control();
            tx.send(PeerMsg::Tick { epoch }).expect("peer actor alive");
        }
        while !self.coord.settle_ready() {
            match self.coord_rx.recv().expect("actors alive") {
                CoordMsg::Selected { peer, helper, epoch: e } => {
                    debug_assert_eq!(e, epoch);
                    self.coord.on_selected(peer, helper);
                }
                other => unreachable!("unexpected message in selection phase: {other:?}"),
            }
        }
        if let Some(t) = t_choose {
            obs::span_end(Phase::Choose, epoch, t);
        }

        // Phase 2: helpers settle.
        let t_settle = obs::span_start();
        for j in 0..h {
            self.counters.control();
            self.tracker
                .helper(j)
                .send(HelperMsg::Settle { epoch })
                .expect("helper actor alive");
        }
        while !self.coord.epoch_complete() {
            match self.coord_rx.recv().expect("actors alive") {
                CoordMsg::HelperReport { helper, load, capacity, epoch: e } => {
                    debug_assert_eq!(e, epoch);
                    self.coord.on_helper_report(helper, load, capacity);
                }
                CoordMsg::Observed { peer, rate, estimate, epoch: e } => {
                    debug_assert_eq!(e, epoch);
                    self.coord.on_observed(peer, rate, estimate);
                }
                other => unreachable!("unexpected message in settle phase: {other:?}"),
            }
        }
        self.coord.finish_epoch();
        if let Some(t) = t_settle {
            obs::span_end(Phase::Settle, epoch, t);
        }
        if let Some(t) = t_epoch {
            obs::span_end(Phase::Epoch, epoch, t);
        }
    }
}

/// Helper actor body: a [`HelperMachine`] whose per-request attachment is
/// the requester's reply channel.
fn helper_actor(
    mut machine: HelperMachine<Sender<PeerMsg>>,
    index: usize,
    inbox: Receiver<HelperMsg>,
    coord: Sender<CoordMsg>,
    impairments: ImpairmentPlan,
    counters: Arc<MessageCounters>,
) {
    while let Ok(msg) = inbox.recv() {
        match msg {
            HelperMsg::Tick { epoch } => {
                impairments.apply_jitter(0x4000_0000 + index as u64, epoch);
                machine.on_tick();
            }
            HelperMsg::Request { peer, epoch: _, reply, lost } => {
                machine.on_request(peer, lost, reply);
            }
            HelperMsg::Settle { epoch } => {
                let settlement = machine.on_settle(|_peer, kbps, reply| {
                    counters.data();
                    // A dead peer endpoint is not our problem (shutdown
                    // race) — ignore send failures.
                    let _ = reply.send(PeerMsg::Rate { epoch, kbps });
                });
                counters.control();
                coord
                    .send(CoordMsg::HelperReport {
                        helper: index,
                        epoch,
                        load: settlement.load,
                        capacity: settlement.capacity,
                    })
                    .expect("coordinator alive");
            }
            HelperMsg::SetOnline(online) => machine.set_online(online),
            HelperMsg::Shutdown => break,
        }
    }
}

/// Peer actor body: a [`PeerMachine`] plus the channel plumbing. Returns
/// the peer state for final reporting.
#[allow(clippy::too_many_arguments)]
fn peer_actor(
    mut machine: PeerMachine,
    self_tx: Sender<PeerMsg>,
    inbox: Receiver<PeerMsg>,
    helpers: Vec<Sender<HelperMsg>>,
    coord: Sender<CoordMsg>,
    counters: Arc<MessageCounters>,
    track_estimate: bool,
) -> Peer {
    let id = machine.id();
    while let Ok(msg) = inbox.recv() {
        match msg {
            PeerMsg::Tick { epoch } => {
                machine.impairments().apply_jitter(id, epoch);
                let selection = machine.on_tick(epoch);
                counters.control();
                helpers[selection.helper]
                    .send(HelperMsg::Request {
                        peer: id,
                        epoch,
                        reply: self_tx.clone(),
                        lost: selection.lost,
                    })
                    .expect("helper actor alive");
                counters.control();
                coord
                    .send(CoordMsg::Selected { peer: id, epoch, helper: selection.helper })
                    .expect("coordinator alive");
            }
            PeerMsg::Rate { epoch, kbps } => {
                let rate = machine.on_rate(kbps);
                let estimate = if track_estimate { machine.peer().max_regret() } else { 0.0 };
                counters.control();
                coord
                    .send(CoordMsg::Observed { peer: id, epoch, rate, estimate })
                    .expect("coordinator alive");
            }
            PeerMsg::Shutdown => break,
        }
    }
    machine.into_peer()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_sim::{BandwidthSpec, Scenario};

    #[test]
    fn runtime_runs_and_joins() {
        let sim = Scenario::paper_small().seed(1).build();
        let out = NetRuntime::new(NetConfig::from_sim(sim)).run(30);
        assert_eq!(out.epochs, 30);
        assert_eq!(out.peer_mean_rates.len(), 10);
        assert_eq!(out.metrics.helper_loads.len(), 4);
        assert_eq!(out.metrics.epochs(), 30);
    }

    #[test]
    fn loads_sum_to_population() {
        let sim = Scenario::paper_small().seed(2).build();
        let out = NetRuntime::new(NetConfig::from_sim(sim)).run(20);
        for e in 0..20 {
            let total: f64 = out.metrics.helper_loads.iter().map(|s| s.values()[e]).sum();
            assert_eq!(total, 10.0);
        }
    }

    #[test]
    fn full_loss_starves_everyone() {
        let sim = rths_sim::SimConfig::builder(4, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(3)
            .build();
        let plan = ImpairmentPlan::builder(9).uniform_loss(1.0).build().unwrap();
        let config = NetConfig::from_sim(sim).with_impairments(plan);
        let out = NetRuntime::new(config).run(10);
        for &w in out.metrics.welfare.values() {
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn partial_loss_reduces_welfare() {
        let build = |loss| {
            let sim = rths_sim::SimConfig::builder(8, vec![BandwidthSpec::Constant(800.0); 2])
                .seed(4)
                .build();
            let plan = ImpairmentPlan::builder(5).uniform_loss(loss).build().unwrap();
            let config = NetConfig::from_sim(sim).with_impairments(plan);
            NetRuntime::new(config).run(300)
        };
        let clean = build(0.0);
        let lossy = build(0.3);
        let w_clean = clean.metrics.welfare.tail_mean(100);
        let w_lossy = lossy.metrics.welfare.tail_mean(100);
        assert!(
            w_lossy < w_clean * 0.85,
            "loss had no effect: clean {w_clean}, lossy {w_lossy}"
        );
    }

    #[test]
    fn from_sim_inherits_the_sim_impairment_plan() {
        let plan = ImpairmentPlan::builder(3).uniform_loss(1.0).build().unwrap();
        let sim = rths_sim::SimConfig::builder(4, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(2)
            .impairment(plan)
            .build();
        let out = NetRuntime::new(NetConfig::from_sim(sim)).run(5);
        // The inherited full-loss plan starves every epoch.
        for &w in out.metrics.welfare.values() {
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn helper_failure_message_takes_effect() {
        let sim = rths_sim::SimConfig::builder(6, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(6)
            .build();
        let mut rt = NetRuntime::new(NetConfig::from_sim(sim));
        for _ in 0..50 {
            rt.step_epoch();
        }
        rt.set_helper_online(0, false);
        let out = rt.run(300);
        // Welfare in the tail can come only from helper 1.
        let tail = out.metrics.welfare.tail_mean(50);
        assert!(tail <= 800.0 + 1e-9, "tail welfare {tail}");
    }

    #[test]
    fn message_overhead_is_constant_per_peer() {
        // Per epoch and peer: 1 Tick + 1 Request + 1 Selected + 1
        // Observed control messages (+ per-helper Tick/Settle/Report
        // amortised), and exactly 1 data (Rate) message. The paper's
        // low-overhead claim, quantified.
        let sim = Scenario::paper_small().seed(12).build();
        let out = NetRuntime::new(NetConfig::from_sim(sim)).run(100);
        assert_eq!(out.messages.data, 10 * 100);
        // Per peer: Tick + Request + Selected + Observed (4); per
        // helper: Tick + Settle + HelperReport (3).
        let expected_control = (10 * 4 + 4 * 3) * 100;
        assert_eq!(out.messages.control, expected_control as u64);
        let per_peer = out.messages.per_peer_per_epoch(10, 100);
        assert!(per_peer < 7.0, "overhead {per_peer} messages/peer/epoch");
    }

    #[test]
    fn backend_dispatcher_routes_both_ways() {
        let sim = Scenario::paper_small().seed(21).build();
        let threaded =
            run(NetConfig::from_sim(sim.clone()).with_backend(Backend::Threaded), 40);
        let reactor = run(NetConfig::from_sim(sim).with_backend(Backend::Reactor), 40);
        assert_eq!(threaded.epochs, reactor.epochs);
        assert_eq!(
            threaded.metrics.welfare.values(),
            reactor.metrics.welfare.values(),
            "backends diverged"
        );
        assert_eq!(threaded.messages, reactor.messages, "message accounting diverged");
    }

    #[test]
    #[should_panic(expected = "churn-free")]
    fn churny_config_rejected() {
        let sim = Scenario::churn().seed(1).build();
        let _ = NetConfig::from_sim(sim);
    }
}
