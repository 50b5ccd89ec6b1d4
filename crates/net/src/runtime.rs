//! Backend selection and the run configuration/outcome types.
//!
//! The epoch protocol lives in [`crate::machines`]; it is hosted twice —
//! on one reactor ([`crate::reactor_backend`]) and on a reactor sharded
//! across OS processes ([`crate::multiproc`]). [`run`] dispatches on
//! [`NetConfig::backend`]; with equal seeds both hosts reproduce
//! `rths_sim::System` bit-for-bit (see the `sim_net_equivalence`
//! integration test).

use rths_sim::{AllocationPolicy, SimConfig, SimMetrics};

/// Which runtime hosts the actor mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-loop runtime
    /// ([`ReactorRuntime`](crate::reactor_backend::ReactorRuntime)):
    /// thousands of poll-driven actors per thread, bit-equivalent to the
    /// simulator. **Default.**
    #[default]
    Reactor,
    /// The multi-process reactor ([`crate::multiproc`]): the mesh
    /// sharded across OS processes over Unix-domain sockets, each
    /// hosting a contiguous partition of mailbox shards — still
    /// bit-equivalent to the single-process reactor.
    Multiproc {
        /// Process count (≥ 1); the calling process is rank 0.
        processes: usize,
    },
}

/// Configuration of a decentralized run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The underlying system configuration (must be churn-free: actor
    /// population is fixed at startup). Its
    /// [`impairment`](SimConfig::impairment) plan (loss and shaping) is
    /// the run's: one plan for the simulator and both backends, so
    /// impaired runs stay bit-identical across all three.
    pub sim: SimConfig,
    /// Hosting runtime.
    pub backend: Backend,
    /// Exclusive bound, in logical ticks of the timer wheel, of the delay
    /// put on every peer's `Request` and every helper's `Tick`. An
    /// actor's delay in an epoch is a hash of the impairment plan's seed,
    /// the actor and the epoch, so the plan seed picks the order in which
    /// the epoch's messages land. A test tool: the protocol is
    /// epoch-synchronous, so no such schedule may show in the outcome
    /// (the `sim_net_equivalence` test sweeps it). **Default: 0**, no
    /// delay.
    pub delivery_jitter: u64,
    /// Whether peers attach their learner's internal regret estimate to
    /// every observation (the `worst_regret_estimate` series). The first
    /// estimate a shard's learner slab is asked for makes it maintain its
    /// row maxima and diagonal (`2m` more scalars per peer; see
    /// `rths_core::slab`), and deriving one is then a read of two `O(m)`
    /// slot-addressed rows per peer per epoch that touches no T line —
    /// the same trade the simulator's `track_estimate` flag controls (it
    /// is the same flag of the same observe phase). Off, neither is paid.
    /// The throughput baselines run with it off. **Default: on.**
    pub track_estimate: bool,
    /// Enables `rths_obs` tracing for the duration of the run (the
    /// reactor's round spans tagged with the epoch in flight,
    /// message-volume counters). Tracing never feeds back into the
    /// computation, so traced runs stay bit-identical to untraced ones.
    /// **Default: off.**
    pub trace: bool,
}

impl NetConfig {
    /// Wraps a simulator configuration on the default backend
    /// ([`Backend::Reactor`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has churn enabled — the decentralized
    /// runtimes keep a fixed actor population (dynamic membership is the
    /// simulator's job) — or is not the one-channel layout of
    /// [`SimConfig::builder`]: a helper actor serves one channel and
    /// splits it evenly.
    pub fn from_sim(sim: SimConfig) -> Self {
        assert!(
            sim.churn.arrival_rate() == 0.0 && sim.churn.departure_prob() == 0.0,
            "the decentralized runtimes require a churn-free configuration"
        );
        assert!(
            sim.viewers.len() == 1 && sim.allocation == AllocationPolicy::EvenSplit,
            "the decentralized runtimes run one channel (K = 1) under the even split"
        );
        Self {
            sim,
            backend: Backend::default(),
            delivery_jitter: 0,
            track_estimate: true,
            trace: false,
        }
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

    /// Delays every request and helper tick by a seeded draw below
    /// `bound` ticks (see [`delivery_jitter`](Self::delivery_jitter)).
    #[must_use]
    pub fn with_delivery_jitter(mut self, bound: u64) -> Self {
        self.delivery_jitter = bound;
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
        Backend::Reactor => crate::reactor_backend::ReactorRuntime::new(config).run(epochs),
        Backend::Multiproc { processes } => {
            crate::multiproc::run_multiproc(config, epochs, processes).outcome
        }
    }
}

/// Message-overhead accounting — evidence for the paper's "low
/// implementation complexity and low communication overhead" claim.
/// Counted at every protocol send site across all actors, so the totals
/// are the same however the mesh is partitioned over processes. Bootstrap
/// traffic is left out, and so are the coordinator's one tick, one
/// `JoinRates` and one report per peer-hosting mailbox shard and epoch:
/// how many there are depends on the shard span, not on the protocol.
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

#[cfg(test)]
mod tests {
    use super::*;
    use rths_sim::{BandwidthSpec, ImpairmentPlan, Scenario};

    #[test]
    fn partial_loss_reduces_welfare() {
        let build = |loss| {
            let plan = ImpairmentPlan::builder(5).uniform_loss(loss).build().unwrap();
            let sim = rths_sim::SimConfig::builder(8, vec![BandwidthSpec::Constant(800.0); 2])
                .seed(4)
                .impairment(plan)
                .build();
            run(NetConfig::from_sim(sim), 300)
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
        let out = run(NetConfig::from_sim(sim), 5);
        // The inherited full-loss plan starves every epoch.
        for &w in out.metrics.welfare.values() {
            assert_eq!(w, 0.0);
        }
    }

    /// A churning configuration, and before it one of K = 2 channels.
    #[test]
    #[should_panic(expected = "churn-free")]
    fn churny_config_rejected() {
        let k2 = SimConfig::standard(2, 400.0, 2, 1, 10, 1.0, AllocationPolicy::EvenSplit, 1);
        let refused = std::panic::catch_unwind(|| NetConfig::from_sim(k2)).unwrap_err();
        assert!(refused.downcast_ref::<&str>().is_some_and(|m| m.contains("K = 1")));
        let sim = Scenario::churn().seed(1).build();
        let _ = NetConfig::from_sim(sim);
    }
}
