//! Peer machines that the protocol tests drive by hand, built as the
//! benchmark's `net_layers` probe builds them.

use std::sync::{Arc, Mutex};

use rths_core::{LearnerSlab, RthsConfig, SharedSlab, SlabLearner};
use rths_net::machines::PeerMachine;
use rths_sim::peer::{Peer, PeerId};
use rths_sim::{AnyLearner, ImpairmentPlan, SimConfig};
use rths_stoch::rng::entity_rng;

/// One peer machine over `helpers` helpers per `(id, plan)`, built as
/// `rths_sim::System::new` builds its peers: the run's learner spec and
/// each id's own RNG stream. The learners share one slab, returned with
/// their config so that a test can read what a machine does not report:
/// the `k`-th machine's learner is slot `k`.
pub fn peer_machines(
    sim: &SimConfig,
    helpers: usize,
    peers: impl IntoIterator<Item = (u64, ImpairmentPlan)>,
) -> (Vec<PeerMachine>, SharedSlab, RthsConfig) {
    let config =
        sim.learner.rths_config(helpers, sim.rate_scale()).expect("valid learner spec");
    let slab = Arc::new(Mutex::new(LearnerSlab::new(helpers)));
    let machines = peers
        .into_iter()
        .map(|(id, plan)| {
            let learner =
                AnyLearner::SlabRths(SlabLearner::new(Arc::clone(&slab), config.clone()));
            let peer = Peer::new(PeerId(id), learner, entity_rng(sim.seed, id), 0, 0);
            PeerMachine::new(peer, sim.demand, plan)
        })
        .collect();
    (machines, slab, config)
}
