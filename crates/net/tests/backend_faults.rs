//! Loss-impairment coverage on the reactor backend.
//!
//! The fault model must be engine-invariant: a dropped data-plane
//! payload ("the connection exists but the stream never arrives") reaches
//! the peer's learner as a **zero-rate observation**, in the message-
//! passing runtime as in the simulator. These tests pin that three ways:
//! at the machine level (a lost reply is bit-identical to
//! `observe(0.0)`), at the system level (lossy reactor runs reproduce
//! lossy simulator runs bit-for-bit), and at the boundary (full loss
//! starves everyone).
//!
//! Loss plans are built with `ImpairmentPlan::builder`; the uniform-loss
//! model keeps the hash stream of the fault plan this crate used to
//! carry (pinned by golden vectors in `rths_sim::impairment`'s tests), so
//! these runs reproduce the pre-migration ones exactly.

mod common;

use rths_net::machines::HelperMachine;
use rths_net::{Backend, NetConfig};
use rths_sim::helper::{Helper, HelperId};
use rths_sim::{BandwidthSpec, ImpairmentPlan, Scenario, SimConfig, System};
use rths_stoch::bandwidth::ConstantBandwidth;

fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|v| v.to_bits()).collect()
}

fn uniform_loss(loss: f64, seed: u64) -> ImpairmentPlan {
    ImpairmentPlan::builder(seed).uniform_loss(loss).build().unwrap()
}

fn lossy_sim(seed: u64, loss: f64) -> SimConfig {
    SimConfig::builder(12, vec![BandwidthSpec::Paper { stay: 0.95 }; 3])
        .demand(350.0)
        .seed(seed)
        .impairment(uniform_loss(loss, seed ^ 0xF00D))
        .build()
}

fn lossy_config(seed: u64, loss: f64) -> NetConfig {
    NetConfig::from_sim(lossy_sim(seed, loss))
}

#[test]
fn dropped_reply_is_exactly_a_zero_rate_observation() {
    // Twin peers with identical RNG streams: one is served through a
    // helper that drops its payload, the other observes an explicit 0.0.
    // Their learner states (slots 0 and 1 of the twins' slab) must end
    // bit-identical.
    let sim = Scenario::paper_small().seed(31).build();
    let twins = [(4, uniform_loss(1.0, 1)), (4, ImpairmentPlan::none())];
    let (machines, slab, _) = common::peer_machines(&sim, 2, twins);
    let [mut dropped, mut explicit] = <[_; 2]>::try_from(machines).expect("two twins");
    let mut helper: HelperMachine<()> = HelperMachine::new(Helper::with_seed(
        HelperId(0),
        Box::new(ConstantBandwidth::new(800.0)),
        0,
    ));

    for epoch in 0..50 {
        let sel = dropped.on_tick(epoch);
        assert!(sel.lost, "loss=1.0 must drop every epoch");
        helper.on_tick();
        helper.on_request(4, sel.lost, ());
        let mut delivered = f64::NAN;
        let _ = helper.on_settle(|_, kbps, ()| delivered = kbps);
        assert_eq!(delivered, 0.0, "lost payload must surface as rate 0");
        let observed = dropped.on_rate(delivered);
        assert_eq!(observed, 0.0, "a lost payload is observed as rate 0");

        let _ = explicit.on_tick(epoch);
        let twin_observed = explicit.on_rate(0.0);
        assert_eq!(observed.to_bits(), twin_observed.to_bits());
    }
    let slab = slab.lock().expect("learner slab mutex");
    assert_eq!(
        bits(slab.probabilities(0)),
        bits(slab.probabilities(1)),
        "learner state diverged from the explicit zero-rate twin"
    );
}

#[test]
fn lossy_reactor_reproduces_lossy_sim_run() {
    // Partial loss: the fault draw is a pure function of (seed, peer,
    // epoch), so the reactor and the simulator must drop the same
    // payloads and end in identical learner/metric states.
    for loss in [0.15, 0.5] {
        let sim = System::new(lossy_sim(77, loss)).run(120);
        let reactor = rths_net::run(lossy_config(77, loss).with_backend(Backend::Reactor), 120);
        assert_eq!(
            bits(sim.metrics.welfare.values()),
            bits(reactor.metrics.welfare.values()),
            "loss={loss}: welfare diverged"
        );
        assert_eq!(
            bits(sim.metrics.server_load.values()),
            bits(reactor.metrics.server_load.values()),
            "loss={loss}: server load diverged"
        );
        assert_eq!(
            bits(&sim.metrics.mean_peer_rates),
            bits(&reactor.peer_mean_rates),
            "loss={loss}: per-peer mean rates diverged"
        );
        assert_eq!(
            bits(&sim.metrics.peer_continuity),
            bits(&reactor.peer_continuity),
            "loss={loss}: continuity diverged"
        );
        // A lost payload is still a (zero-rate) reply: loss moves no
        // message count. Control is (n + 3h)·E: a Request per peer, a
        // Tick, a Settle and a report per helper (the shards' ticks are
        // not counted).
        assert_eq!(reactor.messages.data, 12 * 120, "loss={loss}: data accounting");
        assert_eq!(
            reactor.messages.control,
            (12 + 3 * 3) * 120,
            "loss={loss}: control accounting"
        );
    }
}

#[test]
fn full_loss_starves_everyone_on_the_reactor() {
    let out = rths_net::run(lossy_config(9, 1.0).with_backend(Backend::Reactor), 40);
    for &w in out.metrics.welfare.values() {
        assert_eq!(w, 0.0);
    }
    assert!(out.peer_mean_rates.iter().all(|&r| r == 0.0));
    // Demand is set, so continuity collapses too.
    assert!(out.peer_continuity.iter().all(|&c| c == 0.0));
}

#[test]
fn loss_and_jitter_compose_on_the_reactor() {
    // Delivery jitter delays deliveries through the timer wheel; loss
    // drops payloads. Jitter must still change nothing, even combined
    // with loss.
    let plain = rths_net::run(lossy_config(5, 0.3).with_backend(Backend::Reactor), 80);
    let jittery_config =
        lossy_config(5, 0.3).with_backend(Backend::Reactor).with_delivery_jitter(150);
    let jittery = rths_net::run(jittery_config, 80);
    assert_eq!(
        bits(plain.metrics.welfare.values()),
        bits(jittery.metrics.welfare.values()),
        "jitter changed a lossy reactor run"
    );
}
