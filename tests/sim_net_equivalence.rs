//! The simulator, the reactor event-loop runtime, and the multi-process
//! reactor implement the *same system*: with identical seeds all three
//! must agree **bit-for-bit**, because every actor owns the same
//! deterministic RNG stream in every implementation and the epoch
//! protocol is a barrier. The comparison is `f64::to_bits` equality — not
//! approximate — and is repeated at `RTHS_THREADS=1` and `2`, since
//! neither the simulator's fork/join parallelism nor the reactor's
//! sharded mailbox draining may perturb a single bit. The multi-process
//! runs split the mesh across 2 and 4 OS processes (at a small shard span
//! so these CI-sized meshes actually cross process boundaries);
//! shard-span invariance is pinned separately by `rths_reactor`'s tests,
//! so the comparison against the default-span engines is exact, not
//! incidental.
//!
//! The protocol must also be independent of the *order* in which an
//! epoch's messages are delivered. The reactor has a seeded scheduler on
//! its production path — an impairment plan's jitter and latency delay
//! every request and helper tick through the timer wheel — and
//! [`jitter_does_not_change_results`] sweeps it over plan seeds and
//! bounds, holding every schedule to the simulator's trajectory.
//!
//! This is the strongest cross-implementation test in the workspace: any
//! divergence in learner updates, rate allocation, or metric arithmetic
//! between `rths-sim`, `rths-net`'s reactor backend, or the
//! socket-bridged multi-process reactor fails it.

use std::collections::BTreeSet;

use rths_net::{NetConfig, NetOutcome, ReactorRuntime};
use rths_sim::{BandwidthSpec, ImpairmentPlan, Scenario, SimConfig, System};

/// Pins `RTHS_THREADS` for the duration of `f` via the workspace's one
/// sanctioned env-mutation helper ([`rths_par::env::with_var`]): the
/// backends' spawned worker threads read the variable themselves, so the
/// thread-local `rths_par::with_threads` override cannot reach them, and
/// a bare `set_var` here would race the other tests in this binary.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rths_par::env::with_var("RTHS_THREADS", Some(&n.to_string()), f)
}

/// Bit-pattern view of a float series: equality here is exact, with no
/// tolerance to hide a drifting reduction order.
fn bits(series: &[f64]) -> Vec<u64> {
    series.iter().map(|v| v.to_bits()).collect()
}

fn assert_outcome_matches_sim(
    backend: &str,
    threads: usize,
    sim_out: &rths_sim::Outcome,
    net_out: &NetOutcome,
    estimates: bool,
) {
    let tag = format!("{backend} backend, RTHS_THREADS={threads}");
    assert_eq!(sim_out.epochs, net_out.epochs, "{tag}: epoch counts diverged");
    let (sim, net) = (&sim_out.metrics, &net_out.metrics);
    for (name, a, b) in [
        ("welfare", &sim.welfare, &net.welfare),
        ("server load", &sim.server_load, &net.server_load),
        ("Jain fairness", &sim.jain, &net.jain),
        ("switches", &sim.switches, &net.switches),
        ("population", &sim.population, &net.population),
        ("minimum deficit", &sim.min_deficit, &net.min_deficit),
        ("current deficit", &sim.current_deficit, &net.current_deficit),
    ] {
        assert_eq!(bits(a.values()), bits(b.values()), "{tag}: {name} series diverged");
    }
    assert_eq!(
        bits(&sim.mean_helper_loads),
        bits(&net.mean_helper_loads),
        "{tag}: mean helper loads diverged"
    );
    for (j, (a, b)) in
        sim_out.metrics.helper_loads.iter().zip(&net_out.metrics.helper_loads).enumerate()
    {
        assert_eq!(
            bits(a.values()),
            bits(b.values()),
            "{tag}: helper {j} load series diverged"
        );
    }
    assert_eq!(
        bits(sim_out.metrics.worst_empirical_regret.values()),
        bits(net_out.metrics.worst_empirical_regret.values()),
        "{tag}: empirical regret series diverged"
    );
    // The estimate series is learner-derived on both sides (the peers
    // attach their virtual-play Q maxima to observations; the simulator
    // scans the same slab state) — it must agree bit-for-bit too. A net
    // run told not to track it reports `+0.0` every epoch.
    let expected = if estimates {
        bits(sim_out.metrics.worst_regret_estimate.values())
    } else {
        vec![0; sim_out.epochs as usize]
    };
    assert_eq!(
        expected,
        bits(net_out.metrics.worst_regret_estimate.values()),
        "{tag}: regret estimate series diverged"
    );
    // Final per-peer summaries.
    assert_eq!(
        bits(&sim_out.metrics.mean_peer_rates),
        bits(&net_out.peer_mean_rates),
        "{tag}: per-peer mean rates diverged"
    );
    assert_eq!(
        bits(&sim_out.metrics.peer_continuity),
        bits(&net_out.peer_continuity),
        "{tag}: per-peer continuity diverged"
    );
}

/// Shard span for the multi-process runs: small enough that even the
/// ~16-actor paper scenarios split into several shards and therefore
/// into genuinely separate processes.
const MULTIPROC_SPAN: usize = 4;

/// The acceptance gate: sim, reactor net, and the multi-process reactor
/// (2 and 4 processes) must produce identical trajectories at every
/// tested worker count.
fn assert_equivalent(sim_config: SimConfig, epochs: u64) {
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let mut sim = System::new(sim_config.clone());
            let sim_out = sim.run(epochs);
            let reactor = rths_net::run(NetConfig::from_sim(sim_config.clone()), epochs);
            assert_outcome_matches_sim("reactor", threads, &sim_out, &reactor, true);
            for processes in [2usize, 4] {
                let report = rths_net::run_multiproc_with_span(
                    NetConfig::from_sim(sim_config.clone()),
                    epochs,
                    processes,
                    MULTIPROC_SPAN,
                );
                assert_outcome_matches_sim(
                    &format!("multiproc({processes})"),
                    threads,
                    &sim_out,
                    &report.outcome,
                    true,
                );
                // The net hosts also agree on message accounting — same
                // protocol, different transport.
                assert_eq!(
                    reactor.messages, report.outcome.messages,
                    "RTHS_THREADS={threads}, {processes} processes: \
                     message accounting diverged from the reactor"
                );
            }
        });
    }
}

#[test]
fn equivalent_on_paper_small() {
    assert_equivalent(Scenario::paper_small().seed(42).build(), 150);
}

#[test]
fn equivalent_with_demand_cap() {
    assert_equivalent(Scenario::paper_server_load().seed(7).build(), 120);
}

#[test]
fn equivalent_with_heterogeneous_processes() {
    let config = SimConfig::builder(
        9,
        vec![
            BandwidthSpec::Paper { stay: 0.9 },
            BandwidthSpec::Constant(650.0),
            BandwidthSpec::GilbertElliott { good: 900.0, bad: 300.0, p_gb: 0.05, p_bg: 0.2 },
        ],
    )
    .seed(99)
    .build();
    assert_equivalent(config, 200);
}

#[test]
fn equivalent_on_a_reactor_scale_population() {
    // Large enough to shard everywhere at `RTHS_THREADS=2`: more than
    // 2 × `rths_par::MIN_ITEMS_PER_WORKER` peers, so the simulator's store
    // phases and the coordinator's regret record split in two, and five
    // default-span mailbox shards, so a reactor round is multi-shard.
    let config = SimConfig::builder(4_200, vec![BandwidthSpec::Paper { stay: 0.95 }; 8])
        .seed(1234)
        .build();
    assert_equivalent(config, 12);
}

/// Helper 0 goes offline at epoch 50 and comes back at epoch 120: the
/// reactor's failure path (a `SetOnline` message to the helper actor)
/// must give the simulator's `set_helper_online` trajectory, every series
/// bit for bit, at either worker count.
#[test]
fn helper_failure_is_equivalent() {
    const PHASES: [(u64, Option<bool>); 3] = [(50, Some(false)), (70, Some(true)), (80, None)];
    let config = Scenario::paper_server_load().seed(19).build();
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let mut sim = System::new(config.clone());
            let mut reactor = ReactorRuntime::new(NetConfig::from_sim(config.clone()));
            for (epochs, online) in PHASES {
                let _ = sim.run(epochs);
                reactor.run_epochs(epochs);
                if let Some(online) = online {
                    sim.set_helper_online(0, online);
                    reactor.set_helper_online(0, online);
                }
            }
            let sim_out = sim.outcome();
            // Not vacuous: the failure shows in the welfare series.
            let welfare = sim_out.metrics.welfare.values();
            assert!(welfare[50..120].iter().sum::<f64>() < welfare[120..190].iter().sum());
            assert_outcome_matches_sim(
                "reactor, helper 0 offline at 50..120",
                threads,
                &sim_out,
                &reactor.finish(),
                true,
            );
        });
    }
}

#[test]
fn jitter_does_not_change_results() {
    // The seeded delivery-schedule sweep. Every peer's request and every
    // helper's tick is delayed by a hash of (plan seed, actor, epoch), and
    // timers fire only once the mesh is quiescent, so delayed requests
    // land in delay order: the plan seed permutes the order in which they
    // reach each helper, and how many rounds and timer steps the epoch
    // takes before the helpers' `Settle` timers fire, one tick after the
    // plan's largest possible delay.
    // The barrier protocol must absorb every such schedule: each run is
    // held to the simulator under the same plan, every series and both
    // per-peer summaries.
    const PLAN_SEEDS: u64 = 16;
    const JITTER_BOUNDS: [u64; 5] = [0, 2, 5, 17, 200];
    const EPOCHS: u64 = 30;
    let clean = |seed| ImpairmentPlan::builder(seed).build().expect("empty plan is valid");
    // The full rate-affecting stack, plus a latency ladder whose level 0
    // keeps some actors undelayed while others are not.
    let impaired = |seed| {
        ImpairmentPlan::builder(seed)
            .gilbert_loss(0.05, 0.3, 0.85, 0.05)
            .token_bucket(450.0, 1000.0)
            .link_bandwidth(vec![250.0, 500.0, 900.0], 0.9)
            .latency(vec![0, 1, 4, 9], 0.7)
            .build()
            .expect("valid impairment plan")
    };
    let mut cases = 0usize;
    let mut schedules = BTreeSet::new();
    for seed in 0..PLAN_SEEDS {
        for bound in JITTER_BOUNDS {
            for (variant, plan) in [("clean", clean(seed)), ("impaired", impaired(seed))] {
                let config =
                    SimConfig::builder(24, vec![BandwidthSpec::Paper { stay: 0.9 }; 3])
                        .demand(400.0)
                        .seed(5)
                        .impairment(plan.with_jitter(bound))
                        .build();
                let sim_out = System::new(config.clone()).run(EPOCHS);
                let mut reactor = ReactorRuntime::new(NetConfig::from_sim(config));
                reactor.run_epochs(EPOCHS);
                schedules.insert(reactor.stats().protocol());
                assert_outcome_matches_sim(
                    &format!("reactor, {variant} plan seed {seed}, jitter bound {bound}"),
                    rths_par::threads(),
                    &sim_out,
                    &reactor.finish(),
                    true,
                );
                cases += 1;
            }
        }
    }
    // Not vacuous: the sweep really did run many different schedules
    // (`(rounds, messages, timers_fired)` differs between them). Only
    // the clean plan at bound 0 delays nothing, whatever its seed.
    assert!(cases >= 160, "sweep shrank to {cases} cases");
    assert!(
        schedules.len() * 2 >= cases,
        "only {} distinct delivery schedules in {cases} cases",
        schedules.len()
    );
}

#[test]
fn equivalent_under_gilbert_elliott_and_token_bucket() {
    // The impairment layer is shared state *and* shared code: the fault
    // draw, the Gilbert-Elliott channel walk, and the token-bucket level
    // are all pure functions of (plan seed, link, epoch), so a lossy,
    // rate-shaped run must stay bit-identical across all three engines
    // and at every worker count. This is the acceptance gate for the
    // impairment layer itself.
    let plan = ImpairmentPlan::builder(21)
        .gilbert_loss(0.05, 0.35, 0.85, 0.1)
        .token_bucket(400.0, 900.0)
        .build()
        .expect("valid impairment plan");
    let config = SimConfig::builder(10, vec![BandwidthSpec::Paper { stay: 0.95 }; 3])
        .demand(350.0)
        .seed(13)
        .impairment(plan)
        .build();
    assert_equivalent(config, 120);
}

#[test]
fn equivalent_under_full_impairment_stack() {
    // Everything at once: bursty loss, a link-bandwidth Markov chain,
    // token-bucket policing, latency, and jitter. Latency and jitter are
    // absorbed by the epoch barrier; the rest must shape rates
    // identically in the sequential simulator and both net backends.
    let plan = ImpairmentPlan::builder(77)
        .gilbert_loss(0.02, 0.25, 0.9, 0.15)
        .token_bucket(500.0, 1200.0)
        .link_bandwidth(vec![250.0, 500.0, 900.0], 0.9)
        .latency(vec![1, 3], 0.8)
        .build()
        .expect("valid impairment plan")
        .with_jitter(150);
    let config = SimConfig::builder(8, vec![BandwidthSpec::Paper { stay: 0.9 }; 3])
        .demand(400.0)
        .seed(29)
        .impairment(plan)
        .build();
    assert_equivalent(config, 90);
}

/// The configuration the throughput workloads run — peers attach no
/// regret estimate — on both net backends. Each mailbox shard's observe
/// phase then never maintains its slab's estimate rows, while the
/// simulator here does; every series but the estimate and both per-peer
/// summaries must still equal the simulator's. The two tests differ in
/// the slab's geometry. `…_on_the_direct_path` runs 8 helpers: a T column
/// is one cache line, so the observe phase's load pass does nothing and
/// played rows are gathered densely. `…_on_the_queued_path` runs 16: the
/// load pass runs before each block of `OBSERVE_BATCH` observes and rows
/// are read through the played mask. The second name is historical (it
/// dates from the slab's observe queue, since removed) and is kept so the
/// test keeps its id.
fn assert_equivalent_without_estimates(sim_config: SimConfig, epochs: u64) {
    for threads in [1usize, 2] {
        with_threads(threads, || {
            let sim_out = System::new(sim_config.clone()).run(epochs);
            assert!(sim_out.metrics.worst_regret_estimate.values().iter().all(|&e| e > 0.0));
            let config = NetConfig::from_sim(sim_config.clone()).with_track_estimate(false);
            let reactor = rths_net::run(config.clone(), epochs);
            assert_outcome_matches_sim(
                "reactor, no estimates",
                threads,
                &sim_out,
                &reactor,
                false,
            );
            let report = rths_net::run_multiproc_with_span(config, epochs, 2, 32);
            assert_outcome_matches_sim(
                "multiproc(2), no estimates",
                threads,
                &sim_out,
                &report.outcome,
                false,
            );
            assert_eq!(reactor.messages, report.outcome.messages);
        });
    }
}

/// 45 peers over `helpers` helpers, clean and under the full impairment
/// stack. The reactor holds all 45 in one mailbox shard, so its observe
/// phase runs five full blocks of eight and one of five; at a shard span
/// of 32 each of the two processes holds one shard — 14 and 31 peers at
/// 16 helpers, so one and three full blocks and partial ones of 6 and 7.
fn without_estimates(helpers: usize) {
    let plan = ImpairmentPlan::builder(77)
        .gilbert_loss(0.02, 0.25, 0.9, 0.15)
        .token_bucket(500.0, 1200.0)
        .link_bandwidth(vec![250.0, 500.0, 900.0], 0.9)
        .latency(vec![1, 3], 0.8)
        .build()
        .expect("valid impairment plan")
        .with_jitter(150);
    let config = || {
        SimConfig::builder(45, vec![BandwidthSpec::Paper { stay: 0.9 }; helpers])
            .demand(400.0)
            .seed(31)
    };
    assert_equivalent_without_estimates(config().build(), 40);
    assert_equivalent_without_estimates(config().impairment(plan).build(), 40);
}

#[test]
fn equivalent_without_estimates_on_the_direct_path() {
    without_estimates(8);
}

#[test]
fn equivalent_without_estimates_on_the_queued_path() {
    without_estimates(16);
}
