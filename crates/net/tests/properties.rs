//! Property-based tests for the decentralized runtime.

use proptest::prelude::*;
use rths_net::machines::{
    instantiate_helpers, CoordinatorMachine, HelperMachine, PeerMachine, Settlement,
};
use rths_net::NetConfig;
use rths_sim::regret::{DenseRegret, SNAPSHOT_SLOTS};
use rths_sim::{BandwidthSpec, ImpairmentPlan, SimConfig, SimMetrics, System};
use rths_stoch::rng::derive_seed;

fn config(n: usize, h: usize, seed: u64, demand: Option<f64>) -> SimConfig {
    let mut b = SimConfig::builder(n, vec![BandwidthSpec::Paper { stay: 0.95 }; h]).seed(seed);
    if let Some(d) = demand {
        b = b.demand(d);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn runtime_is_deterministic(
        n in 2usize..12,
        h in 1usize..5,
        seed in any::<u64>(),
    ) {
        let run = || rths_net::run(NetConfig::from_sim(config(n, h, seed, None)), 30);
        let a = run();
        let b = run();
        prop_assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
        prop_assert_eq!(a.peer_mean_rates, b.peer_mean_rates);
    }

    #[test]
    fn lossy_runs_are_deterministic_too(
        seed in any::<u64>(),
        loss in 0.0..0.9f64,
    ) {
        let run = || {
            let plan = ImpairmentPlan::builder(seed ^ 0xABCD)
                .uniform_loss(loss)
                .build()
                .expect("loss is a probability");
            let cfg = NetConfig::from_sim(SimConfig {
                impairment: plan,
                ..config(6, 2, seed, Some(300.0))
            });
            rths_net::run(cfg, 40)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
        prop_assert_eq!(a.metrics.server_load.values(), b.metrics.server_load.values());
    }

    #[test]
    fn loss_is_monotone_in_welfare(seed in 0u64..50) {
        // More loss can never deliver more total rate (deterministic
        // comparison is per-seed noisy, so compare time-averaged welfare
        // with a tolerance).
        let run = |loss: f64| {
            let plan = ImpairmentPlan::builder(7)
                .uniform_loss(loss)
                .build()
                .expect("loss is a probability");
            let cfg =
                NetConfig::from_sim(SimConfig { impairment: plan, ..config(8, 2, seed, None) });
            let out = rths_net::run(cfg, 150);
            out.metrics.welfare.tail_mean(100)
        };
        let clean = run(0.0);
        let heavy = run(0.6);
        prop_assert!(heavy <= clean * 1.05 + 1e-9,
            "heavy loss delivered more: {heavy} vs {clean}");
    }

    #[test]
    fn conservation_with_demand(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let out = rths_net::run(NetConfig::from_sim(config(n, 3, seed, Some(350.0))), 40);
        for e in 0..40 {
            let w = out.metrics.welfare.values()[e];
            let s = out.metrics.server_load.values()[e];
            prop_assert!((w + s - 350.0 * n as f64).abs() < 1e-6,
                "delivered {w} + server {s} != demand");
        }
    }
}

/// `0..n` in index order (`None`) or shuffled by a seeded Fisher–Yates.
fn arrival_order(n: usize, seed: Option<u64>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(seed) = seed {
        for i in (1..n).rev() {
            order.swap(i, (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize);
        }
    }
    order
}

/// Everything a run of the machines produces, as bit patterns.
#[derive(Debug, PartialEq)]
struct MachineTrace {
    /// `(load, capacity)` per epoch and helper.
    settlements: Vec<(usize, u64)>,
    /// Delivered kbps per epoch and peer (peer order).
    delivered: Vec<u64>,
    /// Every metric series and summary, flattened.
    metrics: Vec<Vec<u64>>,
}

fn metric_bits(m: &SimMetrics) -> Vec<Vec<u64>> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut out = vec![
        bits(m.worst_regret_estimate.values()),
        bits(m.worst_empirical_regret.values()),
        bits(m.welfare.values()),
        bits(m.server_load.values()),
        bits(m.min_deficit.values()),
        bits(m.current_deficit.values()),
        bits(m.switches.values()),
        bits(m.jain.values()),
        bits(m.population.values()),
        bits(&m.mean_helper_loads),
        bits(&m.mean_peer_rates),
        bits(&m.peer_continuity),
    ];
    out.extend(m.helper_loads.iter().map(|s| bits(s.values())));
    out
}

/// Drives the protocol machines by hand for `epochs` epochs. Each epoch's
/// requests and the coordinator's settle-phase events (`HelperReport`s
/// and the peers' report blocks interleaved) arrive in index order
/// (`schedule = None`) or each in a permutation of its own drawn from
/// `schedule`. The peers report in one block in index order and in
/// blocks of 1 to 5 peers under a schedule, as mailbox shards of any
/// span would. Only what the protocol itself orders is kept: a helper
/// settles after its requests, a peer observes after its helper settled,
/// and a block is reported once all of its peers have observed.
fn drive_machines(sim: &SimConfig, epochs: u64, schedule: Option<u64>) -> MachineTrace {
    let n = sim.num_peers;
    let (helpers, helper_min_total) = instantiate_helpers(sim);
    let h = helpers.len();
    // The arrival position rides along as the request's attachment.
    let mut helpers: Vec<HelperMachine<usize>> =
        helpers.into_iter().map(HelperMachine::new).collect();
    let mut peers: Vec<PeerMachine> = (0..n as u64)
        .map(|id| PeerMachine::from_config(sim, id, h, sim.impairment.clone()))
        .collect();
    let mut coord = CoordinatorMachine::new(sim, helper_min_total);
    let block = schedule.map_or(n, |s| 1 + (s % 5) as usize);
    let mut settlements = Vec::new();
    let mut delivered = Vec::new();

    for epoch in 0..epochs {
        let stream = |phase: u64| schedule.map(|s| derive_seed(s, epoch * 3 + phase));
        coord.begin_epoch();
        helpers.iter_mut().for_each(HelperMachine::on_tick);
        let selections: Vec<_> = peers.iter_mut().map(|p| p.on_tick(epoch)).collect();

        for (position, &i) in arrival_order(n, stream(0)).iter().enumerate() {
            helpers[selections[i].helper].on_request(i as u64, selections[i].lost, position);
        }

        // Settle-phase events in arrival order: helper reports, and the
        // peer blocks whose columns the helpers' replies fill.
        enum Event {
            Report(usize, Settlement),
            Block(usize),
        }
        let mut events: Vec<Event> = (0..n.div_ceil(block)).map(Event::Block).collect();
        let mut kbps_bits = vec![0u64; n];
        let mut rates = vec![0.0; n];
        let mut estimates = vec![0.0f64; n];
        for (j, helper) in helpers.iter_mut().enumerate() {
            let mut last_position = None;
            let settlement = helper.on_settle(|peer, kbps, position| {
                assert!(last_position < Some(position), "replies left arrival order");
                last_position = Some(position);
                let i = peer as usize;
                kbps_bits[i] = kbps.to_bits();
                rates[i] = peers[i].on_rate(kbps);
                estimates[i] = peers[i].peer().max_regret();
            });
            settlements.push((settlement.load, settlement.capacity.to_bits()));
            events.push(Event::Report(j, settlement));
        }
        delivered.extend(kbps_bits);
        let chosen: Vec<u32> = selections.iter().map(|s| s.helper as u32).collect();
        for &k in &arrival_order(events.len(), stream(2)) {
            match events[k] {
                Event::Report(j, s) => coord.on_helper_report(j, s.load, s.capacity),
                Event::Block(b) => {
                    let peers = b * block..n.min((b + 1) * block);
                    let estimate = estimates[peers.clone()].iter().copied().fold(0.0, f64::max);
                    coord.on_shard_report(
                        peers.start,
                        &chosen[peers.clone()],
                        &rates[peers],
                        estimate,
                    );
                }
            }
        }
        coord.finish_epoch();
    }

    let summaries = peers.iter().map(|p| (p.peer().mean_rate(), p.peer().continuity()));
    let metrics = coord.finalize_summaries(summaries);
    MachineTrace { settlements, delivered, metrics: metric_bits(&metrics) }
}

/// No result may depend on the order in which an epoch's messages reach a
/// helper or the coordinator — including orders only free-running OS
/// threads could produce and the reactor's timer wheel cannot. Checked
/// seed by seed against index order, not left to scheduler luck.
#[test]
fn machines_are_arrival_order_independent() {
    const EPOCHS: u64 = 30;
    const PERMUTATIONS: u64 = 32;
    let plan = ImpairmentPlan::builder(21)
        .gilbert_loss(0.05, 0.35, 0.85, 0.1)
        .token_bucket(400.0, 900.0)
        .build()
        .expect("valid impairment plan");
    let sim = SimConfig::builder(12, vec![BandwidthSpec::Paper { stay: 0.9 }; 3])
        .demand(350.0)
        .seed(17)
        .impairment(plan)
        .build();
    let reference = drive_machines(&sim, EPOCHS, None);
    // The hand-driven harness is a faithful host: in index order it is
    // the simulator, bit for bit.
    assert_eq!(reference.metrics, metric_bits(&System::new(sim.clone()).run(EPOCHS).metrics));
    for schedule in 0..PERMUTATIONS {
        assert_eq!(
            drive_machines(&sim, EPOCHS, Some(schedule)),
            reference,
            "arrival schedule {schedule} changed a result"
        );
    }
}

/// The reactor's Fig. 1 series against the dense oracle: the coordinator's
/// `worst_empirical_regret` — stretch-folded, sharded, and read only where
/// a peer's bound exceeds the running max — must be, every epoch and
/// `to_bits`, the max over peers of `DenseRegret::record` fed the same
/// seeded selections (a quarter of the peers switching each epoch),
/// integral rates and integral helper reports, for more than
/// `SNAPSHOT_SLOTS` epochs so window folds and ring wrap run. 4,200 peers
/// shard the record at `RTHS_THREADS=2`.
#[test]
fn coordinator_regret_series_matches_dense_oracle() {
    const EPOCHS: u64 = 2 * SNAPSHOT_SLOTS as u64 + 44;
    let (n, h) = (4200, 6);
    let mut coord = CoordinatorMachine::new(&config(n, h, 5, None), 0.0);
    let mut dense = DenseRegret::new(&[h]);
    (0..n).for_each(|_| dense.add_peer());
    let mut draw = {
        let mut counter = 0u64;
        move |below: u64| {
            counter += 1;
            derive_seed(2014, counter) % below
        }
    };
    let mut chosen: Vec<usize> = (0..n).map(|p| p % h).collect();
    let mut want = Vec::new();
    for _ in 0..EPOCHS {
        coord.begin_epoch();
        for (p, helper) in chosen.iter_mut().enumerate() {
            if draw(4) == 0 {
                *helper = draw(h as u64) as usize;
            }
            coord.on_selected(p as u64, *helper);
        }
        // A report of `load` and `(load + 1) · j` gives join rate `j`
        // exactly.
        let join: Vec<f64> = (0..h).map(|_| draw(600) as f64).collect();
        for (j, &rate) in join.iter().enumerate() {
            let load = draw(n as u64) as usize;
            coord.on_helper_report(j, load, rate * (load + 1) as f64);
        }
        let mut worst = 0.0f64;
        for (p, &helper) in chosen.iter().enumerate() {
            let rate = draw(800) as f64;
            coord.on_observed(p as u64, rate, 0.0);
            worst = worst.max(dense.record(p, 0, helper, rate, &join));
        }
        want.push(worst.to_bits());
        coord.finish_epoch();
    }
    let metrics = coord.finalize_summaries([]);
    let got: Vec<u64> =
        metrics.worst_empirical_regret.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got.len(), want.len());
    for (e, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            got,
            want,
            "epoch {e}: ledger {} vs dense {}",
            f64::from_bits(*got),
            f64::from_bits(*want)
        );
    }
}
