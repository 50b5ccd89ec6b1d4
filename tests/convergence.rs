//! End-to-end convergence tests mirroring the paper's five figures.
//!
//! Each test asserts the *shape* the corresponding figure reports; the
//! `rths_bench fig1` … `rths_bench fig5` regenerate the full series.

use rand::SeedableRng;
use rths_oracle::MdpBenchmark;
use rths_sim::{Scenario, System};
use rths_stoch::bandwidth::MarkovBandwidth;

/// Fig. 1: the worst peer's regret approaches zero in the large-scale
/// scenario (N=200, H=20).
#[test]
fn fig1_worst_regret_decays_at_scale() {
    let mut system = System::new(Scenario::paper_large().seed(101).build());
    let out = system.run(2500);
    let series = out.metrics.worst_empirical_regret;
    let early = rths_math::stats::mean(&series.values()[20..120]);
    let late = series.tail_mean(300);
    assert!(
        late < early * 0.35,
        "regret did not decay enough: early {early:.1}, late {late:.1}"
    );
    // Late regret is small relative to the ~80 kbps per-peer rate scale.
    assert!(late < 15.0, "late regret {late:.1} too high");
}

/// Fig. 2: RTHS social welfare approaches the centralized MDP optimum in
/// the small-scale scenario (N=10, H=4).
#[test]
fn fig2_rths_near_mdp_optimum() {
    let mut system = System::new(Scenario::paper_small().seed(202).build());
    let out = system.run(6000);

    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut seed_rng = rths_stoch::rng::seeded_rng(999);
    let helpers: Vec<MarkovBandwidth> =
        (0..4).map(|_| MarkovBandwidth::paper_with_stay(&mut seed_rng, 0.98)).collect();
    let bench = MdpBenchmark::from_processes(&helpers, 10, None);
    let optimum = bench.optimal_welfare(&mut rng);
    assert!((optimum - 3200.0).abs() < 1e-6);

    let achieved = out.metrics.tail_welfare(1000);
    let ratio = achieved / optimum;
    assert!(
        ratio > 0.90,
        "RTHS reached only {:.1}% of the MDP optimum ({achieved:.0}/{optimum:.0})",
        ratio * 100.0
    );
}

/// Fig. 3: load is (close to) evenly distributed across equal-capacity
/// helpers.
#[test]
fn fig3_even_load_distribution() {
    let mut system = System::new(Scenario::paper_small().seed(303).build());
    let out = system.run(5000);
    let loads = &out.metrics.mean_helper_loads;
    assert_eq!(loads.len(), 4);
    let cv = rths_math::stats::coefficient_of_variation(loads);
    assert!(cv < 0.12, "helper loads too uneven: {loads:?} (cv {cv:.3})");
    // Mean load per helper is N/H = 2.5.
    for &l in loads {
        assert!((l - 2.5).abs() < 0.5, "load {l} far from 2.5");
    }
}

/// Fig. 4: helper bandwidth is (close to) evenly distributed across
/// peers — Jain index near 1 on long-run rates.
#[test]
fn fig4_fair_bandwidth_shares() {
    let mut system = System::new(Scenario::paper_small().seed(404).build());
    let out = system.run(5000);
    let jain = out.metrics.long_run_fairness();
    assert!(jain > 0.95, "long-run fairness too low: {jain:.3}");
    // All peers within ±25% of the 320 kbps fair share.
    for &r in &out.metrics.mean_peer_rates {
        assert!((r - 320.0).abs() < 80.0, "peer rate {r:.0} far from fair share");
    }
}

/// Fig. 5: the real server workload stays close to (and above) the
/// minimum bandwidth deficit of the helpers.
#[test]
fn fig5_server_load_tracks_deficit() {
    let mut system = System::new(Scenario::paper_server_load().seed(505).build());
    let out = system.run(5000);
    // Demand 4000; min helper bandwidth 4×700 = 2800 → min deficit 1200.
    let min_deficit = out.metrics.min_deficit.values()[0];
    assert!((min_deficit - 1200.0).abs() < 1e-9);
    let tail_load = out.metrics.tail_server_load(1000);
    // Load is lower-bounded by the current-capacity deficit and should
    // converge close to it: within 25% of the minimum-deficit line.
    assert!(tail_load >= min_deficit * 0.9);
    assert!(
        tail_load < min_deficit * 1.6,
        "server load {tail_load:.0} far above deficit bound {min_deficit:.0}"
    );
    // And helpers save the server most of the total demand.
    assert!(tail_load < 0.5 * 4000.0);
}

/// Convergence is robust across seeds (no cherry-picking).
#[test]
fn convergence_holds_across_seeds() {
    for seed in [1u64, 17, 23456] {
        let mut system = System::new(Scenario::paper_small().seed(seed).build());
        let out = system.run(4000);
        let late = out.metrics.worst_empirical_regret.tail_mean(400);
        assert!(late < 40.0, "seed {seed}: late regret {late:.1}");
        let welfare = out.metrics.tail_welfare(400);
        assert!(welfare > 2850.0, "seed {seed}: welfare {welfare:.0}");
    }
}
