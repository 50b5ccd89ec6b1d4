//! Robustness under churn, flash crowds and helper failures.

use rths_sim::{BandwidthSpec, LearnerSpec, Scenario, SimConfig, System, WorkloadPhase};
use rths_stoch::rng::seeded_rng;

/// Under stationary churn the system keeps serving: population hovers at
/// the equilibrium and fairness stays high.
#[test]
fn churn_keeps_system_healthy() {
    let mut system = System::new(Scenario::churn().seed(21).build());
    let out = system.run(3000);
    let pops = out.metrics.population.values();
    let mean_pop = rths_math::stats::mean(&pops[1000..]);
    assert!(
        (mean_pop - 100.0).abs() < 15.0,
        "population {mean_pop:.0} far from equilibrium 100"
    );
    // Peers alive at the end still receive sensible service.
    let jain = out.metrics.long_run_fairness();
    assert!(jain > 0.8, "fairness under churn too low: {jain:.3}");
    // Loads always match the live population.
    for e in 0..out.metrics.epochs() {
        let l: f64 = out.metrics.helper_loads.iter().map(|s| s.values()[e]).sum();
        assert_eq!(l, out.metrics.population.values()[e]);
    }
}

/// A flash crowd triples the audience; total delivered rate scales up
/// (helpers absorb the surge) and recovers when the crowd leaves.
#[test]
fn flash_crowd_is_absorbed() {
    let config = SimConfig::builder(40, vec![BandwidthSpec::Paper { stay: 0.98 }; 8])
        .churn(rths_stoch::process::ChurnProcess::new(0.8, 0.02))
        .demand(300.0)
        .seed(22)
        .build();
    let mut system = System::new(config);
    WorkloadPhase::FlashCrowd { epochs: 2400, start: 800, end: 1200, surge: 10.0 }.run(
        &mut system,
        0.0,
        &mut seeded_rng(0),
    );
    let out = system.outcome();
    let pops = out.metrics.population.values();
    let before = rths_math::stats::mean(&pops[600..800]);
    let during = rths_math::stats::mean(&pops[1000..1200]);
    let after = rths_math::stats::mean(&pops[2200..]);
    assert!(during > before * 1.5, "surge invisible: {before:.0} -> {during:.0}");
    assert!(after < during * 0.8, "population did not drain: {during:.0} -> {after:.0}");
    // Server picks up the surge deficit.
    let load_before = rths_math::stats::mean(&out.metrics.server_load.values()[600..800]);
    let load_during = rths_math::stats::mean(&out.metrics.server_load.values()[1000..1200]);
    assert!(load_during > load_before, "server load did not rise during crowd");
}

/// Helper outage and recovery: peers evacuate a dead helper (with the
/// conditional-regret extension) and re-adopt it after recovery.
#[test]
fn outage_and_recovery_cycle() {
    let config = SimConfig::builder(16, vec![BandwidthSpec::Constant(800.0); 4])
        .learner(LearnerSpec { conditional: true, ..LearnerSpec::default() })
        .seed(23)
        .build();
    let mut system = System::new(config);
    let _ = system.run(1500);
    system.set_helper_online(2, false);
    let _ = system.run(1500);
    system.set_helper_online(2, true);
    let out = system.run(1800);

    let loads2 = out.metrics.helper_loads[2].values();
    let healthy = rths_math::stats::mean(&loads2[1200..1500]);
    let during = rths_math::stats::mean(&loads2[2600..3000]);
    let recovered = rths_math::stats::mean(&loads2[4400..]);
    assert!(healthy > 2.5, "helper 2 unused while healthy: {healthy:.2}");
    assert!(during < healthy * 0.55, "no evacuation: {healthy:.2} -> {during:.2}");
    assert!(
        recovered > during + 0.7,
        "no re-adoption after recovery: {during:.2} -> {recovered:.2}"
    );
}

/// The churn-time identity contract: a departure must not perturb any
/// surviving peer's trajectory.
///
/// The configuration makes every peer's dynamics independent of the rest
/// of the swarm — constant helper capacities with a demand cap that is
/// always met (`capacity / population ≥ demand`), so each peer's observed
/// rate is `demand` regardless of the load profile. A mid-run departure
/// then changes *nothing* for the survivors: their choice sequences,
/// learner strategies and accounting must be bit-identical to the
/// run where the departed peer never left. Under the historical
/// `swap_remove` churn path a store keyed by slot index would have
/// re-aliased the moved peer onto the departed peer's RNG stream, learner
/// row and rate column; the order-preserving stable-id removal makes this
/// impossible, and this test pins it.
#[test]
fn departure_does_not_perturb_survivors() {
    let build = || {
        // 8 peers × demand 100 = 800 ≤ every helper alone (1600), so the
        // per-peer rate is always exactly the demand.
        let config = SimConfig::builder(8, vec![BandwidthSpec::Constant(1600.0); 2])
            .demand(100.0)
            .seed(31)
            .build();
        System::new(config)
    };
    let snapshot = |sys: &System| -> Vec<(u64, Vec<u64>, u64, f64)> {
        let peers = sys.peers();
        (0..peers.len())
            .map(|slot| {
                (
                    peers.id(slot),
                    peers.learner(slot).probabilities().iter().map(|p| p.to_bits()).collect(),
                    peers.switches(slot),
                    peers.mean_rate(slot),
                )
            })
            .collect()
    };

    let mut baseline = build();
    let _ = baseline.run(400);
    let base = snapshot(&baseline);

    let mut churned = build();
    let _ = churned.run(200);
    assert!(churned.depart_peer(3), "peer 3 should be online");
    let _ = churned.run(200);
    let after = snapshot(&churned);

    assert_eq!(after.len(), base.len() - 1);
    for row in &after {
        assert_ne!(row.0, 3, "departed peer still present");
        let reference = base
            .iter()
            .find(|b| b.0 == row.0)
            .unwrap_or_else(|| panic!("peer {} lost its identity", row.0));
        assert_eq!(
            row.1, reference.1,
            "peer {}'s learner trajectory was perturbed by the departure",
            row.0
        );
        assert_eq!(row.2, reference.2, "peer {}'s switch count drifted", row.0);
        assert_eq!(
            row.3.to_bits(),
            reference.3.to_bits(),
            "peer {}'s mean rate drifted",
            row.0
        );
    }
}

/// Determinism survives churn and failures: identical configs and
/// scripted outages give identical outcomes.
#[test]
fn orchestrated_runs_are_deterministic() {
    let build = || {
        let config = Scenario::churn().seed(24).build();
        let mut system = System::new(config);
        let _ = system.run(200);
        system.set_helper_online(0, false);
        let _ = system.run(200);
        system.set_helper_online(0, true);
        system.run(200)
    };
    let a = build();
    let b = build();
    assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
    assert_eq!(a.final_population, b.final_population);
}
