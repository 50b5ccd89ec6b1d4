//! Cross-crate equilibrium tests: learned play lands in the CE set and
//! beats myopic baselines.

use rths_core::{RthsConfig, SlabLearner};
use rths_oracle::equilibrium::{ce_residual_congestion, max_welfare_ce, nash_loads};
use rths_oracle::{best_response, Game, HelperSelectionGame, RepeatedGameDriver};
use rths_stoch::rng::seeded_rng;

/// `n` learners in one shared slab — the reactor's production layout.
fn learners(n: usize, h: usize, mu: f64) -> Vec<SlabLearner> {
    let cfg = RthsConfig::builder(h).epsilon(0.01).delta(0.1).mu(mu).build().unwrap();
    SlabLearner::population(n, &cfg)
}

/// The paper's central claim: the empirical joint play of RTHS peers
/// converges to the correlated-equilibrium set.
#[test]
fn learned_play_is_approximate_ce() {
    let caps = vec![800.0, 800.0, 600.0];
    let mut driver = RepeatedGameDriver::new(learners(9, 3, 4.0 * 245.0), caps.clone())
        .record_joint_from(2000);
    let mut rng = seeded_rng(11);
    let result = driver.run(8000, &mut rng);
    let report = ce_residual_congestion(&HelperSelectionGame::new(caps), &result.joint);
    assert!(
        report.relative_residual() < 0.10,
        "relative CE residual too high: {:.3}",
        report.relative_residual()
    );
}

/// The converged welfare is comparable to the best correlated
/// equilibrium's welfare (computed exactly by LP on a small instance).
#[test]
fn learned_welfare_near_best_ce() {
    let caps = vec![800.0, 600.0];
    let game = HelperSelectionGame::new(caps.clone()).with_peers(4);
    let ce = max_welfare_ce(&game).unwrap();
    assert!((ce.welfare() - 1400.0).abs() < 1e-6);

    let mut driver = RepeatedGameDriver::new(learners(4, 2, 4.0 * 350.0), caps);
    let mut rng = seeded_rng(12);
    let result = driver.run(6000, &mut rng);
    let tail = result.welfare.tail_mean(800);
    assert!(
        tail > 0.9 * ce.welfare(),
        "welfare {tail:.0} below 90% of best CE {:.0}",
        ce.welfare()
    );
}

/// §III.B: synchronous best response oscillates forever, RTHS does not.
/// The comparison metric is helper switches per peer per stage — the
/// streaming-interruption proxy.
#[test]
fn rths_avoids_best_response_oscillation() {
    let caps = vec![800.0, 800.0];
    let n = 20usize;
    let game = HelperSelectionGame::new(caps.clone());

    // Myopic baseline: everyone flaps every stage.
    let trace = best_response::synchronous(&game, &vec![0usize; n], 200);
    assert!(!trace.converged);
    let br_switch_rate =
        trace.total_switches() as f64 / (n as f64 * trace.switches.len() as f64);
    assert!(br_switch_rate > 0.99, "baseline did not oscillate: {br_switch_rate}");

    // RTHS: after convergence, switching is rare.
    let mut driver = RepeatedGameDriver::new(learners(n, 2, 4.0 * 80.0), caps);
    let mut rng = seeded_rng(13);
    let result = driver.run(4000, &mut rng);
    let tail_switches = result.switches.tail_mean(500) / n as f64;
    assert!(
        tail_switches < 0.25,
        "RTHS switch rate too high: {tail_switches:.3} per peer per stage"
    );
    assert!(br_switch_rate > 4.0 * tail_switches);
}

/// The long-run loads under RTHS lean toward the Nash/CE load split on
/// asymmetric capacities (more peers on bigger helpers). The δ-floor
/// exploration and estimator noise keep the split softer than the exact
/// 6/2 NE — the CE set is larger than the NE set — so the assertion is
/// directional with a quantitative margin.
#[test]
fn loads_track_capacity_ratio() {
    let caps = vec![900.0, 300.0];
    let game = HelperSelectionGame::new(caps.clone());
    let ne_loads = nash_loads(&game, 8);
    assert_eq!(ne_loads, vec![6, 2]);

    let mut driver = RepeatedGameDriver::new(learners(8, 2, 4.0 * 150.0), caps);
    let mut rng = seeded_rng(14);
    let result = driver.run(12_000, &mut rng);
    let big = result.mean_loads[0];
    let small = result.mean_loads[1];
    assert!(big > small + 1.2, "no lean toward the big helper: mean loads {big:.2}/{small:.2}");
    assert!(big > 4.5, "big helper load {big:.2} too low (NE is 6)");
    assert!(small < 3.5, "small helper load {small:.2} too high (NE is 2)");
}

/// Sanity: social welfare at any observed profile equals the sum of busy
/// helpers' capacities — confirming the game wiring between crates.
#[test]
fn welfare_identity_via_joint_distribution() {
    let caps = vec![700.0, 500.0];
    let game = HelperSelectionGame::new(caps.clone()).with_peers(3);
    let mut driver = RepeatedGameDriver::new(learners(3, 2, 1600.0), caps.clone());
    let mut rng = seeded_rng(15);
    let result = driver.run(500, &mut rng);
    for (profile, _) in result.joint.iter() {
        let w = game.social_welfare(profile);
        let loads = game.loads(profile);
        let expected: f64 =
            loads.iter().zip(&caps).map(|(&n, &c)| if n > 0 { c } else { 0.0 }).sum();
        assert!((w - expected).abs() < 1e-9);
    }
    // CE residual machinery agrees between weighted and raw computation.
    let report = ce_residual_congestion(&game, &result.joint);
    assert!(report.max_residual.is_finite());
}
