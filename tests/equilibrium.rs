//! Cross-crate equilibrium tests on the production engine: RTHS peers in
//! a [`System`] over static helpers (no demand cap, no impairment) play
//! the helper-selection game, their learned play lands in the CE set and
//! beats myopic baselines.
//!
//! Every learning check runs at five consecutive seeds and must hold at
//! each of them. Where a check also runs the null policy of [`null`] —
//! EXP3 with δ = 0.999, which all but ignores what it learns and picks a
//! helper close to uniformly at random — the null must fail the bound
//! that RTHS passes, at every seed: a bound that the null can pass does
//! not test learning.

use rths_oracle::equilibrium::{ce_residual_congestion, max_welfare_ce, nash_loads};
use rths_oracle::{best_response, Game, HelperSelectionGame};
use rths_sim::{
    Algorithm, BandwidthSpec, JointDistribution, LearnerSpec, Outcome, SimConfig,
    SimConfigBuilder, System,
};

/// Seeds per check: the first one and the next four.
const SEEDS: u64 = 5;

/// `n` RTHS peers (ε = 0.01, δ = 0.1, the given `μ`) over static helpers
/// of `caps` kbps.
fn config(caps: &[f64], n: usize, mu: f64, seed: u64) -> SimConfigBuilder {
    let helpers = caps.iter().map(|&c| BandwidthSpec::Constant(c)).collect();
    SimConfig::builder(n, helpers)
        .learner(LearnerSpec {
            epsilon: 0.01,
            delta: 0.1,
            mu: Some(mu),
            ..LearnerSpec::default()
        })
        .seed(seed)
}

/// [`config`] with the null policy in place of RTHS: EXP3 at the same ε
/// and μ with δ = 0.999, so that it explores almost uniformly.
fn null(caps: &[f64], n: usize, mu: f64, seed: u64) -> SimConfigBuilder {
    config(caps, n, mu, seed).learner(LearnerSpec {
        algorithm: Algorithm::Exp3,
        epsilon: 0.01,
        delta: 0.999,
        mu: Some(mu),
        ..LearnerSpec::default()
    })
}

/// Runs `epochs` epochs of `config` with the joint distribution recorded
/// from epoch `record_from`, and checks that it holds exactly those
/// epochs: an empty record would pass every CE bound vacuously.
fn run(
    config: SimConfigBuilder,
    record_from: u64,
    epochs: u64,
) -> (Outcome, JointDistribution) {
    let mut out = System::new(config.record_joint_from(record_from).build()).run(epochs);
    let joint = out.joint.take().expect("a churn-free run records its joint play");
    assert_eq!(joint.total(), epochs - record_from, "joint records the wrong epochs");
    (out, joint)
}

/// The game's stage payoff is what the engine delivers: at static
/// helpers with no demand cap, each peer's realized rate is
/// [`HelperSelectionGame`]'s utility of the epoch's profile, and the
/// epoch's welfare is the profile's social welfare, to the bit.
#[test]
fn stage_payoff_is_the_engines_realized_rate() {
    let caps = [700.0, 500.0, 900.0];
    let n = 7;
    let game = HelperSelectionGame::new(caps.to_vec()).with_peers(n);
    for t in 1..=60u64 {
        // Recording from epoch t − 1 over t epochs leaves exactly epoch
        // t − 1's profile in the joint distribution.
        let builder = config(&caps, n, 4.0 * 2100.0 / n as f64, 21).record_peer_rates(true);
        let (out, joint) = run(builder, t - 1, t);
        let (profile, _) = joint.iter().next().expect("one recorded profile");
        let rates = out.peer_rate_series.as_ref().expect("peer rates recorded");
        let e = (t - 1) as usize;
        for (i, series) in rates.iter().enumerate() {
            let (got, want) = (series[e], game.utility(i, profile));
            assert_eq!(got.to_bits(), want.to_bits(), "epoch {e}, peer {i}: {got} != {want}");
        }
        let (got, want) = (out.metrics.welfare.values()[e], game.social_welfare(profile));
        assert_eq!(got.to_bits(), want.to_bits(), "epoch {e} welfare: {got} != {want}");
    }
}

/// The paper's central claim: the empirical joint play of RTHS peers
/// converges to the correlated-equilibrium set. The `0.10` bound is the
/// one `rths_bench ce_verify` applies; the null reads 0.099–0.108 here,
/// so the tighter `0.085` is the one that separates the two.
#[test]
fn learned_play_is_approximate_ce() {
    let caps = [800.0, 800.0, 600.0];
    let game = HelperSelectionGame::new(caps.to_vec());
    for seed in 11..11 + SEEDS {
        let (_, joint) = run(config(&caps, 9, 4.0 * 245.0, seed), 2000, 8000);
        let rths = ce_residual_congestion(&game, &joint).relative_residual();
        assert!(rths < 0.10, "seed {seed}: relative CE residual too high: {rths:.3}");
        assert!(rths < 0.085, "seed {seed}: relative CE residual above 0.085: {rths:.4}");

        let (_, joint) = run(null(&caps, 9, 4.0 * 245.0, seed), 2000, 8000);
        let null = ce_residual_congestion(&game, &joint).relative_residual();
        assert!(null >= 0.085, "seed {seed}: the null passes the CE bound: {null:.4}");
    }
}

/// The converged welfare is comparable to the best correlated
/// equilibrium's welfare (computed exactly by LP on a small instance).
#[test]
fn learned_welfare_near_best_ce() {
    let caps = [800.0, 600.0];
    let game = HelperSelectionGame::new(caps.to_vec()).with_peers(4);
    let ce = max_welfare_ce(&game).unwrap();
    assert!((ce.welfare() - 1400.0).abs() < 1e-6);

    for seed in 12..12 + SEEDS {
        let (out, _) = run(config(&caps, 4, 4.0 * 350.0, seed), 0, 6000);
        let tail = out.metrics.welfare.tail_mean(800);
        assert!(
            tail > 0.9 * ce.welfare(),
            "seed {seed}: welfare {tail:.0} below 90% of best CE {:.0}",
            ce.welfare()
        );
    }
}

/// §III.B: synchronous best response oscillates forever, RTHS does not.
/// The comparison metric is helper switches per peer per stage — the
/// streaming-interruption proxy.
#[test]
fn rths_avoids_best_response_oscillation() {
    let caps = [800.0, 800.0];
    let n = 20usize;
    let game = HelperSelectionGame::new(caps.to_vec());

    // Myopic baseline: everyone flaps every stage.
    let trace = best_response::synchronous(&game, &vec![0usize; n], 200);
    assert!(!trace.converged);
    let br_switch_rate =
        trace.total_switches() as f64 / (n as f64 * trace.switches.len() as f64);
    assert!(br_switch_rate > 0.99, "baseline did not oscillate: {br_switch_rate}");

    // RTHS: after convergence, switching is rare. The null keeps
    // switching about every other stage and fails both bounds.
    for seed in 13..13 + SEEDS {
        let (out, _) = run(config(&caps, n, 4.0 * 80.0, seed), 0, 4000);
        let tail_switches = out.metrics.switches.tail_mean(500) / n as f64;
        assert!(
            tail_switches < 0.25,
            "seed {seed}: RTHS switch rate too high: {tail_switches:.3} per peer per stage"
        );
        assert!(br_switch_rate > 4.0 * tail_switches, "seed {seed}");

        let (out, _) = run(null(&caps, n, 4.0 * 80.0, seed), 0, 4000);
        let tail_switches = out.metrics.switches.tail_mean(500) / n as f64;
        assert!(
            tail_switches >= 0.25,
            "seed {seed}: the null passes the switch bound: {tail_switches:.3}"
        );
        assert!(br_switch_rate <= 4.0 * tail_switches, "seed {seed}: null");
    }
}

/// The long-run loads under RTHS lean toward the Nash/CE load split on
/// asymmetric capacities (more peers on bigger helpers). The δ-floor
/// exploration and estimator noise keep the split softer than the exact
/// 6/2 NE — the CE set is larger than the NE set — so the assertion is
/// directional with a quantitative margin.
#[test]
fn loads_track_capacity_ratio() {
    let caps = [900.0, 300.0];
    let game = HelperSelectionGame::new(caps.to_vec());
    let ne_loads = nash_loads(&game, 8);
    assert_eq!(ne_loads, vec![6, 2]);

    for seed in 14..14 + SEEDS {
        let (out, _) = run(config(&caps, 8, 4.0 * 150.0, seed), 0, 12_000);
        let (big, small) = (out.metrics.mean_helper_loads[0], out.metrics.mean_helper_loads[1]);
        assert!(
            big > small + 1.2,
            "seed {seed}: no lean toward the big helper: mean loads {big:.2}/{small:.2}"
        );
        assert!(big > 4.5, "seed {seed}: big helper load {big:.2} too low (NE is 6)");
        assert!(small < 3.5, "seed {seed}: small helper load {small:.2} too high (NE is 2)");

        // The null splits the peers about evenly and fails all three.
        let (out, _) = run(null(&caps, 8, 4.0 * 150.0, seed), 0, 12_000);
        let (big, small) = (out.metrics.mean_helper_loads[0], out.metrics.mean_helper_loads[1]);
        assert!(big <= small + 1.2, "seed {seed}: the null leans: {big:.2}/{small:.2}");
        assert!(big <= 4.5, "seed {seed}: the null passes the big-load bound: {big:.2}");
        assert!(small >= 3.5, "seed {seed}: the null passes the small-load bound: {small:.2}");
    }
}

/// Sanity: social welfare at any observed profile equals the sum of busy
/// helpers' capacities — confirming the game wiring between crates.
#[test]
fn welfare_identity_via_joint_distribution() {
    let caps = [700.0, 500.0];
    let game = HelperSelectionGame::new(caps.to_vec()).with_peers(3);
    for seed in 15..15 + SEEDS {
        let (_, joint) = run(config(&caps, 3, 1600.0, seed), 0, 500);
        for (profile, _) in joint.iter() {
            let w = game.social_welfare(profile);
            let loads = game.loads(profile);
            let expected: f64 =
                loads.iter().zip(&caps).map(|(&n, &c)| if n > 0 { c } else { 0.0 }).sum();
            assert!((w - expected).abs() < 1e-9, "seed {seed}: {w} != {expected}");
        }
        // CE residual machinery agrees between weighted and raw computation.
        let report = ce_residual_congestion(&game, &joint);
        assert!(report.max_residual.is_finite(), "seed {seed}");
    }
}
