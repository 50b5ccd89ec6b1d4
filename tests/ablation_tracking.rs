//! Ablation abl-track (`rths_bench ablation_tracking`): regret tracking vs regret matching
//! under a mid-run helper-capacity collapse.

use rths_sim::{Algorithm, LearnerSpec, Scenario, System};

fn degraded_load_at(out: &rths_sim::Outcome, lo: usize, hi: usize) -> f64 {
    [0usize, 2, 4]
        .iter()
        .map(|&j| rths_math::stats::mean(&out.metrics.helper_loads[j].values()[lo..hi]))
        .sum()
}

/// 300 epochs after the collapse, tracking has evacuated the degraded
/// helpers far further than matching — the quantitative version of the
/// paper's "adaptive to supply and demand pattern" claim.
#[test]
fn tracking_evacuates_faster_than_matching() {
    let shift = 3000usize;
    let run = |alg: Algorithm| {
        let config = Scenario::regime_shift(shift as u64)
            .learner(LearnerSpec { algorithm: alg, ..LearnerSpec::default() })
            .seed(42)
            .build();
        System::new(config).run(6000)
    };
    let tracking = run(Algorithm::Rths);
    let matching = run(Algorithm::RegretMatching);

    let pre = degraded_load_at(&tracking, shift - 300, shift);
    let t300 = degraded_load_at(&tracking, shift + 200, shift + 400);
    let m300 = degraded_load_at(&matching, shift + 200, shift + 400);
    let t_end = degraded_load_at(&tracking, 5700, 6000);

    // Sanity: before the shift the degraded helpers were popular.
    assert!(pre > 30.0, "pre-shift load {pre:.1} unexpectedly low");
    // Tracking is close to its steady state within 300 epochs…
    assert!(
        t300 < t_end + 3.0,
        "tracking not converged at +300: {t300:.1} vs steady {t_end:.1}"
    );
    // …and has evacuated at least twice as many peers as matching.
    let evac_t = pre - t300;
    let evac_m = pre - m300;
    assert!(
        evac_t > 2.0 * evac_m,
        "tracking evacuated {evac_t:.1}, matching {evac_m:.1} — gap too small"
    );
}

/// Both algorithms eventually shed load (matching is slow, not dead).
#[test]
fn matching_eventually_follows() {
    let shift = 2000usize;
    let config = Scenario::regime_shift(shift as u64)
        .learner(LearnerSpec { algorithm: Algorithm::RegretMatching, ..LearnerSpec::default() })
        .seed(7)
        .build();
    let out = System::new(config).run(8000);
    let pre = degraded_load_at(&out, shift - 300, shift);
    let late = degraded_load_at(&out, 7700, 8000);
    assert!(late < pre - 5.0, "matching never adapted: {pre:.1} -> {late:.1}");
}
