//! The probability update rule of Algorithms 1 & 2. The slab's observe
//! (`SlabCols::observe_predecayed`) mirrors it expression for expression, fused with
//! its gather of the played row; the test-only scalar oracles
//! (`RthsState`, `HistoryRths`) call it, so `update_probabilities` is
//! compiled in test builds only.
//!
//! Given the regret row `Q(j, ·)` of the *currently played* action `j`,
//! the next mixed strategy is
//!
//! ```text
//! p^{n+1}(k) = (1-δ)·min{ Q(j,k)/μ, 1/(m-1) } + δ/m     for k ≠ j
//! p^{n+1}(j) = 1 − Σ_{k≠j} p^{n+1}(k)
//! ```
//!
//! Two structural properties make this well-defined (and are enforced by
//! property tests):
//!
//! * each clipped term is ≤ `1/(m-1)`, so the off-`j` mass is at most
//!   `(1-δ) + δ·(m-1)/m < 1`, leaving `p(j) ≥ δ/m > 0`;
//! * every action retains at least `δ/m` probability, which keeps the
//!   importance weights `1/p(k)` of the proxy-regret estimator bounded —
//!   the exploration/estimation trade-off discussed in §III.B.

/// Computes `p^{n+1}` in place from the regret row of the played action.
///
/// * `probs` — the strategy to overwrite.
/// * `played` — index `j` of the action played this stage.
/// * `regret_row` — `Q(j, k)` for every `k` (entry `j` is ignored).
/// * `delta`, `mu` — the paper's `δ` and `μ`.
///
/// With a single action the strategy is trivially `[1.0]`.
///
/// # Panics
///
/// Panics if lengths mismatch, `played` is out of range, or parameters are
/// outside their domains.
#[cfg(test)]
pub fn update_probabilities(
    probs: &mut [f64],
    played: usize,
    regret_row: &[f64],
    delta: f64,
    mu: f64,
) {
    let m = probs.len();
    assert_eq!(regret_row.len(), m, "regret row length mismatch");
    assert!(played < m, "played action out of range");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    assert!(mu > 0.0 && mu.is_finite(), "mu must be positive and finite");

    if m == 1 {
        probs[0] = 1.0;
        return;
    }

    let cap = 1.0 / (m as f64 - 1.0);
    let floor = delta / m as f64;
    let mut off_mass = 0.0;
    for (k, p) in probs.iter_mut().enumerate() {
        if k == played {
            continue;
        }
        let q = regret_row[k].max(0.0);
        let candidate = (q / mu).min(cap);
        *p = (1.0 - delta) * candidate + floor;
        off_mass += *p;
    }
    probs[played] = 1.0 - off_mass;
    debug_assert!(
        probs[played] >= floor - 1e-12,
        "played-action probability fell below exploration floor"
    );
}

/// The guaranteed exploration floor `δ/m` under the update rule.
pub fn exploration_floor(num_actions: usize, delta: f64) -> f64 {
    if num_actions == 0 {
        return 0.0;
    }
    delta / num_actions as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rths_math::vector::is_distribution;

    #[test]
    fn zero_regret_keeps_mass_on_played_action() {
        let mut p = vec![0.25; 4];
        update_probabilities(&mut p, 2, &[0.0; 4], 0.1, 100.0);
        assert!(is_distribution(&p, 1e-12));
        // Off-played actions get exactly the floor δ/m.
        for (k, &pk) in p.iter().enumerate() {
            if k != 2 {
                assert!((pk - 0.025).abs() < 1e-12, "p[{k}] = {pk}");
            }
        }
        assert!((p[2] - (1.0 - 3.0 * 0.025)).abs() < 1e-12);
    }

    #[test]
    fn large_regret_saturates_at_cap() {
        let mut p = vec![0.5, 0.5];
        update_probabilities(&mut p, 0, &[0.0, 1e9], 0.2, 10.0);
        assert!(is_distribution(&p, 1e-12));
        // k=1 term: (1-δ)·min(1e8, 1/(2-1)) + δ/2 = 0.8·1 + 0.1 = 0.9.
        assert!((p[1] - 0.9).abs() < 1e-12);
        // Played action keeps the floor δ/m = 0.1.
        assert!((p[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn proportionality_below_cap() {
        let mut p = vec![1.0 / 3.0; 3];
        update_probabilities(&mut p, 0, &[0.0, 30.0, 60.0], 0.1, 600.0);
        // candidates: 0.05 and 0.1, both below cap 0.5.
        let expect1 = 0.9 * 0.05 + 0.1 / 3.0;
        let expect2 = 0.9 * 0.1 + 0.1 / 3.0;
        assert!((p[1] - expect1).abs() < 1e-12);
        assert!((p[2] - expect2).abs() < 1e-12);
        assert!(is_distribution(&p, 1e-12));
    }

    #[test]
    fn negative_regrets_are_clamped() {
        let mut p = vec![0.5, 0.5];
        update_probabilities(&mut p, 0, &[0.0, -50.0], 0.1, 10.0);
        // Negative regret acts like zero: floor only.
        assert!((p[1] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn single_action_is_degenerate() {
        let mut p = vec![0.7];
        update_probabilities(&mut p, 0, &[123.0], 0.1, 10.0);
        assert_eq!(p, vec![1.0]);
    }

    #[test]
    fn floor_formula() {
        assert_eq!(exploration_floor(4, 0.08), 0.02);
        assert_eq!(exploration_floor(0, 0.08), 0.0);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn bad_delta_panics() {
        let mut p = vec![0.5, 0.5];
        update_probabilities(&mut p, 0, &[0.0, 0.0], 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_played_panics() {
        let mut p = vec![0.5, 0.5];
        update_probabilities(&mut p, 2, &[0.0, 0.0], 0.1, 10.0);
    }
}
