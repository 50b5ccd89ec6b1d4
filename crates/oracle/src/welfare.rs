//! Expected optimal welfare `Σ_y π(y)·W*(y)`, exact at any scale.
//!
//! The per-state optimum `W*(y)` ([`crate::assignment`]'s greedy) depends
//! only on the *multiset* of capacities in `y`, not on which helper holds
//! which. So [`expected_optimal_welfare`] does not enumerate the
//! `Π_j L_j` joint states: it folds the (independent) helpers in one at a
//! time and keeps the law of the level *counts*, how many helpers sit at
//! each distinct capacity value. `h` identical helpers with `L` levels
//! give `C(h + L − 1, L − 1)` count vectors (2,145 at `h = 64`, `L = 3`,
//! against `3^64` joint states); helpers whose ladders share no value
//! give the `Π_j L_j` joint states again.

use std::collections::BTreeMap;

use crate::assignment::{check_demand, optimal_loads};

/// The input contract of the expected optimum: at least one helper; per
/// helper a stationary vector as long as its ladder that is a
/// distribution; a positive, finite demand if any.
///
/// # Panics
///
/// Panics with the violated clause.
pub(crate) fn validate(levels: &[Vec<f64>], stationary: &[Vec<f64>], demand: Option<f64>) {
    assert_eq!(levels.len(), stationary.len(), "one stationary dist per helper");
    assert!(!levels.is_empty(), "need at least one helper");
    for (j, (l, pi)) in levels.iter().zip(stationary).enumerate() {
        assert_eq!(l.len(), pi.len(), "helper {j}: levels/stationary length mismatch");
        assert!(
            rths_math::vector::is_distribution(pi, 1e-9),
            "helper {j}: stationary vector is not a distribution"
        );
    }
    check_demand(demand);
}

/// The exact expected optimum `Σ_y π(y)·W*(y)` over helpers that move
/// independently, helper `j` on `levels[j]` with law `stationary[j]`.
///
/// Maps each count vector over the sorted distinct capacity values to its
/// probability, adding one helper at a time
/// (`P'[s + e_c] += P[s]·π_j[c]`), then sums `P(s)·W*(s)` in map order.
/// The cost is one [`optimal_loads`] per distinct capacity multiset.
///
/// # Panics
///
/// Panics if shapes are inconsistent, a stationary vector is not a
/// distribution, `demand` is non-positive, or a capacity is negative or
/// non-finite.
pub fn expected_optimal_welfare(
    levels: &[Vec<f64>],
    stationary: &[Vec<f64>],
    num_peers: usize,
    demand: Option<f64>,
) -> f64 {
    validate(levels, stationary, demand);
    let mut values: Vec<f64> = levels.iter().flatten().copied().collect();
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| a.total_cmp(b).is_eq());
    let mut law = BTreeMap::from([(vec![0usize; values.len()], 1.0)]);
    for (ladder, pi) in levels.iter().zip(stationary) {
        let mut next = BTreeMap::new();
        for (counts, p) in &law {
            for (c, q) in ladder.iter().zip(pi) {
                let mut counts = counts.clone();
                counts[values.binary_search_by(|v| v.total_cmp(c)).unwrap()] += 1;
                *next.entry(counts).or_insert(0.0) += p * q;
            }
        }
        law = next;
    }
    let mut caps = Vec::with_capacity(levels.len());
    law.iter()
        .map(|(counts, p)| {
            caps.clear();
            for (&v, &k) in values.iter().zip(counts) {
                caps.extend(std::iter::repeat_n(v, k));
            }
            p * optimal_loads(&caps, num_peers, demand).welfare
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_ladders(h: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let levels = vec![vec![700.0, 800.0, 900.0]; h];
        // Sticky birth-death stationary over 3 states: [0.25, 0.5, 0.25].
        let stationary = vec![vec![0.25, 0.5, 0.25]; h];
        (levels, stationary)
    }

    /// The joint-state reference: `Σ_y π(y)·W*(y)` over all `Π_j L_j`
    /// states `y`, helper `j`'s state a digit of a mixed-radix counter.
    fn enumerated(
        levels: &[Vec<f64>],
        stationary: &[Vec<f64>],
        num_peers: usize,
        demand: Option<f64>,
    ) -> f64 {
        let num_y: usize = levels.iter().map(Vec::len).product();
        let mut caps = vec![0.0; levels.len()];
        (0..num_y)
            .map(|y| {
                let mut prob = 1.0;
                let mut rem = y;
                for j in (0..levels.len()).rev() {
                    let s = rem % levels[j].len();
                    rem /= levels[j].len();
                    prob *= stationary[j][s];
                    caps[j] = levels[j][s];
                }
                prob * optimal_loads(&caps, num_peers, demand).welfare
            })
            .sum()
    }

    #[test]
    fn exact_matches_closed_form_when_covered() {
        let (levels, pi) = paper_ladders(4);
        // Every helper is covered, so the optimum is Σ_j E[C_j] = 4 · 800.
        let exact = expected_optimal_welfare(&levels, &pi, 10, None);
        assert!((exact - 3200.0).abs() < 1e-9, "{exact}");
    }

    #[test]
    fn capped_expected_welfare_is_below_uncapped() {
        let (levels, pi) = paper_ladders(3);
        let capped = expected_optimal_welfare(&levels, &pi, 4, Some(400.0));
        let uncapped = expected_optimal_welfare(&levels, &pi, 4, None);
        assert!(capped <= uncapped + 1e-9);
        // 4 peers at 400 kbps each can use at most 1600.
        assert!(capped <= 1600.0 + 1e-9);
    }

    #[test]
    fn under_covered_uncapped_takes_top_peers() {
        // 1 peer over 2 iid helpers: E[max(C1, C2)].
        let levels = vec![vec![700.0, 900.0]; 2];
        let pi = vec![vec![0.5, 0.5]; 2];
        let exact = expected_optimal_welfare(&levels, &pi, 1, None);
        // max: 700 w.p. 0.25, else 900 -> 850.
        assert!((exact - 850.0).abs() < 1e-9);
    }

    /// Up to six helpers, each a ladder of one to three values drawn from
    /// a pool of four, so helpers share values under different laws (and
    /// a ladder may repeat one); the law is positive weights, normalised.
    fn instance() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
        let level = (0usize..4, 0.05..1.0f64);
        prop::collection::vec(prop::collection::vec(level, 1..4), 1..7).prop_map(|helpers| {
            const POOL: [f64; 4] = [200.0, 350.0, 700.0, 800.0];
            helpers
                .into_iter()
                .map(|ladder| {
                    let total: f64 = ladder.iter().map(|&(_, w)| w).sum();
                    ladder.into_iter().map(|(v, w)| (POOL[v], w / total)).unzip()
                })
                .unzip()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn counts_match_joint_state_enumeration(
            (levels, pi) in instance(),
            num_peers in 0usize..12,
            demand in prop::option::of(100.0..600.0f64),
        ) {
            let counts = expected_optimal_welfare(&levels, &pi, num_peers, demand);
            let reference = enumerated(&levels, &pi, num_peers, demand);
            // Both add non-negative terms `π(y)·W*(y)` (at most `|Y|` of
            // them), each a product of `h` probabilities and a welfare
            // summed over `h` helpers, in different orders. Each is within
            // `|Y| + 2h` roundoff units of the true value, so the two are
            // within twice that many ulps of each other.
            let num_y: usize = levels.iter().map(Vec::len).product();
            let ulps = 2.0 * (num_y + 2 * levels.len()) as f64;
            prop_assert!(
                (counts - reference).abs() <= ulps * f64::EPSILON * reference,
                "counts {counts} vs enumerated {reference}"
            );
        }
    }
}
