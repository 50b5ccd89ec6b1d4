//! Expected optimal welfare `Σ_y π(y)·W*(y)` at scale.
//!
//! When the joint state space `|Y| = Π_j L_j` is small we enumerate it
//! exactly; otherwise we estimate by Monte Carlo over the (independent)
//! stationary distributions. Both paths reuse the per-state greedy
//! assignment optimum from [`crate::assignment`].

use rand::Rng;

use crate::assignment::{check_demand, optimal_loads};

/// The joint state space size `|Y| = Π_j L_j`, or `None` when it
/// overflows `usize` (three-level ladders do from 41 helpers on).
pub(crate) fn joint_states(levels: &[Vec<f64>]) -> Option<usize> {
    levels.iter().try_fold(1usize, |acc, l| acc.checked_mul(l.len()))
}

/// The input contract of every path: at least one helper; per helper a
/// stationary vector as long as its ladder that is a distribution; a
/// positive, finite demand if any.
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

/// Exact expected optimum by full enumeration of the joint state space.
///
/// # Panics
///
/// Panics if shapes are inconsistent, a stationary vector is not a
/// distribution, `demand` is non-positive, or `|Y|` exceeds `limit`.
pub fn expected_optimal_welfare_exact(
    levels: &[Vec<f64>],
    stationary: &[Vec<f64>],
    num_peers: usize,
    demand: Option<f64>,
    limit: usize,
) -> f64 {
    validate(levels, stationary, demand);
    let num_y = joint_states(levels)
        .filter(|&n| n <= limit)
        .unwrap_or_else(|| panic!("joint state space exceeds limit {limit}"));
    let h = levels.len();
    let mut total = 0.0;
    let mut caps = vec![0.0; h];
    for y in 0..num_y {
        let mut prob = 1.0;
        let mut rem = y;
        for j in (0..h).rev() {
            let s = rem % levels[j].len();
            rem /= levels[j].len();
            prob *= stationary[j][s];
            caps[j] = levels[j][s];
        }
        total += prob * optimal_loads(&caps, num_peers, demand).welfare;
    }
    total
}

/// Monte Carlo estimate of the expected optimum: sample each helper's
/// state independently from its stationary distribution, `samples` times.
///
/// # Panics
///
/// Same shape contract as [`expected_optimal_welfare_exact`]; also panics
/// if `samples == 0`.
pub(crate) fn expected_optimal_welfare_mc<R: Rng + ?Sized>(
    levels: &[Vec<f64>],
    stationary: &[Vec<f64>],
    num_peers: usize,
    demand: Option<f64>,
    samples: usize,
    rng: &mut R,
) -> f64 {
    validate(levels, stationary, demand);
    assert!(samples > 0, "need at least one sample");
    let h = levels.len();
    let mut caps = vec![0.0; h];
    let mut total = 0.0;
    for _ in 0..samples {
        for j in 0..h {
            let u: f64 = rng.gen();
            let mut acc = 0.0;
            let mut state = levels[j].len() - 1;
            for (s, &p) in stationary[j].iter().enumerate() {
                acc += p;
                if u < acc {
                    state = s;
                    break;
                }
            }
            caps[j] = levels[j][state];
        }
        total += optimal_loads(&caps, num_peers, demand).welfare;
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn paper_ladders(h: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let levels = vec![vec![700.0, 800.0, 900.0]; h];
        // Sticky birth-death stationary over 3 states: [0.25, 0.5, 0.25].
        let stationary = vec![vec![0.25, 0.5, 0.25]; h];
        (levels, stationary)
    }

    #[test]
    fn exact_matches_closed_form_when_covered() {
        let (levels, pi) = paper_ladders(4);
        // Every helper is covered, so the optimum is Σ_j E[C_j] = 4 · 800.
        let exact = expected_optimal_welfare_exact(&levels, &pi, 10, None, 100);
        assert!((exact - 3200.0).abs() < 1e-9, "{exact}");
    }

    #[test]
    fn monte_carlo_approximates_exact() {
        let (levels, pi) = paper_ladders(3);
        let exact = expected_optimal_welfare_exact(&levels, &pi, 5, Some(400.0), 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mc = expected_optimal_welfare_mc(&levels, &pi, 5, Some(400.0), 40_000, &mut rng);
        assert!((mc - exact).abs() < 0.01 * exact, "mc {mc} vs exact {exact}");
    }

    #[test]
    fn capped_expected_welfare_is_below_uncapped() {
        let (levels, pi) = paper_ladders(3);
        let capped = expected_optimal_welfare_exact(&levels, &pi, 4, Some(400.0), 100);
        let uncapped = expected_optimal_welfare_exact(&levels, &pi, 4, None, 100);
        assert!(capped <= uncapped + 1e-9);
        // 4 peers at 400 kbps each can use at most 1600.
        assert!(capped <= 1600.0 + 1e-9);
    }

    #[test]
    fn under_covered_uncapped_takes_top_peers() {
        // 1 peer over 2 iid helpers: E[max(C1, C2)].
        let levels = vec![vec![700.0, 900.0]; 2];
        let pi = vec![vec![0.5, 0.5]; 2];
        let exact = expected_optimal_welfare_exact(&levels, &pi, 1, None, 10);
        // max: 700 w.p. 0.25, else 900 -> 850.
        assert!((exact - 850.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn limit_is_enforced() {
        let (levels, pi) = paper_ladders(8);
        let _ = expected_optimal_welfare_exact(&levels, &pi, 10, None, 100);
    }
}
