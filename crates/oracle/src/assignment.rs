//! Exact welfare-optimal peer→helper load vectors.
//!
//! With capacities `C_j` and (optionally) a per-peer demand cap `d`, the
//! welfare of placing `n_j` peers on helper `j` is
//!
//! ```text
//! w_j(n_j) = n_j · min(d, C_j/n_j) = min(n_j·d, C_j)        (capped)
//! w_j(n_j) = C_j · [n_j > 0]                                 (uncapped)
//! ```
//!
//! Both are concave in `n_j`, so total welfare `Σ_j w_j(n_j)` subject to
//! `Σ_j n_j = N` is maximised by **greedy marginal allocation**: place
//! peers one at a time on the helper with the largest marginal welfare
//! gain. [`optimal_loads`] implements the greedy; [`optimal_loads_dp`] is
//! an independent `O(H·N²)` dynamic program used to cross-validate it.
//!
//! ```
//! use rths_oracle::assignment::optimal_loads;
//!
//! // 10 peers, helpers at 700/800/900 kbps, uncapped demand: any
//! // covering assignment attains welfare 2400.
//! let alloc = optimal_loads(&[700.0, 800.0, 900.0], 10, None);
//! assert_eq!(alloc.welfare, 2400.0);
//! assert!(alloc.loads.iter().all(|&l| l > 0));
//! ```

/// An optimal assignment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Peers per helper.
    pub loads: Vec<usize>,
    /// Total social welfare of the assignment.
    pub welfare: f64,
}

/// Welfare contributed by one helper of capacity `cap` serving `load`
/// peers under optional per-peer `demand`.
pub(crate) fn helper_welfare(cap: f64, load: usize, demand: Option<f64>) -> f64 {
    if load == 0 {
        return 0.0;
    }
    match demand {
        Some(d) => (load as f64 * d).min(cap),
        None => cap,
    }
}

/// The demand contract of the assignment optimizers and the expected
/// optimum: none, or a positive, finite per-peer demand. (A game's demand
/// cap may be zero; an assignment's may not.)
///
/// # Panics
///
/// Panics if `demand` is non-positive or non-finite.
pub(crate) fn check_demand(demand: Option<f64>) {
    if let Some(d) = demand {
        assert!(d > 0.0 && d.is_finite(), "demand must be positive and finite");
    }
}

/// Greedy marginal allocation of `num_peers` peers over `capacities`.
///
/// Optimal for concave per-helper welfare (validated against
/// [`optimal_loads_dp`] by property tests). Ties break toward the lowest
/// helper index, making results deterministic. Once no helper gains from
/// another peer, the remaining peers are placed in one step.
///
/// # Panics
///
/// Panics if `capacities` is empty or contains negative/non-finite
/// values, or if `demand` is non-positive.
pub fn optimal_loads(capacities: &[f64], num_peers: usize, demand: Option<f64>) -> Allocation {
    crate::check_capacities(capacities);
    check_demand(demand);
    let gain = |j: usize, load: usize| {
        helper_welfare(capacities[j], load + 1, demand)
            - helper_welfare(capacities[j], load, demand)
    };
    let h = capacities.len();
    let mut loads = vec![0usize; h];
    // Marginal gain of one more peer per helper; only the chosen helper's
    // changes in a step.
    let mut gains: Vec<f64> = (0..h).map(|j| gain(j, 0)).collect();
    let mut welfare = 0.0;
    for placed in 0..num_peers {
        let mut best = 0usize;
        let mut best_gain = f64::NEG_INFINITY;
        for (j, &g) in gains.iter().enumerate() {
            if g > best_gain + 1e-12 {
                best_gain = g;
                best = j;
            }
        }
        if best_gain == 0.0 {
            // Gains are non-negative, so helper 0's is zero and no other
            // beat it; concavity keeps it zero and the others unchanged,
            // so every remaining peer would land on helper 0 one by one.
            loads[0] += num_peers - placed;
            break;
        }
        loads[best] += 1;
        gains[best] = gain(best, loads[best]);
        welfare += best_gain;
    }
    // Recompute welfare from scratch to avoid accumulation drift.
    let welfare_exact: f64 =
        loads.iter().zip(capacities).map(|(&n, &c)| helper_welfare(c, n, demand)).sum();
    debug_assert!((welfare - welfare_exact).abs() < 1e-6);
    Allocation { loads, welfare: welfare_exact }
}

/// Exact optimum by dynamic programming over helpers: `best[j][n]` is the
/// maximum welfare of distributing `n` peers over the first `j` helpers.
///
/// `O(H·N²)` time — slower than the greedy but makes no structural
/// assumption, so it certifies the greedy's optimality in tests.
///
/// # Panics
///
/// Same contract as [`optimal_loads`].
pub fn optimal_loads_dp(
    capacities: &[f64],
    num_peers: usize,
    demand: Option<f64>,
) -> Allocation {
    crate::check_capacities(capacities);
    check_demand(demand);
    let h = capacities.len();
    let neg = f64::NEG_INFINITY;
    // dp[n] = best welfare using helpers processed so far with n peers.
    let mut dp = vec![neg; num_peers + 1];
    dp[0] = 0.0;
    // choice[j][n] = peers given to helper j in the optimum for prefix j, total n.
    let mut choice = vec![vec![0usize; num_peers + 1]; h];
    for j in 0..h {
        let mut next = vec![neg; num_peers + 1];
        for used in 0..=num_peers {
            if dp[used] == neg {
                continue;
            }
            for take in 0..=(num_peers - used) {
                let w = dp[used] + helper_welfare(capacities[j], take, demand);
                if w > next[used + take] {
                    next[used + take] = w;
                    choice[j][used + take] = take;
                }
            }
        }
        dp = next;
    }
    // Backtrack.
    let mut loads = vec![0usize; h];
    let mut remaining = num_peers;
    for j in (0..h).rev() {
        let take = choice[j][remaining];
        loads[j] = take;
        remaining -= take;
    }
    debug_assert_eq!(remaining, 0);
    Allocation { loads, welfare: dp[num_peers] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_covers_all_helpers_when_possible() {
        let a = optimal_loads(&[700.0, 800.0, 900.0], 5, None);
        assert!(a.loads.iter().all(|&l| l >= 1));
        assert_eq!(a.welfare, 2400.0);
        assert_eq!(a.loads.iter().sum::<usize>(), 5);
    }

    #[test]
    fn uncapped_with_fewer_peers_picks_top_capacities() {
        let a = optimal_loads(&[700.0, 800.0, 900.0], 2, None);
        // Two peers cover the two largest helpers.
        assert_eq!(a.welfare, 1700.0);
        assert_eq!(a.loads, vec![0, 1, 1]);
    }

    #[test]
    fn zero_peers_zero_welfare() {
        let a = optimal_loads(&[500.0], 0, None);
        assert_eq!(a.welfare, 0.0);
        assert_eq!(a.loads, vec![0]);
    }

    #[test]
    fn capped_welfare_saturates_at_capacity() {
        // demand 400, capacity 900: 1 peer -> 400, 2 -> 800, 3 -> 900.
        let a1 = optimal_loads(&[900.0], 1, Some(400.0));
        assert_eq!(a1.welfare, 400.0);
        let a2 = optimal_loads(&[900.0], 2, Some(400.0));
        assert_eq!(a2.welfare, 800.0);
        let a3 = optimal_loads(&[900.0], 3, Some(400.0));
        assert_eq!(a3.welfare, 900.0);
    }

    #[test]
    fn capped_distributes_before_saturating() {
        // Two helpers 800/800, demand 300: 4 peers -> 2+2, welfare 1200.
        let a = optimal_loads(&[800.0, 800.0], 4, Some(300.0));
        assert_eq!(a.loads, vec![2, 2]);
        assert_eq!(a.welfare, 1200.0);
        // 6 peers: 3 per helper would give min(900,800)=800 each → 1600.
        let a6 = optimal_loads(&[800.0, 800.0], 6, Some(300.0));
        assert_eq!(a6.welfare, 1600.0);
    }

    #[test]
    fn greedy_matches_dp_on_examples() {
        let cases: &[(&[f64], usize, Option<f64>)] = &[
            (&[700.0, 800.0, 900.0], 10, None),
            (&[700.0, 800.0, 900.0], 10, Some(400.0)),
            (&[100.0, 900.0], 7, Some(150.0)),
            (&[500.0, 500.0, 500.0, 500.0], 3, None),
            (&[123.0], 9, Some(37.0)),
        ];
        for &(caps, n, d) in cases {
            let g = optimal_loads(caps, n, d);
            let dp = optimal_loads_dp(caps, n, d);
            assert!(
                (g.welfare - dp.welfare).abs() < 1e-9,
                "caps {caps:?} n={n} d={d:?}: greedy {} vs dp {}",
                g.welfare,
                dp.welfare
            );
        }
    }

    #[test]
    fn dp_backtrack_is_consistent() {
        let dp = optimal_loads_dp(&[700.0, 800.0, 900.0], 10, Some(400.0));
        assert_eq!(dp.loads.iter().sum::<usize>(), 10);
        let recomputed: f64 = dp
            .loads
            .iter()
            .zip([700.0, 800.0, 900.0])
            .map(|(&n, c)| helper_welfare(c, n, Some(400.0)))
            .sum();
        assert!((recomputed - dp.welfare).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_helper_does_not_change_welfare() {
        // Surplus peers may land on the dead helper (all marginal gains
        // are zero at that point) but welfare must equal the live helper.
        let a = optimal_loads(&[0.0, 800.0], 3, None);
        assert_eq!(a.welfare, 800.0);
        assert!(a.loads[1] >= 1, "live helper must be covered: {:?}", a.loads);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn zero_demand_rejected() {
        let _ = optimal_loads(&[800.0], 1, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "capacities must be finite")]
    fn dp_rejects_nan_capacity() {
        let _ = optimal_loads_dp(&[800.0, f64::NAN], 3, None);
    }

    #[test]
    #[should_panic(expected = "demand must be positive")]
    fn dp_rejects_zero_demand() {
        let _ = optimal_loads_dp(&[800.0], 1, Some(0.0));
    }

    #[test]
    fn helper_welfare_formulas() {
        assert_eq!(helper_welfare(800.0, 0, None), 0.0);
        assert_eq!(helper_welfare(800.0, 5, None), 800.0);
        assert_eq!(helper_welfare(800.0, 2, Some(300.0)), 600.0);
        assert_eq!(helper_welfare(800.0, 4, Some(300.0)), 800.0);
    }
}
