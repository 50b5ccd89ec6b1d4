//! Property tests: the MDP solution paths agree with their references.

use proptest::prelude::*;
use rths_mdp::assignment::{optimal_loads, optimal_loads_dp};
use rths_mdp::occupation::OccupationLp;
use rths_mdp::welfare::{
    expected_optimal_welfare_exact, expected_optimal_welfare_uncapped_covered,
};

fn caps() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(50.0..1000.0f64, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn greedy_equals_dp_uncapped(c in caps(), n in 0usize..25) {
        let g = optimal_loads(&c, n, None);
        let dp = optimal_loads_dp(&c, n, None);
        prop_assert!((g.welfare - dp.welfare).abs() < 1e-9,
            "greedy {} vs dp {}", g.welfare, dp.welfare);
        prop_assert_eq!(g.loads.iter().sum::<usize>(), n);
    }

    #[test]
    fn greedy_equals_dp_capped(c in caps(), n in 0usize..25, d in 10.0..500.0f64) {
        let g = optimal_loads(&c, n, Some(d));
        let dp = optimal_loads_dp(&c, n, Some(d));
        prop_assert!((g.welfare - dp.welfare).abs() < 1e-9,
            "greedy {} vs dp {}", g.welfare, dp.welfare);
    }

    #[test]
    fn welfare_is_monotone_in_peers(c in caps(), n in 0usize..20, d in 10.0..500.0f64) {
        let w1 = optimal_loads(&c, n, Some(d)).welfare;
        let w2 = optimal_loads(&c, n + 1, Some(d)).welfare;
        prop_assert!(w2 >= w1 - 1e-9);
    }

    #[test]
    fn welfare_bounded_by_capacity_and_demand(c in caps(), n in 0usize..25, d in 10.0..500.0f64) {
        let w = optimal_loads(&c, n, Some(d)).welfare;
        let cap_total: f64 = c.iter().sum();
        prop_assert!(w <= cap_total + 1e-9);
        prop_assert!(w <= n as f64 * d + 1e-9);
    }

    #[test]
    fn occupation_lp_equals_decomposed(
        l1 in prop::collection::vec(100.0..900.0f64, 1..3),
        l2 in prop::collection::vec(100.0..900.0f64, 1..3),
        n in 1usize..4,
    ) {
        let uniform = |k: usize| vec![1.0 / k as f64; k];
        let levels = vec![l1.clone(), l2.clone()];
        let pi = vec![uniform(l1.len()), uniform(l2.len())];
        let lp_welfare = OccupationLp::new(levels.clone(), pi.clone(), n, None).solve().unwrap();
        let dec = expected_optimal_welfare_exact(&levels, &pi, n, None, 1000);
        prop_assert!((lp_welfare - dec).abs() < 1e-6,
            "lp {lp_welfare} vs decomposed {dec}");
    }

    #[test]
    fn exact_welfare_matches_closed_form_when_covered(
        h in 1usize..5,
        extra_peers in 0usize..10,
    ) {
        let levels = vec![vec![700.0, 800.0, 900.0]; h];
        let pi = vec![vec![0.25, 0.5, 0.25]; h];
        let n = h + extra_peers; // coverage guaranteed
        let exact = expected_optimal_welfare_exact(&levels, &pi, n, None, 100_000);
        let closed = expected_optimal_welfare_uncapped_covered(&levels, &pi);
        prop_assert!((exact - closed).abs() < 1e-6);
    }
}
