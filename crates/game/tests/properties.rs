//! Property-based tests for the game substrate.

use proptest::prelude::*;
use rths_game::best_response;
use rths_game::equilibrium::{ce_residual, ce_residual_congestion, max_welfare_ce};
use rths_game::normal_form::for_each_profile;
use rths_game::{Game, HelperSelectionGame, JointDistribution, TableGame};

fn capacities() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(100.0..1000.0f64, 2..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sequential_best_response_always_converges_to_nash(
        caps in capacities(),
        n_peers in 1usize..16,
        start_seed in any::<u64>(),
    ) {
        let game = HelperSelectionGame::new(caps);
        let h = game.num_helpers();
        let initial: Vec<usize> =
            (0..n_peers).map(|i| ((start_seed as usize).wrapping_add(i * 7)) % h).collect();
        let trace = best_response::sequential(&game, &initial, 1000);
        prop_assert!(trace.converged, "sequential BR did not converge");
        prop_assert!(game.is_pure_nash(trace.profiles.last().unwrap(), 1e-9));
    }

    #[test]
    fn potential_monotone_under_sequential_br(
        caps in capacities(),
        n_peers in 1usize..12,
    ) {
        let game = HelperSelectionGame::new(caps);
        let initial = vec![0usize; n_peers];
        let trace = best_response::sequential(&game, &initial, 1000);
        let mut phi = f64::NEG_INFINITY;
        for p in &trace.profiles {
            let now = game.potential(&game.loads(p));
            prop_assert!(now >= phi - 1e-9);
            phi = now;
        }
    }

    #[test]
    fn greedy_nash_loads_sum_and_are_nash(
        caps in capacities(),
        n_peers in 0usize..30,
    ) {
        let game = HelperSelectionGame::new(caps);
        let loads = rths_game::equilibrium::nash_loads(&game, n_peers);
        prop_assert_eq!(loads.iter().sum::<usize>(), n_peers);
        let mut profile = Vec::new();
        for (j, &l) in loads.iter().enumerate() {
            profile.extend(std::iter::repeat_n(j, l));
        }
        prop_assert!(game.is_pure_nash(&profile, 1e-9));
    }

    #[test]
    fn max_welfare_ce_dominates_every_pure_nash(
        caps in prop::collection::vec(100.0..1000.0f64, 2..3),
        n_peers in 1usize..4,
    ) {
        let game = HelperSelectionGame::new(caps).with_peers(n_peers);
        let ce = max_welfare_ce(&game).unwrap();
        for ne in rths_game::equilibrium::enumerate_pure_nash(&game, 1e-9) {
            prop_assert!(ce.welfare() >= game.social_welfare(&ne) - 1e-6);
        }
    }

    #[test]
    fn ce_solution_passes_its_own_verification(
        caps in prop::collection::vec(100.0..1000.0f64, 2..3),
        n_peers in 1usize..4,
    ) {
        let game = HelperSelectionGame::new(caps).with_peers(n_peers);
        let ce = max_welfare_ce(&game).unwrap();
        let mut dist = JointDistribution::new();
        for (profile, p) in ce.support() {
            let copies = (p * 100_000.0).round() as u64;
            for _ in 0..copies.max(1) {
                dist.record(profile);
            }
        }
        let report = ce_residual(&game, &dist);
        // Quantisation of probabilities introduces small error.
        prop_assert!(report.max_residual < 1.0, "residual {}", report.max_residual);
    }

    #[test]
    fn fast_and_generic_residuals_agree(
        caps in capacities(),
        n_peers in 1usize..6,
        seeds in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        let game = HelperSelectionGame::new(caps).with_peers(n_peers);
        let h = game.num_helpers();
        let mut dist = JointDistribution::new();
        for s in seeds {
            let profile: Vec<usize> =
                (0..n_peers).map(|i| ((s >> (i * 3)) as usize) % h).collect();
            dist.record(&profile);
        }
        let generic = ce_residual(&game, &dist);
        let fast = ce_residual_congestion(&game, &dist);
        prop_assert!((generic.max_residual - fast.max_residual).abs() < 1e-6);
        prop_assert!((generic.mean_utility - fast.mean_utility).abs() < 1e-6);
    }

    #[test]
    fn social_welfare_equals_busy_capacity_sum(
        caps in capacities(),
        n_peers in 1usize..10,
        seed in any::<u64>(),
    ) {
        let game = HelperSelectionGame::new(caps.clone()).with_peers(n_peers);
        let h = game.num_helpers();
        let profile: Vec<usize> =
            (0..n_peers).map(|i| ((seed >> (i * 4)) as usize) % h).collect();
        let loads = game.loads(&profile);
        let expected: f64 = loads
            .iter()
            .zip(&caps)
            .map(|(&n, &c)| if n > 0 { c } else { 0.0 })
            .sum();
        prop_assert!((game.social_welfare(&profile) - expected).abs() < 1e-9);
    }

    #[test]
    fn table_game_round_trips_profiles(counts in prop::collection::vec(1usize..4, 1..4)) {
        let num_profiles: usize = counts.iter().product();
        let g = TableGame::from_fn(counts, move |p, prof| {
            // Distinct value per (player, profile) pair.
            prof.iter().enumerate().map(|(i, &a)| (a + 1) * (i + 2)).sum::<usize>() as f64
                + p as f64 * 1000.0
        });
        let mut checked = 0usize;
        for_each_profile(&g, |prof| {
            for p in 0..g.num_players() {
                let expected = prof.iter().enumerate().map(|(i, &a)| (a + 1) * (i + 2)).sum::<usize>() as f64
                    + p as f64 * 1000.0;
                assert!((g.utility(p, prof) - expected).abs() < 1e-12);
            }
            checked += 1;
        });
        prop_assert_eq!(checked, num_profiles);
    }
}
