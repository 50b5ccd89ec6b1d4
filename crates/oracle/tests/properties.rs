//! Property tests of the reference: the game's dynamics and equilibrium
//! tools, the simplex solver and the MDP solution paths, each against an
//! independent check.
//!
//! The simplex is verified against brute force: for random small LPs with
//! only `≤` constraints and non-negative rhs, the optimum of `max c·x`
//! lies at a vertex of the polytope, so the simplex objective must (a) be
//! attained by a feasible point and (b) not be beaten by any point on a
//! dense grid / random sampling — a cheap but effective oracle for
//! 2-variable problems.

use proptest::prelude::*;
use rths_math::vector::dot;
use rths_oracle::assignment::{optimal_loads, optimal_loads_dp};
use rths_oracle::best_response;
use rths_oracle::equilibrium::{
    ce_residual, ce_residual_congestion, max_welfare_ce, JointDistribution,
};
use rths_oracle::normal_form::for_each_profile;
use rths_oracle::occupation::OccupationLp;
use rths_oracle::welfare::expected_optimal_welfare;
use rths_oracle::{Game, HelperSelectionGame, LinearProgram, LpError, Relation, TableGame};

// The game.

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
        let loads = rths_oracle::equilibrium::nash_loads(&game, n_peers);
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
        for ne in rths_oracle::equilibrium::enumerate_pure_nash(&game, 1e-9) {
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

// The simplex solver.

/// Whether `x ≥ −tol` satisfies every row `a·x (relation) b` within `tol`.
fn feasible(rows: &[(Vec<f64>, Relation, f64)], x: &[f64], tol: f64) -> bool {
    x.iter().all(|&v| v >= -tol)
        && rows.iter().all(|(a, relation, b)| {
            let lhs = dot(a, x);
            match relation {
                Relation::Le => lhs <= b + tol,
                Relation::Ge => lhs >= b - tol,
                Relation::Eq => (lhs - b).abs() <= tol,
            }
        })
}

/// The program `max costs·x` subject to `rows`.
fn program(costs: Vec<f64>, rows: &[(Vec<f64>, Relation, f64)]) -> LinearProgram {
    let mut lp = LinearProgram::maximize(costs);
    for (a, relation, b) in rows {
        lp.add_constraint(a.clone(), *relation, *b).unwrap();
    }
    lp
}

fn small_lp() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<f64>, f64)>)> {
    let costs = prop::collection::vec(-5.0..5.0f64, 2);
    let rows =
        prop::collection::vec((prop::collection::vec(0.0..4.0f64, 2), 1.0..8.0f64), 1..5);
    (costs, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simplex_beats_grid_search((costs, rows) in small_lp()) {
        // Ensure boundedness: add a box constraint.
        let mut rows: Vec<_> =
            rows.into_iter().map(|(coeffs, rhs)| (coeffs, Relation::Le, rhs)).collect();
        rows.push((vec![1.0, 0.0], Relation::Le, 10.0));
        rows.push((vec![0.0, 1.0], Relation::Le, 10.0));
        let lp = program(costs.clone(), &rows);

        let sol = lp.solve().expect("bounded, origin-feasible LP must solve");
        prop_assert!(feasible(&rows, sol.x(), 1e-7));
        let obj = dot(&costs, sol.x());
        prop_assert!((obj - sol.objective()).abs() < 1e-7);

        // Grid search oracle.
        let mut best = f64::NEG_INFINITY;
        let steps = 60;
        for i in 0..=steps {
            for j in 0..=steps {
                let x = [10.0 * i as f64 / steps as f64, 10.0 * j as f64 / steps as f64];
                if feasible(&rows, &x, 1e-9) {
                    best = best.max(dot(&costs, &x));
                }
            }
        }
        prop_assert!(sol.objective() >= best - 1e-6,
            "simplex {} < grid {best}", sol.objective());
    }

    #[test]
    fn feasible_lp_with_equalities_solves_or_reports(
        pi in prop::collection::vec(0.1..1.0f64, 2..4),
        costs_raw in prop::collection::vec(0.0..10.0f64, 8..12),
    ) {
        // Occupation-measure-like LP: variables grouped per "state", each
        // group must sum to pi[s] (normalised), maximise random utility.
        let groups = pi.len();
        let per_group = 3usize;
        let n = groups * per_group;
        let total: f64 = pi.iter().sum();
        let pi: Vec<f64> = pi.iter().map(|p| p / total).collect();
        let costs: Vec<f64> = (0..n).map(|i| costs_raw[i % costs_raw.len()]).collect();

        let rows: Vec<_> = pi.iter().enumerate().map(|(s, &mass)| {
            let mut row = vec![0.0; n];
            for a in 0..per_group {
                row[s * per_group + a] = 1.0;
            }
            (row, Relation::Eq, mass)
        }).collect();
        let sol = program(costs.clone(), &rows).solve().expect("decomposable LP is feasible");
        prop_assert!(feasible(&rows, sol.x(), 1e-7));

        // The optimum is the pi-weighted max per group — check exactly.
        let expected: f64 = pi.iter().enumerate().map(|(s, &mass)| {
            let best = (0..per_group)
                .map(|a| costs[s * per_group + a])
                .fold(f64::NEG_INFINITY, f64::max);
            mass * best
        }).sum();
        prop_assert!((sol.objective() - expected).abs() < 1e-6,
            "lp {} vs analytic {expected}", sol.objective());
    }

    #[test]
    fn contradictory_bounds_are_infeasible(a in 1.0..5.0f64, b in 1.0..5.0f64) {
        prop_assume!(a < b);
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Le, a).unwrap();
        lp.add_constraint(vec![1.0], Relation::Ge, b).unwrap();
        prop_assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn degenerate_zero_rhs_lps_terminate(
        costs in prop::collection::vec(0.0..100.0f64, 4..20),
        rows in prop::collection::vec(prop::collection::vec(-5.0..5.0f64, 4..20), 1..12),
    ) {
        // CE-polytope-like structure: many ≤-0 rows plus a simplex
        // equality — maximally degenerate (every basic solution has most
        // variables at zero). This class cycled before the Bland-mode
        // leaving-rule fix; now it must always terminate with a feasible
        // optimum.
        let n = costs.len();
        let mut rows: Vec<_> = rows.into_iter().map(|row| {
            let mut r = vec![0.0; n];
            for (dst, &v) in r.iter_mut().zip(&row) {
                *dst = v;
            }
            (r, Relation::Le, 0.0)
        }).collect();
        rows.push((vec![1.0; n], Relation::Eq, 1.0));
        match program(costs, &rows).solve() {
            Ok(sol) => prop_assert!(feasible(&rows, sol.x(), 1e-6)),
            // The random ≤-0 rows can make the simplex face infeasible
            // (e.g. all-positive row forces x=0, contradicting Σx=1).
            Err(LpError::Infeasible) => {}
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    #[test]
    fn scaling_costs_scales_objective(k in 0.1..10.0f64) {
        let build = |scale: f64| {
            let mut lp = LinearProgram::maximize(vec![2.0 * scale, 1.0 * scale]);
            lp.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0).unwrap();
            lp.add_constraint(vec![1.0, 0.0], Relation::Le, 3.0).unwrap();
            lp.solve().unwrap().objective()
        };
        let base = build(1.0);
        let scaled = build(k);
        prop_assert!((scaled - k * base).abs() < 1e-6 * (1.0 + base.abs() * k));
    }
}

// The MDP solution paths.

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
        let dec = expected_optimal_welfare(&levels, &pi, n, None);
        prop_assert!((lp_welfare - dec).abs() < 1e-6,
            "lp {lp_welfare} vs decomposed {dec}");
    }

    #[test]
    fn exact_welfare_matches_closed_form_when_covered(
        h in 1usize..65,
        extra_peers in 0usize..10,
    ) {
        let levels = vec![vec![700.0, 800.0, 900.0]; h];
        let pi = vec![vec![0.25, 0.5, 0.25]; h];
        let n = h + extra_peers; // coverage guaranteed
        let exact = expected_optimal_welfare(&levels, &pi, n, None);
        // Every helper is covered, so the optimum is Σ_j E[C_j].
        let closed: f64 = levels.iter().zip(&pi).map(|(l, p)| dot(l, p)).sum();
        prop_assert!((exact - closed).abs() < 1e-6);
    }
}
