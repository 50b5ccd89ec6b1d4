//! Property-based tests for the RTHS learners, through the public API.
//! The sweeps that replay a reference learner bit-for-bit sit beside it,
//! in the test modules of `src/compact.rs` and `src/history.rs`.

use proptest::prelude::*;
use rand::SeedableRng;
use rths_core::{Learner, RecencyMode, RthsConfig, SlabLearner};

fn arb_config() -> impl Strategy<Value = RthsConfig> {
    (2usize..6, 0.005..0.5f64, 0.02..0.5f64, 10.0..10000.0f64).prop_map(
        |(m, eps, delta, mu)| {
            RthsConfig::builder(m).epsilon(eps).delta(delta).mu(mu).build().unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probabilities_always_valid_with_floor(
        cfg in arb_config(),
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..1000.0f64, 50..150),
    ) {
        let m = cfg.num_actions();
        let floor = cfg.delta() / m as f64;
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            prop_assert!(rths_math::vector::is_distribution(l.probabilities(), 1e-9));
            for &p in l.probabilities() {
                prop_assert!(p >= floor - 1e-12, "probability {p} under floor {floor}");
            }
        }
    }

    #[test]
    fn regrets_always_nonnegative_and_finite(
        cfg in arb_config(),
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..1000.0f64, 30..100),
    ) {
        let m = cfg.num_actions();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            for j in 0..m {
                for k in 0..m {
                    let q = l.regret(j, k);
                    prop_assert!(q >= 0.0 && q.is_finite());
                }
            }
            prop_assert!(l.max_regret() >= 0.0);
        }
    }

    #[test]
    fn deterministic_trajectories(cfg in arb_config(), seed in any::<u64>()) {
        let run = |cfg: RthsConfig, seed: u64| {
            let mut l = SlabLearner::standalone(cfg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut actions = Vec::new();
            for s in 0..40 {
                let a = l.select_action(&mut rng);
                actions.push(a);
                l.observe((a + s % 3) as f64 * 7.0);
            }
            actions
        };
        prop_assert_eq!(run(cfg.clone(), seed), run(cfg, seed));
    }

    #[test]
    fn constant_utilities_keep_strategy_near_uniform(
        cfg in arb_config(),
        seed in any::<u64>(),
        u in 1.0..500.0f64,
    ) {
        // With identical utilities for every action there is nothing to
        // regret *in expectation*; the strategy should not collapse onto a
        // single action. (Importance-weighting noise allows transient
        // tilt, so the assertion is deliberately loose.)
        let m = cfg.num_actions();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sum_entropyish = 0.0;
        let stages = 400;
        for _ in 0..stages {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            let max_p = l.probabilities().iter().copied().fold(0.0f64, f64::max);
            sum_entropyish += max_p;
        }
        let avg_max_p = sum_entropyish / stages as f64;
        prop_assert!(
            avg_max_p < 0.995,
            "strategy collapsed under constant utility: avg max prob {avg_max_p} (m={m})"
        );
    }

    #[test]
    fn matching_learner_keeps_uniform_invariants(
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..100.0f64, 20..80),
    ) {
        let cfg = RthsConfig::builder(3)
            .epsilon(0.05)
            .delta(0.1)
            .mu(100.0)
            .recency(RecencyMode::Uniform)
            .build()
            .unwrap();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
            prop_assert!(rths_math::vector::is_distribution(l.probabilities(), 1e-9));
            prop_assert!(l.max_regret() >= 0.0);
        }
    }

    #[test]
    fn reset_actions_gives_fresh_uniform_state(
        cfg in arb_config(),
        seed in any::<u64>(),
        new_m in 1usize..7,
    ) {
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let _ = l.select_action(&mut rng);
            l.observe(42.0);
        }
        l.reset_actions(new_m);
        prop_assert_eq!(l.num_actions(), new_m);
        prop_assert_eq!(l.stage(), 0);
        prop_assert_eq!(l.max_regret(), 0.0);
        let expect = 1.0 / new_m as f64;
        for &p in l.probabilities() {
            prop_assert!((p - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_mode_regrets_bounded_by_max_utility(
        seed in any::<u64>(),
        utilities in prop::collection::vec(0.0..200.0f64, 30..100),
    ) {
        // Under uniform averaging the regret is an average of bounded
        // per-stage differences with importance weights ≤ m/δ; sanity
        // bound: max_regret ≤ max_u · m / δ.
        let cfg = RthsConfig::builder(3)
            .epsilon(0.05)
            .delta(0.2)
            .mu(100.0)
            .recency(RecencyMode::Uniform)
            .build()
            .unwrap();
        let mut l = SlabLearner::standalone(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let max_u = utilities.iter().copied().fold(0.0f64, f64::max);
        for &u in &utilities {
            let _ = l.select_action(&mut rng);
            l.observe(u);
        }
        let bound = max_u * 3.0 / 0.2 + 1e-9;
        prop_assert!(l.max_regret() <= bound, "{} > {bound}", l.max_regret());
    }
}
