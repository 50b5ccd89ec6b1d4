//! Property-based tests for the stochastic substrate.

use proptest::prelude::*;
use rths_stoch::bandwidth::{BandwidthProcess, MarkovBandwidth};
use rths_stoch::markov::MarkovChain;
use rths_stoch::process::{sample_poisson, ChurnProcess};
use rths_stoch::rng::{derive_seed, entity_rng, seeded_rng};
use rths_stoch::zipf::Zipf;

proptest! {
    #[test]
    fn stationary_distribution_is_invariant(n in 1usize..12, stay in 0.0..0.999f64) {
        let chain = MarkovChain::sticky_birth_death(n, stay, 0);
        let pi = chain.stationary_distribution().unwrap();
        prop_assert!(rths_math::vector::is_distribution(&pi, 1e-9));
        let pushed = chain.transition().vec_mul(&pi);
        prop_assert!(rths_math::vector::max_abs_diff(&pi, &pushed) < 1e-8);
    }

    #[test]
    fn sticky_birth_death_always_valid(n in 1usize..12, stay in 0.0..0.999f64) {
        let chain = MarkovChain::sticky_birth_death(n, stay, 0);
        for r in 0..n {
            prop_assert!(rths_math::vector::is_distribution(chain.transition().row(r), 1e-9));
        }
        prop_assert!(chain.stationary_distribution().is_ok());
    }

    #[test]
    fn markov_step_stays_in_range(stay in 0.0..0.999f64, seed in any::<u64>()) {
        let ladder = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let chain = MarkovChain::sticky_birth_death(5, stay, 0);
        let mut bw = MarkovBandwidth::new(chain, ladder.clone());
        let mut rng = seeded_rng(seed);
        for _ in 0..100 {
            bw.step(&mut rng);
            prop_assert!(ladder.contains(&bw.level()));
        }
    }

    #[test]
    fn derive_seed_distinct_streams_distinct_seeds(base in any::<u64>(), s1 in 0u64..1000, s2 in 0u64..1000) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(derive_seed(base, s1), derive_seed(base, s2));
    }

    #[test]
    fn entity_rng_is_reproducible(base in any::<u64>(), stream in any::<u64>()) {
        use rand::Rng;
        let mut a = entity_rng(base, stream);
        let mut b = entity_rng(base, stream);
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn poisson_is_nonnegative_and_finite(seed in any::<u64>(), lambda in 0.0..200.0f64) {
        let mut rng = seeded_rng(seed);
        let x = sample_poisson(&mut rng, lambda);
        // Crude tail bound: extremely unlikely to be astronomically large.
        prop_assert!(x < (lambda as u64 + 1) * 20 + 100);
    }

    #[test]
    fn churn_departures_bounded_by_population(seed in any::<u64>(), online in 0usize..200, p in 0.0..1.0f64) {
        let mut rng = seeded_rng(seed);
        let churn = ChurnProcess::new(1.0, p);
        let ev = churn.sample_epoch(&mut rng, online);
        prop_assert!(ev.departures <= online as u64);
    }

    #[test]
    fn zipf_allocation_sums(n in 1usize..30, s in 0.0..2.5f64, total in 0usize..5000) {
        let z = Zipf::new(n, s);
        let alloc = z.allocate(total);
        prop_assert_eq!(alloc.iter().sum::<usize>(), total);
    }

    #[test]
    fn zipf_sample_in_range(n in 1usize..50, s in 0.0..2.5f64, seed in any::<u64>()) {
        let z = Zipf::new(n, s);
        let mut rng = seeded_rng(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn markov_bandwidth_levels_bounded(seed in any::<u64>(), stay in 0.5..0.999f64) {
        let mut rng = seeded_rng(seed);
        let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, stay);
        for _ in 0..200 {
            prop_assert!(bw.level() >= bw.min_level());
            prop_assert!(bw.level() <= bw.max_level());
            bw.step(&mut rng);
        }
    }
}
