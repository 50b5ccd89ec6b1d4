//! Property-based tests for the stochastic substrate.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use rths_stoch::bandwidth::{BandwidthProcess, MarkovBandwidth, PAPER_LEVELS};
use rths_stoch::process::{sample_poisson, ChurnProcess};
use rths_stoch::rng::{derive_seed, entity_rng, seeded_rng};
use rths_stoch::zipf::Zipf;

/// The paper chain's kernel as a dense `3 × 3` matrix, built the way a
/// general sticky birth–death chain over `n` states builds it: `stay` on
/// the diagonal, the move mass `1 − stay` to the one neighbour of an end
/// state and split in halves between the two neighbours of an inner one.
fn dense_kernel(stay: f64) -> Vec<Vec<f64>> {
    let n = PAPER_LEVELS.len();
    let mut p = vec![vec![0.0; n]; n];
    for i in 0..n {
        p[i][i] = stay;
        let move_mass = 1.0 - stay;
        if i == 0 {
            p[0][1] = move_mass;
        } else if i == n - 1 {
            p[n - 1][n - 2] = move_mass;
        } else {
            p[i][i - 1] = move_mass / 2.0;
            p[i][i + 1] = move_mass / 2.0;
        }
    }
    p
}

/// One step of the dense row scan: a uniform draw against the cumulative
/// sum of row `state`, the last state if the draw passes the row's total.
fn dense_step(kernel: &[Vec<f64>], state: usize, rng: &mut dyn RngCore) -> usize {
    let row = &kernel[state];
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (j, &p) in row.iter().enumerate() {
        acc += p;
        if u < acc {
            return j;
        }
    }
    row.len() - 1
}

/// Distance in units in the last place between two positive floats.
fn ulps(a: f64, b: f64) -> u64 {
    a.to_bits().abs_diff(b.to_bits())
}

#[test]
fn empirical_frequencies_approach_stationary() {
    let mut rng = seeded_rng(99);
    let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, 0.7);
    let mut counts = [0usize; 3];
    let steps = 200_000;
    for _ in 0..steps {
        bw.step(&mut rng);
        counts[PAPER_LEVELS.iter().position(|&l| l == bw.level()).unwrap()] += 1;
    }
    for (i, &c) in counts.iter().enumerate() {
        let freq = c as f64 / steps as f64;
        let pi = MarkovBandwidth::STATIONARY[i];
        assert!((freq - pi).abs() < 0.01, "state {i}: freq {freq} vs pi {pi}");
    }
}

proptest! {
    /// `MarkovBandwidth` draws the same levels, bit for bit, as the dense
    /// row scan over [`dense_kernel`] fed by the same seeded stream.
    #[test]
    fn markov_bandwidth_steps_as_the_dense_row_scan(seed in any::<u64>(), stay in 0.0..1.0f64) {
        let mut rng = seeded_rng(seed);
        let mut reference_rng = seeded_rng(seed);
        let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, stay);
        let kernel = dense_kernel(stay);
        let mut state = reference_rng.gen_range(0..PAPER_LEVELS.len());
        for step in 0..2_500 {
            prop_assert_eq!(bw.level(), PAPER_LEVELS[state], "step {} at stay {}", step, stay);
            bw.step(&mut rng);
            state = dense_step(&kernel, state, &mut reference_rng);
        }
    }

    /// Every row of the paper kernel is a distribution.
    #[test]
    fn paper_kernel_rows_are_distributions(stay in 0.0..1.0f64) {
        for row in dense_kernel(stay) {
            prop_assert!(rths_math::vector::is_distribution(&row, 1e-12), "row {row:?} at stay {stay}");
        }
    }

    /// The closed-form law is a distribution and stationary: `π P = π` to
    /// within 4 ulps.
    #[test]
    fn stationary_is_invariant_under_the_kernel(stay in 0.0..1.0f64) {
        let kernel = dense_kernel(stay);
        let pi = MarkovBandwidth::STATIONARY;
        prop_assert!(rths_math::vector::is_distribution(&pi, 0.0));
        for (j, &pi_j) in pi.iter().enumerate() {
            let pushed: f64 = pi.iter().zip(&kernel).map(|(p, row)| p * row[j]).sum();
            prop_assert!(ulps(pushed, pi_j) <= 4, "state {j} at stay {stay}: {pushed} vs {pi_j}");
        }
    }

    #[test]
    fn markov_step_stays_in_range(stay in 0.0..1.0f64, seed in any::<u64>()) {
        let mut rng = seeded_rng(seed);
        let mut bw = MarkovBandwidth::paper_with_stay(&mut rng, stay);
        for _ in 0..100 {
            bw.step(&mut rng);
            prop_assert!(PAPER_LEVELS.contains(&bw.level()));
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
