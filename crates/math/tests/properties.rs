//! Property-based tests for the math substrate.

use proptest::prelude::*;
use rths_math::stats;

fn positive_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-6..1e6f64, 1..max_len)
}

proptest! {
    #[test]
    fn jain_index_is_within_bounds(v in positive_vec(64)) {
        let j = stats::jain_index(&v);
        let n = v.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9, "jain {j} below 1/n");
        prop_assert!(j <= 1.0 + 1e-9, "jain {j} above 1");
    }

    #[test]
    fn jain_index_is_scale_invariant(v in positive_vec(32), k in 1e-3..1e3f64) {
        let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
        let a = stats::jain_index(&v);
        let b = stats::jain_index(&scaled);
        prop_assert!((a - b).abs() < 1e-6, "jain not scale invariant: {a} vs {b}");
    }
}
