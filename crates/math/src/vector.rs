//! Free functions on `&[f64]` slices.
//!
//! These are the vector operations used throughout the workspace where a
//! full [`Matrix`](crate::Matrix) would be overkill: dot products, and
//! normalisation and checks of probability vectors.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// assert_eq!(rths_math::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum of a slice.
pub(crate) fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Largest absolute element-wise difference between two slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Normalises `v` in place so it sums to 1.
///
/// If the sum is zero (or not finite), `v` is set to the uniform
/// distribution instead — the standard safe fallback when a learner's
/// regrets are all zero.
///
/// # Panics
///
/// Panics if `v` is empty.
pub fn normalize(v: &mut [f64]) {
    assert!(!v.is_empty(), "cannot normalize an empty vector");
    let s = sum(v);
    if s > 0.0 && s.is_finite() {
        for x in v.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / v.len() as f64;
        v.fill(u);
    }
}

/// Checks that `v` is a probability distribution: entries in `[-tol, 1+tol]`
/// and total within `tol` of 1.
pub fn is_distribution(v: &[f64], tol: f64) -> bool {
    !v.is_empty()
        && v.iter().all(|&x| x >= -tol && x <= 1.0 + tol && x.is_finite())
        && (sum(v) - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn normalize_produces_distribution() {
        let mut v = vec![2.0, 2.0, 4.0];
        normalize(&mut v);
        assert!(is_distribution(&v, 1e-12));
        assert!((v[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_falls_back_to_uniform() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.5, 0.5]);
    }

    #[test]
    fn is_distribution_rejects_bad_inputs() {
        assert!(!is_distribution(&[], 1e-9));
        assert!(!is_distribution(&[0.5, 0.6], 1e-9));
        assert!(!is_distribution(&[1.5, -0.5], 1e-9));
        assert!(is_distribution(&[0.25; 4], 1e-9));
    }

    #[test]
    fn max_abs_diff_is_symmetric() {
        let a = [1.0, 2.0];
        let b = [1.5, 1.0];
        assert_eq!(max_abs_diff(&a, &b), max_abs_diff(&b, &a));
        assert_eq!(max_abs_diff(&a, &b), 1.0);
    }
}
