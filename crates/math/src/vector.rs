//! Free functions on `&[f64]` slices.
//!
//! These are the vector operations used throughout the workspace where a
//! full [`Matrix`](crate::Matrix) would be overkill: dot products and
//! checks of probability vectors.

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
    fn is_distribution_rejects_bad_inputs() {
        assert!(!is_distribution(&[], 1e-9));
        assert!(!is_distribution(&[0.5, 0.6], 1e-9));
        assert!(!is_distribution(&[1.5, -0.5], 1e-9));
        assert!(is_distribution(&[0.25; 4], 1e-9));
    }
}
