//! Approximate floating-point comparison helpers for tests.
//!
//! Centralised so that every crate in the workspace uses the same notion of
//! "approximately equal" and prints the same diagnostics on failure.

/// Returns `true` if `a` and `b` differ by at most `tol` (absolute).
///
/// Two non-finite values compare equal only if they are identical
/// (`inf == inf`, `-inf == -inf`); NaN never matches.
fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        return true;
    }
    (a - b).abs() <= tol
}

/// Asserts element-wise approximate equality of two slices.
///
/// # Panics
///
/// Panics with a diagnostic if lengths differ or any pair differs by more
/// than `tol`.
pub fn assert_slices_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len(), "slice lengths differ: {} vs {}", a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(approx_eq(*x, *y, tol), "slices differ at index {i}: {x} vs {y} (tol {tol})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_equality_always_passes() {
        assert!(approx_eq(1.0, 1.0, 0.0));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY, 0.0));
    }

    #[test]
    fn nan_never_matches() {
        assert!(!approx_eq(f64::NAN, f64::NAN, 1.0));
        assert!(!approx_eq(f64::NAN, 0.0, 1.0));
    }

    #[test]
    fn tolerance_is_respected() {
        assert!(approx_eq(1.0, 1.05, 0.1));
        assert!(!approx_eq(1.0, 1.2, 0.1));
    }

    #[test]
    #[should_panic(expected = "slices differ at index 1")]
    fn slice_assert_reports_index() {
        assert_slices_close(&[1.0, 2.0], &[1.0, 3.0], 0.1);
    }

    #[test]
    fn slice_assert_accepts_close_slices() {
        assert_slices_close(&[1.0, 2.0], &[1.0 + 1e-12, 2.0 - 1e-12], 1e-9);
    }
}
