//! Slice-level f64 kernels for the batched learner hot loops.
//!
//! These are the elementwise building blocks `rths_core::LearnerSlab` runs
//! over contiguous T-matrix columns: no indexing indirection, no bounds
//! checks inside the loop after the initial slice formation, so LLVM
//! autovectorizes them. Each kernel performs **exactly** the per-entry
//! expression of the scalar learner path (`RthsState`, `rths_core`'s
//! test-only oracle) — the float op *order within an entry* is preserved,
//! and entries are independent, so results are bit-for-bit identical to
//! the scalar loops.

/// In-place scale: `xs[i] *= factor` for every entry.
///
/// The batched form of `Matrix::scale` restricted to one column — the
/// slab's power-of-two renormalisation of a lazily-decayed T column.
#[inline]
pub fn scale(xs: &mut [f64], factor: f64) {
    for x in xs {
        *x *= factor;
    }
}

/// In-place axpy: `y[i] += a * x[i]` for every entry.
///
/// The rank-1 column update of the proxy matrix (`T[:, j] += scale · p`)
/// with the same fused expression shape as the scalar loop
/// (`t[(r, j)] += scale * probs[r]`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy slices must be index-aligned");
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// In-place elementwise maximum: `acc[i] = acc[i].max(xs[i])`.
///
/// Folds one column of `S` into the slab's maintained row maxima.
/// `f64::max` returns the other operand when one is `NaN`, so a `NaN`
/// entry never becomes (or displaces) a maximum — the same entries the
/// regret scan's per-term `.max(0.0)` clamp ignores.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn max_assign(acc: &mut [f64], xs: &[f64]) {
    assert_eq!(acc.len(), xs.len(), "max_assign slices must be index-aligned");
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a = a.max(x);
    }
}

/// Max of the clamped shifted differences: the largest
/// `(factor * (col[i] - diag[i])).max(0.0)` over the slice.
///
/// One column's contribution to the learner's virtual-play regret
/// maximum: `col` is column `k` of a column-major T-matrix, `diag` the
/// gathered diagonal, so entry `i` is `Q(i, k) = (factor ·
/// (T[i,k] − T[i,i]))⁺`. The diagonal entry `i == k` needs no
/// special-casing: `col[k] − diag[k]` is exactly `+0.0` for any finite
/// value (and the per-entry `.max(0.0)` maps a non-finite `NaN` to `0.0`
/// the same way the scalar path's literal `0.0` push does), matching the
/// scalar `if j == k { 0.0 }` arm bit-for-bit. Every term is `≥ +0.0` or
/// skipped-as-NaN, so the fold order cannot change the result.
///
/// Returns `f64::NEG_INFINITY` on an empty slice.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn shifted_regret_max(col: &[f64], diag: &[f64], factor: f64) -> f64 {
    assert_eq!(col.len(), diag.len(), "regret-max slices must be index-aligned");
    let mut max = f64::NEG_INFINITY;
    for (&c, &d) in col.iter().zip(diag) {
        max = max.max((factor * (c - d)).max(0.0));
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_matches_the_scalar_loop_bitwise() {
        let mut xs = vec![1.5, -2.25, 0.0, 1e-300, 7.0];
        let mut expected = xs.clone();
        for x in &mut expected {
            *x *= 0.99;
        }
        scale(&mut xs, 0.99);
        for (a, b) in xs.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn axpy_matches_the_scalar_loop_bitwise() {
        let mut y = vec![0.25, -1.0, 3.5, 0.0];
        let x = vec![0.1, 0.2, 0.3, 0.4];
        let a = 137.5;
        let mut expected = y.clone();
        for (e, &xv) in expected.iter_mut().zip(&x) {
            *e += a * xv;
        }
        axpy(&mut y, a, &x);
        for (got, want) in y.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "index-aligned")]
    fn axpy_rejects_length_mismatch() {
        axpy(&mut [0.0, 0.0], 1.0, &[1.0]);
    }

    #[test]
    fn max_assign_keeps_the_larger_entry_and_ignores_nan() {
        let mut acc = [1.0, -3.0, f64::NAN, 2.0, f64::NEG_INFINITY];
        max_assign(&mut acc, &[0.5, -1.0, 4.0, f64::NAN, f64::NAN]);
        assert_eq!(acc[..4], [1.0, -1.0, 4.0, 2.0]);
        assert_eq!(acc[4], f64::NEG_INFINITY);
    }

    #[test]
    fn shifted_regret_max_handles_diagonal_and_negatives() {
        // col == diag entrywise at the diagonal index → exact +0.0 term.
        let col = [3.0, 5.0, 1.0];
        let diag = [3.0, 2.0, 4.0];
        let q = shifted_regret_max(&col, &diag, 0.5);
        // Entries: (0.5·0)⁺ = 0, (0.5·3)⁺ = 1.5, (0.5·−3)⁺ = 0.
        assert_eq!(q.to_bits(), 1.5f64.to_bits());
        assert!(shifted_regret_max(&[], &[], 1.0).is_infinite());
        // All-clamped column folds to exactly +0.0.
        assert_eq!(shifted_regret_max(&[1.0], &[9.0], 1.0).to_bits(), 0.0f64.to_bits());
    }
}
