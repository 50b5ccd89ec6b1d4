//! A dense, row-major `f64` matrix.
//!
//! The workspace deliberately avoids heavyweight linear-algebra
//! dependencies; its consumers (the scalar learner oracle's regret
//! matrices, simplex tableaus) need only a handful of dense operations on
//! small-to-medium matrices, which this module provides with predictable
//! performance.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use rths_math::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(1, 0)] = 3.0;
/// m.scale(2.0);
/// assert_eq!(m[(1, 0)], 6.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Multiplies every entry by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns a new matrix scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `2 × 2` matrix with rows `[a, b]` and `[c, d]`.
    fn two_by_two(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        let mut m = Matrix::zeros(2, 2);
        (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]) = (a, b, c, d);
        m
    }

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert!((0..3).all(|r| (0..4).all(|c| m[(r, c)] == 0.0)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn scale_and_scaled_agree() {
        let a = two_by_two(1.0, 2.0, 3.0, 4.0);
        let mut b = a.clone();
        b.scale(2.0);
        assert_eq!(b, a.scaled(2.0));
        assert_eq!(b, two_by_two(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut m = two_by_two(-1.0, 2.0, -3.0, 4.0);
        m.map_inplace(|v| v.max(0.0));
        assert_eq!(m, two_by_two(0.0, 2.0, 0.0, 4.0));
    }

    #[test]
    fn debug_format_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }
}
