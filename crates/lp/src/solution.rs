//! Solution and error types.

use std::fmt;

/// An optimal solution to a [`LinearProgram`](crate::LinearProgram).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    objective: f64,
    x: Vec<f64>,
}

impl Solution {
    pub(crate) fn new(objective: f64, x: Vec<f64>) -> Self {
        Self { objective, x }
    }

    /// Optimal objective value (in the original problem's direction).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Optimal point (one value per decision variable).
    pub fn x(&self) -> &[f64] {
        &self.x
    }
}

/// Errors produced while building or solving a linear program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// A constraint row's length does not match the variable count.
    DimensionMismatch {
        /// Number of variables in the program.
        expected: usize,
        /// Length of the offending row.
        found: usize,
    },
    /// A coefficient or right-hand side was NaN or infinite.
    NonFinite,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The pivot limit was exhausted (numerical degeneracy).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::DimensionMismatch { expected, found } => {
                write!(f, "constraint has {found} coefficients, expected {expected}")
            }
            LpError::NonFinite => write!(f, "coefficients must be finite"),
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "problem is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            LpError::DimensionMismatch { expected: 3, found: 2 }.to_string(),
            LpError::NonFinite.to_string(),
            LpError::Infeasible.to_string(),
            LpError::Unbounded.to_string(),
            LpError::IterationLimit.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::new(5.0, vec![1.0, 2.0]);
        assert_eq!(s.objective(), 5.0);
        assert_eq!(s.x(), &[1.0, 2.0]);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LpError>();
    }
}
