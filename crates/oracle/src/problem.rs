//! Problem construction API.

use crate::simplex;
use crate::solution::{LpError, Solution};

/// Relation of a linear constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub coeffs: Vec<f64>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program over non-negative variables, maximising `c·x`.
///
/// All decision variables are implicitly constrained to `x ≥ 0`, which is
/// the natural domain for occupation measures and mixed strategies — the
/// two uses in this workspace. Free variables can be modelled as a
/// difference of two non-negative ones by the caller if ever required.
///
/// ```
/// use rths_oracle::{LinearProgram, Relation};
///
/// // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
/// let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
/// lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0)?;
/// lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0)?;
/// lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0)?;
/// let solution = lp.solve()?;
/// assert!((solution.objective() - 36.0).abs() < 1e-9);
/// assert!((solution.x()[0] - 2.0).abs() < 1e-9);
/// assert!((solution.x()[1] - 6.0).abs() < 1e-9);
/// # Ok::<(), rths_oracle::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    costs: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Starts a maximisation problem with objective coefficients `costs`.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty or contains non-finite values.
    pub fn maximize(costs: Vec<f64>) -> Self {
        assert!(!costs.is_empty(), "need at least one variable");
        assert!(costs.iter().all(|c| c.is_finite()), "objective coefficients must be finite");
        Self { costs, constraints: Vec::new() }
    }

    /// Adds the constraint `coeffs · x <relation> rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::DimensionMismatch`] if `coeffs.len()` differs
    /// from the number of variables, or [`LpError::NonFinite`] if any
    /// coefficient or the right-hand side is not finite.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    ) -> Result<&mut Self, LpError> {
        if coeffs.len() != self.costs.len() {
            return Err(LpError::DimensionMismatch {
                expected: self.costs.len(),
                found: coeffs.len(),
            });
        }
        if !rhs.is_finite() || coeffs.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFinite);
        }
        self.constraints.push(Constraint { coeffs, relation, rhs });
        Ok(self)
    }

    /// Number of decision variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints added so far.
    pub(crate) fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficients.
    pub(crate) fn costs(&self) -> &[f64] {
        &self.costs
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Solves the program with the two-phase simplex method.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no point satisfies all constraints.
    /// * [`LpError::Unbounded`] — the objective can grow without limit.
    /// * [`LpError::IterationLimit`] — the pivot limit was exhausted
    ///   (should not occur with Bland's rule; indicates numerical trouble).
    pub fn solve(&self) -> Result<Solution, LpError> {
        simplex::solve(self)
    }

    /// Checks feasibility of a point within tolerance `tol`
    /// (including non-negativity).
    #[cfg(test)]
    pub(crate) fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.costs.len() || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs = rths_math::vector::dot(&c.coeffs, x);
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_shape() {
        let mut lp = LinearProgram::maximize(vec![1.0, 2.0, 3.0]);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Le, 10.0).unwrap();
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut lp = LinearProgram::maximize(vec![1.0, 2.0]);
        let err = lp.add_constraint(vec![1.0], Relation::Le, 1.0).unwrap_err();
        assert_eq!(err, LpError::DimensionMismatch { expected: 2, found: 1 });
    }

    #[test]
    fn non_finite_rejected() {
        let mut lp = LinearProgram::maximize(vec![1.0]);
        assert_eq!(
            lp.add_constraint(vec![f64::NAN], Relation::Le, 1.0).unwrap_err(),
            LpError::NonFinite
        );
        assert_eq!(
            lp.add_constraint(vec![1.0], Relation::Le, f64::INFINITY).unwrap_err(),
            LpError::NonFinite
        );
    }

    #[test]
    #[should_panic(expected = "at least one variable")]
    fn empty_objective_panics() {
        let _ = LinearProgram::maximize(vec![]);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 1.0).unwrap();
        assert!(lp.is_feasible(&[0.5, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.9, 0.2], 1e-9));
        assert!(!lp.is_feasible(&[-0.1, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.5], 1e-9));
    }

    #[test]
    fn objective_value_is_dot_product() {
        let costs = vec![2.0, -1.0];
        let mut lp = LinearProgram::maximize(costs.clone());
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 3.0).unwrap();
        let s = lp.solve().unwrap();
        assert_eq!(s.x(), &[3.0, 0.0]);
        assert_eq!(s.objective(), rths_math::vector::dot(&costs, s.x()));
    }
}
