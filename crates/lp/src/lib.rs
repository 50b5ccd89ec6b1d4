//! A small, dependency-free linear-programming solver.
//!
//! The paper's centralized benchmark (§IV.A) is a cooperative optimization
//! over *occupation measures*: maximize `Σ u(y,x)·ρ(y,x)` subject to the
//! marginal constraints `Σ_x ρ(y,x) = π(y)`, normalisation, and `ρ ≥ 0` —
//! a linear program. This crate provides the exact solver used by
//! `rths-mdp` to compute that benchmark: a classic **two-phase dense
//! primal simplex** with Bland's anti-cycling rule.
//!
//! The solver targets correctness on small/medium dense problems (the
//! occupation-measure LPs here have at most a few thousand variables), not
//! sparse industrial scale.
//!
//! # Example
//!
//! ```
//! use rths_lp::{LinearProgram, Relation};
//!
//! // maximize 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
//! lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0)?;
//! lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0)?;
//! lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0)?;
//! let solution = lp.solve()?;
//! assert!((solution.objective() - 36.0).abs() < 1e-9);
//! assert!((solution.x()[0] - 2.0).abs() < 1e-9);
//! assert!((solution.x()[1] - 6.0).abs() < 1e-9);
//! # Ok::<(), rths_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]

mod problem;
mod simplex;
mod solution;

pub use problem::{LinearProgram, Objective, Relation};
pub use solution::{LpError, Solution};
