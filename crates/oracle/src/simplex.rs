//! Two-phase primal simplex on a dense tableau.
//!
//! Implementation notes:
//!
//! * The problem is converted to standard form `Ax = b, x ≥ 0, b ≥ 0`
//!   by adding slack variables for `≤`, surplus variables for `≥`, and
//!   artificial variables wherever no ready-made basic column exists.
//! * **Phase 1** minimises the sum of artificials; a positive optimum
//!   proves infeasibility. **Phase 2** optimises the real objective after
//!   driving artificials out of the basis.
//! * Pivot selection uses **Dantzig pricing** (most positive reduced
//!   cost) for speed, falling back permanently to **Bland's rule**
//!   (smallest eligible index, provably cycle-free) once the objective
//!   stalls for `m + n` consecutive pivots — the classic practical
//!   anti-cycling combination.

use rths_math::Matrix;

use crate::problem::{LinearProgram, Relation};
use crate::solution::{LpError, Solution};

const EPS: f64 = 1e-9;

/// Solves `lp`, returning an optimal solution or a terminal error.
pub(crate) fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    let m = lp.num_constraints();

    let costs = lp.costs();

    // Count extra columns: one slack/surplus per inequality, one artificial
    // per `≥`/`=` row (and per `≤` row with negative rhs, handled by
    // flipping the row first).
    //
    // Column layout: [structural 0..n | slack/surplus | artificial | rhs]
    let mut rows: Vec<(Vec<f64>, Relation, f64)> =
        lp.constraints().iter().map(|c| (c.coeffs.clone(), c.relation, c.rhs)).collect();

    // Make every rhs non-negative by flipping rows (Le<->Ge under negation).
    for (coeffs, rel, rhs) in &mut rows {
        if *rhs < 0.0 {
            for v in coeffs.iter_mut() {
                *v = -*v;
            }
            *rhs = -*rhs;
            *rel = match *rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    let num_slack = rows.iter().filter(|(_, r, _)| *r != Relation::Eq).count();
    let num_art = rows.iter().filter(|(_, r, _)| *r != Relation::Le).count();
    let total_cols = n + num_slack + num_art + 1; // +1 for rhs
    let rhs_col = total_cols - 1;

    if m == 0 {
        // No constraints: optimum is 0 at the origin unless some cost is
        // positive, in which case the problem is unbounded.
        if costs.iter().any(|&c| c > EPS) {
            return Err(LpError::Unbounded);
        }
        return Ok(Solution::new(0.0, vec![0.0; n]));
    }

    let mut tableau = Matrix::zeros(m, total_cols);
    let mut basis = vec![usize::MAX; m];
    let mut art_cols = Vec::with_capacity(num_art);

    let mut slack_cursor = n;
    let mut art_cursor = n + num_slack;
    for (i, (coeffs, rel, rhs)) in rows.iter().enumerate() {
        for (j, &a) in coeffs.iter().enumerate() {
            tableau[(i, j)] = a;
        }
        tableau[(i, rhs_col)] = *rhs;
        match rel {
            Relation::Le => {
                tableau[(i, slack_cursor)] = 1.0;
                basis[i] = slack_cursor;
                slack_cursor += 1;
            }
            Relation::Ge => {
                tableau[(i, slack_cursor)] = -1.0; // surplus
                slack_cursor += 1;
                tableau[(i, art_cursor)] = 1.0;
                basis[i] = art_cursor;
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Eq => {
                tableau[(i, art_cursor)] = 1.0;
                basis[i] = art_cursor;
                art_cols.push(art_cursor);
                art_cursor += 1;
            }
        }
    }

    let mut iterations = 0usize;
    let max_pivots = (200 * (m + total_cols)).max(10_000);
    let stall_limit = m + total_cols;

    // ---- Phase 1: minimise sum of artificials (maximise -sum). ----
    if num_art > 0 {
        let mut phase1_costs = vec![0.0; total_cols - 1];
        for &c in &art_cols {
            phase1_costs[c] = -1.0;
        }
        let mut z_row = reduced_costs(&tableau, &basis, &phase1_costs);
        let mut bland = false;
        let mut stall = 0usize;
        let mut last_obj = objective_of(&tableau, &basis, &phase1_costs, rhs_col);
        while let Some(entering) = pick_entering(&z_row, &[], bland) {
            let Some(leaving) = pick_leaving(&tableau, &basis, entering, rhs_col, bland) else {
                // Phase-1 objective is bounded by 0; unboundedness here
                // signals numerical trouble.
                return Err(LpError::IterationLimit);
            };
            pivot(&mut tableau, &mut basis, leaving, entering, rhs_col);
            z_row = reduced_costs(&tableau, &basis, &phase1_costs);
            iterations += 1;
            if iterations > max_pivots {
                return Err(LpError::IterationLimit);
            }
            let obj = objective_of(&tableau, &basis, &phase1_costs, rhs_col);
            if obj > last_obj + EPS {
                stall = 0;
            } else {
                stall += 1;
                if stall > stall_limit {
                    bland = true;
                }
            }
            last_obj = obj;
        }
        let phase1_obj: f64 = basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| art_cols.contains(&b))
            .map(|(i, _)| tableau[(i, rhs_col)])
            .sum();
        if phase1_obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any lingering (degenerate, zero-valued) artificials out of
        // the basis if possible.
        for i in 0..m {
            if art_cols.contains(&basis[i]) {
                let pivot_col = (0..n + num_slack)
                    .find(|&j| tableau[(i, j)].abs() > EPS && !art_cols.contains(&j));
                if let Some(j) = pivot_col {
                    pivot(&mut tableau, &mut basis, i, j, rhs_col);
                    iterations += 1;
                }
                // If no pivot exists the row is redundant; the artificial
                // stays basic at value zero, which is harmless as long as
                // we forbid artificials from ever re-entering.
            }
        }
    }

    // ---- Phase 2: maximise the real objective. ----
    let mut phase2_costs = vec![0.0; total_cols - 1];
    phase2_costs[..n].copy_from_slice(costs);
    let mut z_row = reduced_costs(&tableau, &basis, &phase2_costs);
    let mut bland = false;
    let mut stall = 0usize;
    let mut last_obj = objective_of(&tableau, &basis, &phase2_costs, rhs_col);
    while let Some(entering) = pick_entering(&z_row, &art_cols, bland) {
        let Some(leaving) = pick_leaving(&tableau, &basis, entering, rhs_col, bland) else {
            return Err(LpError::Unbounded);
        };
        pivot(&mut tableau, &mut basis, leaving, entering, rhs_col);
        z_row = reduced_costs(&tableau, &basis, &phase2_costs);
        iterations += 1;
        if iterations > max_pivots {
            return Err(LpError::IterationLimit);
        }
        let obj = objective_of(&tableau, &basis, &phase2_costs, rhs_col);
        if obj > last_obj + EPS {
            stall = 0;
        } else {
            stall += 1;
            if stall > stall_limit {
                bland = true;
            }
        }
        last_obj = obj;
    }

    // Extract the solution.
    let mut x = vec![0.0; n];
    for (i, &b) in basis.iter().enumerate() {
        if b < n {
            x[b] = tableau[(i, rhs_col)].max(0.0);
        }
    }
    let objective = rths_math::vector::dot(costs, &x);
    Ok(Solution::new(objective, x))
}

/// Reduced cost vector `c_j - c_B · B⁻¹ A_j` for every non-basic column.
fn reduced_costs(tableau: &Matrix, basis: &[usize], costs: &[f64]) -> Vec<f64> {
    let m = tableau.rows();
    let ncols = costs.len();
    let mut z = costs.to_vec();
    for i in 0..m {
        let cb = costs[basis[i]];
        if cb == 0.0 {
            continue;
        }
        for (j, z_j) in z.iter_mut().enumerate().take(ncols) {
            *z_j -= cb * tableau[(i, j)];
        }
    }
    // Basic columns have zero reduced cost by construction; zero them
    // explicitly to suppress floating-point residue.
    for &b in basis {
        if b < z.len() {
            z[b] = 0.0;
        }
    }
    z
}

/// Current objective value `c_B · b`.
fn objective_of(tableau: &Matrix, basis: &[usize], costs: &[f64], rhs_col: usize) -> f64 {
    basis.iter().enumerate().map(|(i, &b)| costs[b] * tableau[(i, rhs_col)]).sum()
}

/// Entering-column choice. `bland = false`: Dantzig pricing (most
/// positive reduced cost, ties to the lowest index). `bland = true`:
/// Bland's rule (smallest eligible index — cycle-free). Banned
/// (artificial) columns are never chosen.
fn pick_entering(z_row: &[f64], banned: &[usize], bland: bool) -> Option<usize> {
    if bland {
        return z_row
            .iter()
            .enumerate()
            .find(|(j, &z)| z > EPS && !banned.contains(j))
            .map(|(j, _)| j);
    }
    let mut best: Option<(usize, f64)> = None;
    for (j, &z) in z_row.iter().enumerate() {
        if z > EPS && !banned.contains(&j) {
            match best {
                Some((_, bz)) if bz >= z => {}
                _ => best = Some((j, z)),
            }
        }
    }
    best.map(|(j, _)| j)
}

/// Minimum-ratio test. Tie-breaking (ties are ubiquitous in degenerate
/// LPs such as the correlated-equilibrium polytope, whose constraint rhs
/// are all zero) depends on the mode:
///
/// * `bland = false`: toward the largest pivot element — a standard
///   stall-reducing, numerically stabilising heuristic;
/// * `bland = true`: toward the smallest *basis variable index* — the
///   second half of Bland's rule, required for the cycling-freedom
///   guarantee (breaking ties any other way can cycle forever on
///   degenerate vertices, as the 27-variable CE LP of a 3×3 game
///   demonstrated).
fn pick_leaving(
    tableau: &Matrix,
    basis: &[usize],
    entering: usize,
    rhs_col: usize,
    bland: bool,
) -> Option<usize> {
    let mut best: Option<(usize, f64, f64)> = None; // (row, ratio, tie-key)
    for i in 0..tableau.rows() {
        let a = tableau[(i, entering)];
        if a > EPS {
            let ratio = tableau[(i, rhs_col)] / a;
            match best {
                Some((_, r, _)) if ratio > r + EPS => {}
                Some((bi, r, key)) if ratio > r - EPS => {
                    // Tie: apply the mode's tie-break.
                    let better = if bland { basis[i] < basis[bi] } else { a > key };
                    if better {
                        best = Some((i, ratio.min(r), if bland { 0.0 } else { a }));
                    }
                }
                _ => best = Some((i, ratio, if bland { 0.0 } else { a })),
            }
        }
    }
    best.map(|(i, _, _)| i)
}

/// Gauss–Jordan pivot on `(row, col)` and basis bookkeeping.
fn pivot(tableau: &mut Matrix, basis: &mut [usize], row: usize, col: usize, rhs_col: usize) {
    let p = tableau[(row, col)];
    debug_assert!(p.abs() > EPS, "pivot on ~zero element");
    for j in 0..=rhs_col {
        tableau[(row, j)] /= p;
    }
    for i in 0..tableau.rows() {
        if i == row {
            continue;
        }
        let factor = tableau[(i, col)];
        if factor.abs() < EPS {
            continue;
        }
        for j in 0..=rhs_col {
            let delta = factor * tableau[(row, j)];
            tableau[(i, j)] -= delta;
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use crate::{LinearProgram, LpError, Relation};

    #[test]
    fn textbook_max_problem() {
        // Dantzig's classic: optimum 36 at (2, 6).
        let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0).unwrap();
        lp.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0).unwrap();
        lp.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-9);
        assert!((s.x()[0] - 2.0).abs() < 1e-9);
        assert!((s.x()[1] - 6.0).abs() < 1e-9);
        assert!(lp.is_feasible(s.x(), 1e-9));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // minimize 2x + 3y s.t. x + y >= 4, x >= 1 -> optimum at (4, 0): 8,
        // as the maximum of -2x - 3y.
        let mut lp = LinearProgram::maximize(vec![-2.0, -3.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Ge, 4.0).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Relation::Ge, 1.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() + 8.0).abs() < 1e-9, "objective {}", s.objective());
        assert!((s.x()[0] - 4.0).abs() < 1e-9);
        assert!(s.x()[1].abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y s.t. x + y = 5, x <= 3 -> 5 (any split works).
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 5.0).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 3.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 5.0).abs() < 1e-9);
        assert!(lp.is_feasible(s.x(), 1e-9));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_constraint(vec![1.0], Relation::Le, 1.0).unwrap();
        lp.add_constraint(vec![1.0], Relation::Ge, 2.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize(vec![1.0, 0.0]);
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 1.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn unbounded_without_constraints() {
        let lp = LinearProgram::maximize(vec![1.0]);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
        let lp2 = LinearProgram::maximize(vec![-1.0]);
        let s = lp2.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
    }

    #[test]
    fn negative_rhs_rows_are_flipped() {
        // x <= -1 is infeasible for x >= 0.
        let mut lp = LinearProgram::maximize(vec![0.0]);
        lp.add_constraint(vec![1.0], Relation::Le, -1.0).unwrap();
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);

        // -x <= -1 (i.e. x >= 1) is fine.
        let mut lp2 = LinearProgram::maximize(vec![-1.0]);
        lp2.add_constraint(vec![-1.0], Relation::Le, -1.0).unwrap();
        let s = lp2.solve().unwrap();
        assert!((s.x()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple constraints active at the optimum (degeneracy).
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 1.0).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Relation::Le, 1.0).unwrap();
        lp.add_constraint(vec![0.0, 1.0], Relation::Le, 1.0).unwrap();
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 2.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transportation_style_equalities() {
        // Two sources (supply 3, 4), two sinks (demand 2, 5); cost matrix
        // [[1, 3], [2, 1]]. Optimal cost = 2*1 + 1*3 + 4*1 = 9? Check:
        // ship s1->d1: 2 (cost 2), s1->d2: 1 (cost 3), s2->d2: 4 (cost 4)
        // total 9. Alternative: s1->d2:3 (9), s2->d1:2 (4), s2->d2:2 (2) =
        // 15. So 9 is optimal: the maximum of the negated costs is -9.
        let mut lp = LinearProgram::maximize(vec![-1.0, -3.0, -2.0, -1.0]);
        // x11 + x12 = 3
        lp.add_constraint(vec![1.0, 1.0, 0.0, 0.0], Relation::Eq, 3.0).unwrap();
        // x21 + x22 = 4
        lp.add_constraint(vec![0.0, 0.0, 1.0, 1.0], Relation::Eq, 4.0).unwrap();
        // x11 + x21 = 2
        lp.add_constraint(vec![1.0, 0.0, 1.0, 0.0], Relation::Eq, 2.0).unwrap();
        // x12 + x22 = 5
        lp.add_constraint(vec![0.0, 1.0, 0.0, 1.0], Relation::Eq, 5.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() + 9.0).abs() < 1e-9, "objective {}", s.objective());
        assert!(lp.is_feasible(s.x(), 1e-9));
    }

    #[test]
    fn probability_simplex_maximum() {
        // maximize c·p over the probability simplex = max(c).
        let mut lp = LinearProgram::maximize(vec![0.3, 0.9, 0.5]);
        lp.add_constraint(vec![1.0, 1.0, 1.0], Relation::Eq, 1.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 0.9).abs() < 1e-9);
        assert!((s.x()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equalities_do_not_break_phase1() {
        // The last equality is implied by the first two.
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 0.0], Relation::Eq, 1.0).unwrap();
        lp.add_constraint(vec![0.0, 1.0], Relation::Eq, 2.0).unwrap();
        lp.add_constraint(vec![1.0, 1.0], Relation::Eq, 3.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_relations() {
        // maximize x + 2y s.t. x + y <= 10, x >= 2, y = 3 -> x=7,y=3: 13.
        let mut lp = LinearProgram::maximize(vec![1.0, 2.0]);
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 10.0).unwrap();
        lp.add_constraint(vec![1.0, 0.0], Relation::Ge, 2.0).unwrap();
        lp.add_constraint(vec![0.0, 1.0], Relation::Eq, 3.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 13.0).abs() < 1e-9);
        assert!((s.x()[0] - 7.0).abs() < 1e-9);
        assert!((s.x()[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // x - y = 0, x + y <= 2, maximize x + y -> (1,1).
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, -1.0], Relation::Eq, 0.0).unwrap();
        lp.add_constraint(vec![1.0, 1.0], Relation::Le, 2.0).unwrap();
        let s = lp.solve().unwrap();
        assert!((s.objective() - 2.0).abs() < 1e-9);
        assert!((s.x()[0] - s.x()[1]).abs() < 1e-9);
    }
}
