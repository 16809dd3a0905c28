//! Solved LP results and their optimality certificate.

use crate::model::Relation;
use crate::{Model, Sense, VarId};

/// Relative tolerance of [`Solution::certify`]. Looser than the solver's
/// pivoting tolerance: the certificate recomputes every product from the
/// original model, so it also absorbs the rounding of the standard form
/// and of the factorized basis.
const CERTIFY_TOL: f64 = 1e-7;

/// Work counters from one solve, making warm-vs-cold effort observable in
/// tests and benchmarks (not just wall clock).
///
/// The counters count the work the call did. A cold
/// [`crate::SimplexInstance::solve`] that reuses the phase-1 end state of
/// an earlier cold solve on the same instance counts its phase 2 only;
/// the solve that ran phase 1 counts both phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Simplex pivots performed: basis changes only, so the counter is
    /// directly comparable across paths (phase 1 + artificial pivot-outs +
    /// phase 2 for a cold solve, phase 2 alone when phase 1 was reused;
    /// dual-simplex pivots for a warm re-solve).
    /// Pricing rounds that find no entering column are not counted.
    pub iterations: usize,
    /// Basis factorization (re)builds demanded by the pivot cadence.
    pub refactors: usize,
    /// Full pricing passes over every column: the periodic candidate-list
    /// refreshes, the final optimality confirmation, and any Bland's-rule
    /// scans, so `full_prices ≪ iterations` is the observable signature
    /// of partial pricing doing its job.
    pub full_prices: usize,
    /// `true` if this solution came from a warm-started re-solve
    /// ([`crate::SimplexInstance::resolve`]) rather than a cold two-phase
    /// solve.
    pub warm: bool,
}

/// The result of a successful LP solve.
///
/// Holds the optimal value of every variable, the objective value in the
/// user's optimization sense, and a dual value per constraint row.
///
/// # Examples
///
/// ```
/// use qp_lp::{Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var(1.0);
/// let row = m.add_ge(&[(x, 1.0)], 4.0);
/// let sol = m.solve()?;
/// assert!((sol.value(x) - 4.0).abs() < 1e-7);
/// assert!(sol.dual(row) >= 0.0);
/// # Ok::<(), qp_lp::LpError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    num_vars: usize,
    values: Vec<f64>,
    objective: f64,
    duals: Vec<f64>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(
        num_vars: usize,
        values: Vec<f64>,
        objective: f64,
        duals: Vec<f64>,
        stats: SolveStats,
    ) -> Self {
        debug_assert_eq!(num_vars, values.len());
        Solution {
            num_vars,
            values,
            objective,
            duals,
            stats,
        }
    }

    /// Optimal value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> f64 {
        assert!(v.index() < self.num_vars, "variable out of range");
        self.values[v.index()]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The optimal objective, in the model's own sense (maximization
    /// objectives are reported as maxima).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Dual value (shadow price) of a constraint row, identified by the
    /// index returned from `add_le`/`add_ge`/`add_eq`/`add_constraint`.
    ///
    /// Sign convention: for a minimization model, the dual of a binding
    /// `≥` row is ≥ 0 and of a binding `≤` row is ≤ 0; signs are negated
    /// for maximization models (so `≤` rows get ≥ 0 duals, the familiar
    /// "shadow price" convention).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn dual(&self, row: usize) -> f64 {
        assert!(row < self.duals.len(), "row index out of range");
        self.duals[row]
    }

    /// Number of constraint rows in the solved model.
    pub fn num_rows(&self) -> usize {
        self.duals.len()
    }

    /// Solver work counters for this solve (pivots, refactorizations,
    /// warm-started or not).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Checks that this solution is optimal for `model`, recomputing
    /// everything from the *original* model rather than trusting the
    /// solver's standard form:
    ///
    /// * primal feasibility of every row and of `x ≥ 0`, and the reported
    ///   objective against `c·x`;
    /// * dual sign feasibility of the row duals, and of the reduced costs
    ///   `c_j − Σᵢ yᵢ·a_ij` recomputed from the model's columns (when
    ///   minimizing, no reduced cost is negative);
    /// * complementary slackness: a row with a nonzero dual is tight, and
    ///   a variable with a nonzero reduced cost sits at 0.
    ///
    /// Tolerances scale with the magnitude of the terms involved.
    ///
    /// # Errors
    ///
    /// A description of the first violated condition.
    ///
    /// # Panics
    ///
    /// Panics if the solution's shape does not match `model`.
    pub fn certify(&self, model: &Model) -> Result<(), String> {
        assert!(
            self.values.len() == model.num_vars() && self.duals.len() == model.num_rows(),
            "solution shape does not match the model"
        );
        // Minimization convention: a maximization negates costs and duals.
        let sense = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let tol = |scale: f64| CERTIFY_TOL * (1.0 + scale);
        let x = &self.values;
        let costs = model.objective_coeffs();
        let c_scale = costs.iter().fold(0.0f64, |acc, c| acc.max(c.abs()));

        let objective: f64 = costs.iter().zip(x).map(|(c, v)| c * v).sum();
        let obj_scale: f64 = costs.iter().zip(x).map(|(c, v)| (c * v).abs()).sum();
        if (objective - self.objective).abs() > tol(obj_scale) {
            return Err(format!(
                "reported objective {} but c·x = {objective}",
                self.objective
            ));
        }

        // Rows; the reduced costs d = c − Aᵀy accumulate along the way.
        let mut rc: Vec<f64> = costs.iter().map(|c| sense * c).collect();
        let mut rc_scale: Vec<f64> = costs.iter().map(|c| c.abs()).collect();
        for (i, row) in model.rows().iter().enumerate() {
            let y = sense * self.duals[i];
            let mut lhs = 0.0;
            let mut scale = row.rhs.abs();
            for &(j, a) in &row.terms {
                lhs += a * x[j];
                scale += (a * x[j]).abs();
                rc[j] -= y * a;
                rc_scale[j] += (y * a).abs();
            }
            let slack = lhs - row.rhs;
            let (feasible, dual_ok) = match row.relation {
                Relation::Le => (slack <= tol(scale), y <= tol(c_scale)),
                Relation::Ge => (slack >= -tol(scale), y >= -tol(c_scale)),
                Relation::Eq => (slack.abs() <= tol(scale), true),
            };
            if !feasible {
                return Err(format!(
                    "row {i} ({:?}) violated: lhs {lhs}, rhs {}",
                    row.relation, row.rhs
                ));
            }
            if !dual_ok {
                return Err(format!(
                    "row {i} ({:?}) has a wrong-signed dual {}",
                    row.relation, self.duals[i]
                ));
            }
            if (y * slack).abs() > CERTIFY_TOL * (1.0 + y.abs()) * (1.0 + scale) {
                return Err(format!(
                    "row {i} has dual {} but slack {slack}",
                    self.duals[i]
                ));
            }
        }

        // Columns: x ≥ 0, reduced-cost sign, complementary slackness.
        for (j, ((&v, &d), &scale)) in x.iter().zip(&rc).zip(&rc_scale).enumerate() {
            if v < -CERTIFY_TOL {
                return Err(format!("x{j} = {v} is negative"));
            }
            // Minimizing, a positive reduced cost pushes x_j down to 0,
            // where it must sit, and a negative one would raise it without
            // bound.
            if d < -tol(scale) {
                return Err(format!("x{j} = {v} has negative reduced cost {d}"));
            }
            if d > tol(scale) && d * v > CERTIFY_TOL * (1.0 + d) * (1.0 + v.abs()) {
                return Err(format!("x{j} = {v} has reduced cost {d} but is not at 0"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn value_checks_range() {
        let sol = Solution::new(1, vec![0.0], 0.0, vec![], SolveStats::default());
        // A VarId from a different, larger model.
        let mut other = Model::new(Sense::Minimize);
        let _ = other.add_var(0.0);
        let b = other.add_var(0.0);
        let _ = sol.value(b);
    }

    #[test]
    fn accessors_roundtrip() {
        let stats = SolveStats {
            iterations: 3,
            refactors: 1,
            full_prices: 1,
            warm: true,
        };
        let sol = Solution::new(2, vec![1.5, 2.5], 4.0, vec![0.25], stats);
        assert_eq!(sol.values(), &[1.5, 2.5]);
        assert_eq!(sol.objective(), 4.0);
        assert_eq!(sol.num_rows(), 1);
        assert_eq!(sol.dual(0), 0.25);
        assert_eq!(sol.stats(), stats);
    }

    #[test]
    fn certify_rejects_perturbed_solutions() {
        // max 3x + 5y st x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18: optimum (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(y, 2.0)], 12.0);
        m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = m.solve().unwrap();
        sol.certify(&m).unwrap();
        let with = |values: Vec<f64>, objective: f64, duals: Vec<f64>| {
            Solution::new(2, values, objective, duals, sol.stats())
        };
        // A nudged value breaks the binding row 3x + 2y ≤ 18.
        let mut nudged = sol.values.clone();
        nudged[0] += 1e-3;
        let obj = 3.0 * nudged[0] + 5.0 * nudged[1];
        assert!(with(nudged, obj, sol.duals.clone()).certify(&m).is_err());
        // A feasible but suboptimal point fails complementary slackness.
        assert!(with(vec![0.0, 0.0], 0.0, sol.duals.clone())
            .certify(&m)
            .is_err());
        // Wrong-signed duals fail dual feasibility.
        let flipped = sol.duals.iter().map(|d| -d).collect();
        assert!(with(sol.values.clone(), sol.objective, flipped)
            .certify(&m)
            .is_err());
        // A misreported objective fails.
        assert!(
            with(sol.values.clone(), sol.objective + 1e-3, sol.duals.clone())
                .certify(&m)
                .is_err()
        );
    }
}
