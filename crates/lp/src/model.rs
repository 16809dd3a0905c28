//! The LP modeling layer: variables, constraints, objective.

use std::fmt;

use crate::simplex::{phase_one, phase_two, REFACTOR_EVERY};
use crate::{LpError, SimplexInstance, Solution};

/// Identifier of a decision variable within one [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw column index of this variable.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a `VarId` from a raw column index (for iteration over a
    /// model's variables; pairing with a foreign model is a logic error
    /// caught by the consuming methods' range checks).
    pub const fn from_index(index: usize) -> Self {
        VarId(index)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(usize, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program under construction, over variables `x ≥ 0`.
///
/// Every variable is nonnegative and has no other bound: a finite upper
/// bound is a `≤` row, a lower bound a shift of the rows' right-hand
/// sides, a free variable an `x⁺ − x⁻` pair. Variables carry an objective
/// coefficient; constraints are added as term lists. Call
/// [`Model::solve`] to run the simplex solver.
///
/// # Examples
///
/// Minimize `x + 2y` with `x + y ≥ 3`, `y ≤ 2`:
///
/// ```
/// use qp_lp::{Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var(1.0);
/// let y = m.add_var(2.0);
/// m.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
/// m.add_le(&[(y, 1.0)], 2.0);
/// let sol = m.solve()?;
/// assert!((sol.objective() - 3.0).abs() < 1e-7); // x = 3, y = 0
/// # Ok::<(), qp_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            objective: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a decision variable `x ≥ 0` with the given objective
    /// coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not finite.
    pub fn add_var(&mut self, obj: f64) -> VarId {
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.objective.push(obj);
        VarId(self.objective.len() - 1)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows added so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Changes the objective coefficient of an existing variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model or `obj` is not finite.
    pub fn set_objective(&mut self, v: VarId, obj: f64) {
        assert!(v.0 < self.num_vars(), "variable out of range");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.objective[v.0] = obj;
    }

    /// Adds a general constraint `Σ cᵢ·xᵢ  (≤ | ≥ | =)  rhs`.
    ///
    /// Duplicate variables in `terms` are summed. Returns the row index
    /// (usable with [`Solution::dual`]).
    ///
    /// # Panics
    ///
    /// Panics if a variable is foreign, a coefficient is not finite, or
    /// `rhs` is not finite.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> usize {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut combined: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.num_vars(), "variable {v} out of range");
            assert!(c.is_finite(), "coefficient for {v} must be finite");
            match combined.binary_search_by_key(&v.0, |&(i, _)| i) {
                Ok(pos) => combined[pos].1 += c,
                Err(pos) => combined.insert(pos, (v.0, c)),
            }
        }
        combined.retain(|&(_, c)| c != 0.0);
        self.rows.push(Row {
            terms: combined,
            relation,
            rhs,
        });
        self.rows.len() - 1
    }

    /// Adds a new variable `x ≥ 0` *column-wise*: objective coefficient
    /// `obj`, and coefficient `c` in each existing constraint row listed
    /// in `terms` as `(row_index, c)`. Rows not listed are untouched;
    /// duplicate row entries are summed and zero coefficients dropped.
    ///
    /// This is the column-generation entry point: a restricted master
    /// starts from a few columns and the pricing oracle appends profitable
    /// ones, so the model must grow by columns without re-stating the rows
    /// ([`crate::SimplexInstance::add_column`] keeps the frozen standard
    /// form in sync incrementally).
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if `obj` or a coefficient is not finite
    /// or a row index is out of range. The model is unchanged on error.
    pub fn add_column(&mut self, obj: f64, terms: &[(usize, f64)]) -> Result<VarId, LpError> {
        let combined = self.combine_column_terms(terms)?;
        if !obj.is_finite() {
            return Err(LpError::InvalidModel {
                reason: "objective coefficient of a new column must be finite".to_string(),
            });
        }
        let id = VarId(self.num_vars());
        self.objective.push(obj);
        for (row, coeff) in combined {
            // The new variable's index exceeds every existing one, so a
            // push keeps each row's term list sorted.
            self.rows[row].terms.push((id.0, coeff));
        }
        Ok(id)
    }
    /// Validates and canonicalizes the `(row, coeff)` terms of a
    /// prospective new column: rows in range, coefficients finite,
    /// duplicates summed, zeros dropped, sorted by row.
    pub(crate) fn combine_column_terms(
        &self,
        terms: &[(usize, f64)],
    ) -> Result<Vec<(usize, f64)>, LpError> {
        let mut combined: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(row, c) in terms {
            if row >= self.rows.len() {
                return Err(LpError::InvalidModel {
                    reason: format!("column term row {row} out of range"),
                });
            }
            if !c.is_finite() {
                return Err(LpError::InvalidModel {
                    reason: format!("column coefficient for row {row} must be finite"),
                });
            }
            match combined.binary_search_by_key(&row, |&(i, _)| i) {
                Ok(pos) => combined[pos].1 += c,
                Err(pos) => combined.insert(pos, (row, c)),
            }
        }
        combined.retain(|&(_, c)| c != 0.0);
        Ok(combined)
    }

    /// Adds `Σ cᵢ·xᵢ ≤ rhs`. Returns the row index.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) -> usize {
        self.add_constraint(terms, Relation::Le, rhs)
    }

    /// Adds `Σ cᵢ·xᵢ ≥ rhs`. Returns the row index.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) -> usize {
        self.add_constraint(terms, Relation::Ge, rhs)
    }

    /// Adds `Σ cᵢ·xᵢ = rhs`. Returns the row index.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) -> usize {
        self.add_constraint(terms, Relation::Eq, rhs)
    }

    /// Changes the right-hand side of an existing constraint row (the
    /// index returned by `add_le`/`add_ge`/`add_eq`/`add_constraint`).
    ///
    /// This is the parametric-programming entry point: the §7 capacity
    /// sweeps re-solve one model at many capacities by mutating only row
    /// right-hand sides (see [`SimplexInstance::set_rhs`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(row < self.rows.len(), "row index out of range");
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.rows[row].rhs = rhs;
    }

    /// Solves the model (a cold two-phase solve).
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] if no point satisfies the constraints.
    /// * [`LpError::Unbounded`] if the objective is unbounded.
    /// * [`LpError::IterationLimit`] / [`LpError::Singular`] on numerical
    ///   failure (not expected for well-scaled inputs).
    pub fn solve(&self) -> Result<Solution, LpError> {
        let prepared = Prepared::from_model(self);
        let start = phase_one(&prepared, REFACTOR_EVERY)?;
        let (sol, _warm) = phase_two(&prepared, start, self.num_vars())?;
        Ok(sol)
    }

    /// Builds a reusable [`SimplexInstance`] from a snapshot of this model
    /// — the entry point of the warm-start layer.
    pub fn instance(&self) -> SimplexInstance {
        SimplexInstance::new(self.clone())
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.objective
    }

    /// The objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.objective[v.0]
    }

    /// Iterates the constraint rows as `(terms, relation, rhs)`, where
    /// terms pair raw column indices with coefficients.
    pub fn constraint_rows(&self) -> impl Iterator<Item = (&[(usize, f64)], Relation, f64)> {
        self.rows
            .iter()
            .map(|r| (r.terms.as_slice(), r.relation, r.rhs))
    }
}

/// Compressed sparse column (CSC) matrix: three flat arrays instead of a
/// `Vec` per column, so ftran/pricing walk contiguous memory and cloning a
/// [`Prepared`] (the per-sweep-point hot path) is three `memcpy`s.
///
/// Entry order within a column is exactly the insertion order of the
/// builder it was frozen from, so arithmetic that iterates a column
/// accumulates in the same order as the historical `Vec<Vec<_>>` layout —
/// pivot paths are bit-for-bit unchanged.
#[derive(Debug, Clone)]
pub(crate) struct Csc {
    /// `col_ptr[j]..col_ptr[j+1]` spans column `j`'s entries; length n+1.
    col_ptr: Vec<usize>,
    /// Constraint row of each entry.
    row_idx: Vec<usize>,
    /// Coefficient of each entry.
    values: Vec<f64>,
}

impl Csc {
    /// Freezes builder columns into flat CSC storage.
    pub(crate) fn from_columns(cols: &[Vec<(usize, f64)>]) -> Self {
        let nnz = cols.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(cols.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in cols {
            for &(row, coeff) in col {
                row_idx.push(row);
                values.push(coeff);
            }
            col_ptr.push(row_idx.len());
        }
        Csc {
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of columns.
    pub(crate) fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Appends one column at the end of the flat storage. Entries are
    /// stored in the order given, matching the accumulation-order contract
    /// of [`Csc::from_columns`].
    pub(crate) fn push_column(&mut self, entries: &[(usize, f64)]) {
        for &(row, coeff) in entries {
            self.row_idx.push(row);
            self.values.push(coeff);
        }
        self.col_ptr.push(self.row_idx.len());
    }

    /// The `(rows, values)` slices of column `j`.
    pub(crate) fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (a, b) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[a..b], &self.values[a..b])
    }

    /// `out[j] = ρᵀ·a_j` for every column, in one streaming pass over the
    /// flat arrays — the dual-simplex pivot row. Per-column accumulation
    /// order matches a per-column `Σ ρ[row]·coeff`, so the results are
    /// bit-identical to column-at-a-time dot products.
    pub(crate) fn gather_dot(&self, rho: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.num_cols());
        for (j, o) in out.iter_mut().enumerate() {
            let (a, b) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let mut acc = 0.0;
            for k in a..b {
                acc += rho[self.row_idx[k]] * self.values[k];
            }
            *o = acc;
        }
    }
}

/// The standard-form image of a [`Model`]:
/// `min c·x  s.t.  A x = b,  x ≥ 0,  b ≥ 0`.
///
/// Construction inserts slack/surplus columns and normalizes row signs.
/// The model's variables are the first columns, in order; the slacks
/// follow, and columns appended by [`Prepared::append_column`] come last.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// Column-major sparse matrix (structural + slack columns).
    pub cols: Csc,
    /// Per standardized row: the slack column usable as a crash-basis
    /// member (a singleton `+1` column), if any. `≤` rows normalized with
    /// positive sign have one; `=` rows and sign-flipped rows do not.
    pub row_slack: Vec<Option<usize>>,
    /// Right-hand side, all entries ≥ 0.
    pub b: Vec<f64>,
    /// Phase-2 costs (minimization), aligned with `cols`.
    pub costs: Vec<f64>,
    /// `true` if the user model was a maximization (costs were negated).
    pub negated: bool,
    /// Standard-form column of each user variable.
    pub var_col: Vec<usize>,
    /// For each user row: standardized row index and sign multiplier applied
    /// (for dual recovery).
    pub row_map: Vec<(usize, f64)>,
}

impl Prepared {
    /// Builds the standard form.
    pub(crate) fn from_model(model: &Model) -> Self {
        let negated = model.sense() == Sense::Maximize;
        let n = model.num_vars();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut costs: Vec<f64> = model
            .objective_coeffs()
            .iter()
            .map(|&c| if negated { -c } else { c })
            .collect();

        let n_rows = model.rows().len();
        let mut b = vec![0.0; n_rows];
        let mut row_map = Vec::with_capacity(n_rows);
        let mut row_slack: Vec<Option<usize>> = Vec::with_capacity(n_rows);

        // Fill user rows.
        for (i, row) in model.rows().iter().enumerate() {
            let mut entries = row.terms.clone();
            // Slack / surplus: base coefficient +1 (≤) or −1 (≥).
            let slack = match row.relation {
                Relation::Le | Relation::Ge => {
                    let s = cols.len();
                    cols.push(Vec::new());
                    costs.push(0.0);
                    let coeff = if row.relation == Relation::Le {
                        1.0
                    } else {
                        -1.0
                    };
                    entries.push((s, coeff));
                    Some((s, coeff))
                }
                Relation::Eq => None,
            };
            // Normalize to b ≥ 0.
            let sign = if row.rhs < 0.0 { -1.0 } else { 1.0 };
            b[i] = row.rhs * sign;
            for (col, coeff) in entries {
                cols[col].push((i, coeff * sign));
            }
            // The slack is a crash-basis candidate iff its final
            // coefficient is +1 (basic value = b_i ≥ 0 stays feasible).
            row_slack.push(slack.and_then(|(s, coeff)| (coeff * sign == 1.0).then_some(s)));
            row_map.push((i, sign));
        }

        Prepared {
            cols: Csc::from_columns(&cols),
            row_slack,
            b,
            costs,
            negated,
            var_col: (0..n).collect(),
            row_map,
        }
    }

    /// Appends the standard-form column of one new user variable with
    /// objective `obj` and canonicalized user-row `terms` (from
    /// [`Model::combine_column_terms`]): entries map through the frozen
    /// row-sign normalization, and the rhs vector is untouched. Returns the
    /// new standard-form column index.
    pub(crate) fn append_column(&mut self, obj: f64, terms: &[(usize, f64)]) -> usize {
        let col = self.cols.num_cols();
        let mut entries: Vec<(usize, f64)> = terms
            .iter()
            .map(|&(row, coeff)| {
                let (i, sign) = self.row_map[row];
                (i, coeff * sign)
            })
            .collect();
        entries.sort_by_key(|&(i, _)| i);
        self.cols.push_column(&entries);
        self.costs.push(if self.negated { -obj } else { obj });
        self.var_col.push(col);
        col
    }

    /// Re-derives the standardized right-hand side of one user row from the
    /// model's current rhs, keeping the column layout and the row-sign
    /// normalization frozen at construction time. A rhs crossing zero may
    /// therefore leave `b[row] < 0`; the solver paths accept that (signed
    /// artificials cold, dual simplex warm).
    pub(crate) fn refresh_row_rhs(&mut self, model: &Model, row: usize) {
        let (i, sign) = self.row_map[row];
        self.b[i] = model.rows()[row].rhs * sign;
    }

    /// Re-derives the standard-form cost vector from the model's current
    /// objective coefficients, keeping the column layout frozen. Slack and
    /// surplus costs stay zero. After calling it the old basis is still
    /// primal feasible but its reduced costs are stale, so callers must
    /// drop any cached pricing state and re-solve via the primal path.
    pub(crate) fn refresh_objective(&mut self, model: &Model) {
        for (&col, &c) in self.var_col.iter().zip(model.objective_coeffs()) {
            self.costs[col] = if self.negated { -c } else { c };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_constraint_combines_duplicates() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_le(&[(x, 1.0), (x, 2.0)], 6.0);
        assert_eq!(m.rows()[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn add_constraint_drops_zero_coeffs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_le(&[(x, 1.0), (y, 0.0)], 1.0);
        assert_eq!(m.rows()[0].terms.len(), 1);
    }

    #[test]
    fn add_column_appends_var_and_row_terms_sorted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let r0 = m.add_ge(&[(x, 1.0)], 2.0);
        let r1 = m.add_le(&[(x, 1.0)], 5.0);
        let z = m
            .add_column(0.5, &[(r1, 2.0), (r0, 1.0), (r0, 0.5)])
            .unwrap();
        assert_eq!(z.index(), 1);
        assert_eq!(m.objective_coeff(z), 0.5);
        // Duplicates summed, terms still sorted by variable index.
        assert_eq!(m.rows()[r0].terms, vec![(0, 1.0), (1, 1.5)]);
        assert_eq!(m.rows()[r1].terms, vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn add_column_rejects_bad_inputs_without_mutating() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let r = m.add_ge(&[(x, 1.0)], 1.0);
        assert!(matches!(
            m.add_column(f64::INFINITY, &[(r, 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.add_column(1.0, &[(r + 1, 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.add_column(1.0, &[(r, f64::NAN)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert_eq!(m.num_vars(), 1);
        assert_eq!(m.rows()[r].terms.len(), 1);
    }

    #[test]
    fn csc_push_column_extends_flat_storage() {
        let mut csc = Csc::from_columns(&[vec![(0, 1.0)], vec![(1, 2.0)]]);
        csc.push_column(&[(0, -1.0), (2, 3.0)]);
        assert_eq!(csc.num_cols(), 3);
        assert_eq!(csc.col(0), (&[0usize][..], &[1.0][..]));
        assert_eq!(csc.col(2), (&[0usize, 2][..], &[-1.0, 3.0][..]));
    }

    #[test]
    fn append_column_maps_through_row_signs() {
        // Row `x ≤ -1` (x ≥ 0) has negative rhs, so it normalizes with
        // sign −1; an appended column's coefficient must flip with it.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let r = m.add_le(&[(x, 1.0)], -1.0);
        let mut p = Prepared::from_model(&m);
        assert_eq!(p.row_map[r], (0, -1.0));
        let col = p.append_column(2.0, &[(r, 3.0)]);
        assert_eq!(p.cols.col(col), (&[0usize][..], &[-3.0][..]));
        assert_eq!(p.costs[col], 2.0);
        // Behind the structural column and the row's slack.
        assert_eq!(p.var_col, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_variable_panics() {
        let mut m1 = Model::new(Sense::Minimize);
        let _x = m1.add_var(1.0);
        let mut m2 = Model::new(Sense::Minimize);
        let y = VarId(5);
        m2.add_le(&[(y, 1.0)], 1.0);
    }

    #[test]
    fn prepared_adds_upper_bound_rows() {
        // An upper bound is a constraint (`x ≤ 5`) with its own slack: one
        // row, two columns.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let r = m.add_le(&[(x, 1.0)], 5.0);
        let p = Prepared::from_model(&m);
        assert_eq!(p.b, vec![5.0]);
        assert_eq!(p.row_map[r], (0, 1.0));
        assert_eq!(p.cols.num_cols(), 2);
        assert_eq!(p.cols.col(1), (&[0usize][..], &[1.0][..]));
        assert_eq!(p.row_slack, vec![Some(1)]);
    }

    #[test]
    fn prepared_negates_for_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_var(3.0);
        let p = Prepared::from_model(&m);
        assert_eq!(p.costs[0], -3.0);
        assert!(p.negated);
    }

    #[test]
    fn prepared_normalizes_negative_rhs() {
        // -x ≤ -4 normalizes to x - s = 4: b = 4, the row sign −1, and the
        // slack no longer a crash-basis member.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_le(&[(x, -1.0)], -4.0);
        let p = Prepared::from_model(&m);
        assert_eq!(p.b[0], 4.0);
        assert_eq!(p.row_map[0], (0, -1.0));
        assert_eq!(p.cols.col(0), (&[0usize][..], &[1.0][..]));
        assert_eq!(p.row_slack, vec![None]);
    }

    #[test]
    fn csc_roundtrips_builder_columns() {
        let cols = vec![vec![(0, 1.0), (2, -3.0)], vec![], vec![(1, 2.0)]];
        let csc = Csc::from_columns(&cols);
        assert_eq!(csc.num_cols(), 3);
        assert_eq!(csc.col(0), (&[0usize, 2][..], &[1.0, -3.0][..]));
        assert_eq!(csc.col(1), (&[][..], &[][..]));
        assert_eq!(csc.col(2), (&[1usize][..], &[2.0][..]));
    }

    #[test]
    #[should_panic(expected = "objective coefficient must be finite")]
    fn add_var_rejects_nonfinite_objective() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var(f64::NAN);
    }

    #[test]
    fn refresh_objective_handles_split_and_maximize() {
        // A free variable written as the pair x⁺ − x⁻, a column appended
        // since, and a slack whose cost stays zero.
        let mut m = Model::new(Sense::Maximize);
        let pos = m.add_var(3.0);
        let neg = m.add_var(-3.0);
        let r = m.add_le(&[(pos, 1.0), (neg, -1.0)], 4.0);
        let mut p = Prepared::from_model(&m);
        let z = m.add_column(2.0, &[(r, 1.0)]).unwrap();
        p.append_column(2.0, &[(r, 1.0)]);
        assert_eq!(p.costs, vec![-3.0, 3.0, 0.0, -2.0]);
        m.set_objective(pos, -1.5);
        m.set_objective(neg, 1.5);
        m.set_objective(z, 4.0);
        p.refresh_objective(&m);
        assert_eq!(p.costs, vec![1.5, -1.5, 0.0, -4.0]);
    }
}
