//! The LP modeling layer: variables, constraints, objective.

use std::fmt;

use crate::simplex::solve_two_phase;
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

/// A linear program under construction.
///
/// Variables carry their bounds and objective coefficient; constraints are
/// added as term lists. Call [`Model::solve`] to run the simplex solver.
///
/// # Examples
///
/// Minimize `x + 2y` with `x + y ≥ 3`, `y ≤ 2`:
///
/// ```
/// use qp_lp::{Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
/// let y = m.add_var("y", 0.0, 2.0, 2.0);
/// m.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
/// let sol = m.solve()?;
/// assert!((sol.objective() - 3.0).abs() < 1e-7); // x = 3, y = 0
/// # Ok::<(), qp_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    names: Vec<String>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            names: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            objective: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Adds a decision variable with bounds `[lower, upper]` and the given
    /// objective coefficient. Use `f64::NEG_INFINITY` / `f64::INFINITY` for
    /// free sides.
    ///
    /// The *finiteness pattern* of the bounds given here (which sides are
    /// finite) is what a later [`Model::instance`] freezes into its
    /// standard form: [`crate::SimplexInstance::set_var_bounds`] may move
    /// finite bounds to new finite values but rejects any call that makes
    /// a finite side infinite or vice versa. On a plain [`Model`] (no
    /// instance built yet) [`Model::set_var_bounds`] may still change the
    /// pattern freely.
    ///
    /// # Panics
    ///
    /// Panics if a bound is NaN, the objective coefficient is not finite, or
    /// `lower > upper`. Use [`Model::try_add_var`] for a non-panicking
    /// variant returning a structured [`LpError`].
    pub fn add_var(&mut self, name: &str, lower: f64, upper: f64, obj: f64) -> VarId {
        match self.try_add_var(name, lower, upper, obj) {
            Ok(id) => id,
            Err(LpError::InvalidModel { reason }) => panic!("{reason}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Model::add_var`]: NaN bounds, a non-finite
    /// objective coefficient, or crossing bounds (`lower > upper`) return
    /// [`LpError::InvalidModel`] instead of panicking. On error the model
    /// is unchanged.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] as described above.
    pub fn try_add_var(
        &mut self,
        name: &str,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> Result<VarId, LpError> {
        if lower.is_nan() || upper.is_nan() {
            return Err(LpError::InvalidModel {
                reason: format!("NaN bound for {name}"),
            });
        }
        if !obj.is_finite() {
            return Err(LpError::InvalidModel {
                reason: format!("objective coefficient for {name} must be finite"),
            });
        }
        if lower > upper {
            return Err(LpError::InvalidModel {
                reason: format!("lower bound {lower} exceeds upper bound {upper} for {name}"),
            });
        }
        let id = VarId(self.names.len());
        self.names.push(name.to_string());
        self.lower.push(lower);
        self.upper.push(upper);
        self.objective.push(obj);
        Ok(id)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.names.len()
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
        assert!(v.0 < self.names.len(), "variable out of range");
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
            assert!(v.0 < self.names.len(), "variable {v} out of range");
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

    /// Adds a new nonnegative variable *column-wise*: bounds `[0, +∞)`,
    /// objective coefficient `obj`, and coefficient `c` in each existing
    /// constraint row listed in `terms` as `(row_index, c)`. Rows not
    /// listed are untouched; duplicate row entries are summed and zero
    /// coefficients dropped.
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
    pub fn add_column(
        &mut self,
        name: &str,
        obj: f64,
        terms: &[(usize, f64)],
    ) -> Result<VarId, LpError> {
        let combined = self.combine_column_terms(terms)?;
        if !obj.is_finite() {
            return Err(LpError::InvalidModel {
                reason: format!("objective coefficient for {name} must be finite"),
            });
        }
        let id = VarId(self.names.len());
        self.names.push(name.to_string());
        self.lower.push(0.0);
        self.upper.push(f64::INFINITY);
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

    /// Replaces the bounds of an existing variable.
    ///
    /// On a plain `Model` any new bounds are accepted (the standard form
    /// is rebuilt from scratch at the next solve). Once the model has been
    /// frozen into a [`crate::SimplexInstance`], bound updates must go
    /// through [`crate::SimplexInstance::set_var_bounds`], which enforces
    /// that the finiteness pattern chosen at [`Model::add_var`] time is
    /// preserved and returns [`crate::LpError::InvalidModel`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, a bound is NaN, or `lower > upper`.
    pub fn set_var_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        assert!(v.0 < self.names.len(), "variable out of range");
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        assert!(
            lower <= upper,
            "lower bound {lower} exceeds upper bound {upper}"
        );
        self.lower[v.0] = lower;
        self.upper[v.0] = upper;
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
        let prepared = Prepared::from_model(self)?;
        let (sol, _warm) = solve_two_phase(&prepared, &prepared.b, self.num_vars())?;
        Ok(sol)
    }

    /// Builds a reusable [`SimplexInstance`] from a snapshot of this model
    /// — the entry point of the warm-start layer.
    ///
    /// # Errors
    ///
    /// Propagates standard-form construction failures.
    pub fn instance(&self) -> Result<SimplexInstance, LpError> {
        SimplexInstance::new(self.clone())
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lower, &self.upper)
    }

    /// The name given to a variable at creation.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }

    /// The objective coefficient of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn objective_coeff(&self, v: VarId) -> f64 {
        self.objective[v.0]
    }

    /// The `[lower, upper]` bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.lower[v.0], self.upper[v.0])
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
/// `min c·x  s.t.  A x = b,  0 ≤ x ≤ u,  b ≥ 0` (`u_j = +∞` for columns
/// without a finite upper bound).
///
/// Construction performs, in order: free-variable splitting, lower-bound
/// shifting, upper bounds kept as column bounds, slack/surplus insertion,
/// and row sign normalization. The mapping back to user variables is
/// retained.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// Column-major sparse matrix (structural + slack columns).
    pub cols: Csc,
    /// Per standardized row: the slack column usable as a crash-basis
    /// member (a singleton `+1` column), if any. `≤` rows normalized with
    /// positive sign have one; `=` rows and sign-flipped rows do not.
    pub row_slack: Vec<Option<usize>>,
    /// Per-column upper bound in standard form (`+∞` when unbounded),
    /// handled in-solver by the bounded-variable ratio test.
    pub upper: Vec<f64>,
    /// Right-hand side, all entries ≥ 0.
    pub b: Vec<f64>,
    /// Phase-2 costs (minimization), aligned with `cols`.
    pub costs: Vec<f64>,
    /// Constant added to the phase-2 objective by bound shifts.
    pub obj_offset: f64,
    /// `true` if the user model was a maximization (costs were negated).
    pub negated: bool,
    /// For each user variable: how to recover its value.
    pub recover: Vec<Recover>,
    /// For each user row: standardized row index and sign multiplier applied
    /// (for dual recovery).
    pub row_map: Vec<(usize, f64)>,
    /// Per user row: whether any of its terms touches a variable with a
    /// nonzero bound shift. Shift-free rows (the common case for the
    /// `x ≥ 0` models the sweeps build) standardize a new rhs in O(1).
    pub row_has_shift: Vec<bool>,
}

/// Recipe to recover the value of one user variable from standard-form
/// column values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Recover {
    /// `x = sign · col[j] + shift` (`sign` is −1 for variables substituted
    /// as `x = hi − x″`, +1 otherwise)
    Shifted { col: usize, shift: f64, sign: f64 },
    /// `x = col[pos] - col[neg]` (free variable split)
    Split { pos: usize, neg: usize },
}

impl Recover {
    /// Recovers the user-variable value from standard-form column values.
    pub(crate) fn value(&self, col_values: &[f64]) -> f64 {
        match *self {
            Recover::Shifted { col, shift, sign } => sign * col_values[col] + shift,
            Recover::Split { pos, neg } => col_values[pos] - col_values[neg],
        }
    }

    /// The bound shift applied to the variable's column(s) (0 for splits).
    fn shift(&self) -> f64 {
        match *self {
            Recover::Shifted { shift, .. } => shift,
            Recover::Split { .. } => 0.0,
        }
    }
}

impl Prepared {
    /// Builds the standard form. Finite user upper bounds become
    /// per-column bounds consumed by the bounded-variable simplex.
    pub(crate) fn from_model(model: &Model) -> Result<Self, LpError> {
        let (lower, upper) = model.bounds();
        let user_obj = model.objective_coeffs();
        let negated = model.sense() == Sense::Maximize;

        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut col_upper: Vec<f64> = Vec::new();
        let mut costs: Vec<f64> = Vec::new();
        let mut recover = Vec::with_capacity(lower.len());
        let mut obj_offset = 0.0;

        for j in 0..lower.len() {
            let c = if negated { -user_obj[j] } else { user_obj[j] };
            let (lo, hi) = (lower[j], upper[j]);
            if lo.is_finite() {
                // x = x' + lo, 0 ≤ x' ≤ hi − lo (+∞ stays +∞)
                let col = cols.len();
                cols.push(Vec::new());
                col_upper.push(hi - lo);
                costs.push(c);
                obj_offset += c * lo;
                recover.push(Recover::Shifted {
                    col,
                    shift: lo,
                    sign: 1.0,
                });
            } else if hi.is_finite() {
                // x ≤ hi, unbounded below: substitute x = hi - x'', x'' ≥ 0.
                let col = cols.len();
                cols.push(Vec::new());
                col_upper.push(f64::INFINITY);
                costs.push(-c);
                obj_offset += c * hi;
                recover.push(Recover::Shifted {
                    col,
                    shift: hi,
                    sign: -1.0,
                });
            } else {
                // Free variable: x = x⁺ - x⁻.
                let pos = cols.len();
                cols.push(Vec::new());
                col_upper.push(f64::INFINITY);
                costs.push(c);
                let neg = cols.len();
                cols.push(Vec::new());
                col_upper.push(f64::INFINITY);
                costs.push(-c);
                recover.push(Recover::Split { pos, neg });
            }
        }

        let n_rows = model.rows().len();
        let mut b = vec![0.0; n_rows];
        let mut row_map = Vec::with_capacity(n_rows);
        let mut row_slack: Vec<Option<usize>> = Vec::with_capacity(n_rows);

        // Fill user rows.
        for (i, row) in model.rows().iter().enumerate() {
            let mut rhs = row.rhs;
            let mut entries: Vec<(usize, f64)> = Vec::with_capacity(row.terms.len() + 1);
            for &(user_j, coeff) in &row.terms {
                match recover[user_j] {
                    Recover::Shifted { col, shift, sign } => {
                        rhs -= coeff * shift;
                        entries.push((col, coeff * sign));
                    }
                    Recover::Split { pos, neg } => {
                        entries.push((pos, coeff));
                        entries.push((neg, -coeff));
                    }
                }
            }
            // Slack / surplus: base coefficient +1 (≤) or −1 (≥).
            let slack = match row.relation {
                Relation::Le | Relation::Ge => {
                    let s = cols.len();
                    cols.push(Vec::new());
                    col_upper.push(f64::INFINITY);
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
            let sign = if rhs < 0.0 { -1.0 } else { 1.0 };
            b[i] = rhs * sign;
            for (col, coeff) in entries {
                cols[col].push((i, coeff * sign));
            }
            // The slack is a crash-basis candidate iff its final
            // coefficient is +1 (basic value = b_i ≥ 0 stays feasible).
            row_slack.push(slack.and_then(|(s, coeff)| (coeff * sign == 1.0).then_some(s)));
            row_map.push((i, sign));
        }

        let row_has_shift = model
            .rows()
            .iter()
            .map(|r| {
                r.terms
                    .iter()
                    .any(|&(user_j, _)| recover[user_j].shift() != 0.0)
            })
            .collect();

        Ok(Prepared {
            cols: Csc::from_columns(&cols),
            row_slack,
            upper: col_upper,
            b,
            costs,
            obj_offset,
            negated,
            recover,
            row_map,
            row_has_shift,
        })
    }

    /// Appends the standard-form image of one new `[0, +∞)` user variable
    /// with objective `obj` and canonicalized user-row `terms` (from
    /// [`Model::combine_column_terms`]). With zero bound shift the column
    /// is its own standard form: entries map through the frozen row-sign
    /// normalization, the rhs vector and objective offset are untouched,
    /// and no column upper bound is needed. Returns the new standard-form
    /// column index.
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
        self.upper.push(f64::INFINITY);
        self.costs.push(if self.negated { -obj } else { obj });
        self.recover.push(Recover::Shifted {
            col,
            shift: 0.0,
            sign: 1.0,
        });
        col
    }

    /// Standardizes a prospective rhs value for user row `row` (terms from
    /// `model`, shifts from this standard form) without touching any
    /// state: returns `(standardized_row_index, value)`. Exactly the
    /// arithmetic of [`Prepared::refresh_row_rhs`]: rows without shifted
    /// variables skip the term walk entirely (subtracting an exact `0.0`
    /// per term is the identity).
    pub(crate) fn standardized_rhs(&self, model: &Model, row: usize, rhs: f64) -> (usize, f64) {
        let (i, sign) = self.row_map[row];
        if !self.row_has_shift[row] {
            return (i, rhs * sign);
        }
        let r = &model.rows()[row];
        let mut v = rhs;
        for &(user_j, coeff) in &r.terms {
            v -= coeff * self.recover[user_j].shift();
        }
        (i, v * sign)
    }

    /// Re-derives the standardized right-hand side of one user row from the
    /// model's current rhs, keeping the column layout and the row-sign
    /// normalization frozen at construction time. A rhs crossing zero may
    /// therefore leave `b[row] < 0`; the solver paths accept that (signed
    /// artificials cold, dual simplex warm).
    pub(crate) fn refresh_row_rhs(&mut self, model: &Model, row: usize) {
        let (i, v) = self.standardized_rhs(model, row, model.rows()[row].rhs);
        self.b[i] = v;
    }

    /// Re-derives shifts, the objective offset, column upper bounds, and
    /// the whole standardized rhs vector from the model's current bounds
    /// and row right-hand sides. The *pattern* of each variable's bounds
    /// (which sides are finite) must be unchanged since construction;
    /// callers enforce this.
    pub(crate) fn refresh_bounds(&mut self, model: &Model) {
        let (lower, upper) = model.bounds();
        for j in 0..lower.len() {
            if let Recover::Shifted { sign, shift, col } = &mut self.recover[j] {
                *shift = if *sign >= 0.0 { lower[j] } else { upper[j] };
                if *sign >= 0.0 && upper[j].is_finite() {
                    self.upper[*col] = upper[j] - lower[j];
                }
            }
        }
        self.obj_offset = self
            .recover
            .iter()
            .map(|rec| match *rec {
                Recover::Shifted { col, shift, sign } => sign * self.costs[col] * shift,
                Recover::Split { .. } => 0.0,
            })
            .sum();
        // Bound moves change which rows see a shifted variable.
        let recover = &self.recover;
        for (flag, r) in self.row_has_shift.iter_mut().zip(model.rows()) {
            *flag = r
                .terms
                .iter()
                .any(|&(user_j, _)| recover[user_j].shift() != 0.0);
        }
        for row in 0..model.rows().len() {
            self.refresh_row_rhs(model, row);
        }
    }

    /// Re-derives the standard-form cost vector and objective offset from
    /// the model's current objective coefficients, keeping the column
    /// layout frozen. Slack/surplus costs stay zero; only structural
    /// columns are rewritten. This is the
    /// objective half of the warm-start refresh: after calling it the old
    /// basis is still primal feasible but its reduced costs are stale, so
    /// callers must drop any cached pricing state and re-solve via the
    /// primal path.
    pub(crate) fn refresh_objective(&mut self, model: &Model) {
        let user_obj = model.objective_coeffs();
        for (j, rec) in self.recover.iter().enumerate() {
            let c = if self.negated {
                -user_obj[j]
            } else {
                user_obj[j]
            };
            match *rec {
                Recover::Shifted { col, sign, .. } => {
                    self.costs[col] = if sign >= 0.0 { c } else { -c };
                }
                Recover::Split { pos, neg } => {
                    self.costs[pos] = c;
                    self.costs[neg] = -c;
                }
            }
        }
        self.obj_offset = self
            .recover
            .iter()
            .map(|rec| match *rec {
                Recover::Shifted { col, shift, sign } => sign * self.costs[col] * shift,
                Recover::Split { .. } => 0.0,
            })
            .sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_constraint_combines_duplicates() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_le(&[(x, 1.0), (x, 2.0)], 6.0);
        assert_eq!(m.rows()[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    fn add_constraint_drops_zero_coeffs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_le(&[(x, 1.0), (y, 0.0)], 1.0);
        assert_eq!(m.rows()[0].terms.len(), 1);
    }

    #[test]
    fn add_column_appends_var_and_row_terms_sorted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r0 = m.add_ge(&[(x, 1.0)], 2.0);
        let r1 = m.add_le(&[(x, 1.0)], 5.0);
        let z = m
            .add_column("z", 0.5, &[(r1, 2.0), (r0, 1.0), (r0, 0.5)])
            .unwrap();
        assert_eq!(z.index(), 1);
        assert_eq!(m.var_bounds(z), (0.0, f64::INFINITY));
        assert_eq!(m.objective_coeff(z), 0.5);
        // Duplicates summed, terms still sorted by variable index.
        assert_eq!(m.rows()[r0].terms, vec![(0, 1.0), (1, 1.5)]);
        assert_eq!(m.rows()[r1].terms, vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn add_column_rejects_bad_inputs_without_mutating() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r = m.add_ge(&[(x, 1.0)], 1.0);
        assert!(matches!(
            m.add_column("z", f64::INFINITY, &[(r, 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.add_column("z", 1.0, &[(r + 1, 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.add_column("z", 1.0, &[(r, f64::NAN)]),
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
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r = m.add_le(&[(x, 1.0)], -1.0);
        let mut p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.row_map[r], (0, -1.0));
        let col = p.append_column(2.0, &[(r, 3.0)]);
        assert_eq!(p.cols.col(col), (&[0usize][..], &[-3.0][..]));
        assert_eq!(p.costs[col], 2.0);
        assert_eq!(p.upper[col], f64::INFINITY);
        assert!(matches!(
            *p.recover.last().unwrap(),
            Recover::Shifted { shift, sign, col: c } if shift == 0.0 && sign == 1.0 && c == col
        ));
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn add_var_rejects_crossed_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", 2.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_variable_panics() {
        let mut m1 = Model::new(Sense::Minimize);
        let _x = m1.add_var("x", 0.0, 1.0, 1.0);
        let mut m2 = Model::new(Sense::Minimize);
        let y = VarId(5);
        m2.add_le(&[(y, 1.0)], 1.0);
    }

    #[test]
    fn prepared_shifts_lower_bounds() {
        // min x, x ≥ 2 (lower bound) → offset 2, column cost 1.
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", 2.0, f64::INFINITY, 1.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.obj_offset, 2.0);
        assert_eq!(p.costs, vec![1.0]);
    }

    #[test]
    fn prepared_splits_free_vars() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.costs, vec![1.0, -1.0]);
        assert!(matches!(p.recover[0], Recover::Split { .. }));
    }

    #[test]
    fn prepared_native_bounds_skip_upper_rows() {
        // A finite upper bound stays on its column: the model has zero
        // rows and a column bound of 5, not a bound row plus its slack.
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", 0.0, 5.0, 1.0);
        let p = Prepared::from_model(&m).unwrap();
        assert!(p.b.is_empty());
        assert_eq!(p.upper, vec![5.0]);
        assert_eq!(p.cols.num_cols(), 1);
    }

    #[test]
    fn prepared_adds_upper_bound_rows() {
        // An upper bound the caller writes as a constraint (`x ≤ 5` on an
        // unbounded column) is kept as a row with its own slack: one row,
        // two columns, and no column bound on either.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r = m.add_le(&[(x, 1.0)], 5.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.b, vec![5.0]);
        assert_eq!(p.row_map[r], (0, 1.0));
        assert_eq!(p.upper, vec![f64::INFINITY, f64::INFINITY]);
        assert_eq!(p.cols.num_cols(), 2);
        assert_eq!(p.cols.col(1), (&[0usize][..], &[1.0][..]));
        assert_eq!(p.row_slack, vec![Some(1)]);
    }

    #[test]
    fn prepared_native_bound_is_shift_relative() {
        // 2 ≤ x ≤ 7 → column x' = x - 2 with native bound 5.
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", 2.0, 7.0, 1.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.upper, vec![5.0]);
        assert_eq!(p.obj_offset, 2.0);
    }

    #[test]
    fn prepared_negates_for_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_var("x", 0.0, 1.0, 3.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.costs[0], -3.0);
        assert!(p.negated);
    }

    #[test]
    fn prepared_normalizes_negative_rhs() {
        // x ≤ -1 with x ≥ -5: shift x = x' - 5 → x' - 5 ≤ -1 → x' ≤ 4.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, f64::INFINITY, 1.0);
        m.add_le(&[(x, 1.0)], -1.0);
        let p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.b[0], 4.0);
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
    fn try_add_var_rejects_bad_inputs_without_mutating() {
        let mut m = Model::new(Sense::Minimize);
        assert!(matches!(
            m.try_add_var("x", f64::NAN, 1.0, 0.0),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.try_add_var("x", 0.0, f64::NAN, 0.0),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.try_add_var("x", 2.0, 1.0, 0.0),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.try_add_var("x", 0.0, 1.0, f64::INFINITY),
            Err(LpError::InvalidModel { .. })
        ));
        assert_eq!(m.num_vars(), 0);
        assert!(m.try_add_var("x", 0.0, 1.0, 1.0).is_ok());
        assert_eq!(m.num_vars(), 1);
    }

    #[test]
    #[should_panic(expected = "NaN bound")]
    fn add_var_rejects_nan_bound() {
        let mut m = Model::new(Sense::Minimize);
        let _ = m.add_var("x", f64::NAN, 1.0, 0.0);
    }

    #[test]
    fn refresh_objective_rewrites_costs_and_offset() {
        // min 3x + y with 2 ≤ x (shifted, sign +1), y ≤ 4 (shifted, sign −1).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 2.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", f64::NEG_INFINITY, 4.0, 1.0);
        let mut p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.costs, vec![3.0, -1.0]);
        assert_eq!(p.obj_offset, 3.0 * 2.0 + 1.0 * 4.0);
        m.set_objective(x, 5.0);
        m.set_objective(y, -2.0);
        p.refresh_objective(&m);
        assert_eq!(p.costs, vec![5.0, 2.0]);
        assert_eq!(p.obj_offset, 5.0 * 2.0 + (-2.0) * 4.0);
    }

    #[test]
    fn refresh_objective_handles_split_and_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 3.0);
        let mut p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.costs, vec![-3.0, 3.0]);
        m.set_objective(x, -1.5);
        p.refresh_objective(&m);
        assert_eq!(p.costs, vec![1.5, -1.5]);
        assert_eq!(p.obj_offset, 0.0);
    }

    #[test]
    fn refresh_bounds_updates_native_upper() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, 4.0, 1.0);
        let mut p = Prepared::from_model(&m).unwrap();
        assert_eq!(p.upper, vec![3.0]);
        m.set_var_bounds(x, 0.5, 6.0);
        p.refresh_bounds(&m);
        assert_eq!(p.upper, vec![5.5]);
        assert_eq!(p.obj_offset, 0.5);
    }
}
