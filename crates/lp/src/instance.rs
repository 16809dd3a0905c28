//! Warm-started parametric re-solving: [`SimplexInstance`].
//!
//! A `SimplexInstance` freezes one model's standard form (column layout,
//! costs, row-sign normalization) and lets callers mutate right-hand sides
//! and variable bounds *in place*, then [`SimplexInstance::resolve`] from
//! the previous optimal basis with the dual simplex instead of re-running
//! both phases from scratch. This is the classical parametric-LP
//! answer to the §7 capacity sweeps: hundreds of LPs sharing one
//! constraint matrix and differing only in capacity rhs values.
//!
//! Sweep drivers share one solved base instance across parallel jobs via
//! [`SimplexInstance::resolve_with_rhs`], a non-mutating warm re-solve
//! (per-point cost: one rhs vector); each job is a pure function of its
//! input, so results stay bit-identical at any thread count. Instances
//! are also `Clone` for callers that want to mutate diverging copies.

use crate::model::Prepared;
use crate::simplex::{
    prime_warm, resolve_dual, resolve_primal, solve_two_phase, DualOutcome, PrimalOutcome,
    WarmStart,
};
use crate::{LpError, Model, Solution, VarId};

/// A reusable solver bound to one [`Model`] snapshot.
///
/// Mutators ([`set_rhs`](Self::set_rhs),
/// [`set_var_bounds`](Self::set_var_bounds)) keep the frozen standard form
/// in sync; [`solve`](Self::solve) runs a cold two-phase solve and
/// [`resolve`](Self::resolve) reoptimizes warm from the last optimal
/// basis. Changing bounds or right-hand sides never disturbs dual
/// feasibility (costs are untouched), so `resolve` after any sequence of
/// such mutations is exact, not approximate; it falls back to a cold solve
/// on numerical trouble, so it is never *less* reliable than `solve`.
///
/// # Examples
///
/// ```
/// use qp_lp::{Model, Sense};
///
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
/// let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
/// let demand = m.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
/// let mut inst = m.instance()?;
/// let cold = inst.solve()?;
/// assert!((cold.objective() - 8.0).abs() < 1e-7);
///
/// inst.set_rhs(demand, 10.0); // re-solve at a new demand, warm
/// let warm = inst.resolve()?;
/// assert!((warm.objective() - 20.0).abs() < 1e-7);
/// assert!(warm.stats().warm);
/// # Ok::<(), qp_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimplexInstance {
    model: Model,
    prepared: Prepared,
    /// Optimal (dual-feasible) warm-start point — basis plus the
    /// nonbasic-at-upper-bound flags — of the last successful solve.
    warm: Option<WarmStart>,
    /// Set by [`SimplexInstance::set_objective`]: the frozen costs changed
    /// since the warm point was recorded, so its reduced costs are stale
    /// and dual-simplex warm starts are unsound until the next primal (or
    /// cold) re-solve clears the flag.
    costs_dirty: bool,
}

impl SimplexInstance {
    /// Builds an instance owning `model`, performing the standard-form
    /// conversion once.
    ///
    /// # Errors
    ///
    /// Propagates standard-form construction failures.
    pub fn new(model: Model) -> Result<Self, LpError> {
        let prepared = Prepared::from_model(&model)?;
        Ok(SimplexInstance {
            model,
            prepared,
            warm: None,
            costs_dirty: false,
        })
    }

    /// The model snapshot this instance solves (reflecting any mutations
    /// applied through the instance).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Changes the right-hand side of constraint `row` (a row index from
    /// the model's `add_*` methods). The warm basis stays valid: rhs
    /// changes never affect dual feasibility.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.model.set_rhs(row, rhs);
        self.prepared.refresh_row_rhs(&self.model, row);
    }

    /// Changes the bounds of variable `v`. The finiteness *pattern* of the
    /// bounds must match the original ones (finite stays finite, infinite
    /// stays infinite): the pattern determines the standard-form column
    /// layout, which is frozen at construction.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if a bound is NaN, `lower > upper`, or
    /// the finiteness pattern changes. The instance is unchanged on error —
    /// long-lived callers (sweep drivers, the placement daemon) can reject
    /// a bad delta and keep re-solving, where a panic or a silently
    /// poisoned standard form would take the whole session down.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_var_bounds(&mut self, v: VarId, lower: f64, upper: f64) -> Result<(), LpError> {
        if lower.is_nan() || upper.is_nan() {
            return Err(LpError::InvalidModel {
                reason: format!("NaN bound for {v}"),
            });
        }
        if lower > upper {
            return Err(LpError::InvalidModel {
                reason: format!("lower bound {lower} exceeds upper bound {upper} for {v}"),
            });
        }
        let (old_lo, old_hi) = self.model.var_bounds(v);
        if old_lo.is_finite() != lower.is_finite() || old_hi.is_finite() != upper.is_finite() {
            return Err(LpError::InvalidModel {
                reason: format!(
                    "bound pattern of {v} changed: [{old_lo}, {old_hi}] -> [{lower}, {upper}] \
                     (finite/infinite sides are frozen at instance construction)"
                ),
            });
        }
        self.model.set_var_bounds(v, lower, upper);
        self.prepared.refresh_bounds(&self.model);
        Ok(())
    }

    /// Changes the objective coefficient of variable `v` — the parametric
    /// entry point for *objective-side* deltas (RTT drift rescaling the
    /// per-flow delay coefficients, demand-weight changes folded into
    /// costs). The frozen standard-form cost vector is refreshed in place;
    /// the warm basis stays primal feasible but its reduced costs (and any
    /// cached pricing state) are invalidated, so the next
    /// [`resolve`](Self::resolve) reoptimizes with the *primal* simplex
    /// from the old basis instead of the dual.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if `obj` is not finite. The instance is
    /// unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn set_objective(&mut self, v: VarId, obj: f64) -> Result<(), LpError> {
        if !obj.is_finite() {
            return Err(LpError::InvalidModel {
                reason: format!("objective coefficient for {v} must be finite"),
            });
        }
        if self.model.objective_coeff(v) == obj {
            return Ok(());
        }
        self.model.set_objective(v, obj);
        self.prepared.refresh_objective(&self.model);
        if let Some(w) = &mut self.warm {
            // The cached reduced costs were computed under the old costs.
            w.cache = None;
        }
        self.costs_dirty = true;
        Ok(())
    }

    /// Adds a new nonnegative variable *column-wise* (see
    /// [`Model::add_column`]) and extends the frozen standard form in
    /// place — no rebuild, no refactorization of untouched state. This is
    /// the column-generation hot path: the pricing oracle appends each
    /// profitable column here and the next [`resolve`](Self::resolve)
    /// reoptimizes with the *primal* simplex from the old basis, which
    /// stays primal feasible (the new column enters at value 0) but not
    /// dual feasible (the column was generated precisely because its
    /// reduced cost is negative).
    ///
    /// If the warm basis still contains artificial columns it is dropped
    /// entirely: artificial indices are encoded past the structural column
    /// count, so keeping them across an append would alias the new column.
    ///
    /// # Errors
    ///
    /// [`LpError::InvalidModel`] if `obj` or a coefficient is not finite
    /// or a row index is out of range. The instance is unchanged on error.
    pub fn add_column(
        &mut self,
        name: &str,
        obj: f64,
        terms: &[(usize, f64)],
    ) -> Result<VarId, LpError> {
        let combined = self.model.combine_column_terms(terms)?;
        let old_cols = self.prepared.cols.num_cols();
        let v = self.model.add_column(name, obj, &combined)?;
        self.prepared.append_column(obj, &combined);
        if let Some(w) = &mut self.warm {
            if !w.push_column(old_cols) {
                self.warm = None;
            }
        }
        self.costs_dirty = true;
        Ok(v)
    }

    /// Cold two-phase solve; records the optimal basis for later warm
    /// re-solves, together with its refactorized representation and
    /// reduced costs. Sweep drivers clone a solved instance once per
    /// parameter point, so sharing that basis-dependent state here means
    /// no clone ever refactorizes the (identical) warm basis again —
    /// results are bit-for-bit the same either way.
    ///
    /// # Errors
    ///
    /// As for [`Model::solve`].
    pub fn solve(&mut self) -> Result<Solution, LpError> {
        match solve_two_phase(&self.prepared, &self.prepared.b, self.model.num_vars()) {
            Ok((sol, mut warm)) => {
                prime_warm(&self.prepared, &mut warm);
                self.warm = Some(warm);
                self.costs_dirty = false;
                Ok(sol)
            }
            Err(e) => {
                self.warm = None;
                self.costs_dirty = false;
                Err(e)
            }
        }
    }

    /// Re-solves after mutations, warm-starting from the previous optimal
    /// basis: with the dual simplex after rhs/bound changes (the basis
    /// stays dual feasible) and with the primal simplex after
    /// [`set_objective`](Self::set_objective) (the basis stays primal
    /// feasible). Falls back to a cold [`solve`](Self::solve) when no warm
    /// basis exists, when the warm basis still contains artificials
    /// (redundant rows), or on numerical trouble — so the result is always
    /// as trustworthy as a cold solve, just cheaper in the common case.
    ///
    /// An infeasibility verdict from the dual simplex is double-checked
    /// with a cold solve before being reported, so warm and cold paths
    /// agree on which parameter points are feasible.
    ///
    /// # Errors
    ///
    /// As for [`Model::solve`].
    pub fn resolve(&mut self) -> Result<Solution, LpError> {
        let n_cols = self.prepared.cols.num_cols();
        let usable = self
            .warm
            .as_ref()
            .is_some_and(|w| w.basis.iter().all(|&j| j < n_cols));
        if !usable {
            return self.solve();
        }
        if self.costs_dirty {
            // Objective changed since the warm point: its basis is still
            // primal feasible, its reduced costs are not. Reoptimize with
            // the primal simplex (dual warm starts would be unsound).
            let warm = self.warm.as_ref().expect("checked above");
            let outcome = resolve_primal(
                &self.prepared,
                &self.prepared.b,
                self.model.num_vars(),
                warm,
            );
            return match outcome {
                PrimalOutcome::Optimal(sol, warm) => {
                    self.warm = Some(*warm);
                    self.costs_dirty = false;
                    Ok(sol)
                }
                // Cold-confirm unboundedness (and repair any stalled or
                // numerically troubled state) exactly as the dual path
                // falls back: never less reliable than `solve`.
                PrimalOutcome::Unbounded | PrimalOutcome::Stalled => self.solve(),
            };
        }
        let warm = self.warm.as_ref().expect("checked above");
        let outcome = resolve_dual(
            &self.prepared,
            &self.prepared.b,
            self.model.num_vars(),
            warm,
        );
        match outcome {
            DualOutcome::Optimal(sol, warm) => {
                self.warm = Some(warm);
                Ok(sol)
            }
            DualOutcome::Infeasible(warm) => {
                // Confirm with a cold solve: the dual-unbounded test and the
                // phase-1 infeasibility test use different tolerance paths,
                // and sweep drivers key behavior off this verdict.
                match solve_two_phase(&self.prepared, &self.prepared.b, self.model.num_vars()) {
                    Err(LpError::Infeasible) => {
                        // Keep the dual-feasible point: the next parameter
                        // point can still re-solve warm.
                        self.warm = Some(warm);
                        Err(LpError::Infeasible)
                    }
                    Ok((sol, cold_warm)) => {
                        self.warm = Some(cold_warm);
                        Ok(sol)
                    }
                    Err(e) => {
                        self.warm = None;
                        Err(e)
                    }
                }
            }
            DualOutcome::Stalled => self.solve(),
        }
    }

    /// Warm re-solve at modified right-hand sides **without mutating or
    /// cloning the instance**: `updates` pairs constraint rows (indices
    /// from the model's `add_*` methods) with new rhs values; rows not
    /// listed keep their current rhs. Results are identical to cloning
    /// the instance, applying [`set_rhs`](Self::set_rhs) per row, and
    /// calling [`resolve`](Self::resolve) — but the only per-call copy is
    /// one rhs vector, so this is the sweep hot path: hundreds of
    /// parameter points fan out over one shared solved instance, each a
    /// pure function of `(instance, updates)`.
    ///
    /// # Errors
    ///
    /// As for [`Model::solve`]; infeasible points report
    /// [`LpError::Infeasible`] after cold confirmation.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range or an rhs is not finite.
    pub fn resolve_with_rhs(&self, updates: &[(usize, f64)]) -> Result<Solution, LpError> {
        let num_rows = self.model.num_rows();
        let mut b = self.prepared.b.clone();
        for &(row, rhs) in updates {
            assert!(row < num_rows, "row index out of range");
            assert!(rhs.is_finite(), "constraint rhs must be finite");
            let (i, v) = self.prepared.standardized_rhs(&self.model, row, rhs);
            b[i] = v;
        }
        let n_cols = self.prepared.cols.num_cols();
        // A warm point recorded before a `set_objective` is not dual
        // feasible under the current costs — fall back cold rather than
        // let the dual simplex "verify" optimality against stale prices.
        let warm = self
            .warm
            .as_ref()
            .filter(|w| !self.costs_dirty && w.basis.iter().all(|&j| j < n_cols));
        let cold =
            || solve_two_phase(&self.prepared, &b, self.model.num_vars()).map(|(sol, _)| sol);
        let Some(warm) = warm else {
            return cold();
        };
        match resolve_dual(&self.prepared, &b, self.model.num_vars(), warm) {
            DualOutcome::Optimal(sol, _) => Ok(sol),
            // Cold-confirm the infeasibility verdict, mirroring `resolve`.
            DualOutcome::Infeasible(_) => cold(),
            DualOutcome::Stalled => cold(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{LpError, Model, Sense};

    fn classic() -> (Model, (crate::VarId, crate::VarId), [usize; 3]) {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        let r0 = m.add_le(&[(x, 1.0)], 4.0);
        let r1 = m.add_le(&[(y, 2.0)], 12.0);
        let r2 = m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        (m, (x, y), [r0, r1, r2])
    }

    #[test]
    fn warm_resolve_matches_cold_after_rhs_change() {
        let (m, _, rows) = classic();
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();

        let mut cold_model = m.clone();
        cold_model.set_rhs(rows[2], 24.0);
        let cold = cold_model.solve().unwrap();

        inst.set_rhs(rows[2], 24.0);
        let warm = inst.resolve().unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
    }

    #[test]
    fn tightening_rhs_reoptimizes_with_dual_pivots() {
        let (m, (x, y), rows) = classic();
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        assert!((cold.objective() - 36.0).abs() < 1e-7);

        // Tighten the coupling row: 3x + 2y ≤ 12 → optimum (0, 6), obj 30.
        inst.set_rhs(rows[2], 12.0);
        let warm = inst.resolve().unwrap();
        assert!(warm.stats().warm, "expected the dual-simplex path");
        assert!(
            (warm.objective() - 30.0).abs() < 1e-7,
            "{}",
            warm.objective()
        );
        assert!((warm.value(x) - 0.0).abs() < 1e-7);
        assert!((warm.value(y) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn unchanged_rhs_resolves_in_zero_iterations() {
        let (m, _, _) = classic();
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        let warm = inst.resolve().unwrap();
        assert_eq!(warm.stats().iterations, 0);
        assert!(warm.stats().warm);
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
    }

    #[test]
    fn infeasible_point_detected_and_recovered_from() {
        // min x with 1 ≤ x ≤ 5 via rows; pushing the ≥ row past the ≤ row
        // makes the point infeasible, pulling it back re-solves warm.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let lo = m.add_ge(&[(x, 1.0)], 1.0);
        let _hi = m.add_le(&[(x, 1.0)], 5.0);
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        inst.set_rhs(lo, 6.0);
        assert_eq!(inst.resolve().unwrap_err(), LpError::Infeasible);
        // And back to feasible, still warm-capable.
        inst.set_rhs(lo, 2.0);
        let back = inst.resolve().unwrap();
        assert!((back.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn bound_change_resolves_warm() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0);
        let y = m.add_var("y", 0.0, 3.0, 1.0);
        m.add_le(&[(x, 1.0), (y, 1.0)], 8.0);
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        assert!((cold.objective() - 15.0).abs() < 1e-7); // x=7, y=1

        inst.set_var_bounds(x, 0.0, 4.0).unwrap();
        let warm = inst.resolve().unwrap();
        // x=4, y=3 → 8+3 = 11.
        assert!(
            (warm.objective() - 11.0).abs() < 1e-7,
            "{}",
            warm.objective()
        );

        let mut cold_model = m.clone();
        cold_model.set_var_bounds(x, 0.0, 4.0);
        let re = cold_model.solve().unwrap();
        assert!((re.objective() - warm.objective()).abs() <= 1e-9 * (1.0 + re.objective().abs()));
    }

    #[test]
    fn bound_pattern_change_is_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let mut inst = m.instance().unwrap();
        let err = inst.set_var_bounds(x, 0.0, f64::INFINITY).unwrap_err();
        assert!(matches!(err, LpError::InvalidModel { .. }));
    }

    #[test]
    fn bound_pattern_change_is_rejected_under_native_bounds() {
        // The frozen finiteness pattern from `add_var` binds in native
        // mode too: the column's native upper bound cannot appear or
        // disappear after instance construction, in either direction.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        let mut inst = m.instance().unwrap();
        let err = inst.set_var_bounds(x, 0.0, f64::INFINITY).unwrap_err();
        assert!(matches!(err, LpError::InvalidModel { .. }));
        let err = inst.set_var_bounds(y, 0.0, 2.0).unwrap_err();
        assert!(matches!(err, LpError::InvalidModel { .. }));
        // Moving a finite bound to a new finite value is fine.
        inst.set_var_bounds(x, 0.0, 0.5).unwrap();
    }

    #[test]
    fn native_bound_change_resolves_warm_and_matches_cold() {
        // The whole point of native bounds: tightening an upper bound
        // changes no constraint rows, so the dual simplex repairs the old
        // optimal basis in a handful of pivots/flips.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0);
        let y = m.add_var("y", 0.0, 3.0, 1.0);
        m.add_le(&[(x, 1.0), (y, 1.0)], 8.0);
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        assert!((cold.objective() - 15.0).abs() < 1e-7); // x=7, y=1

        inst.set_var_bounds(x, 0.0, 4.0).unwrap();
        let warm = inst.resolve().unwrap();
        assert!((warm.objective() - 11.0).abs() < 1e-7, "x=4, y=3");
        assert!(warm.stats().warm, "expected the dual-simplex path");

        // And loosening back re-solves warm to the original optimum.
        inst.set_var_bounds(x, 0.0, 7.0).unwrap();
        let back = inst.resolve().unwrap();
        assert!((back.objective() - 15.0).abs() < 1e-7);
    }

    #[test]
    fn set_var_bounds_rejects_nan_and_crossed_without_mutating() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        m.add_ge(&[(x, 1.0)], 1.0);
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        for (lo, hi) in [
            (f64::NAN, 5.0),
            (0.0, f64::NAN),
            (f64::NAN, f64::NAN),
            (3.0, 2.0),
        ] {
            let err = inst.set_var_bounds(x, lo, hi).unwrap_err();
            assert!(matches!(err, LpError::InvalidModel { .. }), "({lo}, {hi})");
        }
        // The instance survives the rejected deltas untouched.
        assert_eq!(inst.model().var_bounds(x), (0.0, 5.0));
        let sol = inst.resolve().unwrap();
        assert!((sol.objective() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn set_objective_rejects_nonfinite() {
        let (m, (x, _), _) = classic();
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = inst.set_objective(x, bad).unwrap_err();
            assert!(matches!(err, LpError::InvalidModel { .. }));
        }
        let sol = inst.resolve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-7);
    }

    #[test]
    fn objective_change_resolves_warm_with_primal_pivots() {
        let (m, (x, y), _) = classic();
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        assert!((cold.objective() - 36.0).abs() < 1e-7);

        // Flip the profit balance: max 5x + y now prefers x=4.
        inst.set_objective(x, 5.0).unwrap();
        inst.set_objective(y, 1.0).unwrap();
        let warm = inst.resolve().unwrap();
        assert!(warm.stats().warm, "expected the primal warm path");

        let mut cold_model = m.clone();
        cold_model.set_objective(x, 5.0);
        cold_model.set_objective(y, 1.0);
        let re = cold_model.solve().unwrap();
        assert!(
            (warm.objective() - re.objective()).abs() <= 1e-9 * (1.0 + re.objective().abs()),
            "warm {} vs cold {}",
            warm.objective(),
            re.objective()
        );
        assert!((warm.value(x) - re.value(x)).abs() < 1e-7);
        assert!((warm.value(y) - re.value(y)).abs() < 1e-7);
        warm.certify(inst.model()).unwrap();
    }

    #[test]
    fn unchanged_objective_resolves_in_zero_iterations() {
        let (m, (x, _), _) = classic();
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        // Setting the same coefficient keeps the dual warm path (no dirty
        // flag), and the re-solve costs zero pivots.
        inst.set_objective(x, 3.0).unwrap();
        let warm = inst.resolve().unwrap();
        assert_eq!(warm.stats().iterations, 0);
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
    }

    #[test]
    fn mixed_rhs_and_objective_deltas_match_cold() {
        let (m, (_, y), rows) = classic();
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();

        inst.set_rhs(rows[2], 24.0);
        inst.set_objective(y, 2.0).unwrap();
        inst.set_rhs(rows[0], 6.0);
        let warm = inst.resolve().unwrap();

        let mut cold_model = m.clone();
        cold_model.set_rhs(rows[2], 24.0);
        cold_model.set_objective(y, 2.0);
        cold_model.set_rhs(rows[0], 6.0);
        let cold = cold_model.solve().unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        // The new objective 3x + 2y is parallel to the row 3x + 2y ≤ 24,
        // so warm and cold may stop at different optimal vertices: certify
        // both instead of comparing values.
        warm.certify(inst.model()).unwrap();
        cold.certify(&cold_model).unwrap();
    }

    #[test]
    fn resolve_with_rhs_goes_cold_while_costs_dirty() {
        // A stale-cost warm point must not feed the dual simplex: the
        // non-mutating sweep path falls back to a cold solve until the
        // owner resolves the objective change.
        let (m, (x, _), rows) = classic();
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        inst.set_objective(x, 10.0).unwrap();

        let at = inst.resolve_with_rhs(&[(rows[0], 2.0)]).unwrap();
        let mut cold_model = m.clone();
        cold_model.set_objective(x, 10.0);
        cold_model.set_rhs(rows[0], 2.0);
        let cold = cold_model.solve().unwrap();
        assert!(
            (at.objective() - cold.objective()).abs() <= 1e-9 * (1.0 + cold.objective().abs()),
            "sweep {} vs cold {}",
            at.objective(),
            cold.objective()
        );
        // After resolving, the sweep path is warm again.
        inst.resolve().unwrap();
        let warm = inst.resolve_with_rhs(&[(rows[0], 2.0)]).unwrap();
        assert_eq!(warm.objective().to_bits(), at.objective().to_bits());
        assert!(warm.stats().warm);
    }

    #[test]
    fn objective_made_unbounded_is_cold_confirmed() {
        // min x − drop the floor by flipping the cost: max-style runaway
        // along the unbounded ray must surface as LpError::Unbounded, via
        // the cold confirmation.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_ge(&[(x, 1.0)], 1.0);
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        inst.set_objective(x, -1.0).unwrap();
        assert_eq!(inst.resolve().unwrap_err(), LpError::Unbounded);
        // And back: the instance recovers.
        inst.set_objective(x, 2.0).unwrap();
        let back = inst.resolve().unwrap();
        assert!((back.objective() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn add_column_warm_resolve_matches_cold_rebuild() {
        // min 2x + 3y, x + y ≥ 4 → x = 4, obj 8.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        let demand = m.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        let mut inst = m.instance().unwrap();
        let before = inst.solve().unwrap();
        assert!((before.objective() - 8.0).abs() < 1e-7);

        // A cheaper column covering the same demand takes over.
        let z = inst.add_column("z", 1.0, &[(demand, 1.0)]).unwrap();
        let warm = inst.resolve().unwrap();
        assert!(
            (warm.objective() - 4.0).abs() < 1e-7,
            "{}",
            warm.objective()
        );
        assert!((warm.value(z) - 4.0).abs() < 1e-7);
        assert!((warm.value(x)).abs() < 1e-7);
        warm.certify(inst.model()).unwrap();

        let mut cold_model = m.clone();
        let _ = cold_model.add_column("z", 1.0, &[(demand, 1.0)]).unwrap();
        let cold = cold_model.solve().unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
    }

    #[test]
    fn add_column_negates_cost_under_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let r = m.add_le(&[(x, 1.0)], 4.0);
        let mut inst = m.instance().unwrap();
        let cold = inst.solve().unwrap();
        assert!((cold.objective() - 12.0).abs() < 1e-7);
        let z = inst.add_column("z", 5.0, &[(r, 1.0)]).unwrap();
        let sol = inst.resolve().unwrap();
        assert!((sol.objective() - 20.0).abs() < 1e-7, "{}", sol.objective());
        assert!((sol.value(z) - 4.0).abs() < 1e-7);
    }

    #[test]
    fn add_column_survives_artificials_in_warm_basis() {
        // A redundant equality keeps an artificial in the optimal basis.
        // Artificial indices live past the structural column count, so the
        // append must discard that warm point instead of letting a stale
        // artificial index alias the new column.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let r0 = m.add_eq(&[(x, 1.0)], 2.0);
        let r1 = m.add_eq(&[(x, 1.0)], 2.0);
        let mut inst = m.instance().unwrap();
        let first = inst.solve().unwrap();
        assert!((first.objective() - 2.0).abs() < 1e-7);

        let z = inst.add_column("z", 0.25, &[(r0, 1.0), (r1, 1.0)]).unwrap();
        let sol = inst.resolve().unwrap();
        assert!((sol.objective() - 0.5).abs() < 1e-7, "{}", sol.objective());
        assert!((sol.value(z) - 2.0).abs() < 1e-7);
        assert!((sol.value(crate::VarId::from_index(0))).abs() < 1e-7);
    }

    #[test]
    fn add_column_rejects_bad_inputs_without_mutating() {
        let (m, _, rows) = classic();
        let mut inst = m.instance().unwrap();
        inst.solve().unwrap();
        assert!(matches!(
            inst.add_column("z", f64::NAN, &[(rows[0], 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert!(matches!(
            inst.add_column("z", 1.0, &[(99, 1.0)]),
            Err(LpError::InvalidModel { .. })
        ));
        assert_eq!(inst.model().num_vars(), 2);
        let sol = inst.resolve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-7);
    }

    #[test]
    fn repeated_add_column_iterates_like_a_pricing_loop() {
        // The colgen shape: solve, append one improving column, warm
        // re-solve, repeat — each append must leave the instance exact.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 10.0);
        let cover = m.add_ge(&[(x, 1.0)], 6.0);
        let mut inst = m.instance().unwrap();
        let mut obj = inst.solve().unwrap().objective();
        assert!((obj - 60.0).abs() < 1e-7);
        for (cost, expect) in [(6.0, 36.0), (3.0, 18.0), (1.5, 9.0)] {
            inst.add_column("gen", cost, &[(cover, 1.0)]).unwrap();
            let sol = inst.resolve().unwrap();
            assert!(sol.objective() < obj, "monotone improvement");
            obj = sol.objective();
            assert!((obj - expect).abs() < 1e-7, "{obj} vs {expect}");
        }
    }

    #[test]
    fn clone_is_independent() {
        let (m, _, rows) = classic();
        let mut base = m.instance().unwrap();
        base.solve().unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        a.set_rhs(rows[2], 12.0);
        b.set_rhs(rows[2], 24.0);
        let sa = a.resolve().unwrap();
        let sb = b.resolve().unwrap();
        assert!((sa.objective() - 30.0).abs() < 1e-7);
        assert!((sb.objective() - 42.0).abs() < 1e-7);
        // The base is untouched.
        let again = base.resolve().unwrap();
        assert!((again.objective() - 36.0).abs() < 1e-7);
    }
}
