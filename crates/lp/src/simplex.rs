//! Two-phase revised simplex over a sparse-LU basis factorization, plus
//! the dual- and primal-simplex reoptimizers used for warm starts.
//!
//! The pivot *logic* (ratio tests, Bland switch, refactorization cadence)
//! lives once in [`run_phase`]/[`resolve_dual`]; entering pricing is
//! delegated to `crate::pricing` (devex over a candidate list, with a full
//! Bland scan as the anti-cycling fallback), and the basis algebra is
//! [`BasisRepr`]: a sparse LU at refactor points with product-form eta
//! updates between them (the `crate::factor` module).
//!
//! Every column is bounded below by 0 and by nothing else, so a nonbasic
//! column sits at 0 and the basic values are `B⁻¹ b`. Cold solves start
//! from a slack crash basis: rows whose slack can sit basic at a feasible
//! value skip their artificial, so phase 1 only drives out artificials of
//! equality (and sign-flipped) rows.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::factor::{Eta, SparseLu};
use crate::model::{Csc, Prepared};
use crate::pricing::Pricer;
use crate::solution::SolveStats;
use crate::{LpError, Solution};

/// Feasibility / optimality tolerance, appropriate for the well-scaled
/// LPs this repository builds (coefficients within a few orders of
/// magnitude of 1).
pub(crate) const TOL: f64 = 1e-9;

/// Rebuild the basis factorization from scratch every this many pivots.
pub(crate) const REFACTOR_EVERY: usize = 128;

/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 40;

/// Pivot budget of a warm re-solve over `m` rows; exhausting it hands
/// over to a cold solve.
fn warm_budget(m: usize) -> usize {
    10 * (m + 1) + 200
}

/// A column of the standard-form matrix.
enum ColRef<'a> {
    /// CSC column as parallel `(rows, values)` slices.
    Sparse(&'a [usize], &'a [f64]),
    /// Artificial column `s · e_r` (`s = ±1`, matching the sign of `b_r` at
    /// phase-1 start so the artificial starts at `|b_r| ≥ 0`).
    Unit(usize, f64),
}

/// A recorded warm-start point: the optimal basis of a previous solve.
#[derive(Debug, Clone)]
pub(crate) struct WarmStart {
    /// Basic column per row (indices ≥ structural count are artificials).
    pub basis: Vec<usize>,
}

/// The basis representation: sparse LU factors of the basis at the last
/// refactorization plus the eta file of every pivot since.
#[derive(Debug, Clone)]
struct BasisRepr {
    lu: SparseLu,
    etas: Vec<Eta>,
}

/// Internal simplex state over the standard-form problem.
pub(crate) struct State<'a> {
    /// CSC columns of A (structural + slack), then logical artificials.
    cols: &'a Csc,
    /// Right-hand side.
    b: &'a [f64],
    /// Row count, which is also the artificial count.
    m: usize,
    /// Sign of `b` per row at construction, giving each artificial column
    /// `s·e_r` so an artificial start is primal feasible even when a warm
    /// instance carries a negative standardized rhs.
    art_sign: Vec<f64>,
    /// Basic column per row (indices ≥ `cols.num_cols()` denote
    /// artificials).
    basis: Vec<usize>,
    /// Basis representation.
    repr: BasisRepr,
    /// Refactorize after this many pivots ([`REFACTOR_EVERY`] outside
    /// tests).
    refactor_every: usize,
    /// Pivot count across all phases run on this state.
    pub(crate) iterations: usize,
    /// Factorization rebuilds (demanded by cadence or construction).
    pub(crate) refactors: usize,
    /// Full pricing passes over every column.
    pub(crate) full_prices: usize,
}

/// Per row, the sign of its artificial column: that of `b_r`, so the
/// artificial starts at `|b_r|`.
fn art_signs(b: &[f64]) -> Vec<f64> {
    b.iter()
        .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
        .collect()
}

impl<'a> State<'a> {
    /// Fresh cold-start state, every structural column nonbasic at 0, from
    /// a slack crash basis: rows whose slack can sit basic at a feasible
    /// value (`b_i ≥ 0` and a `+1` singleton slack) start on the slack,
    /// every other row on its artificial.
    fn new(prepared: &'a Prepared, refactor_every: usize) -> Result<Self, LpError> {
        let cols = &prepared.cols;
        let b = &prepared.b;
        let m = b.len();
        let art_sign = art_signs(b);
        let mut crashed = false;
        let basis: Vec<usize> = (0..m)
            .map(|i| {
                if b[i] >= 0.0 {
                    if let Some(s) = prepared.row_slack[i] {
                        crashed = true;
                        return s;
                    }
                }
                cols.num_cols() + i
            })
            .collect();
        let lu = if crashed {
            // Mixed slack/artificial start: built by the refactorization
            // below.
            SparseLu::placeholder()
        } else {
            // All-artificial: the signed identity, built directly (no
            // refactorization counted).
            SparseLu::factor(m, 0.0, |k, out| out.push((k, art_sign[k])))
                .expect("signed identity is nonsingular")
        };
        let mut state = State {
            cols,
            b,
            m,
            art_sign,
            basis,
            repr: BasisRepr {
                lu,
                etas: Vec::new(),
            },
            refactor_every,
            iterations: 0,
            refactors: 0,
            full_prices: 0,
        };
        if crashed {
            state.refactor()?;
        }
        Ok(state)
    }

    /// State over an existing basis (warm start), with the basis
    /// refactorized. Fails with [`LpError::Singular`] if the recorded basis
    /// cannot be factorized.
    fn from_basis(prepared: &'a Prepared, warm: &WarmStart) -> Result<Self, LpError> {
        let b = &prepared.b;
        let m = b.len();
        assert_eq!(warm.basis.len(), m, "basis size must match row count");
        let mut state = State {
            cols: &prepared.cols,
            b,
            m,
            art_sign: art_signs(b),
            basis: warm.basis.clone(),
            // A placeholder representation: `refactor` below fills it in
            // from the recorded basis before any solve touches it.
            repr: BasisRepr {
                lu: SparseLu::placeholder(),
                etas: Vec::new(),
            },
            refactor_every: REFACTOR_EVERY,
            iterations: 0,
            refactors: 0,
            full_prices: 0,
        };
        state.refactor()?;
        Ok(state)
    }

    /// The column of A for index `j` (artificials are signed unit columns).
    fn column(&self, j: usize) -> ColRef<'_> {
        if j < self.cols.num_cols() {
            let (rows, vals) = self.cols.col(j);
            ColRef::Sparse(rows, vals)
        } else {
            let r = j - self.cols.num_cols();
            ColRef::Unit(r, self.art_sign[r])
        }
    }

    /// The basic column of row `r` (pricing needs the leaving variable).
    pub(crate) fn basis_col(&self, r: usize) -> usize {
        self.basis[r]
    }
    /// `B⁻¹ · a_j` into caller-provided buffers (`scratch` is working
    /// space, `out` receives the result) — same arithmetic as
    /// [`State::ftran`], no per-call allocation.
    fn ftran_into(&self, j: usize, scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.m, 0.0);
        match self.column(j) {
            ColRef::Unit(r, s) => scratch[r] = s,
            ColRef::Sparse(rows, vals) => {
                for (&row, &coeff) in rows.iter().zip(vals) {
                    scratch[row] = coeff;
                }
            }
        }
        self.repr.lu.solve_consuming_into(scratch, out);
        for eta in &self.repr.etas {
            eta.apply(out);
        }
    }

    /// [`State::btran_unit`] into caller-provided buffers.
    fn btran_unit_into(&self, r: usize, scratch: &mut Vec<f64>, out: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.m, 0.0);
        scratch[r] = 1.0;
        for eta in self.repr.etas.iter().rev() {
            eta.apply_transpose(scratch);
        }
        self.repr.lu.solve_transpose_into(scratch, out);
    }

    /// [`State::duals`] into caller-provided buffers.
    fn duals_into(&self, cost: &dyn Fn(usize) -> f64, scratch: &mut Vec<f64>, y: &mut Vec<f64>) {
        scratch.clear();
        scratch.extend(self.basis.iter().map(|&bj| cost(bj)));
        for eta in self.repr.etas.iter().rev() {
            eta.apply_transpose(scratch);
        }
        self.repr.lu.solve_transpose_into(scratch, y);
    }

    /// [`State::basic_values`] into caller-provided buffers.
    fn basic_values_into(&self, scratch: &mut Vec<f64>, x: &mut Vec<f64>) {
        scratch.clear();
        scratch.extend_from_slice(self.b);
        self.repr.lu.solve_consuming_into(scratch, x);
        for eta in &self.repr.etas {
            eta.apply(x);
        }
    }

    /// `B⁻¹ · a_j`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.ftran_into(j, &mut scratch, &mut out);
        out
    }

    /// Current basic solution `x_B = B⁻¹ b`.
    fn basic_values(&self) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut x = Vec::new();
        self.basic_values_into(&mut scratch, &mut x);
        x
    }

    /// `y = c_Bᵀ · B⁻¹` for the given cost accessor (keyed by constraint
    /// row).
    fn duals(&self, cost: &dyn Fn(usize) -> f64) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut y = Vec::new();
        self.duals_into(cost, &mut scratch, &mut y);
        y
    }

    /// Row `r` of `B⁻¹` (the dual-simplex pricing vector `ρ = B⁻ᵀ e_r`),
    /// keyed by constraint row.
    pub(crate) fn btran_unit(&self, r: usize) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.btran_unit_into(r, &mut scratch, &mut out);
        out
    }

    /// Reduced cost of column `j` given duals `y`.
    pub(crate) fn reduced_cost(&self, j: usize, y: &[f64], cost: &dyn Fn(usize) -> f64) -> f64 {
        let mut rc = cost(j);
        match self.column(j) {
            ColRef::Unit(r, s) => rc -= y[r] * s,
            ColRef::Sparse(rows, vals) => {
                for (&row, &coeff) in rows.iter().zip(vals) {
                    rc -= y[row] * coeff;
                }
            }
        }
        rc
    }

    /// `ρ · a_j` for dual-simplex pricing and devex weight updates.
    pub(crate) fn row_coeff(&self, j: usize, rho: &[f64]) -> f64 {
        match self.column(j) {
            ColRef::Unit(r, s) => rho[r] * s,
            ColRef::Sparse(rows, vals) => {
                rows.iter().zip(vals).map(|(&row, &c)| rho[row] * c).sum()
            }
        }
    }

    /// Replaces the basic variable of row `r` with column `j`, appending
    /// the pivot's eta to the representation (product-form update).
    fn pivot(&mut self, r: usize, j: usize, d: &[f64]) {
        debug_assert!(d[r].abs() > TOL, "pivot on ~zero element");
        self.repr.etas.push(Eta::from_pivot(r, d));
        self.basis[r] = j;
    }

    /// Rebuilds the representation from the recorded basis. Returns `Err`
    /// if the basis is singular.
    fn refactor(&mut self) -> Result<(), LpError> {
        self.refactors += 1;
        let m = self.m;
        let cols = self.cols;
        let basis = &self.basis;
        let art_sign = &self.art_sign;
        let repr = &mut self.repr;
        repr.lu = SparseLu::factor(m, TOL * 1e-3, |k, out| {
            let j = basis[k];
            if j < cols.num_cols() {
                let (rows, vals) = cols.col(j);
                for (&row, &coeff) in rows.iter().zip(vals) {
                    out.push((row, coeff));
                }
            } else {
                let r = j - cols.num_cols();
                out.push((r, art_sign[r]));
            }
        })?;
        repr.etas.clear();
        Ok(())
    }
}

/// Outcome of one primal simplex phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Runs primal simplex iterations until optimal/unbounded for the given
/// costs.
///
/// `allowed` filters which columns may enter (used to bar artificials in
/// phase 2). The entering column rises from 0, and the ratio test watches
/// every basic variable falling to 0.
fn run_phase(
    t: &mut State<'_>,
    cost: &dyn Fn(usize) -> f64,
    allowed: &dyn Fn(usize) -> bool,
    iter_budget: &mut usize,
) -> Result<PhaseEnd, LpError> {
    let n_total = t.cols.num_cols() + t.m;
    let mut pricer = Pricer::new(n_total);
    let mut degenerate_run = 0usize;
    let mut bland = false;
    let mut since_refactor = 0usize;
    let mut total_iters = 0usize;
    // Reused per-iteration buffers (no per-pivot allocation).
    let mut y: Vec<f64> = Vec::new();
    let mut x: Vec<f64> = Vec::new();
    let mut d: Vec<f64> = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();
    let mut in_basis: Vec<bool> = Vec::new();

    let end = loop {
        if *iter_budget == 0 {
            t.full_prices += pricer.full_prices();
            return Err(LpError::IterationLimit {
                iterations: total_iters,
            });
        }
        *iter_budget -= 1;
        total_iters += 1;

        t.duals_into(cost, &mut scratch, &mut y);
        basis_mask_into(t, n_total, &mut in_basis);
        let Some(j) = pricer.select(t, &y, cost, allowed, &in_basis, bland) else {
            break PhaseEnd::Optimal;
        };

        t.ftran_into(j, &mut scratch, &mut d);
        t.basic_values_into(&mut scratch, &mut x);
        // Ratio test: basic variable i falls at rate d[i] per unit step.
        let mut leave: Option<usize> = None;
        let mut theta = f64::INFINITY;
        for i in 0..t.m {
            if d[i] > TOL {
                let ratio = x[i].max(0.0) / d[i];
                let better = match leave {
                    None => true,
                    Some(l) => {
                        ratio < theta - TOL
                            || (ratio < theta + TOL
                                && if bland {
                                    t.basis[i] < t.basis[l]
                                } else {
                                    d[i].abs() > d[l].abs()
                                })
                    }
                };
                if better {
                    theta = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(r) = leave else {
            break PhaseEnd::Unbounded;
        };

        if theta <= TOL {
            degenerate_run += 1;
            if degenerate_run >= DEGENERATE_SWITCH {
                bland = true;
            }
        } else {
            degenerate_run = 0;
        }

        t.iterations += 1;
        pricer.on_pivot(t, r, j, &d, &in_basis);
        t.pivot(r, j, &d);
        since_refactor += 1;
        if since_refactor >= t.refactor_every {
            if let Err(e) = t.refactor() {
                t.full_prices += pricer.full_prices();
                return Err(e);
            }
            since_refactor = 0;
        }
    };
    t.full_prices += pricer.full_prices();
    Ok(end)
}

fn basis_mask(t: &State<'_>, n_total: usize) -> Vec<bool> {
    let mut mask = Vec::new();
    basis_mask_into(t, n_total, &mut mask);
    mask
}

fn basis_mask_into(t: &State<'_>, n_total: usize, mask: &mut Vec<bool>) {
    mask.clear();
    mask.resize(n_total, false);
    for &j in &t.basis {
        mask[j] = true;
    }
}

/// Outcome of a dual-simplex reoptimization attempt.
pub(crate) enum DualOutcome {
    /// Reached primal feasibility (hence optimality): solution + the
    /// warm-start point it ended on.
    Optimal(Solution, WarmStart),
    /// Dual unbounded ⇒ primal infeasible. Carries the (still dual
    /// feasible) warm-start point so later re-solves can stay warm.
    Infeasible(WarmStart),
    /// Numerical trouble or iteration budget exhausted; the caller should
    /// fall back to a cold solve.
    Stalled,
}

/// Dual-simplex reoptimization from a dual-feasible warm-start point after
/// a right-hand-side change.
///
/// The warm point must come from a previous optimal solve of the same
/// `prepared` columns (same costs); only the rhs may have changed.
/// Artificials are barred from entering, mirroring phase 2. The leaving
/// choice picks the basic variable with the largest devex-weighted
/// negative value, and the dual ratio test admits the nonbasic columns
/// whose pivot-row entry is negative.
pub(crate) fn resolve_dual(prepared: &Prepared, num_vars: usize, warm: &WarmStart) -> DualOutcome {
    let n_cols = prepared.cols.num_cols();
    let Ok(mut t) = State::from_basis(prepared, warm) else {
        return DualOutcome::Stalled;
    };
    let costs = &prepared.costs;
    let cost_fn = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };

    let b_scale: f64 = prepared.b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let feas_tol = TOL * (1.0 + b_scale);
    let mut budget = warm_budget(t.m);
    let mut since_refactor = 0usize;

    // Incrementally maintained solver state — the dual hot loop's big
    // saving over recomputation. `x` and `rc` follow the textbook update
    // formulas per pivot and are rebuilt from scratch at refactorization
    // points (the same cadence that already bounds eta-file drift):
    //
    // * `x` (basic values): `x ← x − θ_p·d`, entering value at slot `r`;
    // * `rc` (structural reduced costs): `rc_j ← rc_j − θ_d·α_j` with
    //   `θ_d = rc_q/α_q`, `rc_leaving = −θ_d` — no per-pivot btran for
    //   duals and no second pass over the column nonzeros;
    // * `in_basis`: two flag writes per pivot instead of an O(n) rebuild.
    let mut x = t.basic_values();
    let y = t.duals(&cost_fn);
    t.full_prices += 1;
    let mut rc: Vec<f64> = (0..n_cols)
        .map(|j| t.reduced_cost(j, &y, &cost_fn))
        .collect();
    let mut in_basis = basis_mask(&t, n_cols + t.m);
    let mut alphas = vec![0.0f64; n_cols];
    // Reused per-pivot buffers (no per-pivot allocation).
    let mut rho: Vec<f64> = Vec::new();
    let mut d: Vec<f64> = Vec::new();
    let mut scratch: Vec<f64> = Vec::new();
    // Dual devex row weights: approximate steepest-edge norms
    // `‖B⁻ᵀeᵢ‖²`, so the leaving choice maximizes violation per unit of
    // dual-edge length instead of raw violation — roughly halving dual
    // pivots on the large sweeps. Updated from the ftran column already in
    // hand, so the rule costs O(m) per pivot and no extra solves.
    let mut row_w = vec![1.0f64; t.m];

    loop {
        // Dual pricing: the basic variable with the largest weighted
        // violation of its bound 0 leaves.
        let mut leave: Option<usize> = None;
        let mut worst = 0.0;
        for i in 0..t.m {
            let viol = -x[i];
            if viol > feas_tol {
                let score = viol * viol / row_w[i];
                if score > worst {
                    worst = score;
                    leave = Some(i);
                }
            }
        }
        let Some(r) = leave else {
            let sol = extract_solution(&t, prepared, num_vars, true);
            let warm = WarmStart { basis: t.basis };
            return DualOutcome::Optimal(sol, warm);
        };
        if budget == 0 {
            return DualOutcome::Stalled;
        }
        budget -= 1;

        t.btran_unit_into(r, &mut scratch, &mut rho);
        // Dual ratio test over structural (non-artificial) columns: the
        // leaving variable rises to 0 as a column with `α < 0` enters. The
        // pivot row is kept for the reduced-cost update below.
        t.cols.gather_dot(&rho, &mut alphas);
        let mut entering: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut best_alpha = 0.0f64;
        for j in 0..n_cols {
            let alpha = alphas[j];
            if !in_basis[j] && alpha < -TOL {
                let ratio = rc[j].max(0.0) / -alpha;
                let better = match entering {
                    None => true,
                    Some(_) => {
                        ratio < best_ratio - TOL
                            || (ratio < best_ratio + TOL && alpha.abs() > best_alpha.abs())
                    }
                };
                if better {
                    entering = Some(j);
                    best_ratio = ratio;
                    best_alpha = alpha;
                }
            }
        }
        let Some(q) = entering else {
            // Row r cannot be repaired: dual unbounded, primal infeasible.
            return DualOutcome::Infeasible(WarmStart { basis: t.basis });
        };

        t.ftran_into(q, &mut scratch, &mut d);
        if d[r].abs() <= TOL {
            // The ftran disagrees with the pricing estimate: numerically
            // unsafe pivot, hand over to a cold solve.
            return DualOutcome::Stalled;
        }
        t.iterations += 1;

        // Update the stored reduced costs: `y` moves along ρ by
        // `θ_d = rc_q/α_q`, chosen so the entering column prices to zero.
        let theta_d = rc[q] / d[r];
        for j in 0..n_cols {
            if !in_basis[j] && j != q {
                rc[j] -= theta_d * alphas[j];
            }
        }
        rc[q] = 0.0;

        // Update the stored basic values: the entering variable rises from
        // 0 by `θ_p ≥ 0` until the leaving variable reaches 0.
        let leaving = t.basis[r];
        let theta_p = x[r] / d[r];
        for i in 0..t.m {
            x[i] -= theta_p * d[i];
        }
        x[r] = theta_p;
        if leaving < n_cols {
            rc[leaving] = -theta_d;
        }
        in_basis[leaving] = false;
        in_basis[q] = true;

        // Dual devex weight update from the pivot column.
        let wr = row_w[r];
        let a2 = d[r] * d[r];
        for i in 0..t.m {
            if i != r {
                let cand = (d[i] * d[i] / a2) * wr;
                if cand > row_w[i] {
                    row_w[i] = cand;
                }
            }
        }
        row_w[r] = (wr / a2).max(1.0);
        t.pivot(r, q, &d);
        since_refactor += 1;
        if since_refactor >= t.refactor_every {
            if t.refactor().is_err() {
                return DualOutcome::Stalled;
            }
            since_refactor = 0;
            // Rebuild the incremental state from the fresh factorization.
            x = t.basic_values();
            let y = t.duals(&cost_fn);
            t.full_prices += 1;
            for (j, rcj) in rc.iter_mut().enumerate() {
                *rcj = t.reduced_cost(j, &y, &cost_fn);
            }
        }
    }
}

/// Outcome of a primal-simplex reoptimization attempt after an objective
/// change.
pub(crate) enum PrimalOutcome {
    /// Reached optimality under the new costs: solution + the warm-start
    /// point it ended on.
    Optimal(Solution, WarmStart),
    /// The new objective is unbounded over the (unchanged) feasible
    /// region; callers should confirm with a cold solve.
    Unbounded,
    /// Basis unusable (artificials, singular, primal infeasible after
    /// chained rhs edits) or budget exhausted; fall back to a cold solve.
    Stalled,
}

/// Primal-simplex reoptimization from a primal-feasible warm-start point
/// after an *objective* change — the mirror image of [`resolve_dual`].
///
/// After costs change, the recorded optimal basis is still primal feasible
/// (feasibility depends only on `A` and `b`) but its reduced costs are
/// stale, so dual-simplex warm starts are unsound; instead we resume the
/// phase-2 primal loop from the old basis with artificials barred.
///
/// Primal feasibility of the warm point is verified up front (a caller
/// that chained rhs edits since the last re-solve may have broken it);
/// violations return [`PrimalOutcome::Stalled`] for a cold fallback.
pub(crate) fn resolve_primal(
    prepared: &Prepared,
    num_vars: usize,
    warm: &WarmStart,
) -> PrimalOutcome {
    let n_cols = prepared.cols.num_cols();
    if warm.basis.iter().any(|&j| j >= n_cols) {
        return PrimalOutcome::Stalled;
    }
    let Ok(mut t) = State::from_basis(prepared, warm) else {
        return PrimalOutcome::Stalled;
    };
    let b_scale: f64 = prepared.b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let feas_tol = TOL * (1.0 + b_scale);
    if t.basic_values().iter().any(|&xi| xi < -feas_tol) {
        return PrimalOutcome::Stalled;
    }
    let costs = &prepared.costs;
    let phase2_cost = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let phase2_allowed = move |j: usize| j < n_cols;
    let mut iter_budget = warm_budget(t.m);
    match run_phase(&mut t, &phase2_cost, &phase2_allowed, &mut iter_budget) {
        Ok(PhaseEnd::Optimal) => {
            let sol = extract_solution(&t, prepared, num_vars, true);
            PrimalOutcome::Optimal(sol, WarmStart { basis: t.basis })
        }
        Ok(PhaseEnd::Unbounded) => PrimalOutcome::Unbounded,
        Err(_) => PrimalOutcome::Stalled,
    }
}

/// Extracts user-facing values, objective, and duals from an optimal
/// phase-2 (or dual-simplex) state.
fn extract_solution(t: &State<'_>, prepared: &Prepared, num_vars: usize, warm: bool) -> Solution {
    let n = prepared.cols.num_cols();
    let xb = t.basic_values();
    let mut col_values = vec![0.0; n];
    for (i, &j) in t.basis.iter().enumerate() {
        if j < n {
            // Clamp tiny negative overshoots from roundoff.
            col_values[j] = if xb[i] < 0.0 && xb[i] > -TOL * 100.0 {
                0.0
            } else {
                xb[i]
            };
        }
    }
    // `+ 0.0` reports a −0.0 as +0.0.
    let values: Vec<f64> = prepared
        .var_col
        .iter()
        .map(|&j| col_values[j] + 0.0)
        .collect();
    let raw_obj: f64 = prepared
        .costs
        .iter()
        .zip(&col_values)
        .map(|(c, x)| c * x)
        .sum::<f64>()
        + 0.0;
    let objective = if prepared.negated { -raw_obj } else { raw_obj };

    // Duals for user rows (phase-2 duals mapped through sign flips).
    let costs = &prepared.costs;
    let cost_fn = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let y = t.duals(&cost_fn);
    let mut duals = Vec::with_capacity(prepared.row_map.len());
    for &(row, sign) in &prepared.row_map {
        let d = y[row] * sign;
        duals.push(if prepared.negated { -d } else { d });
    }

    let stats = SolveStats {
        iterations: t.iterations,
        refactors: t.refactors,
        full_prices: t.full_prices,
        warm,
    };
    if qp_obs::enabled() {
        qp_obs::counter_add("lp_solves_total", 1);
        qp_obs::counter_add("lp_pivots_total", stats.iterations as u64);
        qp_obs::counter_add("lp_refactors_total", stats.refactors as u64);
        qp_obs::counter_add("lp_full_prices_total", stats.full_prices as u64);
        qp_obs::observe("lp_pivots_per_solve", stats.iterations as f64);
        qp_obs::point(
            "lp.solve",
            &[
                ("warm", qp_obs::FieldValue::Bool(warm)),
                ("pivots", qp_obs::FieldValue::U64(stats.iterations as u64)),
                ("refactors", qp_obs::FieldValue::U64(stats.refactors as u64)),
                (
                    "full_prices",
                    qp_obs::FieldValue::U64(stats.full_prices as u64),
                ),
            ],
        );
    }
    Solution::new(num_vars, values, objective, duals, stats)
}

/// Where a cold solve's phase 2 starts: the end state of phase 1 and of
/// the artificial pivot-outs after it — basis, basis representation with
/// its etas, and the pivot budget left.
///
/// Phase 1 reads only the columns and the rhs, never the costs, so one
/// `Phase1` serves every cost vector over the same constraints:
/// [`phase_two`] from a clone of it returns, bit for bit, what a full cold
/// solve under those costs returns.
#[derive(Debug, Clone)]
pub(crate) struct Phase1 {
    basis: Vec<usize>,
    art_sign: Vec<f64>,
    repr: BasisRepr,
    refactor_every: usize,
    iter_budget: usize,
    /// Work done so far, carried into the phase-2 solution's counters.
    iterations: usize,
    refactors: usize,
    full_prices: usize,
}

impl Phase1 {
    /// This end state with no work counted, for a later solve that reuses
    /// it: such a solve counts its phase 2 only.
    pub(crate) fn reused(&self) -> Phase1 {
        Phase1 {
            iterations: 0,
            refactors: 0,
            full_prices: 0,
            ..self.clone()
        }
    }
}

/// Phase 1 of a cold solve (minimize the sum of artificials from the
/// slack crash basis), the feasibility verdict, and the pivot-outs of
/// lingering artificials, at an explicit refactorization cadence (the
/// tests pin that the cadence never changes the optimum).
pub(crate) fn phase_one(prepared: &Prepared, refactor_every: usize) -> Result<Phase1, LpError> {
    let m = prepared.b.len();
    let n_cols = prepared.cols.num_cols();
    let mut iter_budget = 200 * (m + 1) + 20 * n_cols + 20_000;

    let mut t = State::new(prepared, refactor_every)?;

    let phase1_cost = move |j: usize| if j >= n_cols { 1.0 } else { 0.0 };
    match run_phase(&mut t, &phase1_cost, &|_| true, &mut iter_budget)? {
        PhaseEnd::Unbounded => {
            // Cannot happen: phase-1 objective is bounded below by 0.
            return Err(LpError::Singular);
        }
        PhaseEnd::Optimal => {}
    }
    let x = t.basic_values();
    let infeas: f64 = t
        .basis
        .iter()
        .enumerate()
        .filter(|&(_, &j)| j >= n_cols)
        .map(|(i, _)| x[i].max(0.0))
        .sum();
    if infeas > TOL * (1.0 + prepared.b.iter().sum::<f64>().abs()) {
        return Err(LpError::Infeasible);
    }

    // Pivot lingering artificials out of the basis where possible: a
    // nonbasic structural column with a usable pivot in the row enters at
    // value 0, which leaves the solution untouched. Rows where no such
    // pivot exists are redundant and are neutralized by keeping the
    // artificial basic at value zero but barring it from re-entering (it
    // also never leaves, since its row is redundant).
    for r in 0..m {
        if t.basis[r] < n_cols {
            continue;
        }
        let mask = basis_mask(&t, n_cols + t.m);
        for j in 0..n_cols {
            if mask[j] {
                continue;
            }
            let d = t.ftran(j);
            if d[r].abs() > TOL * 100.0 {
                t.iterations += 1;
                t.pivot(r, j, &d);
                break;
            }
        }
    }

    Ok(Phase1 {
        basis: t.basis,
        art_sign: t.art_sign,
        repr: t.repr,
        refactor_every: t.refactor_every,
        iter_budget,
        iterations: t.iterations,
        refactors: t.refactors,
        full_prices: t.full_prices,
    })
}

/// Phase 2 of a cold solve from `start`, under the prepared costs with
/// artificials barred. Returns the solution together with the final
/// (optimal) warm-start point for warm re-solves.
pub(crate) fn phase_two(
    prepared: &Prepared,
    start: Phase1,
    num_vars: usize,
) -> Result<(Solution, WarmStart), LpError> {
    let n_cols = prepared.cols.num_cols();
    let mut iter_budget = start.iter_budget;
    let mut t = State {
        cols: &prepared.cols,
        b: &prepared.b,
        m: start.basis.len(),
        art_sign: start.art_sign,
        basis: start.basis,
        repr: start.repr,
        refactor_every: start.refactor_every,
        iterations: start.iterations,
        refactors: start.refactors,
        full_prices: start.full_prices,
    };
    let costs = &prepared.costs;
    let phase2_cost = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let phase2_allowed = move |j: usize| j < n_cols;
    match run_phase(&mut t, &phase2_cost, &phase2_allowed, &mut iter_budget)? {
        PhaseEnd::Unbounded => return Err(LpError::Unbounded),
        PhaseEnd::Optimal => {}
    }

    let sol = extract_solution(&t, prepared, num_vars, false);
    Ok((sol, WarmStart { basis: t.basis }))
}

#[cfg(test)]
mod tests {
    use crate::model::Prepared;
    use crate::{LpError, Model, Sense};

    #[test]
    fn classic_max_example() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(y, 2.0)], 12.0);
        m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-7);
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
        assert!((sol.value(y) - 6.0).abs() < 1e-7);
        assert!(!sol.stats().warm);
        assert!(sol.stats().iterations > 0);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn min_with_ge_constraints() {
        // Diet-style: min 2x + 3y, x + y ≥ 4, x ≥ 1: x is cheaper, so
        // x = 4, y = 0 and the objective is 8.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0);
        let y = m.add_var(3.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.add_ge(&[(x, 1.0)], 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 8.0).abs() < 1e-7);
        assert!((sol.value(x) - 4.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x=2, y=1, obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_eq(&[(x, 1.0), (y, 2.0)], 4.0);
        m.add_eq(&[(x, 1.0), (y, -1.0)], 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
        assert!((sol.value(y) - 1.0).abs() < 1e-7);
        assert!((sol.objective() - 3.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_le(&[(x, 1.0)], 1.0);
        m.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(1.0);
        let y = m.add_var(0.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn no_constraints_bounded_by_box() {
        // With no rows at all, `x ≥ 0` alone bounds min 2x.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0);
        let sol = m.solve().unwrap();
        assert_eq!(sol.value(x), 0.0);
        assert_eq!(sol.objective(), 0.0);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_var(1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_split() {
        // min x s.t. x ≥ -3 with x free, written as x = x⁺ − x⁻.
        let mut m = Model::new(Sense::Minimize);
        let pos = m.add_var(1.0);
        let neg = m.add_var(-1.0);
        m.add_ge(&[(pos, 1.0), (neg, -1.0)], -3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(pos) - sol.value(neg) + 3.0).abs() < 1e-7);
        assert!((sol.objective() + 3.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn negative_lower_bound() {
        // max x + y, -2 ≤ x ≤ 1, y ≤ 2 - x, y ≥ 0, with x = x' − 2 for
        // x' ≥ 0: max x' + y (− 2) s.t. x' ≤ 3, x' + y ≤ 4.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_le(&[(x, 1.0)], 3.0);
        m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 2.0 - 2.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn upper_bounded_free_below_variable() {
        // min -x with x ≤ 5 and no lower bound, written as x = x⁺ − x⁻
        // with the row x⁺ − x⁻ ≤ 5 → x = 5.
        let mut m = Model::new(Sense::Minimize);
        let pos = m.add_var(-1.0);
        let neg = m.add_var(1.0);
        m.add_le(&[(pos, 1.0), (neg, -1.0)], 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(pos) - sol.value(neg) - 5.0).abs() < 1e-7);
        assert!((sol.objective() + 5.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn fixed_variable() {
        // x fixed at 3 by an equality row.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_eq(&[(x, 1.0)], 3.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
        assert!((sol.value(y) - 2.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        // Same constraint twice (rank-deficient equality system).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        let y = m.add_var(1.0);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 2.0);
        m.add_eq(&[(x, 1.0), (y, 1.0)], 2.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 2.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Klee–Minty-style degeneracy trigger at small size.
        let mut m = Model::new(Sense::Maximize);
        let n = 6;
        let xs: Vec<_> = (0..n)
            .map(|i| m.add_var(2f64.powi(n as i32 - 1 - i as i32)))
            .collect();
        for i in 0..n {
            let mut terms: Vec<_> = (0..i)
                .map(|j| (xs[j], 2f64.powi(i as i32 - j as i32 + 1)))
                .collect();
            terms.push((xs[i], 1.0));
            m.add_le(&terms, 5f64.powi(i as i32 + 1));
        }
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 5f64.powi(n as i32)).abs() / 5f64.powi(n as i32) < 1e-7);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_small_lp() {
        // max 3x+5y st x≤4, 2y≤12, 3x+2y≤18: duals (0, 1.5, 1) → b·y = 36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        let r0 = m.add_le(&[(x, 1.0)], 4.0);
        let r1 = m.add_le(&[(y, 2.0)], 12.0);
        let r2 = m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = m.solve().unwrap();
        let by = 4.0 * sol.dual(r0) + 12.0 * sol.dual(r1) + 18.0 * sol.dual(r2);
        assert!((by - 36.0).abs() < 1e-6, "b·y = {by}");
    }

    #[test]
    fn distribution_constraint_shape() {
        // The access-strategy LP shape in miniature: a probability simplex
        // with a capacity coupling row.
        // min 10 p1 + 1 p2 st p1 + p2 = 1, p2 ≤ 0.3 → p = (0.7, 0.3).
        let mut m = Model::new(Sense::Minimize);
        let p1 = m.add_var(10.0);
        let p2 = m.add_var(1.0);
        m.add_eq(&[(p1, 1.0), (p2, 1.0)], 1.0);
        m.add_le(&[(p2, 1.0)], 0.3);
        let sol = m.solve().unwrap();
        assert!((sol.value(p1) - 0.7).abs() < 1e-7);
        assert!((sol.value(p2) - 0.3).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    /// Bounded variables keep duals meaningful: with x, y ≥ 0 and their
    /// upper bounds 10 as rows, the binding row still prices.
    #[test]
    fn native_bounds_preserve_row_duals() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_le(&[(x, 1.0)], 10.0);
        m.add_le(&[(y, 1.0)], 10.0);
        let r = m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 20.0).abs() < 1e-7); // y = 4
        assert!((sol.dual(r) - 5.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    /// The variables' own bound `x ≥ 0` and a row that contradict each
    /// other are infeasible, exactly as two contradicting rows are.
    #[test]
    fn native_bounds_detect_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0);
        m.add_le(&[(x, 1.0)], -1.0); // x ≥ 0 by its kind, x ≤ -1 by row
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    /// Frequent refactorization must not change results (it only resets
    /// the eta file).
    #[test]
    fn refactor_cadence_is_result_invariant() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(3.0);
        let y = m.add_var(5.0);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(y, 2.0)], 12.0);
        m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let p = Prepared::from_model(&m);
        let start = super::phase_one(&p, 1).unwrap();
        let (every_pivot, _) = super::phase_two(&p, start, m.num_vars()).unwrap();
        let default = m.solve().unwrap();
        assert!((every_pivot.objective() - 36.0).abs() < 1e-7);
        assert!((every_pivot.objective() - default.objective()).abs() < 1e-9);
        every_pivot.certify(&m).unwrap();
        // Every row starts on its slack, so the crash start factorizes
        // once at construction, and at cadence 1 every pivot refactorizes
        // again.
        let stats = every_pivot.stats();
        assert!(stats.iterations > 0);
        assert_eq!(stats.refactors, stats.iterations + 1);
    }
}
