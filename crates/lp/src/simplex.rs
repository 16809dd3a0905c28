//! Two-phase revised simplex over a sparse-LU basis factorization, plus
//! the dual- and primal-simplex reoptimizers used for warm starts.
//!
//! The pivot *logic* (ratio tests, Bland switch, refactorization cadence,
//! bound flips) lives once in [`run_phase`]/[`resolve_dual`]; entering
//! pricing is delegated to `crate::pricing` (devex over a candidate list,
//! with a full Bland scan as the anti-cycling fallback), and the basis
//! algebra is [`BasisRepr`]: a sparse LU at refactor points with
//! product-form eta updates between them (the `crate::factor` module).
//!
//! Finite variable upper bounds are handled in-solver: nonbasic columns
//! carry an at-lower/at-upper flag folded into an effective rhs
//! (`b_eff = b − Σ u_j·a_j` over at-upper columns), the primal ratio test
//! watches both bounds of every basic variable plus the entering column's
//! own range (a *bound flip* when that binds first — no pivot), and the
//! dual ratio test admits entering candidates from either bound with the
//! matching sign condition. Cold solves start from a slack crash basis:
//! rows whose slack can sit basic at a feasible value skip their
//! artificial, so phase 1 only drives out artificials of equality (and
//! sign-flipped) rows.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use std::borrow::Cow;

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
const REFACTOR_EVERY: usize = 128;

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

/// A recorded warm-start point: the optimal basis of a previous solve plus
/// the bound status of every nonbasic structural column (which ones sat at
/// their finite upper bound). Both are needed to reconstruct the basic
/// solution under bounded variables.
#[derive(Debug, Clone)]
pub(crate) struct WarmStart {
    /// Basic column per row (indices ≥ structural count are artificials).
    pub basis: Vec<usize>,
    /// Nonbasic-at-upper-bound flag per structural column.
    pub at_upper: Vec<bool>,
    /// Basis-dependent solver state shared by re-solves (see
    /// [`prime_warm`]); `None` means each re-solve recomputes it.
    pub cache: Option<WarmCache>,
}

impl WarmStart {
    /// Extends this warm point after one structural column was appended at
    /// the end of the standard form (old column count `old_num_cols`).
    ///
    /// Returns `false` — caller must discard the warm point — if the basis
    /// still references artificials: those are encoded as
    /// `old_num_cols + row`, so after the append a stale artificial index
    /// would alias the new structural column and silently corrupt the
    /// basis. Otherwise the new column joins as nonbasic at its lower
    /// bound (the basis stays primal feasible) and any cached reduced
    /// costs are dropped: the appended column's price is unknown to the
    /// cache, which is the whole reason it was generated.
    pub(crate) fn push_column(&mut self, old_num_cols: usize) -> bool {
        if self.basis.iter().any(|&j| j >= old_num_cols) {
            return false;
        }
        self.at_upper.push(false);
        self.cache = None;
        true
    }
}

/// Cached per-basis dual-simplex start state: the refactorized basis
/// representation and the structural reduced costs. Both depend only on
/// `(columns, costs, basis)` — never on rhs or bound *values* — so one
/// computation serves every parameter point re-solved from the same
/// basis. Cloning it (per sweep point) copies the LU arrays, which is far
/// cheaper than refactorizing.
#[derive(Debug, Clone)]
pub(crate) struct WarmCache {
    repr: BasisRepr,
    rc: Vec<f64>,
}

/// Computes the [`WarmCache`] for a warm-start point, exactly as the next
/// [`resolve_dual`] would (same refactorization, same reduced-cost
/// arithmetic — re-solve results are bit-identical with or without the
/// cache). No-op if a cache is already present, the basis still contains
/// artificials (re-solves fall back to cold there), or factorization
/// fails (the re-solve will discover that itself and fall back).
pub(crate) fn prime_warm(prepared: &Prepared, warm: &mut WarmStart) {
    if warm.cache.is_some() {
        return;
    }
    let n_cols = prepared.cols.num_cols();
    if warm.basis.iter().any(|&j| j >= n_cols) {
        return;
    }
    let Ok((t, _)) = State::from_basis(prepared, &prepared.b, warm) else {
        return;
    };
    let costs = &prepared.costs;
    let cost_fn = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let y = t.duals(&cost_fn);
    let rc = (0..n_cols)
        .map(|j| t.reduced_cost(j, &y, &cost_fn))
        .collect();
    let repr = t.repr.into_owned();
    warm.cache = Some(WarmCache { repr, rc });
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
    /// Per-structural-column upper bound (`+∞` when unbounded).
    upper: &'a [f64],
    n_arts: usize,
    m: usize,
    /// Effective rhs: `b − Σ_{j at upper} u_j·a_j`. Equal to `b` whenever
    /// no column is flagged at its upper bound.
    b_eff: Vec<f64>,
    /// Nonbasic-at-upper-bound flag per structural column (basic columns
    /// are never flagged; artificials have no upper bound).
    at_upper: Vec<bool>,
    /// Sign of `b` per row at construction, giving each artificial column
    /// `s·e_r` so an artificial start is primal feasible even when a warm
    /// instance carries a negative standardized rhs.
    art_sign: Vec<f64>,
    /// Basic column per row (indices ≥ `cols.num_cols()` denote
    /// artificials).
    basis: Vec<usize>,
    /// Basis representation. Borrowed (from a shared [`WarmCache`]) until
    /// the first pivot/refactorization clones it — zero-pivot re-solves
    /// never copy the factorization at all.
    repr: Cow<'a, BasisRepr>,
    /// Refactorize after this many pivots ([`REFACTOR_EVERY`] outside
    /// tests).
    refactor_every: usize,
    /// Pivot count across all phases run on this state.
    pub(crate) iterations: usize,
    /// Factorization rebuilds (demanded by cadence or construction).
    pub(crate) refactors: usize,
    /// Nonbasic bound flips (no basis change).
    pub(crate) bound_flips: usize,
    /// Full pricing passes over every column.
    pub(crate) full_prices: usize,
}

impl<'a> State<'a> {
    /// Fresh cold-start state, every structural column nonbasic at its
    /// lower bound, from a slack crash basis: rows whose slack can sit
    /// basic at a feasible value (`b_i ≥ 0` and a `+1` singleton slack)
    /// start on the slack, every other row on its artificial.
    fn new(prepared: &'a Prepared, b: &[f64], refactor_every: usize) -> Result<Self, LpError> {
        let cols = &prepared.cols;
        let m = b.len();
        let art_sign: Vec<f64> = b
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
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
            upper: &prepared.upper,
            n_arts: m,
            m,
            b_eff: b.to_vec(),
            at_upper: vec![false; cols.num_cols()],
            art_sign,
            basis,
            repr: Cow::Owned(BasisRepr {
                lu,
                etas: Vec::new(),
            }),
            refactor_every,
            iterations: 0,
            refactors: 0,
            bound_flips: 0,
            full_prices: 0,
        };
        if crashed {
            state.refactor()?;
        }
        Ok(state)
    }

    /// State over an existing basis + bound status (warm start). When the
    /// warm point carries a [`WarmCache`], its representation is adopted
    /// directly (no refactorization) and the cached reduced costs are
    /// returned alongside. Fails with [`LpError::Singular`] if the
    /// recorded basis cannot be factorized.
    fn from_basis(
        prepared: &'a Prepared,
        b: &[f64],
        warm: &'a WarmStart,
    ) -> Result<(Self, Option<Vec<f64>>), LpError> {
        let cols = &prepared.cols;
        let upper = &prepared.upper;
        let m = b.len();
        let basis = warm.basis.clone();
        let at_upper = warm.at_upper.clone();
        assert_eq!(basis.len(), m, "basis size must match row count");
        assert_eq!(at_upper.len(), cols.num_cols(), "bound flags per column");
        let art_sign: Vec<f64> = b
            .iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
        // Effective rhs folds in every nonbasic-at-upper contribution.
        let mut b_eff = b.to_vec();
        for j in 0..cols.num_cols() {
            if at_upper[j] {
                let (rows, vals) = cols.col(j);
                for (&row, &coeff) in rows.iter().zip(vals) {
                    b_eff[row] -= upper[j] * coeff;
                }
            }
        }
        let (repr, cached_rc, need_refactor) = match &warm.cache {
            Some(WarmCache { repr, rc }) => (Cow::Borrowed(repr), Some(rc.clone()), false),
            None => {
                // A placeholder representation: `refactor` below fills it
                // in from the recorded basis before any solve touches it.
                let repr = BasisRepr {
                    lu: SparseLu::placeholder(),
                    etas: Vec::new(),
                };
                (Cow::Owned(repr), None, true)
            }
        };
        let mut state = State {
            cols,
            upper,
            n_arts: m,
            m,
            b_eff,
            at_upper,
            art_sign,
            basis,
            repr,
            refactor_every: REFACTOR_EVERY,
            iterations: 0,
            refactors: 0,
            bound_flips: 0,
            full_prices: 0,
        };
        if need_refactor {
            state.refactor()?;
        }
        Ok((state, cached_rc))
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

    /// Upper bound of column `j` (`+∞` for artificials).
    pub(crate) fn upper_of(&self, j: usize) -> f64 {
        if j < self.upper.len() {
            self.upper[j]
        } else {
            f64::INFINITY
        }
    }

    /// Whether nonbasic column `j` currently sits at its upper bound.
    pub(crate) fn is_at_upper(&self, j: usize) -> bool {
        j < self.at_upper.len() && self.at_upper[j]
    }

    /// The basic column of row `r` (pricing needs the leaving variable).
    pub(crate) fn basis_col(&self, r: usize) -> usize {
        self.basis[r]
    }

    /// Flags structural column `j` as nonbasic-at-upper, folding its
    /// contribution into the effective rhs.
    fn set_at_upper(&mut self, j: usize) {
        debug_assert!(!self.at_upper[j]);
        self.at_upper[j] = true;
        let u = self.upper[j];
        let (rows, vals) = self.cols.col(j);
        for (&row, &coeff) in rows.iter().zip(vals) {
            self.b_eff[row] -= u * coeff;
        }
    }

    /// Clears the nonbasic-at-upper flag of structural column `j`,
    /// restoring its contribution to the effective rhs.
    fn clear_at_upper(&mut self, j: usize) {
        debug_assert!(self.at_upper[j]);
        self.at_upper[j] = false;
        let u = self.upper[j];
        let (rows, vals) = self.cols.col(j);
        for (&row, &coeff) in rows.iter().zip(vals) {
            self.b_eff[row] += u * coeff;
        }
    }

    /// Jumps nonbasic column `j` to its other bound (no basis change).
    fn flip_bound(&mut self, j: usize) {
        if self.at_upper[j] {
            self.clear_at_upper(j);
        } else {
            self.set_at_upper(j);
        }
        self.bound_flips += 1;
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
        scratch.extend_from_slice(&self.b_eff);
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

    /// Current basic solution `x_B = B⁻¹ b_eff` (nonbasic-at-upper
    /// contributions already folded into the effective rhs).
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
        self.repr.to_mut().etas.push(Eta::from_pivot(r, d));
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
        let repr = self.repr.to_mut();
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
/// phase 2). Nonbasic columns may enter from either bound, the ratio test
/// also watches basic variables climbing to *their* upper bounds, and an
/// entering column whose own bound binds first just flips (no basis
/// change).
fn run_phase(
    t: &mut State<'_>,
    cost: &dyn Fn(usize) -> f64,
    allowed: &dyn Fn(usize) -> bool,
    iter_budget: &mut usize,
) -> Result<PhaseEnd, LpError> {
    let n_total = t.cols.num_cols() + t.n_arts;
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
        // Direction sign: +1 entering upward from lower bound, −1 moving
        // down from upper bound. Basic values change at rate −s·d.
        let from_upper = t.is_at_upper(j);
        let s = if from_upper { -1.0 } else { 1.0 };

        t.ftran_into(j, &mut scratch, &mut d);
        t.basic_values_into(&mut scratch, &mut x);
        // Ratio test over both bounds of every basic variable.
        let mut leave: Option<usize> = None;
        let mut leave_to_upper = false;
        let mut theta = f64::INFINITY;
        for i in 0..t.m {
            let rate = s * d[i]; // decrease rate of x_i per unit step
            let (ratio, to_upper) = if rate > TOL {
                ((x[i].max(0.0)) / rate, false)
            } else if rate < -TOL {
                let ub = t.upper_of(t.basis[i]);
                if ub.is_finite() {
                    (((ub - x[i]).max(0.0)) / -rate, true)
                } else {
                    continue;
                }
            } else {
                continue;
            };
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
                leave_to_upper = to_upper;
            }
        }
        // The entering column's own range can bind before any basic
        // variable: a bound flip, no pivot.
        let u_j = t.upper_of(j);
        if u_j.is_finite() && u_j <= theta {
            t.flip_bound(j);
            continue;
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
        if from_upper {
            t.clear_at_upper(j);
        }
        let leaving = t.basis[r];
        t.pivot(r, j, &d);
        if leave_to_upper {
            t.set_at_upper(leaving);
        }
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
/// a right-hand-side or bound change.
///
/// The warm point must come from a previous optimal solve of the same
/// `prepared` columns (same costs); only `b` and the bound values may have
/// changed. Artificials are barred from entering, mirroring phase 2. A
/// basic variable can violate either of its bounds; the leaving choice
/// picks the largest devex-weighted violation on either side and the dual
/// ratio test admits entering candidates from both bounds with the
/// matching sign condition.
pub(crate) fn resolve_dual(
    prepared: &Prepared,
    b: &[f64],
    num_vars: usize,
    warm: &WarmStart,
) -> DualOutcome {
    let n_cols = prepared.cols.num_cols();
    let Ok((mut t, cached_rc)) = State::from_basis(prepared, b, warm) else {
        return DualOutcome::Stalled;
    };
    let costs = &prepared.costs;
    let cost_fn = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };

    let b_scale: f64 = b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let feas_tol = TOL * (1.0 + b_scale);
    let mut budget = warm_budget(t.m);
    let mut since_refactor = 0usize;

    // Incrementally maintained solver state — the dual hot loop's big
    // saving over recomputation. `x` and `rc` follow the textbook update
    // formulas per pivot and are rebuilt from scratch at refactorization
    // points (the same cadence that already bounds eta-file drift):
    //
    // * `x` (basic values): `x ← x − θ_p·s·d`, entering value at slot `r`;
    // * `rc` (structural reduced costs): `rc_j ← rc_j − θ_d·α_j` with
    //   `θ_d = rc_q/α_q`, `rc_leaving = −θ_d` — no per-pivot btran for
    //   duals and no second pass over the column nonzeros;
    // * `in_basis`: two flag writes per pivot instead of an O(n) rebuild.
    let mut x = t.basic_values();
    let mut rc: Vec<f64> = match cached_rc {
        // The cached reduced costs are exactly what the recomputation
        // below would produce (same repr, same arithmetic).
        Some(rc) => rc,
        None => {
            let y = t.duals(&cost_fn);
            t.full_prices += 1;
            (0..n_cols)
                .map(|j| t.reduced_cost(j, &y, &cost_fn))
                .collect()
        }
    };
    let mut in_basis = basis_mask(&t, n_cols + t.n_arts);
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
        // bound violation (below lower, or above a finite upper) leaves.
        let mut leave: Option<usize> = None;
        let mut worst = 0.0;
        let mut above = false;
        for i in 0..t.m {
            let ub = t.upper_of(t.basis[i]);
            let (viol, up) = {
                let viol_low = -x[i];
                let viol_up = if ub.is_finite() {
                    x[i] - ub
                } else {
                    f64::NEG_INFINITY
                };
                if viol_up > viol_low {
                    (viol_up, true)
                } else {
                    (viol_low, false)
                }
            };
            if viol > feas_tol {
                let score = viol * viol / row_w[i];
                if score > worst {
                    worst = score;
                    leave = Some(i);
                    above = up;
                }
            }
        }
        let Some(r) = leave else {
            let sol = extract_solution(&t, prepared, num_vars, true);
            let warm = WarmStart {
                basis: t.basis,
                at_upper: t.at_upper,
                cache: None,
            };
            return DualOutcome::Optimal(sol, warm);
        };
        if budget == 0 {
            return DualOutcome::Stalled;
        }
        budget -= 1;

        t.btran_unit_into(r, &mut scratch, &mut rho);
        // Dual ratio test over structural (non-artificial) columns. With
        // `σ = +1` (leaving drops to its lower bound) an at-lower column
        // qualifies when `σ·α < 0` and an at-upper column when `σ·α > 0`;
        // `σ = −1` (leaving rises to its upper bound) mirrors both. The
        // pivot row is kept for the reduced-cost update below.
        let sigma = if above { -1.0 } else { 1.0 };
        t.cols.gather_dot(&rho, &mut alphas);
        let mut entering: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut best_alpha = 0.0f64;
        for j in 0..n_cols {
            if in_basis[j] {
                continue;
            }
            let alpha = alphas[j];
            let ae = sigma * alpha;
            let ratio = if t.is_at_upper(j) {
                if ae > TOL {
                    // Dual feasibility keeps rc ≤ 0 at an upper bound.
                    (-rc[j]).max(0.0) / ae
                } else {
                    continue;
                }
            } else if ae < -TOL {
                rc[j].max(0.0) / -ae
            } else {
                continue;
            };
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
        let Some(q) = entering else {
            // Row r cannot be repaired: dual unbounded, primal infeasible.
            let warm = WarmStart {
                basis: t.basis,
                at_upper: t.at_upper,
                cache: None,
            };
            return DualOutcome::Infeasible(warm);
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

        // Update the stored basic values: the entering variable moves off
        // its bound by `θ_p ≥ 0` until the leaving variable reaches the
        // bound it violated (`s_q` is the entering direction sign).
        let leaving = t.basis[r];
        let target = if above { t.upper_of(leaving) } else { 0.0 };
        let from_upper_q = t.is_at_upper(q);
        let s_q = if from_upper_q { -1.0 } else { 1.0 };
        let theta_p = (x[r] - target) / (s_q * d[r]);
        for i in 0..t.m {
            x[i] -= theta_p * s_q * d[i];
        }
        x[r] = if from_upper_q {
            t.upper_of(q) - theta_p
        } else {
            theta_p
        };
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
        if from_upper_q {
            t.clear_at_upper(q);
        }
        t.pivot(r, q, &d);
        if above {
            // The leaving variable settles at the bound it violated.
            t.set_at_upper(leaving);
        }
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
    /// point it ended on (boxed — a `WarmStart` dwarfs the other variants).
    Optimal(Solution, Box<WarmStart>),
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
/// (feasibility depends only on `A`, `b`, and bounds) but its reduced
/// costs are stale, so dual-simplex warm starts are unsound; instead we
/// resume the phase-2 primal loop from the old basis with artificials
/// barred. The warm point's cached reduced costs (if any) are ignored —
/// they were computed under the old costs — but a cached basis
/// *representation* is cost-independent and is adopted as-is.
///
/// Primal feasibility of the warm point is verified up front (a caller
/// that chained rhs/bound edits since the last re-solve may have broken
/// it); violations return [`PrimalOutcome::Stalled`] for a cold fallback.
pub(crate) fn resolve_primal(
    prepared: &Prepared,
    b: &[f64],
    num_vars: usize,
    warm: &WarmStart,
) -> PrimalOutcome {
    let n_cols = prepared.cols.num_cols();
    if warm.basis.iter().any(|&j| j >= n_cols) {
        return PrimalOutcome::Stalled;
    }
    let Ok((mut t, _cached_rc)) = State::from_basis(prepared, b, warm) else {
        return PrimalOutcome::Stalled;
    };
    let x = t.basic_values();
    let b_scale: f64 = b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    let feas_tol = TOL * (1.0 + b_scale);
    for (i, &xi) in x.iter().enumerate() {
        let ub = t.upper_of(t.basis[i]);
        if xi < -feas_tol || (ub.is_finite() && xi > ub + feas_tol) {
            return PrimalOutcome::Stalled;
        }
    }
    let costs = &prepared.costs;
    let phase2_cost = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let phase2_allowed = move |j: usize| j < n_cols;
    let mut iter_budget = warm_budget(t.m);
    match run_phase(&mut t, &phase2_cost, &phase2_allowed, &mut iter_budget) {
        Ok(PhaseEnd::Optimal) => {
            let sol = extract_solution(&t, prepared, num_vars, true);
            let warm = WarmStart {
                basis: t.basis,
                at_upper: t.at_upper,
                cache: None,
            };
            PrimalOutcome::Optimal(sol, Box::new(warm))
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
    for (j, v) in col_values.iter_mut().enumerate() {
        if t.at_upper[j] {
            *v = t.upper[j];
        }
    }
    for (i, &j) in t.basis.iter().enumerate() {
        if j < n {
            // Clamp tiny bound overshoots from roundoff.
            let ub = t.upper[j];
            col_values[j] = if xb[i] < 0.0 && xb[i] > -TOL * 100.0 {
                0.0
            } else if xb[i] > ub && xb[i] < ub + TOL * 100.0 {
                ub
            } else {
                xb[i]
            };
        }
    }
    let mut values = Vec::with_capacity(prepared.recover.len());
    for rec in &prepared.recover {
        values.push(rec.value(&col_values));
    }
    let raw_obj: f64 = prepared
        .costs
        .iter()
        .zip(&col_values)
        .map(|(c, x)| c * x)
        .sum::<f64>()
        + prepared.obj_offset;
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
        bound_flips: t.bound_flips,
        full_prices: t.full_prices,
        warm,
    };
    if qp_obs::enabled() {
        qp_obs::counter_add("lp_solves_total", 1);
        qp_obs::counter_add("lp_pivots_total", stats.iterations as u64);
        qp_obs::counter_add("lp_refactors_total", stats.refactors as u64);
        qp_obs::counter_add("lp_bound_flips_total", stats.bound_flips as u64);
        qp_obs::counter_add("lp_full_prices_total", stats.full_prices as u64);
        qp_obs::observe("lp_pivots_per_solve", stats.iterations as f64);
        qp_obs::point(
            "lp.solve",
            &[
                ("warm", qp_obs::FieldValue::Bool(warm)),
                ("pivots", qp_obs::FieldValue::U64(stats.iterations as u64)),
                ("refactors", qp_obs::FieldValue::U64(stats.refactors as u64)),
                (
                    "bound_flips",
                    qp_obs::FieldValue::U64(stats.bound_flips as u64),
                ),
                (
                    "full_prices",
                    qp_obs::FieldValue::U64(stats.full_prices as u64),
                ),
            ],
        );
    }
    Solution::new(num_vars, values, objective, duals, stats)
}

/// Full two-phase cold solve over a prepared standard-form problem.
/// Returns the solution together with the final (optimal) warm-start
/// point for warm re-solves.
pub(crate) fn solve_two_phase(
    prepared: &Prepared,
    b: &[f64],
    num_vars: usize,
) -> Result<(Solution, WarmStart), LpError> {
    solve_cold(prepared, b, num_vars, REFACTOR_EVERY)
}

/// [`solve_two_phase`] at an explicit refactorization cadence (the tests
/// pin that the cadence never changes the optimum).
fn solve_cold(
    prepared: &Prepared,
    b: &[f64],
    num_vars: usize,
    refactor_every: usize,
) -> Result<(Solution, WarmStart), LpError> {
    let m = b.len();
    let n_cols = prepared.cols.num_cols();
    let mut iter_budget = 200 * (m + 1) + 20 * n_cols + 20_000;

    let mut t = State::new(prepared, b, refactor_every)?;

    // ---- Phase 1: minimize the sum of artificials. ----
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
    if infeas > TOL * (1.0 + b.iter().sum::<f64>().abs()) {
        return Err(LpError::Infeasible);
    }

    // Pivot lingering artificials out of the basis where possible; rows
    // where no structural pivot exists are redundant and are neutralized by
    // keeping the artificial basic at value zero but barring it from
    // re-entering (it also never leaves, since its row is redundant).
    for r in 0..m {
        if t.basis[r] < n_cols {
            continue;
        }
        // Find a nonbasic structural column with a usable pivot in row r.
        // At-upper columns are skipped: swapping in an at-lower column at
        // value zero keeps the solution (and `b_eff`) untouched.
        let mask = basis_mask(&t, n_cols + t.n_arts);
        for j in 0..n_cols {
            if mask[j] || t.is_at_upper(j) {
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

    // ---- Phase 2: original costs, artificials barred. ----
    let costs = &prepared.costs;
    let phase2_cost = move |j: usize| if j < costs.len() { costs[j] } else { 0.0 };
    let phase2_allowed = move |j: usize| j < n_cols;
    match run_phase(&mut t, &phase2_cost, &phase2_allowed, &mut iter_budget)? {
        PhaseEnd::Unbounded => return Err(LpError::Unbounded),
        PhaseEnd::Optimal => {}
    }

    let sol = extract_solution(&t, prepared, num_vars, false);
    let warm = WarmStart {
        basis: t.basis,
        at_upper: t.at_upper,
        cache: None,
    };
    Ok((sol, warm))
}

#[cfg(test)]
mod tests {
    use crate::model::Prepared;
    use crate::{LpError, Model, Sense};

    #[test]
    fn classic_max_example() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
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
        // Diet-style: min 2x + 3y, x + y ≥ 4, x ≥ 1 → x=4? No: cost of x
        // is lower, so x=4,y=0 gives 8; but x ≥ 1 already satisfied.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 8.0).abs() < 1e-7);
        assert!((sol.value(x) - 4.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x=2, y=1, obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
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
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_le(&[(x, 1.0)], 1.0);
        m.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 0.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn no_constraints_bounded_by_box() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-7);
        assert!((sol.objective() - 14.0).abs() < 1e-7);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_split() {
        // min |style|: min x s.t. x ≥ -3 as a free var with constraint.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_ge(&[(x, 1.0)], -3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) + 3.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn negative_lower_bound() {
        // max x + y, -2 ≤ x ≤ 1, y ≤ 2 - x, y ≥ 0.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", -2.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_le(&[(x, 1.0), (y, 1.0)], 2.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 2.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn upper_bounded_free_below_variable() {
        // min -x with x ≤ 5 (no lower bound) → x = 5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, 5.0, -1.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 5.0).abs() < 1e-7);
        assert!((sol.objective() + 5.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    #[test]
    fn fixed_variable() {
        // x fixed at 3 by bounds.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 3.0, 3.0, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
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
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
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
            .map(|i| {
                m.add_var(
                    &format!("x{i}"),
                    0.0,
                    f64::INFINITY,
                    2f64.powi(n as i32 - 1 - i as i32),
                )
            })
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
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
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
        let p1 = m.add_var("p1", 0.0, f64::INFINITY, 10.0);
        let p2 = m.add_var("p2", 0.0, f64::INFINITY, 1.0);
        m.add_eq(&[(p1, 1.0), (p2, 1.0)], 1.0);
        m.add_le(&[(p2, 1.0)], 0.3);
        let sol = m.solve().unwrap();
        assert!((sol.value(p1) - 0.7).abs() < 1e-7);
        assert!((sol.value(p2) - 0.3).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    /// A box-bounded LP solves to the same optimum whether its upper
    /// bounds are declared on the variables (handled in-solver by the
    /// bounded-variable ratio test) or spelled out as explicit `≤` rows.
    #[test]
    fn native_bounds_match_upper_bound_rows() {
        let n = 10;
        let build = |explicit_rows: bool| {
            let mut m = Model::new(Sense::Minimize);
            let xs: Vec<_> = (0..n)
                .map(|j| {
                    let hi = 2.0 + (j % 4) as f64;
                    m.add_var(
                        &format!("x{j}"),
                        ((j % 3) as f64 - 2.0) / 2.0, // −1, −½, 0: keeps rows feasible
                        if explicit_rows { f64::INFINITY } else { hi },
                        ((j * 5 % 13) as f64 - 6.0) / 2.0,
                    )
                })
                .collect();
            for i in 0..6 {
                let terms: Vec<_> = xs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (i * 2 + j) % 3 != 0)
                    .map(|(j, &x)| (x, 1.0 + ((i + 2 * j) % 3) as f64))
                    .collect();
                m.add_le(&terms, 5.0 + i as f64);
            }
            if explicit_rows {
                for (j, &x) in xs.iter().enumerate() {
                    m.add_le(&[(x, 1.0)], 2.0 + (j % 4) as f64);
                }
            }
            (m, xs)
        };
        let (rows_model, _) = build(true);
        let (native_model, xs) = build(false);
        let rows = rows_model.solve().unwrap();
        let native = native_model.solve().unwrap();
        rows.certify(&rows_model).unwrap();
        native.certify(&native_model).unwrap();
        assert!(
            (rows.objective() - native.objective()).abs() <= 1e-9 * (1.0 + rows.objective().abs()),
            "rows {} vs native {}",
            rows.objective(),
            native.objective()
        );
        // The native point must respect every bound.
        for (j, &x) in native.values().iter().enumerate() {
            let (lo, hi) = native_model.var_bounds(xs[j]);
            assert!(
                x >= lo - 1e-7 && x <= hi + 1e-7,
                "x{j} = {x} ∉ [{lo}, {hi}]"
            );
        }
    }

    /// A variable driven to its upper bound by the objective alone is
    /// resolved by a bound flip, not a pivot, and the counter shows it.
    #[test]
    fn bound_flip_replaces_pivot() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 7.0).abs() < 1e-9);
        assert!((sol.objective() - 14.0).abs() < 1e-9);
        assert_eq!(sol.stats().iterations, 0, "no basis change expected");
        assert_eq!(sol.stats().bound_flips, 1);
        sol.certify(&m).unwrap();
    }

    /// Bounded variables keep duals meaningful: binding user rows still
    /// price.
    #[test]
    fn native_bounds_preserve_row_duals() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 3.0);
        let y = m.add_var("y", 0.0, 10.0, 5.0);
        let r = m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective() - 20.0).abs() < 1e-7); // y = 4
        assert!((sol.dual(r) - 5.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    /// A fixed variable (`lo == hi`) next to a box-bounded one: both stay
    /// in their ranges and the optimum certifies.
    #[test]
    fn native_bounds_fixed_variable() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 3.0, 3.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_ge(&[(x, 1.0), (y, 1.0)], 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
        assert!((sol.value(y) - 2.0).abs() < 1e-7);
        sol.certify(&m).unwrap();
    }

    /// A variable bound and a row that contradict each other are
    /// infeasible, exactly as two contradicting rows are.
    #[test]
    fn native_bounds_detect_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_ge(&[(x, 1.0)], 2.0); // x ≤ 1 by bound, x ≥ 2 by row
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    /// Frequent refactorization must not change results (it only resets
    /// the eta file).
    #[test]
    fn refactor_cadence_is_result_invariant() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
        m.add_le(&[(x, 1.0)], 4.0);
        m.add_le(&[(y, 2.0)], 12.0);
        m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let p = Prepared::from_model(&m).unwrap();
        let (every_pivot, _) = super::solve_cold(&p, &p.b, m.num_vars(), 1).unwrap();
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
