//! Entering-variable pricing for the primal simplex: devex
//! reference-framework pricing (Forrest & Goldfarb) over a **candidate
//! list**, with Bland's rule as the anti-cycling fallback.
//!
//! A periodic full pass ranks all attractive columns by `rc²/w_j` and
//! keeps the best few hundred; between refreshes each pivot prices only
//! the candidates. Weights approximate steepest-edge norms and are updated
//! from the pivot row restricted to the candidate set, so the extra
//! per-pivot cost is one btran plus a candidate scan instead of a full
//! `n`-column pass — the difference between `O(n)` and `O(|C|)` pricing
//! on the 16k-column strategy LPs. After a run of degenerate pivots the
//! simplex switches to Bland's rule: a full scan taking the lowest-index
//! attractive column, whose termination guarantee needs index order, not
//! weights.
//!
//! Optimality is never declared from the candidate list alone: when the
//! candidates run dry a full refresh pass re-prices every column, and only
//! an empty *full* pass terminates the phase. Pricing is completely
//! index-deterministic (no hashing, no randomness), so solver pivot paths
//! are reproducible run to run and across thread counts.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math

use crate::simplex::{State, TOL};

/// Rebuild the candidate list after this many pivots even if it still has
/// attractive members (reduced costs drift as the basis moves).
const REFRESH_EVERY: usize = 64;

/// Reset the reference framework when the largest weight exceeds this
/// (classic devex safeguard against unbounded weight growth).
const WEIGHT_RESET: f64 = 1e8;

/// Stateful pricer driving one simplex phase.
pub(crate) struct Pricer {
    /// Devex reference weights, per column (structural + artificial).
    weights: Vec<f64>,
    /// Candidate columns, ranked best-first at the last refresh.
    candidates: Vec<usize>,
    /// Pivots since the last full refresh.
    since_refresh: usize,
    /// Cap on the candidate list length.
    cand_cap: usize,
    /// Full pricing passes performed (the observable counter).
    full_prices: usize,
}

impl Pricer {
    pub(crate) fn new(n_total: usize) -> Self {
        Pricer {
            weights: vec![1.0; n_total],
            candidates: Vec::new(),
            since_refresh: REFRESH_EVERY, // force a refresh on first use
            cand_cap: (n_total / 8).clamp(32, 512),
            full_prices: 0,
        }
    }

    /// Full pricing passes performed so far.
    pub(crate) fn full_prices(&self) -> usize {
        self.full_prices
    }

    /// How attractive column `j` is: positive iff moving it off its bound
    /// improves the objective (`−rc` at lower bound, `+rc` at upper).
    fn violation(t: &State<'_>, j: usize, y: &[f64], cost: &dyn Fn(usize) -> f64) -> f64 {
        let rc = t.reduced_cost(j, y, cost);
        if t.is_at_upper(j) {
            rc
        } else {
            -rc
        }
    }

    /// Picks the entering column, or `None` when a full pass certifies
    /// optimality. Under Bland's rule (`bland`) the choice is the
    /// lowest-index attractive column over a full scan.
    pub(crate) fn select(
        &mut self,
        t: &State<'_>,
        y: &[f64],
        cost: &dyn Fn(usize) -> f64,
        allowed: &dyn Fn(usize) -> bool,
        in_basis: &[bool],
        bland: bool,
    ) -> Option<usize> {
        if bland {
            self.full_prices += 1;
            return (0..in_basis.len())
                .find(|&j| !in_basis[j] && allowed(j) && Self::violation(t, j, y, cost) > TOL);
        }

        // Devex: price the candidate list; refresh when stale or dry.
        let mut refreshed = self.since_refresh >= REFRESH_EVERY;
        if refreshed {
            self.refresh(t, y, cost, allowed, in_basis);
        }
        loop {
            let mut entering: Option<usize> = None;
            let mut best_score = 0.0f64;
            for &j in &self.candidates {
                // `on_pivot` pushes leaving variables unconditionally, so
                // barred columns (phase-2 artificials) can sit in the
                // list: filter on `allowed` here, not just at refresh.
                if in_basis[j] || !allowed(j) {
                    continue;
                }
                let v = Self::violation(t, j, y, cost);
                if v > TOL {
                    let score = v * v / self.weights[j];
                    if score > best_score {
                        best_score = score;
                        entering = Some(j);
                    }
                }
            }
            if entering.is_some() {
                self.since_refresh += 1;
                return entering;
            }
            if refreshed {
                // A full pass found nothing attractive: optimal.
                return None;
            }
            self.refresh(t, y, cost, allowed, in_basis);
            refreshed = true;
        }
    }

    /// Full pricing pass: re-ranks every attractive nonbasic column by
    /// devex score and keeps the best `cand_cap` as the candidate list.
    fn refresh(
        &mut self,
        t: &State<'_>,
        y: &[f64],
        cost: &dyn Fn(usize) -> f64,
        allowed: &dyn Fn(usize) -> bool,
        in_basis: &[bool],
    ) {
        self.full_prices += 1;
        self.since_refresh = 0;
        if self.weights.iter().any(|&w| w > WEIGHT_RESET) {
            // New reference framework: the current nonbasic set.
            self.weights.iter_mut().for_each(|w| *w = 1.0);
        }
        let mut scored: Vec<(f64, usize)> = Vec::new();
        for j in 0..in_basis.len() {
            if in_basis[j] || !allowed(j) {
                continue;
            }
            let v = Self::violation(t, j, y, cost);
            if v > TOL {
                scored.push((v * v / self.weights[j], j));
            }
        }
        // Deterministic order: score descending, index ascending on ties.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(self.cand_cap);
        self.candidates.clear();
        self.candidates.extend(scored.into_iter().map(|(_, j)| j));
    }

    /// Devex weight update after a pivot on row `r` with entering column
    /// `q` and ftran direction `d` (call *before* the basis is mutated).
    ///
    /// The exact update needs the full pivot row `αᵣ = eᵣᵀB⁻¹A`; restricting
    /// it to the candidate list keeps the cost at one btran plus a short
    /// scan while still steering the columns that can actually be picked
    /// next. The leaving variable re-enters the nonbasic pool with the
    /// textbook weight `max(w_q/α_q², 1)` and joins the candidates.
    pub(crate) fn on_pivot(
        &mut self,
        t: &State<'_>,
        r: usize,
        q: usize,
        d: &[f64],
        in_basis: &[bool],
    ) {
        let alpha_q = d[r];
        if alpha_q == 0.0 {
            return; // numerically degenerate; weights keep their old values
        }
        let w_q = self.weights[q];
        let rho = t.btran_unit(r);
        for &j in &self.candidates {
            if j == q || in_basis[j] {
                continue;
            }
            let alpha = t.row_coeff(j, &rho);
            if alpha != 0.0 {
                let cand = (alpha / alpha_q) * (alpha / alpha_q) * w_q;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                }
            }
        }
        let leaving = t.basis_col(r);
        self.weights[leaving] = (w_q / (alpha_q * alpha_q)).max(1.0);
        if !self.candidates.contains(&leaving) {
            self.candidates.push(leaving);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Model, Sense};

    #[test]
    fn devex_solves_degenerate_lp_via_bland_fallback() {
        // The Klee–Minty-style trigger from the simplex tests: the Bland
        // fallback must still terminate and agree.
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
        sol.certify(&m).unwrap();
    }
}
