//! A `SimplexInstance` runs phase 1 once and shares its end state across
//! cold solves under new costs. Over seeded random models (`≤`, `≥` and
//! `=` rows; finite, infinite and negative bounds, free and fixed
//! variables, all written through the model over columns `x ≥ 0`;
//! maximization, infeasible models and redundant rows), each
//! `set_objectives` + `solve()` must return bit for bit what a solve that
//! runs phase 1 afresh returns, or the same error. A chain of rhs edits,
//! each re-solved warm with `resolve()` as a capacity sweep does, must
//! agree with fresh solves and certify.

use qp_lp::{LpError, Model, Relation, Sense, SimplexInstance, Solution, VarId};

const INF: f64 = f64::INFINITY;

/// splitmix64: a small seeded generator, so every case replays by seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A multiple of 1/4 in `[lo, hi]`: exact in binary, and coarse
    /// enough to make ties and degenerate vertices common.
    fn quarter(&mut self, lo: i64, hi: i64) -> f64 {
        let steps = (hi - lo) as u64 * 4 + 1;
        (lo * 4 + self.below(steps) as i64) as f64 / 4.0
    }

    /// A nonzero coefficient in `±[1/4, 3]`.
    fn coeff(&mut self) -> f64 {
        let c = self.quarter(1, 3) - 0.75;
        if self.below(2) == 0 {
            c
        } else {
            -c
        }
    }
}

/// One variable of a random model over its model columns `y ≥ 0`:
/// `x = Σ s·y + shift`.
struct Var {
    cols: Vec<(VarId, f64)>,
    shift: f64,
}

/// The model terms of `Σ c·x` over `terms` (indices into `vars`), and the
/// constant its shifts add.
fn expand(vars: &[Var], terms: &[(usize, f64)]) -> (Vec<(VarId, f64)>, f64) {
    let mut out = Vec::new();
    let mut shift = 0.0;
    for &(j, c) in terms {
        out.extend(vars[j].cols.iter().map(|&(y, s)| (y, c * s)));
        shift += c * vars[j].shift;
    }
    (out, shift)
}

/// A random model's variables over its columns, and its bound rows.
struct Layout {
    vars: Vec<Var>,
    bound_rows: Vec<usize>,
}

/// A random model with zero costs, and its layout. Each variable `x`
/// gets random bounds, written through the model: a finite lower bound
/// as a shift `x = y + lo` of the rows' right-hand sides, an infinite one
/// as a pair `x = y⁺ − y⁻`, a finite upper bound as a `≤` row (a bound
/// row), and a fixed variable as an `=` row. The rows hold at a random
/// point within the bounds, except in about one model in eight, which
/// also gets a contradictory pair of rows.
fn random_model(rng: &mut Rng) -> (Model, Layout) {
    let sense = if rng.below(3) == 0 {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let n = 2 + rng.below(6) as usize;
    let mut vars = Vec::with_capacity(n);
    let mut point = Vec::with_capacity(n);
    let mut bound_rows = Vec::new();
    for _ in 0..n {
        let (lo, hi) = match rng.below(6) {
            0 => (0.0, INF),
            1 => (0.0, rng.quarter(1, 6)),
            2 => (rng.quarter(-4, -1), INF),
            3 => (-INF, rng.quarter(-2, 4)),
            4 => (-INF, INF),
            _ => {
                // Finite on both sides, sometimes fixed.
                let lo = rng.quarter(-3, 2);
                (lo, lo + rng.quarter(0, 4))
            }
        };
        let x = if lo.is_finite() {
            Var {
                cols: vec![(m.add_var(0.0), 1.0)],
                shift: lo,
            }
        } else {
            Var {
                cols: vec![(m.add_var(0.0), 1.0), (m.add_var(0.0), -1.0)],
                shift: 0.0,
            }
        };
        if hi == lo {
            m.add_eq(&x.cols, 0.0);
        } else if hi.is_finite() {
            bound_rows.push(m.add_le(&x.cols, hi - x.shift));
        }
        vars.push(x);
        point.push(rng.quarter(-2, 4).clamp(lo, hi));
    }
    let mut eq_rows: Vec<(Vec<(VarId, f64)>, f64)> = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let mut terms = Vec::new();
        let mut activity = 0.0;
        for (j, &x) in point.iter().enumerate() {
            if rng.below(3) != 0 {
                let c = rng.coeff();
                terms.push((j, c));
                activity += c * x;
            }
        }
        let (terms, shift) = expand(&vars, &terms);
        match rng.below(3) {
            0 => {
                m.add_le(&terms, activity + rng.quarter(0, 3) - shift);
            }
            1 => {
                m.add_ge(&terms, activity - rng.quarter(0, 3) - shift);
            }
            _ => {
                m.add_eq(&terms, activity - shift);
                eq_rows.push((terms, activity - shift));
            }
        }
    }
    // Redundant rows: a doubled copy of an equality leaves an artificial
    // that phase 1 cannot pivot out.
    if let Some((terms, rhs)) = eq_rows.first() {
        if rng.below(2) == 0 {
            let doubled: Vec<_> = terms.iter().map(|&(v, c)| (v, 2.0 * c)).collect();
            m.add_eq(&doubled, 2.0 * rhs);
        }
    }
    if rng.below(8) == 0 {
        let terms: Vec<_> = (0..n).map(|j| (j, rng.coeff())).collect();
        let (terms, shift) = expand(&vars, &terms);
        let rhs = rng.quarter(-4, 4) - shift;
        m.add_le(&terms, rhs);
        m.add_ge(&terms, rhs + 1.0);
    }
    (m, Layout { vars, bound_rows })
}

/// Random costs: one per variable `x`, written onto its columns (a pair
/// `y⁺ − y⁻` costs `c` and `−c`), then one per column appended since.
fn random_costs(rng: &mut Rng, layout: &Layout, num_cols: usize) -> Vec<(VarId, f64)> {
    let mut costs = Vec::with_capacity(num_cols);
    for x in &layout.vars {
        let c = rng.quarter(-5, 5);
        costs.extend(x.cols.iter().map(|&(y, s)| (y, c * s)));
    }
    while costs.len() < num_cols {
        costs.push((VarId::from_index(costs.len()), rng.quarter(-5, 5)));
    }
    costs
}

/// Asserts two solve outcomes are bit for bit equal: values, objective
/// and duals, or the same error.
fn assert_same(got: &Result<Solution, LpError>, want: &Result<Solution, LpError>, case: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g.values()), bits(w.values()), "{case}: values");
            assert_eq!(
                g.objective().to_bits(),
                w.objective().to_bits(),
                "{case}: objective"
            );
            let duals = |s: &Solution| (0..s.num_rows()).map(|r| s.dual(r).to_bits()).collect();
            let (gd, wd): (Vec<u64>, Vec<u64>) = (duals(g), duals(w));
            assert_eq!(gd, wd, "{case}: duals");
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{case}: error"),
        _ => panic!("{case}: got {got:?}, want {want:?}"),
    }
}

/// Asserts a solve that reused phase 1 counted no more work than the
/// solve that ran it.
fn assert_counts_phase_two_only(got: &Solution, full: &Solution, case: &str) {
    let (g, f) = (got.stats(), full.stats());
    assert!(!g.warm, "{case}: a cold solve");
    assert!(
        g.iterations <= f.iterations
            && g.refactors <= f.refactors
            && g.full_prices <= f.full_prices,
        "{case}: reused {g:?} vs full {f:?}"
    );
}

#[test]
fn set_objectives_then_solve_matches_a_fresh_model_solve() {
    let (mut optimal, mut infeasible, mut unbounded, mut reused_less) = (0, 0, 0, 0);
    for seed in 0..400 {
        let mut rng = Rng(seed);
        let (model, layout) = random_model(&mut rng);
        let mut inst = model.instance();
        for k in 0..4 {
            let case = format!("seed {seed} cost vector {k}");
            let costs = random_costs(&mut rng, &layout, model.num_vars());
            let mut fresh = model.clone();
            for &(v, c) in &costs {
                fresh.set_objective(v, c);
            }
            let want = fresh.solve();
            inst.set_objectives(&costs).unwrap();
            let got = inst.solve();
            assert_same(&got, &want, &case);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    optimal += 1;
                    if k == 0 {
                        assert_eq!(g.stats(), w.stats(), "{case}: the solve that runs phase 1");
                    } else {
                        assert_counts_phase_two_only(g, w, &case);
                        reused_less += usize::from(g.stats().iterations < w.stats().iterations);
                    }
                }
                (Err(LpError::Infeasible), _) => infeasible += 1,
                (Err(LpError::Unbounded), _) => unbounded += 1,
                _ => {}
            }
        }
    }
    // The generator reaches every outcome, and reuse saves pivots.
    assert!(
        optimal >= 600 && infeasible >= 100 && unbounded >= 300 && reused_less >= 300,
        "optimal {optimal}, infeasible {infeasible}, unbounded {unbounded}, \
         reused with fewer pivots {reused_less}"
    );
}

/// One structural edit of an instance.
#[derive(Debug, Clone)]
enum Edit {
    Rhs(usize, f64),
    /// A new rhs of a bound row: the bound moves.
    Bound(usize, f64),
    Column(f64, Vec<(usize, f64)>),
}

impl Edit {
    fn random(rng: &mut Rng, inst: &SimplexInstance, bound_rows: &[usize]) -> Edit {
        let model = inst.model();
        match rng.below(3) {
            0 => Edit::Rhs(
                rng.below(model.num_rows() as u64) as usize,
                rng.quarter(-4, 10),
            ),
            1 if !bound_rows.is_empty() => Edit::Bound(
                bound_rows[rng.below(bound_rows.len() as u64) as usize],
                rng.quarter(-2, 4),
            ),
            _ => {
                let mut terms = Vec::new();
                for row in 0..model.num_rows() {
                    if rng.below(2) == 0 {
                        terms.push((row, rng.coeff()));
                    }
                }
                Edit::Column(rng.quarter(-5, 5), terms)
            }
        }
    }

    fn apply(&self, inst: &mut SimplexInstance) {
        match self {
            Edit::Rhs(row, rhs) | Edit::Bound(row, rhs) => inst.set_rhs(*row, *rhs),
            Edit::Column(obj, terms) => {
                inst.add_column(*obj, terms).unwrap();
            }
        }
    }
}

#[test]
fn shared_phase1_survives_rhs_bound_and_column_edits() {
    let (mut compared, mut edits) = (0, 0);
    for seed in 0..300 {
        let mut rng = Rng(0x5eed_0000 + seed);
        let (model, layout) = random_model(&mut rng);
        let mut inst = model.instance();
        let mut log: Vec<Edit> = Vec::new();
        // Whether the next cold solve runs phase 1 itself.
        let mut runs_phase1 = true;
        for step in 0..6 {
            let case = format!("seed {seed} step {step} after {log:?}");
            if step > 0 && rng.below(2) == 0 {
                let edit = Edit::random(&mut rng, &inst, &layout.bound_rows);
                edit.apply(&mut inst);
                log.push(edit);
                runs_phase1 = true;
                edits += 1;
            }
            let costs = random_costs(&mut rng, &layout, inst.model().num_vars());
            inst.set_objectives(&costs).unwrap();
            if rng.below(3) == 0 {
                // A warm re-solve in between leaves the kept state alone
                // (its cold fallback may run phase 1 itself).
                let _ = inst.resolve();
                runs_phase1 = false;
            }
            let got = inst.solve();
            // The oracle replays the same edits on a new instance, whose
            // one solve runs phase 1 afresh.
            let mut replay = model.instance();
            for edit in &log {
                edit.apply(&mut replay);
            }
            replay.set_objectives(&costs).unwrap();
            let want = replay.solve();
            assert_same(&got, &want, &case);
            if let (Ok(g), Ok(w)) = (&got, &want) {
                compared += 1;
                if runs_phase1 {
                    assert_eq!(g.stats(), w.stats(), "{case}: the solve that runs phase 1");
                } else {
                    assert_counts_phase_two_only(g, w, &case);
                }
            }
            runs_phase1 = false;
        }
    }
    assert!(
        compared >= 600 && edits >= 500,
        "compared {compared}, edits {edits}"
    );
}

#[test]
fn set_objectives_is_all_or_nothing() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(1.0);
    let y = m.add_var(2.0);
    m.add_ge(&[(x, 1.0), (y, 1.0)], 3.0);
    let mut inst = m.instance();
    let before = inst.solve().unwrap();
    for bad in [f64::NAN, INF, -INF] {
        let err = inst.set_objectives(&[(x, 5.0), (y, bad)]).unwrap_err();
        assert!(matches!(err, LpError::InvalidModel { .. }));
        assert_eq!(inst.model().objective_coeff(x), 1.0, "no term is written");
    }
    let again = inst.solve().unwrap();
    assert_eq!(again.objective().to_bits(), before.objective().to_bits());
    assert_eq!(again.values(), before.values());
}

/// A refreshed cost vector solves exactly as a fresh build does, down to
/// the sign of a zero objective.
#[test]
fn refreshed_offset_keeps_the_sign_of_a_zero_objective() {
    // No slack column adds a +0.0 term to the objective sum.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(0.0);
    m.add_eq(&[(x, 1.0)], 0.0);
    let mut inst = m.instance();
    inst.set_objectives(&[(x, 1.0)]).unwrap();
    let got = inst.solve();
    m.set_objective(x, 1.0);
    assert_same(&got, &m.solve(), "max x s.t. x = 0");
}

/// A chain of rhs edits on one instance, each followed by `resolve()`,
/// the way a capacity sweep runs: every point starts from the previous
/// point's basis, and some points are infeasible. Each must agree with a
/// fresh solve of the edited model — the same verdict, the objective to
/// 1e-9 relative — and the warm solution must certify against the model.
#[test]
fn chained_rhs_resolves_match_a_fresh_model_solve() {
    let (mut points, mut warm, mut infeasible, mut unbounded) = (0, 0, 0, 0);
    for seed in 0..600 {
        let mut rng = Rng(0xc4a1_0000 + seed);
        let (mut model, layout) = random_model(&mut rng);
        for (v, c) in random_costs(&mut rng, &layout, model.num_vars()) {
            model.set_objective(v, c);
        }
        let mut inst = model.instance();
        let _ = inst.solve();
        let inequalities: Vec<usize> = model
            .constraint_rows()
            .enumerate()
            .filter(|(_, (_, relation, _))| *relation != Relation::Eq)
            .map(|(row, _)| row)
            .collect();
        for step in 0..6 + rng.below(5) {
            // Mostly an inequality row, as a capacity sweep edits, nudged
            // as between neighbouring sweep points; sometimes any row, or
            // a jump anywhere.
            let row = if inequalities.is_empty() || rng.below(5) == 0 {
                rng.below(model.num_rows() as u64) as usize
            } else {
                inequalities[rng.below(inequalities.len() as u64) as usize]
            };
            let rhs = if rng.below(4) == 0 {
                rng.quarter(-4, 10)
            } else {
                let (_, _, old) = model.constraint_rows().nth(row).unwrap();
                old + rng.quarter(-1, 1)
            };
            inst.set_rhs(row, rhs);
            model.set_rhs(row, rhs);
            let case = format!("seed {seed} step {step}: row {row} rhs {rhs}");
            let got = inst.resolve();
            let want = model.solve();
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    let scale = 1.0 + w.objective().abs();
                    assert!(
                        (g.objective() - w.objective()).abs() <= 1e-9 * scale,
                        "{case}: objective {} vs {}",
                        g.objective(),
                        w.objective()
                    );
                    if let Err(e) = g.certify(&model) {
                        panic!("{case}: {e}");
                    }
                    warm += usize::from(g.stats().warm);
                }
                (Err(g), Err(w)) => {
                    assert_eq!(g, w, "{case}: error");
                    infeasible += usize::from(*g == LpError::Infeasible);
                    unbounded += usize::from(*g == LpError::Unbounded);
                }
                _ => panic!("{case}: got {got:?}, want {want:?}"),
            }
            points += 1;
        }
    }
    // Two thirds of the solved points re-solve warm, and the chains
    // cross infeasible points.
    assert!(
        warm >= 900 && infeasible >= 1500,
        "points {points}, warm {warm}, infeasible {infeasible}, unbounded {unbounded}"
    );
}
