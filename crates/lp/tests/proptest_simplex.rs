//! Property tests for the simplex solver: random boxes-plus-halfspaces LPs
//! are solved and cross-checked against brute-force vertex enumeration.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use proptest::prelude::*;
use qp_lp::{Model, Sense, VarId};

/// Solves an `n × n` dense linear system by Gaussian elimination with
/// partial pivoting. Returns `None` if (near-)singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let (piv, best) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())?;
        if best < 1e-9 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let p = a[col][col];
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r][col] / p;
            if f != 0.0 {
                for k in col..n {
                    let v = a[col][k];
                    a[r][k] -= f * v;
                }
                b[r] -= f * b[col];
            }
        }
    }
    Some((0..n).map(|i| b[i] / a[i][i]).collect())
}

/// Brute-force optimum of `min c·x` over `{0 ≤ x ≤ u, Ax ≤ b}` by
/// enumerating all candidate vertices (every choice of `n` active
/// constraints from bounds and rows). The region is nonempty (contains 0)
/// and bounded (box), so the optimum exists and is attained at a vertex.
fn brute_force_min(c: &[f64], u: &[f64], a: &[Vec<f64>], b: &[f64]) -> f64 {
    let n = c.len();
    // Build all constraint rows in the form g·x = h when active:
    //   x_j ≥ 0, x_j ≤ u_j, and a_i·x ≤ b_i.
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    for j in 0..n {
        let mut g = vec![0.0; n];
        g[j] = 1.0;
        rows.push((g.clone(), 0.0));
        rows.push((g, u[j]));
    }
    for (ai, &bi) in a.iter().zip(b) {
        rows.push((ai.clone(), bi));
    }
    let m = rows.len();
    let mut best = f64::INFINITY;
    let mut choice: Vec<usize> = (0..n).collect();
    loop {
        // Try this active set.
        let mat: Vec<Vec<f64>> = choice.iter().map(|&i| rows[i].0.clone()).collect();
        let rhs: Vec<f64> = choice.iter().map(|&i| rows[i].1).collect();
        if let Some(x) = solve_dense(mat, rhs) {
            let feasible = x
                .iter()
                .enumerate()
                .all(|(j, &xj)| xj >= -1e-7 && xj <= u[j] + 1e-7)
                && a.iter().zip(b).all(|(ai, &bi)| {
                    ai.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>() <= bi + 1e-7
                });
            if feasible {
                let obj: f64 = c.iter().zip(&x).map(|(p, q)| p * q).sum();
                best = best.min(obj);
            }
        }
        // Next combination of size n from 0..m.
        let mut i = n;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if choice[i] != i + m - n {
                choice[i] += 1;
                for k in (i + 1)..n {
                    choice[k] = choice[k - 1] + 1;
                }
                break;
            }
        }
    }
}

fn lp_instance() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..=3, 0usize..=4).prop_flat_map(|(n, k)| {
        let costs = proptest::collection::vec(-5.0f64..5.0, n);
        let uppers = proptest::collection::vec(0.5f64..8.0, n);
        let amat = proptest::collection::vec(proptest::collection::vec(-3.0f64..3.0, n), k);
        let bvec = proptest::collection::vec(0.1f64..6.0, k);
        (costs, uppers, amat, bvec)
    })
}

/// `c·x` over `{0 ≤ x ≤ u, Ax ≤ b}` in the given sense, each upper bound
/// a `≤` row. Returns the model, its variables and the rows of `A`.
fn box_model(
    sense: Sense,
    c: &[f64],
    u: &[f64],
    a: &[Vec<f64>],
    b: &[f64],
) -> (Model, Vec<VarId>, Vec<usize>) {
    let mut m = Model::new(sense);
    let vars: Vec<_> = c.iter().map(|&cj| m.add_var(cj)).collect();
    for (&v, &uj) in vars.iter().zip(u) {
        m.add_le(&[(v, 1.0)], uj);
    }
    let rows = a
        .iter()
        .zip(b)
        .map(|(ai, &bi)| {
            let terms: Vec<_> = vars.iter().copied().zip(ai.iter().copied()).collect();
            m.add_le(&terms, bi)
        })
        .collect();
    (m, vars, rows)
}

fn rhs_scales(k: usize) -> impl Strategy<Value = Vec<f64>> {
    // Multiplicative rhs perturbations that keep every b positive (so the
    // perturbed LP stays feasible: x = 0 always satisfies Ax ≤ b).
    proptest::collection::vec(0.4f64..1.8, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Warm-started `resolve()` after random rhs perturbations matches a
    /// cold `Model::solve` of the perturbed model to 1e-9 relative.
    #[test]
    fn warm_resolve_matches_cold_after_rhs_perturbation(
        (c, u, a, b) in lp_instance(),
        scales in rhs_scales(8),
    ) {
        let (m, _, rows) = box_model(Sense::Minimize, &c, &u, &a, &b);

        // Warm path: solve once, then perturb every row and re-solve.
        let mut inst = m.instance();
        inst.solve().expect("feasible bounded LP");
        let mut cold_model = m.clone();
        for (i, &row) in rows.iter().enumerate() {
            let new_rhs = b[i] * scales[i % scales.len()];
            inst.set_rhs(row, new_rhs);
            cold_model.set_rhs(row, new_rhs);
        }
        let warm = inst.resolve().expect("perturbed LP stays feasible");
        let cold = cold_model.solve().expect("perturbed LP stays feasible");
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", warm.objective(), cold.objective()
        );
        // And a second perturbation chain keeps matching (etas on etas).
        for (i, &row) in rows.iter().enumerate() {
            let new_rhs = b[i] * scales[(i + 3) % scales.len()];
            inst.set_rhs(row, new_rhs);
            cold_model.set_rhs(row, new_rhs);
        }
        let warm2 = inst.resolve().expect("feasible");
        let cold2 = cold_model.solve().expect("feasible");
        prop_assert!(
            (warm2.objective() - cold2.objective()).abs()
                <= 1e-9 * (1.0 + cold2.objective().abs()),
            "chained warm {} vs cold {}", warm2.objective(), cold2.objective()
        );
        prop_assert_eq!(warm2.certify(inst.model()), Ok(()));
    }

    /// Solve, certify the solution against the model, and match the
    /// brute-force optimum over every candidate vertex.
    #[test]
    fn simplex_matches_vertex_enumeration((c, u, a, b) in lp_instance()) {
        let (m, vars, _) = box_model(Sense::Minimize, &c, &u, &a, &b);
        let sol = m.solve().expect("feasible bounded LP");
        prop_assert_eq!(sol.certify(&m), Ok(()));
        let expected = brute_force_min(&c, &u, &a, &b);
        prop_assert!(
            (sol.objective() - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
            "simplex {} vs brute force {}", sol.objective(), expected
        );
        // The reported point must itself be feasible and consistent with
        // the reported objective.
        let x: Vec<f64> = vars.iter().map(|&v| sol.value(v)).collect();
        for (j, &xj) in x.iter().enumerate() {
            prop_assert!(xj >= -1e-7 && xj <= u[j] + 1e-7);
        }
        for (ai, &bi) in a.iter().zip(&b) {
            let lhs: f64 = ai.iter().zip(&x).map(|(p, q)| p * q).sum();
            prop_assert!(lhs <= bi + 1e-6);
        }
        let recomputed: f64 = c.iter().zip(&x).map(|(p, q)| p * q).sum();
        prop_assert!((recomputed - sol.objective()).abs() < 1e-6);
    }

    #[test]
    fn maximization_is_negated_minimization((c, u, a, b) in lp_instance()) {
        let build = |sense: Sense, flip: f64| {
            let c: Vec<f64> = c.iter().map(|&cj| flip * cj).collect();
            let (m, _, _) = box_model(sense, &c, &u, &a, &b);
            m.solve().expect("feasible bounded LP").objective()
        };
        let max = build(Sense::Maximize, 1.0);
        let min = build(Sense::Minimize, -1.0);
        prop_assert!((max + min).abs() <= 1e-6 * (1.0 + max.abs()));
    }

    #[test]
    fn equality_simplex_probability(k in 2usize..=6, seedcosts in proptest::collection::vec(0.0f64..10.0, 6)) {
        // min Σ cᵢ pᵢ over the probability simplex = min cᵢ.
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..k)
            .map(|i| m.add_var(seedcosts[i]))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_eq(&terms, 1.0);
        let sol = m.solve().unwrap();
        let expected = seedcosts[..k].iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((sol.objective() - expected).abs() < 1e-7);
        let total: f64 = vars.iter().map(|&v| sol.value(v)).sum();
        prop_assert!((total - 1.0).abs() < 1e-7);
    }
}
