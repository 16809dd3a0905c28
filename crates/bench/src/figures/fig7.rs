//! §7 capacity-tuning figures (7.6, 7.7, 7.8): LP-optimized strategies
//! under uniform and non-uniform node capacities.
//!
//! Each figure is a (universe size × capacity) grid of LP solves that
//! share one constraint matrix per `k`. The pipelines run in two parallel
//! stages on the global [`ParPool`]: the per-`k` setups (placement search
//! and quorum enumeration), then one sweep per `k`. A sweep builds one
//! restricted master ([`ColGenSolver`] with the default
//! [`ColumnGeneration`]) and solves its cells in capacity order, each a
//! warm re-solve off the previous cell's optimum, scored through the
//! per-`k` [`PlacedQuorums`] geometry cache. The cells of one `k` run in
//! order because the master mutates. Rows are emitted in (k, capacity)
//! order and every sweep is a pure function of its inputs, so tables are
//! bit-for-bit identical for any thread count.

use qp_core::capacity::CapacityProfile;
use qp_core::eval::{EvalContext, PlacedQuorums};
use qp_core::one_to_one;
use qp_core::response::evaluate_matrix_placed;
use qp_core::strategy_lp::{ColGenSolver, ColumnGeneration};
use qp_core::{Placement, ResponseModel};
use qp_par::ParPool;
use qp_quorum::{Quorum, QuorumSystem};
use qp_topology::{datasets, Network, NodeId};

use crate::figures::fig6::OP_SRV_TIME_MS;
use crate::{Scale, Table};

const DEMAND: f64 = 16000.0;

fn setup(scale: Scale) -> (Network, Vec<NodeId>, Vec<usize>, usize) {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let (ks, steps) = match scale {
        Scale::Full => ((2..=7).collect::<Vec<_>>(), 10),
        Scale::Smoke => (vec![2, 3], 4),
    };
    (net, clients, ks, steps)
}

/// Per-`k` sweep inputs: system, best placement, enumerated quorums,
/// and the capacity grid.
struct GridSetup {
    k: usize,
    l_opt: f64,
    placement: Placement,
    quorums: Vec<Quorum>,
    sweep: Vec<f64>,
}

/// Stage 1: build every per-`k` setup in parallel (the placement
/// search dominates).
fn grid_setups(ctx: &EvalContext<'_>, ks: &[usize], steps: usize) -> Vec<GridSetup> {
    ParPool::global().run(ks.len(), |i| {
        let k = ks[i];
        let sys = QuorumSystem::grid(k).expect("k ≥ 1");
        let l_opt = sys.optimal_load().expect("grid");
        let placement = one_to_one::best_placement_ctx(ctx, &sys).expect("fits");
        let quorums = sys.enumerate(100_000).expect("k² quorums");
        let sweep = qp_core::capacity::capacity_sweep(l_opt, steps);
        GridSetup {
            k,
            l_opt,
            placement,
            quorums,
            sweep,
        }
    })
}

/// The shared harness of Figures 7.6–7.8: one sweep per setup on the
/// global pool. A sweep binds the setup's geometry, builds one default
/// master over it, and hands `cell` that master at every capacity in
/// sweep order; the rows come back in (setup, capacity) order.
fn run_grid(
    ctx: &EvalContext<'_>,
    setups: &[GridSetup],
    cell: impl Fn(&mut ColGenSolver<'_>, &PlacedQuorums<'_>, &GridSetup, f64) -> Vec<f64> + Sync,
) -> Vec<Vec<f64>> {
    let sweeps = ParPool::global().run(setups.len(), |i| {
        let s = &setups[i];
        let pq = ctx.place(&s.placement, &s.quorums);
        let mut solver =
            ColGenSolver::new(&pq, ColumnGeneration::default()).expect("clients and quorums");
        s.sweep
            .iter()
            .map(|&c| cell(&mut solver, &pq, s, c))
            .collect::<Vec<_>>()
    });
    sweeps.into_iter().flatten().collect()
}

/// One uniform-capacity cell: LP at capacity `c` plus response-model
/// scoring; `None` where the LP is infeasible (or numerically failed —
/// a figure renders that cell as NaN rather than aborting the run).
fn uniform_cell(
    solver: &mut ColGenSolver<'_>,
    pq: &PlacedQuorums<'_>,
    c: f64,
    model: ResponseModel,
) -> Option<(f64, f64)> {
    let caps = CapacityProfile::uniform(pq.ctx().net().len(), c);
    let outcome = solver.solve_profile(&caps).ok()?;
    let eval = evaluate_matrix_placed(pq, &outcome.strategy, model).expect("sizes agree");
    Some((eval.avg_network_delay_ms, eval.avg_response_ms))
}

/// Figure 7.6: the (universe size × uniform node capacity) surface of
/// network delay and response time for LP-tuned strategies, Grid on
/// Planetlab-50, demand 16000.
pub fn fig7_6(scale: Scale) -> Table {
    let (net, clients, ks, steps) = setup(scale);
    let ctx = EvalContext::new(&net, &clients);
    let model = ResponseModel::from_demand(OP_SRV_TIME_MS, DEMAND);
    let mut table = Table::new(
        "fig7_6",
        "Fig 7.6 — LP-tuned strategies: delay & response vs (universe, uniform capacity) (Grid, Planetlab-50, demand 16000)",
        vec![
            "universe_n".into(),
            "capacity".into(),
            "network_delay_ms".into(),
            "response_time_ms".into(),
        ],
    );
    let setups = grid_setups(&ctx, &ks, steps);
    let rows = run_grid(&ctx, &setups, |solver, pq, s, c| {
        match uniform_cell(solver, pq, c, model) {
            Some((delay, resp)) => vec![(s.k * s.k) as f64, c, delay, resp],
            None => vec![(s.k * s.k) as f64, c, f64::NAN, f64::NAN],
        }
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Figure 7.7: response time under uniform (`cap = cᵢ` everywhere) vs
/// non-uniform (`[β, γ] = [L_opt, cᵢ]` inverse-distance heuristic)
/// capacities over the same surface.
pub fn fig7_7(scale: Scale) -> Table {
    let (net, clients, ks, steps) = setup(scale);
    let ctx = EvalContext::new(&net, &clients);
    let model = ResponseModel::from_demand(OP_SRV_TIME_MS, DEMAND);
    let mut table = Table::new(
        "fig7_7",
        "Fig 7.7 — Uniform vs non-uniform node capacities (Grid, Planetlab-50, demand 16000)",
        vec![
            "universe_n".into(),
            "capacity".into(),
            "network_delay_ms".into(),
            "response_uniform_ms".into(),
            "response_nonuniform_ms".into(),
        ],
    );
    let setups = grid_setups(&ctx, &ks, steps);
    let rows = run_grid(&ctx, &setups, |solver, pq, s, c| {
        let (delay, resp_u, resp_n) = uniform_vs_nonuniform(solver, pq, s, c, model);
        vec![(s.k * s.k) as f64, c, delay, resp_u, resp_n]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// One Figure 7.7/7.8 cell: `(network delay, uniform response,
/// non-uniform response)` at capacity `c`, NaN where the LP is
/// infeasible. Both variants solve on the per-`k` master, the uniform
/// profile first, so the comparison is between capacity *assignments* on
/// one LP.
fn uniform_vs_nonuniform(
    solver: &mut ColGenSolver<'_>,
    pq: &PlacedQuorums<'_>,
    s: &GridSetup,
    c: f64,
    model: ResponseModel,
) -> (f64, f64, f64) {
    let (delay, resp_u) = uniform_cell(solver, pq, c, model).unwrap_or((f64::NAN, f64::NAN));
    let net = pq.ctx().net();
    let caps = CapacityProfile::inverse_distance(net, &s.placement.support_set(), s.l_opt, c)
        .expect("support is nonempty");
    let resp_n = match solver.solve_profile(&caps) {
        Ok(o) => {
            evaluate_matrix_placed(pq, &o.strategy, model)
                .expect("sizes agree")
                .avg_response_ms
        }
        Err(_) => f64::NAN,
    };
    (delay, resp_u, resp_n)
}

/// Figure 7.8: the `n = 49` (7×7) slice of Figure 7.7 — response vs
/// capacity for uniform and non-uniform capacities.
pub fn fig7_8(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let ctx = EvalContext::new(&net, &clients);
    let (k, steps) = match scale {
        Scale::Full => (7, 10),
        Scale::Smoke => (3, 4),
    };
    let model = ResponseModel::from_demand(OP_SRV_TIME_MS, DEMAND);
    let setups = grid_setups(&ctx, &[k], steps);
    let mut table = Table::new(
        "fig7_8",
        "Fig 7.8 — 7×7 Grid on Planetlab-50: response vs capacity, uniform vs non-uniform (demand 16000)",
        vec![
            "capacity".into(),
            "network_delay_ms".into(),
            "response_uniform_ms".into(),
            "response_nonuniform_ms".into(),
        ],
    );
    let rows = run_grid(&ctx, &setups, |solver, pq, s, c| {
        let (delay, resp_u, resp_n) = uniform_vs_nonuniform(solver, pq, s, c, model);
        vec![c, delay, resp_u, resp_n]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_6_delay_decreases_with_capacity() {
        let t = fig7_6(Scale::Smoke);
        // Within one universe size, higher capacity lets clients use closer
        // quorums: network delay must be non-increasing in capacity.
        let mut by_universe: std::collections::BTreeMap<i64, Vec<(f64, f64)>> = Default::default();
        for row in &t.rows {
            if !row[2].is_nan() {
                by_universe
                    .entry(row[0] as i64)
                    .or_default()
                    .push((row[1], row[2]));
            }
        }
        for (n, points) in by_universe {
            for w in points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-6,
                    "n={n}: delay rose with capacity: {:?}",
                    w
                );
            }
        }
    }

    #[test]
    fn fig7_8_nonuniform_competitive_across_sweep() {
        let t = fig7_8(Scale::Smoke);
        // The paper's observation (Fig 7.8): the non-uniform heuristic
        // tracks uniform capacities closely and wins at intermediate
        // capacities. It is not *pointwise* dominant: at the top of the
        // sweep the non-uniform caps [L_opt, 1] are a strict subset of the
        // uniform caps (all 1), so the more-constrained LP may give back a
        // fraction of a percent. Assert the qualitative claim instead:
        // never lose by more than 1 % relative, and strictly win somewhere.
        let mut wins = 0;
        for row in &t.rows {
            let (resp_u, resp_n) = (row[2], row[3]);
            if resp_u.is_nan() || resp_n.is_nan() {
                continue;
            }
            assert!(
                resp_n <= resp_u * 1.01 + 1e-6,
                "non-uniform {resp_n} loses >1% to uniform {resp_u} at c={}",
                row[0]
            );
            if resp_n < resp_u - 1e-6 {
                wins += 1;
            }
        }
        assert!(
            wins > 0,
            "non-uniform never beat uniform anywhere on the sweep"
        );
    }
}
