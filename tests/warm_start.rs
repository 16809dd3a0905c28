//! Warm-start regression: the §7 capacity sweeps must do strictly less
//! simplex work on one master kept across the sweep than on a fresh
//! master per point — pinned by pivot counters, not wall clock — while
//! reproducing the same LP optima.

use quorumnet::core::capacity::{capacity_sweep, CapacityChoice};
use quorumnet::core::eval::{EvalContext, PlacedQuorums};
use quorumnet::core::strategy_lp::{self, ColGenSolver, ColumnGeneration, TunedCapacity};
use quorumnet::prelude::*;

/// The fig7 sweep inputs: Planetlab-50, 3×3 Grid, the Eq. (7.7) capacity
/// grid over `(L_opt, 1]` with the paper's ten steps.
fn fig7_inputs() -> (Network, Vec<NodeId>, Placement, Vec<Quorum>, f64) {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let l_opt = sys.optimal_load().unwrap();
    (net, clients, placement, quorums, l_opt)
}

/// A fresh default master over `pq`.
fn master<'a>(pq: &'a PlacedQuorums<'a>) -> ColGenSolver<'a> {
    ColGenSolver::new(pq, ColumnGeneration::default()).unwrap()
}

/// The §7 tuner's `steps`-point sweep on one fresh default master,
/// returned with that master's running pivot total.
fn tuned_sweep(
    pq: &PlacedQuorums<'_>,
    l_opt: f64,
    steps: usize,
    model: ResponseModel,
) -> (TunedCapacity, usize) {
    let mut solver = master(pq);
    let weights = vec![1.0; pq.ctx().clients().len()];
    let choice = CapacityChoice::Sweep { steps };
    let tuned =
        strategy_lp::tune_capacity(&mut solver, pq, &weights, l_opt, choice, model).unwrap();
    (tuned, solver.pivots())
}

/// Acceptance pin: the §7 tuner's sweep on one master performs strictly
/// fewer total simplex iterations than solving every fig7 sweep point on
/// a fresh master, with LP objectives equal to 1e-9 relative at every
/// point.
#[test]
fn warm_fig7_sweep_beats_cold_iteration_count() {
    let (net, clients, placement, quorums, l_opt) = fig7_inputs();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let steps = 10; // the paper's grid
    let model = ResponseModel::from_demand(0.007, 16000.0);

    // Warm path: the real tuning loop, pivots counted by its master.
    let (tuned, warm_total) = tuned_sweep(&pq, l_opt, steps, model);

    // The same points replayed on one master, each against a fresh one.
    let mut warm = master(&pq);
    let mut cold_total = 0usize;
    let mut feasible = 0usize;
    let mut warm_points = 0usize;
    for c in capacity_sweep(l_opt, steps) {
        let caps = CapacityProfile::uniform(net.len(), c);
        match (master(&pq).solve_profile(&caps), warm.solve_profile(&caps)) {
            (Ok(cold), Ok(warm)) => {
                cold_total += cold.stats.iterations;
                feasible += 1;
                warm_points += usize::from(warm.stats.warm);
                assert!(
                    (warm.delay_ms - cold.delay_ms).abs() <= 1e-9 * (1.0 + cold.delay_ms.abs()),
                    "LP optimum drifted at c={c}: warm {} vs cold {}",
                    warm.delay_ms,
                    cold.delay_ms
                );
            }
            (Err(CoreError::Infeasible), Err(CoreError::Infeasible)) => continue,
            (cold, warm) => {
                panic!("warm/cold feasibility disagreement at c={c}: cold {cold:?} warm {warm:?}")
            }
        }
    }
    assert!(warm_points > 0, "no sweep point actually re-solved warm");
    assert_eq!(feasible, tuned.points.len(), "sweep point sets differ");
    assert_eq!(
        warm.pivots(),
        warm_total,
        "the replay left the tuner's path"
    );
    assert!(
        warm_total < cold_total,
        "warm sweep must pivot strictly less than cold: {warm_total} vs {cold_total}"
    );
}

/// The sweep's evaluations are identical whenever the tuner runs it on a
/// fresh master — i.e. the warm layer is deterministic.
#[test]
fn warm_sweep_is_reproducible() {
    let (net, clients, placement, quorums, l_opt) = fig7_inputs();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let model = ResponseModel::from_demand(0.007, 16000.0);

    let (a, a_pivots) = tuned_sweep(&pq, l_opt, 6, model);
    let (b, b_pivots) = tuned_sweep(&pq, l_opt, 6, model);
    assert_eq!(a_pivots, b_pivots);
    assert_eq!(a.points.len(), b.points.len());
    assert_eq!(a.capacity.map(f64::to_bits), b.capacity.map(f64::to_bits));
    for ((c1, e1), (c2, e2)) in a.points.iter().zip(&b.points) {
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(e1.avg_response_ms.to_bits(), e2.avg_response_ms.to_bits());
        assert_eq!(
            e1.avg_network_delay_ms.to_bits(),
            e2.avg_network_delay_ms.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Mixed-delta chains against a resident SimplexInstance (the daemon's
// access pattern): random sequences of rhs and objective edits
// must warm-resolve to the same optimum as a from-scratch cold solve of
// the edited model, agree on infeasibility, and spend strictly fewer
// pivots in aggregate whenever the warm path actually engaged.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use quorumnet::core::strategy_lp::build_weighted_strategy_model;
use quorumnet::lp::{LpError, SimplexInstance, VarId};

/// One random in-place edit to the resident LP.
#[derive(Debug, Clone, Copy)]
enum LpDelta {
    /// Demand-weight shift: convexity rhs (dual-simplex territory).
    Weight { pick: usize, value: f64 },
    /// Capacity re-tune: inequality rhs (dual-simplex territory).
    Cap { pick: usize, value: f64 },
    /// Objective rescale: slowdown-style cost edit (primal territory).
    Cost { pick: usize, scale: f64 },
}

fn lp_delta() -> impl Strategy<Value = LpDelta> {
    prop_oneof![
        (0usize..1000, 0.02f64..0.15).prop_map(|(pick, value)| LpDelta::Weight { pick, value }),
        (0usize..1000, 0.55f64..1.0).prop_map(|(pick, value)| LpDelta::Cap { pick, value }),
        (0usize..1000, 0.5f64..3.0).prop_map(|(pick, scale)| LpDelta::Cost { pick, scale }),
    ]
}

/// A small weighted strategy LP (12 clients × 3×3 Grid) in the daemon's
/// q-substitution form, plus its row maps.
fn resident_lp() -> (
    quorumnet::core::strategy_lp::WeightedStrategyLp,
    usize,
    usize,
) {
    let net = datasets::euclidean_random(12, 100.0, 7);
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let n = clients.len();
    let m = quorums.len();
    let delta: Vec<Vec<f64>> = (0..n)
        .map(|v| (0..m).map(|i| pq.delta(v, i)).collect())
        .collect();
    let node_counts: Vec<Vec<(usize, f64)>> = (0..m).map(|i| pq.node_counts(i).to_vec()).collect();
    let counts = placement.element_counts();
    let cap_rhs: Vec<f64> = (0..net.len())
        .map(|w| if counts[w] == 0 { f64::INFINITY } else { 1.0 })
        .collect();
    let weights = vec![1.0 / n as f64; n];
    let lp =
        build_weighted_strategy_model(&delta, &weights, &node_counts, net.len(), &cap_rhs).unwrap();
    (lp, n, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chained_mixed_deltas_warm_resolve_matches_cold(
        deltas in proptest::collection::vec(lp_delta(), 3..=10)
    ) {
        let (lp, n, m) = resident_lp();
        let mut instance = SimplexInstance::new(lp.model.clone());
        instance.solve().unwrap();

        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        let mut warm_used = 0usize;
        for d in &deltas {
            match *d {
                LpDelta::Weight { pick, value } => {
                    instance.set_rhs(lp.conv_rows[pick % n], value);
                }
                LpDelta::Cap { pick, value } => {
                    let (_, row) = lp.cap_rows[pick % lp.cap_rows.len()];
                    instance.set_rhs(row, value);
                }
                LpDelta::Cost { pick, scale } => {
                    let v = VarId::from_index(pick % (n * m));
                    let cur = instance.model().objective_coeff(v);
                    instance.set_objectives(&[(v, cur * scale)]).unwrap();
                }
            }
            match (instance.resolve(), instance.model().solve()) {
                (Ok(warm), Ok(cold)) => {
                    prop_assert!(
                        (warm.objective() - cold.objective()).abs()
                            <= 1e-9 * (1.0 + cold.objective().abs()),
                        "objective drift after {d:?}: warm {} vs cold {}",
                        warm.objective(),
                        cold.objective()
                    );
                    warm_total += warm.stats().iterations;
                    cold_total += cold.stats().iterations;
                    warm_used += warm.stats().warm as usize;
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (warm, cold) => prop_assert!(
                    false,
                    "warm/cold disagreement after {d:?}: warm {warm:?} vs cold {cold:?}"
                ),
            }
        }
        prop_assert!(
            warm_total <= cold_total,
            "warm chain spent {warm_total} pivots, cold re-solves {cold_total}"
        );
        if warm_used > 0 {
            prop_assert!(
                warm_total < cold_total,
                "warm engaged on {warm_used} deltas but spent {warm_total} pivots \
                 vs cold {cold_total} — must be strictly cheaper"
            );
        }
    }
}
