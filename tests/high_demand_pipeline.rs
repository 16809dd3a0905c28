//! Integration: the §7 high-demand pipeline — the closest/balanced
//! crossover, LP-tuned strategies, capacity sweeps, and the non-uniform
//! heuristic.

use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::strategy_lp::{ColGenSolver, ColumnGeneration, TunedCapacity};
use quorumnet::core::EvalContext;
use quorumnet::prelude::*;

fn grid_setup(k: usize) -> (Network, Vec<NodeId>, QuorumSystem, Placement, Vec<Quorum>) {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(k).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    (net, clients, sys, placement, quorums)
}

/// The §7 tuner on a fresh uniform-weight restricted master, with the
/// pricing certificate of its last solve checked.
fn tune(
    net: &Network,
    clients: &[NodeId],
    sys: &QuorumSystem,
    placement: &Placement,
    quorums: &[Quorum],
    choice: CapacityChoice,
    model: ResponseModel,
) -> TunedCapacity {
    let ctx = EvalContext::new(net, clients);
    let pq = ctx.place(placement, quorums);
    let weights = vec![1.0; clients.len()];
    let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
    let l_opt = sys.optimal_load().unwrap();
    let tuned =
        strategy_lp::tune_capacity(&mut solver, &pq, &weights, l_opt, choice, model).unwrap();
    assert_eq!(solver.pricing_violations(), Some(0));
    tuned
}

#[test]
fn balanced_beats_closest_at_very_high_demand() {
    // Fig 6.5's claim: when the load term dominates, dispersing load wins.
    let (net, clients, sys, placement, _) = grid_setup(3);
    let model = ResponseModel::from_demand(0.007, 16_000.0);
    let closest = response::evaluate_closest(&net, &clients, &sys, &placement, model).unwrap();
    let balanced = response::evaluate_balanced(&net, &clients, &sys, &placement, model).unwrap();
    assert!(
        balanced.avg_response_ms < closest.avg_response_ms,
        "balanced {} should beat closest {} at demand 16000",
        balanced.avg_response_ms,
        closest.avg_response_ms
    );
}

#[test]
fn closest_beats_balanced_at_low_demand() {
    // §6's claim, with a little demand so the comparison is not a tie.
    let (net, clients, sys, placement, _) = grid_setup(5);
    let model = ResponseModel::from_demand(0.007, 100.0);
    let closest = response::evaluate_closest(&net, &clients, &sys, &placement, model).unwrap();
    let balanced = response::evaluate_balanced(&net, &clients, &sys, &placement, model).unwrap();
    assert!(
        closest.avg_response_ms < balanced.avg_response_ms,
        "closest {} should beat balanced {} at demand 100",
        closest.avg_response_ms,
        balanced.avg_response_ms
    );
}

#[test]
fn lp_tuned_never_loses_to_untuned_strategies() {
    // The LP can reproduce both extremes (closest = unbounded caps,
    // balanced ≈ caps at L_opt), so its best sweep point must beat both.
    let (net, clients, sys, placement, quorums) = grid_setup(4);
    let model = ResponseModel::from_demand(0.007, 16_000.0);
    let sweep = CapacityChoice::Sweep { steps: 10 };
    let best = tune(&net, &clients, &sys, &placement, &quorums, sweep, model)
        .eval
        .avg_response_ms;
    let closest = response::evaluate_closest(&net, &clients, &sys, &placement, model)
        .unwrap()
        .avg_response_ms;
    let balanced = response::evaluate_balanced(&net, &clients, &sys, &placement, model)
        .unwrap()
        .avg_response_ms;
    assert!(
        best <= closest + 1e-6,
        "LP best {best} lost to closest {closest}"
    );
    assert!(
        best <= balanced + 1e-6,
        "LP best {best} lost to balanced {balanced}"
    );
}

#[test]
fn capacity_sweep_trades_delay_for_load() {
    // Along the sweep, network delay is non-increasing in capacity while
    // max load is non-decreasing — the §7 trade-off in one invariant.
    let (net, clients, sys, placement, quorums) = grid_setup(4);
    let model = ResponseModel::from_demand(0.007, 16_000.0);
    let sweep = CapacityChoice::Sweep { steps: 10 };
    let sweep = tune(&net, &clients, &sys, &placement, &quorums, sweep, model);
    for w in sweep.points.windows(2) {
        let (a, b) = (&w[0].1, &w[1].1);
        assert!(
            b.avg_network_delay_ms <= a.avg_network_delay_ms + 1e-6,
            "delay must fall (or hold) as capacity grows"
        );
    }
    // Every point respects its capacity.
    for (c, eval) in &sweep.points {
        assert!(
            eval.max_node_load() <= c + 1e-6,
            "load {} exceeds capacity {c}",
            eval.max_node_load()
        );
    }
}

#[test]
fn nonuniform_heuristic_matches_or_beats_uniform_at_high_capacity() {
    // Fig 7.7/7.8: as the [β, γ] interval widens, inverse-distance
    // capacities spread load toward closer nodes and win.
    let (net, clients, sys, placement, quorums) = grid_setup(5);
    let model = ResponseModel::from_demand(0.007, 16_000.0);
    let l_opt = sys.optimal_load().unwrap();
    let fixed = CapacityChoice::Fixed(1.0);
    let uniform = tune(&net, &clients, &sys, &placement, &quorums, fixed, model).eval;
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let caps =
        CapacityProfile::inverse_distance(&net, &placement.support_set(), l_opt, 1.0).unwrap();
    let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
    let outcome = solver.solve_profile(&caps).unwrap();
    assert_eq!(solver.pricing_violations(), Some(0));
    let weights = vec![1.0; clients.len()];
    let nonuniform =
        response::evaluate_matrix_placed_weighted(&pq, &outcome.strategy, &weights, model).unwrap();
    assert!(
        nonuniform.avg_response_ms <= uniform.avg_response_ms + 1e-6,
        "non-uniform {} lost to uniform {}",
        nonuniform.avg_response_ms,
        uniform.avg_response_ms
    );
}

#[test]
fn infeasible_below_optimal_load() {
    // Below L_opt the capacity constraints are unsatisfiable for any
    // strategy — the failure mode the paper calls out.
    let (net, clients, sys, placement, quorums) = grid_setup(3);
    let caps = CapacityProfile::uniform(net.len(), sys.optimal_load().unwrap() * 0.9);
    let err =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap_err();
    assert_eq!(err, CoreError::Infeasible);
}

#[test]
fn strategies_remain_distributions_after_optimization() {
    let (net, clients, _sys, placement, quorums) = grid_setup(3);
    let caps = CapacityProfile::uniform(net.len(), 0.7);
    let strategy =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
    for v in 0..strategy.num_clients() {
        let row = strategy.row(v);
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "client {v} row sums to {sum}");
        assert!(row.iter().all(|&p| p >= 0.0));
    }
}
