//! Integration: structural properties of the LP-optimized strategies —
//! what the optimal solutions *look like*, beyond their objective values.

use quorumnet::core::strategy_lp;
use quorumnet::prelude::*;

#[test]
fn lp_strategies_use_close_quorums_first() {
    // At a loose capacity, each client's strategy should put most mass on
    // quorums whose delay is near its closest quorum's delay.
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(4).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    let caps = CapacityProfile::uniform(net.len(), 0.95);
    let strategy =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
    let choices = response::closest_choices(&net, &clients, &sys, &placement);

    let mut mass_within_2x = 0.0;
    for (row, (v, choice)) in clients.iter().zip(&choices).enumerate() {
        let best: f64 = choice
            .iter()
            .map(|u| net.distance(*v, placement.node_of(u)))
            .fold(f64::MIN, f64::max);
        for (i, q) in quorums.iter().enumerate() {
            let d: f64 = q
                .iter()
                .map(|u| net.distance(*v, placement.node_of(u)))
                .fold(f64::MIN, f64::max);
            if d <= best * 2.0 + 1e-9 {
                mass_within_2x += strategy.prob(row, i);
            }
        }
    }
    let avg_mass = mass_within_2x / clients.len() as f64;
    assert!(
        avg_mass > 0.9,
        "only {avg_mass:.2} of strategy mass within 2× of the closest delay"
    );
}

#[test]
fn capacity_constraints_bind_at_the_optimum() {
    // At a tight-but-feasible capacity, some node must be saturated —
    // otherwise the LP could move more mass toward closer quorums.
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let c = sys.optimal_load().unwrap() + 0.05;
    let caps = CapacityProfile::uniform(net.len(), c);
    let strategy =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
    let eval = response::evaluate_matrix(
        &net,
        &clients,
        &placement,
        &quorums,
        &strategy,
        ResponseModel::network_delay_only(),
    )
    .unwrap();
    assert!(
        eval.max_node_load() > c - 1e-6,
        "no node saturated ({} < {c}): optimizer left delay on the table",
        eval.max_node_load()
    );
}

#[test]
fn per_client_strategies_differ_across_the_network() {
    // Clients in different clusters should not share identical optimal
    // strategies (the whole point of per-client tuning).
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(4).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    let caps = CapacityProfile::uniform(net.len(), 0.9);
    let strategy =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
    let distinct: std::collections::HashSet<String> = (0..strategy.num_clients())
        .map(|v| {
            strategy
                .row(v)
                .iter()
                .map(|p| format!("{p:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    assert!(
        distinct.len() > 5,
        "only {} distinct strategies across 50 clients",
        distinct.len()
    );
}

#[test]
fn average_strategy_feeds_many_to_one_consistently() {
    // The iterative pipeline's hand-off: avg of per-client strategies is a
    // distribution, and its element weights sum to the mean quorum size.
    let net = datasets::euclidean_random(12, 80.0, 9);
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let caps = CapacityProfile::uniform(net.len(), 0.8);
    let strategy =
        strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
    let avg = strategy.average();
    let total: f64 = avg.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    let weights = quorumnet::core::manyone::element_weights(&avg, &quorums, sys.universe_size());
    let wsum: f64 = weights.iter().sum();
    // All grid quorums have size 2k−1 = 5.
    assert!((wsum - 5.0).abs() < 1e-9);
}
