//! Integration: many-to-one placements and the iterative algorithm across
//! crates (§4.1.2 + §4.2 + Figure 8.9's claims).

use quorumnet::core::eval::EvalContext;
use quorumnet::core::iterative;
use quorumnet::core::manyone::{self, ManyToOneConfig};
use quorumnet::prelude::*;

#[test]
fn many_to_one_collapses_toward_singleton_without_capacities() {
    // With unbounded capacities the LP puts everything on the anchor; the
    // best anchor over all clients is close to the median, so the
    // many-to-one delay approaches the singleton delay.
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let probs = vec![1.0 / quorums.len() as f64; quorums.len()];
    let caps = CapacityProfile::unbounded(net.len());
    let outcome =
        manyone::best_placement(&net, &quorums, &probs, &caps, &ManyToOneConfig::default())
            .unwrap();
    assert_eq!(outcome.placement.support_set().len(), 1);
    let host = outcome.placement.support_set()[0];
    let delay: f64 =
        clients.iter().map(|&v| net.distance(v, host)).sum::<f64>() / clients.len() as f64;
    let single = singleton::singleton_delay(&net, &clients);
    assert!(
        (delay - single).abs() < 1e-9,
        "unbounded many-to-one should sit on the median: {delay} vs {single}"
    );
}

#[test]
fn capacity_ratio_stays_bounded() {
    // The "almost-capacity-respecting" guarantee across a spread of
    // anchors and capacities: load ≤ slack · cap + max element weight.
    let net = datasets::euclidean_random(20, 150.0, 31);
    let sys = QuorumSystem::grid(3).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let probs = vec![1.0 / quorums.len() as f64; quorums.len()];
    let weights = manyone::element_weights(&probs, &quorums, sys.universe_size());
    let max_w = weights.iter().copied().fold(0.0, f64::max);
    for cap in [0.6, 0.8, 1.0] {
        let caps = CapacityProfile::uniform(net.len(), cap);
        for v0 in [0usize, 7, 13] {
            let out = manyone::place_for_client(
                &net,
                NodeId::new(v0),
                &weights,
                &caps,
                &ManyToOneConfig::default(),
            )
            .unwrap();
            let loads = out.placement.node_loads(&weights);
            for (w, &l) in loads.iter().enumerate() {
                assert!(
                    l <= cap + max_w + 1e-9,
                    "node {w}: load {l} breaks the bound cap {cap} + max weight {max_w}"
                );
            }
        }
    }
}

#[test]
fn iterative_improves_on_one_to_one_when_colocatable() {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(4).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    let model = ResponseModel::network_delay_only();

    let one_one = one_to_one::best_placement(&net, &sys).unwrap();
    let baseline = response::evaluate_closest(&net, &clients, &sys, &one_one, model)
        .unwrap()
        .avg_network_delay_ms;

    // Capacity 1.0 with slack 2.0 admits co-location (element weight
    // 7/16 ≈ 0.44; two fit within 2.0).
    let caps0 = CapacityProfile::uniform(net.len(), 1.0);
    let ctx = EvalContext::new(&net, &clients);
    let result = iterative::optimize_ctx(
        &ctx,
        &quorums,
        &caps0,
        model,
        2,
        &ManyToOneConfig {
            capacity_slack: 2.0,
        },
    )
    .unwrap();
    assert!(
        result.evaluation.avg_network_delay_ms < baseline,
        "iterative {} should beat one-to-one {baseline}",
        result.evaluation.avg_network_delay_ms
    );
    // Support shrank below the universe size: genuinely many-to-one.
    assert!(result.placement.support_set().len() < sys.universe_size());
}

#[test]
fn iterative_history_is_coherent() {
    let net = datasets::euclidean_random(16, 120.0, 77);
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(2).unwrap();
    let quorums = sys.enumerate(16).unwrap();
    let caps0 = CapacityProfile::uniform(net.len(), 0.9);
    let ctx = EvalContext::new(&net, &clients);
    let result = iterative::optimize_ctx(
        &ctx,
        &quorums,
        &caps0,
        ResponseModel::with_alpha(20.0),
        4,
        &ManyToOneConfig::default(),
    )
    .unwrap();
    // Iterations numbered from 1, contiguous.
    for (i, rec) in result.history.iter().enumerate() {
        assert_eq!(rec.iteration, i + 1);
        // Phase 2 never hurts (the paper's monotonicity argument).
        assert!(rec.after_strategy.avg_response_ms <= rec.after_placement.avg_response_ms + 1e-6);
    }
    // The returned evaluation matches some recorded phase-2 state.
    let returned = result.evaluation.avg_response_ms;
    assert!(result
        .history
        .iter()
        .any(|r| (r.after_strategy.avg_response_ms - returned).abs() < 1e-9));
}
