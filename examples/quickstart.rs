//! Quickstart: deploy a quorum system on a wide-area network and measure
//! client response times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::EvalContext;
use quorumnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A wide-area network: 50 sites with realistic RTTs (the repo's
    //    stand-in for the paper's PlanetLab measurements).
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    println!(
        "network: {} sites, mean RTT {:.1} ms",
        net.len(),
        net.distances().mean_distance()
    );

    // 2. A quorum system: 3×3 Grid (9 logical servers, quorums of 5).
    let grid = QuorumSystem::grid(3)?;
    println!(
        "system:  {} — {} quorums of {}",
        grid.label(),
        grid.quorum_count(),
        grid.min_quorum_size()
    );

    // 3. Place it: best one-to-one placement across all anchor clients.
    let placement = one_to_one::best_placement(&net, &grid)?;
    let support: Vec<String> = placement
        .support_set()
        .iter()
        .map(|&v| net.label(v).to_string())
        .collect();
    println!("placed on: {}", support.join(", "));

    // 4. Low demand (α = 0): closest-quorum access, response = network delay.
    let low = response::evaluate_closest(
        &net,
        &clients,
        &grid,
        &placement,
        ResponseModel::network_delay_only(),
    )?;
    println!("\nlow demand (closest quorum):");
    println!("  avg response      {:8.2} ms", low.avg_response_ms);
    println!(
        "  singleton baseline{:8.2} ms",
        singleton::singleton_delay(&net, &clients)
    );

    // 5. High demand: tune access strategies with the LP under a capacity
    //    sweep and report the best point.
    let quorums = grid.enumerate(10_000)?;
    let model = ResponseModel::from_demand(0.007, 16_000.0);
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let weights = vec![1.0; clients.len()];
    let mut solver = strategy_lp::ColGenSolver::new(&pq, Default::default())?;
    let tuned = strategy_lp::tune_capacity(
        &mut solver,
        &pq,
        &weights,
        grid.optimal_load().expect("grid has a closed form"),
        CapacityChoice::Sweep { steps: 10 },
        model,
    )?;
    let c = tuned.capacity.expect("a sweep picks a uniform capacity");
    let best = &tuned.eval;
    println!("\nhigh demand (LP-tuned strategies, demand = 16000 req, 0.007 ms/req):");
    println!("  best capacity     {c:8.2}");
    println!("  avg response      {:8.2} ms", best.avg_response_ms);
    println!("  network component {:8.2} ms", best.avg_network_delay_ms);
    println!("  max node load     {:8.2}", best.max_node_load());

    Ok(())
}
