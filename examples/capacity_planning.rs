//! Capacity planning with the access-strategy LP (§7 end to end).
//!
//! Given a fixed 5×5 Grid deployment on the 50-site network and a high
//! client demand, this example shows the operator's three levers:
//!
//! 1. sweep a **uniform** per-node capacity from `L_opt` to 1 and watch the
//!    delay/load trade-off (Fig 7.6's mechanism);
//! 2. switch to the **non-uniform inverse-distance** capacities (Fig 7.7);
//! 3. compare against the untuned *closest* and *balanced* strategies.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::EvalContext;
use quorumnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let grid = QuorumSystem::grid(5)?;
    let l_opt = grid.optimal_load().expect("grid closed form");
    let placement = one_to_one::best_placement(&net, &grid)?;
    let quorums = grid.enumerate(10_000)?;
    let model = ResponseModel::from_demand(0.007, 16_000.0);

    println!(
        "deployment: {} on {} sites; L_opt = {l_opt:.3}\n",
        grid.label(),
        net.len()
    );

    // Untuned baselines.
    let closest = response::evaluate_closest(&net, &clients, &grid, &placement, model)?;
    let balanced = response::evaluate_balanced(&net, &clients, &grid, &placement, model)?;
    println!("baseline strategies at demand 16000:");
    println!(
        "  closest : response {:7.1} ms (delay {:5.1}, max load {:.2})",
        closest.avg_response_ms,
        closest.avg_network_delay_ms,
        closest.max_node_load()
    );
    println!(
        "  balanced: response {:7.1} ms (delay {:5.1}, max load {:.2})",
        balanced.avg_response_ms,
        balanced.avg_network_delay_ms,
        balanced.max_node_load()
    );

    // Lever 1: uniform capacity sweep.
    println!("\nuniform capacity sweep (LP 4.3–4.6):");
    println!(
        "{:>9} {:>12} {:>12} {:>9}",
        "capacity", "delay_ms", "response_ms", "max_load"
    );
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let weights = vec![1.0; clients.len()];
    let mut solver = strategy_lp::ColGenSolver::new(&pq, Default::default())?;
    let sweep = strategy_lp::tune_capacity(
        &mut solver,
        &pq,
        &weights,
        l_opt,
        CapacityChoice::Sweep { steps: 10 },
        model,
    )?;
    for (c, eval) in &sweep.points {
        println!(
            "{c:>9.3} {:>12.1} {:>12.1} {:>9.2}",
            eval.avg_network_delay_ms,
            eval.avg_response_ms,
            eval.max_node_load()
        );
    }
    let best_c = sweep.capacity.expect("a sweep picks a uniform capacity");
    let best_eval = &sweep.eval;
    println!(
        "  → best: capacity {best_c:.3}, response {:.1} ms",
        best_eval.avg_response_ms
    );

    // Lever 2: non-uniform capacities over [L_opt, c].
    println!("\nnon-uniform (inverse-distance) capacities, γ sweep:");
    println!("{:>9} {:>12} {:>9}", "gamma", "response_ms", "max_load");
    let mut best_nonuniform = f64::INFINITY;
    for (c, _) in &sweep.points {
        let caps = CapacityProfile::inverse_distance(&net, &placement.support_set(), l_opt, *c)?;
        let outcome = solver.solve_profile(&caps)?;
        let eval =
            response::evaluate_matrix_placed_weighted(&pq, &outcome.strategy, &weights, model)?;
        println!(
            "{c:>9.3} {:>12.1} {:>9.2}",
            eval.avg_response_ms,
            eval.max_node_load()
        );
        best_nonuniform = best_nonuniform.min(eval.avg_response_ms);
    }

    println!("\nsummary (avg response, demand 16000):");
    println!("  closest strategy      {:8.1} ms", closest.avg_response_ms);
    println!(
        "  balanced strategy     {:8.1} ms",
        balanced.avg_response_ms
    );
    println!(
        "  LP, uniform caps      {:8.1} ms",
        best_eval.avg_response_ms
    );
    println!("  LP, non-uniform caps  {:8.1} ms", best_nonuniform);
    Ok(())
}
