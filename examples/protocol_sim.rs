//! Run the Q/U-style protocol simulation and compare it with the analytic
//! response-time model (the §3 motivating experiment, in miniature).
//!
//! ```text
//! cargo run --release --example protocol_sim
//! ```

use quorumnet::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = datasets::planetlab_50();

    println!("Q/U on Planetlab-50: n = 5t+1 servers, quorums of 4t+1, 1 ms/request\n");
    println!(
        "{:>3} {:>4} {:>9} {:>13} {:>13} {:>9} {:>9}",
        "t", "n", "clients", "net_delay_ms", "response_ms", "p95_ms", "max_util"
    );

    for t in 1..=4 {
        let sys = QuorumSystem::majority(MajorityKind::FourFifths, t)?;
        let placement = one_to_one::best_placement_by(
            &net,
            &sys,
            one_to_one::SelectionObjective::BalancedDelay,
        )?;
        let base = ClientPopulation::representative(&net, &sys, &placement, 10, 1);

        for per_loc in [1usize, 5, 10] {
            let pop = base.with_per_location(per_loc);
            let report = simulate(
                &net,
                &sys,
                &placement,
                &pop,
                QuorumChoice::Balanced,
                &ProtocolConfig {
                    service_time_ms: 1.0,
                    warmup_requests: 20,
                    measured_requests: 150,
                    seed: 7,
                    service_multipliers: None,
                    dedup_colocated: false,
                    initial_server_busy_ms: None,
                    fault: None,
                },
            )?;
            let max_util = report
                .server_utilization
                .iter()
                .copied()
                .fold(0.0_f64, f64::max);
            println!(
                "{t:>3} {:>4} {:>9} {:>13.1} {:>13.1} {:>9.1} {:>9.2}",
                sys.universe_size(),
                pop.total_clients(),
                report.avg_network_delay_ms,
                report.avg_response_ms,
                report.percentiles_ms.1,
                max_util,
            );
        }
    }

    // Failure injection: one slow replica. Q/U's 4t+1-of-5t+1 quorums
    // cannot avoid it for long — response time degrades visibly.
    println!("\nfailure injection: server 0 degraded 25× (t = 2, 50 clients)");
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2)?;
    let placement =
        one_to_one::best_placement_by(&net, &sys, one_to_one::SelectionObjective::BalancedDelay)?;
    let pop = ClientPopulation::representative(&net, &sys, &placement, 10, 5);
    for (label, mults) in [
        ("nominal", None),
        ("degraded", {
            let mut m = vec![1.0; sys.universe_size()];
            m[0] = 25.0;
            Some(m)
        }),
    ] {
        let report = simulate(
            &net,
            &sys,
            &placement,
            &pop,
            QuorumChoice::Balanced,
            &ProtocolConfig {
                service_multipliers: mults,
                measured_requests: 150,
                ..ProtocolConfig::default()
            },
        )?;
        println!(
            "  {label:<9} response {:7.1} ms (p99 {:.1} ms)",
            report.avg_response_ms, report.percentiles_ms.2
        );
    }

    Ok(())
}
