//! Ablation for the §8 future-work variant: deduplicated execution of
//! co-located universe elements.
//!
//! The paper closes with: "a variation of our model, in which a server
//! hosting multiple universe elements would execute a request only once
//! for all elements it hosts, can clearly improve the performance. We plan
//! to analyze the benefits of such an approach in future work." This
//! binary runs that analysis: for the 5×5 Grid on Planetlab-50, it builds
//! increasingly co-located placements (one-to-one → iterative many-to-one
//! → 3-node → median/singleton) and compares response time with and
//! without deduplicated execution, in both the analytic model and the
//! discrete-event simulation.
//!
//! Usage: `cargo run --release -p qp-bench --bin ablation_dedup [--csv]`

use qp_bench::Table;
use qp_core::capacity::CapacityProfile;
use qp_core::eval::EvalContext;
use qp_core::manyone::ManyToOneConfig;
use qp_core::response::evaluate_balanced;
use qp_core::{iterative, one_to_one, singleton, Placement, ResponseModel};
use qp_protocol::{simulate, ClientPopulation, ProtocolConfig, QuorumChoice};
use qp_quorum::QuorumSystem;
use qp_topology::{datasets, NodeId};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(5).expect("k ≥ 1");
    let quorums = sys.enumerate(100_000).expect("25 quorums");
    let model = ResponseModel::from_demand(0.007, 4000.0);

    // Candidate placements, least to most co-located.
    let one_one = one_to_one::best_placement(&net, &sys).expect("fits");
    let iter_caps = CapacityProfile::uniform(net.len(), 1.0);
    let ctx = EvalContext::new(&net, &clients);
    let m2o = iterative::optimize_ctx(
        &ctx,
        &quorums,
        &iter_caps,
        ResponseModel::network_delay_only(),
        2,
        &ManyToOneConfig {
            capacity_slack: 2.0,
        },
    )
    .expect("feasible at capacity 1.0")
    .placement;
    let ball = net.ball(net.median(), 3);
    let three_node = Placement::new(
        (0..sys.universe_size()).map(|u| ball[u % 3]).collect(),
        net.len(),
    )
    .expect("hosts in range");
    let median = singleton::median_placement(&net, sys.universe_size()).expect("ok");

    let mut table = Table::new(
        "ablation_dedup",
        "§8 ablation — deduplicated execution vs per-element execution (5×5 Grid, Planetlab-50, demand 4000, balanced strategy)",
        vec![
            "support_nodes".into(),
            "model_resp_ms".into(),
            "model_resp_dedup_ms".into(),
            "des_resp_ms".into(),
            "des_resp_dedup_ms".into(),
        ],
    );

    let pop = ClientPopulation::representative(&net, &sys, &one_one, 10, 4);
    for placement in [&one_one, &m2o, &three_node, &median] {
        let plain = evaluate_balanced(&net, &clients, &sys, placement, model).expect("ok");
        let dedup =
            evaluate_balanced(&net, &clients, &sys, placement, model.deduplicated()).expect("ok");
        let cfg = ProtocolConfig {
            warmup_requests: 20,
            measured_requests: 120,
            ..ProtocolConfig::default()
        };
        let des_plain =
            simulate(&net, &sys, placement, &pop, QuorumChoice::Balanced, &cfg).expect("ok");
        let des_dedup = simulate(
            &net,
            &sys,
            placement,
            &pop,
            QuorumChoice::Balanced,
            &ProtocolConfig {
                dedup_colocated: true,
                ..cfg
            },
        )
        .expect("ok");
        table.push_row(vec![
            placement.support_set().len() as f64,
            plain.avg_response_ms,
            dedup.avg_response_ms,
            des_plain.avg_response_ms,
            des_dedup.avg_response_ms,
        ]);
    }

    if csv {
        print!("{}", table.to_csv());
    } else {
        print!("{table}");
        println!(
            "\nReading: dedup matches per-element execution for one-to-one\n\
             placements and wins increasingly as elements co-locate — the\n\
             paper's §8 conjecture, quantified."
        );
    }
}
