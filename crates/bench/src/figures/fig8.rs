//! §7's iterative many-to-one evaluation (Figure 8.9).

use qp_core::capacity::{capacity_sweep, CapacityProfile};
use qp_core::eval::EvalContext;
use qp_core::manyone::ManyToOneConfig;
use qp_core::response::evaluate_closest;
use qp_core::{iterative, one_to_one, CoreError, ResponseModel};
use qp_par::ParPool;
use qp_quorum::QuorumSystem;
use qp_topology::{datasets, NodeId};

use crate::{Scale, Table};

/// Figure 8.9: network delay of the iterative many-to-one algorithm on the
/// 5×5 Grid over Planetlab-50, as a function of the (uniform) node
/// capacity, against the one-to-one placement baseline.
///
/// The paper plots the delay after the 1st and 2nd iterations; our history
/// records both phases of each iteration, and we report iteration 1's
/// phase-2 delay as "1st iteration" and iteration 2's (when the algorithm
/// runs that far — most runs terminate after one iteration, as the paper
/// observes) as "2nd iteration".
pub fn fig8_9(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    // Smoke uses k = 4 rather than 2: co-locating two elements needs
    // capacity ≥ 2·(2k−1)/k², which never fits below 1.0 for tiny grids.
    let (k, steps) = match scale {
        Scale::Full => (5, 10),
        Scale::Smoke => (4, 3),
    };
    let sys = QuorumSystem::grid(k).expect("k ≥ 1");
    let l_opt = sys.optimal_load().expect("grid");
    let quorums = sys.enumerate(100_000).expect("k² quorums");
    // α = 0: §8.9 studies the network-delay objective.
    let model = ResponseModel::network_delay_only();

    // One-to-one baseline (capacity-independent).
    let ctx = EvalContext::new(&net, &clients);
    let one_one = one_to_one::best_placement_ctx(&ctx, &sys).expect("fits");
    let baseline = evaluate_closest(ctx.net(), ctx.clients(), &sys, &one_one, model)
        .expect("evaluation succeeds")
        .avg_network_delay_ms;

    let mut table = Table::new(
        "fig8_9",
        "Fig 8.9 — Iterative many-to-one: network delay vs node capacity (5×5 Grid, Planetlab-50)",
        vec![
            "capacity".into(),
            "delay_iter1_ms".into(),
            "delay_iter2_ms".into(),
            "delay_one_to_one_ms".into(),
        ],
    );
    // capacity_slack = 2 reproduces the paper's almost-capacity-respecting
    // placement phase: loads may exceed the nominal capacity by the
    // classical constant factor, which is what lets co-location pay off
    // even at tight capacities (see `ManyToOneConfig::capacity_slack`).
    let m2o = ManyToOneConfig {
        capacity_slack: 2.0,
        ..ManyToOneConfig::default()
    };
    // Every sweep point is an independent run of the full iterative
    // algorithm (two LPs per iteration) — the coarsest useful parallel
    // grain of this figure.
    let cs = capacity_sweep(l_opt, steps);
    let rows: Vec<Vec<f64>> = ParPool::global().run(cs.len(), |i| {
        let c = cs[i];
        let caps0 = CapacityProfile::uniform(net.len(), c);
        match iterative::optimize_ctx(&ctx, &quorums, &caps0, model, 2, &m2o) {
            Ok(result) => {
                let it1 = result.history[0].after_strategy.avg_network_delay_ms;
                let it2 = result
                    .history
                    .get(1)
                    .map(|r| r.after_strategy.avg_network_delay_ms)
                    .unwrap_or(it1);
                vec![c, it1, it2, baseline]
            }
            Err(CoreError::Infeasible) => vec![c, f64::NAN, f64::NAN, baseline],
            Err(e) => panic!("unexpected failure at c={c}: {e}"),
        }
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
    fn many_to_one_beats_one_to_one_delay() {
        let t = fig8_9(Scale::Smoke);
        // "Since this approach creates many-to-one placements, network
        // delay will necessarily decrease": co-location pays off once
        // capacity admits two elements per node; below that threshold the
        // iterative result may only tie the one-to-one baseline (its LP
        // optimizes a weighted-sum proxy, so allow a small tolerance).
        let mut feasible = 0;
        let mut improved_at_top = false;
        for row in &t.rows {
            if row[1].is_nan() {
                continue;
            }
            feasible += 1;
            let best_iter = row[1].min(row[2]);
            assert!(
                best_iter <= row[3] * 1.01 + 1e-6,
                "iterative delay {best_iter} much worse than one-to-one {}",
                row[3]
            );
            if (row[0] - 1.0).abs() < 1e-9 && best_iter < row[3] - 1e-6 {
                improved_at_top = true;
            }
        }
        assert!(feasible > 0, "no feasible sweep point");
        assert!(
            improved_at_top,
            "co-location should beat one-to-one at capacity 1.0"
        );
    }
}
