//! Property tests for the placement core: response-model invariants,
//! placement-construction optimality, capacity algebra, and order-statistic
//! consistency, across randomized topologies and system parameters.

use proptest::prelude::*;
use qp_core::capacity::{capacity_sweep, CapacityProfile};
use qp_core::strategy_lp::{ColGenSolver, ColumnGeneration};
use qp_core::{
    combinatorics, one_to_one, response, singleton, EvalContext, Placement, ResponseModel,
};
use qp_quorum::{MajorityKind, QuorumSystem, StrategyMatrix};
use qp_topology::{datasets, NodeId};

fn any_kind() -> impl Strategy<Value = MajorityKind> {
    prop_oneof![
        Just(MajorityKind::SimpleMajority),
        Just(MajorityKind::TwoThirds),
        Just(MajorityKind::FourFifths),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn response_is_monotone_in_alpha(
        seed in 0u64..500,
        k in 2usize..4,
        alphas in proptest::collection::vec(0.0f64..200.0, 2),
    ) {
        let net = datasets::euclidean_random(12, 100.0, seed);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        let placement = one_to_one::ball_placement(&net, NodeId::new(0), k * k).unwrap();
        let (lo, hi) = if alphas[0] <= alphas[1] {
            (alphas[0], alphas[1])
        } else {
            (alphas[1], alphas[0])
        };
        let e_lo = response::evaluate_closest(
            &net, &clients, &sys, &placement, ResponseModel::with_alpha(lo)).unwrap();
        let e_hi = response::evaluate_closest(
            &net, &clients, &sys, &placement, ResponseModel::with_alpha(hi)).unwrap();
        prop_assert!(e_hi.avg_response_ms >= e_lo.avg_response_ms - 1e-9);
        // Delay component is α-independent.
        prop_assert!((e_hi.avg_network_delay_ms - e_lo.avg_network_delay_ms).abs() < 1e-9);
    }

    #[test]
    fn closest_choice_minimizes_delay_pointwise(
        seed in 0u64..500,
        kind in any_kind(),
        t in 1usize..3,
    ) {
        // For every client, the closest choice's delay is a lower bound on
        // the delay of any enumerated quorum.
        let net = datasets::euclidean_random(14, 80.0, seed);
        let sys = QuorumSystem::majority(kind, t).unwrap();
        let n = sys.universe_size();
        prop_assume!(n <= net.len());
        let placement = one_to_one::ball_placement(&net, NodeId::new(1), n).unwrap();
        let clients: Vec<NodeId> = net.nodes().collect();
        let choices = response::closest_choices(&net, &clients, &sys, &placement);
        if let Ok(all) = sys.enumerate(5_000) {
            for (v, choice) in clients.iter().zip(&choices) {
                let chosen: f64 = choice
                    .iter()
                    .map(|u| net.distance(*v, placement.node_of(u)))
                    .fold(f64::MIN, f64::max);
                for q in &all {
                    let d: f64 = q
                        .iter()
                        .map(|u| net.distance(*v, placement.node_of(u)))
                        .fold(f64::MIN, f64::max);
                    prop_assert!(chosen <= d + 1e-9);
                }
            }
        }
    }

    #[test]
    fn grid_shell_is_single_client_optimal(seed in 0u64..500, k in 2usize..5) {
        // The anchor's closest-quorum delay equals the (2k−1)-th smallest
        // distance — the information-theoretic lower bound.
        let net = datasets::euclidean_random(30, 120.0, seed);
        let v0 = NodeId::new((seed % 30) as usize);
        let placement = one_to_one::grid_shell_placement(&net, v0, k).unwrap();
        let sys = QuorumSystem::grid(k).unwrap();
        let eval = response::evaluate_closest(
            &net, &[v0], &sys, &placement, ResponseModel::network_delay_only()).unwrap();
        let ball = net.ball(v0, k * k);
        let optimal = net.distance(v0, ball[2 * k - 2]);
        prop_assert!((eval.avg_network_delay_ms - optimal).abs() < 1e-9);
    }

    #[test]
    fn ball_placement_is_single_client_optimal_for_majorities(
        seed in 0u64..500,
        kind in any_kind(),
        t in 1usize..4,
    ) {
        // For the anchor, the closest-quorum delay of the ball placement is
        // the q-th smallest distance — no one-to-one placement can beat it.
        let net = datasets::euclidean_random(25, 100.0, seed);
        let sys = QuorumSystem::majority(kind, t).unwrap();
        let n = sys.universe_size();
        let q = sys.min_quorum_size();
        prop_assume!(n <= net.len());
        let v0 = NodeId::new((seed % 25) as usize);
        let placement = one_to_one::ball_placement(&net, v0, n).unwrap();
        let eval = response::evaluate_closest(
            &net, &[v0], &sys, &placement, ResponseModel::network_delay_only()).unwrap();
        let ball = net.ball(v0, n);
        let optimal = net.distance(v0, ball[q - 1]);
        prop_assert!((eval.avg_network_delay_ms - optimal).abs() < 1e-9);
    }

    #[test]
    fn singleton_beats_half_of_any_deployment(seed in 0u64..300, k in 2usize..4) {
        // Lin's 2-approximation, instantiated: every placement's delay is
        // at least half the singleton's.
        let net = datasets::euclidean_random(16, 90.0, seed);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let d = response::evaluate_closest(
            &net, &clients, &sys, &placement, ResponseModel::network_delay_only())
            .unwrap()
            .avg_network_delay_ms;
        let single = singleton::singleton_delay(&net, &clients);
        prop_assert!(d >= single / 2.0 - 1e-9);
    }

    #[test]
    fn node_loads_sum_to_expected_quorum_size(
        seed in 0u64..300,
        k in 2usize..4,
        clients_n in 2usize..8,
    ) {
        // Σ_w load(w) = avg_v Σ_Q p_v(Q)·|Q| = 2k−1 for the grid under any
        // strategy (all quorums have equal size).
        let net = datasets::euclidean_random(12, 70.0, seed);
        let sys = QuorumSystem::grid(k).unwrap();
        let placement =
            one_to_one::ball_placement(&net, NodeId::new(2), k * k).unwrap();
        let clients: Vec<NodeId> =
            net.nodes().take(clients_n).collect();
        let quorums = sys.enumerate(1000).unwrap();
        let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
        let eval = response::evaluate_matrix(
            &net, &clients, &placement, &quorums, &strategy,
            ResponseModel::network_delay_only()).unwrap();
        let total: f64 = eval.node_loads.iter().sum();
        prop_assert!((total - (2 * k - 1) as f64).abs() < 1e-9);
    }

    #[test]
    fn dedup_never_increases_any_node_load(
        seed in 0u64..300,
        k in 2usize..4,
    ) {
        // Deduplicated execution is a pointwise load improvement.
        let net = datasets::euclidean_random(10, 60.0, seed);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        // A random-ish many-to-one placement over 4 hosts.
        let hosts: Vec<NodeId> = (0..k * k)
            .map(|u| NodeId::new((u * 7 + seed as usize) % 4))
            .collect();
        let placement = Placement::new(hosts, net.len()).unwrap();
        let model = ResponseModel::with_alpha(40.0);
        let plain =
            response::evaluate_balanced(&net, &clients, &sys, &placement, model)
                .unwrap();
        let dedup = response::evaluate_balanced(
            &net, &clients, &sys, &placement, model.deduplicated()).unwrap();
        for (p, d) in plain.node_loads.iter().zip(&dedup.node_loads) {
            prop_assert!(d <= &(p + 1e-9), "dedup load {d} exceeds plain {p}");
        }
        prop_assert!(dedup.avg_response_ms <= plain.avg_response_ms + 1e-9);
    }

    #[test]
    fn capacity_sweep_is_increasing_and_ends_at_one(
        l_opt in 0.0f64..1.0,
        steps in 1usize..20,
    ) {
        let cs = capacity_sweep(l_opt, steps);
        prop_assert_eq!(cs.len(), steps);
        for w in cs.windows(2) {
            prop_assert!(w[1] > w[0] - 1e-12);
        }
        prop_assert!((cs[steps - 1] - 1.0).abs() < 1e-9);
        prop_assert!(cs[0] >= l_opt - 1e-12);
    }

    #[test]
    fn inverse_distance_caps_stay_in_range(
        seed in 0u64..300,
        beta in 0.1f64..0.5,
        width in 0.0f64..0.5,
        support_n in 2usize..10,
    ) {
        let net = datasets::euclidean_random(12, 100.0, seed);
        let gamma = beta + width;
        let support: Vec<NodeId> = net.nodes().take(support_n).collect();
        let caps =
            CapacityProfile::inverse_distance(&net, &support, beta, gamma).unwrap();
        for &v in &support {
            let c = caps.get(v);
            prop_assert!(c >= beta - 1e-12 && c <= gamma + 1e-12);
        }
    }

    #[test]
    fn expected_max_bounded_by_extremes(
        costs in proptest::collection::vec(0.0f64..1000.0, 2..40),
        q_frac in 0.01f64..1.0,
    ) {
        let n = costs.len();
        let q = ((n as f64 * q_frac).ceil() as usize).clamp(1, n);
        let e = combinatorics::expected_max_uniform_subset(&costs, q);
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(e >= min - 1e-9 && e <= max + 1e-9);
        // Against brute force when cheap.
        if n <= 12 {
            let brute = combinatorics::expected_max_brute_force(&costs, q);
            prop_assert!((e - brute).abs() < 1e-8 * (1.0 + brute.abs()));
        }
    }

    #[test]
    fn colgen_matches_full_enumeration_on_random_instances(
        seed in 0u64..400,
        k in 2usize..4,
        seed_columns in 1usize..7,
        cap_frac in 0.0f64..1.0,
    ) {
        // The restricted master + pricing oracle proves optimality of the
        // same LP that full enumeration solves: objectives agree to solver
        // accuracy at every feasible uniform capacity, for any seed size.
        let net = datasets::euclidean_random(14, 100.0, seed);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        let v0 = NodeId::new((seed % 14) as usize);
        let placement = one_to_one::grid_shell_placement(&net, v0, k).unwrap();
        let quorums = sys.enumerate(10_000).unwrap();
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let l_opt = sys.optimal_load().unwrap();
        let c = l_opt + cap_frac * (1.0 - l_opt) + 1e-9;
        let caps = CapacityProfile::uniform(net.len(), c);
        let full = ColGenSolver::new(&pq, ColumnGeneration { seed_columns: quorums.len() })
            .unwrap()
            .solve_profile(&caps)
            .unwrap();
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration { seed_columns }).unwrap();
        let cg = solver.solve_profile(&caps).unwrap();
        prop_assert_eq!(solver.pricing_violations(), Some(0));
        prop_assert!(
            (cg.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()),
            "colgen {} vs full {}", cg.delay_ms, full.delay_ms
        );
        // The colgen strategy is a genuine distribution per client…
        for v in 0..clients.len() {
            let row = cg.strategy.row(v);
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "client {v} row sums to {sum}");
            prop_assert!(row.iter().all(|&p| p >= -1e-9));
        }
        // …and respects the capacity it was solved under.
        let eval = response::evaluate_matrix(
            &net, &clients, &placement, &quorums, &cg.strategy,
            ResponseModel::network_delay_only()).unwrap();
        prop_assert!(
            eval.max_node_load() <= c + 1e-6,
            "max load {} exceeds capacity {c}", eval.max_node_load()
        );
        let stats = cg.colgen;
        prop_assert!(stats.columns_in_master <= stats.total_columns);
        prop_assert!(stats.oracle_passes >= 1);
        prop_assert!(stats.master_resolves >= 1);
    }

    #[test]
    fn colgen_matches_full_enumeration_on_nonuniform_profiles(
        seed in 0u64..400,
        cap_fracs in proptest::collection::vec(0.0f64..1.0, 12),
        seed_columns in 1usize..5,
    ) {
        // Same agreement under per-node capacity profiles: every node gets
        // an independent capacity in [L_opt, 1], which keeps the LP feasible
        // (the balanced strategy loads each grid node at exactly L_opt).
        let k = 3;
        let net = datasets::euclidean_random(12, 80.0, seed);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        let v0 = NodeId::new((seed % 12) as usize);
        let placement = one_to_one::grid_shell_placement(&net, v0, k).unwrap();
        let quorums = sys.enumerate(10_000).unwrap();
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let l_opt = sys.optimal_load().unwrap();
        let caps = CapacityProfile::from_values(
            cap_fracs.iter().map(|f| l_opt + f * (1.0 - l_opt) + 1e-9).collect());
        let full = ColGenSolver::new(&pq, ColumnGeneration { seed_columns: quorums.len() })
            .unwrap()
            .solve_profile(&caps)
            .unwrap();
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration { seed_columns }).unwrap();
        let cg = solver.solve_profile(&caps).unwrap();
        prop_assert_eq!(solver.pricing_violations(), Some(0));
        prop_assert!(
            (cg.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()),
            "colgen {} vs full {}", cg.delay_ms, full.delay_ms
        );
        let eval = response::evaluate_matrix(
            &net, &clients, &placement, &quorums, &cg.strategy,
            ResponseModel::network_delay_only()).unwrap();
        for (w, load) in eval.node_loads.iter().enumerate() {
            prop_assert!(
                *load <= caps.get(NodeId::new(w)) + 1e-6,
                "node {w} load {load} exceeds its capacity"
            );
        }
    }

    #[test]
    fn placement_node_loads_conserve_mass(
        hosts in proptest::collection::vec(0usize..6, 1..20),
        loads in proptest::collection::vec(0.0f64..3.0, 20),
    ) {
        let placement = Placement::new(
            hosts.iter().map(|&h| NodeId::new(h)).collect(), 6).unwrap();
        let element_loads = &loads[..hosts.len()];
        let node_loads = placement.node_loads(element_loads);
        let total_e: f64 = element_loads.iter().sum();
        let total_n: f64 = node_loads.iter().sum();
        prop_assert!((total_e - total_n).abs() < 1e-9);
    }
}
