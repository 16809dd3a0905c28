//! Criterion micro-benchmarks for the core computational kernels:
//! LP solves, placement construction and search, metric closure,
//! topology generation, order-statistic evaluation, and DES event
//! throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qp_core::capacity::{capacity_sweep, CapacityChoice, CapacityProfile};
use qp_core::eval::EvalContext;
use qp_core::manyone::{self, element_weights, place_for_client, ManyToOneConfig};
use qp_core::strategy_lp::{ColGenSolver, ColumnGeneration};
use qp_core::{combinatorics, one_to_one, response, strategy_lp, ResponseModel};
use qp_des::{EventQueue, ServiceStation, SimTime, TimeWheel};
use qp_lp::{Model, Sense};
use qp_protocol::{
    simulate, simulate_with_engine, ClientPopulation, ProtocolConfig, QuorumChoice, SimEngine,
};
use qp_quorum::{MajorityKind, QuorumSystem, StrategyMatrix};
use qp_topology::{datasets, NodeId};

/// Deterministic pseudo-random feasible, bounded LP: `b ≥ 0`, so x = 0 is
/// feasible, and every column has a positive coefficient in some `≤` row
/// (rows ≥ 5), so no column can grow without bound.
fn random_lp(vars: usize, rows: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let xs: Vec<_> = (0..vars)
        .map(|j| m.add_var(((j * 37 % 19) as f64 - 9.0) / 3.0))
        .collect();
    for i in 0..rows {
        let terms: Vec<_> = xs
            .iter()
            .enumerate()
            .filter(|(j, _)| (i * 7 + j * 13) % 5 == 0)
            .map(|(j, &x)| (x, 1.0 + ((i + j) % 3) as f64))
            .collect();
        m.add_le(&terms, 10.0 + (i % 7) as f64);
    }
    m
}

fn bench_lp_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solver");
    group.sample_size(10);
    // Cold solves of random LPs over `x ≥ 0`.
    for &(vars, rows) in &[(50usize, 20usize), (200, 60), (800, 120)] {
        group.bench_with_input(
            BenchmarkId::new("factored_random", format!("{vars}v_{rows}r")),
            &(vars, rows),
            |b, &(vars, rows)| {
                b.iter(|| random_lp(vars, rows).solve().expect("feasible bounded LP"));
            },
        );
    }

    // Cold vs warm capacity sweep: the §7 shape — one constraint matrix,
    // ten capacity rhs values. Cold solves each point on a fresh master;
    // warm solves every point on one master, in sweep order.
    let net = datasets::euclidean_random(24, 100.0, 42);
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::grid_shell_placement(&net, NodeId::new(0), 3).unwrap();
    let quorums = sys.enumerate(10_000).unwrap();
    let l_opt = sys.optimal_load().unwrap();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let cs = capacity_sweep(l_opt, 10);
    let master = || ColGenSolver::new(&pq, ColumnGeneration::default()).expect("non-empty");
    group.bench_function("sweep_cold_grid3_24sites", |b| {
        b.iter(|| {
            cs.iter()
                .map(|&cap| {
                    let caps = CapacityProfile::uniform(net.len(), cap);
                    master()
                        .solve_profile(&caps)
                        .map(|o| o.strategy.num_clients())
                        .unwrap_or(0)
                })
                .sum::<usize>()
        });
    });
    group.bench_function("sweep_warm_grid3_24sites", |b| {
        b.iter(|| {
            let mut solver = master();
            cs.iter()
                .map(|&cap| {
                    let caps = CapacityProfile::uniform(net.len(), cap);
                    solver
                        .solve_profile(&caps)
                        .map(|o| o.strategy.num_clients())
                        .unwrap_or(0)
                })
                .sum::<usize>()
        });
    });

    // Column generation vs full enumeration at paper scale: a 7×7 Grid on
    // daxlist-161 has 161 × 49 = 7,889 (client × quorum) columns.
    let dax = datasets::daxlist_161();
    let dax_clients: Vec<NodeId> = dax.nodes().collect();
    let dax_sys = QuorumSystem::grid(7).unwrap();
    let dax_placement = one_to_one::grid_shell_placement(&dax, NodeId::new(0), 7).unwrap();
    let dax_quorums = dax_sys.enumerate(100).unwrap();
    let dax_l_opt = dax_sys.optimal_load().unwrap();
    let dax_ctx = EvalContext::new(&dax, &dax_clients);
    let dax_pq = dax_ctx.place(&dax_placement, &dax_quorums);
    // Both sides solve the identical strategy LP (objectives agree to
    // 1e-9, as Golden 8b checks for the 3×3 Grid): `full` seeds the master
    // with every column, `colgen` seeds each client's four closest
    // quorums and lets the pricing oracle materialize only the columns
    // that price favorably. The sweep pair replays the ten-point §7
    // sweep through the tuner, each on one master kept across the
    // capacity points. The full-enumeration side stays in-bench
    // permanently for A/B against future pricing work.
    let dax_full = ColumnGeneration {
        seed_columns: dax_quorums.len(),
    };
    let dax_caps = CapacityProfile::uniform(dax.len(), 0.8);
    group.bench_function(
        BenchmarkId::new("colgen_vs_full", "full_daxlist161_c08"),
        |b| {
            b.iter(|| {
                ColGenSolver::new(&dax_pq, dax_full.clone())
                    .and_then(|mut solver| solver.solve_profile(&dax_caps))
                    .expect("feasible at 0.8")
                    .delay_ms
            });
        },
    );
    group.bench_function(
        BenchmarkId::new("colgen_vs_full", "colgen_daxlist161_c08"),
        |b| {
            b.iter(|| {
                ColGenSolver::new(&dax_pq, ColumnGeneration::default())
                    .and_then(|mut solver| solver.solve_profile(&dax_caps))
                    .expect("feasible at 0.8")
                    .delay_ms
            });
        },
    );
    let dax_model = ResponseModel::from_demand(0.007, 16_000.0);
    let dax_weights = vec![1.0; dax_clients.len()];
    for (name, cfg) in [
        ("sweep_full_daxlist161", dax_full),
        ("sweep_colgen_daxlist161", ColumnGeneration::default()),
    ] {
        group.bench_function(BenchmarkId::new("colgen_vs_full", name), |b| {
            b.iter(|| {
                let mut solver =
                    ColGenSolver::new(&dax_pq, cfg.clone()).expect("non-empty geometry");
                strategy_lp::tune_capacity(
                    &mut solver,
                    &dax_pq,
                    &dax_weights,
                    dax_l_opt,
                    CapacityChoice::Sweep { steps: 10 },
                    dax_model,
                )
                .expect("feasible sweep")
                .capacity
            });
        });
    }

    // The many-to-one anchor search in fig8_9's shape: a uniform strategy
    // on the 5×5 Grid, capacity 1.0 with slack 2, one placement LP
    // (25 elements × 50 nodes) per Planetlab-50 anchor.
    let pl = datasets::planetlab_50();
    let grid5 = QuorumSystem::grid(5).unwrap().enumerate(100_000).unwrap();
    let uniform = vec![1.0 / grid5.len() as f64; grid5.len()];
    let pl_caps = CapacityProfile::uniform(pl.len(), 1.0);
    let slack2 = ManyToOneConfig {
        capacity_slack: 2.0,
    };
    group.bench_function("manyone_best_placement_grid5_planetlab50", |b| {
        b.iter(|| {
            manyone::best_placement(&pl, &grid5, &uniform, &pl_caps, &slack2)
                .expect("feasible at 1.0")
                .lp_objective
        });
    });
    group.finish();
}

fn bench_strategy_lp(c: &mut Criterion) {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let mut group = c.benchmark_group("strategy_lp");
    group.sample_size(10);
    for &k in &[3usize, 5] {
        let sys = QuorumSystem::grid(k).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let quorums = sys.enumerate(100_000).unwrap();
        let caps = CapacityProfile::uniform(net.len(), 0.8);
        group.bench_with_input(
            BenchmarkId::new("grid_planetlab50", format!("k{k}")),
            &k,
            |b, _| {
                b.iter(|| {
                    strategy_lp::optimize_strategies(&net, &clients, &placement, &quorums, &caps)
                        .expect("feasible at 0.8")
                });
            },
        );
    }
    group.finish();
}

fn bench_manyone_lp(c: &mut Criterion) {
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::grid(4).unwrap();
    let quorums = sys.enumerate(100_000).unwrap();
    let probs = vec![1.0 / quorums.len() as f64; quorums.len()];
    let weights = element_weights(&probs, &quorums, sys.universe_size());
    let caps = CapacityProfile::uniform(net.len(), 0.9);
    let mut group = c.benchmark_group("manyone");
    group.sample_size(10);
    group.bench_function("place_for_client_grid4", |b| {
        b.iter(|| {
            place_for_client(
                &net,
                NodeId::new(7),
                &weights,
                &caps,
                &ManyToOneConfig::default(),
            )
            .expect("feasible")
        });
    });
    group.finish();
}

fn bench_placement_search(c: &mut Criterion) {
    let net = datasets::planetlab_50();
    let mut group = c.benchmark_group("placement_search");
    group.sample_size(20);
    let grid = QuorumSystem::grid(5).unwrap();
    group.bench_function("best_grid5_closest", |b| {
        b.iter(|| one_to_one::best_placement(&net, &grid).unwrap());
    });
    let maj = QuorumSystem::majority(MajorityKind::FourFifths, 4).unwrap();
    group.bench_function("best_majority_t4_balanced", |b| {
        b.iter(|| {
            one_to_one::best_placement_by(&net, &maj, one_to_one::SelectionObjective::BalancedDelay)
                .unwrap()
        });
    });
    group.finish();
}

fn bench_metric_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("metric_closure");
    for &n in &[50usize, 161] {
        let net = datasets::uniform_random(n, 5.0, 300.0, 11);
        let m = net.distances().clone();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| m.metric_closure());
        });
    }
    group.finish();
}

/// Transit-stub generation: one Dijkstra matrix over the sparse link
/// graph, never closed. `transit_stub_2000` is the shape of
/// `data/scenarios/transit_colgen_2000.toml`; `transit_stub_500` cuts it
/// to 500 sites.
fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    group.sample_size(10);
    let colgen_2000 = datasets::TransitStubConfig {
        transit_domains: 5,
        transit_size: 4,
        stubs_per_transit: 9,
        stub_size: 11,
        jitter_frac: 0.04,
        ..datasets::TransitStubConfig::default()
    };
    assert_eq!(colgen_2000.sites(), 2000);
    group.bench_function(BenchmarkId::new("transit_stub_2000", "sparse"), |b| {
        b.iter(|| colgen_2000.generate(11));
    });
    let cfg_500 = datasets::TransitStubConfig {
        stubs_per_transit: 4,
        stub_size: 6,
        ..colgen_2000.clone()
    };
    assert_eq!(cfg_500.sites(), 500);
    group.bench_function(BenchmarkId::new("transit_stub_500", "sparse"), |b| {
        b.iter(|| cfg_500.generate(11));
    });
    group.finish();
}

fn bench_expected_max(c: &mut Criterion) {
    let costs: Vec<f64> = (0..161).map(|i| ((i * 31) % 97) as f64).collect();
    let mut group = c.benchmark_group("combinatorics");
    group.sample_size(30);
    group.bench_function("expected_max_uniform_subset_n161_q81", |b| {
        b.iter(|| combinatorics::expected_max_uniform_subset(&costs, 81));
    });
    group.finish();
}

fn bench_evaluation(c: &mut Criterion) {
    let net = datasets::daxlist_161();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(7).unwrap();
    let placement = one_to_one::grid_shell_placement(&net, NodeId::new(0), 7).unwrap();
    let mut group = c.benchmark_group("evaluation");
    group.sample_size(30);
    group.bench_function("evaluate_closest_grid7_daxlist161", |b| {
        b.iter(|| {
            response::evaluate_closest(
                &net,
                &clients,
                &sys,
                &placement,
                ResponseModel::from_demand(0.007, 16000.0),
            )
            .unwrap()
        });
    });

    // Cached vs uncached Eq. (4.2) evaluation: the uncached path rebuilds
    // the (clients × quorums) delay matrix and host geometry per call;
    // the cached path binds them once via PlacedQuorums and reuses them —
    // the exact shape of the §7 capacity sweeps.
    let quorums = sys.enumerate(100_000).unwrap();
    let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
    let model = ResponseModel::from_demand(0.007, 16000.0);
    group.bench_function("evaluate_matrix_uncached_grid7_daxlist161", |b| {
        b.iter(|| {
            response::evaluate_matrix(&net, &clients, &placement, &quorums, &strategy, model)
                .unwrap()
        });
    });
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    group.bench_function("evaluate_matrix_cached_grid7_daxlist161", |b| {
        b.iter(|| response::evaluate_matrix_placed(&pq, &strategy, model).unwrap());
    });
    let dedup = model.deduplicated();
    group.bench_function("evaluate_matrix_uncached_dedup_grid7", |b| {
        b.iter(|| {
            response::evaluate_matrix(&net, &clients, &placement, &quorums, &strategy, dedup)
                .unwrap()
        });
    });
    group.bench_function("evaluate_matrix_cached_dedup_grid7", |b| {
        b.iter(|| response::evaluate_matrix_placed(&pq, &strategy, dedup).unwrap());
    });
    group.finish();
}

fn bench_sweep_parallel(c: &mut Criterion) {
    // The whole fig7_6 smoke pipeline (placement search + LP sweep over
    // the (universe × capacity) grid), serial vs parallel. Output is
    // bit-identical across thread counts; only wall-clock differs.
    // Restores the default configuration afterwards.
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("fig7_6_smoke", format!("t{threads}")),
            &threads,
            |b, &threads| {
                qp_par::configure_threads(threads);
                b.iter(|| qp_bench::figures::fig7_6(qp_bench::Scale::Smoke));
            },
        );
    }
    qp_par::configure_threads(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    let mut group = c.benchmark_group("des");
    group.sample_size(10);
    group.bench_function("event_queue_100k_push_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                // Scatter times deterministically.
                let t = ((i.wrapping_mul(2654435761)) % 1_000_000) as f64 / 100.0;
                q.push(SimTime::from_ms(t), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
    group.bench_function("service_station_1m_submits", |b| {
        b.iter(|| {
            let mut s = ServiceStation::new();
            let mut t = SimTime::ZERO;
            for _ in 0..1_000_000 {
                t = t + 0.5;
                s.submit(t, 1.0);
            }
            s.served()
        });
    });
    // The same 1M arrivals through the batch form, the aggregated
    // engine's per-flow path: the station's state stays in locals.
    group.bench_function("service_station_1m_batch", |b| {
        b.iter(|| {
            let mut s = ServiceStation::new();
            let mut t = SimTime::ZERO;
            let arrivals = std::iter::repeat_with(|| {
                t = t + 0.5;
                t
            });
            s.submit_batch(arrivals.take(1_000_000), 1.0, |_, _| {});
            s.served()
        });
    });
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let clients = ClientPopulation::representative(&net, &sys, &placement, 10, 5);
    group.bench_function("protocol_sim_50clients_qu_t2", |b| {
        b.iter(|| {
            simulate(
                &net,
                &sys,
                &placement,
                &clients,
                QuorumChoice::Balanced,
                &ProtocolConfig {
                    warmup_requests: 10,
                    measured_requests: 50,
                    ..ProtocolConfig::default()
                },
            )
            .unwrap()
        });
    });
    group.finish();
}

/// The ISSUE-8 A/B pairs. `queue` races the binary heap against the
/// hierarchical time wheel on the same 100k-event scatter (pop order is
/// identical — see the qp-des schedule-equivalence proptest), plus the
/// wheel's batch-push entry point. `engine` races the exact per-client
/// DES against the aggregated fluid engine on the same mid-size
/// workload: the aggregated cost scales with locations × quorums, not
/// clients, so the gap widens with population.
fn bench_des_ab(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_ab");
    group.sample_size(10);

    let scatter = |i: u64| ((i.wrapping_mul(2654435761)) % 1_000_000) as f64 / 100.0;
    group.bench_function(BenchmarkId::new("queue_100k_scatter", "heap"), |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                q.push(SimTime::from_ms(scatter(i)), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
    group.bench_function(BenchmarkId::new("queue_100k_scatter", "wheel"), |b| {
        b.iter(|| {
            let mut q = TimeWheel::new(1.0);
            for i in 0..100_000u64 {
                q.push(SimTime::from_ms(scatter(i)), i);
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });
    group.bench_function(BenchmarkId::new("queue_100k_scatter", "wheel_batch"), |b| {
        b.iter(|| {
            let mut q = TimeWheel::new(1.0);
            q.push_batch((0..100_000u64).map(|i| (SimTime::from_ms(scatter(i)), i)));
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            count
        });
    });

    // Exact vs aggregated on the same 2,000-client workload. The exact
    // engine walks every client's closed loop; the aggregated engine
    // merges each location into one per-quorum flow.
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let clients = ClientPopulation::representative(&net, &sys, &placement, 10, 200);
    let cfg = ProtocolConfig {
        warmup_requests: 4,
        measured_requests: 16,
        service_time_ms: 0.05,
        ..ProtocolConfig::default()
    };
    for (label, engine) in [
        ("exact", SimEngine::Exact),
        ("aggregated", SimEngine::Aggregated),
    ] {
        group.bench_function(BenchmarkId::new("protocol_2k_clients", label), |b| {
            b.iter(|| {
                simulate_with_engine(
                    &net,
                    &sys,
                    &placement,
                    &clients,
                    QuorumChoice::Balanced,
                    &cfg,
                    engine,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// ISSUE-10's overhead contract: the recorder hooks must be free when
/// no recorder is installed and cheap when one is. Each kernel runs
/// A/B — `noop` (nothing installed, the `enabled()` fast path) against
/// `in_memory` (an [`InMemoryRecorder`] collecting every counter,
/// histogram sample, and event). The kernels are the two hottest
/// instrumented paths: a full 800-variable LP solve (one flush per
/// solve) and an exact-engine protocol simulation (one flush per run).
/// The recorder is process-global, so install/uninstall brackets each
/// measured configuration — criterion interleaves nothing in between.
fn bench_obs_overhead(c: &mut Criterion) {
    use std::sync::Arc;

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let clients = ClientPopulation::representative(&net, &sys, &placement, 10, 5);
    let cfg = ProtocolConfig {
        warmup_requests: 10,
        measured_requests: 50,
        ..ProtocolConfig::default()
    };

    for recorder in ["noop", "in_memory"] {
        if recorder == "in_memory" {
            qp_obs::install(Arc::new(qp_obs::InMemoryRecorder::new()));
        } else {
            qp_obs::uninstall();
        }
        group.bench_function(BenchmarkId::new("lp_800v_120r", recorder), |b| {
            b.iter(|| random_lp(800, 120).solve().unwrap());
        });
        group.bench_function(BenchmarkId::new("protocol_sim_50clients", recorder), |b| {
            b.iter(|| {
                simulate(
                    &net,
                    &sys,
                    &placement,
                    &clients,
                    QuorumChoice::Balanced,
                    &cfg,
                )
                .unwrap()
            });
        });
        qp_obs::uninstall();
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lp_solver,
    bench_strategy_lp,
    bench_manyone_lp,
    bench_placement_search,
    bench_metric_closure,
    bench_topology,
    bench_expected_max,
    bench_evaluation,
    bench_sweep_parallel,
    bench_des,
    bench_des_ab,
    bench_obs_overhead,
);
criterion_main!(benches);
