//! Determinism of the parallel sweep engine: every figure pipeline,
//! placement search, capacity sweep, and multi-run simulation must be
//! **bit-for-bit identical** for any thread count.
//!
//! Each comparison runs the same computation under an explicit global
//! thread configuration of 1 (the serial reference) and again under
//! several worker counts, then compares `f64::to_bits` — not an
//! epsilon. The worker pool guarantees input-ordered results and
//! per-job purity, so any divergence here is a scheduling leak
//! (shared mutable state, thread-dependent seeding, reduction-order
//! dependence) and a real bug.
//!
//! The global thread knob is process-wide; tests in this file take a
//! lock around reconfigure-and-run sections so their serial/parallel
//! labels stay truthful. (Even interleaved, results would be identical
//! — that is the property under test — but the lock keeps each
//! comparison honest about what it measured.)

use std::sync::{Mutex, MutexGuard, OnceLock};

use qp_bench::{figures, Scale, Table};
use qp_par::configure_threads;
use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::strategy_lp;
use quorumnet::prelude::*;

fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` under an explicit global thread count.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    configure_threads(threads);
    f()
}

/// Bitwise table equality with a readable failure message.
fn assert_tables_identical(label: &str, serial: &Table, parallel: &Table, threads: usize) {
    assert_eq!(serial.columns, parallel.columns, "{label}: columns changed");
    assert_eq!(
        serial.rows.len(),
        parallel.rows.len(),
        "{label}: row count changed at {threads} threads"
    );
    for (r, (a, b)) in serial.rows.iter().zip(&parallel.rows).enumerate() {
        assert_eq!(a.len(), b.len(), "{label}: row {r} width changed");
        for (c, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: cell ({r}, {c}) drifted at {threads} threads: {x:?} vs {y:?}"
            );
        }
    }
}

fn figure_is_thread_count_invariant(label: &str, pipeline: fn(Scale) -> Table) {
    let _guard = config_lock();
    let serial = with_threads(1, || pipeline(Scale::Smoke));
    for threads in [2, 4, 7] {
        let parallel = with_threads(threads, || pipeline(Scale::Smoke));
        assert_tables_identical(label, &serial, &parallel, threads);
    }
    configure_threads(1);
}

#[test]
fn fig3_1_des_pipeline_deterministic() {
    figure_is_thread_count_invariant("fig3_1", figures::fig3_1);
}

#[test]
fn fig6_3_placement_pipeline_deterministic() {
    figure_is_thread_count_invariant("fig6_3", figures::fig6_3);
}

#[test]
fn fig7_6_lp_sweep_pipeline_deterministic() {
    figure_is_thread_count_invariant("fig7_6", figures::fig7_6);
}

#[test]
fn fig7_7_uniform_vs_nonuniform_pipeline_deterministic() {
    // Both cell kinds of a universe size solve on one mutating master.
    figure_is_thread_count_invariant("fig7_7", figures::fig7_7);
}

#[test]
fn fig8_9_iterative_pipeline_deterministic() {
    figure_is_thread_count_invariant("fig8_9", figures::fig8_9);
}

#[test]
fn best_placement_search_deterministic() {
    let _guard = config_lock();
    let net = datasets::planetlab_50();
    for sys in [
        QuorumSystem::grid(5).unwrap(),
        QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap(),
    ] {
        let serial = with_threads(1, || one_to_one::best_placement(&net, &sys).unwrap());
        for threads in [2, 4, 16] {
            let parallel =
                with_threads(threads, || one_to_one::best_placement(&net, &sys).unwrap());
            assert_eq!(
                serial.as_slice(),
                parallel.as_slice(),
                "{} anchor search drifted at {threads} threads",
                sys.label()
            );
        }
    }
    configure_threads(1);
}

#[test]
fn capacity_tuning_sweep_deterministic() {
    let _guard = config_lock();
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let model = ResponseModel::from_demand(0.007, 16000.0);
    let l_opt = sys.optimal_load().unwrap();

    let ctx = quorumnet::core::EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let weights = vec![1.0; clients.len()];
    let tune = |threads: usize| {
        with_threads(threads, || {
            let cfg = strategy_lp::ColumnGeneration::default();
            let mut solver = strategy_lp::ColGenSolver::new(&pq, cfg).unwrap();
            let choice = CapacityChoice::Sweep { steps: 6 };
            strategy_lp::tune_capacity(&mut solver, &pq, &weights, l_opt, choice, model).unwrap()
        })
    };
    let serial = tune(1);
    for threads in [2, 4] {
        let parallel = tune(threads);
        assert_eq!(
            serial.capacity.map(f64::to_bits),
            parallel.capacity.map(f64::to_bits),
            "winner drifted"
        );
        assert_eq!(serial.points.len(), parallel.points.len());
        for ((c1, e1), (c2, e2)) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(c1.to_bits(), c2.to_bits());
            assert_eq!(
                e1.avg_response_ms.to_bits(),
                e2.avg_response_ms.to_bits(),
                "sweep point c={c1} drifted at {threads} threads"
            );
        }
    }
    configure_threads(1);
}

#[test]
fn multi_run_simulation_deterministic() {
    let _guard = config_lock();
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let pop = ClientPopulation::representative(&net, &sys, &placement, 6, 2);
    let cfg = ProtocolConfig {
        warmup_requests: 5,
        measured_requests: 30,
        ..ProtocolConfig::default()
    };
    let seeds: Vec<u64> = (0..6).collect();
    let run = |threads: usize| {
        with_threads(threads, || {
            quorumnet::protocol::simulate_many(
                &net,
                &sys,
                &placement,
                &pop,
                &QuorumChoice::Balanced,
                &cfg,
                &seeds,
            )
            .unwrap()
        })
    };
    let serial = run(1);
    for threads in [3, 6] {
        let parallel = run(threads);
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(
                a.avg_response_ms.to_bits(),
                b.avg_response_ms.to_bits(),
                "DES run {i} drifted at {threads} threads"
            );
            assert_eq!(a.horizon_ms.to_bits(), b.horizon_ms.to_bits());
        }
    }
    configure_threads(1);
}
