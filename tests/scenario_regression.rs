//! Scenario-regression harness: pins golden values for the paper's
//! headline numbers under fixed seeds, so that every future scaling or
//! performance PR is diffed against the figures themselves — not just
//! type-checked.
//!
//! Every quantity below is a pure function of a deterministic dataset
//! (`planetlab_50()` is seeded) and, for the DES scenario, a fixed
//! `ProtocolConfig::seed`. The whole stack — dataset generator, placement
//! search, simplex solver, GAP rounding, DES — is deterministic, so the
//! pinned values are exact up to floating-point noise; tolerances are a
//! relative `1e-9`.
//!
//! If a change moves one of these numbers **on purpose** (e.g. a better
//! placement search), update the golden and say so in the PR: that is a
//! figure change, not a refactor. To regenerate all goldens, run
//!
//! ```text
//! cargo test --test scenario_regression -- --nocapture
//! ```
//!
//! and copy the `golden:` lines printed by each scenario.

use quorumnet::core::capacity::CapacityChoice;
use quorumnet::core::manyone::{self, ManyToOneConfig};
use quorumnet::core::strategy_lp;
use quorumnet::core::EvalContext;
use quorumnet::prelude::*;
use quorumnet::scenario::{ScenarioRunner, ScenarioSpec};

/// Relative-tolerance check for pinned floating-point goldens.
fn assert_golden(name: &str, actual: f64, golden: f64) {
    println!("golden: {name} = {actual:.12}");
    let tol = 1e-9 * (1.0 + golden.abs());
    assert!(
        (actual - golden).abs() <= tol,
        "{name} drifted from golden value: actual {actual:.12}, golden {golden:.12} \
         (Δ = {:+.3e}). If intentional, update tests/scenario_regression.rs.",
        actual - golden
    );
}

/// Golden 1 — the singleton baseline of §5/§6: everything on the graph
/// median of Planetlab-50, averaged over all 50 clients.
#[test]
fn golden_singleton_delay_planetlab50() {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let single = singleton::singleton_delay(&net, &clients);
    assert_golden("singleton_delay_ms", single, SINGLETON_DELAY_MS);
}

/// Golden 2 — Figure 6.3's central comparison: the closest-strategy
/// network delay of the best one-to-one 3×3 Grid placement on
/// Planetlab-50, and its ratio to the singleton.
#[test]
fn golden_closest_grid3_delay_planetlab50() {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let eval = response::evaluate_closest(
        &net,
        &clients,
        &sys,
        &placement,
        ResponseModel::network_delay_only(),
    )
    .unwrap();
    assert_golden(
        "closest_grid3_delay_ms",
        eval.avg_network_delay_ms,
        CLOSEST_GRID3_DELAY_MS,
    );
}

/// Golden 3 — the Lin half-singleton bound, as an *equality pin*: the
/// bound itself is pinned, and the Grid deployment must sit between the
/// bound and the singleton-×3 sanity ceiling (the paper's qualitative
/// "not much worse than singleton" claim).
#[test]
fn golden_lin_half_singleton_bound() {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let single = singleton::singleton_delay(&net, &clients);
    let bound = single / 2.0;
    assert_golden(
        "lin_half_singleton_bound_ms",
        bound,
        SINGLETON_DELAY_MS / 2.0,
    );
    for k in [3usize, 5] {
        let sys = QuorumSystem::grid(k).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let d = response::evaluate_closest(
            &net,
            &clients,
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        )
        .unwrap()
        .avg_network_delay_ms;
        assert!(
            d >= bound - 1e-9,
            "grid {k}×{k} delay {d} ms beats the Lin bound {bound} ms: impossible"
        );
        assert!(
            d <= single * 3.0,
            "grid {k}×{k} delay {d} ms is absurdly worse than singleton {single} ms"
        );
    }
}

/// Golden 4 — the §4.1.2 many-to-one pipeline (LP → Lin–Vitter filter →
/// GAP rounding) on Planetlab-50, 3×3 Grid, uniform capacity 0.8: both
/// the fractional LP objective and the rounded placement's objective.
#[test]
fn golden_manyone_pipeline_objective() {
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::grid(3).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let probs = vec![1.0 / quorums.len() as f64; quorums.len()];
    let caps = CapacityProfile::uniform(net.len(), 0.8);
    let outcome =
        manyone::best_placement(&net, &quorums, &probs, &caps, &ManyToOneConfig::default())
            .unwrap();
    assert_golden(
        "manyone_lp_objective_ms",
        outcome.lp_objective,
        MANYONE_LP_OBJECTIVE_MS,
    );
    assert_golden(
        "manyone_rounded_objective_ms",
        outcome.rounded_objective,
        MANYONE_ROUNDED_OBJECTIVE_MS,
    );
    // GAP rounding is only *almost* capacity-respecting (it may overrun a
    // node by one element weight, so it can even undercut the
    // capacity-feasible LP bound); what it guarantees is a bounded
    // capacity overrun.
    assert!(
        outcome.max_capacity_ratio <= 2.0,
        "capacity overrun {} broke the rounding guarantee",
        outcome.max_capacity_ratio
    );
}

/// Golden 5 — the access-strategy LP (4.3)–(4.6) at uniform capacity
/// `c = 0.7` for the 3×3 Grid under the §6 high-demand response model:
/// the LP-tuned average response time. (The Grid's optimal load is
/// `(2k−1)/k² = 5/9 ≈ 0.556`, so 0.7 is feasible but binding.)
#[test]
fn golden_strategy_lp_capacitated_response() {
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let model = ResponseModel::from_demand(0.007, 16000.0);
    assert_golden(
        "strategy_lp_c07_response_ms",
        full_lp_response(&net, &clients, &placement, &quorums, 0.7, model),
        STRATEGY_LP_C07_RESPONSE_MS,
    );
}

/// The Golden 5 quantity: one solve of LP (4.3)–(4.6) on a fresh default
/// master at uniform capacity `c`, scored with `model` — what
/// `quorumnet place --strategy lp --capacity c` reports.
fn full_lp_response(
    net: &Network,
    clients: &[NodeId],
    placement: &Placement,
    quorums: &[Quorum],
    c: f64,
    model: ResponseModel,
) -> f64 {
    let ctx = EvalContext::new(net, clients);
    let pq = ctx.place(placement, quorums);
    let caps = CapacityProfile::uniform(net.len(), c);
    let mut solver =
        strategy_lp::ColGenSolver::new(&pq, strategy_lp::ColumnGeneration::default()).unwrap();
    let outcome = solver.solve_profile(&caps).unwrap();
    response::evaluate_matrix_placed(&pq, &outcome.strategy, model)
        .unwrap()
        .avg_response_ms
}

/// Golden 6 — one end-to-end `qp-protocol` DES run (the §3 motivating
/// experiment): (4t+1, fourfifths) Majority, t = 2, ten representative
/// client locations, fixed seed. Pins the mean response, its idle floor,
/// and the simulated horizon.
#[test]
fn golden_protocol_simulation_end_to_end() {
    let net = datasets::planetlab_50();
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement =
        one_to_one::best_placement_by(&net, &sys, one_to_one::SelectionObjective::BalancedDelay)
            .unwrap();
    let pop = ClientPopulation::representative(&net, &sys, &placement, 10, 2);
    let cfg = ProtocolConfig {
        warmup_requests: 20,
        measured_requests: 150,
        seed: 42,
        ..ProtocolConfig::default()
    };
    let report = simulate(&net, &sys, &placement, &pop, QuorumChoice::Balanced, &cfg).unwrap();
    assert_eq!(
        report.completed_requests,
        (pop.total_clients() * 150) as u64
    );
    assert_golden(
        "protocol_avg_response_ms",
        report.avg_response_ms,
        PROTOCOL_AVG_RESPONSE_MS,
    );
    assert_golden(
        "protocol_avg_network_delay_ms",
        report.avg_network_delay_ms,
        PROTOCOL_AVG_NETWORK_DELAY_MS,
    );
    assert_golden(
        "protocol_horizon_ms",
        report.horizon_ms,
        PROTOCOL_HORIZON_MS,
    );
}

/// Golden 7 — the parallel engine replays the serial goldens: with the
/// global worker pool configured to 4 threads (`--threads 4`), the
/// placement search, the capacity-tuning sweep, and the DES all
/// reproduce the identical pinned values. The pool guarantees
/// input-ordered results and per-job purity, so thread count must never
/// move a golden. (The knob is process-wide, which is safe precisely
/// because of that guarantee — any other test running concurrently
/// computes the same values at any width.)
#[test]
fn golden_values_hold_at_four_threads() {
    /// Restores the previous process-wide thread count on drop (panic
    /// included), so a golden failure here cannot leave the rest of the
    /// suite pinned to an unintended width.
    struct RestoreThreads(usize);
    impl Drop for RestoreThreads {
        fn drop(&mut self) {
            qp_par::configure_threads(self.0);
        }
    }
    let _restore = RestoreThreads(qp_par::current_threads());
    qp_par::configure_threads(4);

    // Golden 2 under the parallel anchor search.
    let net = datasets::planetlab_50();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::best_placement(&net, &sys).unwrap();
    let eval = response::evaluate_closest(
        &net,
        &clients,
        &sys,
        &placement,
        ResponseModel::network_delay_only(),
    )
    .unwrap();
    assert_golden(
        "closest_grid3_delay_ms_threads4",
        eval.avg_network_delay_ms,
        CLOSEST_GRID3_DELAY_MS,
    );

    // Golden 5 through the cached-geometry LP path.
    let quorums = sys.enumerate(100).unwrap();
    let model = ResponseModel::from_demand(0.007, 16000.0);
    assert_golden(
        "strategy_lp_c07_response_ms_threads4",
        full_lp_response(&net, &clients, &placement, &quorums, 0.7, model),
        STRATEGY_LP_C07_RESPONSE_MS,
    );

    // Golden 6 through the parallel multi-run driver (single seed).
    let sys = QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap();
    let placement =
        one_to_one::best_placement_by(&net, &sys, one_to_one::SelectionObjective::BalancedDelay)
            .unwrap();
    let pop = ClientPopulation::representative(&net, &sys, &placement, 10, 2);
    let cfg = ProtocolConfig {
        warmup_requests: 20,
        measured_requests: 150,
        seed: 42,
        ..ProtocolConfig::default()
    };
    let reports = quorumnet::protocol::simulate_many(
        &net,
        &sys,
        &placement,
        &pop,
        &QuorumChoice::Balanced,
        &cfg,
        &[42],
    )
    .unwrap();
    assert_golden(
        "protocol_avg_response_ms_threads4",
        reports[0].avg_response_ms,
        PROTOCOL_AVG_RESPONSE_MS,
    );
}

/// Golden 8 — the paper-scale 161-site dataset ("daxlist-161"): the full
/// §7 uniform-capacity tuning loop (a ten-point sweep solved warm on one
/// master) for a 3×3 Grid on a deterministic shell placement, 161
/// clients. Pins the tuned best capacity and its delay/response scores,
/// so the sweep is regression-gated on a paper-scale input, not just on
/// Planetlab-50.
#[test]
fn golden_daxlist161_capacity_tuning() {
    let net = datasets::daxlist_161();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::grid_shell_placement(&net, NodeId::new(0), 3).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);
    let mut solver =
        strategy_lp::ColGenSolver::new(&pq, strategy_lp::ColumnGeneration::default()).unwrap();
    let tuned = strategy_lp::tune_capacity(
        &mut solver,
        &pq,
        &vec![1.0; clients.len()],
        sys.optimal_load().unwrap(),
        CapacityChoice::Sweep { steps: 10 },
        ResponseModel::from_demand(0.007, 16000.0),
    )
    .unwrap();
    let (best_c, best_eval) = (tuned.capacity.unwrap(), &tuned.eval);
    assert_golden(
        "daxlist161_tuned_capacity",
        best_c,
        DAXLIST161_TUNED_CAPACITY,
    );
    assert_golden(
        "daxlist161_tuned_response_ms",
        best_eval.avg_response_ms,
        DAXLIST161_TUNED_RESPONSE_MS,
    );
    assert_golden(
        "daxlist161_tuned_delay_ms",
        best_eval.avg_network_delay_ms,
        DAXLIST161_TUNED_DELAY_MS,
    );
}

/// Golden 8b — column generation ≡ full enumeration on the paper-scale
/// daxlist-161 dataset: the restricted master + pricing oracle must land
/// on the same LP optimum as the full (client × quorum) enumeration (a
/// master seeded with every column), both for a single profile solve and
/// for the whole §7 capacity-tuning sweep, while materializing strictly
/// fewer columns.
#[test]
fn daxlist161_colgen_agrees_with_full_enumeration() {
    let net = datasets::daxlist_161();
    let clients: Vec<NodeId> = net.nodes().collect();
    let sys = QuorumSystem::grid(3).unwrap();
    let placement = one_to_one::grid_shell_placement(&net, NodeId::new(0), 3).unwrap();
    let quorums = sys.enumerate(100).unwrap();
    let ctx = EvalContext::new(&net, &clients);
    let pq = ctx.place(&placement, &quorums);

    // Single-profile agreement at the Golden-4 capacity.
    let caps = CapacityProfile::uniform(net.len(), 0.8);
    let full_enumeration = strategy_lp::ColumnGeneration {
        seed_columns: quorums.len(),
    };
    let full = strategy_lp::ColGenSolver::new(&pq, full_enumeration.clone())
        .unwrap()
        .solve_profile(&caps)
        .unwrap();
    assert_eq!(full.colgen.columns_in_master, full.colgen.total_columns);
    let mut solver =
        strategy_lp::ColGenSolver::new(&pq, strategy_lp::ColumnGeneration::default()).unwrap();
    let cg = solver.solve_profile(&caps).unwrap();
    assert_eq!(solver.pricing_violations(), Some(0));
    assert!(
        (cg.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()),
        "daxlist-161 colgen objective {} vs full enumeration {}",
        cg.delay_ms,
        full.delay_ms
    );
    let stats = cg.colgen;
    assert_eq!(stats.total_columns, clients.len() * quorums.len());
    assert!(
        stats.columns_in_master < stats.total_columns,
        "colgen materialized every column ({} of {})",
        stats.columns_in_master,
        stats.total_columns
    );

    // Whole-sweep agreement: same best capacity, same scores.
    let l_opt = sys.optimal_load().unwrap();
    let model = ResponseModel::from_demand(0.007, 16000.0);
    let weights = vec![1.0; clients.len()];
    let mut full_solver = strategy_lp::ColGenSolver::new(&pq, full_enumeration).unwrap();
    let full_sweep = strategy_lp::tune_capacity(
        &mut full_solver,
        &pq,
        &weights,
        l_opt,
        CapacityChoice::Sweep { steps: 10 },
        model,
    )
    .unwrap();
    let mut solver =
        strategy_lp::ColGenSolver::new(&pq, strategy_lp::ColumnGeneration::default()).unwrap();
    let cg_sweep = strategy_lp::tune_capacity(
        &mut solver,
        &pq,
        &weights,
        l_opt,
        CapacityChoice::Sweep { steps: 10 },
        model,
    )
    .unwrap();
    assert_eq!(solver.pricing_violations(), Some(0));
    let (full_c, full_eval) = (&full_sweep.capacity.unwrap(), &full_sweep.eval);
    let (cg_c, cg_eval) = (&cg_sweep.capacity.unwrap(), &cg_sweep.eval);
    assert_eq!(full_c, cg_c, "sweeps disagree on the tuned capacity");
    assert_golden(
        "daxlist161_tuned_capacity",
        *cg_c,
        DAXLIST161_TUNED_CAPACITY,
    );
    assert!(
        (cg_eval.avg_network_delay_ms - full_eval.avg_network_delay_ms).abs()
            <= 1e-9 * (1.0 + full_eval.avg_network_delay_ms.abs()),
        "sweep delay: colgen {} vs full {}",
        cg_eval.avg_network_delay_ms,
        full_eval.avg_network_delay_ms
    );
    // The delay objective is what the LP optimizes and both paths agree on
    // it to 1e-9; the *response* score also depends on node loads, and the
    // optimum is degenerate here — colgen and full enumeration may land on
    // different optimal vertices with slightly different load splits, so
    // response agrees only loosely.
    assert!(
        (cg_eval.avg_response_ms - full_eval.avg_response_ms).abs()
            <= 1e-3 * (1.0 + full_eval.avg_response_ms.abs()),
        "sweep response: colgen {} vs full {}",
        cg_eval.avg_response_ms,
        full_eval.avg_response_ms
    );
    assert_eq!(
        cg_sweep.points.len(),
        full_sweep.points.len(),
        "sweeps disagree on the feasible points"
    );
    assert!(
        solver.pricing().master_resolves >= cg_sweep.points.len(),
        "the master's pricing totals must cover the whole sweep"
    );
}

/// Golden 9 — the scenario engine end to end on the checked-in showcase
/// spec: a seeded transit-stub WAN, Zipf demand with a phase-1 flash
/// crowd, and a phase-2 slowdown + crash with mid-run re-optimization.
/// Pins the LP delay, the nominal and failure-phase DES responses, and
/// requires the LP-vs-DES cross-check to hold. The whole pipeline —
/// generator, placement search, warm-started LP sweep, per-phase DES —
/// sits behind these three numbers.
#[test]
fn golden_scenario_transit_flash() {
    let spec = ScenarioSpec::from_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/transit_flash.toml"
    ))
    .unwrap();
    let report = ScenarioRunner::new().run(&spec).unwrap();
    assert_eq!(report.phases.len(), 3);
    assert!(report.pass, "cross-check failed:\n{report}");
    assert!(report.phases[1].flash);
    assert_eq!(report.phases[2].failed_elements, 2);
    assert!(report.phases[2].reoptimized, "survival reopt must engage");
    assert_golden(
        "scenario_ts_lp_delay_ms",
        report.lp_delay_ms,
        SCENARIO_TS_LP_DELAY_MS,
    );
    assert_golden(
        "scenario_ts_phase0_response_ms",
        report.phases[0].des_response_ms,
        SCENARIO_TS_PHASE0_RESPONSE_MS,
    );
    assert_golden(
        "scenario_ts_phase2_response_ms",
        report.phases[2].des_response_ms,
        SCENARIO_TS_PHASE2_RESPONSE_MS,
    );
}

/// Golden 10 — the second checked-in spec: a hierarchical
/// (tree-of-clusters) WAN, uniform demand, fixed capacity, Majority
/// system. Pins the LP delay and the single-phase DES response.
#[test]
fn golden_scenario_hierarchical_uniform() {
    let spec = ScenarioSpec::from_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/hierarchical_uniform.toml"
    ))
    .unwrap();
    let report = ScenarioRunner::new().run(&spec).unwrap();
    assert!(report.pass, "cross-check failed:\n{report}");
    assert_golden(
        "scenario_hier_lp_delay_ms",
        report.lp_delay_ms,
        SCENARIO_HIER_LP_DELAY_MS,
    );
    assert_golden(
        "scenario_hier_response_ms",
        report.phases[0].des_response_ms,
        SCENARIO_HIER_RESPONSE_MS,
    );
}

/// Golden 12 — the scale showcase: a 2,000-site transit-stub WAN whose
/// matrix is the sparse graph's Dijkstra APSP, with no dense metric
/// closure run on it (so it differs from the closed matrix by ulps, and
/// the LP may stop at another tied vertex), solved end-to-end
/// through the column-generation strategy LP. Pins the LP delay and the
/// DES response, and asserts the restricted master materialized well
/// under half of the 2000 × 25 (location × quorum) columns full
/// enumeration would build.
#[test]
fn golden_scenario_transit_colgen_2000() {
    let spec = ScenarioSpec::from_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/transit_colgen_2000.toml"
    ))
    .unwrap();
    let report = ScenarioRunner::new().run(&spec).unwrap();
    assert_eq!(report.sites, 2000);
    assert!(report.pass, "cross-check failed:\n{report}");
    let pricing = report.pricing;
    assert_eq!(pricing.total_columns, 2000 * 25);
    assert!(
        pricing.columns_in_master * 3 < pricing.total_columns,
        "master holds {} of {} columns — not a restricted master",
        pricing.columns_in_master,
        pricing.total_columns
    );
    assert!(pricing.oracle_passes > 0);
    assert_golden(
        "scenario_colgen2000_lp_delay_ms",
        report.lp_delay_ms,
        SCENARIO_COLGEN2000_LP_DELAY_MS,
    );
    assert_golden(
        "scenario_colgen2000_response_ms",
        report.phases[0].des_response_ms,
        SCENARIO_COLGEN2000_RESPONSE_MS,
    );
}

/// Golden 13 — the million-client showcase: 10^6 closed-loop clients on
/// a 124-site transit-stub WAN through the *aggregated* fluid/hybrid
/// engine, three phases (nominal → flash crowd + 8× slowdown → recovery)
/// with `carry-queues`. Pins the LP delay and the per-phase responses,
/// checks the saturation story (the flash phase queues, the recovery
/// phase starts loaded), and requires bit-identical replay at 4 threads
/// — the aggregated engine draws no random numbers, so nothing may move.
#[test]
fn golden_scenario_million_flash() {
    struct RestoreThreads(usize);
    impl Drop for RestoreThreads {
        fn drop(&mut self) {
            qp_par::configure_threads(self.0);
        }
    }
    let spec = ScenarioSpec::from_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/data/scenarios/million_flash.toml"
    ))
    .unwrap();
    let report = ScenarioRunner::new().run(&spec).unwrap();
    assert_eq!(report.total_clients, 1_000_000);
    assert_eq!(report.sites, 124);
    assert!(report.pass, "cross-check failed:\n{report}");
    assert_eq!(
        report.phases[0].completed_requests,
        16 * 1_000_000,
        "every client must complete its 16 measured requests"
    );
    // The flash + slowdown phase saturates; the recovery phase starts
    // with the carried backlog, so it must sit strictly above the
    // identically-configured (and seed-free) nominal phase 0.
    assert!(report.phases[1].des_response_ms > 2.0 * report.phases[0].des_response_ms);
    assert!(
        report.phases[2].des_response_ms > report.phases[0].des_response_ms,
        "carried queues did not reach phase 2: {} vs {}",
        report.phases[2].des_response_ms,
        report.phases[0].des_response_ms
    );
    assert_golden(
        "scenario_million_lp_delay_ms",
        report.lp_delay_ms,
        SCENARIO_MILLION_LP_DELAY_MS,
    );
    assert_golden(
        "scenario_million_phase0_response_ms",
        report.phases[0].des_response_ms,
        SCENARIO_MILLION_PHASE0_RESPONSE_MS,
    );
    assert_golden(
        "scenario_million_phase1_response_ms",
        report.phases[1].des_response_ms,
        SCENARIO_MILLION_PHASE1_RESPONSE_MS,
    );
    assert_golden(
        "scenario_million_phase2_response_ms",
        report.phases[2].des_response_ms,
        SCENARIO_MILLION_PHASE2_RESPONSE_MS,
    );

    // Bit-identical at 4 threads: full structural equality.
    let _restore = RestoreThreads(qp_par::current_threads());
    qp_par::configure_threads(4);
    let parallel = ScenarioRunner::new().run(&spec).unwrap();
    assert_eq!(report, parallel, "thread count moved the aggregated run");
}

/// Golden 11 — scenario reports are **bit-identical** at any thread
/// count: the whole matrix replayed with the worker pool pinned to 4
/// threads must equal the serial run field for field (full structural
/// equality, not just the pinned scalars).
#[test]
fn golden_scenario_reports_hold_at_four_threads() {
    struct RestoreThreads(usize);
    impl Drop for RestoreThreads {
        fn drop(&mut self) {
            qp_par::configure_threads(self.0);
        }
    }
    let specs = vec![
        ScenarioSpec::from_file(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/data/scenarios/transit_flash.toml"
        ))
        .unwrap(),
        ScenarioSpec::from_file(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/data/scenarios/hierarchical_uniform.toml"
        ))
        .unwrap(),
    ];
    let runner = ScenarioRunner::new();

    let _restore = RestoreThreads(qp_par::current_threads());
    qp_par::configure_threads(1);
    let serial = runner.run_matrix(&specs).unwrap();
    qp_par::configure_threads(4);
    let parallel = runner.run_matrix(&specs).unwrap();
    assert_eq!(serial, parallel, "thread count moved a scenario report");
    assert_golden(
        "scenario_ts_phase0_response_ms_threads4",
        parallel[0].phases[0].des_response_ms,
        SCENARIO_TS_PHASE0_RESPONSE_MS,
    );
}

// ----------------------------------------------------------------------
// The golden values. Regenerate with `-- --nocapture` (see module docs).
// ----------------------------------------------------------------------

const SINGLETON_DELAY_MS: f64 = 75.208043791862;
const CLOSEST_GRID3_DELAY_MS: f64 = 79.948862911719;
const MANYONE_LP_OBJECTIVE_MS: f64 = 50.585604823071;
const MANYONE_ROUNDED_OBJECTIVE_MS: f64 = 50.624567243531;
const STRATEGY_LP_C07_RESPONSE_MS: f64 = 155.022643509444;
const PROTOCOL_AVG_RESPONSE_MS: f64 = 85.450249453890;
const PROTOCOL_AVG_NETWORK_DELAY_MS: f64 = 85.332119143561;
const PROTOCOL_HORIZON_MS: f64 = 17_310.567_028_232_32;

const DAXLIST161_TUNED_CAPACITY: f64 = 0.6;
const DAXLIST161_TUNED_RESPONSE_MS: f64 = 173.386603359331;
const DAXLIST161_TUNED_DELAY_MS: f64 = 107.823962171457;

const SCENARIO_TS_LP_DELAY_MS: f64 = 48.338477296683;
const SCENARIO_TS_PHASE0_RESPONSE_MS: f64 = 49.475822322019;
const SCENARIO_TS_PHASE2_RESPONSE_MS: f64 = 48.425538319987;
const SCENARIO_COLGEN2000_LP_DELAY_MS: f64 = 81.652446318974;
const SCENARIO_COLGEN2000_RESPONSE_MS: f64 = 1580.290114573411;
const SCENARIO_HIER_LP_DELAY_MS: f64 = 67.345745448583;
const SCENARIO_HIER_RESPONSE_MS: f64 = 68.375754409850;
const SCENARIO_MILLION_LP_DELAY_MS: f64 = 34.250238233218;
const SCENARIO_MILLION_PHASE0_RESPONSE_MS: f64 = 65.725429668692;
const SCENARIO_MILLION_PHASE1_RESPONSE_MS: f64 = 187.546086989958;
const SCENARIO_MILLION_PHASE2_RESPONSE_MS: f64 = 65.731651479167;
