//! The end-to-end scenario pipeline: topology → placement → strategy LP
//! → capacity selection → per-phase DES validation → cross-check.

use qp_core::capacity::CapacityProfile;
use qp_core::strategy_lp::{tune_capacity, ColGenSolver, ColumnGeneration};
use qp_core::{CoreError, EvalContext, Placement, ResponseModel};
use qp_par::ParPool;
use qp_protocol::{
    simulate, simulate_with_engine, ClientPopulation, ProtocolConfig, QuorumChoice, SimEngine,
};
use qp_quorum::{Quorum, StrategyMatrix};
use qp_topology::{Network, NodeId};

use crate::report::{PhaseReport, ScenarioReport, StageBreakdown};
use crate::spec::{parse_system, DemandModel, ScenarioSpec};
use crate::ScenarioError;

/// Executes [`ScenarioSpec`]s through the full pipeline.
///
/// Every step is a pure function of the spec: topology generation,
/// placement search, LP solves, and the DES all run from fixed seeds, so
/// a scenario's report is bit-identical across runs and thread counts
/// (the matrix fan-out rides [`qp_par::ParPool`], whose results are
/// input-ordered by contract; each scenario's LP solves run in order).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioRunner {
    stage_breakdown: bool,
}

impl ScenarioRunner {
    /// A runner with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the per-pipeline-stage work breakdown
    /// ([`ScenarioReport::stages`]). Off by default so rendered reports
    /// and JSONL checkpoint lines stay byte-identical to earlier
    /// releases; the CLI switches it on together with `--trace`.
    #[must_use]
    pub fn with_stage_breakdown(mut self, on: bool) -> Self {
        self.stage_breakdown = on;
        self
    }

    /// Runs a matrix of scenarios on the global worker pool, reports in
    /// spec order.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing scenario.
    pub fn run_matrix(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioReport>, ScenarioError> {
        ParPool::global()
            .run(specs.len(), |i| self.run(&specs[i]))
            .into_iter()
            .collect()
    }

    /// Runs one scenario end to end.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] for semantic problems (validated up
    /// front); topology/LP/DES failures propagate with their layer's
    /// error type.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<ScenarioReport, ScenarioError> {
        spec.validate()?;
        let pipeline = &spec.pipeline;
        // Stage spans are logical markers and carry no timing data. They
        // emit only from the main thread — inside a `run_matrix` worker
        // they are suppressed by `qp_obs::worker_scope`, keeping traces
        // identical at any thread count.
        let run_span = qp_obs::span(
            "scenario.run",
            &[("name", qp_obs::FieldValue::Str(&spec.name))],
        );

        // 1. Topology and quorum system.
        let topo_span = qp_obs::span("scenario.topology", &[]);
        let net = spec.topology.build()?;
        topo_span.end(&[("sites", qp_obs::FieldValue::U64(net.len() as u64))]);
        let sys = parse_system(&pipeline.system)?;
        if sys.universe_size() > net.len() {
            return Err(ScenarioError::Invalid(format!(
                "universe of {} exceeds the {}-site network",
                sys.universe_size(),
                net.len()
            )));
        }

        // 2. Placement and client population. Location count must fit
        // the network — silently shrinking it would run a different
        // scenario than declared (and could drop the flash crowd).
        let place_span = qp_obs::span("scenario.placement", &[]);
        let placement = pipeline.placement.compute(&net, &sys)?;
        place_span.end(&[(
            "elements",
            qp_obs::FieldValue::U64(sys.universe_size() as u64),
        )]);
        let locations = spec.workload.locations;
        if locations > net.len() {
            return Err(ScenarioError::Invalid(format!(
                "{locations} client locations exceed the {}-site network",
                net.len()
            )));
        }
        let uniform_pop = ClientPopulation::representative(
            &net,
            &sys,
            &placement,
            locations,
            spec.workload.per_location,
        );
        let nominal = match spec.workload.demand {
            DemandModel::Uniform => uniform_pop,
            DemandModel::Zipf(theta) => ClientPopulation::zipf(
                uniform_pop.locations().to_vec(),
                spec.workload.per_location,
                theta,
            ),
        };

        // 3. The strategy LP at location level, through the restricted
        // master: each location is one row whose demand weight (its
        // client count) appears directly as objective and capacity-row
        // coefficient. This is exactly LP (4.3)–(4.6) over the flattened
        // client list — a location's clients all contribute the identical
        // row, so the uniform client average *is* the weighted location
        // average — but it materializes `locations` convexity rows
        // instead of `Σ counts` (at million-client scale the per-client
        // delta matrix alone would be gigabytes) and generates columns
        // lazily. The location rows feed the DES directly.
        let lp_span = qp_obs::span("scenario.lp", &[]);
        let quorums = sys.enumerate(pipeline.quorum_limit)?;
        let weights: Vec<f64> = nominal.client_counts().iter().map(|&c| c as f64).collect();
        let ctx = EvalContext::new(&net, nominal.locations());
        let pq = ctx.place(&placement, &quorums);
        let mut solver = ColGenSolver::with_weights(&pq, &weights, ColumnGeneration::default())?;
        let model = ResponseModel::from_demand(pipeline.op_time_ms, pipeline.demand);
        // The master defers all work to its first solve.
        lp_span.end(&[("base_pivots", qp_obs::FieldValue::U64(0))]);

        // 4. Capacity selection. The master mutates (columns accumulate
        // across solves), so the tuner solves sequentially — deterministic
        // and thread-count invariant.
        let capacity_span = qp_obs::span("scenario.capacity", &[]);
        let n = net.len();
        let l_opt = sys.optimal_load().unwrap_or(0.5);
        let tuned = tune_capacity(&mut solver, &pq, &weights, l_opt, pipeline.capacity, model)?;
        capacity_span.end(&[
            (
                "points",
                qp_obs::FieldValue::U64(tuned.capacity_points as u64),
            ),
            ("pivots", qp_obs::FieldValue::U64(solver.pivots() as u64)),
        ]);
        let base_caps = tuned.caps;
        let base_rows = tuned.outcome.strategy;

        // 5. Per-phase DES validation. With `carry-queues` each phase
        // after the first starts its servers with the residual backlog
        // the previous phase left behind (instead of idle), so a flash
        // crowd's queue buildup survives the phase boundary.
        let universe = sys.universe_size();
        let mut phases = Vec::with_capacity(pipeline.phases);
        let mut carry: Option<Vec<f64>> = None;
        for phase in 0..pipeline.phases {
            let phase_engine = pipeline.engine.for_phase(phase);
            let phase_span = qp_obs::span(
                "scenario.phase",
                &[
                    ("phase", qp_obs::FieldValue::U64(phase as u64)),
                    (
                        "engine",
                        qp_obs::FieldValue::Str(match phase_engine {
                            SimEngine::Exact => "exact",
                            SimEngine::Aggregated => "aggregated",
                        }),
                    ),
                ],
            );
            // `validate()` guarantees `focus < locations`.
            let flash = spec.workload.flash.filter(|f| f.phase == phase);
            let pop = match flash {
                Some(f) => nominal.boosted(f.focus, f.boost),
                None => nominal.clone(),
            };
            let mults = spec.failures.multipliers_for_phase(phase, universe);
            let failed_elements = mults
                .as_ref()
                .map_or(0, |m| m.iter().filter(|&&x| x != 1.0).count());

            // Optional mid-run re-optimization: the strategy LP re-solves
            // with degraded sites' capacity scaled down by their slowdown.
            // If the tuned capacities cannot absorb the shifted load,
            // retry in survival mode — healthy nodes relaxed to full
            // capacity — before falling back to the nominal strategy.
            let mut reoptimized = false;
            let rows = if failed_elements > 0 && spec.failures.reoptimize {
                let phase_mults = mults.as_deref().expect("failures present");
                let mut rows = None;
                for caps in [
                    scale_caps_for_failures(&base_caps, &placement, phase_mults),
                    scale_caps_for_failures(
                        &CapacityProfile::uniform(n, 1.0),
                        &placement,
                        phase_mults,
                    ),
                ] {
                    match solver.solve_profile(&caps) {
                        Ok(o) => {
                            rows = Some(o.strategy);
                            break;
                        }
                        Err(CoreError::Infeasible) => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                reoptimized = rows.is_some();
                // Even full healthy capacity cannot serve around the
                // failures; keep the nominal strategy for the phase.
                rows.unwrap_or_else(|| base_rows.clone())
            } else {
                base_rows.clone()
            };

            let predicted_floor_ms = expected_floor_ms(
                &net,
                &placement,
                &quorums,
                &rows,
                &pop,
                pipeline.service_time_ms,
                mults.as_deref(),
            );

            let cfg = ProtocolConfig {
                service_time_ms: pipeline.service_time_ms,
                warmup_requests: pipeline.warmup,
                measured_requests: pipeline.requests,
                seed: qp_par::job_seed(pipeline.seed, phase),
                service_multipliers: mults,
                dedup_colocated: false,
                initial_server_busy_ms: carry.take(),
                fault: spec.failures.fault.clone(),
            };
            let choice = QuorumChoice::Weighted {
                quorums: quorums.clone(),
                strategy: rows,
            };
            let compare = pipeline.exact_compare && phase_engine == SimEngine::Aggregated;
            let compare_choice = compare.then(|| choice.clone());
            let report =
                simulate_with_engine(&net, &sys, &placement, &pop, choice, &cfg, phase_engine)?;
            if pipeline.carry_queues {
                carry = Some(report.residual_busy_ms.clone());
            }
            // `exact-compare`: rerun the phase on the exact per-request
            // engine (same config, same carried backlog) and record how
            // far the aggregated mean response drifts from it. With
            // `exact-compare-sample` the divergence is measured between
            // *both* engines on a deterministic proportional subsample
            // (per-location head count scaled down, demand weights kept)
            // — the full population still drives the phase itself.
            let (exact_response_ms, exact_compare_rel_error, exact_compare_sampled) =
                if let Some(choice) = compare_choice {
                    let cap = pipeline.exact_compare_sample;
                    let sub = (cap > 0 && pop.total_clients() > cap).then(|| {
                        let per = (cap / pop.locations().len()).max(1);
                        pop.with_per_location(per)
                    });
                    let (agg_response_ms, cmp_pop, sampled) = match &sub {
                        Some(sp) => {
                            let agg = simulate_with_engine(
                                &net,
                                &sys,
                                &placement,
                                sp,
                                choice.clone(),
                                &cfg,
                                SimEngine::Aggregated,
                            )?;
                            (agg.avg_response_ms, sp, Some(sp.total_clients()))
                        }
                        None => (report.avg_response_ms, &pop, None),
                    };
                    let exact = simulate(&net, &sys, &placement, cmp_pop, choice, &cfg)?;
                    // Fault-counter consistency: the aggregated engine's
                    // timeout/retry/failover counters are *analytic*
                    // (cycles × doomed population), so they cannot match
                    // the exact engine's event counts numerically — but
                    // both must agree on whether faults occurred at all.
                    // Only meaningful when both engines saw the same
                    // population (no subsample).
                    if sampled.is_none() {
                        for (what, agg_n, exact_n) in [
                            ("timeouts", report.timeouts, exact.timeouts),
                            ("retries", report.retries, exact.retries),
                            ("failovers", report.failovers, exact.failovers),
                        ] {
                            if (agg_n == 0) != (exact_n == 0) {
                                return Err(ScenarioError::Invalid(format!(
                                    "exact-compare fault-counter inconsistency in \
                                     phase {phase}: aggregated engine reported \
                                     {agg_n} {what}, exact engine {exact_n}"
                                )));
                            }
                        }
                    }
                    let err = if exact.avg_response_ms > 0.0 {
                        (agg_response_ms - exact.avg_response_ms).abs() / exact.avg_response_ms
                    } else {
                        0.0
                    };
                    (Some(exact.avg_response_ms), Some(err), sampled)
                } else {
                    (None, None, None)
                };
            let rel_error = if predicted_floor_ms > 0.0 {
                (report.avg_network_delay_ms - predicted_floor_ms).abs() / predicted_floor_ms
            } else {
                0.0
            };
            let max_util = report
                .server_utilization
                .iter()
                .copied()
                .fold(0.0, f64::max);
            phase_span.end(&[
                (
                    "completed",
                    qp_obs::FieldValue::U64(report.completed_requests),
                ),
                ("timeouts", qp_obs::FieldValue::U64(report.timeouts)),
            ]);
            phases.push(PhaseReport {
                phase,
                engine: phase_engine,
                exact_response_ms,
                exact_compare_rel_error,
                exact_compare_sampled,
                fault_tolerant: spec.failures.fault.is_some(),
                timeouts: report.timeouts,
                retries: report.retries,
                failovers: report.failovers,
                flash: flash.is_some(),
                failed_elements,
                reoptimized,
                predicted_floor_ms,
                des_response_ms: report.avg_response_ms,
                des_floor_ms: report.avg_network_delay_ms,
                rel_error,
                completed_requests: report.completed_requests,
                max_server_utilization: max_util,
            });
        }

        // 6. Cross-check: every phase's measured floor must match the
        // prediction within tolerance (failure phases included — the
        // prediction folds the service multipliers in). When
        // `exact-compare` ran, the aggregated-vs-exact response
        // divergence must clear the same tolerance.
        let max_rel_error = phases.iter().map(|p| p.rel_error).fold(0.0, f64::max);
        let max_engine_divergence = phases
            .iter()
            .filter_map(|p| p.exact_compare_rel_error)
            .fold(0.0, f64::max);
        let pass =
            max_rel_error <= pipeline.tolerance && max_engine_divergence <= pipeline.tolerance;

        let lp_pivots = solver.pivots();
        let stages = self.stage_breakdown.then(|| StageBreakdown {
            topology_sites: net.len(),
            placement_elements: sys.universe_size(),
            lp_pivots,
            capacity_points: tuned.capacity_points,
            des_phases: pipeline.phases,
            des_completed_requests: phases.iter().map(|p| p.completed_requests).sum(),
        });
        if qp_obs::enabled() {
            qp_obs::counter_add("scenario_runs_total", 1);
            qp_obs::counter_add("scenario_phases_total", pipeline.phases as u64);
            qp_obs::observe("scenario_lp_pivots", lp_pivots as f64);
        }
        run_span.end(&[("pass", qp_obs::FieldValue::Bool(pass))]);

        Ok(ScenarioReport {
            name: spec.name.clone(),
            topology: spec.topology.describe(),
            sites: net.len(),
            system: sys.label(),
            placement_sites: placement
                .support_set()
                .iter()
                .map(|&v| net.label(v).to_string())
                .collect(),
            locations,
            total_clients: nominal.total_clients(),
            capacity: tuned.label,
            lp_delay_ms: tuned.outcome.delay_ms,
            lp_response_ms: tuned.eval.avg_response_ms,
            lp_pivots,
            pricing: solver.pricing(),
            stages,
            phases,
            tolerance: pipeline.tolerance,
            max_rel_error,
            pass,
        })
    }
}

/// The expected idle-network floor of the weighted strategy: what the DES
/// floor converges to. Mirrors the simulator's accounting exactly — a
/// request's floor is `max` over contacted nodes of RTT plus the *summed*
/// service of the quorum elements hosted there (same-node messages
/// serialize even on an idle system), with per-element multipliers
/// applied.
fn expected_floor_ms(
    net: &Network,
    placement: &Placement,
    quorums: &[Quorum],
    rows: &StrategyMatrix,
    pop: &ClientPopulation,
    service_time_ms: f64,
    mults: Option<&[f64]>,
) -> f64 {
    let counts = pop.client_counts();
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mult = |u: usize| mults.map_or(1.0, |m| m[u]);
    let mut acc = 0.0;
    for (loc_idx, (&loc, &count)) in pop.locations().iter().zip(&counts).enumerate() {
        if count == 0 {
            continue;
        }
        let row = rows.row(loc_idx);
        let mut exp = 0.0;
        for (i, q) in quorums.iter().enumerate() {
            if row[i] == 0.0 {
                continue;
            }
            // Group the quorum's elements by hosting node, summing
            // service times per node.
            let mut by_node: Vec<(usize, f64)> = Vec::new();
            for u in q.iter() {
                let w = placement.node_of(u).index();
                let svc = service_time_ms * mult(u.index());
                match by_node.binary_search_by_key(&w, |&(n, _)| n) {
                    Ok(pos) => by_node[pos].1 += svc,
                    Err(pos) => by_node.insert(pos, (w, svc)),
                }
            }
            let floor = by_node
                .iter()
                .map(|&(w, svc)| net.distance(loc, NodeId::new(w)) + svc)
                .fold(f64::MIN, f64::max);
            exp += row[i] * floor;
        }
        acc += count as f64 * exp;
    }
    acc / total as f64
}

/// Scales a capacity profile down at nodes hosting failed elements: a
/// node whose worst co-located element runs `m×` slower keeps `1/m` of
/// its capacity — the failure-aware input to mid-run re-optimization.
fn scale_caps_for_failures(
    base: &CapacityProfile,
    placement: &Placement,
    mults: &[f64],
) -> CapacityProfile {
    let mut worst = vec![1.0f64; base.len()];
    for (u, &m) in mults.iter().enumerate() {
        let w = placement.node_of(qp_quorum::ElementId::new(u)).index();
        worst[w] = worst[w].max(m);
    }
    let values = (0..base.len())
        .map(|w| base.get(NodeId::new(w)) / worst[w])
        .collect();
    CapacityProfile::from_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        CapacityChoice, FailureEvent, FailurePlan, FlashCrowd, TopologySource, WorkloadSpec,
    };
    use qp_core::strategy_lp::{ColGenSolver, ColumnGeneration};

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".to_string(),
            topology: TopologySource::Euclidean {
                sites: 12,
                side_ms: 100.0,
                seed: 4,
            },
            workload: WorkloadSpec {
                locations: 4,
                per_location: 2,
                demand: DemandModel::Zipf(0.7),
                flash: Some(FlashCrowd {
                    phase: 1,
                    focus: 0,
                    boost: 4.0,
                }),
            },
            failures: FailurePlan {
                events: vec![FailureEvent {
                    phase: 1,
                    element: 0,
                    multiplier: 10.0,
                }],
                reoptimize: true,
                fault: None,
            },
            pipeline: crate::spec::PipelineSpec {
                system: "grid:2".to_string(),
                phases: 2,
                requests: 30,
                warmup: 5,
                seed: 9,
                tolerance: 0.25,
                ..crate::spec::PipelineSpec::default()
            },
        }
    }

    /// [`small_spec`] as spec text, with `capacity` as its capacity value.
    fn small_spec_text(capacity: &str) -> String {
        format!(
            "name = unit\n\
             [topology]\n\
             source = euclidean\n\
             sites = 12\n\
             side-ms = 100\n\
             seed = 4\n\
             [workload]\n\
             locations = 4\n\
             per-location = 2\n\
             demand = zipf:0.7\n\
             flash-phase = 1\n\
             flash-focus = 0\n\
             flash-boost = 4\n\
             [failures]\n\
             slowdown = 1:0:10\n\
             reoptimize = true\n\
             [pipeline]\n\
             system = grid:2\n\
             capacity = {capacity}\n\
             phases = 2\n\
             requests = 30\n\
             warmup = 5\n\
             seed = 9\n\
             tolerance = 0.25\n"
        )
    }

    #[test]
    fn runs_end_to_end_and_cross_checks() {
        let report = ScenarioRunner::new().run(&small_spec()).unwrap();
        assert_eq!(report.phases.len(), 2);
        assert!(report.phases[0].predicted_floor_ms > 0.0);
        assert!(report.phases[1].flash);
        assert_eq!(report.phases[1].failed_elements, 1);
        assert!(report.pass, "cross-check failed: {report}");
        // The report renders without panicking and mentions the verdict.
        let text = report.to_string();
        assert!(text.contains("PASS"), "{text}");
    }

    #[test]
    fn reruns_are_bit_identical() {
        let runner = ScenarioRunner::new();
        let spec = small_spec();
        let a = runner.run(&spec).unwrap();
        let b = runner.run(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_matches_individual_runs() {
        let runner = ScenarioRunner::new();
        let mut second = small_spec();
        second.name = "unit-2".to_string();
        second.pipeline.seed = 77;
        let specs = vec![small_spec(), second];
        let matrix = runner.run_matrix(&specs).unwrap();
        assert_eq!(matrix.len(), 2);
        assert_eq!(matrix[0], runner.run(&specs[0]).unwrap());
        assert_eq!(matrix[1], runner.run(&specs[1]).unwrap());
        assert_ne!(
            matrix[0].phases[0].des_response_ms,
            matrix[1].phases[0].des_response_ms
        );
    }

    #[test]
    fn location_lp_matches_per_client_lp_and_reports_pricing() {
        // Linearity: the demand-weighted location-level LP the runner
        // solves has the optimum of LP (4.3)–(4.6) over the flattened
        // client list. Rebuild that list and solve it per client, at a
        // capacity where a capacity row binds.
        let c = 0.8;
        let mut spec = small_spec();
        spec.pipeline.capacity = CapacityChoice::Fixed(c);
        let report = ScenarioRunner::new().run(&spec).unwrap();

        let net = spec.topology.build().unwrap();
        let sys = parse_system(&spec.pipeline.system).unwrap();
        let placement = spec.pipeline.placement.compute(&net, &sys).unwrap();
        let DemandModel::Zipf(theta) = spec.workload.demand else {
            panic!("small_spec has Zipf demand");
        };
        let (locations, per_location) = (spec.workload.locations, spec.workload.per_location);
        let uniform =
            ClientPopulation::representative(&net, &sys, &placement, locations, per_location);
        let pop = ClientPopulation::zipf(uniform.locations().to_vec(), per_location, theta);
        let clients = pop.client_locations();
        let quorums = sys.enumerate(spec.pipeline.quorum_limit).unwrap();
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let full = ColumnGeneration {
            seed_columns: quorums.len(),
        };
        let mut solver = ColGenSolver::new(&pq, full).unwrap();
        let per_client = solver
            .solve_profile(&CapacityProfile::uniform(net.len(), c))
            .unwrap()
            .delay_ms;
        let unbounded = solver
            .solve_profile(&CapacityProfile::unbounded(net.len()))
            .unwrap()
            .delay_ms;
        assert!(
            unbounded < per_client - 1e-6,
            "capacity {c} does not bind: {unbounded} vs {per_client}"
        );
        assert!(
            (report.lp_delay_ms - per_client).abs() <= 1e-9 * (1.0 + per_client),
            "location LP {} vs per-client LP {per_client}",
            report.lp_delay_ms
        );

        let pricing = report.pricing;
        assert!(pricing.columns_in_master > 0);
        assert!(pricing.columns_in_master <= pricing.total_columns);
        assert!(pricing.master_resolves > 0);
        assert!(pricing.oracle_passes > 0);
        assert!(report.to_string().contains("pricing:"), "{report}");
    }

    /// The two per-node §7 rules, parsed from spec text so the parser
    /// branches run too: each run completes, reruns bit-identically, and
    /// names its rule in the capacity label.
    #[test]
    fn heuristic_capacity_rules_run_from_spec_text() {
        // grid:2 has L_opt = 0.75: capacities in [0.76, 0.8] stay
        // feasible and bind.
        for (value, choice, label) in [
            (
                "load-proportional:0.76:0.8",
                CapacityChoice::LoadProportional {
                    beta: 0.76,
                    gamma: 0.8,
                },
                "load-proportional [0.76, 0.8]",
            ),
            (
                "marginal-value:0.76:0.8",
                CapacityChoice::MarginalValue {
                    beta: 0.76,
                    gamma: 0.8,
                },
                "marginal-value [0.76, 0.8]",
            ),
        ] {
            let spec = ScenarioSpec::parse(&small_spec_text(value)).unwrap();
            let mut expected = small_spec();
            expected.pipeline.capacity = choice;
            assert_eq!(spec, expected, "{value}");
            let runner = ScenarioRunner::new().with_stage_breakdown(true);
            let report = runner.run(&spec).unwrap();
            assert_eq!(report, runner.run(&spec).unwrap(), "{value} rerun drifted");
            assert!(report.pass, "{report}");
            assert_eq!(report.capacity, label);
            assert!(report.to_string().contains(label), "{report}");
            let stages = report.stages.as_ref().expect("breakdown requested");
            assert_eq!(stages.capacity_points, 2);
            assert_eq!(stages.lp_pivots, report.lp_pivots);
            assert!(report.pricing.master_resolves >= 2, "{report}");
        }
    }

    fn aggregated_spec() -> ScenarioSpec {
        let mut spec = small_spec();
        spec.pipeline.engine = crate::spec::EngineSelection::Uniform(SimEngine::Aggregated);
        spec
    }

    #[test]
    fn aggregated_scenario_tracks_exact_within_tolerance() {
        let runner = ScenarioRunner::new();
        let mut spec = aggregated_spec();
        spec.pipeline.exact_compare = true;
        let report = runner.run(&spec).unwrap();
        assert!(report.pass, "aggregated cross-checks failed:\n{report}");
        for p in &report.phases {
            assert_eq!(p.engine, SimEngine::Aggregated);
            let err = p.exact_compare_rel_error.expect("compare ran");
            assert!(
                err <= spec.pipeline.tolerance,
                "phase {} diverged {err:.3} from exact",
                p.phase
            );
        }
        // The rendered report names the engine and the comparison.
        let text = report.to_string();
        assert!(text.contains("agg"), "{text}");
        assert!(text.contains("exact-compare:"), "{text}");
    }

    #[test]
    fn aggregated_reruns_are_bit_identical() {
        // The aggregated engine draws no random numbers, so whole-report
        // equality must hold across reruns (thread-count invariance is
        // pinned end-to-end by the scenario regression suite).
        let runner = ScenarioRunner::new();
        let spec = aggregated_spec();
        let a = runner.run(&spec).unwrap();
        let b = runner.run(&spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fault_tolerant_phase_reports_counters() {
        // The injected failure is a crash (CRASH_MULTIPLIER), so the
        // fault-tolerant clients must observe timeouts and fail over.
        let mut spec = small_spec();
        spec.failures.events[0].multiplier = crate::spec::CRASH_MULTIPLIER;
        spec.failures.reoptimize = false;
        spec.failures.fault = Some(qp_protocol::FaultConfig {
            crash_threshold: crate::spec::CRASH_MULTIPLIER,
            detection_latency_ms: 400.0,
            ..qp_protocol::FaultConfig::default()
        });
        // The crash makes the measured floor diverge from the omniscient
        // prediction; this test is about the counters, not the verdict.
        spec.pipeline.tolerance = 10.0;
        let report = ScenarioRunner::new().run(&spec).unwrap();
        let crash_phase = &report.phases[1];
        assert!(crash_phase.fault_tolerant);
        assert!(crash_phase.timeouts > 0, "{report}");
        assert!(crash_phase.retries > 0, "{report}");
        let nominal = &report.phases[0];
        assert_eq!(nominal.timeouts, 0);
        assert_eq!(nominal.retries, 0);
        assert!(report.to_string().contains("fault-tolerant:"), "{report}");
    }

    #[test]
    fn fault_config_without_crashes_changes_nothing() {
        let mut spec = small_spec();
        spec.failures.events.clear();
        let base = ScenarioRunner::new().run(&spec).unwrap();
        spec.failures.fault = Some(qp_protocol::FaultConfig {
            crash_threshold: crate::spec::CRASH_MULTIPLIER,
            ..qp_protocol::FaultConfig::default()
        });
        let ft = ScenarioRunner::new().run(&spec).unwrap();
        for (a, b) in base.phases.iter().zip(&ft.phases) {
            assert_eq!(a.des_response_ms, b.des_response_ms);
            assert_eq!(a.des_floor_ms, b.des_floor_ms);
            assert_eq!(a.completed_requests, b.completed_requests);
            assert_eq!(b.timeouts, 0);
            assert_eq!(b.retries, 0);
            assert_eq!(b.failovers, 0);
        }
    }

    #[test]
    fn exact_compare_subsamples_when_capped() {
        let runner = ScenarioRunner::new();
        let mut spec = aggregated_spec();
        spec.pipeline.exact_compare = true;
        spec.pipeline.exact_compare_sample = 4; // population is 4 × 2 = 8
        let report = runner.run(&spec).unwrap();
        for p in &report.phases {
            // 4 locations → one client each under the cap.
            assert_eq!(p.exact_compare_sampled, Some(4));
            assert!(p.exact_compare_rel_error.is_some());
        }
        assert!(report.to_string().contains("sampled clients"), "{report}");
        // A cap at or above the population compares in full.
        spec.pipeline.exact_compare_sample = 8;
        let full = runner.run(&spec).unwrap();
        assert!(full
            .phases
            .iter()
            .all(|p| p.exact_compare_sampled.is_none()));
    }

    #[test]
    fn carried_queues_change_the_post_flash_phase() {
        // Phase 1's flash crowd leaves backlog behind; with carry-queues
        // a following phase starts loaded. Add a third nominal phase and
        // compare its response with and without carrying.
        let mut spec = aggregated_spec();
        spec.pipeline.phases = 3;
        spec.pipeline.warmup = 0; // keep the carried transient measurable
        let runner = ScenarioRunner::new();
        let cold = runner.run(&spec).unwrap();
        spec.pipeline.carry_queues = true;
        let carried = runner.run(&spec).unwrap();
        assert_eq!(cold.phases[0], carried.phases[0], "phase 0 has no inflow");
        assert!(
            carried.phases[2].des_response_ms >= cold.phases[2].des_response_ms,
            "carried {} vs cold {}",
            carried.phases[2].des_response_ms,
            cold.phases[2].des_response_ms
        );
    }

    #[test]
    fn mixed_engine_phases_dispatch_per_phase() {
        let mut spec = aggregated_spec();
        spec.pipeline.engine =
            crate::spec::EngineSelection::PerPhase(vec![SimEngine::Exact, SimEngine::Aggregated]);
        let report = ScenarioRunner::new().run(&spec).unwrap();
        assert_eq!(report.phases[0].engine, SimEngine::Exact);
        assert_eq!(report.phases[1].engine, SimEngine::Aggregated);
    }

    #[test]
    fn oversized_location_count_is_rejected_not_clamped() {
        // Silently shrinking the population would run a different
        // scenario than declared (and could drop the flash crowd).
        let mut spec = small_spec();
        spec.workload.locations = 20; // > 12 sites
        spec.workload.flash = None;
        let err = ScenarioRunner::new().run(&spec).unwrap_err();
        let ScenarioError::Invalid(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("20 client locations"), "{msg}");
    }

    #[test]
    fn oversized_universe_is_rejected() {
        let mut spec = small_spec();
        spec.pipeline.system = "grid:5".to_string(); // 25 > 12 sites
        assert!(matches!(
            ScenarioRunner::new().run(&spec),
            Err(ScenarioError::Invalid(_))
        ));
    }
}
