//! Structured results of a scenario run.

use std::fmt;

use qp_core::strategy_lp::ColGenStats;
use qp_protocol::SimEngine;

/// Per-phase outcome: what the LP predicted and what the DES measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Engine the phase simulated with (exact per-request DES or the
    /// aggregated fluid/hybrid engine).
    pub engine: SimEngine,
    /// When the spec's `exact-compare` ran the exact engine alongside an
    /// aggregated phase: the exact engine's mean response, ms.
    pub exact_response_ms: Option<f64>,
    /// `|aggregated − exact| / exact` over the mean response when
    /// `exact-compare` ran; folded into the scenario verdict.
    pub exact_compare_rel_error: Option<f64>,
    /// When the spec's `exact-compare-sample` capped the cross-check
    /// population: the number of clients both engines actually compared
    /// over. `None` when the compare ran (or would run) at full size.
    pub exact_compare_sampled: Option<usize>,
    /// Whether the phase simulated with client-side fault tolerance
    /// (timeouts, retries, failover) enabled.
    pub fault_tolerant: bool,
    /// Attempts abandoned to a timeout (fault-tolerant phases only).
    pub timeouts: u64,
    /// Retries issued after timeouts (fault-tolerant phases only).
    pub retries: u64,
    /// Retries that switched to the renormalized surviving strategy
    /// after failure detection (fault-tolerant phases only).
    pub failovers: u64,
    /// Phase index (0-based).
    pub phase: usize,
    /// Whether the flash crowd surged during this phase.
    pub flash: bool,
    /// Number of universe elements with an active failure.
    pub failed_elements: usize,
    /// Whether the strategy LP was re-optimized for this phase's
    /// failures (capacity of degraded sites scaled down).
    pub reoptimized: bool,
    /// Expected idle-network floor under this phase's strategy, demand
    /// weights, and service multipliers, ms (the LP-side prediction).
    pub predicted_floor_ms: f64,
    /// DES mean response time, ms.
    pub des_response_ms: f64,
    /// DES mean idle-network floor of the quorums actually accessed, ms.
    pub des_floor_ms: f64,
    /// `|des_floor − predicted| / predicted` — the cross-check residual.
    pub rel_error: f64,
    /// Measured requests completed.
    pub completed_requests: u64,
    /// Highest per-node utilization over the phase.
    pub max_server_utilization: f64,
}

/// Per-pipeline-stage work breakdown of one scenario run — logical
/// quantities only (counts, not wall-clock), so it is bit-identical
/// across reruns and thread counts. Opt-in via
/// [`crate::ScenarioRunner::with_stage_breakdown`] (the CLI enables it
/// together with `--trace`); `None` keeps rendered reports and JSONL
/// checkpoint lines byte-identical to earlier releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Topology stage: sites in the built network.
    pub topology_sites: usize,
    /// Placement stage: universe elements placed onto nodes.
    pub placement_elements: usize,
    /// Strategy-LP stage: total simplex pivots across every solve
    /// (equals [`ScenarioReport::lp_pivots`]).
    pub lp_pivots: usize,
    /// Capacity stage: LP parameterizations solved while selecting
    /// capacities (sweep points, or the probe+final solves of the
    /// shaped-profile rules).
    pub capacity_points: usize,
    /// DES stage: phases simulated.
    pub des_phases: usize,
    /// DES stage: measured requests completed across all phases.
    pub des_completed_requests: u64,
}

/// The structured outcome of one scenario: pipeline summary, per-phase
/// LP-vs-DES comparison, and the cross-check verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Topology description.
    pub topology: String,
    /// Number of network sites.
    pub sites: usize,
    /// Quorum-system label.
    pub system: String,
    /// Labels of the nodes hosting the placement.
    pub placement_sites: Vec<String>,
    /// Number of client locations.
    pub locations: usize,
    /// Total clients.
    pub total_clients: usize,
    /// Human-readable capacity selection (e.g. `sweep(4) → c* = 0.667`).
    pub capacity: String,
    /// LP optimal average network delay at the chosen capacities, ms.
    pub lp_delay_ms: f64,
    /// Model-scored average response time of the chosen strategies, ms.
    pub lp_response_ms: f64,
    /// Total simplex pivots spent (cold base + every warm re-solve).
    pub lp_pivots: usize,
    /// Pricing statistics of the strategy LP's restricted master,
    /// aggregated over every solve the pipeline performed (capacity
    /// selection plus per-phase re-optimizations): the column census is
    /// the latest one, the work counters sum. `columns_in_master` vs
    /// `total_columns` shows how much of the full (location × quorum) LP
    /// the master ever materialized.
    pub pricing: ColGenStats,
    /// Per-pipeline-stage work breakdown; `None` unless the runner was
    /// configured with
    /// [`crate::ScenarioRunner::with_stage_breakdown`].
    pub stages: Option<StageBreakdown>,
    /// Per-phase results.
    pub phases: Vec<PhaseReport>,
    /// Cross-check tolerance (relative).
    pub tolerance: f64,
    /// Largest per-phase [`PhaseReport::rel_error`].
    pub max_rel_error: f64,
    /// Whether every phase's residual is within tolerance.
    pub pass: bool,
}

impl ScenarioReport {
    /// One summary line, e.g. for matrix listings.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: {} sites, {} phases, LP delay {:.1} ms, max rel err {:.1}% → {}",
            self.name,
            self.sites,
            self.phases.len(),
            self.lp_delay_ms,
            self.max_rel_error * 100.0,
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}

impl fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario:   {}", self.name)?;
        writeln!(f, "topology:   {} ({} sites)", self.topology, self.sites)?;
        writeln!(
            f,
            "system:     {} on [{}]",
            self.system,
            self.placement_sites.join(", ")
        )?;
        writeln!(
            f,
            "clients:    {} at {} locations",
            self.total_clients, self.locations
        )?;
        writeln!(f, "capacity:   {}", self.capacity)?;
        writeln!(
            f,
            "LP:         delay {:.2} ms, response {:.2} ms, {} pivots",
            self.lp_delay_ms, self.lp_response_ms, self.lp_pivots
        )?;
        let p = &self.pricing;
        writeln!(
            f,
            "pricing:    {} of {} columns in master ({} generated), \
             {} oracle passes, {} master solves",
            p.columns_in_master,
            p.total_columns,
            p.columns_generated,
            p.oracle_passes,
            p.master_resolves
        )?;
        if let Some(s) = &self.stages {
            writeln!(
                f,
                "stages:     topology {} sites, placement {} elements, \
                 LP {} pivots, capacity {} points, DES {} phases / {} reqs",
                s.topology_sites,
                s.placement_elements,
                s.lp_pivots,
                s.capacity_points,
                s.des_phases,
                s.des_completed_requests
            )?;
        }
        for p in &self.phases {
            let mut tags = Vec::new();
            if p.engine == SimEngine::Aggregated {
                tags.push("agg".to_string());
            }
            if p.flash {
                tags.push("flash".to_string());
            }
            if p.failed_elements > 0 {
                tags.push(format!(
                    "fail×{}{}",
                    p.failed_elements,
                    if p.reoptimized { "+reopt" } else { "" }
                ));
            }
            let tag = if tags.is_empty() {
                "nominal".to_string()
            } else {
                tags.join(",")
            };
            writeln!(
                f,
                "phase {} [{:<12}] DES resp {:8.2} ms, floor {:8.2} ms, \
                 predicted {:8.2} ms, rel err {:5.2}%, util {:.2}, {} reqs",
                p.phase,
                tag,
                p.des_response_ms,
                p.des_floor_ms,
                p.predicted_floor_ms,
                p.rel_error * 100.0,
                p.max_server_utilization,
                p.completed_requests
            )?;
            if p.fault_tolerant {
                writeln!(
                    f,
                    "        fault-tolerant: {} timeouts, {} retries, {} failovers",
                    p.timeouts, p.retries, p.failovers
                )?;
            }
            if let (Some(exact), Some(err)) = (p.exact_response_ms, p.exact_compare_rel_error) {
                let sampled = p
                    .exact_compare_sampled
                    .map(|n| format!(" over {n} sampled clients"))
                    .unwrap_or_default();
                writeln!(
                    f,
                    "        exact-compare: exact resp {exact:8.2} ms, \
                     divergence {:5.2}%{sampled}",
                    err * 100.0
                )?;
            }
        }
        writeln!(
            f,
            "cross-check: max rel err {:.2}% vs tolerance {:.1}% → {}",
            self.max_rel_error * 100.0,
            self.tolerance * 100.0,
            if self.pass { "PASS" } else { "FAIL" }
        )
    }
}
