//! The aggregated (fluid/hybrid) protocol simulation.
//!
//! [`simulate_aggregated`] trades per-request event granularity for flow
//! granularity: every (client location × quorum) pair with nonzero
//! strategy mass becomes one *flow* of `n_v · p_vi` clients that issue
//! requests in lockstep rounds. A round costs one event per contacted
//! node instead of one event per client message, so a 10⁶-client
//! workload runs in roughly the event budget of a `locations × quorums`
//! one — seconds instead of hours — while the per-node service chains
//! are still computed client-by-client.
//!
//! # Model and accuracy envelope
//!
//! Each flow keeps the closed-loop semantics of the exact engine: client
//! `j` of a flow re-issues its next request the instant its previous
//! round's reply arrives. The one approximation is *batch atomicity at
//! shared stations*: when a flow's round reaches a node, that node
//! serves the flow's whole batch as one consecutive chain, rather than
//! interleaving individual arrivals with other flows at sub-batch
//! granularity. For a single flow — or flows whose quorums touch
//! disjoint nodes — the schedule is exact. Under contention the model
//! stays work-conserving and unbiased in total load, so means are
//! typically within a few percent of the exact engine at moderate
//! utilization (the scenario runner can cross-check both at feasible
//! sizes via `exact-compare`); tails are smoothed by batching.
//!
//! The engine draws no random numbers at all — strategy rows are
//! apportioned to integer client counts by largest remainder — so runs
//! are bit-identical regardless of seed or thread count.

use qp_core::response::closest_choices;
use qp_core::Placement;
use qp_des::{LogHistogram, ServiceStation, SimTime, Tally, TimeWheel};
use qp_quorum::{Quorum, QuorumSystem};
use qp_topology::{Network, NodeId};

use crate::sim::{build_servers, crashed_mask, group_by_node, residual_busy, validate_inputs};
use crate::{ClientPopulation, FaultConfig, ProtocolConfig, QuorumChoice, SimError, SimReport};

/// Enumeration cap when the aggregated engine must materialize the quorum
/// list itself (the `Balanced` choice); matches the scenario default.
const BALANCED_ENUM_LIMIT: usize = 100_000;

/// Which simulation engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Per-request discrete-event simulation ([`crate::simulate`]).
    #[default]
    Exact,
    /// Flow-level aggregated simulation ([`simulate_aggregated`]).
    Aggregated,
}

impl std::fmt::Display for SimEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimEngine::Exact => write!(f, "exact"),
            SimEngine::Aggregated => write!(f, "aggregated"),
        }
    }
}

/// One contacted node of a flow's quorum.
#[derive(Clone)]
struct FlowNode {
    node: usize,
    one_way_ms: f64,
    /// Per-client service at this node: summed over co-located elements
    /// (or the max under deduplicated execution), as in the exact engine.
    service_ms: f64,
}

/// A (location × quorum) client batch cycling through lockstep rounds.
struct Flow {
    /// First index of this flow's clients in the global per-member arrays.
    offset: usize,
    /// Number of clients in the batch.
    n: usize,
    nodes: Vec<FlowNode>,
    /// Idle-network floor (max over nodes of RTT + service), as exact.
    floor_ms: f64,
    /// Node events still outstanding in the current round.
    pending: usize,
    /// Rounds fully completed.
    rounds_done: usize,
    /// When this flow's first round is sent, ms (0 for nominal flows;
    /// the detection latency for failover mass shifted off dead quorums).
    start_ms: f64,
}

/// Analytic per-client attempt trace over the detection window (fluid
/// analogue of the exact engine's timer/retry loop, zero-jitter backoff):
/// how many attempts time out before the detector fires and how many
/// re-issues that costs, per doomed client.
///
/// A detection window spanning many abandoned-request cycles is
/// fast-forwarded whole cycles at a time, so huge
/// `detection_latency_ms / timeout_ms` ratios are counted in full
/// instead of truncated at an iteration cap. A backstop cap of 10⁷
/// timeouts remains for the one shape the fast-forward cannot compress
/// (zero backoff with millions of retries inside a *single* cycle) —
/// far outside any configuration the exact engine could simulate.
fn detection_window_attempts(f: &FaultConfig) -> (u64, u64) {
    if f.detection_latency_ms <= 0.0 {
        return (0, 0);
    }
    let mut t = 0.0;
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    let mut attempt = 0usize;
    // One full abandoned-request cycle: `max_retries + 1` timeouts with
    // the zero-jitter backoff ladder between them, after which the
    // closed loop starts the next request immediately and the ladder
    // resets. Skipping is exact cycle arithmetic, but it accumulates t
    // by multiplication instead of repeated addition, so it only kicks
    // in past a step count (4096) no step-by-step caller ever reached —
    // below that, boundary behavior stays bit-for-bit historical.
    let cycle_timeouts = f.max_retries as u64 + 1;
    let cycle_ms = cycle_timeouts as f64 * f.timeout_ms
        + f.backoff_base_ms * (2f64.powf(f.max_retries as f64) - 1.0);
    if cycle_ms.is_finite() && cycle_ms > 0.0 {
        let cycles = f.detection_latency_ms / cycle_ms;
        let ahead = (cycles - 1.0).floor();
        if ahead >= 1.0 && cycles * cycle_timeouts as f64 > 4096.0 {
            let k = ahead as u64;
            t = k as f64 * cycle_ms;
            timeouts = k * cycle_timeouts;
            retries = k * f.max_retries as u64;
        }
    }
    while timeouts < 10_000_000 {
        t += f.timeout_ms;
        timeouts += 1;
        if t >= f.detection_latency_ms {
            break;
        }
        if attempt < f.max_retries {
            retries += 1;
            t += f.backoff_base_ms * 2f64.powi(attempt as i32);
            attempt += 1;
            if t >= f.detection_latency_ms {
                break;
            }
        } else {
            // Retries exhausted: the logical request is abandoned and the
            // closed loop starts the next one immediately.
            attempt = 0;
        }
    }
    // The post-detection failover re-issue is itself a retry.
    (timeouts, retries + 1)
}

/// Splits `total` clients across quorums proportionally to `weights`
/// (largest-remainder, ties to the lower index — the same rule
/// [`ClientPopulation::client_counts`] uses across locations).
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let mut counts = vec![0usize; weights.len()];
    if total == 0 || weights.is_empty() {
        return counts;
    }
    if sum <= 0.0 {
        // Degenerate all-zero row: the exact engine's CDF walk falls
        // through to the last quorum, so the whole batch goes there.
        counts[weights.len() - 1] = total;
        return counts;
    }
    let ideal: Vec<f64> = weights.iter().map(|&w| w / sum * total as f64).collect();
    for (c, x) in counts.iter_mut().zip(&ideal) {
        *c = x.floor() as usize;
    }
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.partial_cmp(&fa).expect("finite weights").then(a.cmp(&b))
    });
    for &i in order.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// Per-location quorum list and access distribution implied by `choice`.
fn location_rows(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: &QuorumChoice,
) -> Result<(Vec<Quorum>, Vec<Vec<f64>>), SimError> {
    let locations = clients.locations();
    match choice {
        QuorumChoice::Weighted { quorums, strategy } => {
            let rows = (0..locations.len())
                .map(|l| strategy.row(l).to_vec())
                .collect();
            Ok((quorums.clone(), rows))
        }
        QuorumChoice::Closest => {
            let quorums = closest_choices(net, locations, system, placement);
            let rows = (0..locations.len())
                .map(|l| {
                    let mut row = vec![0.0; quorums.len()];
                    row[l] = 1.0;
                    row
                })
                .collect();
            Ok((quorums, rows))
        }
        QuorumChoice::Balanced => {
            let quorums = system.enumerate(BALANCED_ENUM_LIMIT).map_err(|e| {
                SimError::SizeMismatch(format!(
                    "aggregated Balanced choice needs an enumerable quorum system: {e}"
                ))
            })?;
            let row = vec![1.0 / quorums.len() as f64; quorums.len()];
            Ok((quorums, vec![row; locations.len()]))
        }
    }
}

/// Runs the aggregated flow-level simulation and reports the same
/// statistics as [`crate::simulate`]. Percentiles come from the
/// bounded-memory log-bucket histogram ([`LogHistogram`]), within 2^-8 of
/// the exact nearest-rank ones.
///
/// Each client's response chain is still evaluated individually — only
/// event scheduling and station contention are batched per flow, each
/// batch served in one [`ServiceStation::submit_batch`] pass — so the
/// result reduces to the exact engine when flows do not interleave.
///
/// # Errors
///
/// [`SimError::SizeMismatch`] on the same shape violations as the exact
/// engine, or when a `Balanced` choice's quorum system cannot be
/// enumerated within the internal cap.
pub fn simulate_aggregated(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: QuorumChoice,
    config: &ProtocolConfig,
) -> Result<SimReport, SimError> {
    validate_inputs(net, system, placement, clients, &choice, config)?;
    let (quorums, rows) = location_rows(net, system, placement, clients, &choice)?;

    let locations = clients.locations();
    let loc_counts = clients.client_counts();
    let total_rounds = config.warmup_requests + config.measured_requests;

    let service_of = |element: usize| -> f64 {
        let mult = config
            .service_multipliers
            .as_ref()
            .map_or(1.0, |m| m[element]);
        config.service_time_ms * mult
    };

    // Fault model (analytic): clients apportioned to quorums that touch a
    // crashed element spend the detection window timing out, then shift
    // to the surviving strategy mass as late-starting failover flows.
    let crashed = crashed_mask(system.universe_size(), config);
    let any_crashed = crashed.iter().any(|&c| c);
    let fault = config.fault.as_ref().filter(|_| any_crashed);
    let quorum_dead: Vec<bool> = if fault.is_some() {
        quorums
            .iter()
            .map(|q| q.iter().any(|u| crashed[u.index()]))
            .collect()
    } else {
        vec![false; quorums.len()]
    };
    let (timeouts_pc, retries_pc) = fault.map_or((0, 0), detection_window_attempts);
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    let mut failovers = 0u64;

    // Build flows: one per (location, quorum) pair with assigned clients,
    // plus one late-starting failover flow per quorum receiving shifted
    // detection-window mass.
    let mut flows: Vec<Flow> = Vec::new();
    let mut total_members = 0usize;
    let mut by_node = Vec::new();
    for (l, &loc) in locations.iter().enumerate() {
        let per_quorum = apportion(loc_counts[l], &rows[l]);
        // Mass shifted off dead quorums at detection time.
        let mut shifted = vec![0usize; quorums.len()];
        if let Some(f) = fault {
            let doomed: usize = per_quorum
                .iter()
                .enumerate()
                .filter(|&(i, _)| quorum_dead[i])
                .map(|(_, &n)| n)
                .sum();
            if doomed > 0 {
                let live_row: Vec<f64> = rows[l]
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| if quorum_dead[i] { 0.0 } else { p })
                    .collect();
                if live_row.iter().sum::<f64>() > 0.0 {
                    shifted = apportion(doomed, &live_row);
                    timeouts += doomed as u64 * timeouts_pc;
                    retries += doomed as u64 * retries_pc;
                    if f.detection_latency_ms > 0.0 {
                        failovers += doomed as u64;
                    }
                } else {
                    // Every quorum of this location touches a crash: its
                    // clients never complete a request; charge the full
                    // run's worth of timeouts and drop the mass.
                    let rounds = total_rounds as u64;
                    timeouts += doomed as u64 * rounds * (f.max_retries as u64 + 1);
                    retries += doomed as u64 * rounds * f.max_retries as u64;
                }
            }
        }
        for (i, &nominal_n) in per_quorum.iter().enumerate() {
            let quorum_flows: [(usize, f64); 2] = [
                // Nominal mass (zeroed on dead quorums under the fault
                // model — it re-emerges as shifted mass elsewhere).
                (
                    if fault.is_some() && quorum_dead[i] {
                        0
                    } else {
                        nominal_n
                    },
                    0.0,
                ),
                // Failover mass arriving when the detector fires.
                (shifted[i], fault.map_or(0.0, |f| f.detection_latency_ms)),
            ];
            if quorum_flows.iter().all(|&(n, _)| n == 0) {
                continue;
            }
            // Group the quorum's elements by hosting node, exactly as the
            // exact engine does per request.
            group_by_node(placement, quorums[i].as_slice(), &mut by_node);
            let mut nodes = Vec::new();
            let mut floor_ms = f64::MIN;
            for group in by_node.chunk_by(|a, b| a.0 == b.0) {
                let w = group[0].0;
                let d = net.distance(loc, NodeId::new(w));
                let services = group.iter().map(|&(_, u)| service_of(u));
                let svc = if config.dedup_colocated {
                    services.fold(0.0, f64::max)
                } else {
                    services.sum()
                };
                floor_ms = floor_ms.max(d + svc);
                nodes.push(FlowNode {
                    node: w,
                    one_way_ms: d / 2.0,
                    service_ms: svc,
                });
            }
            for (n, start_ms) in quorum_flows {
                if n == 0 {
                    continue;
                }
                flows.push(Flow {
                    offset: total_members,
                    n,
                    nodes: nodes.clone(),
                    floor_ms,
                    pending: 0,
                    rounds_done: 0,
                    start_ms,
                });
                total_members += n;
            }
        }
    }

    // Per-member completion times: `c_prev[j]` is when member j's previous
    // round finished (= when it sends this round); `c_new[j]` folds the max
    // reply arrival over the current round's nodes.
    let mut c_prev = vec![0.0f64; total_members];
    let mut c_new = vec![0.0f64; total_members];
    let mut resp_sum = vec![0.0f64; total_members];

    let mut servers: Vec<ServiceStation> = build_servers(net.len(), config);
    let mut response_tally = Tally::new();
    let mut response_histogram = LogHistogram::new();
    let mut floor_tally = Tally::new();

    // One event per (flow, round, contacted node), keyed by the earliest
    // member's arrival. The quantum tracks the service granularity; the
    // wheel's pop order is exact regardless (see `qp_des::TimeWheel`).
    let quantum = config.service_time_ms.clamp(0.01, 100.0);
    let mut wheel: TimeWheel<(u32, u32)> = TimeWheel::new(quantum);
    if total_rounds > 0 {
        for (f, flow) in flows.iter_mut().enumerate() {
            flow.pending = flow.nodes.len();
            for c in c_prev.iter_mut().skip(flow.offset).take(flow.n) {
                *c = flow.start_ms;
            }
            for (ni, fnode) in flow.nodes.iter().enumerate() {
                wheel.push(
                    SimTime::from_ms(flow.start_ms + fnode.one_way_ms),
                    (f as u32, ni as u32),
                );
            }
        }
    }

    while let Some((_now, (f, ni))) = wheel.pop() {
        let flow = &mut flows[f as usize];
        let fnode = &flow.nodes[ni as usize];
        let off = flow.offset;
        // Serve the batch as one consecutive chain: member j's fragment
        // arrives a one-way delay after its send time and departs per the
        // station's FIFO recursion.
        let one_way_ms = fnode.one_way_ms;
        let replies = &mut c_new[off..off + flow.n];
        servers[fnode.node].submit_batch(
            c_prev[off..off + flow.n]
                .iter()
                .map(|&sent| SimTime::from_ms(sent + one_way_ms)),
            fnode.service_ms,
            |j, depart| {
                let reply_at = depart.as_ms() + one_way_ms;
                // Store the later reply unconditionally, so the select
                // compiles to a branch-free max.
                replies[j] = if reply_at > replies[j] {
                    reply_at
                } else {
                    replies[j]
                };
            },
        );
        flow.pending -= 1;
        if flow.pending > 0 {
            continue;
        }
        // Round complete for this flow.
        if flow.rounds_done >= config.warmup_requests {
            for j in off..off + flow.n {
                let rt = c_new[j] - c_prev[j];
                response_tally.add(rt);
                response_histogram.add(rt);
                resp_sum[j] += rt;
            }
            floor_tally.add_n(flow.floor_ms, flow.n as u64);
        }
        flow.rounds_done += 1;
        if flow.rounds_done < total_rounds {
            // Replies become next round's send times.
            for j in off..off + flow.n {
                c_prev[j] = c_new[j];
                c_new[j] = 0.0;
            }
            flow.pending = flow.nodes.len();
            for (ni, fnode) in flow.nodes.iter().enumerate() {
                wheel.push(
                    SimTime::from_ms(c_prev[off] + fnode.one_way_ms),
                    (f, ni as u32),
                );
            }
        }
    }

    // Request conservation: the wheel ran dry, so every flow finished all
    // its rounds and measured each member once per measured round.
    assert!(
        flows.iter().all(|flow| flow.rounds_done == total_rounds),
        "request conservation: a flow stopped short of {total_rounds} rounds"
    );
    let measured = total_members as u64 * config.measured_requests as u64;
    assert_eq!(
        response_tally.count(),
        measured,
        "request conservation: {measured} measured requests expected"
    );

    let horizon = wheel.now();
    let horizon_ms = horizon.as_ms().max(f64::MIN_POSITIVE);
    let per_client: Vec<f64> = if config.measured_requests == 0 {
        vec![0.0; total_members]
    } else {
        resp_sum
            .iter()
            .map(|&s| s / config.measured_requests as f64)
            .collect()
    };
    let percentiles = (
        response_histogram.quantile(0.50),
        response_histogram.quantile(0.95),
        response_histogram.quantile(0.99),
    );
    // End-of-run flush mirroring the exact engine's: the fluid loop stays
    // instrumentation-free and the wheel's event counters supply the
    // push/pop totals.
    if qp_obs::enabled() {
        qp_obs::counter_add("des_agg_runs_total", 1);
        qp_obs::counter_add("des_wheel_push_total", wheel.pushes());
        qp_obs::counter_add("des_wheel_pop_total", wheel.pops());
        qp_obs::counter_add("des_requests_completed_total", response_tally.count());
        qp_obs::counter_add("des_timeouts_total", timeouts);
        qp_obs::counter_add("des_retries_total", retries);
        qp_obs::counter_add("des_failovers_total", failovers);
        qp_obs::observe("des_sim_horizon_ms", horizon.as_ms());
    }
    Ok(SimReport {
        avg_response_ms: response_tally.mean(),
        avg_network_delay_ms: floor_tally.mean(),
        per_client_response_ms: per_client,
        percentiles_ms: percentiles,
        server_mean_wait_ms: servers.iter().map(ServiceStation::mean_wait_ms).collect(),
        server_utilization: servers
            .iter()
            .map(|s| s.utilization(SimTime::from_ms(horizon_ms)))
            .collect(),
        completed_requests: response_tally.count(),
        horizon_ms: horizon.as_ms(),
        residual_busy_ms: residual_busy(&servers, horizon),
        timeouts,
        retries,
        failovers,
    })
}

/// Dispatches to [`crate::simulate`] or [`simulate_aggregated`] by engine.
///
/// # Errors
///
/// Whatever the selected engine reports.
pub fn simulate_with_engine(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: QuorumChoice,
    config: &ProtocolConfig,
    engine: SimEngine,
) -> Result<SimReport, SimError> {
    match engine {
        SimEngine::Exact => crate::simulate(net, system, placement, clients, choice, config),
        SimEngine::Aggregated => {
            simulate_aggregated(net, system, placement, clients, choice, config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use qp_core::one_to_one;
    use qp_quorum::{MajorityKind, StrategyMatrix};
    use qp_topology::datasets;

    fn grid_setup() -> (Network, QuorumSystem, Placement) {
        let net = datasets::planetlab_50();
        let sys = QuorumSystem::grid(2).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        (net, sys, placement)
    }

    fn weighted_choice(
        sys: &QuorumSystem,
        clients: &ClientPopulation,
        limit: usize,
    ) -> QuorumChoice {
        let quorums = sys.enumerate(limit).unwrap();
        let n = quorums.len();
        let rows = vec![vec![1.0 / n as f64; n]; clients.locations().len()];
        QuorumChoice::Weighted {
            quorums,
            strategy: StrategyMatrix::from_rows(rows).unwrap(),
        }
    }

    #[test]
    fn single_flow_idle_system_matches_floor() {
        // One location, one deterministic quorum, one client: the
        // aggregated engine must be *exact* — response == floor.
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::new(vec![NodeId::new(5)], 1);
        let quorums = sys.enumerate(16).unwrap();
        let strategy = StrategyMatrix::deterministic(&[0], quorums.len());
        let cfg = ProtocolConfig {
            warmup_requests: 2,
            measured_requests: 20,
            ..ProtocolConfig::default()
        };
        let choice = QuorumChoice::Weighted { quorums, strategy };
        let agg =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        assert!((agg.avg_response_ms - agg.avg_network_delay_ms).abs() < 1e-9);
        let exact = simulate(&net, &sys, &placement, &clients, choice, &cfg).unwrap();
        assert!((agg.avg_response_ms - exact.avg_response_ms).abs() < 1e-9);
        assert_eq!(agg.completed_requests, exact.completed_requests);
    }

    #[test]
    fn deterministic_quorum_many_clients_matches_exact() {
        // All clients at one location on one fixed quorum: batch atomicity
        // is not an approximation (there is only one batch), so the two
        // engines agree to rounding.
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::new(vec![NodeId::new(7)], 40);
        let quorums = sys.enumerate(16).unwrap();
        let strategy = StrategyMatrix::deterministic(&[1], quorums.len());
        let cfg = ProtocolConfig {
            warmup_requests: 5,
            measured_requests: 30,
            ..ProtocolConfig::default()
        };
        let choice = QuorumChoice::Weighted { quorums, strategy };
        let agg =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        let exact = simulate(&net, &sys, &placement, &clients, choice, &cfg).unwrap();
        let rel = (agg.avg_response_ms - exact.avg_response_ms).abs() / exact.avg_response_ms;
        assert!(
            rel < 1e-9,
            "single-batch flows must be exact: agg {} vs exact {}",
            agg.avg_response_ms,
            exact.avg_response_ms
        );
        // Same responses, so the streamed percentiles sit within the
        // histogram's 2^-8 of the exact engine's buffered ones.
        for (a, e) in [
            (agg.percentiles_ms.0, exact.percentiles_ms.0),
            (agg.percentiles_ms.1, exact.percentiles_ms.1),
            (agg.percentiles_ms.2, exact.percentiles_ms.2),
        ] {
            assert!((a - e).abs() <= e / 256.0, "aggregated {a} vs exact {e}");
        }
    }

    #[test]
    fn mid_size_agreement_with_exact_engine() {
        // The documented accuracy envelope: mixed flows at moderate load,
        // mean response within 10% of the exact engine.
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 12, 25);
        let cfg = ProtocolConfig {
            warmup_requests: 10,
            measured_requests: 60,
            seed: 3,
            ..ProtocolConfig::default()
        };
        let choice = weighted_choice(&sys, &clients, 16);
        let agg =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        let exact = simulate(&net, &sys, &placement, &clients, choice, &cfg).unwrap();
        let rel = (agg.avg_response_ms - exact.avg_response_ms).abs() / exact.avg_response_ms;
        assert!(
            rel < 0.10,
            "aggregated {} vs exact {} (rel {:.3})",
            agg.avg_response_ms,
            exact.avg_response_ms,
            rel
        );
        // Floors are computed identically, weighted by the same counts.
        let floor_rel = (agg.avg_network_delay_ms - exact.avg_network_delay_ms).abs()
            / exact.avg_network_delay_ms;
        assert!(floor_rel < 0.10);
    }

    #[test]
    fn reruns_are_bit_identical_and_seed_free() {
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 8, 10);
        let choice = weighted_choice(&sys, &clients, 16);
        let run = |seed: u64| {
            simulate_aggregated(
                &net,
                &sys,
                &placement,
                &clients,
                choice.clone(),
                &ProtocolConfig {
                    seed,
                    ..ProtocolConfig::default()
                },
            )
            .unwrap()
        };
        let (a, b) = (run(1), run(999));
        assert_eq!(a.avg_response_ms, b.avg_response_ms);
        assert_eq!(a.per_client_response_ms, b.per_client_response_ms);
        assert_eq!(a.percentiles_ms, b.percentiles_ms);
        assert_eq!(a.server_utilization, b.server_utilization);
    }

    #[test]
    fn scales_to_many_clients_quickly() {
        // 100k clients through the aggregated engine: must finish fast and
        // stay above the idle floor.
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 20, 5_000);
        let cfg = ProtocolConfig {
            warmup_requests: 2,
            measured_requests: 8,
            ..ProtocolConfig::default()
        };
        let choice = weighted_choice(&sys, &clients, 16);
        let report = simulate_aggregated(&net, &sys, &placement, &clients, choice, &cfg).unwrap();
        assert_eq!(report.completed_requests, 8 * 100_000);
        assert!(report.avg_response_ms >= report.avg_network_delay_ms - 1e-9);
        assert!(report
            .server_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn carried_backlog_raises_response() {
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::new(vec![NodeId::new(3)], 4);
        let quorums = sys.enumerate(16).unwrap();
        let strategy = StrategyMatrix::deterministic(&[0], quorums.len());
        let choice = QuorumChoice::Weighted { quorums, strategy };
        // Measure from round 0 so the carried backlog's transient counts.
        let cfg = ProtocolConfig {
            warmup_requests: 0,
            measured_requests: 20,
            ..ProtocolConfig::default()
        };
        let nominal =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        let carried = simulate_aggregated(
            &net,
            &sys,
            &placement,
            &clients,
            choice,
            &ProtocolConfig {
                initial_server_busy_ms: Some(vec![200.0; net.len()]),
                ..cfg
            },
        )
        .unwrap();
        assert!(carried.avg_response_ms > nominal.avg_response_ms);
        assert!(nominal.residual_busy_ms.iter().all(|&r| r >= 0.0));
    }

    #[test]
    fn balanced_choice_enumerates_majorities() {
        let net = datasets::planetlab_50();
        let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let clients = ClientPopulation::new(vec![NodeId::new(1), NodeId::new(2)], 6);
        let report = simulate_aggregated(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &ProtocolConfig::default(),
        )
        .unwrap();
        assert_eq!(report.completed_requests, 100 * 12);
    }

    #[test]
    fn fault_model_without_crashes_is_bit_identical() {
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 8, 10);
        let choice = weighted_choice(&sys, &clients, 16);
        let cfg = ProtocolConfig::default();
        let base =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        let faulted = simulate_aggregated(
            &net,
            &sys,
            &placement,
            &clients,
            choice,
            &ProtocolConfig {
                fault: Some(crate::FaultConfig::default()),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(base.avg_response_ms, faulted.avg_response_ms);
        assert_eq!(base.per_client_response_ms, faulted.per_client_response_ms);
        assert_eq!(base.server_utilization, faulted.server_utilization);
        assert_eq!(faulted.timeouts, 0);
        assert_eq!(faulted.retries, 0);
        assert_eq!(faulted.failovers, 0);
    }

    #[test]
    fn detection_window_mass_shifts_between_flows() {
        let (net, sys, placement) = grid_setup();
        let clients = ClientPopulation::new(vec![NodeId::new(3), NodeId::new(11)], 20);
        let choice = weighted_choice(&sys, &clients, 16);
        let mut mults = vec![1.0; sys.universe_size()];
        mults[0] = 64.0;
        let cfg = ProtocolConfig {
            measured_requests: 20,
            service_multipliers: Some(mults),
            fault: Some(crate::FaultConfig {
                detection_latency_ms: 300.0,
                ..crate::FaultConfig::default()
            }),
            ..ProtocolConfig::default()
        };
        let report =
            simulate_aggregated(&net, &sys, &placement, &clients, choice.clone(), &cfg).unwrap();
        // Every client still completes its measured rounds (mass shifted,
        // not dropped), and the analytic counters reflect the window.
        assert_eq!(report.completed_requests, 40 * 20);
        assert!(report.timeouts > 0);
        assert!(report.retries > 0);
        assert!(report.failovers > 0);
        // A priori knowledge (zero latency) has no detection window.
        let instant = simulate_aggregated(
            &net,
            &sys,
            &placement,
            &clients,
            choice,
            &ProtocolConfig {
                fault: cfg.fault.clone().map(|f| crate::FaultConfig {
                    detection_latency_ms: 0.0,
                    ..f
                }),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(instant.timeouts, 0);
        assert_eq!(instant.failovers, 0);
        assert_eq!(instant.completed_requests, 40 * 20);
        // The late-starting failover flows stretch the horizon.
        assert!(report.horizon_ms >= instant.horizon_ms);
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        assert_eq!(apportion(10, &[0.5, 0.5]), vec![5, 5]);
        assert_eq!(apportion(3, &[0.5, 0.5]), vec![2, 1]);
        assert_eq!(apportion(7, &[0.0, 1.0, 0.0]), vec![0, 7, 0]);
        assert_eq!(apportion(4, &[0.0, 0.0]), vec![0, 4]);
        let counts = apportion(100, &[0.21, 0.33, 0.46]);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(counts, vec![21, 33, 46]);
    }
}
