//! The response-time model (Eq. 4.1–4.2) and strategy evaluation.
//!
//! Response time for client `v` accessing quorum `Q` under placement `f`:
//!
//! ```text
//! ρ_f(v, Q) = max_{w ∈ f(Q)} ( d(v, w) + α · load_f(w) )
//! ```
//!
//! where `load_f(w)` is the average (over clients) load the access
//! strategies induce on node `w`, and `α = op_srv_time × client_demand`
//! converts a unit load into milliseconds of queueing. `α = 0` recovers
//! pure network delay `δ_f(v, Q)`, the §6 low-demand measure.

use qp_quorum::{Quorum, QuorumSystem, StrategyMatrix};
use qp_topology::{Network, NodeId};

use crate::combinatorics::expected_max_uniform_subset;
use crate::eval::{EvalContext, PlacedQuorums};
use crate::{CoreError, Placement};

/// Quorum-enumeration guard for structural shortcuts: systems with at most
/// this many quorums are evaluated by explicit enumeration.
const ENUM_LIMIT: usize = 100_000;

/// The `α` knob of Eq. (4.1).
///
/// # Examples
///
/// ```
/// use qp_core::ResponseModel;
///
/// // The paper's high-demand setting: 0.007 ms per op × 16000 requests.
/// let model = ResponseModel::from_demand(0.007, 16000.0);
/// assert!((model.alpha() - 112.0).abs() < 1e-12);
/// assert_eq!(ResponseModel::network_delay_only().alpha(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseModel {
    alpha: f64,
    dedup: bool,
}

impl ResponseModel {
    /// `α = 0`: response time is pure network delay (§6, low demand).
    pub fn network_delay_only() -> Self {
        ResponseModel {
            alpha: 0.0,
            dedup: false,
        }
    }

    /// Explicit `α` in milliseconds per unit load.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "α must be a nonnegative number"
        );
        ResponseModel {
            alpha,
            dedup: false,
        }
    }

    /// The paper's parameterization: `α = op_srv_time × client_demand`
    /// (§7; `op_srv_time = 0.007` ms for a Q/U write on their hardware,
    /// `client_demand ∈ {1000, 4000, 16000}`).
    ///
    /// # Panics
    ///
    /// Panics if either argument is negative or not finite.
    pub fn from_demand(op_srv_time_ms: f64, client_demand: f64) -> Self {
        assert!(
            op_srv_time_ms.is_finite() && op_srv_time_ms >= 0.0,
            "service time must be nonnegative"
        );
        assert!(
            client_demand.is_finite() && client_demand >= 0.0,
            "demand must be nonnegative"
        );
        ResponseModel {
            alpha: op_srv_time_ms * client_demand,
            dedup: false,
        }
    }

    /// The §8 future-work variant: "a server hosting multiple universe
    /// elements would execute a request only once for all elements it
    /// hosts". Under deduplicated execution, a quorum access loads each
    /// *touched node* once, instead of once per hosted element — a strict
    /// improvement for many-to-one placements, a no-op for one-to-one
    /// placements.
    ///
    /// # Examples
    ///
    /// ```
    /// use qp_core::ResponseModel;
    ///
    /// let m = ResponseModel::from_demand(0.007, 16000.0).deduplicated();
    /// assert!(m.deduplicates_execution());
    /// ```
    #[must_use]
    pub fn deduplicated(mut self) -> Self {
        self.dedup = true;
        self
    }

    /// Whether co-located elements are executed once per quorum access.
    pub fn deduplicates_execution(&self) -> bool {
        self.dedup
    }

    /// The `α` value, ms per unit load.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// The outcome of evaluating a placement + strategy combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// `avg_v Δ_f(v)`: the paper's objective, milliseconds.
    pub avg_response_ms: f64,
    /// The same average with `α = 0`: network delay only.
    pub avg_network_delay_ms: f64,
    /// `Δ_f(v)` per client, in the order of the `clients` argument.
    pub per_client_response_ms: Vec<f64>,
    /// Network-delay component per client.
    pub per_client_delay_ms: Vec<f64>,
    /// `load_f(w)` per node (average over clients).
    pub node_loads: Vec<f64>,
}

impl Evaluation {
    /// The largest per-node load (the classical "system load" of the
    /// placed, strategized system).
    pub fn max_node_load(&self) -> f64 {
        self.node_loads.iter().copied().fold(0.0, f64::max)
    }
}

/// `ρ_f(v, Q)` (Eq. 4.1) given precomputed node loads.
fn rho(
    net: &Network,
    placement: &Placement,
    v: NodeId,
    q: &Quorum,
    alpha: f64,
    node_loads: &[f64],
) -> f64 {
    q.iter()
        .map(|u| {
            let w = placement.node_of(u);
            net.distance(v, w) + alpha * node_loads[w.index()]
        })
        .fold(f64::MIN, f64::max)
}

/// `δ_f(v, Q)`: the network-delay-only special case of `ρ`.
fn delta(net: &Network, placement: &Placement, v: NodeId, q: &Quorum) -> f64 {
    q.iter()
        .map(|u| net.distance(v, placement.node_of(u)))
        .fold(f64::MIN, f64::max)
}

/// The closest quorum (minimum `δ_f(v, Q)`) for each client — the §6
/// "closest quorum access strategy". Computed structurally, so it works for
/// Majorities of any size without enumeration.
///
/// # Panics
///
/// Panics if `placement.universe_size() != system.universe_size()` or
/// `clients` is empty.
pub fn closest_choices(
    net: &Network,
    clients: &[NodeId],
    system: &QuorumSystem,
    placement: &Placement,
) -> Vec<Quorum> {
    assert_eq!(
        placement.universe_size(),
        system.universe_size(),
        "placement and system disagree on universe size"
    );
    assert!(!clients.is_empty(), "at least one client required");
    clients
        .iter()
        .map(|&v| {
            let costs: Vec<f64> = placement
                .as_slice()
                .iter()
                .map(|&w| net.distance(v, w))
                .collect();
            system.min_max_quorum(&costs)
        })
        .collect()
}

/// Evaluates deterministic per-client quorum choices (client `v` always
/// accesses `choices[v]`).
///
/// Loads: `load_v(u) = 1` for `u ∈ choices[v]`, then averaged over clients
/// and aggregated per node.
///
/// # Panics
///
/// Panics if `choices.len() != clients.len()` or `clients` is empty.
pub fn evaluate_choices(
    net: &Network,
    clients: &[NodeId],
    placement: &Placement,
    choices: &[Quorum],
    model: ResponseModel,
) -> Evaluation {
    assert_eq!(
        choices.len(),
        clients.len(),
        "one choice per client required"
    );
    assert!(!clients.is_empty(), "at least one client required");
    let inv = 1.0 / clients.len() as f64;
    let node_loads = if model.deduplicates_execution() {
        // One execution per touched node per access (§8 variant).
        let mut loads = vec![0.0; placement.num_nodes()];
        for q in choices {
            for w in placement.quorum_nodes(q) {
                loads[w.index()] += inv;
            }
        }
        loads
    } else {
        // One execution per hosted element per access (Eq. 4.1 semantics).
        let mut element_loads = vec![0.0; placement.universe_size()];
        for q in choices {
            for u in q.iter() {
                element_loads[u.index()] += inv;
            }
        }
        placement.node_loads(&element_loads)
    };

    let mut per_resp = Vec::with_capacity(clients.len());
    let mut per_delay = Vec::with_capacity(clients.len());
    for (&v, q) in clients.iter().zip(choices) {
        per_resp.push(rho(net, placement, v, q, model.alpha(), &node_loads));
        per_delay.push(delta(net, placement, v, q));
    }
    finish(per_resp, per_delay, node_loads)
}

/// Evaluates the closest-quorum strategy (§6): each client deterministically
/// accesses its minimum-delay quorum.
///
/// # Errors
///
/// Currently infallible for all supported systems; the `Result` mirrors the
/// other evaluation entry points.
///
/// # Panics
///
/// Panics if sizes disagree or `clients` is empty.
pub fn evaluate_closest(
    net: &Network,
    clients: &[NodeId],
    system: &QuorumSystem,
    placement: &Placement,
    model: ResponseModel,
) -> Result<Evaluation, CoreError> {
    let choices = closest_choices(net, clients, system, placement);
    Ok(evaluate_choices(net, clients, placement, &choices, model))
}

/// Evaluates an explicit strategy matrix over an enumerated quorum list
/// (Eq. 4.2 verbatim).
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if the strategy shape does not match
/// `clients`/`quorums`.
///
/// # Panics
///
/// Panics if `clients` is empty.
pub fn evaluate_matrix(
    net: &Network,
    clients: &[NodeId],
    placement: &Placement,
    quorums: &[Quorum],
    strategy: &StrategyMatrix,
    model: ResponseModel,
) -> Result<Evaluation, CoreError> {
    assert!(!clients.is_empty(), "at least one client required");
    let ctx = EvalContext::new(net, clients);
    let pq = ctx.place(placement, quorums);
    evaluate_matrix_placed(&pq, strategy, model)
}

/// [`evaluate_matrix`] against a pre-bound [`PlacedQuorums`]: the delay
/// matrix, host sets, and deduplicated host sets come from the cache
/// instead of being recomputed, so sweeping many strategies over one
/// placement (the §7 capacity sweeps) pays the geometry cost once.
///
/// Bit-for-bit identical to [`evaluate_matrix`] — the cache stores the
/// same values the uncached path computes, in the same order.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if the strategy shape does not match the
/// bound clients/quorums.
pub fn evaluate_matrix_placed(
    pq: &PlacedQuorums<'_>,
    strategy: &StrategyMatrix,
    model: ResponseModel,
) -> Result<Evaluation, CoreError> {
    let clients = pq.ctx().clients();
    let placement = pq.placement();
    let quorums = pq.quorums();
    if strategy.num_clients() != clients.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "strategy has {} rows for {} clients",
                strategy.num_clients(),
                clients.len()
            ),
        });
    }
    if strategy.num_quorums() != quorums.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "strategy has {} columns for {} quorums",
                strategy.num_quorums(),
                quorums.len()
            ),
        });
    }
    let node_loads = if model.deduplicates_execution() {
        pq.dedup_node_loads(|row, i| strategy.prob(row, i), clients.len())
    } else {
        let element_loads = strategy.element_loads(quorums, placement.universe_size());
        placement.node_loads(&element_loads)
    };

    let mut per_resp = Vec::with_capacity(clients.len());
    let mut per_delay = Vec::with_capacity(clients.len());
    for row in 0..clients.len() {
        let mut r = 0.0;
        let mut d = 0.0;
        for i in 0..quorums.len() {
            let p = strategy.prob(row, i);
            if p > 0.0 {
                r += p * pq.rho(row, i, model.alpha(), &node_loads);
                d += p * pq.delta(row, i);
            }
        }
        per_resp.push(r);
        per_delay.push(d);
    }
    Ok(finish(per_resp, per_delay, node_loads))
}

/// Demand-weighted variant of [`evaluate_matrix_placed`]: row `v` of the
/// strategy stands for `weights[v]` identical clients (a location-level
/// evaluation), so loads and averages weight each row accordingly.
///
/// With uniform weights this computes the same mathematical quantities as
/// flattening each location into that many per-client rows — without ever
/// materializing the per-client delay matrix, which is what lets
/// million-client aggregated pipelines score placements in
/// O(locations × quorums) memory.
///
/// `avg_response_ms`/`avg_network_delay_ms` are weighted means;
/// `per_client_*` vectors hold one entry per *row* (location), not per
/// flattened client.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if the strategy shape does not match the
/// bound clients/quorums, or `weights` has the wrong length, a negative
/// or non-finite entry, or zero total mass.
pub fn evaluate_matrix_placed_weighted(
    pq: &PlacedQuorums<'_>,
    strategy: &StrategyMatrix,
    weights: &[f64],
    model: ResponseModel,
) -> Result<Evaluation, CoreError> {
    let clients = pq.ctx().clients();
    let placement = pq.placement();
    let quorums = pq.quorums();
    if strategy.num_clients() != clients.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "strategy has {} rows for {} clients",
                strategy.num_clients(),
                clients.len()
            ),
        });
    }
    if strategy.num_quorums() != quorums.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "strategy has {} columns for {} quorums",
                strategy.num_quorums(),
                quorums.len()
            ),
        });
    }
    if weights.len() != clients.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "{} weights for {} client rows",
                weights.len(),
                clients.len()
            ),
        });
    }
    if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
        return Err(CoreError::SizeMismatch {
            reason: "weights must be nonnegative".to_string(),
        });
    }
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return Err(CoreError::SizeMismatch {
            reason: "weights must have positive total mass".to_string(),
        });
    }

    let node_loads = if model.deduplicates_execution() {
        // One execution per touched node, weighted by row mass.
        let mut loads = vec![0.0; placement.num_nodes()];
        for (row, &weight) in weights.iter().enumerate() {
            let share = weight / total;
            if share == 0.0 {
                continue;
            }
            for i in 0..quorums.len() {
                let p = strategy.prob(row, i);
                if p > 0.0 {
                    for w in pq.unique_hosts(i) {
                        loads[w.index()] += share * p;
                    }
                }
            }
        }
        loads
    } else {
        let mut element_loads = vec![0.0; placement.universe_size()];
        for (row, &weight) in weights.iter().enumerate() {
            let share = weight / total;
            if share == 0.0 {
                continue;
            }
            for (i, quorum) in quorums.iter().enumerate() {
                let p = strategy.prob(row, i);
                if p > 0.0 {
                    for u in quorum.iter() {
                        element_loads[u.index()] += share * p;
                    }
                }
            }
        }
        placement.node_loads(&element_loads)
    };

    let mut per_resp = Vec::with_capacity(clients.len());
    let mut per_delay = Vec::with_capacity(clients.len());
    let mut avg_resp = 0.0;
    let mut avg_delay = 0.0;
    for (row, &weight) in weights.iter().enumerate() {
        let mut r = 0.0;
        let mut d = 0.0;
        for i in 0..quorums.len() {
            let p = strategy.prob(row, i);
            if p > 0.0 {
                r += p * pq.rho(row, i, model.alpha(), &node_loads);
                d += p * pq.delta(row, i);
            }
        }
        avg_resp += weight / total * r;
        avg_delay += weight / total * d;
        per_resp.push(r);
        per_delay.push(d);
    }
    Ok(Evaluation {
        avg_response_ms: avg_resp,
        avg_network_delay_ms: avg_delay,
        per_client_response_ms: per_resp,
        per_client_delay_ms: per_delay,
        node_loads,
    })
}

/// Evaluates the *balanced* strategy (uniform over all quorums, §7).
///
/// For Majorities this avoids enumerating `C(n, q)` quorums: uniform
/// sampling loads every element `q/n`, and `E[max]` over a uniform
/// `q`-subset is computed exactly by order statistics
/// ([`expected_max_uniform_subset`]). Grids and explicit systems are
/// enumerated.
///
/// # Errors
///
/// [`CoreError::Quorum`] if a non-Majority system has more than 100 000
/// quorums.
///
/// # Panics
///
/// Panics if sizes disagree or `clients` is empty.
pub fn evaluate_balanced(
    net: &Network,
    clients: &[NodeId],
    system: &QuorumSystem,
    placement: &Placement,
    model: ResponseModel,
) -> Result<Evaluation, CoreError> {
    assert_eq!(
        placement.universe_size(),
        system.universe_size(),
        "placement and system disagree on universe size"
    );
    assert!(!clients.is_empty(), "at least one client required");
    if let Some((kind, t)) = system.as_majority() {
        let n = kind.universe_size(t);
        let q = kind.quorum_size(t);
        let node_loads = if model.deduplicates_execution() {
            // P(uniform q-subset touches node w) = 1 − C(n−c, q)/C(n, q)
            // where c = elements hosted on w.
            placement
                .element_counts()
                .iter()
                .map(|&c| {
                    if c == 0 {
                        0.0
                    } else if n - c < q {
                        1.0
                    } else {
                        let mut miss = 1.0;
                        for i in 0..q {
                            miss *= (n - c - i) as f64 / (n - i) as f64;
                        }
                        1.0 - miss
                    }
                })
                .collect()
        } else {
            // Uniform q-subsets load every element q/n.
            let element_loads = vec![q as f64 / n as f64; n];
            placement.node_loads(&element_loads)
        };
        let mut per_resp = Vec::with_capacity(clients.len());
        let mut per_delay = Vec::with_capacity(clients.len());
        for &v in clients {
            let costs: Vec<f64> = placement
                .as_slice()
                .iter()
                .map(|&w| net.distance(v, w) + model.alpha() * node_loads[w.index()])
                .collect();
            let delays: Vec<f64> = placement
                .as_slice()
                .iter()
                .map(|&w| net.distance(v, w))
                .collect();
            per_resp.push(expected_max_uniform_subset(&costs, q));
            per_delay.push(expected_max_uniform_subset(&delays, q));
        }
        Ok(finish(per_resp, per_delay, node_loads))
    } else {
        let quorums = system.enumerate(ENUM_LIMIT)?;
        let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
        evaluate_matrix(net, clients, placement, &quorums, &strategy, model)
    }
}

fn finish(per_resp: Vec<f64>, per_delay: Vec<f64>, node_loads: Vec<f64>) -> Evaluation {
    let n = per_resp.len() as f64;
    Evaluation {
        avg_response_ms: per_resp.iter().sum::<f64>() / n,
        avg_network_delay_ms: per_delay.iter().sum::<f64>() / n,
        per_client_response_ms: per_resp,
        per_client_delay_ms: per_delay,
        node_loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_quorum::MajorityKind;
    use qp_topology::{datasets, DistanceMatrix};

    fn line4() -> Network {
        Network::from_distances(
            DistanceMatrix::from_rows(&[
                vec![0.0, 1.0, 2.0, 3.0],
                vec![1.0, 0.0, 1.0, 2.0],
                vec![2.0, 1.0, 0.0, 1.0],
                vec![3.0, 2.0, 1.0, 0.0],
            ])
            .unwrap(),
        )
    }

    fn all_clients(net: &Network) -> Vec<NodeId> {
        net.nodes().collect()
    }

    #[test]
    fn alpha_zero_makes_response_equal_delay() {
        let net = line4();
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 1).unwrap();
        let placement = Placement::new(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            net.len(),
        )
        .unwrap();
        let clients = all_clients(&net);
        let eval = evaluate_closest(
            &net,
            &clients,
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert_eq!(eval.avg_response_ms, eval.avg_network_delay_ms);
        assert_eq!(eval.per_client_response_ms, eval.per_client_delay_ms);
    }

    #[test]
    fn closest_choice_hand_check() {
        // n=3, q=2 majority placed on nodes 0,1,2 of the line. Client 3's
        // element delays: (3, 2, 1) → closest 2-subset = {u1, u2}, max
        // delay 2.
        let net = line4();
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 1).unwrap();
        let placement = Placement::new(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            net.len(),
        )
        .unwrap();
        let clients = vec![NodeId::new(3)];
        let eval = evaluate_closest(
            &net,
            &clients,
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert_eq!(eval.avg_network_delay_ms, 2.0);
        // Load: the single client loads u1 and u2 with 1 → nodes 1, 2.
        assert_eq!(eval.node_loads, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn alpha_increases_response_monotonically() {
        let net = datasets::planetlab_50();
        let clients = all_clients(&net);
        let sys = QuorumSystem::grid(3).unwrap();
        let placement = Placement::new((0..9).map(NodeId::new).collect(), net.len()).unwrap();
        let mut prev = 0.0;
        for alpha in [0.0, 10.0, 50.0, 200.0] {
            let eval = evaluate_closest(
                &net,
                &clients,
                &sys,
                &placement,
                ResponseModel::with_alpha(alpha),
            )
            .unwrap();
            assert!(eval.avg_response_ms >= prev);
            assert!(eval.avg_response_ms >= eval.avg_network_delay_ms);
            prev = eval.avg_response_ms;
        }
    }

    #[test]
    fn balanced_majority_matches_enumerated_matrix() {
        // Small enough to enumerate: n=5, q=3.
        let net = datasets::euclidean_random(8, 50.0, 3);
        let clients = all_clients(&net);
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        let placement = Placement::new((0..5).map(NodeId::new).collect(), net.len()).unwrap();
        let model = ResponseModel::with_alpha(25.0);

        let fast = evaluate_balanced(&net, &clients, &sys, &placement, model).unwrap();

        let quorums = sys.enumerate(1000).unwrap();
        let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
        let slow = evaluate_matrix(&net, &clients, &placement, &quorums, &strategy, model).unwrap();

        assert!(
            (fast.avg_response_ms - slow.avg_response_ms).abs() < 1e-9,
            "fast {} vs enumerated {}",
            fast.avg_response_ms,
            slow.avg_response_ms
        );
        assert!((fast.avg_network_delay_ms - slow.avg_network_delay_ms).abs() < 1e-9);
        for (a, b) in fast.node_loads.iter().zip(&slow.node_loads) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn balanced_grid_loads_are_uniform() {
        let net = datasets::euclidean_random(10, 50.0, 5);
        let clients = all_clients(&net);
        let sys = QuorumSystem::grid(3).unwrap();
        let placement = Placement::new((0..9).map(NodeId::new).collect(), net.len()).unwrap();
        let eval = evaluate_balanced(
            &net,
            &clients,
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        // Every element in 2k−1 = 5 of 9 quorums.
        for w in 0..9 {
            assert!((eval.node_loads[w] - 5.0 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_shape_errors() {
        let net = line4();
        let clients = all_clients(&net);
        let sys = QuorumSystem::grid(2).unwrap();
        let placement = Placement::new((0..4).map(NodeId::new).collect(), net.len()).unwrap();
        let quorums = sys.enumerate(16).unwrap();
        let bad_rows = StrategyMatrix::uniform(2, quorums.len());
        let err = evaluate_matrix(
            &net,
            &clients,
            &placement,
            &quorums,
            &bad_rows,
            ResponseModel::network_delay_only(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
    }

    #[test]
    fn many_to_one_reduces_delay() {
        // Co-locating all elements on the client's own node gives zero
        // delay for that client.
        let net = line4();
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 1).unwrap();
        let all_on_zero = Placement::new(vec![NodeId::new(0); 3], net.len()).unwrap();
        let clients = vec![NodeId::new(0)];
        let eval = evaluate_closest(
            &net,
            &clients,
            &sys,
            &all_on_zero,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert_eq!(eval.avg_network_delay_ms, 0.0);
        // But the node load concentrates: 2 elements of the quorum on one
        // node → load 2.
        assert_eq!(eval.node_loads[0], 2.0);
    }

    #[test]
    fn weighted_rows_match_flattened_clients() {
        // Row v with integer weight n must score like n flattened copies
        // of client v.
        let net = datasets::euclidean_random(12, 60.0, 7);
        let sys = QuorumSystem::grid(2).unwrap();
        let placement = Placement::new((0..4).map(NodeId::new).collect(), net.len()).unwrap();
        let quorums = sys.enumerate(16).unwrap();
        let locations: Vec<NodeId> = (0..4).map(|i| NodeId::new(2 * i)).collect();
        let weights = [3.0, 1.0, 4.0, 2.0];
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                let mut row = vec![0.0; quorums.len()];
                row[l % quorums.len()] = 0.5;
                row[(l + 1) % quorums.len()] = 0.5;
                row
            })
            .collect();

        for model in [
            ResponseModel::with_alpha(30.0),
            ResponseModel::with_alpha(30.0).deduplicated(),
        ] {
            let ctx = EvalContext::new(&net, &locations);
            let pq = ctx.place(&placement, &quorums);
            let strategy = StrategyMatrix::from_rows(rows.clone()).unwrap();
            let weighted =
                evaluate_matrix_placed_weighted(&pq, &strategy, &weights, model).unwrap();

            // Flatten: weight n → n identical client rows.
            let mut flat_clients = Vec::new();
            let mut flat_rows = Vec::new();
            for (l, &w) in weights.iter().enumerate() {
                for _ in 0..w as usize {
                    flat_clients.push(locations[l]);
                    flat_rows.push(rows[l].clone());
                }
            }
            let flat_ctx = EvalContext::new(&net, &flat_clients);
            let flat_pq = flat_ctx.place(&placement, &quorums);
            let flat_strategy = StrategyMatrix::from_rows(flat_rows).unwrap();
            let flattened = evaluate_matrix_placed(&flat_pq, &flat_strategy, model).unwrap();

            assert!(
                (weighted.avg_response_ms - flattened.avg_response_ms).abs() < 1e-9,
                "weighted {} vs flattened {}",
                weighted.avg_response_ms,
                flattened.avg_response_ms
            );
            assert!((weighted.avg_network_delay_ms - flattened.avg_network_delay_ms).abs() < 1e-9);
            for (a, b) in weighted.node_loads.iter().zip(&flattened.node_loads) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn weighted_rejects_bad_weights() {
        let net = line4();
        let sys = QuorumSystem::grid(2).unwrap();
        let placement = Placement::new((0..4).map(NodeId::new).collect(), net.len()).unwrap();
        let quorums = sys.enumerate(16).unwrap();
        let clients = all_clients(&net);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
        let model = ResponseModel::network_delay_only();
        for weights in [vec![1.0; 3], vec![-1.0, 1.0, 1.0, 1.0], vec![0.0; 4]] {
            assert!(matches!(
                evaluate_matrix_placed_weighted(&pq, &strategy, &weights, model),
                Err(CoreError::SizeMismatch { .. })
            ));
        }
    }

    #[test]
    fn evaluation_max_node_load() {
        let eval = Evaluation {
            avg_response_ms: 0.0,
            avg_network_delay_ms: 0.0,
            per_client_response_ms: vec![],
            per_client_delay_ms: vec![],
            node_loads: vec![0.25, 0.9, 0.1],
        };
        assert_eq!(eval.max_node_load(), 0.9);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_clients_panics() {
        let net = line4();
        let sys = QuorumSystem::grid(2).unwrap();
        let placement = Placement::new((0..4).map(NodeId::new).collect(), net.len()).unwrap();
        let _ = evaluate_closest(
            &net,
            &[],
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        );
    }
}
