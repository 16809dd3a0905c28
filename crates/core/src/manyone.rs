//! Many-to-one placements (§4.1.2): the LP → Lin–Vitter filtering →
//! GAP-style rounding pipeline, and the best-anchor search.
//!
//! Many-to-one placements may co-locate several universe elements on one
//! node, shrinking quorums' physical footprints and hence network delay —
//! at the price of fault independence and load concentration. The paper's
//! algorithm (due to Gupta et al.) works per anchor client `v₀`:
//!
//! 1. **Fractional LP.** Variables `x_{u,w}` = fraction of element `u`
//!    placed on node `w`; minimize the load-weighted expected distance
//!    `Σ_u load_p(u) Σ_w x_{u,w} d(v₀, w)` subject to full assignment of
//!    every element and capacity `Σ_u load_p(u)·x_{u,w} ≤ cap(w)`.
//! 2. **Lin–Vitter filtering.** With parameter `ε`, zero out assignments
//!    with `d(v₀, w) > (1+ε)·D_u` (where `D_u` is `u`'s fractional expected
//!    distance) and renormalize. Every surviving assignment is provably
//!    within `(1+ε)` of `u`'s fractional distance; capacities inflate by at
//!    most `(1+ε)/ε`.
//! 3. **Rounding.** Cycle-cancelling on the bipartite support graph (cost
//!    never increases, element totals preserved) until the support is a
//!    forest — at which point all but at most `|support nodes| − 1`
//!    elements are integral — then a capacity-aware greedy pass assigns the
//!    leftovers to their cheapest surviving node with room (or the one with
//!    most slack). The result is the paper's "almost-capacity-respecting"
//!    placement: capacity can be exceeded, but only by a bounded factor.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use qp_lp::{Model, Sense, VarId};
use qp_quorum::Quorum;
use qp_topology::{Network, NodeId};

use crate::capacity::CapacityProfile;
use crate::CoreError;
use crate::Placement;

/// Tunables for the many-to-one pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ManyToOneConfig {
    /// Lin–Vitter filtering parameter `ε > 0`; larger values keep more of
    /// the fractional solution (weaker distance guarantee, milder capacity
    /// inflation). The classical choice `ε = 1` bounds surviving
    /// assignments by `2 D_u` and capacity inflation by `2`.
    pub epsilon: f64,
    /// Support-graph entries below this threshold are treated as zero.
    pub support_tol: f64,
    /// Multiplier (≥ 1) applied to capacities inside the placement LP and
    /// the rounding pass. The paper's algorithm is *almost*
    /// capacity-respecting — "the load can exceed the capacity only by a
    /// constant factor" — and exploits that slack to co-locate elements
    /// even at tight capacities. `1.0` (the default) keeps the pipeline
    /// strictly capacity-respecting; `2.0` reproduces the classical
    /// Shmoys–Tardos violation bound and the paper's Figure 8.9 behaviour.
    pub capacity_slack: f64,
}

impl Default for ManyToOneConfig {
    fn default() -> Self {
        ManyToOneConfig {
            epsilon: 1.0,
            support_tol: 1e-9,
            capacity_slack: 1.0,
        }
    }
}

/// A rounded many-to-one placement plus diagnostics from the pipeline.
#[derive(Debug, Clone)]
pub struct ManyToOneOutcome {
    /// The integral placement.
    pub placement: Placement,
    /// Objective value of the fractional LP (a lower bound on any
    /// capacity-respecting placement's load-weighted distance for `v₀`).
    pub lp_objective: f64,
    /// Load-weighted distance of the rounded placement for `v₀`.
    pub rounded_objective: f64,
    /// Largest ratio `load(w)/cap(w)` over capacitated nodes (1.0 means
    /// capacities hold exactly; the pipeline bounds this by a small
    /// constant).
    pub max_capacity_ratio: f64,
}

/// Element weights `load_p(u) = Σ_{Q ∋ u} p(Q)` induced by a global
/// strategy over an enumerated quorum list.
///
/// # Panics
///
/// Panics if `probs.len() != quorums.len()`.
pub fn element_weights(probs: &[f64], quorums: &[Quorum], universe: usize) -> Vec<f64> {
    assert_eq!(probs.len(), quorums.len(), "one probability per quorum");
    let mut w = vec![0.0; universe];
    for (q, &p) in quorums.iter().zip(probs) {
        if p > 0.0 {
            for u in q.iter() {
                w[u.index()] += p;
            }
        }
    }
    w
}

/// Runs the full pipeline for a single anchor client `v₀`.
///
/// `weights[u]` is the load of element `u` under the global access strategy
/// (see [`element_weights`]); `caps` are the target capacities.
///
/// # Errors
///
/// * [`CoreError::Infeasible`] if even the fractional LP has no solution
///   (total weight exceeds total capacity).
/// * [`CoreError::SizeMismatch`] on inconsistent inputs.
///
/// # Panics
///
/// Panics if `weights` is empty or contains a negative/NaN entry.
pub fn place_for_client(
    net: &Network,
    v0: NodeId,
    weights: &[f64],
    caps: &CapacityProfile,
    config: &ManyToOneConfig,
) -> Result<ManyToOneOutcome, CoreError> {
    assert!(!weights.is_empty(), "empty universe");
    assert!(
        weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        "weights must be nonnegative"
    );
    if caps.len() != net.len() {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "capacity profile covers {} nodes, network has {}",
                caps.len(),
                net.len()
            ),
        });
    }
    assert!(
        config.capacity_slack >= 1.0 && config.capacity_slack.is_finite(),
        "capacity slack must be at least 1"
    );
    let n = weights.len();
    let v_count = net.len();
    let effective_cap = |w: usize| caps.get(NodeId::new(w)) * config.capacity_slack;

    // ---- 1. Fractional LP. ----
    let (model, vars) = placement_lp(net, v0, weights, &effective_cap);
    let sol = model.solve()?;
    let lp_objective = sol.objective();
    let mut x: Vec<Vec<f64>> = vars
        .iter()
        .map(|row| row.iter().map(|&v| sol.value(v).max(0.0)).collect())
        .collect();

    // ---- 2. Lin–Vitter filtering. ----
    let eps = config.epsilon;
    assert!(eps > 0.0, "ε must be positive");
    for (u, row) in x.iter_mut().enumerate() {
        let du: f64 = row
            .iter()
            .enumerate()
            .map(|(w, &f)| f * net.distance(v0, NodeId::new(w)))
            .sum();
        let cutoff = (1.0 + eps) * du;
        let mut kept = 0.0;
        for (w, f) in row.iter_mut().enumerate() {
            // Keep zero-distance entries always (cutoff may be 0 when the
            // whole mass sits on v0 itself).
            if net.distance(v0, NodeId::new(w)) > cutoff + 1e-12 {
                *f = 0.0;
            } else {
                kept += *f;
            }
        }
        debug_assert!(kept > 0.0, "filtering must keep positive mass (Markov)");
        for f in row.iter_mut() {
            *f /= kept;
        }
        let _ = u;
    }

    // ---- 3a. Cycle cancelling to a forest. ----
    cancel_cycles(&mut x, net, v0, weights, config.support_tol);

    // ---- 3b. Integralize. ----
    let tol = config.support_tol;
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut residual_load = vec![0.0; v_count];
    let mut fractional: Vec<usize> = Vec::new();
    for u in 0..n {
        let support: Vec<usize> = (0..v_count).filter(|&w| x[u][w] > tol).collect();
        match support.len() {
            0 => {
                // Numerically lost mass: treat as free to place anywhere
                // cheap (cannot happen with a correct LP solution; guarded
                // for robustness).
                fractional.push(u);
            }
            1 => {
                assignment[u] = Some(support[0]);
                residual_load[support[0]] += weights[u];
            }
            _ => fractional.push(u),
        }
    }
    // Greedy pass over leftover fractional elements, heaviest first:
    // cheapest surviving node with room, else the node with the most slack.
    fractional.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite weights"));
    for u in fractional {
        let mut support: Vec<usize> = (0..v_count).filter(|&w| x[u][w] > tol).collect();
        if support.is_empty() {
            support = (0..v_count).collect();
        }
        support.sort_by(|&a, &b| {
            net.distance(v0, NodeId::new(a))
                .partial_cmp(&net.distance(v0, NodeId::new(b)))
                .expect("finite distances")
        });
        let fits = support
            .iter()
            .copied()
            .find(|&w| residual_load[w] + weights[u] <= effective_cap(w) + 1e-12);
        // If the filtered support is full, prefer any node with room (by
        // distance) over violating a capacity — then fall back to the
        // support node with the most slack (the bounded-violation case).
        let chosen = fits
            .or_else(|| {
                let mut all: Vec<usize> = (0..v_count).collect();
                all.sort_by(|&a, &b| {
                    net.distance(v0, NodeId::new(a))
                        .partial_cmp(&net.distance(v0, NodeId::new(b)))
                        .expect("finite distances")
                });
                all.into_iter()
                    .find(|&w| residual_load[w] + weights[u] <= effective_cap(w) + 1e-12)
            })
            .unwrap_or_else(|| {
                support
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        let slack_a = effective_cap(a) - residual_load[a];
                        let slack_b = effective_cap(b) - residual_load[b];
                        slack_a.partial_cmp(&slack_b).expect("finite slack")
                    })
                    .expect("support nonempty")
            });
        assignment[u] = Some(chosen);
        residual_load[chosen] += weights[u];
    }

    let hosts: Vec<NodeId> = assignment
        .into_iter()
        .map(|a| NodeId::new(a.expect("all elements assigned")))
        .collect();
    let placement = Placement::new(hosts, net.len())?;

    let rounded_objective: f64 = placement
        .as_slice()
        .iter()
        .enumerate()
        .map(|(u, &w)| weights[u] * net.distance(v0, w))
        .sum();
    let node_loads = placement.node_loads(weights);
    let max_capacity_ratio = (0..v_count)
        .filter(|&w| !caps.is_unbounded(NodeId::new(w)) && caps.get(NodeId::new(w)) > 0.0)
        .map(|w| node_loads[w] / caps.get(NodeId::new(w)))
        .fold(0.0, f64::max);

    Ok(ManyToOneOutcome {
        placement,
        lp_objective,
        rounded_objective,
        max_capacity_ratio,
    })
}

/// Step 1 of the pipeline: the fractional placement LP for anchor `v0`,
/// with `vars[u][w]` the fraction of element `u` placed on node `w` and
/// `cap(w)` node `w`'s capacity (rows are skipped for infinite ones).
fn placement_lp(
    net: &Network,
    v0: NodeId,
    weights: &[f64],
    cap: &dyn Fn(usize) -> f64,
) -> (Model, Vec<Vec<VarId>>) {
    let n = weights.len();
    let v_count = net.len();
    let mut model = Model::new(Sense::Minimize);
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(n);
    for u in 0..n {
        let mut row = Vec::with_capacity(v_count);
        for w in 0..v_count {
            let d = net.distance(v0, NodeId::new(w));
            row.push(model.add_var(&format!("x_{u}_{w}"), 0.0, f64::INFINITY, weights[u] * d));
        }
        vars.push(row);
    }
    for row in &vars {
        let terms: Vec<_> = row.iter().map(|&x| (x, 1.0)).collect();
        model.add_eq(&terms, 1.0);
    }
    for w in 0..v_count {
        let cap = cap(w);
        if cap.is_infinite() {
            continue;
        }
        let terms: Vec<_> = (0..n)
            .filter(|&u| weights[u] > 0.0)
            .map(|u| (vars[u][w], weights[u]))
            .collect();
        if !terms.is_empty() {
            model.add_le(&terms, cap);
        }
    }
    (model, vars)
}

/// Removes all cycles from the bipartite support graph of `x` by pushing
/// flow around each cycle in the non-cost-increasing direction until an
/// edge hits zero. Preserves each element's total (= 1) exactly.
fn cancel_cycles(x: &mut [Vec<f64>], net: &Network, v0: NodeId, weights: &[f64], tol: f64) {
    let n = x.len();
    let v_count = net.len();
    loop {
        let Some(cycle) = find_cycle(x, n, v_count, tol) else {
            return;
        };
        // cycle: sequence of (element, node) edges alternating direction:
        // +e0, -e1, +e2, … (even length).
        let mut dcost = 0.0;
        for (idx, &(u, w)) in cycle.iter().enumerate() {
            let sign = if idx % 2 == 0 { 1.0 } else { -1.0 };
            dcost += sign * weights[u] * net.distance(v0, NodeId::new(w));
        }
        // Push in the direction that does not increase cost.
        let dir = if dcost <= 0.0 { 1.0 } else { -1.0 };
        // θ = min flow over edges that lose mass.
        let mut theta = f64::INFINITY;
        for (idx, &(u, w)) in cycle.iter().enumerate() {
            let sign = if idx % 2 == 0 { dir } else { -dir };
            if sign < 0.0 {
                theta = theta.min(x[u][w]);
            }
        }
        debug_assert!(theta.is_finite() && theta >= 0.0);
        for (idx, &(u, w)) in cycle.iter().enumerate() {
            let sign = if idx % 2 == 0 { dir } else { -dir };
            x[u][w] += sign * theta;
            if x[u][w] < tol {
                x[u][w] = 0.0;
            }
        }
    }
}

/// Finds one cycle in the bipartite support graph, returned as an even-
/// length edge sequence `(element, node)` tracing the cycle. `None` if the
/// support is a forest.
fn find_cycle(x: &[Vec<f64>], n: usize, v_count: usize, tol: f64) -> Option<Vec<(usize, usize)>> {
    // Vertices: 0..n are elements, n..n+v_count are nodes.
    let total = n + v_count;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (u, row) in x.iter().enumerate() {
        for (w, &f) in row.iter().enumerate() {
            if f > tol {
                adj[u].push(n + w);
                adj[n + w].push(u);
            }
        }
    }
    let mut state = vec![0u8; total]; // 0 unseen, 1 on stack, 2 done
    let mut parent = vec![usize::MAX; total];
    for start in 0..total {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS.
        let mut stack = vec![(start, usize::MAX, 0usize)];
        state[start] = 1;
        while let Some(&mut (v, from, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let to = adj[v][*next];
                *next += 1;
                if to == from {
                    // Skip the tree edge back to the parent once (parallel
                    // edges cannot occur in this bipartite support graph).
                    continue;
                }
                if state[to] == 1 {
                    // Found a cycle: unwind from v back to `to`.
                    let mut cycle_vertices = vec![to, v];
                    let mut cur = v;
                    while parent[cur] != to {
                        cur = parent[cur];
                        cycle_vertices.insert(1, cur);
                    }
                    // cycle_vertices: to, …, v (path), and edge v–to closes
                    // it. Convert vertex cycle to (element, node) edges.
                    let mut edges = Vec::with_capacity(cycle_vertices.len());
                    for i in 0..cycle_vertices.len() {
                        let a = cycle_vertices[i];
                        let b = cycle_vertices[(i + 1) % cycle_vertices.len()];
                        let (u, w) = if a < n { (a, b - n) } else { (b, a - n) };
                        edges.push((u, w));
                    }
                    return Some(edges);
                }
                if state[to] == 0 {
                    state[to] = 1;
                    parent[to] = v;
                    stack.push((to, v, 0));
                }
            } else {
                state[v] = 2;
                stack.pop();
            }
        }
    }
    None
}

/// Best many-to-one placement across all anchors: runs
/// [`place_for_client`] for every `v₀ ∈ V` and keeps the placement with the
/// lowest average (over all clients) expected network delay under the
/// given global strategy.
///
/// # Errors
///
/// Returns the first hard error; anchors whose LP is infeasible are
/// skipped, and [`CoreError::Infeasible`] is returned only if every anchor
/// fails.
pub fn best_placement(
    net: &Network,
    quorums: &[Quorum],
    probs: &[f64],
    caps: &CapacityProfile,
    config: &ManyToOneConfig,
) -> Result<ManyToOneOutcome, CoreError> {
    let universe = quorums
        .iter()
        .flat_map(|q| q.iter())
        .map(|u| u.index() + 1)
        .max()
        .unwrap_or(0);
    if universe == 0 {
        return Err(CoreError::SizeMismatch {
            reason: "no quorums".to_string(),
        });
    }
    let weights = element_weights(probs, quorums, universe);
    let clients: Vec<NodeId> = net.nodes().collect();
    let mut best: Option<(f64, ManyToOneOutcome)> = None;
    for v0 in net.nodes() {
        let outcome = match place_for_client(net, v0, &weights, caps, config) {
            Ok(o) => o,
            Err(CoreError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        // Score: average expected network delay over all clients under the
        // global strategy.
        let mut total = 0.0;
        for &v in &clients {
            for (q, &p) in quorums.iter().zip(probs) {
                if p > 0.0 {
                    let d = q
                        .iter()
                        .map(|u| net.distance(v, outcome.placement.node_of(u)))
                        .fold(f64::MIN, f64::max);
                    total += p * d;
                }
            }
        }
        let score = total / clients.len() as f64;
        match &best {
            Some((s, _)) if *s <= score => {}
            _ => best = Some((score, outcome)),
        }
    }
    best.map(|(_, o)| o).ok_or(CoreError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_quorum::QuorumSystem;
    use qp_topology::datasets;

    fn uniform_probs(m: usize) -> Vec<f64> {
        vec![1.0 / m as f64; m]
    }

    #[test]
    fn element_weights_grid_uniform() {
        let g = QuorumSystem::grid(3).unwrap();
        let quorums = g.enumerate(100).unwrap();
        let w = element_weights(&uniform_probs(quorums.len()), &quorums, 9);
        for wi in w {
            assert!((wi - 5.0 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn unbounded_capacity_collapses_to_anchor() {
        // With no capacities, the cheapest placement for v0 puts everything
        // on v0 itself (distance 0).
        let net = datasets::euclidean_random(10, 100.0, 1);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let weights = element_weights(&uniform_probs(4), &quorums, 4);
        let caps = CapacityProfile::unbounded(net.len());
        let v0 = NodeId::new(3);
        let out = place_for_client(&net, v0, &weights, &caps, &ManyToOneConfig::default()).unwrap();
        assert_eq!(out.placement.support_set(), vec![v0]);
        assert!(out.rounded_objective.abs() < 1e-9);
        assert!(out.lp_objective.abs() < 1e-9);
    }

    #[test]
    fn tight_capacity_spreads_elements() {
        let net = datasets::euclidean_random(10, 100.0, 2);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let weights = element_weights(&uniform_probs(4), &quorums, 4);
        // Per-element weight is 3/4; capacity 0.8 forces one element per
        // node.
        let caps = CapacityProfile::uniform(net.len(), 0.8);
        let out = place_for_client(
            &net,
            NodeId::new(0),
            &weights,
            &caps,
            &ManyToOneConfig::default(),
        )
        .unwrap();
        assert_eq!(out.placement.support_set().len(), 4);
        // Capacity ratio stays below the pipeline's constant.
        assert!(out.max_capacity_ratio <= 2.0 + 1e-9);
    }

    #[test]
    fn infeasible_when_total_capacity_too_small() {
        let net = datasets::euclidean_random(4, 50.0, 3);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let weights = element_weights(&uniform_probs(4), &quorums, 4);
        // Total weight 3 ≫ total capacity 0.4.
        let caps = CapacityProfile::uniform(net.len(), 0.1);
        let err = place_for_client(
            &net,
            NodeId::new(0),
            &weights,
            &caps,
            &ManyToOneConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CoreError::Infeasible);
    }

    #[test]
    fn rounded_cost_close_to_lp() {
        // With ε = 1, each element's assignment distance ≤ 2 · fractional
        // distance, so the rounded objective ≤ 2 · LP + slack from the
        // greedy pass. Empirically it is far closer; assert the hard bound.
        let net = datasets::euclidean_random(12, 100.0, 5);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let weights = element_weights(&uniform_probs(4), &quorums, 4);
        let caps = CapacityProfile::uniform(net.len(), 0.8);
        for v0 in 0..4 {
            let out = place_for_client(
                &net,
                NodeId::new(v0),
                &weights,
                &caps,
                &ManyToOneConfig::default(),
            )
            .unwrap();
            assert!(
                out.rounded_objective <= 2.0 * out.lp_objective + 1e-6,
                "rounded {} vs lp {}",
                out.rounded_objective,
                out.lp_objective
            );
        }
    }

    #[test]
    fn placement_lp_solutions_certify() {
        let net = datasets::euclidean_random(12, 100.0, 5);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let weights = element_weights(&uniform_probs(4), &quorums, 4);
        for cap in [0.8, f64::INFINITY] {
            for v0 in 0..4 {
                let (model, _) = placement_lp(&net, NodeId::new(v0), &weights, &|_| cap);
                model.solve().unwrap().certify(&model).unwrap();
            }
        }
    }

    #[test]
    fn best_placement_improves_on_worst_anchor() {
        let net = datasets::euclidean_random(12, 100.0, 8);
        let g = QuorumSystem::grid(2).unwrap();
        let quorums = g.enumerate(16).unwrap();
        let probs = uniform_probs(4);
        let caps = CapacityProfile::uniform(net.len(), 0.9);
        let best =
            best_placement(&net, &quorums, &probs, &caps, &ManyToOneConfig::default()).unwrap();
        assert_eq!(best.placement.universe_size(), 4);
    }

    #[test]
    fn cycle_cancelling_preserves_element_totals() {
        // Hand-built fractional solution with a cycle:
        // u0: ½ on w0, ½ on w1; u1: ½ on w0, ½ on w1.
        let net = datasets::euclidean_random(2, 10.0, 0);
        let mut x = vec![vec![0.5, 0.5], vec![0.5, 0.5]];
        cancel_cycles(&mut x, &net, NodeId::new(0), &[1.0, 1.0], 1e-9);
        for row in &x {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Forest now: at most n + |V| − 1 = 3 support edges.
        let edges: usize = x
            .iter()
            .map(|row| row.iter().filter(|&&f| f > 1e-9).count())
            .sum();
        assert!(edges <= 3);
    }
}
