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
//! 3. **Rounding.** The filtered support, as a bipartite graph between
//!    elements and nodes, is a forest. In the LP, column `x_{u,w}` has
//!    coefficient `load_p(u)` in node `w`'s capacity row, whatever `w`
//!    is, so the columns along any cycle of the support are linearly
//!    dependent: a basic optimum's support has no cycle, and filtering
//!    only removes edges. So all but at most `|support nodes| − 1`
//!    elements are integral, and a capacity-aware greedy pass assigns the
//!    leftovers to their cheapest surviving node with room (or the one
//!    with most slack). The result is the paper's
//!    "almost-capacity-respecting" placement: capacity can be exceeded,
//!    but only by a bounded factor.

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

    // ---- 1 and 2. Fractional LP, Lin–Vitter filtering. ----
    let (lp_objective, x) = filtered_lp(net, v0, weights, &effective_cap, config.epsilon)?;

    // ---- 3. Integralize the forest-shaped support. ----
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

/// Steps 1 and 2 of the pipeline: solves the placement LP for anchor
/// `v0` under capacities `cap(w)`, then Lin–Vitter-filters its optimum
/// with parameter `eps`. Returns the LP objective and the filtered
/// fractions `x[u][w]`: each element's row sums to 1, and the support is
/// a forest (see the module doc).
fn filtered_lp(
    net: &Network,
    v0: NodeId,
    weights: &[f64],
    cap: &dyn Fn(usize) -> f64,
    eps: f64,
) -> Result<(f64, Vec<Vec<f64>>), CoreError> {
    let (model, vars) = placement_lp(net, v0, weights, cap);
    let sol = model.solve()?;
    let mut x: Vec<Vec<f64>> = vars
        .iter()
        .map(|row| row.iter().map(|&v| sol.value(v).max(0.0)).collect())
        .collect();
    assert!(eps > 0.0, "ε must be positive");
    for row in &mut x {
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
    }
    Ok((sol.objective(), x))
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

    /// Over seeded random instances (zero and positive weights, finite,
    /// infinite and mixed capacities, slack 1 and 2), every filtered row
    /// sums to 1 and the support is a forest: as a graph on the elements
    /// and the nodes it touches, its edge count is its vertex count minus
    /// its component count.
    #[test]
    fn filtered_support_is_a_forest() {
        fn root(parent: &mut [usize], mut a: usize) -> usize {
            while parent[a] != a {
                parent[a] = parent[parent[a]];
                a = parent[a];
            }
            a
        }
        let tol = ManyToOneConfig::default().support_tol;
        let mut solved = 0;
        for seed in 0..48u64 {
            let h = |k: usize| qp_par::job_seed(0xf0_2e57 + seed, k);
            let frac = |k: usize| (h(k) >> 11) as f64 / (1u64 << 53) as f64;
            let v_count = 5 + (h(0) % 12) as usize;
            let n = 3 + (h(1) % 10) as usize;
            let net = datasets::euclidean_random(v_count, 100.0, seed);
            let weights: Vec<f64> = (0..n)
                .map(|u| {
                    if h(10 + u) % 4 == 0 {
                        0.0
                    } else {
                        0.05 + frac(10 + u)
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            // Uniform capacity with 10–100% headroom over the total load.
            let c = total * (1.1 + 0.9 * frac(2)) / v_count as f64;
            let slack = [1.0, 2.0][(h(3) % 2) as usize];
            let cap = |w: usize| -> f64 {
                match seed % 3 {
                    0 => f64::INFINITY,
                    1 => c * slack,
                    _ if h(100 + w) % 3 == 0 => f64::INFINITY,
                    _ => 0.5 * c * slack,
                }
            };
            let v0 = NodeId::new((h(4) % v_count as u64) as usize);
            let (_, x) = match filtered_lp(&net, v0, &weights, &cap, 1.0) {
                Ok(out) => out,
                Err(CoreError::Infeasible) => continue,
                Err(e) => panic!("seed {seed}: {e}"),
            };
            solved += 1;
            let mut parent: Vec<usize> = (0..n + v_count).collect();
            let mut touched = vec![false; n + v_count];
            let mut edges = 0;
            for (u, row) in x.iter().enumerate() {
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - 1.0).abs() <= 1e-9,
                    "seed {seed}: element {u} sums to {sum}"
                );
                for (w, &f) in row.iter().enumerate() {
                    if f > tol {
                        edges += 1;
                        touched[u] = true;
                        touched[n + w] = true;
                        let (a, b) = (root(&mut parent, u), root(&mut parent, n + w));
                        parent[a] = b;
                    }
                }
            }
            let vertices = touched.iter().filter(|&&t| t).count();
            let components = (0..n + v_count)
                .filter(|&a| touched[a] && root(&mut parent, a) == a)
                .count();
            assert_eq!(
                edges,
                vertices - components,
                "seed {seed}: support has a cycle"
            );
        }
        assert!(solved >= 40, "only {solved} of 48 instances were feasible");
    }
}
