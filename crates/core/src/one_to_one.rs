//! One-to-one placements (§4.1.1): the optimal single-client constructions
//! for Majority and Grid systems, and the best-anchor search over all
//! clients.
//!
//! One-to-one placements put every universe element on a distinct node,
//! preserving the fault tolerance of the original quorum system — the
//! setting of the paper's §6 evaluation.

use qp_par::ParPool;
use qp_quorum::QuorumSystem;
use qp_topology::{Network, NodeId};

use crate::capacity::CapacityProfile;
use crate::eval::EvalContext;
use crate::response::{evaluate_balanced, evaluate_closest, ResponseModel};
use crate::{CoreError, Placement};

/// How candidate placements are scored during the best-anchor search.
///
/// Gupta et al.'s constructions are single-client optimal; to serve *all*
/// clients, the search tries every node as the anchor client `v₀` and keeps
/// the placement with the lowest average network delay — measured under the
/// access strategy the deployment will actually use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionObjective {
    /// Average network delay when every client uses its closest quorum
    /// (the §6 regime). This is the default.
    #[default]
    ClosestDelay,
    /// Average network delay under the balanced (uniform) strategy
    /// (the regime of the §3 Q/U experiments).
    BalancedDelay,
}

/// A named placement construction — the pipeline-facing selector used by
/// scenario specs and other declarative front ends to pick how a quorum
/// system is deployed without hard-coding a function call.
///
/// # Examples
///
/// ```
/// use qp_core::one_to_one::PlacementAlgorithm;
/// use qp_quorum::QuorumSystem;
/// use qp_topology::datasets;
///
/// let net = datasets::euclidean_random(12, 100.0, 3);
/// let sys = QuorumSystem::grid(2)?;
/// let p = PlacementAlgorithm::BestClosest.compute(&net, &sys)?;
/// assert!(p.is_one_to_one());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementAlgorithm {
    /// [`best_placement`]: best-anchor search scored by closest-quorum
    /// delay (the §6 default).
    #[default]
    BestClosest,
    /// [`best_placement_by`] with [`SelectionObjective::BalancedDelay`]
    /// (the §3 regime).
    BestBalanced,
    /// [`grid_shell_placement`] anchored at a fixed node; Grid systems
    /// only.
    GridShell {
        /// The anchor client `v₀`.
        anchor: usize,
    },
    /// [`ball_placement`] anchored at a fixed node.
    Ball {
        /// The anchor client `v₀`.
        anchor: usize,
    },
}

impl PlacementAlgorithm {
    /// Runs the selected construction for `system` on `net`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if the universe does not fit the
    /// network, an anchor is out of range, or
    /// [`GridShell`](PlacementAlgorithm::GridShell) is requested for a
    /// non-Grid system.
    pub fn compute(&self, net: &Network, system: &QuorumSystem) -> Result<Placement, CoreError> {
        let check_anchor = |anchor: usize| -> Result<NodeId, CoreError> {
            if anchor >= net.len() {
                return Err(CoreError::SizeMismatch {
                    reason: format!(
                        "anchor {anchor} out of range for a {}-site network",
                        net.len()
                    ),
                });
            }
            Ok(NodeId::new(anchor))
        };
        match *self {
            PlacementAlgorithm::BestClosest => best_placement(net, system),
            PlacementAlgorithm::BestBalanced => {
                best_placement_by(net, system, SelectionObjective::BalancedDelay)
            }
            PlacementAlgorithm::GridShell { anchor } => {
                let k = system.as_grid().ok_or_else(|| CoreError::SizeMismatch {
                    reason: "shell placement requires a Grid system".to_string(),
                })?;
                grid_shell_placement(net, check_anchor(anchor)?, k)
            }
            PlacementAlgorithm::Ball { anchor } => {
                ball_placement(net, check_anchor(anchor)?, system.universe_size())
            }
        }
    }
}

/// The Majority ball placement for anchor `v₀`: an arbitrary (here:
/// distance-ordered) one-to-one mapping of the `n` universe elements onto
/// `B(v₀, n)`, the `n` nodes closest to `v₀`.
///
/// Gupta et al. show every one-to-one placement onto a fixed node set has
/// the same average delay for a single client using the uniform strategy,
/// so the mapping order is immaterial; distance order keeps it
/// deterministic.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if `n` exceeds the network size.
pub fn ball_placement(net: &Network, v0: NodeId, n: usize) -> Result<Placement, CoreError> {
    ball_nodes_placement(net.len(), v0, n, |v, m| net.ball(v, m))
}

/// [`ball_placement`] served from an [`EvalContext`]'s cached distance
/// permutations — identical output, `O(n)` per call instead of a sort.
///
/// # Errors
///
/// As for [`ball_placement`].
pub fn ball_placement_ctx(
    ctx: &EvalContext<'_>,
    v0: NodeId,
    n: usize,
) -> Result<Placement, CoreError> {
    ball_nodes_placement(ctx.net().len(), v0, n, |v, m| ctx.ball(v, m))
}

fn ball_nodes_placement(
    num_nodes: usize,
    v0: NodeId,
    n: usize,
    ball: impl Fn(NodeId, usize) -> Vec<NodeId>,
) -> Result<Placement, CoreError> {
    if n > num_nodes {
        return Err(CoreError::SizeMismatch {
            reason: format!("universe of {n} exceeds network of {num_nodes}"),
        });
    }
    if n == 0 {
        return Err(CoreError::SizeMismatch {
            reason: "empty universe".to_string(),
        });
    }
    Ok(Placement::new(ball(v0, n), num_nodes).expect("ball nodes are in range"))
}

/// Capacity-aware variant of [`ball_placement`]: uses the `n` closest nodes
/// whose capacity is at least `required_load` (the per-element load the
/// access strategy will induce, a constant for Majorities under uniform
/// access).
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if fewer than `n` nodes have sufficient
/// capacity.
pub fn ball_placement_capacitated(
    net: &Network,
    v0: NodeId,
    n: usize,
    caps: &CapacityProfile,
    required_load: f64,
) -> Result<Placement, CoreError> {
    let eligible: Vec<NodeId> = net
        .ball(v0, net.len())
        .into_iter()
        .filter(|&v| caps.get(v) >= required_load)
        .take(n)
        .collect();
    if eligible.len() < n {
        return Err(CoreError::SizeMismatch {
            reason: format!(
                "only {} nodes have capacity ≥ {required_load}, need {n}",
                eligible.len()
            ),
        });
    }
    Placement::new(eligible, net.len())
}

/// The Grid sorted-shell placement for anchor `v₀` (§4.1.1).
///
/// Let `d₁ ≥ d₂ ≥ … ≥ d_{k²}` be the distances from the nodes of
/// `B(v₀, k²)` to `v₀` in decreasing order. The farthest `ℓ²` nodes fill
/// the top-left `ℓ × ℓ` square; the next `ℓ` fill column `ℓ+1` (rows
/// `1…ℓ`), the next `ℓ+1` fill row `ℓ+1` — completing the `(ℓ+1) × (ℓ+1)`
/// square — and so on inductively. The closest `2k−1` nodes therefore land
/// on the last row and column, whose union is exactly the cheapest quorum
/// for `v₀`, which is optimal: every grid quorum has `2k−1` distinct cells,
/// so its delay is at least the `(2k−1)`-th smallest distance.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if `k² > |V|` or `k = 0`.
pub fn grid_shell_placement(net: &Network, v0: NodeId, k: usize) -> Result<Placement, CoreError> {
    grid_shell_from_ball(net.len(), v0, k, |v, m| net.ball(v, m))
}

/// [`grid_shell_placement`] served from an [`EvalContext`]'s cached
/// distance permutations — identical output.
///
/// # Errors
///
/// As for [`grid_shell_placement`].
pub fn grid_shell_placement_ctx(
    ctx: &EvalContext<'_>,
    v0: NodeId,
    k: usize,
) -> Result<Placement, CoreError> {
    grid_shell_from_ball(ctx.net().len(), v0, k, |v, m| ctx.ball(v, m))
}

fn grid_shell_from_ball(
    num_nodes: usize,
    v0: NodeId,
    k: usize,
    ball: impl Fn(NodeId, usize) -> Vec<NodeId>,
) -> Result<Placement, CoreError> {
    if k == 0 {
        return Err(CoreError::SizeMismatch {
            reason: "k = 0".to_string(),
        });
    }
    let n = k * k;
    if n > num_nodes {
        return Err(CoreError::SizeMismatch {
            reason: format!("{k}×{k} grid needs {n} nodes, network has {num_nodes}"),
        });
    }
    // Ball nodes, then reverse to decreasing distance from v0.
    let mut nodes = ball(v0, n);
    nodes.reverse();

    // Cell order: shell ℓ = 0 is (0,0); shell ℓ > 0 is column ℓ (rows
    // 0…ℓ−1) then row ℓ (columns 0…ℓ). Farthest nodes take the earliest
    // cells.
    let mut cell_order = Vec::with_capacity(n);
    cell_order.push((0usize, 0usize));
    for l in 1..k {
        for r in 0..l {
            cell_order.push((r, l));
        }
        for c in 0..=l {
            cell_order.push((l, c));
        }
    }
    debug_assert_eq!(cell_order.len(), n);

    let mut assignment = vec![NodeId::new(0); n];
    for (node, &(r, c)) in nodes.iter().zip(&cell_order) {
        assignment[r * k + c] = *node;
    }
    Placement::new(assignment, num_nodes)
}

/// The single-anchor one-to-one placement appropriate for `system`:
/// [`ball_placement`] for Majorities (and explicit systems, as a documented
/// fallback), [`grid_shell_placement`] for Grids.
///
/// # Errors
///
/// Propagates the construction errors of the underlying placement.
pub fn placement_for(
    net: &Network,
    v0: NodeId,
    system: &QuorumSystem,
) -> Result<Placement, CoreError> {
    if let Some(k) = system.as_grid() {
        grid_shell_placement(net, v0, k)
    } else {
        ball_placement(net, v0, system.universe_size())
    }
}

/// [`placement_for`] served from an [`EvalContext`]'s cached distance
/// permutations.
///
/// # Errors
///
/// As for [`placement_for`].
pub fn placement_for_ctx(
    ctx: &EvalContext<'_>,
    v0: NodeId,
    system: &QuorumSystem,
) -> Result<Placement, CoreError> {
    if let Some(k) = system.as_grid() {
        grid_shell_placement_ctx(ctx, v0, k)
    } else {
        ball_placement_ctx(ctx, v0, system.universe_size())
    }
}

/// Best one-to-one placement across all anchors, scored by
/// [`SelectionObjective::ClosestDelay`].
///
/// # Errors
///
/// Propagates construction and evaluation errors.
pub fn best_placement(net: &Network, system: &QuorumSystem) -> Result<Placement, CoreError> {
    best_placement_by(net, system, SelectionObjective::ClosestDelay)
}

/// [`best_placement`] against an [`EvalContext`] (clients = the
/// context's client set).
///
/// # Errors
///
/// Propagates construction and evaluation errors.
pub fn best_placement_ctx(
    ctx: &EvalContext<'_>,
    system: &QuorumSystem,
) -> Result<Placement, CoreError> {
    best_placement_by_ctx(ctx, system, SelectionObjective::ClosestDelay)
}

/// Best one-to-one placement across all anchors under an explicit
/// objective: for every `v₀ ∈ V`, build the single-client-optimal placement
/// and keep the one minimizing the average network delay over **all** nodes
/// as clients (§4.1.1's constant-factor recipe).
///
/// # Errors
///
/// Propagates construction and evaluation errors.
pub fn best_placement_by(
    net: &Network,
    system: &QuorumSystem,
    objective: SelectionObjective,
) -> Result<Placement, CoreError> {
    let clients: Vec<NodeId> = net.nodes().collect();
    let ctx = EvalContext::new(net, &clients);
    best_placement_by_ctx(&ctx, system, objective)
}

/// [`best_placement_by`] against an [`EvalContext`]: anchors are scored
/// **in parallel** on the global [`ParPool`] (each anchor's
/// construction + evaluation is independent), and the winner is reduced
/// in anchor order with the exact first-strict-minimum rule of the
/// serial search — so the result is identical for any thread count.
///
/// The context's cached distance permutations also make each anchor's
/// ball/shell construction `O(n)` instead of `O(n log n)`.
///
/// # Errors
///
/// Propagates construction and evaluation errors (the error of the
/// lowest-indexed failing anchor, as in the serial search).
pub fn best_placement_by_ctx(
    ctx: &EvalContext<'_>,
    system: &QuorumSystem,
    objective: SelectionObjective,
) -> Result<Placement, CoreError> {
    let anchors: Vec<NodeId> = ctx.net().nodes().collect();
    let model = ResponseModel::network_delay_only();
    let scored: Vec<Result<(f64, Placement), CoreError>> =
        ParPool::global().run(anchors.len(), |i| {
            let placement = placement_for_ctx(ctx, anchors[i], system)?;
            let delay = match objective {
                SelectionObjective::ClosestDelay => {
                    evaluate_closest(ctx.net(), ctx.clients(), system, &placement, model)?
                        .avg_network_delay_ms
                }
                SelectionObjective::BalancedDelay => {
                    evaluate_balanced(ctx.net(), ctx.clients(), system, &placement, model)?
                        .avg_network_delay_ms
                }
            };
            Ok((delay, placement))
        });
    let mut best: Option<(f64, Placement)> = None;
    for outcome in scored {
        let (delay, placement) = outcome?;
        match &best {
            Some((d, _)) if *d <= delay => {}
            _ => best = Some((delay, placement)),
        }
    }
    Ok(best.expect("network is nonempty").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::evaluate_closest;
    use qp_quorum::MajorityKind;
    use qp_topology::datasets;

    #[test]
    fn ball_placement_is_one_to_one_and_near_v0() {
        let net = datasets::planetlab_50();
        let v0 = NodeId::new(7);
        let p = ball_placement(&net, v0, 9).unwrap();
        assert!(p.is_one_to_one());
        assert_eq!(p.universe_size(), 9);
        // Support = the 9 closest nodes to v0.
        let mut expected = net.ball(v0, 9);
        expected.sort_unstable();
        assert_eq!(p.support_set(), expected);
    }

    #[test]
    fn ball_placement_size_check() {
        let net = datasets::euclidean_random(5, 10.0, 0);
        assert!(ball_placement(&net, NodeId::new(0), 6).is_err());
        assert!(ball_placement(&net, NodeId::new(0), 0).is_err());
    }

    #[test]
    fn capacitated_ball_skips_small_nodes() {
        let net = datasets::euclidean_random(6, 10.0, 1);
        let mut caps = vec![1.0; 6];
        // Disqualify the two nodes closest to v0.
        let ball = net.ball(NodeId::new(0), 6);
        caps[ball[0].index()] = 0.1;
        caps[ball[1].index()] = 0.1;
        let profile = CapacityProfile::from_values(caps);
        let p = ball_placement_capacitated(&net, NodeId::new(0), 4, &profile, 0.5).unwrap();
        assert!(p.is_one_to_one());
        assert!(!p.support_set().contains(&ball[0]));
        assert!(!p.support_set().contains(&ball[1]));
        // Asking for more nodes than have capacity fails.
        assert!(ball_placement_capacitated(&net, NodeId::new(0), 5, &profile, 0.5).is_err());
    }

    #[test]
    fn grid_shell_last_row_col_are_closest() {
        let net = datasets::planetlab_50();
        let v0 = NodeId::new(3);
        let k = 4;
        let p = grid_shell_placement(&net, v0, k).unwrap();
        assert!(p.is_one_to_one());
        // The union of the last row and last column must be exactly the
        // 2k−1 closest nodes of the ball.
        let ball = net.ball(v0, k * k);
        let closest: std::collections::BTreeSet<NodeId> =
            ball[..2 * k - 1].iter().copied().collect();
        let mut last_rc = std::collections::BTreeSet::new();
        for c in 0..k {
            last_rc.insert(p.as_slice()[(k - 1) * k + c]);
        }
        for r in 0..k {
            last_rc.insert(p.as_slice()[r * k + (k - 1)]);
        }
        assert_eq!(last_rc, closest);
    }

    #[test]
    fn grid_shell_single_client_optimality() {
        // For the anchor itself, the closest-quorum delay must equal the
        // (2k−1)-th smallest distance — the information-theoretic optimum.
        let net = datasets::planetlab_50();
        let v0 = NodeId::new(11);
        let k = 5;
        let sys = QuorumSystem::grid(k).unwrap();
        let p = grid_shell_placement(&net, v0, k).unwrap();
        let eval =
            evaluate_closest(&net, &[v0], &sys, &p, ResponseModel::network_delay_only()).unwrap();
        let ball = net.ball(v0, k * k);
        let opt = net.distance(v0, ball[2 * k - 2]);
        assert!(
            (eval.avg_network_delay_ms - opt).abs() < 1e-9,
            "shell placement delay {} vs optimal {}",
            eval.avg_network_delay_ms,
            opt
        );
    }

    #[test]
    fn grid_shell_size_checks() {
        let net = datasets::euclidean_random(8, 10.0, 2);
        assert!(grid_shell_placement(&net, NodeId::new(0), 3).is_err());
        assert!(grid_shell_placement(&net, NodeId::new(0), 0).is_err());
        assert!(grid_shell_placement(&net, NodeId::new(0), 2).is_ok());
    }

    #[test]
    fn best_placement_not_worse_than_median_anchor() {
        let net = datasets::euclidean_random(20, 100.0, 4);
        let sys = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        let clients: Vec<NodeId> = net.nodes().collect();
        let best = best_placement(&net, &sys).unwrap();
        let best_delay = evaluate_closest(
            &net,
            &clients,
            &sys,
            &best,
            ResponseModel::network_delay_only(),
        )
        .unwrap()
        .avg_network_delay_ms;
        for v0 in net.nodes() {
            let p = ball_placement(&net, v0, 5).unwrap();
            let d = evaluate_closest(
                &net,
                &clients,
                &sys,
                &p,
                ResponseModel::network_delay_only(),
            )
            .unwrap()
            .avg_network_delay_ms;
            assert!(best_delay <= d + 1e-9);
        }
    }

    #[test]
    fn best_placement_balanced_objective() {
        let net = datasets::euclidean_random(12, 50.0, 9);
        let sys = QuorumSystem::grid(3).unwrap();
        let p = best_placement_by(&net, &sys, SelectionObjective::BalancedDelay).unwrap();
        assert!(p.is_one_to_one());
        assert_eq!(p.universe_size(), 9);
    }

    #[test]
    fn placement_algorithm_dispatches_and_validates() {
        let net = datasets::euclidean_random(12, 50.0, 9);
        let grid = QuorumSystem::grid(3).unwrap();
        let maj = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        assert_eq!(
            PlacementAlgorithm::BestClosest
                .compute(&net, &grid)
                .unwrap(),
            best_placement(&net, &grid).unwrap()
        );
        assert_eq!(
            PlacementAlgorithm::BestBalanced
                .compute(&net, &grid)
                .unwrap(),
            best_placement_by(&net, &grid, SelectionObjective::BalancedDelay).unwrap()
        );
        assert_eq!(
            PlacementAlgorithm::GridShell { anchor: 2 }
                .compute(&net, &grid)
                .unwrap(),
            grid_shell_placement(&net, NodeId::new(2), 3).unwrap()
        );
        assert_eq!(
            PlacementAlgorithm::Ball { anchor: 1 }
                .compute(&net, &maj)
                .unwrap(),
            ball_placement(&net, NodeId::new(1), 5).unwrap()
        );
        // Shell on a non-grid system and out-of-range anchors are rejected.
        assert!(matches!(
            PlacementAlgorithm::GridShell { anchor: 0 }.compute(&net, &maj),
            Err(CoreError::SizeMismatch { .. })
        ));
        assert!(matches!(
            PlacementAlgorithm::Ball { anchor: 99 }.compute(&net, &maj),
            Err(CoreError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn placement_for_dispatches() {
        let net = datasets::euclidean_random(10, 50.0, 5);
        let grid = QuorumSystem::grid(3).unwrap();
        let maj = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        assert_eq!(
            placement_for(&net, NodeId::new(0), &grid)
                .unwrap()
                .universe_size(),
            9
        );
        assert_eq!(
            placement_for(&net, NodeId::new(0), &maj)
                .unwrap()
                .universe_size(),
            5
        );
    }
}
