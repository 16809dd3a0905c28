//! The iterative placement/strategy algorithm of §4.2.
//!
//! Each iteration alternates the two LPs:
//!
//! 1. **Placement phase.** Run the almost-capacity-respecting many-to-one
//!    placement (with the *original* capacities `cap⁰` and the average of
//!    the previous iteration's access strategies) to get placement `f_j`.
//! 2. **Strategy phase.** Run the access-strategy LP with
//!    `cap(v) = load_{f_j}(v)` — the loads the new placement actually
//!    induces — to get strategies `{p_v^j}` that re-route clients toward
//!    closer quorums *without increasing any node's load*.
//!
//! The expected response time (4.2) is evaluated after every iteration;
//! the algorithm halts when it stops improving and returns the best
//! placement/strategy pair seen. By construction the second phase can only
//! decrease network delay at unchanged loads, so the evaluation sequence is
//! non-increasing until termination.

use qp_quorum::{Quorum, StrategyMatrix};

use crate::capacity::CapacityProfile;
use crate::eval::EvalContext;
use crate::manyone::{best_placement, ManyToOneConfig};
use crate::response::{evaluate_matrix_placed, Evaluation, ResponseModel};
use crate::strategy_lp::{ColGenSolver, ColumnGeneration};
use crate::{CoreError, Placement};

/// Progress record for one iteration.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Evaluation after the placement phase (previous strategies applied to
    /// the new placement).
    pub after_placement: Evaluation,
    /// Evaluation after the strategy phase (new strategies).
    pub after_strategy: Evaluation,
}

/// The result of the iterative optimization.
#[derive(Debug, Clone)]
pub struct IterativeResult {
    /// The best placement found.
    pub placement: Placement,
    /// The strategies paired with that placement.
    pub strategy: StrategyMatrix,
    /// The evaluation of the returned pair.
    pub evaluation: Evaluation,
    /// Per-iteration progress, in order.
    pub history: Vec<IterationRecord>,
}

/// Runs the iterative algorithm against an [`EvalContext`] (clients = the
/// context's client set): each iteration binds the new placement to the
/// context once and feeds the cached geometry to both the strategy LP and
/// the Eq. (4.2) evaluations, instead of recomputing the delay matrix
/// three times per iteration.
///
/// * `caps0` — the original capacities `cap⁰(v)` used by every placement
///   phase.
/// * `max_iterations` — safety cap; the paper's runs "mostly terminate
///   after the first iteration", so small values are fine.
///
/// # Errors
///
/// * [`CoreError::Infeasible`] if the first placement phase cannot satisfy
///   `caps0` for any anchor.
/// * Propagates LP and size errors.
///
/// # Panics
///
/// Panics if `max_iterations == 0`.
pub fn optimize_ctx(
    ctx: &EvalContext<'_>,
    quorums: &[Quorum],
    caps0: &CapacityProfile,
    model: ResponseModel,
    max_iterations: usize,
    config: &ManyToOneConfig,
) -> Result<IterativeResult, CoreError> {
    assert!(max_iterations > 0, "at least one iteration required");
    let net = ctx.net();
    let clients = ctx.clients();

    // p⁰ = uniform for every client.
    let mut strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
    let mut best: Option<(Placement, StrategyMatrix, Evaluation)> = None;
    let mut history = Vec::new();

    for iteration in 1..=max_iterations {
        // Phase 1: placement under the averaged strategy.
        let avg = strategy.average();
        let outcome = best_placement(net, quorums, &avg, caps0, config)?;
        let placement = outcome.placement;
        let pq = ctx.place(&placement, quorums);
        let after_placement = evaluate_matrix_placed(&pq, &strategy, model)?;

        // Phase 2: strategies under cap(v) = load_{f_j}(v), solved on a
        // fresh master over the new placement. Guard against
        // zero-capacity nodes (they host nothing): give non-support nodes
        // unbounded capacity.
        let loads = &after_placement.node_loads;
        let caps_j = CapacityProfile::from_values(
            loads
                .iter()
                .map(|&l| if l > 0.0 { l } else { f64::INFINITY })
                .collect(),
        );
        let new_strategy = ColGenSolver::new(&pq, ColumnGeneration::default())?
            .solve_profile(&caps_j)?
            .strategy;
        let after_strategy = evaluate_matrix_placed(&pq, &new_strategy, model)?;
        drop(pq);

        history.push(IterationRecord {
            iteration,
            after_placement: after_placement.clone(),
            after_strategy: after_strategy.clone(),
        });

        let improved = match &best {
            None => true,
            Some((_, _, prev)) => after_strategy.avg_response_ms < prev.avg_response_ms - 1e-9,
        };
        if improved {
            best = Some((placement, new_strategy.clone(), after_strategy));
            strategy = new_strategy;
        } else {
            break;
        }
    }

    let (placement, strategy, evaluation) = best.expect("at least one iteration ran");
    Ok(IterativeResult {
        placement,
        strategy,
        evaluation,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_quorum::QuorumSystem;
    use qp_topology::{datasets, Network, NodeId};

    fn setup() -> (Network, Vec<NodeId>, Vec<Quorum>) {
        let net = datasets::euclidean_random(14, 100.0, 21);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(2).unwrap();
        let quorums = sys.enumerate(16).unwrap();
        (net, clients, quorums)
    }

    #[test]
    fn strategy_phase_never_hurts() {
        let (net, clients, quorums) = setup();
        let caps0 = CapacityProfile::uniform(net.len(), 0.8);
        let ctx = EvalContext::new(&net, &clients);
        let result = optimize_ctx(
            &ctx,
            &quorums,
            &caps0,
            ResponseModel::with_alpha(10.0),
            4,
            &ManyToOneConfig::default(),
        )
        .unwrap();
        for rec in &result.history {
            assert!(
                rec.after_strategy.avg_response_ms <= rec.after_placement.avg_response_ms + 1e-6,
                "iteration {}: strategy phase must not increase response time",
                rec.iteration
            );
        }
    }

    #[test]
    fn terminates_when_no_improvement() {
        let (net, clients, quorums) = setup();
        let caps0 = CapacityProfile::uniform(net.len(), 0.8);
        let ctx = EvalContext::new(&net, &clients);
        let result = optimize_ctx(
            &ctx,
            &quorums,
            &caps0,
            ResponseModel::network_delay_only(),
            10,
            &ManyToOneConfig::default(),
        )
        .unwrap();
        // The paper observes most runs stop after the first iteration; at
        // minimum, we must stop before the cap.
        assert!(result.history.len() <= 10);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn returned_evaluation_is_best_seen() {
        let (net, clients, quorums) = setup();
        let caps0 = CapacityProfile::uniform(net.len(), 0.9);
        let ctx = EvalContext::new(&net, &clients);
        let result = optimize_ctx(
            &ctx,
            &quorums,
            &caps0,
            ResponseModel::with_alpha(50.0),
            5,
            &ManyToOneConfig::default(),
        )
        .unwrap();
        for rec in &result.history {
            assert!(result.evaluation.avg_response_ms <= rec.after_strategy.avg_response_ms + 1e-9);
        }
    }

    #[test]
    fn infeasible_caps_propagate() {
        let (net, clients, quorums) = setup();
        let caps0 = CapacityProfile::uniform(net.len(), 1e-6);
        let ctx = EvalContext::new(&net, &clients);
        let err = optimize_ctx(
            &ctx,
            &quorums,
            &caps0,
            ResponseModel::network_delay_only(),
            3,
            &ManyToOneConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, CoreError::Infeasible);
    }
}
