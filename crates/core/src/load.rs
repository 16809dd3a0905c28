//! System-load computation via LP: the optimal load `L_opt` of an arbitrary
//! (enumerated) quorum system.
//!
//! `L_opt` anchors the capacity sweep of §7 (Eq. 7.7 starts the sweep at
//! the optimal load). Majorities and Grids have closed forms
//! ([`qp_quorum::QuorumSystem::optimal_load`]); for arbitrary systems this
//! module solves the classical Naor–Wool load LP:
//!
//! ```text
//! minimize L   s.t.   Σ_Q p(Q) = 1,   ∀u: Σ_{Q ∋ u} p(Q) ≤ L,   p ≥ 0
//! ```

use qp_lp::{Model, Sense};
use qp_quorum::Quorum;

use crate::CoreError;

/// The optimal load of the enumerated system and a strategy achieving it.
///
/// Returns `(L_opt, probabilities)` where `probabilities[i]` is the weight
/// of `quorums[i]` in an optimal global access strategy.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if `quorums` is empty or `universe` is zero;
/// LP failures are propagated (they indicate a bug, as the load LP is
/// always feasible and bounded).
///
/// # Examples
///
/// ```
/// use qp_core::load::optimal_load_lp;
/// use qp_quorum::QuorumSystem;
///
/// let grid = QuorumSystem::grid(3)?;
/// let quorums = grid.enumerate(100)?;
/// let (l, _strategy) = optimal_load_lp(&quorums, grid.universe_size())?;
/// // Matches the closed form (2k−1)/k².
/// assert!((l - 5.0 / 9.0).abs() < 1e-7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn optimal_load_lp(quorums: &[Quorum], universe: usize) -> Result<(f64, Vec<f64>), CoreError> {
    if quorums.is_empty() {
        return Err(CoreError::SizeMismatch {
            reason: "no quorums".to_string(),
        });
    }
    if universe == 0 {
        return Err(CoreError::SizeMismatch {
            reason: "empty universe".to_string(),
        });
    }
    let mut m = Model::new(Sense::Minimize);
    let l = m.add_var(1.0);
    let ps: Vec<_> = (0..quorums.len()).map(|_| m.add_var(0.0)).collect();
    // Σ p = 1.
    let terms: Vec<_> = ps.iter().map(|&p| (p, 1.0)).collect();
    m.add_eq(&terms, 1.0);
    // Per element: Σ_{Q ∋ u} p(Q) − L ≤ 0.
    for u in 0..universe {
        let mut terms: Vec<_> = quorums
            .iter()
            .zip(&ps)
            .filter(|(q, _)| q.contains(qp_quorum::ElementId::new(u)))
            .map(|(_, &p)| (p, 1.0))
            .collect();
        if terms.is_empty() {
            continue; // element in no quorum carries no load
        }
        terms.push((l, -1.0));
        m.add_le(&terms, 0.0);
    }
    let sol = m.solve()?;
    let probs = ps.iter().map(|&p| sol.value(p)).collect();
    Ok((sol.value(l), probs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_quorum::{ElementId, MajorityKind, QuorumSystem};

    #[test]
    fn grid_load_matches_closed_form() {
        for k in 2..=5 {
            let g = QuorumSystem::grid(k).unwrap();
            let quorums = g.enumerate(10_000).unwrap();
            let (l, probs) = optimal_load_lp(&quorums, g.universe_size()).unwrap();
            assert!(
                (l - g.optimal_load().unwrap()).abs() < 1e-6,
                "k={k}: LP {l} vs closed form {}",
                g.optimal_load().unwrap()
            );
            let total: f64 = probs.iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn majority_load_matches_closed_form() {
        let msys = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        let quorums = msys.enumerate(100).unwrap();
        let (l, _) = optimal_load_lp(&quorums, msys.universe_size()).unwrap();
        assert!((l - 3.0 / 5.0).abs() < 1e-6);
    }

    #[test]
    fn rotation_family_achieves_majority_load() {
        // The n-rotation subfamily achieves the same optimal load as the
        // full Majority.
        let msys = QuorumSystem::majority(MajorityKind::TwoThirds, 2).unwrap();
        let rot = msys.rotation_family().unwrap();
        let (l, _) = optimal_load_lp(&rot, msys.universe_size()).unwrap();
        assert!((l - msys.optimal_load().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn singleton_system_has_load_one() {
        let q = Quorum::new(vec![ElementId::new(0)]);
        let (l, _) = optimal_load_lp(&[q], 1).unwrap();
        assert!((l - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(optimal_load_lp(&[], 3).is_err());
        let q = Quorum::new(vec![ElementId::new(0)]);
        assert!(optimal_load_lp(&[q], 0).is_err());
    }
}
