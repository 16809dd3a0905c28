//! Node-capacity profiles and the capacity-tuning techniques of §7.
//!
//! In the paper, `cap(v)` is not (only) a physical machine limit: it is a
//! *tuning knob* fed to the access-strategy LP (4.3)–(4.6) to control how
//! much load the optimizer may concentrate on each node. Two schemes are
//! evaluated:
//!
//! * **Uniform sweep** (Eq. 7.7): `cᵢ = L_opt + i·λ`, `λ = (1 − L_opt)/10`,
//!   all nodes get capacity `cᵢ` — see [`capacity_sweep`].
//! * **Non-uniform heuristic**: support-node capacities inversely
//!   proportional to their average distance `sᵢ` to the clients, scaled
//!   into `[β, γ]` — see [`CapacityProfile::inverse_distance`].
//!
//! Beyond the paper, two further non-uniform assignments share the same
//! `[β, γ]` affine scaling and are compared against uniform capacities in
//! the strategy-LP tests:
//!
//! * **Load-proportional** ([`CapacityProfile::load_proportional`]):
//!   capacity follows the node loads of the *unconstrained* delay-optimal
//!   strategies — grant headroom where the optimizer wants to put load.
//! * **Marginal-value** ([`CapacityProfile::marginal_value`]): capacity
//!   follows the LP dual price of each node's capacity row — grant
//!   headroom where it buys the most delay (see
//!   [`crate::strategy_lp::StrategyLpOutcome::capacity_duals`]).
//!
//! [`CapacityChoice`] names one of these rules (plus a fixed uniform
//! capacity); [`crate::strategy_lp::tune_capacity`] applies it.

use qp_topology::{Network, NodeId};

use crate::CoreError;

/// Per-node capacities (`cap : V → R⁺ ∪ {∞}`).
///
/// # Examples
///
/// ```
/// use qp_core::capacity::CapacityProfile;
/// use qp_topology::NodeId;
///
/// let caps = CapacityProfile::uniform(3, 0.5);
/// assert_eq!(caps.get(NodeId::new(2)), 0.5);
/// assert!(!caps.is_unbounded(NodeId::new(2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityProfile {
    caps: Vec<f64>,
}

impl CapacityProfile {
    /// All `n` nodes get the same finite capacity `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is negative or NaN.
    pub fn uniform(n: usize, c: f64) -> Self {
        assert!(c >= 0.0, "capacity must be nonnegative");
        CapacityProfile { caps: vec![c; n] }
    }

    /// All `n` nodes are uncapacitated (`∞`).
    pub fn unbounded(n: usize) -> Self {
        CapacityProfile {
            caps: vec![f64::INFINITY; n],
        }
    }

    /// Builds a profile from explicit values (∞ allowed).
    ///
    /// # Panics
    ///
    /// Panics if any value is negative or NaN.
    pub fn from_values(caps: Vec<f64>) -> Self {
        assert!(
            caps.iter().all(|&c| c >= 0.0 && !c.is_nan()),
            "capacities must be nonnegative"
        );
        CapacityProfile { caps }
    }

    /// The §7 non-uniform heuristic: support-node `vᵢ` gets
    ///
    /// ```text
    /// cap(vᵢ) = (1/sᵢ − le)/(re − le) · (γ − β) + β
    /// ```
    ///
    /// where `sᵢ` is the average distance from all clients to `vᵢ`,
    /// `le = minᵢ 1/sᵢ`, `re = maxᵢ 1/sᵢ` — the farthest support node gets
    /// `β`, the closest gets `γ`. Non-support nodes are uncapacitated (they
    /// host no elements, so their capacity never binds).
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if `support` is empty or contains an
    /// out-of-range node.
    ///
    /// # Panics
    ///
    /// Panics if `β > γ`, or either is not finite.
    pub fn inverse_distance(
        net: &Network,
        support: &[NodeId],
        beta: f64,
        gamma: f64,
    ) -> Result<Self, CoreError> {
        assert!(
            beta.is_finite() && gamma.is_finite(),
            "bounds must be finite"
        );
        assert!(beta <= gamma, "β must not exceed γ");
        if support.is_empty() {
            return Err(CoreError::SizeMismatch {
                reason: "empty support set".to_string(),
            });
        }
        if let Some(&bad) = support.iter().find(|v| v.index() >= net.len()) {
            return Err(CoreError::SizeMismatch {
                reason: format!("support node {bad} out of range"),
            });
        }
        let avg = net.average_distances();
        // 1/sᵢ; a zero average distance (single-node network) maps to the
        // maximum capacity γ via a large sentinel.
        let inv: Vec<f64> = support
            .iter()
            .map(|&v| {
                let s = avg[v.index()];
                if s > 0.0 {
                    1.0 / s
                } else {
                    f64::MAX
                }
            })
            .collect();
        Ok(Self::affine_scaled(net.len(), support, &inv, beta, gamma))
    }

    /// The **load-proportional** heuristic: support-node capacities scaled
    /// affinely with `loads` (one entry per network node) into `[β, γ]` —
    /// the most-loaded support node gets `γ`, the least-loaded gets `β`.
    /// Feed it the node loads of the *unconstrained* delay-optimal
    /// strategies (as [`CapacityChoice::LoadProportional`] does) to grant
    /// capacity where the optimizer naturally concentrates load.
    /// Non-support nodes are uncapacitated.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if `support` is empty or a support node
    /// is outside `loads`.
    ///
    /// # Panics
    ///
    /// Panics if `β > γ`, either is not finite, or a referenced load is
    /// negative or NaN.
    pub fn load_proportional(
        loads: &[f64],
        support: &[NodeId],
        beta: f64,
        gamma: f64,
    ) -> Result<Self, CoreError> {
        assert!(
            beta.is_finite() && gamma.is_finite(),
            "bounds must be finite"
        );
        assert!(beta <= gamma, "β must not exceed γ");
        Self::validate_support(support, loads.len())?;
        let scores: Vec<f64> = support
            .iter()
            .map(|&v| {
                let l = loads[v.index()];
                assert!(l >= 0.0 && !l.is_nan(), "loads must be nonnegative");
                l
            })
            .collect();
        Ok(Self::affine_scaled(
            loads.len(),
            support,
            &scores,
            beta,
            gamma,
        ))
    }

    /// The **marginal-value** heuristic: support-node capacities scaled
    /// affinely with `prices` (one nonnegative entry per network node —
    /// the magnitude of the LP dual price of that node's capacity row)
    /// into `[β, γ]` — the node whose capacity is most valuable to the
    /// optimizer gets `γ`, the least valuable gets `β`. Non-support nodes
    /// are uncapacitated.
    ///
    /// When no capacity binds (all prices zero) the interval degenerates
    /// and every support node gets `γ`, i.e. the profile gracefully falls
    /// back to uniform-`γ`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if `support` is empty or a support node
    /// is outside `prices`.
    ///
    /// # Panics
    ///
    /// Panics if `β > γ`, either is not finite, or a referenced price is
    /// negative or NaN.
    pub fn marginal_value(
        prices: &[f64],
        support: &[NodeId],
        beta: f64,
        gamma: f64,
    ) -> Result<Self, CoreError> {
        assert!(
            beta.is_finite() && gamma.is_finite(),
            "bounds must be finite"
        );
        assert!(beta <= gamma, "β must not exceed γ");
        Self::validate_support(support, prices.len())?;
        let scores: Vec<f64> = support
            .iter()
            .map(|&v| {
                let p = prices[v.index()];
                assert!(p >= 0.0 && !p.is_nan(), "prices must be nonnegative");
                p
            })
            .collect();
        Ok(Self::affine_scaled(
            prices.len(),
            support,
            &scores,
            beta,
            gamma,
        ))
    }

    fn validate_support(support: &[NodeId], n: usize) -> Result<(), CoreError> {
        if support.is_empty() {
            return Err(CoreError::SizeMismatch {
                reason: "empty support set".to_string(),
            });
        }
        if let Some(&bad) = support.iter().find(|v| v.index() >= n) {
            return Err(CoreError::SizeMismatch {
                reason: format!("support node {bad} out of range"),
            });
        }
        Ok(())
    }

    /// Shared affine `[β, γ]` scaling of per-support-node scores: the
    /// highest score maps to `γ`, the lowest to `β`; a degenerate score
    /// interval gives everyone `γ` (matching the paper's "almost
    /// identical" small-interval behaviour). Non-support nodes are
    /// uncapacitated.
    fn affine_scaled(n: usize, support: &[NodeId], scores: &[f64], beta: f64, gamma: f64) -> Self {
        let le = scores.iter().copied().fold(f64::INFINITY, f64::min);
        let re = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut caps = vec![f64::INFINITY; n];
        for (i, &v) in support.iter().enumerate() {
            let c = if re > le {
                // Clamp: roundoff in the affine map can overshoot by an ulp.
                ((scores[i] - le) / (re - le) * (gamma - beta) + beta).clamp(beta, gamma)
            } else {
                gamma
            };
            caps[v.index()] = c;
        }
        CapacityProfile { caps }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the profile covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Capacity of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn get(&self, v: NodeId) -> f64 {
        self.caps[v.index()]
    }

    /// Whether node `v` is uncapacitated.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_unbounded(&self, v: NodeId) -> bool {
        self.caps[v.index()].is_infinite()
    }

    /// The raw capacity vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.caps
    }
}

/// How node capacities for the strategy LP are chosen: the §7 rules that
/// [`crate::strategy_lp::tune_capacity`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityChoice {
    /// The §7 uniform sweep: try the [`capacity_sweep`] grid over
    /// `(L_opt, 1]` and keep the capacity with the best response time.
    Sweep {
        /// Number of sweep intervals.
        steps: usize,
    },
    /// A fixed uniform capacity.
    Fixed(f64),
    /// The load-proportional heuristic over `[beta, gamma]`.
    LoadProportional {
        /// Lower capacity bound.
        beta: f64,
        /// Upper capacity bound.
        gamma: f64,
    },
    /// The marginal-value (LP dual price) heuristic over `[beta, gamma]`.
    MarginalValue {
        /// Lower capacity bound.
        beta: f64,
        /// Upper capacity bound.
        gamma: f64,
    },
}

impl Default for CapacityChoice {
    fn default() -> Self {
        CapacityChoice::Sweep { steps: 5 }
    }
}

/// The uniform capacity sweep of Eq. (7.7): `cᵢ = L_opt + i·λ` for
/// `i ∈ {1, …, steps}` with `λ = (1 − L_opt)/steps`. The paper uses
/// `steps = 10`, producing ten values spanning `(L_opt, 1]`.
///
/// Degenerate inputs collapse gracefully instead of producing an empty
/// or duplicated grid:
///
/// * `steps == 0` — there is no interior to sweep; returns the single
///   admissible capacity `[1.0]` (every node may carry full load).
/// * `l_opt == 1.0` — the sweep interval `(L_opt, 1]` is a point; every
///   step would emit the same `1.0`, so the duplicates are collapsed to
///   a single `[1.0]`. (A system with optimal load 1 — e.g. a singleton
///   — has exactly one feasible uniform capacity.)
///
/// # Panics
///
/// Panics if `l_opt` is not in `[0, 1]` (NaN included).
///
/// # Examples
///
/// ```
/// use qp_core::capacity::capacity_sweep;
///
/// let cs = capacity_sweep(0.5, 10);
/// assert_eq!(cs.len(), 10);
/// assert!((cs[9] - 1.0).abs() < 1e-12);
/// assert!(cs[0] > 0.5);
/// // Degenerate cases collapse to the single point 1.0:
/// assert_eq!(capacity_sweep(0.5, 0), vec![1.0]);
/// assert_eq!(capacity_sweep(1.0, 10), vec![1.0]);
/// ```
pub fn capacity_sweep(l_opt: f64, steps: usize) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&l_opt), "L_opt must lie in [0, 1]");
    if steps == 0 || l_opt >= 1.0 {
        return vec![1.0];
    }
    let lambda = (1.0 - l_opt) / steps as f64;
    (1..=steps).map(|i| l_opt + i as f64 * lambda).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_topology::{datasets, DistanceMatrix, Network};

    #[test]
    fn uniform_and_unbounded() {
        let u = CapacityProfile::uniform(4, 0.3);
        assert_eq!(u.as_slice(), &[0.3; 4]);
        let inf = CapacityProfile::unbounded(2);
        assert!(inf.is_unbounded(NodeId::new(1)));
    }

    #[test]
    fn sweep_matches_formula() {
        let cs = capacity_sweep(0.36, 10);
        let lambda = (1.0 - 0.36) / 10.0;
        for (i, c) in cs.iter().enumerate() {
            let expected = 0.36 + (i + 1) as f64 * lambda;
            assert!((c - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn sweep_zero_steps_collapses_to_full_capacity() {
        assert_eq!(capacity_sweep(0.5, 0), vec![1.0]);
        assert_eq!(capacity_sweep(0.0, 0), vec![1.0]);
    }

    #[test]
    fn sweep_l_opt_one_collapses_to_single_point() {
        // Every step of a (1.0, 1] sweep is the same value; a degenerate
        // grid of ten duplicate LP solves is collapsed to one.
        assert_eq!(capacity_sweep(1.0, 10), vec![1.0]);
        assert_eq!(capacity_sweep(1.0, 1), vec![1.0]);
    }

    #[test]
    fn sweep_always_nonempty_and_ends_at_one() {
        for steps in [0usize, 1, 3, 10] {
            for l_opt in [0.0, 0.36, 0.999, 1.0] {
                let cs = capacity_sweep(l_opt, steps);
                assert!(
                    !cs.is_empty(),
                    "empty sweep at l_opt={l_opt}, steps={steps}"
                );
                let last = *cs.last().unwrap();
                assert!(
                    (last - 1.0).abs() < 1e-12,
                    "sweep must end at capacity 1.0, got {last}"
                );
                for c in &cs {
                    assert!(*c > l_opt - 1e-12 && *c <= 1.0 + 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "L_opt must lie in [0, 1]")]
    fn sweep_rejects_out_of_range_l_opt() {
        let _ = capacity_sweep(1.5, 10);
    }

    #[test]
    fn inverse_distance_orders_by_distance() {
        // Line: 0 -1- 1 -1- 2 -1- 3; average distances: 1.5, 1.0, 1.0, 1.5.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 2.0, 3.0],
            vec![1.0, 0.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0, 1.0],
            vec![3.0, 2.0, 1.0, 0.0],
        ])
        .unwrap();
        let net = Network::from_distances(m);
        let support = vec![NodeId::new(0), NodeId::new(1)];
        let caps = CapacityProfile::inverse_distance(&net, &support, 0.2, 0.8).unwrap();
        // Node 1 is closer on average → γ; node 0 farther → β.
        assert!((caps.get(NodeId::new(0)) - 0.2).abs() < 1e-12);
        assert!((caps.get(NodeId::new(1)) - 0.8).abs() < 1e-12);
        // Non-support nodes are unbounded.
        assert!(caps.is_unbounded(NodeId::new(2)));
    }

    #[test]
    fn inverse_distance_full_support_spans_beta_gamma() {
        let net = datasets::planetlab_50();
        let support: Vec<NodeId> = net.nodes().collect();
        let caps = CapacityProfile::inverse_distance(&net, &support, 0.3, 0.9).unwrap();
        let vals: Vec<f64> = support.iter().map(|&v| caps.get(v)).collect();
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((min - 0.3).abs() < 1e-9);
        assert!((max - 0.9).abs() < 1e-9);
        for v in vals {
            assert!((0.3..=0.9).contains(&v));
        }
    }

    #[test]
    fn inverse_distance_rejects_empty_support() {
        let net = datasets::planetlab_50();
        assert!(CapacityProfile::inverse_distance(&net, &[], 0.1, 0.2).is_err());
    }

    #[test]
    fn load_proportional_orders_by_load() {
        let loads = vec![0.1, 0.6, 0.0, 0.3];
        let support = vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)];
        let caps = CapacityProfile::load_proportional(&loads, &support, 0.2, 0.8).unwrap();
        // Highest load → γ, lowest → β, middle in between, monotone.
        assert!((caps.get(NodeId::new(1)) - 0.8).abs() < 1e-12);
        assert!((caps.get(NodeId::new(0)) - 0.2).abs() < 1e-12);
        let mid = caps.get(NodeId::new(3));
        assert!(mid > 0.2 && mid < 0.8, "mid capacity {mid}");
        // Non-support node stays unbounded even though it has a load entry.
        assert!(caps.is_unbounded(NodeId::new(2)));
    }

    #[test]
    fn marginal_value_degenerates_to_gamma_when_nothing_binds() {
        let prices = vec![0.0; 3];
        let support = vec![NodeId::new(0), NodeId::new(2)];
        let caps = CapacityProfile::marginal_value(&prices, &support, 0.3, 0.9).unwrap();
        assert_eq!(caps.get(NodeId::new(0)), 0.9);
        assert_eq!(caps.get(NodeId::new(2)), 0.9);
        assert!(caps.is_unbounded(NodeId::new(1)));
    }

    #[test]
    fn marginal_value_orders_by_price() {
        let prices = vec![5.0, 0.0, 2.5];
        let support = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let caps = CapacityProfile::marginal_value(&prices, &support, 0.4, 1.0).unwrap();
        assert!((caps.get(NodeId::new(0)) - 1.0).abs() < 1e-12);
        assert!((caps.get(NodeId::new(1)) - 0.4).abs() < 1e-12);
        assert!((caps.get(NodeId::new(2)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn new_heuristics_reject_empty_or_foreign_support() {
        assert!(CapacityProfile::load_proportional(&[0.5], &[], 0.1, 0.2).is_err());
        assert!(CapacityProfile::marginal_value(&[0.5], &[NodeId::new(3)], 0.1, 0.2).is_err());
    }

    #[test]
    fn degenerate_equal_distances() {
        // Two nodes, symmetric: equal averages → both get γ.
        let m = DistanceMatrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 0.0]]).unwrap();
        let net = Network::from_distances(m);
        let caps =
            CapacityProfile::inverse_distance(&net, &[NodeId::new(0), NodeId::new(1)], 0.4, 0.7)
                .unwrap();
        assert_eq!(caps.get(NodeId::new(0)), 0.7);
        assert_eq!(caps.get(NodeId::new(1)), 0.7);
    }
}
