//! Quorum-system constructions.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use std::fmt;

use rand::Rng;

use crate::{ElementId, MajorityKind, Quorum, QuorumError};

/// A quorum system over a universe of `n` logical elements.
///
/// Three constructions are available: [`QuorumSystem::majority`],
/// [`QuorumSystem::grid`], and [`QuorumSystem::explicit`]. Structured
/// constructions (Majority, Grid) answer structural queries — closest
/// quorum, optimal load, uniform sampling — in closed form without
/// enumerating the (possibly astronomically many) quorums; explicit systems
/// fall back to scans over the stored list.
///
/// # Examples
///
/// ```
/// use qp_quorum::{MajorityKind, QuorumSystem};
///
/// // The paper's Q/U configuration at t = 2: n = 11, q = 9.
/// let qs = QuorumSystem::majority(MajorityKind::FourFifths, 2)?;
/// assert_eq!(qs.universe_size(), 11);
/// assert_eq!(qs.min_quorum_size(), 9);
/// assert_eq!(qs.optimal_load(), Some(9.0 / 11.0));
/// # Ok::<(), qp_quorum::QuorumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumSystem {
    inner: Inner,
}

#[derive(Debug, Clone, PartialEq)]
enum Inner {
    Majority {
        kind: MajorityKind,
        t: usize,
    },
    Grid {
        k: usize,
    },
    Explicit {
        universe: usize,
        quorums: Vec<Quorum>,
        label: String,
    },
}

impl QuorumSystem {
    /// A Majority system with fault threshold `t ≥ 1`.
    ///
    /// Its quorums are **all** subsets of size exactly `q = kind.quorum_size(t)`
    /// out of `n = kind.universe_size(t)` elements.
    ///
    /// # Errors
    ///
    /// [`QuorumError::InvalidParameter`] if `t = 0`.
    pub fn majority(kind: MajorityKind, t: usize) -> Result<Self, QuorumError> {
        if t == 0 {
            return Err(QuorumError::InvalidParameter {
                name: "t",
                requirement: "fault threshold must be at least 1",
            });
        }
        Ok(QuorumSystem {
            inner: Inner::Majority { kind, t },
        })
    }

    /// The `k × k` Grid system (`k ≥ 1`): universe `n = k²` arranged in a
    /// square; quorum `Q_{i,j}` = row `i` ∪ column `j`, so `m = k²` quorums
    /// of size `2k − 1`. Any two quorums intersect: `Q_{i,j}` and
    /// `Q_{i',j'}` share the cell `(i, j')` (and `(i', j)`).
    ///
    /// # Errors
    ///
    /// [`QuorumError::InvalidParameter`] if `k = 0`.
    pub fn grid(k: usize) -> Result<Self, QuorumError> {
        if k == 0 {
            return Err(QuorumError::InvalidParameter {
                name: "k",
                requirement: "grid side must be at least 1",
            });
        }
        Ok(QuorumSystem {
            inner: Inner::Grid { k },
        })
    }

    /// An explicit system from a list of quorums.
    ///
    /// # Errors
    ///
    /// [`QuorumError::InvalidSystem`] if the list is empty, a quorum is
    /// empty, an element is out of range, or two quorums fail to intersect.
    pub fn explicit(
        universe: usize,
        quorums: Vec<Quorum>,
        label: &str,
    ) -> Result<Self, QuorumError> {
        if quorums.is_empty() {
            return Err(QuorumError::InvalidSystem {
                reason: "no quorums supplied".to_string(),
            });
        }
        for q in &quorums {
            if q.is_empty() {
                return Err(QuorumError::InvalidSystem {
                    reason: "empty quorum".to_string(),
                });
            }
            if let Some(u) = q.iter().find(|u| u.index() >= universe) {
                return Err(QuorumError::InvalidSystem {
                    reason: format!("element {u} out of universe of size {universe}"),
                });
            }
        }
        if !Self::verify_intersection(&quorums) {
            return Err(QuorumError::InvalidSystem {
                reason: "two quorums do not intersect".to_string(),
            });
        }
        Ok(QuorumSystem {
            inner: Inner::Explicit {
                universe,
                quorums,
                label: label.to_string(),
            },
        })
    }

    /// Checks the defining property: every pair of quorums intersects.
    pub fn verify_intersection(quorums: &[Quorum]) -> bool {
        for (i, a) in quorums.iter().enumerate() {
            for b in &quorums[i + 1..] {
                if !a.intersects(b) {
                    return false;
                }
            }
        }
        true
    }

    /// Size `n` of the universe.
    pub fn universe_size(&self) -> usize {
        match &self.inner {
            Inner::Majority { kind, t } => kind.universe_size(*t),
            Inner::Grid { k } => k * k,
            Inner::Explicit { universe, .. } => *universe,
        }
    }

    /// Size of the smallest quorum.
    pub fn min_quorum_size(&self) -> usize {
        match &self.inner {
            Inner::Majority { kind, t } => kind.quorum_size(*t),
            Inner::Grid { k } => 2 * k - 1,
            Inner::Explicit { quorums, .. } => quorums.iter().map(Quorum::len).min().unwrap_or(0),
        }
    }

    /// Total number of quorums (saturating; Majorities have `C(n, q)`).
    pub fn quorum_count(&self) -> u128 {
        match &self.inner {
            Inner::Majority { kind, t } => binomial(kind.universe_size(*t), kind.quorum_size(*t)),
            Inner::Grid { k } => (k * k) as u128,
            Inner::Explicit { quorums, .. } => quorums.len() as u128,
        }
    }

    /// A short human-readable label ("(t+1, 2t+1) Majority, t=3", "5x5
    /// Grid", …).
    pub fn label(&self) -> String {
        match &self.inner {
            Inner::Majority { kind, t } => format!("{kind}, t={t}"),
            Inner::Grid { k } => format!("{k}x{k} Grid"),
            Inner::Explicit { label, .. } => label.clone(),
        }
    }

    /// Whether `candidate` contains a quorum of this system.
    pub fn is_quorum(&self, candidate: &Quorum) -> bool {
        match &self.inner {
            Inner::Majority { kind, t } => candidate.len() >= kind.quorum_size(*t),
            Inner::Grid { k } => {
                let k = *k;
                let mut row_count = vec![0usize; k];
                let mut col_count = vec![0usize; k];
                for u in candidate.iter() {
                    if u.index() < k * k {
                        row_count[u.index() / k] += 1;
                        col_count[u.index() % k] += 1;
                    }
                }
                // Need a full row i and a full column j; the shared cell
                // (i, j) is counted in both tallies, so full row + full
                // column of the candidate suffices.
                let full_rows: Vec<usize> = (0..k).filter(|&i| row_count[i] == k).collect();
                let full_cols: Vec<usize> = (0..k).filter(|&j| col_count[j] == k).collect();
                !full_rows.is_empty() && !full_cols.is_empty()
            }
            Inner::Explicit { quorums, .. } => quorums.iter().any(|q| q.is_subset_of(candidate)),
        }
    }

    /// Enumerates all quorums, provided there are at most `limit`.
    ///
    /// # Errors
    ///
    /// [`QuorumError::TooManyQuorums`] if the count exceeds `limit` —
    /// Majorities blow up combinatorially; use [`QuorumSystem::rotation_family`]
    /// or structural queries instead.
    pub fn enumerate(&self, limit: usize) -> Result<Vec<Quorum>, QuorumError> {
        let count = self.quorum_count();
        if count > limit as u128 {
            return Err(QuorumError::TooManyQuorums { count, limit });
        }
        Ok(match &self.inner {
            Inner::Majority { kind, t } => {
                let n = kind.universe_size(*t);
                let q = kind.quorum_size(*t);
                let mut out = Vec::new();
                let mut choice: Vec<usize> = (0..q).collect();
                loop {
                    out.push(choice.iter().map(|&i| ElementId::new(i)).collect());
                    // Next combination.
                    let mut i = q;
                    loop {
                        if i == 0 {
                            return Ok(out);
                        }
                        i -= 1;
                        if choice[i] != i + n - q {
                            choice[i] += 1;
                            for k2 in (i + 1)..q {
                                choice[k2] = choice[k2 - 1] + 1;
                            }
                            break;
                        }
                    }
                }
            }
            Inner::Grid { k } => grid_quorums(*k),
            Inner::Explicit { quorums, .. } => quorums.clone(),
        })
    }

    /// For Majorities: the *rotation family* — the `n` cyclic windows
    /// `{i, i+1, …, i+q−1 mod n}`. A subfamily of the full Majority (so
    /// intersection still holds, since any two `q`-sets with `2q > n`
    /// intersect), with the useful property that the uniform strategy over
    /// it induces load exactly `q/n = L_opt` on every element.
    ///
    /// Returns `None` for non-Majority systems.
    pub fn rotation_family(&self) -> Option<Vec<Quorum>> {
        let Inner::Majority { kind, t } = &self.inner else {
            return None;
        };
        let n = kind.universe_size(*t);
        let q = kind.quorum_size(*t);
        Some(
            (0..n)
                .map(|start| {
                    (0..q)
                        .map(|off| ElementId::new((start + off) % n))
                        .collect()
                })
                .collect(),
        )
    }

    /// The quorum minimizing the **maximum** of `elem_cost[u]` over its
    /// elements — i.e. the closest quorum when `elem_cost[u]` is the
    /// client's delay to the node hosting `u` (§6, "closest quorum access
    /// strategy"). Computed structurally: `O(n log n)` for Majorities,
    /// `O(k²)` for Grids, one scan for explicit systems.
    ///
    /// Ties are broken deterministically (lowest element indices / lowest
    /// row-column / first in list).
    ///
    /// # Panics
    ///
    /// Panics if `elem_cost.len() != self.universe_size()` or any cost is
    /// NaN.
    pub fn min_max_quorum(&self, elem_cost: &[f64]) -> Quorum {
        assert_eq!(
            elem_cost.len(),
            self.universe_size(),
            "one cost per universe element required"
        );
        assert!(elem_cost.iter().all(|c| !c.is_nan()), "NaN cost");
        match &self.inner {
            Inner::Majority { kind, t } => {
                let q = kind.quorum_size(*t);
                let mut order: Vec<usize> = (0..elem_cost.len()).collect();
                order.sort_by(|&a, &b| {
                    elem_cost[a]
                        .partial_cmp(&elem_cost[b])
                        .expect("no NaN")
                        .then_with(|| a.cmp(&b))
                });
                order[..q].iter().map(|&i| ElementId::new(i)).collect()
            }
            Inner::Grid { k } => {
                let k = *k;
                let row_max: Vec<f64> = (0..k)
                    .map(|i| {
                        (0..k)
                            .map(|j| elem_cost[i * k + j])
                            .fold(f64::MIN, f64::max)
                    })
                    .collect();
                let col_max: Vec<f64> = (0..k)
                    .map(|j| {
                        (0..k)
                            .map(|i| elem_cost[i * k + j])
                            .fold(f64::MIN, f64::max)
                    })
                    .collect();
                let mut best = (0, 0);
                let mut best_cost = f64::INFINITY;
                for i in 0..k {
                    for j in 0..k {
                        let c = row_max[i].max(col_max[j]);
                        if c < best_cost {
                            best_cost = c;
                            best = (i, j);
                        }
                    }
                }
                grid_quorum(k, best.0, best.1)
            }
            Inner::Explicit { quorums, .. } => {
                let mut best = &quorums[0];
                let mut best_cost = f64::INFINITY;
                for q in quorums {
                    let c = q
                        .iter()
                        .map(|u| elem_cost[u.index()])
                        .fold(f64::MIN, f64::max);
                    if c < best_cost {
                        best_cost = c;
                        best = q;
                    }
                }
                best.clone()
            }
        }
    }

    /// Samples a quorum uniformly at random (the *balanced* strategy of
    /// §7): a uniform `q`-subset for Majorities, a uniform `(row, column)`
    /// pair for Grids, a uniform list entry for explicit systems.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Quorum {
        let mut elements = Vec::new();
        self.sample_uniform_into(rng, &mut elements);
        Quorum::new(elements)
    }

    /// [`sample_uniform`](Self::sample_uniform) into a reused buffer: the
    /// same random draws pick the same quorum, whose elements replace
    /// `out`'s contents in ascending order.
    pub fn sample_uniform_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<ElementId>) {
        out.clear();
        match &self.inner {
            Inner::Majority { kind, t } => {
                let n = kind.universe_size(*t);
                let q = kind.quorum_size(*t);
                // Partial Fisher–Yates over the whole universe.
                out.extend((0..n).map(ElementId::new));
                for i in 0..q {
                    let j = rng.gen_range(i..n);
                    out.swap(i, j);
                }
                out.truncate(q);
                out.sort_unstable();
            }
            Inner::Grid { k } => {
                let k = *k;
                let i = rng.gen_range(0..k);
                let j = rng.gen_range(0..k);
                // Column j above and below row i, all of row i between.
                for r in 0..k {
                    if r == i {
                        out.extend((0..k).map(|c| ElementId::new(i * k + c)));
                    } else {
                        out.push(ElementId::new(r * k + j));
                    }
                }
            }
            Inner::Explicit { quorums, .. } => {
                out.extend_from_slice(quorums[rng.gen_range(0..quorums.len())].as_slice());
            }
        }
    }

    /// The system's optimal load `L_opt` (Naor–Wool), if known in closed
    /// form:
    ///
    /// * Majority `(q of n)`: `q / n` (by symmetry, achieved by the uniform
    ///   strategy);
    /// * `k × k` Grid: `(2k − 1) / k²` (the uniform strategy achieves the
    ///   `q_min / n` lower bound);
    /// * explicit systems: `None` (use an LP, e.g.
    ///   `qp_core::optimal_load_lp`).
    pub fn optimal_load(&self) -> Option<f64> {
        match &self.inner {
            Inner::Majority { kind, t } => {
                Some(kind.quorum_size(*t) as f64 / kind.universe_size(*t) as f64)
            }
            Inner::Grid { k } => {
                let k = *k;
                Some((2 * k - 1) as f64 / (k * k) as f64)
            }
            Inner::Explicit { .. } => None,
        }
    }

    /// The Majority parameters `(kind, t)` if this is a Majority system.
    pub fn as_majority(&self) -> Option<(MajorityKind, usize)> {
        match &self.inner {
            Inner::Majority { kind, t } => Some((*kind, *t)),
            _ => None,
        }
    }

    /// The grid side `k` if this is a Grid system.
    pub fn as_grid(&self) -> Option<usize> {
        match &self.inner {
            Inner::Grid { k } => Some(*k),
            _ => None,
        }
    }
}

impl fmt::Display for QuorumSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Quorum `Q_{i,j}` of the `k × k` grid: row `i` ∪ column `j`.
fn grid_quorum(k: usize, i: usize, j: usize) -> Quorum {
    let mut elems: Vec<ElementId> = (0..k).map(|c| ElementId::new(i * k + c)).collect();
    elems.extend((0..k).map(|r| ElementId::new(r * k + j)));
    Quorum::new(elems)
}

/// All `k²` grid quorums, row-major order.
fn grid_quorums(k: usize) -> Vec<Quorum> {
    let mut out = Vec::with_capacity(k * k);
    for i in 0..k {
        for j in 0..k {
            out.push(grid_quorum(k, i, j));
        }
    }
    out
}

/// Saturating binomial coefficient `C(n, k)` as `u128`.
fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128);
        acc /= (i + 1) as u128;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(21, 17), 5985);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(3, 5), 0);
    }

    #[test]
    fn majority_rejects_t_zero() {
        assert!(QuorumSystem::majority(MajorityKind::TwoThirds, 0).is_err());
    }

    #[test]
    fn grid_enumeration_intersects() {
        for k in 1..=5 {
            let g = QuorumSystem::grid(k).unwrap();
            let qs = g.enumerate(usize::MAX).unwrap();
            assert_eq!(qs.len(), k * k);
            assert!(QuorumSystem::verify_intersection(&qs));
            for q in &qs {
                assert_eq!(q.len(), 2 * k - 1);
                assert!(g.is_quorum(q));
            }
        }
    }

    #[test]
    fn majority_enumeration_small() {
        let m = QuorumSystem::majority(MajorityKind::SimpleMajority, 2).unwrap();
        // n=5, q=3 → C(5,3) = 10 quorums.
        let qs = m.enumerate(100).unwrap();
        assert_eq!(qs.len(), 10);
        assert!(QuorumSystem::verify_intersection(&qs));
    }

    #[test]
    fn majority_enumeration_respects_limit() {
        let m = QuorumSystem::majority(MajorityKind::FourFifths, 4).unwrap();
        // C(21,17) = 5985.
        let err = m.enumerate(1000).unwrap_err();
        assert!(matches!(
            err,
            QuorumError::TooManyQuorums { count: 5985, .. }
        ));
    }

    #[test]
    fn rotation_family_properties() {
        let m = QuorumSystem::majority(MajorityKind::TwoThirds, 3).unwrap();
        let rot = m.rotation_family().unwrap();
        let (n, q) = (10, 7);
        assert_eq!(rot.len(), n);
        assert!(QuorumSystem::verify_intersection(&rot));
        // Uniform over rotations puts load q/n on every element.
        let mut counts = vec![0usize; n];
        for quo in &rot {
            assert_eq!(quo.len(), q);
            for u in quo.iter() {
                counts[u.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == q));
        // Grid has no rotation family.
        assert!(QuorumSystem::grid(3).unwrap().rotation_family().is_none());
    }

    #[test]
    fn min_max_quorum_majority_takes_nearest() {
        let m = QuorumSystem::majority(MajorityKind::SimpleMajority, 1).unwrap();
        // n=3, q=2; costs favour elements 2 and 0.
        let q = m.min_max_quorum(&[1.0, 9.0, 0.5]);
        let ids: Vec<usize> = q.iter().map(ElementId::index).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn min_max_quorum_grid_matches_bruteforce() {
        let g = QuorumSystem::grid(3).unwrap();
        let costs = [5.0, 1.0, 8.0, 2.0, 2.0, 2.0, 9.0, 1.0, 3.0];
        let fast = g.min_max_quorum(&costs);
        // Brute force over the enumeration.
        let mut best = None;
        let mut best_cost = f64::INFINITY;
        for q in g.enumerate(usize::MAX).unwrap() {
            let c = q.iter().map(|u| costs[u.index()]).fold(f64::MIN, f64::max);
            if c < best_cost {
                best_cost = c;
                best = Some(q);
            }
        }
        let brute_cost = best
            .unwrap()
            .iter()
            .map(|u| costs[u.index()])
            .fold(f64::MIN, f64::max);
        let fast_cost = fast
            .iter()
            .map(|u| costs[u.index()])
            .fold(f64::MIN, f64::max);
        assert_eq!(fast_cost, brute_cost);
    }

    #[test]
    fn sample_uniform_is_a_quorum() {
        let mut rng = StdRng::seed_from_u64(1);
        for sys in [
            QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap(),
            QuorumSystem::grid(4).unwrap(),
        ] {
            for _ in 0..50 {
                let q = sys.sample_uniform(&mut rng);
                assert!(sys.is_quorum(&q), "{q} not a quorum of {sys}");
                assert_eq!(q.len(), sys.min_quorum_size());
            }
        }
    }

    #[test]
    fn sample_into_a_dirty_buffer_yields_the_sorted_quorum() {
        let explicit = QuorumSystem::explicit(
            3,
            vec![
                Quorum::new(vec![ElementId::new(0), ElementId::new(1)]),
                Quorum::new(vec![ElementId::new(1), ElementId::new(2)]),
            ],
            "pair",
        )
        .unwrap();
        for sys in [
            QuorumSystem::majority(MajorityKind::FourFifths, 2).unwrap(),
            QuorumSystem::grid(4).unwrap(),
            explicit,
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let mut buf = vec![ElementId::new(99); 40];
            for _ in 0..50 {
                sys.sample_uniform_into(&mut rng, &mut buf);
                let q = Quorum::new(buf.clone());
                assert_eq!(q.as_slice(), &buf[..], "unsorted or duplicated: {buf:?}");
                assert!(sys.is_quorum(&q), "{q} not a quorum of {sys}");
            }
        }
    }

    #[test]
    fn explicit_validation() {
        let q1 = Quorum::new(vec![ElementId::new(0), ElementId::new(1)]);
        let q2 = Quorum::new(vec![ElementId::new(2)]);
        // Disjoint → invalid.
        assert!(QuorumSystem::explicit(3, vec![q1.clone(), q2], "bad").is_err());
        // Out of range → invalid.
        assert!(QuorumSystem::explicit(1, vec![q1.clone()], "bad").is_err());
        // Valid singleton-style system.
        let ok = QuorumSystem::explicit(2, vec![q1], "ok").unwrap();
        assert_eq!(ok.universe_size(), 2);
        assert_eq!(ok.quorum_count(), 1);
        assert_eq!(ok.optimal_load(), None);
    }

    #[test]
    fn grid_is_quorum_needs_full_row_and_column() {
        let g = QuorumSystem::grid(2).unwrap();
        // {0,1} is a row but no column.
        let row_only = Quorum::new(vec![ElementId::new(0), ElementId::new(1)]);
        assert!(!g.is_quorum(&row_only));
        // {0,1,2} = row 0 + column 0.
        let q = Quorum::new(vec![
            ElementId::new(0),
            ElementId::new(1),
            ElementId::new(2),
        ]);
        assert!(g.is_quorum(&q));
    }

    #[test]
    fn optimal_loads() {
        let g = QuorumSystem::grid(5).unwrap();
        assert_eq!(g.optimal_load(), Some(9.0 / 25.0));
        let m = QuorumSystem::majority(MajorityKind::SimpleMajority, 5).unwrap();
        assert_eq!(m.optimal_load(), Some(6.0 / 11.0));
    }

    #[test]
    fn labels() {
        assert_eq!(QuorumSystem::grid(5).unwrap().label(), "5x5 Grid");
        assert!(QuorumSystem::majority(MajorityKind::TwoThirds, 2)
            .unwrap()
            .label()
            .contains("t=2"));
    }
}
