//! Access strategies: per-client distributions over an enumerated quorum
//! list, and the element loads they induce.

use crate::{Quorum, QuorumError};

/// A matrix of access strategies: one probability distribution over the
/// quorums `Q₁ … Q_m` per client (§4, "Load": `p_v`).
///
/// The matrix is tied to a specific *enumerated* quorum list by column
/// count; the list itself is passed to the methods that need set structure.
///
/// # Examples
///
/// ```
/// use qp_quorum::{QuorumSystem, StrategyMatrix};
///
/// let grid = QuorumSystem::grid(2)?;
/// let quorums = grid.enumerate(16)?;
/// // Three clients, all accessing uniformly ("balanced").
/// let s = StrategyMatrix::uniform(3, quorums.len());
/// let loads = s.element_loads(&quorums, grid.universe_size());
/// // Every grid element is in 2k−1 = 3 of the 4 quorums → load 3/4.
/// assert!(loads.iter().all(|&l| (l - 0.75).abs() < 1e-12));
/// # Ok::<(), qp_quorum::QuorumError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyMatrix {
    num_quorums: usize,
    rows: Vec<Vec<f64>>,
}

impl StrategyMatrix {
    /// The *balanced* strategy: every client samples uniformly from all
    /// `num_quorums` quorums.
    ///
    /// # Panics
    ///
    /// Panics if `num_quorums == 0`.
    pub fn uniform(num_clients: usize, num_quorums: usize) -> Self {
        assert!(num_quorums > 0, "cannot build a strategy over zero quorums");
        let p = 1.0 / num_quorums as f64;
        StrategyMatrix {
            num_quorums,
            rows: vec![vec![p; num_quorums]; num_clients],
        }
    }

    /// A deterministic strategy: client `v` always accesses quorum
    /// `choice[v]` (e.g. the *closest* strategy of §6).
    ///
    /// # Panics
    ///
    /// Panics if any choice index is out of range or `num_quorums == 0`.
    pub fn deterministic(choices: &[usize], num_quorums: usize) -> Self {
        assert!(num_quorums > 0, "cannot build a strategy over zero quorums");
        let rows = choices
            .iter()
            .map(|&c| {
                assert!(c < num_quorums, "quorum choice {c} out of range");
                let mut row = vec![0.0; num_quorums];
                row[c] = 1.0;
                row
            })
            .collect();
        StrategyMatrix { num_quorums, rows }
    }

    /// Builds a strategy from explicit probability rows.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::ShapeMismatch`] if rows have differing lengths.
    /// * [`QuorumError::InvalidDistribution`] if a row has a negative entry
    ///   or does not sum to 1 within `1e-6`.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, QuorumError> {
        let num_quorums = rows.first().map_or(0, Vec::len);
        for (v, row) in rows.iter().enumerate() {
            if row.len() != num_quorums {
                return Err(QuorumError::ShapeMismatch {
                    expected: num_quorums,
                    actual: row.len(),
                });
            }
            let sum: f64 = row.iter().sum();
            if row.iter().any(|&p| p.is_nan() || p < -1e-9) || (sum - 1.0).abs() > 1e-6 {
                return Err(QuorumError::InvalidDistribution { client: v, sum });
            }
        }
        Ok(StrategyMatrix { num_quorums, rows })
    }

    /// Number of clients (rows).
    pub fn num_clients(&self) -> usize {
        self.rows.len()
    }

    /// Number of quorums (columns).
    pub fn num_quorums(&self) -> usize {
        self.num_quorums
    }

    /// The probability that client `v` accesses quorum `i`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `i` is out of range.
    pub fn prob(&self, v: usize, i: usize) -> f64 {
        assert!(i < self.num_quorums, "quorum index out of range");
        self.rows[v][i]
    }

    /// The full distribution of client `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn row(&self, v: usize) -> &[f64] {
        &self.rows[v]
    }

    /// The average strategy `p(Q) = avg_v p_v(Q)` (used by the iterative
    /// algorithm of §4.2).
    ///
    /// # Panics
    ///
    /// Panics if there are no clients.
    pub fn average(&self) -> Vec<f64> {
        assert!(!self.rows.is_empty(), "no clients");
        let mut avg = vec![0.0; self.num_quorums];
        for row in &self.rows {
            for (a, p) in avg.iter_mut().zip(row) {
                *a += p;
            }
        }
        let inv = 1.0 / self.rows.len() as f64;
        for a in &mut avg {
            *a *= inv;
        }
        avg
    }

    /// Per-element loads averaged over all clients:
    /// `load(u) = avg_v Σ_{Q ∋ u} p_v(Q)`.
    ///
    /// # Panics
    ///
    /// Panics if there are no clients or `quorums.len()` mismatches the
    /// matrix.
    pub fn element_loads(&self, quorums: &[Quorum], universe: usize) -> Vec<f64> {
        assert!(!self.rows.is_empty(), "no clients");
        assert_eq!(quorums.len(), self.num_quorums, "quorum list mismatch");
        let mut load = vec![0.0; universe];
        for row in &self.rows {
            for (q, &p) in quorums.iter().zip(row) {
                if p > 0.0 {
                    for u in q.iter() {
                        load[u.index()] += p;
                    }
                }
            }
        }
        let inv = 1.0 / self.rows.len() as f64;
        for l in &mut load {
            *l *= inv;
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuorumSystem;

    fn grid2() -> (QuorumSystem, Vec<Quorum>) {
        let g = QuorumSystem::grid(2).unwrap();
        let qs = g.enumerate(16).unwrap();
        (g, qs)
    }

    #[test]
    fn uniform_rows_sum_to_one() {
        let s = StrategyMatrix::uniform(4, 5);
        for v in 0..4 {
            let sum: f64 = s.row(v).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deterministic_is_indicator() {
        let s = StrategyMatrix::deterministic(&[2, 0], 3);
        assert_eq!(s.prob(0, 2), 1.0);
        assert_eq!(s.prob(0, 0), 0.0);
        assert_eq!(s.prob(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn deterministic_checks_range() {
        let _ = StrategyMatrix::deterministic(&[3], 3);
    }

    #[test]
    fn from_rows_validates() {
        assert!(StrategyMatrix::from_rows(vec![vec![0.5, 0.5], vec![1.0]]).is_err());
        assert!(StrategyMatrix::from_rows(vec![vec![0.7, 0.7]]).is_err());
        assert!(StrategyMatrix::from_rows(vec![vec![-0.2, 1.2]]).is_err());
        assert!(StrategyMatrix::from_rows(vec![vec![0.25; 4]]).is_ok());
    }

    #[test]
    fn element_loads_grid_uniform() {
        let (g, qs) = grid2();
        let s = StrategyMatrix::uniform(3, qs.len());
        let loads = s.element_loads(&qs, g.universe_size());
        // Each element appears in 2k−1 = 3 of 4 quorums.
        for l in loads {
            assert!((l - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn client_loads_deterministic() {
        let (g, qs) = grid2();
        // Client always uses quorum 0 = row 0 ∪ col 0 = {0,1,2}.
        let s = StrategyMatrix::deterministic(&[0], qs.len());
        let loads = s.element_loads(&qs, g.universe_size());
        assert_eq!(loads, vec![1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn average_strategy() {
        let s = StrategyMatrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(s.average(), vec![0.5, 0.5]);
    }
}
