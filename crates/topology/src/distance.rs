//! Symmetric distance matrices and metric closure.

use crate::{NodeId, TopologyError};

/// A symmetric matrix of pairwise round-trip distances (milliseconds).
///
/// Storage is a flat row-major `Vec<f64>`; symmetry and a zero diagonal are
/// enforced at construction. A `DistanceMatrix` need not satisfy the
/// triangle inequality — call [`DistanceMatrix::metric_closure`] to obtain
/// the shortest-path metric it induces (this is what
/// [`crate::Network::from_distances`] and [`crate::Network::with_labels`]
/// do automatically).
///
/// # Examples
///
/// ```
/// use qp_topology::{DistanceMatrix, NodeId};
///
/// let m = DistanceMatrix::from_rows(&[
///     vec![0.0, 5.0],
///     vec![5.0, 0.0],
/// ])?;
/// assert_eq!(m.get(NodeId::new(0), NodeId::new(1)), 5.0);
/// # Ok::<(), qp_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds a matrix from full rows.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NotSquare`] if the rows do not form an `n × n`
    ///   matrix.
    /// * [`TopologyError::InvalidDistance`] if an entry is negative, NaN, or
    ///   infinite.
    /// * [`TopologyError::NonzeroDiagonal`] if a diagonal entry is nonzero.
    /// * [`TopologyError::Asymmetric`] if `m[i][j] != m[j][i]`.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, TopologyError> {
        let n = rows.len();
        for row in rows {
            if row.len() != n {
                return Err(TopologyError::NotSquare {
                    rows: n,
                    row_len: row.len(),
                });
            }
        }
        DistanceMatrix::from_flat(n, rows.iter().flatten().copied().collect())
    }

    /// Builds a matrix from `n × n` row-major entries, making every check
    /// [`DistanceMatrix::from_rows`] makes after its shape check, in the
    /// same order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * n`.
    pub(crate) fn from_flat(n: usize, data: Vec<f64>) -> Result<Self, TopologyError> {
        assert_eq!(data.len(), n * n, "flat matrix must hold n * n entries");
        for i in 0..n {
            for j in 0..n {
                let x = data[i * n + j];
                if !x.is_finite() || x < 0.0 {
                    return Err(TopologyError::InvalidDistance {
                        from: i,
                        to: j,
                        value: x,
                    });
                }
                if i == j && x != 0.0 {
                    return Err(TopologyError::NonzeroDiagonal { node: i, value: x });
                }
                if data[j * n + i] != x {
                    return Err(TopologyError::Asymmetric { from: i, to: j });
                }
            }
        }
        Ok(DistanceMatrix { n, data })
    }

    /// Builds a matrix from the strictly-upper-triangular entries, row by
    /// row: `(0,1), (0,2), …, (0,n-1), (1,2), …`.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NotSquare`] if `upper.len() != n(n-1)/2`.
    /// * [`TopologyError::InvalidDistance`] if an entry is negative, NaN, or
    ///   infinite.
    pub fn from_upper_triangle(n: usize, upper: &[f64]) -> Result<Self, TopologyError> {
        let expected = n * n.saturating_sub(1) / 2;
        if upper.len() != expected {
            return Err(TopologyError::NotSquare {
                rows: n,
                row_len: upper.len(),
            });
        }
        let mut data = vec![0.0; n * n];
        let mut it = upper.iter();
        for i in 0..n {
            for j in (i + 1)..n {
                let &x = it.next().expect("length checked above");
                if !x.is_finite() || x < 0.0 {
                    return Err(TopologyError::InvalidDistance {
                        from: i,
                        to: j,
                        value: x,
                    });
                }
                data[i * n + j] = x;
                data[j * n + i] = x;
            }
        }
        Ok(DistanceMatrix { n, data })
    }

    /// The dimension (number of sites).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is 0×0.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distance between two sites.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> f64 {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "node out of range"
        );
        self.data[a.index() * self.n + b.index()]
    }

    /// A full row of the matrix: distances from `a` to every site.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    pub fn row(&self, a: NodeId) -> &[f64] {
        assert!(a.index() < self.n, "node out of range");
        &self.data[a.index() * self.n..(a.index() + 1) * self.n]
    }

    /// The shortest-path metric induced by this matrix (Floyd–Warshall over
    /// the complete graph whose edge lengths are the entries).
    ///
    /// The result satisfies the triangle inequality and is no larger than
    /// the input anywhere. Idempotent: closing a metric returns it
    /// unchanged.
    pub fn metric_closure(&self) -> DistanceMatrix {
        let n = self.n;
        let mut d = self.data.clone();
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                for j in 0..n {
                    let via = dik + d[k * n + j];
                    if via < d[i * n + j] {
                        d[i * n + j] = via;
                    }
                }
            }
        }
        DistanceMatrix { n, data: d }
    }

    /// Checks symmetry, zero diagonal, and the triangle inequality up to an
    /// additive tolerance `tol`.
    pub fn is_metric(&self, tol: f64) -> bool {
        let n = self.n;
        for i in 0..n {
            if self.data[i * n + i] != 0.0 {
                return false;
            }
            for j in 0..n {
                if self.data[i * n + j] != self.data[j * n + i] {
                    return false;
                }
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = self.data[i * n + k];
                for j in 0..n {
                    if self.data[i * n + j] > dik + self.data[k * n + j] + tol {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// The largest entry of the matrix (0 for an empty matrix).
    pub fn max_distance(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// The mean of all off-diagonal entries (0 when `n < 2`).
    pub fn mean_distance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let sum: f64 = self.data.iter().sum();
        sum / (self.n * (self.n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates_shape() {
        let err = DistanceMatrix::from_rows(&[vec![0.0, 1.0]]).unwrap_err();
        assert!(matches!(err, TopologyError::NotSquare { .. }));
    }

    #[test]
    fn from_rows_validates_symmetry() {
        let err = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap_err();
        assert!(matches!(err, TopologyError::Asymmetric { .. }));
    }

    #[test]
    fn from_rows_validates_diagonal() {
        let err = DistanceMatrix::from_rows(&[vec![1.0]]).unwrap_err();
        assert!(matches!(err, TopologyError::NonzeroDiagonal { .. }));
    }

    #[test]
    fn from_rows_rejects_nan() {
        let err =
            DistanceMatrix::from_rows(&[vec![0.0, f64::NAN], vec![f64::NAN, 0.0]]).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidDistance { .. }));
    }

    #[test]
    fn from_upper_triangle_matches_from_rows() {
        let a = DistanceMatrix::from_upper_triangle(3, &[1.0, 2.0, 3.0]).unwrap();
        let b = DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 2.0],
            vec![1.0, 0.0, 3.0],
            vec![2.0, 3.0, 0.0],
        ])
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_upper_triangle_checks_length() {
        let err = DistanceMatrix::from_upper_triangle(3, &[1.0]).unwrap_err();
        assert!(matches!(err, TopologyError::NotSquare { .. }));
    }

    #[test]
    fn metric_closure_fixes_violation() {
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 1.0, 10.0],
            vec![1.0, 0.0, 1.0],
            vec![10.0, 1.0, 0.0],
        ])
        .unwrap();
        assert!(!m.is_metric(1e-12));
        let c = m.metric_closure();
        assert!(c.is_metric(1e-12));
        assert_eq!(c.get(NodeId::new(0), NodeId::new(2)), 2.0);
    }

    #[test]
    fn metric_closure_is_idempotent() {
        let m = DistanceMatrix::from_upper_triangle(4, &[3.0, 9.0, 1.0, 5.0, 2.0, 8.0])
            .unwrap()
            .metric_closure();
        assert_eq!(m, m.metric_closure());
    }

    #[test]
    fn row_matches_get() {
        let m = DistanceMatrix::from_upper_triangle(3, &[1.0, 2.0, 3.0]).unwrap();
        let r = m.row(NodeId::new(1));
        assert_eq!(r, &[1.0, 0.0, 3.0]);
    }

    #[test]
    fn summary_statistics() {
        let m = DistanceMatrix::from_upper_triangle(3, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.max_distance(), 3.0);
        assert!((m.mean_distance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = DistanceMatrix::from_rows(&[]).unwrap();
        assert!(m.is_empty());
        assert!(m.is_metric(0.0));
        assert_eq!(m.mean_distance(), 0.0);
    }
}
