//! Wide-area network topology substrate for quorum placement.
//!
//! This crate models the network exactly as the paper does (§4, "Network"):
//! an undirected graph `G = (V, E)` with a positive length per edge, which
//! induces a distance function `d : V × V → R+` via shortest paths. All
//! placement and strategy-optimization algorithms consume only the induced
//! [`DistanceMatrix`], so the crate also provides direct matrix constructors
//! for measurement-style data (complete RTT matrices), together with a
//! *metric closure* operation that repairs triangle-inequality violations the
//! way shortest-path routing would.
//!
//! Two synthetic datasets stand in for the paper's measurement data (see
//! `DESIGN.md` for the substitution argument):
//!
//! * [`datasets::planetlab_50`] — 50 wide-area sites, in the spirit of the
//!   paper's "Planetlab-50" ping dataset;
//! * [`datasets::daxlist_161`] — 161 sites, in the spirit of "daxlist-161"
//!   (King latency estimates between web servers).
//!
//! # Examples
//!
//! ```
//! use qp_topology::datasets;
//!
//! let net = datasets::planetlab_50();
//! assert_eq!(net.len(), 50);
//! // Distances are a metric: symmetric, zero diagonal, triangle inequality.
//! assert!(net.distances().is_metric(1e-9));
//! let median = net.median();
//! assert!(median.index() < 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod datasets;
mod distance;
mod error;
mod graph;
pub mod io;
mod node;

pub use analysis::{average_distances, ball, median, weighted_median};
pub use distance::DistanceMatrix;
pub use error::TopologyError;
pub use graph::{Edge, Graph};
pub use node::NodeId;

/// A wide-area network: a set of sites plus the metric of round-trip delays
/// between them.
///
/// `Network` is the type every placement algorithm consumes. It couples a
/// [`DistanceMatrix`], always a metric, with optional site labels, and
/// exposes the graph-analysis primitives the paper's algorithms need:
/// balls `B(v, n)`, the graph median, and per-node average distances.
/// Matrices from measurements or formulas ([`Network::from_distances`],
/// [`Network::with_labels`], [`io::read_matrix_file`]) are metrically
/// closed on construction. Shortest-path matrices ([`Network::from_graph`],
/// [`datasets::TransitStubConfig`]) already are the metric, and are not
/// closed again.
///
/// # Examples
///
/// ```
/// use qp_topology::{DistanceMatrix, Network};
///
/// // A 3-site triangle with one slow long-haul link.
/// let m = DistanceMatrix::from_rows(&[
///     vec![0.0, 10.0, 80.0],
///     vec![10.0, 0.0, 75.0],
///     vec![80.0, 75.0, 0.0],
/// ]).unwrap();
/// let net = Network::from_distances(m);
/// assert_eq!(net.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    dist: DistanceMatrix,
    labels: Vec<String>,
}

impl Network {
    /// Builds a network from a distance matrix, applying metric closure.
    ///
    /// Measured RTT matrices routinely violate the triangle inequality
    /// (detour routing); shortest-path semantics (the paper's `d` is a
    /// shortest-path distance) repair this, so the closure is always applied.
    pub fn from_distances(dist: DistanceMatrix) -> Self {
        let labels = site_labels(dist.len());
        Network {
            dist: dist.metric_closure(),
            labels,
        }
    }

    /// Builds a network from a sparse weighted graph via all-pairs shortest
    /// paths ([`Graph::all_pairs_shortest_paths`]).
    ///
    /// The shortest-path matrix already is the paper's metric `d`, so it is
    /// not closed again.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if some pair of nodes has no
    /// connecting path.
    pub fn from_graph(graph: &Graph) -> Result<Self, TopologyError> {
        let dist = graph.all_pairs_shortest_paths()?;
        let labels = site_labels(dist.len());
        Network::from_shortest_paths(dist, labels)
    }

    /// Builds a network from a distance matrix and per-site labels,
    /// applying metric closure as [`Network::from_distances`] does.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::LabelCount`] if `labels.len()` differs from
    /// the matrix dimension.
    pub fn with_labels(dist: DistanceMatrix, labels: Vec<String>) -> Result<Self, TopologyError> {
        // Check the labels before paying for the closure.
        let mut net = Network::from_shortest_paths(dist, labels)?;
        net.dist = net.dist.metric_closure();
        Ok(net)
    }

    /// Builds a labelled network from a shortest-path matrix, without
    /// closing it again.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::LabelCount`] if `labels.len()` differs from
    /// the matrix dimension.
    pub(crate) fn from_shortest_paths(
        dist: DistanceMatrix,
        labels: Vec<String>,
    ) -> Result<Self, TopologyError> {
        if labels.len() != dist.len() {
            return Err(TopologyError::LabelCount {
                expected: dist.len(),
                actual: labels.len(),
            });
        }
        Ok(Network { dist, labels })
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Whether the network has no sites.
    pub fn is_empty(&self) -> bool {
        self.dist.len() == 0
    }

    /// The round-trip distance between two sites, in milliseconds.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.dist.get(a, b)
    }

    /// The underlying distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// The label of a site.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(&self, v: NodeId) -> &str {
        &self.labels[v.index()]
    }

    /// Iterator over all node identifiers, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + Clone {
        (0..self.len()).map(NodeId::new)
    }

    /// The `n` sites closest to `v` (including `v` itself), i.e. the ball
    /// `B(v, n)` of §4.1.1, ordered by increasing distance from `v`.
    ///
    /// Ties are broken by node index so the result is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn ball(&self, v: NodeId, n: usize) -> Vec<NodeId> {
        ball(&self.dist, v, n)
    }

    /// The median of the graph: the node minimizing the sum of distances
    /// from all sites (all sites are clients, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn median(&self) -> NodeId {
        median(&self.dist)
    }

    /// Average distance from every node to all nodes of the graph
    /// (`s_i` in §7's non-uniform capacity heuristic).
    pub fn average_distances(&self) -> Vec<f64> {
        average_distances(&self.dist)
    }
}

/// The default labels `site-0`, `site-1`, ….
fn site_labels(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("site-{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Network {
        // 0 --10-- 1 --20-- 2
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1), 10.0).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 20.0).unwrap();
        Network::from_graph(&g).unwrap()
    }

    #[test]
    fn from_graph_computes_shortest_paths() {
        let net = line3();
        assert_eq!(net.distance(NodeId::new(0), NodeId::new(2)), 30.0);
        assert_eq!(net.distance(NodeId::new(2), NodeId::new(0)), 30.0);
        assert_eq!(net.distance(NodeId::new(1), NodeId::new(1)), 0.0);
    }

    #[test]
    fn from_distances_applies_metric_closure() {
        // Direct 0-2 edge (100) is slower than the 0-1-2 detour (30).
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 10.0, 100.0],
            vec![10.0, 0.0, 20.0],
            vec![100.0, 20.0, 0.0],
        ])
        .unwrap();
        let net = Network::from_distances(m);
        assert_eq!(net.distance(NodeId::new(0), NodeId::new(2)), 30.0);
    }

    #[test]
    fn ball_orders_by_distance() {
        let net = line3();
        assert_eq!(
            net.ball(NodeId::new(2), 2),
            vec![NodeId::new(2), NodeId::new(1)]
        );
        assert_eq!(
            net.ball(NodeId::new(0), 3),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn median_of_line_is_middle() {
        let net = line3();
        assert_eq!(net.median(), NodeId::new(1));
    }

    #[test]
    fn with_labels_checks_count() {
        let m = DistanceMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let err = Network::with_labels(m, vec!["a".into()]).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::LabelCount {
                expected: 2,
                actual: 1
            }
        ));
    }
}
