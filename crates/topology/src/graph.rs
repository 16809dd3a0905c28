//! Sparse undirected weighted graphs and shortest paths.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{DistanceMatrix, NodeId, TopologyError};

/// An undirected edge with a positive length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Positive, finite edge length (milliseconds of round-trip delay).
    pub length: f64,
}

/// A sparse undirected graph with positive edge lengths, the `G = (V, E)` of
/// the paper's network model (§4).
///
/// Use [`Graph::all_pairs_shortest_paths`] to derive the induced distance
/// function `d`, or go straight to [`crate::Network::from_graph`].
///
/// # Examples
///
/// ```
/// use qp_topology::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1), 10.0)?;
/// g.add_edge(NodeId::new(1), NodeId::new(2), 5.0)?;
/// let d = g.all_pairs_shortest_paths()?;
/// assert_eq!(d.get(NodeId::new(0), NodeId::new(2)), 15.0);
/// # Ok::<(), qp_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<(usize, f64)>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The edges added so far, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an undirected edge.
    ///
    /// Parallel edges are permitted; shortest-path routines simply use the
    /// cheaper one.
    ///
    /// # Errors
    ///
    /// * [`TopologyError::NodeOutOfRange`] if an endpoint is not a node.
    /// * [`TopologyError::InvalidEdgeLength`] if `length` is not positive
    ///   and finite.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, length: f64) -> Result<(), TopologyError> {
        for &v in &[a, b] {
            if v.index() >= self.n {
                return Err(TopologyError::NodeOutOfRange {
                    node: v,
                    len: self.n,
                });
            }
        }
        if !length.is_finite() || length <= 0.0 {
            return Err(TopologyError::InvalidEdgeLength { length });
        }
        self.adj[a.index()].push((b.index(), length));
        self.adj[b.index()].push((a.index(), length));
        self.edges.push(Edge { a, b, length });
        Ok(())
    }

    /// All-pairs shortest-path distances, as a [`DistanceMatrix`].
    ///
    /// Runs Dijkstra from every node into the rows of one flat `n × n`
    /// buffer, reusing a single heap: `O(|V| · |E| log |V|)`, better than
    /// Floyd–Warshall on the sparse graphs this crate builds. The two
    /// directions of a pair add the same lengths in different orders, so
    /// they can differ by ulps; each pair gets `0.5 · (d[i][j] + d[j][i])`,
    /// which is exact where both directions agree.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if any pair is unreachable.
    pub fn all_pairs_shortest_paths(&self) -> Result<DistanceMatrix, TopologyError> {
        let n = self.n;
        let mut data = vec![f64::INFINITY; n * n];
        let mut heap = BinaryHeap::new();
        for (src, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
            self.dijkstra(src, row, &mut heap);
            if row.iter().any(|d| !d.is_finite()) {
                return Err(TopologyError::Disconnected);
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let d = 0.5 * (data[i * n + j] + data[j * n + i]);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix::from_flat(n, data)
    }

    /// Dijkstra from `src` into `dist`, which must hold `f64::INFINITY`
    /// everywhere on entry. Leaves `heap` empty.
    fn dijkstra(&self, src: usize, dist: &mut [f64], heap: &mut BinaryHeap<HeapItem>) {
        dist[src] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(HeapItem { dist: nd, node: v });
                }
            }
        }
    }
}

/// Min-heap item for Dijkstra (BinaryHeap is a max-heap, so order is
/// reversed).
#[derive(Debug, Clone, Copy)]
struct HeapItem {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance for min-heap behaviour; distances are finite
        // by construction (edge lengths are validated), so total order is
        // safe here.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(5), 1.0),
            Err(TopologyError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(1), 0.0),
            Err(TopologyError::InvalidEdgeLength { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId::new(0), NodeId::new(1), f64::NAN),
            Err(TopologyError::InvalidEdgeLength { .. })
        ));
    }

    #[test]
    fn dijkstra_on_square_with_diagonal() {
        // 0-1:1, 1-3:1, 0-2:4, 2-3:1, 0-3:5 (direct edge is longer)
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3), 1.0).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2), 4.0).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 1.0).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(3), 5.0).unwrap();
        let d = g.all_pairs_shortest_paths().unwrap();
        assert_eq!(d.row(NodeId::new(0)), &[0.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn disconnected_graph_reports_error() {
        let g = Graph::new(2);
        assert!(matches!(
            g.all_pairs_shortest_paths(),
            Err(TopologyError::Disconnected)
        ));
    }

    #[test]
    fn parallel_edges_use_cheaper() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId::new(0), NodeId::new(1), 9.0).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(1), 2.0).unwrap();
        let d = g.all_pairs_shortest_paths().unwrap();
        assert_eq!(d.get(NodeId::new(0), NodeId::new(1)), 2.0);
    }

    #[test]
    fn apsp_symmetrizes_float_path_lengths() {
        // The two Dijkstra directions sum 0.1 + 0.2 + 0.3 in opposite
        // orders (0.6000000000000001 one way, 0.6 the other).
        let mut g = Graph::new(4);
        for (i, &l) in [0.1, 0.2, 0.3].iter().enumerate() {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1), l).unwrap();
        }
        let d = g.all_pairs_shortest_paths().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(d.get(a, b), d.get(b, a));
            }
        }
        assert!((d.get(NodeId::new(0), NodeId::new(3)) - 0.6).abs() < 1e-15);
        assert!(d.is_metric(1e-12));
        let net = crate::Network::from_graph(&g).unwrap();
        assert_eq!(net.distances(), &d);
    }

    #[test]
    fn apsp_is_symmetric_metric() {
        let mut g = Graph::new(5);
        let lens = [3.0, 1.0, 4.0, 1.0, 5.0];
        for (i, &l) in lens.iter().enumerate() {
            g.add_edge(NodeId::new(i), NodeId::new((i + 1) % 5), l)
                .unwrap();
        }
        let d = g.all_pairs_shortest_paths().unwrap();
        assert!(d.is_metric(1e-12));
    }
}
