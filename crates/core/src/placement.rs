//! Placements of a logical universe onto network nodes.

use std::fmt;

use qp_quorum::{ElementId, Quorum};
use qp_topology::NodeId;

use crate::CoreError;

/// A quorum placement `f : U → V` (§4, "Quorum placement"): which network
/// node hosts each logical universe element.
///
/// A placement may be **one-to-one** (distinct nodes per element, preserving
/// fault tolerance) or **many-to-one** (elements co-located, reducing
/// network delay at the cost of fault independence) — the central trade-off
/// of §4.1.
///
/// # Examples
///
/// ```
/// use qp_core::Placement;
/// use qp_topology::NodeId;
///
/// // Three elements on two nodes: many-to-one.
/// let f = Placement::new(
///     vec![NodeId::new(0), NodeId::new(1), NodeId::new(0)],
///     2,
/// )?;
/// assert!(!f.is_one_to_one());
/// assert_eq!(f.support_set(), vec![NodeId::new(0), NodeId::new(1)]);
/// # Ok::<(), qp_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignment: Vec<NodeId>,
    num_nodes: usize,
}

impl Placement {
    /// Creates a placement from the per-element host list; `assignment[u]`
    /// is the node hosting element `u`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if the universe is empty or a node index
    /// is out of range for a network of `num_nodes` nodes.
    pub fn new(assignment: Vec<NodeId>, num_nodes: usize) -> Result<Self, CoreError> {
        if assignment.is_empty() {
            return Err(CoreError::SizeMismatch {
                reason: "placement of an empty universe".to_string(),
            });
        }
        if let Some(&bad) = assignment.iter().find(|v| v.index() >= num_nodes) {
            return Err(CoreError::SizeMismatch {
                reason: format!("node {bad} out of range for {num_nodes} nodes"),
            });
        }
        Ok(Placement {
            assignment,
            num_nodes,
        })
    }

    /// Number of universe elements.
    pub fn universe_size(&self) -> usize {
        self.assignment.len()
    }

    /// Number of nodes in the target network.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node hosting element `u` — the paper's `f(u)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_of(&self, u: ElementId) -> NodeId {
        self.assignment[u.index()]
    }

    /// The host list, indexed by element.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.assignment
    }

    /// The nodes of the quorum's image `f(Q)`, deduplicated, sorted.
    pub fn quorum_nodes(&self, q: &Quorum) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = q.iter().map(|u| self.node_of(u)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The support set `f(U)`: all nodes hosting at least one element,
    /// sorted.
    pub fn support_set(&self) -> Vec<NodeId> {
        let mut nodes = self.assignment.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Whether no two elements share a node.
    pub fn is_one_to_one(&self) -> bool {
        self.support_set().len() == self.assignment.len()
    }

    /// How many elements each node hosts (length = `num_nodes`).
    pub fn element_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_nodes];
        for v in &self.assignment {
            counts[v.index()] += 1;
        }
        counts
    }

    /// Aggregates per-element loads into per-node loads:
    /// `load_f(w) = Σ_{u : f(u) = w} load(u)` (§4, "Load").
    ///
    /// # Panics
    ///
    /// Panics if `element_loads.len() != self.universe_size()`.
    pub fn node_loads(&self, element_loads: &[f64]) -> Vec<f64> {
        assert_eq!(
            element_loads.len(),
            self.assignment.len(),
            "one load per universe element required"
        );
        let mut loads = vec![0.0; self.num_nodes];
        for (u, v) in self.assignment.iter().enumerate() {
            loads[v.index()] += element_loads[u];
        }
        loads
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (u, v) in self.assignment.iter().enumerate() {
            if u > 0 {
                write!(f, ", ")?;
            }
            write!(f, "u{u}→{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(hosts: &[usize], n: usize) -> Placement {
        Placement::new(hosts.iter().map(|&i| NodeId::new(i)).collect(), n).unwrap()
    }

    #[test]
    fn validates_range() {
        let err = Placement::new(vec![NodeId::new(5)], 3).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
        let err = Placement::new(vec![], 3).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
    }

    #[test]
    fn one_to_one_detection() {
        assert!(p(&[0, 1, 2], 3).is_one_to_one());
        assert!(!p(&[0, 1, 0], 3).is_one_to_one());
    }

    #[test]
    fn support_and_counts() {
        let f = p(&[2, 2, 0], 4);
        assert_eq!(f.support_set(), vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(f.element_counts(), vec![1, 0, 2, 0]);
    }

    #[test]
    fn quorum_nodes_dedups() {
        let f = p(&[1, 1, 0], 2);
        let q = Quorum::new(vec![ElementId::new(0), ElementId::new(1)]);
        assert_eq!(f.quorum_nodes(&q), vec![NodeId::new(1)]);
    }

    #[test]
    fn node_loads_aggregate() {
        let f = p(&[0, 0, 1], 2);
        assert_eq!(f.node_loads(&[0.25, 0.5, 1.0]), vec![0.75, 1.0]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(p(&[1, 0], 2).to_string(), "[u0→v1, u1→v0]");
    }
}
