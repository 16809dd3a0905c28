//! The cached evaluation layer: [`EvalContext`] and [`PlacedQuorums`].
//!
//! The figure pipelines of §6–§7 are (universe × capacity × demand)
//! sweeps in which every cell historically re-derived the same
//! intermediates from scratch: `net.ball` re-sorted a distance row per
//! anchor, every LP solve of a capacity sweep recomputed the full
//! `δ_f(v, Qᵢ)` delay matrix, and every deduplicated-execution
//! evaluation re-sorted each quorum's host set per client. This module
//! hoists those intermediates into two cache objects:
//!
//! * [`EvalContext`] — per **(network, client set)**: lazily-built sorted
//!   distance permutations per node (the exact order [`Network::ball`]
//!   produces), shared by every placement construction and anchor
//!   search that uses the context.
//! * [`PlacedQuorums`] — per **(context, placement, enumerated quorum
//!   list)**: each quorum's host nodes (in element order), its
//!   deduplicated host set, per-node element counts, and the memoized
//!   `δ_f(v, Qᵢ)` network-delay matrix that both the strategy LP
//!   objective and Eq. (4.2) evaluation consume.
//!
//! Every cached value is computed by the **same arithmetic in the same
//! order** as the uncached code paths it replaces, so cached and
//! uncached evaluations are bit-for-bit identical — the
//! scenario-regression goldens pin this.
//!
//! # Examples
//!
//! ```
//! use qp_core::eval::EvalContext;
//! use qp_core::{one_to_one, response, ResponseModel};
//! use qp_quorum::{QuorumSystem, StrategyMatrix};
//! use qp_topology::datasets;
//!
//! let net = datasets::planetlab_50();
//! let clients: Vec<_> = net.nodes().collect();
//! let ctx = EvalContext::new(&net, &clients);
//! let sys = QuorumSystem::grid(3)?;
//! let placement = one_to_one::best_placement_ctx(&ctx, &sys)?;
//! let quorums = sys.enumerate(100)?;
//! // Bind once, evaluate many strategies without recomputing delays.
//! let pq = ctx.place(&placement, &quorums);
//! let uniform = StrategyMatrix::uniform(clients.len(), quorums.len());
//! let eval = response::evaluate_matrix_placed(&pq, &uniform, ResponseModel::network_delay_only())?;
//! assert!(eval.avg_network_delay_ms > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::OnceLock;

use qp_quorum::Quorum;
use qp_topology::{Network, NodeId};

use crate::Placement;

/// Per-(network, client-set) evaluation caches. See the [module
/// docs](self).
///
/// Cheap to construct — all caches fill lazily on first use — and
/// `Sync`, so one context can be shared by every worker of a parallel
/// sweep.
#[derive(Debug)]
pub struct EvalContext<'a> {
    net: &'a Network,
    clients: &'a [NodeId],
    /// `sorted_nodes[v]` = all node indices ordered by (distance from
    /// `v`, node index) — the full-ball permutation of `analysis::ball`.
    sorted_nodes: OnceLock<Vec<Vec<NodeId>>>,
}

impl<'a> EvalContext<'a> {
    /// A context for evaluating deployments of `net` against `clients`.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty ("at least one client required", the
    /// same contract as the evaluation entry points).
    pub fn new(net: &'a Network, clients: &'a [NodeId]) -> Self {
        assert!(!clients.is_empty(), "at least one client required");
        EvalContext {
            net,
            clients,
            sorted_nodes: OnceLock::new(),
        }
    }

    /// The network under evaluation.
    pub fn net(&self) -> &'a Network {
        self.net
    }

    /// The client set (evaluation rows are in this order).
    pub fn clients(&self) -> &'a [NodeId] {
        self.clients
    }

    fn sorted_nodes(&self) -> &Vec<Vec<NodeId>> {
        self.sorted_nodes.get_or_init(|| {
            let n = self.net.len();
            (0..n)
                .map(|v| {
                    let row = self.net.distances().row(NodeId::new(v));
                    let mut order: Vec<usize> = (0..n).collect();
                    // The exact comparator of `analysis::ball`: distance,
                    // ties by node index — cached prefixes must equal
                    // `net.ball(v, n)` verbatim.
                    order.sort_by(|&a, &b| {
                        row[a]
                            .partial_cmp(&row[b])
                            .expect("distances are finite")
                            .then_with(|| a.cmp(&b))
                    });
                    order.into_iter().map(NodeId::new).collect()
                })
                .collect()
        })
    }

    /// The ball `B(v, n)` — identical to [`Network::ball`] but served
    /// from the cached full permutation, so repeated calls (the anchor
    /// search asks for a ball per anchor per universe size) cost `O(n)`
    /// instead of `O(n log n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the node count or `v` is out of range.
    pub fn ball(&self, v: NodeId, n: usize) -> Vec<NodeId> {
        assert!(
            n <= self.net.len(),
            "ball size {n} exceeds node count {}",
            self.net.len()
        );
        self.sorted_nodes()[v.index()][..n].to_vec()
    }

    /// Binds a placement and an enumerated quorum list to this context,
    /// precomputing the per-quorum host geometry and the `δ_f(v, Qᵢ)`
    /// delay matrix shared by LP construction and strategy evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the placement targets a different network size.
    pub fn place<'b>(&'b self, placement: &'b Placement, quorums: &'b [Quorum]) -> PlacedQuorums<'b>
    where
        'a: 'b,
    {
        assert_eq!(
            placement.num_nodes(),
            self.net.len(),
            "placement and network disagree on node count"
        );
        let hosts: Vec<Vec<NodeId>> = quorums
            .iter()
            .map(|q| q.iter().map(|u| placement.node_of(u)).collect())
            .collect();
        // δ_f(v, Qᵢ): the same `fold(f64::MIN, f64::max)` over the same
        // element order as `response::delta`. Eager — every consumer
        // (LP objective, Eq. 4.2 evaluation) reads it.
        let delta: Vec<Vec<f64>> = self
            .clients
            .iter()
            .map(|&v| {
                hosts
                    .iter()
                    .map(|h| {
                        h.iter()
                            .map(|&w| self.net.distance(v, w))
                            .fold(f64::MIN, f64::max)
                    })
                    .collect()
            })
            .collect();
        PlacedQuorums {
            ctx: self,
            placement,
            quorums,
            hosts,
            unique_hosts: OnceLock::new(),
            node_counts: OnceLock::new(),
            delta,
        }
    }
}

/// A placement and enumerated quorum list bound to an [`EvalContext`],
/// with the derived geometry memoized. See the [module docs](self).
#[derive(Debug)]
pub struct PlacedQuorums<'b> {
    ctx: &'b EvalContext<'b>,
    placement: &'b Placement,
    quorums: &'b [Quorum],
    hosts: Vec<Vec<NodeId>>,
    // Lazy: only the LP path reads counts and only the §8 dedup path
    // reads unique hosts, so one-shot evaluations through the legacy
    // wrappers never pay for them.
    unique_hosts: OnceLock<Vec<Vec<NodeId>>>,
    node_counts: OnceLock<Vec<Vec<(usize, f64)>>>,
    delta: Vec<Vec<f64>>,
}

impl<'b> PlacedQuorums<'b> {
    /// The owning context.
    pub fn ctx(&self) -> &'b EvalContext<'b> {
        self.ctx
    }

    /// The bound placement.
    pub fn placement(&self) -> &'b Placement {
        self.placement
    }

    /// The bound quorum list.
    pub fn quorums(&self) -> &'b [Quorum] {
        self.quorums
    }

    /// Number of quorums bound.
    pub fn num_quorums(&self) -> usize {
        self.quorums.len()
    }

    /// Quorum `i`'s host nodes in **element order** (`f(u)` for each
    /// `u ∈ Qᵢ`, repeats included) — the iteration order of Eq. (4.1).
    pub fn hosts(&self, i: usize) -> &[NodeId] {
        &self.hosts[i]
    }

    fn unique_hosts_all(&self) -> &Vec<Vec<NodeId>> {
        // `Placement::quorum_nodes` verbatim: sorted, deduplicated.
        self.unique_hosts.get_or_init(|| {
            self.hosts
                .iter()
                .map(|h| {
                    let mut nodes = h.clone();
                    nodes.sort_unstable();
                    nodes.dedup();
                    nodes
                })
                .collect()
        })
    }

    /// Quorum `i`'s host node set, sorted and deduplicated — exactly
    /// [`Placement::quorum_nodes`].
    pub fn unique_hosts(&self, i: usize) -> &[NodeId] {
        &self.unique_hosts_all()[i]
    }

    /// `(node index, element count)` pairs for quorum `i`, sorted by
    /// node — the capacity-row coefficients of LP (4.4).
    pub fn node_counts(&self, i: usize) -> &[(usize, f64)] {
        // Binary-search inserts keep each list sorted by node as it grows.
        let counts = self.node_counts.get_or_init(|| {
            self.hosts
                .iter()
                .map(|h| {
                    let mut counts: Vec<(usize, f64)> = Vec::new();
                    for w in h {
                        let w = w.index();
                        match counts.binary_search_by_key(&w, |&(i, _)| i) {
                            Ok(pos) => counts[pos].1 += 1.0,
                            Err(pos) => counts.insert(pos, (w, 1.0)),
                        }
                    }
                    counts
                })
                .collect()
        });
        &counts[i]
    }

    /// The memoized network delay `δ_f(clients[row], Qᵢ)`.
    pub fn delta(&self, row: usize, i: usize) -> f64 {
        self.delta[row][i]
    }

    /// `ρ_f(clients[row], Qᵢ)` (Eq. 4.1) given precomputed node loads —
    /// the cached-host equivalent of `response::rho`, iterating the same
    /// element order.
    pub fn rho(&self, row: usize, i: usize, alpha: f64, node_loads: &[f64]) -> f64 {
        let v = self.ctx.clients[row];
        self.hosts[i]
            .iter()
            .map(|&w| self.ctx.net.distance(v, w) + alpha * node_loads[w.index()])
            .fold(f64::MIN, f64::max)
    }

    /// Memoized `load_f` aggregation for a strategy given per-row quorum
    /// probabilities under **deduplicated execution** (§8 variant): each
    /// access loads every *touched node* once. Uses the cached
    /// deduplicated host sets instead of re-sorting per (client, quorum).
    pub fn dedup_node_loads(&self, prob: impl Fn(usize, usize) -> f64, rows: usize) -> Vec<f64> {
        let unique_hosts = self.unique_hosts_all();
        let inv = 1.0 / rows as f64;
        let mut loads = vec![0.0; self.placement.num_nodes()];
        for row in 0..rows {
            for (i, hosts) in unique_hosts.iter().enumerate() {
                let p = prob(row, i);
                if p > 0.0 {
                    for w in hosts {
                        loads[w.index()] += p * inv;
                    }
                }
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::{evaluate_matrix, evaluate_matrix_placed, ResponseModel};
    use qp_quorum::{QuorumSystem, StrategyMatrix};
    use qp_topology::datasets;

    #[test]
    fn cached_ball_matches_network_ball() {
        let net = datasets::planetlab_50();
        let clients: Vec<NodeId> = net.nodes().collect();
        let ctx = EvalContext::new(&net, &clients);
        for v in net.nodes() {
            for n in [1, 5, 25, 50] {
                assert_eq!(ctx.ball(v, n), net.ball(v, n), "ball({v}, {n}) diverged");
            }
        }
    }

    #[test]
    fn placed_geometry_matches_placement_methods() {
        let net = datasets::euclidean_random(12, 80.0, 3);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(3).unwrap();
        let quorums = sys.enumerate(100).unwrap();
        // Many-to-one on purpose: hosts repeat within a quorum.
        let placement =
            Placement::new((0..9).map(|u| NodeId::new(u % 5)).collect(), net.len()).unwrap();
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        for (i, q) in quorums.iter().enumerate() {
            let expect_hosts: Vec<NodeId> = q.iter().map(|u| placement.node_of(u)).collect();
            assert_eq!(pq.hosts(i), expect_hosts.as_slice());
            assert_eq!(pq.unique_hosts(i), placement.quorum_nodes(q).as_slice());
            let total: f64 = pq.node_counts(i).iter().map(|&(_, c)| c).sum();
            assert_eq!(total, q.len() as f64);
        }
    }

    #[test]
    fn cached_matrix_evaluation_is_bit_identical() {
        let net = datasets::planetlab_50();
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(3).unwrap();
        let quorums = sys.enumerate(100).unwrap();
        let placement = crate::one_to_one::best_placement(&net, &sys).unwrap();
        let strategy = StrategyMatrix::uniform(clients.len(), quorums.len());
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        for model in [
            ResponseModel::network_delay_only(),
            ResponseModel::from_demand(0.007, 16000.0),
            ResponseModel::from_demand(0.007, 16000.0).deduplicated(),
        ] {
            let uncached =
                evaluate_matrix(&net, &clients, &placement, &quorums, &strategy, model).unwrap();
            let cached = evaluate_matrix_placed(&pq, &strategy, model).unwrap();
            assert_eq!(
                uncached.avg_response_ms.to_bits(),
                cached.avg_response_ms.to_bits(),
                "response drifted (dedup={})",
                model.deduplicates_execution()
            );
            assert_eq!(
                uncached.avg_network_delay_ms.to_bits(),
                cached.avg_network_delay_ms.to_bits()
            );
            for (a, b) in uncached.node_loads.iter().zip(&cached.node_loads) {
                assert_eq!(a.to_bits(), b.to_bits(), "node load drifted");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_clients_rejected() {
        let net = datasets::euclidean_random(4, 10.0, 0);
        let _ = EvalContext::new(&net, &[]);
    }
}
