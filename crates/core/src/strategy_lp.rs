//! The access-strategy-optimizing LP (4.3)–(4.6), §4.2 — the paper's first
//! new technique — plus the §7 capacity-tuning loop built on top of it.
//!
//! Given a placement `f` and per-node capacities, the LP finds, for every
//! client simultaneously, the distribution over quorums minimizing average
//! network delay while keeping every node's average load within capacity:
//!
//! ```text
//! minimize   avg_v Σᵢ p_vi · δ_f(v, Qᵢ)                    (4.3)
//! s.t.       avg_v load_{v,f}(v_j) ≤ cap(v_j)   ∀ v_j ∈ V  (4.4)
//!            Σᵢ p_vi = 1                        ∀ v        (4.5)
//!            p_vi ∈ [0, 1]                                  (4.6)
//! ```
//!
//! Capacities double as tuning knobs: sweeping a uniform capacity over
//! `(L_opt, 1]` (Eq. 7.7) trades network delay against load dispersion, and
//! picking the sweep point with the lowest *response time* (not delay)
//! yields the paper's tuned strategies. [`tune_capacity`] is the one §7
//! tuner: it applies a [`CapacityChoice`] (that sweep, a fixed uniform
//! capacity, or a non-uniform heuristic) on a [`ColGenSolver`] and scores
//! with the demand-weighted response model. The scenario runner and the
//! CLI's `place --strategy lp`/`lp-sweep` both run it.
//!
//! # Restricted master + pricing oracle (column generation)
//!
//! Full enumeration materializes one column per (client × quorum) pair —
//! 7,889 already for a 7×7 Grid at daxlist-161 — which caps topology scale
//! long before the solver does. The [`ColumnGeneration`] path
//! restructures the same LP as a **restricted master problem**
//! ([`ColGenSolver`]): start from each client's few closest quorums (by
//! the [`EvalContext`] cached distance permutation), solve that small
//! master, then let a **pricing oracle** scan every absent (client,
//! quorum) pair for negative reduced cost
//!
//! ```text
//! rc_vi = ŵ_v · (δ_f(v, Qᵢ) − Σ_w y_w · count_i(w)) − μ_v
//! ```
//!
//! using the capacity-row duals `y_w`, the convexity-row duals `μ_v`, and
//! the memoized `δ_f(v, Qᵢ)` matrix — no column is ever materialized
//! unless it prices favorably. Profitable columns are appended in place
//! through [`qp_lp::SimplexInstance::add_column`] (the master re-solves
//! warm with the primal simplex; the old basis stays primal feasible) and
//! the loop repeats to *proven* optimality: it stops only when no absent
//! column prices below `−`[`PRICING_TOLERANCE`], so the objective matches
//! full enumeration to solver accuracy while generating a small fraction
//! of the columns ([`ColGenStats`] makes the ratio observable). A
//! restricted master can be infeasible where the full LP is not; on an
//! infeasible verdict the seed set grows by doubling each client's
//! closest-quorum prefix, degenerating to full enumeration before an
//! infeasibility is ever reported. Full enumeration is the master seeded
//! with every column (`ColumnGeneration { seed_columns: m }`); the tests
//! use it as the reference. [`ColGenSolver`] is the one engine of the
//! batch strategy LP: [`optimize_strategies`], [`tune_capacity`], the
//! scenario runner, the iterative algorithm and the §7 figures all solve
//! on it with the default [`ColumnGeneration`].
//!
//! # Capacity sweeps on one master
//!
//! All sweep points share one constraint matrix and differ only in the
//! capacity-row right-hand sides. A master keeps its rows, its generated
//! columns and its optimal basis from one
//! [`solve_profile`](ColGenSolver::solve_profile) call to the next, so a
//! sweep solved in order re-solves each point warm: a few dual-simplex
//! pivots off the previous optimum, and rarely a new column. Because the
//! master mutates, the points of one sweep run in order on one thread;
//! callers parallelize across masters (the figures run one master per
//! universe size), so results are bit-identical at any thread count.
//! [`ColGenSolver::pivots`] and [`ColGenSolver::pricing`] keep the running
//! totals that make the warm-vs-cold saving observable in tests.

#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use qp_lp::{LpError, Model, Sense, SimplexInstance, Solution, SolveStats, VarId};
use qp_quorum::{Quorum, StrategyMatrix};
use qp_topology::{Network, NodeId};

use crate::capacity::{capacity_sweep, CapacityChoice, CapacityProfile};
use crate::eval::{EvalContext, PlacedQuorums};
use crate::response::{evaluate_matrix_placed_weighted, Evaluation, ResponseModel};
use crate::{CoreError, Placement};

/// Row layout of a demand-weighted strategy LP built by
/// [`build_weighted_strategy_model`]: the model plus the indices a
/// long-lived solver needs to edit it in place (convexity right-hand
/// sides for demand shifts, capacity right-hand sides for crashes and
/// capacity tuning).
#[derive(Debug, Clone)]
pub struct WeightedStrategyLp {
    /// The LP, ready for [`qp_lp::SimplexInstance::new`] or a cold solve.
    pub model: Model,
    /// Convexity row index per client, in client order.
    pub conv_rows: Vec<usize>,
    /// `(node, row)` for every generated capacity row.
    pub cap_rows: Vec<(usize, usize)>,
}

/// Builds the demand-weighted strategy LP in *q-substitution* form — the
/// one LP of the `quorumd` daemon, which keeps it resident and edits it
/// across many deltas instead of rebuilding it, and rebuilds it only for
/// its cold cross-check.
///
/// Substituting `q_{v,i} = ŵ_v · p_{v,i}` (with `ŵ` the normalized
/// per-client demand weights) keeps the **constraint matrix constant**
/// under every online delta:
///
/// ```text
/// minimize   Σ_v Σᵢ q_vi · δ(v, i)                       (weighted 4.3)
/// s.t.       Σᵢ q_vi = ŵ_v                 ∀ v           (weighted 4.5)
///            Σ_v Σᵢ count_i(w) · q_vi ≤ cap_w  ∀ loaded w (weighted 4.4)
///            q_vi ≥ 0
/// ```
///
/// Demand shifts touch only convexity right-hand sides, crashes and
/// capacity tuning touch only capacity right-hand sides (both warm-dual
/// territory), and site slowdowns touch only objective coefficients
/// (warm-primal territory). The objective is the demand-weighted average
/// delay directly, and strategies recover as `p_vi = q_vi / ŵ_v`. The
/// [`ColGenSolver`] master is in p-form instead, where `ŵ_v` multiplies
/// every coefficient of client `v`'s columns: a demand shift renormalizes
/// all the weights and so changes every column.
///
/// `delta[v][i]` is the effective cost of client `v` using quorum `i`
/// (callers fold slowdown factors and any symmetry-breaking jitter in);
/// `node_counts[i]` lists `(node, element-count)` pairs for quorum `i`,
/// **sorted by node** (as [`crate::eval::PlacedQuorums::node_counts`]
/// returns them — lookups binary-search);
/// `cap_rhs[w]` is the capacity right-hand side for node `w`, with
/// `f64::INFINITY` meaning "never binds, skip the row". Variable order is
/// `q_{v,i} ↦` column `v·m + i`.
///
/// # Errors
///
/// [`CoreError::SizeMismatch`] if the inputs disagree on sizes, a weight
/// is negative or non-finite, all weights are zero, or a node index is
/// out of range.
pub fn build_weighted_strategy_model(
    delta: &[Vec<f64>],
    weights: &[f64],
    node_counts: &[Vec<(usize, f64)>],
    num_nodes: usize,
    cap_rhs: &[f64],
) -> Result<WeightedStrategyLp, CoreError> {
    let n_clients = delta.len();
    let m = node_counts.len();
    let mismatch = |reason: String| CoreError::SizeMismatch { reason };
    if n_clients == 0 || m == 0 {
        return Err(mismatch("need at least one client and one quorum".into()));
    }
    if weights.len() != n_clients {
        return Err(mismatch(format!(
            "{} weights for {n_clients} clients",
            weights.len()
        )));
    }
    if cap_rhs.len() != num_nodes {
        return Err(mismatch(format!(
            "{} capacity entries for {num_nodes} nodes",
            cap_rhs.len()
        )));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(mismatch("demand weights must be finite and ≥ 0".into()));
    }
    if weights.iter().all(|&w| w == 0.0) {
        return Err(mismatch(
            "at least one demand weight must be positive".into(),
        ));
    }
    for (v, row) in delta.iter().enumerate() {
        if row.len() != m {
            return Err(mismatch(format!(
                "delta row {v} has {} entries for {m} quorums",
                row.len()
            )));
        }
    }
    if node_counts.iter().flatten().any(|&(w, _)| w >= num_nodes) {
        return Err(mismatch("node index out of range in node_counts".into()));
    }

    let mut model = Model::new(Sense::Minimize);
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(n_clients);
    for v in 0..n_clients {
        let mut row_vars = Vec::with_capacity(m);
        for i in 0..m {
            // q_vi ≥ 0; Σᵢ q_vi = ŵ_v caps each q.
            row_vars.push(model.add_var(delta[v][i]));
        }
        vars.push(row_vars);
    }
    let mut conv_rows = Vec::with_capacity(n_clients);
    for (v, row_vars) in vars.iter().enumerate() {
        let terms: Vec<_> = row_vars.iter().map(|&q| (q, 1.0)).collect();
        conv_rows.push(model.add_eq(&terms, weights[v]));
    }
    let mut cap_rows = Vec::new();
    for w in 0..num_nodes {
        if cap_rhs[w].is_infinite() {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for i in 0..m {
            if let Ok(pos) = node_counts[i].binary_search_by_key(&w, |&(j, _)| j) {
                let coeff = node_counts[i][pos].1;
                for row_vars in &vars {
                    terms.push((row_vars[i], coeff));
                }
            }
        }
        if !terms.is_empty() {
            cap_rows.push((w, model.add_le(&terms, cap_rhs[w])));
        }
    }
    Ok(WeightedStrategyLp {
        model,
        conv_rows,
        cap_rows,
    })
}

/// A solved access-strategy LP with everything the §7 techniques consume:
/// the strategies, the optimal average network delay, the capacity-row
/// dual prices (the marginal value of each node's capacity), and the
/// solver work counters.
#[derive(Debug, Clone)]
pub struct StrategyLpOutcome {
    /// The optimal per-client strategies.
    pub strategy: StrategyMatrix,
    /// The LP objective: minimum average network delay (ms).
    pub delay_ms: f64,
    /// Per-node dual price of the capacity row (`0` for nodes without a
    /// row). For this minimization LP a *binding* capacity has a dual
    /// ≤ 0; its magnitude is the delay saved per unit of extra capacity.
    pub capacity_duals: Vec<f64>,
    /// Solver work counters (pivots, refactorizations, warm/cold).
    pub stats: SolveStats,
    /// Pricing statistics of the solve that produced this outcome.
    pub colgen: ColGenStats,
}

/// Solves LP (4.3)–(4.6): minimum-average-network-delay strategies under
/// node capacities, in one solve on a fresh default [`ColGenSolver`].
///
/// # Errors
///
/// * [`CoreError::Infeasible`] if the capacities are set too low — the
///   failure mode the paper calls out explicitly.
/// * [`CoreError::SizeMismatch`] if inputs disagree on sizes.
/// * [`CoreError::Lp`] on numerical failure.
///
/// # Panics
///
/// Panics if `clients` is empty.
pub fn optimize_strategies(
    net: &Network,
    clients: &[NodeId],
    placement: &Placement,
    quorums: &[Quorum],
    caps: &CapacityProfile,
) -> Result<StrategyMatrix, CoreError> {
    assert!(!clients.is_empty(), "at least one client required");
    let ctx = EvalContext::new(net, clients);
    let pq = ctx.place(placement, quorums);
    let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default())?;
    Ok(solver.solve_profile(caps)?.strategy)
}

/// Pricing tolerance of the column-generation oracle: it stops once no
/// absent column has reduced cost below `−PRICING_TOLERANCE`, making the
/// restricted optimum a proven optimum of the full LP at that accuracy.
pub const PRICING_TOLERANCE: f64 = 1e-9;

/// Configuration of the delayed-column-generation path (see the
/// module-level *Restricted master + pricing oracle* section).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnGeneration {
    /// Seed columns per client: each client's `seed_columns` closest
    /// quorums (by memoized `δ_f(v, Qᵢ)`, ties to the lower index) form
    /// the initial restricted master. Clamped to `[1, num_quorums]`.
    pub seed_columns: usize,
}

impl Default for ColumnGeneration {
    fn default() -> Self {
        ColumnGeneration { seed_columns: 4 }
    }
}

/// Pricing-oracle statistics of one column-generation solve, making
/// "generated ≪ total" observable in reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColGenStats {
    /// Columns currently materialized in the restricted master.
    pub columns_in_master: usize,
    /// Columns full enumeration would materialize (clients × quorums).
    pub total_columns: usize,
    /// Columns appended during this solve (seed growth + oracle finds).
    pub columns_generated: usize,
    /// Pricing passes over the absent (client, quorum) pairs, including
    /// the final pass that proves optimality by finding nothing.
    pub oracle_passes: usize,
    /// Master LP (re-)solves, growth retries included.
    pub master_resolves: usize,
}

impl ColGenStats {
    /// Folds a later solve of the same master into this aggregate: the
    /// column census is the latest one (columns persist across solves),
    /// the work counters sum. Absorbing into the default yields `solve`.
    pub fn absorb(&mut self, solve: &ColGenStats) {
        self.columns_in_master = solve.columns_in_master;
        self.total_columns = solve.total_columns;
        self.columns_generated += solve.columns_generated;
        self.oracle_passes += solve.oracle_passes;
        self.master_resolves += solve.master_resolves;
    }
}

/// The restricted-master column-generation solver for the access-strategy
/// LP — the one engine of every batch solve, which never materializes the
/// (client × quorum) columns that do not price favorably.
///
/// Built once per `(placement, quorums)` geometry: the LP starts from each
/// client's [`ColumnGeneration::seed_columns`] closest quorums and grows by
/// pricing. Capacity rows exist for **every** loaded node from the start
/// (with a never-binding stand-in for unbounded capacities), so one frozen
/// row layout serves every capacity profile; columns generated for one
/// profile remain valid — and stay in the master — for the next, which is
/// what makes sequential capacity sweeps cheap ([`tune_capacity`]). The
/// solver keeps running totals of its successful solves' pivots
/// ([`pivots`](Self::pivots)) and pricing work
/// ([`pricing`](Self::pricing)).
///
/// Weights generalize the objective to the exact demand-weighted average
/// delay (`minimize Σ_v ŵ_v Σᵢ p_vi δ_f(v, Qᵢ)` with
/// `avg_v load ≤ cap` becoming `Σ_v ŵ_v · load_v ≤ cap`); uniform weights
/// reproduce LP (4.3)–(4.6) exactly. They are fixed for the master's
/// life: a caller whose demand changes online (the `quorumd` daemon)
/// edits the q-form LP of [`build_weighted_strategy_model`] instead.
#[derive(Debug, Clone)]
pub struct ColGenSolver<'a> {
    /// The placed geometry: `δ_f(v, Qᵢ)` and each quorum's node counts.
    pq: &'a PlacedQuorums<'a>,
    weights: Vec<f64>,
    inst: SimplexInstance,
    /// Convexity row per client, in client order (row `v`).
    conv_rows: Vec<usize>,
    /// `(node, row, never_binding_rhs)` per capacity row.
    cap_rows: Vec<(usize, usize, f64)>,
    /// Node → capacity-row index (into the model), if any.
    cap_row_of: Vec<Option<usize>>,
    /// Master variable → (client, quorum), in column order.
    col_map: Vec<(usize, usize)>,
    /// `present[v][i]`: column (v, i) is materialized in the master.
    present: Vec<Vec<bool>>,
    /// Quorums by ascending `(δ(v, ·), index)` per client — the seed/growth
    /// order, served from the cached geometry.
    order: Vec<Vec<usize>>,
    /// Per client: how much of `order` the seed/growth path has consumed.
    seeded: Vec<usize>,
    /// Duals of the last optimal master solve: (`μ_v` per client,
    /// `y_w` per node), for [`pricing_violations`](Self::pricing_violations).
    last_duals: Option<(Vec<f64>, Vec<f64>)>,
    /// Simplex pivots summed over every successful solve.
    pivots: usize,
    /// Pricing work absorbed from every successful solve.
    pricing: ColGenStats,
}

impl<'a> ColGenSolver<'a> {
    /// Builds the restricted master for `pq` with uniform client weights
    /// (`ŵ_v = 1/n`), i.e. the classic LP (4.3)–(4.6) objective. No LP is
    /// solved yet; the first [`solve_profile`](Self::solve_profile) call pays
    /// the cold master solve.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if there are no quorums or no clients.
    pub fn new(pq: &'a PlacedQuorums<'a>, cfg: ColumnGeneration) -> Result<Self, CoreError> {
        let n = pq.ctx().clients().len();
        Self::with_weights(pq, &vec![1.0; n], cfg)
    }

    /// [`ColGenSolver::new`] with explicit demand weights, one per client.
    /// Weights are normalized to sum to 1 internally, so the objective is
    /// the exact demand-weighted average delay and capacity rows read
    /// `Σ_v ŵ_v · load_v(w) ≤ cap_w`.
    ///
    /// # Errors
    ///
    /// [`CoreError::SizeMismatch`] if sizes disagree, a weight is negative
    /// or non-finite, or all weights are zero.
    pub fn with_weights(
        pq: &'a PlacedQuorums<'a>,
        weights: &[f64],
        cfg: ColumnGeneration,
    ) -> Result<Self, CoreError> {
        let n = pq.ctx().clients().len();
        let m = pq.quorums().len();
        let mismatch = |reason: String| CoreError::SizeMismatch { reason };
        if n == 0 || m == 0 {
            return Err(mismatch("need at least one client and one quorum".into()));
        }
        if weights.len() != n {
            return Err(mismatch(format!(
                "{} weights for {n} clients",
                weights.len()
            )));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(mismatch("demand weights must be finite and ≥ 0".into()));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(mismatch(
                "at least one demand weight must be positive".into(),
            ));
        }
        let weights: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Seed order: quorums by ascending delay per client, ties to the
        // lower index — the cached-distance analogue of `EvalContext::ball`.
        let order: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut idx: Vec<usize> = (0..m).collect();
                idx.sort_by(|&a, &b| pq.delta(v, a).total_cmp(&pq.delta(v, b)).then(a.cmp(&b)));
                idx
            })
            .collect();
        let k = cfg.seed_columns.clamp(1, m);

        let mut model = Model::new(Sense::Minimize);
        let mut col_map = Vec::with_capacity(n * k);
        let mut present = vec![vec![false; m]; n];
        let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut row_vars = Vec::with_capacity(k);
            for &i in &order[v][..k] {
                // p ≥ 0; the convexity row caps each p at 1, as (4.6) asks.
                row_vars.push(model.add_var(weights[v] * pq.delta(v, i)));
                col_map.push((v, i));
                present[v][i] = true;
            }
            vars.push(row_vars);
        }
        let mut conv_rows = Vec::with_capacity(n);
        for row_vars in &vars {
            let terms: Vec<_> = row_vars.iter().map(|&p| (p, 1.0)).collect();
            conv_rows.push(model.add_eq(&terms, 1.0));
        }
        // Capacity rows for every loaded node — even ones no seed column
        // touches: columns generated later must land in an existing row.
        // Unbounded/sweep capacities use a never-binding rhs (total
        // weighted load at w cannot exceed its element count).
        let counts = pq.placement().element_counts();
        let net_len = pq.ctx().net().len();
        let mut cap_rows = Vec::new();
        let mut cap_row_of = vec![None; net_len];
        for w in 0..net_len {
            if counts[w] == 0 {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for (var, &(v, i)) in col_map.iter().enumerate() {
                let nc = pq.node_counts(i);
                if let Ok(pos) = nc.binary_search_by_key(&w, |&(j, _)| j) {
                    terms.push((VarId::from_index(var), weights[v] * nc[pos].1));
                }
            }
            let row = model.add_le(&terms, 1.0);
            cap_row_of[w] = Some(row);
            cap_rows.push((w, row, counts[w] as f64 + 1.0));
        }
        let inst = SimplexInstance::new(model);
        Ok(ColGenSolver {
            pq,
            weights,
            inst,
            conv_rows,
            cap_rows,
            cap_row_of,
            col_map,
            present,
            order,
            seeded: vec![k; n],
            last_duals: None,
            pivots: 0,
            pricing: ColGenStats::default(),
        })
    }

    /// Columns currently materialized in the restricted master.
    pub fn columns_in_master(&self) -> usize {
        self.col_map.len()
    }

    /// Columns full enumeration would materialize.
    pub fn total_columns(&self) -> usize {
        self.pq.ctx().clients().len() * self.pq.quorums().len()
    }

    /// Simplex pivots summed over every successful solve so far.
    pub fn pivots(&self) -> usize {
        self.pivots
    }

    /// Pricing work summed over every successful solve so far
    /// ([`ColGenStats::absorb`]): the column census is the latest solve's.
    pub fn pricing(&self) -> ColGenStats {
        self.pricing
    }

    /// Solves under a capacity profile (unbounded capacities mapped to a
    /// never-binding rhs), generating columns to proven optimality.
    /// Mutates the master in place: columns accumulate across calls, so
    /// sweeps re-solve warm with few or no new columns.
    ///
    /// The restricted-master loop: re-solve, price, append, repeat. Each
    /// pass either terminates (no negative reduced cost anywhere — the
    /// proof of optimality) or appends at least one absent column, so the
    /// loop is bounded by clients × quorums total columns.
    ///
    /// # Errors
    ///
    /// [`CoreError::Infeasible`] if even the fully-enumerated LP is
    /// infeasible under `caps`; [`CoreError::SizeMismatch`] if `caps`
    /// covers the wrong node count; LP errors propagate.
    pub fn solve_profile(
        &mut self,
        caps: &CapacityProfile,
    ) -> Result<StrategyLpOutcome, CoreError> {
        let net_len = self.pq.ctx().net().len();
        if caps.len() != net_len {
            return Err(CoreError::SizeMismatch {
                reason: format!(
                    "capacity profile covers {} nodes, network has {net_len}",
                    caps.len()
                ),
            });
        }
        for &(w, row, never_binding) in &self.cap_rows {
            let c = caps.get(NodeId::new(w));
            self.inst
                .set_rhs(row, if c.is_finite() { c } else { never_binding });
        }
        self.last_duals = None;
        let columns_before = self.col_map.len();
        let mut master_resolves = 0usize;
        let mut oracle_passes = 0usize;
        let mut stats = SolveStats::default();
        let mut warm_any = false;
        let sol = loop {
            let sol = match self.inst.resolve() {
                Ok(sol) => sol,
                Err(LpError::Infeasible) => {
                    master_resolves += 1;
                    // The *restricted* master can be infeasible where the
                    // full LP is not: grow the closest-quorum seed set and
                    // retry, reaching full enumeration before giving up.
                    if self.grow()? {
                        continue;
                    }
                    return Err(CoreError::Infeasible);
                }
                Err(e) => return Err(e.into()),
            };
            master_resolves += 1;
            stats.iterations += sol.stats().iterations;
            stats.refactors += sol.stats().refactors;
            stats.full_prices += sol.stats().full_prices;
            warm_any |= sol.stats().warm;
            oracle_passes += 1;
            if self.price_and_add(&sol)? == 0 {
                break sol;
            }
        };
        stats.warm = warm_any;

        let n = self.pq.ctx().clients().len();
        let m = self.pq.quorums().len();
        let mut rows = vec![vec![0.0; m]; n];
        for (var, &(v, i)) in self.col_map.iter().enumerate() {
            rows[v][i] = sol.value(VarId::from_index(var)).max(0.0);
        }
        for row in &mut rows {
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                for p in row.iter_mut() {
                    *p /= total;
                }
            }
        }
        let strategy = StrategyMatrix::from_rows(rows).map_err(CoreError::from)?;
        let mut capacity_duals = vec![0.0; net_len];
        for &(w, row, _) in &self.cap_rows {
            capacity_duals[w] = sol.dual(row);
        }
        let mu = self.conv_rows.iter().map(|&r| sol.dual(r)).collect();
        self.last_duals = Some((mu, capacity_duals.clone()));
        let pricing = ColGenStats {
            columns_in_master: self.col_map.len(),
            total_columns: n * m,
            columns_generated: self.col_map.len() - columns_before,
            oracle_passes,
            master_resolves,
        };
        self.pivots += stats.iterations;
        self.pricing.absorb(&pricing);
        if qp_obs::enabled() {
            let generated = pricing.columns_generated;
            qp_obs::counter_add("colgen_solves_total", 1);
            qp_obs::counter_add("colgen_oracle_passes_total", oracle_passes as u64);
            qp_obs::counter_add("colgen_columns_added_total", generated as u64);
            qp_obs::counter_add("colgen_master_resolves_total", master_resolves as u64);
            qp_obs::point(
                "colgen.solve",
                &[
                    (
                        "oracle_passes",
                        qp_obs::FieldValue::U64(oracle_passes as u64),
                    ),
                    ("columns_added", qp_obs::FieldValue::U64(generated as u64)),
                    (
                        "columns_in_master",
                        qp_obs::FieldValue::U64(self.col_map.len() as u64),
                    ),
                    (
                        "master_resolves",
                        qp_obs::FieldValue::U64(master_resolves as u64),
                    ),
                ],
            );
        }
        Ok(StrategyLpOutcome {
            strategy,
            delay_ms: sol.objective(),
            capacity_duals,
            stats,
            colgen: pricing,
        })
    }

    /// One pricing pass: computes `s_i = Σ_w y_w·count_i(w)` per quorum
    /// from the capacity duals, then scans every absent (client, quorum)
    /// pair for `rc_vi = ŵ_v·(δ(v,i) − s_i) − μ_v < −PRICING_TOLERANCE` and
    /// appends the most negative column per client (ties to the lower
    /// quorum index). Returns how many columns were appended; 0 proves
    /// optimality of the restricted optimum for the full LP.
    fn price_and_add(&mut self, sol: &Solution) -> Result<usize, CoreError> {
        let n = self.pq.ctx().clients().len();
        let m = self.pq.quorums().len();
        let mut y = vec![0.0; self.pq.ctx().net().len()];
        for &(w, row, _) in &self.cap_rows {
            y[w] = sol.dual(row);
        }
        let mut s = vec![0.0; m];
        for i in 0..m {
            let mut acc = 0.0;
            for &(w, count) in self.pq.node_counts(i) {
                acc += y[w] * count;
            }
            s[i] = acc;
        }
        let mut picks = Vec::new();
        for v in 0..n {
            let mu = sol.dual(self.conv_rows[v]);
            let w_v = self.weights[v];
            let mut best: Option<(f64, usize)> = None;
            for i in 0..m {
                if self.present[v][i] {
                    continue;
                }
                let rc = w_v * (self.pq.delta(v, i) - s[i]) - mu;
                if rc < -PRICING_TOLERANCE && best.is_none_or(|(b, _)| rc < b) {
                    best = Some((rc, i));
                }
            }
            if let Some((_, i)) = best {
                picks.push((v, i));
            }
        }
        for &(v, i) in &picks {
            self.add_master_column(v, i)?;
        }
        Ok(picks.len())
    }

    /// Doubles each client's closest-quorum prefix (skipping columns the
    /// oracle already materialized). Returns `false` only once every
    /// client's prefix covers all quorums — full enumeration — so an
    /// infeasibility reported after that is genuine.
    fn grow(&mut self) -> Result<bool, CoreError> {
        let n = self.pq.ctx().clients().len();
        let m = self.pq.quorums().len();
        loop {
            let mut advanced = false;
            let mut added = false;
            for v in 0..n {
                let target = self.seeded[v].saturating_mul(2).clamp(1, m);
                while self.seeded[v] < target {
                    advanced = true;
                    let i = self.order[v][self.seeded[v]];
                    self.seeded[v] += 1;
                    if !self.present[v][i] {
                        self.add_master_column(v, i)?;
                        added = true;
                    }
                }
            }
            if added {
                return Ok(true);
            }
            if !advanced {
                return Ok(false);
            }
        }
    }

    /// Appends column (v, i) to the master: objective `ŵ_v·δ(v,i)`, +1 in
    /// client `v`'s convexity row, `ŵ_v·count_i(w)` in each capacity row
    /// the quorum touches.
    fn add_master_column(&mut self, v: usize, i: usize) -> Result<(), CoreError> {
        let w_v = self.weights[v];
        let mut terms = vec![(self.conv_rows[v], 1.0)];
        for &(w, count) in self.pq.node_counts(i) {
            if let Some(row) = self.cap_row_of[w] {
                terms.push((row, w_v * count));
            }
        }
        let var = self.inst.add_column(w_v * self.pq.delta(v, i), &terms)?;
        debug_assert_eq!(var.index(), self.col_map.len());
        self.col_map.push((v, i));
        self.present[v][i] = true;
        Ok(())
    }

    /// Re-runs the pricing scan against the duals of the last successful
    /// solve and counts absent columns with reduced cost below
    /// `−PRICING_TOLERANCE`. A terminated oracle must report 0 — the
    /// unit-testable form of "no negative reduced cost anywhere". `None`
    /// before the first successful solve.
    pub fn pricing_violations(&self) -> Option<usize> {
        let (mu, y) = self.last_duals.as_ref()?;
        let n = self.pq.ctx().clients().len();
        let m = self.pq.quorums().len();
        let mut s = vec![0.0; m];
        for i in 0..m {
            let mut acc = 0.0;
            for &(w, count) in self.pq.node_counts(i) {
                acc += y[w] * count;
            }
            s[i] = acc;
        }
        let mut violations = 0;
        for v in 0..n {
            for i in 0..m {
                if self.present[v][i] {
                    continue;
                }
                let rc = self.weights[v] * (self.pq.delta(v, i) - s[i]) - mu[v];
                if rc < -PRICING_TOLERANCE {
                    violations += 1;
                }
            }
        }
        Some(violations)
    }
}

/// What [`tune_capacity`] chose, in the form its callers report it.
#[derive(Debug, Clone)]
pub struct TunedCapacity {
    /// The LP outcome at the chosen capacities: the solve the choice was
    /// made from, never a re-solve.
    pub outcome: StrategyLpOutcome,
    /// The chosen capacity profile.
    pub caps: CapacityProfile,
    /// `outcome`'s strategies scored with the caller's weights and model.
    pub eval: Evaluation,
    /// `(c, evaluation)` per feasible point of a
    /// [`CapacityChoice::Sweep`], in sweep order; empty for the other
    /// rules.
    pub points: Vec<(f64, Evaluation)>,
    /// The chosen uniform capacity (a sweep's `c*` or the fixed value);
    /// `None` for the per-node heuristics.
    pub capacity: Option<f64>,
    /// Capacity profiles the rule solved at: every sweep point (infeasible
    /// ones included), or the probe and final solves of a heuristic.
    pub capacity_points: usize,
    /// The rule and its parameters, e.g. `sweep(5) → c* = 0.667`.
    pub label: String,
}

/// The §7 capacity tuner: applies `choice` to the strategy LP on `solver`
/// and scores the result with the response-time model.
///
/// * [`CapacityChoice::Sweep`] solves at every [`capacity_sweep`] point
///   over `(l_opt, 1]`, in sweep order (the master keeps its generated
///   columns from point to point), skips infeasible points, and keeps the
///   first point with the strictly lowest response time.
/// * [`CapacityChoice::Fixed`] solves once at that uniform capacity.
/// * [`CapacityChoice::LoadProportional`] solves unconstrained, then
///   scales the resulting node loads into `[β, γ]`
///   ([`CapacityProfile::load_proportional`]) and solves again.
/// * [`CapacityChoice::MarginalValue`] solves at uniform capacity `γ`,
///   then scales each node's capacity-row dual price into `[β, γ]`
///   ([`CapacityProfile::marginal_value`]) and solves again.
///
/// `solver` must be built over `pq`. Scores come from
/// [`evaluate_matrix_placed_weighted`] with the caller's raw `weights`
/// (one per client row of `pq`); `l_opt` is read only by a sweep.
///
/// # Errors
///
/// [`CoreError::Infeasible`] if a non-sweep solve, or every sweep point,
/// is infeasible; sizing and LP errors propagate.
pub fn tune_capacity(
    solver: &mut ColGenSolver<'_>,
    pq: &PlacedQuorums<'_>,
    weights: &[f64],
    l_opt: f64,
    choice: CapacityChoice,
    model: ResponseModel,
) -> Result<TunedCapacity, CoreError> {
    let n = pq.ctx().net().len();
    let score = |strategy: &StrategyMatrix, model: ResponseModel| {
        evaluate_matrix_placed_weighted(pq, strategy, weights, model)
    };
    let (caps, capacity, capacity_points, label) = match choice {
        CapacityChoice::Sweep { steps } => {
            let cs = capacity_sweep(l_opt, steps);
            let mut points: Vec<(f64, Evaluation)> = Vec::new();
            let mut best: Option<(usize, StrategyLpOutcome)> = None;
            for &c in &cs {
                let outcome = match solver.solve_profile(&CapacityProfile::uniform(n, c)) {
                    Ok(outcome) => outcome,
                    Err(CoreError::Infeasible) => continue,
                    Err(e) => return Err(e),
                };
                let eval = score(&outcome.strategy, model)?;
                let response = eval.avg_response_ms;
                if best
                    .as_ref()
                    .is_none_or(|(i, _)| response < points[*i].1.avg_response_ms)
                {
                    best = Some((points.len(), outcome));
                }
                points.push((c, eval));
            }
            let (i, outcome) = best.ok_or(CoreError::Infeasible)?;
            let (c, eval) = points[i].clone();
            return Ok(TunedCapacity {
                outcome,
                caps: CapacityProfile::uniform(n, c),
                eval,
                points,
                capacity: Some(c),
                capacity_points: cs.len(),
                label: format!("sweep({steps}) → c* = {c:.3}"),
            });
        }
        CapacityChoice::Fixed(c) => (
            CapacityProfile::uniform(n, c),
            Some(c),
            1,
            format!("fixed {c:.3}"),
        ),
        CapacityChoice::LoadProportional { beta, gamma } => {
            let unconstrained = solver.solve_profile(&CapacityProfile::unbounded(n))?;
            let loads =
                score(&unconstrained.strategy, ResponseModel::network_delay_only())?.node_loads;
            let support = pq.placement().support_set();
            (
                CapacityProfile::load_proportional(&loads, &support, beta, gamma)?,
                None,
                2,
                format!("load-proportional [{beta}, {gamma}]"),
            )
        }
        CapacityChoice::MarginalValue { beta, gamma } => {
            let reference = solver.solve_profile(&CapacityProfile::uniform(n, gamma))?;
            // Binding ≤ rows of a minimization have duals ≤ 0; the
            // magnitude is the marginal value of that node's capacity.
            let prices: Vec<f64> = reference
                .capacity_duals
                .iter()
                .map(|&d| (-d).max(0.0))
                .collect();
            let support = pq.placement().support_set();
            (
                CapacityProfile::marginal_value(&prices, &support, beta, gamma)?,
                None,
                2,
                format!("marginal-value [{beta}, {gamma}]"),
            )
        }
    };
    let outcome = solver.solve_profile(&caps)?;
    let eval = score(&outcome.strategy, model)?;
    Ok(TunedCapacity {
        outcome,
        caps,
        eval,
        points: Vec::new(),
        capacity,
        capacity_points,
        label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::one_to_one::grid_shell_placement;
    use crate::response::{evaluate_closest, evaluate_matrix, evaluate_matrix_placed};
    use qp_quorum::QuorumSystem;
    use qp_topology::datasets;

    fn setup(k: usize) -> (Network, Vec<NodeId>, QuorumSystem, Placement, Vec<Quorum>) {
        let net = datasets::euclidean_random(16, 100.0, 42);
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(k).unwrap();
        let placement = grid_shell_placement(&net, NodeId::new(0), k).unwrap();
        let quorums = sys.enumerate(10_000).unwrap();
        (net, clients, sys, placement, quorums)
    }

    /// Full enumeration: a master seeded with every column.
    fn full_enumeration<'a>(pq: &'a PlacedQuorums<'a>) -> ColGenSolver<'a> {
        let seed_columns = pq.quorums().len();
        ColGenSolver::new(pq, ColumnGeneration { seed_columns }).unwrap()
    }

    /// The q-form model of `pq`'s LP under `weights` (already normalized)
    /// and uniform capacity `c` on every loaded node — the independent
    /// model a certificate is checked against.
    fn q_form(pq: &PlacedQuorums<'_>, weights: &[f64], c: f64) -> WeightedStrategyLp {
        let n = pq.ctx().clients().len();
        let m = pq.quorums().len();
        let net_len = pq.ctx().net().len();
        let delta: Vec<Vec<f64>> = (0..n)
            .map(|v| (0..m).map(|i| pq.delta(v, i)).collect())
            .collect();
        let node_counts: Vec<Vec<(usize, f64)>> =
            (0..m).map(|i| pq.node_counts(i).to_vec()).collect();
        let counts = pq.placement().element_counts();
        let cap_rhs: Vec<f64> = (0..net_len)
            .map(|w| if counts[w] == 0 { f64::INFINITY } else { c })
            .collect();
        build_weighted_strategy_model(&delta, weights, &node_counts, net_len, &cap_rhs).unwrap()
    }

    use qp_topology::Network;

    #[test]
    fn unbounded_capacity_recovers_closest() {
        // With no capacity constraint, the delay-minimizing strategy is to
        // always use the closest quorum.
        let (net, clients, sys, placement, quorums) = setup(3);
        let caps = CapacityProfile::unbounded(net.len());
        let strategy = optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
        let lp_eval = evaluate_matrix(
            &net,
            &clients,
            &placement,
            &quorums,
            &strategy,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        let closest = evaluate_closest(
            &net,
            &clients,
            &sys,
            &placement,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert!(
            (lp_eval.avg_network_delay_ms - closest.avg_network_delay_ms).abs() < 1e-6,
            "LP {} vs closest {}",
            lp_eval.avg_network_delay_ms,
            closest.avg_network_delay_ms
        );
    }

    #[test]
    fn capacity_constraints_are_respected() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let c = 0.7;
        let caps = CapacityProfile::uniform(net.len(), c);
        // The q-form model of the same LP certifies its optimum without
        // the master; the master's strategies must reach that optimum.
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let lp = q_form(&pq, &vec![1.0 / clients.len() as f64; clients.len()], c);
        let certified = lp.model.solve().unwrap();
        certified.certify(&lp.model).unwrap();
        let strategy = optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
        let eval = evaluate_matrix(
            &net,
            &clients,
            &placement,
            &quorums,
            &strategy,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert!(
            eval.max_node_load() <= c + 1e-6,
            "max load {} exceeds capacity {c}",
            eval.max_node_load()
        );
        let optimum = certified.objective();
        assert!(
            (eval.avg_network_delay_ms - optimum).abs() <= 1e-7 * (1.0 + optimum),
            "master delay {} vs certified optimum {optimum}",
            eval.avg_network_delay_ms
        );
    }

    #[test]
    fn infeasible_capacity_reports_infeasible() {
        let (net, clients, sys, placement, quorums) = setup(3);
        // Below L_opt no strategy can satisfy every node.
        let c = sys.optimal_load().unwrap() * 0.5;
        let caps = CapacityProfile::uniform(net.len(), c);
        let err = optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap_err();
        assert_eq!(err, CoreError::Infeasible);
    }

    #[test]
    fn capacity_at_l_opt_is_feasible_and_balanced() {
        let (net, clients, sys, placement, quorums) = setup(3);
        let l_opt = sys.optimal_load().unwrap();
        let caps = CapacityProfile::uniform(net.len(), l_opt + 1e-9);
        let strategy = optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
        let eval = evaluate_matrix(
            &net,
            &clients,
            &placement,
            &quorums,
            &strategy,
            ResponseModel::network_delay_only(),
        )
        .unwrap();
        assert!(eval.max_node_load() <= l_opt + 1e-6);
    }

    #[test]
    fn looser_capacity_never_hurts_delay() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let mut prev_delay = f64::INFINITY;
        for c in [0.6, 0.75, 0.9, 1.0] {
            let caps = CapacityProfile::uniform(net.len(), c);
            let strategy =
                optimize_strategies(&net, &clients, &placement, &quorums, &caps).unwrap();
            let eval = evaluate_matrix(
                &net,
                &clients,
                &placement,
                &quorums,
                &strategy,
                ResponseModel::network_delay_only(),
            )
            .unwrap();
            assert!(eval.avg_network_delay_ms <= prev_delay + 1e-6);
            prev_delay = eval.avg_network_delay_ms;
        }
    }

    /// Runs [`tune_capacity`] on a fresh uniform-weight master over `pq`
    /// and checks the pricing certificate of its last solve.
    fn tune(
        pq: &PlacedQuorums<'_>,
        l_opt: f64,
        choice: CapacityChoice,
        model: ResponseModel,
    ) -> Result<TunedCapacity, CoreError> {
        let weights = vec![1.0; pq.ctx().clients().len()];
        let mut solver =
            ColGenSolver::with_weights(pq, &weights, ColumnGeneration::default()).unwrap();
        let tuned = tune_capacity(&mut solver, pq, &weights, l_opt, choice, model)?;
        assert_eq!(solver.pricing_violations(), Some(0), "{choice:?}");
        assert!(solver.pricing().master_resolves > 0);
        Ok(tuned)
    }

    #[test]
    fn tune_uniform_capacity_finds_best() {
        let (net, clients, sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let choice = CapacityChoice::Sweep { steps: 5 };
        let model = ResponseModel::from_demand(0.007, 16000.0);
        let tuned = tune(&pq, sys.optimal_load().unwrap(), choice, model).unwrap();
        assert!(!tuned.points.is_empty());
        assert_eq!(tuned.capacity_points, 5);
        let best = tuned.eval.avg_response_ms;
        for (_, eval) in &tuned.points {
            assert!(best <= eval.avg_response_ms);
        }
        // The winner is the first point reaching the minimum, and its
        // stored outcome is what the tuner returns.
        let c = tuned.capacity.unwrap();
        let first = tuned
            .points
            .iter()
            .find(|(_, e)| e.avg_response_ms == best)
            .unwrap();
        assert_eq!(first.0, c);
        assert_eq!(tuned.caps, CapacityProfile::uniform(net.len(), c));
        assert_eq!(tuned.label, format!("sweep(5) → c* = {c:.3}"));
        let rescored = evaluate_matrix_placed_weighted(
            &pq,
            &tuned.outcome.strategy,
            &vec![1.0; clients.len()],
            model,
        )
        .unwrap();
        assert_eq!(rescored.avg_response_ms, best);
    }

    #[test]
    fn warm_sweep_matches_cold_solves_and_saves_iterations() {
        // Each sweep point, solved warm on one master kept across the
        // sweep, must match a fresh master's solve of the same capacity to
        // LP-objective accuracy, while spending strictly fewer pivots in
        // total.
        let (net, clients, sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let l_opt = sys.optimal_load().unwrap();
        let cs = capacity_sweep(l_opt, 6);

        let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        for &c in &cs {
            let caps = CapacityProfile::uniform(net.len(), c);
            let fresh = ColGenSolver::new(&pq, ColumnGeneration::default())
                .unwrap()
                .solve_profile(&caps);
            let (warm, cold) = match (solver.solve_profile(&caps), fresh) {
                (Ok(w), Ok(c)) => (w, c),
                (Err(CoreError::Infeasible), Err(CoreError::Infeasible)) => continue,
                (w, c) => panic!("warm/cold feasibility disagreement at {c:?}: {w:?}"),
            };
            assert!(
                (warm.delay_ms - cold.delay_ms).abs() <= 1e-9 * (1.0 + cold.delay_ms.abs()),
                "objective drift at c={c}: warm {} vs cold {}",
                warm.delay_ms,
                cold.delay_ms
            );
            warm_total += warm.stats.iterations;
            cold_total += cold.stats.iterations;
        }
        assert_eq!(warm_total, solver.pivots());
        assert!(
            warm_total < cold_total,
            "warm sweep must pivot strictly less: warm {warm_total} vs cold {cold_total}"
        );
    }

    #[test]
    fn nonuniform_capacity_evaluates() {
        let (net, clients, sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let l_opt = sys.optimal_load().unwrap();
        let caps =
            CapacityProfile::inverse_distance(&net, &placement.support_set(), l_opt, 1.0).unwrap();
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
        let outcome = solver.solve_profile(&caps).unwrap();
        assert_eq!(solver.pricing_violations(), Some(0));
        let eval = evaluate_matrix_placed(
            &pq,
            &outcome.strategy,
            ResponseModel::from_demand(0.007, 16000.0),
        )
        .unwrap();
        assert_eq!(outcome.strategy.num_clients(), clients.len());
        assert!(eval.avg_response_ms >= eval.avg_network_delay_ms);
    }

    #[test]
    fn three_way_capacity_heuristics_track_uniform() {
        // The fig7_8-style comparison, extended to the two new heuristics:
        // at every feasible sweep capacity, neither load-proportional nor
        // marginal-value capacities lose more than the paper's qualitative
        // margin (1 % relative) to the uniform assignment.
        let net = datasets::planetlab_50();
        let clients: Vec<NodeId> = net.nodes().collect();
        let sys = QuorumSystem::grid(3).unwrap();
        let placement = crate::one_to_one::best_placement(&net, &sys).unwrap();
        let quorums = sys.enumerate(100).unwrap();
        let l_opt = sys.optimal_load().unwrap();
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let model = ResponseModel::from_demand(0.007, 16000.0);

        for c in capacity_sweep(l_opt, 4) {
            let uniform = match tune(&pq, l_opt, CapacityChoice::Fixed(c), model) {
                Ok(tuned) => tuned.eval.avg_response_ms,
                Err(CoreError::Infeasible) => continue,
                Err(e) => panic!("uniform failed at c={c}: {e}"),
            };
            for (name, choice) in [
                (
                    "load-proportional",
                    CapacityChoice::LoadProportional {
                        beta: l_opt,
                        gamma: c,
                    },
                ),
                (
                    "marginal-value",
                    CapacityChoice::MarginalValue {
                        beta: l_opt,
                        gamma: c,
                    },
                ),
            ] {
                let tuned = tune(&pq, l_opt, choice, model)
                    .unwrap_or_else(|e| panic!("{name} failed at c={c}: {e}"));
                assert!(tuned.label.starts_with(name), "{}", tuned.label);
                assert_eq!(tuned.capacity_points, 2);
                let eval = tuned.eval;
                assert!(
                    eval.avg_response_ms <= uniform * 1.01 + 1e-6,
                    "{name} response {} loses >1% to uniform {uniform} at c={c}",
                    eval.avg_response_ms
                );
            }
        }
    }

    /// With uniform weights `ŵ_v = 1/n`, the q-substitution LP is the
    /// classic LP (4.3)–(4.6) with variables scaled by `n`: same optimal
    /// delay, same strategies after row normalization.
    #[test]
    fn weighted_model_with_uniform_weights_matches_classic_lp() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let c = 0.7;
        let caps = CapacityProfile::uniform(net.len(), c);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let classic = full_enumeration(&pq).solve_profile(&caps).unwrap();

        let n = clients.len();
        let m = quorums.len();
        let counts = placement.element_counts();
        let lp = q_form(&pq, &vec![1.0 / n as f64; n], c);
        assert_eq!(lp.conv_rows.len(), n);
        assert!(!lp.cap_rows.is_empty());
        let sol = lp.model.solve().unwrap();
        sol.certify(&lp.model).unwrap();
        assert!(
            (sol.objective() - classic.delay_ms).abs() <= 1e-9 * (1.0 + classic.delay_ms),
            "weighted delay {} vs classic {}",
            sol.objective(),
            classic.delay_ms
        );
        // The optimum need not be a unique vertex (grid quorums tie in δ),
        // so check the recovered strategies achieve the classic optimum
        // rather than matching it entrywise: same weighted delay, loads
        // within capacity.
        let rows = (0..n)
            .map(|v| {
                let q: Vec<f64> = (0..m)
                    .map(|i| sol.value(VarId::from_index(v * m + i)).max(0.0))
                    .collect();
                let total: f64 = q.iter().sum();
                q.iter().map(|x| x / total).collect()
            })
            .collect();
        let strategy = StrategyMatrix::from_rows(rows).unwrap();
        let achieved: f64 = (0..n)
            .map(|v| {
                (0..m)
                    .map(|i| strategy.prob(v, i) * pq.delta(v, i))
                    .sum::<f64>()
                    / n as f64
            })
            .sum();
        assert!(
            (achieved - classic.delay_ms).abs() <= 1e-7 * (1.0 + classic.delay_ms),
            "recovered strategies achieve {achieved}, classic {}",
            classic.delay_ms
        );
        for w in 0..net.len() {
            let load: f64 = (0..n)
                .map(|v| {
                    (0..m)
                        .map(|i| {
                            let nc = pq.node_counts(i);
                            match nc.binary_search_by_key(&w, |&(j, _)| j) {
                                Ok(pos) => strategy.prob(v, i) * nc[pos].1,
                                Err(_) => 0.0,
                            }
                        })
                        .sum::<f64>()
                        / n as f64
                })
                .sum();
            if counts[w] > 0 {
                assert!(load <= c + 1e-7, "load {load} exceeds capacity {c} at {w}");
            }
        }
    }

    #[test]
    fn weighted_model_rejects_bad_inputs() {
        let delta = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let counts = vec![vec![(0usize, 1.0)], vec![(1usize, 1.0)]];
        let cap = [1.0, 1.0];
        // Weight count mismatch.
        let err = build_weighted_strategy_model(&delta, &[1.0], &counts, 2, &cap).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
        // Negative weight.
        let err =
            build_weighted_strategy_model(&delta, &[0.5, -0.1], &counts, 2, &cap).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
        // All-zero weights.
        let err = build_weighted_strategy_model(&delta, &[0.0, 0.0], &counts, 2, &cap).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
        // Node index out of range.
        let bad_counts = vec![vec![(5usize, 1.0)], vec![(1usize, 1.0)]];
        let err =
            build_weighted_strategy_model(&delta, &[0.5, 0.5], &bad_counts, 2, &cap).unwrap_err();
        assert!(matches!(err, CoreError::SizeMismatch { .. }));
    }

    /// Demand shifts move only convexity rhs; the weighted optimum tilts
    /// toward the heavy client's preference.
    #[test]
    fn weighted_model_weights_steer_the_objective() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let n = clients.len();
        let m = quorums.len();
        let delta: Vec<Vec<f64>> = (0..n)
            .map(|v| (0..m).map(|i| pq.delta(v, i)).collect())
            .collect();
        let node_counts: Vec<Vec<(usize, f64)>> =
            (0..m).map(|i| pq.node_counts(i).to_vec()).collect();
        let cap_rhs = vec![f64::INFINITY; net.len()];
        let solve = |weights: &[f64]| {
            let lp =
                build_weighted_strategy_model(&delta, weights, &node_counts, net.len(), &cap_rhs)
                    .unwrap();
            let sol = lp.model.solve().unwrap();
            sol.certify(&lp.model).unwrap();
            sol.objective()
        };
        // Unconstrained: objective = Σ_v ŵ_v · min_i δ(v,i); concentrating
        // all demand on the cheapest client can only lower it.
        let uniform = solve(&vec![1.0 / n as f64; n]);
        let best_client = (0..n)
            .min_by(|&a, &b| {
                let da = delta[a].iter().fold(f64::INFINITY, |x, &y| x.min(y));
                let db = delta[b].iter().fold(f64::INFINITY, |x, &y| x.min(y));
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let mut skew = vec![0.0; n];
        skew[best_client] = 1.0;
        assert!(solve(&skew) <= uniform + 1e-9);
    }

    /// Column generation solves the same LP as full enumeration: objectives
    /// agree to 1e-9 across loose, moderate, and tight capacities, and the
    /// recovered strategies are feasible distributions.
    #[test]
    fn colgen_matches_full_enumeration_across_capacities() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let n = clients.len();
        let m = quorums.len();
        let counts = placement.element_counts();
        // 0.56 sits just above this fixture's feasibility floor (≈0.556),
        // so the capacity rows genuinely bind; seed 1 forces the
        // grow-on-infeasible path, seed 3 forces real pricing passes.
        for seed in [1usize, 3, 4] {
            let cfg = ColumnGeneration { seed_columns: seed };
            for &c in &[f64::INFINITY, 2.0, 0.7, 0.56] {
                let caps = CapacityProfile::uniform(net.len(), c);
                let full = full_enumeration(&pq).solve_profile(&caps).unwrap();
                assert_eq!(full.colgen.columns_in_master, n * m);
                assert_eq!(full.colgen.columns_generated, 0);
                let cg = ColGenSolver::new(&pq, cfg.clone())
                    .unwrap()
                    .solve_profile(&caps)
                    .unwrap();
                let stats = cg.colgen;
                assert_eq!(stats.total_columns, n * m);
                assert!(stats.columns_in_master <= stats.total_columns);
                assert!(stats.oracle_passes >= 1);
                assert!(
                    (cg.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()),
                    "seed={seed} c={c}: colgen {} vs full {}",
                    cg.delay_ms,
                    full.delay_ms
                );
                // Feasibility of the recovered strategies, not entrywise
                // equality: optima need not be unique vertices.
                for v in 0..n {
                    let row: f64 = (0..m).map(|i| cg.strategy.prob(v, i)).sum();
                    assert!((row - 1.0).abs() <= 1e-9, "client {v} row sums to {row}");
                }
                if c.is_finite() {
                    for w in 0..net.len() {
                        if counts[w] == 0 {
                            continue;
                        }
                        let load: f64 = (0..n)
                            .map(|v| {
                                (0..m)
                                    .map(|i| {
                                        let nc = pq.node_counts(i);
                                        match nc.binary_search_by_key(&w, |&(j, _)| j) {
                                            Ok(pos) => cg.strategy.prob(v, i) * nc[pos].1,
                                            Err(_) => 0.0,
                                        }
                                    })
                                    .sum::<f64>()
                                    / n as f64
                            })
                            .sum();
                        assert!(
                            load <= c + 1e-7,
                            "seed={seed} c={c}: load {load} at node {w}"
                        );
                    }
                }
            }
        }
    }

    /// With a mid-size seed at binding capacity, the *pricing oracle*
    /// itself (not just the infeasibility-growth path) must generate
    /// columns: multiple passes, each appending profitably-priced columns,
    /// converging to the full optimum.
    #[test]
    fn colgen_pricing_oracle_generates_columns() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let caps = CapacityProfile::uniform(net.len(), 0.56);
        let full = full_enumeration(&pq).solve_profile(&caps).unwrap();
        let cg = ColGenSolver::new(&pq, ColumnGeneration { seed_columns: 3 })
            .unwrap()
            .solve_profile(&caps)
            .unwrap();
        let stats = cg.colgen;
        assert!(
            stats.columns_generated > 0,
            "binding capacity must force column generation"
        );
        assert!(
            stats.oracle_passes >= 2,
            "a generating run needs at least one productive pass plus the terminal one"
        );
        assert!(
            stats.columns_in_master < stats.total_columns,
            "pricing must not degenerate into full enumeration here"
        );
        assert!((cg.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()));
    }

    /// After the oracle terminates, re-pricing every absent column against
    /// the final duals finds zero negative reduced costs — the proof of
    /// optimality the loop claims.
    #[test]
    fn colgen_oracle_terminates_with_zero_violations() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
        assert_eq!(solver.pricing_violations(), None);
        for &c in &[2.0, 0.7, 0.56] {
            solver
                .solve_profile(&CapacityProfile::uniform(net.len(), c))
                .unwrap();
            assert_eq!(
                solver.pricing_violations(),
                Some(0),
                "negative reduced costs remain at c={c}"
            );
        }
    }

    /// The point of the exercise: with loose capacity the master stays
    /// near the seeded size, far below the clients × quorums full model.
    #[test]
    fn colgen_generates_far_fewer_columns_than_full_enumeration() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let caps = CapacityProfile::unbounded(net.len());
        let out = ColGenSolver::new(&pq, ColumnGeneration::default())
            .unwrap()
            .solve_profile(&caps)
            .unwrap();
        let stats = out.colgen;
        assert!(
            stats.columns_in_master * 2 <= stats.total_columns,
            "{} of {} columns materialized",
            stats.columns_in_master,
            stats.total_columns
        );
    }

    /// Weighted column generation agrees with the full weighted model
    /// (q-substitution) on the objective.
    #[test]
    fn weighted_colgen_matches_full_weighted_model() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let n = clients.len();
        // Distinct, positive, un-normalized weights: the solver normalizes.
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();
        let total: f64 = weights.iter().sum();
        let normalized: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let c = 0.8;

        let lp = q_form(&pq, &normalized, c);
        let full = lp.model.solve().unwrap();
        full.certify(&lp.model).unwrap();

        let mut solver =
            ColGenSolver::with_weights(&pq, &weights, ColumnGeneration::default()).unwrap();
        let cg = solver
            .solve_profile(&CapacityProfile::uniform(net.len(), c))
            .unwrap();
        assert!(
            (cg.delay_ms - full.objective()).abs() <= 1e-9 * (1.0 + full.objective().abs()),
            "weighted colgen {} vs full weighted {}",
            cg.delay_ms,
            full.objective()
        );
        assert_eq!(solver.pricing_violations(), Some(0));
    }

    /// Capacities below the placement's feasibility floor must come back
    /// as a genuine `Infeasible` — the grow-on-infeasible loop enumerates
    /// fully before giving up, never misreporting a too-small master.
    #[test]
    fn colgen_reports_genuine_infeasibility() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
        let err = solver
            .solve_profile(&CapacityProfile::uniform(net.len(), 1e-6))
            .unwrap_err();
        assert!(matches!(err, CoreError::Infeasible));
        // And the same solver still solves fine at a workable capacity.
        let out = solver
            .solve_profile(&CapacityProfile::uniform(net.len(), 0.7))
            .unwrap();
        assert!(out.delay_ms.is_finite());
        assert_eq!(solver.pricing_violations(), Some(0));
    }

    /// The tuner's sweep agrees with the same sweep on full enumeration on
    /// the selected capacity and score, and its master keeps running
    /// pricing totals across the sweep.
    #[test]
    fn colgen_sweep_matches_full_enumeration_sweep() {
        let (net, clients, sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let l_opt = sys.optimal_load().unwrap();
        let model = ResponseModel::network_delay_only();
        let weights = vec![1.0; clients.len()];
        let choice = CapacityChoice::Sweep { steps: 8 };
        let mut full_solver = full_enumeration(&pq);
        let full = tune_capacity(&mut full_solver, &pq, &weights, l_opt, choice, model).unwrap();
        assert_eq!(full_solver.pricing().columns_generated, 0);
        let mut solver = ColGenSolver::new(&pq, ColumnGeneration::default()).unwrap();
        let cg = tune_capacity(&mut solver, &pq, &weights, l_opt, choice, model).unwrap();
        assert_eq!(solver.pricing_violations(), Some(0));
        let stats = solver.pricing();
        assert!(stats.master_resolves >= cg.points.len());
        assert_eq!(stats.total_columns, clients.len() * quorums.len());
        assert_eq!(cg.points.len(), full.points.len());
        let (full_cap, full_eval) = (full.capacity.unwrap(), &full.eval);
        let (cg_cap, cg_eval) = (cg.capacity.unwrap(), &cg.eval);
        assert!(
            (cg_cap - full_cap).abs() <= 1e-9,
            "capacity {cg_cap} vs {full_cap}"
        );
        assert!(
            (cg_eval.avg_response_ms - full_eval.avg_response_ms).abs()
                <= 1e-7 * (1.0 + full_eval.avg_response_ms.abs()),
            "score {} vs {}",
            cg_eval.avg_response_ms,
            full_eval.avg_response_ms
        );
    }

    /// Seed-size extremes: a single seeded column per client and a seed
    /// covering every quorum both converge to the full optimum.
    #[test]
    fn colgen_seed_size_extremes_agree() {
        let (net, clients, _sys, placement, quorums) = setup(3);
        let ctx = EvalContext::new(&net, &clients);
        let pq = ctx.place(&placement, &quorums);
        let caps = CapacityProfile::uniform(net.len(), 0.7);
        let full = full_enumeration(&pq).solve_profile(&caps).unwrap();
        for seed in [1, quorums.len(), quorums.len() + 7] {
            let out = ColGenSolver::new(&pq, ColumnGeneration { seed_columns: seed })
                .unwrap()
                .solve_profile(&caps)
                .unwrap();
            assert!(
                (out.delay_ms - full.delay_ms).abs() <= 1e-9 * (1.0 + full.delay_ms.abs()),
                "seed={seed}: {} vs {}",
                out.delay_ms,
                full.delay_ms
            );
        }
    }
}
