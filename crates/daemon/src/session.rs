//! Live placement sessions: state, delta application, warm re-solve,
//! capacity re-tuning, migration plans, and cold cross-checks.

use qp_core::capacity::capacity_sweep;
use qp_core::strategy_lp::build_weighted_strategy_model;
use qp_core::Placement;
use qp_lp::{LpError, SimplexInstance, Solution, VarId};
use qp_quorum::Quorum;
use qp_topology::Network;

use crate::protocol::Delta;

use std::convert::Infallible;
use std::fmt;

/// Relative symmetry-breaking jitter folded into every objective
/// coefficient. Large enough (vs the solver tolerance ~1e-9) to make the
/// LP optimum generically unique — so the warm path and the cold
/// cross-check land on the same vertex — and small enough (~1e-5 ms on
/// WAN delays) to be irrelevant to the answer.
const JITTER: f64 = 1e-7;

/// Smallest positive share of the total demand a client may hold. The
/// solver's tolerance is ~1e-9, so below it a client's convexity row is
/// noise to the LP and its strategy is not determined: the warm answer
/// and the cold cross-check then disagree, and recovery refuses the state
/// directory.
const MIN_DEMAND_SHARE: f64 = 1e-9;

/// Largest slowdown factor a site may take. A huge factor stretches the
/// objective over more decades than the solver's tolerance resolves.
/// Probed in powers of ten on one host site each of planetlab50 `grid:3`
/// and `grid:5` and daxlist161 `grid:7`, at demand 0 and 16000, the
/// smallest breaking factor was 1e7: from there `cold_check` hit the LP
/// iteration limit on daxlist161 `grid:7`, and from 1e8 `apply` itself
/// failed there at demand 16000, leaving the session degraded. On
/// planetlab50 the check broke from 1e8 (`grid:5`) and 1e10 (`grid:3`).
/// Every factor up to 1e6 passed, and so did every factor down to
/// 1e-300. So the bound sits two decades below the first failure, and
/// there is no lower bound beyond `> 0`.
const MAX_SLOWDOWN: f64 = 1e5;

/// Everything needed to open a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The wide-area network; every node is a client.
    pub net: Network,
    /// The quorums of the deployed system.
    pub quorums: Vec<Quorum>,
    /// Placement of the universe onto network nodes.
    pub placement: Placement,
    /// Load–delay coupling `α = op_srv_time × client_demand` of the
    /// response model (4.1); `0` scores pure network delay.
    pub alpha: f64,
    /// Lower edge of the §7 uniform-capacity sweep grid (the system's
    /// optimal load `L_opt`).
    pub l_opt: f64,
    /// Number of sweep points `cᵢ = L_opt + i·(1−L_opt)/steps`.
    pub sweep_steps: usize,
    /// Always `None`; removed with the next benchmark change. The field
    /// only keeps struct literals that name it compiling: sessions tune
    /// on the resident LP alone.
    pub colgen: Option<Infallible>,
}

/// Errors from session construction or delta application.
#[derive(Debug)]
pub enum SessionError {
    /// The configuration is inconsistent.
    Config(String),
    /// A delta referenced a bad index or carried a bad value.
    BadDelta(String),
    /// No feasible strategy exists in the current state (e.g. crashes
    /// disconnected every quorum); the previous answer is kept.
    Infeasible(String),
    /// The underlying LP failed for a numerical reason.
    Lp(LpError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Config(m) => write!(f, "config: {m}"),
            SessionError::BadDelta(m) => write!(f, "bad delta: {m}"),
            SessionError::Infeasible(m) => write!(f, "infeasible: {m}"),
            SessionError::Lp(e) => write!(f, "lp: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<LpError> for SessionError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::Infeasible => SessionError::Infeasible("lp infeasible".into()),
            other => SessionError::Lp(other),
        }
    }
}

/// A tuned answer: strategies, scores, and the pivots spent reaching it.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Per-client strategy rows `p_vi` (each row sums to 1, or is all
    /// zero for a client with zero demand weight).
    pub strategy: Vec<Vec<f64>>,
    /// Demand-weighted average network delay (ms) of the strategy at the
    /// slowdown-scaled delays: the LP objective without its tie-breaking
    /// jitter.
    pub delay_ms: f64,
    /// Demand-weighted average response time (ms) under the load-aware
    /// model (4.1) with per-site slowdown factors applied.
    pub response_ms: f64,
    /// The tuned uniform capacity adopted for this answer.
    pub capacity: f64,
    /// Simplex pivots spent producing this answer.
    pub pivots: u64,
}

/// One client's share of a [`MigrationPlan`].
#[derive(Debug, Clone)]
pub struct Move {
    /// Client (node index).
    pub client: usize,
    /// Quorum losing the most probability mass.
    pub from: usize,
    /// Quorum gaining the most probability mass.
    pub to: usize,
    /// Demand-weighted mass this client moves: `ŵ_v · Σᵢ max(Δp_vi, 0)`.
    pub mass: f64,
}

/// How the deployment changes between consecutive answers.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Total demand-weighted probability mass that changes quorum.
    pub moved_mass: f64,
    /// Change in weighted average network delay (ms), new − old.
    pub delay_delta_ms: f64,
    /// Change in weighted average response time (ms), new − old.
    pub response_delta_ms: f64,
    /// The largest per-client moves, descending by mass (at most 5).
    pub moves: Vec<Move>,
}

/// Result of applying one delta: the new answer plus the migration plan
/// away from the previous one.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Sequence number of the applied delta (1-based).
    pub seq: u64,
    /// The re-tuned answer.
    pub answer: Answer,
    /// Diff against the previous answer.
    pub migration: MigrationPlan,
}

/// A point-in-time summary of the session.
#[derive(Debug, Clone)]
pub struct Status {
    /// Deltas applied so far.
    pub seq: u64,
    /// Network size (= number of clients).
    pub num_nodes: usize,
    /// Number of quorums.
    pub num_quorums: usize,
    /// Current tuned capacity.
    pub capacity: f64,
    /// Current weighted delay (ms).
    pub delay_ms: f64,
    /// Current weighted response (ms).
    pub response_ms: f64,
    /// Currently crashed nodes.
    pub crashed: Vec<usize>,
    /// Sites with slowdown factor ≠ 1, as `(site, factor)`.
    pub slowed: Vec<(usize, f64)>,
    /// Total pivots spent by the warm path across all deltas.
    pub warm_pivots: u64,
    /// Whether the session is pinned on its last-good answer because the
    /// most recent delta left the LP infeasible (or the solver errored).
    pub degraded: bool,
}

/// Outcome of a warm-vs-cold cross-check ([`Session::cold_check`]).
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// All diffs within 1e-9 (relative) and capacities identical.
    pub ok: bool,
    /// The cold rebuild tuned to the identical capacity.
    pub capacity_match: bool,
    /// |warm − cold| weighted delay.
    pub delay_diff: f64,
    /// |warm − cold| weighted response.
    pub response_diff: f64,
    /// Max entrywise strategy difference.
    pub max_strategy_diff: f64,
    /// Pivots the warm path spent on the current answer.
    pub warm_pivots: u64,
    /// Pivots the cold rebuild spent.
    pub cold_pivots: u64,
}

/// The minimal mutable state the base of the persisted log must carry
/// to reproduce a session: everything else is a pure function of the
/// [`SessionConfig`]. Replaying this through
/// [`Session::restore_state`] and re-tuning lands on the identical
/// answer (the jittered optimum is unique).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedState {
    /// Deltas applied so far.
    pub seq: u64,
    /// Raw (unnormalized) per-client demand weights.
    pub raw_weights: Vec<f64>,
    /// Per-site service slowdown factors.
    pub slowdown: Vec<f64>,
    /// Currently crashed nodes, ascending.
    pub crashed: Vec<usize>,
}

/// An owned snapshot of everything a cold recompute needs — safe to ship
/// to another thread and replay with [`cold_recompute`].
#[derive(Debug, Clone)]
pub struct ColdInputs {
    delta_eff: Vec<Vec<f64>>,
    weights: Vec<f64>,
    node_counts: Vec<Vec<(usize, f64)>>,
    hosts: Vec<Vec<usize>>,
    dist: Vec<Vec<f64>>,
    slowdown: Vec<f64>,
    crashed: Vec<bool>,
    loaded: Vec<bool>,
    alpha: f64,
    l_opt: f64,
    sweep_steps: usize,
}

/// A live placement session: topology + placement + resident warm LP.
pub struct Session {
    // Immutable geometry.
    quorums: Vec<Quorum>,
    hosts: Vec<Vec<usize>>,
    node_counts: Vec<Vec<(usize, f64)>>,
    loaded: Vec<bool>,
    dist: Vec<Vec<f64>>,
    jitter: Vec<Vec<f64>>,
    alpha: f64,
    l_opt: f64,
    sweep_steps: usize,
    // Live state.
    raw_weights: Vec<f64>,
    weights: Vec<f64>,
    slowdown: Vec<f64>,
    crashed: Vec<bool>,
    seq: u64,
    // Resident LP.
    instance: SimplexInstance,
    conv_rows: Vec<usize>,
    cap_rows: Vec<(usize, usize)>,
    delta_eff: Vec<Vec<f64>>,
    capacity: f64,
    // Current answer and counters.
    current: Answer,
    warm_pivots: u64,
    degraded: bool,
}

impl Session {
    /// Opens a session: builds the resident LP, cold-solves it once at
    /// the loosest capacity, and tunes to the response-minimizing sweep
    /// point.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] on inconsistent inputs,
    /// [`SessionError::Infeasible`] if even the loosest capacity admits
    /// no strategy.
    pub fn new(cfg: SessionConfig) -> Result<Session, SessionError> {
        let n = cfg.net.len();
        let m = cfg.quorums.len();
        let bad = |m: String| Err(SessionError::Config(m));
        if n == 0 {
            return bad("empty network".into());
        }
        if m == 0 {
            return bad("no quorums".into());
        }
        if cfg.placement.num_nodes() != n {
            return bad(format!(
                "placement covers {} nodes, network has {n}",
                cfg.placement.num_nodes()
            ));
        }
        let universe = cfg.placement.universe_size();
        if cfg
            .quorums
            .iter()
            .flat_map(|q| q.iter())
            .any(|e| e.index() >= universe)
        {
            return bad(format!("quorum element outside universe of {universe}"));
        }
        if !cfg.alpha.is_finite() || cfg.alpha < 0.0 {
            return bad(format!("alpha {} must be finite and ≥ 0", cfg.alpha));
        }
        if !(0.0..=1.0).contains(&cfg.l_opt) {
            return bad(format!("l_opt {} must lie in [0, 1]", cfg.l_opt));
        }
        if cfg.sweep_steps == 0 {
            return bad("sweep_steps must be ≥ 1".into());
        }

        // Geometry: hosts in element order (repeats preserved — they are
        // what make many-to-one load coefficients > 1), and per-quorum
        // sorted (node, element-count) pairs.
        let mut hosts: Vec<Vec<usize>> = Vec::with_capacity(m);
        let mut node_counts: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut loaded = vec![false; n];
        for q in &cfg.quorums {
            let hs: Vec<usize> = q.iter().map(|e| cfg.placement.node_of(e).index()).collect();
            let mut counts: Vec<(usize, f64)> = Vec::new();
            for &w in &hs {
                loaded[w] = true;
                match counts.binary_search_by_key(&w, |&(j, _)| j) {
                    Ok(pos) => counts[pos].1 += 1.0,
                    Err(pos) => counts.insert(pos, (w, 1.0)),
                }
            }
            hosts.push(hs);
            node_counts.push(counts);
        }
        // Placement can load nodes through elements no enumerated quorum
        // uses; those never bind either.
        let dist: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|w| {
                        cfg.net
                            .distance(qp_topology::NodeId::new(v), qp_topology::NodeId::new(w))
                    })
                    .collect()
            })
            .collect();
        let jitter: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..m)
                    .map(|i| {
                        let h = qp_par::job_seed(0x71d_5eed, v * m + i);
                        1.0 + JITTER * ((h >> 11) as f64 / (1u64 << 53) as f64)
                    })
                    .collect()
            })
            .collect();

        let raw_weights = vec![1.0; n];
        let weights = vec![1.0 / n as f64; n];
        let slowdown = vec![1.0; n];
        let crashed = vec![false; n];
        let delta_eff = effective_delta(&dist, &slowdown, &hosts, &jitter);

        // Resident LP at the loosest capacity (1.0 — one-to-one loads
        // never exceed it), then tune down.
        let cap_rhs: Vec<f64> = (0..n)
            .map(|w| if loaded[w] { 1.0 } else { f64::INFINITY })
            .collect();
        let lp = build_weighted_strategy_model(&delta_eff, &weights, &node_counts, n, &cap_rhs)
            .map_err(|e| SessionError::Config(e.to_string()))?;
        let instance = SimplexInstance::new(lp.model);

        let mut session = Session {
            quorums: cfg.quorums,
            hosts,
            node_counts,
            loaded,
            dist,
            jitter,
            alpha: cfg.alpha,
            l_opt: cfg.l_opt,
            sweep_steps: cfg.sweep_steps,
            raw_weights,
            weights,
            slowdown,
            crashed,
            seq: 0,
            instance,
            conv_rows: lp.conv_rows,
            cap_rows: lp.cap_rows,
            delta_eff,
            capacity: 1.0,
            current: Answer {
                strategy: Vec::new(),
                delay_ms: 0.0,
                response_ms: 0.0,
                capacity: 1.0,
                pivots: 0,
            },
            warm_pivots: 0,
            degraded: false,
        };
        let (answer, _pivots) = session.tune()?;
        session.current = answer;
        Ok(session)
    }

    /// The current tuned answer.
    pub fn answer(&self) -> &Answer {
        &self.current
    }

    /// Number of clients (= network nodes).
    pub fn num_clients(&self) -> usize {
        self.weights.len()
    }

    /// Number of quorums.
    pub fn num_quorums(&self) -> usize {
        self.quorums.len()
    }

    /// Deltas applied so far (the sequence number of the last one).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether the session is pinned on its last-good answer because
    /// the most recent delta left the LP infeasible or the solver
    /// errored. A later delta that tunes cleanly (e.g. a `restore`)
    /// clears the flag.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The minimal mutable state a log's base needs to reproduce this
    /// session (see [`PersistedState`]).
    pub fn persisted_state(&self) -> PersistedState {
        PersistedState {
            seq: self.seq,
            raw_weights: self.raw_weights.clone(),
            slowdown: self.slowdown.clone(),
            crashed: (0..self.crashed.len())
                .filter(|&w| self.crashed[w])
                .collect(),
        }
    }

    /// Restores a freshly opened session to a persisted state in one
    /// shot: bulk-edits the resident LP (slowdown objectives, demand rhs,
    /// crash capacities) through the helpers [`apply`](Self::apply)
    /// uses, forces the sequence number, and re-tunes once. An infeasible
    /// restored state is not an error — the session comes back
    /// [`degraded`](Self::degraded), pinned on its pre-restore answer,
    /// exactly as if the deltas had been applied live.
    ///
    /// # Errors
    ///
    /// [`SessionError::Config`] when the state's dimensions or values
    /// don't fit this session (refused slowdowns leave the session
    /// untouched; refused demand weights leave the slowdowns written, so
    /// discard the session); [`SessionError::Lp`] only on solver failures
    /// outside the tune itself.
    pub fn restore_state(&mut self, state: &PersistedState) -> Result<(), SessionError> {
        let n = self.weights.len();
        let bad = |m: String| Err(SessionError::Config(m));
        if state.raw_weights.len() != n || state.slowdown.len() != n {
            return bad(format!(
                "persisted state sized for {} weights / {} sites, session has {n} nodes",
                state.raw_weights.len(),
                state.slowdown.len()
            ));
        }
        if state.crashed.iter().any(|&w| w >= n) {
            return bad(format!("persisted crashed node out of range for {n} nodes"));
        }

        let persisted = |e| match e {
            SessionError::BadDelta(m) => SessionError::Config(format!("persisted {m}")),
            e => e,
        };
        self.set_slowdown(state.slowdown.clone())
            .map_err(persisted)?;
        self.set_demand(state.raw_weights.clone())
            .map_err(persisted)?;
        for &w in &state.crashed {
            self.set_crashed(w, true);
        }
        self.seq = state.seq;

        match self.tune() {
            Ok((answer, _pivots)) => {
                self.degraded = false;
                self.current = answer;
                Ok(())
            }
            Err(SessionError::Infeasible(_)) | Err(SessionError::Lp(_)) => {
                self.degraded = true;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Point-in-time summary.
    pub fn status(&self) -> Status {
        Status {
            seq: self.seq,
            num_nodes: self.weights.len(),
            num_quorums: self.quorums.len(),
            capacity: self.capacity,
            delay_ms: self.current.delay_ms,
            response_ms: self.current.response_ms,
            crashed: (0..self.crashed.len())
                .filter(|&w| self.crashed[w])
                .collect(),
            slowed: (0..self.slowdown.len())
                .filter(|&w| self.slowdown[w] != 1.0)
                .map(|w| (w, self.slowdown[w]))
                .collect(),
            warm_pivots: self.warm_pivots,
            degraded: self.degraded,
        }
    }

    /// Applies one delta: edits the resident LP in place, re-solves
    /// warm, re-tunes the capacity, and reports the migration plan.
    ///
    /// # Errors
    ///
    /// [`SessionError::BadDelta`] leaves the session untouched;
    /// [`SessionError::Infeasible`] means the delta was recorded (the
    /// state advanced) but no feasible strategy exists until a
    /// counteracting delta (e.g. a `restore`) arrives — the previous
    /// answer is kept.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaReport, SessionError> {
        let n = self.weights.len();
        let (what, index) = match *delta {
            Delta::Slowdown { site, .. } => ("site", site),
            Delta::Demand { loc, .. } => ("client", loc),
            Delta::Crash { node } | Delta::Restore { node } => ("node", node),
        };
        if index >= n {
            return Err(SessionError::BadDelta(format!(
                "{what} {index} out of range for {n} nodes"
            )));
        }
        match *delta {
            Delta::Slowdown { site, factor } => {
                let mut slowdown = self.slowdown.clone();
                slowdown[site] = factor;
                self.set_slowdown(slowdown)?;
            }
            Delta::Demand { loc, weight } => {
                let mut raw_weights = self.raw_weights.clone();
                raw_weights[loc] = weight;
                self.set_demand(raw_weights)?;
            }
            Delta::Crash { node } => {
                if self.crashed[node] {
                    return Err(SessionError::BadDelta(format!(
                        "node {node} is already crashed"
                    )));
                }
                self.set_crashed(node, true);
            }
            Delta::Restore { node } => {
                let mut slowdown = self.slowdown.clone();
                slowdown[node] = 1.0;
                self.set_slowdown(slowdown)?;
                self.set_crashed(node, false);
            }
        }
        self.seq += 1;

        let old = self.current.clone();
        let (answer, _pivots) = match self.tune() {
            Ok(tuned) => {
                self.degraded = false;
                tuned
            }
            Err(e) => {
                // The delta is recorded (seq advanced) but the LP could
                // not re-tune: pin the last-good answer and flag the
                // session degraded until a counteracting delta lands.
                if matches!(e, SessionError::Infeasible(_) | SessionError::Lp(_)) {
                    self.degraded = true;
                }
                return Err(e);
            }
        };
        let migration = self.migration_plan(&old, &answer);
        self.current = answer.clone();
        Ok(DeltaReport {
            seq: self.seq,
            answer,
            migration,
        })
    }

    /// Rebuilds the whole problem from scratch — fresh model, cold
    /// solves across the sweep — and compares against the resident
    /// warm answer. The protocol's `check` command.
    ///
    /// # Errors
    ///
    /// [`SessionError::Infeasible`] if the cold rebuild finds no
    /// feasible sweep point (the warm path would have reported the same
    /// on its last delta).
    pub fn cold_check(&self) -> Result<CheckReport, SessionError> {
        let (cold, cold_pivots) = cold_recompute(&self.cold_inputs())?;
        let warm = &self.current;
        let rel = |a: f64, b: f64| (a - b).abs() / (1.0 + a.abs().max(b.abs()));
        let delay_diff = rel(warm.delay_ms, cold.delay_ms);
        let response_diff = rel(warm.response_ms, cold.response_ms);
        let capacity_match = warm.capacity == cold.capacity;
        let mut max_strategy_diff: f64 = 0.0;
        for (wr, cr) in warm.strategy.iter().zip(&cold.strategy) {
            for (a, b) in wr.iter().zip(cr) {
                max_strategy_diff = max_strategy_diff.max((a - b).abs());
            }
        }
        let tol = 1e-9;
        Ok(CheckReport {
            ok: capacity_match
                && delay_diff <= tol
                && response_diff <= tol
                && max_strategy_diff <= tol,
            capacity_match,
            delay_diff,
            response_diff,
            max_strategy_diff,
            warm_pivots: warm.pivots,
            cold_pivots,
        })
    }

    /// Snapshots everything a cold recompute needs (for out-of-band
    /// cross-checking, e.g. the soak harness fanning cold replays over
    /// a thread pool).
    pub fn cold_inputs(&self) -> ColdInputs {
        ColdInputs {
            delta_eff: self.delta_eff.clone(),
            weights: self.weights.clone(),
            node_counts: self.node_counts.clone(),
            hosts: self.hosts.clone(),
            dist: self.dist.clone(),
            slowdown: self.slowdown.clone(),
            crashed: self.crashed.clone(),
            loaded: self.loaded.clone(),
            alpha: self.alpha,
            l_opt: self.l_opt,
            sweep_steps: self.sweep_steps,
        }
    }

    /// Capacity row for `node`, if it has one.
    fn cap_row_of(&self, node: usize) -> Option<usize> {
        self.cap_rows
            .iter()
            .find(|&&(w, _)| w == node)
            .map(|&(_, row)| row)
    }

    /// Adopts the per-site slowdown factors `slowdown`: recomputes
    /// `δ'(v, i)` for every quorum touching a site whose factor changes
    /// and pushes the changed objective coefficients into the resident
    /// instance in one batch — the primal-warm-start path.
    ///
    /// # Errors
    ///
    /// [`SessionError::BadDelta`] if a factor is not in
    /// `(0, MAX_SLOWDOWN]` (NaN included) or a coefficient would not be
    /// finite (a delay overflows). Nothing is written then.
    fn set_slowdown(&mut self, slowdown: Vec<f64>) -> Result<(), SessionError> {
        if let Some(f) = slowdown.iter().find(|&&f| !(f > 0.0 && f <= MAX_SLOWDOWN)) {
            return Err(SessionError::BadDelta(format!(
                "slowdown factor {f:e} must be > 0 and ≤ {MAX_SLOWDOWN:e}"
            )));
        }
        let m = self.quorums.len();
        let n = self.weights.len();
        let sites: Vec<usize> = (0..n)
            .filter(|&w| slowdown[w] != self.slowdown[w])
            .collect();
        let mut changed: Vec<(VarId, f64)> = Vec::new();
        for i in 0..m {
            let touched = sites.iter().any(|&site| {
                self.node_counts[i]
                    .binary_search_by_key(&site, |&(j, _)| j)
                    .is_ok()
            });
            if !touched {
                continue;
            }
            for v in 0..n {
                let mut d = f64::MIN;
                for &w in &self.hosts[i] {
                    d = d.max(self.dist[v][w] * slowdown[w]);
                }
                let val = d * self.jitter[v][i];
                if !val.is_finite() {
                    return Err(SessionError::BadDelta(format!(
                        "slowdown makes the delay from client {v} to quorum {i} overflow"
                    )));
                }
                if val != self.delta_eff[v][i] {
                    changed.push((VarId::from_index(v * m + i), val));
                }
            }
        }
        self.instance.set_objectives(&changed)?;
        for &(x, val) in &changed {
            self.delta_eff[x.index() / m][x.index() % m] = val;
        }
        self.slowdown = slowdown;
        Ok(())
    }

    /// Adopts the raw demand weights `raw`: normalizes them into the
    /// shares the convexity rows take.
    ///
    /// # Errors
    ///
    /// [`SessionError::BadDelta`] if a weight is negative or not finite,
    /// or the weights cannot be normalized into shares the LP resolves:
    /// their total is zero or overflows, or a positive weight's share of
    /// it is below [`MIN_DEMAND_SHARE`]. Nothing is written then.
    fn set_demand(&mut self, raw: Vec<f64>) -> Result<(), SessionError> {
        let bad = |m: String| Err(SessionError::BadDelta(m));
        if let Some(w) = raw.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return bad(format!("demand weight {w} must be finite and ≥ 0"));
        }
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            return bad("demand weights sum to zero".into());
        }
        if !total.is_finite() {
            return bad(format!("demand weights sum to {total}"));
        }
        if let Some(v) = raw
            .iter()
            .position(|&w| w > 0.0 && w / total < MIN_DEMAND_SHARE)
        {
            return bad(format!(
                "client {v}'s demand share {:e} is below {MIN_DEMAND_SHARE:e}",
                raw[v] / total
            ));
        }
        self.raw_weights = raw;
        for v in 0..self.weights.len() {
            self.weights[v] = self.raw_weights[v] / total;
            self.instance.set_rhs(self.conv_rows[v], self.weights[v]);
        }
        Ok(())
    }

    /// Marks `node` crashed (its capacity row, if it has one, drops to 0)
    /// or back in service (the row takes the tuned capacity again).
    fn set_crashed(&mut self, node: usize, crashed: bool) {
        self.crashed[node] = crashed;
        if let Some(row) = self.cap_row_of(node) {
            self.instance
                .set_rhs(row, if crashed { 0.0 } else { self.capacity });
        }
    }

    /// Re-solves at the current right-hand sides (clearing any pending
    /// objective change through the primal warm path), sweeps the
    /// capacity grid warm — each point's capacity rhs set on the resident
    /// instance and re-solved from the previous point's basis — adopts the
    /// response-minimizing point, and returns the tuned answer plus the
    /// pivots spent.
    fn tune(&mut self) -> Result<(Answer, u64), SessionError> {
        let mut pivots: u64 = 0;
        // Step 1: re-establish an optimal basis at the current state.
        // After an objective delta this is the primal warm re-solve; a
        // crash at tight capacity can make it infeasible, which is fine
        // — the sweep below hunts for a capacity that works.
        match self.instance.resolve() {
            Ok(sol) => pivots += sol.stats().iterations as u64,
            Err(LpError::Infeasible) => {}
            Err(e) => return Err(e.into()),
        }
        // Step 2: warm sweep over the capacity grid, one point after
        // another on the resident instance.
        let grid = capacity_sweep(self.l_opt, self.sweep_steps);
        let mut scored: Vec<(f64, f64)> = Vec::new(); // (capacity, score)
        for &c in &grid {
            self.set_capacity_rows(c);
            let sol = match self.instance.resolve() {
                Ok(sol) => sol,
                Err(LpError::Infeasible) => continue,
                Err(e) => return Err(e.into()),
            };
            pivots += sol.stats().iterations as u64;
            let q = self.q_matrix(&sol);
            let score = self.score(&q, self.alpha);
            scored.push((c, score));
        }
        let Some(best_c) = pick_capacity(&scored) else {
            return Err(SessionError::Infeasible(
                "no sweep capacity admits a strategy — restore nodes".into(),
            ));
        };
        // Step 3: adopt the winner and land the resident basis on it.
        self.set_capacity_rows(best_c);
        self.capacity = best_c;
        let sol = self.instance.resolve()?;
        pivots += sol.stats().iterations as u64;
        let q = self.q_matrix(&sol);
        let answer = Answer {
            strategy: strategies(&q),
            delay_ms: self.score(&q, 0.0),
            response_ms: self.score(&q, self.alpha),
            capacity: best_c,
            pivots,
        };
        self.warm_pivots += pivots;
        Ok((answer, pivots))
    }

    /// Sets every capacity row of the resident LP to `c`, except crashed
    /// nodes', which stay at 0.
    fn set_capacity_rows(&mut self, c: f64) {
        for &(w, row) in &self.cap_rows {
            self.instance
                .set_rhs(row, if self.crashed[w] { 0.0 } else { c });
        }
    }

    /// Demand-weighted response of `q` under model (4.1) with load
    /// coupling `alpha` and the slowdown-scaled delays. `alpha = 0` gives
    /// the weighted network delay the LP minimizes, without the
    /// tie-breaking jitter of its objective.
    fn score(&self, q: &[Vec<f64>], alpha: f64) -> f64 {
        weighted_response(
            q,
            &self.hosts,
            &self.node_counts,
            &self.dist,
            &self.slowdown,
            alpha,
        )
    }

    /// Extracts the `q` matrix from a solution of the resident LP.
    fn q_matrix(&self, sol: &Solution) -> Vec<Vec<f64>> {
        let m = self.quorums.len();
        (0..self.weights.len())
            .map(|v| {
                (0..m)
                    .map(|i| sol.value(VarId::from_index(v * m + i)).max(0.0))
                    .collect()
            })
            .collect()
    }

    /// Diffs two answers into a migration plan.
    fn migration_plan(&self, old: &Answer, new: &Answer) -> MigrationPlan {
        let mut moved_mass = 0.0;
        let mut moves: Vec<Move> = Vec::new();
        for (v, (or, nr)) in old.strategy.iter().zip(&new.strategy).enumerate() {
            let mut gained = 0.0f64;
            let (mut from, mut from_drop) = (0usize, 0.0f64);
            let (mut to, mut to_gain) = (0usize, 0.0f64);
            for (i, (&o, &nw)) in or.iter().zip(nr).enumerate() {
                let d = nw - o;
                if d > 0.0 {
                    gained += d;
                    if d > to_gain {
                        to_gain = d;
                        to = i;
                    }
                } else if -d > from_drop {
                    from_drop = -d;
                    from = i;
                }
            }
            let mass = self.weights[v] * gained;
            moved_mass += mass;
            if mass > 1e-12 {
                moves.push(Move {
                    client: v,
                    from,
                    to,
                    mass,
                });
            }
        }
        moves.sort_by(|a, b| {
            b.mass
                .partial_cmp(&a.mass)
                .unwrap()
                .then(a.client.cmp(&b.client))
        });
        moves.truncate(5);
        MigrationPlan {
            moved_mass,
            delay_delta_ms: new.delay_ms - old.delay_ms,
            response_delta_ms: new.response_ms - old.response_ms,
            moves,
        }
    }
}

/// The effective objective matrix: `δ'(v,i) = max_{w ∈ hosts(i)}
/// d(v,w)·σ_w`, scaled by the per-variable symmetry-breaking jitter.
fn effective_delta(
    dist: &[Vec<f64>],
    slowdown: &[f64],
    hosts: &[Vec<usize>],
    jitter: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    let n = dist.len();
    let m = hosts.len();
    (0..n)
        .map(|v| {
            (0..m)
                .map(|i| {
                    let mut d = f64::MIN;
                    for &w in &hosts[i] {
                        d = d.max(dist[v][w] * slowdown[w]);
                    }
                    d * jitter[v][i]
                })
                .collect()
        })
        .collect()
}

/// Demand-weighted average response time of a `q` solution under the
/// load-aware model (4.1) with slowdown-scaled distances. `Σ q = 1`, so
/// the plain double sum is already the weighted average.
fn weighted_response(
    q: &[Vec<f64>],
    hosts: &[Vec<usize>],
    node_counts: &[Vec<(usize, f64)>],
    dist: &[Vec<f64>],
    slowdown: &[f64],
    alpha: f64,
) -> f64 {
    let m = hosts.len();
    // Per-node weighted load from q.
    let mut qsum = vec![0.0f64; m];
    for row in q {
        for (i, &qi) in row.iter().enumerate() {
            qsum[i] += qi;
        }
    }
    let n_nodes = dist.len();
    let mut loads = vec![0.0f64; n_nodes];
    for (i, counts) in node_counts.iter().enumerate() {
        for &(w, cnt) in counts {
            loads[w] += cnt * qsum[i];
        }
    }
    let mut total = 0.0;
    for (v, row) in q.iter().enumerate() {
        for (i, &qi) in row.iter().enumerate() {
            if qi <= 0.0 {
                continue;
            }
            let mut rho = f64::MIN;
            for &w in &hosts[i] {
                rho = rho.max(dist[v][w] * slowdown[w] + alpha * loads[w]);
            }
            total += qi * rho;
        }
    }
    total
}

/// Relative score band within which capacity grid points count as tied.
/// Warm and cold re-solves can score the same point a few ulps apart
/// (3e-16 observed), so a strict argmin could pick different points on
/// the two paths and fail the cross-check.
const TIE_REL: f64 = 1e-12;

/// The capacity of the earliest grid point whose score is within
/// [`TIE_REL`] (relative) of the minimum; `scored` pairs each feasible
/// point's capacity with its score, in grid order. Outside near-ties this
/// is the plain first argmin.
fn pick_capacity(scored: &[(f64, f64)]) -> Option<f64> {
    let min = scored.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    scored
        .iter()
        .find(|&&(_, s)| s <= min + TIE_REL * min.abs())
        .map(|&(c, _)| c)
}

/// Recovers normalized per-client strategies `p = q / ŵ` (rows of a
/// zero-weight client stay all-zero).
fn strategies(q: &[Vec<f64>]) -> Vec<Vec<f64>> {
    q.iter()
        .map(|row| {
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                row.iter().map(|&qi| qi / total).collect()
            } else {
                row.clone()
            }
        })
        .collect()
}

/// Replays a [`ColdInputs`] snapshot from scratch: fresh model per sweep
/// point, cold solves all the way down, identical tuning rule. Returns
/// the answer and the pivots spent. Pure function of the snapshot —
/// bit-identical results at any thread count.
///
/// # Errors
///
/// [`SessionError::Infeasible`] if no sweep point admits a strategy.
pub fn cold_recompute(inp: &ColdInputs) -> Result<(Answer, u64), SessionError> {
    let n = inp.weights.len();
    let grid = capacity_sweep(inp.l_opt, inp.sweep_steps);
    let mut pivots: u64 = 0;
    let mut scored: Vec<(f64, f64)> = Vec::new(); // (capacity, score)
    let solve_at = |c: f64, pivots: &mut u64| -> Result<Option<Solution>, SessionError> {
        let cap_rhs: Vec<f64> = (0..n)
            .map(|w| {
                if !inp.loaded[w] {
                    f64::INFINITY
                } else if inp.crashed[w] {
                    0.0
                } else {
                    c
                }
            })
            .collect();
        let lp = build_weighted_strategy_model(
            &inp.delta_eff,
            &inp.weights,
            &inp.node_counts,
            n,
            &cap_rhs,
        )
        .map_err(|e| SessionError::Config(e.to_string()))?;
        match lp.model.solve() {
            Ok(sol) => {
                *pivots += sol.stats().iterations as u64;
                Ok(Some(sol))
            }
            Err(LpError::Infeasible) => Ok(None),
            Err(e) => Err(e.into()),
        }
    };
    let m = inp.hosts.len();
    let score = |q: &[Vec<f64>], alpha: f64| {
        weighted_response(
            q,
            &inp.hosts,
            &inp.node_counts,
            &inp.dist,
            &inp.slowdown,
            alpha,
        )
    };
    let q_of = |sol: &Solution| -> Vec<Vec<f64>> {
        (0..n)
            .map(|v| {
                (0..m)
                    .map(|i| sol.value(VarId::from_index(v * m + i)).max(0.0))
                    .collect()
            })
            .collect()
    };
    for &c in &grid {
        let Some(sol) = solve_at(c, &mut pivots)? else {
            continue;
        };
        let q = q_of(&sol);
        let score = score(&q, inp.alpha);
        scored.push((c, score));
    }
    let Some(best_c) = pick_capacity(&scored) else {
        return Err(SessionError::Infeasible(
            "no sweep capacity admits a strategy".into(),
        ));
    };
    let sol = solve_at(best_c, &mut pivots)?.ok_or_else(|| {
        SessionError::Infeasible("winning sweep point turned infeasible on re-solve".into())
    })?;
    let q = q_of(&sol);
    Ok((
        Answer {
            strategy: strategies(&q),
            delay_ms: score(&q, 0.0),
            response_ms: score(&q, inp.alpha),
            capacity: best_c,
            pivots,
        },
        pivots,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_core::one_to_one;
    use qp_quorum::QuorumSystem;
    use qp_topology::datasets;

    fn session(steps: usize) -> Session {
        let net = datasets::euclidean_random(12, 100.0, 7);
        let sys = QuorumSystem::grid(3).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        let quorums = sys.enumerate(100).unwrap();
        Session::new(SessionConfig {
            net,
            quorums,
            placement,
            alpha: 12.0,
            l_opt: sys.optimal_load().unwrap_or(0.5),
            sweep_steps: steps,
            colgen: None,
        })
        .unwrap()
    }

    #[test]
    fn near_tied_capacity_scores_pick_the_same_grid_point() {
        // Warm and cold sweeps have scored one grid point 3e-16 apart:
        // either order must select the earlier point.
        let lo = 1.25;
        let hi = lo * (1.0 + 3e-16);
        assert!(hi > lo);
        for scored in [[(0.6, lo), (0.8, hi)], [(0.6, hi), (0.8, lo)]] {
            assert_eq!(pick_capacity(&scored), Some(0.6));
        }
        // Outside near-ties the strict minimum still wins.
        assert_eq!(pick_capacity(&[(0.6, 1.3), (0.8, 1.25)]), Some(0.8));
        assert_eq!(pick_capacity(&[]), None);
    }

    #[test]
    fn initial_answer_is_a_tuned_distribution() {
        let s = session(6);
        let a = s.answer();
        assert_eq!(a.strategy.len(), 12);
        for row in &a.strategy {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "row sums to {total}");
            assert!(row.iter().all(|&p| p >= 0.0));
        }
        assert!(a.delay_ms > 0.0 && a.response_ms >= a.delay_ms);
        assert!(a.capacity > 0.0 && a.capacity <= 1.0);
    }

    #[test]
    fn every_delta_kind_passes_the_cold_cross_check() {
        let mut s = session(6);
        let deltas = [
            Delta::Slowdown {
                site: 3,
                factor: 2.5,
            },
            Delta::Demand {
                loc: 1,
                weight: 4.0,
            },
            Delta::Crash { node: 5 },
            Delta::Slowdown {
                site: 0,
                factor: 1.7,
            },
            Delta::Restore { node: 5 },
        ];
        for d in &deltas {
            let report = s.apply(d).unwrap();
            assert!(report.answer.pivots > 0 || report.migration.moved_mass == 0.0);
            let check = s.cold_check().unwrap();
            assert!(
                check.ok,
                "cross-check failed after {d:?}: cap_match={} delay={} resp={} strat={}",
                check.capacity_match,
                check.delay_diff,
                check.response_diff,
                check.max_strategy_diff
            );
        }
    }

    #[test]
    fn slowdown_steers_mass_away_and_restore_brings_it_back() {
        let mut s = session(6);
        let before = s.answer().clone();
        // Find a node that carries mass, then slow it hard.
        let loaded_site = s
            .cap_rows
            .iter()
            .map(|&(w, _)| w)
            .next()
            .expect("some loaded node");
        let r1 = s
            .apply(&Delta::Slowdown {
                site: loaded_site,
                factor: 10.0,
            })
            .unwrap();
        assert!(r1.answer.response_ms >= before.response_ms - 1e-9);
        let r2 = s.apply(&Delta::Restore { node: loaded_site }).unwrap();
        assert!((r2.answer.response_ms - before.response_ms).abs() <= 1e-6);
        assert!((r2.answer.delay_ms - before.delay_ms).abs() <= 1e-6);
    }

    #[test]
    fn crash_zeroes_mass_on_quorums_using_the_node() {
        let mut s = session(6);
        let victim = s.cap_rows[0].0;
        let report = s.apply(&Delta::Crash { node: victim }).unwrap();
        for (i, counts) in s.node_counts.iter().enumerate() {
            if counts.binary_search_by_key(&victim, |&(j, _)| j).is_ok() {
                for row in &report.answer.strategy {
                    assert!(
                        row[i] <= 1e-9,
                        "quorum {i} touching crashed node {victim} still carries {}",
                        row[i]
                    );
                }
            }
        }
    }

    #[test]
    fn bad_deltas_are_rejected_without_advancing_state() {
        let mut s = session(4);
        let seq = s.status().seq;
        for d in [
            Delta::Slowdown {
                site: 99,
                factor: 2.0,
            },
            Delta::Slowdown {
                site: 0,
                factor: 0.0,
            },
            Delta::Slowdown {
                site: 0,
                factor: f64::NAN,
            },
            Delta::Demand {
                loc: 99,
                weight: 1.0,
            },
            Delta::Demand {
                loc: 0,
                weight: -1.0,
            },
            Delta::Crash { node: 99 },
            Delta::Restore { node: 99 },
        ] {
            assert!(matches!(s.apply(&d), Err(SessionError::BadDelta(_))));
        }
        // Crashing twice is a bad delta too (the first one sticks).
        s.apply(&Delta::Crash { node: 2 }).unwrap();
        assert!(matches!(
            s.apply(&Delta::Crash { node: 2 }),
            Err(SessionError::BadDelta(_))
        ));
        assert_eq!(s.status().seq, seq + 1);
    }

    /// A slowdown factor above [`MAX_SLOWDOWN`] (one that overflows a
    /// delay among them) is refused before anything is written: the
    /// persisted state, the effective delays and the resident LP's costs
    /// are unchanged, and the session keeps passing its cold check. The
    /// bound itself is accepted.
    #[test]
    fn overflowing_slowdown_is_refused_without_writing() {
        let mut s = session(4);
        let site = s.hosts[0][0];
        let state = s.persisted_state();
        let delta_eff = s.delta_eff.clone();
        let costs = |s: &Session| -> Vec<u64> {
            let model = s.instance.model();
            (0..model.num_vars())
                .map(|j| model.objective_coeff(VarId::from_index(j)).to_bits())
                .collect()
        };
        let before = costs(&s);
        for factor in [1e50, 1e308, f64::MAX] {
            assert!(matches!(
                s.apply(&Delta::Slowdown { site, factor }),
                Err(SessionError::BadDelta(_))
            ));
            assert_eq!(s.persisted_state(), state);
            assert_eq!(s.delta_eff, delta_eff);
            assert_eq!(costs(&s), before);
            assert!(s.cold_check().unwrap().ok);
        }
        // A restored state carrying such a factor is refused the same way.
        for factor in [1e50, 1e308] {
            let mut bad = state.clone();
            bad.slowdown[site] = factor;
            assert!(matches!(
                s.restore_state(&bad),
                Err(SessionError::Config(_))
            ));
            assert_eq!(s.persisted_state(), state);
        }
        for factor in [2.5, MAX_SLOWDOWN] {
            s.apply(&Delta::Slowdown { site, factor }).unwrap();
            assert!(s.cold_check().unwrap().ok);
        }
    }

    /// Demand weights whose total overflows, or that leave a client a
    /// positive share too small for the LP to resolve, are refused before
    /// anything is written, and the session keeps passing its cold check.
    #[test]
    fn unresolvable_demand_weights_are_refused_without_writing() {
        let mut s = session(4);
        let state = s.persisted_state();
        let delay = s.answer().delay_ms;
        for (loc, weight) in [(0, 1e308), (1, 1e308), (0, 1e11), (0, f64::MAX)] {
            assert!(matches!(
                s.apply(&Delta::Demand { loc, weight }),
                Err(SessionError::BadDelta(_))
            ));
            assert_eq!(s.persisted_state(), state);
            assert_eq!(s.answer().delay_ms.to_bits(), delay.to_bits());
            assert!(s.cold_check().unwrap().ok);
        }
        for weights in [[1e308, 1e308], [1e11, 1.0]] {
            let mut bad = state.clone();
            bad.raw_weights[..2].copy_from_slice(&weights);
            assert!(matches!(
                s.restore_state(&bad),
                Err(SessionError::Config(_))
            ));
            assert_eq!(s.persisted_state(), state);
        }
        // A large ratio the LP still resolves is accepted and checks.
        s.apply(&Delta::Demand {
            loc: 0,
            weight: 1e6,
        })
        .unwrap();
        assert!(s.cold_check().unwrap().ok);
    }

    #[test]
    fn zeroing_all_demand_is_rejected() {
        let mut s = session(4);
        let n = s.num_clients();
        for v in 0..n - 1 {
            s.apply(&Delta::Demand {
                loc: v,
                weight: 0.0,
            })
            .unwrap();
        }
        assert!(matches!(
            s.apply(&Delta::Demand {
                loc: n - 1,
                weight: 0.0
            }),
            Err(SessionError::BadDelta(_))
        ));
    }

    #[test]
    fn reported_delay_excludes_the_tie_breaking_jitter() {
        // After a slowdown, both tuning paths (the resident LP and the
        // cold recompute) report Σ ŵ·p·δ at the slowdown-scaled delays,
        // not the jittered LP objective.
        let mut s = session(6);
        let site = s.hosts[0][0];
        let answer = s
            .apply(&Delta::Slowdown { site, factor: 3.0 })
            .unwrap()
            .answer;
        let (cold, _) = cold_recompute(&s.cold_inputs()).unwrap();
        for a in [&answer, &cold] {
            let mut expected = 0.0;
            for (v, row) in a.strategy.iter().enumerate() {
                for (i, &p) in row.iter().enumerate() {
                    let delay = s.hosts[i]
                        .iter()
                        .map(|&w| s.dist[v][w] * s.slowdown[w])
                        .fold(f64::MIN, f64::max);
                    expected += s.weights[v] * p * delay;
                }
            }
            assert!(
                (a.delay_ms - expected).abs() <= 1e-12 * expected,
                "reported {} vs unjittered {expected}",
                a.delay_ms
            );
        }
    }

    #[test]
    fn degraded_flag_pins_last_good_answer_until_restore() {
        let mut s = session(6);
        assert!(!s.degraded());
        // Crash every node any quorum uses; the last crash leaves no
        // live quorum and the tune goes infeasible.
        let victims: Vec<usize> = s.cap_rows.iter().map(|&(w, _)| w).collect();
        let before_seq = s.status().seq;
        let mut infeasible_at = None;
        for &w in &victims {
            match s.apply(&Delta::Crash { node: w }) {
                Ok(_) => assert!(!s.degraded()),
                Err(SessionError::Infeasible(_)) => {
                    infeasible_at = Some(w);
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let tipped = infeasible_at.expect("crashing every loaded node must go infeasible");
        assert!(s.degraded(), "infeasible tune must degrade the session");
        // The infeasible delta was still recorded and the last-good
        // answer is pinned.
        assert!(s.status().seq > before_seq);
        assert!(s
            .answer()
            .strategy
            .iter()
            .any(|r| r.iter().sum::<f64>() > 0.5));
        // Restoring the tipping node recovers and clears the flag.
        let report = s.apply(&Delta::Restore { node: tipped }).unwrap();
        assert!(!s.degraded());
        assert!(report.answer.delay_ms > 0.0);
    }

    #[test]
    fn restore_state_reproduces_a_live_session_bit_for_bit() {
        let mut live = session(6);
        live.apply(&Delta::Demand {
            loc: 1,
            weight: 4.0,
        })
        .unwrap();
        live.apply(&Delta::Slowdown {
            site: 3,
            factor: 2.5,
        })
        .unwrap();
        live.apply(&Delta::Crash { node: 5 }).unwrap();

        let mut restored = session(6);
        restored.restore_state(&live.persisted_state()).unwrap();
        assert_eq!(restored.seq(), live.seq());
        assert!(!restored.degraded());
        let (a, b) = (live.answer(), restored.answer());
        assert_eq!(a.capacity, b.capacity);
        let rel = |x: f64, y: f64| (x - y).abs() / (1.0 + x.abs().max(y.abs()));
        assert!(rel(a.delay_ms, b.delay_ms) <= 1e-9);
        assert!(rel(a.response_ms, b.response_ms) <= 1e-9);
        for (ra, rb) in a.strategy.iter().zip(&b.strategy) {
            for (&pa, &pb) in ra.iter().zip(rb) {
                assert!((pa - pb).abs() <= 1e-9);
            }
        }
        assert!(restored.cold_check().unwrap().ok);
    }

    #[test]
    fn restore_state_rejects_mismatched_dimensions() {
        let mut s = session(4);
        let mut state = s.persisted_state();
        state.raw_weights.push(1.0);
        assert!(matches!(
            s.restore_state(&state),
            Err(SessionError::Config(_))
        ));
        let mut state = s.persisted_state();
        state.crashed = vec![99];
        assert!(matches!(
            s.restore_state(&state),
            Err(SessionError::Config(_))
        ));
        let mut state = s.persisted_state();
        state.slowdown[0] = -1.0;
        assert!(matches!(
            s.restore_state(&state),
            Err(SessionError::Config(_))
        ));
    }

    #[test]
    fn warm_path_beats_cold_rebuild_on_pivots_over_a_burst() {
        let mut s = session(6);
        let mut warm_total = 0u64;
        let mut cold_total = 0u64;
        let deltas = [
            Delta::Demand {
                loc: 2,
                weight: 3.0,
            },
            Delta::Slowdown {
                site: 1,
                factor: 1.8,
            },
            Delta::Demand {
                loc: 7,
                weight: 0.2,
            },
            Delta::Slowdown {
                site: 1,
                factor: 1.0,
            },
            Delta::Demand {
                loc: 2,
                weight: 1.0,
            },
        ];
        for d in &deltas {
            let report = s.apply(d).unwrap();
            warm_total += report.answer.pivots;
            let check = s.cold_check().unwrap();
            assert!(check.ok);
            cold_total += check.cold_pivots;
        }
        assert!(
            warm_total < cold_total,
            "warm {warm_total} pivots not cheaper than cold {cold_total}"
        );
    }
}
