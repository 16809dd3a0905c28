//! The event-driven protocol simulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qp_core::response::closest_choices;
use qp_core::Placement;
use qp_des::{Sample, ServiceStation, SimTime, Tally, Ticket, TimeWheel};
use qp_quorum::{ElementId, Quorum, QuorumSystem, StrategyMatrix};
use qp_topology::{Network, NodeId};

use crate::ClientPopulation;

/// How clients pick the quorum for each request.
#[derive(Debug, Clone)]
pub enum QuorumChoice {
    /// A fresh uniform-random quorum per request (the §3 setup: "clients
    /// chose the quorum to access uniformly at random, thereby balancing
    /// client demand across servers").
    Balanced,
    /// Always the client's minimum-network-delay quorum (§6).
    Closest,
    /// Per-request sampling from explicit per-*location* distributions over
    /// an enumerated quorum list (rows must match the population's
    /// location order) — the LP-optimized strategies of §7.
    Weighted {
        /// The enumerated quorum list the strategy indexes into.
        quorums: Vec<Quorum>,
        /// One distribution per client location.
        strategy: StrategyMatrix,
    },
}

/// Client-side fault-tolerance model (opt-in via
/// [`ProtocolConfig::fault`]).
///
/// When enabled, universe elements whose service multiplier reaches
/// [`crash_threshold`](FaultConfig::crash_threshold) are treated as
/// *crashed*: they never reply. Clients discover crashes through a
/// probe-based failure detector that announces the crashed set
/// [`detection_latency_ms`](FaultConfig::detection_latency_ms) after the
/// start of the run. Until then clients keep issuing requests under their
/// nominal strategy; a request touching a crashed element times out after
/// [`timeout_ms`](FaultConfig::timeout_ms) and is retried with exponential
/// backoff plus deterministic jitter (seeded via [`qp_par::job_seed`], so
/// runs are bit-identical at any thread count). Once the detector has
/// fired, retries — and all subsequent fresh requests — fail over to the
/// strategy renormalized over the quorums that avoid crashed elements.
///
/// With **no crashed elements** the model is inert: no timers are
/// scheduled and no extra random draws happen, so the event stream — and
/// therefore every reported statistic — is bit-identical to a run with
/// `fault: None`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Client-side per-attempt timeout, ms.
    pub timeout_ms: f64,
    /// Retries per logical request after the first attempt; a request that
    /// exhausts its retries is abandoned (not counted as completed) and
    /// the closed loop moves on to the client's next request.
    pub max_retries: usize,
    /// Base of the exponential backoff before retry `a`:
    /// `backoff_base_ms · 2^a`, ms.
    pub backoff_base_ms: f64,
    /// Jitter fraction in `[0, 1]`: the backoff is stretched by a factor
    /// in `[1, 1 + backoff_jitter)` drawn from a deterministic per-retry
    /// hash of the seed.
    pub backoff_jitter: f64,
    /// Time at which the failure detector announces the crashed set, ms
    /// from the start of the run. `0` means crashes are known a priori.
    pub detection_latency_ms: f64,
    /// Service multipliers at or above this value mark an element as
    /// crashed (the scenario runner's crash convention is `64.0`).
    pub crash_threshold: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            timeout_ms: 100.0,
            max_retries: 3,
            backoff_base_ms: 10.0,
            backoff_jitter: 0.5,
            detection_latency_ms: 250.0,
            crash_threshold: 64.0,
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    /// Per-request processing time at a server, ms (1.0 in §3).
    pub service_time_ms: f64,
    /// Requests each client issues before measurement starts.
    pub warmup_requests: usize,
    /// Measured requests per client.
    pub measured_requests: usize,
    /// PRNG seed (quorum sampling); fixed seed ⇒ bit-identical reruns.
    pub seed: u64,
    /// Optional per-server service-time multipliers (failure injection /
    /// heterogeneous servers). Length must equal the universe size when
    /// present; 1.0 = nominal.
    pub service_multipliers: Option<Vec<f64>>,
    /// The §8 future-work variant: a node hosting several universe
    /// elements of the accessed quorum executes the request **once**
    /// (service time = the slowest co-located element's), instead of once
    /// per element. No effect on one-to-one placements.
    pub dedup_colocated: bool,
    /// Optional residual per-*node* backlog carried in from a previous
    /// run: node `w` will not serve new arrivals before
    /// `initial_server_busy_ms[w]`. Length must equal the network size
    /// when present. Used by the scenario runner's `carry_queues` mode.
    pub initial_server_busy_ms: Option<Vec<f64>>,
    /// Opt-in client-side failure handling (timeouts, retries, failover,
    /// failure detection). `None` — the default — is the historical
    /// fail-unaware behaviour.
    pub fault: Option<FaultConfig>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            service_time_ms: 1.0,
            warmup_requests: 20,
            measured_requests: 100,
            seed: 0,
            service_multipliers: None,
            dedup_colocated: false,
            initial_server_busy_ms: None,
            fault: None,
        }
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Mean response time over all measured requests, ms.
    pub avg_response_ms: f64,
    /// Mean *idle-server* network delay of the quorums actually accessed,
    /// ms (RTT plus the idle processing at the slowest node — the floor of
    /// the response time).
    pub avg_network_delay_ms: f64,
    /// Mean response time per client, ms (client order =
    /// [`ClientPopulation::client_locations`]).
    pub per_client_response_ms: Vec<f64>,
    /// Response-time percentiles over all measured requests:
    /// `(p50, p95, p99)`.
    pub percentiles_ms: (f64, f64, f64),
    /// Mean queueing wait per served request, per *node* (physical server
    /// machine; co-located elements share one machine).
    pub server_mean_wait_ms: Vec<f64>,
    /// Utilization of each node over the simulated horizon.
    pub server_utilization: Vec<f64>,
    /// Total measured requests.
    pub completed_requests: u64,
    /// Total simulated time, ms.
    pub horizon_ms: f64,
    /// Residual backlog per node at the horizon: how far past the end of
    /// the run each server's queue stretches, ms (0 for idle servers).
    /// Feed into [`ProtocolConfig::initial_server_busy_ms`] to continue a
    /// workload where this run left off.
    pub residual_busy_ms: Vec<f64>,
    /// Client-side timeouts that fired ([`ProtocolConfig::fault`] only;
    /// always 0 without the fault model).
    pub timeouts: u64,
    /// Request re-issues after a timeout (fault model only).
    pub retries: u64,
    /// Re-issues that switched quorums under the detector's renormalized
    /// strategy (fault model only).
    pub failovers: u64,
}

#[derive(Debug)]
enum Event {
    /// A request fragment arrives at a physical node.
    Arrival {
        node: usize,
        service_ms: f64,
        request: usize,
    },
    /// The attempt's last server reply reaches the issuing client. The
    /// attempt completes only then, so its earlier replies get no events:
    /// this one is scheduled once every live fragment has been served, at
    /// the time and under the ticket of the latest reply.
    Reply { request: usize },
    /// The client-side timer for a request attempt fires (fault model
    /// only; scheduled only for attempts that touch a crashed element).
    Timeout { request: usize },
}

/// One request attempt in flight; events refer to it by slot index.
#[derive(Debug, Clone, Copy)]
struct RequestState {
    client: usize,
    /// Send time of the logical request's *first* attempt; response times
    /// are measured from here so retries pay for their timeouts.
    first_sent_at: SimTime,
    /// Live fragments not yet served; serving the last schedules `reply`.
    arrivals: usize,
    /// The latest (time, ticket) among the served fragments' replies:
    /// where the attempt's [`Event::Reply`] pops.
    reply: Option<(SimTime, Ticket)>,
    /// Reply and timeout events the slot still owes: one reply if any
    /// fragment is live, plus a pending timeout. Arrivals pop before their
    /// attempt's reply, so at zero no event refers to the slot and it is
    /// free.
    scheduled: usize,
    /// Idle-network floor: max over the quorum of RTT + service.
    floor_ms: f64,
    measured: bool,
    /// Retry attempt index (0 = first attempt).
    attempt: usize,
    /// A fragment went to a crashed element and never replies: the attempt
    /// cannot complete, and its reply, if it has one, is ignored.
    doomed: bool,
}

/// Mutable state of one exact run: the event wheel, the request slots
/// with their free list, and the buffers every request issue reuses.
struct ExactState {
    rng: StdRng,
    wheel: TimeWheel<Event>,
    slots: Vec<RequestState>,
    free_slots: Vec<usize>,
    /// Fresh requests issued per client.
    issued: Vec<usize>,
    /// The chosen quorum's elements, ascending.
    elements: Vec<ElementId>,
    /// The chosen quorum's [`group_by_node`] pairs.
    by_node: Vec<(usize, usize)>,
    /// `(node, service_ms, dead)` per fragment; dead fragments go to
    /// crashed replicas and are swallowed (no service, no reply).
    messages: Vec<(usize, f64, bool)>,
}

impl ExactState {
    /// Stores `state` in a free slot, or a new one, and returns its index.
    fn occupy(&mut self, state: RequestState) -> usize {
        match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = state;
                slot
            }
            None => {
                self.slots.push(state);
                self.slots.len() - 1
            }
        }
    }

    /// Retires the reply or timeout of `slot`, freeing the slot when it was
    /// the last event it owed, and returns the slot's state for the
    /// handler to read.
    fn retire(&mut self, slot: usize) -> RequestState {
        let state = &mut self.slots[slot];
        state.scheduled -= 1;
        if state.scheduled == 0 {
            self.free_slots.push(slot);
        }
        *state
    }
}

/// How a request issuance relates to the logical request stream.
#[derive(Debug, Clone, Copy)]
enum IssueKind {
    /// Next logical request of the client's closed loop.
    Fresh,
    /// Re-issue of a timed-out logical request.
    Retry {
        attempt: usize,
        first_sent_at: SimTime,
        measured: bool,
    },
}

/// Errors from the protocol simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Placement, system, or strategy sizes disagree.
    SizeMismatch(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::SizeMismatch(reason) => write!(f, "size mismatch: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Added to a crashed element's cost in the detector's closest-quorum
/// fallback so quorums avoiding crashes always rank first.
const CRASH_COST_PENALTY: f64 = 1e12;

/// Floor of the exact engine's wheel quantum, so a zero service time still
/// gives a positive slot width.
const MIN_QUANTUM_MS: f64 = 1e-3;

/// Cap on `Balanced`-choice rejection sampling when avoiding crashed
/// elements (gives up and accepts a doomed quorum after this many draws).
const LIVE_SAMPLE_ATTEMPTS: usize = 64;

/// Crashed-element mask implied by the fault model: service multiplier at
/// or above [`FaultConfig::crash_threshold`]. All-false without the fault
/// model or without multipliers.
pub(crate) fn crashed_mask(universe: usize, config: &ProtocolConfig) -> Vec<bool> {
    if let (Some(f), Some(mults)) = (&config.fault, &config.service_multipliers) {
        mults.iter().map(|&m| m >= f.crash_threshold).collect()
    } else {
        vec![false; universe]
    }
}

/// Deterministic unit-interval draw for retry jitter: retry `index` under
/// `seed` always gets the same value, independent of thread count and
/// event interleaving.
pub(crate) fn jitter_unit(seed: u64, index: u64) -> f64 {
    let h = qp_par::job_seed(seed ^ 0xFA17_7015, index as usize);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The exact engine's CDF walk over a strategy row: one uniform draw,
/// falling through to the last quorum on accumulated rounding slack.
/// A binary search over cumulative sums would round differently at
/// boundaries (`u − p0 < p1` versus `u < p0 + p1`) and pick other
/// quorums for some draws.
fn sample_weighted_row(row: &[f64], rng: &mut StdRng) -> usize {
    let mut pick: f64 = rng.gen_range(0.0..1.0);
    let mut idx = row.len() - 1;
    for (i, &p) in row.iter().enumerate() {
        if pick < p {
            idx = i;
            break;
        }
        pick -= p;
    }
    idx
}

/// Fills `pairs` with the `(node, element)` indices of `elements`, sorted:
/// each run of one node is that node's group, its elements ascending.
pub(crate) fn group_by_node(
    placement: &Placement,
    elements: &[ElementId],
    pairs: &mut Vec<(usize, usize)>,
) {
    pairs.clear();
    pairs.extend(
        elements
            .iter()
            .map(|&u| (placement.node_of(u).index(), u.index())),
    );
    pairs.sort_unstable();
}

/// Shape checks shared by the exact and aggregated engines.
pub(crate) fn validate_inputs(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: &QuorumChoice,
    config: &ProtocolConfig,
) -> Result<(), SimError> {
    let universe = system.universe_size();
    if !(config.service_time_ms.is_finite() && config.service_time_ms >= 0.0) {
        return Err(SimError::SizeMismatch(
            "service time must be nonnegative and finite".to_string(),
        ));
    }
    if placement.universe_size() != universe {
        return Err(SimError::SizeMismatch(format!(
            "placement covers {} elements, system has {universe}",
            placement.universe_size()
        )));
    }
    if let Some(mults) = &config.service_multipliers {
        if mults.len() != universe {
            return Err(SimError::SizeMismatch(format!(
                "{} service multipliers for {universe} servers",
                mults.len()
            )));
        }
        if mults.iter().any(|&m| !m.is_finite() || m < 0.0) {
            return Err(SimError::SizeMismatch(
                "service multipliers must be nonnegative".to_string(),
            ));
        }
    }
    if let Some(busy) = &config.initial_server_busy_ms {
        if busy.len() != net.len() {
            return Err(SimError::SizeMismatch(format!(
                "{} initial backlog entries for {} nodes",
                busy.len(),
                net.len()
            )));
        }
        if busy.iter().any(|&b| !b.is_finite() || b < 0.0) {
            return Err(SimError::SizeMismatch(
                "initial backlogs must be nonnegative".to_string(),
            ));
        }
    }
    if let Some(f) = &config.fault {
        if !(f.timeout_ms.is_finite() && f.timeout_ms > 0.0) {
            return Err(SimError::SizeMismatch(
                "fault timeout must be positive and finite".to_string(),
            ));
        }
        if !(f.backoff_base_ms.is_finite() && f.backoff_base_ms >= 0.0) {
            return Err(SimError::SizeMismatch(
                "fault backoff base must be nonnegative and finite".to_string(),
            ));
        }
        if !(f.backoff_jitter.is_finite() && (0.0..=1.0).contains(&f.backoff_jitter)) {
            return Err(SimError::SizeMismatch(
                "fault backoff jitter must lie in [0, 1]".to_string(),
            ));
        }
        if !(f.detection_latency_ms.is_finite() && f.detection_latency_ms >= 0.0) {
            return Err(SimError::SizeMismatch(
                "fault detection latency must be nonnegative and finite".to_string(),
            ));
        }
        if !(f.crash_threshold.is_finite() && f.crash_threshold > 1.0) {
            return Err(SimError::SizeMismatch(
                "fault crash threshold must be finite and exceed 1".to_string(),
            ));
        }
    }
    if let QuorumChoice::Weighted { quorums, strategy } = choice {
        if strategy.num_clients() != clients.locations().len() {
            return Err(SimError::SizeMismatch(format!(
                "strategy has {} rows for {} client locations",
                strategy.num_clients(),
                clients.locations().len()
            )));
        }
        if strategy.num_quorums() != quorums.len() {
            return Err(SimError::SizeMismatch(format!(
                "strategy has {} columns for {} quorums",
                strategy.num_quorums(),
                quorums.len()
            )));
        }
    }
    Ok(())
}

/// One [`ServiceStation`] per physical node, seeded with any carried-in
/// backlog from [`ProtocolConfig::initial_server_busy_ms`].
pub(crate) fn build_servers(net_len: usize, config: &ProtocolConfig) -> Vec<ServiceStation> {
    match &config.initial_server_busy_ms {
        None => (0..net_len).map(|_| ServiceStation::new()).collect(),
        Some(busy) => busy
            .iter()
            .map(|&ms| ServiceStation::with_initial_backlog(SimTime::from_ms(ms)))
            .collect(),
    }
}

/// Residual backlog per node at the simulation horizon.
pub(crate) fn residual_busy(servers: &[ServiceStation], horizon: SimTime) -> Vec<f64> {
    servers
        .iter()
        .map(|s| (s.free_at() - horizon).max(0.0))
        .collect()
}

/// Runs the protocol simulation to completion (every client finishes its
/// warmup + measured requests) and reports aggregate statistics.
///
/// Each request attempt sends one message per quorum element (per hosting
/// node under [`ProtocolConfig::dedup_colocated`]). Every message is an
/// arrival event at its server, and serving the attempt's last live
/// message schedules its one reply event: q + 1 wheel events for a
/// q-element quorum, plus a timeout for an attempt that touches a crashed
/// element under [`ProtocolConfig::fault`]. The reply pops at the latest
/// of the messages' reply times and, among events at that instant, in the
/// FIFO place a push of that message's reply would have taken
/// ([`TimeWheel::reserve`]). Reports therefore equal, bit for bit, those
/// of an engine that schedules one reply event per message.
///
/// # Errors
///
/// [`SimError::SizeMismatch`] if the placement does not cover the system's
/// universe, a weighted strategy's shape is wrong, or service multipliers
/// have the wrong length.
pub fn simulate(
    net: &Network,
    system: &QuorumSystem,
    placement: &Placement,
    clients: &ClientPopulation,
    choice: QuorumChoice,
    config: &ProtocolConfig,
) -> Result<SimReport, SimError> {
    validate_inputs(net, system, placement, clients, &choice, config)?;

    let client_locs = clients.client_locations();
    let n_clients = client_locs.len();
    let per_client_total = config.warmup_requests + config.measured_requests;

    // Precompute closest quorums per location (Closest strategy).
    let closest_by_location = closest_choices(net, clients.locations(), system, placement);

    // The wheel pops in the heap's order — time, then FIFO — whatever its
    // quantum; a tenth of the service time keeps level-0 slots short.
    let quantum = (config.service_time_ms / 10.0).max(MIN_QUANTUM_MS);
    let mut st = ExactState {
        rng: StdRng::seed_from_u64(config.seed),
        wheel: TimeWheel::new(quantum),
        slots: Vec::new(),
        free_slots: Vec::new(),
        issued: vec![0; n_clients],
        elements: Vec::new(),
        by_node: Vec::new(),
        messages: Vec::new(),
    };
    // One station per physical node: co-located elements share a machine.
    let mut servers: Vec<ServiceStation> = build_servers(net.len(), config);
    let mut responses = Sample::new();
    let mut floor_tally = Tally::new();
    let mut per_client: Vec<Tally> = (0..n_clients).map(|_| Tally::new()).collect();

    // Which population location each client belongs to (for Weighted
    // rows and the Closest table). Uniform populations flatten to the
    // historical `c / per_location` mapping; weighted ones apportion
    // clients by demand weight.
    let location_of_client: Vec<usize> = clients.location_indices();

    // Fault-model precomputation; inert (all-false masks, no tables)
    // without the fault model or without crashes.
    let crashed = crashed_mask(system.universe_size(), config);
    let any_crashed = crashed.iter().any(|&c| c);
    let fault = config.fault.clone();
    // Quorums that touch a crashed element (Weighted failover mask).
    let quorum_dead: Vec<bool> = match (&choice, any_crashed) {
        (QuorumChoice::Weighted { quorums, .. }, true) => quorums
            .iter()
            .map(|q| q.iter().any(|u| crashed[u.index()]))
            .collect(),
        _ => Vec::new(),
    };
    // Closest fallback once the detector has fired: crashed elements get
    // a prohibitive cost so min-max avoids them whenever possible.
    let closest_live_by_location: Vec<Quorum> = if any_crashed {
        clients
            .locations()
            .iter()
            .map(|&v| {
                let costs: Vec<f64> = placement
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(u, &w)| {
                        net.distance(v, w) + if crashed[u] { CRASH_COST_PENALTY } else { 0.0 }
                    })
                    .collect();
                system.min_max_quorum(&costs)
            })
            .collect()
    } else {
        Vec::new()
    };
    let detection_ms = fault
        .as_ref()
        .map_or(f64::INFINITY, |f| f.detection_latency_ms);
    // Has the detector announced the crashed set by `now`?
    let live_now = |now: SimTime| any_crashed && now.as_ms() >= detection_ms;

    let service_of = |element: usize, config: &ProtocolConfig| -> f64 {
        let mult = config
            .service_multipliers
            .as_ref()
            .map_or(1.0, |m| m[element]);
        config.service_time_ms * mult
    };

    // Issues one request attempt at `send_at`. `use_live` routes quorum
    // selection through the failure detector's renormalized view
    // (post-detection fresh requests and failover retries); otherwise the
    // selection — and its RNG draws — is bit-identical to the historical
    // fail-unaware path.
    let issue = |client: usize, send_at: SimTime, kind, use_live: bool, st: &mut ExactState| {
        let loc = client_locs[client];
        let row_of = location_of_client[client];
        let elements = &mut st.elements;
        let rng = &mut st.rng;
        match &choice {
            QuorumChoice::Balanced => {
                system.sample_uniform_into(rng, elements);
                if use_live {
                    for _ in 0..LIVE_SAMPLE_ATTEMPTS {
                        if !elements.iter().any(|u| crashed[u.index()]) {
                            break;
                        }
                        system.sample_uniform_into(rng, elements);
                    }
                }
            }
            QuorumChoice::Closest => {
                let table = if use_live {
                    &closest_live_by_location
                } else {
                    &closest_by_location
                };
                elements.clear();
                elements.extend_from_slice(table[row_of].as_slice());
            }
            QuorumChoice::Weighted { quorums, strategy } => {
                let row = strategy.row(row_of);
                let live_mass: f64 = if use_live {
                    row.iter()
                        .enumerate()
                        .filter(|&(i, _)| !quorum_dead[i])
                        .map(|(_, &p)| p)
                        .sum()
                } else {
                    0.0
                };
                let idx = if live_mass > 0.0 {
                    // One draw over the renormalized surviving mass,
                    // falling through to the last live quorum.
                    let mut pick: f64 = rng.gen_range(0.0..1.0) * live_mass;
                    let mut idx = None;
                    for (i, &p) in row.iter().enumerate() {
                        if quorum_dead[i] {
                            continue;
                        }
                        idx = Some(i);
                        if pick < p {
                            break;
                        }
                        pick -= p;
                    }
                    idx.expect("positive live mass has a live quorum")
                } else {
                    // Nominal row: fail-unaware, or every quorum touches
                    // a crash.
                    sample_weighted_row(row, rng)
                };
                elements.clear();
                elements.extend_from_slice(quorums[idx].as_slice());
            }
        }
        let (attempt, first_sent_at, measured) = match kind {
            IssueKind::Fresh => {
                let seq = st.issued[client];
                st.issued[client] += 1;
                (0, send_at, seq >= config.warmup_requests)
            }
            IssueKind::Retry {
                attempt,
                first_sent_at,
                measured,
            } => (attempt, first_sent_at, measured),
        };
        // Group the quorum's elements by hosting node: one message per
        // element normally, one per node under deduplicated execution.
        group_by_node(placement, &st.elements, &mut st.by_node);
        st.messages.clear();
        let mut floor_ms = f64::MIN;
        for group in st.by_node.chunk_by(|a, b| a.0 == b.0) {
            let w = group[0].0;
            let d = net.distance(loc, NodeId::new(w));
            if config.dedup_colocated {
                let svc = group
                    .iter()
                    .map(|&(_, u)| service_of(u, config))
                    .fold(0.0, f64::max);
                let dead = group.iter().any(|&(_, u)| crashed[u]);
                st.messages.push((w, svc, dead));
                floor_ms = floor_ms.max(d + svc);
            } else {
                let mut total = 0.0;
                for &(_, u) in group {
                    let svc = service_of(u, config);
                    st.messages.push((w, svc, crashed[u]));
                    total += svc;
                }
                // Same-node messages serialize even on an idle system.
                floor_ms = floor_ms.max(d + total);
            }
        }
        let live = st.messages.iter().filter(|&&(_, _, dead)| !dead).count();
        let doomed = fault.is_some() && live < st.messages.len();
        let request = st.occupy(RequestState {
            client,
            first_sent_at,
            arrivals: live,
            reply: None,
            scheduled: usize::from(live > 0) + usize::from(doomed),
            floor_ms,
            measured,
            attempt,
            doomed,
        });
        for &(w, service_ms, dead) in &st.messages {
            if dead {
                continue;
            }
            let one_way = net.distance(loc, NodeId::new(w)) / 2.0;
            st.wheel.push(
                send_at + one_way,
                Event::Arrival {
                    node: w,
                    service_ms,
                    request,
                },
            );
        }
        if doomed {
            let f = fault.as_ref().expect("doomed implies the fault model");
            st.wheel
                .push(send_at + f.timeout_ms, Event::Timeout { request });
        }
    };

    for client in 0..n_clients {
        issue(
            client,
            SimTime::ZERO,
            IssueKind::Fresh,
            live_now(SimTime::ZERO),
            &mut st,
        );
    }

    // Event loop.
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    let mut failovers = 0u64;
    let mut retry_jitter_idx = 0u64;
    // Logical requests finished (warm-up included) and given up.
    let mut completed = 0u64;
    let mut abandoned = 0u64;
    while let Some((now, event)) = st.wheel.pop() {
        match event {
            Event::Arrival {
                node,
                service_ms,
                request,
            } => {
                let depart = servers[node].submit(now, service_ms);
                let slot = &mut st.slots[request];
                let one_way = net.distance(client_locs[slot.client], NodeId::new(node)) / 2.0;
                // The ticket a push of this fragment's reply would take:
                // the attempt's reply pops where its last one would have,
                // FIFO ties with other requests' events included.
                slot.reply = slot.reply.max(Some((depart + one_way, st.wheel.reserve())));
                slot.arrivals -= 1;
                if slot.arrivals == 0 {
                    let (at, ticket) = slot.reply.expect("a served fragment sets the reply");
                    st.wheel.push_reserved(at, ticket, Event::Reply { request });
                }
            }
            Event::Reply { request } => {
                let req = st.retire(request);
                if !req.doomed {
                    completed += 1;
                    let rt = now - req.first_sent_at;
                    if req.measured {
                        responses.add(rt);
                        floor_tally.add(req.floor_ms);
                        per_client[req.client].add(rt);
                    }
                    if st.issued[req.client] < per_client_total {
                        issue(req.client, now, IssueKind::Fresh, live_now(now), &mut st);
                    }
                }
            }
            Event::Timeout { request } => {
                // Only a doomed attempt gets a timer: it cannot have
                // completed, and any late reply it still owes is ignored.
                let req = st.retire(request);
                let f = fault
                    .as_ref()
                    .expect("timeouts are only scheduled under the fault model");
                timeouts += 1;
                if req.attempt < f.max_retries {
                    retries += 1;
                    let stretch =
                        1.0 + f.backoff_jitter * jitter_unit(config.seed, retry_jitter_idx);
                    retry_jitter_idx += 1;
                    let backoff = f.backoff_base_ms * 2f64.powi(req.attempt as i32) * stretch;
                    let send_at = now + backoff;
                    // The routing decision happens when the retry is
                    // actually sent, so a detector that fires inside the
                    // backoff window steers it off the dead quorum.
                    let live = live_now(send_at);
                    if live {
                        failovers += 1;
                    }
                    let kind = IssueKind::Retry {
                        attempt: req.attempt + 1,
                        first_sent_at: req.first_sent_at,
                        measured: req.measured,
                    };
                    issue(req.client, send_at, kind, live, &mut st);
                } else {
                    // Retries exhausted: the logical request is abandoned
                    // (never counted as completed) and the closed loop
                    // moves on to the client's next request.
                    abandoned += 1;
                    if st.issued[req.client] < per_client_total {
                        issue(req.client, now, IssueKind::Fresh, live_now(now), &mut st);
                    }
                }
            }
        }
    }

    // Request conservation: the wheel ran dry, so every fresh request
    // either completed or was abandoned, and no slot is still held.
    let fresh: usize = st.issued.iter().sum();
    assert_eq!(
        fresh as u64,
        completed + abandoned,
        "request conservation: {fresh} issued, {completed} completed, {abandoned} abandoned"
    );
    assert_eq!(
        st.free_slots.len(),
        st.slots.len(),
        "request slots still held after the last event"
    );

    let horizon = st.wheel.now();
    let horizon_ms = horizon.as_ms().max(f64::MIN_POSITIVE);
    let percentiles = if responses.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            responses.percentile(50.0),
            responses.percentile(95.0),
            responses.percentile(99.0),
        )
    };
    // End-of-run flush: the hot loop above stays instrumentation-free;
    // the wheel's push/pop totals come from its own event counter.
    if qp_obs::enabled() {
        qp_obs::counter_add("des_exact_runs_total", 1);
        qp_obs::counter_add("des_wheel_push_total", st.wheel.pushes());
        qp_obs::counter_add("des_wheel_pop_total", st.wheel.pops());
        qp_obs::counter_add("des_requests_completed_total", responses.len() as u64);
        qp_obs::counter_add("des_timeouts_total", timeouts);
        qp_obs::counter_add("des_retries_total", retries);
        qp_obs::counter_add("des_failovers_total", failovers);
        qp_obs::observe("des_sim_horizon_ms", horizon.as_ms());
    }
    Ok(SimReport {
        avg_response_ms: responses.mean(),
        avg_network_delay_ms: floor_tally.mean(),
        per_client_response_ms: per_client.iter().map(Tally::mean).collect(),
        percentiles_ms: percentiles,
        server_mean_wait_ms: servers.iter().map(ServiceStation::mean_wait_ms).collect(),
        server_utilization: servers
            .iter()
            .map(|s| s.utilization(SimTime::from_ms(horizon_ms)))
            .collect(),
        completed_requests: responses.len() as u64,
        horizon_ms: horizon.as_ms(),
        residual_busy_ms: residual_busy(&servers, horizon),
        timeouts,
        retries,
        failovers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_core::one_to_one;
    use qp_quorum::MajorityKind;
    use qp_topology::{datasets, NodeId};

    fn setup() -> (Network, QuorumSystem, Placement) {
        let net = datasets::planetlab_50();
        let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1).unwrap();
        let placement = one_to_one::best_placement(&net, &sys).unwrap();
        (net, sys, placement)
    }

    #[test]
    fn single_client_response_equals_floor() {
        // One client, closed loop: each request finds idle servers, so the
        // response time must equal RTT + service exactly.
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::new(vec![NodeId::new(5)], 1);
        let report = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Closest,
            &ProtocolConfig {
                warmup_requests: 5,
                measured_requests: 50,
                ..ProtocolConfig::default()
            },
        )
        .unwrap();
        assert!(
            (report.avg_response_ms - report.avg_network_delay_ms).abs() < 1e-9,
            "idle system: response {} vs floor {}",
            report.avg_response_ms,
            report.avg_network_delay_ms
        );
        assert_eq!(report.completed_requests, 50);
    }

    #[test]
    fn response_grows_with_client_count() {
        let (net, sys, placement) = setup();
        let pop1 = ClientPopulation::representative(&net, &sys, &placement, 10, 1);
        let mut prev = 0.0;
        for c in [1usize, 5, 10] {
            let report = simulate(
                &net,
                &sys,
                &placement,
                &pop1.with_per_location(c),
                QuorumChoice::Balanced,
                &ProtocolConfig::default(),
            )
            .unwrap();
            assert!(
                report.avg_response_ms >= prev - 0.5,
                "response should not collapse as load rises"
            );
            prev = report.avg_response_ms;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 5, 2);
        let cfg = ProtocolConfig {
            seed: 42,
            ..ProtocolConfig::default()
        };
        let a = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &cfg,
        )
        .unwrap();
        let b = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &cfg,
        )
        .unwrap();
        assert_eq!(a.avg_response_ms, b.avg_response_ms);
        assert_eq!(a.per_client_response_ms, b.per_client_response_ms);
    }

    #[test]
    fn slow_server_raises_response() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 5, 2);
        let nominal = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &ProtocolConfig::default(),
        )
        .unwrap();
        // Every server 20× slower: quorums of 5 of 6 cannot avoid them.
        let degraded_cfg = ProtocolConfig {
            service_multipliers: Some(vec![20.0; sys.universe_size()]),
            ..ProtocolConfig::default()
        };
        let degraded = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &degraded_cfg,
        )
        .unwrap();
        assert!(degraded.avg_response_ms > nominal.avg_response_ms);
    }

    #[test]
    fn weighted_strategy_is_respected() {
        let (net, sys, _) = setup();
        // Use a tiny grid so quorums enumerate.
        let grid = QuorumSystem::grid(2).unwrap();
        let placement = one_to_one::best_placement(&net, &grid).unwrap();
        let quorums = grid.enumerate(16).unwrap();
        // Both locations always use quorum 0.
        let strategy = StrategyMatrix::deterministic(&[0, 0], quorums.len());
        let clients = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(9)], 1);
        let report = simulate(
            &net,
            &grid,
            &placement,
            &clients,
            QuorumChoice::Weighted {
                quorums: quorums.clone(),
                strategy,
            },
            &ProtocolConfig::default(),
        )
        .unwrap();
        // Nodes hosting elements outside quorum 0 must be cold.
        for u in 0..4 {
            let in_q0 = quorums[0].contains(qp_quorum::ElementId::new(u));
            let host = placement.node_of(qp_quorum::ElementId::new(u));
            let served = report.server_utilization[host.index()] > 0.0;
            assert_eq!(in_q0, served, "element {u}");
        }
        let _ = sys;
    }

    #[test]
    fn carried_backlog_raises_response_and_residual_reported() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::new(vec![NodeId::new(5)], 2);
        // Measure from the very first request so the carried backlog's
        // transient is part of the measurement window.
        let cfg = ProtocolConfig {
            warmup_requests: 0,
            measured_requests: 20,
            ..ProtocolConfig::default()
        };
        let nominal = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Closest,
            &cfg,
        )
        .unwrap();
        assert_eq!(nominal.residual_busy_ms.len(), net.len());
        assert!(nominal.residual_busy_ms.iter().all(|&r| r >= 0.0));
        let carried = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Closest,
            &ProtocolConfig {
                initial_server_busy_ms: Some(vec![100.0; net.len()]),
                ..cfg
            },
        )
        .unwrap();
        assert!(carried.avg_response_ms > nominal.avg_response_ms);
    }

    /// Uniform weighted choice over an enumerable 2×2 grid (some quorums
    /// avoid any single element, so failover always has live mass).
    fn grid_weighted(net: &Network) -> (QuorumSystem, Placement, QuorumChoice, Vec<Quorum>) {
        let grid = QuorumSystem::grid(2).unwrap();
        let placement = one_to_one::best_placement(net, &grid).unwrap();
        let quorums = grid.enumerate(16).unwrap();
        let n = quorums.len();
        let rows = vec![vec![1.0 / n as f64; n]; 2];
        let choice = QuorumChoice::Weighted {
            quorums: quorums.clone(),
            strategy: StrategyMatrix::from_rows(rows).unwrap(),
        };
        (grid, placement, choice, quorums)
    }

    #[test]
    fn fault_model_without_crashes_is_bit_identical() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::representative(&net, &sys, &placement, 5, 3);
        let cfg = ProtocolConfig {
            seed: 13,
            ..ProtocolConfig::default()
        };
        let base = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &cfg,
        )
        .unwrap();
        let faulted = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &ProtocolConfig {
                fault: Some(FaultConfig::default()),
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(base.avg_response_ms, faulted.avg_response_ms);
        assert_eq!(base.per_client_response_ms, faulted.per_client_response_ms);
        assert_eq!(base.percentiles_ms, faulted.percentiles_ms);
        assert_eq!(base.server_utilization, faulted.server_utilization);
        assert_eq!(base.horizon_ms, faulted.horizon_ms);
        assert_eq!(faulted.timeouts, 0);
        assert_eq!(faulted.retries, 0);
        assert_eq!(faulted.failovers, 0);
    }

    #[test]
    fn crashes_are_discovered_and_failed_over() {
        let net = datasets::planetlab_50();
        let (grid, placement, choice, quorums) = grid_weighted(&net);
        let clients = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(9)], 3);
        let mut mults = vec![1.0; grid.universe_size()];
        mults[0] = 64.0; // crashed under the default threshold
        let cfg = ProtocolConfig {
            measured_requests: 40,
            service_multipliers: Some(mults),
            fault: Some(FaultConfig {
                detection_latency_ms: 400.0,
                ..FaultConfig::default()
            }),
            ..ProtocolConfig::default()
        };
        let report = simulate(&net, &grid, &placement, &clients, choice, &cfg).unwrap();
        assert!(report.timeouts > 0, "doomed quorums must time out");
        assert!(report.retries > 0);
        assert!(
            report.failovers > 0,
            "post-detection retries must fail over"
        );
        assert!(report.completed_requests > 0);
        // After detection the host of the crashed element goes cold for
        // new requests: at least one quorum avoiding element 0 exists.
        assert!(quorums
            .iter()
            .any(|q| !q.contains(qp_quorum::ElementId::new(0))));
    }

    #[test]
    fn zero_detection_latency_avoids_crashed_quorums_entirely() {
        let net = datasets::planetlab_50();
        let (grid, placement, choice, _) = grid_weighted(&net);
        let clients = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(9)], 3);
        let mut mults = vec![1.0; grid.universe_size()];
        mults[2] = 100.0;
        let cfg = ProtocolConfig {
            measured_requests: 30,
            service_multipliers: Some(mults),
            fault: Some(FaultConfig {
                detection_latency_ms: 0.0,
                ..FaultConfig::default()
            }),
            ..ProtocolConfig::default()
        };
        let report = simulate(&net, &grid, &placement, &clients, choice, &cfg).unwrap();
        assert_eq!(report.timeouts, 0, "a priori knowledge: no timeouts");
        assert_eq!(report.retries, 0);
        assert_eq!(report.failovers, 0);
        assert_eq!(report.completed_requests, 6 * 30);
    }

    #[test]
    fn exhausted_retries_still_conserve_requests() {
        // A crash the detector never announces: most Q/U quorums touch
        // it, so many requests time out until their retries run out and
        // the closed loop moves on. The engine asserts conservation and
        // the slot free list itself; from outside, every timeout either
        // retried or abandoned its logical request.
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::new(vec![NodeId::new(0), NodeId::new(9)], 3);
        let mut mults = vec![1.0; sys.universe_size()];
        mults[2] = 64.0;
        let cfg = ProtocolConfig {
            warmup_requests: 0,
            measured_requests: 30,
            service_multipliers: Some(mults),
            fault: Some(FaultConfig {
                timeout_ms: 40.0,
                max_retries: 2,
                detection_latency_ms: 1e9,
                ..FaultConfig::default()
            }),
            ..ProtocolConfig::default()
        };
        let report = simulate(
            &net,
            &sys,
            &placement,
            &clients,
            QuorumChoice::Balanced,
            &cfg,
        )
        .unwrap();
        let abandoned = report.timeouts - report.retries;
        assert!(abandoned > 0, "no request exhausted its retries");
        assert_eq!(report.failovers, 0);
        assert_eq!(report.completed_requests + abandoned, 6 * 30);
    }

    #[test]
    fn bad_fault_configs_are_rejected() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::new(vec![NodeId::new(0)], 1);
        for fault in [
            FaultConfig {
                timeout_ms: 0.0,
                ..FaultConfig::default()
            },
            FaultConfig {
                backoff_jitter: 1.5,
                ..FaultConfig::default()
            },
            FaultConfig {
                detection_latency_ms: -1.0,
                ..FaultConfig::default()
            },
            FaultConfig {
                crash_threshold: 1.0,
                ..FaultConfig::default()
            },
        ] {
            let cfg = ProtocolConfig {
                fault: Some(fault),
                ..ProtocolConfig::default()
            };
            assert!(matches!(
                simulate(
                    &net,
                    &sys,
                    &placement,
                    &clients,
                    QuorumChoice::Balanced,
                    &cfg
                ),
                Err(SimError::SizeMismatch(_))
            ));
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let (net, sys, placement) = setup();
        let clients = ClientPopulation::new(vec![NodeId::new(0)], 1);
        let bad_service = |service_time_ms| ProtocolConfig {
            service_time_ms,
            ..ProtocolConfig::default()
        };
        for bad in [
            ProtocolConfig {
                service_multipliers: Some(vec![1.0; 3]),
                ..ProtocolConfig::default()
            },
            bad_service(-1.0),
            bad_service(f64::NAN),
            bad_service(f64::INFINITY),
        ] {
            assert!(matches!(
                simulate(
                    &net,
                    &sys,
                    &placement,
                    &clients,
                    QuorumChoice::Balanced,
                    &bad
                ),
                Err(SimError::SizeMismatch(_))
            ));
        }
    }
}
