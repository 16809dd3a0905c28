//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] bundles everything the pipeline needs — topology
//! source, demand model, failure plan, and pipeline configuration — and
//! can be built in code (plain structs with [`Default`]s) or parsed from
//! a small TOML-like text format:
//!
//! ```text
//! name = ts-flash
//!
//! [topology]
//! source = transit-stub     # transit-stub | hierarchical | planetlab50
//! seed = 7                  # | daxlist161 | euclidean | file
//! transit-domains = 2
//! transit-size = 2
//! stubs-per-transit = 1
//! stub-size = 3
//!
//! [workload]
//! locations = 6
//! per-location = 3
//! demand = zipf:0.8         # uniform | zipf:THETA
//! flash-phase = 1           # flash crowd: demand surges toward one
//! flash-focus = 0           # location for one phase
//! flash-boost = 5
//!
//! [failures]
//! slowdown = 2:0:20         # phase:element:multiplier (repeatable)
//! crash = 2:4               # phase:element — a 64x slowdown
//! reoptimize = true         # re-run the strategy LP mid-run
//! fault-tolerant = true     # clients time out, retry, and fail over
//! timeout-ms = 100          # per-attempt timeout (fault-tolerant only)
//! max-retries = 3           # retry budget per logical request
//! backoff-ms = 10           # exponential backoff base
//! backoff-jitter = 0.5      # deterministic jitter fraction in [0, 1]
//! detect-ms = 250           # failure-detector latency
//!
//! [pipeline]
//! system = grid:3
//! placement = best          # best | balanced | shell:ANCHOR | ball:ANCHOR
//! capacity = sweep:4        # sweep[:STEPS] | fixed:C |
//! phases = 3                # load-proportional:B:G | marginal-value:B:G
//! requests = 60
//! seed = 42
//! tolerance = 0.1
//! engine = exact            # exact | aggregated | per-phase list
//! carry-queues = false      # carry residual queues across phases
//! exact-compare = false     # also run exact for aggregated phases
//! exact-compare-sample = 0  # subsample the compare population (0 = all)
//! ```
//!
//! Lines are `key = value` under `[section]` headers; `#` starts a
//! comment; unknown sections or keys are errors (specs fail loudly, not
//! silently).

pub use qp_core::capacity::CapacityChoice;
use qp_core::one_to_one::PlacementAlgorithm;
use qp_protocol::{FaultConfig, SimEngine};
use qp_quorum::{MajorityKind, QuorumSystem};
use qp_topology::datasets::{HierarchicalConfig, TransitStubConfig};
use qp_topology::{io as topo_io, Network};

use crate::ScenarioError;

/// The service-time multiplier a `crash = phase:element` entry applies: a
/// crashed site still answers (the closed-loop protocol needs a full
/// quorum of replies) but 64× slower — slow enough to wreck any quorum
/// that touches it, finite enough to keep the simulation horizon finite.
pub const CRASH_MULTIPLIER: f64 = 64.0;

/// Where the scenario's network comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySource {
    /// A built-in synthetic dataset: `planetlab50` or `daxlist161`.
    Dataset(String),
    /// An RTT matrix file in the `qp_topology::io` text format.
    File(String),
    /// The GT-ITM-style transit-stub generator.
    TransitStub {
        /// Generator configuration.
        config: TransitStubConfig,
        /// Generator seed.
        seed: u64,
    },
    /// The tree-of-clusters hierarchical generator.
    Hierarchical {
        /// Generator configuration.
        config: HierarchicalConfig,
        /// Generator seed.
        seed: u64,
    },
    /// Uniform random points in a square (tests and smoke runs).
    Euclidean {
        /// Number of sites.
        sites: usize,
        /// Square side, milliseconds.
        side_ms: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl TopologySource {
    /// Builds the network.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] for an unknown dataset name;
    /// [`ScenarioError::Topology`] if a file fails to read or parse.
    pub fn build(&self) -> Result<Network, ScenarioError> {
        match self {
            TopologySource::Dataset(name) => match name.as_str() {
                "planetlab50" => Ok(qp_topology::datasets::planetlab_50()),
                "daxlist161" => Ok(qp_topology::datasets::daxlist_161()),
                other => Err(ScenarioError::Invalid(format!(
                    "unknown dataset `{other}` (expected planetlab50 or daxlist161)"
                ))),
            },
            TopologySource::File(path) => Ok(topo_io::read_matrix_file(path)?),
            TopologySource::TransitStub { config, seed } => Ok(config.generate(*seed)),
            TopologySource::Hierarchical { config, seed } => Ok(config.generate(*seed)),
            TopologySource::Euclidean {
                sites,
                side_ms,
                seed,
            } => Ok(qp_topology::datasets::euclidean_random(
                *sites, *side_ms, *seed,
            )),
        }
    }

    /// Checks generator parameters up front, so a bad spec fails with a
    /// [`ScenarioError`] instead of reaching a generator's `assert!`
    /// (user input must never panic the CLI).
    ///
    /// The conditions mirror (and slightly tighten, e.g. finiteness) the
    /// `generate` asserts of the `qp_topology::datasets` config types;
    /// when a generator grows a parameter, guard it here too — the spec
    /// tests pin every rejection class.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let invalid = |msg: String| Err(ScenarioError::Invalid(msg));
        match self {
            TopologySource::Dataset(_) | TopologySource::File(_) => Ok(()),
            TopologySource::TransitStub { config, .. } => {
                if config.transit_domains == 0 || config.transit_size == 0 {
                    return invalid("transit-stub needs at least one transit router".into());
                }
                if config.stubs_per_transit == 0 || config.stub_size == 0 {
                    return invalid("transit-stub needs at least one stub site".into());
                }
                for (lo, hi) in [
                    config.inter_transit_ms,
                    config.intra_transit_ms,
                    config.transit_stub_ms,
                    config.intra_stub_ms,
                ] {
                    if !(lo > 0.0 && hi >= lo && hi.is_finite()) {
                        return invalid(format!("invalid transit-stub delay range [{lo}, {hi}]"));
                    }
                }
                if !(config.jitter_frac.is_finite() && config.jitter_frac >= 0.0) {
                    return invalid("jitter must be nonnegative".into());
                }
                Ok(())
            }
            TopologySource::Hierarchical { config, .. } => {
                if config.branching.is_empty() || config.branching.contains(&0) {
                    return invalid("hierarchical branching factors must be positive".into());
                }
                if config.level_ms.len() != config.branching.len() {
                    return invalid(format!(
                        "branching has {} levels but level-ms has {}",
                        config.branching.len(),
                        config.level_ms.len()
                    ));
                }
                if config.level_ms.iter().any(|&d| !(d > 0.0 && d.is_finite())) {
                    return invalid("level-ms delays must be positive".into());
                }
                if !(config.jitter_frac.is_finite() && config.jitter_frac >= 0.0) {
                    return invalid("jitter must be nonnegative".into());
                }
                Ok(())
            }
            TopologySource::Euclidean { sites, side_ms, .. } => {
                if *sites == 0 {
                    return invalid("euclidean needs at least one site".into());
                }
                if !(*side_ms > 0.0 && side_ms.is_finite()) {
                    return invalid("euclidean side-ms must be positive".into());
                }
                Ok(())
            }
        }
    }

    /// A one-line human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            TopologySource::Dataset(name) => format!("dataset {name}"),
            TopologySource::File(path) => format!("file {path}"),
            TopologySource::TransitStub { config, seed } => format!(
                "transit-stub {}d×{}r + {}×{} stubs, seed {seed}",
                config.transit_domains,
                config.transit_size,
                config.stubs_per_transit,
                config.stub_size
            ),
            TopologySource::Hierarchical { config, seed } => {
                format!("hierarchical {:?}, seed {seed}", config.branching)
            }
            TopologySource::Euclidean {
                sites,
                side_ms,
                seed,
            } => format!("euclidean {sites} sites in {side_ms} ms, seed {seed}"),
        }
    }
}

/// How client demand spreads over the chosen locations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DemandModel {
    /// Equal demand everywhere (the historical behavior).
    #[default]
    Uniform,
    /// Zipf-skewed demand: location `i` gets weight `1/(i+1)^θ`.
    Zipf(f64),
}

/// A one-phase demand surge toward a single location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// The phase (0-based) during which the crowd surges.
    pub phase: usize,
    /// Index (into the population's location list) of the hot location.
    pub focus: usize,
    /// Weight multiplier applied to the hot location during the phase.
    pub boost: f64,
}

/// The workload half of a scenario: who the clients are and how demand
/// is distributed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of representative client locations.
    pub locations: usize,
    /// Nominal clients per location (total = `locations × per_location`).
    pub per_location: usize,
    /// Demand distribution over locations.
    pub demand: DemandModel,
    /// Optional flash-crowd surge.
    pub flash: Option<FlashCrowd>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            locations: 8,
            per_location: 4,
            demand: DemandModel::Uniform,
            flash: None,
        }
    }
}

/// One failure-injection entry: during `phase`, universe element
/// `element`'s service time is multiplied by `multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// The phase (0-based) during which the failure is active.
    pub phase: usize,
    /// The universe element (logical server) affected.
    pub element: usize,
    /// Service-time multiplier (`> 1` slows the server down;
    /// [`CRASH_MULTIPLIER`] models a crash).
    pub multiplier: f64,
}

/// The failure half of a scenario: scheduled slowdowns/crashes plus the
/// mid-run recovery policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FailurePlan {
    /// Scheduled failures.
    pub events: Vec<FailureEvent>,
    /// Whether the runner re-optimizes the strategy LP (with the failed
    /// sites' capacity scaled down) for phases with active failures.
    pub reoptimize: bool,
    /// Client-side fault tolerance: when set, simulated clients time out,
    /// retry with deterministic backoff, and fail over around crashed
    /// elements (those at or beyond the config's `crash_threshold`, which
    /// the spec parser pins to [`CRASH_MULTIPLIER`]). `None` — the
    /// default — keeps the historical omniscient-client behavior, and
    /// every prior report stays bit-identical.
    pub fault: Option<FaultConfig>,
}

impl FailurePlan {
    /// Per-element service multipliers for `phase`, or `None` when no
    /// event is active (nominal service everywhere). Overlapping events
    /// on one element multiply.
    pub fn multipliers_for_phase(&self, phase: usize, universe: usize) -> Option<Vec<f64>> {
        let mut mults = vec![1.0; universe];
        let mut any = false;
        for e in &self.events {
            if e.phase == phase && e.element < universe {
                mults[e.element] *= e.multiplier;
                any = true;
            }
        }
        any.then_some(mults)
    }
}

/// Which DES engine each phase runs.
///
/// `engine = aggregated` in a spec applies one engine to every phase;
/// `engine = exact, aggregated` picks per phase (the list length must
/// equal `phases`).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineSelection {
    /// Every phase uses the same engine.
    Uniform(SimEngine),
    /// Phase `p` uses entry `p`; validation pins the length to `phases`.
    PerPhase(Vec<SimEngine>),
}

impl Default for EngineSelection {
    fn default() -> Self {
        EngineSelection::Uniform(SimEngine::Exact)
    }
}

impl EngineSelection {
    /// The engine phase `phase` runs with.
    #[must_use]
    pub fn for_phase(&self, phase: usize) -> SimEngine {
        match self {
            EngineSelection::Uniform(e) => *e,
            EngineSelection::PerPhase(list) => list.get(phase).copied().unwrap_or_default(),
        }
    }

    /// Whether any phase runs aggregated.
    #[must_use]
    pub fn any_aggregated(&self) -> bool {
        match self {
            EngineSelection::Uniform(e) => *e == SimEngine::Aggregated,
            EngineSelection::PerPhase(list) => list.contains(&SimEngine::Aggregated),
        }
    }
}

/// The pipeline half of a scenario: system, placement, capacity, LP
/// response model, DES shape, and the LP-vs-DES cross-check tolerance.
///
/// The strategy LP always runs at location level through the restricted
/// master + pricing oracle (column generation), with each location
/// weighted by its client count; by linearity this is the same optimum
/// as the per-client LP, so no spec key selects an LP path.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// Quorum-system spec, e.g. `grid:3` or `majority:fourfifths:2`.
    pub system: String,
    /// Placement construction.
    pub placement: PlacementAlgorithm,
    /// Capacity selection for the strategy LP.
    pub capacity: CapacityChoice,
    /// Per-request service time for the response model, ms.
    pub op_time_ms: f64,
    /// Client demand for the response model (`α = op_time × demand`).
    pub demand: f64,
    /// Number of execution phases (flash crowds and failures are
    /// scheduled per phase).
    pub phases: usize,
    /// Measured DES requests per client per phase.
    pub requests: usize,
    /// Warmup DES requests per client per phase.
    pub warmup: usize,
    /// Base seed; phase `p` simulates with `qp_par::job_seed(seed, p)`.
    pub seed: u64,
    /// DES per-request service time, ms.
    pub service_time_ms: f64,
    /// Relative tolerance of the LP-predicted vs DES-measured floor
    /// cross-check.
    pub tolerance: f64,
    /// Cap on quorum enumeration.
    pub quorum_limit: usize,
    /// Per-phase DES engine: the exact per-request engine or the
    /// aggregated fluid/hybrid engine (million-client scale). Both
    /// simulate the LP's per-location strategy rows.
    pub engine: EngineSelection,
    /// Carry residual server queues across phase boundaries: each phase
    /// after the first starts its servers with the backlog the previous
    /// phase left behind, instead of idle.
    pub carry_queues: bool,
    /// For every aggregated phase, also run the exact engine and fold
    /// the relative disagreement into the pass/fail verdict (only
    /// sensible at sizes the exact engine can finish).
    pub exact_compare: bool,
    /// Cap on the population the `exact-compare` cross-check simulates.
    /// `0` (the default) compares over the full population; a positive
    /// cap runs *both* engines on a deterministic proportional subsample
    /// (per-location head-count scaled down, demand weights kept) so the
    /// cross-check stays affordable beyond ~10⁴ clients.
    pub exact_compare_sample: usize,
}

impl Default for PipelineSpec {
    fn default() -> Self {
        PipelineSpec {
            system: "grid:3".to_string(),
            placement: PlacementAlgorithm::BestClosest,
            capacity: CapacityChoice::default(),
            op_time_ms: 0.007,
            demand: 16000.0,
            phases: 1,
            requests: 60,
            warmup: 10,
            seed: 0,
            service_time_ms: 1.0,
            tolerance: 0.1,
            quorum_limit: 100_000,
            engine: EngineSelection::default(),
            carry_queues: false,
            exact_compare: false,
            exact_compare_sample: 0,
        }
    }
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (reports lead with it).
    pub name: String,
    /// Where the network comes from.
    pub topology: TopologySource,
    /// Client locations and demand distribution.
    pub workload: WorkloadSpec,
    /// Failure schedule and recovery policy.
    pub failures: FailurePlan,
    /// Pipeline configuration.
    pub pipeline: PipelineSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            name: "unnamed".to_string(),
            topology: TopologySource::Euclidean {
                sites: 16,
                side_ms: 120.0,
                seed: 0,
            },
            workload: WorkloadSpec::default(),
            failures: FailurePlan::default(),
            pipeline: PipelineSpec::default(),
        }
    }
}

impl ScenarioSpec {
    /// Parses a spec from the text format (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] with a line number for malformed lines,
    /// unknown sections/keys, or unparsable values;
    /// [`ScenarioError::Invalid`] for semantic contradictions.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let entries = RawEntries::scan(text)?;
        let mut spec = ScenarioSpec::default();

        if let Some((v, _)) = entries.take("", "name")? {
            spec.name = v;
        }
        spec.topology = parse_topology(&entries)?;
        spec.workload = parse_workload(&entries)?;
        spec.failures = parse_failures(&entries)?;
        spec.pipeline = parse_pipeline(&entries)?;
        entries.finish()?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reads and parses a spec file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] if the file cannot be read; parse errors
    /// as for [`ScenarioSpec::parse`].
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Parse {
            line: 0,
            message: format!("reading {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Semantic validation shared by the parser and in-code construction
    /// (the runner calls this before executing).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Invalid`] describing the first contradiction.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.topology.validate()?;
        let p = &self.pipeline;
        if p.phases == 0 {
            return Err(ScenarioError::Invalid("at least one phase required".into()));
        }
        if p.requests == 0 {
            return Err(ScenarioError::Invalid(
                "at least one measured request required".into(),
            ));
        }
        if !(p.tolerance.is_finite() && p.tolerance > 0.0) {
            return Err(ScenarioError::Invalid(
                "tolerance must be positive and finite".into(),
            ));
        }
        // The response model's α = op-time × demand-scale.
        if !(p.op_time_ms.is_finite() && p.op_time_ms >= 0.0) {
            return Err(ScenarioError::Invalid(
                "op-time must be nonnegative and finite".into(),
            ));
        }
        if !(p.demand.is_finite() && p.demand >= 0.0) {
            return Err(ScenarioError::Invalid(
                "demand-scale must be nonnegative and finite".into(),
            ));
        }
        if self.workload.locations == 0 || self.workload.per_location == 0 {
            return Err(ScenarioError::Invalid(
                "workload needs at least one location and one client".into(),
            ));
        }
        if let DemandModel::Zipf(theta) = self.workload.demand {
            if !(theta.is_finite() && theta >= 0.0) {
                return Err(ScenarioError::Invalid(
                    "zipf exponent must be nonnegative".into(),
                ));
            }
            // The smallest weight is 1/locations^θ; an exponent large
            // enough to underflow it to zero would panic the weighted
            // population constructor downstream.
            let smallest = 1.0 / (self.workload.locations as f64).powf(theta);
            if !(smallest.is_finite() && smallest > 0.0) {
                return Err(ScenarioError::Invalid(format!(
                    "zipf exponent {theta} is too large for {} locations \
                     (demand weights underflow to zero)",
                    self.workload.locations
                )));
            }
        }
        if let Some(flash) = &self.workload.flash {
            if flash.phase >= p.phases {
                return Err(ScenarioError::Invalid(format!(
                    "flash phase {} out of range for {} phases",
                    flash.phase, p.phases
                )));
            }
            if flash.focus >= self.workload.locations {
                return Err(ScenarioError::Invalid(format!(
                    "flash focus {} out of range for {} locations",
                    flash.focus, self.workload.locations
                )));
            }
            if !(flash.boost.is_finite() && flash.boost > 0.0) {
                return Err(ScenarioError::Invalid(
                    "flash boost must be positive and finite".into(),
                ));
            }
        }
        // Failure targets are checked against the *declared* system so a
        // typo'd element index fails loudly instead of injecting nothing.
        let universe = parse_system(&p.system)?.universe_size();
        for e in &self.failures.events {
            if e.phase >= p.phases {
                return Err(ScenarioError::Invalid(format!(
                    "failure phase {} out of range for {} phases",
                    e.phase, p.phases
                )));
            }
            if e.element >= universe {
                return Err(ScenarioError::Invalid(format!(
                    "failure element {} out of range for the {universe}-element universe of `{}`",
                    e.element, p.system
                )));
            }
            if !(e.multiplier.is_finite() && e.multiplier > 0.0) {
                return Err(ScenarioError::Invalid(
                    "failure multiplier must be positive and finite".into(),
                ));
            }
        }
        if let EngineSelection::PerPhase(list) = &p.engine {
            if list.len() != p.phases {
                return Err(ScenarioError::Invalid(format!(
                    "engine list has {} entries for {} phases",
                    list.len(),
                    p.phases
                )));
            }
        }
        if p.exact_compare && !p.engine.any_aggregated() {
            return Err(ScenarioError::Invalid(
                "exact-compare requires at least one aggregated phase".into(),
            ));
        }
        if p.exact_compare_sample > 0 && !p.exact_compare {
            return Err(ScenarioError::Invalid(
                "exact-compare-sample requires exact-compare = true".into(),
            ));
        }
        if let Some(f) = &self.failures.fault {
            if !(f.timeout_ms.is_finite() && f.timeout_ms > 0.0) {
                return Err(ScenarioError::Invalid(
                    "fault timeout-ms must be positive and finite".into(),
                ));
            }
            if !(f.backoff_base_ms.is_finite() && f.backoff_base_ms >= 0.0) {
                return Err(ScenarioError::Invalid(
                    "fault backoff-ms must be nonnegative and finite".into(),
                ));
            }
            if !(f.backoff_jitter.is_finite() && (0.0..=1.0).contains(&f.backoff_jitter)) {
                return Err(ScenarioError::Invalid(
                    "fault backoff-jitter must lie in [0, 1]".into(),
                ));
            }
            if !(f.detection_latency_ms.is_finite() && f.detection_latency_ms >= 0.0) {
                return Err(ScenarioError::Invalid(
                    "fault detect-ms must be nonnegative and finite".into(),
                ));
            }
        }
        match p.capacity {
            CapacityChoice::Sweep { .. } => {}
            CapacityChoice::Fixed(c) => {
                if !(c.is_finite() && c > 0.0) {
                    return Err(ScenarioError::Invalid(
                        "fixed capacity must be positive and finite".into(),
                    ));
                }
            }
            CapacityChoice::LoadProportional { beta, gamma }
            | CapacityChoice::MarginalValue { beta, gamma } => {
                if !(beta > 0.0 && gamma >= beta && gamma.is_finite()) {
                    return Err(ScenarioError::Invalid(
                        "capacity range needs 0 < beta <= gamma".into(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Parses a quorum-system spec: `grid:K` or `majority:KIND:T` with
/// `KIND ∈ {simple, twothirds, fourfifths}`.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] for malformed specs;
/// [`ScenarioError::Quorum`] if construction fails (e.g. `grid:0`).
pub fn parse_system(spec: &str) -> Result<QuorumSystem, ScenarioError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["grid", k] => {
            let k: usize = k
                .parse()
                .map_err(|_| ScenarioError::Invalid(format!("bad grid size `{k}`")))?;
            Ok(QuorumSystem::grid(k)?)
        }
        ["majority", kind, t] => {
            let kind = match *kind {
                "simple" => MajorityKind::SimpleMajority,
                "twothirds" => MajorityKind::TwoThirds,
                "fourfifths" => MajorityKind::FourFifths,
                other => {
                    return Err(ScenarioError::Invalid(format!(
                        "unknown majority kind `{other}` (simple|twothirds|fourfifths)"
                    )))
                }
            };
            let t: usize = t
                .parse()
                .map_err(|_| ScenarioError::Invalid(format!("bad majority parameter `{t}`")))?;
            Ok(QuorumSystem::majority(kind, t)?)
        }
        _ => Err(ScenarioError::Invalid(format!(
            "bad system spec `{spec}` (expected grid:K or majority:KIND:T)"
        ))),
    }
}

/// Parses a placement spec: `best`, `balanced`, `shell:ANCHOR`, or
/// `ball:ANCHOR`.
///
/// # Errors
///
/// [`ScenarioError::Invalid`] for anything else.
pub fn parse_placement(spec: &str) -> Result<PlacementAlgorithm, ScenarioError> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["best"] => Ok(PlacementAlgorithm::BestClosest),
        ["balanced"] => Ok(PlacementAlgorithm::BestBalanced),
        ["shell", anchor] => Ok(PlacementAlgorithm::GridShell {
            anchor: anchor
                .parse()
                .map_err(|_| ScenarioError::Invalid(format!("bad shell anchor `{anchor}`")))?,
        }),
        ["ball", anchor] => Ok(PlacementAlgorithm::Ball {
            anchor: anchor
                .parse()
                .map_err(|_| ScenarioError::Invalid(format!("bad ball anchor `{anchor}`")))?,
        }),
        _ => Err(ScenarioError::Invalid(format!(
            "bad placement `{spec}` (expected best, balanced, shell:ANCHOR, or ball:ANCHOR)"
        ))),
    }
}

// ---------------------------------------------------------------------
// The line-based parser.
// ---------------------------------------------------------------------

struct RawEntry {
    section: String,
    key: String,
    value: String,
    line: usize,
    used: std::cell::Cell<bool>,
}

struct RawEntries {
    entries: Vec<RawEntry>,
}

const SECTIONS: &[&str] = &["topology", "workload", "failures", "pipeline"];

impl RawEntries {
    fn scan(text: &str) -> Result<Self, ScenarioError> {
        let mut entries = Vec::new();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = strip_comment(raw).trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(name) = trimmed.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                if !SECTIONS.contains(&name) {
                    return Err(ScenarioError::Parse {
                        line,
                        message: format!(
                            "unknown section `[{name}]` (expected one of {})",
                            SECTIONS
                                .iter()
                                .map(|s| format!("[{s}]"))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    });
                }
                section = name.to_string();
                continue;
            }
            let Some((key, value)) = trimmed.split_once('=') else {
                return Err(ScenarioError::Parse {
                    line,
                    message: format!("expected `key = value`, got `{trimmed}`"),
                });
            };
            let value = value.trim().trim_matches('"').to_string();
            entries.push(RawEntry {
                section: section.clone(),
                key: key.trim().to_string(),
                value,
                line,
                used: std::cell::Cell::new(false),
            });
        }
        Ok(RawEntries { entries })
    }

    /// Takes the single occurrence of `section.key`, if present.
    fn take(&self, section: &str, key: &str) -> Result<Option<(String, usize)>, ScenarioError> {
        let mut found: Option<(String, usize)> = None;
        for e in self
            .entries
            .iter()
            .filter(|e| e.section == section && e.key == key)
        {
            if found.is_some() {
                return Err(ScenarioError::Parse {
                    line: e.line,
                    message: format!("duplicate key `{key}`"),
                });
            }
            e.used.set(true);
            found = Some((e.value.clone(), e.line));
        }
        Ok(found)
    }

    /// Takes every occurrence of `section.key` (repeatable keys).
    fn take_all(&self, section: &str, key: &str) -> Vec<(String, usize)> {
        self.entries
            .iter()
            .filter(|e| e.section == section && e.key == key)
            .map(|e| {
                e.used.set(true);
                (e.value.clone(), e.line)
            })
            .collect()
    }

    /// Line of the first entry in `section`, if the section has any.
    fn first_line_in(&self, section: &str) -> Option<usize> {
        self.entries
            .iter()
            .find(|e| e.section == section)
            .map(|e| e.line)
    }

    /// Errors on the first entry no interpreter consumed.
    fn finish(&self) -> Result<(), ScenarioError> {
        for e in &self.entries {
            if !e.used.get() {
                let place = if e.section.is_empty() {
                    "top level".to_string()
                } else {
                    format!("[{}]", e.section)
                };
                return Err(ScenarioError::Parse {
                    line: e.line,
                    message: format!("unknown key `{}` in {place}", e.key),
                });
            }
        }
        Ok(())
    }
}

/// Strips a trailing `#` comment, honoring double quotes so values like
/// `path = "runs#3/net.rtt"` keep their `#`.
fn strip_comment(raw: &str) -> &str {
    let mut in_quotes = false;
    for (pos, c) in raw.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &raw[..pos],
            _ => {}
        }
    }
    raw
}

fn num<T: std::str::FromStr>(value: &str, line: usize, what: &str) -> Result<T, ScenarioError> {
    value.parse().map_err(|_| ScenarioError::Parse {
        line,
        message: format!("{what}: `{value}` is not valid"),
    })
}

fn boolean(value: &str, line: usize, what: &str) -> Result<bool, ScenarioError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(ScenarioError::Parse {
            line,
            message: format!("{what}: `{other}` is not true/false"),
        }),
    }
}

fn parse_topology(entries: &RawEntries) -> Result<TopologySource, ScenarioError> {
    let Some((source, src_line)) = entries.take("topology", "source")? else {
        // Topology keys without a `source` would otherwise surface as a
        // misleading "unknown key" from `finish`; name the real problem.
        if let Some(line) = entries.first_line_in("topology") {
            return Err(ScenarioError::Parse {
                line,
                message: "a [topology] section requires `source = ...`".to_string(),
            });
        }
        // No [topology] section at all: keep the default.
        return Ok(ScenarioSpec::default().topology);
    };
    let seed_entry = entries.take("topology", "seed")?;
    let seed = match &seed_entry {
        Some((v, l)) => num::<u64>(v, *l, "seed")?,
        None => 0,
    };
    // Datasets and files are not seeded; silently ignoring a `seed` key
    // would let the user believe they are varying the topology.
    let reject_seed = || -> Result<(), ScenarioError> {
        match &seed_entry {
            Some((_, l)) => Err(ScenarioError::Parse {
                line: *l,
                message: format!("`seed` does not apply to source `{source}`"),
            }),
            None => Ok(()),
        }
    };
    match source.as_str() {
        "planetlab50" | "daxlist161" => {
            reject_seed()?;
            Ok(TopologySource::Dataset(source))
        }
        "file" => {
            reject_seed()?;
            let Some((path, _)) = entries.take("topology", "path")? else {
                return Err(ScenarioError::Parse {
                    line: src_line,
                    message: "source = file requires `path = ...`".to_string(),
                });
            };
            Ok(TopologySource::File(path))
        }
        "euclidean" => {
            let sites = match entries.take("topology", "sites")? {
                Some((v, l)) => num(&v, l, "sites")?,
                None => 16,
            };
            let side_ms = match entries.take("topology", "side-ms")? {
                Some((v, l)) => num(&v, l, "side-ms")?,
                None => 120.0,
            };
            Ok(TopologySource::Euclidean {
                sites,
                side_ms,
                seed,
            })
        }
        "transit-stub" => {
            let mut config = TransitStubConfig::default();
            if let Some((v, l)) = entries.take("topology", "transit-domains")? {
                config.transit_domains = num(&v, l, "transit-domains")?;
            }
            if let Some((v, l)) = entries.take("topology", "transit-size")? {
                config.transit_size = num(&v, l, "transit-size")?;
            }
            if let Some((v, l)) = entries.take("topology", "stubs-per-transit")? {
                config.stubs_per_transit = num(&v, l, "stubs-per-transit")?;
            }
            if let Some((v, l)) = entries.take("topology", "stub-size")? {
                config.stub_size = num(&v, l, "stub-size")?;
            }
            if let Some((v, l)) = entries.take("topology", "jitter")? {
                config.jitter_frac = num(&v, l, "jitter")?;
            }
            Ok(TopologySource::TransitStub { config, seed })
        }
        "hierarchical" => {
            let mut config = HierarchicalConfig::default();
            if let Some((v, l)) = entries.take("topology", "branching")? {
                config.branching = v
                    .split('x')
                    .map(|p| num(p.trim(), l, "branching"))
                    .collect::<Result<_, _>>()?;
            }
            if let Some((v, l)) = entries.take("topology", "level-ms")? {
                config.level_ms = v
                    .split(',')
                    .map(|p| num(p.trim(), l, "level-ms"))
                    .collect::<Result<_, _>>()?;
            }
            if let Some((v, l)) = entries.take("topology", "jitter")? {
                config.jitter_frac = num(&v, l, "jitter")?;
            }
            if config.branching.len() != config.level_ms.len() {
                return Err(ScenarioError::Parse {
                    line: src_line,
                    message: format!(
                        "branching has {} levels but level-ms has {}",
                        config.branching.len(),
                        config.level_ms.len()
                    ),
                });
            }
            Ok(TopologySource::Hierarchical { config, seed })
        }
        other => Err(ScenarioError::Parse {
            line: src_line,
            message: format!(
                "unknown topology source `{other}` (transit-stub, hierarchical, \
                 planetlab50, daxlist161, euclidean, or file)"
            ),
        }),
    }
}

fn parse_workload(entries: &RawEntries) -> Result<WorkloadSpec, ScenarioError> {
    let mut w = WorkloadSpec::default();
    if let Some((v, l)) = entries.take("workload", "locations")? {
        w.locations = num(&v, l, "locations")?;
    }
    if let Some((v, l)) = entries.take("workload", "per-location")? {
        w.per_location = num(&v, l, "per-location")?;
    }
    if let Some((v, l)) = entries.take("workload", "demand")? {
        w.demand = if v == "uniform" {
            DemandModel::Uniform
        } else if let Some(theta) = v.strip_prefix("zipf:") {
            DemandModel::Zipf(num(theta, l, "zipf exponent")?)
        } else {
            return Err(ScenarioError::Parse {
                line: l,
                message: format!("unknown demand model `{v}` (uniform or zipf:THETA)"),
            });
        };
    }
    let phase = entries.take("workload", "flash-phase")?;
    let focus = entries.take("workload", "flash-focus")?;
    let boost = entries.take("workload", "flash-boost")?;
    w.flash = match (phase, focus, boost) {
        (None, None, None) => None,
        (Some((p, pl)), focus, boost) => Some(FlashCrowd {
            phase: num(&p, pl, "flash-phase")?,
            focus: match focus {
                Some((v, l)) => num(&v, l, "flash-focus")?,
                None => 0,
            },
            boost: match boost {
                Some((v, l)) => num(&v, l, "flash-boost")?,
                None => 4.0,
            },
        }),
        (None, Some((_, l)), _) | (None, None, Some((_, l))) => {
            return Err(ScenarioError::Parse {
                line: l,
                message: "flash-focus/flash-boost require flash-phase".to_string(),
            })
        }
    };
    Ok(w)
}

fn parse_failures(entries: &RawEntries) -> Result<FailurePlan, ScenarioError> {
    let mut plan = FailurePlan::default();
    // (phase, element) → line of the event that first claimed the target.
    // Two events on one target in one phase (slowdown twice, or a crash on
    // top of a slowdown) would silently compose into an unintended
    // multiplier; consistent with the strict unknown-key policy, reject at
    // the second declaration instead.
    let mut seen: std::collections::HashMap<(usize, usize), usize> =
        std::collections::HashMap::new();
    let mut claim = |phase: usize, element: usize, line: usize| match seen.entry((phase, element)) {
        std::collections::hash_map::Entry::Occupied(first) => Err(ScenarioError::Parse {
            line,
            message: format!(
                "duplicate failure target {phase}:{element} (first declared on line {})",
                first.get()
            ),
        }),
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(line);
            Ok(())
        }
    };
    for (v, l) in entries.take_all("failures", "slowdown") {
        let parts: Vec<&str> = v.split(':').collect();
        let [phase, element, multiplier] = parts.as_slice() else {
            return Err(ScenarioError::Parse {
                line: l,
                message: format!("slowdown `{v}` is not phase:element:multiplier"),
            });
        };
        let phase = num(phase, l, "slowdown phase")?;
        let element = num(element, l, "slowdown element")?;
        claim(phase, element, l)?;
        plan.events.push(FailureEvent {
            phase,
            element,
            multiplier: num(multiplier, l, "slowdown multiplier")?,
        });
    }
    for (v, l) in entries.take_all("failures", "crash") {
        let parts: Vec<&str> = v.split(':').collect();
        let [phase, element] = parts.as_slice() else {
            return Err(ScenarioError::Parse {
                line: l,
                message: format!("crash `{v}` is not phase:element"),
            });
        };
        let phase = num(phase, l, "crash phase")?;
        let element = num(element, l, "crash element")?;
        claim(phase, element, l)?;
        plan.events.push(FailureEvent {
            phase,
            element,
            multiplier: CRASH_MULTIPLIER,
        });
    }
    if let Some((v, l)) = entries.take("failures", "reoptimize")? {
        plan.reoptimize = boolean(&v, l, "reoptimize")?;
    }
    plan.fault = parse_fault(entries)?;
    Ok(plan)
}

/// Parses the `[failures]` fault-tolerance keys into a [`FaultConfig`].
/// The tuning keys are only meaningful under `fault-tolerant = true`;
/// consistent with the strict unknown-key policy, a tuning key without
/// the enable flag is an error rather than a silent no-op.
fn parse_fault(entries: &RawEntries) -> Result<Option<FaultConfig>, ScenarioError> {
    let enabled = match entries.take("failures", "fault-tolerant")? {
        Some((v, l)) => boolean(&v, l, "fault-tolerant")?,
        None => false,
    };
    let mut fault = FaultConfig {
        crash_threshold: CRASH_MULTIPLIER,
        ..FaultConfig::default()
    };
    let mut tuned_line = None;
    let mut tune =
        |entry: Option<(String, usize)>, what: &str, slot: &mut f64| -> Result<(), ScenarioError> {
            if let Some((v, l)) = entry {
                *slot = num(&v, l, what)?;
                tuned_line.get_or_insert(l);
            }
            Ok(())
        };
    tune(
        entries.take("failures", "timeout-ms")?,
        "timeout-ms",
        &mut fault.timeout_ms,
    )?;
    tune(
        entries.take("failures", "backoff-ms")?,
        "backoff-ms",
        &mut fault.backoff_base_ms,
    )?;
    tune(
        entries.take("failures", "backoff-jitter")?,
        "backoff-jitter",
        &mut fault.backoff_jitter,
    )?;
    tune(
        entries.take("failures", "detect-ms")?,
        "detect-ms",
        &mut fault.detection_latency_ms,
    )?;
    if let Some((v, l)) = entries.take("failures", "max-retries")? {
        fault.max_retries = num(&v, l, "max-retries")?;
        tuned_line.get_or_insert(l);
    }
    match (enabled, tuned_line) {
        (true, _) => Ok(Some(fault)),
        (false, None) => Ok(None),
        (false, Some(line)) => Err(ScenarioError::Parse {
            line,
            message: "fault-tolerance keys require `fault-tolerant = true`".to_string(),
        }),
    }
}

fn parse_pipeline(entries: &RawEntries) -> Result<PipelineSpec, ScenarioError> {
    let mut p = PipelineSpec::default();
    if let Some((v, _)) = entries.take("pipeline", "system")? {
        p.system = v;
    }
    if let Some((v, l)) = entries.take("pipeline", "placement")? {
        p.placement = parse_placement(&v).map_err(|e| ScenarioError::Parse {
            line: l,
            message: e.to_string(),
        })?;
    }
    if let Some((v, l)) = entries.take("pipeline", "capacity")? {
        let parts: Vec<&str> = v.split(':').collect();
        p.capacity = match parts.as_slice() {
            ["sweep"] => CapacityChoice::Sweep { steps: 5 },
            ["sweep", steps] => CapacityChoice::Sweep {
                steps: num(steps, l, "sweep steps")?,
            },
            ["fixed", c] => CapacityChoice::Fixed(num(c, l, "fixed capacity")?),
            ["load-proportional", beta, gamma] => CapacityChoice::LoadProportional {
                beta: num(beta, l, "beta")?,
                gamma: num(gamma, l, "gamma")?,
            },
            ["marginal-value", beta, gamma] => CapacityChoice::MarginalValue {
                beta: num(beta, l, "beta")?,
                gamma: num(gamma, l, "gamma")?,
            },
            _ => {
                return Err(ScenarioError::Parse {
                    line: l,
                    message: format!(
                        "bad capacity `{v}` (sweep[:STEPS], fixed:C, \
                         load-proportional:B:G, or marginal-value:B:G)"
                    ),
                })
            }
        };
    }
    if let Some((v, l)) = entries.take("pipeline", "op-time")? {
        p.op_time_ms = num(&v, l, "op-time")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "demand-scale")? {
        p.demand = num(&v, l, "demand-scale")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "phases")? {
        p.phases = num(&v, l, "phases")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "requests")? {
        p.requests = num(&v, l, "requests")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "warmup")? {
        p.warmup = num(&v, l, "warmup")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "seed")? {
        p.seed = num(&v, l, "seed")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "service-time")? {
        p.service_time_ms = num(&v, l, "service-time")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "tolerance")? {
        p.tolerance = num(&v, l, "tolerance")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "quorum-limit")? {
        p.quorum_limit = num(&v, l, "quorum-limit")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "engine")? {
        let one = |s: &str| match s.trim() {
            "exact" => Ok(SimEngine::Exact),
            "aggregated" => Ok(SimEngine::Aggregated),
            other => Err(ScenarioError::Parse {
                line: l,
                message: format!("unknown engine `{other}` (exact|aggregated)"),
            }),
        };
        p.engine = if v.contains(',') {
            EngineSelection::PerPhase(v.split(',').map(one).collect::<Result<Vec<_>, _>>()?)
        } else {
            EngineSelection::Uniform(one(&v)?)
        };
    }
    // Both spellings accepted: `carry-queues` matches the section's
    // kebab-case keys, `carry_queues` matches the struct field.
    let carry = match entries.take("pipeline", "carry-queues")? {
        Some(e) => Some(e),
        None => entries.take("pipeline", "carry_queues")?,
    };
    if let Some((v, l)) = carry {
        p.carry_queues = boolean(&v, l, "carry-queues")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "exact-compare")? {
        p.exact_compare = boolean(&v, l, "exact-compare")?;
    }
    if let Some((v, l)) = entries.take("pipeline", "exact-compare-sample")? {
        p.exact_compare_sample = num(&v, l, "exact-compare-sample")?;
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A transit-stub flash-crowd scenario with a failure plan.
name = ts-flash

[topology]
source = transit-stub
seed = 7
transit-domains = 2
transit-size = 2
stubs-per-transit = 1
stub-size = 3
jitter = 0.04

[workload]
locations = 6
per-location = 3
demand = zipf:0.8
flash-phase = 1
flash-focus = 0
flash-boost = 5

[failures]
slowdown = 2:0:20
crash = 2:4
reoptimize = true

[pipeline]
system = grid:3
placement = shell:0
capacity = sweep:4
phases = 3
requests = 40
warmup = 5
seed = 42
tolerance = 0.12
"#;

    #[test]
    fn parses_the_full_example() {
        let spec = ScenarioSpec::parse(FULL).unwrap();
        assert_eq!(spec.name, "ts-flash");
        let TopologySource::TransitStub { config, seed } = &spec.topology else {
            panic!("wrong source: {:?}", spec.topology);
        };
        assert_eq!(*seed, 7);
        assert_eq!(config.transit_domains, 2);
        assert_eq!(config.stub_size, 3);
        assert_eq!(spec.workload.locations, 6);
        assert_eq!(spec.workload.demand, DemandModel::Zipf(0.8));
        let flash = spec.workload.flash.unwrap();
        assert_eq!((flash.phase, flash.focus, flash.boost), (1, 0, 5.0));
        assert_eq!(spec.failures.events.len(), 2);
        assert_eq!(spec.failures.events[1].multiplier, CRASH_MULTIPLIER);
        assert!(spec.failures.reoptimize);
        assert_eq!(spec.pipeline.system, "grid:3");
        assert_eq!(
            spec.pipeline.placement,
            PlacementAlgorithm::GridShell { anchor: 0 }
        );
        assert_eq!(spec.pipeline.capacity, CapacityChoice::Sweep { steps: 4 });
        assert_eq!(spec.pipeline.phases, 3);
        assert_eq!(spec.pipeline.tolerance, 0.12);
        // Untouched knobs keep their defaults.
        assert_eq!(spec.pipeline.op_time_ms, 0.007);
        assert_eq!(spec.pipeline.quorum_limit, 100_000);
    }

    #[test]
    fn empty_spec_is_the_default() {
        let spec = ScenarioSpec::parse("").unwrap();
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn unknown_key_is_rejected_with_line() {
        // `colgen` is not a key, whatever its value: every spec runs the
        // location-level LP. Nor is `sparse-apsp`: every transit-stub
        // network is its Dijkstra matrix.
        for (text, at, key) in [
            ("[pipeline]\nbogus = 1\n", 2, "bogus"),
            ("[pipeline]\ncolgen = true\n", 2, "colgen"),
            ("[pipeline]\ncolgen = maybe\n", 2, "colgen"),
            (
                "[topology]\nsource = transit-stub\nsparse-apsp = true\n",
                3,
                "sparse-apsp",
            ),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            let ScenarioError::Parse { line, message } = err else {
                panic!("wrong error: {err}");
            };
            assert_eq!(line, at, "{text}");
            assert!(message.contains(key), "{message}");
        }
    }

    #[test]
    fn unknown_section_is_rejected() {
        assert!(matches!(
            ScenarioSpec::parse("[nonsense]\n"),
            Err(ScenarioError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn duplicate_key_is_rejected() {
        assert!(matches!(
            ScenarioSpec::parse("[pipeline]\nphases = 1\nphases = 2\n"),
            Err(ScenarioError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn duplicate_top_level_key_is_rejected() {
        assert!(matches!(
            ScenarioSpec::parse("name = \"a\"\nname = \"b\"\n"),
            Err(ScenarioError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn duplicate_key_across_repeated_sections_is_rejected() {
        // Reopening a section must not let the second occurrence win.
        let text = "[pipeline]\nphases = 1\n[workload]\nlocations = 6\n[pipeline]\nphases = 2\n";
        assert!(matches!(
            ScenarioSpec::parse(text),
            Err(ScenarioError::Parse { line: 6, .. })
        ));
    }

    #[test]
    fn duplicate_slowdown_target_is_rejected() {
        let text = "[failures]\nslowdown = 0:1:2\nslowdown = 0:1:4\n[pipeline]\nphases = 2\n";
        let err = ScenarioSpec::parse(text).unwrap_err();
        let ScenarioError::Parse { line, message } = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(line, 3);
        assert!(
            message.contains("duplicate failure target 0:1"),
            "{message}"
        );
        assert!(message.contains("line 2"), "{message}");
    }

    #[test]
    fn crash_on_slowed_target_is_rejected() {
        let text = "[failures]\nslowdown = 1:3:2\ncrash = 1:3\n[pipeline]\nphases = 2\n";
        assert!(matches!(
            ScenarioSpec::parse(text),
            Err(ScenarioError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn distinct_failure_targets_still_compose() {
        // Same element in different phases, and different elements in one
        // phase, are all legitimate.
        let text = "[failures]\nslowdown = 0:1:2\nslowdown = 1:1:2\ncrash = 0:2\n\
                    [pipeline]\nphases = 2\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.failures.events.len(), 3);
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(ScenarioSpec::parse("[pipeline]\nphases\n").is_err());
        assert!(ScenarioSpec::parse("[pipeline]\nphases = x\n").is_err());
        assert!(ScenarioSpec::parse("[failures]\nslowdown = 1:2\n").is_err());
        assert!(ScenarioSpec::parse("[workload]\ndemand = pareto\n").is_err());
        assert!(ScenarioSpec::parse("[workload]\nflash-focus = 1\n").is_err());
        assert!(ScenarioSpec::parse("[topology]\nsource = marsnet\n").is_err());
    }

    #[test]
    fn engine_keys_parse() {
        let text = "[pipeline]\nengine = aggregated\ncarry-queues = true\nexact-compare = true\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(
            spec.pipeline.engine,
            EngineSelection::Uniform(SimEngine::Aggregated)
        );
        assert!(spec.pipeline.carry_queues);
        assert!(spec.pipeline.exact_compare);

        // Per-phase list, underscore alias for the carry flag.
        let text = "[pipeline]\nphases = 2\nengine = exact, aggregated\ncarry_queues = true\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.pipeline.engine.for_phase(0), SimEngine::Exact);
        assert_eq!(spec.pipeline.engine.for_phase(1), SimEngine::Aggregated);
        assert!(spec.pipeline.engine.any_aggregated());
        assert!(spec.pipeline.carry_queues);

        // All default off: every prior spec keeps its exact-engine runs.
        let spec = ScenarioSpec::parse("").unwrap();
        assert_eq!(spec.pipeline.engine, EngineSelection::default());
        assert!(!spec.pipeline.carry_queues);
        assert!(!spec.pipeline.exact_compare);
    }

    #[test]
    fn engine_keys_reject_bad_values() {
        // Unknown engine name.
        assert!(matches!(
            ScenarioSpec::parse("[pipeline]\nengine = fluid\n"),
            Err(ScenarioError::Parse { line: 2, .. })
        ));
        // Engine list length must match the phase count.
        let err = ScenarioSpec::parse("[pipeline]\nphases = 3\nengine = exact, aggregated\n")
            .unwrap_err();
        let ScenarioError::Invalid(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("2 entries for 3 phases"), "{msg}");
        // exact-compare is meaningless without an aggregated phase.
        assert!(matches!(
            ScenarioSpec::parse("[pipeline]\nexact-compare = true\n"),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn fault_tolerance_keys_parse() {
        let text = "[failures]\nfault-tolerant = true\ntimeout-ms = 80\n\
                    max-retries = 2\nbackoff-ms = 5\nbackoff-jitter = 0.25\n\
                    detect-ms = 150\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        let f = spec.failures.fault.expect("fault config parsed");
        assert_eq!(f.timeout_ms, 80.0);
        assert_eq!(f.max_retries, 2);
        assert_eq!(f.backoff_base_ms, 5.0);
        assert_eq!(f.backoff_jitter, 0.25);
        assert_eq!(f.detection_latency_ms, 150.0);
        // The crash threshold is pinned to the spec-level crash model.
        assert_eq!(f.crash_threshold, CRASH_MULTIPLIER);

        // The bare enable flag takes every default.
        let spec = ScenarioSpec::parse("[failures]\nfault-tolerant = true\n").unwrap();
        let f = spec.failures.fault.expect("defaults");
        assert_eq!(f.crash_threshold, CRASH_MULTIPLIER);

        // Off (and absent) keeps the omniscient-client behavior.
        assert_eq!(ScenarioSpec::parse("").unwrap().failures.fault, None);
        let spec = ScenarioSpec::parse("[failures]\nfault-tolerant = false\n").unwrap();
        assert_eq!(spec.failures.fault, None);
    }

    #[test]
    fn fault_tuning_without_enable_is_rejected() {
        let err = ScenarioSpec::parse("[failures]\ntimeout-ms = 80\n").unwrap_err();
        let ScenarioError::Parse { line, message } = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(line, 2);
        assert!(message.contains("fault-tolerant = true"), "{message}");
    }

    #[test]
    fn bad_fault_values_are_rejected() {
        for text in [
            "[failures]\nfault-tolerant = true\ntimeout-ms = 0\n",
            "[failures]\nfault-tolerant = true\ntimeout-ms = -5\n",
            "[failures]\nfault-tolerant = true\nbackoff-ms = -1\n",
            "[failures]\nfault-tolerant = true\nbackoff-jitter = 1.5\n",
            "[failures]\nfault-tolerant = true\ndetect-ms = -1\n",
        ] {
            assert!(
                matches!(ScenarioSpec::parse(text), Err(ScenarioError::Invalid(_))),
                "`{text}` should fail validation"
            );
        }
        assert!(ScenarioSpec::parse("[failures]\nfault-tolerant = maybe\n").is_err());
    }

    #[test]
    fn bad_response_model_values_are_rejected() {
        for (key, value) in [
            ("op-time", "-1"),
            ("op-time", "nan"),
            ("op-time", "inf"),
            ("demand-scale", "-1"),
            ("demand-scale", "nan"),
            ("demand-scale", "inf"),
        ] {
            let text = format!("[pipeline]\n{key} = {value}\n");
            let err = ScenarioSpec::parse(&text).unwrap_err();
            let ScenarioError::Invalid(msg) = err else {
                panic!("`{key} = {value}`: wrong error: {err}");
            };
            assert!(msg.contains(key), "`{key} = {value}`: {msg}");
        }
        // Zero is a valid (load-free) response model.
        ScenarioSpec::parse("[pipeline]\nop-time = 0\ndemand-scale = 0\n").unwrap();
    }

    #[test]
    fn exact_compare_sample_parses_and_validates() {
        let text = "[pipeline]\nengine = aggregated\n\
                    exact-compare = true\nexact-compare-sample = 500\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.pipeline.exact_compare_sample, 500);
        // Defaults to 0 (full-population compare).
        assert_eq!(
            ScenarioSpec::parse("")
                .unwrap()
                .pipeline
                .exact_compare_sample,
            0
        );
        // A cap without the compare itself is a contradiction.
        let err = ScenarioSpec::parse("[pipeline]\nexact-compare-sample = 500\n").unwrap_err();
        let ScenarioError::Invalid(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("exact-compare-sample"), "{msg}");
    }

    #[test]
    fn semantic_validation_fires() {
        // Flash phase beyond the phase count.
        let text = "[workload]\nflash-phase = 5\n[pipeline]\nphases = 2\n";
        assert!(matches!(
            ScenarioSpec::parse(text),
            Err(ScenarioError::Invalid(_))
        ));
        // Failure phase beyond the phase count.
        let text = "[failures]\nslowdown = 9:0:2\n[pipeline]\nphases = 2\n";
        assert!(matches!(
            ScenarioSpec::parse(text),
            Err(ScenarioError::Invalid(_))
        ));
    }

    #[test]
    fn failure_element_out_of_universe_is_rejected() {
        // grid:2 has 4 elements; a typo'd target must fail loudly, not
        // silently inject nothing.
        let text = "[failures]\ncrash = 0:99\n[pipeline]\nsystem = grid:2\n";
        let err = ScenarioSpec::parse(text).unwrap_err();
        let ScenarioError::Invalid(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("element 99"), "{msg}");
        assert!(msg.contains("4-element"), "{msg}");
    }

    #[test]
    fn degenerate_generator_parameters_are_errors_not_panics() {
        for text in [
            "[topology]\nsource = transit-stub\ntransit-domains = 0\n",
            "[topology]\nsource = transit-stub\nstub-size = 0\n",
            "[topology]\nsource = transit-stub\njitter = -1\n",
            "[topology]\nsource = euclidean\nsites = 0\n",
            "[topology]\nsource = euclidean\nside-ms = 0\n",
            "[topology]\nsource = hierarchical\nbranching = 0x2\nlevel-ms = 1, 1\n",
            "[topology]\nsource = hierarchical\nbranching = 2x2\nlevel-ms = 1, 0\n",
        ] {
            assert!(
                matches!(ScenarioSpec::parse(text), Err(ScenarioError::Invalid(_))),
                "`{text}` should fail validation"
            );
        }
    }

    #[test]
    fn overflowing_zipf_exponent_is_an_error_not_a_panic() {
        let text = "[workload]\nlocations = 6\ndemand = zipf:400\n";
        let err = ScenarioSpec::parse(text).unwrap_err();
        let ScenarioError::Invalid(msg) = err else {
            panic!("wrong error: {err}");
        };
        assert!(msg.contains("too large"), "{msg}");
    }

    #[test]
    fn seed_on_unseeded_sources_is_rejected() {
        for source in ["planetlab50", "daxlist161"] {
            let text = format!("[topology]\nsource = {source}\nseed = 9\n");
            let err = ScenarioSpec::parse(&text).unwrap_err();
            let ScenarioError::Parse { line, message } = err else {
                panic!("wrong error for {source}: {err}");
            };
            assert_eq!(line, 3);
            assert!(message.contains("does not apply"), "{message}");
        }
        // Generator sources keep accepting it.
        assert!(ScenarioSpec::parse("[topology]\nsource = euclidean\nseed = 9\n").is_ok());
    }

    #[test]
    fn hash_inside_quoted_value_is_not_a_comment() {
        let spec =
            ScenarioSpec::parse("[topology]\nsource = file\npath = \"runs#3/net.rtt\"\n").unwrap();
        assert_eq!(spec.topology, TopologySource::File("runs#3/net.rtt".into()));
        // Unquoted comments still strip.
        let spec = ScenarioSpec::parse("name = exp4   # the fourth run\n").unwrap();
        assert_eq!(spec.name, "exp4");
    }

    #[test]
    fn topology_keys_without_source_name_the_real_problem() {
        let err = ScenarioSpec::parse("[topology]\nseed = 5\n").unwrap_err();
        let ScenarioError::Parse { line, message } = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(line, 2);
        assert!(message.contains("source"), "{message}");
    }

    #[test]
    fn hierarchical_topology_parses() {
        let text = "[topology]\nsource = hierarchical\nbranching = 3x2x2\nlevel-ms = 40, 8, 1\n";
        let spec = ScenarioSpec::parse(text).unwrap();
        let TopologySource::Hierarchical { config, .. } = &spec.topology else {
            panic!("wrong source");
        };
        assert_eq!(config.branching, vec![3, 2, 2]);
        assert_eq!(config.level_ms, vec![40.0, 8.0, 1.0]);
        // Mismatched levels are a parse error.
        let bad = "[topology]\nsource = hierarchical\nbranching = 3x2\nlevel-ms = 40\n";
        assert!(ScenarioSpec::parse(bad).is_err());
    }

    #[test]
    fn system_and_placement_parsers() {
        assert_eq!(parse_system("grid:4").unwrap().universe_size(), 16);
        assert_eq!(
            parse_system("majority:fourfifths:2")
                .unwrap()
                .universe_size(),
            11
        );
        assert!(parse_system("grid").is_err());
        assert!(parse_system("grid:0").is_err());
        assert!(parse_system("majority:weird:2").is_err());
        assert_eq!(
            parse_placement("ball:3").unwrap(),
            PlacementAlgorithm::Ball { anchor: 3 }
        );
        assert!(parse_placement("teleport").is_err());
    }

    #[test]
    fn multipliers_for_phase_combines_events() {
        let plan = FailurePlan {
            events: vec![
                FailureEvent {
                    phase: 1,
                    element: 0,
                    multiplier: 4.0,
                },
                FailureEvent {
                    phase: 1,
                    element: 0,
                    multiplier: 2.0,
                },
                FailureEvent {
                    phase: 2,
                    element: 3,
                    multiplier: 8.0,
                },
            ],
            reoptimize: false,
            fault: None,
        };
        assert_eq!(plan.multipliers_for_phase(0, 5), None);
        let p1 = plan.multipliers_for_phase(1, 5).unwrap();
        assert_eq!(p1[0], 8.0);
        assert_eq!(p1[1], 1.0);
        let p2 = plan.multipliers_for_phase(2, 5).unwrap();
        assert_eq!(p2[3], 8.0);
    }
}
