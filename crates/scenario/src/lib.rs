//! **qp-scenario** — declarative WAN/workload/failure scenarios and the
//! end-to-end pipeline runner.
//!
//! The paper's evaluation is a fixed handful of topology × demand ×
//! capacity configurations; this crate mass-produces *arbitrary* ones. A
//! [`ScenarioSpec`] — parsed from a small TOML-like text format
//! ([`spec`] module docs) or built in code — composes four ingredients:
//!
//! 1. **A topology source** ([`TopologySource`]): the built-in synthetic
//!    datasets, an RTT matrix file, or the seeded transit-stub /
//!    hierarchical WAN generators of `qp_topology::datasets`.
//! 2. **A demand model** ([`WorkloadSpec`]): uniform or Zipf-skewed
//!    per-location demand weights on a representative
//!    [`ClientPopulation`](qp_protocol::ClientPopulation), plus an
//!    optional time-phased [`FlashCrowd`] surge.
//! 3. **A failure plan** ([`FailurePlan`]): per-phase site slowdowns and
//!    crashes injected through the simulator's `service_multipliers`,
//!    with optional mid-run strategy re-optimization.
//! 4. **A pipeline config** ([`PipelineSpec`]): quorum system, placement
//!    algorithm, capacity selection (uniform sweep, fixed, or the §7
//!    heuristics), the LP response model, and the DES shape.
//!
//! [`ScenarioRunner`] executes a matrix of specs on the deterministic
//! `qp-par` worker pool — placement → strategy LP (warm-started capacity
//! re-solves) → per-phase DES — and emits a structured
//! [`ScenarioReport`]. Every phase cross-checks the LP-side prediction
//! against the DES measurement: the expected idle-network floor of the
//! optimized strategy (demand weights and failure multipliers folded in)
//! must match the simulated floor within the spec's tolerance.
//!
//! Everything is a pure function of the spec, so reports are
//! bit-identical across runs and thread counts.
//!
//! # Examples
//!
//! ```
//! use qp_scenario::{ScenarioRunner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(
//!     "name = demo\n\
//!      [topology]\n\
//!      source = transit-stub\n\
//!      transit-domains = 2\n\
//!      transit-size = 2\n\
//!      stubs-per-transit = 1\n\
//!      stub-size = 3\n\
//!      seed = 7\n\
//!      [workload]\n\
//!      locations = 4\n\
//!      per-location = 2\n\
//!      demand = zipf:0.8\n\
//!      [pipeline]\n\
//!      system = grid:2\n\
//!      capacity = sweep:3\n\
//!      requests = 20\n\
//!      tolerance = 0.25\n",
//! )?;
//! let report = ScenarioRunner::new().run(&spec)?;
//! assert!(report.pass, "LP-vs-DES cross-check failed:\n{report}");
//! # Ok::<(), qp_scenario::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod matrix;
pub mod report;
mod runner;
pub mod spec;

pub use error::ScenarioError;
pub use matrix::{encode_report, spec_hash, write_merged_jsonl, MatrixEntry};
pub use report::{PhaseReport, ScenarioReport, StageBreakdown};
pub use runner::ScenarioRunner;
pub use spec::{
    parse_placement, parse_system, CapacityChoice, DemandModel, EngineSelection, FailureEvent,
    FailurePlan, FlashCrowd, PipelineSpec, ScenarioSpec, TopologySource, WorkloadSpec,
};
