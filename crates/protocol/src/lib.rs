//! Message-level simulation of a Q/U-style quorum protocol over a
//! wide-area network.
//!
//! This crate reproduces the paper's §3 motivating experiment — Q/U
//! (Abd-El-Malek et al., SOSP'05) on a Modelnet-emulated PlanetLab topology
//! — as a discrete-event simulation:
//!
//! * **Clients** are closed-loop: each issues a request, waits for the full
//!   quorum of replies, then immediately issues the next (the paper's
//!   clients "issued only requests that completed in a single round trip",
//!   the Q/U common case under normal conditions).
//! * **Servers** process requests FIFO with a deterministic per-request
//!   service time (1 ms in the paper's setup).
//! * **The network** delivers a message from `a` to `b` in `d(a, b)/2`
//!   (one-way half of the measured RTT), with no loss — the paper assumes
//!   normal conditions, no failures.
//!
//! A request's *response time* is the span from send to the arrival of the
//! last quorum reply; its *network delay* is what that span would have been
//! on idle servers (`max over the quorum of RTT + service`, the floor the
//! §3 figures plot against).
//!
//! # Examples
//!
//! ```
//! use qp_protocol::{ClientPopulation, ProtocolConfig, QuorumChoice, simulate};
//! use qp_core::one_to_one;
//! use qp_quorum::{MajorityKind, QuorumSystem};
//! use qp_topology::datasets;
//!
//! let net = datasets::planetlab_50();
//! let sys = QuorumSystem::majority(MajorityKind::FourFifths, 1)?; // n = 6
//! let placement = one_to_one::best_placement(&net, &sys)?;
//! let clients = ClientPopulation::representative(&net, &sys, &placement, 5, 2);
//! let report = simulate(
//!     &net, &sys, &placement, &clients,
//!     QuorumChoice::Balanced,
//!     &ProtocolConfig::default(),
//! )?;
//! assert!(report.avg_response_ms >= report.avg_network_delay_ms - 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod multi;
mod sim;
mod workload;

pub use agg::{simulate_aggregated, simulate_with_engine, SimEngine};
pub use multi::simulate_many;
pub use sim::{simulate, FaultConfig, ProtocolConfig, QuorumChoice, SimError, SimReport};
pub use workload::ClientPopulation;
