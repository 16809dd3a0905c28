//! `quorumd` — a long-lived placement daemon with online delta
//! re-optimization.
//!
//! A deployed quorum system does not live in the static world of the
//! batch pipeline: sites slow down, client demand shifts, nodes crash
//! and come back. Re-running the whole placement pipeline on every
//! change wastes the one thing the warm-start LP layers were built for
//! — the next optimum is a few pivots away from the current one.
//!
//! This crate keeps a [`Session`] per deployed system: the topology,
//! the placement, and a **resident** [`qp_lp::SimplexInstance`] holding
//! the demand-weighted strategy LP in *q-substitution* form
//! ([`qp_core::strategy_lp::build_weighted_strategy_model`]). Each
//! online delta edits the LP in place and re-solves warm:
//!
//! | delta | LP edit | warm path |
//! |---|---|---|
//! | `demand <loc> <w>` | convexity rhs | dual simplex |
//! | `crash <node>` | capacity rhs → 0 | dual simplex |
//! | `restore <node>` | capacity rhs back | dual simplex |
//! | `slowdown <site> <σ>` | objective coefficients | **primal** re-solve |
//! |  | (tuning sweep) | capacity rhs per point, dual simplex from the last |
//!
//! After each delta the session re-tunes the uniform capacity over the
//! §7 sweep grid, adopts the response-minimizing point, and reports a
//! [`MigrationPlan`] — which probability mass moves between quorums,
//! and the expected response-time delta.
//!
//! Every answer is cross-checkable against a from-scratch cold rebuild
//! ([`Session::cold_check`], the `check` protocol command): strategies,
//! delay, and tuned capacity agree to ≤ 1e-9 while the warm path spends
//! strictly fewer pivots. The LP objective carries a deterministic
//! relative jitter (~1e-7) that makes the optimum generically unique,
//! so warm and cold land on the *same* vertex instead of two ends of a
//! degenerate face.
//!
//! [`server`] wraps a session in a line-protocol service (TCP or Unix
//! socket, thread-per-connection); [`protocol`] defines the wire
//! grammar shared with the `quorumnet ctl` client. [`persist`] adds
//! crash safety: one append-only log, the session state then every
//! fsync'd delta, compacted by atomic rename, and [`persist::recover`]
//! replays it on restart and cross-checks the recovered answer against
//! a cold recompute to ≤ 1e-9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod protocol;
pub mod server;
pub mod session;

pub use persist::{recover, PersistError, Persistence, RecoveryReport};
pub use protocol::{Command, Delta};
pub use server::{Endpoint, Server};
pub use session::{
    Answer, CheckReport, DeltaReport, MigrationPlan, PersistedState, Session, SessionConfig,
    SessionError,
};
