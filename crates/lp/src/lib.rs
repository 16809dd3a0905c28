//! Linear-programming substrate: a small modeling layer and a from-scratch
//! revised-simplex solver with sparse basis factorization and warm-started
//! parametric re-solving.
//!
//! The paper solves its placement and access-strategy linear programs with
//! GNU MathProg + `glpsol`; this crate replaces that external toolchain with
//! a pure-Rust solver so the whole reproduction is self-contained. The
//! solver has exactly one configuration, and the crate is organized in
//! three cooperating layers:
//!
//! 1. **Solver core** (the private `simplex`, `pricing`, and `factor`
//!    modules) — a two-phase *revised simplex* over a compressed
//!    sparse-column (CSC) constraint matrix:
//!
//!    * **Basis algebra**: a sparse LU factorization at refactorization
//!      points with product-form (eta-file) updates between them.
//!    * **Pricing** (the `pricing` module): **devex reference-framework
//!      pricing over a candidate list** — a periodic full pass ranks
//!      columns by `rc²/w`, and between refreshes each pivot prices only
//!      the best few hundred candidates. On the 16,100-column §7 strategy
//!      LPs a solve needs ~20 full passes instead of one per pivot
//!      ([`SolveStats::full_prices`] makes that observable). After a run
//!      of degenerate pivots the primal simplex switches to Bland's rule
//!      (a full lowest-index scan) so it cannot cycle. The dual simplex
//!      gets the matching treatment: devex-weighted leaving rows.
//!    * **Bounded variables**: finite upper bounds are handled
//!      *in-solver* by the bounded-variable ratio test — nonbasic columns
//!      sit at either bound and jump between them in **bound flips** that
//!      cost no basis change ([`SolveStats::bound_flips`]) — so a
//!      box-bounded LP factorizes only its constraint rows. Cold solves
//!      start from a slack crash basis: rows whose slack can sit basic at
//!      a feasible value skip their artificial.
//!
//!    Shared pivot logic — pricing with the Bland switch, periodic
//!    refactorization, phase-1 infeasibility detection — drives cold
//!    solves, plus a **dual simplex** (incremental reduced costs and
//!    basic values, rebuilt at refactorization points) for re-optimizing
//!    after right-hand-side or bound changes.
//! 2. **Parametric instances** ([`SimplexInstance`]) — a reusable solver
//!    built once from a [`Model`]: `solve()` runs cold and caches the
//!    optimal basis *with its factorization and reduced costs*;
//!    [`SimplexInstance::set_rhs`] / [`SimplexInstance::set_var_bounds`]
//!    mutate the frozen standard form in place, and
//!    [`SimplexInstance::resolve`] dual-simplex-reoptimizes from the
//!    previous optimal basis. [`SimplexInstance::resolve_with_rhs`] is
//!    the sweep hot path: a *non-mutating* warm re-solve at modified
//!    right-hand sides whose only per-call copy is one rhs vector — no
//!    instance clone, no re-factorization of the shared basis.
//!    [`SimplexInstance::add_column`] grows the frozen standard form by
//!    one variable *in place* — the CSC matrix gains a column, the basis
//!    and its factorization are untouched (the new column enters nonbasic
//!    at zero, so the old basis stays primal feasible), and the next
//!    `resolve()` re-optimizes warm with the primal simplex. That is the
//!    substrate for **restricted-master column generation**
//!    (`qp-core::strategy_lp::ColGenSolver`): a pricing oracle appends
//!    only profitable columns and re-solves, never materializing the full
//!    column set. [`Solution::stats`] exposes pivot/refactorization/bound-flip/
//!    pricing counters, so warm-vs-cold work is observable in tests, not
//!    just wall clock. Every re-solve is a pure function of
//!    `(instance, parameters)`, keeping sweep results bit-identical at
//!    any thread count.
//! 3. **Modeling layer** ([`Model`], [`Solution`]) — variables with general
//!    bounds (finite lower bounds are shifted away, free variables split,
//!    finite upper bounds kept on the columns), `≤`/`≥`/`=` constraints,
//!    duals per row. [`Solution::certify`] checks any solution against
//!    its original model — primal and dual feasibility plus complementary
//!    slackness — without trusting the solver; the tests use it as their
//!    oracle.
//!
//! The LPs in this repository are small-to-medium (hundreds of rows, up to
//! a few tens of thousands of columns) but are re-solved *hundreds of
//! times* with only capacity right-hand sides changing (§7 sweeps); the
//! factorized basis, candidate-list pricing, and clone-free warm re-solves
//! are what make those sweeps cheap.
//!
//! # Examples
//!
//! Maximize `3x + 5y` subject to `x ≤ 4`, `2y ≤ 12`, `3x + 2y ≤ 18`
//! (the classic example; optimum 36 at `(2, 6)`):
//!
//! ```
//! use qp_lp::{Model, Sense};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
//! m.add_le(&[(x, 1.0)], 4.0);
//! m.add_le(&[(y, 2.0)], 12.0);
//! m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 36.0).abs() < 1e-7);
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 6.0).abs() < 1e-7);
//! # Ok::<(), qp_lp::LpError>(())
//! ```
//!
//! Parametric re-solving over a family of right-hand sides:
//!
//! ```
//! use qp_lp::{Model, Sense};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 5.0);
//! m.add_le(&[(x, 1.0)], 4.0);
//! m.add_le(&[(y, 2.0)], 12.0);
//! let coupling = m.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
//!
//! let mut inst = m.instance()?;
//! inst.solve()?; // cold once
//! for rhs in [15.0, 16.5, 18.0, 21.0] {
//!     inst.set_rhs(coupling, rhs);
//!     let sol = inst.resolve()?; // warm from the previous optimal basis
//!     assert!(sol.stats().warm);
//! }
//! # Ok::<(), qp_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod factor;
mod format;
mod instance;
mod model;
mod pricing;
mod simplex;
mod solution;

pub use error::LpError;
pub use format::format_lp;
pub use instance::SimplexInstance;
pub use model::{Model, Relation, Sense, VarId};
pub use solution::{Solution, SolveStats};
