//! An exact 0/1 integer-programming solver and the paper's time-indexed
//! scheduling formulation — the from-scratch substitute for ILOG CPLEX
//! (DESIGN.md §1).
//!
//! §3.1 of the paper models the quasi-off-line scheduling problem as an
//! integer program over binary variables `x_it` ("job `i` starts at time
//! `t`"), minimizing average response time weighted by width (ARTwW),
//! subject to each job starting exactly once and per-time capacity limits
//! reduced by the machine history. §3.2 adds *time-scaling* so the problem
//! fits in memory, and a compaction pass that re-inserts jobs in the
//! ILP's starting order to reclaim the slack the coarse grid introduces.
//!
//! Crate layout, bottom-up:
//! * [`sparse`] — compressed sparse-column matrix (with a row-wise
//!   mirror) used by the LP solver,
//! * [`lu`] — sparse LU factorization of a basis plus its eta file,
//! * [`simplex`] — a bounded-variable, two-phase revised simplex (primal,
//!   with a dual repair phase for warm starts) over that factor, behind
//!   one [`solve_lp`] that starts cold, from a crash basis or warm from a
//!   parent's ([`LpStart`]),
//! * [`model`] — the general mixed 0/1 linear-program description,
//! * [`branch`] — best-first branch & bound with LP bounds, integral
//!   rounding, node/deterministic-work limits, warm-started child LPs
//!   and deterministic synchronous-round node solves on the shared
//!   worker pool ([`dynp_obs::pool`]),
//! * [`scaling`] — the paper's Eq. 6 memory-driven time-scale choice,
//! * [`timeindex`] — builds the §3.1 formulation from a
//!   [`SchedulingProblem`](dynp_sched::SchedulingProblem) and extracts
//!   schedules from solutions,
//! * [`mod@compact`] — the §3.2 forward-move compaction,
//! * [`solve`] — the one-call "CPLEX run": scale, build, solve, extract,
//!   compact, report.

pub mod branch;
pub mod compact;
pub mod lu;
pub mod model;
pub mod scaling;
pub mod simplex;
pub mod solve;
pub mod sparse;
pub mod timeindex;

pub use branch::{solve_mip, BranchBound, BranchLimits, GapPoint, MipSolution, MipStatus};
pub use compact::compact;
pub use model::{Milp, Sense};
pub use scaling::{TimeScaling, PAPER_MEMORY_BYTES, PAPER_X_BYTES};
pub use simplex::{solve_lp, Basis, KernelCounts, LpOutcome, LpSolution, LpStart};
pub use solve::{
    solve_snapshot, ExactComparison, ExactRun, SolveConfig, SolveError, SolveIncomplete,
};
pub use timeindex::TimeIndexedModel;
