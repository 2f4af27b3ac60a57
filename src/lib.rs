//! `dynp-rs` — a reproduction of *"On the Comparison of CPLEX-Computed Job
//! Schedules with the Self-Tuning dynP Job Scheduler"* (Grothklags &
//! Streit, IPPS/IPDPS 2004 workshops).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`trace`] — job model, SWF traces, the synthetic CTC workload,
//!   weekly trace shards,
//! * [`platform`] — machine, availability profile, machine history,
//! * [`sched`] — planning-based schedules, FCFS/SJF/LJF, metrics,
//! * [`dynp`] — the self-tuning dynP scheduler (deciders, tuner),
//! * [`sim`] — the RMS simulator replaying traces,
//! * [`milp`] — the exact time-indexed ILP solver (the CPLEX substitute),
//! * [`exp`] — parallel, resumable experiment campaigns over trace shards,
//! * [`obs`] — metrics, span timing, trace-context propagation, the
//!   JSONL event log, checkpointing, and OpenMetrics exposition,
//! * [`insight`] — the offline event analyzer: merges rotated/sharded
//!   logs by logical clock and reports critical paths, span latency
//!   percentiles, and regression diffs,
//! * [`watch`] — the live telemetry server: `/metrics`, `/progress`,
//!   `/alerts`, and `/events` over plain std TCP while a run is going,
//! * [`serve`] — the online scheduling service: batched job admission
//!   over a versioned HTTP API in front of a live self-tuning scheduler.
//!
//! # Quickstart
//!
//! ```
//! use dynp_rs::prelude::*;
//!
//! // A small CTC-like workload on a 64-node machine.
//! let model = CtcModel { nodes: 64, ..CtcModel::default() };
//! let trace = model.generate(50, 42);
//!
//! // Replay it under the self-tuning dynP scheduler.
//! let run = simulate(
//!     &trace.jobs,
//!     SelfTuning::paper_config(Metric::SldwA),
//!     SimConfig::new(trace.machine_size),
//! );
//! assert_eq!(run.records.len(), 50);
//! println!("{}", run.summary);
//! ```
//!
//! # Prelude layout
//!
//! The [`prelude`] is organized by how the crate is used: replaying
//! traces ([`prelude::sim`]), running campaigns ([`prelude::exp`]), and
//! serving jobs online ([`prelude::serve`]). The prelude root glob
//! re-exports all three, so existing `use dynp_rs::prelude::*;` imports
//! keep working unchanged.
//!
//! # Errors
//!
//! Fallible entry points return typed errors ([`sched::PlanError`],
//! [`milp::SolveError`], [`trace::SwfError`], [`exp::CampaignError`],
//! [`serve::ServeError`]); the workspace-level [`enum@Error`] unifies
//! them for applications that drive several subsystems behind one `?`.

pub use dynp_core as dynp;
pub use dynp_exp as exp;
pub use dynp_insight as insight;
pub use dynp_milp as milp;
pub use dynp_obs as obs;
pub use dynp_platform as platform;
pub use dynp_sched as sched;
pub use dynp_serve as serve;
pub use dynp_sim as sim;
pub use dynp_trace as trace;
pub use dynp_watch as watch;

/// Workspace-wide error umbrella: every typed error a `dynp-rs` entry
/// point can return, unified so applications can use one `Result` type
/// across planning, exact solving, trace I/O, campaigns, and serving.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Planning a policy schedule failed ([`sched::PlanError`]).
    Plan(sched::PlanError),
    /// An exact solve could not run ([`milp::SolveError`]).
    Solve(milp::SolveError),
    /// Reading or writing an SWF trace failed ([`trace::SwfError`]).
    Swf(trace::SwfError),
    /// An experiment campaign could not run ([`exp::CampaignError`]).
    Campaign(exp::CampaignError),
    /// The scheduling service could not start or restore
    /// ([`serve::ServeError`]).
    Serve(serve::ServeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Plan(e) => write!(f, "planning failed: {e}"),
            Error::Solve(e) => write!(f, "exact solve failed: {e}"),
            Error::Swf(e) => write!(f, "swf trace failed: {e}"),
            Error::Campaign(e) => write!(f, "campaign failed: {e}"),
            Error::Serve(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Plan(e) => Some(e),
            Error::Solve(e) => Some(e),
            Error::Swf(e) => Some(e),
            Error::Campaign(e) => Some(e),
            Error::Serve(e) => Some(e),
        }
    }
}

impl From<sched::PlanError> for Error {
    fn from(e: sched::PlanError) -> Error {
        Error::Plan(e)
    }
}

impl From<milp::SolveError> for Error {
    fn from(e: milp::SolveError) -> Error {
        Error::Solve(e)
    }
}

impl From<trace::SwfError> for Error {
    fn from(e: trace::SwfError) -> Error {
        Error::Swf(e)
    }
}

impl From<exp::CampaignError> for Error {
    fn from(e: exp::CampaignError) -> Error {
        Error::Campaign(e)
    }
}

impl From<serve::ServeError> for Error {
    fn from(e: serve::ServeError) -> Error {
        Error::Serve(e)
    }
}

/// The most common imports, grouped by use case.
///
/// `use dynp_rs::prelude::*;` pulls in everything (the historical flat
/// surface — kept stable); `use dynp_rs::prelude::serve::*;` narrows to
/// one use case when names would otherwise collide.
pub mod prelude {
    /// Replaying workloads: traces, the machine, planning, the dynP
    /// tuner, and the RMS simulator.
    pub mod sim {
        pub use dynp_core::{Decider, FixedPolicy, PolicySelector, SelfTuning};
        pub use dynp_platform::{Machine, MachineHistory, ResourceProfile};
        pub use dynp_sched::{
            plan, Metric, PlanError, Policy, Reservation, Schedule, SchedulingProblem,
        };
        pub use dynp_sim::{
            simulate, simulate_queue, QueueDiscipline, SimConfig, SimRun, SimSummary,
            SnapshotFilter, SnapshotLog,
        };
        pub use dynp_trace::{
            shards, CtcModel, Job, JobId, SwfTrace, TraceShard, TraceStats, WorkloadModel,
            WEEK_SECONDS,
        };
    }

    /// Running experiments: resumable campaigns and the exact (MILP)
    /// schedule solver they compare against.
    pub mod exp {
        pub use dynp_exp::{
            run_campaign, CampaignConfig, CampaignError, CampaignOutcome, CellStatus,
            ExactConfig, FaultInjection, FaultKind, FaultPlan, SelectorSpec,
        };
        pub use dynp_milp::{
            solve_snapshot, BranchLimits, ExactRun, SolveConfig, SolveError, TimeScaling,
        };
    }

    /// Serving jobs online: the HTTP service, its versioned wire types,
    /// and the service core.
    pub mod serve {
        pub use dynp_serve::{
            trace_id, ApiError, Decision, Declined, JobRequest, JobTimeline, PlanEntry,
            ScheduleView, ServeConfig, ServeError, ServeServer, ServiceCore, WIRE_VERSION,
        };
    }

    pub use crate::Error;
    // Back-compat: the flat prelude surface predating the submodules.
    pub use exp::*;
    pub use serve::*;
    pub use sim::*;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn umbrella_error_wraps_and_displays_every_subsystem() {
        let solve: Error = milp::SolveError::EmptySnapshot.into();
        assert!(solve.to_string().contains("empty snapshot"));
        let campaign: Error = exp::CampaignError::EmptyTrace.into();
        assert!(campaign.to_string().contains("empty"));
        // source() chains to the inner error.
        let inner = std::error::Error::source(&campaign).unwrap();
        assert!(inner.to_string().contains("empty"));
        let serve: Error =
            serve::ServeError::Snapshot("policy not in the configured set".into()).into();
        assert!(serve.to_string().contains("snapshot rejected"));
    }

    #[test]
    fn prelude_flat_and_submodule_paths_agree() {
        // The flat glob surface and the grouped submodules name the
        // same items — both compile against the same type.
        fn takes_flat(m: prelude::Metric) -> prelude::sim::Metric {
            m
        }
        assert_eq!(
            takes_flat(prelude::Metric::SldwA),
            prelude::sim::Metric::SldwA
        );
        let _config: prelude::ServeConfig = prelude::serve::ServeConfig::new(8);
    }
}
