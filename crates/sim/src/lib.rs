//! Discrete-event simulation of a planning-based resource management
//! system (the paper's CCS).
//!
//! [`Rms`] is the RMS itself — one clock-agnostic state machine
//! (`submit` / `complete` / `restore` over a single re-plan loop) that
//! both this crate's DES replay ([`RmsModel`], behind [`simulate`]) and
//! the online service (`dynp_serve::ServiceCore`) drive; see [`rms`].
//!
//! The simulator replays a job trace against a [`Machine`]
//! (`dynp-platform`), re-planning at every submission and completion
//! exactly like a planning-based RMS:
//!
//! * **submission** → the new job joins the waiting queue, a quasi-off-line
//!   snapshot is taken, the policy selector (fixed policy or the
//!   self-tuning dynP) picks the policy, a full schedule is planned, and
//!   every job whose planned start is "now" is dispatched;
//! * **completion** → resources are released (jobs may finish *earlier*
//!   than their estimate) and the active policy's plan is followed as far
//!   as jobs can start "now" — the dispatch frontier — so waiting jobs
//!   move forward; the rest of that plan is derived when somebody reads it.
//!
//! [`snapshots`] taps the per-submission snapshots — the instances the
//! paper hands to CPLEX — without influencing the simulation, matching §4:
//! "Although these schedules are available, they are not used for the
//! actual scheduling process."
//!
//! [`Machine`]: dynp_platform::Machine

pub mod queueing;
pub mod record;
pub mod rms;
pub mod run;
pub mod snapshots;

pub use queueing::{simulate_queue, QueueDiscipline, QueueRms};
pub use record::{utilization_timeline, JobRecord, RecordFieldError, SimSummary};
pub use rms::{Decline, Rms, RmsEvent, RmsModel, Step};
pub use run::{simulate, SimConfig, SimRun};
pub use snapshots::{SnapshotFilter, SnapshotLog, TunedSnapshot};
