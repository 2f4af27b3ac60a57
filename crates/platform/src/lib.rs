//! Machine substrate: the cluster model, the time-varying availability
//! profile, and the *machine history* of §3.1 / Figure 1 of the paper.
//!
//! The paper's planning-based RMS (CCS) plans present **and future**
//! resource usage. Two closely related structures support that:
//!
//! * [`profile::ResourceProfile`] — a step function "free resources over
//!   time" that the planner carves job reservations out of, and
//! * [`history::MachineHistory`] — the monotone list of `(time stamp, free
//!   resources)` tuples describing when currently *running* jobs release
//!   their resources (Figure 1). A history is just the profile restricted to
//!   already-running jobs, using their **estimated** completion times.
//!
//! [`machine::Machine`] tracks the running set during simulation and renders
//! the current history on demand.

pub mod history;
pub mod machine;
pub mod profile;

pub use history::{HistoryPoint, MachineHistory};
pub use machine::{Machine, MachineError, RunningJob};
pub use profile::{ResourceProfile, Unplaceable};
