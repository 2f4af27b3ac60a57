//! Planning-based scheduling core: full schedules, scheduling policies,
//! performance metrics, and the quasi-off-line problem snapshot.
//!
//! The paper's RMS (CCS) is *planning based* (§2): at every submission it
//! computes a **full schedule** assigning a planned start time to *every*
//! waiting job, against the machine history of already-running jobs. This
//! crate implements that machinery:
//!
//! * [`snapshot`] — [`SchedulingProblem`], the quasi-off-line instance
//!   (waiting jobs + machine history + "now"), consumed identically by the
//!   policy planner and by the integer program in `dynp-milp`,
//! * [`policy`] — the waiting-queue orders: FCFS, SJF, LJF (the three
//!   policies of CCS) plus extension policies for ablations,
//! * [`planner`] — profile-based list scheduling that realizes a policy
//!   order as a full schedule with implicit backfilling,
//! * [`schedule`] — the schedule data structure with validity checking,
//! * [`metrics`] — ARTwW, SLDwA and friends, exactly as the paper weighs
//!   them.

pub mod metrics;
pub mod planner;
pub mod policy;
pub mod reservation;
pub mod schedule;
pub mod snapshot;

pub use metrics::{LowerBound, Metric};
pub use planner::{
    plan, plan_frontier, plan_ordered, plan_ordered_below, plan_ordered_with_profile,
    plan_with_profile, plans_cannot_fail, PlanError,
};
pub use policy::Policy;
pub use reservation::{admit, AdmissionRule, Reservation, ReservationRequest};
pub use schedule::{Schedule, ScheduleEntry};
pub use snapshot::SchedulingProblem;
