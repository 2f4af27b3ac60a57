//! Profile-based list scheduling: turning a policy order into a full
//! schedule.
//!
//! "Planning based RMS schedule the present and future resource usage, so
//! that newly submitted jobs are placed in the active schedule as soon as
//! possible and they get a start time assigned. With this approach
//! backfilling is done implicitly." (§2)
//!
//! [`plan`] realizes exactly that: jobs are taken in policy order and each
//! is placed at the *earliest* time with enough free resources in the
//! availability profile (machine history plus already-placed jobs). Because
//! later jobs may slot into holes left before earlier jobs' starts, this is
//! equivalent to *conservative backfilling* relative to the policy order.

use crate::policy::Policy;
use crate::schedule::{Schedule, ScheduleEntry};
use crate::snapshot::SchedulingProblem;
use dynp_platform::{ResourceProfile, Unplaceable};

/// Why a planning pass could not produce a schedule.
///
/// Planning is total except for input defects that name one job: a
/// waiting job that can *never* fit the machine (its width exceeds
/// capacity, or the profile stays too full forever), or one whose window
/// would end past the `u64` time axis. Every planner entry point
/// surfaces them as values, so the caller can decline the job named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A job can never be placed: wider than the machine, or blocked by a
    /// profile that never frees enough resources.
    JobTooWide {
        /// The offending job.
        id: dynp_trace::JobId,
        /// Its resource requirement.
        width: u32,
        /// The machine capacity it exceeds (or the profile's eternal free
        /// count falls below).
        capacity: u32,
    },
    /// An explicit job order referenced a job id that is not part of the
    /// snapshot being planned (raised by MILP compaction when the solver's
    /// starting order disagrees with the problem it was built from).
    UnknownJob {
        /// The referenced-but-absent job.
        id: dynp_trace::JobId,
    },
    /// A job's earliest window `[start, start + duration)` ends past
    /// `u64::MAX`; no later start can fit either.
    PastTimeAxis {
        /// The offending job.
        id: dynp_trace::JobId,
        /// Its earliest feasible start.
        start: u64,
        /// Its planned duration (the estimate, at least one second).
        duration: u64,
    },
}

impl PlanError {
    /// The job the error names.
    pub fn job(&self) -> dynp_trace::JobId {
        match *self {
            PlanError::JobTooWide { id, .. }
            | PlanError::UnknownJob { id }
            | PlanError::PastTimeAxis { id, .. } => id,
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::JobTooWide {
                id,
                width,
                capacity,
            } => write!(
                f,
                "job {id} (width {width}) cannot ever fit machine of {capacity}"
            ),
            PlanError::UnknownJob { id } => write!(f, "job {id} not in snapshot"),
            PlanError::PastTimeAxis {
                id,
                start,
                duration,
            } => write!(
                f,
                "job {id} (runtime {duration}) cannot start before {start} and would end past the time axis"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans a full schedule for `problem` with the waiting queue ordered by
/// `policy`. Every job is placed at its earliest feasible start; the
/// schedule is guaranteed valid (see [`Schedule::validate`]).
///
/// Builds the availability profile from the snapshot; callers planning the
/// same snapshot several times (the self-tuning step plans once *per
/// policy*) should build it once and use [`plan_with_profile`].
pub fn plan(problem: &SchedulingProblem, policy: Policy) -> Result<Schedule, PlanError> {
    plan_with_profile(problem, policy, &problem.availability_profile())
}

/// [`plan`] against a caller-supplied availability profile (as returned by
/// [`SchedulingProblem::availability_profile`]). The profile is cloned,
/// not consumed, so one build can serve every policy of a tuning step.
pub fn plan_with_profile(
    problem: &SchedulingProblem,
    policy: Policy,
    profile: &ResourceProfile,
) -> Result<Schedule, PlanError> {
    plan_ordered_with_profile(problem, &policy.order(&problem.jobs), profile)
}

/// [`plan_ordered`] against a caller-supplied availability profile, as
/// [`plan_with_profile`] is to [`plan`]: the self-tuning step orders each
/// policy's queue once and keeps the order, whose `i`-th job is the
/// schedule's `i`-th entry, to evaluate the plan with.
pub fn plan_ordered_with_profile(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
    profile: &ResourceProfile,
) -> Result<Schedule, PlanError> {
    if let Some(r) = dynp_obs::recorder() {
        r.counter("planner.profile_clones").inc();
    }
    plan_ordered_in(problem, order, profile.clone(), false)
}

/// Plans a full schedule with an explicit job order (must be a permutation
/// of the snapshot's jobs). Exposed so the ILP compaction step (§3.2) can
/// re-insert jobs "according to the starting order of the schedule computed
/// by CPLEX".
pub fn plan_ordered(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
) -> Result<Schedule, PlanError> {
    plan_ordered_in(problem, order, problem.availability_profile(), false)
}

/// The **dispatch frontier** of the full plan: places `order` (a
/// permutation of the snapshot's jobs, as for [`plan_ordered`]) exactly
/// as the full pass does, but stops as soon as no unplaced job can still
/// start at `problem.now`. The result is the placed prefix of
/// `plan_ordered(problem, order)`, entry for entry, and it holds every
/// entry of that plan with `start == now` — all a completion needs to
/// dispatch. It places only that prefix, but its stop test asks
/// [`ResourceProfile::fits`] once of every job in `order` over the pass:
/// one cheap check per queued job, plus one per placement.
pub fn plan_frontier(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
) -> Result<Schedule, PlanError> {
    plan_ordered_in(problem, order, problem.availability_profile(), true)
}

/// How many of a pass's latest placements bound the next fit (see
/// [`plan_ordered_in`]).
const RECENT: usize = 8;

/// Core list-scheduling pass: places `order` into an owned working
/// `profile`. All planner entry points funnel here. With `frontier_only`
/// it ends before the first position from which no job fits at `now` any
/// more.
///
/// The profile's pre-`now` prefix is compressed away first
/// ([`ResourceProfile::compress_before`]) — no job may start before `now`,
/// and a short profile keeps every subsequent skip-scan and allocation
/// cheap. Emits `planner.fit_probes` (total segment probes) and the
/// `planner.plan_ordered` latency span when a recorder is installed.
///
/// Each fit starts at a lower bound rather than at `now`. Within the pass
/// the working profile only loses capacity, and the earliest fit of
/// (width `w`, planned duration `d`) can only get later as capacity falls,
/// as `w` grows and as `d` grows. So an earlier placement of the pass with
/// `w' <= w` and `d' <= d` that started at `r'` rules out every start
/// before `r'`, and the scan from `max(now, r')` returns exactly the start
/// the scan from `now` does. The bound is the latest such `r'` among the
/// last [`RECENT`] placements; it never outlives the pass. The fit and the
/// allocation are one [`ResourceProfile::place`].
///
/// Allocations only remove capacity, so a job that has stopped fitting
/// at `now` never fits there again during the pass: `live` — one past
/// the last position whose job still fits — only ever moves down, and
/// the stop test costs one cheap check per queued job over the whole
/// pass plus one per placement. (Comparing the free count at `now` with
/// the narrowest remaining width is not enough: a narrow job can fit by
/// width and still not for its whole window.)
fn plan_ordered_in(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
    mut profile: ResourceProfile,
    frontier_only: bool,
) -> Result<Schedule, PlanError> {
    let _span = dynp_obs::Span::enter("planner.plan_ordered");
    profile.compress_before(problem.now);
    // A full pass places every job; the frontier usually a few.
    let mut schedule = Schedule::with_capacity(if frontier_only { 0 } else { order.len() });
    let mut probes = 0u64;
    let fits_now = |profile: &ResourceProfile, job: &dynp_trace::Job| {
        profile.fits(problem.now, job.estimated_duration.max(1), job.width)
    };
    let mut live = order.len();
    // (width, planned duration, start) of the latest placements; the
    // initial entries bound nothing below `now`.
    let mut recent = [(0u32, 0u64, problem.now); RECENT];
    for (i, job) in order.iter().enumerate() {
        let duration = job.estimated_duration.max(1);
        if frontier_only {
            while live > i && !fits_now(&profile, &order[live - 1]) {
                live -= 1;
            }
            if live == i {
                break;
            }
        }
        let bound = recent
            .iter()
            .filter(|&&(width, planned, _)| width <= job.width && planned <= duration)
            .fold(problem.now, |bound, &(_, _, start)| bound.max(start));
        let (placed, fit_probes) = profile.place(bound, duration, job.width);
        probes += fit_probes;
        let start = placed.map_err(|why| match why {
            Unplaceable::Never => PlanError::JobTooWide {
                id: job.id,
                width: job.width,
                capacity: problem.capacity(),
            },
            Unplaceable::PastTimeAxis { start } => PlanError::PastTimeAxis {
                id: job.id,
                start,
                duration,
            },
        })?;
        recent[i % RECENT] = (job.width, duration, start);
        schedule.push(ScheduleEntry {
            id: job.id,
            start,
            end: start + duration,
            width: job.width,
        });
    }
    if let Some(r) = dynp_obs::recorder() {
        r.counter("planner.fit_probes").add(probes);
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_platform::MachineHistory;
    use dynp_trace::{Job, JobId};

    fn snapshot(capacity: u32, jobs: Vec<Job>) -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(0, capacity, jobs)
    }

    #[test]
    fn single_job_starts_now() {
        let p = snapshot(8, vec![Job::exact(0, 0, 4, 100)]);
        let s = plan(&p, Policy::Fcfs).unwrap();
        assert_eq!(s.start_of(JobId(0)), Some(0));
        s.validate(&p).unwrap();
    }

    #[test]
    fn fcfs_respects_submission_order() {
        // Two jobs that cannot run together.
        let p = snapshot(8, vec![Job::exact(0, 0, 6, 100), Job::exact(1, 0, 6, 50)]);
        let s = plan(&p, Policy::Fcfs).unwrap();
        assert_eq!(s.start_of(JobId(0)), Some(0));
        assert_eq!(s.start_of(JobId(1)), Some(100));
        s.validate(&p).unwrap();
    }

    #[test]
    fn sjf_reorders_but_stays_valid() {
        let p = snapshot(8, vec![Job::exact(0, 0, 6, 100), Job::exact(1, 0, 6, 50)]);
        let s = plan(&p, Policy::Sjf).unwrap();
        assert_eq!(s.start_of(JobId(1)), Some(0));
        assert_eq!(s.start_of(JobId(0)), Some(50));
        s.validate(&p).unwrap();
    }

    #[test]
    fn implicit_backfilling_fills_holes() {
        // FCFS order: wide job 0 first, then wider job 1 must wait, but
        // narrow job 2 fits alongside job 0 and is backfilled implicitly.
        let p = snapshot(
            8,
            vec![
                Job::exact(0, 0, 6, 100),
                Job::exact(1, 0, 7, 100),
                Job::exact(2, 0, 2, 100),
            ],
        );
        let s = plan(&p, Policy::Fcfs).unwrap();
        assert_eq!(s.start_of(JobId(0)), Some(0));
        assert_eq!(s.start_of(JobId(1)), Some(100));
        // Job 2 runs next to job 0 even though job 1 was placed earlier.
        assert_eq!(s.start_of(JobId(2)), Some(0));
        s.validate(&p).unwrap();
    }

    #[test]
    fn machine_history_delays_starts() {
        let history = MachineHistory::build(8, 10, &[(8, 500)]);
        let p = SchedulingProblem::new(10, history, vec![Job::exact(0, 5, 1, 100)]);
        let s = plan(&p, Policy::Fcfs).unwrap();
        assert_eq!(s.start_of(JobId(0)), Some(500));
        s.validate(&p).unwrap();
    }

    #[test]
    fn partial_availability_is_used() {
        // 5 of 8 busy until 200; a width-3 job can start immediately.
        let history = MachineHistory::build(8, 0, &[(5, 200)]);
        let p = SchedulingProblem::new(
            0,
            history,
            vec![Job::exact(0, 0, 3, 50), Job::exact(1, 0, 4, 50)],
        );
        let s = plan(&p, Policy::Fcfs).unwrap();
        assert_eq!(s.start_of(JobId(0)), Some(0));
        assert_eq!(s.start_of(JobId(1)), Some(200));
        s.validate(&p).unwrap();
    }

    #[test]
    fn empty_snapshot_plans_empty_schedule() {
        let p = snapshot(8, vec![]);
        assert!(plan(&p, Policy::Ljf).unwrap().is_empty());
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let p = snapshot(
            16,
            (0..20)
                .map(|i| Job::exact(i, 0, 1 + (i % 7), 60 * (1 + (i as u64 % 9))))
                // A zero estimate is planned — and validated — as one second.
                .chain([Job::exact(20, 0, 2, 0)])
                .collect(),
        );
        for policy in Policy::ALL {
            plan(&p, policy).unwrap().validate(&p).unwrap();
        }
    }

    #[test]
    fn job_wider_than_machine_is_an_error_not_a_panic() {
        let p = SchedulingProblem {
            now: 0,
            history: MachineHistory::empty(4, 0),
            jobs: vec![Job::exact(0, 0, 8, 100)],
            reservations: Vec::new(),
        };
        let err = plan(&p, Policy::Fcfs).unwrap_err();
        assert_eq!(
            err,
            PlanError::JobTooWide {
                id: JobId(0),
                width: 8,
                capacity: 4
            }
        );
        assert!(err.to_string().contains("cannot ever fit"));
    }

    #[test]
    fn window_past_the_time_axis_is_an_error_not_a_panic() {
        let half = u64::MAX / 2;
        let p = snapshot(4, (0..3).map(|i| Job::exact(i, 0, 4, half)).collect());
        let err = PlanError::PastTimeAxis {
            id: JobId(2),
            start: 2 * half,
            duration: half,
        };
        assert_eq!(plan(&p, Policy::Fcfs).unwrap_err(), err);
        assert_eq!(err.job(), JobId(2));
        assert!(err.to_string().contains("past the time axis"));
        let fits = snapshot(4, p.jobs[..2].to_vec());
        assert_eq!(
            plan(&fits, Policy::Fcfs).unwrap().makespan_end(),
            Some(2 * half)
        );
    }

    #[test]
    fn plan_with_profile_matches_plan() {
        let p = snapshot(
            16,
            (0..30)
                .map(|i| Job::exact(i, 0, 1 + (i % 9), 30 * (1 + (i as u64 % 11))))
                .collect(),
        );
        let profile = p.availability_profile();
        for policy in Policy::ALL {
            assert_eq!(
                plan_with_profile(&p, policy, &profile).unwrap(),
                plan(&p, policy).unwrap(),
                "policy {policy:?}"
            );
        }
    }

    #[test]
    fn plan_ordered_respects_explicit_order() {
        let jobs = vec![Job::exact(0, 0, 6, 100), Job::exact(1, 0, 6, 50)];
        let p = snapshot(8, jobs.clone());
        let s = plan_ordered(&p, &[jobs[1], jobs[0]]).unwrap();
        assert_eq!(s.start_of(JobId(1)), Some(0));
        assert_eq!(s.start_of(JobId(0)), Some(50));
    }
}
