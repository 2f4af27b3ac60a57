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

use crate::metrics::LowerBound;
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
    plan_ordered_in(problem, order, profile.clone(), false, None)
}

/// [`plan_ordered_with_profile`] for a challenger of the self-tuning
/// step: adds each placement to `bound` — which checks its fluid
/// completion against the working profile every few dozen placements —
/// and gives up before the next placement once [`LowerBound::value`]
/// exceeds `best`, which proves the full plan's metric worse. Returns the placed prefix of the full plan, which
/// holds every job iff the pass was not cut; after a cut `bound` is the
/// plan's lower bound.
///
/// A cut pass never reaches the jobs after the cut, nor the error a full
/// pass might raise on one of them: cut only where
/// [`plans_cannot_fail`].
pub fn plan_ordered_below(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
    profile: &ResourceProfile,
    bound: &mut LowerBound,
    best: f64,
) -> Result<Schedule, PlanError> {
    plan_ordered_in(problem, order, profile.clone(), false, Some((bound, best)))
}

/// Whether every plan of `problem` against `profile` (its
/// [`SchedulingProblem::availability_profile`]) succeeds, in any order.
///
/// True when every job fits the free count the profile keeps from its
/// last breakpoint `T` on, and `max(now, T) + Σ max(d, 1)` is on the time
/// axis. Then no job is too wide, and by induction over the pass every
/// placement ends by `max(now, T)` plus the planned durations placed so
/// far: from `T` on only earlier placements take anything from that free
/// count, so a job fits from the latest of their ends, or from
/// `max(now, T)`, and the earliest fit is no later.
pub fn plans_cannot_fail(problem: &SchedulingProblem, profile: &ResourceProfile) -> bool {
    let &(last, free) = profile.steps().last().expect("a profile is never empty");
    problem.jobs.iter().all(|job| job.width <= free)
        && problem
            .jobs
            .iter()
            .try_fold(problem.now.max(last), |end, job| {
                end.checked_add(job.estimated_duration.max(1))
            })
            .is_some()
}

/// Plans a full schedule with an explicit job order (must be a permutation
/// of the snapshot's jobs). Exposed so the ILP compaction step (§3.2) can
/// re-insert jobs "according to the starting order of the schedule computed
/// by CPLEX".
pub fn plan_ordered(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
) -> Result<Schedule, PlanError> {
    plan_ordered_in(problem, order, problem.availability_profile(), false, None)
}

/// The **dispatch frontier** of the full plan: places `order` (a
/// permutation of the snapshot's jobs, as for [`plan_ordered`]) exactly
/// as the full pass does, but stops as soon as no unplaced job can still
/// start at `problem.now`. The result is the placed prefix of
/// `plan_ordered(problem, order)`, entry for entry, and it holds every
/// entry of that plan with `start == now` — all a completion needs to
/// dispatch. It places only that prefix; its stop test looks each job in
/// `order` up once over the pass in a prefix-minimum staircase of the
/// working profile, plus once per placement, and rebuilds the staircase
/// after each placement.
pub fn plan_frontier(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
) -> Result<Schedule, PlanError> {
    plan_ordered_in(problem, order, problem.availability_profile(), true, None)
}

/// How many of a pass's latest placements bound the next fit (see
/// [`plan_ordered_in`]).
const RECENT: usize = 8;

/// Core list-scheduling pass: places `order` into an owned working
/// `profile`. All planner entry points funnel here. With `frontier_only`
/// it ends before the first position from which no job fits at `now` any
/// more; with a `cutoff` `(bound, best)` it adds each placement to
/// `bound`, with the working profile after it, and ends before the first
/// position at which the bound exceeds `best`.
///
/// The profile's pre-`now` prefix is compressed away first
/// ([`ResourceProfile::compress_before`]) — no job may start before `now`,
/// and a short profile keeps every subsequent skip-scan and allocation
/// cheap.
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
/// the stop test costs one [`Staircase`] lookup per queued job over the
/// whole pass plus one per placement. The staircase is rebuilt after each
/// placement: a placement that starts later than `now` can still cut the
/// window of a job that fits by width at `now`. (Comparing the free count
/// at `now` with the narrowest remaining width is not enough for that
/// reason.)
fn plan_ordered_in(
    problem: &SchedulingProblem,
    order: &[dynp_trace::Job],
    mut profile: ResourceProfile,
    frontier_only: bool,
    mut cutoff: Option<(&mut LowerBound, f64)>,
) -> Result<Schedule, PlanError> {
    profile.compress_before(problem.now);
    // A full pass places every job; the frontier usually a few.
    let mut schedule = Schedule::with_capacity(if frontier_only { 0 } else { order.len() });
    let mut stairs = frontier_only.then(|| Staircase::of(&profile, problem.now));
    let mut live = order.len();
    // (width, planned duration, start) of the latest placements; the
    // initial entries bound nothing below `now`.
    let mut recent = [(0u32, 0u64, problem.now); RECENT];
    for (i, job) in order.iter().enumerate() {
        let duration = job.estimated_duration.max(1);
        if let Some(stairs) = &stairs {
            while live > i && !stairs.fits(&order[live - 1]) {
                live -= 1;
            }
            if live == i {
                break;
            }
        }
        if let Some((lower, best)) = &cutoff {
            if lower.value() > *best {
                break;
            }
        }
        let bound = recent
            .iter()
            .filter(|&&(width, planned, _)| width <= job.width && planned <= duration)
            .fold(problem.now, |bound, &(_, _, start)| bound.max(start));
        let start = profile
            .place(bound, duration, job.width)
            .map_err(|why| match why {
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
        if let Some(stairs) = &mut stairs {
            stairs.rebuild(&profile);
        }
        if let Some((lower, _)) = &mut cutoff {
            lower.place(job, start, &profile);
        }
    }
    Ok(schedule)
}

/// The **prefix-minimum staircase** of a working profile from `now` on:
/// the points where the running minimum of its free count since `now`
/// falls. A job of width `w` fits throughout `[now, end)` iff the first
/// level below `w` begins at or after `end`, or no level is below `w` —
/// the frontier's stop test, answered from a few levels instead of the
/// window's segments.
struct Staircase {
    now: u64,
    capacity: u32,
    /// `(level, time)`: from `time` on the running minimum is `level`.
    /// Levels strictly fall, times strictly rise, the first at `now`.
    levels: Vec<(u32, u64)>,
}

impl Staircase {
    /// The staircase of `profile` from `now` on.
    fn of(profile: &ResourceProfile, now: u64) -> Self {
        let mut stairs = Staircase {
            now,
            capacity: profile.capacity(),
            levels: Vec::new(),
        };
        stairs.rebuild(profile);
        stairs
    }

    /// Re-reads `profile`, after a placement cut capacity out of it.
    fn rebuild(&mut self, profile: &ResourceProfile) {
        let steps = profile.steps();
        // The segment holding `now`: 0 on a profile compressed at `now`,
        // 1 once a placement has split it at `now`.
        let head = steps.partition_point(|&(time, _)| time <= self.now) - 1;
        self.levels.clear();
        let mut min = u32::MAX;
        for &(time, free) in &steps[head..] {
            if free < min {
                min = free;
                self.levels.push((free, time.max(self.now)));
                if free == 0 {
                    break;
                }
            }
        }
    }

    /// Whether `job` fits at `now` for its planned duration `d`:
    /// `width <= profile.min_free(now, now + d)`, the end saturated at
    /// `u64::MAX`.
    fn fits(&self, job: &dynp_trace::Job) -> bool {
        let end = self.now.saturating_add(job.estimated_duration.max(1));
        if end == self.now {
            // An empty window (at the end of the time axis) is bounded by
            // the machine alone, as in `min_free`.
            return job.width <= self.capacity;
        }
        let below = self.levels.partition_point(|&(level, _)| level >= job.width);
        self.levels.get(below).is_none_or(|&(_, time)| end <= time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use dynp_platform::MachineHistory;
    use dynp_trace::{Job, JobId};
    use proptest::prelude::*;

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
    fn a_cut_pass_is_a_prefix_of_the_full_plan_below_its_value() {
        // Four jobs that run one after another: under SLDwA the full
        // plan's value is 2.5, and its bound passes 1.2 once two jobs are
        // placed.
        let jobs: Vec<Job> = (0..4).map(|i| Job::exact(i, 0, 4, 100)).collect();
        let p = snapshot(4, jobs.clone());
        let profile = p.availability_profile();
        assert!(plans_cannot_fail(&p, &profile));
        let full = plan_ordered(&p, &jobs).unwrap();
        let exact = Metric::SldwA.eval(&p, &full);
        assert_eq!(exact, 2.5);
        let start = Metric::SldwA.lower_bound(&p).unwrap();
        let mut lower = start.clone();
        let cut = plan_ordered_below(&p, &jobs, &profile, &mut lower, 1.2).unwrap();
        assert_eq!(cut.entries(), &full.entries()[..2]);
        assert!(1.2 < lower.value() && lower.value() <= exact);
        // Against a worse best value the pass completes.
        let mut lower = start;
        let whole = plan_ordered_below(&p, &jobs, &profile, &mut lower, exact).unwrap();
        assert_eq!(whole, full);
    }

    #[test]
    fn plans_that_might_fail_are_named() {
        let p = snapshot(4, vec![Job::exact(0, 0, 4, 100), Job::exact(1, 0, 5, 100)]);
        assert!(!plans_cannot_fail(&p, &p.availability_profile()));
        // The history drains at 500 and the queue holds 200 s of work.
        let history = MachineHistory::build(4, 10, &[(4, 500)]);
        let jobs = vec![Job::exact(0, 0, 4, 100), Job::exact(1, 0, 2, 100)];
        let p = SchedulingProblem::new(10, history, jobs);
        assert!(plans_cannot_fail(&p, &p.availability_profile()));
        let end = u64::MAX - 200;
        let history = MachineHistory::build(4, 10, &[(4, end)]);
        let p = SchedulingProblem::new(10, history, p.jobs);
        assert!(plans_cannot_fail(&p, &p.availability_profile()));
        let history = MachineHistory::build(4, 10, &[(4, end + 1)]);
        let p = SchedulingProblem::new(10, history, p.jobs);
        assert!(!plans_cannot_fail(&p, &p.availability_profile()));
        assert!(plan(&p, Policy::Fcfs).is_err());
    }

    #[test]
    fn plan_ordered_respects_explicit_order() {
        let jobs = vec![Job::exact(0, 0, 6, 100), Job::exact(1, 0, 6, 50)];
        let p = snapshot(8, jobs.clone());
        let s = plan_ordered(&p, &[jobs[1], jobs[0]]).unwrap();
        assert_eq!(s.start_of(JobId(1)), Some(0));
        assert_eq!(s.start_of(JobId(0)), Some(50));
    }

    /// Every width from 0 to capacity + 1 and every duration that ends a
    /// second before, at and a second after a breakpoint of `profile`
    /// (plus the ends at and past `u64::MAX`): the staircase must answer
    /// as the window minimum does.
    fn staircase_agrees_with_min_free(
        stairs: &Staircase,
        profile: &ResourceProfile,
        now: u64,
    ) -> Result<(), TestCaseError> {
        let mut durations = vec![0, 1, u64::MAX - now, u64::MAX];
        for &(time, _) in profile.steps().iter().filter(|&&(time, _)| time > now) {
            let d = time - now;
            durations.extend([d - 1, d, d.saturating_add(1)]);
        }
        for width in 0..=profile.capacity() + 1 {
            for &duration in &durations {
                let end = now.saturating_add(duration.max(1));
                prop_assert_eq!(
                    stairs.fits(&Job::exact(0, 0, width, duration)),
                    width <= profile.min_free(now, end),
                    "width {} duration {} at {}",
                    width,
                    duration,
                    now
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn the_staircase_answers_as_the_window_minimum(
            cap in 1u32..=16,
            history in prop::collection::vec((0u64..500, 1u64..80, 1u32..=16), 0..10),
            // One `now` in eight within the last four seconds of the axis.
            now in (0u64..8, 0u64..600)
                .prop_map(|(pick, t)| if pick == 0 { u64::MAX - t % 4 } else { t }),
            // One placement in four asked at `now` itself (which splits
            // the head segment), one in four to run to the end of the axis.
            placements in prop::collection::vec(
                (0u64..400, (0u64..4, 1u64..200), 0u32..=16)
                    .prop_map(|(offset, (pick, len), width)| {
                        (offset, if pick == 0 { u64::MAX } else { len }, width)
                    }),
                0..6,
            ),
        ) {
            let mut profile = ResourceProfile::new(cap);
            for (start, len, width) in history {
                let _ = profile.place(start, len, width);
            }
            profile.compress_before(now);
            let mut stairs = Staircase::of(&profile, now);
            staircase_agrees_with_min_free(&stairs, &profile, now)?;
            for (offset, len, width) in placements {
                let start = now.saturating_add(offset.saturating_sub(100));
                let _ = profile.place(start, len.min(u64::MAX - start), width);
                stairs.rebuild(&profile);
                staircase_agrees_with_min_free(&stairs, &profile, now)?;
            }
        }
    }

    #[test]
    fn a_future_placement_stops_a_narrow_long_job() {
        // Two of four resources busy until 100. Job 0 needs the whole
        // machine and is placed at 100, in the future; job 1 is narrow
        // and fits by width at `now`, and for its window too until job 0
        // is placed, which empties [100, 110). So the pass places job 0
        // only: the staircase must be rebuilt after that placement.
        let history = MachineHistory::build(4, 0, &[(2, 100)]);
        let order = [Job::exact(0, 0, 4, 10), Job::exact(1, 0, 1, 1_000)];
        let p = SchedulingProblem::new(0, history, order.to_vec());
        let full = plan_ordered(&p, &order).unwrap();
        assert_eq!(full.start_of(JobId(0)), Some(100));
        assert_eq!(full.start_of(JobId(1)), Some(110));
        let frontier = plan_frontier(&p, &order).unwrap();
        assert_eq!(frontier.entries(), &full.entries()[..1]);
    }
}
