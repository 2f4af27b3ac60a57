//! The planning-based RMS: one clock-agnostic kernel.
//!
//! [`Rms`] is the paper's CCS (§2) as a state machine: machine (whose
//! running set is the only one), policy selector, waiting queue, plan,
//! completion records. It owns no clock and no event queue — the caller
//! says what time it is.
//! Submissions ([`Rms::submit`]) trigger a self-tuning step (snapshot →
//! policy selection → full plan); completions ([`Rms::complete_next`])
//! release resources and move waiting jobs forward under the active
//! policy, so the schedule tracks reality when jobs finish earlier than
//! estimated.
//! A completion needs only the jobs that start *now*, so it plans the
//! **dispatch frontier** ([`dynp_sched::plan_frontier`]: the full pass,
//! stopped once nothing unplaced can still start). It places the jobs it
//! starts and the few it passes, not the queue; its stop test still
//! looks every queued job up once, in a prefix-minimum staircase of the
//! working profile rather than by a scan of the job's window. The plan
//! of the jobs left waiting is derived on read after a completion
//! ([`Rms::plan`]). Both calls funnel into one
//! private `replan`, the only build-problem → plan → decline-and-retry →
//! dispatch loop in the workspace, and each returns a [`Step`] saying
//! what happened.
//!
//! Completions are not named by the caller: the kernel takes them from
//! the machine's running set in `(actual end, id)` order. Both drivers —
//! the trace replay [`crate::simulate`] and the online service
//! `dynp_serve::ServiceCore` — run the same loop: for each submission at
//! `t`, complete everything due by `t`, then submit; then drain. So
//! equal timestamps have one tie rule (`DESIGN.md` §4): completions
//! before submissions, completions by `(end, id)`.

use crate::record::JobRecord;
use crate::snapshots::SnapshotLog;
use dynp_core::PolicySelector;
use dynp_platform::{Machine, RunningJob};
use dynp_sched::{
    plan, plan_frontier, PlanError, Policy, Schedule, ScheduleEntry, SchedulingProblem,
};
use dynp_trace::{Job, JobId};
use std::cell::OnceCell;

/// A job the kernel refused, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decline {
    /// The refused job.
    pub job: Job,
    /// The reason, naming the job.
    pub error: PlanError,
    /// `true` when the width check at submission refused it (it never
    /// entered the queue); `false` when the selector or planner rejected
    /// it from the queue later.
    pub at_door: bool,
}

/// What one kernel call did — everything a driver needs for its own
/// books.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Step {
    /// The policy a self-tuning step chose; `None` when none ran (the
    /// active policy was reused, or nothing was waiting).
    pub tuned: Option<Policy>,
    /// Whether the plan was revised: `true` whenever jobs were waiting
    /// at the call, whether a tuning step planned them all or a
    /// completion planned only its dispatch frontier.
    pub installed: bool,
    /// Jobs started at the call's `now` with their **actual** ends, in
    /// dispatch order.
    pub dispatched: Vec<(JobId, u64)>,
    /// Jobs refused, in refusal order.
    pub declined: Vec<Decline>,
}

/// The resource management system: a clock-agnostic state machine.
#[derive(Debug)]
pub struct Rms<S: PolicySelector> {
    machine: Machine,
    selector: S,
    /// Waiting queue: submitted, not yet dispatched.
    waiting: Vec<Job>,
    /// `waiting` in the active policy's order, kept from one completion
    /// to the next ([`Policy::compare`] is a total order, so it is a
    /// function of the job set, not of `waiting`'s removal history).
    /// `None` from a tuning step until the next completion sorts it.
    ordered: Option<Vec<Job>>,
    /// The plan behind [`Rms::plan`]: filled by a tuning step and by
    /// `restore`, emptied by a completion and derived on the next read.
    plan: OnceCell<Schedule>,
    /// The `now` of the most recent kernel call — when a derived plan
    /// is planned.
    planned_at: u64,
    /// Completed-job records, in completion order.
    records: Vec<JobRecord>,
    /// The policy used for the most recent plan.
    active: Option<Policy>,
    /// Snapshot tap for the off-line ILP comparison.
    snapshot_log: SnapshotLog,
}

impl<S: PolicySelector> Rms<S> {
    /// A fresh RMS over `capacity` resources driven by `selector`.
    pub fn new(capacity: u32, selector: S, snapshot_log: SnapshotLog) -> Rms<S> {
        Rms {
            machine: Machine::new(capacity),
            selector,
            waiting: Vec::new(),
            ordered: None,
            plan: OnceCell::new(),
            planned_at: 0,
            records: Vec::new(),
            active: None,
            snapshot_log,
        }
    }

    /// Rebuilds an RMS observed at time `now`: `running` jobs are
    /// restarted at their recorded start times (so
    /// [`Machine::running`] reports the same actual ends the original
    /// run saw), `active` is the policy of the last plan, and the plan
    /// is re-derived from it — a deterministic function of the restored
    /// state, so it matches the plan the original holds (or derives);
    /// nothing new can be due at `now`, whatever could start had already
    /// been dispatched.
    ///
    /// Fails when `running` does not fit the machine or a waiting job can
    /// never be planned — neither state is reachable through
    /// [`Rms::submit`], so the input was not produced by an [`Rms`].
    pub fn restore(
        capacity: u32,
        selector: S,
        now: u64,
        active: Policy,
        waiting: Vec<Job>,
        mut running: Vec<RunningJob>,
        records: Vec<JobRecord>,
    ) -> Result<Rms<S>, String> {
        let mut rms = Rms::new(capacity, selector, SnapshotLog::disabled());
        rms.active = Some(active);
        rms.waiting = waiting;
        rms.records = records;
        rms.planned_at = now;
        running.sort_by_key(|r| (r.start, r.job.id));
        for RunningJob { job, start } in running {
            if !rms.machine.can_start(job.width) {
                return Err(format!(
                    "restored state overcommits the machine at job {}",
                    job.id.0
                ));
            }
            rms.machine.start(&job, start);
        }
        // The full pass, not a completion's frontier pass: only placing
        // every job finds the one that can never be placed, and it is
        // this guard that keeps declines off the completion path.
        let plan = rms
            .derive_plan()
            .map_err(|error| format!("restored queue is unplannable: {error}"))?;
        rms.dispatch(now, &plan, &mut Step::default());
        rms.plan = OnceCell::from(plan);
        Ok(rms)
    }

    /// Admits `jobs` at time `now` and runs one self-tuning step over the
    /// whole queue (§4: "at every job submission"). A job wider than the
    /// machine can never be planned and is declined at the door — a real
    /// RMS rejects it at submission. A call that admits nothing is not a
    /// scheduling event: no step runs.
    pub fn submit(&mut self, now: u64, jobs: impl IntoIterator<Item = Job>) -> Step {
        let mut step = Step::default();
        let queued = self.waiting.len();
        for job in jobs {
            if job.width > self.machine.capacity() {
                let error = PlanError::JobTooWide {
                    id: job.id,
                    width: job.width,
                    capacity: self.machine.capacity(),
                };
                step.declined.push(Decline {
                    job,
                    error,
                    at_door: true,
                });
            } else {
                self.waiting.push(job);
            }
        }
        if self.waiting.len() > queued {
            self.replan(now, true, &mut step);
        }
        step
    }

    /// Completes the running job that finishes first, if its actual end
    /// is at or before `t`: releases its resources, records it, and moves
    /// waiting jobs forward at its end — with the active policy, or with
    /// a self-tuning step when `tune` is set (the paper tunes on
    /// submissions only). Ties go to the lower id
    /// ([`Machine::next_completion`]). Returns the completion's
    /// `(end, id)` and what it did, or `None` when nothing is due by `t`.
    pub fn complete_next(&mut self, t: u64, tune: bool) -> Option<(u64, JobId, Step)> {
        let (end, id) = self.machine.next_completion().filter(|&(end, _)| end <= t)?;
        let running = self.machine.complete(id).expect("the next completion is running");
        self.records.push(JobRecord::completed(running, end));
        let mut step = Step::default();
        self.replan(end, tune, &mut step);
        Some((end, id, step))
    }

    /// Re-plans and dispatches all jobs due now. With `tune` the policy
    /// selector runs a self-tuning step and its full plan is kept;
    /// without, the active policy is reused and only the dispatch
    /// frontier is planned — every placement the full pass would make
    /// up to the point where nothing unplaced can start at `now` any
    /// more, hence the same dispatches in the same order — and the plan
    /// of the jobs left waiting is derived when somebody reads it.
    ///
    /// A [`PlanError`] from the selector or the planner names a single
    /// unplannable job; that job is declined and planning retries with
    /// the rest of the queue — one malformed job must not kill the
    /// simulation (it used to unwind a whole campaign cell). The frontier
    /// arm meets only [`PlanError::PastTimeAxis`]: every queued job passed
    /// the width check at the door or `restore`'s full pass, and a machine
    /// history always drains to full capacity, but list scheduling is not
    /// monotone — an early completion can delay a job the tuning step
    /// placed, and a delay can push its window past the time axis.
    fn replan(&mut self, now: u64, tune: bool, step: &mut Step) {
        self.plan.take();
        self.planned_at = now;
        // `Some`: plan the frontier under this policy; `None`: tune.
        let reuse = self.active.filter(|_| !tune);
        while !self.waiting.is_empty() {
            // The queue is lent to the snapshot, not cloned, and taken
            // back before anything can return.
            let problem = SchedulingProblem::new(
                now,
                self.machine.history(now),
                std::mem::take(&mut self.waiting),
            );
            let planned = match reuse {
                Some(active) => {
                    let order = self
                        .ordered
                        .get_or_insert_with(|| active.order(&problem.jobs));
                    let frontier = plan_frontier(&problem, order);
                    // An error declines a job and plans again; compare the
                    // pass that dispatches. A window past the time axis
                    // beyond the frontier fails only the full plan.
                    debug_assert!(
                        frontier
                            .as_ref()
                            .map_or(true, |s| match plan(&problem, active) {
                                Ok(full) => due(s, now).eq(due(&full, now)),
                                Err(e) => matches!(e, PlanError::PastTimeAxis { .. }),
                            }),
                        "the frontier pass and the full plan dispatch differently"
                    );
                    frontier
                }
                None => {
                    self.ordered = None;
                    let tuned = self.selector.select(&problem).map(|(chosen, schedule)| {
                        self.snapshot_log.offer(&problem, chosen);
                        self.active = Some(chosen);
                        step.tuned = Some(chosen);
                        schedule
                    });
                    debug_assert!(tuned.iter().all(|s| s.validate(&problem).is_ok()));
                    tuned
                }
            };
            self.waiting = problem.jobs;
            match planned {
                Ok(schedule) => {
                    self.dispatch(now, &schedule, step);
                    if reuse.is_none() {
                        self.plan = OnceCell::from(schedule);
                    }
                    step.installed = true;
                    return;
                }
                Err(error) => {
                    // Not waiting: nothing to decline, and retrying would spin.
                    let Some(job) = self.take_waiting(error.job()) else {
                        return;
                    };
                    step.declined.push(Decline {
                        job,
                        error,
                        at_door: false,
                    });
                }
            }
        }
    }

    /// Starts every job `schedule` plans at `now`, in plan order.
    fn dispatch(&mut self, now: u64, schedule: &Schedule, step: &mut Step) {
        for entry in due(schedule, now) {
            let job = self.take_waiting(entry.id).expect("planned job is waiting");
            let actual_end = self.machine.start(&job, now);
            step.dispatched.push((job.id, actual_end));
        }
    }

    /// Removes job `id` from the waiting queue. `swap_remove`, so queue
    /// order — which drivers serialize — evolves the same way for every
    /// driver; the policy-ordered mirror keeps its order.
    fn take_waiting(&mut self, id: JobId) -> Option<Job> {
        let idx = self.waiting.iter().position(|j| j.id == id)?;
        if let Some(ordered) = &mut self.ordered {
            ordered.retain(|j| j.id != id);
        }
        Some(self.waiting.swap_remove(idx))
    }

    /// The full plan of the waiting queue under the active policy, at
    /// the time of the last kernel call, leaving out every job whose
    /// window would end past the time axis (see [`Rms::plan`]); any other
    /// error fails the plan.
    fn derive_plan(&self) -> Result<Schedule, PlanError> {
        let Some(active) = self.active else {
            return Ok(Schedule::new());
        };
        let now = self.planned_at;
        let mut problem =
            SchedulingProblem::new(now, self.machine.history(now), self.waiting.clone());
        loop {
            match plan(&problem, active) {
                Err(PlanError::PastTimeAxis { id, .. }) => problem.jobs.retain(|j| j.id != id),
                planned => return planned,
            }
        }
    }

    /// The machine: capacity, and the running set with start times.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The policy selector (e.g. to read dynP statistics after the run).
    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// Submitted, not yet dispatched jobs, in queue order.
    pub fn waiting(&self) -> &[Job] {
        &self.waiting
    }

    /// The current plan. After a submission this is the tuning step's
    /// full plan, which still lists the jobs it dispatched (filter by
    /// [`Machine::running`] for the waiting part). After a completion it is
    /// derived on read — the active policy's full plan of the jobs still
    /// waiting, against the machine as the completion left it; the same
    /// starts a full re-plan at the completion would have given them,
    /// computed once and only if somebody asks. A job whose window such a
    /// re-plan pushes past the time axis is left out until a kernel call
    /// reaches and declines it.
    pub fn plan(&self) -> &Schedule {
        self.plan.get_or_init(|| {
            self.derive_plan()
                .expect("every queued job was planned when it was admitted or restored")
        })
    }

    /// Completed-job records so far, in completion order.
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Decomposes the RMS into its records, snapshot tap and selector.
    pub fn into_parts(self) -> (Vec<JobRecord>, SnapshotLog, S) {
        (self.records, self.snapshot_log, self.selector)
    }
}

/// The entries of `schedule` that start at `now`, in plan order.
fn due(schedule: &Schedule, now: u64) -> impl Iterator<Item = &ScheduleEntry> {
    schedule.entries().iter().filter(move |e| e.start == now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_core::FixedPolicy;

    /// A kernel after a replay, with what the calls refused.
    struct Driven<S: PolicySelector> {
        rms: Rms<S>,
        declined: Vec<JobId>,
        policy_log: Vec<Policy>,
    }

    /// Drives a fresh kernel through `jobs` (in submit order) with the
    /// loop of [`crate::simulate`]: each submission after every
    /// completion due by its time, then the drain.
    fn drive_with<S: PolicySelector>(capacity: u32, selector: S, jobs: &[Job]) -> Driven<S> {
        let mut rms = Rms::new(capacity, selector, SnapshotLog::disabled());
        let (mut declined, mut policy_log) = (Vec::new(), Vec::new());
        let mut book = |step: Step| {
            policy_log.extend(step.tuned);
            declined.extend(step.declined.iter().map(|d| d.job.id));
        };
        for job in jobs {
            while let Some((_, _, step)) = rms.complete_next(job.submit, false) {
                book(step);
            }
            book(rms.submit(job.submit, [*job]));
        }
        while let Some((_, _, step)) = rms.complete_next(u64::MAX, false) {
            book(step);
        }
        Driven {
            rms,
            declined,
            policy_log,
        }
    }

    fn drive(capacity: u32, jobs: Vec<Job>, policy: Policy) -> Driven<FixedPolicy> {
        drive_with(capacity, FixedPolicy(policy), &jobs)
    }

    impl<S: PolicySelector> std::ops::Deref for Driven<S> {
        type Target = Rms<S>;

        fn deref(&self) -> &Rms<S> {
            &self.rms
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let rms = drive(4, vec![Job::exact(0, 10, 2, 100)], Policy::Fcfs);
        assert_eq!(rms.records().len(), 1);
        let r = rms.records()[0];
        assert_eq!(r.start, 10);
        assert_eq!(r.end, 110);
        assert_eq!(r.wait(), 0);
    }

    #[test]
    fn sequentialized_jobs_queue_up() {
        let jobs = vec![Job::exact(0, 0, 4, 100), Job::exact(1, 0, 4, 100)];
        let rms = drive(4, jobs, Policy::Fcfs);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records[0].start, 0);
        assert_eq!(records[1].start, 100);
    }

    #[test]
    fn early_finish_pulls_waiting_jobs_forward() {
        // Job 0 estimates 1000 s but actually runs 100 s; job 1 must not
        // wait for the estimate.
        let jobs = vec![Job::new(0, 0, 4, 1000, 100), Job::exact(1, 0, 4, 50)];
        let rms = drive(4, jobs, Policy::Fcfs);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records[0].end, 100);
        assert_eq!(records[1].start, 100);
    }

    #[test]
    fn narrow_jobs_backfill_alongside_wide_ones() {
        let jobs = vec![
            Job::exact(0, 0, 3, 100),
            Job::exact(1, 0, 4, 100), // must wait (3+4 > 4)
            Job::exact(2, 0, 1, 100), // fits alongside job 0
        ];
        let rms = drive(4, jobs, Policy::Fcfs);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records[0].start, 0);
        assert_eq!(records[2].start, 0);
        assert_eq!(records[1].start, 100);
    }

    #[test]
    fn sjf_reorders_the_queue() {
        // All compete for the full machine; SJF runs short before long even
        // though the long one arrived first (both waiting when machine
        // frees).
        let jobs = vec![
            Job::exact(0, 0, 4, 100), // running first
            Job::exact(1, 1, 4, 1000),
            Job::exact(2, 2, 4, 10),
        ];
        let rms = drive(4, jobs, Policy::Sjf);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records[2].start, 100); // short first
        assert_eq!(records[1].start, 110);
    }

    #[test]
    fn ljf_runs_long_jobs_first() {
        let jobs = vec![
            Job::exact(0, 0, 4, 100),
            Job::exact(1, 1, 4, 10),
            Job::exact(2, 2, 4, 1000),
        ];
        let rms = drive(4, jobs, Policy::Ljf);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records[2].start, 100);
        assert_eq!(records[1].start, 1100);
    }

    #[test]
    fn policy_log_has_one_entry_per_submission() {
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::exact(i, i as u64 * 10, 1, 50))
            .collect();
        let rms = drive(4, jobs, Policy::Fcfs);
        assert_eq!(rms.policy_log.len(), 5);
    }

    #[test]
    fn all_jobs_complete_and_machine_drains() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| Job::exact(i, (i as u64) * 7, 1 + i % 4, 60 + (i as u64 % 5) * 30))
            .collect();
        let rms = drive(8, jobs, Policy::Fcfs);
        assert_eq!(rms.records().len(), 30);
        assert_eq!(rms.machine().free(), 8);
        // No job starts before its submission.
        for r in rms.records() {
            assert!(r.start >= r.submit);
        }
    }

    #[test]
    fn oversized_job_is_declined_not_fatal() {
        let rms = drive(
            4,
            vec![Job::exact(0, 0, 2, 100), Job::exact(1, 5, 8, 100)],
            Policy::Fcfs,
        );
        assert_eq!(rms.records().len(), 1, "the plannable job completes");
        assert_eq!(rms.declined, [JobId(1)]);
        assert_eq!(rms.machine().free(), 4);
    }

    /// A malformed job injected mid-simulation (the queue already busy)
    /// must decline alone: every other job completes as if it never
    /// arrived.
    #[test]
    fn oversized_job_injected_mid_simulation_declines_alone() {
        let jobs = vec![
            Job::exact(0, 0, 4, 100),  // running when the bad job arrives
            Job::exact(1, 10, 9, 50),  // wider than the machine
            Job::exact(2, 20, 4, 100), // must still complete
        ];
        let rms = drive(4, jobs, Policy::Fcfs);
        assert_eq!(rms.declined, [JobId(1)]);
        let mut records = rms.records().to_vec();
        records.sort_by_key(|r| r.id);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].start, 0);
        assert_eq!(records[1].start, 100, "queue drains as if job 1 never came");
    }

    /// Same injection under dynP: the self-tuning step's `PlanError`
    /// surfaces through the selector, the job declines, and the cell
    /// (here: the run) finishes.
    #[test]
    fn dynp_declines_oversized_job_injected_mid_simulation() {
        let rms = drive_with(
            4,
            dynp_core::SelfTuning::paper_config(dynp_sched::Metric::SldwA),
            &[
                Job::exact(0, 0, 4, 100),
                Job::exact(1, 10, 9, 50),
                Job::exact(2, 10, 2, 60),
            ],
        );
        assert_eq!(rms.declined, [JobId(1)]);
        assert_eq!(rms.records().len(), 2);
        assert_eq!(rms.machine().free(), 4);
    }

    /// The kernel contract, without any driver: each call reports what
    /// it dispatched (with actual ends), what it declined and where, and
    /// whether it tuned.
    #[test]
    fn kernel_calls_report_what_happened() {
        let mut rms = Rms::new(4, FixedPolicy(Policy::Fcfs), SnapshotLog::disabled());
        let step = rms.submit(
            10,
            [
                Job::new(0, 10, 4, 100, 60),
                Job::exact(1, 10, 9, 50),
                Job::exact(2, 10, 4, 30),
            ],
        );
        assert_eq!(step.tuned, Some(Policy::Fcfs));
        assert!(step.installed);
        assert_eq!(
            step.dispatched,
            [(JobId(0), 70)],
            "actual end, not the estimate"
        );
        assert_eq!(step.declined.len(), 1);
        assert!(step.declined[0].at_door);
        assert_eq!(step.declined[0].job.id, JobId(1));
        assert_eq!(rms.waiting().len(), 1);
        assert_eq!(
            rms.plan().start_of(JobId(2)),
            Some(110),
            "planned on the estimate"
        );

        // Completion: no tuning, the waiting job moves forward.
        assert_eq!(rms.complete_next(69, false), None, "not due before its actual end");
        let (end, id, step) = rms.complete_next(u64::MAX, false).unwrap();
        assert_eq!((end, id), (70, JobId(0)));
        assert_eq!(step.tuned, None);
        assert_eq!(step.dispatched, [(JobId(2), 100)]);
        assert_eq!(rms.records().len(), 1);

        // The queue drains: the last completion installs nothing.
        assert_eq!(
            rms.complete_next(100, false),
            Some((100, JobId(2), Step::default()))
        );
        assert!(rms.plan().is_empty());
        assert_eq!(rms.complete_next(u64::MAX, false), None, "nothing running");
    }

    #[test]
    fn submission_that_admits_nothing_is_not_a_tuning_point() {
        let mut rms = Rms::new(
            4,
            dynp_core::SelfTuning::paper_config(dynp_sched::Metric::SldwA),
            SnapshotLog::disabled(),
        );
        rms.submit(0, [Job::exact(0, 0, 4, 100), Job::exact(1, 0, 4, 100)]);
        assert_eq!(rms.selector().stats().steps(), 1);
        let step = rms.submit(5, [Job::exact(2, 5, 9, 10)]);
        assert_eq!((step.tuned, step.installed), (None, false));
        assert_eq!(step.declined.len(), 1);
        assert_eq!(rms.selector().stats().steps(), 1);
        assert_eq!(rms.plan().start_of(JobId(1)), Some(100), "plan untouched");
    }

    #[test]
    fn restore_resumes_where_the_original_stands() {
        let jobs = [
            Job::new(0, 0, 3, 100, 80),
            Job::exact(1, 0, 4, 50),
            Job::exact(2, 0, 1, 20),
        ];
        let sjf = FixedPolicy(Policy::Sjf);
        let mut a = Rms::new(4, sjf, SnapshotLog::disabled());
        a.submit(0, jobs);
        assert_eq!(a.complete_next(20, false).map(|(_, id, _)| id), Some(JobId(2)));
        let running = a.machine().running().to_vec();
        let (waiting, records) = (a.waiting().to_vec(), a.records().to_vec());
        let mut b = Rms::restore(4, sjf, 20, Policy::Sjf, waiting, running, records).unwrap();
        // SJF ran job 2 first, job 1 (4-wide) took the machine at 20 and
        // job 0 waits behind it; the original derives its plan on this
        // read and, like the restored one, lists waiting jobs only.
        assert_eq!(b.plan().start_of(JobId(0)), Some(70));
        assert_eq!(a.plan(), b.plan());
        assert_eq!(a.plan().len(), 1);
        assert_eq!(b.machine().running(), a.machine().running());
        let next = a.complete_next(70, false);
        assert_eq!(next.as_ref().map(|&(end, id, _)| (end, id)), Some((70, JobId(1))));
        assert_eq!(next, b.complete_next(70, false));
        assert_eq!(a.records(), b.records());
        assert_eq!(a.machine().running(), b.machine().running());

        // Two 3-wide jobs cannot both be running on 4 nodes.
        let overcommitted = [jobs[0], Job::exact(5, 0, 3, 10)]
            .map(|job| RunningJob { job, start: 0 })
            .to_vec();
        let err = Rms::restore(4, sjf, 0, Policy::Sjf, vec![], overcommitted, vec![]);
        assert!(err.unwrap_err().contains("overcommits"));
        let unplannable = vec![Job::exact(6, 0, 9, 10)];
        let err = Rms::restore(4, sjf, 0, Policy::Sjf, unplannable, vec![], vec![]);
        assert!(err.unwrap_err().contains("unplannable"));
    }

    /// An early completion can delay a planned job (list scheduling is not
    /// monotone), and a job whose window ended exactly at `u64::MAX`
    /// then ends past it. The completion's frontier still dispatches, the
    /// plan read after it leaves that job out, and the pass that reaches
    /// it declines it by name.
    #[test]
    fn a_job_delayed_past_the_time_axis_is_declined_when_reached() {
        let mut rms = Rms::new(2, FixedPolicy(Policy::Fcfs), SnapshotLog::disabled());
        // Two running jobs: one estimated to end at 53 that finishes at 44.
        let step = rms.submit(0, [Job::new(10, 0, 1, 53, 44), Job::exact(11, 0, 1, 79)]);
        assert_eq!(step.dispatched, [(JobId(10), 44), (JobId(11), 79)]);
        let x = Job::exact(3, 0, 2, u64::MAX - 146);
        let queue = [
            Job::exact(0, 0, 1, 58),
            Job::exact(1, 0, 2, 35),
            Job::exact(2, 0, 1, 25),
            x,
        ];
        let step = rms.submit(0, queue);
        assert!(step.dispatched.is_empty() && step.declined.is_empty());
        assert_eq!(
            rms.plan().entries().last().map(|e| (e.id, e.end)),
            Some((x.id, u64::MAX))
        );

        // Job 0 starts at 44 and pushes job 2 from 79 to 137, so x
        // cannot start before 162.
        let (_, id, step) = rms.complete_next(44, false).unwrap();
        assert_eq!(id, JobId(10));
        assert_eq!(step.dispatched, [(JobId(0), 102)]);
        assert_eq!(rms.plan().start_of(JobId(2)), Some(137));
        assert_eq!(rms.plan().start_of(x.id), None);
        assert!(rms.waiting().contains(&x));

        let mut declined = Vec::new();
        while let Some((_, _, step)) = rms.complete_next(u64::MAX, false) {
            declined.extend(step.declined);
        }
        assert_eq!(declined.len(), 1);
        assert_eq!(declined[0].job, x);
        assert!(matches!(declined[0].error, PlanError::PastTimeAxis { .. }));
        assert!(rms.waiting().is_empty());
        assert_eq!(rms.records().len(), 5);
    }
}
