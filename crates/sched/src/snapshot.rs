//! The quasi-off-line scheduling problem of §3.
//!
//! "In each self-tuning step a quasi off-line scheduling is done as the
//! number of jobs are fixed. However, it is not a classic off-line
//! scheduling … the schedule does not start with an empty machine."
//!
//! A [`SchedulingProblem`] captures exactly that instance: the observation
//! time, the machine history of running jobs, and the fixed set of waiting
//! jobs. Both the policy planner ([`crate::planner`]) and the integer
//! program (`dynp-milp`) consume the same snapshot, which is what makes the
//! paper's comparison apples-to-apples.

use crate::reservation::Reservation;
use dynp_platform::{MachineHistory, ResourceProfile};
use dynp_trace::Job;

/// One quasi-off-line scheduling instance.
#[derive(Clone, Debug)]
pub struct SchedulingProblem {
    /// Observation time ("now"); no job may start earlier.
    pub now: u64,
    /// Machine history: capacity and the release times of running jobs.
    pub history: MachineHistory,
    /// The fixed set of waiting jobs. All have `submit <= now`.
    pub jobs: Vec<Job>,
    /// Admitted advance reservations; capacities are reduced by these in
    /// addition to the history (see [`crate::reservation`]).
    pub reservations: Vec<Reservation>,
}

impl SchedulingProblem {
    /// Creates a snapshot, normalizing job submit times to be `<= now`
    /// (a waiting job cannot have been submitted in the future).
    ///
    /// # Panics
    /// Panics if the history's observation time differs from `now`.
    pub fn new(now: u64, history: MachineHistory, jobs: Vec<Job>) -> Self {
        assert_eq!(history.now(), now, "history observed at a different time");
        debug_assert!(
            jobs.iter().all(|j| j.submit <= now),
            "waiting job submitted after now"
        );
        SchedulingProblem {
            now,
            history,
            jobs,
            reservations: Vec::new(),
        }
    }

    /// The availability profile every consumer plans against: machine
    /// history (running jobs) minus admitted reservations. Reservations
    /// ending at or before `now` no longer constrain anything.
    pub fn availability_profile(&self) -> ResourceProfile {
        let mut profile = self.history.to_profile();
        for r in &self.reservations {
            if r.end > self.now {
                profile.allocate(r.start.max(self.now), r.end, r.width);
            }
        }
        profile
    }

    /// Convenience constructor for an empty machine.
    pub fn on_empty_machine(now: u64, capacity: u32, jobs: Vec<Job>) -> Self {
        SchedulingProblem::new(now, MachineHistory::empty(capacity, now), jobs)
    }

    /// Machine capacity.
    pub fn capacity(&self) -> u32 {
        self.history.capacity()
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether there are no waiting jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Accumulated estimated run time of all waiting jobs (the "acc. run
    /// time" column of Table 1).
    pub fn accumulated_runtime(&self) -> u64 {
        self.jobs.iter().map(|j| j.estimated_duration).sum()
    }

    /// A trivially safe upper bound on the makespan of any reasonable
    /// schedule: all running jobs drain, then waiting jobs run one after
    /// another. The ILP uses the tighter per-policy bound of §3.1 instead
    /// (max makespan of the FCFS/SJF/LJF schedules).
    pub fn naive_horizon(&self) -> u64 {
        self.history.drained_at() + self.accumulated_runtime()
    }

    /// Checks that every waiting job fits the machine at all.
    pub fn validate(&self) -> Result<(), String> {
        for r in &self.reservations {
            r.validate(self.capacity())?;
        }
        for job in &self.jobs {
            job.validate()?;
            if job.width > self.capacity() {
                return Err(format!(
                    "job {} wider ({}) than machine ({})",
                    job.id,
                    job.width,
                    self.capacity()
                ));
            }
            if job.submit > self.now {
                return Err(format!(
                    "job {} submitted at {} after now {}",
                    job.id, job.submit, self.now
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::Job;

    #[test]
    fn snapshot_on_empty_machine() {
        let p = SchedulingProblem::on_empty_machine(
            100,
            16,
            vec![Job::exact(0, 50, 4, 600), Job::exact(1, 80, 2, 300)],
        );
        assert_eq!(p.capacity(), 16);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.accumulated_runtime(), 900);
        assert_eq!(p.naive_horizon(), 100 + 900);
        p.validate().unwrap();
    }

    #[test]
    fn horizon_includes_drain_time() {
        let history = MachineHistory::build(16, 100, &[(8, 500)]);
        let p = SchedulingProblem::new(100, history, vec![Job::exact(0, 50, 4, 600)]);
        assert_eq!(p.naive_horizon(), 500 + 600);
    }

    #[test]
    fn validate_rejects_too_wide_jobs() {
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![Job::exact(0, 0, 8, 100)]);
        assert!(p.validate().unwrap_err().contains("wider"));
    }

    #[test]
    #[should_panic(expected = "different time")]
    fn mismatched_history_time_panics() {
        let history = MachineHistory::empty(4, 50);
        SchedulingProblem::new(100, history, vec![]);
    }

    #[test]
    fn empty_snapshot_is_empty() {
        let p = SchedulingProblem::on_empty_machine(0, 4, vec![]);
        assert!(p.is_empty());
        assert_eq!(p.accumulated_runtime(), 0);
        p.validate().unwrap();
    }
}
