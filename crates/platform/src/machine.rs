//! The live cluster: tracks which jobs are running *now* and renders the
//! machine history the planner and the integer program consume.
//!
//! During simulation the [`Machine`] is the single source of truth for
//! resource occupancy. Jobs start (allocating `width` resources), run for
//! their *actual* duration, and release on completion; the machine history
//! is always derived from their *estimated* ends (§3.1), because that is all
//! a real RMS knows.

use std::fmt;

use crate::history::MachineHistory;
use dynp_trace::{Job, JobId};

/// A machine-state transition that cannot be applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// [`Machine::complete`] was called for a job that is not running —
    /// a double completion, or a completion for a job never started.
    NotRunning(JobId),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NotRunning(id) => {
                write!(f, "completing {id:?} which is not running")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// A job currently occupying resources: the job as admitted and when it
/// started. Its ends follow from the two, saturating at the end of the
/// time axis (a planned job's estimated window always fits; a restored
/// one is not planned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunningJob {
    /// The job, as submitted.
    pub job: Job,
    /// Absolute start time.
    pub start: u64,
}

impl RunningJob {
    /// Start + estimated duration: what the planner sees.
    pub fn estimated_end(&self) -> u64 {
        self.start.saturating_add(self.job.estimated_duration)
    }

    /// Start + effective duration: when the job really completes.
    pub fn actual_end(&self) -> u64 {
        self.start.saturating_add(self.job.effective_duration())
    }

    /// The order of [`Machine::running`].
    fn release_key(&self) -> (u64, JobId) {
        (self.estimated_end(), self.job.id)
    }
}

/// A cluster of identical resources with a running-job set — the only
/// record of which jobs run, since when, and until when.
#[derive(Clone, Debug)]
pub struct Machine {
    capacity: u32,
    free: u32,
    /// Ordered by `(estimated_end, id)`, so the history is one pass.
    running: Vec<RunningJob>,
}

impl Machine {
    /// A fully idle machine with `capacity` resources.
    pub fn new(capacity: u32) -> Machine {
        Machine {
            capacity,
            free: capacity,
            running: Vec::new(),
        }
    }

    /// Total resources.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Resources free right now.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Resources busy right now.
    pub fn busy(&self) -> u32 {
        self.capacity - self.free
    }

    /// Jobs currently running, by estimated end (ties by id).
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// Whether a job of `width` can start immediately.
    pub fn can_start(&self, width: u32) -> bool {
        width <= self.free
    }

    /// Starts `job` at time `now`, returning its actual end.
    ///
    /// # Panics
    /// Panics if the job does not fit — the scheduler must only dispatch
    /// jobs it has planned onto free resources.
    pub fn start(&mut self, job: &Job, now: u64) -> u64 {
        assert!(
            self.can_start(job.width),
            "machine overcommit: starting {:?} (width {}) with {} free",
            job.id,
            job.width,
            self.free
        );
        self.free -= job.width;
        let record = RunningJob {
            job: *job,
            start: now,
        };
        let idx = self
            .running
            .partition_point(|r| r.release_key() < record.release_key());
        self.running.insert(idx, record);
        record.actual_end()
    }

    /// Completes the running job `id`, releasing its resources. Returns the
    /// released record, or [`MachineError::NotRunning`] if no such job is
    /// running (a double completion must not corrupt the free count, let
    /// alone abort a simulation).
    pub fn complete(&mut self, id: JobId) -> Result<RunningJob, MachineError> {
        let idx = self
            .running
            .iter()
            .position(|r| r.job.id == id)
            .ok_or(MachineError::NotRunning(id))?;
        let record = self.running.remove(idx);
        self.free += record.job.width;
        Ok(record)
    }

    /// The running job that completes first, as `(actual end, id)` —
    /// ties by id — or `None` on an idle machine.
    pub fn next_completion(&self) -> Option<(u64, JobId)> {
        self.running.iter().map(|r| (r.actual_end(), r.job.id)).min()
    }

    /// Renders the machine history at time `now` from the running set's
    /// **estimated** ends, as §3.1 prescribes: one pass over the set,
    /// which is already in release order.
    pub fn history(&self, now: u64) -> MachineHistory {
        let releases = self.running.iter().map(|r| (r.job.width, r.estimated_end()));
        let history =
            MachineHistory::from_ordered(self.capacity, now, self.busy(), releases.clone());
        debug_assert_eq!(
            history,
            MachineHistory::build(self.capacity, now, &releases.collect::<Vec<_>>()),
            "the ordered running set and the sorted build disagree"
        );
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::Job;
    use proptest::prelude::*;

    #[test]
    fn start_and_complete_roundtrip() {
        let mut m = Machine::new(10);
        let j = Job::exact(1, 0, 4, 100);
        let end = m.start(&j, 50);
        assert_eq!(end, 150);
        assert_eq!(m.free(), 6);
        assert_eq!(m.busy(), 4);
        let rec = m.complete(JobId(1)).unwrap();
        assert_eq!((rec.job, rec.start), (j, 50));
        assert_eq!(m.free(), 10);
        assert!(m.running().is_empty());
    }

    #[test]
    fn actual_end_uses_effective_duration() {
        let mut m = Machine::new(10);
        // Estimate 100 but actually runs 60.
        let j = Job::new(1, 0, 2, 100, 60);
        let end = m.start(&j, 0);
        assert_eq!(end, 60);
        // The history still uses the estimate.
        let h = m.history(10);
        assert_eq!(h.free_at(10), 8);
        assert_eq!(h.free_at(100), 10);
    }

    #[test]
    fn overrunning_job_is_capped_at_estimate() {
        let mut m = Machine::new(10);
        let j = Job::new(1, 0, 2, 100, 150);
        assert_eq!(m.start(&j, 0), 100);
    }

    #[test]
    fn ends_saturate_at_the_end_of_the_time_axis() {
        let mut m = Machine::new(10);
        let j = Job::new(1, 0, 2, u64::MAX, u64::MAX - 5);
        assert_eq!(m.start(&j, 10), u64::MAX);
        assert_eq!(m.running()[0].estimated_end(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn start_panics_when_too_wide() {
        let mut m = Machine::new(4);
        m.start(&Job::exact(1, 0, 3, 10), 0);
        m.start(&Job::exact(2, 0, 2, 10), 0);
    }

    #[test]
    fn complete_unknown_job_is_a_typed_error() {
        let mut m = Machine::new(4);
        assert_eq!(m.complete(JobId(7)), Err(MachineError::NotRunning(JobId(7))));
    }

    #[test]
    fn double_completion_leaves_state_intact() {
        let mut m = Machine::new(4);
        m.start(&Job::exact(1, 0, 3, 10), 0);
        assert!(m.complete(JobId(1)).is_ok());
        // The second completion is refused and the free count does not
        // drift past capacity.
        assert_eq!(m.complete(JobId(1)), Err(MachineError::NotRunning(JobId(1))));
        assert_eq!(m.free(), 4);
    }

    #[test]
    fn can_start_checks_current_free() {
        let mut m = Machine::new(4);
        assert!(m.can_start(4));
        m.start(&Job::exact(1, 0, 3, 10), 0);
        assert!(m.can_start(1));
        assert!(!m.can_start(2));
    }

    #[test]
    fn history_of_idle_machine_is_trivial() {
        let m = Machine::new(16);
        let h = m.history(42);
        assert_eq!(h.points().len(), 1);
        assert_eq!(h.free_at(42), 16);
    }

    #[test]
    fn next_completion_is_the_earliest_actual_end() {
        let mut m = Machine::new(10);
        assert_eq!(m.next_completion(), None);
        // Running order is by estimated end; completions go by actual end,
        // ties by id.
        m.start(&Job::new(3, 0, 1, 50, 50), 0);
        m.start(&Job::new(1, 0, 1, 100, 30), 0);
        m.start(&Job::new(2, 0, 1, 40, 30), 0);
        assert_eq!(m.running()[0].job.id, JobId(2));
        assert_eq!(m.next_completion(), Some((30, JobId(1))));
        m.complete(JobId(1)).unwrap();
        assert_eq!(m.next_completion(), Some((30, JobId(2))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random start/complete sequences: the running set stays ordered
        /// by `(estimated_end, id)`, and the one-pass history equals the
        /// sorted build over the same set — now, and later when some
        /// estimated ends are overdue.
        #[test]
        fn ordered_history_equals_the_sorted_build(
            capacity in 1u32..=32,
            ops in prop::collection::vec((0u32..3, 1u32..=8, 1u64..6, 0u64..40, 0usize..64), 0..40),
        ) {
            let mut m = Machine::new(capacity);
            let mut now = 0;
            for (next_id, &(kind, width, est, advance, pick)) in (0u32..).zip(&ops) {
                now += advance;
                if kind == 0 && !m.running().is_empty() {
                    let id = m.running()[pick % m.running().len()].job.id;
                    prop_assert_eq!(m.complete(id).map(|r| r.job.id), Ok(id));
                } else if m.can_start(width) {
                    // Estimates in steps of ten seconds, so ends tie often;
                    // ids out of order, so ties need the id to break them.
                    let id = next_id.wrapping_mul(7919) % 10_007;
                    m.start(&Job::new(id, now, width, 10 * est, 10 * est), now);
                }
                prop_assert!(
                    m.running()
                        .windows(2)
                        .all(|w| w[0].release_key() < w[1].release_key()),
                    "running set out of order: {:?}",
                    m.running()
                );
                let busy: u32 = m.running().iter().map(|r| r.job.width).sum();
                prop_assert_eq!(m.busy(), busy);
                let releases: Vec<(u32, u64)> =
                    m.running().iter().map(|r| (r.job.width, r.estimated_end())).collect();
                for at in [now, now + 25, now + 70] {
                    prop_assert_eq!(m.history(at), MachineHistory::build(capacity, at, &releases));
                }
            }
        }
    }
}
