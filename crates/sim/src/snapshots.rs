//! Tapping the quasi-off-line snapshots the self-tuning steps produce.
//!
//! Table 1 of the paper is computed from the scheduling instances that
//! arise "at every job submission" (§4). The simulator offers every
//! instance to a [`SnapshotLog`], which filters them by queue length and
//! stores them, in step order, for the off-line ILP comparison — without
//! ever feeding results back into the simulation, exactly as the paper
//! prescribes for a fair comparison.

use dynp_sched::{Policy, SchedulingProblem};

/// One captured self-tuning instance.
#[derive(Clone, Debug)]
pub struct TunedSnapshot {
    /// Index of the self-tuning step that produced this snapshot.
    pub step: usize,
    /// The quasi-off-line problem (waiting jobs + machine history + now).
    pub problem: SchedulingProblem,
    /// The policy dynP (or the fixed selector) chose at this step.
    pub chosen: Policy,
}

/// Which snapshots to keep.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotFilter {
    /// Keep only snapshots with at least this many waiting jobs.
    pub min_jobs: usize,
    /// Keep only snapshots with at most this many waiting jobs (the ILP
    /// blows up beyond a few dozen, just like CPLEX did in the paper).
    pub max_jobs: usize,
}

impl Default for SnapshotFilter {
    fn default() -> Self {
        SnapshotFilter {
            min_jobs: 1,
            max_jobs: usize::MAX,
        }
    }
}

/// Collects snapshots according to a filter.
#[derive(Clone, Debug, Default)]
pub struct SnapshotLog {
    filter: Option<SnapshotFilter>,
    steps_seen: usize,
    snapshots: Vec<TunedSnapshot>,
}

impl SnapshotLog {
    /// A log that collects nothing (the default for plain simulations).
    pub fn disabled() -> SnapshotLog {
        SnapshotLog::default()
    }

    /// A log collecting snapshots matching `filter`.
    pub fn with_filter(filter: SnapshotFilter) -> SnapshotLog {
        SnapshotLog {
            filter: Some(filter),
            ..SnapshotLog::default()
        }
    }

    /// Offers a snapshot; the log decides whether to keep a clone.
    pub fn offer(&mut self, problem: &SchedulingProblem, chosen: Policy) {
        self.steps_seen += 1;
        let Some(filter) = self.filter else {
            return;
        };
        let n = problem.len();
        if n < filter.min_jobs || n > filter.max_jobs {
            return;
        }
        self.snapshots.push(TunedSnapshot {
            step: self.steps_seen - 1,
            problem: problem.clone(),
            chosen,
        });
    }

    /// The kept snapshots, in step order.
    pub fn snapshots(&self) -> &[TunedSnapshot] {
        &self.snapshots
    }

    /// Consumes the log, returning the kept snapshots.
    pub fn into_snapshots(self) -> Vec<TunedSnapshot> {
        self.snapshots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynp_trace::Job;

    fn problem(n: usize) -> SchedulingProblem {
        SchedulingProblem::on_empty_machine(
            0,
            64,
            (0..n as u32).map(|i| Job::exact(i, 0, 1, 100)).collect(),
        )
    }

    #[test]
    fn disabled_log_keeps_nothing() {
        let mut log = SnapshotLog::disabled();
        log.offer(&problem(5), Policy::Fcfs);
        assert!(log.snapshots().is_empty());
    }

    #[test]
    fn filter_by_queue_length() {
        let mut log = SnapshotLog::with_filter(SnapshotFilter {
            min_jobs: 3,
            max_jobs: 5,
        });
        for n in [1, 3, 5, 7] {
            log.offer(&problem(n), Policy::Sjf);
        }
        let lens: Vec<usize> = log.snapshots().iter().map(|s| s.problem.len()).collect();
        assert_eq!(lens, vec![3, 5]);
        // Rejected offers still count as steps.
        let steps: Vec<usize> = log.snapshots().iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![1, 2]);
    }

    #[test]
    fn snapshot_records_step_and_policy() {
        let mut log = SnapshotLog::with_filter(SnapshotFilter::default());
        log.offer(&problem(1), Policy::Ljf);
        let s = &log.snapshots()[0];
        assert_eq!(s.step, 0);
        assert_eq!(s.chosen, Policy::Ljf);
        assert_eq!(s.problem.len(), 1);
    }
}
