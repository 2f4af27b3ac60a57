//! The rigid-job model shared by every crate in the workspace.
//!
//! Following §3.1 of the paper, a job `i` is described by three values at
//! scheduling time: its requested width `w_i` (number of resources), its
//! *estimated* duration `d_i`, and its submission time `s_i`. The simulator
//! additionally carries the *actual* duration so that a finished job can
//! release its resources at the real completion time, while the planner only
//! ever sees the estimate ("the scheduler … knows only the estimated duration
//! at scheduling time").

use std::fmt;

/// Identifier of a job, unique within one trace / simulation run.
///
/// Stored as `u32`: the largest archive traces are well below 2^32 jobs and
/// a small id keeps the hot scheduling structs compact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for JobId {
    fn from(v: u32) -> Self {
        JobId(v)
    }
}

/// A rigid parallel job.
///
/// Invariants (checked by [`Job::validate`]):
/// * `width >= 1`,
/// * `estimated_duration >= 1` and `actual_duration >= 1`,
/// * `actual_duration <= estimated_duration` is **not** required in general
///   (users under-estimate too), but planning-based systems kill jobs at the
///   estimate, so [`Job::effective_duration`] caps the actual duration at the
///   estimate the way CCS (the paper's RMS) enforces it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Job {
    /// Unique id within the trace.
    pub id: JobId,
    /// Submission time `s_i` in seconds since trace start.
    pub submit: u64,
    /// Requested number of resources `w_i` (processors/nodes).
    pub width: u32,
    /// User-supplied runtime estimate `d_i` in seconds; the only duration
    /// visible to the scheduler.
    pub estimated_duration: u64,
    /// Real runtime in seconds, revealed to the simulator when the job ends.
    pub actual_duration: u64,
    /// Originating user (for workload statistics; `0` if unknown).
    pub user: u32,
}

impl Job {
    /// Creates a job whose actual duration equals its estimate — convenient
    /// in unit tests and in the quasi-off-line snapshots of §3, where only
    /// estimates matter.
    pub fn exact(id: u32, submit: u64, width: u32, duration: u64) -> Self {
        Job {
            id: JobId(id),
            submit,
            width,
            estimated_duration: duration,
            actual_duration: duration,
            user: 0,
        }
    }

    /// Creates a job with distinct estimated and actual durations.
    pub fn new(id: u32, submit: u64, width: u32, estimated: u64, actual: u64) -> Self {
        Job {
            id: JobId(id),
            submit,
            width,
            estimated_duration: estimated,
            actual_duration: actual,
            user: 0,
        }
    }

    /// The duration the job really occupies the machine for: the actual
    /// runtime, truncated at the estimate (planning-based RMSs kill jobs that
    /// exceed their reservation).
    pub fn effective_duration(&self) -> u64 {
        self.actual_duration.min(self.estimated_duration)
    }

    /// Job *area* `w_i * d_i` over the estimated duration — the weight used
    /// by the SLDwA metric ("slowdown weighted by job area") — saturating
    /// at `u64::MAX` for estimates near the end of the time axis.
    pub fn estimated_area(&self) -> u64 {
        (self.width as u64).saturating_mul(self.estimated_duration)
    }

    /// Checks the structural invariants, returning a human-readable reason on
    /// failure. Used by the SWF reader and the synthetic generator.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 {
            return Err(format!("job {}: width must be >= 1", self.id));
        }
        if self.estimated_duration == 0 {
            return Err(format!("job {}: estimated duration must be >= 1", self.id));
        }
        if self.actual_duration == 0 {
            return Err(format!("job {}: actual duration must be >= 1", self.id));
        }
        Ok(())
    }
}

/// Orders jobs by submission time, breaking ties by id — the canonical event
/// order of an online trace. Sorting with this comparator makes replay
/// deterministic even when many jobs are submitted in the same second (e.g.
/// parameter studies submitted by a script, as the paper's intro describes).
pub fn submit_order(a: &Job, b: &Job) -> std::cmp::Ordering {
    a.submit.cmp(&b.submit).then(a.id.cmp(&b.id))
}

/// Sorts a job slice into canonical submit order.
pub fn sort_by_submit(jobs: &mut [Job]) {
    jobs.sort_by(submit_order);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_job_has_equal_durations() {
        let j = Job::exact(1, 10, 4, 3600);
        assert_eq!(j.estimated_duration, 3600);
        assert_eq!(j.actual_duration, 3600);
        assert_eq!(j.effective_duration(), 3600);
    }

    #[test]
    fn effective_duration_caps_at_estimate() {
        let j = Job::new(1, 0, 2, 100, 150);
        assert_eq!(j.effective_duration(), 100);
        let j = Job::new(2, 0, 2, 100, 70);
        assert_eq!(j.effective_duration(), 70);
    }

    #[test]
    fn area_uses_width_times_duration() {
        let j = Job::new(1, 0, 8, 100, 60);
        assert_eq!(j.estimated_area(), 800);
    }

    #[test]
    fn validate_rejects_degenerate_jobs() {
        assert!(Job::exact(1, 0, 0, 10).validate().is_err());
        assert!(Job::new(1, 0, 1, 0, 5).validate().is_err());
        assert!(Job::new(1, 0, 1, 5, 0).validate().is_err());
        assert!(Job::exact(1, 0, 1, 1).validate().is_ok());
    }

    #[test]
    fn submit_order_breaks_ties_by_id() {
        let mut jobs = vec![
            Job::exact(3, 50, 1, 1),
            Job::exact(1, 50, 1, 1),
            Job::exact(2, 20, 1, 1),
        ];
        sort_by_submit(&mut jobs);
        let ids: Vec<u32> = jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn job_id_formats_compactly() {
        assert_eq!(format!("{:?}", JobId(7)), "J7");
        assert_eq!(format!("{}", JobId(7)), "7");
    }
}
